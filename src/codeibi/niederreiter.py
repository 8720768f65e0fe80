"""Niederreiter trapdoor: syndrome encryption behind a scrambled parity check.

The public matrix is h_tilde = Q @ H_bin @ P for a secret nonsingular Q
and a secret support permutation P.  Column j of H_bin @ P is the parity
column of the support point P.map[j], so keygen permutes the m bit planes
of the points and assembles H_bin @ P at the permuted points, in place of
permuting the m*t rows of H_bin.  Encrypting a weight-t vector means
publishing its scrambled syndrome; decrypting unscrambles and decodes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .binmat import (
    BitMatrix,
    BitVector,
    Permutation,
    apply_inverse_permutation,
    mat_invert,
    mat_mul,
    mat_vec_mul,
    permute_columns,
    random_nonsingular,
    random_permutation,
)
from .errors import DimensionMismatch, WeightError
from .gf2m import FieldParams
from .goppa import GoppaCode, _assemble_parity, build_goppa, patterson_decode, patterson_screen

__all__ = ["NiedPublicKey", "NiedSecretKey", "nied_decrypt", "nied_encrypt", "nied_keygen", "nied_screen"]


@dataclass(frozen=True)
class NiedPublicKey:
    h_tilde: BitMatrix  # (n-k) x n
    t: int

    @property
    def n(self) -> int:
        return self.h_tilde.ncols

    @property
    def k(self) -> int:
        return self.h_tilde.ncols - self.h_tilde.nrows


@dataclass(frozen=True)
class NiedSecretKey:
    q: BitMatrix
    code: GoppaCode
    p: Permutation
    q_inv: BitMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # once per key, not per decrypt; a singular q raises Singular here
        object.__setattr__(self, "q_inv", mat_invert(self.q))


def nied_keygen(
    params: FieldParams,
    t: int,
    rng: random.Random,
    q: BitMatrix | None = None,
    p: Permutation | None = None,
):
    """Key pair over a fresh Goppa code.

    q and p are injectable for tests (identity scramble exposes H_bin).
    """
    code = build_goppa(params, t, rng)
    r = code.n - code.k
    if q is None:
        q = random_nonsingular(r, rng)
    if p is None:
        p = random_permutation(code.n, rng)
    if q.nrows != r or q.ncols != r:
        raise DimensionMismatch(f"Q must be {r}x{r}")
    if p.n != code.n:
        raise DimensionMismatch(f"P must act on {code.n} points")
    points = permute_columns(BitMatrix(params.m, code.n, params.points), p).rows
    h_tilde = mat_mul(q, _assemble_parity(params, t, code.g, points))
    return NiedPublicKey(h_tilde, t), NiedSecretKey(q, code, p)


def nied_encrypt(pk: NiedPublicKey, x: BitVector) -> BitVector:
    """Scrambled syndrome of a weight-t plaintext."""
    if x.n != pk.n:
        raise DimensionMismatch(f"plaintext length {x.n}, expected {pk.n}")
    if x.weight() != pk.t:
        raise WeightError(f"plaintext weight {x.weight()}, expected exactly {pk.t}")
    return mat_vec_mul(pk.h_tilde, x)


def nied_decrypt(sk: NiedSecretKey, y: BitVector) -> BitVector:
    """Recover the weight-<=t vector whose scrambled syndrome is y.

    Raises Undecodable (from the decoder) when y is not a valid ciphertext.
    """
    r = sk.code.n - sk.code.k
    if y.n != r:
        raise DimensionMismatch(f"ciphertext length {y.n}, expected {r}")
    inner = mat_vec_mul(sk.q_inv, y)
    e = patterson_decode(sk.code, inner)
    return apply_inverse_permutation(sk.p, e)


def nied_screen(sk: NiedSecretKey, ys: list[BitVector]) -> int:
    """Mask of the ciphertexts in ys that nied_decrypt may accept; bit l is ys[l].

    The ciphertexts are transposed into r bit planes, one lane each; Q^-1
    then acts on the planes as XORs of planes, and goppa.patterson_screen
    decodes every lane at once.  nied_decrypt raises Undecodable on each
    ciphertext left out of the mask.
    """
    r = sk.code.n - sk.code.k
    if any(y.n != r for y in ys):
        raise DimensionMismatch(f"ciphertext length other than {r}")
    # column j of the strings, read with the last ciphertext first, is plane r - 1 - j
    cols = zip(*[format(y.bits, f"0{r}b") for y in reversed(ys)])
    planes = [int("".join(c), 2) for c in cols][::-1]
    inner = mat_mul(sk.q_inv, BitMatrix(r, len(ys), planes))
    return patterson_screen(sk.code, inner.rows, (1 << len(ys)) - 1)
