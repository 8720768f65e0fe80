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
from functools import cached_property

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
from .goppa import GoppaCode, _assemble_parity, _screen_key_equation, build_goppa, patterson_decode

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

    @cached_property
    def screen_map(self) -> BitMatrix:
        """Q^-1 followed by syndrome_poly, one r x r GF(2) matrix; made on the first screen."""
        return mat_mul(self.code.lane_maps[0], self.q_inv)


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

    The ciphertexts are joined into one int, a whole number of bytes
    each, and transposed into r bit planes, one lane each, by one format.
    sk.screen_map then takes the planes to those of S(z) as XORs of
    planes, and goppa's screen decodes every lane at once, as
    patterson_screen does.  nied_decrypt raises Undecodable on each
    ciphertext left out of the mask.
    """
    r = sk.code.n - sk.code.k
    if not ys:
        return 0
    if any(y.n != r for y in ys):
        raise DimensionMismatch(f"ciphertext length other than {r}")
    size = -(-r // 8)
    joined = int.from_bytes(b"".join(y.bits.to_bytes(size, "little") for y in ys), "little")
    # bit j of ys[l] is bit 8*size*l + j; read from the top, plane j starts at 8*size - 1 - j
    bits = format(joined, f"0{8 * size * len(ys)}b")
    planes = [int(bits[8 * size - 1 - j :: 8 * size], 2) for j in range(r)]
    rows = mat_mul(sk.screen_map, BitMatrix(r, len(ys), planes)).rows
    return _screen_key_equation(sk.code, rows, (1 << len(ys)) - 1)
