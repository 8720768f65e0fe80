"""Niederreiter trapdoor: syndrome encryption behind a scrambled parity check.

The public matrix is h_tilde = Q @ H_bin @ P for a secret nonsingular Q
and a secret support permutation P.  Column j of H_bin @ P is the parity
column of the support point P.map[j], which is the element P.map[j]
itself, so keygen reads the m bit planes of the permuted points off
P's words and assembles H_bin @ P there, in place of permuting the m*t
rows of H_bin.  Encrypting a weight-t vector means publishing its
scrambled syndrome; decrypting unscrambles, decodes, and moves the
error's few set bits back through P.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .binmat import (
    BitMatrix,
    BitVector,
    Permutation,
    bit_planes,
    mat_invert,
    mat_mul,
    mat_vec_mul,
    random_nonsingular,
    random_permutation,
    unpermute_support,
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
    h_tilde = mat_mul(q, _assemble_parity(params, t, code.g, _permuted_points(p, params.m)))
    return NiedPublicKey(h_tilde, t), NiedSecretKey(q, code, p)


def _permuted_points(p: Permutation, m: int) -> list[int]:
    """The m bit planes of the support points permuted by p.

    The point at position j is p.map[j] itself (x_i = i), of at most 16
    bits, so the planes are those of p's words, each swapped from
    big-endian to the little-endian order bit_planes reads.
    """
    images = array("H", p.words)
    images.byteswap()
    return bit_planes(images.tobytes(), 2, m)


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
    return unpermute_support(sk.p, e)


def nied_screen(sk: NiedSecretKey, ys: list[BitVector]) -> int:
    """Mask of the ciphertexts in ys that nied_decrypt may accept; bit l is ys[l].

    The ciphertexts are joined, a whole number of bytes each, and
    transposed into r bit planes, one lane each, by binmat.bit_planes.
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
    planes = bit_planes(b"".join(y.bits.to_bytes(size, "little") for y in ys), size, r)
    rows = mat_mul(sk.screen_map, BitMatrix(r, len(ys), planes)).rows
    return _screen_key_equation(sk.code, rows, (1 << len(ys)) - 1)
