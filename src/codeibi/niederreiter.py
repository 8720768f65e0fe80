"""Niederreiter trapdoor: syndrome encryption under a systematic parity check.

The secret key is a Goppa code and a support permutation P.  Column j of
H_bin @ P is the parity column of the support point P.map[j], which is
the element P.map[j] itself, so H_bin @ P is assembled at the permuted
points, read as m bit planes off P's words, in place of permuting the
m*t rows of H_bin.  P puts r = m*t independent columns first, so the
left r x r block A of H_bin @ P is invertible, and the public matrix is
h_tilde = A^-1 @ H_bin @ P = [I | T]: the one form that every row
scramble of H_bin @ P reduces to, so a scramble would hide nothing.
Encrypting a weight-t vector means publishing its syndrome under
h_tilde; decrypting multiplies by A, decodes, and moves the error's few
set bits back through P.
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
    _echelon,
    bit_planes,
    mat_mul,
    mat_vec_mul,
    random_permutation,
    unpermute_support,
)
from .errors import DimensionMismatch, ParameterError, Singular, WeightError
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
    code: GoppaCode
    p: Permutation
    a: BitMatrix = field(init=False, repr=False, compare=False)
    h_tilde: BitMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # once per key: A is the left r x r block of H_bin @ P, and Gauss-Jordan on
        # those r columns takes H_bin @ P to A^-1 @ H_bin @ P = [I | T], which keygen
        # publishes as it stands; a singular A raises Singular here
        hp = _parity_at(self.code, self.p, self.code.n)
        r, rows = hp.nrows, list(hp.rows)
        rank = len(_echelon(rows, r))
        if rank < r:
            raise Singular(f"the first {r} columns of H_bin @ P have rank {rank}")
        object.__setattr__(self, "a", BitMatrix(r, r, [row & ((1 << r) - 1) for row in hp.rows]))
        object.__setattr__(self, "h_tilde", BitMatrix(r, hp.ncols, rows))

    @cached_property
    def screen_map(self) -> BitMatrix:
        """A followed by syndrome_poly, one r x r GF(2) matrix; made on the first screen."""
        return mat_mul(self.code.lane_maps[0], self.a)


def nied_keygen(params: FieldParams, t: int, rng: random.Random, p: Permutation | None = None):
    """Key pair over a fresh Goppa code, its public matrix in systematic form.

    g is drawn by build_goppa, then P from the same rng unless p is given
    (tests inject it).  _echelon picks the greedy first r = m*t
    independent columns of H_bin @ P from its first r + 8, a width doubled
    while they fall short, up to n, where ParameterError reports H_bin's
    rank as short.  Unless they are columns 0 .. r-1, P is reordered: their
    positions first, then every other position in ascending order.  P is
    not redrawn, as its left r x r block is invertible with probability
    only about 0.29, and each redraw costs a permutation of all 2^m points.
    """
    code = build_goppa(params, t, rng)
    if p is None:
        p = random_permutation(code.n, rng)
    r = code.n - code.k
    width = min(r + 8, code.n)
    while len(pivots := _echelon(list(_parity_at(code, p, width).rows), width)) < r:
        if width == code.n:
            raise ParameterError(f"H_bin has rank {len(pivots)} < {r} under this Goppa polynomial")
        width = min(2 * width, code.n)
    if pivots != list(range(r)):
        rest = sorted(set(range(width)).difference(pivots))
        words = p.words
        p = Permutation._unchecked(b"".join(words[2 * j : 2 * j + 2] for j in pivots + rest) + words[2 * width :])
    sk = NiedSecretKey(code, p)
    return NiedPublicKey(sk.h_tilde, t), sk


def _parity_at(code: GoppaCode, p: Permutation, n: int) -> BitMatrix:
    """The first n columns of H_bin @ P, assembled at P's first n points.

    The point at position j is p.map[j] itself (x_i = i), of at most 16
    bits, so its m bit planes are those of p's words, each swapped from
    big-endian to the little-endian order bit_planes reads.
    """
    if p.n != code.n:
        raise DimensionMismatch(f"P must act on {code.n} points")
    images = array("H", p.words[: 2 * n])
    images.byteswap()
    points = bit_planes(images.tobytes(), 2, code.params.m)
    return _assemble_parity(code.params, code.t, code.g, points, n)


def nied_encrypt(pk: NiedPublicKey, x: BitVector) -> BitVector:
    """Syndrome of a weight-t plaintext under h_tilde."""
    if x.n != pk.n:
        raise DimensionMismatch(f"plaintext length {x.n}, expected {pk.n}")
    if x.weight() != pk.t:
        raise WeightError(f"plaintext weight {x.weight()}, expected exactly {pk.t}")
    return mat_vec_mul(pk.h_tilde, x)


def nied_decrypt(sk: NiedSecretKey, y: BitVector) -> BitVector:
    """Recover the weight-<=t vector whose syndrome under h_tilde is y.

    Raises Undecodable (from the decoder) when y is not a valid ciphertext.
    """
    r = sk.code.n - sk.code.k
    if y.n != r:
        raise DimensionMismatch(f"ciphertext length {y.n}, expected {r}")
    inner = mat_vec_mul(sk.a, y)
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
