"""Binary irreducible Goppa codes with Patterson decoding.

Code support is the full field in natural order: L_i is the element
whose polynomial-basis encoding is the integer i, for i = 0 .. 2^m - 1.
The code's own parity-check matrix H_bin, secret like g, is the GF(2)
expansion (m bits per field entry, rows r*m .. r*m+m-1 for power r) of
the t x n matrix with entries L_i^r / g(L_i): binary_syndrome's reference,
made on first use.  Keygen and the decoder never read it.
"""
from __future__ import annotations

import random
from functools import cached_property

from .binmat import BitMatrix, BitVector, mat_mul, mat_vec_mul
from .errors import DimensionMismatch, ParameterError, Undecodable
from .gf2m import (
    POLY_Z,
    FieldParams,
    Gf2mPoly,
    field_mul,
    is_irreducible,
    poly_add,
    poly_eval_all,
    poly_ext_gcd,
    poly_mul,
    poly_roots,
    poly_sqrt_mod,
    poly_sqrt_split,
    random_irreducible,
    sliced_ext_gcd,
    sliced_inv,
    sliced_mul,
    sliced_splits,
    sliced_sqr,
)

__all__ = [
    "GoppaCode",
    "binary_syndrome",
    "build_goppa",
    "code_from_poly",
    "patterson_decode",
    "patterson_screen",
    "syndrome_bits",
    "syndrome_poly",
]


class GoppaCode:
    """[n, k] binary Goppa code determined by (field, t, g)."""

    def __init__(self, params: FieldParams, t: int, g: Gf2mPoly):
        self.params = params
        self.t = t
        self.n = 1 << params.m
        self.k = self.n - params.m * t
        self.support = range(self.n)
        self.g = g

    @cached_property
    def H_bin(self) -> BitMatrix:
        """The m*t x n parity-check matrix, made on first use: the reference, not a decoder step."""
        return _assemble_parity(self.params, self.t, self.g)

    @cached_property
    def sqrt_z(self) -> Gf2mPoly:
        """sqrt(z) mod g, made on first use; every decode takes its square root from it."""
        return poly_sqrt_mod(POLY_Z, self.g, self.params)

    @cached_property
    def lane_maps(self) -> tuple:
        """syndrome_poly and the square root mod g as m*t x m*t GF(2) matrices.

        Both maps are GF(2)-linear.  A polynomial of degree < t packs into
        m*t bits, coefficient i at bits i*m .. i*m + m - 1, so its bit-sliced
        coefficients are m*t planes in that order, and each map is a
        product of the matrix with the planes.  Made on first use, from
        the scalar functions themselves.
        """
        p, t = self.params, self.t
        r, mask = p.m * t, (1 << p.m) - 1

        def pack(f: Gf2mPoly) -> int:
            return sum(c << (i * p.m) for i, c in enumerate(f.coeffs))

        def matrix(f) -> BitMatrix:
            images = BitMatrix(r, r, [pack(f(1 << j)) for j in range(r)])
            return BitMatrix(r, r, [images.column_int(i) for i in range(r)])

        return (
            matrix(lambda bits: syndrome_poly(self, BitVector(r, bits))),
            matrix(lambda bits: poly_sqrt_split(
                Gf2mPoly([bits >> (i * p.m) & mask for i in range(t)]), self.sqrt_z, self.g, p)),
        )

    def __repr__(self):
        return f"GoppaCode(m={self.params.m}, t={self.t}, n={self.n}, k={self.k})"


def _check_code_params(m: int, t: int) -> None:
    """The (m, t) a code may have; an mpk decoder holds its key to the same."""
    if not 3 <= m <= 16:
        raise ParameterError(f"m={m} outside the supported range 3..16")
    if t < 2:
        raise ParameterError(f"t={t} too small; need t >= 2")
    if m * t >= (1 << m):
        raise ParameterError(f"m*t={m * t} leaves no code dimension")


def _assemble_parity(
    params: FieldParams, t: int, g: Gf2mPoly, points: list[int] | None = None, n: int | None = None
) -> BitMatrix:
    """GF(2) expansion of the t x n matrix with entries L_i^r / g(L_i).

    The entries of each power r are computed bit-sliced, all n at once, so
    each of their m bit planes is one row as it stands.  L_i is the element
    at position i of the bit-sliced points, by default params.points, the
    code's support; points permuted by P give H_bin @ P, and the first n
    of them its first n columns.
    """
    if points is None:
        points = params.points
    entries = sliced_inv(poly_eval_all(g, params, points, n), params)
    rows = list(entries)
    for _ in range(1, t):
        entries = sliced_mul(entries, points, params)
        rows += entries
    return BitMatrix(params.m * t, n or 1 << params.m, rows)


def code_from_poly(params: FieldParams, t: int, g: Gf2mPoly) -> GoppaCode:
    """Code for a caller-supplied Goppa polynomial; a key over it, not this, checks H_bin's rank."""
    _check_code_params(params.m, t)
    if g.degree != t or g.coeffs[-1] != 1:
        raise ParameterError("Goppa polynomial must be monic of degree t")
    if any(c >> params.m for c in g.coeffs):
        raise ParameterError(f"Goppa polynomial coefficient outside GF(2^{params.m})")
    if not is_irreducible(g, params):
        raise ParameterError("Goppa polynomial must be irreducible")
    return GoppaCode(params, t, g)


def build_goppa(params: FieldParams, t: int, rng: random.Random) -> GoppaCode:
    """Random irreducible Goppa code; nied_keygen's column search checks H_bin's rank."""
    _check_code_params(params.m, t)
    return GoppaCode(params, t, random_irreducible(t, params, rng))


def binary_syndrome(code: GoppaCode, e: BitVector) -> BitVector:
    """H_bin @ e, length m*t: the reference patterson_decode's answers are tested against."""
    return mat_vec_mul(code.H_bin, e)


def syndrome_poly(code: GoppaCode, s: BitVector) -> Gf2mPoly:
    """Key-equation syndrome S(z) = sum over errors of 1/(z - L_i) mod g.

    The bits of s pack the weighted power sums p_r = sum L_i^r / g(L_i)
    (m bits each, r = 0 .. t-1); S's coefficients are the triangular
    combination of those sums through g's own coefficients:
    S_r = sum_{j=r+1..t} g_j * p_{j-1-r}.
    """
    params, t = code.params, code.t
    m = params.m
    if s.n != m * t:
        raise DimensionMismatch(f"syndrome length {s.n}, expected {m * t}")
    mask = (1 << m) - 1
    sums = [(s.bits >> (r * m)) & mask for r in range(t)]
    gc = code.g.coeffs
    out = []
    for r in range(t):
        acc = 0
        for j in range(r + 1, t + 1):
            cj = gc[j]
            if cj:
                acc ^= field_mul(cj, sums[j - 1 - r], params)
        out.append(acc)
    return Gf2mPoly(out)


def syndrome_bits(code: GoppaCode, S: Gf2mPoly) -> BitVector:
    """Inverse of syndrome_poly: pack a degree-<t polynomial back into bits."""
    params, t = code.params, code.t
    if S.degree >= t:
        raise DimensionMismatch(f"degree {S.degree} too large for t={t}")
    coeffs = list(S.coeffs) + [0] * (t - len(S.coeffs))
    gc = code.g.coeffs
    sums = [0] * t
    for w in range(t):
        acc = coeffs[t - 1 - w]
        for u in range(w):
            cu = gc[u + t - w]
            if cu:
                acc ^= field_mul(cu, sums[u], params)
        sums[w] = acc  # leading coefficient of g is 1
    bits = 0
    for r in range(t):
        bits |= sums[r] << (r * params.m)
    return BitVector(params.m * t, bits)


def patterson_decode(code: GoppaCode, s: BitVector) -> BitVector:
    """Error vector of weight <= t with binary_syndrome(e) == s.

    Raises Undecodable when s is outside the decoding radius.  The answer
    needs no re-check: by construction S*sigma = c*b^2 = sigma' mod g, so a
    locator with deg(sigma) distinct roots L_i gives S = sum 1/(z + L_i),
    which is syndrome_poly of H_bin @ e.
    """
    params, t, g = code.params, code.t, code.g
    if s.n != params.m * t:
        raise DimensionMismatch(f"syndrome length {s.n}, expected {params.m * t}")
    if s.bits == 0:
        return BitVector.zeros(code.n)

    # _screen_key_equation's steps at one lane's width, with no inverse of S:
    # c is nonzero, as g is irreducible and S != 0, and scales sigma but not
    # its roots.  T = z, a lone error at element 0, gives R = 0, entry
    # (a, b) = (0, 1) and locator c*z.  Past entry 0 (a = g) ext-gcd gives
    # b != 0, so c*z*b^2 has odd degree, a^2 even, and sigma is not constant.
    S = syndrome_poly(code, s)
    r, _, v = poly_ext_gcd(g, S, 0, params)  # v*S = c mod g, so v = c*T
    cz = Gf2mPoly((0, r.coeffs[0]))
    R = poly_sqrt_split(poly_add(v, cz), code.sqrt_z, g, params)  # the root of c*(T + z)
    a, _, b = poly_ext_gcd(g, R, t // 2, params)
    sigma = poly_add(poly_mul(a, a, params), poly_mul(cz, poly_mul(b, b, params), params))

    roots = poly_roots(sigma, params)
    if len(roots) != sigma.degree:
        raise Undecodable("locator does not split over the support", "does not split")
    return BitVector.from_support(code.n, roots)


def patterson_screen(code: GoppaCode, planes, ones: int) -> int:
    """The lanes whose syndrome patterson_decode may accept, from one bit-sliced pass.

    Bit l of planes[j] is bit j of lane l's syndrome, for each lane set
    in ones.  Patterson runs straight through in every lane at once, on
    the generic path where each Euclid step lowers the degree by one
    (gf2m.sliced_ext_gcd), and the locator gets the split test in place
    of the root search.  The result marks every lane that left the
    generic path, where S or a leading coefficient in either Euclid is
    0, and every lane whose locator splits.  On every other lane the
    locator is the scalar one times a nonzero constant, so it does not
    split either, and patterson_decode raises Undecodable.
    """
    planes = [x & ones for x in planes]
    S = mat_mul(code.lane_maps[0], BitMatrix(code.params.m * code.t, ones.bit_length(), planes))
    return _screen_key_equation(code, S.rows, ones)


def _screen_key_equation(code: GoppaCode, rows: list[int], ones: int) -> int:
    """patterson_screen from S(z) itself: rows[i*m + k] is plane k of S's coefficient i."""
    p, t, m = code.params, code.t, code.params.m

    def coeffs(rows) -> list:
        return [rows[i * m : (i + 1) * m] for i in range(t)]

    g = [[ones if c >> k & 1 else 0 for k in range(m)] for c in code.g.coeffs]
    (c,), v, generic = sliced_ext_gcd(g, coeffs(rows), 0, ones, p)  # v*S = c mod g
    v[1] = [x ^ y for x, y in zip(v[1], c)]  # c*(T + z), T = S^-1: its root is sqrt(c)*R
    R = mat_mul(code.lane_maps[1], BitMatrix(m * t, ones.bit_length(), [x for f in v for x in f]))
    a, b, still = sliced_ext_gcd(g, coeffs(R.rows), t // 2, ones, p)  # so b comes out over sqrt(c)
    generic &= still
    sigma = [None] * (t + 1)
    sigma[0::2] = [sliced_sqr(f, p) for f in a]
    sigma[1::2] = [sliced_mul(c, sliced_sqr(f, p), p) for f in b]  # a^2 + c*z*b^2
    return (ones ^ generic) | (generic & sliced_splits(sigma, ones, p))
