"""Arithmetic in GF(2^m) and in the polynomial ring GF(2^m)[z].

Field elements are plain ints holding m-bit polynomial-basis encodings
(bit i = coefficient of z^i).  Every field gets log/antilog tables in
16-bit arrays, so a product, an inverse or a square root is two or three
table lookups.  Bit-sliced arithmetic works on all n = 2^m points at
once, one n-bit int per bit of the value; the root search and the Goppa
parity-check assembly use it.
"""
from __future__ import annotations

import random
from array import array

from .errors import NotInvertible, ParameterError, ZeroInverse, ZeroOperand

__all__ = [
    "FieldParams",
    "Gf2mPoly",
    "NEG_INF",
    "field_inv",
    "field_mul",
    "is_irreducible",
    "least_irreducible",
    "poly_add",
    "poly_divmod",
    "poly_eval",
    "poly_eval_all",
    "poly_ext_gcd",
    "poly_inv_mod",
    "poly_mod",
    "poly_mul",
    "poly_roots",
    "poly_sqrt_mod",
    "poly_sqrt_split",
    "random_irreducible",
    "sliced_ext_gcd",
    "sliced_inv",
    "sliced_mul",
    "sliced_splits",
    "sliced_sqr",
]

NEG_INF = float("-inf")  # degree of the zero polynomial


def _gf2_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_irreducible(f: int, deg: int) -> bool:
    """Trial-divide an int-encoded GF(2) polynomial by everything up to deg/2."""
    for d in range(1, deg // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(f, div) == 0:
                return False
    return True


_LEAST_IRRED_CACHE: dict[int, int] = {}


def least_irreducible(m: int) -> int:
    """Smallest int encoding of an irreducible degree-m polynomial over GF(2)."""
    if m < 1:
        raise ParameterError(f"degree must be positive, got {m}")
    if m not in _LEAST_IRRED_CACHE:
        f = 1 << m
        while not _gf2_irreducible(f, m):
            f += 1
        _LEAST_IRRED_CACHE[m] = f
    return _LEAST_IRRED_CACHE[m]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _log_tables(m: int, modulus: int):
    """(exp, log) arrays for GF(2^m): exp[i] = gen^i and log[gen^i] = i.

    gen is the first of 1, 2, 3, ... whose powers cover all 2^m - 1
    nonzero elements: the first whose power (2^m - 1)/q is not 1 for any
    prime q dividing 2^m - 1.  Products and inverses do not depend on
    which generator is found.  The walk over gen's powers multiplies by
    gen through two lookups, of gen times the low and the high byte.
    """
    order = (1 << m) - 1

    def raw_mul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> m & 1:
                a ^= modulus
        return r

    def raw_pow(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = raw_mul(r, a)
            a = raw_mul(a, a)
            e >>= 1
        return r

    primes = _prime_factors(order)
    gen = next(g for g in range(1, 1 << m) if all(raw_pow(g, order // q) != 1 for q in primes))
    low = [raw_mul(b, gen) for b in range(min(256, 1 << m))]
    high = [raw_mul(b << 8, gen) for b in range(1 << max(0, m - 8))]
    exp = array("H", bytes(2 * order))
    log = array("H", bytes(2 << m))
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = low[x & 255] ^ high[x >> 8]
    return exp, log


def _point_planes(m: int) -> list[int]:
    """The 2^m field elements, bit-sliced: bit i of plane b is bit b of i.

    Plane b repeats 2^b zeros and then 2^b ones, so it is built by
    doubling one such block with shifts.
    """
    n = 1 << m
    planes = []
    for b in range(m):
        block, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < n:
            block |= block << width
            width <<= 1
        planes.append(block)
    return planes


class FieldParams:
    """GF(2^m) description: extension degree, reduction modulus, mul tables.

    points holds the 2^m elements, each at its own position, bit-sliced
    (see sliced_mul).
    """

    __slots__ = ("m", "modulus", "order", "exp", "log", "points", "taps")

    def __init__(self, m: int, modulus: int | None = None):
        if not 1 <= m <= 16:
            raise ParameterError(f"unsupported extension degree m={m}")
        if modulus is None:
            modulus = least_irreducible(m)
        if modulus.bit_length() != m + 1 or not _gf2_irreducible(modulus, m):
            raise ParameterError(f"modulus {modulus:#x} is not irreducible of degree {m}")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1
        self.exp, self.log = _log_tables(m, modulus)
        self.points = _point_planes(m)
        self.taps = [j for j in range(m) if modulus >> j & 1]  # the modulus below z^m

    def __repr__(self):
        return f"FieldParams(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldParams)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.m, self.modulus))


def field_mul(a: int, b: int, p: FieldParams) -> int:
    """Product in GF(2^m)."""
    if a == 0 or b == 0:
        return 0
    s = p.log[a] + p.log[b]
    if s >= p.order:
        s -= p.order
    return p.exp[s]


def field_inv(a: int, p: FieldParams) -> int:
    """Multiplicative inverse in GF(2^m)."""
    if a == 0:
        raise ZeroInverse("0 has no inverse")
    return p.exp[(p.order - p.log[a]) % p.order]


class Gf2mPoly:
    """Polynomial over GF(2^m); coeffs[i] is the coefficient of z^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Gf2mPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Gf2mPoly({list(self.coeffs)})"


POLY_ZERO = Gf2mPoly()
POLY_ONE = Gf2mPoly((1,))
POLY_Z = Gf2mPoly((0, 1))


def poly_add(f: Gf2mPoly, g: Gf2mPoly) -> Gf2mPoly:
    """Sum (= difference) of two polynomials; coefficient-wise XOR."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return Gf2mPoly(out)


def poly_mul(f: Gf2mPoly, g: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    """Schoolbook product."""
    if f.is_zero() or g.is_zero():
        return POLY_ZERO
    a, b = f.coeffs, g.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci == 0:
            continue
        for j, cj in enumerate(b):
            if cj:
                out[i + j] ^= field_mul(ci, cj, p)
    return Gf2mPoly(out)


def poly_divmod(f: Gf2mPoly, g: Gf2mPoly, p: FieldParams):
    """Quotient and remainder of polynomial long division."""
    if g.is_zero():
        raise ZeroOperand("division by zero polynomial")
    dg = len(g.coeffs) - 1
    lead_inv = field_inv(g.coeffs[-1], p)
    rem = list(f.coeffs)
    if len(rem) <= dg:
        return POLY_ZERO, Gf2mPoly(rem)
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = field_mul(c, lead_inv, p)
        quot[i - dg] = q
        for j, gj in enumerate(g.coeffs):
            if gj:
                rem[i - dg + j] ^= field_mul(q, gj, p)
    return Gf2mPoly(quot), Gf2mPoly(rem)


def poly_mod(f: Gf2mPoly, g: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    return poly_divmod(f, g, p)[1]


def poly_eval(f: Gf2mPoly, x: int, p: FieldParams) -> int:
    """Horner evaluation of f at the field element x."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = field_mul(acc, x, p) ^ c
    return acc


def sliced_mul(a: list[int], b: list[int], p: FieldParams) -> list[int]:
    """Product, point by point, of two bit-sliced vectors of field elements.

    Plane k of a bit-sliced vector is an n-bit int whose bit i is bit k of
    the element at position i.  The product takes m^2 ANDs and XORs of
    n-bit ints, then folds planes m .. 2m-2 down by the modulus taps.
    """
    m = p.m
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            k = i
            for bj in b:
                prod[k] ^= ai & bj
                k += 1
    return _sliced_fold(prod, p)


def _sliced_fold(prod: list[int], p: FieldParams) -> list[int]:
    """Reduce 2m - 1 planes of an unreduced product to m, by the modulus taps."""
    m, taps = p.m, p.taps
    for k in range(2 * m - 2, m - 1, -1):
        v = prod[k]
        for j in taps:
            prod[k - m + j] ^= v
    return prod[:m]


def sliced_sqr(a: list[int], p: FieldParams) -> list[int]:
    """Square at every position of a bit-sliced vector: in characteristic 2,
    plane k of a moves to plane 2k, and the product folds as in sliced_mul."""
    prod = [0] * (2 * p.m - 1)
    prod[::2] = a
    return _sliced_fold(prod, p)


def sliced_inv(a: list[int], p: FieldParams) -> list[int]:
    """Inverse at every position of a bit-sliced vector (0 stays 0): a^(2^m - 2).

    That is the square of a^(2^(m-1) - 1), which the Itoh-Tsujii chain
    (Inform. & Comput. 1988) reaches from r = a^(2^k - 1) = a along the
    bits of m - 1: r^(2^k) * r is a^(2^(2k) - 1), and r^2 * a is
    a^(2^(k+1) - 1).  Squarings are sliced_sqr, so only the chain's
    steps are products: 5 at m = 12, 6 at m = 16, none at m <= 2.
    """
    r, k = a, 1
    for bit in f"{p.m - 1:b}"[1:]:
        s = r
        for _ in range(k):
            s = sliced_sqr(s, p)
        r, k = sliced_mul(s, r, p), 2 * k
        if bit == "1":
            r, k = sliced_mul(sliced_sqr(r, p), a, p), k + 1
    return sliced_sqr(r, p)


def poly_eval_all(f: Gf2mPoly, p: FieldParams, points: list[int] | None = None, n: int | None = None) -> list[int]:
    """f at all 2^m points at once, bit-sliced: bit i of plane k is bit k of f(x_i).

    x_i is the element at position i of the bit-sliced points, by default
    p.points, where x_i = i; n of them, by default all 2^m.  One Horner
    step multiplies the running planes by the points and adds the next
    coefficient to every position.
    """
    if points is None:
        points = p.points
    ones = (1 << (n or 1 << p.m)) - 1
    acc = [0] * p.m
    for c in reversed(f.coeffs):
        acc = sliced_mul(acc, points, p)
        acc = [v ^ ones if c >> k & 1 else v for k, v in enumerate(acc)]
    return acc


def poly_roots(f: Gf2mPoly, p: FieldParams) -> list[int]:
    """The field elements x with f(x) = 0, ascending.

    They are the zero bits of the OR of f's bit-sliced values.
    """
    if f.is_zero():
        raise ZeroOperand("the zero polynomial vanishes everywhere")
    nonzero = 0
    for v in poly_eval_all(f, p):
        nonzero |= v
    zeros = ((1 << (1 << p.m)) - 1) ^ nonzero
    roots = []
    while zeros:
        low = zeros & -zeros
        roots.append(low.bit_length() - 1)
        zeros ^= low
    return roots


# A lane polynomial is one polynomial in each of many lanes.  In list form
# it is a list of bit-sliced coefficients, low first, whose bit l of plane k
# is bit k of lane l's coefficient.  Packed, it is m ints, one per plane:
# slot i of plane k, bits i*w .. i*w + w - 1, holds plane k of coefficient
# i, where the slot width w is the lane count rounded up to a whole byte.
# Adding is m XORs, multiplying by z is m shifts by w, and scaling by one
# coefficient is one sliced_mul, with the coefficient repeated in every
# slot; sliced_sqr works plane by plane, so it squares every coefficient.
# Its degree is the same in every lane on the generic path, where no
# leading coefficient is 0.


def _lane_width(ones: int) -> int:
    """Slot width of a packed lane polynomial over the lanes of ones."""
    return max(8, -(-ones.bit_length() // 8) * 8)


def _lane_pack(f: list, w: int) -> list[int]:
    """A list-form lane polynomial, packed in slots of width w."""
    packed = []
    for k in range(len(f[0])):
        acc = 0
        for c in reversed(f):
            acc = acc << w | c[k]
        packed.append(acc)
    return packed


def _lane_coeff(f: list[int], i: int, w: int) -> list[int]:
    """Coefficient i of a packed lane polynomial, a bit-sliced element."""
    mask = (1 << w) - 1
    return [v >> (i * w) & mask for v in f]


def _lane_unpack(f: list[int], n: int, w: int) -> list:
    """The first n coefficients of a packed lane polynomial, in list form."""
    return [_lane_coeff(f, i, w) for i in range(n)]


def _lane_spread(c: list[int], slots: int, w: int) -> list[int]:
    """The bit-sliced element c in each of slots slots of width w: sliced_mul
    by it scales a packed lane polynomial of up to slots coefficients by c."""
    size = w // 8
    return [int.from_bytes(v.to_bytes(size, "little") * slots, "little") for v in c]


def _lane_nonzero(a: list[int]) -> int:
    """Mask of the lanes where the bit-sliced element a is not 0."""
    acc = 0
    for v in a:
        acc |= v
    return acc


def sliced_ext_gcd(a: list, b: list, stop_deg: int, ones: int, p: FieldParams):
    """poly_ext_gcd(a, b, stop_deg) in every lane of ones at once, on the generic path.

    a and b are lane polynomials of degrees len(a) - 1 and len(a) - 2, and
    a's leading coefficient is nonzero in every lane.  While each
    remainder is one degree below the one before, one fraction-free step
    makes the next with no inverse: for leading coefficients la of r and
    lb of r', x = lb*r + la*z*r' drops a degree and lb*x + x_d*r' another,
    which is lb^2 times r mod r'.  Returns (r, v, generic): the first
    remainder with degree <= stop_deg and its cofactor v of b, both
    times one nonzero field element in each lane, and the mask of lanes
    on the generic path, where b's and every later leading coefficient
    is nonzero.  In the other lanes r and v mean nothing.  The steps run
    packed, each remainder in slots 0 .. n - 1 and its cofactor from slot
    n up, so one product scales both and a step is four products.
    """
    w, n = _lane_width(ones), len(a)
    d, slots = n - 2, 2 * n
    generic = _lane_nonzero(b[-1])
    la = _lane_spread(a[-1], slots, w)
    r0 = _lane_pack(a[:-1], w)  # the leading term is dropped before every product
    r1 = _lane_pack(b, w)
    r1[0] |= ones << (n * w)  # v = 1
    while d > stop_deg:
        lead = _lane_coeff(r1, d, w)
        lb = _lane_spread(lead, slots, w)
        r1 = [x ^ y << (d * w) for x, y in zip(r1, lead)]
        x = [u ^ v for u, v in zip(sliced_mul(lb, r0, p), sliced_mul(la, [v << w for v in r1], p))]
        lead = _lane_coeff(x, d, w)
        x = [u ^ v << (d * w) for u, v in zip(x, lead)]
        xd = _lane_spread(lead, slots, w)
        r2 = [u ^ v for u, v in zip(sliced_mul(lb, x, p), sliced_mul(xd, r1, p))]
        d -= 1
        generic &= _lane_nonzero(_lane_coeff(r2, d, w))
        r0, r1, la = r1, r2, lb
    v = [x >> (n * w) for x in r1]
    return _lane_unpack(r1, d + 1, w), _lane_unpack(v, n - 1 - d, w), generic


def sliced_splits(sigma: list, ones: int, p: FieldParams) -> int:
    """Mask of the lanes of ones where sigma divides z^(2^m) - z.

    That is, where sigma splits into distinct linear factors over
    GF(2^m): the split test of Landais and Sendrier (INDOCRYPT 2012), in
    place of a search over all 2^m points.  sigma is a lane polynomial of
    degree t = len(sigma) - 1 >= 2 whose leading coefficient is nonzero
    in the lanes that matter.  z^(2^k) for the largest 2^k < t is already
    reduced, and m - k squarings mod sigma take it to z^(2^m).  A
    squaring is sum h_i^2 z^(2i): one sliced_sqr of the packed h, then
    one product for each 2i >= t, with z^(2i) mod sigma from a table
    made once.
    """
    m, t, w = p.m, len(sigma) - 1, _lane_width(ones)
    low = (1 << (t * w)) - 1

    def scale(c: list[int], f: list[int]) -> list[int]:
        return sliced_mul(_lane_spread(c, t, w), f, p)

    high = [scale(sliced_inv(sigma[-1], p), _lane_pack(sigma[:-1], w))]  # z^t mod sigma
    for _ in range(t - 2):  # high[i] = z^(t+i) mod sigma
        prev = high[-1]
        top = scale(_lane_coeff(prev, t - 1, w), high[0])
        high.append([(u << w & low) ^ v for u, v in zip(prev, top)])
    k = (t - 1).bit_length() - 1
    h = [ones << ((1 << k) * w)] + [0] * (m - 1)
    mask, half = (1 << w) - 1, (t + 1) // 2
    for _ in range(m - k):
        sq = sliced_sqr(h, p)  # slot i holds h_i^2, which belongs at z^(2i)
        h = [sum((v >> (i * w) & mask) << (2 * i * w) for i in range(half)) for v in sq]
        for i in range(half, t):
            h = [u ^ v for u, v in zip(h, scale(_lane_coeff(sq, i, w), high[2 * i - t]))]
    h[0] ^= ones << w  # z^(2^m) - z
    return ones & ~_lane_nonzero([v for c in _lane_unpack(h, t, w) for v in c])


def poly_ext_gcd(a: Gf2mPoly, b: Gf2mPoly, stop_deg, p: FieldParams):
    """Extended Euclid on (a, b), halted early.

    Returns the first remainder-sequence entry (r, u, v), r = u*a + v*b,
    with deg(r) <= stop_deg.  stop_deg < 0 runs to completion and returns
    the last nonzero remainder (a gcd, up to a scalar).
    """
    cur = (a, POLY_ONE, POLY_ZERO)
    nxt = (b, POLY_ZERO, POLY_ONE)
    while not nxt[0].is_zero() and (stop_deg < 0 or cur[0].degree > stop_deg):
        q, r = poly_divmod(cur[0], nxt[0], p)
        cur, nxt = nxt, (
            r,
            poly_add(cur[1], poly_mul(q, nxt[1], p)),
            poly_add(cur[2], poly_mul(q, nxt[2], p)),
        )
    # a zero remainder is the first entry with degree <= stop_deg >= 0
    return nxt if 0 <= stop_deg < cur[0].degree else cur


def poly_inv_mod(f: Gf2mPoly, g: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    """Inverse of f modulo g; g must be irreducible."""
    f = poly_mod(f, g, p)
    if f.is_zero():
        raise NotInvertible("zero has no inverse mod g")
    r, u, _ = poly_ext_gcd(f, g, -1, p)
    if r.degree != 0:
        raise NotInvertible("operand shares a factor with the modulus")
    c = field_inv(r.coeffs[0], p)
    return Gf2mPoly([field_mul(c, ui, p) for ui in u.coeffs])


def _poly_sqr_pow(h: Gf2mPoly, k: int, f: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    """h^(2^k) mod f by k squarings; in char 2, (sum c_i z^i)^2 = sum c_i^2 z^(2i)."""
    for _ in range(k):
        out = [0] * (2 * len(h.coeffs) - 1)  # [] for the zero polynomial
        for i, c in enumerate(h.coeffs):
            if c:
                out[2 * i] = field_mul(c, c, p)
        h = poly_mod(Gf2mPoly(out), f, p)
    return h


def poly_sqrt_mod(f: Gf2mPoly, g: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    """Square root in GF(2^m)[z]/(g): f^(2^(m*t-1)) for t = deg(g)."""
    t = g.degree
    if t is NEG_INF or t < 1:
        raise ZeroOperand("modulus must have positive degree")
    return _poly_sqr_pow(poly_mod(f, g, p), p.m * int(t) - 1, g, p)


def poly_sqrt_split(f: Gf2mPoly, sqrt_z: Gf2mPoly, g: Gf2mPoly, p: FieldParams) -> Gf2mPoly:
    """Square root of f in GF(2^m)[z]/(g), given sqrt_z, the root of z mod g.

    Split f = A(z)^2 + z*B(z)^2, A from the field square roots of f's even
    coefficients and B from its odd ones; then the root is A + sqrt_z*B
    mod g.  One product and one reduction replace poly_sqrt_mod's m*t - 1
    squarings.  A field square root is c^(2^(m-1)), a log-table lookup.
    """
    half = 1 << (p.m - 1)
    roots = [p.exp[p.log[c] * half % p.order] if c else 0 for c in f.coeffs]
    a, b = Gf2mPoly(roots[0::2]), Gf2mPoly(roots[1::2])
    return poly_mod(poly_add(a, poly_mul(sqrt_z, b, p)), g, p)


def is_irreducible(f: Gf2mPoly, p: FieldParams) -> bool:
    """Ben-Or test: no irreducible factor of degree <= deg(f)/2."""
    d = f.degree
    if d is NEG_INF or d < 1:
        return False
    h = POLY_Z
    for _ in range(int(d) // 2):
        h = _poly_sqr_pow(h, p.m, f, p)  # one Frobenius step, h <- h^(2^m)
        a, b = poly_add(h, POLY_Z), f
        while not b.is_zero():  # Euclid on remainders alone: only the gcd's degree is read
            a, b = b, poly_mod(a, b, p)
        if a.degree != 0:
            return False
    return True


def random_irreducible(t: int, p: FieldParams, rng: random.Random) -> Gf2mPoly:
    """Uniform monic irreducible of degree t over GF(2^m), by rejection."""
    if t < 1:
        raise ParameterError(f"degree must be positive, got {t}")
    size = 1 << p.m
    while True:
        g = Gf2mPoly([rng.randrange(size) for _ in range(t)] + [1])
        if is_irreducible(g, p):
            return g
