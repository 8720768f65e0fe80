"""Field and polynomial arithmetic checks against independent oracles."""
import random

import pytest

from codeibi import (
    FieldParams,
    Gf2mPoly,
    NotInvertible,
    ZeroInverse,
    ZeroOperand,
    field_inv,
    field_mul,
    is_irreducible,
    least_irreducible,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_eval_all,
    poly_ext_gcd,
    poly_inv_mod,
    poly_mod,
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


def slow_mul(a, b, m, modulus):
    # bitwise carry-less multiply then reduce, sharing no code with the library
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for d in range(2 * m - 2, m - 1, -1):
        if (acc >> d) & 1:
            acc ^= modulus << (d - m)
    return acc


F16 = FieldParams(4, 0x13)


def test_least_irreducible_values():
    assert least_irreducible(4) == 0x13
    assert least_irreducible(5) == 0x25
    # every published modulus must have no roots in GF(2) and full degree
    for m in range(2, 17):
        mod = least_irreducible(m)
        assert mod.bit_length() == m + 1
        assert mod & 1, "a zero constant term means z divides it"


def test_field_mul_known_values():
    assert field_mul(0x2, 0x8, F16) == 0x3
    assert field_mul(0x6, 0x6, F16) == 0x7
    for a in range(16):
        assert field_mul(a, 0x1, F16) == a


def test_field_mul_matches_slow_oracle_exhaustive():
    for a in range(16):
        for b in range(16):
            assert field_mul(a, b, F16) == slow_mul(a, b, 4, 0x13)


def test_field_mul_matches_slow_oracle_sampled():
    rng = random.Random(101)
    for m in (8, 11, 13, 16):
        p = FieldParams(m)
        for _ in range(200):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            assert field_mul(a, b, p) == slow_mul(a, b, m, p.modulus)


def test_every_degree_matches_slow_oracle_and_inverts():
    # m = 8, 9, 12, 14 and 16 use moduli where z is not a generator
    rng = random.Random(113)
    for m in range(1, 17):
        p = FieldParams(m)
        if m <= 6:
            pairs = [(a, b) for a in range(1 << m) for b in range(1 << m)]
        else:
            pairs = [(rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(300)]
        for a, b in pairs:
            assert field_mul(a, b, p) == slow_mul(a, b, m, p.modulus), (m, a, b)
        for a in range(1, min(1 << m, 300)):
            assert field_mul(a, field_inv(a, p), p) == 1, (m, a)


def walk_tables(m, modulus):
    """exp and log lists from a bit-serial walk over each candidate's powers.

    The first of 1, 2, 3, ... whose walk covers every nonzero element
    before it returns to 1 is the generator.
    """
    order = (1 << m) - 1
    for gen in range(1, 1 << m):
        exp, x = [], 1
        while True:
            exp.append(x)
            x = slow_mul(x, gen, m, modulus)
            if x == 1:
                break
        if len(exp) == order:
            log = [0] * (1 << m)
            for i, v in enumerate(exp):
                log[v] = i
            return exp, log


def test_log_tables_match_bit_serial_walk():
    # under 0x1f, irreducible but not primitive, z has order 5 and 1 + z generates
    fields = [FieldParams(m) for m in range(1, 17)]
    fields += [FieldParams(4, 0x1F), FieldParams(4, 0x19), FieldParams(16, 0x1100B)]
    for p in fields:
        exp, log = walk_tables(p.m, p.modulus)
        assert p.exp.typecode == p.log.typecode == "H"
        assert p.exp.tolist() == exp and p.log.tolist() == log, p


def test_field_axioms_randomized():
    rng = random.Random(7)
    for m in (4, 7, 10, 13, 16):
        p = FieldParams(m)
        for _ in range(50):
            a, b, c = (rng.randrange(1 << m) for _ in range(3))
            assert field_mul(a, b, p) == field_mul(b, a, p)
            assert field_mul(a, field_mul(b, c, p), p) == field_mul(field_mul(a, b, p), c, p)
            assert field_mul(a, b ^ c, p) == field_mul(a, b, p) ^ field_mul(a, c, p)


def test_frobenius_cycle():
    # squaring m times fixes every element
    for m in (4, 6, 8):
        p = FieldParams(m)
        for a in range(1 << m):
            x = a
            for _ in range(m):
                x = field_mul(x, x, p)
            assert x == a
    rng = random.Random(8)
    for m in (11, 16):
        p = FieldParams(m)
        for _ in range(50):
            a = rng.randrange(1 << m)
            x = a
            for _ in range(m):
                x = field_mul(x, x, p)
            assert x == a


def test_field_inv():
    assert field_inv(0x1, F16) == 0x1
    assert field_inv(0x2, F16) == 0x9
    with pytest.raises(ZeroInverse):
        field_inv(0, F16)
    for m in (4, 9, 12, 14):
        p = FieldParams(m)
        rng = random.Random(m)
        for _ in range(100):
            a = rng.randrange(1, 1 << m)
            assert field_mul(a, field_inv(a, p), p) == 1


def test_poly_normalization_and_degree():
    assert Gf2mPoly((1, 2, 0, 0)).coeffs == (1, 2)
    z = Gf2mPoly(())
    assert z.is_zero()
    assert z.degree == float("-inf")
    assert Gf2mPoly((5,)).degree == 0


def test_poly_eval():
    f = Gf2mPoly((1, 1, 1))
    assert poly_eval(f, 0x2, F16) == 0x7
    assert poly_eval(Gf2mPoly(()), 0xB, F16) == 0
    # degree-1 case: z + c at x is x xor c
    rng = random.Random(5)
    for _ in range(50):
        c, x = rng.randrange(16), rng.randrange(16)
        assert poly_eval(Gf2mPoly((c, 1)), x, F16) == x ^ c


def test_poly_mul_add_divmod_roundtrip():
    rng = random.Random(11)
    p = FieldParams(8)
    for _ in range(100):
        f = Gf2mPoly(tuple(rng.randrange(256) for _ in range(rng.randrange(1, 7))))
        g = Gf2mPoly(tuple(rng.randrange(256) for _ in range(rng.randrange(1, 7))))
        if g.is_zero():
            continue
        q, r = poly_divmod(f, g, p)
        assert poly_add(poly_mul(q, g, p), r) == f
        assert r.is_zero() or r.degree < g.degree
    with pytest.raises(ZeroOperand):
        poly_divmod(Gf2mPoly((1,)), Gf2mPoly(()), p)


def test_ext_gcd_self():
    a = Gf2mPoly((3, 1, 7))
    r, u, v = poly_ext_gcd(a, a, -1, F16)
    assert poly_divmod(a, r, F16)[1].is_zero()
    assert poly_add(poly_mul(u, a, F16), poly_mul(v, a, F16)) == r


def test_ext_gcd_gf4_stop_zero():
    p = FieldParams(2)
    r, u, v = poly_ext_gcd(Gf2mPoly((0, 0, 1)), Gf2mPoly((0, 1)), 0, p)
    assert r.is_zero()


def test_ext_gcd_bezout_and_stop_degree():
    rng = random.Random(13)
    p = FieldParams(6)
    for _ in range(200):
        a = Gf2mPoly(tuple(rng.randrange(64) for _ in range(rng.randrange(2, 8))))
        b = Gf2mPoly(tuple(rng.randrange(64) for _ in range(rng.randrange(1, 8))))
        if b.is_zero():
            continue
        stop = rng.randrange(-1, 4)
        r, u, v = poly_ext_gcd(a, b, stop, p)
        assert poly_add(poly_mul(u, a, p), poly_mul(v, b, p)) == r
        if stop >= 0:
            assert r.is_zero() or r.degree <= stop


def test_ext_gcd_irreducible_coprime():
    rng = random.Random(17)
    p = FieldParams(5)
    g = random_irreducible(3, p, rng)
    for _ in range(50):
        a = Gf2mPoly(tuple(rng.randrange(32) for _ in range(rng.randrange(2, 4))))
        if a.is_zero():
            continue
        r, _, _ = poly_ext_gcd(a, g, -1, p)
        assert r.degree == 0


def test_poly_inv_mod():
    rng = random.Random(19)
    p = FieldParams(5)
    g = random_irreducible(2, p, rng)
    assert poly_inv_mod(Gf2mPoly((1,)), g, p) == Gf2mPoly((1,))
    for _ in range(100):
        f = Gf2mPoly(tuple(rng.randrange(32) for _ in range(rng.randrange(1, 5))))
        if poly_mod(f, g, p).is_zero():
            continue
        t = poly_inv_mod(f, g, p)
        assert poly_mod(poly_mul(f, t, p), g, p) == Gf2mPoly((1,))
        assert t.degree < g.degree
    with pytest.raises(NotInvertible):
        poly_inv_mod(poly_mul(g, Gf2mPoly((0, 3)), p), g, p)


def test_poly_inv_mod_brute_force_gf16():
    # degree-2 modulus over GF(16): invert by scanning all 256 candidates
    rng = random.Random(23)
    g = random_irreducible(2, F16, rng)
    for _ in range(20):
        f = Gf2mPoly((rng.randrange(16), rng.randrange(1, 16)))
        got = poly_inv_mod(f, g, F16)
        found = None
        for c0 in range(16):
            for c1 in range(16):
                cand = Gf2mPoly((c0, c1))
                if poly_mod(poly_mul(f, cand, F16), g, F16) == Gf2mPoly((1,)):
                    found = cand
        assert got == found


def test_poly_sqrt_mod():
    rng = random.Random(29)
    for m, t in ((5, 2), (8, 3), (10, 4)):
        p = FieldParams(m)
        g = random_irreducible(t, p, rng)
        assert poly_sqrt_mod(Gf2mPoly((1,)), g, p) == Gf2mPoly((1,))
        for _ in range(100):
            f = Gf2mPoly(tuple(rng.randrange(1 << m) for _ in range(t)))
            f = poly_mod(f, g, p)
            sq = poly_mod(poly_mul(f, f, p), g, p)
            assert poly_sqrt_mod(sq, g, p) == f


def test_poly_sqrt_split_matches_repeated_squaring():
    rng = random.Random(41)
    z = Gf2mPoly((0, 1))
    for m, t in ((10, 3), (12, 5), (16, 9)):
        p = FieldParams(m)
        g = random_irreducible(t, p, rng)
        sqrt_z = poly_sqrt_mod(z, g, p)
        for _ in range(8):
            tz = poly_add(Gf2mPoly(tuple(rng.randrange(1 << m) for _ in range(t))), z)
            root = poly_sqrt_split(tz, sqrt_z, g, p)
            assert root == poly_sqrt_mod(tz, g, p)
            assert poly_mod(poly_mul(root, root, p), g, p) == tz


def _split_poly(roots, scale, p):
    f = Gf2mPoly((scale,))
    for r in roots:
        f = poly_mul(f, Gf2mPoly((r, 1)), p)
    return f


def test_poly_roots_match_exhaustive_scan():
    rng = random.Random(43)
    for m in range(3, 17):
        p = FieldParams(m)
        size = 1 << m
        polys = [
            Gf2mPoly((rng.randrange(1, size),)),  # nonzero constant: no roots
            Gf2mPoly((rng.randrange(size), rng.randrange(1, size))),  # degree 1
            _split_poly([0] + rng.sample(range(1, size), 2), rng.randrange(1, size), p),
            _split_poly(rng.sample(range(size), min(m, 9)), rng.randrange(1, size), p),
        ]
        for _ in range(3 if m < 13 else 1):
            d = rng.randrange(2, 10)
            polys.append(Gf2mPoly([rng.randrange(size) for _ in range(d)] + [rng.randrange(1, size)]))
        for f in polys:
            assert poly_roots(f, p) == [x for x in range(size) if poly_eval(f, x, p) == 0]
        assert poly_roots(polys[0], p) == []
        assert len(poly_roots(polys[3], p)) == polys[3].degree
        with pytest.raises(ZeroOperand):
            poly_roots(Gf2mPoly(()), p)


def _unslice(planes, n):
    return [sum((v >> i & 1) << k for k, v in enumerate(planes)) for i in range(n)]


def test_sliced_arithmetic_matches_per_point():
    rng = random.Random(47)
    for m in (1, 2, 3, 8, 13):
        p = FieldParams(m)
        n = 1 << m
        f = Gf2mPoly([rng.randrange(n) for _ in range(6)])
        values = [poly_eval(f, x, p) for x in range(n)]
        planes = poly_eval_all(f, p)
        assert _unslice(planes, n) == values
        assert _unslice(p.points, n) == list(range(n))
        order = rng.sample(range(n), n)
        shuffled = [sum((x >> k & 1) << i for i, x in enumerate(order)) for k in range(m)]
        assert _unslice(poly_eval_all(f, p, shuffled), n) == [values[x] for x in order]
        inv = [field_inv(v, p) if v else 0 for v in values]
        assert _unslice(sliced_inv(planes, p), n) == inv
        prod = [field_mul(v, x, p) for x, v in enumerate(values)]
        assert _unslice(sliced_mul(planes, p.points, p), n) == prod


def test_sliced_inverse_at_every_degree():
    rng = random.Random(54)
    for m in range(1, 17):
        p = FieldParams(m)
        values = [0, 1, (1 << m) - 1] + [rng.randrange(1 << m) for _ in range(61)]
        planes = [sum((x >> k & 1) << i for i, x in enumerate(values)) for k in range(m)]
        for x, y in zip(values, _unslice(sliced_inv(planes, p), len(values))):
            assert y == 0 if x == 0 else slow_mul(x, y, m, p.modulus) == 1, (m, x)


def _to_lanes(polys, m):
    """One lane polynomial holding polys[l] in lane l; all have the same length."""
    return [[sum((f[i] >> k & 1) << l for l, f in enumerate(polys)) for k in range(m)]
            for i in range(len(polys[0]))]


def _lane(f, l, m):
    return Gf2mPoly([sum((c[k] >> l & 1) << k for k in range(m)) for c in f])


def test_sliced_square_matches_product():
    rng = random.Random(51)
    for m in (1, 5, 12, 16):
        p = FieldParams(m)
        a = [rng.getrandbits(70) for _ in range(m)]
        assert sliced_sqr(a, p) == sliced_mul(a, a, p)


def test_sliced_ext_gcd_matches_scalar_up_to_one_constant():
    rng = random.Random(52)
    for m, d, stop in ((4, 3, 0), (8, 5, 0), (8, 5, 2), (12, 4, 2), (12, 1, 0)):
        p = FieldParams(m)
        size = 1 << m
        pairs = [([rng.randrange(size) for _ in range(d + 1)] + [rng.randrange(1, size)],
                  [rng.randrange(size) for _ in range(d)] + [rng.randrange(1, size)]) for _ in range(30)]
        pairs.append((pairs[0][0], pairs[0][1][:-1] + [0]))  # b one degree short: off the generic path
        ones = (1 << len(pairs)) - 1
        r, v, generic = sliced_ext_gcd(_to_lanes([a for a, _ in pairs], m),
                                       _to_lanes([b for _, b in pairs], m), stop, ones, p)
        assert not generic >> (len(pairs) - 1) & 1
        assert bin(generic).count("1") >= 20
        for l, (a, b) in enumerate(pairs):
            if not generic >> l & 1:
                continue
            rs, _, vs = poly_ext_gcd(Gf2mPoly(a), Gf2mPoly(b), stop, p)
            rl, vl = _lane(r, l, m), _lane(v, l, m)
            assert rl.degree == rs.degree == stop
            c = field_mul(rl.coeffs[-1], field_inv(rs.coeffs[-1], p), p)  # rl = c * rs
            assert rl == poly_mul(Gf2mPoly((c,)), rs, p)
            assert vl == poly_mul(Gf2mPoly((c,)), vs, p)


def test_sliced_split_test_matches_root_count():
    rng = random.Random(53)
    for m, t in ((3, 2), (4, 3), (8, 2), (8, 5), (12, 5), (16, 9)):
        p = FieldParams(m)
        size = 1 << m
        polys = [_split_poly(rng.sample(range(size), t), rng.randrange(1, size), p) for _ in range(5)]
        repeated = rng.sample(range(size), t - 1)
        polys.append(_split_poly(repeated + repeated[:1], rng.randrange(1, size), p))  # a double root
        polys += [Gf2mPoly([rng.randrange(size) for _ in range(t)] + [rng.randrange(1, size)]) for _ in range(20)]
        ones = (1 << len(polys)) - 1
        mask = sliced_splits(_to_lanes([f.coeffs for f in polys], m), ones, p)
        for l, f in enumerate(polys):
            assert (mask >> l & 1) == (len(poly_roots(f, p)) == t)
        assert mask & 0x1F == 0x1F and not mask >> 5 & 1


def test_is_irreducible_against_trial_division():
    rng = random.Random(31)
    p = FieldParams(5)
    # exhaustive linear-factor scan for degree 2: irreducible iff no roots
    for _ in range(200):
        f = Gf2mPoly((rng.randrange(32), rng.randrange(32), 1))
        has_root = any(poly_eval(f, x, p) == 0 for x in range(32))
        assert is_irreducible(f, p) == (not has_root)


def test_random_irreducible():
    rng = random.Random(37)
    p5 = FieldParams(5)
    g = random_irreducible(1, p5, rng)
    assert g.degree == 1 and g.coeffs[1] == 1
    for t in (2, 3):
        g = random_irreducible(t, p5, rng)
        assert g.degree == t
        assert g.coeffs[t] == 1
        # no roots over the field, so divisible by no monic linear factor
        assert all(poly_eval(g, x, p5) != 0 for x in range(32))
        for c in range(32):
            _, rem = poly_divmod(g, Gf2mPoly((c, 1)), p5)
            assert not rem.is_zero()


def test_field_params_validation():
    from codeibi import ParameterError

    with pytest.raises(ParameterError):
        FieldParams(0)
    with pytest.raises(ParameterError):
        FieldParams(17)
    with pytest.raises(ParameterError):
        FieldParams(4, 0x18)  # z^4 + z^3 = z^3(z + 1), reducible
    assert FieldParams(4) == FieldParams(4, 0x13)
