"""Goppa code construction and algebraic decoding.

The heavyweight check lives in the acceptance suite (full agreement
with the exhaustive decoder over every syndrome); these tests pin the
construction details and the decoder contract at property level.
"""
import math
import random

import pytest

from codeibi import (
    BitVector,
    DimensionMismatch,
    FieldParams,
    Gf2mPoly,
    ParameterError,
    Undecodable,
    GoppaCode,
    binary_syndrome,
    build_goppa,
    code_from_poly,
    field_inv,
    field_mul,
    mat_rank,
    patterson_decode,
    poly_eval,
    poly_inv_mod,
    poly_mod,
    poly_mul,
    random_irreducible,
    syndrome_bits,
    syndrome_poly,
)
from codeibi.goppa import _assemble_parity


def make_code(m, t, seed):
    return build_goppa(FieldParams(m), t, random.Random(seed))


def test_build_shapes_and_rank():
    code = make_code(5, 2, 1)
    assert code.n == 32 and code.k == 22
    assert code.H_bin.nrows == 10 and code.H_bin.ncols == 32
    assert mat_rank(code.H_bin) == 10
    assert code.g.degree == 2 and code.g.coeffs[2] == 1
    assert all(poly_eval(code.g, x, code.params) != 0 for x in code.support)


@pytest.mark.parametrize("m,t", [(3, 2), (4, 3), (5, 2), (6, 3), (8, 3)])
def test_parity_matrix_is_made_on_first_use_with_full_rank(m, t):
    # build_goppa draws g once and never ranks H_bin; no draw here falls short
    params = FieldParams(m)
    for seed in range(50):
        code = build_goppa(params, t, random.Random(seed))
        assert "H_bin" not in vars(code)
        h = code.H_bin
        assert h == _assemble_parity(params, t, code.g) and mat_rank(h) == m * t
        assert code.H_bin is h


def test_rate_relation():
    code = make_code(10, 3, 2)
    assert code.n == 1024 and code.k == 994
    assert (code.n - code.k) // 10 == 3


def test_parameter_guards():
    with pytest.raises(ParameterError):
        build_goppa(FieldParams(4), 4, random.Random(0))  # mt = 16 = 2^m
    with pytest.raises(ParameterError):
        build_goppa(FieldParams(5), 1, random.Random(0))
    p = FieldParams(5)
    reducible = Gf2mPoly((0, 0, 1))  # z^2 has root 0
    with pytest.raises(ParameterError):
        code_from_poly(p, 2, reducible)


def test_parity_matrix_entries():
    # column i packs the m-bit expansions of L_i^r / g(L_i), row-major in r
    code = make_code(4, 2, 3)
    p = code.params
    for i in (0, 1, 7, 15):
        li = code.support[i]
        entry = field_inv(poly_eval(code.g, li, p), p)
        for r in range(code.t):
            for b in range(p.m):
                assert code.H_bin.get(r * p.m + b, i) == (entry >> b) & 1
            entry = field_mul(entry, li, p)


def test_single_bit_syndromes_distinct_and_nonzero():
    code = make_code(5, 2, 4)
    seen = set()
    for i in range(code.n):
        s = binary_syndrome(code, BitVector.from_support(code.n, [i]))
        assert s.weight() > 0
        seen.add(s.bits)
    assert len(seen) == code.n


def test_binary_syndrome_linearity():
    code = make_code(6, 3, 5)
    rng = random.Random(6)
    for _ in range(40):
        a = BitVector.random(code.n, rng)
        b = BitVector.random(code.n, rng)
        assert binary_syndrome(code, a ^ b) == binary_syndrome(code, a) ^ binary_syndrome(code, b)
    with pytest.raises(DimensionMismatch):
        binary_syndrome(code, BitVector.zeros(code.n - 1))


def test_syndrome_poly_single_error_formula():
    code = make_code(5, 2, 7)
    p = code.params
    for i in range(code.n):
        s = binary_syndrome(code, BitVector.from_support(code.n, [i]))
        expect = poly_inv_mod(Gf2mPoly((code.support[i], 1)), code.g, p)
        assert syndrome_poly(code, s) == expect


def test_syndrome_poly_sum_of_inverses():
    # weight-2 pattern: S(z) must equal 1/(z+La) + 1/(z+Lb) mod g
    code = make_code(6, 2, 8)
    p = code.params
    rng = random.Random(9)
    from codeibi import poly_add, poly_mod, poly_mul

    for _ in range(25):
        a, b = rng.sample(range(code.n), 2)
        s = binary_syndrome(code, BitVector.from_support(code.n, [a, b]))
        fa = poly_inv_mod(Gf2mPoly((code.support[a], 1)), code.g, p)
        fb = poly_inv_mod(Gf2mPoly((code.support[b], 1)), code.g, p)
        assert syndrome_poly(code, s) == poly_mod(poly_add(fa, fb), code.g, p)


def test_syndrome_bits_round_trip():
    code = make_code(5, 2, 10)
    rng = random.Random(11)
    for _ in range(100):
        coeffs = tuple(rng.randrange(32) for _ in range(code.t))
        f = Gf2mPoly(coeffs)
        assert syndrome_poly(code, syndrome_bits(code, f)) == f
    for _ in range(100):
        s = BitVector.random(code.n - code.k, rng)
        assert syndrome_bits(code, syndrome_poly(code, s)) == s


def test_decode_zero():
    code = make_code(5, 2, 12)
    z = BitVector.zeros(code.n - code.k)
    assert patterson_decode(code, z) == BitVector.zeros(code.n)


def test_decode_round_trip_random_weights():
    rng = random.Random(13)
    for m, t in ((5, 2), (8, 3), (10, 3), (12, 4)):
        code = make_code(m, t, 100 + m)
        for _ in range(60 if m < 10 else 25):
            w = rng.randrange(1, t + 1)
            e = BitVector.random_weight(code.n, w, rng)
            assert patterson_decode(code, binary_syndrome(code, e)) == e


def test_decode_rejects_out_of_ball():
    # weight t+1 syndromes must either fail or decode to something else
    code = make_code(5, 2, 14)
    rng = random.Random(15)
    rejected = 0
    for _ in range(60):
        e = BitVector.random_weight(code.n, code.t + 1, rng)
        s = binary_syndrome(code, e)
        try:
            got = patterson_decode(code, s)
        except Undecodable:
            rejected += 1
            continue
        assert got != e
        assert got.weight() <= code.t
        assert binary_syndrome(code, got) == s
    assert rejected > 0


def test_undecodable_reason_names_each_exit():
    code = make_code(4, 2, 20)
    reasons = set()
    for bits in range(1 << 8):
        try:
            patterson_decode(code, BitVector(8, bits))
        except Undecodable as exc:
            assert exc.reason in str(exc)
            reasons.add(exc.reason)
    # every locator that splits locates a true error pattern (S*sigma = sigma'
    # mod g), so the decoder has no other exit
    assert reasons == {"does not split"}


@pytest.mark.parametrize("m,t", [(4, 2), (5, 2), (6, 2)])
def test_decoder_decodes_exactly_the_ball_on_every_syndrome(m, t):
    # what no run-time re-check guards: each answer against H_bin, the reference
    code = make_code(m, t, 25)
    decoded = 0
    for bits in range(1 << (m * t)):
        s = BitVector(m * t, bits)
        try:
            e = patterson_decode(code, s)
        except Undecodable as exc:
            assert exc.reason == "does not split"
            continue
        assert e.weight() <= t and binary_syndrome(code, e) == s
        decoded += 1
    assert decoded == sum(math.comb(code.n, w) for w in range(t + 1))


def test_directly_built_code_decodes_with_its_own_sqrt_z():
    code = make_code(8, 3, 23)
    bare = GoppaCode(code.params, code.t, code.g)
    e = BitVector.random_weight(code.n, 3, random.Random(24))
    assert patterson_decode(bare, binary_syndrome(code, e)) == e
    root = bare.sqrt_z
    assert poly_mod(poly_mul(root, root, code.params), code.g, code.params) == Gf2mPoly((0, 1))


def test_decode_dimension_check():
    code = make_code(5, 2, 16)
    with pytest.raises(DimensionMismatch):
        patterson_decode(code, BitVector.zeros(11))


def test_fresh_polynomial_each_build():
    a = make_code(8, 3, 17)
    b = make_code(8, 3, 18)
    assert a.g != b.g


def test_code_from_poly_matches_build():
    rng = random.Random(19)
    p = FieldParams(7)
    g = random_irreducible(2, p, rng)
    code = code_from_poly(p, 2, g)
    assert code.g == g
    assert "H_bin" not in vars(code)
    e = BitVector.random_weight(code.n, 2, rng)
    assert patterson_decode(code, binary_syndrome(code, e)) == e
