"""The packed lane-polynomial screen, lane by lane against the scalar steps
of Patterson, and the bulk front end of the batched hash-and-retry loop."""
import random

import pytest

import codeibi.gf2m
import codeibi.goppa
from codeibi import (
    BitVector,
    FieldParams,
    binary_syndrome,
    build_goppa,
    counter_max,
    hash_to_syndrome,
    mat_mul,
    mat_vec_mul,
    nied_keygen,
    nied_screen,
    patterson_decode,
    patterson_screen,
    poly_add,
    poly_ext_gcd,
    poly_inv_mod,
    poly_mod,
    poly_mul,
    poly_roots,
    poly_sqrt_split,
    syndrome_poly,
)
from codeibi.errors import Undecodable
from codeibi.gf2m import POLY_Z
from codeibi.mcfs import _hash_to_syndromes


def planes_of(syndromes, r):
    """Bit l of plane j is bit j of syndromes[l]."""
    return [sum((s >> j & 1) << l for l, s in enumerate(syndromes)) for j in range(r)]


def decodes(code, s):
    try:
        patterson_decode(code, s)
    except Undecodable:
        return False
    return True


def remainder_degrees(a, b, p):
    """Degrees of Euclid's remainder sequence a, b, a mod b, ... up to the last nonzero one."""
    degrees = [a.degree]
    while not b.is_zero():
        degrees.append(b.degree)
        a, b = b, poly_mod(a, b, p)
    return degrees


def scalar_screen(code, s):
    """patterson_screen's bit for one syndrome, from the scalar functions.

    1 off the generic path, where the remainders of (g, S) or of (g, R)
    skip a degree before the screen's stop; else whether the locator has
    t distinct roots.
    """
    p, t, g = code.params, code.t, code.g
    S = syndrome_poly(code, BitVector(p.m * t, s))
    if remainder_degrees(g, S, p)[: t + 1] != list(range(t, -1, -1)):
        return 1
    R = poly_sqrt_split(poly_add(poly_inv_mod(S, g, p), POLY_Z), code.sqrt_z, g, p)
    if remainder_degrees(g, R, p)[: t - t // 2 + 1] != list(range(t, t // 2 - 1, -1)):
        return 1
    a, _, b = poly_ext_gcd(g, R, t // 2, p)
    sigma = poly_add(poly_mul(a, a, p), poly_mul(POLY_Z, poly_mul(b, b, p), p))
    return int(len(poly_roots(sigma, p)) == t)


@pytest.fixture(scope="module")
def code63():
    return build_goppa(FieldParams(6), 3, random.Random(194))


@pytest.mark.parametrize("lanes", [1, 7, 9, 64, 4096])
def test_packed_screen_matches_the_scalar_steps_lane_by_lane(code63, lanes):
    # 7 and 9 lanes leave pad bits in each 8- and 16-bit slot; 1, 64 and
    # 4096 fill theirs.  Lanes outside ones, below its top lane, hold
    # syndromes too, and must come out 0.
    code, rng = code63, random.Random(lanes)
    r = code.params.m * code.t
    syndromes = []
    for lane in range(lanes):
        if lane % 4 == 1:
            e = BitVector.random_weight(code.n, rng.randrange(1, code.t + 1), rng)
            syndromes.append(binary_syndrome(code, e).bits)
        else:
            syndromes.append(rng.getrandbits(r))
    full = (1 << lanes) - 1
    for ones in (full, full & ~(0b1010011 << (lanes // 3) & full >> 1)):
        mask = patterson_screen(code, planes_of(syndromes, r), ones)
        assert mask & ~ones == 0
        for lane, s in enumerate(syndromes):
            if ones >> lane & 1:
                assert mask >> lane & 1 == scalar_screen(code, s), lane
                assert mask >> lane & 1 or not decodes(code, BitVector(r, s)), lane


def test_nied_screen_makes_one_map_on_its_first_screen():
    _, sk = nied_keygen(FieldParams(6), 3, random.Random(195))
    assert "screen_map" not in vars(sk) and "lane_maps" not in vars(sk.code)
    rng = random.Random(196)
    ys = [BitVector(sk.a.nrows, rng.getrandbits(sk.a.nrows)) for _ in range(100)]
    mask = nied_screen(sk, ys)
    assert sk.screen_map == mat_mul(sk.code.lane_maps[0], sk.a)
    inner = [mat_vec_mul(sk.a, y).bits for y in ys]
    assert mask == patterson_screen(sk.code, planes_of(inner, sk.a.nrows), (1 << len(ys)) - 1)


@pytest.mark.parametrize("bits", [60, 144])
def test_bulk_syndromes_match_hash_to_syndrome(bits):
    rng = random.Random(bits)
    top = counter_max(bits)
    counters = [top, top - 1, 1, 2] + [top - rng.randrange(1000) for _ in range(60)]
    counters += [rng.randrange(1, top + 1) for _ in range(60)]
    for msg in (b"", b"alice", bytes(range(256)) * 3):
        expect = [hash_to_syndrome(bits, msg, i) for i in counters]
        assert _hash_to_syndromes(bits, msg, counters) == expect


@pytest.mark.parametrize("m, t, seed", [(5, 2, 201), (6, 2, 202), (6, 4, 203), (7, 4, 204)])
def test_screen_matches_the_scalar_steps_at_even_t(m, t, seed):
    # At even t the locator's leading term is a^2, and the first Euclid's
    # constant scales only its odd half, so the top coefficient is unscaled.
    code, rng = build_goppa(FieldParams(m), t, random.Random(seed)), random.Random(seed)
    r, lanes = m * t, 200
    syndromes = []
    for lane in range(lanes):
        if lane % 3 == 1:
            e = BitVector.random_weight(code.n, rng.randrange(1, t + 1), rng)
            syndromes.append(binary_syndrome(code, e).bits)
        else:
            syndromes.append(rng.getrandbits(r))
    mask = patterson_screen(code, planes_of(syndromes, r), (1 << lanes) - 1)
    assert 0 < mask < (1 << lanes) - 1
    for lane, s in enumerate(syndromes):
        assert mask >> lane & 1 == scalar_screen(code, s), lane
        assert mask >> lane & 1 or not decodes(code, BitVector(r, s)), lane


def test_one_screen_makes_one_inversion(monkeypatch):
    _, sk = nied_keygen(FieldParams(8), 5, random.Random(205))
    calls = []
    inv = codeibi.gf2m.sliced_inv
    for module in (codeibi.gf2m, codeibi.goppa):
        monkeypatch.setattr(module, "sliced_inv", lambda a, p: calls.append(1) or inv(a, p))
    rng = random.Random(206)
    r = sk.a.nrows
    nied_screen(sk, [BitVector(r, rng.getrandbits(r)) for _ in range(300)])
    assert len(calls) == 1
    patterson_screen(sk.code, [rng.getrandbits(300) for _ in range(r)], (1 << 300) - 1)
    assert len(calls) == 2


def test_an_empty_batch_screens_and_hashes_to_nothing():
    _, sk = nied_keygen(FieldParams(6), 3, random.Random(207))
    assert nied_screen(sk, []) == 0
    assert patterson_screen(sk.code, [0] * sk.a.nrows, 0) == 0
    assert _hash_to_syndromes(sk.a.nrows, b"alice", []) == []
