"""Cheating provers, the impersonation game, and the generic decoders."""
import math
import random

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    CheatStrategy,
    CostGuard,
    DimensionMismatch,
    FieldParams,
    GameConfig,
    RetryLimitExceeded,
    brute_force_decode,
    cheat_commit,
    derive_identifier,
    distinguish_from_random,
    estimate_costs,
    gaussian_solve,
    impersonation_game,
    isd_success_prob,
    master_keygen,
    mat_vec_mul,
    prange_attempt,
    prange_isd,
    strategy_acceptance_set,
)


def setup_instance(seed=1):
    """(5, 2) system plus an identifier whose pivot solution is overweight.

    The solve-syndrome cheat only covers exactly two challenges when the
    solved vector misses the claimed weight, so pick a counter where the
    pivot solution weighs something other than t.
    """
    mpk, msk = master_keygen(FieldParams(5), 2, 10, random.Random(seed))
    h = mpk.nied_pk.h_tilde
    j = 1
    ident = derive_identifier(mpk, b"victim", j)
    while gaussian_solve(h, ident).weight() == 2:
        j += 1
        ident = derive_identifier(mpk, b"victim", j)
    return mpk, msk, h, ident


def test_each_strategy_answers_exactly_its_pair():
    _, _, h, ident = setup_instance()
    expected = {
        CheatStrategy.SOLVE_SYNDROME: {0, 1},
        CheatStrategy.WEIGHT_ONLY: {0, 2},
        CheatStrategy.FORGE_C1: {1, 2},
    }
    for strat, want in expected.items():
        for seed in range(8):
            got = strategy_acceptance_set(strat, h, ident, 2, random.Random(seed))
            assert got == want, (strat, seed, got)


def test_solve_syndrome_vector_really_solves():
    _, _, h, ident = setup_instance(seed=2)
    state, _ = cheat_commit(
        CheatStrategy.SOLVE_SYNDROME, h, ident, 2, random.Random(3)
    )
    assert mat_vec_mul(h, state.s_fake) == ident
    assert state.s_fake.weight() != 2


def test_weight_only_vector_has_right_weight_wrong_syndrome():
    _, _, h, ident = setup_instance(seed=4)
    state, _ = cheat_commit(
        CheatStrategy.WEIGHT_ONLY, h, ident, 2, random.Random(5)
    )
    assert state.s_fake.weight() == 2
    assert mat_vec_mul(h, state.s_fake) != ident


def test_game_honest_always_accepts():
    res = impersonation_game(GameConfig(m=5, t=2, rounds=5, trials=40, seed=6, kind="honest"))
    assert res.kind == "honest"
    assert res.successes == res.trials == 40
    assert res.rate == 1.0 and res.bound == 1.0


def test_game_cheat_rate_tracks_two_thirds():
    res = impersonation_game(GameConfig(m=5, t=2, rounds=1, trials=1500, seed=7, kind="cheat"))
    assert res.bound == pytest.approx(2 / 3)
    assert abs(res.rate - 2 / 3) < 0.05
    assert res.rate == res.successes / res.trials


def test_game_wrong_key_rate_tracks_two_thirds():
    res = impersonation_game(
        GameConfig(m=5, t=2, rounds=1, trials=1500, seed=8, kind="wrong-key")
    )
    assert abs(res.rate - 2 / 3) < 0.05


def test_game_multi_round_rarely_accepts_cheat():
    res = impersonation_game(GameConfig(m=5, t=2, rounds=8, trials=300, seed=9, kind="cheat"))
    assert res.bound == pytest.approx((2 / 3) ** 8)
    assert res.rate < 0.2


def test_game_rejects_unknown_kind():
    with pytest.raises(ValueError):
        impersonation_game(GameConfig(m=5, t=2, rounds=1, trials=1, seed=0, kind="replay"))


def test_brute_force_finds_planted_error():
    mpk, _, _, _ = setup_instance(seed=10)
    h = mpk.nied_pk.h_tilde
    rng = random.Random(11)
    for _ in range(20):
        e = BitVector.random_weight(32, 2, rng)
        found = brute_force_decode(h, mat_vec_mul(h, e), 2)
        assert found == e  # weight <= t solutions are unique at distance 2t+1


def test_brute_force_zero_and_unreachable():
    mpk, _, _, _ = setup_instance(seed=12)
    h = mpk.nied_pk.h_tilde
    assert brute_force_decode(h, BitVector.zeros(10), 2) == BitVector.zeros(32)
    assert brute_force_decode(h, BitVector.zeros(10), 0) == BitVector.zeros(32)
    # a full-rank 10-row matrix reaches every syndrome by weight 10, but
    # not necessarily by weight 1
    one_col = BitVector(10, h.column_int(0) ^ h.column_int(1) ^ h.column_int(2))
    assert brute_force_decode(h, one_col, 1) is None


def test_brute_force_cost_guards():
    wide = BitMatrix.zeros(4, 41)
    with pytest.raises(CostGuard):
        brute_force_decode(wide, BitVector.zeros(4), 1)
    ok_size = BitMatrix.zeros(4, 16)
    with pytest.raises(CostGuard):
        brute_force_decode(ok_size, BitVector.zeros(4), 4)
    with pytest.raises(DimensionMismatch):
        brute_force_decode(ok_size, BitVector.zeros(5), 2)


def test_prange_attempt_zero_syndrome():
    mpk, _, _, _ = setup_instance(seed=13)
    h = mpk.nied_pk.h_tilde
    out = prange_attempt(h, BitVector.zeros(10), 2, random.Random(14))
    assert out == BitVector.zeros(32)


def test_prange_attempt_dimension_and_retry_guards():
    mpk, _, _, _ = setup_instance(seed=15)
    h = mpk.nied_pk.h_tilde
    with pytest.raises(DimensionMismatch):
        prange_attempt(h, BitVector.zeros(9), 2, random.Random(16))
    with pytest.raises(RetryLimitExceeded):
        prange_attempt(BitMatrix.zeros(4, 8), BitVector.from_support(4, [0]), 1, random.Random(17))


def test_prange_isd_recovers_planted_error():
    mpk, _, _, _ = setup_instance(seed=18)
    h = mpk.nied_pk.h_tilde  # 10 x 32, success prob per draw ~ 0.47
    rng = random.Random(19)
    hits = 0
    for i in range(30):
        e = BitVector.random_weight(32, 2, rng)
        found = prange_isd(h, mat_vec_mul(h, e), 2, 200, rng)
        assert found is not None
        assert mat_vec_mul(h, found) == mat_vec_mul(h, e)
        hits += found == e
    assert hits == 30  # unique decoding again


def test_prange_isd_gives_up():
    mpk, _, _, _ = setup_instance(seed=20)
    h = mpk.nied_pk.h_tilde
    e = BitVector.random_weight(32, 2, random.Random(21))
    syn = mat_vec_mul(h, e)
    # weight bound 0 can never match a nonzero syndrome
    assert prange_isd(h, syn, 0, 25, random.Random(22)) is None


def test_isd_success_prob_matches_counting():
    for n, k, t in ((32, 22, 2), (128, 114, 2), (256, 240, 2), (64, 46, 3)):
        exact = math.comb(n - t, k) / math.comb(n, k)
        assert isd_success_prob(n, k, t) == pytest.approx(exact, rel=1e-9)
    assert isd_success_prob(10, 4, 0) == 1.0


def test_estimate_costs_reference_point():
    est = estimate_costs(16, 9, 58, 280)
    assert est.pk_bits == 144
    assert est.sk_bits == 144
    assert est.matrix_bits == 9437184
    assert est.comm_bits_identification == 3801088
    assert est.comm_bits_signature == 18350080
    expected_extract = math.factorial(9) * 81 * 256 * (0.5 + 2.0 + 6.0 / 16)
    assert est.extraction_binops == pytest.approx(expected_extract)
    assert est.attack_binops_log2 == 72.0
    assert est.attack_binops_is_lower_bound is True
    assert est.isd_success_prob == pytest.approx(isd_success_prob(65536, 65392, 9))


def test_estimate_costs_scales_with_rounds():
    a = estimate_costs(10, 3, 10, 10)
    b = estimate_costs(10, 3, 20, 40)
    assert b.comm_bits_identification == 2 * a.comm_bits_identification
    assert b.comm_bits_signature == 4 * a.comm_bits_signature
    assert a.pk_bits == 30 and a.matrix_bits == 1024 * 30


def test_distinguisher_is_a_stub():
    assert distinguish_from_random(BitMatrix.zeros(2, 4)) == "no efficient test implemented"
