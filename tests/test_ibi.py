"""Identity-keyed identification and the derived signature scheme."""
import dataclasses
import random

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    CheatStrategy,
    FieldParams,
    IbsSignature,
    MasterPublicKey,
    NiedPublicKey,
    ParameterError,
    ProtocolViolation,
    Prover,
    Response,
    UserSecretKey,
    Verifier,
    cheat_commit,
    cheat_respond,
    counter_max,
    derive_identifier,
    extract_user_key,
    fs_challenges,
    ibi_identify,
    ibs_sign,
    ibs_verify,
    master_keygen,
    mat_vec_mul,
    verify_round,
)


def authority(m=5, t=2, rounds=10, seed=1):
    return master_keygen(FieldParams(m), t, rounds, random.Random(seed))


def test_master_keygen_shapes():
    mpk, msk = authority(10, 3, 28, seed=2)
    assert mpk.nied_pk.h_tilde.nrows == 30
    assert mpk.nied_pk.h_tilde.ncols == 1024
    assert mpk.nied_pk.n - mpk.nied_pk.k == 30
    assert mpk.stern_rounds == 28
    assert msk.nied_sk.code.t == 3


def test_extraction_invariant():
    mpk, msk = authority(seed=3)
    rng = random.Random(4)
    for i in range(25):
        identity = f"user-{i}".encode()
        usk = extract_user_key(msk, mpk, identity, rng)
        assert usk.w == usk.s.weight() <= mpk.nied_pk.t
        assert 1 <= usk.j <= counter_max(mpk.nied_pk.h_tilde.nrows)
        assert mat_vec_mul(mpk.nied_pk.h_tilde, usk.s) == derive_identifier(
            mpk, identity, usk.j
        )


def test_identifier_depends_on_counter():
    # 1000 uniform draws into the 2^10 identifier space of (m=5, t=2)
    # leave about 1024*(1 - (1 - 1/1024)^1000) ~ 639 distinct values
    mpk, _ = authority(seed=5)
    seen = {derive_identifier(mpk, b"fixed", j).bits for j in range(1, 1001)}
    assert 590 < len(seen) < 690
    assert all(derive_identifier(mpk, b"fixed", j).n == 10 for j in (1, 7, 99))


def test_identify_accepts_honest_prover():
    mpk, msk = authority(rounds=15, seed=6)
    rng = random.Random(7)
    usk = extract_user_key(msk, mpk, b"alice", rng)
    tr = ibi_identify(usk, mpk, b"alice", random.Random(8), random.Random(9))
    assert tr.accepted
    assert len(tr.rounds) == 15
    assert tr.j == usk.j and tr.w == usk.w


def test_identify_rejects_wrong_identity():
    mpk, msk = authority(rounds=20, seed=10)
    rng = random.Random(11)
    usk = extract_user_key(msk, mpk, b"alice", rng)
    for i in range(100):
        tr = ibi_identify(usk, mpk, b"mallory", random.Random(i), random.Random(1000 + i))
        assert not tr.accepted


def test_identify_rejects_overweight_claim():
    import dataclasses

    mpk, msk = authority(seed=12)
    usk = extract_user_key(msk, mpk, b"bob", random.Random(13))
    fat = dataclasses.replace(usk, w=mpk.nied_pk.t + 1)
    tr = ibi_identify(fat, mpk, b"bob", random.Random(14), random.Random(15))
    assert not tr.accepted and tr.rounds == ()


def test_fs_challenges_deterministic_and_uniform():
    mpk, _ = authority(seed=16)
    blob = bytes(range(96))
    a = fs_challenges(mpk, b"id", 3, blob, b"msg", 50)
    assert a == fs_challenges(mpk, b"id", 3, blob, b"msg", 50)
    big = fs_challenges(mpk, b"id", 3, blob, b"msg", 30000)
    for d in (0, 1, 2):
        assert abs(big.count(d) / 30000 - 1 / 3) < 0.01


def test_fs_challenges_message_avalanche():
    mpk, _ = authority(seed=17)
    rng = random.Random(18)
    for _ in range(500):
        blob = rng.randbytes(96)
        msg = bytearray(rng.randbytes(12))
        before = fs_challenges(mpk, b"id", 1, bytes(blob), bytes(msg), 40)
        msg[rng.randrange(12)] ^= 1 << rng.randrange(8)
        after = fs_challenges(mpk, b"id", 1, bytes(blob), bytes(msg), 40)
        assert before != after


def test_fs_challenges_block_refill():
    mpk, _ = authority(seed=19)
    short = fs_challenges(mpk, b"x", 1, b"", b"", 5)
    long = fs_challenges(mpk, b"x", 1, b"", b"", 200)
    assert long[:5] == short
    assert len(long) == 200


def test_ibs_round_trip():
    mpk, msk = authority(rounds=12, seed=20)
    rng = random.Random(21)
    usk = extract_user_key(msk, mpk, b"carol", rng)
    for i in range(20):
        msg = f"payload {i}".encode()
        sig = ibs_sign(usk, mpk, b"carol", msg, rng)
        assert len(sig.commitments) == 12
        assert ibs_verify(mpk, b"carol", msg, sig)


def test_ibs_rejects_wrong_message_or_identity():
    mpk, msk = authority(rounds=12, seed=22)
    rng = random.Random(23)
    usk = extract_user_key(msk, mpk, b"dan", rng)
    sig = ibs_sign(usk, mpk, b"dan", b"original", rng)
    assert not ibs_verify(mpk, b"dan", b"originaL", sig)
    assert not ibs_verify(mpk, b"dane", b"original", sig)


def test_ibs_rejects_replaced_commitment():
    mpk, msk = authority(rounds=8, seed=24)
    rng = random.Random(25)
    usk = extract_user_key(msk, mpk, b"erin", rng)
    sig = ibs_sign(usk, mpk, b"erin", b"m", rng)
    import dataclasses

    swapped = sig.commitments[:4] + (
        dataclasses.replace(sig.commitments[4], c1=bytes(32)),
    ) + sig.commitments[5:]
    assert not ibs_verify(mpk, b"erin", b"m", IbsSignature(sig.j, sig.w, swapped, sig.challenges, sig.responses))


def test_ibs_rejects_tampered_challenge_or_response():
    mpk, msk = authority(rounds=8, seed=26)
    rng = random.Random(27)
    usk = extract_user_key(msk, mpk, b"fay", rng)
    sig = ibs_sign(usk, mpk, b"fay", b"m", rng)

    flipped = tuple((c + 1) % 3 for c in sig.challenges)
    assert not ibs_verify(mpk, b"fay", b"m", IbsSignature(sig.j, sig.w, sig.commitments, flipped, sig.responses))

    r0 = sig.responses[0]
    bent = Response(r0.b, r0.vec ^ BitVector.from_support(r0.vec.n, [0]), perm=r0.perm, vec2=r0.vec2)
    assert not ibs_verify(
        mpk, b"fay", b"m",
        IbsSignature(sig.j, sig.w, sig.commitments, sig.challenges, (bent,) + sig.responses[1:]),
    )


def test_ibs_rejects_mismatched_array_lengths():
    mpk, msk = authority(rounds=6, seed=28)
    rng = random.Random(29)
    usk = extract_user_key(msk, mpk, b"gil", rng)
    sig = ibs_sign(usk, mpk, b"gil", b"m", rng)
    assert not ibs_verify(
        mpk, b"gil", b"m",
        IbsSignature(sig.j, sig.w, sig.commitments[:-1], sig.challenges, sig.responses),
    )
    assert not ibs_verify(
        mpk, b"gil", b"m", IbsSignature(sig.j, sig.w, (), (), ())
    )


def test_extraction_self_check_guards_key_mismatch():
    from codeibi import CodeIbiError

    mpk_a, msk_a = authority(seed=30)
    mpk_b, _ = authority(seed=31)
    with pytest.raises(CodeIbiError):
        extract_user_key(msk_a, mpk_b, b"harry", random.Random(32))


def test_rounds_param_guard():
    from codeibi import ParameterError

    with pytest.raises(ParameterError):
        master_keygen(FieldParams(5), 2, 0, random.Random(33))


def test_ibs_rejects_signatures_shorter_than_the_mpk_round_count():
    # A keyless WEIGHT_ONLY prover passes a round for two of the three
    # challenges.  If the verifier took k from the signature, a one-round
    # signature against a 40-round mpk would verify about 2/3 of the time.
    mpk, msk = authority(rounds=40, seed=34)
    identity, j, w = b"victim", 1, mpk.nied_pk.t
    identifier = derive_identifier(mpk, identity, j)
    h = mpk.nied_pk.h_tilde
    rng = random.Random(35)
    forged = []
    for i in range(30):
        msg = f"forged {i}".encode()
        state, com = cheat_commit(CheatStrategy.WEIGHT_ONLY, h, identifier, w, rng)
        (ch,) = fs_challenges(mpk, identity, j, com.c1 + com.c2 + com.c3, msg, 1)
        resp = cheat_respond(state, ch)
        forged.append((msg, IbsSignature(j, w, (com,), (ch,), (resp,))))
    passing = sum(
        verify_round(h, identifier, sig.commitments[0], sig.challenges[0], sig.responses[0], w)
        for _, sig in forged
    )
    assert passing > 10  # the forgeries are not vacuous: most rounds open correctly
    assert not any(ibs_verify(mpk, identity, msg, sig) for msg, sig in forged)

    # an honest k-round signature verifies, and one of k - 1 honest rounds does not
    usk = extract_user_key(msk, mpk, b"honest", rng)
    assert ibs_verify(mpk, b"honest", b"m", ibs_sign(usk, mpk, b"honest", b"m", rng))
    short_mpk = dataclasses.replace(mpk, stern_rounds=39)
    short = ibs_sign(usk, short_mpk, b"honest", b"m", rng)
    assert ibs_verify(short_mpk, b"honest", b"m", short)
    assert not ibs_verify(mpk, b"honest", b"m", short)


def test_ibs_rejects_signatures_longer_than_the_mpk_round_count():
    # the mpk fixes k: an honest signature of k + 1 rounds is not one of k
    mpk, msk = authority(rounds=20, seed=46)
    rng = random.Random(47)
    usk = extract_user_key(msk, mpk, b"honest", rng)
    long_mpk = dataclasses.replace(mpk, stern_rounds=21)
    long = ibs_sign(usk, long_mpk, b"honest", b"m", rng)
    assert ibs_verify(long_mpk, b"honest", b"m", long)
    assert not ibs_verify(mpk, b"honest", b"m", long)


def test_prover_verifier_all_commits_first_matches_one_round_at_a_time():
    mpk, msk = authority(rounds=12, seed=36)
    usk = extract_user_key(msk, mpk, b"ivy", random.Random(37))

    def session(all_commits_first):
        prover = Prover(usk, mpk, random.Random(38))
        verifier = Verifier(mpk, b"ivy", usk.j, usk.w, random.Random(39))
        assert verifier.admitted
        if all_commits_first:
            coms = [prover.commit() for _ in range(mpk.stern_rounds)]
            for com in coms:
                verifier.check(prover.respond(verifier.challenge(com)))
        else:
            while not verifier.done:
                verifier.check(prover.respond(verifier.challenge(prover.commit())))
        assert verifier.done
        with pytest.raises(ProtocolViolation):
            verifier.record(verifier.rounds[0].commitments, 0, verifier.rounds[0].response)
        return verifier.transcript()

    batched = session(True)
    assert batched.accepted and len(batched.rounds) == 12
    assert batched == session(False)
    assert batched == ibi_identify(usk, mpk, b"ivy", random.Random(38), random.Random(39))


def wrong_key(mpk, msk, identity, seed):
    """A random weight-t key under a counter the identity really has."""
    rng = random.Random(seed)
    usk = extract_user_key(msk, mpk, identity, rng)
    t = mpk.nied_pk.t
    return UserSecretKey(BitVector.random_weight(mpk.nied_pk.n, t, rng), usk.j, t)


def test_wrong_key_session_ends_at_its_first_failed_round():
    mpk, msk = authority(rounds=30, seed=40)
    wrong = wrong_key(mpk, msk, b"judy", 41)
    tr = ibi_identify(wrong, mpk, b"judy", random.Random(42), random.Random(43))
    assert not tr.accepted
    assert 1 <= len(tr.rounds) < mpk.stern_rounds
    assert not tr.rounds[-1].accepted
    assert all(rt.accepted for rt in tr.rounds[:-1])


def test_verifier_takes_no_round_after_a_failed_one():
    mpk, msk = authority(rounds=30, seed=44)
    wrong = wrong_key(mpk, msk, b"kim", 45)
    prover = Prover(wrong, mpk, random.Random(46))
    verifier = Verifier(mpk, b"kim", wrong.j, wrong.w, random.Random(47))
    while verifier.check(prover.respond(verifier.challenge(prover.commit()))):
        assert not verifier.done
    assert verifier.done and not verifier.accepted
    with pytest.raises(ProtocolViolation):
        verifier.record(verifier.rounds[0].commitments, 0, verifier.rounds[0].response)


def test_mpk_checks_the_bounds_every_size_is_read_from():
    # k >= 1, 1 <= t <= n and r <= 256 hold for every MasterPublicKey, decoded or built
    mpk, _ = authority(seed=36)
    pk = mpk.nied_pk
    with pytest.raises(ParameterError):
        MasterPublicKey(pk, 0)
    for t in (0, pk.n + 1):
        with pytest.raises(ParameterError):
            MasterPublicKey(NiedPublicKey(pk.h_tilde, t), 10)
    with pytest.raises(ParameterError):
        MasterPublicKey(NiedPublicKey(BitMatrix.zeros(257, 512), 2), 10)
    widest = MasterPublicKey(NiedPublicKey(BitMatrix.zeros(256, 512), 2), 1)
    assert (widest.nied_pk.n, widest.nied_pk.k) == (512, 256)
    assert MasterPublicKey(NiedPublicKey(pk.h_tilde, pk.n), 1).nied_pk.t == pk.n
