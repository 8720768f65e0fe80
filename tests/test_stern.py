"""Three-pass identification rounds: commitments, challenges, responses."""
import random

import pytest

from codeibi import (
    BitVector,
    Commitments,
    FieldParams,
    MalformedEnvelope,
    RangeError,
    Response,
    StateReuse,
    apply_permutation,
    draw_challenge,
    encode_perm,
    mat_vec_mul,
    nied_keygen,
    rounds_for_security,
    stern_commit,
    stern_respond,
    verify_round,
)


def setup(m=5, t=2, seed=1):
    pk, _ = nied_keygen(FieldParams(m), t, random.Random(seed))
    rng = random.Random(seed + 1000)
    s = BitVector.random_weight(pk.n, t, rng)
    identifier = mat_vec_mul(pk.h_tilde, s)
    return pk.h_tilde, s, identifier


def test_commitment_format_and_determinism():
    h, s, _ = setup()
    _, c_a = stern_commit(h, s, random.Random(7))
    _, c_b = stern_commit(h, s, random.Random(7))
    assert (c_a.c1, c_a.c2, c_a.c3) == (c_b.c1, c_b.c2, c_b.c3)
    assert len(c_a.c1) == len(c_a.c2) == len(c_a.c3) == 32


def test_commitments_fresh_across_seeds():
    h, s, _ = setup()
    seen = set()
    for seed in range(1000):
        _, com = stern_commit(h, s, random.Random(seed))
        seen.update((com.c1, com.c2, com.c3))
    assert len(seen) == 3000


def test_honest_round_all_challenges():
    h, s, identifier = setup()
    for ch in (0, 1, 2):
        st, com = stern_commit(h, s, random.Random(20 + ch))
        resp = stern_respond(st, s, ch)
        assert resp.b == ch
        assert verify_round(h, identifier, com, ch, resp, s.weight())


def test_response_contents():
    h, s, _ = setup()
    st, _ = stern_commit(h, s, random.Random(30))
    y, sigma = st.y, st.sigma
    r0 = stern_respond(st, s, 0)
    assert r0.vec == y and r0.perm.map == sigma.map

    st, _ = stern_commit(h, s, random.Random(31))
    y = st.y
    r1 = stern_respond(st, s, 1)
    assert r1.vec == y ^ s

    st, _ = stern_commit(h, s, random.Random(32))
    y, sigma = st.y, st.sigma
    r2 = stern_respond(st, s, 2)
    assert r2.vec == apply_permutation(sigma, y)
    assert r2.vec2 == apply_permutation(sigma, s)
    assert r2.vec2.weight() == s.weight()


def test_state_consumed_once():
    h, s, _ = setup()
    st, _ = stern_commit(h, s, random.Random(40))
    stern_respond(st, s, 0)
    with pytest.raises(StateReuse):
        stern_respond(st, s, 1)
    st, _ = stern_commit(h, s, random.Random(41))
    with pytest.raises(RangeError):
        stern_respond(st, s, 3)


def test_wrong_branch_rejected():
    h, s, identifier = setup()
    st, com = stern_commit(h, s, random.Random(50))
    resp = stern_respond(st, s, 0)
    assert not verify_round(h, identifier, com, 1, resp, s.weight())
    assert not verify_round(h, identifier, com, 2, resp, s.weight())


def test_overweight_second_vector_rejected():
    h, s, identifier = setup()
    st, com = stern_commit(h, s, random.Random(60))
    resp = stern_respond(st, s, 2)
    # flip a clear bit: weight grows past the declared value
    extra = next(i for i in range(h.ncols) if not resp.vec2.get(i))
    fat = resp.vec2 ^ BitVector.from_support(h.ncols, [extra])
    assert not verify_round(h, identifier, com, 2, Response(2, resp.vec, vec2=fat), s.weight())


def test_tampered_vectors_rejected():
    h, s, identifier = setup()
    for ch in (0, 1, 2):
        st, com = stern_commit(h, s, random.Random(70 + ch))
        resp = stern_respond(st, s, ch)
        bad_vec = resp.vec ^ BitVector.from_support(h.ncols, [3])
        tampered = Response(ch, bad_vec, perm=resp.perm, vec2=resp.vec2)
        assert not verify_round(h, identifier, com, ch, tampered, s.weight())


def test_b0_transcript_is_secret_free():
    # everything the verifier sees for b=0 must be recomputable from (y, sigma)
    h, s, identifier = setup()
    st, com = stern_commit(h, s, random.Random(80))
    resp = stern_respond(st, s, 0)
    reconstructed = encode_perm(resp.perm) + resp.vec.to_bytes()
    again = encode_perm(st.sigma) + st.y.to_bytes()
    assert reconstructed == again
    assert verify_round(h, identifier, com, 0, resp, s.weight())


def test_wrong_secret_rejected_on_b1():
    h, s, identifier = setup()
    rng = random.Random(90)
    other = BitVector.random_weight(h.ncols, s.weight(), rng)
    if mat_vec_mul(h, other) == identifier:
        pytest.skip("sampled the true key")
    st, com = stern_commit(h, other, rng)
    resp = stern_respond(st, other, 1)
    assert not verify_round(h, identifier, com, 1, resp, s.weight())


def test_draw_challenge_uniform():
    rng = random.Random(100)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[draw_challenge(rng)] += 1
    for c in counts:
        assert abs(c / 30000 - 1 / 3) < 0.01


def test_rounds_for_security():
    assert rounds_for_security(2 / 3) == 1
    assert rounds_for_security((2 / 3) ** 58) == 58
    assert rounds_for_security(2.0 ** -80) == 137
    with pytest.raises(RangeError):
        rounds_for_security(0.0)
    with pytest.raises(RangeError):
        rounds_for_security(1.0)


def test_commitments_bytes_round_trip_and_refuse_other_lengths():
    com = Commitments(bytes(32), bytes(range(32)), b"\xff" * 32)
    assert com.to_bytes() == com.c1 + com.c2 + com.c3
    assert Commitments.from_bytes(com.to_bytes()) == com
    for size in (95, 97):
        with pytest.raises(MalformedEnvelope):
            Commitments.from_bytes(bytes(size))
