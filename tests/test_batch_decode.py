"""Lane-batched decoding: the screen drops only undecodable lanes, and the
batched hash-and-retry loop leaves the result and the rng state of the
one-counter-at-a-time loop."""
import random

import pytest

from codeibi import (
    BitVector,
    FieldParams,
    RetryLimitExceeded,
    Undecodable,
    binary_syndrome,
    build_goppa,
    counter_max,
    extract_user_key,
    hash_to_syndrome,
    master_keygen,
    mcfs_sign,
    mcfs_verify,
    nied_decrypt,
    nied_encrypt,
    nied_keygen,
    nied_screen,
    patterson_decode,
    patterson_screen,
)
from codeibi.mcfs import MIN_LANES, McfsSignature


def reference_sign(sk, msg, rng, cap):
    """One counter at a time: (i, x, attempts), or None after cap draws."""
    bits = sk.code.n - sk.code.k
    for attempt in range(1, cap + 1):
        i = rng.randrange(1, counter_max(bits) + 1)
        try:
            x = nied_decrypt(sk, hash_to_syndrome(bits, msg, i))
        except Undecodable:
            continue
        return i, x, attempt
    return None


def planes_of(syndromes, r):
    """Bit l of plane j is bit j of syndromes[l]."""
    return [sum((s >> j & 1) << l for l, s in enumerate(syndromes)) for j in range(r)]


def decodes(decode, *args):
    try:
        decode(*args)
    except Undecodable:
        return False
    return True


@pytest.mark.parametrize("m,t,lanes", [(4, 3, 120), (5, 2, 120), (10, 3, 200), (12, 5, 200), (16, 9, 60)])
def test_screen_keeps_every_lane_the_decoder_accepts(m, t, lanes):
    rng = random.Random(1000 * m + t)
    code = build_goppa(FieldParams(m), t, rng)
    r = m * t
    syndromes = [0, binary_syndrome(code, BitVector.from_support(code.n, [0])).bits]  # R = 0 at T = z
    while len(syndromes) < lanes:
        if len(syndromes) % 3:
            syndromes.append(rng.getrandbits(r))
        else:
            e = BitVector.random_weight(code.n, rng.randrange(1, t + 1), rng)
            syndromes.append(binary_syndrome(code, e).bits)
    mask = patterson_screen(code, planes_of(syndromes, r), (1 << lanes) - 1)
    accepted = [decodes(patterson_decode, code, BitVector(r, s)) for s in syndromes]
    assert sum(accepted) >= lanes // 3
    for lane, ok in enumerate(accepted):
        assert not ok or mask >> lane & 1, lane
    if m >= 10:  # at small m, lanes leave the generic path often; here the screen must screen
        assert bin(mask).count("1") <= sum(accepted) + lanes // 20


def test_screen_reads_only_the_lanes_of_ones():
    # planes may carry bits in any lane, above the top lane of ones too
    rng = random.Random(52)
    code = build_goppa(FieldParams(5), 2, rng)
    r, lanes = 10, 500
    for _ in range(5):
        syndromes = [rng.getrandbits(r) for _ in range(lanes)]
        ones = rng.getrandbits(lanes - 50)
        mask = patterson_screen(code, planes_of(syndromes, r), ones)
        assert mask & ~ones == 0
        for lane, s in enumerate(syndromes):
            if ones >> lane & 1 and decodes(patterson_decode, code, BitVector(r, s)):
                assert mask >> lane & 1, lane


@pytest.mark.parametrize("m,t,seed", [(5, 2, 3), (12, 5, 4)])
def test_niederreiter_screen_keeps_every_ciphertext_that_decrypts(m, t, seed):
    rng = random.Random(seed)
    pk, sk = nied_keygen(FieldParams(m), t, rng)
    r = pk.h_tilde.nrows
    ys = [BitVector(r, 0)]
    ys += [nied_encrypt(pk, BitVector.random_weight(pk.n, t, rng)) for _ in range(40)]
    ys += [BitVector.random(r, rng) for _ in range(160)]
    rng.shuffle(ys)
    mask = nied_screen(sk, ys)
    for lane, y in enumerate(ys):
        if decodes(nied_decrypt, sk, y):
            assert mask >> lane & 1, lane


@pytest.fixture(scope="module")
def key125():
    return nied_keygen(FieldParams(12), 5, random.Random(190))


def test_batched_sign_matches_the_scalar_loop(key125):
    _, sk = key125
    for seed in range(5):
        mine, ref = random.Random(seed), random.Random(seed)
        sig = mcfs_sign(sk, b"seed-%d" % seed, mine)
        assert (sig.i, sig.x, sig.attempts) == reference_sign(sk, b"seed-%d" % seed, ref, 10**6)
        assert mine.getstate() == ref.getstate()


def test_batched_extraction_matches_the_scalar_loop():
    mpk, msk = master_keygen(FieldParams(12), 5, 4, random.Random(191))
    for seed in (5, 6, 7):
        mine, ref = random.Random(seed), random.Random(seed)
        usk = extract_user_key(msk, mpk, b"user-%d" % seed, mine)
        expect = reference_sign(msk.nied_sk, b"user-%d" % seed, ref, 10**6)
        assert (usk.j, usk.s, usk.attempts) == expect
        assert mine.getstate() == ref.getstate()


# Under key125 and random.Random(k), message b"cap-k" first decodes at these
# attempts: inside the first batch of 2 * 5! = 240 counters, in the
# second, in the third, and past three batches.
WINS_AT = {7: 53, 20: 416, 34: 546, 610: 807}


@pytest.mark.parametrize("cap,ks", [(1, (7, 20)), (2, (7, 20)), (239, (7, 20)), (240, (7, 20)),
                                    (241, (7, 20)), (720, (34, 610))])
def test_retry_caps_stop_where_the_scalar_loop_stops(key125, cap, ks):
    _, sk = key125
    for k in ks:
        mine, ref = random.Random(k), random.Random(k)
        expect = reference_sign(sk, b"cap-%d" % k, ref, cap)
        assert (expect is not None) == (WINS_AT[k] <= cap)
        if expect is None:
            with pytest.raises(RetryLimitExceeded):
                mcfs_sign(sk, b"cap-%d" % k, mine, retry_cap=cap)
        else:
            sig = mcfs_sign(sk, b"cap-%d" % k, mine, retry_cap=cap)
            assert (sig.i, sig.x, sig.attempts) == expect
        assert mine.getstate() == ref.getstate()


def test_small_t_and_short_tails_draw_one_counter_at_a_time(key125, monkeypatch):
    import codeibi.mcfs as mcfs

    _, sk = key125
    screened = []
    monkeypatch.setattr(mcfs, "nied_screen", lambda sk, ys: screened.append(len(ys)) or (1 << len(ys)) - 1)
    with pytest.raises(RetryLimitExceeded):
        mcfs.mcfs_sign(sk, b"cap-20", random.Random(20), retry_cap=240 + MIN_LANES - 1)
    assert screened == [240]
    _, small = nied_keygen(FieldParams(10), 3, random.Random(192))
    mcfs.mcfs_sign(small, b"t=3", random.Random(8))
    assert screened == [240]


def test_system_random_extraction_verifies():
    mpk, msk = master_keygen(FieldParams(12), 5, 4, random.Random(193))
    usk = extract_user_key(msk, mpk, b"unseeded", random.SystemRandom())
    assert mcfs_verify(mpk.nied_pk, b"unseeded", McfsSignature(usk.j, usk.s))
