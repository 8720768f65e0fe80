"""Hash-and-retry signatures over the trapdoor."""
import hashlib
import random

import pytest

from codeibi import (
    BitVector,
    DimensionMismatch,
    FieldParams,
    HashSpec,
    McfsSignature,
    ParameterError,
    RangeError,
    gaussian_solve,
    hash_to_syndrome,
    mat_vec_mul,
    mcfs_sign,
    mcfs_verify,
    nied_keygen,
)


def test_hash_spec_validation():
    spec = HashSpec(30)
    assert spec.out_bits == 30
    assert spec.counter_max == 1 << 30
    with pytest.raises(ParameterError):
        HashSpec(0)
    with pytest.raises(ParameterError):
        HashSpec(257)
    # the counter never exceeds what an 8-byte field can carry
    assert HashSpec(250).counter_max == (1 << 64) - 1


def test_hash_deterministic_and_distinct():
    spec = HashSpec(24)
    a = hash_to_syndrome(spec, b"msg", 5)
    assert a == hash_to_syndrome(spec, b"msg", 5)
    rng = random.Random(1)
    for _ in range(1000):
        msg = rng.randbytes(rng.randrange(0, 40))
        i = rng.randrange(1, 1 << 24)
        assert hash_to_syndrome(spec, msg, i) != hash_to_syndrome(spec, msg, i + 1)


def test_hash_bit_order_frozen():
    # independent recomputation: MSB-first walk over the tagged digest
    spec = HashSpec(19)
    msg = b"frozen vector"
    i = 77
    digest = hashlib.sha256(
        bytes([0x01]) + len(msg).to_bytes(8, "big") + msg + i.to_bytes(8, "big")
    ).digest()
    expect = BitVector(
        19, sum(((digest[j >> 3] >> (7 - (j & 7))) & 1) << j for j in range(19))
    )
    assert hash_to_syndrome(spec, msg, i) == expect


def test_hash_length_and_framing():
    spec = HashSpec(21)
    v = hash_to_syndrome(spec, b"x", 1)
    assert v.n == 21
    # length prefix separates message from counter bytes
    a = hash_to_syndrome(spec, b"ab", 1)
    b = hash_to_syndrome(spec, b"a", 1)
    assert a != b
    with pytest.raises(RangeError):
        hash_to_syndrome(spec, b"x", 0)
    with pytest.raises(RangeError):
        hash_to_syndrome(spec, b"x", spec.counter_max + 1)


def keypair(m, t, seed):
    pk, sk = nied_keygen(FieldParams(m), t, random.Random(seed))
    return pk, sk, HashSpec(pk.n - pk.k)


def test_sign_verify_round_trip():
    pk, sk, spec = keypair(8, 2, 2)
    rng = random.Random(3)
    for _ in range(50):
        msg = rng.randbytes(rng.randrange(0, 64))
        sig = mcfs_sign(sk, spec, msg, rng)
        assert sig.x.weight() <= pk.t
        assert 1 <= sig.i <= spec.counter_max
        assert mcfs_verify(pk, spec, msg, sig)


def test_signature_equation():
    pk, sk, spec = keypair(8, 2, 4)
    rng = random.Random(5)
    sig = mcfs_sign(sk, spec, b"equation", rng)
    assert mat_vec_mul(pk.h_tilde, sig.x) == hash_to_syndrome(spec, b"equation", sig.i)


def test_tampered_message_rejected():
    pk, sk, spec = keypair(8, 2, 6)
    rng = random.Random(7)
    for _ in range(100):
        msg = bytearray(rng.randbytes(16))
        sig = mcfs_sign(sk, spec, bytes(msg), rng)
        msg[rng.randrange(16)] ^= 1 << rng.randrange(8)
        assert not mcfs_verify(pk, spec, bytes(msg), sig)


def test_overweight_solution_rejected():
    # a raw linear-system solution satisfies the syndrome but not the weight cap
    pk, sk, spec = keypair(8, 2, 8)
    rng = random.Random(9)
    sig = mcfs_sign(sk, spec, b"weight", rng)
    s = hash_to_syndrome(spec, b"weight", sig.i)
    x2 = gaussian_solve(pk.h_tilde, s)
    assert mat_vec_mul(pk.h_tilde, x2) == s
    assert x2.weight() > pk.t
    assert not mcfs_verify(pk, spec, b"weight", McfsSignature(sig.i, x2))


def test_counter_out_of_range_rejected():
    pk, sk, spec = keypair(8, 2, 10)
    rng = random.Random(11)
    sig = mcfs_sign(sk, spec, b"ctr", rng)
    assert not mcfs_verify(pk, spec, b"ctr", McfsSignature(0, sig.x))
    assert not mcfs_verify(pk, spec, b"ctr", McfsSignature(spec.counter_max + 1, sig.x))


def test_wrong_length_rejected():
    pk, sk, spec = keypair(8, 2, 12)
    sig = mcfs_sign(sk, spec, b"len", random.Random(13))
    short = McfsSignature(sig.i, BitVector.zeros(pk.n - 1))
    assert not mcfs_verify(pk, spec, b"len", short)


def test_spec_must_match_key():
    _, sk, _ = keypair(8, 2, 14)
    with pytest.raises(DimensionMismatch):
        mcfs_sign(sk, HashSpec(17), b"m", random.Random(15))


def test_attempt_counts_geometric():
    _, sk, spec = keypair(8, 2, 16)
    rng = random.Random(17)
    total = 0
    for i in range(300):
        sig = mcfs_sign(sk, spec, i.to_bytes(2, "big"), rng)
        assert sig.attempts >= 1
        total += sig.attempts
    assert 1.5 <= total / 300 <= 2.5


def test_retry_cap():
    from codeibi import RetryLimitExceeded

    _, sk, spec = keypair(10, 3, 18)
    rng = random.Random(19)
    # a cap of zero can never succeed
    with pytest.raises(RetryLimitExceeded):
        mcfs_sign(sk, spec, b"cap", rng, retry_cap=0)
