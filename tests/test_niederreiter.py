"""Trapdoor encryption round trips and key disguise plumbing."""
import random

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    FieldParams,
    NiedSecretKey,
    Permutation,
    Singular,
    Undecodable,
    WeightError,
    mat_mul,
    mat_rank,
    mat_vec_mul,
    nied_decrypt,
    nied_encrypt,
    nied_keygen,
)


def keys(m, t, seed, **kw):
    return nied_keygen(FieldParams(m), t, random.Random(seed), **kw)


def test_keygen_shapes():
    pk, sk = keys(5, 2, 1)
    assert pk.n == 32 and pk.k == 22 and pk.t == 2
    assert pk.h_tilde.nrows == 10 and pk.h_tilde.ncols == 32
    assert mat_rank(pk.h_tilde) == 10
    assert mat_mul(sk.q, sk.q_inv) == BitMatrix.identity(10)


def test_identity_disguise_hook():
    r = 10
    pk, sk = keys(5, 2, 2, q=BitMatrix.identity(r), p=Permutation(tuple(range(32))))
    assert pk.h_tilde == sk.code.H_bin


def test_distinct_seeds_distinct_keys():
    pk1, _ = keys(6, 2, 3)
    pk2, _ = keys(6, 2, 4)
    assert pk1.h_tilde != pk2.h_tilde


def test_encrypt_matches_matrix():
    rng = random.Random(5)
    pk, _ = keys(6, 3, 5)
    for _ in range(50):
        x = BitVector.random_weight(pk.n, pk.t, rng)
        assert nied_encrypt(pk, x) == mat_vec_mul(pk.h_tilde, x)


def test_encrypt_weight_and_dim_guards():
    pk, _ = keys(5, 2, 6)
    with pytest.raises(WeightError):
        nied_encrypt(pk, BitVector.zeros(pk.n))
    with pytest.raises(WeightError):
        nied_encrypt(pk, BitVector.from_support(pk.n, [0, 1, 2]))
    with pytest.raises(DimensionMismatch):
        nied_encrypt(pk, BitVector.from_support(pk.n + 1, [0, 1]))


def test_all_weight_two_ciphertexts_distinct():
    pk, _ = keys(5, 2, 7)
    seen = set()
    count = 0
    for i in range(pk.n):
        for j in range(i + 1, pk.n):
            y = nied_encrypt(pk, BitVector.from_support(pk.n, [i, j]))
            seen.add(y.bits)
            count += 1
    assert count == 496 and len(seen) == 496


def test_round_trip():
    rng = random.Random(8)
    for m, t in ((5, 2), (8, 3), (10, 3)):
        pk, sk = keys(m, t, 10 * m + t)
        for _ in range(40):
            x = BitVector.random_weight(pk.n, pk.t, rng)
            assert nied_decrypt(sk, nied_encrypt(pk, x)) == x


def test_decrypt_zero_and_reencode():
    rng = random.Random(9)
    pk, sk = keys(8, 2, 9)
    assert nied_decrypt(sk, BitVector.zeros(pk.n - pk.k)).weight() == 0
    # any successful decryption re-encrypts to the same ciphertext
    hits = 0
    for _ in range(200):
        y = BitVector.random(pk.n - pk.k, rng)
        try:
            x = nied_decrypt(sk, y)
        except Undecodable:
            continue
        hits += 1
        assert x.weight() <= pk.t
        assert mat_vec_mul(pk.h_tilde, x) == y
    assert hits > 0


def test_decrypt_dimension_guard():
    pk, sk = keys(5, 2, 11)
    with pytest.raises(DimensionMismatch):
        nied_decrypt(sk, BitVector.zeros(pk.n - pk.k + 1))


def test_secret_key_inverts_its_own_scramble():
    # q_inv is made from q when the key is built, so it cannot disagree with q
    _, sk = keys(5, 2, 12)
    again = NiedSecretKey(sk.q, sk.code, sk.p)
    assert again == sk and again.q_inv == sk.q_inv
    singular = BitMatrix(10, 10, [1 << i for i in range(9)] + [1])  # rows 0 and 9 agree
    with pytest.raises(Singular):
        NiedSecretKey(singular, sk.code, sk.p)
    with pytest.raises(Singular):
        keys(5, 2, 12, q=singular)
