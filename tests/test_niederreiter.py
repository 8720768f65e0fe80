"""Trapdoor encryption round trips and the systematic public key."""
import random

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    FieldParams,
    NiedSecretKey,
    ParameterError,
    Permutation,
    Singular,
    Undecodable,
    WeightError,
    build_goppa,
    extract_user_key,
    mat_invert,
    mat_mul,
    mat_rank,
    mat_vec_mul,
    master_keygen,
    nied_decrypt,
    nied_encrypt,
    nied_keygen,
    permute_columns,
    random_permutation,
    select_columns,
)
from codeibi import niederreiter


def keys(m, t, seed, **kw):
    return nied_keygen(FieldParams(m), t, random.Random(seed), **kw)


def greedy_columns(h, r):
    """The first r columns of h, left to right, that are independent of those before them."""
    picked = []
    for j in range(h.ncols):
        if len(picked) < r and mat_rank(select_columns(h, picked + [j])) > len(picked):
            picked.append(j)
    return picked


def reordered(p, pivots):
    """p with its images at pivots first, then the rest in ascending position."""
    images = list(p.images())
    return Permutation([images[j] for j in pivots + [j for j in range(p.n) if j not in pivots]])


def flat_points(code, count):
    """count support points whose columns of H_bin lie in one hyperplane."""
    cols = [code.H_bin.column_int(j) for j in range(code.n)]
    on = [[j for j, c in enumerate(cols) if (d & c).bit_count() % 2 == 0] for d in range(1, 1 << code.H_bin.nrows)]
    return next(points for points in on if len(points) >= count)[:count]


def test_keygen_shapes():
    pk, sk = keys(5, 2, 1)
    assert pk.n == 32 and pk.k == 22 and pk.t == 2
    assert pk.h_tilde.nrows == 10 and pk.h_tilde.ncols == 32
    assert mat_rank(pk.h_tilde) == 10 and mat_rank(sk.a) == 10
    assert pk.h_tilde is sk.h_tilde  # assembled once, for both keys


def test_identity_disguise_hook():
    # under seed 2's g, H_bin's own first 10 columns are independent, so an injected
    # identity P stays, and h_tilde is the systematic form of H_bin itself
    pk, sk = keys(5, 2, 2, p=Permutation(range(32)))
    assert sk.p == Permutation(range(32))
    assert "H_bin" not in vars(sk.code)  # made below, by the reference, not by keygen
    assert pk.h_tilde == mat_mul(mat_invert(select_columns(sk.code.H_bin, range(10))), sk.code.H_bin)


def test_injected_permutation_with_dependent_first_columns_is_reordered():
    # under seed 1's g, H_bin's first 10 columns have rank 8
    code = build_goppa(FieldParams(5), 2, random.Random(1))
    assert mat_rank(select_columns(code.H_bin, range(10))) == 8
    pk, sk = keys(5, 2, 1, p=Permutation(range(32)))
    assert sk.p == reordered(Permutation(range(32)), greedy_columns(code.H_bin, 10))
    assert sk.p != Permutation(range(32))
    assert pk.h_tilde == mat_mul(mat_invert(sk.a), permute_columns(sk.code.H_bin, sk.p))


@pytest.mark.parametrize("seed,moved", [(1, True), (5, False)])
def test_keygen_draws_p_after_g_and_reorders_it_only_when_its_left_block_is_singular(seed, moved):
    rng = random.Random(seed)
    code = build_goppa(FieldParams(5), 2, rng)
    drawn = random_permutation(32, rng)
    pivots = greedy_columns(permute_columns(code.H_bin, drawn), 10)
    assert (pivots != list(range(10))) == moved
    again = random.Random(seed)
    _, sk = nied_keygen(FieldParams(5), 2, again)
    assert sk.p == reordered(drawn, pivots)
    assert again.getstate() == rng.getstate()  # no draw after P's


def test_keygen_widens_its_column_search_when_r_plus_8_columns_fall_short():
    # 18 points whose columns lie in one hyperplane: the first r + 8 = 18 columns
    # of H_bin @ P have rank at most 9, so keygen doubles its search to all 32
    code = build_goppa(FieldParams(5), 2, random.Random(3))
    flat = flat_points(code, 18)
    p = Permutation(flat + [j for j in range(32) if j not in flat])
    pk, sk = keys(5, 2, 3, p=p)
    pivots = greedy_columns(permute_columns(code.H_bin, p), 10)
    assert pivots[-1] >= 18
    assert sk.p == reordered(p, pivots)
    assert pk.h_tilde == mat_mul(mat_invert(sk.a), permute_columns(sk.code.H_bin, sk.p))


def test_keygen_refuses_a_code_whose_parity_columns_all_fall_short(monkeypatch):
    # H_bin @ P with its last row zeroed has rank 9 at every width, so the search
    # widens to all 32 columns and stops there; the fake stops a search that would not
    real, widths = niederreiter._parity_at, []

    def short(code, p, n):
        widths.append(n)
        if len(widths) > 8:
            raise RuntimeError(f"column search still widening after {widths}")
        h = real(code, p, n)
        return BitMatrix(h.nrows, h.ncols, list(h.rows[:-1]) + [0])

    monkeypatch.setattr(niederreiter, "_parity_at", short)
    with pytest.raises(ParameterError, match="rank 9 < 10"):
        keys(5, 2, 1)
    assert widths == [18, 32]


@pytest.mark.parametrize("m,t", [(12, 5), (16, 9)])
def test_master_keygen_makes_no_parity_matrix(m, t):
    # keygen assembles H_bin @ P at P's points only
    _, msk = master_keygen(FieldParams(m), t, 137, random.Random(118))
    assert "H_bin" not in vars(msk.nied_sk.code)


@pytest.mark.parametrize("m,t", [(12, 5), (16, 9)])
def test_no_production_path_makes_the_parity_matrix(m, t):
    # the decoder trusts Patterson's key equation and never re-checks against H_bin
    rng = random.Random(119)
    mpk, msk = master_keygen(FieldParams(m), t, 58, rng)
    if m == 12:
        extract_user_key(msk, mpk, b"alice", rng)
    pk, sk = mpk.nied_pk, msk.nied_sk
    x = BitVector.random_weight(pk.n, t, rng)
    assert nied_decrypt(sk, nied_encrypt(pk, x)) == x
    assert "H_bin" not in vars(sk.code)


@pytest.mark.parametrize("m,t", [(5, 2), (8, 3), (10, 3), (12, 5), (16, 9)])
def test_disguise_matches_column_gather_of_h(m, t):
    # h_tilde = [I | T] = A^-1 @ H_bin @ P; keygen assembles H_bin @ P at the
    # permuted points, and gathering every row of H_bin is the reference
    pk, sk = keys(m, t, 13)
    r = m * t
    assert [row & ((1 << r) - 1) for row in pk.h_tilde.rows] == [1 << i for i in range(r)]
    assert pk.h_tilde == mat_mul(mat_invert(sk.a), permute_columns(sk.code.H_bin, sk.p))


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


def test_secret_key_derives_its_own_left_block():
    # A is made from g and P when the key is built, so it cannot disagree with them
    _, sk = keys(5, 2, 12)
    again = NiedSecretKey(sk.code, sk.p)
    assert again == sk and again.a == sk.a and again.h_tilde == sk.h_tilde
    assert sk.a == select_columns(permute_columns(sk.code.H_bin, sk.p), range(10))
    flat = flat_points(sk.code, 10)
    with pytest.raises(Singular):
        NiedSecretKey(sk.code, Permutation(flat + [j for j in range(32) if j not in flat]))
    with pytest.raises(DimensionMismatch):
        NiedSecretKey(sk.code, Permutation(range(16)))
    with pytest.raises(DimensionMismatch):
        keys(5, 2, 12, p=Permutation(range(16)))
