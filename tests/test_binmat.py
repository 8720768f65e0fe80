"""Bit-packed GF(2) linear algebra."""
import random
import struct
import sys
import tracemalloc

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    FieldParams,
    Inconsistent,
    ParameterError,
    Permutation,
    RangeError,
    Response,
    Singular,
    apply_inverse_permutation,
    apply_permutation,
    bit_planes,
    gaussian_solve,
    mat_invert,
    mat_mul,
    mat_rank,
    mat_vec_mul,
    perm_matrix,
    permute_columns,
    permute_support,
    random_permutation,
    select_columns,
    unpermute_support,
)
from codeibi.wirecli import decode_response_payload, encode_response_payload


def test_bitvector_basics():
    v = BitVector.from_support(10, [0, 3, 9])
    assert v.weight() == 3
    assert v.support() == (0, 3, 9)
    assert v.get(3) == 1 and v.get(4) == 0
    assert BitVector.from_bytes(v.to_bytes(), 10) == v
    with pytest.raises(RangeError):
        BitVector(4, 0x10)
    with pytest.raises(RangeError):
        BitVector(4, -1)


def test_bitvector_byte_order():
    # coordinate i lives at bit i of byte i // 8, low bit first
    v = BitVector.from_support(16, [0, 8, 15])
    assert v.to_bytes() == bytes([0x01, 0x81])


def test_bitvector_xor_and_random():
    rng = random.Random(2)
    a = BitVector.random(33, rng)
    b = BitVector.random(33, rng)
    c = a ^ b
    for i in range(33):
        assert c.get(i) == (a.get(i) ^ b.get(i))
    with pytest.raises(DimensionMismatch):
        a ^ BitVector.zeros(32)
    w = BitVector.random_weight(33, 5, rng)
    assert w.weight() == 5


def test_mat_vec_mul_identity_zero_linearity():
    rng = random.Random(3)
    eye = BitMatrix.identity(24)
    v = BitVector.random(24, rng)
    assert mat_vec_mul(eye, v) == v
    m = BitMatrix(8, 24, [rng.getrandbits(24) for _ in range(8)])
    assert mat_vec_mul(m, BitVector.zeros(24)) == BitVector.zeros(8)
    for _ in range(50):
        u = BitVector.random(24, rng)
        w = BitVector.random(24, rng)
        assert mat_vec_mul(m, u ^ w) == mat_vec_mul(m, u) ^ mat_vec_mul(m, w)
    with pytest.raises(DimensionMismatch):
        mat_vec_mul(m, BitVector.zeros(23))


def test_mat_mul_associates_with_vec():
    rng = random.Random(5)
    a = BitMatrix(6, 9, [rng.getrandbits(9) for _ in range(6)])
    b = BitMatrix(9, 12, [rng.getrandbits(12) for _ in range(9)])
    ab = mat_mul(a, b)
    for _ in range(30):
        v = BitVector.random(12, rng)
        assert mat_vec_mul(ab, v) == mat_vec_mul(a, mat_vec_mul(b, v))


def schoolbook_mul(a, b):
    """Row i of a @ b is the XOR of the rows of b at the set bits of row i of a."""
    rows = []
    for row in a.rows:
        acc = 0
        for j in range(a.ncols):
            if row >> j & 1:
                acc ^= b.rows[j]
        rows.append(acc)
    return BitMatrix(a.nrows, b.ncols, rows)


@pytest.mark.parametrize("n,k,c", [(0, 0, 0), (1, 1, 1), (3, 7, 5), (60, 60, 240), (61, 61, 9), (144, 144, 4096)])
def test_mat_mul_matches_schoolbook(n, k, c):
    rng = random.Random(n * 10_000 + k * 100 + c)
    for _ in range(3):
        a = BitMatrix(n, k, [rng.getrandbits(k) for _ in range(n)])
        b = BitMatrix(k, c, [rng.getrandbits(c) for _ in range(k)])
        assert mat_mul(a, b) == schoolbook_mul(a, b)
    ones = BitMatrix(n, k, [(1 << k) - 1] * n)
    assert mat_mul(ones, b) == schoolbook_mul(ones, b)


def random_invertible(dim, rng):
    """A uniform invertible dim x dim matrix, by rejection sampling."""
    while True:
        m = BitMatrix(dim, dim, [rng.getrandbits(dim) for _ in range(dim)])
        if mat_rank(m) == dim:
            return m


def test_mat_invert():
    assert mat_invert(BitMatrix.identity(17)) == BitMatrix.identity(17)
    rng = random.Random(7)
    for _ in range(100):
        m = random_invertible(64, rng)
        assert mat_mul(m, mat_invert(m)) == BitMatrix.identity(64)
    with pytest.raises(Singular):
        mat_invert(BitMatrix.zeros(4, 4))
    # double inversion comes back exactly
    m = random_invertible(128, rng)
    assert mat_invert(mat_invert(m)) == m


def test_mat_invert_permutation_matrix():
    rng = random.Random(9)
    p = random_permutation(20, rng)
    assert mat_invert(perm_matrix(p)) == perm_matrix(p.inverse())


def test_mat_rank():
    assert mat_rank(BitMatrix.identity(12)) == 12
    assert mat_rank(BitMatrix.zeros(5, 9)) == 0
    dup = BitMatrix(3, 4, [0b1010, 0b1010, 0b0001])
    assert mat_rank(dup) == 2


def test_gaussian_solve():
    rng = random.Random(11)
    m = BitMatrix.identity(16)
    y = BitVector.random(16, rng)
    assert gaussian_solve(m, y) == y
    assert gaussian_solve(BitMatrix(4, 9, [0] * 4), BitVector.zeros(4)) == BitVector.zeros(9)
    for _ in range(100):
        wide = BitMatrix(20, 40, [rng.getrandbits(40) for _ in range(20)])
        if mat_rank(wide) < 20:
            continue
        y = BitVector.random(20, rng)
        x = gaussian_solve(wide, y)
        assert mat_vec_mul(wide, x) == y
    # an unsatisfiable system: two equal rows, different right-hand bits
    bad = BitMatrix(2, 3, [0b101, 0b101])
    with pytest.raises(Inconsistent):
        gaussian_solve(bad, BitVector(2, 0b01))


def test_a_random_square_matrix_is_invertible_about_0_29_of_the_time():
    # the rate at which keygen finds its left block invertible before reordering P
    rng = random.Random(13)
    hits = sum(mat_rank(BitMatrix(32, 32, [rng.getrandbits(32) for _ in range(32)])) == 32 for _ in range(1000))
    expect = 1.0
    for i in range(1, 33):
        expect *= 1 - 2.0 ** (-i)
    assert abs(hits / 1000 - expect) < 0.05 and abs(expect - 0.289) < 0.001


def test_permutation_validation_and_inverse():
    p = Permutation((2, 0, 1))
    q = p.inverse()
    assert tuple(q.map[p.map[i]] for i in range(3)) == (0, 1, 2)
    with pytest.raises(ParameterError):
        Permutation((0, 0, 1))
    with pytest.raises(ParameterError):
        Permutation((0, 3, 1))


def test_random_permutation_uniformity():
    rng = random.Random(17)
    assert random_permutation(1, rng).map == (0,)
    counts = {}
    for _ in range(6000):
        p = random_permutation(3, rng)
        counts[p.map] = counts.get(p.map, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert 850 <= c <= 1150


def test_random_permutation_replays_shuffle_and_its_rng_state():
    # the bulk draw takes the same 32-bit words as shuffle's _randbelow, no more
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 100, 4096, 4097):
        for seed in (0, 1, 2, 43, 2**40 + 7):
            ours, theirs = random.Random(seed), random.Random(seed)
            images = list(range(n))
            theirs.shuffle(images)
            assert random_permutation(n, ours).map == tuple(images), (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)
    drawn = random_permutation(4096, random.SystemRandom())
    assert sorted(drawn.map) == list(range(4096))


def test_apply_permutation():
    rng = random.Random(19)
    n = 40
    for _ in range(50):
        p = random_permutation(n, rng)
        v = BitVector.random(n, rng)
        out = apply_permutation(p, v)
        for i in range(n):
            assert out.get(p.map[i]) == v.get(i)
        assert out.weight() == v.weight()
        assert apply_inverse_permutation(p, out) == v
        assert apply_permutation(p, apply_permutation(p.inverse(), v)) == v
    ident = Permutation(tuple(range(n)))
    v = BitVector.random(n, rng)
    assert apply_permutation(ident, v) == v
    with pytest.raises(DimensionMismatch):
        apply_permutation(ident, BitVector.zeros(n + 1))


def test_perm_matrix_matches_apply():
    rng = random.Random(23)
    for _ in range(30):
        p = random_permutation(25, rng)
        v = BitVector.random(25, rng)
        assert mat_vec_mul(perm_matrix(p), v) == apply_permutation(p, v)


def test_permute_columns_matches_composition():
    rng = random.Random(29)
    for _ in range(30):
        m = BitMatrix(10, 30, [rng.getrandbits(30) for _ in range(10)])
        p = random_permutation(30, rng)
        mp = permute_columns(m, p)
        assert mp == mat_mul(m, perm_matrix(p))
        v = BitVector.random(30, rng)
        assert mat_vec_mul(mp, v) == mat_vec_mul(m, apply_permutation(p, v))


def test_column_gather_matches_bitwise_definition():
    rng = random.Random(31)
    for ncols in (1, 2, 64, 4096):
        m = BitMatrix(3, ncols, [rng.getrandbits(ncols) for _ in range(3)])
        p = random_permutation(ncols, rng)
        cols = [rng.randrange(ncols) for _ in range(rng.randrange(1, ncols + 1))]
        for gathered, picks in ((permute_columns(m, p), p.map), (select_columns(m, cols), cols)):
            assert gathered.nrows == 3 and gathered.ncols == len(picks)
            for row, old in zip(gathered.rows, m.rows):
                assert all((row >> j) & 1 == (old >> c) & 1 for j, c in enumerate(picks))
    m = BitMatrix(2, 5, [0b10110, 0b01001])
    assert select_columns(m, [4]).rows == (1, 0)
    assert select_columns(m, [0]).rows == (0, 1)


def test_permutation_gathers_match_bitwise_definition():
    rng = random.Random(37)
    for n in (1, 2, 64, 4096):
        p = random_permutation(n, rng)
        rows = perm_matrix(p).rows
        assert all(rows[p.map[i]] == 1 << i for i in range(n))
        for v in (BitVector.random(n, rng), BitVector.random_weight(n, min(n, 9), rng)):
            moved = apply_permutation(p, v)
            pulled = apply_inverse_permutation(p, v)
            for i in range(n):
                assert moved.get(p.map[i]) == v.get(i)
                assert pulled.get(i) == v.get(p.map[i])
            assert mat_vec_mul(perm_matrix(p), v) == moved


def test_permutation_rejects_negative_entry():
    with pytest.raises(ParameterError):
        Permutation((1, -1, 0))
    with pytest.raises(ParameterError):
        Permutation((-1,))


def test_empty_permutation_on_empty_vector():
    empty = Permutation(())
    assert empty.n == 0 and empty.inverse() == empty
    assert apply_permutation(empty, BitVector(0)) == BitVector(0)
    assert apply_inverse_permutation(empty, BitVector(0)) == BitVector(0)
    assert perm_matrix(empty) == BitMatrix(0, 0, [])


def test_permutations_on_n_points_share_one_int_per_value():
    rng = random.Random(41)
    p, q = random_permutation(4096, rng), random_permutation(4096, rng)
    resp = Response(0, BitVector.random(4096, rng), perm=p)
    decoded = decode_response_payload(encode_response_payload(resp)).perm
    assert decoded == p
    for other in (q, p.inverse(), q.inverse(), decoded, Permutation(list(q.map))):
        assert all(a is b for a, b in zip(sorted(p.map), sorted(other.map)))


def test_permutation_refuses_entries_that_are_not_ints():
    for images in ((0.0, 1.0), (1, 0.0), (0.0,), ("a", "b"), (0, "b"), ([0], [1])):
        with pytest.raises(ParameterError):
            Permutation(images)
    assert Permutation((True, False)).map == (1, 0)


@pytest.mark.parametrize("m", range(1, 17))
def test_bit_planes_of_a_map_are_the_permuted_support_planes(m):
    rng = random.Random(43 + m)
    params = FieldParams(m)
    p = random_permutation(1 << m, rng)
    data = b"".join(i.to_bytes(2, "little") for i in p.map)
    assert bit_planes(data, 2, m) == list(permute_columns(BitMatrix(m, 1 << m, params.points), p).rows)


@pytest.mark.parametrize("width", [1, 8, 18, 32])
@pytest.mark.parametrize("count", [1, 7, 240])
def test_bit_planes_match_the_per_lane_definition(width, count):
    rng = random.Random(47 * width + count)
    ys = [rng.getrandbits(8 * width) for _ in range(count)]
    data = b"".join(y.to_bytes(width, "little") for y in ys)
    for bits in (8 * width, 8 * width - 3, 1):
        planes = bit_planes(data, width, bits)
        assert len(planes) == bits
        for j, plane in enumerate(planes):
            assert plane >> count == 0
            assert all(plane >> lane & 1 == ys[lane] >> j & 1 for lane in range(count))


def test_bit_planes_of_nothing_and_of_a_ragged_run():
    assert bit_planes(b"", 3, 20) == [0] * 20
    with pytest.raises(DimensionMismatch):
        bit_planes(b"\x01\x02\x03", 2, 9)
    with pytest.raises(DimensionMismatch):
        bit_planes(b"\x01\x02", 2, 17)


@pytest.mark.parametrize("n", [1, 2, 3, 4096, 65536])
def test_permutation_words_are_the_big_endian_16_bit_map(n):
    p = random_permutation(n, random.Random(53 + n))
    assert p.words == struct.pack(f">{n}H", *p.map)
    assert p.n == n and tuple(p.images()) == p.map
    assert Permutation.from_words(p.words) == p == Permutation(p.map)
    assert hash(p) == hash(Permutation.from_words(p.words))


def test_permutation_holds_two_bytes_an_entry():
    n = 4096
    rng = random.Random(59)
    random_permutation(n, rng)  # the shared index tuple exists before tracing
    assert sys.getsizeof(random_permutation(n, rng).words) <= 2 * n + 64
    tracemalloc.start()
    try:
        kept = [random_permutation(n, rng) for _ in range(16)]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 16 * (2 * n + 256), current  # the object and the list besides the words
    assert Permutation.__slots__ == ("words",) and len(kept) == 16


def test_scatter_matches_bitwise_definition_on_65536_points():
    n = 1 << 16
    rng = random.Random(61)
    p = random_permutation(n, rng)
    images = p.map
    for v in (BitVector.random(n, rng), BitVector.random_weight(n, 9, rng), BitVector.zeros(n)):
        moved = apply_permutation(p, v)
        before, after = (format(u.bits, f"0{n}b")[::-1] for u in (v, moved))
        assert all(after[images[i]] == before[i] for i in range(n))
        assert apply_inverse_permutation(p, moved) == v
    sparse = BitVector.random_weight(n, 9, rng)
    assert permute_support(p, sparse) == apply_permutation(p, sparse)
    assert unpermute_support(p, sparse) == apply_inverse_permutation(p, sparse)


def test_support_moves_match_the_scatter_and_the_gather():
    rng = random.Random(67)
    for n in (1, 5, 64, 4096):
        p = random_permutation(n, rng)
        for w in (0, 1, min(n, 9), n):
            v = BitVector.random_weight(n, w, rng)
            assert permute_support(p, v) == apply_permutation(p, v)
            assert unpermute_support(p, v) == apply_inverse_permutation(p, v)
    for move in (permute_support, unpermute_support):
        with pytest.raises(DimensionMismatch):
            move(p, BitVector.zeros(n + 1))
    # the words 0x0001, 0x0000 hold the bytes 01 00, the word 256, one byte in
    p = Permutation((1, 0, *range(2, 512)))
    v = BitVector.from_support(512, [0, 256, 511])
    assert p.words.index(struct.pack(">H", 256)) == 1
    assert unpermute_support(p, v) == apply_inverse_permutation(p, v) == BitVector.from_support(512, [1, 256, 511])


def test_words_that_are_no_permutation_are_refused():
    ragged, repeated, too_high, too_long = b"\x00", b"\x00\x01\x00\x01\x00\x00", b"\x00\x01\x00\x02", bytes(2 << 16) + bytes(2)
    for words in (ragged, repeated, too_high, too_long):
        with pytest.raises(ParameterError):
            Permutation.from_words(words)
    assert Permutation.from_words(b"").n == 0
    assert Permutation.from_words(b"\x00\x01\x00\x00").map == (1, 0)


def test_permutation_past_16_bits_is_refused():
    n = (1 << 16) + 1
    with pytest.raises(ParameterError, match=r"2\^16"):
        Permutation(range(n))
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ParameterError, match=r"2\^16"):
        random_permutation(n, rng)
    assert rng.getstate() == state  # refused before any draw
