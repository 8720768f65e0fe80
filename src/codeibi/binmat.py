"""Dense linear algebra over GF(2) with int-packed rows and vectors.

A vector of length n lives in one Python int; bit i is coordinate i,
and bit (i mod 8) of byte i//8 when packed.  A permutation, on at most
2^16 points, lives in the bytes that Stern hashes and sends: its images
as big-endian 16-bit words, 2 bytes an entry.  Applying one is one
scatter of an int's '0'/'1' digits to its images; its inverse and column
picks move bits by one gather over such a string.  A run of packed
values turns into bit planes one byte column at a time.
"""
from __future__ import annotations

import array
import functools
import operator
import random
import struct
import sys

from .errors import DimensionMismatch, Inconsistent, ParameterError, RangeError, Singular

__all__ = [
    "BitMatrix",
    "BitVector",
    "Permutation",
    "apply_inverse_permutation",
    "apply_permutation",
    "bit_planes",
    "gaussian_solve",
    "mat_invert",
    "mat_mul",
    "mat_rank",
    "mat_vec_mul",
    "perm_matrix",
    "permute_columns",
    "permute_support",
    "random_permutation",
    "select_columns",
    "unpermute_support",
]


class BitVector:
    """Fixed-length bit string over GF(2)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise RangeError(f"negative length {n}")
        if bits < 0 or bits >> n:
            raise RangeError("bits outside the declared length")
        self.n = n
        self.bits = bits

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, positions) -> "BitVector":
        bits = 0
        for i in positions:
            if not 0 <= i < n:
                raise RangeError(f"position {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitVector":
        return cls(n, rng.getrandbits(n) if n else 0)

    @classmethod
    def random_weight(cls, n: int, w: int, rng: random.Random) -> "BitVector":
        """Uniform vector of exact Hamming weight w."""
        if not 0 <= w <= n:
            raise RangeError(f"weight {w} out of range for length {n}")
        return cls.from_support(n, rng.sample(range(n), w))

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitVector":
        if len(data) != (n + 7) // 8:
            raise RangeError("byte length does not match bit length")
        return cls(n, int.from_bytes(data, "little"))

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.n + 7) // 8, "little")

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise RangeError(f"index {i} out of range")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return tuple(out)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch(f"xor of lengths {self.n} and {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other):
        return isinstance(other, BitVector) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"BitVector(n={self.n}, weight={self.weight()})"


class BitMatrix:
    """Matrix over GF(2); each row is an int with bit j = column j."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows):
        rows = tuple(rows)
        if len(rows) != nrows:
            raise DimensionMismatch(f"expected {nrows} rows, got {len(rows)}")
        for r in rows:
            if r < 0 or r >> ncols:
                raise RangeError("row value outside the declared width")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(nrows, ncols, [0] * nrows)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column_int(self, j: int) -> int:
        """Column j packed as an int (bit i = row i)."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BitMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"


def mat_vec_mul(mat: BitMatrix, v: BitVector) -> BitVector:
    """mat @ v over GF(2); row-by-row parity of the masked vector."""
    if v.n != mat.ncols:
        raise DimensionMismatch(f"matrix has {mat.ncols} columns, vector length {v.n}")
    vb = v.bits
    bits = 0
    for i, row in enumerate(mat.rows):
        if (row & vb).bit_count() & 1:
            bits |= 1 << i
    return BitVector(mat.nrows, bits)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a @ b by the Method of Four Russians, five rows of b at a time.

    The 32 XOR sums of each five rows of b are tabled by doubling, and
    every row of a picks its sum from its five bits there.  Each table is
    dropped before the next is made, so one is alive at a time.
    """
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"inner dimensions {a.ncols} and {b.nrows} differ")
    out = [0] * a.nrows
    for s in range(0, b.nrows, 5):
        table = [0]
        for row in b.rows[s : s + 5]:
            table += [x ^ row for x in table]
        for i, row in enumerate(a.rows):
            out[i] ^= table[row >> s & 31]
    return BitMatrix(a.nrows, b.ncols, out)


def _echelon(rows: list, ncols: int) -> list:
    """Gauss-Jordan on the low ncols bits of rows, in place.

    Column by column, the first row at or below the next pivot slot with
    that bit set becomes the pivot and clears the bit from every other
    row; bits from ncols up ride along.  Returns the pivot columns in
    row order, so their count is the rank.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        mask = 1 << col
        for pivot in range(rank, len(rows)):
            if rows[pivot] & mask:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= prow
        pivots.append(col)
    return pivots


def mat_rank(mat: BitMatrix) -> int:
    return len(_echelon([r for r in mat.rows if r], mat.ncols))


def mat_invert(mat: BitMatrix) -> BitMatrix:
    """Gauss-Jordan inverse; raises Singular if rank deficient."""
    if mat.nrows != mat.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = mat.nrows
    aug = [mat.rows[i] | (1 << (n + i)) for i in range(n)]
    rank = len(_echelon(aug, n))
    if rank < n:
        raise Singular(f"rank {rank} of {n}")
    return BitMatrix(n, n, [r >> n for r in aug])


def gaussian_solve(mat: BitMatrix, y: BitVector) -> BitVector:
    """One solution of mat @ x = y, free variables zeroed.

    Pivots are chosen at the lowest available row and column indices, so
    the answer is deterministic.  Raises Inconsistent when y is outside
    the column space.
    """
    if y.n != mat.nrows:
        raise DimensionMismatch(f"matrix has {mat.nrows} rows, rhs length {y.n}")
    n = mat.ncols
    aug = [mat.rows[i] | (y.get(i) << n) for i in range(mat.nrows)]
    pivots = _echelon(aug, n)
    if any(r >> n for r in aug[len(pivots):]):
        raise Inconsistent("rhs not in the column space")
    x = 0
    for row, col in enumerate(pivots):
        if aug[row] >> n:
            x |= 1 << col
    return BitVector(n, x)


@functools.lru_cache(maxsize=4)
def _indices(n: int) -> tuple:
    """tuple(range(n)), kept once per n for the last few n.

    random_permutation shuffles a copy of it, and every map built on n
    points holds its int objects, so no two maps hold two copies of one
    value.
    """
    return tuple(range(n))


_WORD = struct.Struct(">H")  # one image of a permutation


def _check_points(n: int) -> None:
    """ParameterError past the 2^16 points that 16-bit images can name."""
    if n > 1 << 16:
        raise ParameterError(f"a permutation acts on at most 2^16 points, not {n}")


def _pack(images) -> bytes:
    """The images as big-endian 16-bit words, one per point; struct.error if one does not fit."""
    _check_points(len(images))
    return struct.pack(f">{len(images)}H", *images)


class Permutation:
    """Permutation of {0..n-1}, n at most 2^16; images()[i], like map[i], is the image of position i.

    It is held as words: the images as big-endian 16-bit words, 2 bytes
    an entry, which are the bytes a Stern commitment hashes and the wire
    carries.
    """

    __slots__ = ("words",)

    def __init__(self, images):
        # struct refuses a non-int (a bool is an int) and a negative entry
        try:
            self.words = _pack(tuple(images))
        except struct.error as e:
            raise ParameterError(f"not a permutation of ints: {e}") from e
        self._check()

    @classmethod
    def from_words(cls, words: bytes) -> "Permutation":
        """The permutation on at most 2^16 points whose 16-bit words these are.

        Raises ParameterError unless they are a permutation's.
        """
        if len(words) % 2:
            raise ParameterError(f"{len(words)} bytes are not whole 16-bit words")
        _check_points(len(words) >> 1)
        perm = cls._unchecked(words)
        perm._check()
        return perm

    @classmethod
    def _unchecked(cls, words: bytes) -> "Permutation":
        """Words that are a permutation's by construction, not validated again."""
        perm = cls.__new__(cls)
        perm.words = bytes(words)
        return perm

    def _check(self) -> None:
        """ParameterError unless the words hold each of 0..n-1 once.

        Each image marks its slot: an image of n or more has none, and a
        repeated one leaves another slot unmarked.
        """
        seen = [False] * self.n
        try:
            for image in self.images():
                seen[image] = True
        except IndexError:
            raise ParameterError("not a permutation: an image out of range") from None
        if not all(seen):
            raise ParameterError("not a permutation: a repeated image")

    @property
    def n(self) -> int:
        return len(self.words) >> 1

    def images(self) -> array.array:
        """The images in native byte order, unpacked once: to read, not to keep."""
        images = array.array("H", self.words)
        if sys.byteorder == "little":
            images.byteswap()
        return images

    @property
    def map(self) -> tuple:
        """The images as the ints of one shared tuple(range(n)), built per call."""
        indices = _indices(self.n)
        return tuple(indices[i] for i in self.images())

    def inverse(self) -> "Permutation":
        """Position i written at slot map[i], rebuilt per call.

        The positions are the shared ints of _indices(n), so the list made
        on the way holds no int of its own; a cached inverse would keep a
        second set of words alive per permutation.
        """
        n = self.n
        inv = [0] * n
        for i, image in zip(_indices(n), self.images()):
            inv[image] = i
        return Permutation._unchecked(_pack(inv))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"Permutation(n={self.n})"


def random_permutation(n: int, rng: random.Random) -> Permutation:
    """Uniform permutation: the map, and the rng state after, of rng.shuffle(list(range(n))).

    CPython's shuffle swaps position i, for i from n-1 down to 1, with
    _randbelow(i + 1): the top k = (i+1).bit_length() bits of one 32-bit
    word, drawn again while they exceed i.  While k stays the same, each
    swap left takes at least one word, so getrandbits(32 * swaps left)
    draws no word that shuffle would not, and yields the same words,
    lowest first.  One shift and one mask of that int cut every word to
    its top k bits, and the walk over them swaps on each word that is at
    most i.  A SystemRandom runs the same code on its uniform bits.  The
    shuffled list is packed into words once, at the end.
    """
    if n < 1:
        raise ParameterError(f"length must be positive, got {n}")
    _check_points(n)
    images = list(_indices(n))
    i = n - 1
    while i:
        k = (i + 1).bit_length()
        lo = (1 << (k - 1)) - 1  # the least i with this k
        top_k = ((1 << k) - 1).to_bytes(4, "little")
        while i >= lo:
            need = i - lo + 1
            bits = rng.getrandbits(32 * need) >> (32 - k) & int.from_bytes(top_k * need, "little")
            words = array.array("I", bits.to_bytes(4 * need, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            for r in words:
                if r <= i:
                    images[i], images[r] = images[r], images[i]
                    i -= 1
    return Permutation._unchecked(_pack(images))


def _gather(bits: int, n: int, picks) -> int:
    """Bit j of the result is bit picks[j] of the n-bit int bits.

    One itemgetter over the '0'/'1' string, low bit first; a lone pick is a
    bare character, which join passes through, and no picks gather nothing.
    int() sizes its result by the string's length, so the leading zeros are
    stripped first: a sparse result then holds only the digits it needs.
    """
    if not picks:
        return 0
    pick = operator.itemgetter(*picks)
    return int("".join(pick(format(bits, f"0{n}b")[::-1]))[::-1].lstrip("0") or "0", 2)


def _check_length(perm: Permutation, v: BitVector) -> None:
    if v.n != perm.n:
        raise DimensionMismatch(f"permutation on {perm.n} points, vector length {v.n}")


def apply_permutation(perm: Permutation, v: BitVector) -> BitVector:
    """Vector with coordinate i of v moved to coordinate map[i].

    One scatter: v's '0'/'1' digits, low bit first, are written at the
    images in a list, which one join and one int() read back.  A plain
    loop over the native-order images beats operator.setitem mapped over
    them, which pays a call per entry.
    """
    _check_length(perm, v)
    n = v.n
    digits = [""] * n
    for image, digit in zip(perm.images(), format(v.bits, f"0{n}b")[::-1]):
        digits[image] = digit
    return BitVector(n, int("".join(digits)[::-1] or "0", 2))


def permute_support(perm: Permutation, v: BitVector) -> BitVector:
    """apply_permutation(perm, v), reading only the words at v's support.

    For a sparse v: a weight-t vector costs t word reads, not a scatter
    of n digits.
    """
    _check_length(perm, v)
    return BitVector.from_support(v.n, (_WORD.unpack_from(perm.words, 2 * i)[0] for i in v.support()))


def unpermute_support(perm: Permutation, v: BitVector) -> BitVector:
    """apply_inverse_permutation(perm, v), found from v's support alone.

    For a sparse v: coordinate j of the result is set where map[j] is in
    v's support, so each set bit is looked up as its word in the words,
    at a whole-word offset, with no inverse built.
    """
    _check_length(perm, v)
    positions = []
    for i in v.support():
        needle = _WORD.pack(i)
        at = perm.words.index(needle)
        while at % 2:  # the needle straddled two words
            at = perm.words.index(needle, at + 1)
        positions.append(at >> 1)
    return BitVector.from_support(v.n, positions)


def apply_inverse_permutation(perm: Permutation, v: BitVector) -> BitVector:
    """Vector whose coordinate j is coordinate map[j] of v."""
    _check_length(perm, v)
    return BitVector(v.n, _gather(v.bits, v.n, perm.images()))


def perm_matrix(perm: Permutation) -> BitMatrix:
    """Matrix M with M @ v = apply_permutation(perm, v)."""
    return BitMatrix(perm.n, perm.n, [1 << i for i in perm.inverse().images()])


def permute_columns(mat: BitMatrix, perm: Permutation) -> BitMatrix:
    """mat @ perm_matrix(perm): new column j is old column map[j]."""
    if mat.ncols != perm.n:
        raise DimensionMismatch(f"matrix has {mat.ncols} columns, permutation on {perm.n}")
    return select_columns(mat, perm.images())


def select_columns(mat: BitMatrix, cols) -> BitMatrix:
    """Matrix whose new column j is old column cols[j], one gather per row."""
    return BitMatrix(mat.nrows, len(cols), [_gather(row, mat.ncols, cols) for row in mat.rows])


# _PLANE_DIGITS[k] maps each byte to the ASCII digit of its bit k
_PLANE_DIGITS = [bytes(48 + (v >> k & 1) for v in range(256)) for k in range(8)]


def bit_planes(data: bytes, width: int, bits: int) -> list[int]:
    """Bit planes 0 .. bits-1 of data's little-endian values, width bytes each.

    Bit i of plane k is bit k of value i.  Each byte column is sliced out
    and reversed once, and each of its bit planes is one translate to
    '0'/'1' digits and one int(), so no string is longer than the count
    of values.
    """
    if width < 1 or bits > 8 * width or len(data) % width:
        raise DimensionMismatch(f"{len(data)} bytes are not a run of {width}-byte values with {bits} bits")
    if not data:
        return [0] * bits
    planes = []
    for b in range(0, bits, 8):
        column = data[b // 8 :: width][::-1]
        planes += [int(column.translate(digits), 2) for digits in _PLANE_DIGITS[: bits - b]]
    return planes
