"""Sign tables for twisting the group algebra of a doubly even code.

A factor set on a code V assigns a sign phi(v, w) to every ordered pair of
codewords, subject to:

    phi(v, v)    = (-1)^(|v|/4)
    phi(v, w)    = (-1)^(|v & w|/2) * phi(w, v)
    phi(0, v)    = phi(v, 0) = +1
    phi(v+w, u)  = phi(v, w+u) * phi(v, w) * phi(w, u) * (-1)^(|v & w & u|)

Tables are stored as 0/1 exponents indexed by span position: index x is the
sum of the generators b_j with bit j set in x, written w_x.  Of all tables
that satisfy the axioms, the builder returns the lexicographically least one
in row-major order.  It is linear in its second argument: with X the 2^k x k
matrix of the bits of each x, G the k x m matrix of the generators and B
the k x k matrix with |b_i|/4 at (i, i), |b_i & b_j|/2 at (i, j) for i > j
and 0 above the diagonal,

    phi = R X^T  mod 2,  R = X B + floor(X G / 2) G^T.

Row x of R is the k-bit functional r(x, .) of Griess's recursion ("Code
loops", 1986): phi(x, y) sums r(x, j) over the bits j of y, and r(x, j) is
B[i, j] summed over the bits i of x plus |b_i & b_l & b_j| over their
pairs i < l.  Entry (x, c) of X G counts the generators of x that hold
coordinate c, and the pairs among n of them, C(n, 2), are odd exactly
when floor(n/2) is: the second product sums the triple meets.  The builder
never forms these products.  It keeps each row of R as an int, bit j =
r(x, j), and fills them by doubling over the generators: for x below 2^i,

    R[x + e_i] = R[x] + R[e_i] + sum over the bits l of x of T(i, l),

where R[e_i] is row i of B and bit j of T(i, l) is |b_i & b_l & b_j| mod
2, since the pairs of x + e_i are those of x and (l, i) for each l in x.
That takes the generator weights, pair meets and triple-meet parities,
all popcounts of int masks, and then phi(x, y) = parity(R[x] & y) is row
R[x] of one cached 2^k x 2^k parity table: one gather, exact at any
degree.  The diagonal is the squaring form q(x) = |w_x|/4 mod 2, from
which loops.characteristic_vector and loops.classify read their signs.
associator_bits reads the associators, for CodeLoop.is_associative.

Tables with k <= 6 are also handled as bit rows: row x of phi is one
2^k-bit word, bit y = phi(x, y), held in a uint64 (bit_rows, one product
with the powers of 2).  The translates t[a, x] of the rows (bit y of row
x read from position y + a) are built for every a in k doubling steps,
and a sum of phi terms over a free variable y becomes an xor of 2^k-bit
words, one per pair of the other two variables.  word_table lays out
every word a kernel reads in one flat array, and this module owns both
kernels: each is a fixed intp index table per 2^k, built on first use,
that names where its phi terms sit.  associator_bits gathers 4 terms and
xors them, and _moufang_defects (for loops.is_moufang) the 6 of
z(x(zy)) = ((zx)z)y; no column is needed, since a quasigroup with one
Moufang identity has them all (K. Kunen, "Moufang quasigroups", J.
Algebra 183, 1996).  Each word decides 2^k triples, so the 4^k words
decide all 2^(3k).  A FactorSet lays out its word table once, on first
read, from the array it checked when it was made (FactorSet.word_table),
and both kernels read it; any other table is checked and laid out anew.

The tests keep the general routine as the oracle: they solve the
axioms as one linear system over GF(2) by elimination, pin free entries to
0 in table order, and compare.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import BinaryCode, InvalidCodeError, NotDoublyEvenError

MAX_DIMENSION = 6  # the table has 4^k entries, and a row fits in a uint64


@dataclass(frozen=True)
class Violation:
    axiom: str  # "zero" | "square" | "commutator" | "cocycle"
    where: tuple[int, ...]  # span indices of the witnesses


class FactorSet:
    """A 2^k x 2^k table of sign exponents over a code's span, as one read-only uint8 array."""

    def __init__(self, code: BinaryCode, table: np.ndarray | list[list[int]]):
        phi = _zero_one_table(table, 1 << code.dimension)
        phi.flags.writeable = False
        self.code = code
        self.array = phi

    @functools.cached_property
    def word_table(self) -> np.ndarray:
        """word_table of the array, built on first read and kept read-only with the factor set.

        The array was checked when the factor set was made, so it is not
        checked again; the kernels given a FactorSet read this table.
        """
        words = _words(self.array)
        words.flags.writeable = False
        return words

    @property
    def table(self) -> list[list[int]]:
        """A nested-list copy of the array."""
        return self.array.tolist()

    @property
    def size(self) -> int:
        return len(self.array)

    def bit(self, i: int, j: int) -> int:
        return int(self.array[i, j])

    def sign(self, i: int, j: int) -> int:
        return -1 if self.array[i, j] else 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactorSet)
            and self.code == other.code
            and np.array_equal(self.array, other.array)
        )


def _zero_one_table(table, n: int | None = None) -> np.ndarray:
    """A uint8 copy of an n x n 0/1 table, any 2^k x 2^k one for n None; others are refused."""
    try:
        given = np.asarray(table)
    except ValueError:  # a ragged list
        given = np.empty(0)
    if n is None and given.ndim == 2:
        n = len(given)
    if given.shape != (n, n) or not n or n & (n - 1):
        raise InvalidCodeError("factor set table must be 2^k x 2^k")
    if not np.logical_or(given == 0, given == 1).all():  # before the cast, which reads 256 as 0
        raise InvalidCodeError("factor set entries must be 0 or 1")
    return given.astype(np.uint8)


def build_factor_set(code: BinaryCode) -> FactorSet:
    """The lexicographically least factor set of a doubly even code.

    Builds the rows R[x] of phi = R X^T as k-bit ints by doubling over the
    generators (see the module docstring) and gathers row R[x] of the cached
    parity table as row x of phi.
    """
    if not code.is_doubly_even():
        raise NotDoublyEvenError(code.first_odd_span_element())
    k = code.dimension
    if k > MAX_DIMENSION:
        raise InvalidCodeError(f"dimension {k} exceeds solver cap {MAX_DIMENSION}")
    masks = [g.mask() for g in code.generators]
    bits = [(1 << j, b) for j, b in enumerate(masks)]
    rows = [0]  # R[x] for the x below 2^i
    for i, a in enumerate(masks):
        meets = [a & b for b in masks[:i]]
        # R[e_i] is row i of B: |b_i|/4 at bit i and |b_i & b_l|/2 at the bits l < i
        base = (a.bit_count() >> 2 & 1) << i
        for l, meet in enumerate(meets):
            base |= (meet.bit_count() >> 1 & 1) << l
        pairs = [base]  # R[e_i] + the sum of T(i, l) over the bits l of x
        for meet in meets:
            t = 0  # T(i, l): bit j is |b_i & b_l & b_j| mod 2
            for bit, b in bits:
                if (meet & b).bit_count() & 1:
                    t |= bit
            pairs += [p ^ t for p in pairs]
        rows += [r ^ p for r, p in zip(rows, pairs)]
    return FactorSet(code, _parity_table(1 << k)[rows])


@functools.lru_cache(maxsize=None)
def _parity_table(n: int) -> np.ndarray:
    """parity(r & y) at [r, y] for r, y < n, as a read-only uint8 array, built on first use."""
    w = np.arange(n)
    meets = w[:, None] & w
    parity = np.zeros((n, n), dtype=np.uint8)
    for b in range(n.bit_length() - 1):
        parity ^= (meets >> b & 1).astype(np.uint8)
    parity.setflags(write=False)
    return parity


# _CLEAR[b] marks the bit positions y < 64 with bit b of y clear
_CLEAR = [np.uint64(sum(1 << y for y in range(64) if not y >> b & 1)) for b in range(6)]
_SHIFTS = [np.uint64(1 << b) for b in range(6)]
_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # 2^y at y
_POWERS.setflags(write=False)


def bit_rows(phi: np.ndarray) -> np.ndarray:
    """The last axis of an array of at most 64 entries as uint64 words, bit y = (entry y != 0).

    Row x of a 2^k x 2^k table (k <= 6) becomes one word; leading axes are
    kept, so a stack of tables gives a stack of rows.
    """
    n = phi.shape[-1]
    if n > 64:
        raise InvalidCodeError(f"a {n}-entry row does not fit in 64 bits")
    return phi.astype(bool) @ _POWERS[:n]  # as bool, an entry of 2 cannot set bit y + 1


def translates(rows: np.ndarray) -> np.ndarray:
    """t[a, ..., x] = rows[..., x] with bit y read from position y + a (xor), for every a.

    The last axis of rows holds 2^k words of 2^k bits, after any leading
    axes; the translates by a lead, so each is one contiguous block.  Step
    b of the k doubling steps fills the translates by a + 2^b, which swap
    the blocks of 2^b bits of the translates by a.
    """
    n = rows.shape[-1]
    t = np.empty((n,) + rows.shape, dtype=np.uint64)
    t[0] = rows
    flat = t.reshape(n, -1)
    for b in range(n.bit_length() - 1):
        s, m = _SHIFTS[b], _CLEAR[b]
        done, todo = flat[: 1 << b], flat[1 << b : 2 << b]
        np.left_shift(np.bitwise_and(done, m, out=todo), s, out=todo)
        np.bitwise_or(todo, np.bitwise_and(done >> s, m), out=todo)
    return t


def word_table(phi) -> np.ndarray:
    """Every 2^k-bit word the kernels read off a 2^k x 2^k 0/1 table, k <= 6, as one flat array.

    Word u * 2^k + v is phi(u, v) spread over all 2^k bits, and word
    2^(2k) + a * 2^k + u is row u translated by a; row u itself is its
    translate by 0.  Any other table is refused (InvalidCodeError).
    """
    return _words(_zero_one_table(phi))


def _words(phi: np.ndarray) -> np.ndarray:
    """word_table of a table already checked to be a 2^k x 2^k uint8 array of 0/1 entries."""
    rows = bit_rows(phi)
    spread = np.multiply(phi, np.uint64((1 << len(phi)) - 1), dtype=np.uint64)
    return np.concatenate((spread.ravel(), translates(rows).ravel()))


def _kernel_words(phi) -> tuple[np.ndarray, int]:
    """The word table a kernel reads for phi, and 2^k.

    A FactorSet gives its own word table (FactorSet.word_table), built
    once from its checked array; any other table goes through word_table,
    which checks it.
    """
    if isinstance(phi, FactorSet):
        return phi.word_table, phi.size
    return word_table(phi), len(phi)


def _index_table(n: int, *terms) -> np.ndarray:
    """Word-table positions, each term broadcast to (n, n), stacked as a read-only intp array.

    The kernels gather by indexing, words[index]: a narrower index is cast
    to intp on every call, and ndarray.take faulted in 1 MB of fresh pages
    on every call at 2^k = 64 (the Moufang gather took 540 us that way and
    145 us by indexing; numpy 2.4, 2-core VM).
    """
    index = np.array([np.broadcast_to(term, (n, n)) for term in terms], dtype=np.intp)
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=None)
def _associator_index(n: int) -> np.ndarray:
    """Where the 4 phi terms of associator word [x, y] sit in word_table(phi): (4, n, n)."""
    w = np.arange(n)
    x, y = w[:, None], w[None, :]
    rows = n * n  # the translates start after the n * n spread words
    return _index_table(n, rows + (x ^ y), rows + y * n + x, x * n + y, rows + y)


def associator_bits(phi) -> np.ndarray:
    """The associator bits as rows: bit z of word [x, y] is asc[x, y, z].

    asc[x, y, z] = phi(x+y, z) + phi(x, y+z) + phi(x, y) + phi(y, z) mod 2.
    phi is a FactorSet or a 2^k x 2^k 0/1 table of sign exponents, k <= 6.  For any
    such table this is the sign exponent of the associator of the positive
    lifts of x, y, z in the twisted loop: ((x y) z) takes phi(x, y) +
    phi(x+y, z) and (x (y z)) takes phi(y, z) + phi(x, y+z).  On a factor
    set it is the cocycle axiom's weight term |x & y & z| mod 2.  Over z
    the four terms are the row of x+y, the translate of row x by y, the
    constant phi(x, y) and the row of y: one gather from the word table.
    """
    words, n = _kernel_words(phi)
    return np.bitwise_xor.reduce(words[_associator_index(n)], axis=0)


@functools.lru_cache(maxsize=None)
def _moufang_index(n: int) -> np.ndarray:
    """Where the 6 phi terms of z(x(zy)) = ((zx)z)y sit in word_table(phi): (6, n, n).

    Entry [:, z, x] lists the words whose xor is word [z, x] of
    _moufang_defects.  Read-only intp.
    """
    w = np.arange(n)
    z, x = w[:, None], w[None, :]
    zx, rows = z ^ x, n * n
    # phi(z, y) + phi(x, z+y) + phi(z, x+z+y) = phi(z, x) + phi(z+x, z) + phi(x, y)
    terms = rows + z, rows + z * n + x, rows + zx * n + z, rows + x, z * n + x, zx * n + z
    return _index_table(n, *terms)


def _moufang_defects(phi) -> np.ndarray:
    """Over y, the xor of the phi terms of both sides of z(x(zy)) = ((zx)z)y: (2^k, 2^k) words.

    Bit y of word [z, x] is 1 when the identity fails on (z, x, y).  Over
    y, phi(u, y) is row u, phi(u, y + a) its translate by a, and a term
    without y is spread over all bits: one gather from the word table and
    one xor over the 6 terms.
    """
    words, n = _kernel_words(phi)
    return np.bitwise_xor.reduce(words[_moufang_index(n)], axis=0)


def verify_factor_set(phi: FactorSet) -> list[Violation]:
    """Recheck every axiom instance; empty list means the table is valid."""
    n = phi.size
    t = phi.table
    masks = phi.code.span_masks()
    out: list[Violation] = []
    for j in range(n):
        if t[0][j]:
            out.append(Violation("zero", (0, j)))
        if j and t[j][0]:
            out.append(Violation("zero", (j, 0)))
    for i in range(n):
        if t[i][i] != (masks[i].bit_count() // 4) & 1:
            out.append(Violation("square", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] ^ t[j][i] != ((masks[i] & masks[j]).bit_count() // 2) & 1:
                out.append(Violation("commutator", (i, j)))
    for i in range(n):
        mi = masks[i]
        for j in range(n):
            mij = mi & masks[j]
            tij = t[i][j]
            for u in range(n):
                want = (mij & masks[u]).bit_count() & 1
                if t[i ^ j][u] ^ t[i][j ^ u] ^ tij ^ t[j][u] != want:
                    out.append(Violation("cocycle", (i, j, u)))
    return out
