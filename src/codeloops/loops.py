"""Code loops: Moufang loops of order 2^(k+1) built over doubly even codes.

Elements are signed codewords (s, v) with s in {+1, -1} and v in the span;
the product twists the GF(2) sum by a factor set:

    (s, v) * (t, w) = (s * t * phi(v, w), v + w)

Internally an element is the integer 2*word_index + sign_bit, so the
identity is 0 and negation is xor with 1.  The Cayley table is a numpy
array, built by broadcasting over the factor set and checked to be a
Latin square with identity 0.  The sign methods of CodeLoop read
squares, commutators and associators off the table.

The Moufang identities and associativity are checked on the 2^k words of
the factor set, not on the 2^(k+1) elements of the table.  The signs are
central, so the sign exponent of a product of signed elements is the sum
of the factors' sign exponents plus one phi term per multiplication, and
its word is the sum of the factors' words.  Each Moufang identity, like
the associative law, has every variable the same number of times on both
sides, so the factors' signs cancel and the words agree; an identity
holds on all signed triples exactly when the phi terms of its two sides
agree on the positive lifts.  The phi terms are read as bit rows of the
factor set (see factorset): with y as the free variable, every phi term
of an identity is a row, a column, a translate of either, or a constant
spread over all 2^k bits, so each identity is one xor of 2^k-bit words
for each of the 4^k pairs (z, x), which covers all 2^(3k) triples.  The
tests keep the element-level checks on the table, and the broadcast
checks over all triples of words, as the oracles.

For a nonassociative loop of rank 3 or 4 the characteristic vector of an
admissible basis (the first three words associate to -1 and, at rank 4,
the fourth is nuclear) collects the basis squares and commutators into a
bit vector; the catalog below lists one vector per isomorphism class.  One
search, admissible_bases, finds the admissible bases whose vector is in a
given set: classify takes its first basis over the catalog, and
equivalence.box_stabilizer every basis with one class's vector.
Characteristic vectors and classification read their signs off the
factor set (factorset.sign_tables) instead of the Cayley table: v squared
is (-1)^(|v|/4), the commutator of u and v is (-1)^(|u & v|/2), and the
associator of u, v, w is (-1)^|u & v & w|.  Acceptance criterion 7 checks
these signs against the Cayley table on every catalog loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codes import BinaryCode, InternalInvariantError, InvalidCodeError, _mask_rank
from .factorset import (
    FactorSet,
    associator_bits,
    bit_rows,
    build_factor_set,
    sign_tables,
    spread,
    translates,
)

MAX_LOOP_DIMENSION = 6


class AssociativeLoopError(InvalidCodeError):
    """The loop associates, so it has no nonassociative classification."""


def _sign_bit(x: int) -> int:
    return x & 1


def _word(x: int) -> int:
    return x >> 1


class CodeLoop:
    """Cayley table of the signed span of a doubly even code."""

    def __init__(self, code: BinaryCode, factor_set: FactorSet):
        if code.dimension > MAX_LOOP_DIMENSION:
            raise InvalidCodeError(
                f"dimension {code.dimension} exceeds loop cap {MAX_LOOP_DIMENSION}"
            )
        self.code = code
        self.factor_set = factor_set
        self.rank = code.dimension
        self.words = 1 << self.rank
        self.order = self.words << 1
        # always built from the factor set, which the word-level checks read
        self.table = self._build_table()
        self._inverses: np.ndarray | None = None
        if not is_latin(self.table):
            raise InternalInvariantError("Cayley table is not a Latin square")
        if (self.table[0] != np.arange(self.order)).any() or (
            self.table[:, 0] != np.arange(self.order)
        ).any():
            raise InternalInvariantError("element 0 is not a two-sided identity")

    def _build_table(self) -> np.ndarray:
        # element e = 2*word + sign: the product word is the xor of the
        # words, and its sign bit is s ^ u ^ phi(v, w)
        e = np.arange(self.order, dtype=np.int32)
        v, s = e >> 1, e & 1
        phi = self.factor_set.array
        vv, ww = v[:, None], v[None, :]
        return ((vv ^ ww) << 1) | (s[:, None] ^ s[None, :] ^ phi[vv, ww])

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        if self._inverses is None:
            inv = np.zeros(self.order, dtype=np.int32)
            for x in range(self.order):
                hits = np.where(self.table[x] == 0)[0]
                if len(hits) != 1 or self.table[hits[0], x] != 0:
                    raise InternalInvariantError("inverses are not two-sided")
                inv[x] = hits[0]
            self._inverses = inv
        return int(self._inverses[a])

    # word-level signs; lifts are the positive elements 2*w

    def square_sign(self, w: int) -> int:
        r = self.mul(w << 1, w << 1)
        if _word(r) != 0:
            raise InternalInvariantError("square landed outside the sign subgroup")
        return -1 if _sign_bit(r) else 1

    def commutator_sign(self, u: int, v: int) -> int:
        a, b = u << 1, v << 1
        r = self.mul(self.mul(self.mul(self.inverse(a), self.inverse(b)), a), b)
        if _word(r) != 0:
            raise InternalInvariantError("commutator landed outside the sign subgroup")
        return -1 if _sign_bit(r) else 1

    def associator_sign(self, u: int, v: int, w: int) -> int:
        a, b, c = u << 1, v << 1, w << 1
        left = self.mul(self.mul(a, b), c)
        right = self.mul(a, self.mul(b, c))
        r = self.mul(left, self.inverse(right))
        if _word(r) != 0:
            raise InternalInvariantError("associator landed outside the sign subgroup")
        return -1 if _sign_bit(r) else 1

    def is_moufang(self) -> bool:
        return is_moufang(self.factor_set.array)

    def is_associative(self) -> bool:
        """True when every associator of span words is trivial (see the module docstring)."""
        return not associator_bits(self.factor_set.array).any()


def is_latin(table: np.ndarray) -> bool:
    n = len(table)
    if table.ndim != 2 or table.shape != (n, n):
        return False
    want = np.arange(n)
    return bool(
        (np.sort(table, axis=1) == want).all() and (np.sort(table, axis=0) == want[:, None]).all()
    )


def is_moufang(phi) -> bool:
    """Check three equivalent Moufang identities on the loop twisted by a factor-set table.

    phi is any 2^k x 2^k 0/1 table of sign exponents, k <= 6.  Each
    identity is checked on all 2^(3k) triples of words (z, x, y) as the
    xor of its phi terms on either side, which decides it on all signed
    triples (see the module docstring).  For z(x(zy)) = ((zx)z)y that is
    phi(z, y) + phi(x, z+y) + phi(z, x+z+y) = phi(z, x) + phi(z+x, z) +
    phi(x, y), mod 2.
    """
    return not any(defects.any() for defects in _moufang_defects(np.asarray(phi, dtype=np.uint8)))


def _moufang_defects(phi: np.ndarray) -> Iterator[np.ndarray]:
    """Per identity, the words over y of the xor of its two sides' phi terms.

    Bit y of word [z, x] is 1 when the identity fails on (z, x, y).  Over y,
    phi(u, y) is row u, phi(y, u) is column u, phi(u, y + a) and phi(y + a,
    u) are their translates by a, and a term without y is spread over all
    bits.
    """
    n = len(phi)
    rows, cols = bit_rows(phi), bit_rows(phi.T)
    tr, tc = translates(rows), translates(cols)
    w = np.arange(n)
    z, x = w[:, None], w[None, :]
    zx = z ^ x
    # z(x(zy)) = ((zx)z)y:
    # phi(z, y) + phi(x, z+y) + phi(z, x+z+y) = phi(z, x) + phi(z+x, z) + phi(x, y)
    yield rows[z] ^ tr[z, x] ^ tr[zx, z] ^ rows[x] ^ spread(phi[z, x] ^ phi[zx, z], n)
    # x(z(yz)) = ((xz)y)z:
    # phi(y, z) + phi(z, y+z) + phi(x, y) = phi(x, z) + phi(x+z, y) + phi(x+y+z, z)
    yield cols[z] ^ tr[z, z] ^ rows[x] ^ rows[zx] ^ tc[zx, z] ^ spread(phi[x, z], n)
    # (zx)(yz) = (z(xy))z:
    # phi(z, x) + phi(y, z) + phi(z+x, y+z) = phi(x, y) + phi(z, x+y) + phi(x+y+z, z)
    yield cols[z] ^ tr[z, zx] ^ rows[x] ^ tr[x, z] ^ tc[zx, z] ^ spread(phi[z, x], n)


def build_loop(code: BinaryCode) -> CodeLoop:
    return CodeLoop(code, build_factor_set(code))


# ---------------------------------------------------------------------------
# characteristic vectors and the canonical catalog


@dataclass(frozen=True)
class CharVector:
    """Basis squares and commutators of a nonassociative loop, as bits.

    Rank 3: (s1, s2, s3 | c12, c13, c23), with the basis associator fixed
    at -1.  Rank 4: (s1..s4 | c12, c13, c14, c23, c24, c34), with the first
    three basis words associating to -1 and the fourth nuclear.  A bit is 1
    when the corresponding sign is -1.
    """

    rank: int
    squares: tuple[int, ...]
    commutators: tuple[int, ...]

    def __post_init__(self):
        if self.rank not in (3, 4):
            raise InvalidCodeError(f"rank {self.rank} not in (3, 4)")
        pairs = self.rank * (self.rank - 1) // 2
        if len(self.squares) != self.rank or len(self.commutators) != pairs:
            raise InvalidCodeError("wrong number of square or commutator bits")

    @property
    def bits(self) -> tuple[int, ...]:
        return self.squares + self.commutators

    @classmethod
    def from_bits(cls, rank: int, bits: Sequence[int] | str) -> "CharVector":
        vals = tuple(int(b) for b in bits)
        return cls(rank, vals[:rank], vals[rank:])

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


_CANONICAL_RANK3 = (
    "111111",
    "000000",
    "000111",
    "110000",
    "100000",
)

_CANONICAL_RANK4 = (
    "1110110100",
    "0000000000",
    "0000110100",
    "0010100000",
    "0000010100",
    "1111110100",
    "0001000000",
    "0000001000",
    "0100001000",
    "0001111000",
    "0001001000",
    "0000001100",
    "0110111100",
    "0001001100",
    "1001001100",
    "0001111100",
)


@dataclass(frozen=True)
class LoopClass:
    """One of the 21 nonassociative code loop classes of rank 3 or 4."""

    rank: int
    index: int  # 1-based position in the catalog

    def __post_init__(self):
        count = len(canonical_catalog(self.rank))
        if not 1 <= self.index <= count:
            raise InvalidCodeError(f"no catalog entry {self.index} at rank {self.rank}")

    @classmethod
    def of_vector(cls, cv: CharVector) -> "LoopClass":
        """The class whose canonical characteristic vector is cv."""
        catalog = canonical_catalog(cv.rank)
        if cv not in catalog:
            raise InvalidCodeError(f"characteristic vector {cv} is not canonical")
        return cls(cv.rank, catalog.index(cv) + 1)

    @property
    def name(self) -> str:
        return f"C{self.rank}_{self.index}"

    @property
    def vector(self) -> CharVector:
        return canonical_catalog(self.rank)[self.index - 1]

    def __str__(self) -> str:
        return self.name


@functools.lru_cache(maxsize=None)
def canonical_catalog(rank: int) -> tuple[CharVector, ...]:
    """The canonical characteristic vectors, one per isomorphism class (built once per rank)."""
    if rank == 3:
        raw = _CANONICAL_RANK3
    elif rank == 4:
        raw = _CANONICAL_RANK4
    else:
        raise InvalidCodeError(f"rank {rank} not in (3, 4)")
    return tuple(CharVector.from_bits(rank, bits) for bits in raw)


def characteristic_vector(loop: CodeLoop, basis: Sequence[int]) -> CharVector:
    """Characteristic vector of a loop with respect to a basis of span words.

    The basis is given as span indices.  It must span the code, the first
    three words must associate to -1, and at rank 4 the fourth word must be
    nuclear (all associators involving it trivial).
    """
    rank = loop.rank
    if rank not in (3, 4):
        raise InvalidCodeError(f"characteristic vectors need rank 3 or 4, got {rank}")
    words = list(basis)
    if any(not 0 <= w < loop.words for w in words):
        raise InvalidCodeError("basis word index outside the span")
    if len(words) != rank or _mask_rank(words) != rank:
        raise InvalidCodeError("basis does not span the code")
    sq, cm, asc = _sign_tables(loop)
    if not asc[words[0]][words[1]][words[2]]:
        raise InvalidCodeError("first three basis words associate; not an admissible basis")
    if rank == 4 and not _nuclear(asc, words[3]):
        raise InvalidCodeError("fourth basis word is not nuclear")
    squares = tuple(sq[w] for w in words)
    commutators = tuple(
        cm[words[i]][words[j]] for i in range(rank) for j in range(i + 1, rank)
    )
    return CharVector(rank, squares, commutators)


def _sign_tables(loop: CodeLoop):
    """Square, commutator, and associator bits for all span words.

    A bit is 1 when the sign is -1.  The bits are read off the loop's
    factor set by factorset.sign_tables, so sq[u] = |u|/4, cm[u][v] =
    |u & v|/2 and asc[u][v][w] = |u & v & w|, all mod 2.  Acceptance
    criterion 7 checks them against the signs read off the Cayley table.
    """
    return sign_tables(loop.factor_set.array)


def _nuclear(asc, d: int) -> bool:
    # |u & v & w| is symmetric in its arguments, so d associates trivially
    # in every position iff it does in the first
    return not any(map(any, asc[d]))


def admissible_bases(
    sq, cm, asc, vectors: Iterable[CharVector]
) -> Iterator[tuple[tuple[int, ...], CharVector]]:
    """Each admissible basis whose characteristic vector is in vectors, with that vector.

    sq, cm and asc are the square, commutator and associator bits of every
    span word, as _sign_tables gives them, and the vectors have the rank of
    the span.  A basis is a tuple of span indices whose first three words
    associate to -1 and, at rank 4, whose fourth word is nuclear.  Rows are
    chosen in ascending order, so the bases come in ascending order of
    (v_1, ..., v_k).  A row v_j is dropped at once when it lies in the span
    of the rows before it, or when the bits read so far, row by row
    (sq(v_j), then cm(v_i, v_j) for i < j), are no prefix of any vector's;
    the rows whose square bit begins no wanted row after the prefix are
    never tried.
    """
    rank = len(sq).bit_length() - 1
    wanted, prefixes, squares = _wanted_rows(rank, tuple(vectors))
    words = range(1, len(sq))
    # the candidate rows for each set of square bits, as squares encodes it
    by_squares = ((), [v for v in words if not sq[v]], [v for v in words if sq[v]], words)
    nuclear = [_nuclear(asc, d) for d in range(len(sq))]

    def extend(basis: tuple[int, ...], span: set[int], bits: tuple):
        j = len(basis)
        if j == rank:
            yield basis, wanted[bits]
            return
        for v in by_squares[squares.get(bits, 0)]:
            if v in span or j == 2 and not asc[basis[0]][basis[1]][v] or j == 3 and not nuclear[v]:
                continue
            row_bits = bits + ((sq[v], *(cm[u][v] for u in basis)),)
            if row_bits in prefixes:
                yield from extend(basis + (v,), span | {s ^ v for s in span}, row_bits)

    return extend((), {0}, ())


@functools.lru_cache(maxsize=64)
def _wanted_rows(rank: int, vectors: tuple[CharVector, ...]):
    """The row-by-row bits of the vectors, as admissible_bases reads them.

    Returns the map from each vector's rows (sq(v_j), then cm(v_i, v_j)
    for i < j) to the vector, the set of nonempty prefixes of those rows,
    and for each shorter prefix the square bits that begin a next row: bit
    s of the value is set when square bit s does.
    """
    wanted: dict[tuple, CharVector] = {}
    for cv in vectors:
        pairs = dict(zip(combinations(range(rank), 2), cv.commutators))
        rows = tuple((cv.squares[j], *(pairs[i, j] for i in range(j))) for j in range(rank))
        wanted[rows] = cv
    prefixes = {rows[:j] for rows in wanted for j in range(1, rank + 1)}
    squares: dict[tuple, int] = {}
    for rows in wanted:
        for j in range(rank):
            squares[rows[:j]] = squares.get(rows[:j], 0) | 1 << rows[j][0]
    return wanted, prefixes, squares


def classify(loop: CodeLoop) -> LoopClass:
    """Match a nonassociative rank 3 or 4 code loop against the catalog.

    The first admissible basis with a canonical characteristic vector, in
    the ascending order of admissible_bases, decides the class (only one
    class can ever match, since the catalog classes are pairwise
    non-isomorphic).  The signs are read off the factor set by
    _sign_tables, which criterion 7 checks against the Cayley table.  The
    loop associates iff every associator is trivial, so the associator
    table decides that too.
    """
    sq, cm, asc = _sign_tables(loop)
    if not any(any(map(any, plane)) for plane in asc):
        raise AssociativeLoopError("loop is associative; not a nonassociative code loop")
    rank = loop.rank
    if rank not in (3, 4):
        raise InvalidCodeError(f"classification needs rank 3 or 4, got {rank}")
    for _, cv in admissible_bases(sq, cm, asc, canonical_catalog(rank)):
        return LoopClass.of_vector(cv)
    raise InternalInvariantError("no admissible basis matched the canonical catalog")


def loops_isomorphic(a: CodeLoop, b: CodeLoop) -> bool:
    """Nonassociative rank 3/4 loops are isomorphic iff they classify alike."""
    return classify(a) == classify(b)
