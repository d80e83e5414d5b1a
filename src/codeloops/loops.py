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
bit vector; the catalog below lists one vector per isomorphism class.
The squaring form q(v) = |v|/4 mod 2 of a basis, a truth table over span
words, has the square bits as linear, the commutator bits as quadratic
and the associators as cubic terms, and it fixes the loop up to
isomorphism (Griess, "Code loops", 1986).  A basis is admissible with
vector L exactly when it reads q as q_L (_class_form), so the classes are
the GL(k, 2)-orbits of the forms with a cubic term (O'Brien and
Vojtechovsky, 2017): classify looks q up in _class_table, and
equivalence.box_stabilizer is the stabilizer of q_L.  characteristic_vector
reads its signs off the factor set (factorset.sign_tables): v squared is
(-1)^(|v|/4), the commutator of u and v is (-1)^(|u & v|/2), and the
associator of u, v, w is (-1)^|u & v & w|.  Acceptance criterion 7 checks
these signs against the Cayley table on every catalog loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

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


def _class_form(cv: CharVector) -> np.ndarray:
    """q_L(y) = sum s_i y_i + sum c_ij y_i y_j + y_0 y_1 y_2 mod 2 (i < j) over span words y.

    The cubic term says that basis words 0, 1 and 2 associate to -1 and, at
    rank 4, the fourth is nuclear.  On a code q_L(y) is |w_y|/4 mod 2.
    """
    k = cv.rank
    y = np.arange(1 << k)
    bits = [y >> i & 1 for i in range(k)]
    q = bits[0] & bits[1] & bits[2]
    for i, s in enumerate(cv.squares):
        q ^= s * bits[i]
    for (i, j), c in zip(combinations(range(k), 2), cv.commutators):
        q ^= c * (bits[i] & bits[j])
    return q.astype(np.uint8)


def _pack(form: np.ndarray) -> int:
    """A truth table over span words as an integer, bit y = the value at word y."""
    return int(form @ (1 << np.arange(len(form))))


@functools.lru_cache(maxsize=None)
def _general_linear(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Every basis of GL(rank, 2) as rows (v_1, ..., v_k) in ascending order, and its span.

    images[g, y] is the xor of the rows of basis g over the bits of y, so
    q[images[g]] is the form q read in basis g.  Each next row is taken in
    ascending order from outside the span of the rows before it, so the
    identity comes first.  Both arrays are uint8 and read-only.
    """
    rows = np.zeros((1, 0), dtype=np.uint8)
    images = np.zeros((1, 1), dtype=np.uint8)
    for j in range(rank):
        outside = np.ones((len(rows), 1 << rank), dtype=bool)
        outside[np.arange(len(rows))[:, None], images] = False
        g, v = np.nonzero(outside)
        rows = np.concatenate((rows[g], v[:, None].astype(np.uint8)), axis=1)
        # the span words with bit j set are the old ones xor v_j
        images = np.tile(images[g], 2)
        images[:, 1 << j :] ^= rows[:, -1:]
    rows.setflags(write=False)
    images.setflags(write=False)
    return rows, images


def _orbit(cv: CharVector) -> np.ndarray:
    """q_L packed as read in each basis of _general_linear, in its order; entry 0 is q_L.

    Bit y of q_L read in basis g is bit images[g, y] of q_L.  A column at a
    time keeps every temporary at 2 bytes a basis (rank <= 4).
    """
    _, images = _general_linear(cv.rank)
    q = np.uint16(_pack(_class_form(cv)))
    orbit = np.zeros(len(images), dtype=np.uint16)
    for y, words in enumerate(images.T):
        orbit |= (q >> words & 1) << y
    return orbit


@functools.lru_cache(maxsize=None)
def _class_table(rank: int) -> np.ndarray:
    """The catalog index of each packed squaring form of a rank, 0 for no class.

    Class L holds the GL(k, 2)-orbit of q_L.  The catalog classes are
    pairwise non-isomorphic, so no two orbits meet.  Read-only uint8.
    """
    table = np.zeros(1 << (1 << rank), dtype=np.uint8)
    for index, cv in enumerate(canonical_catalog(rank), 1):
        orbit = _orbit(cv)
        if table[orbit].any():
            raise InternalInvariantError(f"the squaring forms of class {index} meet another class")
        table[orbit] = index
    table.setflags(write=False)
    return table


def classify(loop: CodeLoop) -> LoopClass:
    """Match a nonassociative rank 3 or 4 code loop against the catalog.

    The class is the one whose orbit holds the squaring form, the diagonal
    of the factor set (see the module docstring).  The loop associates iff
    every associator is trivial, so the associator bits decide that first.
    """
    phi = loop.factor_set.array
    if not associator_bits(phi).any():
        raise AssociativeLoopError("loop is associative; not a nonassociative code loop")
    rank = loop.rank
    if rank not in (3, 4):
        raise InvalidCodeError(f"classification needs rank 3 or 4, got {rank}")
    index = int(_class_table(rank)[_pack(phi.diagonal())])
    if not index:
        raise InternalInvariantError("the squaring form lies in no catalog class")
    return LoopClass(rank, index)


def loops_isomorphic(a: CodeLoop, b: CodeLoop) -> bool:
    """Nonassociative rank 3/4 loops are isomorphic iff they classify alike."""
    return classify(a) == classify(b)
