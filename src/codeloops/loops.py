"""Code loops: Moufang loops of order 2^(k+1) built over doubly even codes.

Elements are signed codewords (s, v) with s in {+1, -1} and v in the span;
the product twists the GF(2) sum by a factor set:

    (s, v) * (t, w) = (s * t * phi(v, w), v + w)

Internally an element is the integer 2*word_index + sign_bit, so the
identity is 0 and negation is xor with 1.  The Cayley table is a numpy
array, built by broadcasting over the factor set when CodeLoop.table is
first read and checked then to be a Latin square with identity 0.  The
sign methods of CodeLoop read squares, commutators and associators off it.

The Moufang property and associativity are checked on the 2^k words of
the factor set, not on the 2^(k+1) elements of the table.  For any table
phi the product is a quasigroup (multiplying by (s, v) on either side is
a bijection), and a quasigroup with one Moufang identity is a loop with
all of them (K. Kunen, "Moufang quasigroups", J. Algebra 183, 1996), so
is_moufang checks z(x(zy)) = ((zx)z)y alone.  The sign exponent of a
product of signed elements is the sum of the factors' sign exponents
plus one phi term per multiplication, and its word is the sum of the
factors' words.  That identity, like the associative law, has every
variable the same number of times on both sides, so the factors' signs
cancel and the words agree: it holds on all signed triples exactly when
the phi terms of its two sides agree on the positive lifts.  Over y its
six terms are rows of phi, their translates or constants spread over
2^k bits, and factorset owns both kernels: _moufang_defects gathers them
from the factor set's word table, which associator_bits reads too, and
one xor of 2^k-bit words for each of the 4^k pairs (z, x) decides all
2^(3k) triples.  CodeLoop.is_moufang and CodeLoop.is_associative hand
both kernels the FactorSet itself, so a loop lays out one word table,
kept and freed with its factor set.  The
tests keep the element-level checks of all three identities on the
table, and the broadcast checks over all triples of words, as the
oracles.

For a nonassociative loop of rank 3 or 4 the characteristic vector of an
admissible basis (the first three words associate to -1 and, at rank 4,
the fourth is nuclear) collects the basis squares and commutators into a
bit vector.  The class table below (_CLASSES) lists one vector per
isomorphism class with its catalog data, and its keys are the ranks
supported.
The squaring form q(v) = |v|/4 mod 2 of a basis, a truth table over span
words, has the square bits as linear, the commutator bits as quadratic
and the associators as cubic terms, and it fixes the loop up to
isomorphism (Griess, "Code loops", 1986).  A basis is admissible with
vector L exactly when it reads q as q_L (_class_form), so the classes are
the GL(k, 2)-orbits of the forms with a cubic term (O'Brien and
Vojtechovsky, 2017), and the stabilizer of q_L is the one record per
class of equivalence._class_stabilizer.  classify needs no orbit: it
reads q off the factor-set diagonal, refuses it as associative without a
cubic term and as in no class with a term above degree 3, and otherwise
looks up two isomorphism invariants, the number of words whose lifts
square to -1 and the number of ordered pairs of words whose lifts fail to
commute.  These two counts tell the 5 classes of rank 3 and the 16 of
rank 4 apart, and the tests check the rule against the orbit table of
every truth table of both ranks.
characteristic_vector reads the ANF of q in a basis as _form_class does,
the GF(2) Moebius transform of the table packed into one int (_mobius),
monomial m at bit m, and _class_form runs the same transform, its own
inverse, from L to q_L (_anf).
On a code v squared is (-1)^(|v|/4), the commutator of u and v is
(-1)^(|u & v|/2) and the associator of u, v, w is (-1)^|u & v & w|;
acceptance criterion 7 checks these signs against the Cayley table.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import BinaryCode, InternalInvariantError, InvalidCodeError, _as_int, _mask_rank
from .factorset import (
    MAX_DIMENSION,
    FactorSet,
    _moufang_defects,
    associator_bits,
    bit_rows,
    build_factor_set,
)


class AssociativeLoopError(InvalidCodeError):
    """The loop associates, so it has no nonassociative classification."""


class CodeLoop:
    """Cayley table of the signed span of a doubly even code."""

    def __init__(self, code: BinaryCode, factor_set: FactorSet):
        if code.dimension > MAX_DIMENSION:
            raise InvalidCodeError(f"dimension {code.dimension} exceeds loop cap {MAX_DIMENSION}")
        self.code = code
        self.factor_set = factor_set
        self.rank = code.dimension
        self.words = 1 << self.rank
        self.order = self.words << 1
        # the table's identity check: 0 * e and e * 0 add phi(0, w), phi(w, 0) to e's sign
        if factor_set.array[0].any() or factor_set.array[:, 0].any():
            raise InternalInvariantError("element 0 is not a two-sided identity")

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The Cayley table, built on first read and checked to be a Latin square with identity 0."""
        table = self._build_table()
        if not is_latin(table):
            raise InternalInvariantError("Cayley table is not a Latin square")
        identity = np.arange(self.order)
        if (table[0] != identity).any() or (table[:, 0] != identity).any():
            raise InternalInvariantError("element 0 is not a two-sided identity")
        return table

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
        return int(self._inverses[a])

    @functools.cached_property
    def _inverses(self) -> np.ndarray:
        inv = np.argmax(self.table == 0, axis=1)  # the one 0 of each row of a Latin square
        if (self.table[inv, np.arange(self.order)] != 0).any():
            raise InternalInvariantError("inverses are not two-sided")
        return inv

    # word-level signs; lifts are the positive elements 2*w

    def square_sign(self, w: int) -> int:
        return _central_sign(self.mul(w << 1, w << 1), "square")

    def commutator_sign(self, u: int, v: int) -> int:
        a, b = u << 1, v << 1
        r = self.mul(self.mul(self.mul(self.inverse(a), self.inverse(b)), a), b)
        return _central_sign(r, "commutator")

    def associator_sign(self, u: int, v: int, w: int) -> int:
        a, b, c = u << 1, v << 1, w << 1
        left = self.mul(self.mul(a, b), c)
        right = self.mul(a, self.mul(b, c))
        return _central_sign(self.mul(left, self.inverse(right)), "associator")

    def is_moufang(self) -> bool:
        return is_moufang(self.factor_set)

    def is_associative(self) -> bool:
        """True when every associator of span words is trivial (see the module docstring)."""
        return not associator_bits(self.factor_set).any()


def _central_sign(r: int, what: str) -> int:
    """The sign of a product r that must lie in the sign subgroup {0, 1}."""
    if r >> 1:
        raise InternalInvariantError(f"{what} landed outside the sign subgroup")
    return -1 if r & 1 else 1


def is_latin(table: np.ndarray) -> bool:
    n = len(table)
    if table.ndim != 2 or table.shape != (n, n):
        return False
    want = np.arange(n)
    return bool(
        (np.sort(table, axis=1) == want).all() and (np.sort(table, axis=0) == want[:, None]).all()
    )


def is_moufang(phi) -> bool:
    """Check the Moufang identities on the loop twisted by phi, k <= 6.

    phi is a FactorSet or a 2^k x 2^k 0/1 table.  One identity decides them
    all (see the module docstring): z(x(zy)) = ((zx)z)y on all 2^(3k)
    triples of words, as phi(z, y) + phi(x, z+y) + phi(z, x+z+y) = phi(z, x)
    + phi(z+x, z) + phi(x, y), mod 2, read by factorset._moufang_defects.
    Any other table is refused with InvalidCodeError.
    """
    return not _moufang_defects(phi).any()


def build_loop(code: BinaryCode) -> CodeLoop:
    return CodeLoop(code, build_factor_set(code))


# ---------------------------------------------------------------------------
# characteristic vectors and the canonical catalog


# The catalog: per rank, one row per class in catalog order, C{rank}_1 first.
# A row is the class's canonical characteristic vector, its minimal degree,
# the type at that degree and the generator lines of a code realizing it,
# separated by spaces.
# The ranks the library supports are this table's keys.
_CLASSES = {
    3: (
        ("111111", 7, "1111111", "1,2,3,4 1,2,5,6 1,3,5,7"),
        ("000000", 13, "1111333", "1-8 1,2,3,4,9,10,11,12 1,5,6,7,9,10,11,13"),
        ("000111", 11, "1111115", "1-8 1,2,3,4,5,6,9,10 1,2,3,4,5,7,9,11"),
        ("110000", 17, "1111337", "1,2,3,4 1,2,5-14 1,3,5-11,15,16,17"),
        ("100000", 17, "1113335", "1-12 1-8,13,14,15,16 1,2,3,4,5,9,10,11,13,14,15,17"),
    ),
    4: (
        ("1110110100", 8, "11111111", "1,2,3,4 1,2,5,6 1,3,5,7 1-8"),
        ("0000000000", 14, "11111111222", "1-8 1-4,9-12 1,5,6,7,9,10,11,13 1,2,5,8,9,12,13,14"),
        ("0000110100", 12, "111111114", "1-8 1-6,9,10 1,2,3,4,5,7,9,11 1,6-12"),
        ("0010100000", 18, "11111111226", "1-8 1-6,9,10 1,2,3,7,9,11-17 1,4,7,8,9,10,11,18"),
        ("0000010100", 18, "111111112224",
         "1-8 1,2,3,4,9,10,11,12 1,5,9,13-17 1,2,5,6,9,10,13,18"),
        ("1111110100", 11, "11111114", "1,2,3,4 1,2,5,6 1,3,5,7 8,9,10,11"),
        ("0001000000", 17, "11113334", "1-8 1,2,3,4,9,10,11,12 1,5,6,7,9,10,11,13 14,15,16,17"),
        ("0000001000", 17, "11111122223",
         "1-8 1,2,3,4,9-12 1,2,3,5,9,13,14,15 1,2,10,11,13,14,16,17"),
        ("0100001000", 19, "11111222233",
         "1-8 1,2,3,4,9-16 1,5,6,7,9,10,11,17 5,6,9,10,12,13,18,19"),
        ("0001111000", 19, "111223333", "1-8 1,2,9-14 1,3,9,10,11,15,16,17 4,5,18,19"),
        ("0001001000", 17, "111122333", "1-8 1,2,3,4,9-12 1,2,3,5,9,13,14,15 6,7,16,17"),
        ("0000001100", 17, "1111112234",
         "1-8 1,2,3,4,9-12 1,2,3,5,9,10,11,13 1,2,9,10,14,15,16,17"),
        ("0110111100", 17, "111111236", "1-8 1,2,9,10 1,3,9,11 4,5,12-17"),
        ("0001001100", 13, "111111223", "1-8 1,2,3,4,9-12 1,2,3,5,9,10,11,13 1,2,9,10"),
        ("1001001100", 17, "111111227", "1-12 1,2,3,4,13-16 1,2,3,5,13,14,15,17 1,2,13,14"),
        ("0001111100", 17, "111112235", "1-8 1,2,9-14 1,3,9-13,15 4,5,16,17"),
    ),
}
_RANKS = tuple(_CLASSES)


def _check_rank(rank: int, needs: str | None = None) -> int:
    """The int of a rank, refused unless it is a key of the class table; needs names the use."""
    number = rank if type(rank) is int else _as_int(rank, "rank")
    if number not in _RANKS:
        if needs is None:
            raise InvalidCodeError(f"rank {rank} not in {_RANKS}")
        raise InvalidCodeError(f"{needs} rank {' or '.join(map(str, _RANKS))}, got {rank}")
    return number


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
        object.__setattr__(self, "rank", _check_rank(self.rank))
        pairs = self.rank * (self.rank - 1) // 2
        if len(self.squares) != self.rank or len(self.commutators) != pairs:
            raise InvalidCodeError("wrong number of square or commutator bits")
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise InvalidCodeError(f"characteristic vector bits must be 0 or 1, got {self.bits}")

    @property
    def bits(self) -> tuple[int, ...]:
        return self.squares + self.commutators

    @classmethod
    def from_bits(cls, rank: int, bits: Sequence[int] | str) -> "CharVector":
        _check_rank(rank)  # before the bits are split at it
        # '0', '1' and numpy 0/1 become ints; anything else is left for __post_init__ to refuse
        vals = tuple({"0": 0, "1": 1}.get(str(b), b) for b in bits)
        return cls(rank, vals[:rank], vals[rank:])

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class LoopClass:
    """One of the nonassociative code loop classes of the catalog (_CLASSES)."""

    rank: int
    index: int  # 1-based position in the catalog

    def __post_init__(self):
        rank = _check_rank(self.rank)
        index = self.index if type(self.index) is int else _as_int(self.index, "catalog index")
        if not 1 <= index <= len(_CLASSES[rank]):
            raise InvalidCodeError(f"no catalog entry {self.index} at rank {self.rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "index", index)

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


@functools.lru_cache(maxsize=None, typed=True)  # typed: a cached rank 3 never answers for 3.0
def canonical_catalog(rank: int) -> tuple[CharVector, ...]:
    """The canonical characteristic vectors, one per isomorphism class (built once per rank)."""
    return tuple(CharVector.from_bits(rank, row[0]) for row in _CLASSES[_check_rank(rank)])


def characteristic_vector(loop: CodeLoop, basis: Sequence[int]) -> CharVector:
    """Characteristic vector of a loop with respect to a basis of span words.

    The basis is given as span indices.  It must span the code, the first
    three words must associate to -1, and at rank 4 the fourth word must be
    nuclear (all associators involving it trivial): q read in the basis has
    y_0 y_1 y_2 as its only cubic term, and no term above degree 3 (such a
    loop lies in no class).  Its linear and quadratic terms are the bits.
    """
    rank = loop.rank
    _check_rank(rank, "characteristic vectors need")
    try:
        words = [operator.index(w) for w in basis]
    except TypeError:
        raise InvalidCodeError("basis word indices must be integers") from None
    if any(not 0 <= w < loop.words for w in words):
        raise InvalidCodeError("basis word index outside the span")
    if len(words) != rank or _mask_rank(words) != rank:
        raise InvalidCodeError("basis does not span the code")
    span = np.zeros(1 << rank, dtype=np.intp)
    for i, w in enumerate(words):
        span[1 << i : 2 << i] = span[: 1 << i] ^ w
    anf = _mobius(int(bit_rows(loop.factor_set.array.diagonal()[span])), len(span))
    cubic, higher = _degree_masks(len(span))
    if not anf >> _BASIS_CUBIC & 1:
        raise InvalidCodeError("first three basis words associate; not an admissible basis")
    if (anf & cubic).bit_count() > 1:
        raise InvalidCodeError("fourth basis word is not nuclear")
    if anf & higher:
        raise InvalidCodeError("squaring form has a term above degree 3; the loop lies in no class")
    return CharVector.from_bits(rank, [anf >> m & 1 for m in _monomials(rank)])


_BASIS_CUBIC = 0b111  # the monomial y_0 y_1 y_2, as the mask of its variables


def _monomials(rank: int) -> list[int]:
    """The monomials y_i, then y_i y_j (i < j), as masks: the order of CharVector.bits."""
    pairs = combinations(range(rank), 2)
    return [1 << i for i in range(rank)] + [1 << i | 1 << j for i, j in pairs]


def _anf(values: np.ndarray) -> np.ndarray:
    """The GF(2) Moebius transform of a table over the 2^k span words, as uint8.

    Entry m is the xor of the entries at the words inside m (y & m == y),
    so it takes a truth table to its ANF, the coefficient of the monomial
    of the bits of m, and the ANF back: the transform is its own inverse.
    The table is packed into one int, entry y at bit y (bit_rows: every
    caller packs at most 64 entries, rank <= 6), transformed there by
    _mobius in k shift-xor steps, and unpacked.
    """
    n = len(values)
    anf = _mobius(int(bit_rows(values)), n).to_bytes(-(-n // 8), "little")
    return np.unpackbits(np.frombuffer(anf, dtype=np.uint8), count=n, bitorder="little")


def _mobius(word: int, n: int) -> int:
    """The Moebius transform of a table over n = 2^k words packed into an int, entry y at bit y.

    Each of the k steps xors every entry y with the bit of half clear into
    entry y + half, as one shift of the entries under the mask of those y:
    after the k steps, entry m holds the xor over every y inside m.
    """
    half = 1
    while half < n:
        # runs of half ones every 2 * half bits: (2^n - 1) / (2^(2 half) - 1) repeats the run
        clear = ((1 << n) - 1) // ((1 << 2 * half) - 1) * ((1 << half) - 1)
        word ^= (word & clear) << half
        half <<= 1
    return word


def _class_form(cv: CharVector) -> np.ndarray:
    """q_L(y) = sum s_i y_i + sum c_ij y_i y_j + y_0 y_1 y_2 mod 2 (i < j) over span words y.

    The cubic term says that basis words 0, 1 and 2 associate to -1 and, at
    rank 4, the fourth is nuclear.  On a code q_L(y) is |w_y|/4 mod 2.
    """
    coefficients = np.zeros(1 << cv.rank, dtype=np.uint8)
    coefficients[_BASIS_CUBIC] = 1
    coefficients[_monomials(cv.rank)] = cv.bits
    return _anf(coefficients)


def _form_key(q: np.ndarray) -> tuple[int, int]:
    """How many span words have q = 1, and how many ordered pairs q(u+v) + q(u) + q(v) = 1.

    They count the words whose lifts square to -1 and the pairs whose lifts
    fail to commute, so both are isomorphism invariants.
    """
    return int(q.sum()), int((q[_xor_table(len(q))] ^ q[:, None] ^ q).sum())


@functools.lru_cache(maxsize=None)
def _xor_table(n: int) -> np.ndarray:
    """u ^ v at [u, v] for the n = 2^k span words, read-only, built on first use."""
    w = np.arange(n)
    table = w[:, None] ^ w
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _class_keys(rank: int) -> dict[tuple[int, int], int]:
    """The catalog index of each class of a rank by the _form_key of q_L, built on first use."""
    keys = {_form_key(_class_form(cv)): i for i, cv in enumerate(canonical_catalog(rank), 1)}
    if len(keys) < len(_CLASSES[rank]):
        raise InternalInvariantError(f"two classes of rank {rank} share a squaring-form key")
    return keys


@functools.lru_cache(maxsize=None)
def _degree_masks(n: int) -> tuple[int, int]:
    """The monomials of degree 3 and those above 3 over n = 2^k words, as bitmasks over masks m."""
    cubic = sum(1 << m for m in range(n) if m.bit_count() == 3)
    higher = sum(1 << m for m in range(n) if m.bit_count() > 3)
    return cubic, higher


def _form_class(q: np.ndarray) -> LoopClass:
    """The class of a squaring form q, a 0/1 truth table over the 2^k span words.

    q has a cubic term exactly when the loop is nonassociative.  A form of
    degree at most 3 with a cubic term lies in one catalog class, told by
    its _form_key; a form with a term above degree 3 lies in none.  The
    ANF is read as one int (_mobius), monomial m at bit m.
    """
    n = len(q)
    anf = _mobius(int(bit_rows(q)), n)
    cubic, higher = _degree_masks(n)
    if not anf & cubic:
        raise AssociativeLoopError("loop is associative; not a nonassociative code loop")
    rank = n.bit_length() - 1
    _check_rank(rank, "classification needs")
    index = _class_keys(rank).get(_form_key(q))
    if index is None or anf & higher:
        raise InternalInvariantError("the squaring form lies in no catalog class")
    return LoopClass(rank, index)


def classify(loop: CodeLoop) -> LoopClass:
    """Match a nonassociative code loop of a catalog rank against the catalog.

    The class is that of the squaring form, the diagonal of the factor set
    (_form_class; see the module docstring).  On a code's own factor set the
    cubic terms of q are the associators, so q decides associativity too.
    A loop twisted by an arbitrary table is classified by its diagonal.
    """
    return _form_class(loop.factor_set.array.diagonal())


def loops_isomorphic(a: CodeLoop, b: CodeLoop) -> bool:
    """Nonassociative loops of the catalog ranks are isomorphic iff they classify alike."""
    return classify(a) == classify(b)
