"""Code loops: Moufang loops of order 2^(k+1) built over doubly even codes.

Elements are signed codewords (s, v) with s in {+1, -1} and v in the span;
the product twists the GF(2) sum by a factor set:

    (s, v) * (t, w) = (s * t * phi(v, w), v + w)

Internally an element is the integer 2*word_index + sign_bit, so the
identity is 0 and negation is xor with 1.  The Cayley table is a numpy
array, built by broadcasting over the factor set, which keeps the
exhaustive Moufang and agreement checks cheap.  The sign methods of
CodeLoop read squares, commutators and associators off the table.

For a nonassociative loop of rank 3 or 4 the characteristic vector collects
the basis squares and commutators into a bit vector; the catalog below
lists one vector per isomorphism class, and classification searches the
bases of a loop for a catalog match.  Characteristic vectors and
classification take their signs from the code's weights instead: v squared
is (-1)^(|v|/4), the commutator of u and v is (-1)^(|u & v|/2), and the
associator of u, v, w is (-1)^|u & v & w|.  Acceptance criterion 7 checks
these formulas against the table on every catalog loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .codes import BinaryCode, InternalInvariantError, InvalidCodeError
from .factorset import FactorSet, build_factor_set

MAX_LOOP_DIMENSION = 6


class AssociativeLoopError(InvalidCodeError):
    """The loop associates, so it has no nonassociative classification."""


def _sign_bit(x: int) -> int:
    return x & 1


def _word(x: int) -> int:
    return x >> 1


class CodeLoop:
    """Cayley table of the signed span of a doubly even code."""

    def __init__(
        self,
        code: BinaryCode,
        factor_set: FactorSet,
        table: np.ndarray | None = None,
        validate: bool = True,
    ):
        if code.dimension > MAX_LOOP_DIMENSION:
            raise InvalidCodeError(
                f"dimension {code.dimension} exceeds loop cap {MAX_LOOP_DIMENSION}"
            )
        self.code = code
        self.factor_set = factor_set
        self.rank = code.dimension
        self.words = 1 << self.rank
        self.order = self.words << 1
        if table is None:
            table = self._build_table()
        self.table = table
        self._inverses: np.ndarray | None = None
        if validate:
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
        phi = np.array(self.factor_set.table, dtype=np.int32)
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
        return is_moufang(self.table)

    def is_associative(self) -> bool:
        t = self.table
        n = self.order
        x = np.arange(n)[:, None, None]
        y = np.arange(n)[None, :, None]
        z = np.arange(n)[None, None, :]
        return bool((t[t[x, y], z] == t[x, t[y, z]]).all())


def is_latin(table: np.ndarray) -> bool:
    n = len(table)
    if table.ndim != 2 or table.shape != (n, n):
        return False
    want = np.arange(n)
    return bool(
        (np.sort(table, axis=1) == want).all() and (np.sort(table, axis=0) == want[:, None]).all()
    )


def is_moufang(table: np.ndarray) -> bool:
    """Exhaustively check three equivalent Moufang identities."""
    t = table
    n = len(t)
    z = np.arange(n)[:, None, None]
    x = np.arange(n)[None, :, None]
    y = np.arange(n)[None, None, :]
    if (t[z, t[x, t[z, y]]] != t[t[t[z, x], z], y]).any():
        return False
    if (t[x, t[z, t[y, z]]] != t[t[t[x, z], y], z]).any():
        return False
    if (t[t[z, x], t[y, z]] != t[t[z, t[x, y]], z]).any():
        return False
    return True


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

    @property
    def name(self) -> str:
        return f"C{self.rank}_{self.index}"

    @property
    def vector(self) -> CharVector:
        return canonical_catalog(self.rank)[self.index - 1]

    def __str__(self) -> str:
        return self.name


def canonical_catalog(rank: int) -> tuple[CharVector, ...]:
    """The canonical characteristic vectors, one per isomorphism class."""
    if rank == 3:
        raw = _CANONICAL_RANK3
    elif rank == 4:
        raw = _CANONICAL_RANK4
    else:
        raise InvalidCodeError(f"rank {rank} not in (3, 4)")
    return tuple(CharVector.from_bits(rank, bits) for bits in raw)


def _canonical_index(cv: CharVector) -> int | None:
    table = canonical_catalog(cv.rank)
    for i, entry in enumerate(table, start=1):
        if entry == cv:
            return i
    return None


def _independent(words: Sequence[int], rank: int) -> bool:
    basis: dict[int, int] = {}
    for w in words:
        while w:
            lead = w.bit_length() - 1
            if lead not in basis:
                basis[lead] = w
                break
            w ^= basis[lead]
        if not w:
            return False
    return len(basis) == rank


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
    if len(words) != rank or not _independent(words, rank):
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

    A bit is 1 when the sign is -1.  The bits come from the code's weights,
    not from the Cayley table: sq[u] = |u|/4, cm[u][v] = |u & v|/2 and
    asc[u][v][w] = |u & v & w|, all mod 2.  Acceptance criterion 7 checks
    these formulas against the signs read off the table.
    """
    code = loop.code
    k = code.dimension
    gens = np.array(
        [[g.mask() >> i & 1 for i in range(code.degree)] for g in code.generators],
        dtype=np.int64,
    ).reshape(k, code.degree)
    bits = (np.arange(loop.words)[:, None] >> np.arange(k)) & 1
    words = (bits @ gens) & 1  # row x is the 0/1 vector of span word x
    meet2 = words @ words.T
    meet3 = (words[:, None, :] * words[None, :, :]) @ words.T
    sq = (meet2.diagonal() >> 2) & 1
    return sq.tolist(), ((meet2 >> 1) & 1).tolist(), (meet3 & 1).tolist()


def _nuclear(asc, d: int) -> bool:
    # |u & v & w| is symmetric in its arguments, so d associates trivially
    # in every position iff it does in the first
    return not any(map(any, asc[d]))


def classify(loop: CodeLoop) -> LoopClass:
    """Match a nonassociative rank 3 or 4 code loop against the catalog.

    Bases are scanned in ascending span-index order; the first admissible
    basis whose characteristic vector is canonical decides the class (only
    one class can ever match, since the catalog classes are pairwise
    non-isomorphic).  The signs come from the weight formulas of
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
    n = loop.words
    canonical = {cv.bits: i for i, cv in enumerate(canonical_catalog(rank), start=1)}
    nuclear = [_nuclear(asc, d) for d in range(n)]
    for a in range(1, n):
        for b in range(1, n):
            if not _independent([a, b], 2):
                continue
            for c in range(1, n):
                if not _independent([a, b, c], 3):
                    continue
                if asc[a][b][c] == 0:
                    continue
                if rank == 3:
                    bits = (sq[a], sq[b], sq[c], cm[a][b], cm[a][c], cm[b][c])
                    idx = canonical.get(bits)
                    if idx is not None:
                        return LoopClass(3, idx)
                    continue
                for d in range(1, n):
                    if not nuclear[d] or not _independent([a, b, c, d], 4):
                        continue
                    bits = (
                        sq[a], sq[b], sq[c], sq[d],
                        cm[a][b], cm[a][c], cm[a][d],
                        cm[b][c], cm[b][d], cm[c][d],
                    )
                    idx = canonical.get(bits)
                    if idx is not None:
                        return LoopClass(4, idx)
    raise InternalInvariantError("no admissible basis matched the canonical catalog")


def loops_isomorphic(a: CodeLoop, b: CodeLoop) -> bool:
    """Nonassociative rank 3/4 loops are isomorphic iff they classify alike."""
    return classify(a) == classify(b)
