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
in row-major order.  That table is linear in its second argument over the
generator basis, phi(x, y) = xor of r(x, j) over the bits j of y, and r
follows from the weights in closed form (after Griess, "Code loops", 1986):

    r(0, j)   = 0
    r(e_i, j) = |b_i|/4 if i = j,  |b_i & b_j|/2 if i > j,  0 if i < j
    r(x, j)   = r(e_i, j) + r(x', j) + |b_i & w_x' & b_j|

all mod 2, where i is the lowest set bit of x and x' = x with bit i
cleared.  |b_i & w_x' & b_j| is the xor of |b_i & b_l & b_j| over the bits
l of x', so basis_table needs only the basis square, commutator and
triple-meet bits, which build_factor_set reads off a code.  The diagonal
is the squaring form q(x) = |w_x|/4 mod 2, from which
loops.characteristic_vector and loops.classify read their signs, so the
signs derive from this one recursion.  associator_bits reads the
associators, for CodeLoop.is_associative and loops.classify.

Tables with k <= 6 are also handled as bit rows: row x of phi is one
2^k-bit word, bit y = phi(x, y), so one uint64 holds it.  The translates
t[a, x] of the rows (bit y of row x read from position y + a) are built for
every a in k doubling steps, and a sum of phi terms over a free variable y
becomes an xor of 2^k-bit words, one per pair of the other two variables:
associator_bits and loops.is_moufang decide 2^k triples per word operation
over 4^k pairs.

The tests keep the general routine as the oracle: they solve the
axioms as one linear system over GF(2) by elimination, pin free entries to
0 in table order, and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import BinaryCode, InvalidCodeError, NotDoublyEvenError

MAX_DIMENSION = 6  # the table has 4^k entries, and a row fits in a uint64

# _PARITY[m] = |m| mod 2 for every k-bit mask m, k <= MAX_DIMENSION
_PARITY = np.array([m.bit_count() & 1 for m in range(1 << MAX_DIMENSION)], dtype=np.uint8)


@dataclass(frozen=True)
class Violation:
    axiom: str  # "zero" | "square" | "commutator" | "cocycle"
    where: tuple[int, ...]  # span indices of the witnesses


class FactorSet:
    """A 2^k x 2^k table of sign exponents over a code's span, as one read-only uint8 array."""

    def __init__(self, code: BinaryCode, table: np.ndarray | list[list[int]]):
        n = 1 << code.dimension
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidCodeError("factor set table must be 2^k x 2^k")
        given = np.asarray(table)
        phi = given.astype(np.uint8)
        if (phi > 1).any() or (phi != given).any():
            raise InvalidCodeError("factor set entries must be 0 or 1")
        phi.flags.writeable = False
        self.code = code
        self.array = phi

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


def build_factor_set(code: BinaryCode) -> FactorSet:
    """The lexicographically least factor set of a doubly even code.

    Reads the basis data off the generators and runs basis_table on it.
    """
    if not code.is_doubly_even():
        raise NotDoublyEvenError(code.first_odd_span_element())
    k = code.dimension
    if k > MAX_DIMENSION:
        raise InvalidCodeError(f"dimension {k} exceeds solver cap {MAX_DIMENSION}")
    gens = [g.mask() for g in code.generators]
    squares = [(b.bit_count() >> 2) & 1 for b in gens]
    commutators = [[((bi & bj).bit_count() >> 1) & 1 for bj in gens] for bi in gens]
    triples = [[[(bi & bl & bj).bit_count() & 1 for bj in gens] for bl in gens] for bi in gens]
    return FactorSet(code, basis_table(squares, commutators, triples))


def basis_table(squares, commutators, triples) -> np.ndarray:
    """The least factor set table of a basis of k <= MAX_DIMENSION words, from its bits alone.

    squares[i] = |b_i|/4, commutators[i][j] = |b_i & b_j|/2 and
    triples[i][l][j] = |b_i & b_l & b_j|, all mod 2.  Row x is phi(x, y) =
    xor of r(x, j) over the generators j in y, and r follows the recursion
    in the module docstring, with |b_i & w_x' & b_j| the xor of the
    triples[i][l][j] over the bits l of x'.
    """
    k = len(squares)
    n = 1 << k
    bits = lambda row: sum(b << j for j, b in enumerate(row))
    # r(e_i, .) as a bitmask over j: square bit at i, commutator bits below i
    base = [squares[i] << i | bits(commutators[i][:i]) for i in range(k)]
    meets = [[bits(row) for row in plane] for plane in triples]  # over j, per (i, l)
    rows = [0] * n  # rows[x] bit j = r(x, j); r(0, .) = 0
    for x in range(1, n):
        i = (x & -x).bit_length() - 1
        rest = x ^ (1 << i)
        r = base[i] ^ rows[rest]
        for l, meet in enumerate(meets[i]):
            r ^= meet if rest >> l & 1 else 0
        rows[x] = r
    return _PARITY[np.array(rows, dtype=np.uint8)[:, None] & np.arange(n, dtype=np.uint8)]


_SHIFTS = np.arange(64, dtype=np.uint64)
# _CLEAR[b] marks the bit positions y < 64 with bit b of y clear
_CLEAR = [np.uint64(sum(1 << y for y in range(64) if not y >> b & 1)) for b in range(6)]


def bit_rows(phi: np.ndarray) -> np.ndarray:
    """Row x of a 2^k x 2^k 0/1 array as one uint64 word, bit y = phi[x, y]; k <= 6."""
    n = len(phi)
    if n > 64:
        raise InvalidCodeError(f"a {n}-entry row does not fit in 64 bits")
    return np.bitwise_or.reduce(phi.astype(np.uint64) << _SHIFTS[:n], axis=1)


def translates(rows: np.ndarray) -> np.ndarray:
    """t[a, x] = rows[x] with bit y read from position y + a (xor), for every a.

    rows holds 2^k words of 2^k bits.  Step b of the k doubling steps
    appends the translates by a + 2^b, which swap the blocks of 2^b bits
    of the translates by a.
    """
    t = rows[None, :]
    for b in range(len(rows).bit_length() - 1):
        s, m = np.uint64(1 << b), _CLEAR[b]
        t = np.concatenate((t, ((t & m) << s) | ((t >> s) & m)))
    return t


def spread(bits: np.ndarray, n: int) -> np.ndarray:
    """The all-ones n-bit word where bits is 1, and 0 where it is 0."""
    return bits * np.uint64((1 << n) - 1)


def associator_bits(phi: np.ndarray) -> np.ndarray:
    """The associator bits as rows: bit z of word [x, y] is asc[x, y, z].

    asc[x, y, z] = phi(x+y, z) + phi(x, y+z) + phi(x, y) + phi(y, z) mod 2.
    phi is a 2^k x 2^k uint8 array of sign exponents, k <= 6.  For any
    such table this is the sign exponent of the associator of the positive
    lifts of x, y, z in the twisted loop: ((x y) z) takes phi(x, y) +
    phi(x+y, z) and (x (y z)) takes phi(y, z) + phi(x, y+z).  On a factor
    set it is the cocycle axiom's weight term |x & y & z| mod 2.  Over z
    the four terms are the rows of x+y, the translate of row x by y, the
    constant phi(x, y) and the row of y.
    """
    n = len(phi)
    rows = bit_rows(phi)
    w = np.arange(n)
    x, y = w[:, None], w[None, :]
    return rows[x ^ y] ^ translates(rows)[y, x] ^ spread(phi, n) ^ rows[y]


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
