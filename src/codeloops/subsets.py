"""The nonempty generator subsets of each catalog rank, and the tables read off them.

A reduced representation is indexed by the nonempty subsets S of its k
generators in scan order, by decreasing size and then lexicographically,
and the walks of search complete a prefix (the classes of three or more
generators) over its pair classes.  What depends on the rank alone is
here: the subsets and their incidence matrices, the prefixes and the 2^P
ways to raise the P pair classes (both built on first use), and the least
sizes and least completion of a prefix.  So are the residues a class puts
on the meets t_S, read off the ANF of its squaring form q_L
(_meet_residues), and the least sizes, least completion and pair-table
keys of every prefix that follow from them (_class_tables), each built
once per class on first use.
"""

from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .loops import _RANKS, CharVector, _anf, _class_form


class _Subsets:
    """The nonempty generator subsets of one rank, in scan order."""

    def __init__(self, rank: int):
        self.rank = rank
        self.sets = tuple(
            s for size in range(rank, 0, -1) for s in combinations(range(rank), size)
        )
        self.labels = tuple("".join(str(i + 1) for i in s) for s in self.sets)
        self.masks = tuple(sum(1 << i for i in s) for s in self.sets)  # the ANF monomials
        # reads a list indexed by subset mask (entry u for the generators at
        # the bits of u) in scan order
        self.in_order = itemgetter(*self.masks)
        # positions of the strict supersets of each subset
        self.above = tuple(
            tuple(j for j, u in enumerate(self.sets) if set(s) < set(u)) for s in self.sets
        )
        # the positions of the pair classes and of the singles
        self.singles = slice(len(self.sets) - rank, len(self.sets))
        self.pairs = slice(self.singles.start - rank * (rank - 1) // 2, self.singles.start)
        # 0/1 matrices for the walk's products, in float32 so that numpy
        # multiplies through BLAS (integer matmul is much slower); the
        # products are small integers, exact in float32
        # t = x @ supersets: row u, column s is 1 when s is a subset of u
        self.supersets = np.array(
            [[set(s) <= set(u) for s in self.sets] for u in self.sets], dtype=np.float32
        )
        # row s, column f - 1: the functional f (a bit per generator) is odd on s
        self.odd = np.array(
            [[sum(f >> i & 1 for i in s) % 2 for f in range(1, 1 << rank)] for s in self.sets],
            dtype=np.float32,
        )


_SUBSETS = {rank: _Subsets(rank) for rank in _RANKS}


@cache
def _meet_residues(cv: CharVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The moduli and residues of the meets t_S of a class, in subset order.

    They are the ANF coefficients a_S of the class form q_L (Griess, "Code
    loops", 1986): t_S is 4 a_S mod 8 for a single (a square), 2 a_S mod 4
    for a pair (a commutator) and a_S mod 2 for a triple (an associator),
    and a larger meet is free.  So the modulus is 16 >> |S|, at least 1,
    and the residue is half the modulus times a_S.
    """
    subsets = _SUBSETS[cv.rank]
    anf = _anf(_class_form(cv))[list(subsets.masks)].tolist()
    moduli = tuple(max(1, 16 >> len(s)) for s in subsets.sets)
    return moduli, tuple(m // 2 * a for m, a in zip(moduli, anf))


@cache
def _open_residues(rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The meet residues of every characteristic vector of a rank, in subset order.

    The bits of a vector are the ANF coefficients of the pairs and the
    singles, so with them left open a pair meet is 0 mod 2 and a weight 0
    mod 4, as in any doubly even code.  The larger meets keep the residues
    of the cubic part y_0 y_1 y_2 that every vector's form has.
    """
    subsets = _SUBSETS[rank]
    pairs = subsets.pairs.start
    moduli, residues = _meet_residues(CharVector.from_bits(rank, [0] * (len(subsets.sets) - pairs)))
    return moduli[:pairs] + tuple(m // 2 for m in moduli[pairs:]), residues


def _max_degree(rank: int) -> int:
    """Degree of the largest reduced representation: 7 per class."""
    return 7 * (2**rank - 1)


@cache
def _pair_bits(rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2^P ways to raise some of the P pair classes by 4, in binary order, first on top.

    Raising a pair by 4 changes the singles in it by 4 mod 8, so a choice
    changes single i when it raises an odd number of the pairs through i.
    Returns, per choice: what it adds to each pair; what it xors into each
    single (4 where it changes the single, else 0); the degree it adds
    when every single is below 4; and, at (i, choice), 8 where it changes
    single i, since a change takes 4 from a single of 4 or more instead of
    adding 4.
    """
    subsets = _SUBSETS[rank]
    count = subsets.pairs.stop - subsets.pairs.start
    bits = (np.arange(1 << count)[:, None] >> np.arange(count - 1, -1, -1) & 1).astype(np.int16)
    through = subsets.supersets[subsets.pairs, subsets.singles].astype(np.int16)
    flips = 4 * (bits @ through % 2)
    gain = 4 * bits.sum(axis=1, dtype=np.int16) + flips.sum(axis=1, dtype=np.int16)
    tables = 4 * bits, flips, gain, 2 * flips.T.astype(np.float32)  # float32 as _Subsets.supersets
    for table in tables:
        table.setflags(write=False)
    return tables


class _PrefixTree(NamedTuple):
    """The prefixes of a rank, the classes of three or more generators, in depth-first order."""

    sizes: np.ndarray  # row r: leaf r's class sizes in subset order, pairs and singles 0, uint8
    # row r: the meets of leaf r's sizes; column-major, so that a sum over
    # a row's few columns is a sum of whole columns
    above: np.ndarray
    # the nodes, the root and then level by level, the leaves last
    first: np.ndarray  # the first leaf below each node, intp
    partial: np.ndarray  # each node's partial degree, the sum of its sizes, int16
    last: np.ndarray  # the node of the last child of each node above the leaves, intp


@cache
def _prefix_tree(rank: int) -> _PrefixTree:
    """Every prefix of a rank, level by level in subset order, each size below 8.

    The triple meets take their residues from the cubic part y_0 y_1 y_2,
    which every class of the rank shares (_open_residues), and the
    quadruple meet is free.  So every class has the same prefixes: 8 x 4^4
    = 2048 at rank 4 and 4 at rank 3, in the depth-first order of the
    branch and bound, a level's sizes rising from least by its modulus m,
    so a node has 8 / m children on that level.  A node stands for its
    first leaf, and its children are consecutive on the next level.
    """
    subsets = _SUBSETS[rank]
    moduli, residues = _open_residues(rank)
    top = subsets.pairs.start
    x = np.zeros((1, len(subsets.sets)), dtype=np.int16)
    for j in range(top):
        least = (residues[j] - x[:, list(subsets.above[j])].sum(axis=1)) % moduli[j]
        sizes = least[:, None] + np.arange(0, 8, moduli[j], dtype=np.int16)
        x = x.repeat(sizes.shape[1], axis=0)
        x[:, j] = sizes.ravel()
    sums = x[:, :top].cumsum(axis=1, dtype=np.int16)
    first, partial, last = [np.zeros(1, dtype=np.intp)], [np.zeros(1, dtype=np.int16)], []
    nodes, stride = 1, len(x)  # the root
    for j in range(top):
        children = 8 // moduli[j]
        stride //= children
        level = np.arange(0, len(x), stride)
        last.append(nodes + np.arange(children - 1, len(level), children))
        first.append(level)
        partial.append(sums[level, j])
        nodes += len(level)
    tree = _PrefixTree(
        x.astype(np.uint8),
        np.asfortranarray(x.astype(np.float32) @ subsets.supersets, dtype=np.int16),
        *map(np.concatenate, (first, partial, last)),
    )
    for table in tree:
        table.setflags(write=False)
    return tree


def _least_sizes(
    rank: int, residues: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base, and the least sizes of the pairs and of the singles, below each prefix.

    residues are a class's meet residues in subset order.  Below a prefix
    (_prefix_tree), pair p takes l_p, its residue mod 4 minus its prefix
    supersets, or l_p + 4; single i is then forced to its residue minus
    its supersets, the pairs through it included, mod 8.  The least
    singles are those with no pair raised, and the base is the prefix's
    partial degree plus the pairs' least sizes.  All three are
    column-major, as the tree's meets.
    """
    subsets, tree = _SUBSETS[rank], _prefix_tree(rank)
    pairs, singles = subsets.pairs, subsets.singles
    least_pairs = (np.array(residues[pairs], dtype=np.int16) - tree.above[:, pairs]) & 3
    through = least_pairs.astype(np.float32) @ subsets.supersets[pairs, singles]
    least_singles = np.array(residues[singles], dtype=np.int16) - tree.above[:, singles]
    least_singles = (least_singles - through.astype(np.int16, order="F")) & 7
    base = tree.partial[len(tree.last):] + least_pairs.sum(axis=1, dtype=np.int16)
    return base, least_pairs, least_singles


def _least_completion(base: np.ndarray, least_singles: np.ndarray) -> np.ndarray:
    """The least degree over the 2^P pair bits of each prefix.

    base is the prefix's partial degree plus its pairs' least sizes, and a
    row of least_singles the sizes of its singles with no pair raised.  A
    raised pair adds 4, and changes by 4 the singles of odd degree in the
    raised pairs: up from below 4, down from 4 or more (the high singles).
    Those singles form an even set, and changing 2j of them takes j raised
    pairs at least.  So h raised pairs take at most 4 min(h, |high| // 2)
    off the singles' least sizes, by pairing up high singles, and the
    least completion is base + sum(least_singles mod 4) + 4 ceil(|high| / 2).
    """
    high = (least_singles >> 2).sum(axis=1, dtype=np.int16)
    return base + (least_singles & 3).sum(axis=1, dtype=np.int16) + 4 * ((high + 1) // 2)


class _ClassTables(NamedTuple):
    """What the walks of search read below each prefix of one class, in the tree's order."""

    base: np.ndarray  # the prefix's partial degree plus its pairs' least sizes, int16
    least_pairs: np.ndarray  # column-major int16, as _least_sizes
    least_singles: np.ndarray
    completion: np.ndarray  # the least completion, int16
    # the keys of search._pair_tables, one row each, uint8: the l's of the
    # pairs before the last three and of the last three as base-4 numbers,
    # the first pair's on top, and the sum of the l's before the last three
    keys: np.ndarray


@cache
def _class_tables(cv: CharVector) -> _ClassTables:
    """The least sizes, least completion and pair-table keys of every prefix of a class.

    Built on first use, once per characteristic vector, and read-only:
    reduced_box and the branch and bound of search read them at every cap.
    """
    _, residues = _meet_residues(cv)
    base, least_pairs, least_singles = _least_sizes(cv.rank, residues)
    count = least_pairs.shape[1]
    digits = np.zeros((3, count), dtype=np.int16)
    digits[0, :count - 3] = 4 ** np.arange(count - 4, -1, -1)
    digits[1, count - 3:] = 4 ** np.arange(2, -1, -1)
    digits[2, :count - 3] = 1
    tables = _ClassTables(
        base, least_pairs, least_singles, _least_completion(base, least_singles),
        (digits @ least_pairs.T).astype(np.uint8),  # at most 63
    )
    for table in tables:
        table.setflags(write=False)
    return tables
