"""Reduced representations of the catalog loops by constrained search.

A representation of a loop class is a doubly even code whose loop
classifies to that class.  Everything here is indexed by the nonempty
subsets S of the k generators (k = 3 or 4), ordered by decreasing size and
then lexicographically: 123, 12, 13, 23, 1, 2, 3 at rank 3 and 1234, 123,
124, ..., 34, 1, ..., 4 at rank 4.  Fixing a basis pins the meet sizes t_S,
the number of coordinates lying in every generator of S.  The coordinate
class x_S holds the coordinates lying in exactly the generators of S, so
t_S is the sum of x_T over the supersets T of S, and Moebius inversion
gives x_S as t_S minus the class sizes of the strict supersets of S.

Each t_S lies in a residue class read off the ANF a of the class form q_L,
once per class (subsets._meet_residues): a weight is 4 a_S mod 8 (the
squares), a pair meet 2 a_S mod 4 (the commutators), a triple meet a_S
mod 2 (the associators), and the quadruple meet is free.  What the walks
read of a class below each prefix follows from those residues, and is
built once per class on first use too (subsets._class_tables).  A
representation is reduced when every class has fewer than 8 coordinates,
so the reduced space is a finite box.  It is searched one class size at a
time in subset order, which is lexicographic order in t: each size steps
through the residue class its meet needs, and the singles come out forced
mod 8.  The classes are then laid out as consecutive coordinate intervals.

Listing the box below a degree cap (enumerate_reduced, reduced_box) is one
numpy walk.  The sizes of the classes of three or more generators form
prefixes that every class of a rank shares (subsets._prefix_tree), 2048 at
rank 4 and 4 at rank 3, and the walk completes each prefix in one step:
every pair class takes one of two sizes, and the singles are forced.  It
returns the class sizes, meets and degrees of every leaf as small integer
arrays; the command line formats enumerate records from those rows in
bulk, through block_offsets and generator_runs, without building a
Representation per leaf.  The full box of a rank 4 class is about 131000
rows.  enumerate_reduced yields one Representation per row, and a
Representation is its box row: it lays out its code only when the code
is read, so a caller that reads the class sizes of every leaf and the
code of a few pays for the few.

Minimality searches the same box by branch and bound (_branch_and_bound):
partial class-size sums bound the degree from below, so a subtree is cut
as soon as the partial sum reaches the incumbent.  Its certificate counts
the nodes visited and pruned by a walk that tries every class size.  Only
the few prefixes with a completion below the incumbent are walked try by
try; every other node is counted in bulk, by numpy over the shared prefix
tree and from tables of the pair levels (_pair_tables).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field, make_dataclass
from functools import cache
from itertools import product
from math import comb
from operator import attrgetter
from typing import Iterator, NamedTuple

import numpy as np

from .codes import (
    BinaryCode,
    Codeword,
    InternalInvariantError,
    InvalidCodeError,
    RepType,
    _check_in_range,
    _mask_rank,
)
from .loops import _RANKS, CharVector, LoopClass, build_loop, classify
from .subsets import (
    _SUBSETS,
    _class_tables,
    _max_degree,
    _meet_residues,
    _open_residues,
    _pair_bits,
    _prefix_tree,
)


class _SubsetVector:
    """One integer per generator subset, exposed as named dataclass fields."""

    def as_tuple(self) -> tuple[int, ...]:
        return self._values(self)


class _ParamVector(_SubsetVector):
    @classmethod
    def from_words(cls, *words: Codeword):
        """The meet sizes of a basis, one word per generator."""
        return cls(*_meet_sizes(cls._rank, words))


def _meet_sizes(rank: int, words: tuple[Codeword, ...]) -> tuple[int, ...]:
    """Meet sizes of the words over every nonempty subset of them, in subset order."""
    if len(words) != rank:
        raise TypeError(f"expected {rank} words, got {len(words)}")
    if any(word.degree != words[0].degree for word in words):
        raise InvalidCodeError("meet sizes of words of different degrees")
    return _mask_meets(rank, [word.mask() for word in words])


def _mask_meets(rank: int, masks: list[int]) -> tuple[int, ...]:
    """Popcounts of the ANDs of the masks over every nonempty subset, in subset order."""
    ands = [-1]  # ands[u]: the AND of the masks at the bits of u, by doubling
    for m in masks:
        ands += [a & m for a in ands]
    return tuple(map(int.bit_count, _SUBSETS[rank].in_order(ands)))


def _vector_class(name: str, base: type, prefix: str, labels, rank: int, doc: str):
    fields = [prefix + label for label in labels]
    namespace = {
        "__doc__": doc,
        "__module__": __name__,
        "_values": attrgetter(*fields),
        "_fields": tuple(fields),
        "_rank": rank,
    }
    return make_dataclass(
        name, [(f, int) for f in fields], bases=(base,), namespace=namespace, frozen=True
    )


_PARAMS: dict[int, type] = {}
_SOLUTIONS: dict[int, type] = {}
for _rank in _RANKS:
    _labels = _SUBSETS[_rank].labels
    _PARAMS[_rank] = _vector_class(
        f"ParamVector{_rank}", _ParamVector, "t", _labels, _rank,
        f"Intersection cardinalities of a rank {_rank} basis.",
    )
    _SOLUTIONS[_rank] = _vector_class(
        f"Solution{_rank}", _SubsetVector, "x", _labels[1:], _rank,
        f"Class sizes solving the rank {_rank} system (the top class size is t{_labels[0]}).",
    )
del _rank, _labels
# module-level names, so that pickle finds the classes
ParamVector3, ParamVector4 = _PARAMS[3], _PARAMS[4]
Solution3, Solution4 = _SOLUTIONS[3], _SOLUTIONS[4]


def congruence_targets(cv: CharVector) -> dict[str, tuple[int, int]]:
    """Residue constraints (modulus, residue) on each t entry for a vector.

    The dict view of _meet_residues, keyed "t" + label: a square bit puts
    the weight at 4 mod 8 (else 0 mod 8), a commutator bit the pair meet at
    2 mod 4 (else 0 mod 4), and so on up the ANF of the class form.
    """
    labels = _SUBSETS[cv.rank].labels
    return {"t" + label: target for label, target in zip(labels, zip(*_meet_residues(cv)))}


def solve_system(t, targets: dict[str, tuple[int, int]] | None = None):
    """Class sizes for a parameter vector, or None when infeasible.

    Each class size is its meet minus the class sizes of its strict
    supersets.  Feasibility is every class size in 0..7 and every generator
    of weight at least 4, on top of the residues of every characteristic
    vector (_open_residues) and the target residues when given.
    """
    if targets is not None and any(
        getattr(t, sym) % mod != residue for sym, (mod, residue) in targets.items()
    ):
        return None
    subsets = _SUBSETS[t._rank]
    values = t.as_tuple()
    if any(v % mod != res for v, mod, res in zip(values, *_open_residues(t._rank))):
        return None
    if min(values[-subsets.rank:]) < 4:
        return None
    x: list[int] = []
    for v, above in zip(values, subsets.above):
        x.append(v - sum(x[j] for j in above))
    if any(not 0 <= size <= 7 for size in x):
        return None
    return _SOLUTIONS[t._rank](*x[1:])


solve_system3 = solve_system4 = solve_system


# class layout: consecutive 1-based intervals in a fixed label order; a
# label names the generators containing the class
_LAYOUT3 = ("123", "12", "13", "23", "1", "2", "3")
_LAYOUT4 = (
    "1234", "123", "124", "134",
    "12", "13", "14", "1",
    "234", "23", "24", "2",
    "34", "3", "4",
)


def _blocks(rank: int, layout: tuple[str, ...]) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """The layout as (label, position of its size in (t_top, *x), generators containing the class).

    Each subset must be one block: then the meets of a row x laid out are
    x @ _Subsets.supersets summed in another order, the meets of reduced_box.
    """
    labels = _SUBSETS[rank].labels
    if sorted(layout) != sorted(labels):
        raise InternalInvariantError(f"the rank {rank} class layout is not one block per subset")
    return tuple((label, labels.index(label), tuple(int(c) - 1 for c in label)) for label in layout)


_BLOCKS = {rank: _blocks(rank, layout) for rank, layout in ((3, _LAYOUT3), (4, _LAYOUT4))}


_new = object.__new__
_set = object.__setattr__  # Representation refuses plain assignment


def _vector(cls, values: tuple[int, ...]):
    """The cls(*values) of a subset-vector class, its fields set in one step and not one by one."""
    vector = _new(cls)
    vector.__dict__.update(zip(cls._fields, values))
    return vector


def _fill(rep, target, degree, row, t, generators):
    _set(rep, "target", target)
    _set(rep, "degree", degree)
    _set(rep, "row", row)
    _set(rep, "_t", t)
    _set(rep, "_generators", generators)  # None: laid out from the row on first read
    return rep


class Representation:
    """A reduced representation of a loop class: one row of its reduced box.

    A representation stores its target, its degree, its row (the class
    sizes in subset order, a row of Box.x, row[0] the top meet) and the
    meet sizes t the row fixes.  params, solution and classes (the
    coordinates of each nonempty class in the interval layout) are views
    of the row, and the generators are laid out from it by
    assemble_generators on first read unless they were given.  So a report
    that reads only the class sizes of most leaves never lays them out.

    enumerate_reduced makes its representations from box rows (_from_row).
    Representation(target, params, solution, classes, generators, degree)
    takes the row and t from params and solution and keeps the generators;
    classes is not stored, since the row gives them.  So classes is the
    row's interval layout: it describes the code's classes only when the
    generators are in that layout, as every path of the library makes
    them.  Generators in another coordinate order (a relabeled record,
    say) are kept as given, not refused.  Equality and the hash are over
    the six values, which lays out the code.  Instances are immutable.
    """

    __slots__ = ("target", "degree", "row", "_t", "_generators", "__weakref__")

    def __init__(
        self,
        target: LoopClass,
        params: ParamVector3 | ParamVector4,
        solution: Solution3 | Solution4,
        classes: tuple[tuple[str, tuple[int, ...]], ...] | None,  # read off the row instead
        generators: tuple[Codeword, ...],
        degree: int,
    ):
        t = params.as_tuple()
        # the top class lies in every generator, so its size is its meet
        _fill(self, target, degree, t[:1] + solution.as_tuple(), t, generators)

    @classmethod
    def _from_row(
        cls, target: LoopClass, degree: int, row: tuple[int, ...], t: tuple[int, ...]
    ) -> "Representation":
        """The representation of a box row: class sizes in subset order, then its meets t."""
        return _fill(_new(cls), target, degree, row, t, None)

    @property
    def params(self) -> ParamVector3 | ParamVector4:
        return _vector(_PARAMS[self.target.rank], self._t)

    @property
    def solution(self) -> Solution3 | Solution4:
        return _vector(_SOLUTIONS[self.target.rank], self.row[1:])

    @property
    def classes(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        # the nonempty classes take consecutive coordinates in layout order
        classes, start = [], 0
        for label, position, _ in _BLOCKS[self.target.rank]:
            if size := self.row[position]:
                classes.append((label, tuple(range(start + 1, start + size + 1))))
                start += size
        return tuple(classes)

    @property
    def generators(self) -> tuple[Codeword, ...]:
        if self._generators is None:
            # through the module global, so the rank and meet checks of
            # assemble_generators run on every representation laid out
            full = assemble_generators(self.params, self.solution, self.target)
            if full.degree != self.degree:
                raise InternalInvariantError("laid-out degree differs from the box degree")
            _set(self, "_generators", full._generators)
        return self._generators

    def code(self) -> BinaryCode:
        return BinaryCode(self.degree, self.generators)

    def rep_type(self) -> RepType:
        return RepType(tuple(sorted([size for size in self.row if size])))

    def _astuple(self) -> tuple:
        return (self.target, self.params, self.solution, self.classes, self.generators, self.degree)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as for Codeword
        return Representation, self._astuple()

    def __repr__(self) -> str:
        return (
            f"Representation(target={self.target!r}, degree={self.degree!r}, row={self.row!r})"
        )


def assemble_generators(t, x, target: LoopClass) -> Representation:
    """Materialize the canonical code for a solved parameter vector.

    Classes become consecutive coordinate intervals in the fixed layout
    order (empty classes are skipped), and generator i is the union of the
    classes whose label mentions i.  Raises when the generators come out
    linearly dependent, which only happens for degenerate parameter
    vectors that do not describe a code of full rank.
    """
    rank = target.rank
    t_values = t.as_tuple()
    row = t_values[:1] + x.as_tuple()  # as Representation stores it
    masks = [0] * rank
    start = 0
    for _, position, members in _BLOCKS[rank]:
        if size := row[position]:
            block = ((1 << size) - 1) << start
            for i in members:
                masks[i] |= block
            start += size
    if _mask_rank(masks) != rank:
        raise InvalidCodeError("generators are linearly dependent")
    if _mask_meets(rank, masks) != t_values:
        raise InternalInvariantError("assembled generators do not reproduce t")
    degree = sum(row)
    generators = tuple(Codeword.from_mask(degree, m) for m in masks)
    return _fill(_new(Representation), target, degree, row, t_values, generators)


def _as_loop_class(target: LoopClass | CharVector | str) -> LoopClass:
    if isinstance(target, str):
        from .catalog import parse_loop_id

        return parse_loop_id(target)
    if isinstance(target, LoopClass):
        return target
    return LoopClass.of_vector(target)


@dataclass
class SearchStats:
    # the nodes of a walk that tries each class size in turn, level by
    # level, read from _pair_tables below most prefixes
    visited: int = 0   # class sizes tried across all levels, rank per leaf reached
    pruned: int = 0    # tries and leaves cut by the degree bound
    degenerate: int = 0  # leaves dropped for linearly dependent generators
    # prefixes whose pair levels are walked, not read from tables; not in the certificate
    walked: int = field(default=0, compare=False)


class Box(NamedTuple):
    """The non-degenerate leaves of a reduced box, one row each, in lexicographic t order."""

    x: np.ndarray  # class sizes in subset order (x[:, 0] is the top meet), uint8
    t: np.ndarray  # meet sizes in subset order, uint8
    degree: np.ndarray  # uint8


def _independent(rank: int, x: np.ndarray) -> np.ndarray:
    """Whether the generators laid out from each row of class sizes are independent.

    Generator rank is the rank of the class vectors, the generator sets S
    of the nonempty classes as vectors of GF(2)^k, and they span exactly
    when every nonzero functional is odd on one of them.
    """
    return ((x > 0) @ _SUBSETS[rank].odd > 0).all(axis=1)


def reduced_box(target: LoopClass | CharVector | str, max_degree: int) -> Box:
    """Every reduced representation of a class up to max_degree, as the rows of a Box.

    The rows are the representations enumerate_reduced yields, in the same
    order; the whole box of a rank 4 class is 131072 rows at most.

    The classes of three or more generators take the sizes of one of the
    prefixes every class of the rank shares (_prefix_tree): 2048 at rank 4
    and 4 at rank 3, in depth-first order.  A prefix fixes the rest up to
    one bit per pair class: pair p takes l_p or l_p + 4, with l_p its
    residue mod 4 minus its supersets, and single i is then forced to (r_i
    - w_i - sum of the pairs through i) mod 8, w_i being its prefix
    supersets.  These least sizes and the least completion of every
    prefix are the class's tables (subsets._class_tables), built on the
    first call and read at every cap.  A prefix whose least completion
    exceeds max_degree has none within it and is dropped whole.  Every
    other prefix is completed in one step over the 2^P pair bits, in
    binary order with the first pair on top, which is the depth-first
    order of the branch and bound, that is lexicographic order in t, and
    the completions of degree above max_degree are dropped.

    Rows whose generators are dependent are dropped; they include the
    leaves the branch and bound skips, those with a generator of weight 0
    (every weight is 0 mod 4, so that is weight below 4).  The meets are
    those of the coordinate layout, since it holds each subset once
    (_blocks).
    """
    loop_class = _as_loop_class(target)
    rank = loop_class.rank
    max_degree = _check_in_range(max_degree, "max degree", _max_degree(rank))
    cap = max_degree + 1
    subsets = _SUBSETS[rank]
    pairs, singles = subsets.pairs, subsets.singles
    base, least_pairs, least_singles, completion, _ = _class_tables(loop_class.vector)
    keep = completion < cap
    x = _prefix_tree(rank).sizes[keep]
    base, least_pairs, least_singles = base[keep], least_pairs[keep], least_singles[keep]
    raised, flips, gain, drops = _pair_bits(rank)
    start = base + least_singles.sum(axis=1, dtype=np.int16)  # no pair raised
    high = (least_singles >> 2).astype(np.float32)
    degree = start[:, None] + gain - (high @ drops).astype(np.int16)
    prefix, choice = np.nonzero(degree < cap)
    x = x[prefix]
    x[:, pairs] = least_pairs[prefix] + raised[choice]
    x[:, singles] = least_singles[prefix] ^ flips[choice]
    total = degree[prefix, choice]
    keep = _independent(rank, x)
    x, total = x[keep], total[keep]
    t = (x @ subsets.supersets).astype(np.uint8)  # t_S <= 56
    return Box(x, t, total.astype(np.uint8))


def enumerate_reduced(
    target: LoopClass | CharVector, max_degree: int
) -> Iterator[Representation]:
    """Yield every reduced representation of a class up to max_degree.

    Output order is lexicographic in t.  Each feasible parameter vector
    produces exactly one representation, in canonical interval layout;
    degenerate vectors (dependent generators) are dropped.
    """
    loop_class = _as_loop_class(target)
    return _representations(loop_class, reduced_box(loop_class, max_degree))


def _representations(loop_class: LoopClass, box: Box) -> Iterator[Representation]:
    from_row = Representation._from_row
    rows = zip(box.degree.tolist(), map(tuple, box.x.tolist()), map(tuple, box.t.tolist()))
    for degree, x, t in rows:
        yield from_row(loop_class, degree, x, t)


def block_offsets(rank: int, x: np.ndarray) -> np.ndarray:
    """Coordinate offset of each class block of the layout, then the degree.

    x holds class sizes in subset order, one row per representation; row r
    of the result has the 0-based first coordinate of each block of the
    layout and the degree last, so block p covers coordinates
    offsets[r, p] + 1 .. offsets[r, p + 1].
    """
    sizes = x[:, [position for _, position, _ in _BLOCKS[rank]]]
    offsets = np.zeros((len(x), len(_BLOCKS[rank]) + 1), dtype=np.int16)
    np.cumsum(sizes, axis=1, out=offsets[:, 1:])
    return offsets


def generator_runs(rank: int, nonempty: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The coordinate runs of each generator in the interval layout.

    nonempty has bit p set when block p of the layout holds coordinates.
    A run is a (p, q) pair of block positions: the run covers blocks p to
    q - 1, that is coordinates offsets[p] + 1 .. offsets[q] of
    block_offsets.  Consecutive nonempty blocks of one generator form one
    run, so the runs depend only on which blocks are nonempty.
    """
    runs: list[list[tuple[int, int]]] = [[] for _ in range(rank)]
    previous: tuple[int, ...] = ()  # generators of the last nonempty block
    for p, (_, _, members) in enumerate(_BLOCKS[rank]):
        if not nonempty >> p & 1:
            continue
        for i in members:
            if i in previous:
                runs[i][-1] = (runs[i][-1][0], p + 1)
            else:
                runs[i].append((p, p + 1))
        previous = members
    return tuple(map(tuple, runs))


@cache
def _pair_tables(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """What the branch and bound meets below a prefix of partial degree S, by budget b = cap - S.

    Pair p tries its least size l_p and then l_p + 4, so a node of pair
    level p with h earlier pairs raised has partial degree S + L_p + 4h,
    L_p = l_0 + ... + l_{p-1}, and C(p, h) nodes share it.  With
    reached(p, room) the ways to raise some of p pairs at 4h < room, level
    p has R = reached(p, b - L_p) nodes, of which O = reached(p, b - L_p -
    l_p) take their first try and T = reached(p, b - L_p - l_p - 4) their
    second: R + O visits and R - T prunes.  Each of the reached(P, b - L_P)
    completions adds rank visits, and a prune at a degree of cap or more.
    Three consecutive pairs depend only on their l's and on the budget
    b - L_p0 left to them, so the pairs are counted three at a time.

    Returns the tables of the first three pairs (none at rank 3) and of
    the last three.  A table holds at [:, key, 3P + budget] the visits and
    the prunes, for budgets from -3P up to the largest cap, with key the
    l's of its pairs as a base-4 number, the first pair's on top, and
    every completion pruned.  The class tables (subsets._class_tables)
    hold the two keys of each prefix and the sum of the first three l's.
    """
    subsets = _SUBSETS[rank]
    count = subsets.pairs.stop - subsets.pairs.start
    width = _max_degree(rank) + 2 + 3 * count  # budgets from -3 * count to the largest cap
    # reaching[p, room + 3 * count + 13] = reached(p, room), from the least room met up,
    # read off the most pairs raised with 4h below room
    most = np.clip((np.arange(-3 * count - 13, width - 3 * count) - 1) // 4, -1, count)
    reaching = np.array([[comb(p, h) for h in range(count + 1)] + [0] for p in range(count + 1)])
    reaching = np.c_[reaching[:, :-1].cumsum(axis=1), reaching[:, -1:]][:, most]
    sizes = np.array(list(product(range(4), repeat=3)))
    tables = []
    for pairs in (range(count - 3), range(count - 3, count)):
        least = sizes[:4 ** len(pairs), 3 - len(pairs):]  # row key: the l's of these pairs
        room = np.zeros((len(least), 1), dtype=np.int64) + np.arange(13, width + 13)
        visited, pruned = np.zeros_like(room), np.zeros_like(room)
        for k, p in enumerate(pairs):
            nodes, size = reaching[p, room], least[:, k, None]
            visited += nodes + reaching[p, room - size]
            pruned += nodes - reaching[p, room - size - 4]
            room -= size
        if count - 1 in pairs:
            visited += rank * reaching[count, room]
            pruned += reaching[count, room]
        tables.append(np.stack([visited, pruned]).astype(np.int32))
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


def _branch_and_bound(loop_class: LoopClass, cap: int, stats: SearchStats) -> Representation | None:
    """The last record of a branch and bound over the reduced box below cap.

    Level j tries the sizes of class j, in subset order, that give its
    meet the target residue: least, least + modulus, ... up to 7, so the
    leaves come in lexicographic t order and the singles are forced mod 8.
    A try counts as visited, and as pruned when the partial degree reaches
    cap, which cuts the rest of its level.  A leaf adds rank visits, and a
    prune at a degree of cap or more.  A leaf below cap whose generators
    all weigh 4 or more is laid out by assemble_generators: degenerate
    when they are dependent, else a record, which lowers cap.

    Only a prefix (the classes of three or more generators, _prefix_tree)
    whose least completion is below cap holds a leaf below it.  So the
    prefixes are taken in depth-first order, the next one with a least
    completion below the cap in force found in one step, and its pair
    levels are walked try by try (_walk_pairs), each walk counting in
    stats.walked.  The rest is counted in bulk.  A node of the prefix tree
    meets the cap left by the walks before its first leaf.  Sizes rise
    along siblings and the cap never rises, so a node is reached below
    its cap exactly when its partial degree is, and a level makes those
    tries and one prune when the last child of a reached node is not.  So
    all nodes of the rank's tree are counted at once, from their first
    leaves, partial degrees and last children.  The pair levels below the
    other prefixes reached are read from _pair_tables by their budget.
    The least sizes, least completions and table keys of the prefixes
    are the class's tables (subsets._class_tables), built on the first
    call, so a call makes only the numpy steps that depend on the cap.
    """
    rank = loop_class.rank
    tree = _prefix_tree(rank)
    _, least_pairs, least_singles, completion, keys = _class_tables(loop_class.vector)
    walked, caps, best = [], [cap], None
    start = 0
    while len(hits := np.flatnonzero(completion[start:] < cap)):
        start += int(hits[0])
        record = _walk_pairs(
            loop_class, cap, tree.sizes[start].tolist(), least_pairs[start].tolist(),
            least_singles[start].tolist(), stats,
        )
        if record is not None:
            best, cap = record, record.degree
        walked.append(start)
        caps.append(cap)
        start += 1
    # the cap each node of the prefix tree meets, and whether it is reached below it
    walked, caps = np.array(walked, dtype=np.intp), np.array(caps)
    in_force = caps[np.searchsorted(walked, tree.first)]
    below = tree.partial < in_force
    # a reached node whose last child is not reached makes one prune on its children's level
    cut = np.count_nonzero(below[:len(tree.last)] & ~below[tree.last])
    visited = np.count_nonzero(below[1:]) + cut  # the root is no try
    leaves = slice(len(tree.last), None)
    reached = below[leaves]
    reached[walked] = False  # their pair levels are counted by the walk
    rows = np.flatnonzero(reached)
    budget = (in_force[leaves] - tree.partial[leaves]).take(rows) + 3 * least_pairs.shape[1]
    lead_key, last_key, lead = keys.take(rows, axis=1).astype(np.intp)
    first, final = _pair_tables(rank)
    width = first.shape[2]  # read flat: [:, key, budget] is [:, key * width + budget]
    tabled = (
        first.reshape(2, -1).take(lead_key * width + budget, axis=1)
        + final.reshape(2, -1).take(last_key * width + budget - lead, axis=1)
    ).sum(axis=1)
    stats.visited += int(visited + tabled[0])
    stats.pruned += int(cut + tabled[1])
    stats.walked += len(walked)
    return best


def _walk_pairs(
    loop_class: LoopClass,
    cap: int,
    x: list[int],
    least_pairs: list[int],
    least_singles: list[int],
    stats: SearchStats,
) -> Representation | None:
    """The last record below one prefix, its pair levels walked try by try.

    x holds the class sizes of the prefix in subset order, and the least
    sizes are those of _least_sizes.  Pair p tries l_p, then l_p + 4, which
    changes by 4 each single in it: up from below 4, else down.  The tries
    and leaves are counted and laid out as _branch_and_bound says, and a
    record lowers cap for the rest of the walk.
    """
    rank = loop_class.rank
    subsets = _SUBSETS[rank]
    start, singles, masks = subsets.pairs.start, subsets.singles, subsets.masks
    last = len(least_pairs) - 1
    # the singles below 4, a bit per generator, and the singles' degree with no pair raised
    low, base = sum(1 << i for i, size in enumerate(least_singles) if size < 4), sum(least_singles)
    visited = pruned = 0
    best = None

    def descend(p: int, partial: int, flips: int) -> None:
        nonlocal cap, best, visited, pruned
        for raised in (0, 4):
            size = least_pairs[p] + raised
            visited += 1
            if partial + size >= cap:
                pruned += 1
                return
            x[start + p] = size
            changed = flips ^ masks[start + p] if raised else flips
            if p < last:
                descend(p + 1, partial + size, changed)
                continue
            # a leaf: its changed singles below 4 rise by 4, the others fall by 4
            visited += rank
            rise = (changed & low).bit_count()
            degree = partial + size + base + 4 * (2 * rise - changed.bit_count())
            if degree >= cap:
                pruned += 1
                continue
            x[singles] = [v ^ (changed >> i & 1) * 4 for i, v in enumerate(least_singles)]
            t = (np.array(x, dtype=np.float32) @ subsets.supersets).astype(int).tolist()
            if min(t[singles]) >= 4:
                params, solution = _PARAMS[rank](*t), _SOLUTIONS[rank](*x[1:])
                try:
                    best = assemble_generators(params, solution, loop_class)
                except InvalidCodeError:
                    stats.degenerate += 1
                else:
                    cap = degree

    descend(0, sum(x), 0)
    stats.visited += visited
    stats.pruned += pruned
    return best


@dataclass(frozen=True)
class MinimalityCertificate:
    """Witness that the whole reduced box was searched for smaller degrees."""

    target: LoopClass
    degree: int
    visited: int
    pruned: int
    degenerate: int
    exhausted: bool = True


def minimal_representation(
    target: LoopClass | CharVector,
) -> tuple[Representation, MinimalityCertificate]:
    """Least-degree reduced representation, with the search certificate.

    Branch and bound over the full reduced box: the incumbent degree caps
    the walk, and partial class-size sums prune whole subtrees.  Ties on
    degree resolve to the lexicographically least t.
    """
    loop_class = _as_loop_class(target)
    stats = SearchStats()
    best = _branch_and_bound(loop_class, _max_degree(loop_class.rank) + 1, stats)
    if best is None:
        raise InternalInvariantError(f"no reduced representation found for {loop_class}")
    return best, MinimalityCertificate(
        loop_class, best.degree, stats.visited, stats.pruned, stats.degenerate
    )


def verify_representation(rep: Representation) -> bool:
    """Full check: doubly even code, Moufang loop, classifies to the target."""
    code = rep.code()
    if not code.is_doubly_even():
        return False
    loop = build_loop(code)
    if not loop.is_moufang():
        return False
    try:
        return classify(loop) == rep.target
    except InvalidCodeError:
        return False
