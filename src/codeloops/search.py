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

The characteristic vector puts each t_S in a residue class that depends
only on |S|: weights mod 8 (the squares), pair meets mod 4 (the
commutators), the meet of 123 odd and the other triple meets even (the
associators), and the quadruple meet free.  A representation is reduced
when every class has fewer than 8 coordinates, so the reduced space is a
finite box.  It is searched one class size at a time in subset order,
which is lexicographic order in t: each size steps through the residue
class its meet needs, and the singles come out forced mod 8.  The classes
are then laid out as consecutive coordinate intervals.

Listing the box below a degree cap (enumerate_reduced, reduced_box) is one
numpy walk that expands all partial rows a level at a time and returns the
class sizes, meets and degrees of every leaf as small integer arrays; the
command line formats enumerate records from those rows in bulk, through
block_offsets and generator_runs, without building a Representation per
leaf.  The full box of a rank 4 class is about 131000 rows.

Minimality searches the same box leaf by leaf with branch and bound
(_scan): partial class-size sums bound the degree from below, so a subtree
is cut as soon as the partial sum reaches the incumbent, and the nodes
visited and pruned form its certificate.  _scan is also the order oracle
of the walk in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from functools import reduce
from itertools import combinations
from operator import and_, attrgetter, itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .codes import (
    BinaryCode,
    Codeword,
    InternalInvariantError,
    InvalidCodeError,
    RepType,
    _mask_rank,
)
from .loops import CharVector, LoopClass, build_loop, classify


def _screen(s: tuple[int, ...]) -> tuple[int, int]:
    """(modulus, residue) of t_S in every representation of a catalog class.

    Weights are 0 mod 4 and pair meets even in any doubly even code; the
    first three basis words associate to -1 (odd triple meet) and the
    fourth is nuclear (even triple meets through it).
    """
    return {1: (4, 0), 2: (2, 0), 3: (2, int(s == (0, 1, 2))), 4: (1, 0)}[len(s)]


class _Subsets:
    """The nonempty generator subsets of one rank, in scan order."""

    def __init__(self, rank: int):
        self.rank = rank
        self.sets = tuple(
            s for size in range(rank, 0, -1) for s in combinations(range(rank), size)
        )
        self.labels = tuple("".join(str(i + 1) for i in s) for s in self.sets)
        self.screens = tuple(map(_screen, self.sets))
        self.meets = tuple(itemgetter(*s) for s in self.sets if len(s) > 1)
        # positions of the strict supersets and strict subsets of each subset
        self.above = tuple(
            tuple(j for j, u in enumerate(self.sets) if set(s) < set(u)) for s in self.sets
        )
        self.below = tuple(
            tuple(j for j, u in enumerate(self.sets) if set(u) < set(s)) for s in self.sets
        )
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


_SUBSETS = {rank: _Subsets(rank) for rank in (3, 4)}


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
    # the singles come last, in generator order
    return (
        *[reduce(and_, get(masks)).bit_count() for get in _SUBSETS[rank].meets],
        *[m.bit_count() for m in masks],
    )


def _vector_class(name: str, base: type, prefix: str, labels, rank: int, doc: str):
    fields = [prefix + label for label in labels]
    namespace = {
        "__doc__": doc,
        "__module__": __name__,
        "_values": attrgetter(*fields),
        "_rank": rank,
    }
    return make_dataclass(
        name, [(f, int) for f in fields], bases=(base,), namespace=namespace, frozen=True
    )


ParamVector3 = _vector_class(
    "ParamVector3", _ParamVector, "t", _SUBSETS[3].labels, 3,
    "Intersection cardinalities of a rank 3 basis.",
)
ParamVector4 = _vector_class(
    "ParamVector4", _ParamVector, "t", _SUBSETS[4].labels, 4,
    "Intersection cardinalities of a rank 4 basis.",
)
Solution3 = _vector_class(
    "Solution3", _SubsetVector, "x", _SUBSETS[3].labels[1:], 3,
    "Class sizes solving the rank 3 system (the triple class size is t123).",
)
Solution4 = _vector_class(
    "Solution4", _SubsetVector, "x", _SUBSETS[4].labels[1:], 4,
    "Class sizes solving the rank 4 system (the quadruple class size is t1234).",
)
_PARAMS = {3: ParamVector3, 4: ParamVector4}
_SOLUTIONS = {3: Solution3, 4: Solution4}


def congruence_targets(cv: CharVector) -> dict[str, tuple[int, int]]:
    """Residue constraints (modulus, residue) on each t entry for a vector.

    A square bit forces the word weight to 4 mod 8 (else 0 mod 8); a
    commutator bit forces the pair meet to 2 mod 4 (else 0 mod 4).  The
    first triple meet is odd; at rank 4 the triples through the nuclear
    word are even and the quadruple meet is free.
    """
    subsets = _SUBSETS[cv.rank]
    commutators = dict(zip(combinations(range(cv.rank), 2), cv.commutators))
    targets = {}
    for s, label in zip(subsets.sets, subsets.labels):
        if len(s) == 1:
            targets["t" + label] = (8, 4 * cv.squares[s[0]])
        elif len(s) == 2:
            targets["t" + label] = (4, 2 * commutators[s])
        else:
            targets["t" + label] = _screen(s)
    return targets


def _meets_targets(t, targets: dict[str, tuple[int, int]]) -> bool:
    for sym, (mod, residue) in targets.items():
        if getattr(t, sym) % mod != residue:
            return False
    return True


def solve_system(t, targets: dict[str, tuple[int, int]] | None = None):
    """Class sizes for a parameter vector, or None when infeasible.

    Each class size is its meet minus the class sizes of its strict
    supersets.  Feasibility is every class size in 0..7 and every generator
    of weight at least 4, on top of the residues every catalog class shares
    (and the target residues when given).
    """
    if targets is not None and not _meets_targets(t, targets):
        return None
    subsets = _SUBSETS[t._rank]
    values = t.as_tuple()
    if any(v % mod != res for v, (mod, res) in zip(values, subsets.screens)):
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
# per rank, the layout as (label, position of its size in (t_top, *x),
# generators containing the class)
_BLOCKS = {
    rank: tuple(
        (label, _SUBSETS[rank].labels.index(label), tuple(int(ch) - 1 for ch in label))
        for label in layout
    )
    for rank, layout in ((3, _LAYOUT3), (4, _LAYOUT4))
}
# per rank, the positions of the layout's blocks in (t_top, *x) and which
# subsets' meets each block counts toward
_LAYOUT_MEETS = {
    rank: (
        [position for _, position, _ in blocks],
        np.array(
            [[set(s) <= set(members) for s in _SUBSETS[rank].sets] for _, _, members in blocks],
            dtype=np.float32,  # as _Subsets.supersets
        ),
    )
    for rank, blocks in _BLOCKS.items()
}


@dataclass(frozen=True)
class Representation:
    """A reduced representation: a concrete code plus its search data."""

    target: LoopClass
    params: ParamVector3 | ParamVector4
    solution: Solution3 | Solution4
    classes: tuple[tuple[str, tuple[int, ...]], ...]  # nonempty (label, coords)
    generators: tuple[Codeword, ...]
    degree: int

    def code(self) -> BinaryCode:
        return BinaryCode(self.degree, self.generators)

    def rep_type(self) -> RepType:
        return RepType(tuple(sorted([len(c) for _, c in self.classes])))


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
    # the top class lies in every generator, so its size is its meet
    sizes = t_values[:1] + x.as_tuple()
    classes: list[tuple[str, tuple[int, ...]]] = []
    masks = [0] * rank
    degree = 0  # coordinates laid out so far
    for label, position, members in _BLOCKS[rank]:
        size = sizes[position]
        if size == 0:
            continue
        classes.append((label, tuple(range(degree + 1, degree + size + 1))))
        block = ((1 << size) - 1) << degree
        for i in members:
            masks[i] |= block
        degree += size
    if _mask_rank(masks) != rank:
        raise InvalidCodeError("generators are linearly dependent")
    if _mask_meets(rank, masks) != t_values:
        raise InternalInvariantError("assembled generators do not reproduce t")
    return Representation(
        target=target,
        params=t,
        solution=x,
        classes=tuple(classes),
        generators=tuple(Codeword.from_mask(degree, m) for m in masks),
        degree=degree,
    )


def _as_loop_class(target: LoopClass | CharVector | str) -> LoopClass:
    if isinstance(target, str):
        from .catalog import parse_loop_id

        return parse_loop_id(target)
    if isinstance(target, LoopClass):
        return target
    return LoopClass.of_vector(target)


@dataclass
class SearchStats:
    visited: int = 0   # candidate class sizes tried across all levels
    pruned: int = 0    # subtrees cut by the degree bound
    degenerate: int = 0  # leaves dropped for linearly dependent generators


def _scan(target: LoopClass, cap: int, stats: SearchStats):
    """Walk the reduced box of a class in lexicographic t order below cap.

    Level j assigns the class size x[j] of subset j, in subset order.  The
    meet of subset j is x[j] plus the sizes already assigned to its strict
    supersets, so the target residue of the meet fixes x[j] modulo the
    target modulus: a level steps through at most eight values, and the
    singles, last, are forced mod 8.  Every value tried counts as visited;
    a partial degree reaching cap cuts the rest of its level and counts
    as pruned.  Leaves with a generator of weight 0 are skipped uncounted.
    A caller may lower cap by sending the new value in reply to a yield.

    The superset sums are kept in one int, a byte per subset: byte j holds
    128 + residue_j minus the sizes assigned to strict supersets of j (at
    most seven of them, of at most 7 each, so every byte stays in 79..135).
    Assigning a size subtracts it from the bytes of all strict subsets in
    one step, and since every modulus is a power of 2 dividing 128, the low
    bits of byte j are the least admissible x[j].  The counters are kept in
    locals and added to stats when the walk ends or is closed.
    """
    subsets = _SUBSETS[target.rank]
    params, solution = _PARAMS[target.rank], _SOLUTIONS[target.rank]
    targets = congruence_targets(target.vector)
    moduli, residues = zip(*(targets["t" + label] for label in subsets.labels))
    n = len(moduli)
    last = n - subsets.rank - 1  # the last level before the singles
    shifts = [8 * j for j in range(n)]
    below = [sum(1 << shifts[j] for j in js) for js in subsets.below]
    low = [mod - 1 for mod in moduli]
    singles = range(last + 1, n)
    packed = sum((128 + r) << sh for r, sh in zip(residues, shifts))
    x = [0] * n
    total = 0  # sum of the sizes assigned above this level
    level = 0
    size = packed & low[0]  # the next value to try at this level
    visited = pruned = 0
    try:
        while True:
            if size < 8:
                visited += 1
                s = total + size
                if s < cap:
                    x[level] = size
                    if level < last:
                        packed -= size * below[level]
                        total = s
                        level += 1
                        size = packed >> shifts[level] & low[level]
                        continue
                    p = packed - size * below[level]
                    degree = s
                    for j in singles:
                        x[j] = v = p >> shifts[j] & 7
                        degree += v
                    visited += subsets.rank
                    if degree >= cap:
                        pruned += 1
                    else:
                        t = [v + 128 + r - (p >> sh & 255) for v, r, sh in zip(x, residues, shifts)]
                        if min(t[last + 1:]) >= 4:
                            sent = yield params(*t), solution(*x[1:]), degree
                            if sent is not None:
                                cap = sent
                    size += moduli[level]
                    continue
                pruned += 1
            # the level is exhausted or cut: resume the level above
            if level == 0:
                break
            level -= 1
            size = x[level]
            packed += size * below[level]
            total -= size
            size += moduli[level]
    finally:
        stats.visited += visited
        stats.pruned += pruned


class Box(NamedTuple):
    """The non-degenerate leaves of a reduced box, one row each, in _scan's order."""

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


# partial rows expanded together; more are split into batches of this size,
# which bounds the walk's arrays without slowing the walk of a small box
_MAX_ROWS = 4096


def _expand(x: np.ndarray, total: np.ndarray, levels, cap: int):
    """Every admissible completion of the partial rows over levels.

    x holds the class sizes assigned so far and total their sum.  A level
    is (j, positions of the strict supersets of j, modulus, residue).  The
    candidates of a row are least, least + m, ... up to 7, those that keep
    the degree below cap; taking them row by row keeps the rows in
    depth-first order.
    """
    for k, (j, above, mod, residue) in enumerate(levels):
        if len(x) > _MAX_ROWS:
            parts = [
                _expand(x[i:i + _MAX_ROWS], total[i:i + _MAX_ROWS], levels[k:], cap)
                for i in range(0, len(x), _MAX_ROWS)
            ]
            return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
        least = (residue - x[:, above].sum(axis=1, dtype=np.int16)) % mod
        sizes = least[:, None] + np.arange(0, 8, mod, dtype=np.int16)  # all below 8
        rows, nth = np.nonzero(sizes < cap - total[:, None])
        chosen = sizes[rows, nth]
        x, total = x[rows], total[rows] + chosen
        x[:, j] = chosen
    return x, total


def _walk(target: LoopClass, cap: int) -> Box:
    """Every leaf _scan yields below cap, minus the degenerate ones, as arrays.

    The box is expanded one level at a time instead of one leaf at a time.
    At level j each row's least admissible size is (r_j - superset sum)
    mod m_j, and its candidates step by m_j while they stay below 8 and
    keep the partial degree below cap; taking each row's candidates in
    turn keeps the rows in depth-first order, which is lexicographic order
    in t.  The singles come out forced.  Rows whose generators are
    dependent are dropped; they include the leaves _scan skips, those with
    a generator of weight 0 (every weight is 0 mod 4, so that is weight
    below 4).  The meets are checked against the coordinate layout, as
    assemble_generators checks them per leaf.
    """
    rank = target.rank
    subsets = _SUBSETS[rank]
    targets = congruence_targets(target.vector)
    levels = [
        (j, list(subsets.above[j]), *targets["t" + label])
        for j, label in enumerate(subsets.labels)
    ]
    n = len(levels)
    x, total = _expand(np.zeros((1, n), dtype=np.uint8), np.zeros(1, dtype=np.int16), levels, cap)
    keep = _independent(rank, x)
    x, total = x[keep], total[keep]
    t = (x @ subsets.supersets).astype(np.uint8)  # t_S <= 56
    # t_S again, as the sum of the blocks whose generators include S
    positions, contains = _LAYOUT_MEETS[rank]
    if not np.array_equal(x[:, positions] @ contains, t):
        raise InternalInvariantError("walked meets do not match the class layout")
    return Box(x, t, total.astype(np.uint8))


def _max_degree(rank: int) -> int:
    """Degree of the largest reduced representation: 7 per class."""
    return 7 * (2**rank - 1)


def reduced_box(target: LoopClass | CharVector | str, max_degree: int) -> Box:
    """Every reduced representation of a class up to max_degree, as the rows of a Box.

    The rows are the representations enumerate_reduced yields, in the same
    order; the whole box of a rank 4 class is 131072 rows at most.
    """
    loop_class = _as_loop_class(target)
    limit = _max_degree(loop_class.rank)
    if not 1 <= max_degree <= limit:
        raise InvalidCodeError(f"max degree {max_degree} out of range 1..{limit}")
    return _walk(loop_class, max_degree + 1)


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
    params, solution = _PARAMS[loop_class.rank], _SOLUTIONS[loop_class.rank]
    for t, x in zip(box.t.tolist(), box.x.tolist()):
        yield assemble_generators(params(*t), solution(*x[1:]), loop_class)


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
    best: Representation | None = None
    scan = _scan(loop_class, _max_degree(loop_class.rank) + 1, stats)
    # each step resumes the scan with send(bound): None after a degenerate
    # leaf, the new incumbent's degree (the lowered cap) after a found one;
    # the StopIteration that ends the scan ends the loop
    bound = None
    for t, x, degree in iter(lambda: scan.send(bound), None):
        bound = None
        try:
            rep = assemble_generators(t, x, loop_class)
        except InvalidCodeError:
            stats.degenerate += 1
            continue
        best = rep
        bound = degree
    if best is None:
        raise InternalInvariantError(f"no reduced representation found for {loop_class}")
    certificate = MinimalityCertificate(
        target=loop_class,
        degree=best.degree,
        visited=stats.visited,
        pruned=stats.pruned,
        degenerate=stats.degenerate,
    )
    return best, certificate


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
