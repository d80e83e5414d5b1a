"""Coordinate-permutation isomorphism of binary codes.

Two codes of equal degree are isomorphic when some permutation of the
coordinates carries the span of one onto the span of the other.

Reduced representations of one loop class L (the rows of
search.reduced_box) are told apart by an orbit key instead of a search.
Give each coordinate the set S of generators that contain it; the class
sizes x_S then fix the code up to coordinate permutation.  A change of
basis B moves the class of S to the class of B.S, and the box point of
the new basis is the same code.  When the new basis is admissible with
vector L it is again a point of L's box, and two box points are isomorphic
codes exactly when one is the other composed with such a B.  Those B form
a group H_L that depends on L alone (box_stabilizer), so the isomorphism
class of a box point is its H_L-orbit, and a code is isomorphic to another
iff its packed class sizes are among the packed images of the other's.

code_isomorphism decides isomorphism of arbitrary codes: it is the engine
of the iso command and the independent cross-check of the orbit key.
Since coordinates in one class are interchangeable, it searches over
class-to-class bijections instead of raw coordinate permutations: each
span element is a union of classes, so a permutation exists iff some
size-preserving class bijection maps the class patterns of one span onto
the other's.  Invariants screen a pair first.  The search then runs depth
first over class bijections, cut by a class-profile screen and an
incrementally kept projection of the patterns (see _match_classes); both
cuts are necessary conditions, so the witness is the first valid bijection
in depth-first order, the same as an unscreened search finds.  The
per-code search data is computed once and kept on the BinaryCode, like its
span, so a code tested against many others pays for it once.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .codes import BinaryCode, Codeword, InternalInvariantError, _coordinates
from .loops import CharVector, LoopClass, admissible_bases
from .search import _SUBSETS

# invariant checks tried before any search, cheapest first; the name is the
# reported reason when codes are told apart
INVARIANTS = (
    ("degree", lambda c: c.degree),
    ("dimension", lambda c: c.dimension),
    ("weight enumerator", lambda c: c.weight_enumerator()),
    ("type", lambda c: c.rep_type()),
)


def distinguishing_invariant(a: BinaryCode, b: BinaryCode) -> str | None:
    for name, fn in INVARIANTS:
        if fn(a) != fn(b):
            return name
    return None


class _ClassData(NamedTuple):
    """Classes of one code in search order, with their span incidence."""

    classes: tuple[tuple[int, ...], ...]  # sorted coordinates of each class
    patterns: tuple[int, ...]  # span element x as a bitmask over class indices
    profiles: tuple[tuple[int, ...], ...]  # size, then sorted weights of the words holding the class
    residue: tuple[int, ...]  # coordinates outside every class


def _class_data(code: BinaryCode) -> _ClassData:
    """The search data of a code, computed once and kept on the code.

    Classes are ordered by (size, span-incidence vector), the order in which
    the search assigns them.  Each span element becomes the bitmask of the
    classes it contains; a class's profile is its size followed by the
    sorted weights of the span elements that contain it.
    """
    if code._class_data is None:
        part = code.coordinate_classes()
        span = code.span_masks()
        weights = [m.bit_count() for m in span]
        incidence = {}
        for c in part.classes:
            bit = min(c) - 1
            incidence[c] = [m >> bit & 1 for m in span]
        order = sorted(part.classes, key=lambda c: (len(c), incidence[c]))
        rows = [incidence[c] for c in order]
        code._class_data = _ClassData(
            classes=tuple(tuple(sorted(c)) for c in order),
            patterns=tuple(
                sum(1 << ci for ci, row in enumerate(rows) if row[x]) for x in range(len(weights))
            ),
            profiles=tuple(
                (len(c), *sorted(weight for weight, hit in zip(weights, row) if hit))
                for c, row in zip(order, rows)
            ),
            residue=tuple(sorted(part.residue)),
        )
    return code._class_data


def code_isomorphism(a: BinaryCode, b: BinaryCode) -> tuple[int, ...] | None:
    """A permutation of 1..m carrying span(a) onto span(b), or None.

    The result p is 1-based: coordinate i of a maps to p[i-1] in b.  It is
    built from the first valid class bijection in the depth-first order of
    _match_classes, class by class in sorted coordinate order, with the
    residues matched in sorted order.
    """
    if distinguishing_invariant(a, b) is not None:
        return None
    da = _class_data(a)
    db = _class_data(b)
    sigma = _match_classes(da, db)
    if sigma is None:
        return None
    perm = [0] * a.degree
    for ai, bi in enumerate(sigma):
        for src, dst in zip(da.classes[ai], db.classes[bi]):
            perm[src - 1] = dst
    for src, dst in zip(da.residue, db.residue):
        perm[src - 1] = dst
    _check_permutation(a, b, perm)
    return tuple(perm)


def _match_classes(a: _ClassData, b: _ClassData) -> list[int] | None:
    """The first pattern-preserving class bijection in depth-first order.

    Classes of a are assigned in index order; class ai is tried against the
    unused classes of b in index order, and entry ai of the result is its
    image.  Two screens cut the tree, and both are necessary conditions,
    so the first valid bijection found is the same as with no screen:

    - profile: a candidate class must have the profile of class ai, since
      a span-preserving permutation maps the words holding a class onto
      the words holding its image, weight for weight;
    - projection: the patterns of a, mapped through the classes assigned so
      far, must agree as a multiset with the patterns of b restricted to
      their images, or no extension can map one pattern set onto the other.

    a and b come from codes of one dimension, and a pair whose profile
    multisets differ is rejected before the search.  The projection is kept
    incrementally, one image int per pattern on each side, and checked
    through the patterns a step moves.  Before class ai goes to bi the
    projections agree (at the root every image is 0), and no image holds
    bit bi yet; the step sets that bit in the images of the patterns
    holding ai (on a's side) and bi (on b's side) and leaves the others
    alone.  So the projections agree after the step exactly when the moved
    images agree as multisets before it, and a candidate is compared on
    those alone.
    """
    if sorted(a.profiles) != sorted(b.profiles):
        return None
    n = len(a.classes)
    candidates = [[bi for bi in range(n) if b.profiles[bi] == p] for p in a.profiles]
    holders_a = [[x for x, pat in enumerate(a.patterns) if pat >> ci & 1] for ci in range(n)]
    holders_b = [[x for x, pat in enumerate(b.patterns) if pat >> ci & 1] for ci in range(n)]
    image_a = [0] * len(a.patterns)  # pattern of a, mapped through the assigned classes
    image_b = [0] * len(b.patterns)  # pattern of b, restricted to the assigned images
    assigned: list[int] = []
    used = [False] * n

    def extend() -> bool:
        ai = len(assigned)
        if ai == n:
            return True
        moved_a = sorted([image_a[x] for x in holders_a[ai]])
        for bi in candidates[ai]:
            if used[bi] or sorted([image_b[x] for x in holders_b[bi]]) != moved_a:
                continue
            bit = 1 << bi
            for x in holders_a[ai]:
                image_a[x] |= bit
            for x in holders_b[bi]:
                image_b[x] |= bit
            assigned.append(bi)
            used[bi] = True
            if extend():
                return True
            used[bi] = False
            assigned.pop()
            for x in holders_a[ai]:
                image_a[x] ^= bit
            for x in holders_b[bi]:
                image_b[x] ^= bit
        return False

    return assigned if extend() else None


def _check_permutation(a: BinaryCode, b: BinaryCode, perm: list[int]) -> None:
    if sorted(perm) != list(range(1, a.degree + 1)):
        raise InternalInvariantError("isomorphism witness is not a permutation")
    # a coordinate permutation commutes with xor, so it maps span(a) onto
    # the span of the images of a's generators
    image = permute_code(a, tuple(perm))
    if not set(b.span_masks()).issuperset(image.span_masks()):
        raise InternalInvariantError("isomorphism witness does not map span to span")


def permute_word(w: Codeword, perm: tuple[int, ...]) -> Codeword:
    # the constructor checks every image coordinate against the degree
    return Codeword(w.degree, [perm[i - 1] for i in _coordinates(w.mask())])


def permute_code(code: BinaryCode, perm: tuple[int, ...]) -> BinaryCode:
    return BinaryCode(code.degree, [permute_word(g, perm) for g in code.generators])


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Render a 1-based permutation in cycle form, fixed points omitted."""
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt - 1]
        if len(cycle) > 1:
            out.append("(" + " ".join(str(i) for i in cycle) + ")")
    return "".join(out) if out else "()"


# ---------------------------------------------------------------------------
# the stabilizer of a reduced box


def _asc(u: int, v: int, w: int) -> int:
    """Associator bit of three span words of a basis with a catalog vector.

    The first three basis words associate to -1 and any associator through
    the fourth is trivial.  The associator bit |u & v & w| mod 2 is
    trilinear and vanishes on a repeated word, so it is the determinant of
    u, v, w on the first three coordinates, here expanded along u.  The
    arguments may be numpy arrays, which broadcast.
    """
    return (
        u & (v >> 1 & w >> 2 ^ v >> 2 & w >> 1)
        ^ u >> 1 & (v >> 2 & w ^ v & w >> 2)
        ^ u >> 2 & (v & w >> 1 ^ v >> 1 & w)
    ) & 1


def _word_signs(cv: CharVector) -> tuple[list[int], list[list[int]], list[list[list[int]]]]:
    """Square, commutator and associator bits of every span word of a basis with vector cv.

    Span word u has bit i set when it holds basis word i.  The associator
    bits are _asc over all triples.  The others follow from the basis bits
    by splitting off one basis word e at a time:
    cm(u + e, w) = cm(u, w) + cm(e, w) + asc(u, e, w) and
    sq(u + e) = sq(u) + sq(e) + cm(u, e), with cm(e, e) = 0.
    """
    k = cv.rank
    n = 1 << k
    x = np.arange(n)
    asc = _asc(x[:, None, None], x[None, :, None], x[None, None, :]).tolist()
    cm = [[0] * n for _ in range(n)]
    for (i, j), bit in zip(combinations(range(k), 2), cv.commutators):
        cm[1 << i][1 << j] = cm[1 << j][1 << i] = bit
    for i in range(k):
        e = 1 << i
        for w in range(1, n):
            rest = w & (w - 1)
            if rest:
                cm[e][w] = cm[e][rest] ^ cm[e][w ^ rest] ^ asc[rest][w ^ rest][e]
    sq = [0] * n
    for u in range(1, n):
        rest = u & (u - 1)
        e = u ^ rest
        sq[u] = sq[rest] ^ cv.squares[e.bit_length() - 1] ^ cm[rest][e]
        if rest:
            cm[u] = [cm[rest][w] ^ cm[e][w] ^ asc[rest][e][w] for w in range(n)]
    return sq, cm, asc


@functools.lru_cache(maxsize=None)
def box_stabilizer(loop_class: LoopClass) -> np.ndarray:
    """H_L: the changes of basis that keep a class's vector, as maps on its box.

    The rows v_1..v_k of a B in GL(k, 2), read as span words of a box point
    of class L, form an admissible basis with vector L.  Admissibility and
    the vector read only sign bits of span words, which L fixes
    (_word_signs), so the B are found once per class by
    loops.admissible_bases, in ascending order of (v_1, ..., v_k); the
    identity comes first.

    Row h of the result is B as a map on the subset positions of
    search._SUBSETS: if x holds the class sizes of a box point, x[h] holds
    those of the same code in basis B, which is again a box point of L.
    The x[h] over all rows h are the box points isomorphic to x.  The array
    is uint8, read-only, and built on first use for each class.
    """
    k = loop_class.rank
    cv = loop_class.vector
    bases = [basis for basis, _ in admissible_bases(*_word_signs(cv), [cv])]
    # all values below 16, so uint8 keeps the arrays for 1344 bases small
    vectors = np.array([sum(1 << i for i in s) for s in _SUBSETS[k].sets], dtype=np.uint8)
    position = np.zeros(1 << k, dtype=np.uint8)
    position[vectors] = np.arange(len(vectors))
    # class S of the old basis lies in new generator j iff v_j meets S oddly
    meets = np.array(bases, dtype=np.uint8)[:, :, None] & vectors
    odd = np.array([v.bit_count() & 1 for v in range(1 << k)], dtype=np.uint8)[meets]
    images = position[np.bitwise_or.reduce(odd << np.arange(k, dtype=np.uint8)[:, None], axis=1)]
    # h[images[i]] = i: the inverse permutation
    maps = np.argsort(images, axis=1).astype(np.uint8)
    maps.setflags(write=False)
    return maps
