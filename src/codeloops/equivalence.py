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
the stabilizer H_L of L's squaring form (box_stabilizer), so the
isomorphism class of a box point is its H_L-orbit: a box point is
isomorphic to another iff its packed class sizes (_pack) are among the
other's orbit key, its packed images (_packed_images), one matrix product
W @ x with W the orbit weights of the class (orbit_weights).

code_isomorphism decides isomorphism of arbitrary codes: it is the engine
of the iso command and the independent cross-check of the orbit key.
Since coordinates in one class are interchangeable, it searches over
class-to-class bijections instead of raw coordinate permutations: each
span element is a union of classes, so a permutation exists iff some
size-preserving class bijection maps the class patterns of one span onto
the other's.  Invariants screen a pair first.  The search then runs depth
first over class bijections, cut by a class-profile screen and a screen on
the linear relations of the class signatures (bit j: generator j holds the
class; see _match_classes).  Both cuts are necessary conditions, so the
witness is the first valid bijection in depth-first order, the same as an
unscreened search finds.

The relation screen rests on a kernel lemma.  Span word x holds the class
of signature s iff |x & s| is odd, so the classes a word holds, restricted
to some classes c, are the image of x under the linear map
x -> (|x & s_c| mod 2)_c.  Every image is hit by the 2^(k-r) words of a
coset of its kernel (r the rank of the map), so two such projections agree
as multisets exactly when their images are one subspace, and that is when
the signatures satisfy the same linear relations over GF(2).  The
projection screen this replaced compared those multisets at every node;
the relation screen makes the same decision with one xor-basis reduction
or one dict lookup, so the search tree and the witness are unchanged.

The per-code search data comes from the class masks and signatures of
coordinate_classes, not from the span read coordinate by coordinate: the
class order and the class profiles follow from the signatures and the span
weights (see _class_data).  A profile is gathered from the span weights
through one itemgetter per dimension and signature, read with the
signature's sort key from one cached tuple per dimension.  Classes stay
int masks through the search, so no coordinate is touched until the
witness is written out: the lowest set bits of each matched pair of masks
are peeled together.  The data is computed once and kept on the
BinaryCode, like its span, so a code tested against many others pays for
it once.  The witness is checked on the generator masks, each set bit
mapped to its image bit: the images must lie in the other span.
"""

from __future__ import annotations

import functools
from operator import itemgetter, mul
from typing import Callable, NamedTuple

import numpy as np

from .codes import BinaryCode, Codeword, InternalInvariantError, InvalidCodeError, _coordinates
from .loops import _RANKS, LoopClass, _class_form
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
    """Classes of one code in search order, with their generator signatures."""

    classes: tuple[int, ...]  # the coordinates of each class, as a mask
    signatures: tuple[int, ...]  # bit j set iff generator j holds the class
    profiles: tuple[tuple[int, ...], ...]  # size, then sorted weights of the words holding the class
    residue: int  # the coordinates outside every class, as a mask


# the getters of the 502 signatures of dimension at most 8 are tabulated; above
# that a class's holders are listed afresh, as a table would hold 2^k x 2^(k-1) words
_CACHED_DIMENSION = 8


def _holders(k: int, sig: int) -> tuple[int, ...]:
    """The span words x < 2^k that hold the class of signature sig: |x & sig| odd."""
    return tuple([x for x in range(1 << k) if (x & sig).bit_count() & 1])


def _gather(holders: tuple[int, ...]) -> Callable[[list[int]], tuple[int, ...]]:
    """A getter of the entries at holders, as a tuple even for one holder."""
    if len(holders) == 1:  # only at k = 1; itemgetter of one index gives a scalar
        (x,) = holders
        return lambda weights: (weights[x],)
    return itemgetter(*holders)


def _incidence_key(k: int, sig: int) -> int:
    """The k bits of sig in reverse order: signatures sort by it as their incidence vectors do."""
    return int(f"{sig:0{k}b}"[::-1], 2) if k else 0


@functools.lru_cache(maxsize=_CACHED_DIMENSION + 1)
def _signature_tables(k: int) -> tuple[tuple, tuple[int, ...]]:
    """Per signature s < 2^k, k <= 8: the getter at _holders(k, s) (None at 0), its incidence key."""
    getters = (None, *[_gather(_holders(k, sig)) for sig in range(1, 1 << k)])
    return getters, tuple([_incidence_key(k, sig) for sig in range(1 << k)])


def _class_data(code: BinaryCode) -> _ClassData:
    """The search data of a code, computed once and kept on the code.

    Classes are ordered by (size, span-incidence vector), the order in which
    the search assigns them; a class's profile is its size followed by the
    sorted weights of the span elements that contain it.

    All of it follows from the class masks and signatures of
    coordinate_classes: span word x holds the class of signature s iff
    |s & x| is odd.  So the incidence vectors of two classes first differ
    at x = 2^j, j the lowest bit where their signatures differ, and they
    sort as the signatures read with bit 0 most significant
    (_incidence_key).  The words that hold signature s depend on s and the
    dimension k alone, so a profile is the span weights gathered at
    _holders(k, s), sorted, through one itemgetter per (k, s).  Up to
    dimension 8 the getters and keys of every signature are read from one
    tuple per dimension (_signature_tables, the one cache of the profiles);
    above it they are made afresh for the code's signatures.
    """
    if code._class_data is None:
        part = code.coordinate_classes()
        k = code.dimension
        weights = list(map(int.bit_count, code.span_masks()))  # k <= MAX_SPAN_DIMENSION = 16
        if k <= _CACHED_DIMENSION:
            getters, keys = _signature_tables(k)
        else:
            getters = {s: _gather(_holders(k, s)) for s in part.signatures}
            keys = {s: _incidence_key(k, s) for s in part.signatures}
        # size, then incidence, as one int: the keys of a code's classes are distinct
        order = sorted(
            [(m.bit_count() << k | keys[s], m, s) for m, s in zip(part.masks, part.signatures)]
        )
        code._class_data = _ClassData(
            classes=tuple([m for _, m, _ in order]),
            signatures=tuple([s for _, _, s in order]),
            profiles=tuple([(m.bit_count(), *sorted(getters[s](weights))) for _, m, s in order]),
            residue=part.residue_mask,
        )
    return code._class_data


def code_isomorphism(a: BinaryCode, b: BinaryCode) -> tuple[int, ...] | None:
    """A permutation of 1..m carrying span(a) onto span(b), or None.

    The result p is 1-based: coordinate i of a maps to p[i-1] in b.  It is
    built from the first valid class bijection in the depth-first order of
    _match_classes, class by class in ascending coordinate order, with the
    residues matched in ascending order.
    """
    if distinguishing_invariant(a, b) is not None:
        return None
    da = _class_data(a)
    db = _class_data(b)
    sigma = _match_classes(da, db)
    if sigma is None:
        return None
    perm = [0] * a.degree
    # the lowest set bits of a class and of its image are peeled together
    images = [db.classes[bi] for bi in sigma]
    for src, dst in zip((*da.classes, da.residue), (*images, db.residue)):
        while src:
            low = src & -src
            perm[low.bit_length() - 1] = (dst & -dst).bit_length()
            src ^= low
            dst &= dst - 1
    _check_permutation(a, b, perm)
    return tuple(perm)


def _match_classes(a: _ClassData, b: _ClassData) -> list[int] | None:
    """The first span-preserving class bijection in depth-first order.

    Classes of a are assigned in index order; class ai is tried against the
    unused classes of b in index order, and entry ai of the result is its
    image.  Two screens cut the tree, and both are necessary conditions,
    so the first valid bijection found is the same as with no screen:

    - profile: a candidate class must have the profile of class ai, since
      a span-preserving permutation maps the words holding a class onto
      the words holding its image, weight for weight; one dict from
      profile to the classes of b lists the candidates;
    - relations: the signatures of the classes assigned so far must satisfy
      the same linear relations over GF(2) as the signatures of their
      images, or no extension maps one span onto the other.

    a and b come from codes of one dimension k, and a pair whose profile
    multisets differ is rejected before the search.  The relation screen
    is the projection screen in linear form (the kernel lemma of the
    module docstring).  The span words of a, projected onto the assigned
    classes and mapped through them, are the image of the linear map
    x -> (|x & s_c| mod 2)_c, each hit 2^(k-r) times for image rank r; so
    they agree with b's projection as multisets exactly when the images
    are one subspace, that is when the relations (the annihilator of the
    image) agree.  The screen decides each node as the multiset comparison
    did, so the tree, and the witness it finds, are those of the
    projection search (tests/oracles.py keeps it).  With every class
    assigned it says that the bijection maps span(a) onto span(b), which
    code_isomorphism checks on the witness.

    Relations change only where a class depends on those before it.  A
    class of a whose signature is independent of the earlier ones needs an
    image independent of theirs, which a reduction against an xor basis of
    the images decides.  A dependent class, whose signature is the xor of
    the earlier classes of its relation, has one admissible image: the
    class of b whose signature is the xor of their images' signatures.
    That class is unused, as a used one would give b a relation a lacks,
    and a dict finds it.  The relations of a are computed once, before the
    search: the relation of a dependent class is read off the set bits of
    the combination of classes its reduction xored in.
    """
    if sorted(a.profiles) != sorted(b.profiles):
        return None
    n = len(a.classes)
    with_profile: dict[tuple[int, ...], list[int]] = {}  # profile -> the classes of b with it
    for bi, p in enumerate(b.profiles):
        with_profile.setdefault(p, []).append(bi)
    candidates = [with_profile[p] for p in a.profiles]
    # relation[ai]: the earlier classes of a whose signatures xor to that of
    # class ai, or () when it is independent of them
    relation: list[tuple[int, ...]] = []
    basis = []  # a's independent signatures, reduced, each with the classes it is the xor of
    for ai, sig in enumerate(a.signatures):
        combination = 1 << ai
        for vector, classes in basis:
            if sig ^ vector < sig:  # the top bit of vector is set in sig
                sig ^= vector
                combination ^= classes
        if sig:
            basis.append((sig, combination))
            relation.append(())
        else:
            combination ^= 1 << ai  # the earlier classes, peeled bit by bit
            members = []
            while combination:
                low = combination & -combination
                members.append(low.bit_length() - 1)
                combination ^= low
            relation.append(tuple(members))
    class_of = {sig: bi for bi, sig in enumerate(b.signatures)}
    images = []  # the signatures of the images of a's independent classes, reduced
    assigned: list[int] = []
    used = [False] * n

    def extend() -> bool:
        ai = len(assigned)
        if ai == n:
            return True
        if relation[ai]:
            sig = 0
            for c in relation[ai]:
                sig ^= b.signatures[assigned[c]]
            bi = class_of.get(sig)
            if bi is None or b.profiles[bi] != a.profiles[ai]:
                return False
            assigned.append(bi)
            used[bi] = True
            if extend():
                return True
            used[bi] = False
            assigned.pop()
            return False
        for bi in candidates[ai]:
            if used[bi]:
                continue
            sig = b.signatures[bi]
            for vector in images:
                if sig ^ vector < sig:
                    sig ^= vector
            if not sig:
                continue
            images.append(sig)
            assigned.append(bi)
            used[bi] = True
            if extend():
                return True
            used[bi] = False
            assigned.pop()
            images.pop()
        return False

    found = extend()
    del extend  # the closure holds itself through its cell: free it without the collector
    return assigned if found else None


def _check_permutation(a: BinaryCode, b: BinaryCode, perm: list[int]) -> None:
    if sorted(perm) != list(range(1, a.degree + 1)):
        raise InternalInvariantError("isomorphism witness is not a permutation")
    # a coordinate permutation commutes with xor, and span(b) is closed
    # under xor, so the image of span(a) lies in span(b) iff the images of
    # a's generators do
    span_b = set(b.span_masks())
    bits = [1 << (p - 1) for p in perm]  # the image of each coordinate, as a mask
    for g in a.generators:
        mask, image = g.mask(), 0
        while mask:
            low = mask & -mask
            image |= bits[low.bit_length() - 1]
            mask ^= low
        if image not in span_b:
            raise InternalInvariantError("isomorphism witness does not map span to span")


def permute_word(w: Codeword, perm: tuple[int, ...]) -> Codeword:
    if sorted(perm) != list(range(1, w.degree + 1)):
        raise InvalidCodeError(f"not a permutation of 1..{w.degree}")
    return Codeword(w.degree, [perm[i - 1] for i in _coordinates(w.mask())])


def permute_code(code: BinaryCode, perm: tuple[int, ...]) -> BinaryCode:
    return BinaryCode(code.degree, [permute_word(g, perm) for g in code.generators])


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Render a 1-based permutation in cycle form, fixed points omitted."""
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise InvalidCodeError(f"not a permutation of 1..{len(perm)}")
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i - 1]
        if len(cycle) > 1:
            out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) if out else "()"


# ---------------------------------------------------------------------------
# the stabilizer of a reduced box


def _form_stabilizer(q: np.ndarray) -> np.ndarray:
    """The bases (v_1, ..., v_k) that read a form q over the 2^k span words as q, as uint8 rows.

    A basis grows a row at a time, in ascending order from outside the span
    so far.  Row v_(j+1) adds the span words with bit j set, the old ones
    xor v_(j+1), and is kept only when q reads them as q[2^j : 2^(j+1)]:
    only the stabilizer is ever held, ascending, the identity first.
    """
    k = len(q).bit_length() - 1
    images = np.zeros((1, 1), dtype=np.uint8)  # images[g, y]: the xor of g's rows at the bits of y
    for j in range(k):
        outside = np.ones((len(images), len(q)), dtype=bool)
        np.put_along_axis(outside, images, False, axis=1)
        g, v = np.nonzero(outside)
        words = images[g] ^ v.astype(np.uint8)[:, None]
        keep = (q[words] == q[1 << j : 2 << j]).all(axis=1)
        images = np.concatenate((images[g[keep]], words[keep]), axis=1)
    return images[:, 1 << np.arange(k)]  # row i is the span word 2^i


@functools.lru_cache(maxsize=None)
def box_stabilizer(loop_class: LoopClass) -> np.ndarray:
    """H_L: the changes of basis that keep a class's vector, as maps on its box.

    The rows v_1..v_k of a B in GL(k, 2), read as span words of a box point
    of class L, form an admissible basis with vector L exactly when they
    read its squaring form q_L as q_L again (|u & v & w| is trilinear, so a
    nuclear v_4 kills every cubic term holding it).  So H_L is the
    stabilizer of q_L, grown row by row by _form_stabilizer: in ascending
    order of the rows, the identity first.

    Row h of the result is B as a map on the subset positions of
    search._SUBSETS: if x holds the class sizes of a box point, x[h] holds
    those of the same code in basis B, which is again a box point of L.
    The x[h] over all rows h are the box points isomorphic to x.  The array
    is uint8, read-only, and built on first use for each class.
    """
    subsets = _SUBSETS[loop_class.rank]
    bases = _form_stabilizer(_class_form(loop_class.vector))
    position = np.zeros(1 << subsets.rank, dtype=np.uint8)
    position[list(subsets.masks)] = np.arange(len(subsets.masks))
    # class S of the old basis lies in new generator j iff v_j meets S oddly
    odd = subsets.odd[:, bases - 1].astype(np.uint8)  # [S, basis, j]
    images = position[(odd << np.arange(subsets.rank, dtype=np.uint8)).sum(axis=2).T]
    # h[images[i]] = i: the inverse permutation
    maps = np.argsort(images, axis=1).astype(np.uint8)
    maps.setflags(write=False)
    return maps


@functools.lru_cache(maxsize=None)
def orbit_weights(loop_class: LoopClass) -> np.ndarray:
    """The H_L images of a box row, packed, as one matrix product: W @ x.

    _pack packs a box row x whose class sizes lie below 8 as one int, size
    i in bits 3i..3i+2.  Row h of box_stabilizer sends class j to the
    position p where maps[h, p] = j, so the packed image x[h] is sum_j
    x[j] 8^p: W[h, j] = 8^p, and (W @ x)[h] is that packed image.  Row 0,
    the identity, is 8^j, so (W @ x)[0] is _pack(x).  W is int64 (8^14 <
    2^63), read-only, and built on first use for each class.
    """
    weights = np.int64(8) ** np.argsort(box_stabilizer(loop_class), axis=1).astype(np.int64)
    weights.setflags(write=False)
    return weights


# 8^i, the weight of class size i in a packed row of 2^k - 1 classes
_POWERS_OF_8 = tuple(8**i for i in range((1 << max(_RANKS)) - 1))


def _pack(row: tuple[int, ...]) -> int:
    """A box row as one int: class size i in bits 3i..3i+2 (45 bits at rank 4)."""
    return sum(map(mul, row, _POWERS_OF_8))


def _packed_images(loop_class: LoopClass, row: tuple[int, ...]) -> set[int]:
    """The orbit key of a box row: its images under H_L, W @ row for W = orbit_weights.

    A box row of the class is isomorphic to this one iff its _pack is in the
    set.  Rows with this one's sorted sizes fit in 3 bits when its largest does.
    """
    if max(row) >= 8:
        raise InternalInvariantError(f"class size {max(row)} of a box row does not fit in 3 bits")
    return set((orbit_weights(loop_class) @ row).tolist())
