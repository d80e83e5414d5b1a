"""Slow paths, the oracles of the library's fast ones.

The library checks the Moufang identities and associativity on bit rows
of the factor set, 2^k triples of words per word operation.  The table
checks here test every triple of elements of the Cayley table and know
nothing of factor sets; the broadcast checks read the same phi terms as
the library, but one triple of words per array entry.

The library lists a reduced box as prefixes of the classes of three or
more generators times the bits of the pair classes; the level walk here
expands every partial row one class at a time.

The library reads the residues of the meets off the ANF of the class
form, once per class; the ladder here writes them out by subset size, a
square or commutator bit at a time, and the branch and bound here reads
them off the ANF of the class form read in any basis of GL(k, 2).  The
library also counts the pair levels below each prefix of its branch and
bound from tables; _scan here walks every level one value at a time, and
is the order oracle of the box walk too.

The library takes the meets of a basis from the ANDs of all subsets of its
masks, built by doubling; the reduce here ANDs the masks of each subset
anew.

The library splits coordinates into classes one generator mask at a time
and derives the isomorphism search data from the class signatures; the
bucket loop here reads every coordinate's generator bits, and the class
data here reads every span word's bit at every class.

The library's class matcher screens a partial class bijection by the
linear relations of the assigned signatures; the projection matcher here
compares the span words projected onto the assigned classes as multisets.

The library's word kernels gather the phi terms of an identity from one
table of bit-row words; the broadcast checks here index phi itself.

The library classifies a squaring form by two counts, the words with
q = 1 and the pairs that fail to commute; the class table here packs
every form of a rank and maps it to the class whose GL(k, 2)-orbit holds
it, from the orbits of the catalog forms over every basis.

The library grows the stabilizer of a squaring form a row at a time,
keeping only the partial bases that read the form as itself; the list
here holds every basis of GL(k, 2), and the stabilizer is the filter of
that list by the form.

The library reads a code literal straight into generator masks, a run as
one block of bits; the set parser here adds every coordinate of a run to
a set one at a time and builds each Codeword from its set.  Both read a
number by its significant digits: leading zeros are dropped, and more
digits than int() reads from a string are refused.
"""

import functools
import operator
import sys
from itertools import combinations

import numpy as np

from codeloops import search
from codeloops.codes import (
    MAX_DEGREE,
    BinaryCode,
    ClassPartition,
    Codeword,
    InternalInvariantError,
    InvalidCodeError,
    _is_number,
)
from codeloops.equivalence import _ClassData
from codeloops.loops import _anf, _class_form, canonical_catalog
from codeloops.search import _PARAMS, _SOLUTIONS, _SUBSETS, Box, _independent, congruence_targets


def _triples(n):
    w = np.arange(n)
    return w[:, None, None], w[None, :, None], w[None, None, :]


def _table_is_moufang(table):
    """Check three equivalent Moufang identities on all triples of elements."""
    t = table
    z, x, y = _triples(len(t))
    if (t[z, t[x, t[z, y]]] != t[t[t[z, x], z], y]).any():
        return False
    if (t[x, t[z, t[y, z]]] != t[t[t[x, z], y], z]).any():
        return False
    if (t[t[z, x], t[y, z]] != t[t[z, t[x, y]], z]).any():
        return False
    return True


def _table_is_associative(table):
    """(xy)z = x(yz) on all triples of elements."""
    t = table
    x, y, z = _triples(len(t))
    return bool((t[t[x, y], z] == t[x, t[y, z]]).all())


def _broadcast_moufang_sides(phi):
    """Per identity, the xor of the phi terms of its two sides, on all triples (z, x, y)."""
    phi = np.asarray(phi, dtype=np.uint8)
    z, x, y = _triples(len(phi))
    xyz = x ^ y ^ z
    sides = (
        # z(x(zy)) = ((zx)z)y
        (phi[z, y] ^ phi[x, z ^ y] ^ phi[z, xyz], phi[z, x] ^ phi[z ^ x, z] ^ phi[x, y]),
        # x(z(yz)) = ((xz)y)z
        (phi[y, z] ^ phi[z, y ^ z] ^ phi[x, y], phi[x, z] ^ phi[x ^ z, y] ^ phi[xyz, z]),
        # (zx)(yz) = (z(xy))z
        (phi[z, x] ^ phi[y, z] ^ phi[z ^ x, y ^ z], phi[x, y] ^ phi[z, x ^ y] ^ phi[xyz, z]),
    )
    return [left ^ right for left, right in sides]


def _broadcast_is_moufang(phi):
    """The three Moufang identities on all 2^(3k) triples of words of a factor-set table."""
    return not any(defects.any() for defects in _broadcast_moufang_sides(phi))


def _broadcast_associator_bits(phi):
    """asc[x, y, z] = phi(x+y, z) + phi(x, y+z) + phi(x, y) + phi(y, z) mod 2, as a uint8 array."""
    phi = np.asarray(phi, dtype=np.uint8)
    x, y, z = _triples(len(phi))
    return phi[x ^ y, z] ^ phi[x, y ^ z] ^ phi[x, y] ^ phi[y, z]


def _broadcast_sign_tables(phi):
    """Square, commutator and associator bits as nested lists, read off a table by broadcasting."""
    phi = np.asarray(phi, dtype=np.uint8)
    return (
        phi.diagonal().tolist(),
        (phi ^ phi.T).tolist(),
        _broadcast_associator_bits(phi).tolist(),
    )


def _ladder_screen(s):
    """(modulus, residue) of t_S in every representation of a rank, by the size of S.

    Weights are 0 mod 4 and pair meets even in any doubly even code; the
    first three basis words associate to -1 (odd triple meet) and the
    fourth is nuclear (even triple meets through it).
    """
    return {1: (4, 0), 2: (2, 0), 3: (2, int(s == (0, 1, 2))), 4: (1, 0)}[len(s)]


def _ladder_subsets(rank):
    """The nonempty subsets of range(rank) in scan order: by decreasing size, then lexicographically."""
    return [s for size in range(rank, 0, -1) for s in combinations(range(rank), size)]


def _ladder_targets(cv):
    """The congruence targets of a characteristic vector, keyed "t" + label, by the size of S.

    A square bit puts the weight at 4 mod 8 (else 0 mod 8), a commutator
    bit the pair meet at 2 mod 4 (else 0 mod 4), and a larger meet takes
    the residue of _ladder_screen.
    """
    commutators = dict(zip(combinations(range(cv.rank), 2), cv.commutators))
    targets = {}
    for s in _ladder_subsets(cv.rank):
        label = "t" + "".join(str(i + 1) for i in s)
        if len(s) == 1:
            targets[label] = (8, 4 * cv.squares[s[0]])
        elif len(s) == 2:
            targets[label] = (4, 2 * commutators[s])
        else:
            targets[label] = _ladder_screen(s)
    return targets


def _ladder_solve_system(rank, t):
    """The class sizes of meets t in scan order without the first, or None, with the ladder's screen.

    t must pass _ladder_screen, give every generator weight 4 or more and
    give every class a size in 0..7, a class size being its meet minus the
    sizes of the classes of its strict supersets.
    """
    subsets = _ladder_subsets(rank)
    if any(v % mod != res for v, (mod, res) in zip(t, map(_ladder_screen, subsets))):
        return None
    if min(t[-rank:]) < 4:
        return None
    x = {}
    for s, v in zip(subsets, t):
        x[s] = v - sum(size for u, size in x.items() if set(s) < set(u))
    if any(not 0 <= size <= 7 for size in x.values()):
        return None
    return tuple(x[s] for s in subsets[1:])


def _level_walk(target, cap):
    """The non-degenerate leaves of the reduced box of a class below cap, one level at a time.

    Every partial row is expanded at each class in subset order: its least
    admissible size is (r_j - superset sum) mod m_j, and its candidates
    step by m_j while they stay below 8 and keep the partial degree below
    cap.  Taking each row's candidates in turn keeps the rows in
    depth-first order, which is _scan's order.
    """
    subsets = _SUBSETS[target.rank]
    targets = congruence_targets(target.vector)
    x = np.zeros((1, len(subsets.sets)), dtype=np.uint8)
    total = np.zeros(1, dtype=np.int16)
    for j, label in enumerate(subsets.labels):
        mod, residue = targets["t" + label]
        least = (residue - x[:, list(subsets.above[j])].sum(axis=1, dtype=np.int16)) % mod
        sizes = least[:, None] + np.arange(0, 8, mod, dtype=np.int16)
        rows, nth = np.nonzero(sizes < cap - total[:, None])
        chosen = sizes[rows, nth]
        x, total = x[rows], total[rows] + chosen
        x[:, j] = chosen
    keep = _independent(target.rank, x)
    x, total = x[keep], total[keep]
    t = (x @ subsets.supersets).astype(np.uint8)
    return Box(x, t, total.astype(np.uint8))


def _scan(target, cap, stats):
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
    # per subset, a 1 in the byte of each strict subset: a size assigned is taken off those bytes
    below = [
        sum(1 << sh for u, sh in zip(subsets.sets, shifts) if set(u) < set(s)) for s in subsets.sets
    ]
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


def _scan_branch_and_bound(loop_class, cap, stats):
    """The last record of the branch and bound that _scan drives, leaf by leaf.

    Every leaf _scan yields is laid out by search.assemble_generators, read
    at call time so that a test can patch it; a leaf with dependent
    generators counts as degenerate, and any other is a record and lowers
    the cap of the scan to its degree.
    """
    best, bound = None, None
    scan = _scan(loop_class, cap, stats)
    for t, x, degree in iter(lambda: scan.send(bound), None):
        bound = None
        try:
            best = search.assemble_generators(t, x, loop_class)
        except InvalidCodeError:
            stats.degenerate += 1
        else:
            bound = degree
    return best


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


def _pack(form):
    """A truth table over span words as an integer, bit y = the value at word y."""
    return int(form @ (1 << np.arange(len(form))))


def _orbit(cv):
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
def _class_table(rank):
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


def _minimal_degree(loop_class, basis=0):
    """The least degree of a reduced code whose form reads q_L∘g, and the nodes visited.

    g is the basis of that index in _general_linear (0 is the identity),
    and q_L∘g is q_L read in basis g.  The generators of the code are
    taken in basis g, so its meets t_S get their residues from the ANF a
    of q_L∘g: t_S = 4 a_S mod 8 for a single, 2 a_S mod 4 for a pair and
    a_S mod 2 for a triple, and the quadruple is free.  A plain recursive
    branch and bound then sets each class size x_S in 0..7, supersets
    first, to a size that puts t_S in its residue class, cuts a branch
    whose partial degree reaches the best complete one, and keeps a leaf
    when its nonempty classes span GF(2)^k (independent generators).  It
    shares no code with the library's search.
    """
    rank = loop_class.rank
    _, images = _general_linear(rank)
    anf = _anf(_class_form(loop_class.vector)[images[basis]])
    if rank == 4 and anf[0b1111]:
        raise AssertionError("a cubic form read in another basis has no quartic term")
    subsets = sorted(range(1, 1 << rank), key=lambda s: (-s.bit_count(), s))
    moduli = {s: {1: 8, 2: 4, 3: 2, 4: 1}[s.bit_count()] for s in subsets}
    residues = {s: moduli[s] // 2 * int(anf[s]) % moduli[s] for s in subsets}
    sizes = {}
    best, visited = 8 * len(subsets), 0

    def spans():
        basis = []  # xor basis of the nonempty classes, as bit masks
        for s, size in sizes.items():
            for b in basis:
                s = min(s, s ^ b)
            if size and s:
                basis.append(s)
        return len(basis) == rank

    def descend(level, degree):
        nonlocal best, visited
        if level == len(subsets):
            if spans():
                best = degree
            return
        s = subsets[level]
        above = sum(size for u, size in sizes.items() if u & s == s)
        for size in range((residues[s] - above) % moduli[s], 8, moduli[s]):
            if degree + size >= best:
                break
            visited += 1
            sizes[s] = size
            descend(level + 1, degree + size)
            del sizes[s]

    descend(0, 0)
    return best, visited


def _reduce_mask_meets(rank, masks):
    """search._mask_meets by one reduce per subset of two or more masks, singles last."""
    return (
        *[
            functools.reduce(operator.and_, operator.itemgetter(*s)(masks)).bit_count()
            for s in _SUBSETS[rank].sets
            if len(s) > 1
        ],
        *[m.bit_count() for m in masks],
    )


def _bucket_classes(code):
    """The coordinate classes of a code, one bucket per generator incidence, coordinate by coordinate."""
    masks = [g.mask() for g in code.generators]
    buckets = {}  # generator incidence bits -> coordinates, as a mask
    for i in range(code.degree):
        sig = 0
        for j, m in enumerate(masks):
            sig |= (m >> i & 1) << j
        buckets[sig] = buckets.get(sig, 0) | 1 << i
    residue = buckets.pop(0, 0)
    signatures = sorted(buckets, key=lambda sig: buckets[sig] & -buckets[sig])
    return ClassPartition(
        degree=code.degree,
        masks=tuple(buckets[sig] for sig in signatures),
        residue_mask=residue,
        signatures=tuple(signatures),
    )


def _span_class_data(code):
    """The isomorphism search data of a code, read off its span word by word.

    Classes come from _bucket_classes.  Each class's incidence vector has
    one bit per span word (does the word hold the class's first
    coordinate); the classes sort by (size, incidence vector), a class's
    signature has bit j when span word 2^j (generator j) holds it, and a
    profile is a class's size and the sorted weights of the span words
    holding it.
    """
    part = _bucket_classes(code)
    span = code.span_masks()
    weights = [m.bit_count() for m in span]
    incidence = {}
    for c in part.masks:
        bit = (c & -c).bit_length() - 1
        incidence[c] = [m >> bit & 1 for m in span]
    order = sorted(part.masks, key=lambda c: (c.bit_count(), incidence[c]))
    rows = [incidence[c] for c in order]
    return _ClassData(
        classes=tuple(order),
        signatures=tuple(
            sum(row[1 << j] << j for j in range(code.dimension)) for row in rows
        ),
        profiles=tuple(
            (c.bit_count(), *sorted(weight for weight, hit in zip(weights, row) if hit))
            for c, row in zip(order, rows)
        ),
        residue=part.residue_mask,
    )


def _class_patterns(data):
    """Per span word x, the classes it holds as a bitmask: those whose signature meets x oddly."""
    k = functools.reduce(operator.or_, data.signatures, 0).bit_length()
    return [
        sum(1 << ci for ci, sig in enumerate(data.signatures) if (sig & x).bit_count() & 1)
        for x in range(1 << k)
    ]


def _projection_match_classes(a, b):
    """The first pattern-preserving class bijection in depth-first order, by projection.

    Classes of a are assigned in index order; class ai is tried against the
    unused classes of b in index order, and entry ai of the result is its
    image.  A candidate must have the profile of class ai, and the span
    patterns of a, mapped through the classes assigned so far, must agree
    as a multiset with the patterns of b restricted to their images.  The
    projection is kept incrementally, one image int per pattern on each
    side: before class ai goes to bi the projections agree and no image
    holds bit bi, so they agree after the step exactly when the images of
    the patterns holding ai (on a's side) and bi (on b's side) agree as
    multisets before it.  a and b come from codes of one dimension.
    """
    if sorted(a.profiles) != sorted(b.profiles):
        return None
    patterns_a, patterns_b = _class_patterns(a), _class_patterns(b)
    n = len(a.classes)
    candidates = [[bi for bi in range(n) if b.profiles[bi] == p] for p in a.profiles]
    holders_a = [[x for x, pat in enumerate(patterns_a) if pat >> ci & 1] for ci in range(n)]
    holders_b = [[x for x, pat in enumerate(patterns_b) if pat >> ci & 1] for ci in range(n)]
    image_a = [0] * len(patterns_a)  # pattern of a, mapped through the assigned classes
    image_b = [0] * len(patterns_b)  # pattern of b, restricted to the assigned images
    assigned = []
    used = [False] * n

    def extend():
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


def _set_parse_code(text):
    """The code of a literal, each generator collected as a set of coordinates first."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if degree is None and not gens and line.startswith("degree="):
            value = line[len("degree="):]
            if not _is_number(value):
                raise InvalidCodeError(f"line {lineno}, col 8: bad degree {value!r}")
            degree = _set_number(value, f"line {lineno}, col 8")
            continue
        gens.append(_set_support_line(line, raw, lineno))
    if degree is None:
        if not gens:
            raise InvalidCodeError("empty code literal (no degree, no generators)")
        degree = max(max(g) for g in gens if g)
    if degree < 1 or degree > MAX_DEGREE:
        raise InvalidCodeError(f"degree {degree} out of range 1..{MAX_DEGREE}")
    words = []
    for g in gens:
        if g and max(g) > degree:
            raise InvalidCodeError(f"coordinate {max(g)} exceeds declared degree {degree}")
        words.append(Codeword(degree, g))
    return BinaryCode(degree, words)


def _set_number(text, loc):
    """ASCII digits as an int, leading zeros dropped; refused at loc past int()'s digit limit."""
    digits = text.strip().lstrip("0") or "0"
    if len(digits) > sys.get_int_max_str_digits() > 0:
        raise InvalidCodeError(f"{loc}: number too long")
    return int(digits)


def _set_support_line(line, raw, lineno):
    support = set()
    col = raw.index(line) + 1
    for token in line.split(","):
        tok = token.strip()
        loc = f"line {lineno}, col {col}"
        col += len(token) + 1
        if not tok:
            raise InvalidCodeError(f"{loc}: empty entry")
        if "-" in tok:
            lo_s, _, hi_s = tok.partition("-")
            if not (_is_number(lo_s.strip()) and _is_number(hi_s.strip())):
                raise InvalidCodeError(f"{loc}: bad range {tok!r}")
            lo, hi = _set_number(lo_s, loc), _set_number(hi_s, loc)
            if lo > hi:
                raise InvalidCodeError(f"{loc}: empty range {tok!r}")
            if hi > MAX_DEGREE:  # refuse before building the range
                raise InvalidCodeError(f"{loc}: coordinate {hi} out of range 1..{MAX_DEGREE}")
            entries = range(lo, hi + 1)
        elif _is_number(tok):
            entries = [_set_number(tok, loc)]
        else:
            raise InvalidCodeError(f"{loc}: bad coordinate {tok!r}")
        for i in entries:
            if i in support:
                raise InvalidCodeError(f"{loc}: duplicate coordinate {i}")
            support.add(i)
    return frozenset(support)
