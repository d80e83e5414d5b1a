"""Coordinate isomorphism of codes against a brute-force permutation oracle
and against the unscreened class matcher it replaced; the box stabilizers
against the brute-force set of admissible bases, and the orbit-key grouping
of conjecture against the pairwise search it replaced."""

import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeloops
from codeloops import (
    BinaryCode,
    Codeword,
    InternalInvariantError,
    InvalidCodeError,
    build_loop,
    characteristic_vector,
    code_isomorphism,
    cycle_notation,
    distinguishing_invariant,
    enumerate_reduced,
    parse_code,
    parse_loop_id,
)
from codeloops import loops
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids, catalog_entry
from codeloops.cli import _isomorphism_gap, main
from codeloops.equivalence import (
    _check_permutation,
    _word_signs,
    box_stabilizer,
    permute_code,
    permute_word,
)
from codeloops.search import _SUBSETS, reduced_box
from strategies import doubly_even_codes, relabeled_codes


def brute_isomorphic(a, b):
    """Try every coordinate permutation; feasible only for small degree."""
    if a.degree != b.degree:
        return False
    span_b = {w.support for w in b.span()}
    for perm in itertools.permutations(range(1, a.degree + 1)):
        mapping = dict(zip(range(1, a.degree + 1), perm))
        image = {frozenset(mapping[c] for c in w.support) for w in a.span()}
        if image == span_b:
            return True
    return False


def random_code(rng, degree, dim):
    gens = []
    code = None
    for _ in range(50):
        support = frozenset(c for c in range(1, degree + 1) if rng.random() < 0.5)
        if not support:
            continue
        try:
            code = BinaryCode(degree, gens + [Codeword(degree, support)])
        except Exception:
            continue
        gens = list(code.generators)
        if len(gens) == dim:
            return code
    return code


def test_identity_and_relabelling_found():
    code = parse_code(SAMPLE_C4_16_A)
    assert code_isomorphism(code, code) == tuple(range(1, 20))

    rng = random.Random(7)
    perm = list(range(1, 20))
    rng.shuffle(perm)
    other = permute_code(code, tuple(perm))
    witness = code_isomorphism(code, other)
    assert witness is not None
    # witness may differ from perm; it only has to map span onto span
    span = {w.support for w in other.span()}
    assert {permute_word(w, witness).support for w in code.span()} == span


def test_sample_pair_not_isomorphic():
    a = parse_code(SAMPLE_C4_16_A)
    b = parse_code(SAMPLE_C4_16_B)
    assert code_isomorphism(a, b) is None
    assert distinguishing_invariant(a, b) == "weight enumerator"


def test_distinguishing_invariant_order():
    a = parse_code("degree=8\n1-4\n")
    b = parse_code("degree=9\n1-4\n")
    assert distinguishing_invariant(a, b) == "degree"
    c = parse_code("degree=8\n1-4\n5-8\n")
    assert distinguishing_invariant(a, c) == "dimension"
    assert distinguishing_invariant(a, a) is None


def test_agrees_with_brute_force_on_small_codes():
    rng = random.Random(20260814)
    pairs = 0
    while pairs < 40:
        degree = rng.randrange(4, 8)
        a = random_code(rng, degree, rng.randrange(1, 4))
        b = random_code(rng, degree, rng.randrange(1, 4))
        if a is None or b is None:
            continue
        pairs += 1
        got = code_isomorphism(a, b)
        assert (got is not None) == brute_isomorphic(a, b)
        if got is not None:
            span_b = {w.support for w in b.span()}
            assert {permute_word(w, got).support for w in a.span()} == span_b


def test_witness_inverts():
    code = parse_code(SAMPLE_C4_16_A)
    rng = random.Random(3)
    perm = list(range(1, 20))
    rng.shuffle(perm)
    other = permute_code(code, tuple(perm))
    fwd = code_isomorphism(code, other)
    assert fwd is not None
    inverse = [0] * len(fwd)
    for i, img in enumerate(fwd, start=1):
        inverse[img - 1] = i
    span_a = {w.support for w in code.span()}
    assert {permute_word(w, tuple(inverse)).support for w in other.span()} == span_a
    assert code_isomorphism(other, code) is not None


def test_check_permutation_rejects_bad_witnesses():
    a = parse_code(SAMPLE_C4_16_A)
    b = parse_code(SAMPLE_C4_16_B)
    identity = list(range(1, a.degree + 1))
    _check_permutation(a, a, identity)
    with pytest.raises(InternalInvariantError, match="does not map span to span"):
        _check_permutation(a, b, identity)
    with pytest.raises(InternalInvariantError, match="not a permutation"):
        _check_permutation(a, a, [1] * a.degree)
    # coordinates 1 and 9 lie in different sets of generators: the swap
    # moves the first generator, 1-8, off the span
    swapped = identity[:]
    swapped[0], swapped[8] = swapped[8], swapped[0]
    with pytest.raises(InternalInvariantError, match="does not map span to span"):
        _check_permutation(a, a, swapped)


def test_isomorphism_invariant_under_relabelling_both_sides():
    rng = random.Random(99)
    a = parse_code("degree=8\n1-4\n3,4,5,6\n4,6,7,8\n")
    for _ in range(10):
        p = list(range(1, 9))
        q = list(range(1, 9))
        rng.shuffle(p)
        rng.shuffle(q)
        assert code_isomorphism(permute_code(a, tuple(p)), permute_code(a, tuple(q)))


def test_cycle_notation():
    assert cycle_notation((1, 2, 3)) == "()"
    assert cycle_notation((2, 1, 3)) == "(1 2)"
    assert cycle_notation((2, 3, 1, 5, 4)) == "(1 2 3)(4 5)"


# -- the class matcher without screens, kept as the witness oracle --------
#
# It orders the classes from the span, and at every node re-projects every
# span pattern onto the classes assigned so far.  code_isomorphism must
# return exactly its witness: the profile screen and the incremental
# projection only skip branches that hold no valid bijection.


def _oracle_class_data(code):
    part = code.coordinate_classes()
    classes = [tuple(sorted(c)) for c in part.classes]
    span = code.span()
    incidence = [tuple(cls[0] in w.support for w in span) for cls in classes]
    order = sorted(range(len(classes)), key=lambda i: (len(classes[i]), incidence[i]))
    classes = [classes[i] for i in order]
    patterns = set()
    for w in span:
        pat = 0
        for ci, cls in enumerate(classes):
            if cls[0] in w.support:
                pat |= 1 << ci
        patterns.add(pat)
    return classes, patterns, sorted(part.residue)


def _oracle_match_classes(ca, pa, cb, pb):
    n = len(ca)
    assigned = []
    used = [False] * n

    def consistent():
        k = len(assigned)
        proj_a = Counter()
        for pat in pa:
            img = 0
            for ai in range(k):
                if pat >> ai & 1:
                    img |= 1 << assigned[ai]
            proj_a[img] += 1
        img_mask = 0
        for bi in assigned:
            img_mask |= 1 << bi
        proj_b = Counter(pat & img_mask for pat in pb)
        return proj_a == proj_b

    def extend():
        ai = len(assigned)
        if ai == n:
            return True
        size = len(ca[ai])
        for bi in range(n):
            if used[bi] or len(cb[bi]) != size:
                continue
            assigned.append(bi)
            used[bi] = True
            if consistent() and extend():
                return True
            used[bi] = False
            assigned.pop()
        return False

    return assigned if extend() else None


def oracle_isomorphism(a, b):
    if distinguishing_invariant(a, b) is not None:
        return None
    ca, pa, ra = _oracle_class_data(a)
    cb, pb, rb = _oracle_class_data(b)
    sigma = _oracle_match_classes(ca, pa, cb, pb)
    if sigma is None:
        return None
    perm = [0] * a.degree
    for ai, bi in enumerate(sigma):
        for src, dst in zip(ca[ai], cb[bi]):
            perm[src - 1] = dst
    for src, dst in zip(ra, rb):
        perm[src - 1] = dst
    return tuple(perm)


@functools.cache
def _scan_rep_groups(rank, max_degree):
    """Representations of the reduced scan grouped as conjecture groups them."""
    groups = {}
    for name in all_loop_ids(rank):
        target = parse_loop_id(name)
        for rep in enumerate_reduced(target, max_degree):
            key = (target.index, rep.degree, rep.rep_type().sizes)
            groups.setdefault(key, []).append(rep)
    return [groups[key] for key in sorted(groups)]


@functools.cache
def _scan_groups(rank, max_degree):
    """The codes of _scan_rep_groups, built once so their search data is shared."""
    return [[rep.code() for rep in members] for members in _scan_rep_groups(rank, max_degree)]


def test_witness_equals_oracle_on_scan_groups():
    # each member against the first of its group, both ways: the pairs the
    # conjecture transversal starts from
    non_isomorphic = 0
    for rank, max_degree in ((4, 23), (3, 49)):
        for first, *rest in _scan_groups(rank, max_degree):
            for code in rest:
                for a, b in ((first, code), (code, first)):
                    got = code_isomorphism(a, b)
                    assert got == oracle_isomorphism(a, b)
                    non_isomorphic += got is None
    assert non_isomorphic > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witness_equals_oracle_on_relabelings(data):
    code = data.draw(doubly_even_codes(1, 4))
    other = data.draw(relabeled_codes(code))
    padded = BinaryCode(other.degree, [Codeword(other.degree, g.support) for g in code.generators])
    got = code_isomorphism(padded, other)
    assert got is not None
    assert got == oracle_isomorphism(padded, other)


@functools.cache
def _non_isomorphic_pairs():
    """Members of scan groups that share every invariant but are not isomorphic."""
    return [
        (first, code)
        for first, *rest in _scan_groups(4, 23)
        for code in rest
        if distinguishing_invariant(first, code) is None and code_isomorphism(first, code) is None
    ]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_relabeled_non_isomorphic_pairs_give_none(data):
    first, second = data.draw(st.sampled_from(_non_isomorphic_pairs()))
    a = data.draw(relabeled_codes(first, max_pad=0))
    b = data.draw(relabeled_codes(second, max_pad=0))
    assert distinguishing_invariant(a, b) is None
    assert code_isomorphism(a, b) is None
    assert oracle_isomorphism(a, b) is None


RELABELED_C4_16_A = "degree=19\n1-3,5-13,15-17,19\n1,3,4,6-10,14,15,17,19\n3,4,7,8,12,17-19\n1-3,6,9,10,12,14-16,18,19\n"


def test_iso_stdout_pinned_on_relabeled_sample(tmp_path, capsys):
    # SAMPLE_C4_16_A under a fixed coordinate permutation and basis change
    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(SAMPLE_C4_16_A)
    b.write_text(RELABELED_C4_16_A)
    assert main(["iso", str(a), str(b)]) == 0
    assert capsys.readouterr().out == (
        "isomorphic\npermutation: (1 12 10 6 11 9)(2 3 19 17 7 13 15)(4 14 18 8)\n"
    )


# -- box stabilizers against brute force ------------------------------------

STABILIZER_ORDERS = {
    **dict(zip(all_loop_ids(3), (168, 24, 24, 8, 6))),
    **dict(zip(all_loop_ids(4), (
        1344, 192, 192, 64, 48, 168, 24, 24, 8, 12, 12, 8, 24, 48, 48, 8,
    ))),
}


def _first_box_point(name):
    """The first reduced representation of a class: its own basis has the class vector."""
    return next(iter(enumerate_reduced(name, catalog_entry(name).degree)))


def _index_map(rank, basis):
    """A change of basis as a map h on subset positions: x[h] is the new class sizes.

    The coordinates of the class of generator set S lie in new generator j
    exactly when row j of the basis holds an odd number of the generators
    of S.
    """
    vectors = [sum(1 << i for i in s) for s in _SUBSETS[rank].sets]
    h = [0] * len(vectors)
    for i, p in enumerate(vectors):
        image = sum(((v & p).bit_count() % 2) << j for j, v in enumerate(basis))
        h[vectors.index(image)] = i
    return tuple(h)


def _class_sizes_in_basis(rep, basis):
    """Class sizes of the code of rep in another basis, counted over its coordinates."""
    rank = rep.target.rank
    masks = [g.mask() for g in rep.generators]
    new = [functools.reduce(lambda m, i: m ^ masks[i], (i for i in range(rank) if v >> i & 1), 0)
           for v in basis]
    columns = Counter(
        sum((m >> c & 1) << j for j, m in enumerate(new)) for c in range(rep.degree)
    )
    return tuple(columns[sum(1 << i for i in s)] for s in _SUBSETS[rank].sets)


@pytest.mark.parametrize("name", all_loop_ids())
def test_word_signs_equal_the_weight_formulas(name):
    # the signs the class vector alone gives every span word are those the
    # weights of a representation give
    rep = _first_box_point(name)
    assert _word_signs(parse_loop_id(name).vector) == loops._sign_tables(build_loop(rep.code()))


@pytest.mark.parametrize("name", all_loop_ids())
def test_box_stabilizer_equals_admissible_bases(name, monkeypatch):
    loop_class = parse_loop_id(name)
    rank = loop_class.rank
    rep = _first_box_point(name)
    loop = build_loop(rep.code())
    # the weight-formula sign tables of this one loop, computed once
    tables = loops._sign_tables(loop)
    monkeypatch.setattr(loops, "_sign_tables", lambda _: tables)
    # a basis with the class vector has its square bits, so each row is
    # drawn from the span words (weights read off the code) with that bit
    squares = tables[0]
    rows = [[v for v in range(1, 1 << rank) if squares[v] == bit] for bit in loop_class.vector.squares]
    brute = set()
    for basis in itertools.product(*rows):
        try:
            vector = characteristic_vector(loop, basis)
        except InvalidCodeError:
            continue
        if vector == loop_class.vector:
            brute.add(basis)
    maps = box_stabilizer(loop_class)
    assert len(maps) == len(brute) == STABILIZER_ORDERS[name]
    assert set(map(tuple, maps.tolist())) == {_index_map(rank, basis) for basis in brute}
    # x[h] is the code of rep read in the basis of h, coordinate by coordinate
    x = np.array(rep.params.as_tuple()[:1] + rep.solution.as_tuple())
    for basis in brute:
        assert tuple(x[list(_index_map(rank, basis))]) == _class_sizes_in_basis(rep, basis)


def test_box_stabilizer_is_cached_read_only_and_starts_at_the_identity():
    loop_class = parse_loop_id("C4_9")
    maps = box_stabilizer(loop_class)
    assert box_stabilizer(loop_class) is maps
    assert not maps.flags.writeable
    assert maps[0].tolist() == list(range(15))


def test_box_stabilizer_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import codeloops.cli as c; print(c.box_stabilizer.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "0\n", proc.stderr


def _box_rows(box):
    """The class sizes of each box row -> its (degree, type)."""
    rows = {}
    for x, degree in zip(box.x.tolist(), box.degree.tolist()):
        rows[tuple(x)] = (degree, tuple(sorted(v for v in x if v)))
    return rows


def _assert_images_in_box(loop_class, rows, x):
    degree, rep_type = rows[tuple(x)]
    for image in np.array(x)[box_stabilizer(loop_class)].tolist():
        assert rows.get(tuple(image)) == (degree, rep_type), (loop_class, x, image)


@pytest.mark.parametrize("name", all_loop_ids(3))
def test_box_stabilizer_maps_the_full_rank3_box_onto_itself(name):
    loop_class = parse_loop_id(name)
    rows = _box_rows(reduced_box(loop_class, 49))
    for x in rows:
        _assert_images_in_box(loop_class, rows, x)


@functools.cache
def _rank4_rows(name):
    return _box_rows(reduced_box(name, 33))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(all_loop_ids(4)), data=st.data())
def test_box_stabilizer_maps_rank4_rows_into_the_box(name, data):
    rows = _rank4_rows(name)
    x = data.draw(st.sampled_from(sorted(rows)))
    _assert_images_in_box(parse_loop_id(name), rows, x)


# -- the pairwise grouping conjecture used before the orbit key -------------


def _pairwise_gap(codes):
    """Positions of the first pair of non-isomorphic codes, via a transversal, or None."""
    transversal = []
    for i, code in enumerate(codes):
        for j in transversal:
            if code_isomorphism(codes[j], code) is not None:
                break
        else:
            if transversal:
                return transversal[0], i
            transversal.append(i)
    return None


@pytest.mark.parametrize("rank, max_degree", [(3, 49), (4, 23)])
def test_orbit_key_gap_equals_pairwise_oracle(rank, max_degree):
    gaps = 0
    for members, codes in zip(_scan_rep_groups(rank, max_degree), _scan_groups(rank, max_degree)):
        gap = _isomorphism_gap(members)
        got = None if gap is None else tuple(members.index(rep) for rep in gap)
        assert got == _pairwise_gap(codes), members[0]
        gaps += got is not None
    assert gaps > 0 if rank == 4 else gaps == 0
