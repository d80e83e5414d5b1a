"""Coordinate isomorphism of codes against a brute-force permutation oracle
and against the unscreened class matcher it replaced."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import (
    BinaryCode,
    Codeword,
    InternalInvariantError,
    code_isomorphism,
    cycle_notation,
    distinguishing_invariant,
    enumerate_reduced,
    parse_code,
    parse_loop_id,
)
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids
from codeloops.cli import main
from codeloops.equivalence import _check_permutation, permute_code, permute_word
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
def _scan_groups(rank, max_degree):
    """Codes of the reduced scan grouped as conjecture groups them."""
    groups = {}
    for name in all_loop_ids(rank):
        target = parse_loop_id(name)
        for rep in enumerate_reduced(target, max_degree):
            key = (target.index, rep.degree, rep.rep_type().sizes)
            groups.setdefault(key, []).append(rep.code())
    return [groups[key] for key in sorted(groups)]


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
