"""Coordinate isomorphism of codes against a brute-force permutation oracle,
against the unscreened class matcher it replaced and against the projection
matcher the relation screen replaced; the box stabilizers
against the brute-force set of admissible bases, and the orbit-key grouping
of conjecture against the pairwise search it replaced."""

import functools
import gc
import hashlib
import itertools
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from codeloops import equivalence, loops
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids, catalog_entry
from codeloops.cli import _conjecture_groups, main
from codeloops.equivalence import (
    _check_permutation,
    _class_data,
    _match_classes,
    box_stabilizer,
    orbit_weights,
    permute_code,
    permute_word,
)
from codeloops.search import _SUBSETS, reduced_box
from oracles import (
    _broadcast_sign_tables,
    _bucket_classes,
    _class_table,
    _general_linear,
    _pack,
    _projection_match_classes,
    _span_class_data,
)
from strategies import binary_codes, doubly_even_codes, relabeled_codes


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


def _raise_timeout(signum, frame):
    raise TimeoutError("no answer within the time bound")


def test_cycle_notation():
    assert cycle_notation((1, 2, 3)) == "()"
    assert cycle_notation((2, 1, 3)) == "(1 2)"
    assert cycle_notation((2, 3, 1, 5, 4)) == "(1 2 3)(4 5)"
    # a tuple that is no permutation of 1..n is refused at once; a walk of
    # its cycles would never close, or index past the end; the alarm bounds
    # the time (and so the memory) a regression can take
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        for perm in ((2, 2), (0,), (1, 3)):
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(InvalidCodeError, match=r"^not a permutation of 1\.\."):
                cycle_notation(perm)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_permute_word_and_code_refuse_a_non_permutation():
    # a repeated image once dropped a coordinate, and a short tuple raised
    # a bare IndexError
    word = Codeword(4, [1, 2])
    code = BinaryCode(4, [Codeword(4, [1, 2, 3, 4])])
    assert permute_word(word, (2, 3, 1, 4)) == Codeword(4, [2, 3])
    assert permute_code(code, (2, 3, 1, 4)) == code
    for perm in ((1, 1, 3, 4), (2, 1, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(InvalidCodeError, match=r"^not a permutation of 1\.\.4$"):
            permute_word(word, perm)
        with pytest.raises(InvalidCodeError, match=r"^not a permutation of 1\.\.4$"):
            permute_code(code, perm)


def test_permute_word_takes_a_permutation_of_numpy_integers():
    # coordinates follow operator.index; a numpy image was refused as
    # "coordinate np.int64(1) outside 1..4"
    perm = tuple(np.array([3, 1, 2, 4]))
    image = permute_word(Codeword(4, [1, 2]), perm)
    assert image == Codeword(4, [1, 3]) and {type(i) for i in image.support} == {int}


def test_match_classes_leaves_no_reference_cycle():
    # the depth-first search is a closure that calls itself; it is freed on
    # return, so a search leaves nothing for the cyclic collector
    a, b = parse_code(SAMPLE_C4_16_A), parse_code(SAMPLE_C4_16_A)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert code_isomorphism(a, b) is not None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
    _assert_bijection_equals_projection_oracle(a, b)


# -- the relation screen against the projection screen it replaced ---------


def _assert_bijection_equals_projection_oracle(a, b):
    """The relation search picks the class bijection the projection search picks, or neither."""
    da, db = _class_data(a), _class_data(b)
    assert _match_classes(da, db) == _projection_match_classes(da, db)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_projections_agree_exactly_when_relations_agree(data):
    # the lemma of the relation screen: signatures s_c of a, assigned to
    # classes of b in a bijection prefix, project the span words x to
    # (|x & s_c| mod 2)_c; those multisets agree on both sides exactly when
    # the assigned signatures satisfy the same linear relations over GF(2)
    k = data.draw(st.integers(1, 4), label="k")
    nonzero = st.integers(1, (1 << k) - 1)
    n = data.draw(st.integers(1, (1 << k) - 1), label="classes")
    sig_a = data.draw(st.permutations(range(1, 1 << k)))[:n]
    order = data.draw(st.permutations(range(n)))
    if data.draw(st.booleans(), label="b from a by a linear map"):
        rows = data.draw(st.lists(nonzero, min_size=k, max_size=k))  # images of the unit vectors
        sig_b = [functools.reduce(int.__xor__, (r for j, r in enumerate(rows) if s >> j & 1), 0)
                 for s in sig_a]
        sig_b = [sig_b[i] for i in order]  # class c of a lands at order.index(c)
        assume(0 not in sig_b and len(set(sig_b)) == n)  # a code's signatures are distinct, nonzero
        prefix = [order.index(c) for c in range(n)]
        if n > 1 and data.draw(st.booleans(), label="swap two images"):
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            prefix[i], prefix[j] = prefix[j], prefix[i]
    else:
        sig_b = data.draw(st.permutations(range(1, 1 << k)))[:n]
        prefix = order
    assigned = min(n, 10)  # 2^10 candidate relations at most
    prefix = prefix[:assigned - data.draw(st.integers(0, assigned), label="unassigned")]
    left = [sig_a[c] for c in range(len(prefix))]
    right = [sig_b[bi] for bi in prefix]

    def projection(sigs):
        return Counter(tuple((x & s).bit_count() & 1 for s in sigs) for x in range(1 << k))

    def relations(sigs):
        return {
            chosen
            for chosen in range(1 << len(sigs))
            if functools.reduce(int.__xor__, (s for c, s in enumerate(sigs) if chosen >> c & 1), 0)
            == 0
        }

    assert (projection(left) == projection(right)) == (relations(left) == relations(right))


def _cross_checked_pairs(rank, max_degree):
    """The pairs of members that conjecture hands to code_isomorphism."""
    groups, _ = _conjecture_groups(rank, max_degree)
    return [group.gap or (group.first, group.last) for group in groups.values() if group.count > 1]


@pytest.mark.parametrize("rank, max_degree, count", [(3, 49, 32), (4, 25, 252)])
def test_bijection_equals_projection_oracle_on_cross_checked_pairs(rank, max_degree, count):
    pairs = _cross_checked_pairs(rank, max_degree)
    assert len(pairs) == count
    for first, second in pairs:
        a, b = first.code(), second.code()
        _assert_bijection_equals_projection_oracle(a, b)
        _assert_bijection_equals_projection_oracle(b, a)


def _seeded_relabeling(name):
    """The catalog code of name under a coordinate permutation seeded by its name."""
    code = catalog_entry(name).code()
    perm = list(range(1, code.degree + 1))
    random.Random(name).shuffle(perm)
    return code, permute_code(code, tuple(perm))


# sha256 of the witness lines below, pinned before the class data moved to masks
WITNESS_DIGEST = "c1a221e0f74f69d64c2482360b5d8c438d97b255181625ea90edb58876fa5ff9"


def test_witnesses_of_the_cross_checked_pairs_and_catalog_relabelings_are_pinned():
    # every witness code_isomorphism gives on the 284 pairs of one benchmark
    # conjecture pass and on the catalog codes against their relabelings,
    # both ways; unlike the oracle comparisons, no class data is patched in
    lines = []
    pairs = [(a.code(), b.code()) for rank, cap in ((4, 25), (3, 49))
             for a, b in _cross_checked_pairs(rank, cap)]
    assert len(pairs) == 284
    pairs += [_seeded_relabeling(name) for name in all_loop_ids()]
    for first, second in pairs:
        for a, b in ((first, second), (second, first)):
            perm = code_isomorphism(a, b)
            lines.append("None" if perm is None else cycle_notation(perm))
    assert lines.count("None") == 84  # the 42 counterexample pairs of rank 4, both ways
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WITNESS_DIGEST


def test_direct_sum_of_sixteen_blocks_gets_a_witness_in_bounded_time():
    # 16 disjoint 4-blocks and eight zero coordinates: 16 classes, each held
    # by 2^15 span words.  The search takes under a second; class data that
    # tabulates every signature of dimension 16 (2^16 x 2^15 words) does
    # not finish within the timeout
    script = (
        "import random\n"
        "from codeloops import BinaryCode, Codeword\n"
        "from codeloops.equivalence import _check_permutation, code_isomorphism, permute_code\n"
        "code = BinaryCode(72, [Codeword.from_mask(72, 15 << 4 * i) for i in range(16)])\n"
        "perm = list(range(1, 73))\n"
        "random.Random(16).shuffle(perm)\n"
        "other = permute_code(code, tuple(perm))\n"
        "witness = code_isomorphism(code, other)\n"
        "_check_permutation(code, other, list(witness))\n"
        "print(code.dimension, code.degree)\n"
    )
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "16 72\n", proc.stderr


def test_bijection_equals_projection_oracle_on_non_isomorphic_pairs():
    pairs = _non_isomorphic_pairs()
    assert pairs
    for a, b in pairs:
        _assert_bijection_equals_projection_oracle(a, b)
        assert _match_classes(_class_data(a), _class_data(b)) is None


# -- class data from signatures against the span-read oracles --------------


def _assert_class_data_equals_oracle(code):
    part, want = code.coordinate_classes(), _bucket_classes(code)
    for name in ("degree", "masks", "residue_mask", "signatures", "classes", "residue"):
        assert getattr(part, name) == getattr(want, name), name
    assert part == want
    data, want = _class_data(code), _span_class_data(code)
    for name in data._fields:
        assert getattr(data, name) == getattr(want, name), name


def test_holders_are_cached_to_dimension_8_and_listed_afresh_above():
    # the getters of every signature of dimension <= 8 are tabulated, one
    # table per dimension; a larger code's classes are listed afresh, so no
    # table takes the 2^(k-1) words per signature of a large dimension
    tables = equivalence._signature_tables
    assert tables.cache_info().maxsize == 9
    rng = random.Random(9)
    for dim in (8, 9, 11):
        code = random_code(rng, 16, dim)
        assert code.dimension == dim
        before = tables.cache_info()
        _assert_class_data_equals_oracle(code)
        after = tables.cache_info()
        if dim <= 8:  # the dimension's table is kept: reading it again is a hit
            tables(dim)
            assert tables.cache_info().hits == after.hits + 1
        else:
            assert after == before
        for sig in code.coordinate_classes().signatures:
            assert equivalence._holders(dim, sig) == tuple(
                x for x in range(1 << dim) if (x & sig).bit_count() % 2
            )


def _fresh(code):
    """A copy of code with none of its derived data computed yet."""
    return BinaryCode(code.degree, code.generators)


def _oracle_backed_isomorphism(a, b):
    """code_isomorphism with the class data read off the span, on fresh copies."""
    with mock.patch.object(equivalence, "_class_data", _span_class_data):
        return code_isomorphism(_fresh(a), _fresh(b))


@settings(max_examples=150, deadline=None)
@given(binary_codes(1, 8))
def test_class_data_equals_oracle_on_random_codes(code):
    _assert_class_data_equals_oracle(code)


def test_class_data_equals_oracle_at_dimension_1():
    # one holder per class: the profile gather must still give a tuple
    code = parse_code("degree=6\n1-4\n")
    _assert_class_data_equals_oracle(code)
    assert _class_data(code).profiles == ((4, 4),)


def test_class_data_equals_oracle_at_dimension_9_past_the_caches():
    code = parse_code("degree=14\n1-4\n3-6\n5-8\n7-10\n9-12\n11-14\n1,3,5,7\n2,4,6,8,10\n1,14\n")
    assert code.dimension == 9
    before = equivalence._signature_tables.cache_info()
    _assert_class_data_equals_oracle(code)
    assert equivalence._signature_tables.cache_info() == before


@pytest.mark.parametrize("name", all_loop_ids())
def test_class_data_equals_oracle_on_catalog_codes(name):
    code, other = _seeded_relabeling(name)
    _assert_class_data_equals_oracle(code)
    assert code_isomorphism(code, code) == _oracle_backed_isomorphism(code, code)
    for a, b in ((code, code), (code, other), (other, code)):
        _assert_bijection_equals_projection_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_data_and_witness_equal_oracle_on_relabeled_box_points(data):
    members = data.draw(st.sampled_from(_scan_rep_groups(4, 23) + _scan_rep_groups(3, 49)))
    first = data.draw(st.sampled_from(members)).code()
    second = data.draw(st.sampled_from(members)).code()
    a = data.draw(relabeled_codes(first, max_pad=0))
    b = data.draw(relabeled_codes(second, max_pad=0))
    padded = data.draw(relabeled_codes(first))  # with zero coordinates
    for code in (first, a, b, padded):
        _assert_class_data_equals_oracle(code)
    # isomorphic or not, with one witness or the other
    assert code_isomorphism(a, b) == _oracle_backed_isomorphism(a, b)
    assert code_isomorphism(first, a) == _oracle_backed_isomorphism(first, a) is not None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witness_with_signature_class_data_equals_span_class_data(data):
    code = data.draw(binary_codes(1, 6, max_degree=40))
    other = data.draw(relabeled_codes(code))
    padded = BinaryCode(other.degree, [Codeword(other.degree, g.support) for g in code.generators])
    got = code_isomorphism(padded, other)
    assert got is not None
    assert got == _oracle_backed_isomorphism(padded, other)
    _assert_bijection_equals_projection_oracle(padded, other)


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


def _forms_of_degree_three(rank):
    """Every form of degree <= 3 on GF(2)^rank with q(0) = 0, with the monomials it holds.

    Monomial m (a set of coordinates, as a bitmask) is 1 at y when y holds
    all of m; row f of the coefficients picks the monomials of form f.
    """
    monomials = [m for m in range(1, 1 << rank) if m.bit_count() <= 3]
    y = np.arange(1 << rank)
    values = np.array([(y & m) == m for m in monomials], dtype=np.int64)
    coefficients = np.arange(1 << len(monomials))[:, None] >> np.arange(len(monomials)) & 1
    return monomials, coefficients, coefficients @ values % 2


@pytest.mark.parametrize("rank", [3, 4])
def test_class_table_partitions_the_forms_into_catalog_orbits(rank):
    # the catalog is complete and irredundant: the forms with a cubic term
    # are the squaring forms of nonassociative loops, and they fall into
    # one orbit per class with the pinned stabilizer order
    monomials, coefficients, forms = _forms_of_degree_three(rank)
    packed = forms @ (1 << np.arange(1 << rank))
    assert len(set(packed.tolist())) == len(packed)
    cubic = coefficients[:, [m.bit_count() == 3 for m in monomials]].any(axis=1)
    table = _class_table(rank)
    classes = table[packed]
    assert (classes[~cubic] == 0).all()
    assert (classes[cubic] > 0).all()
    assert np.count_nonzero(table) == cubic.sum() == (64 if rank == 3 else 15360)
    rows, images = _general_linear(rank)
    order = int(np.prod([(1 << rank) - (1 << i) for i in range(rank)]))
    assert len(rows) == len(set(map(tuple, rows.tolist()))) == order
    assert rows.tolist() == sorted(rows.tolist())
    # a change of basis keeps the class of every form
    for g in range(0, order, order // 12):
        moved = forms[:, images[g]] @ (1 << np.arange(1 << rank))
        assert (table[moved] == classes).all()
    for name in all_loop_ids(rank):
        loop_class = parse_loop_id(name)
        vector = loop_class.vector
        pairs = dict(zip(itertools.combinations(range(rank), 2), vector.commutators))
        f = 0  # the form of the vector: its bits, and the cubic term of words 0, 1, 2
        for i, m in enumerate(monomials):
            held = tuple(j for j in range(rank) if m >> j & 1)
            bit = vector.squares[held[0]] if len(held) == 1 else pairs.get(held, held == (0, 1, 2))
            f |= int(bit) << i
        assert packed[f] == _pack(loops._class_form(vector))
        assert classes[f] == loop_class.index
        assert np.count_nonzero(classes == loop_class.index) * STABILIZER_ORDERS[name] == order


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
    # the squaring form the class vector alone gives every span word is the
    # one the weights of a representation give, |w_x|/4 mod 2; the standard
    # basis of every box point is admissible with the class vector
    loop_class = parse_loop_id(name)
    if loop_class.rank == 3:
        reps = list(enumerate_reduced(loop_class, 49))
    else:
        reps = [_first_box_point(name)]
    form = loops._class_form(loop_class.vector).tolist()
    assert reps
    for rep in reps:
        assert form == [m.bit_count() // 4 % 2 for m in rep.code().span_masks()]


@pytest.mark.parametrize("name", all_loop_ids())
def test_box_stabilizer_equals_admissible_bases(name):
    loop_class = parse_loop_id(name)
    rank = loop_class.rank
    rep = _first_box_point(name)
    loop = build_loop(rep.code())
    # a basis with the class vector has its square bits, so each row is
    # drawn from the span words (weights read off the code) with that bit
    squares = _broadcast_sign_tables(loop.factor_set.array)[0]
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


@pytest.mark.parametrize("name", all_loop_ids())
def test_form_stabilizer_equals_the_general_linear_filter(name):
    # the row-by-row walk keeps exactly the bases of the full GL(k, 2) list
    # that read q_L as q_L, in the list's ascending order
    loop_class = parse_loop_id(name)
    q = loops._class_form(loop_class.vector)
    rows, images = _general_linear(loop_class.rank)
    got = equivalence._form_stabilizer(q)
    assert got.dtype == np.uint8
    assert got.tolist() == rows[(q[images] == q).all(axis=1)].tolist()


def _transvection_orbit(q):
    """The packed forms q read in every basis of GL(k, 2), by a breadth-first walk.

    The transvection e_i -> e_i + e_j takes span word y to y ^ (bit i of y)
    << j, and the k(k - 1) transvections generate GL(k, 2), so the walk
    over them from q reaches its whole orbit.  Shares no code with the
    library's walk over the rows of a basis.
    """
    n = len(q)
    k = n.bit_length() - 1
    y = np.arange(n)
    moves = np.array([y ^ (y >> i & 1) << j for i in range(k) for j in range(k) if i != j])
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    seen = {int(q @ powers)}
    frontier = q[None, :]
    while len(frontier):
        moved = frontier[:, moves].reshape(-1, n)
        packed = (moved @ powers).tolist()
        fresh = {}
        for i, p in enumerate(packed):
            if p not in seen:
                fresh.setdefault(p, i)
        seen.update(fresh)
        frontier = moved[list(fresh.values())]
    return seen


def _monomial_form(rank, monomials):
    """The truth table of a sum of monomials, each a mask of its variables."""
    coefficients = np.zeros(1 << rank, dtype=np.uint8)
    coefficients[list(monomials)] = 1
    return loops._anf(coefficients)


RANK5_FORMS = {
    # the squaring form of a dimension-5 code: |w_y|/4 mod 2 over its span
    "code": (
        np.array([
            m.bit_count() // 4 % 2
            for m in parse_code("degree=12\n1,2,3,4\n1,2,5,6\n1,3,5,7\n1-8\n9-12\n").span_masks()
        ], dtype=np.uint8),
        2688,
    ),
    "y0y1y2": (_monomial_form(5, [0b00111]), 9216),
    "y0y1y2 + y0y3y4": (_monomial_form(5, [0b00111, 0b11001]), 720),
}


@pytest.mark.parametrize("name", sorted(RANK5_FORMS))
def test_form_stabilizer_at_rank_5(name):
    # GL(5, 2) has 9,999,360 bases, too many to list; the walk holds only
    # the stabilizer, and orbit times stabilizer is the group order
    q, order = RANK5_FORMS[name]
    rows = equivalence._form_stabilizer(q)
    assert len(rows) == order
    assert rows[0].tolist() == [1, 2, 4, 8, 16]
    listed = rows.tolist()
    assert all(a < b for a, b in zip(listed, listed[1:]))  # strictly ascending
    images = np.zeros((len(rows), 32), dtype=np.uint8)
    for j in range(5):
        images[:, 1 << j : 2 << j] = images[:, : 1 << j] ^ rows[:, j : j + 1]
    assert (np.sort(images, axis=1) == np.arange(32)).all()  # each row set is a basis
    assert (q[images] == q).all()
    assert len(rows) * len(_transvection_orbit(q)) == 9999360


def test_box_stabilizer_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import codeloops.cli; from codeloops import equivalence as e, loops as l; print(*("
            "f.cache_info().currsize for f in (e.box_stabilizer, e.orbit_weights, l._class_keys)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "0 0 0\n", proc.stderr


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


@pytest.mark.parametrize("name, cap", [(name, 49) for name in all_loop_ids(3)]
                         + [(name, 25) for name in all_loop_ids(4)])
def test_orbit_weights_pack_the_gathered_images(name, cap):
    # W @ x is the images x[h] of box_stabilizer, gathered and then packed
    # with class size i in bits 3i..3i+2, on every leaf of the box to cap
    loop_class = parse_loop_id(name)
    weights = orbit_weights(loop_class)
    maps = box_stabilizer(loop_class)
    assert weights is orbit_weights(loop_class)
    assert weights.dtype == np.int64 and not weights.flags.writeable
    assert weights.shape == maps.shape
    x = reduced_box(loop_class, cap).x.astype(np.int64)
    assert len(x) > 0 and x.max() < 8
    gathered = x[:, maps]  # [leaf, h, position]
    packed = (gathered << 3 * np.arange(maps.shape[1], dtype=np.int64)).sum(axis=2)
    assert (x @ weights.T == packed).all()
    # one packing format: the identity comes first, so row 0 packs a row as _pack does
    assert weights[0].tolist() == [8**j for j in range(maps.shape[1])]
    rows = x.tolist()
    assert [equivalence._pack(row) for row in rows] == (x @ weights[0]).tolist()


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
    groups, total = _conjecture_groups(rank, max_degree)
    rep_groups = _scan_rep_groups(rank, max_degree)
    assert len(groups) == len(rep_groups)
    assert total == sum(map(len, rep_groups))
    gaps = 0
    for key, members, codes in zip(sorted(groups), rep_groups, _scan_groups(rank, max_degree)):
        group = groups[key]
        assert (group.first, group.last, group.count) == (members[0], members[-1], len(members))
        got = None if group.gap is None else tuple(members.index(rep) for rep in group.gap)
        assert got == _pairwise_gap(codes), members[0]
        gaps += got is not None
    assert gaps > 0 if rank == 4 else gaps == 0
