"""Congruence solving, generator assembly, enumeration, and minimality.

Frozen anchor: the rank 4 worked example with
t = [0,1,0,2,0,2,6,2,6,0,4,8,8,16,4] solving to
x = (1,0,2,0,1,3,0,5,0,2,1,1,3,0) at degree 19, type 111122335.
"""

import copy
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import codeloops
from codeloops import (
    Codeword,
    InternalInvariantError,
    InvalidCodeError,
    LoopClass,
    ParamVector3,
    ParamVector4,
    Solution3,
    Solution4,
    build_loop,
    classify,
    congruence_targets,
    enumerate_reduced,
    minimal_representation,
    parse_code,
    parse_loop_id,
    solve_system3,
    solve_system4,
    verify_representation,
)
from codeloops.catalog import SAMPLE_C4_16_A, all_loop_ids, catalog_entry
from codeloops import cli, search
from codeloops.cli import main
from codeloops.codes import _mask_rank
from codeloops.search import (
    Box,
    Representation,
    SearchStats,
    _independent,
    _representations,
    assemble_generators,
    reduced_box,
)
from codeloops.subsets import _class_tables, _least_completion, _least_sizes, _meet_residues
from oracles import (
    _general_linear,
    _ladder_screen,
    _ladder_solve_system,
    _ladder_subsets,
    _ladder_targets,
    _level_walk,
    _minimal_degree,
    _scan,
    _reduce_mask_meets,
    _scan_branch_and_bound,
)

WALKTHROUGH_T = (0, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 8, 8, 16, 4)
WALKTHROUGH_X = (1, 0, 2, 0, 1, 3, 0, 5, 0, 2, 1, 1, 3, 0)


def test_congruence_targets_rank3():
    targets = congruence_targets(LoopClass(3, 1).vector)
    assert targets == {
        "t123": (2, 1),
        "t12": (4, 2), "t13": (4, 2), "t23": (4, 2),
        "t1": (8, 4), "t2": (8, 4), "t3": (8, 4),
    }
    targets = congruence_targets(LoopClass(3, 4).vector)  # 110000
    assert targets["t1"] == (8, 4)
    assert targets["t3"] == (8, 0)
    assert targets["t12"] == (4, 0)


def test_congruence_targets_rank4():
    targets = congruence_targets(LoopClass(4, 16).vector)  # 0001111100
    assert targets["t123"] == (2, 1)
    assert targets["t124"] == (2, 0)
    assert targets["t4"] == (8, 4)
    assert targets["t12"] == (4, 2)
    assert targets["t34"] == (4, 0)
    # the quadruple overlap has no sign constraint; mod 1 leaves it free
    assert targets["t1234"] == (1, 0)


@pytest.mark.parametrize("name", all_loop_ids())
def test_meet_residues_equal_the_ladder_on_every_class(name):
    cv = parse_loop_id(name).vector
    assert congruence_targets(cv) == _ladder_targets(cv)
    # computed once per class: the dict view and the walks read one cached pair of tuples
    moduli, residues = _meet_residues(cv)
    assert _meet_residues(cv) is _meet_residues(cv)
    assert list(congruence_targets(cv).values()) == list(zip(moduli, residues))


def test_solve_system3_minimal_point():
    t = ParamVector3(t123=1, t12=2, t13=2, t23=2, t1=4, t2=4, t3=4)
    sol = solve_system3(t)
    assert sol is not None
    assert sol.as_tuple() == (1, 1, 1, 1, 1, 1)

    # class sizes stay in 0..7: with these overlaps x1 = t1 - 3, and t1 must
    # be a weight multiple of 4, so 8 fits and 12 overflows
    sol = solve_system3(ParamVector3(1, 2, 2, 2, 8, 4, 4))
    assert sol is not None and sol.x1 == 5
    assert solve_system3(ParamVector3(1, 2, 2, 2, 12, 4, 4)) is None
    # structurally impossible weights and meets are screened out
    assert solve_system3(ParamVector3(1, 2, 2, 2, 10, 4, 4)) is None
    assert solve_system3(ParamVector3(1, 3, 2, 2, 8, 4, 4)) is None
    # even triple meet violates the associator requirement
    assert solve_system3(ParamVector3(2, 3, 3, 3, 4, 4, 4)) is None


def test_solve_system3_respects_targets():
    targets = congruence_targets(LoopClass(3, 1).vector)
    t = ParamVector3(1, 2, 2, 2, 4, 4, 4)
    assert solve_system3(t, targets) is not None
    off = ParamVector3(1, 2, 2, 2, 8, 4, 4)  # t1 = 0 mod 8, wrong class
    assert solve_system3(off, targets) is None


def test_solve_system4_walkthrough_exact():
    t = ParamVector4(*WALKTHROUGH_T)
    sol = solve_system4(t)
    assert sol is not None
    assert sol.as_tuple() == WALKTHROUGH_X


def test_solve_system4_rejects_out_of_range():
    bad = ParamVector4(8, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 8, 8, 16, 4)
    assert solve_system4(bad) is None
    # t1 below 4 would leave no room for the v1 weight congruence
    low = ParamVector4(0, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 0, 8, 16, 4)
    assert solve_system4(low) is None


def test_param_vectors_from_words():
    code = parse_code(SAMPLE_C4_16_A)
    assert ParamVector4.from_words(*code.generators).as_tuple() == WALKTHROUGH_T
    code3 = catalog_entry("C3_1").code()
    assert ParamVector3.from_words(*code3.generators).as_tuple() == (
        1, 2, 2, 2, 4, 4, 4
    )


def test_assemble_walkthrough_generators():
    t = ParamVector4(*WALKTHROUGH_T)
    rep = assemble_generators(t, solve_system4(t), parse_loop_id("C4_16"))
    supports = [g.support for g in rep.generators]
    assert supports == [
        frozenset(range(1, 9)),
        frozenset({1, 4}) | frozenset(range(9, 15)),
        frozenset({1, 2, 3, 5, 6, 7}) | frozenset(range(9, 14)) | frozenset(range(15, 20)),
        frozenset({2, 3, 15, 16}),
    ]
    assert rep.degree == 19
    assert str(rep.rep_type()) == "111122335"


def test_assemble_rank3_minimal():
    t = ParamVector3(1, 2, 2, 2, 4, 4, 4)
    rep = assemble_generators(t, solve_system3(t), parse_loop_id("C3_1"))
    assert [g.support for g in rep.generators] == [
        frozenset({1, 2, 3, 5}),
        frozenset({1, 2, 4, 6}),
        frozenset({1, 3, 4, 7}),
    ]
    assert rep.degree == 7


def test_assemble_rejects_degenerate_vector():
    # x13 = x23 = x1 = x2 = 0 puts generators 1 and 2 on the same classes
    t = ParamVector3(t123=1, t12=4, t13=1, t23=1, t1=4, t2=4, t3=5)
    x = Solution3(x12=3, x13=0, x23=0, x1=0, x2=0, x3=4)
    with pytest.raises(InvalidCodeError, match="generators are linearly dependent"):
        assemble_generators(t, x, parse_loop_id("C3_1"))


def test_assemble_checks_the_meets_against_t():
    t = ParamVector3(1, 2, 2, 2, 4, 4, 4)
    x = Solution3(1, 1, 1, 1, 1, 2)  # x3 = 2 makes t3 = 5, not 4
    with pytest.raises(InternalInvariantError, match="do not reproduce t"):
        assemble_generators(t, x, parse_loop_id("C3_1"))


_MASKS = st.one_of(st.just(0), st.integers(0, 2**64 - 1), st.integers(2**64, 2**200))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mask_meets_by_doubling_equal_the_per_subset_reduce(data):
    # zero masks, word-size masks and masks wider than 64 bits
    rank = data.draw(st.sampled_from([3, 4]))
    masks = data.draw(st.lists(_MASKS, min_size=rank, max_size=rank))
    assert search._mask_meets(rank, masks) == _reduce_mask_meets(rank, masks)


def test_classes_of_relabeled_generators_are_the_row_layout():
    # generators in another coordinate order are kept, not refused; classes
    # is then the row's interval layout, not the code's classes
    code = parse_code(SAMPLE_C4_16_A)
    m = code.degree
    generators = tuple(Codeword(m, [m + 1 - i for i in g.support]) for g in code.generators)
    t = ParamVector4.from_words(*generators)
    assert t == ParamVector4.from_words(*code.generators)
    rep = Representation(
        target=parse_loop_id("C4_16"), params=t, solution=solve_system4(t),
        classes=(), generators=generators, degree=m,
    )
    assert rep.generators == generators
    assert rep.classes == assemble_generators(t, solve_system4(t), rep.target).classes
    laid_out = {frozenset(coordinates) for _, coordinates in rep.classes}
    assert laid_out == set(code.coordinate_classes().classes)
    assert laid_out != set(rep.code().coordinate_classes().classes)
    assert verify_representation(rep)


def test_enumerate_c3_1_to_degree_7():
    reps = list(enumerate_reduced("C3_1", 7))
    assert len(reps) == 1
    assert reps[0].degree == 7
    assert str(reps[0].rep_type()) == "1111111"
    assert verify_representation(reps[0])


def test_enumerate_below_minimum_is_empty():
    assert list(enumerate_reduced("C4_16", 16)) == []
    assert list(enumerate_reduced("C3_2", 12)) == []


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(InvalidCodeError):
        enumerate_reduced("C3_1", 0)
    with pytest.raises(InvalidCodeError):
        enumerate_reduced("C3_1", 50)
    with pytest.raises(InvalidCodeError):
        enumerate_reduced("C4_1", 106)


def test_enumerate_is_deterministic_and_ordered():
    a = [(r.params.as_tuple(), r.solution.as_tuple()) for r in enumerate_reduced("C3_2", 16)]
    b = [(r.params.as_tuple(), r.solution.as_tuple()) for r in enumerate_reduced("C3_2", 16)]
    assert a == b
    assert a == sorted(a)
    assert len(a) == len(set(a))


def test_every_enumerated_rep_verifies():
    for name, cap in (("C3_3", 14), ("C4_6", 12), ("C4_16", 17)):
        reps = list(enumerate_reduced(name, cap))
        assert reps, name
        for rep in reps:
            assert verify_representation(rep), (name, rep.params)
            assert rep.degree <= cap
            assert rep.rep_type().is_reduced


def test_assembled_classes_are_read_off_the_row_as_the_coordinate_classes_of_the_code():
    # assemble_generators lays out the generators alone; the classes, read
    # later, are the coordinate classes of that code in interval layout
    for name, cap in (("C3_3", 14), ("C3_5", 21), ("C4_6", 12), ("C4_16", 17)):
        reps = list(enumerate_reduced(name, cap))
        assert reps, name
        for rep in reps:
            full = assemble_generators(rep.params, rep.solution, rep.target)
            assert not hasattr(full, "_classes")  # read off the row, not stored
            part = full.code().coordinate_classes()
            assert tuple(frozenset(coords) for _, coords in full.classes) == part.classes
            signatures = tuple(sum(1 << int(ch) - 1 for ch in label) for label, _ in full.classes)
            assert signatures == part.signatures and part.residue_mask == 0
            assert full.classes == rep.classes and hash(full) == hash(rep)


def test_enumerated_types_sum_to_degree():
    for rep in enumerate_reduced("C4_1", 10):
        assert sum(rep.rep_type().sizes) == rep.degree
        part = rep.code().coordinate_classes()
        assert part.residue == frozenset()


def test_minimal_rank3_all_classes():
    expect = {
        "C3_1": (7, "1111111"),
        "C3_2": (13, "1111333"),
        "C3_3": (11, "1111115"),
        "C3_4": (17, "1111337"),
        "C3_5": (17, "1113335"),
    }
    for name, (degree, type_str) in expect.items():
        rep, cert = minimal_representation(parse_loop_id(name))
        assert rep.degree == degree, name
        assert str(rep.rep_type()) == type_str, name
        assert cert.exhausted
        assert cert.visited > 0
        assert verify_representation(rep)


def test_minimal_c4_16():
    rep, cert = minimal_representation(parse_loop_id("C4_16"))
    assert rep.degree == 17
    assert str(rep.rep_type()) == "111112235"
    assert cert.degree == 17


def test_minimal_is_first_enumerated_at_its_degree():
    rep, _ = minimal_representation(parse_loop_id("C3_2"))
    first = next(iter(enumerate_reduced("C3_2", rep.degree)))
    assert first.params == rep.params
    assert first.solution == rep.solution


def test_verify_representation_rejects_wrong_loop():
    rep = next(iter(enumerate_reduced("C3_1", 7)))
    loop = build_loop(rep.code())
    assert classify(loop).name == "C3_1"
    forged = rep.__class__(
        target=parse_loop_id("C3_2"),
        params=rep.params,
        solution=rep.solution,
        classes=rep.classes,
        generators=rep.generators,
        degree=rep.degree,
    )
    assert not verify_representation(forged)


# (degree, type, visited, pruned) of every minimal representation and its
# exhaustion certificate
MINIMAL_CERTIFICATES = {
    "C3_1": (7, "1111111", 20, 8),
    "C3_2": (13, "1111333", 57, 18),
    "C3_3": (11, "1111115", 65, 16),
    "C3_4": (17, "1111337", 104, 25),
    "C3_5": (17, "1113335", 101, 26),
    "C4_1": (8, "11111111", 4668, 1699),
    "C4_2": (14, "11111111222", 6527, 2377),
    "C4_3": (12, "111111114", 3550, 1465),
    "C4_4": (18, "11111111226", 12449, 5065),
    "C4_5": (18, "111111112224", 13382, 5190),
    "C4_6": (11, "11111114", 1342, 625),
    "C4_7": (17, "11113334", 8653, 3679),
    "C4_8": (17, "11111122223", 16814, 6178),
    "C4_9": (19, "11111222233", 15580, 6143),
    "C4_10": (19, "111223333", 14813, 6005),
    "C4_11": (17, "111122333", 10999, 4299),
    "C4_12": (17, "1111112234", 12573, 4862),
    "C4_13": (17, "111111236", 8715, 3701),
    "C4_14": (13, "111111223", 4217, 1738),
    "C4_15": (17, "111111227", 12283, 4805),
    "C4_16": (17, "111112235", 8715, 3700),
}


def test_minimal_certificates_are_pinned():
    got = {}
    for name in all_loop_ids(3) + all_loop_ids(4):
        rep, cert = minimal_representation(parse_loop_id(name))
        got[name] = (rep.degree, str(rep.rep_type()), cert.visited, cert.pruned)
    assert got == MINIMAL_CERTIFICATES
    assert sum(v[2] for v in got.values()) == 155627
    assert sum(v[3] for v in got.values()) == 61624


@pytest.mark.parametrize("name", sorted(MINIMAL_CERTIFICATES))
def test_minimal_degree_equals_the_branch_and_bound_oracle(name):
    # the oracle reads its residues off the ANF of q_L read in a basis g,
    # the identity and one seeded random basis of GL(k, 2)
    loop_class = parse_loop_id(name)
    _, images = _general_linear(loop_class.rank)
    random_basis = int(np.random.default_rng(2019 + loop_class.index).integers(1, len(images)))
    for basis in (0, random_basis):
        degree, visited = _minimal_degree(loop_class, basis)
        assert degree == MINIMAL_CERTIFICATES[name][0], basis
        assert visited < 20000, basis


# sha256 of the --out file and the stdout (with {out} for the file path)
PINNED_RUNS = [
    (
        ["enumerate", "--loop", "C3_2", "--max-degree", "49"],
        "349d1391e7ebeb9db16d3ddd0c772f59b3334287e3d1470299722cc3905808a9",
        "representations: 32\nwritten: {out}\n",
    ),
    (
        ["enumerate", "--loop", "C4_16", "--max-degree", "31"],
        "bfe4b0ca0d8231c1b05f22e58d32137642aec80928e0ef8344641cf37531936a",
        "representations: 1008\nwritten: {out}\n",
    ),
    (
        ["enumerate", "--loop", "C4_16", "--max-degree", "105"],
        "794a365a538645e0df38f509f5a17fcb6257e4dfa60624b4913d709551364e24",
        "representations: 131072\nwritten: {out}\n",
    ),
    (
        ["conjecture", "--rank", "4", "--max-degree", "21"],
        "66b0d9853064a499432d6dd9f3c2592d74812431e4dfd195262e1ee730c74406",
        "groups: 100\ncounterexamples: 1\nwritten: {out}\n",
    ),
    (
        ["conjecture", "--rank", "4", "--max-degree", "25"],
        "596a02647e66719675d0a85f6aae2ea6f2a4ec09582b8fc8800c32a58855e47b",
        "groups: 324\ncounterexamples: 42\nwritten: {out}\n",
    ),
    (
        ["conjecture", "--rank", "3", "--max-degree", "49"],
        "fbfb672816b19b45445c69ad21f7c3551cbb7a12b5add21098878ad86cb6ebc8",
        "groups: 64\ncounterexamples: 0\nwritten: {out}\n",
    ),
    (
        ["conjecture", "--rank", "4", "--max-degree", "31"],
        "464156201f79a7577e3ea3a1ec9c7b0846f156674c4c76494ebd59ebf0575205",
        "groups: 1375\ncounterexamples: 400\nwritten: {out}\n",
    ),
    (
        ["enumerate", "--loop", "C4_1", "--max-degree", "37"],
        "2fdd1008a2407e3c55a06056277b590aae8f063c5b0b606ee3cae2019c179995",
        "representations: 5753\nwritten: {out}\n",
    ),
    (
        ["enumerate", "--loop", "C3_1", "--max-degree", "20"],
        "aa02db58273a5fc556bdbd90a134e206ba39a18e431ed6a2ba64bd4caa15b7b2",
        "representations: 8\nwritten: {out}\n",
    ),
]


@pytest.mark.parametrize(
    "argv, digest, stdout",
    PINNED_RUNS,
    ids=[
        "enumerate-C3_2", "enumerate-C4_16", "enumerate-C4_16-full",
        "conjecture-4", "conjecture-4-25", "conjecture-3-49", "conjecture-4-31",
        "enumerate-C4_1-37", "enumerate-C3_1-20",
    ],
)
def test_pinned_output_digests(tmp_path, capsys, argv, digest, stdout):
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout.format(out=out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _scan_rows(loop_class, max_degree):
    """(t, x, degree) of every _scan leaf with independent generators, x led by the top meet."""
    vectors = [sum(1 << i for i in s) for s in _ladder_subsets(loop_class.rank)]
    rows = []
    for t, x, degree in _scan(loop_class, max_degree + 1, SearchStats()):
        x = t.as_tuple()[:1] + x.as_tuple()
        if _mask_rank([v for v, size in zip(vectors, x) if size]) == loop_class.rank:
            rows.append((t.as_tuple(), x, degree))
    return rows


def _box_rows(box):
    return list(zip(map(tuple, box.t.tolist()), map(tuple, box.x.tolist()), box.degree.tolist()))


ORACLE_CAPS = {3: (14, 20, 49), 4: (20, 25, 31, 37)}


@pytest.mark.parametrize("name", all_loop_ids())
def test_walk_yields_the_scan_order(name):
    loop_class = parse_loop_id(name)
    for max_degree in ORACLE_CAPS[loop_class.rank]:
        box = reduced_box(loop_class, max_degree)
        assert _box_rows(box) == _scan_rows(loop_class, max_degree), max_degree


@pytest.mark.parametrize("name", ["C4_1", "C4_16"])
def test_walk_yields_the_scan_order_on_the_full_box(name):
    loop_class = parse_loop_id(name)
    box = reduced_box(loop_class, 105)
    assert len(box.degree) == {"C4_1": 131040, "C4_16": 131072}[name]
    assert _box_rows(box) == _scan_rows(loop_class, 105)


def _assert_boxes_equal(got, want, context):
    for field, a, b in zip(got._fields, got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), (context, field)


# the level walk at every cap of the rank 3 boxes, and around and past the
# minimal degrees and the benchmark's cap at rank 4, up to the full box
LEVEL_WALK_CAPS = {3: range(1, 50), 4: [*range(16, 46), 105]}


@pytest.mark.parametrize("name", all_loop_ids(3) + ("C4_1", "C4_6", "C4_9", "C4_16"))
def test_reduced_box_equals_the_level_walk(name):
    loop_class = parse_loop_id(name)
    for max_degree in LEVEL_WALK_CAPS[loop_class.rank]:
        want = _level_walk(loop_class, max_degree + 1)
        _assert_boxes_equal(reduced_box(loop_class, max_degree), want, max_degree)


def test_reduced_box_peaks_within_a_small_multiple_of_the_box():
    # the walk's arrays stay small integers or float32 over the whole box:
    # a float64 product or a copy per completion would cross this bound
    reduced_box("C4_16", 16)  # the rank's tables and the class's tables, cached
    tracemalloc.start()
    try:
        box = reduced_box("C4_16", 105)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(box.x) == 131072
    assert peak <= 8 * sum(a.nbytes for a in box)


def test_run_plans_and_pair_bits_are_not_built_at_import():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import codeloops.cli as c; from codeloops import search as s; print(*(f.cache_info()"
            ".currsize for f in (c._slot_leads, c._plan, c._number_words, c._run_words,"
            " s._pair_bits, s._pair_tables, s._prefix_tree, s._class_tables)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "0 0 0 0 0 0 0 0\n", proc.stderr


def test_minimal_in_a_fresh_interpreter_prints_the_pinned_certificate():
    # the pair tables are built on first use, inside the one-shot command
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codeloops.cli", "minimal", "--loop", "C4_8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("loop: C4_8\ndegree: 17\ntype: 11111122223\n")
    assert proc.stdout.endswith("visited: 16814\npruned: 6178\n")


# the calls whose outputs must not depend on the class tables and the
# stabilizer records being built already: every minimal call, then the --out
# runs with the sha256 of the file; the conjecture runs read the records of
# all 21 classes
_WARM_RUNS = [["minimal", "--loop", name] for name in all_loop_ids()] + [
    ["enumerate", "--loop", "C4_16", "--max-degree", "37", "--out"],
    ["conjecture", "--rank", "3", "--max-degree", "49", "--out"],
    ["conjecture", "--rank", "4", "--max-degree", "25", "--out"],
]
_WARM_DIGESTS = [
    "e0462669894f9751653f3f8fdfafe3c13209e7583d4966f8444a01d7bcd0f362",
    "fbfb672816b19b45445c69ad21f7c3551cbb7a12b5add21098878ad86cb6ebc8",
    "596a02647e66719675d0a85f6aae2ea6f2a4ec09582b8fc8800c32a58855e47b",
]


def test_warm_class_tables_print_the_cold_bytes(tmp_path):
    # one fresh interpreter runs every call twice: the first run builds the
    # rank and class tables and the stabilizer records, the second reads them
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = str(tmp_path / "report.txt")
    script = (
        "import contextlib, hashlib, io, json, sys\n"
        "from codeloops.cli import main\n"
        "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "for _ in range(2):\n"
        "    for argv in runs:\n"
        "        text, written = io.StringIO(), argv[-1] == '--out'\n"
        "        with contextlib.redirect_stdout(text):\n"
        "            status = main(argv + [out] if written else argv)\n"
        "        digest = written and hashlib.sha256(open(out, 'rb').read()).hexdigest()\n"
        "        print(json.dumps([status, text.getvalue(), digest]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_WARM_RUNS), out],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    cold, warm = results[:len(_WARM_RUNS)], results[len(_WARM_RUNS):]
    assert warm == cold
    minimal, written = cold[:-len(_WARM_DIGESTS)], cold[-len(_WARM_DIGESTS):]
    for name, (status, text, _) in zip(all_loop_ids(), minimal):
        degree, rep_type, visited, pruned = MINIMAL_CERTIFICATES[name]
        assert status == 0
        assert text.startswith(f"loop: {name}\ndegree: {degree}\ntype: {rep_type}\n"), name
        assert text.endswith(f"visited: {visited}\npruned: {pruned}\n"), name
    assert [status for status, _, _ in written] == [0] * len(_WARM_DIGESTS)
    assert [digest for _, _, digest in written] == _WARM_DIGESTS


@pytest.mark.parametrize("name", all_loop_ids())
def test_class_tables_equal_a_fresh_computation_and_are_read_only(name):
    cv = parse_loop_id(name).vector
    tables = _class_tables(cv)
    assert _class_tables(cv) is tables
    base, least_pairs, least_singles = _least_sizes(cv.rank, _meet_residues(cv)[1])
    split = least_pairs.shape[1] - 3  # the pairs before the last three
    rows = least_pairs.tolist()
    keys = np.array(
        [
            [sum(size * 4 ** i for i, size in enumerate(reversed(row[:split]))) for row in rows],
            [sum(size * 4 ** i for i, size in enumerate(reversed(row[split:]))) for row in rows],
            [sum(row[:split]) for row in rows],
        ],
        dtype=np.uint8,
    )
    fresh = (base, least_pairs, least_singles, _least_completion(base, least_singles), keys)
    for field_name, got, want in zip(tables._fields, tables, fresh):
        assert got.dtype == want.dtype, field_name
        assert np.array_equal(got, want), field_name
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


@pytest.mark.parametrize("name", all_loop_ids())
def test_minimal_shares_one_class_table_entry_across_target_forms(name):
    loop_class = parse_loop_id(name)
    _class_tables.cache_clear()
    reps = [minimal_representation(t) for t in (loop_class, loop_class.vector, name)]
    assert _class_tables.cache_info().currsize == 1
    assert reps[0] == reps[1] == reps[2]


def test_class_tables_of_every_class_take_at_most_one_megabyte():
    tables = [_class_tables(parse_loop_id(name).vector) for name in all_loop_ids()]
    assert sum(a.nbytes for t in tables for a in t) <= 1_000_000


def _laid_out(branch_and_bound, loop_class, cap):
    """The (t, x) of each leaf a branch and bound lays out, in order, its stats and its record."""
    leaves = []
    assemble = search.assemble_generators

    def record(t, x, target):
        leaves.append((t.as_tuple(), x.as_tuple()))
        return assemble(t, x, target)

    stats = SearchStats()
    with mock.patch.object(search, "assemble_generators", record):
        best = branch_and_bound(loop_class, cap, stats)
    return leaves, stats, best


def _assert_branch_and_bound_equals_the_scan(loop_class, cap):
    got = _laid_out(search._branch_and_bound, loop_class, cap)
    assert got == _laid_out(_scan_branch_and_bound, loop_class, cap), cap
    return got


@pytest.mark.parametrize("name", all_loop_ids())
def test_branch_and_bound_equals_the_scan_at_every_cap(name):
    # every cap, from one that cuts the first level to the whole box: a cap
    # below the minimal degree finds no record and cuts prefix levels, one
    # above it walks the prefixes with a completion below cap and lowers it
    loop_class = parse_loop_id(name)
    for cap in range(1, search._max_degree(loop_class.rank) + 2):
        _assert_branch_and_bound_equals_the_scan(loop_class, cap)


@pytest.mark.parametrize("name", sorted(MINIMAL_CERTIFICATES))
def test_branch_and_bound_equals_the_scan_around_the_minimal_degree(name):
    loop_class = parse_loop_id(name)
    degree = MINIMAL_CERTIFICATES[name][0]
    # at the minimal degree the whole box below it is searched in vain, and
    # C4_1 to C4_5 meet degenerate completions there
    leaves, stats, best = _assert_branch_and_bound_equals_the_scan(loop_class, degree)
    assert best is None
    leaves, stats, best = _assert_branch_and_bound_equals_the_scan(loop_class, degree + 1)
    assert best.degree == degree


def _prefixes(loop_class, cap):
    """Every prefix below cap: its meets, its partial degree and its pairs' and singles' least sizes."""
    subsets = search._SUBSETS[loop_class.rank]
    pairs, singles = subsets.pairs, subsets.singles
    targets = congruence_targets(loop_class.vector)
    moduli, residues = zip(*(targets["t" + label] for label in subsets.labels))
    rows = [[]]  # depth-first: each level's sizes rise from least by the modulus
    for j in range(pairs.start):
        rows = [
            row + [size]
            for row in rows
            for size in range(
                (residues[j] - sum(row[k] for k in subsets.above[j])) % moduli[j], 8, moduli[j]
            )
        ]
    n = len(subsets.sets)
    x = np.array([row + [0] * (n - len(row)) for row in rows if sum(row) < cap]).reshape(-1, n)
    total = x.sum(axis=1)
    above = x @ subsets.supersets.astype(np.int64)
    least_pairs = (np.array(residues[pairs]) - above[:, pairs]) % 4
    through = least_pairs @ subsets.supersets[pairs, singles].astype(np.int64)
    least_singles = (np.array(residues[singles]) - above[:, singles] - through) % 8
    meets = map(tuple, above[:, :pairs.start].tolist())
    return zip(meets, total.tolist(), least_pairs.tolist(), least_singles.tolist())


# per rank, the pairs (in subset order) through each single
_PAIRS_THROUGH = {
    rank: [[p for p, pair in enumerate(combinations(range(rank), 2)) if i in pair]
           for i in range(rank)]
    for rank in (3, 4)
}


def _walk_pair_levels(rank, partial, least_pairs, least_singles, cap):
    """Visits and prunes of a prefix's pair levels, one try at a time, and its completion degrees."""
    visited = pruned = 0
    degrees = []

    def descend(p, partial, raised):
        nonlocal visited, pruned
        if p == len(least_pairs):
            visited += rank
            flips = [sum(raised[q] for q in pairs) for pairs in _PAIRS_THROUGH[rank]]
            degrees.append(partial + sum((s + 4 * f) % 8 for s, f in zip(least_singles, flips)))
            return
        for bit in (0, 1):
            visited += 1
            if partial + least_pairs[p] + 4 * bit >= cap:
                pruned += 1
                return
            descend(p + 1, partial + least_pairs[p] + 4 * bit, raised + (bit,))

    descend(0, partial, ())
    return visited, pruned, degrees


@pytest.mark.parametrize("name", all_loop_ids())
def test_pair_tables_count_every_prefix_as_its_pair_levels_walked(name):
    # every prefix at caps that cut some pair levels and spare others, up to
    # budgets at which the counts of the first three pairs stop changing
    loop_class = parse_loop_id(name)
    rank = loop_class.rank
    first, final = search._pair_tables(rank)
    split = {3: 0, 4: 3}[rank]  # the pairs counted first
    with_completion_below = 0
    for cap in {3: (14, 20, 50), 4: (20, 34)}[rank]:
        for _, partial, least_pairs, least_singles in _prefixes(loop_class, cap):
            visited, pruned, degrees = _walk_pair_levels(
                rank, partial, least_pairs, least_singles, cap
            )
            first_key, final_key = (
                sum(size * 4 ** i for i, size in enumerate(reversed(sizes)))
                for sizes in (least_pairs[:split], least_pairs[split:])
            )
            # budgets are offset by 3 per pair, so that a negative budget reads its own column
            budget = cap - partial + 3 * len(least_pairs)
            first_sum = sum(least_pairs[:split])
            tabled = first[:, first_key, budget] + final[:, final_key, budget - first_sum]
            # the tables count every completion as pruned
            assert tabled.tolist() == [visited, pruned + len(degrees)], (cap, partial, least_pairs)
            base = np.array([partial + sum(least_pairs)], dtype=np.int16)
            least = _least_completion(base, np.array([least_singles], dtype=np.int16))
            below = least[0] < cap
            assert below == any(degree < cap for degree in degrees), (cap, partial, least_singles)
            with_completion_below += below
    assert with_completion_below > 0


@pytest.mark.parametrize("name", all_loop_ids())
def test_branch_and_bound_walks_the_prefixes_with_a_completion_below_cap(name):
    # from the largest cap, the cap falls at each record; a prefix reached
    # below the cap then in force is walked leaf by leaf exactly when one of
    # its completions is below that cap, and is otherwise read from the tables
    loop_class = parse_loop_id(name)
    rank = loop_class.rank
    cap = search._max_degree(rank) + 1
    prefix = search._SUBSETS[rank].pairs.start  # the meets of three or more generators
    records = {}  # prefix meets -> the degree of its last record
    assemble = search.assemble_generators

    def record(t, x, target):
        rep = assemble(t, x, target)  # raises for dependent generators
        records[t.as_tuple()[:prefix]] = rep.degree
        return rep

    with mock.patch.object(search, "assemble_generators", record):
        _scan_branch_and_bound(loop_class, cap, SearchStats())
    walked, in_force = 0, cap
    for meets, partial, least_pairs, least_singles in _prefixes(loop_class, cap):
        if partial >= in_force:
            continue  # cut at the prefix level, never reached
        _, _, degrees = _walk_pair_levels(rank, partial, least_pairs, least_singles, in_force)
        walked += any(degree < in_force for degree in degrees)
        in_force = records.get(meets, in_force)
    stats = SearchStats()
    search._branch_and_bound(loop_class, cap, stats)
    assert stats.walked == walked
    assert 1 <= walked <= 5


@pytest.mark.parametrize("rank", [3, 4])
def test_least_completion_is_the_least_over_the_pair_bits(rank):
    # every vector of least single sizes, which covers every prefix of every
    # class: the closed form equals the least over the 2^P pair bits
    _, _, gain, drops = search._pair_bits(rank)
    least_singles = np.array(list(itertools.product(range(8), repeat=rank)), dtype=np.int16)
    base = np.arange(len(least_singles), dtype=np.int16) % 23  # any partial degree
    start = base + least_singles.sum(axis=1, dtype=np.int16)
    high = (least_singles >> 2).astype(np.float32)
    degrees = start[:, None] + gain - (high @ drops).astype(np.int16)
    assert np.array_equal(_least_completion(base, least_singles), degrees.min(axis=1))


def test_layout_refuses_a_repeated_or_missing_subset():
    # a layout without block 123 would lay out no coordinate of x123 and
    # miss it in every meet; one with 12 twice would count x12 twice
    assert search._blocks(3, search._LAYOUT3) == search._BLOCKS[3]
    assert search._blocks(4, search._LAYOUT4) == search._BLOCKS[4]
    for rank, layout in (
        (3, search._LAYOUT3[1:]),
        (3, ("12",) + search._LAYOUT3[1:]),
        (3, search._LAYOUT3 + ("12",)),
        (4, search._LAYOUT4[:-1]),
    ):
        with pytest.raises(InternalInvariantError, match="^the rank . class layout is not one"):
            search._blocks(rank, layout)


def test_reduced_box_refuses_a_non_integer_max_degree():
    # a cap of 20.5 once let in the completions of degree 21
    assert len(reduced_box("C4_16", 20).degree) == 8
    for max_degree in (20.5, 20.0, "20", None):
        with pytest.raises(InvalidCodeError, match=r"^max degree .* is not an integer$"):
            reduced_box("C4_16", max_degree)
        with pytest.raises(InvalidCodeError, match=r"^max degree .* is not an integer$"):
            enumerate_reduced("C4_16", max_degree)
    assert len(reduced_box("C4_16", np.int64(20)).degree) == 8


def test_reduced_box_takes_a_numpy_max_degree_as_its_int():
    want, got = reduced_box("C3_1", 20), reduced_box("C3_1", np.int64(20))
    assert len(want.degree) > 0
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _record_text(loop_class, box):
    """The enumerate text of a box built record by record with _record_lines."""
    params, solution = (
        (ParamVector3, Solution3) if loop_class.rank == 3 else (ParamVector4, Solution4)
    )
    records = [
        "\n".join(cli._record_lines(assemble_generators(params(*t), solution(*x[1:]), loop_class)))
        + "\n"
        for t, x, _ in _box_rows(box)
    ]
    return "\n".join(records)


@pytest.mark.parametrize("name", all_loop_ids())
def test_box_text_joins_the_record_lines(name, monkeypatch):
    loop_class = parse_loop_id(name)
    box = reduced_box(loop_class, 49 if loop_class.rank == 3 else 31)
    want = _record_text(loop_class, box)
    assert want
    assert "".join(cli._box_text(loop_class, box)) == want
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)  # records across chunk boundaries
    assert "".join(cli._box_text(loop_class, box)) == want


@lru_cache(maxsize=4)
def _cached_box(name, max_degree):
    return reduced_box(name, max_degree)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_box_text_of_any_rows_joins_their_record_lines(data):
    name = data.draw(st.sampled_from(all_loop_ids()), label="class")
    loop_class = parse_loop_id(name)
    max_degree = data.draw(st.integers(1, 7 * (2**loop_class.rank - 1)), label="max_degree")
    box = _cached_box(name, max_degree)
    n = len(box.degree)
    rows = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=40), label="rows")) if n else []
    part = Box(*(field[rows] for field in box))
    chunk_rows = data.draw(st.sampled_from([1, 7, 1024]), label="chunk_rows")
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        assert "".join(cli._box_text(loop_class, part)) == _record_text(loop_class, part)


def test_box_text_of_the_widest_records_joins_their_record_lines(monkeypatch):
    # the rows of degree 80 and up of the full C4_16 box: two-digit
    # coordinates in nearly every run, and most runs per generator line
    loop_class = parse_loop_id("C4_16")
    box = reduced_box(loop_class, 105)
    part = Box(*(field[box.degree >= 80] for field in box))
    assert len(part.degree) == 104
    want = _record_text(loop_class, part)
    assert "".join(cli._box_text(loop_class, part)) == want
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    assert "".join(cli._box_text(loop_class, part)) == want


@pytest.mark.parametrize("field, value", [("t", 100), ("x", 10), ("degree", 1000)])
def test_box_text_refuses_a_value_too_wide_for_its_field(field, value):
    # the record fields hold two digits of t, one of x and three of the
    # degree; a wider value must not come out with its leading digit lost
    loop_class = parse_loop_id("C4_16")
    box = reduced_box(loop_class, 31)
    wide = getattr(box, field).astype(np.int64)
    wide.reshape(len(wide), -1)[len(wide) // 2, -1] = value
    with pytest.raises(InternalInvariantError, match="too wide"):
        cli._box_text(loop_class, box._replace(**{field: wide}))


@pytest.mark.parametrize("argv", [["C4_16", "16"], ["C3_2", "12"], ["C3_1", "3"], ["C4_1", "3"]])
def test_enumerate_below_the_minimum_writes_an_empty_file(tmp_path, capsys, argv):
    loop, max_degree = argv
    assert cli._box_text(parse_loop_id(loop), reduced_box(loop, int(max_degree))) == []
    out = tmp_path / "empty.txt"
    assert main(["enumerate", "--loop", loop, "--max-degree", max_degree, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"representations: 0\nwritten: {out}\n"
    assert out.read_bytes() == b""


@st.composite
def _class_sizes(draw, rank):
    """Class sizes x_S in 0..7 whose meets t_S pass the structural screens.

    Singles meet to 0 mod 4, pairs to 0 mod 2, the triple {1,2,3} to an odd
    number and the other triples to an even one; the quadruple is free
    (_ladder_screen).
    """
    x = {}
    for s in _ladder_subsets(rank):
        above = sum(v for u, v in x.items() if set(s) < set(u))
        mod, res = _ladder_screen(s)
        x[s] = (res - above) % mod + mod * draw(st.integers(0, 8 // mod - 1))
    return x


@pytest.mark.parametrize(
    "rank, params, solve",
    [(3, ParamVector3, solve_system3), (4, ParamVector4, solve_system4)],
    ids=["rank3", "rank4"],
)
@settings(deadline=None)
@given(data=st.data())
def test_solve_and_assemble_invert_the_meet_sums(rank, params, solve, data):
    x = data.draw(_class_sizes(rank))
    subsets = _ladder_subsets(rank)
    t = tuple(sum(x[u] for u in subsets if set(s) <= set(u)) for s in subsets)
    if min(t[-rank:]) < 4:
        reject()  # a generator of weight 0 leaves the box
    sol = solve(params(*t))
    assert sol is not None
    assert sol.as_tuple() == tuple(x[s] for s in subsets[1:])
    try:
        rep = assemble_generators(params(*t), sol, LoopClass(rank, 1))
    except InvalidCodeError:
        reject()  # dependent generators
    assert params.from_words(*rep.generators) == params(*t)


@pytest.mark.parametrize(
    "rank, params, solve",
    [(3, ParamVector3, solve_system3), (4, ParamVector4, solve_system4)],
    ids=["rank3", "rank4"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_untargeted_solve_system_accepts_what_the_ladder_accepts(rank, params, solve, data):
    # meets on the screen, then maybe one class of any size, which moves its
    # meet and its subsets' meets off the screen or not, and one meet moved
    # by up to 8, which can put a class size outside 0..7 or a weight below 4
    x = data.draw(_class_sizes(rank))
    subsets = _ladder_subsets(rank)
    moved = data.draw(st.sampled_from([None, *subsets]))
    if moved is not None:
        x[moved] = data.draw(st.integers(0, 7))
    t = [sum(x[u] for u in subsets if set(s) <= set(u)) for s in subsets]
    t[data.draw(st.integers(0, len(t) - 1))] += data.draw(st.integers(-8, 8))
    sol = solve(params(*t))
    assert (None if sol is None else sol.as_tuple()) == _ladder_solve_system(rank, t)


@pytest.mark.parametrize("rank", [3, 4])
def test_independent_rows_have_generators_of_full_rank(rank):
    # every pattern of nonempty classes, with class j on coordinate j
    subsets = _ladder_subsets(rank)
    n = len(subsets)
    x = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.uint8)
    full_rank = [
        _mask_rank([sum(1 << j for j, s in enumerate(subsets) if i in s and row[j])
                    for i in range(rank)]) == rank
        for row in x.tolist()
    ]
    assert _independent(rank, x).tolist() == full_rank
    # the sets of nonzero vectors of GF(2)^k that span it, by Moebius
    # inversion over subspaces: 128 - 7*8 + 2*7*2 - 8 and
    # 2^15 - 15*2^7 + 2*35*2^3 - 8*15*2 + 64
    assert full_rank.count(True) == {3: 92, 4: 31232}[rank]


# -- representations backed by box rows ------------------------------------


def _assert_row_backed_equals_assembled(rep, loop_class, x, t, degree):
    """A representation enumerate_reduced yields for a box row against assemble_generators.

    A third one comes from the public constructor, given its six values as
    bench/checks.py gives them for a record: classes (), the generators
    laid out.
    """
    params = ParamVector3 if loop_class.rank == 3 else ParamVector4
    solution = Solution3 if loop_class.rank == 3 else Solution4
    oracle = assemble_generators(params(*t), solution(*x[1:]), loop_class)
    public = Representation(
        target=loop_class, params=params(*t), solution=solution(*x[1:]), classes=(),
        generators=oracle.generators, degree=oracle.degree,
    )
    # params, solution and classes are views of the row: reading them lays out no code
    with mock.patch.object(search, "assemble_generators", side_effect=AssertionError):
        for other in (rep, public):
            for name in ("params", "solution", "classes"):
                assert getattr(other, name) == getattr(oracle, name), name
    assert rep._generators is None
    assert rep.row == public.row == oracle.row == tuple(x)
    assert rep._t == public._t == oracle._t == tuple(t)
    assert rep.degree == public.degree == degree == oracle.degree
    # read from the row alone, then each attribute laid out on first read
    assert rep.rep_type() == oracle.rep_type()
    for name in ("target", "params", "solution", "classes", "generators", "degree"):
        assert getattr(rep, name) == getattr(oracle, name), name
    assert rep == oracle and oracle == rep
    assert public == rep and rep == public and public == oracle
    assert hash(rep) == hash(oracle) == hash(public)
    assert verify_representation(rep) and verify_representation(public)
    assert verify_representation(oracle)
    assert set(rep.code().span_masks()) == set(oracle.code().span_masks())
    for name in ("target", "degree", "generators", "row"):
        with pytest.raises(FrozenInstanceError):
            setattr(rep, name, None)
    with pytest.raises(FrozenInstanceError):
        del rep.classes
    assert weakref.ref(rep)() is rep
    assert pickle.loads(pickle.dumps(rep)) == rep == copy.copy(rep)


@pytest.mark.parametrize("name", all_loop_ids(3))
def test_row_backed_representations_equal_assembled_on_the_full_rank3_box(name):
    loop_class = parse_loop_id(name)
    box = reduced_box(loop_class, 49)
    reps = list(enumerate_reduced(loop_class, 49))
    assert len(reps) == len(box.x)
    rows = zip(reps, box.x.tolist(), box.t.tolist(), box.degree.tolist())
    for rep, x, t, degree in rows:
        _assert_row_backed_equals_assembled(rep, loop_class, x, t, degree)


@lru_cache(maxsize=None)
def _full_box(name):
    return reduced_box(name, 105)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(all_loop_ids(4)), data=st.data())
def test_row_backed_representations_equal_assembled_on_rank4_rows(name, data):
    loop_class = parse_loop_id(name)
    box = _full_box(name)
    cap = data.draw(st.integers(int(box.degree.min()), 105), label="cap")
    rows = np.flatnonzero(box.degree <= cap)
    i = int(rows[data.draw(st.integers(0, len(rows) - 1), label="row")])
    # the one row through the generator enumerate_reduced returns
    [rep] = _representations(loop_class, Box(*(field[i:i + 1] for field in box)))
    _assert_row_backed_equals_assembled(
        rep, loop_class, box.x[i].tolist(), box.t[i].tolist(), int(box.degree[i])
    )
