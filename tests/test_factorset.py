"""Factor set construction and axiom verification.

The verifier is the oracle here: a freshly built table must satisfy all four
axiom families, any single flipped entry must break at least one of them, and
a gauge shift g applied as f'(v,w) = f(v,w) + g(v) + g(w) + g(v+w) with
g(0) = 0 must leave the verifier silent while changing the table.

A second oracle pins the table itself: _eliminate solves the axioms as one
linear system over GF(2) and reads off the lexicographically least solution,
which the closed-form builder must reproduce bit for bit.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from codeloops import (
    FactorSet,
    InvalidCodeError,
    LoopClass,
    NotDoublyEvenError,
    build_factor_set,
    enumerate_reduced,
    parse_code,
    verify_factor_set,
)
from codeloops.catalog import SAMPLE_C4_16_A, all_loop_ids, catalog_entry
from strategies import doubly_even_codes


def test_zero_dimensional_code():
    # no generators: X is 1 x 0 and G has no rows, so both products are empty sums
    code = parse_code("degree=5\n")
    assert code.dimension == 0
    phi = build_factor_set(code)
    assert phi.table == [[0]]
    assert verify_factor_set(phi) == []


def test_one_generator_code():
    code = parse_code("degree=4\n1,2,3,4\n")
    phi = build_factor_set(code)
    assert phi.size == 2
    assert phi.bit(0, 0) == 0
    assert phi.bit(0, 1) == phi.bit(1, 0) == 0
    # v squared where |v| = 4: sign (-1)^(4/4) = -1
    assert phi.sign(1, 1) == -1
    assert verify_factor_set(phi) == []


def test_weight_eight_square_is_positive():
    code = parse_code("degree=8\n1-8\n")
    phi = build_factor_set(code)
    assert phi.sign(1, 1) == 1
    assert verify_factor_set(phi) == []


def test_rejects_not_doubly_even():
    code = parse_code("degree=8\n1-4\n4,5,6,7\n")
    with pytest.raises(NotDoublyEvenError) as info:
        build_factor_set(code)
    assert info.value.witness.weight == 6


def test_catalog_codes_build_clean():
    for name in ("C3_1", "C3_4", "C4_1", "C4_16"):
        code = catalog_entry(name).code()
        phi = build_factor_set(code)
        assert verify_factor_set(phi) == []


def test_deterministic_and_lexicographically_pinned():
    code = parse_code(SAMPLE_C4_16_A)
    a = build_factor_set(code)
    b = build_factor_set(code)
    assert a == b
    # greedy choice: any free table entry is pinned to 0, so no strictly
    # smaller row-major table can satisfy the axioms; spot check row 0 and
    # the first free slot
    assert a.table[0] == [0] * a.size


def test_single_bit_flip_breaks_an_axiom():
    code = catalog_entry("C3_1").code()
    phi = build_factor_set(code)
    rng = random.Random(20260814)
    n = phi.size
    for _ in range(12):
        i = rng.randrange(n)
        j = rng.randrange(n)
        table = [row[:] for row in phi.table]
        table[i][j] ^= 1
        bad = FactorSet(code, table)
        assert verify_factor_set(bad) != []


def test_each_axiom_family_reported():
    code = catalog_entry("C3_1").code()
    phi = build_factor_set(code)
    table = [row[:] for row in phi.table]
    table[0][3] ^= 1
    names = {v.axiom for v in verify_factor_set(FactorSet(code, table))}
    assert "zero" in names

    table = [row[:] for row in phi.table]
    table[5][5] ^= 1
    names = {v.axiom for v in verify_factor_set(FactorSet(code, table))}
    assert "square" in names

    table = [row[:] for row in phi.table]
    table[3][5] ^= 1
    names = {v.axiom for v in verify_factor_set(FactorSet(code, table))}
    assert names & {"commutator", "cocycle"}


def test_gauge_shift_preserves_axioms():
    rng = random.Random(42)
    for name in ("C3_1", "C3_2", "C4_6"):
        code = catalog_entry(name).code()
        phi = build_factor_set(code)
        n = phi.size
        for _ in range(5):
            g = [0] + [rng.randrange(2) for _ in range(n - 1)]
            table = [
                [phi.bit(i, j) ^ g[i] ^ g[j] ^ g[i ^ j] for j in range(n)]
                for i in range(n)
            ]
            shifted = FactorSet(code, table)
            assert verify_factor_set(shifted) == []


def test_table_shape_validated():
    code = parse_code("degree=4\n1,2,3,4\n")
    with pytest.raises(InvalidCodeError):
        FactorSet(code, [[0, 0]])
    # a 2 x 2 x 2 array has 2 rows of length 2, so only its shape tells it
    # apart; a ragged list has no shape
    with pytest.raises(InvalidCodeError, match=r"2\^k x 2\^k"):
        FactorSet(code, np.zeros((2, 2, 2)))
    with pytest.raises(InvalidCodeError, match=r"2\^k x 2\^k"):
        FactorSet(code, [[0, 0], [0]])


@pytest.mark.parametrize("entry", [2, -1, 256, 0.5])
def test_entries_other_than_0_and_1_are_refused(entry):
    # on the associative code 1-4 / 5-8 an entry of 2 at (3, 3) would pass
    # the word-level checks: is_associative would read the loop as
    # nonassociative, and only the Cayley table would show the fault
    code = parse_code("degree=8\n1-4\n5-8\n")
    table = [[0] * 4 for _ in range(4)]
    table[3][3] = entry
    with pytest.raises(InvalidCodeError, match="0 or 1"):
        FactorSet(code, table)


# ---------------------------------------------------------------------------
# elimination oracle


def _reduce(mask, rhs, basis):
    while mask:
        lead = mask.bit_length() - 1
        row = basis.get(lead)
        if row is None:
            break
        mask ^= row[0]
        rhs ^= row[1]
    return mask, rhs


def _insert(mask, rhs, basis):
    mask, rhs = _reduce(mask, rhs, basis)
    if mask == 0:
        return rhs == 0
    basis[mask.bit_length() - 1] = (mask, rhs)
    return True


def _eliminate(code):
    """Lexicographically least factor set table, by GF(2) elimination.

    Every axiom instance is one equation over the 4^k table entries (bit
    i*n + j is entry (i, j)); after global elimination the entries are fixed
    in row-major order, each to 0 whenever the system stays consistent.
    """
    n = 1 << code.dimension
    masks = [w.mask() for w in code.span()]
    var = lambda i, j: i * n + j
    basis = {}
    ok = True
    for j in range(n):
        ok &= _insert(1 << var(0, j), 0, basis)
        ok &= _insert(1 << var(j, 0), 0, basis)
    for i in range(n):
        ok &= _insert(1 << var(i, i), (masks[i].bit_count() // 4) & 1, basis)
    for i in range(n):
        for j in range(i + 1, n):
            rhs = ((masks[i] & masks[j]).bit_count() // 2) & 1
            ok &= _insert((1 << var(i, j)) | (1 << var(j, i)), rhs, basis)
    for i in range(n):
        for j in range(n):
            mij = masks[i] & masks[j]
            left = 1 << var(i, j)
            for u in range(n):
                mask = (1 << var(i ^ j, u)) ^ (1 << var(i, j ^ u)) ^ left ^ (1 << var(j, u))
                ok &= _insert(mask, (mij & masks[u]).bit_count() & 1, basis)
    assert ok, "factor set axioms inconsistent on a doubly even code"
    values = [0] * (n * n)
    for v in range(n * n):
        mask, rhs = _reduce(1 << v, 0, basis)
        if mask == 0:
            values[v] = rhs
        else:
            basis[mask.bit_length() - 1] = (mask, rhs)
    return [[values[var(i, j)] for j in range(n)] for i in range(n)]


def _catalog_codes():
    return [catalog_entry(name).code() for name in all_loop_ids()]


def _rank3_box():
    # every reduced representation of rank 3: the box ends at degree 49
    return [
        rep.code()
        for index in range(1, 6)
        for rep in enumerate_reduced(LoopClass(3, index), 49)
    ]


def _rank4_sample():
    # every seventh reduced representation of each rank 4 class to degree 23
    return [
        rep.code()
        for index in range(1, 17)
        for rep in list(enumerate_reduced(LoopClass(4, index), 23))[::7]
    ]


@pytest.mark.parametrize(
    "source, count",
    [(_catalog_codes, 21), (_rank3_box, 160), (_rank4_sample, 142)],
    ids=["catalog", "rank3-box", "rank4-sample"],
)
def test_closed_form_equals_elimination(source, count):
    codes = source()
    assert len(codes) == count
    for code in codes:
        assert build_factor_set(code).table == _eliminate(code), code


@settings(max_examples=50, deadline=None)
@given(doubly_even_codes(0, 5))
def test_closed_form_equals_elimination_on_random_codes(code):
    assert build_factor_set(code).table == _eliminate(code)


@pytest.mark.parametrize(
    "text",
    [
        # C4_16 plus two generators on new coordinates, one of them mixed
        # with a catalog generator by a change of basis
        "degree=25\n1-8\n1,2,9-14\n1,3,9-13,15\n4,5,16,17\n1-8,18-21\n18-25\n",
        # C3_1 plus three generators on overlapping 4-blocks, one of them
        # mixed with a catalog generator
        "degree=19\n1-4\n1,2,5,6\n1,3,5,7\n8-11\n1-4,8-15\n12-19\n",
        # C3_1 on the last coordinates plus three long generators, one of
        # them mixed with a C3_1 generator: degree 100 and 128, the sizes
        # at which a float matrix product over the coordinates ran threaded
        "degree=100\n94-97\n94,95,98,99\n94,96,98,100\n1-64,94-97\n33-92\n1-16,49-64,77-92\n",
        "degree=128\n122-125\n122,123,126,127\n122,124,126,128\n1-64,122-125\n33-96\n"
        "1-16,49-64,97-112\n",
    ],
    ids=["C4_16+2", "C3_1+3", "C3_1+3-degree-100", "C3_1+3-degree-128"],
)
def test_closed_form_equals_elimination_at_dimension_6(text):
    code = parse_code(text)
    assert code.dimension == 6 and code.is_doubly_even()
    assert build_factor_set(code).table == _eliminate(code)
