"""Loop construction, sign identities, Moufang checks, and classification.

Element encoding: element = 2 * span_index + sign_bit, so 0 is the identity
and e ^ 1 negates e.  The independent oracle throughout is the weight
formula set: v squared is (-1)^(|v|/4), the commutator of u and v is
(-1)^(|u meet v|/2), and the associator of u, v, w is (-1)^|u meet v meet w|.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import (
    AssociativeLoopError,
    BinaryCode,
    CharVector,
    InvalidCodeError,
    LoopClass,
    build_loop,
    canonical_catalog,
    characteristic_vector,
    classify,
    enumerate_reduced,
    loops_isomorphic,
    meet_weight,
    parse_code,
    parse_loop_id,
)
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids, catalog_entry
from codeloops.codes import _mask_rank
from codeloops.loops import _sign_tables, admissible_bases, is_latin, is_moufang
from strategies import doubly_even_codes, relabeled_codes


def test_single_generator_loop_is_z4():
    loop = build_loop(parse_code("degree=4\n1,2,3,4\n"))
    expect = np.array(
        [[0, 1, 2, 3],
         [1, 0, 3, 2],
         [2, 3, 1, 0],
         [3, 2, 0, 1]],
        dtype=loop.table.dtype,
    )
    assert (loop.table == expect).all()
    assert loop.inverse(2) == 3
    assert loop.is_associative()


def test_weight_eight_generator_gives_klein_four():
    loop = build_loop(parse_code("degree=8\n1-8\n"))
    assert loop.mul(2, 2) == 0
    assert loop.inverse(2) == 2


def test_identity_and_negation_encoding():
    loop = build_loop(parse_code(SAMPLE_C4_16_A))
    n = loop.table.shape[0]
    for e in range(0, n, 7):
        assert loop.mul(0, e) == e
        assert loop.mul(e, 0) == e
        # -e is e ^ 1 and multiplying by the bare sign flips the low bit
        assert loop.mul(1, e) == e ^ 1
        assert loop.mul(e, 1) == e ^ 1


def _reference_table(loop):
    """Cayley table entry by entry from (s, v) * (t, w) = (s t phi(v, w), v + w)."""
    phi = loop.factor_set
    t = np.zeros((loop.order, loop.order), dtype=loop.table.dtype)
    for a in range(loop.order):
        for b in range(loop.order):
            v, w = a >> 1, b >> 1
            t[a, b] = ((v ^ w) << 1) | (((a ^ b) & 1) ^ phi.bit(v, w))
    return t


def test_cayley_table_matches_factor_set():
    codes = [catalog_entry(name).code() for name in all_loop_ids()]
    codes.append(parse_code("degree=19\n1-4\n1,2,5,6\n1,3,5,7\n8-11\n1-4,8-15\n12-19\n"))
    for code in codes:
        loop = build_loop(code)
        assert (loop.table == _reference_table(loop)).all(), code


def test_latin_property_and_inverses():
    loop = build_loop(parse_code(SAMPLE_C4_16_A))
    assert is_latin(loop.table)
    n = loop.table.shape[0]
    for e in range(n):
        assert loop.mul(e, loop.inverse(e)) == 0
        assert loop.mul(loop.inverse(e), e) == 0


def test_sign_identities_match_weight_formulas_rank3():
    code = catalog_entry("C3_1").code()
    loop = build_loop(code)
    span = code.span()
    k = len(span)
    for i in range(k):
        assert loop.square_sign(i) == (-1) ** (span[i].weight // 4)
    for i, j in itertools.product(range(k), repeat=2):
        expect = (-1) ** (meet_weight([span[i], span[j]]) // 2)
        assert loop.commutator_sign(i, j) == expect
    for i, j, l in itertools.product(range(k), repeat=3):
        expect = (-1) ** meet_weight([span[i], span[j], span[l]])
        assert loop.associator_sign(i, j, l) == expect


def test_sign_identities_match_weight_formulas_rank4_sample():
    code = parse_code(SAMPLE_C4_16_A)
    loop = build_loop(code)
    span = code.span()
    rng = random.Random(20260814)
    for _ in range(300):
        i, j, l = (rng.randrange(16) for _ in range(3))
        assert loop.square_sign(i) == (-1) ** (span[i].weight // 4)
        assert loop.commutator_sign(i, j) == (
            (-1) ** (meet_weight([span[i], span[j]]) // 2)
        )
        assert loop.associator_sign(i, j, l) == (
            (-1) ** meet_weight([span[i], span[j], span[l]])
        )


def test_moufang_holds_and_breaks():
    loop = build_loop(catalog_entry("C3_1").code())
    assert loop.is_moufang()
    assert is_moufang(loop.table)

    broken = loop.table.copy()
    broken[2, 3], broken[2, 5] = broken[2, 5], broken[2, 3]
    assert not is_moufang(broken)

    not_square = np.zeros((4, 3), dtype=loop.table.dtype)
    assert not is_latin(not_square)


def test_associative_code_raises_on_classify():
    loop = build_loop(parse_code("degree=8\n1-4\n5-8\n"))
    assert loop.is_associative()
    with pytest.raises(AssociativeLoopError):
        classify(loop)


def _subcodes(code):
    """The codes spanned by the nonempty subsets of the generators."""
    for size in range(1, code.dimension + 1):
        for gens in itertools.combinations(code.generators, size):
            yield BinaryCode(code.degree, gens)


def test_associative_subcodes_of_catalog_and_samples_raise():
    # classify decides associativity from the associator table; the Cayley
    # table product of is_associative is the oracle
    codes = [catalog_entry(name).code() for name in all_loop_ids()]
    codes += [parse_code(SAMPLE_C4_16_A), parse_code(SAMPLE_C4_16_B)]
    associative = nonassociative = 0
    for code in codes:
        for sub in _subcodes(code):
            loop = build_loop(sub)
            if loop.is_associative():
                associative += 1
                with pytest.raises(AssociativeLoopError):
                    classify(loop)
            else:
                nonassociative += 1
                classify(loop)  # every nonassociative subcode has rank 3 or 4
    assert associative == 264 and nonassociative == 41


@settings(max_examples=60, deadline=None)
@given(doubly_even_codes(0, 5))
def test_classify_raises_associative_iff_the_table_associates(code):
    loop = build_loop(code)
    try:
        classify(loop)
        raised = None
    except InvalidCodeError as exc:
        raised = type(exc)
    assert (raised is AssociativeLoopError) == loop.is_associative()


def test_char_vector_round_trip_and_str():
    cv = CharVector.from_bits(3, "110000")
    assert str(cv) == "110000"
    assert cv.squares == (1, 1, 0)
    assert cv.commutators == (0, 0, 0)
    cv4 = CharVector.from_bits(4, "0001111100")
    assert str(cv4) == "0001111100"
    assert cv4.squares == (0, 0, 0, 1)
    assert cv4.commutators == (1, 1, 1, 1, 0, 0)
    with pytest.raises(InvalidCodeError):
        CharVector.from_bits(3, "11000")


def test_canonical_catalog_shapes():
    assert len(canonical_catalog(3)) == 5
    assert len(canonical_catalog(4)) == 16
    assert str(canonical_catalog(3)[0]) == "111111"
    assert str(canonical_catalog(3)[1]) == "000000"
    assert str(canonical_catalog(4)[15]) == "0001111100"
    assert all(len(set(map(str, canonical_catalog(r)))) == len(canonical_catalog(r))
               for r in (3, 4))
    with pytest.raises(InvalidCodeError):
        canonical_catalog(5)


def test_loop_class_names():
    assert LoopClass(3, 4).name == "C3_4"
    assert str(LoopClass(4, 16).vector) == "0001111100"
    with pytest.raises(InvalidCodeError):
        LoopClass(3, 6)
    for rank in (3, 4):
        for index, cv in enumerate(canonical_catalog(rank), start=1):
            assert LoopClass.of_vector(cv) == LoopClass(rank, index)
    with pytest.raises(InvalidCodeError, match="not canonical"):
        LoopClass.of_vector(CharVector.from_bits(3, "111110"))


def test_characteristic_vector_of_generator_basis():
    code = catalog_entry("C3_4").code()
    loop = build_loop(code)
    # generators sit at span indices 1, 2, 4; their vector is not canonical
    cv = characteristic_vector(loop, (1, 2, 4))
    assert str(cv) == "111110"
    assert classify(loop).name == "C3_4"


def test_characteristic_vector_rejects_bad_basis():
    loop = build_loop(catalog_entry("C3_1").code())
    with pytest.raises(InvalidCodeError):
        characteristic_vector(loop, (1, 2, 3))  # dependent: 3 = 1 ^ 2
    with pytest.raises(InvalidCodeError):
        characteristic_vector(loop, (1, 2, 99))
    loop = build_loop(catalog_entry("C4_16").code())
    with pytest.raises(InvalidCodeError, match="associate"):
        characteristic_vector(loop, (1, 10, 2, 12))
    with pytest.raises(InvalidCodeError, match="not nuclear"):
        characteristic_vector(loop, (1, 10, 12, 2))


def test_classify_whole_catalog():
    for name in ("C3_1", "C3_2", "C3_3", "C3_5", "C4_1", "C4_7", "C4_16"):
        loop = build_loop(catalog_entry(name).code())
        got = classify(loop)
        assert got.name == name
        assert got == LoopClass(got.rank, got.index)


def test_classification_is_basis_independent():
    # the sample code is another representation of the same class as the
    # degree 17 minimal one; classify must agree
    a = build_loop(parse_code(SAMPLE_C4_16_A))
    b = build_loop(catalog_entry("C4_16").code())
    assert classify(a) == classify(b)
    assert loops_isomorphic(a, b)
    c = build_loop(catalog_entry("C4_15").code())
    assert not loops_isomorphic(a, c)


def test_dimension_cap_enforced():
    lines = ["degree=28"] + [f"{4 * i + 1}-{4 * i + 4}" for i in range(7)]
    with pytest.raises(InvalidCodeError):
        build_loop(parse_code("\n".join(lines) + "\n"))


@settings(max_examples=25, deadline=None)
@given(doubly_even_codes(3, 5))
def test_weight_sign_tables_equal_table_signs(code):
    loop = build_loop(code)
    sq, cm, asc = _sign_tables(loop)
    words = range(loop.words)
    bit = lambda sign: int(sign == -1)
    assert sq == [bit(loop.square_sign(u)) for u in words]
    assert cm == [[bit(loop.commutator_sign(u, v)) for v in words] for u in words]
    assert asc == [
        [[bit(loop.associator_sign(u, v, w)) for w in words] for v in words]
        for u in words
    ]


@functools.cache
def _reduced_reps(name):
    return tuple(enumerate_reduced(parse_loop_id(name), 23))


@st.composite
def _relabeled_reps(draw):
    """An enumerated reduced representation and a relabeled copy of its code."""
    rep = draw(st.sampled_from(_reduced_reps(draw(st.sampled_from(all_loop_ids())))))
    return rep, draw(relabeled_codes(rep.code()))


@settings(max_examples=40, deadline=None)
@given(_relabeled_reps())
def test_classify_survives_relabeling(pair):
    rep, relabeled = pair
    assert classify(build_loop(rep.code())) == rep.target
    assert classify(build_loop(relabeled)) == rep.target


def _first_canonical_basis(loop):
    """Oracle: the first basis with a canonical vector, by a plain nested scan.

    Every row runs over all nonzero span indices, in the lexicographic
    order of the whole basis; independence is checked by elimination and
    the vector is compared only once a whole admissible basis is chosen.
    """
    sq, cm, asc = _sign_tables(loop)
    rank = loop.rank
    canonical = {cv.bits for cv in canonical_catalog(rank)}
    nuclear = [not any(map(any, plane)) for plane in asc]
    for basis in itertools.product(range(1, loop.words), repeat=rank):
        if _mask_rank(list(basis)) != rank or not asc[basis[0]][basis[1]][basis[2]]:
            continue
        if rank == 4 and not nuclear[basis[3]]:
            continue
        pairs = itertools.combinations(basis, 2)
        if tuple(sq[u] for u in basis) + tuple(cm[u][v] for u, v in pairs) in canonical:
            return basis
    return None


def _first_admissible_basis(loop):
    basis, vector = next(admissible_bases(*_sign_tables(loop), canonical_catalog(loop.rank)))
    assert characteristic_vector(loop, basis) == vector
    return basis


@pytest.mark.parametrize("name", all_loop_ids())
def test_first_admissible_basis_equals_the_nested_scan_on_the_catalog(name):
    loop = build_loop(catalog_entry(name).code())
    assert _first_admissible_basis(loop) == _first_canonical_basis(loop)


@settings(max_examples=30, deadline=None)
@given(_relabeled_reps())
def test_first_admissible_basis_equals_the_nested_scan_on_relabeled_codes(pair):
    loop = build_loop(pair[1])
    assert _first_admissible_basis(loop) == _first_canonical_basis(loop)
