"""Loop construction, sign identities, Moufang checks, and classification.

Element encoding: element = 2 * span_index + sign_bit, so 0 is the identity
and e ^ 1 negates e.  The independent oracle throughout is the weight
formula set: v squared is (-1)^(|v|/4), the commutator of u and v is
(-1)^(|u meet v|/2), and the associator of u, v, w is (-1)^|u meet v meet w|.
The Moufang and associativity checks read the factor set's words; their
oracles are the element-level checks on the Cayley table in oracles.py.
"""

import functools
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeloops
from codeloops import (
    AssociativeLoopError,
    BinaryCode,
    CharVector,
    InternalInvariantError,
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
from codeloops.codes import _mask_rank, format_code
from codeloops import loops
from codeloops.factorset import FactorSet, build_factor_set
from codeloops.loops import CodeLoop, is_latin, is_moufang
from oracles import (
    _broadcast_sign_tables,
    _class_table,
    _general_linear,
    _table_is_associative,
    _table_is_moufang,
)
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
    assert _table_is_moufang(loop.table)

    broken = loop.table.copy()
    broken[2, 3], broken[2, 5] = broken[2, 5], broken[2, 3]
    assert not _table_is_moufang(broken)

    flipped = [row[:] for row in loop.factor_set.table]
    flipped[3][5] ^= 1
    assert not is_moufang(flipped)
    assert not _table_is_moufang(_twisted_loop(loop.code, flipped).table)

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
    # table product of _table_is_associative is the oracle
    codes = [catalog_entry(name).code() for name in all_loop_ids()]
    codes += [parse_code(SAMPLE_C4_16_A), parse_code(SAMPLE_C4_16_B)]
    associative = nonassociative = 0
    for code in codes:
        for sub in _subcodes(code):
            loop = build_loop(sub)
            if _table_is_associative(loop.table):
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
    assert (raised is AssociativeLoopError) == _table_is_associative(loop.table)


def _twisted_loop(code, table):
    """The loop of code twisted by table, which need not be a valid factor set."""
    return CodeLoop(code, FactorSet(code, table))


def _assert_word_checks_agree_with_table_checks(loop):
    assert loop.is_moufang() == _table_is_moufang(loop.table)
    assert loop.is_associative() == _table_is_associative(loop.table)


def test_word_checks_agree_with_table_checks_on_catalog_subcodes():
    moufang = associative = 0
    for name in all_loop_ids():
        for sub in _subcodes(catalog_entry(name).code()):
            loop = build_loop(sub)
            _assert_word_checks_agree_with_table_checks(loop)
            moufang += loop.is_moufang()
            associative += loop.is_associative()
    assert moufang == 275 and associative == 238


@settings(max_examples=40, deadline=None)
@given(doubly_even_codes(0, 5))
def test_word_checks_agree_with_table_checks(code):
    loop = build_loop(code)
    _assert_word_checks_agree_with_table_checks(loop)
    assert loop.is_moufang()


def test_word_checks_agree_with_table_checks_at_dimension_6():
    code = parse_code("degree=27\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n20-23\n24-27\n")
    loop = build_loop(code)
    assert loop.rank == 6
    _assert_word_checks_agree_with_table_checks(loop)
    assert loop.is_moufang() and not loop.is_associative()


def test_a_flipped_factor_set_bit_breaks_both_moufang_checks():
    # flipping phi(v, w) for nonzero v, w keeps the table a Latin square
    # with identity 0, but the loop is no longer Moufang
    rng = random.Random(20261018)
    for name in all_loop_ids():
        code = catalog_entry(name).code()
        table = build_loop(code).factor_set.table
        n = len(table)
        for _ in range(20):
            v, w = rng.randrange(1, n), rng.randrange(1, n)
            flipped = [row[:] for row in table]
            flipped[v][w] ^= 1
            assert not is_moufang(flipped), (name, v, w)
            loop = _twisted_loop(code, flipped)
            assert not _table_is_moufang(loop.table), (name, v, w)
            _assert_word_checks_agree_with_table_checks(loop)


def test_a_coboundary_twist_keeps_both_moufang_checks():
    # phi(v, w) + f(v) + f(w) + f(v + w) gives an isomorphic loop, by
    # (s, v) -> (s f(v), v), so it stays Moufang and nonassociative
    rng = random.Random(20261019)
    for name in all_loop_ids():
        code = catalog_entry(name).code()
        table = build_loop(code).factor_set.table
        n = len(table)
        for _ in range(5):
            f = [0] + [rng.randrange(2) for _ in range(n - 1)]
            f[3] = 1 ^ f[1] ^ f[2]  # f is not linear, so the twist moves phi(1, 2)
            twisted = [[table[v][w] ^ f[v] ^ f[w] ^ f[v ^ w] for w in range(n)] for v in range(n)]
            assert twisted[1][2] != table[1][2]
            loop = _twisted_loop(code, twisted)
            assert loop.is_moufang() and _table_is_moufang(loop.table), name
            _assert_word_checks_agree_with_table_checks(loop)
            assert not loop.is_associative()


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
    assert CharVector.from_bits(3, np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8)) == cv
    with pytest.raises(InvalidCodeError, match="bits must be 0 or 1"):
        CharVector(3, (0, 0, 0), (True, 0, 0))


@pytest.mark.parametrize("bits, got", [
    ("222222", "('2', '2', '2', '2', '2', '2')"),
    ("1111x1", "(1, 1, 1, 1, 'x', 1)"),
    ([1, 1, 0, 0, 0, 2], "(1, 1, 0, 0, 0, 2)"),
    ([1, 1, 0, 0, 0, 1.0], "(1, 1, 0, 0, 0, 1.0)"),
])
def test_char_vector_refuses_bits_other_than_0_and_1(bits, got):
    message = f"characteristic vector bits must be 0 or 1, got {got}"
    with pytest.raises(InvalidCodeError) as info:
        CharVector.from_bits(3, bits)
    assert str(info.value) == message


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


def test_loop_class_refuses_an_index_that_is_not_an_integer():
    for index in (1.0, "1", None):
        with pytest.raises(InvalidCodeError, match=f"^catalog index {index!r} is not an integer$"):
            LoopClass(3, index)
    assert LoopClass(3, np.int64(2)).name == "C3_2"


def test_loop_class_stores_its_rank_and_index_as_ints():
    # True passed as an index and was kept, so the class was named C3_True
    assert LoopClass(3, True).name == "C3_1"
    loop_class = LoopClass(np.int64(4), np.int64(2))
    assert (type(loop_class.rank), type(loop_class.index)) == (int, int)
    assert loop_class.name == "C4_2"
    assert type(CharVector.from_bits(np.int64(3), "111111").rank) is int


def test_a_rank_that_is_not_an_integer_is_refused():
    # 3.0 == 3, so a membership test alone would take it and name the class C3.0_1
    canonical_catalog(3)  # a cached rank-3 catalog must not answer for 3.0
    for make in (
        lambda: LoopClass(3.0, 1),
        lambda: CharVector(3.0, (1, 1, 1), (1, 1, 1)),
        lambda: CharVector.from_bits(3.0, "111111"),
        lambda: canonical_catalog(3.0),
    ):
        with pytest.raises(InvalidCodeError, match=r"^rank 3\.0 is not an integer$"):
            make()
    with pytest.raises(InvalidCodeError, match="^rank '3' is not an integer$"):
        LoopClass("3", 1)
    assert LoopClass(np.int64(3), 2).vector == LoopClass(3, 2).vector


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


def test_characteristic_vector_reads_numpy_indices_and_refuses_floats():
    # at rank 3 every basis is admissible: y_0 y_1 y_2 is the top term of q
    loop = build_loop(catalog_entry("C3_1").code())
    for row in _general_linear(3)[0]:
        assert characteristic_vector(loop, row) == characteristic_vector(loop, tuple(row.tolist()))
    with pytest.raises(InvalidCodeError, match="integers"):
        characteristic_vector(loop, (1.0, 2, 4))


def _oracle_vector(tables, rank, basis):
    """The bits of a basis from the broadcast sign tables, or the word its refusal names."""
    sq, cm, asc = tables
    if _mask_rank(list(basis)) != rank:
        return "span"
    if not asc[basis[0]][basis[1]][basis[2]]:
        return "associate"
    if rank == 4 and any(map(any, asc[basis[3]])):
        return "not nuclear"
    pairs = itertools.combinations(basis, 2)
    return tuple(sq[u] for u in basis) + tuple(cm[u][v] for u, v in pairs)


@pytest.mark.parametrize("name", all_loop_ids())
def test_characteristic_vector_equals_the_broadcast_sign_tables(name):
    # every ordered triple of span words at rank 3, and a seeded sample of
    # ordered 4-tuples at rank 4; a refusal must give the same reason
    loop = build_loop(catalog_entry(name).code())
    tables = _broadcast_sign_tables(loop.factor_set.array)
    tuples = list(itertools.product(range(loop.words), repeat=loop.rank))
    if loop.rank == 4:
        tuples = random.Random(f"bases:{name}").sample(tuples, 2000)
    for basis in tuples:
        want = _oracle_vector(tables, loop.rank, basis)
        if isinstance(want, str):
            with pytest.raises(InvalidCodeError, match=want):
                characteristic_vector(loop, basis)
        else:
            assert characteristic_vector(loop, basis).bits == want, basis


def test_classify_whole_catalog():
    for name in ("C3_1", "C3_2", "C3_3", "C3_5", "C4_1", "C4_7", "C4_16"):
        loop = build_loop(catalog_entry(name).code())
        got = classify(loop)
        assert got.name == name
        assert got == LoopClass(got.rank, got.index)


@pytest.mark.parametrize("rank", [3, 4])
def test_form_class_equals_the_oracle_class_table_on_every_truth_table(rank):
    # every 0/1 table over the 2^k span words, q(0) = 1 included: no cubic
    # term is an associative loop, and a form in no class orbit is refused
    n = 1 << rank
    table = _class_table(rank)
    cubic = [m for m in range(n) if m.bit_count() == 3]
    for packed in range(1 << n):
        q = np.array([packed >> y & 1 for y in range(n)], dtype=np.uint8)
        try:
            got = loops._form_class(q)
        except AssociativeLoopError:
            assert table[packed] == 0 and not loops._anf(q)[cubic].any(), packed
        except InternalInvariantError as exc:
            assert str(exc) == "the squaring form lies in no catalog class"
            assert table[packed] == 0 and loops._anf(q)[cubic].any(), packed
        else:
            assert got == LoopClass(rank, int(table[packed])), packed


@pytest.mark.parametrize("rank", [3, 4])
def test_anf_is_the_moebius_transform_on_every_truth_table_and_its_own_inverse(rank):
    # by its definition: entry m is the xor of the entries at the y inside m
    n = 1 << rank
    tables = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.uint8)
    inside = np.array([[y & m == y for y in range(n)] for m in range(n)], dtype=np.int64)
    want = (tables.astype(np.int64) @ inside.T % 2).astype(np.uint8)
    for q, anf in zip(tables, want):
        got = loops._anf(q)
        assert got.dtype == np.uint8 and got.shape == (n,)
        assert (got == anf).all() and (loops._anf(got) == q).all(), q


def test_class_keys_are_pinned_and_distinct():
    keys = {rank: {LoopClass(rank, i).name: key for key, i in loops._class_keys(rank).items()}
            for rank in (3, 4)}
    assert keys[3] == {"C3_1": (7, 42), "C3_2": (1, 18), "C3_3": (3, 42), "C3_4": (5, 18),
                       "C3_5": (3, 18)}
    assert list(keys[4].values()) == [
        (14, 168), (2, 72), (6, 168), (10, 72), (6, 72), (8, 168), (8, 72), (4, 96),
        (8, 96), (10, 96), (6, 96), (6, 120), (10, 120), (4, 120), (12, 120), (8, 120),
    ]
    assert list(keys[4]) == [f"C4_{i}" for i in range(1, 17)]


def test_classify_refuses_a_diagonal_with_a_degree_four_term():
    # the C4_1 loop twisted so that its diagonal gains y_0 y_1 y_2 y_3: the
    # form keeps its cubic term, so it is nonassociative, and lies in no class
    loop = build_loop(catalog_entry("C4_1").code())
    table = loop.factor_set.array.copy()
    table[15, 15] ^= 1  # the Moebius transform of the top monomial is the top word alone
    assert loops._anf(table.diagonal())[0b1111] == 1
    with pytest.raises(InternalInvariantError, match="^the squaring form lies in no catalog class"):
        classify(_twisted_loop(loop.code, table.tolist()))


def test_characteristic_vector_refuses_a_diagonal_with_a_degree_four_term():
    # the twisted C4_1 loop above: classify finds it in no class, and no
    # basis gives it a vector, as none makes its fourth word nuclear
    loop = build_loop(catalog_entry("C4_1").code())
    assert str(characteristic_vector(loop, (1, 2, 4, 8))) == "1110110100"
    table = loop.factor_set.array.copy()
    table[15, 15] ^= 1
    with pytest.raises(InvalidCodeError, match="^squaring form has a term above degree 3"):
        characteristic_vector(_twisted_loop(loop.code, table.tolist()), (1, 2, 4, 8))


def test_classify_never_builds_the_general_linear_group(tmp_path):
    # no module of the package lists the bases of GL(k, 2): box_stabilizer
    # grows only the admissible ones, and the full list is a test oracle;
    # a rank-4 classification reads two counts off the diagonal and builds
    # no stabilizer
    package = os.path.dirname(codeloops.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                assert "_general_linear" not in f.read(), name
    src = os.path.dirname(package)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    file = tmp_path / "c4_8.code"
    file.write_text(format_code(catalog_entry("C4_8").code()), encoding="utf-8")
    script = (
        "import sys\n"
        "from codeloops.cli import main\n"
        "from codeloops.equivalence import box_stabilizer\n"
        "main(['classify', sys.argv[1]])\n"
        "print(box_stabilizer.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(file)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.splitlines()[-2:] == ["class: C4_8", "0"], proc.stderr


def test_classification_is_basis_independent():
    # the sample code is another representation of the same class as the
    # degree 17 minimal one; classify must agree
    a = build_loop(parse_code(SAMPLE_C4_16_A))
    b = build_loop(catalog_entry("C4_16").code())
    assert classify(a) == classify(b)
    assert loops_isomorphic(a, b)
    c = build_loop(catalog_entry("C4_15").code())
    assert not loops_isomorphic(a, c)


def test_loop_refuses_a_factor_set_without_identity_row_and_column():
    code = catalog_entry("C3_1").code()
    for v, w in ((0, 5), (5, 0)):
        table = build_factor_set(code).table
        table[v][w] ^= 1
        with pytest.raises(InternalInvariantError, match="two-sided identity"):
            CodeLoop(code, FactorSet(code, table))


def test_cayley_table_is_built_and_checked_on_first_read(monkeypatch):
    code = catalog_entry("C4_16").code()
    built = []
    build = CodeLoop._build_table
    monkeypatch.setattr(CodeLoop, "_build_table", lambda self: built.append(1) or build(self))
    loop = build_loop(code)
    assert not built
    assert loop.table is loop.table and len(built) == 1
    # a table that is not a Latin square, and a Latin one whose identity
    # is not element 0, are refused when read
    latin = build(loop)
    faults = (("Latin square", np.zeros_like(latin)), ("two-sided identity", np.roll(latin, 1, 0)))
    for message, table in faults:
        monkeypatch.setattr(CodeLoop, "_build_table", lambda self, table=table: table)
        with pytest.raises(InternalInvariantError, match=message):
            build_loop(code).table


def test_dimension_cap_enforced():
    lines = ["degree=28"] + [f"{4 * i + 1}-{4 * i + 4}" for i in range(7)]
    with pytest.raises(InvalidCodeError):
        build_loop(parse_code("\n".join(lines) + "\n"))


def _weight_sign_tables(code):
    """Oracle: the square, commutator and associator bits from the weight formulas.

    sq[u] = |u|/4, cm[u][v] = |u & v|/2 and asc[u][v][w] = |u & v & w|, all
    mod 2, with the meets counted by products of the 0/1 span word vectors.
    """
    k = code.dimension
    gens = np.array(
        [[g.mask() >> i & 1 for i in range(code.degree)] for g in code.generators],
        dtype=np.int64,
    ).reshape(k, code.degree)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    words = (bits @ gens) & 1  # row x is the 0/1 vector of span word x
    meet2 = words @ words.T
    meet3 = (words[:, None, :] * words[None, :, :]) @ words.T
    sq = (meet2.diagonal() >> 2) & 1
    return sq.tolist(), ((meet2 >> 1) & 1).tolist(), (meet3 & 1).tolist()


@settings(max_examples=25, deadline=None)
@given(doubly_even_codes(0, 5))
def test_weight_sign_tables_equal_table_signs(code):
    loop = build_loop(code)
    sq, cm, asc = _broadcast_sign_tables(loop.factor_set.array)
    assert (sq, cm, asc) == _weight_sign_tables(code)
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
    sq, cm, asc = _broadcast_sign_tables(loop.factor_set.array)
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


def _assert_classify_equals_the_nested_scan(loop):
    vector = characteristic_vector(loop, _first_canonical_basis(loop))
    assert classify(loop) == LoopClass.of_vector(vector)


@pytest.mark.parametrize("name", all_loop_ids())
def test_first_admissible_basis_equals_the_nested_scan_on_the_catalog(name):
    _assert_classify_equals_the_nested_scan(build_loop(catalog_entry(name).code()))


@settings(max_examples=30, deadline=None)
@given(_relabeled_reps())
def test_first_admissible_basis_equals_the_nested_scan_on_relabeled_codes(pair):
    _assert_classify_equals_the_nested_scan(build_loop(pair[1]))
