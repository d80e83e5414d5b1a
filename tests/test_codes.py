"""Word arithmetic, span handling, parsing, and invariants of binary codes."""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import codeloops
from codeloops import (
    BinaryCode,
    Codeword,
    InvalidCodeError,
    RepType,
    format_code,
    meet_weight,
    parse_code,
)
from oracles import _set_parse_code
from strategies import doubly_even_codes


def word(degree, *coords):
    return Codeword(degree, frozenset(coords))


def brute_span(generators, degree):
    """All GF(2) combinations, computed with plain set symmetric difference."""
    out = set()
    for r in range(len(generators) + 1):
        for combo in itertools.combinations(generators, r):
            acc = frozenset()
            for g in combo:
                acc = acc ^ g.support
            out.add(acc)
    return out


def test_weight_and_mask_round_trip():
    w = word(8, 1, 2, 3, 4)
    assert w.weight == 4
    assert Codeword.from_mask(8, w.mask()) == w
    assert word(5).weight == 0


def test_xor_is_symmetric_difference():
    a = word(8, 1, 2, 3, 4)
    b = word(8, 3, 4, 5, 6)
    assert (a ^ b).support == frozenset({1, 2, 5, 6})
    assert (a ^ a).support == frozenset()


def format_support(support):
    """Render a support with runs of three or more compressed to a-b.

    The sorted-runs rendering from before codewords were bitmasks, kept as
    the oracle of Codeword.__str__.
    """
    coords = sorted(support)
    if not coords:
        return ""
    parts = []
    for lo, hi in _runs(coords):
        if hi - lo >= 2:
            parts.append(f"{lo}-{hi}")
        else:
            parts.extend(str(i) for i in range(lo, hi + 1))
    return ",".join(parts)


def _runs(coords):
    start = prev = coords[0]
    for i in coords[1:]:
        if i != prev + 1:
            yield start, prev
            start = i
        prev = i
    yield start, prev


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_codeword_equals_frozenset_model(data):
    degree = data.draw(st.integers(1, 128))
    s = data.draw(st.frozensets(st.integers(1, degree)))
    t = data.draw(st.frozensets(st.integers(1, degree)))
    a, b = Codeword(degree, s), Codeword(degree, t)
    assert a.support == s and isinstance(a.support, frozenset)
    assert a.weight == len(s)
    assert a.mask() == sum(1 << (i - 1) for i in s)
    assert str(a) == format_support(s)
    assert (a ^ b).support == s ^ t
    assert (a ^ b).weight == len(s ^ t)
    assert (a == b) == (s == t)
    assert a == Codeword(degree, list(s)) and hash(a) == hash(Codeword(degree, list(s)))
    if degree < 128:
        assert a != Codeword(degree + 1, s)
    # from_mask keeps bits 1..degree and drops every higher bit
    high = data.draw(st.integers(0, (1 << 140) - 1)) << degree
    w = Codeword.from_mask(degree, a.mask() | high)
    assert w == a and hash(w) == hash(a)
    assert w.support == s and w.weight == len(s) and str(w) == str(a)


def test_codeword_is_immutable():
    w = word(8, 1, 2)
    with pytest.raises(AttributeError):
        w.degree = 9
    with pytest.raises(AttributeError):
        w.support = frozenset()
    assert w == word(8, 1, 2)


@pytest.mark.parametrize(
    "degree, support, message",
    [
        (0, [], "degree 0 out of range 1..128"),
        (129, [], "degree 129 out of range 1..128"),
        (-3, [1], "degree -3 out of range 1..128"),
        (0, [7], "degree 0 out of range 1..128"),
        (5, [6], "coordinate 6 outside 1..5"),
        (5, [0], "coordinate 0 outside 1..5"),
        (5, [-1], "coordinate -1 outside 1..5"),
        (128, [129], "coordinate 129 outside 1..128"),
        (5, ["a"], "coordinate 'a' is not an integer"),
        (5, [2.0], "coordinate 2.0 is not an integer"),
        (5, [None], "coordinate None is not an integer"),
    ],
)
def test_codeword_rejection_messages(degree, support, message):
    with pytest.raises(InvalidCodeError) as info:
        Codeword(degree, support)
    assert str(info.value) == message


def test_coordinates_follow_operator_index():
    # the rule of degrees, ranks and catalog indices: a numpy integer was
    # refused as "outside 1..8", and True was kept in the support
    assert Codeword(8, [np.int64(1)]) == word(8, 1)
    for support in ([np.int64(1), np.uint8(2)], [True, 2]):
        w = Codeword(8, support)
        assert w == word(8, 1, 2) and {type(i) for i in w.support} == {int}
    # a string is a sequence of one-character strings; the coordinates are
    # checked in the order given, so the first is named whatever the hash
    # order of a set of them (string hashes are salted per process, so two
    # seeds run in fresh interpreters: 1 and 2 named different coordinates
    # when the check read the support set)
    with pytest.raises(InvalidCodeError, match=r"^coordinate '1' is not an integer$"):
        Codeword(8, "12")
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from codeloops import Codeword, InvalidCodeError\n"
        "try:\n"
        "    Codeword(8, '12')\n"
        "except InvalidCodeError as exc:\n"
        "    print(exc)\n"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.stdout == "coordinate '1' is not an integer\n", (seed, proc.stderr)
    with pytest.raises(InvalidCodeError, match=r"^coordinate 9 outside 1\.\.8$"):
        Codeword(8, [np.int64(9)])
    with pytest.raises(InvalidCodeError, match=r"^coordinate 20 outside 1\.\.8$"):
        Codeword(8, [20, 9])


def test_from_mask_rejects_bad_degree():
    for degree in (0, 129):
        with pytest.raises(InvalidCodeError, match=f"degree {degree} out of range 1..128"):
            Codeword.from_mask(degree, 1)


def test_degree_must_be_an_integer():
    # the rule of ranks and catalog indices: what operator.index refuses;
    # a float degree once made a word, and 1 << 8.5 a bare TypeError
    for degree in (8.0, 8.5, "8", None):
        with pytest.raises(InvalidCodeError, match=r"^degree .* is not an integer$"):
            Codeword(degree, [1])
        with pytest.raises(InvalidCodeError, match=r"^degree .* is not an integer$"):
            Codeword.from_mask(degree, 1)
        with pytest.raises(InvalidCodeError, match=r"^degree .* is not an integer$"):
            BinaryCode(degree, [])
    assert Codeword(np.int64(8), [1]).mask() == 1


def test_a_numpy_degree_is_stored_as_an_int():
    # an np.int64 degree of 64 or more was kept, so 1 << degree was numpy
    # arithmetic and overflowed
    word = Codeword.from_mask(np.int64(100), 1 << 90)
    assert word == Codeword.from_mask(100, 1 << 90) and type(word.degree) is int
    gens = [Codeword(100, range(1, 9)), Codeword(100, range(93, 101))]
    code = BinaryCode(np.int64(100), gens)
    assert type(code.degree) is int
    assert code.coordinate_classes() == BinaryCode(100, gens).coordinate_classes()
    assert type(Codeword(np.int64(8), [1]).degree) is int


def test_a_mask_follows_the_integer_rule():
    # an np.int64 mask was kept: at degree 100 the drop of high bits
    # overflowed, at degree 8 the word's support and repr raised
    # AttributeError, and a float mask raised a bare TypeError
    for degree in (8, 100):
        word = Codeword.from_mask(degree, np.int64(5))
        assert type(word.mask()) is int and word == Codeword.from_mask(degree, 5)
        assert word.support == {1, 3} and repr(word) == repr(Codeword.from_mask(degree, 5))
        assert str(word) == str(Codeword(degree, [1, 3]))
    with pytest.raises(InvalidCodeError, match=r"^mask 2\.5 is not an integer$"):
        Codeword.from_mask(8, 2.5)


def test_meet_weight_pairs_and_triples():
    a = word(8, 1, 2, 3, 4)
    b = word(8, 3, 4, 5, 6)
    c = word(8, 4, 6, 7, 8)
    assert meet_weight([a, b]) == 2
    assert meet_weight([a, b, c]) == 1
    assert meet_weight([a, b, c, word(8, 4, 8)]) == 1


def test_meet_weight_rejects_bad_input():
    with pytest.raises(InvalidCodeError):
        meet_weight([word(8, 1), word(7, 1)])
    with pytest.raises(InvalidCodeError):
        meet_weight([word(8, 1)])


def test_span_matches_brute_force_and_is_ordered():
    code = parse_code("degree=8\n1-4\n3,4,5,6\n4,6,7,8\n")
    got = [w.support for w in code.span()]
    assert set(got) == brute_span(code.generators, 8)
    assert len(got) == 8
    # combination index order: 0, g1, g2, g1^g2, g3, ...
    g1, g2, g3 = (g.support for g in code.generators)
    assert got[0] == frozenset()
    assert got[1] == g1
    assert got[2] == g2
    assert got[3] == g1 ^ g2
    assert got[4] == g3


def test_dependent_generators_rejected():
    with pytest.raises(InvalidCodeError):
        parse_code("degree=6\n1,2\n3,4\n1,2,3,4\n")
    with pytest.raises(InvalidCodeError):
        BinaryCode(4, [word(4, 1, 2), word(4, 1, 2)])


def test_span_refuses_dimension_above_cap():
    # 17 disjoint 4-blocks: 2^17 codewords, one past the cap
    code = parse_code("".join(f"{4 * i + 1}-{4 * i + 4}\n" for i in range(17)))
    assert code.dimension == 17 and code.is_doubly_even()
    with pytest.raises(InvalidCodeError, match="span cap 16"):
        code.span()
    with pytest.raises(InvalidCodeError, match="span cap 16"):
        code.weight_enumerator()


def test_doubly_even_pairwise_overlap_case():
    # every generator has weight 4 but the span must be checked as a whole;
    # here the third span element 1,2,5,6 still has weight 4
    code = parse_code("degree=8\n1-4\n3,4,5,6\n")
    assert sorted(w.weight for w in code.span()) == [0, 4, 4, 4]
    assert code.is_doubly_even() is True


def test_not_doubly_even_detected_with_witness():
    # generators have weight 4 but odd overlap makes the sum of weight 6
    code = parse_code("degree=8\n1-4\n4,5,6,7\n")
    assert code.is_doubly_even() is False
    witness = code.first_odd_span_element()
    assert witness.weight % 4 != 0
    assert witness.support == frozenset({1, 2, 3, 5, 6, 7})


@st.composite
def _codes_with_odd_words(draw):
    """Random codes of dimension 1..7, most of them not doubly even.

    Half are free random generators; the other half are a doubly even code
    with one random generator appended, so the first odd element often
    sits at a pair with the new generator.
    """
    if draw(st.booleans()):
        degree = draw(st.integers(1, 20))
        word = st.integers(1, (1 << degree) - 1)
        masks = draw(st.lists(word, min_size=1, max_size=7))
    else:
        base = draw(doubly_even_codes(0, 5))
        degree = base.degree
        masks = [g.mask() for g in base.generators]
        masks.append(draw(st.integers(1, (1 << degree) - 1)))
    try:
        return BinaryCode(degree, [Codeword.from_mask(degree, m) for m in masks])
    except InvalidCodeError:
        reject()  # dependent generators


@settings(deadline=None)
@given(st.one_of(doubly_even_codes(), _codes_with_odd_words()))
def test_parse_code_inverts_format_code(code):
    assert parse_code(format_code(code)) == code


@settings(max_examples=200, deadline=None)
@given(_codes_with_odd_words())
def test_first_odd_span_element_equals_span_walk(code):
    walk = next((w for w in code.span() if w.weight % 4), None)
    assert code.first_odd_span_element() == walk
    assert (walk is None) == code.is_doubly_even()


def test_doubly_even_matches_span_oracle_random():
    rng = random.Random(20260814)
    for _ in range(300):
        degree = rng.randrange(4, 21)
        gens = []
        seen = set()
        for _ in range(rng.randrange(1, 5)):
            support = frozenset(
                c for c in range(1, degree + 1) if rng.random() < 0.4
            )
            if support and support not in brute_span(
                [Codeword(degree, s) for s in seen], degree
            ):
                gens.append(Codeword(degree, support))
                seen.add(support)
        if not gens:
            continue
        code = BinaryCode(degree, gens)
        oracle = all(
            len(s) % 4 == 0 for s in brute_span(code.generators, degree)
        )
        assert code.is_doubly_even() == oracle


def test_doubly_even_span_has_even_pair_meets():
    from codeloops.catalog import all_loop_ids, catalog_entry

    for name in all_loop_ids():
        span = catalog_entry(name).code().span()
        for u in span:
            for v in span:
                assert meet_weight([u, v]) % 2 == 0 if u != v else True


def test_weight_enumerator_sorted_multiset():
    code = parse_code("degree=8\n1-4\n3,4,5,6\n4,6,7,8\n")
    expect = tuple(sorted(w.weight for w in code.span()))
    assert code.weight_enumerator() == expect


def test_coordinate_classes_and_type():
    code = parse_code("degree=7\n1,2,3,5\n1,2,4,6\n1,3,4,7\n")
    part = code.coordinate_classes()
    assert part.residue == frozenset()
    assert sorted(len(c) for c in part.classes) == [1] * 7
    assert str(code.rep_type()) == "1111111"

    code = parse_code("degree=8\n1-4\n1,2,5,6\n")
    part = code.coordinate_classes()
    assert set(part.classes) == {
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5, 6}),
    }
    assert part.residue == frozenset({7, 8})
    assert str(code.rep_type()) == "222"


def test_class_partition_holds_masks_and_builds_sets_on_read():
    code = parse_code("degree=8\n1-4\n1,2,5,6\n")
    part = code.coordinate_classes()
    assert part.masks == (0b11, 0b1100, 0b110000)
    assert part.residue_mask == 0b11000000
    assert part.signatures == (0b11, 0b01, 0b10)
    assert part.sizes() == (2, 2, 2)
    assert "classes" not in vars(part) and "residue" not in vars(part)
    assert part.classes == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))
    assert part.residue == frozenset({7, 8})
    assert part.classes is part.classes
    # the same partition with other generators: equal, whatever the signatures
    other = parse_code("degree=8\n1-4\n3-6\n").coordinate_classes()
    assert other.signatures != part.signatures
    assert other == part and hash(other) == hash(part)
    assert parse_code("degree=8\n1-4\n1,3,5,6\n").coordinate_classes() != part


def test_classes_refine_under_every_span_element():
    code = parse_code("degree=19\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n")
    part = code.coordinate_classes()
    for cls in part.classes:
        for w in code.span():
            assert cls <= w.support or not (cls & w.support)
    assert sum(len(c) for c in part.classes) + len(part.residue) == 19


def test_classes_from_generators_equal_classes_from_span():
    # the partition by generator membership signatures must coincide with
    # the partition by full span signatures
    code = parse_code("degree=19\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n")
    span = code.span()
    by_span = {}
    for c in range(1, code.degree + 1):
        sig = tuple(c in w.support for w in span)
        by_span.setdefault(sig, set()).add(c)
    expect = {frozenset(v) for sig, v in by_span.items() if any(sig)}
    assert set(code.coordinate_classes().classes) == expect


@settings(max_examples=60, deadline=None)
@given(doubly_even_codes(0, 6))
def test_span_masks_and_classes_equal_support_model(code):
    gens = [g.support for g in code.generators]
    span = []
    for x in range(1 << code.dimension):
        acc = frozenset()
        for j, g in enumerate(gens):
            if x >> j & 1:
                acc = acc ^ g
        span.append(acc)
    assert [w.support for w in code.span()] == span
    assert list(code.span_masks()) == [w.mask() for w in code.span()]
    assert code.weight_enumerator() == tuple(sorted(map(len, span)))
    buckets = {}
    for i in range(1, code.degree + 1):
        buckets.setdefault(tuple(i in g for g in gens), set()).add(i)
    residue = buckets.pop((False,) * code.dimension, set())
    part = code.coordinate_classes()
    assert part.classes == tuple(sorted(map(frozenset, buckets.values()), key=min))
    assert part.residue == frozenset(residue)


def test_rep_type_validation_and_str():
    assert str(RepType((1, 1, 11))) == "(1,1,11)"
    assert RepType((1, 2, 3)).is_reduced
    assert not RepType((1, 8)).is_reduced
    with pytest.raises(InvalidCodeError):
        RepType((2, 1))
    with pytest.raises(InvalidCodeError):
        RepType((0, 1))


def test_parse_defaults_degree_to_max_coordinate():
    code = parse_code("1,2,3,4\n2,3,5,6\n")
    assert code.degree == 6


def test_parse_error_positions():
    with pytest.raises(InvalidCodeError, match=r"line 2, col 5: bad coordinate 'x'"):
        parse_code("degree=4\n1,2,x\n")
    with pytest.raises(InvalidCodeError, match=r"duplicate coordinate 2"):
        parse_code("degree=4\n1,2,2\n")
    with pytest.raises(InvalidCodeError, match=r"exceeds declared degree"):
        parse_code("degree=3\n1,2,4\n")
    with pytest.raises(InvalidCodeError, match=r"out of range"):
        parse_code("degree=200\n1,2\n")
    with pytest.raises(InvalidCodeError, match=r"empty"):
        parse_code("")


def test_range_token_expansion():
    code = parse_code("degree=10\n1-4,7,9-10\n")
    assert code.generators[0].support == frozenset({1, 2, 3, 4, 7, 9, 10})


def test_format_round_trip():
    for text in (
        "degree=8\n1-4\n3-6\n",
        "degree=19\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n",
        "degree=7\n1,2,3,5\n1,2,4,6\n1,3,4,7\n",
    ):
        code = parse_code(text)
        assert parse_code(format_code(code)) == code


def test_format_uses_runs_of_three_or_more():
    code = parse_code("degree=9\n1,2,3,4,6,7,9\n")
    assert format_code(code).splitlines()[1] == "1-4,6,7,9"


# coordinates a literal may name: 0 and 129 are refused, 10**9 is never
# shifted into a mask, and the few small ones make duplicates likely
_COORDINATES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 127, 128, 129, 10**9]), st.integers(1, 128)
)
# int() refuses a string of more than 4300 digits, leading zeros included
_PAD = "0" * 4400
_LONG = "9" * 5000


def _spelled(draw, value, clean):
    """A number as a literal may write it: plain or zero-padded, or if not clean a long one.

    The long numbers are the most digits int() reads (a number far past
    any degree) and one digit more, which the parser refuses.
    """
    forms = ["plain"] * 3 + ["zeros", "padded"] + ([] if clean else ["limit", "long"])
    form = draw(st.sampled_from(forms))
    if form == "zeros":
        return "0" * draw(st.integers(1, 3)) + str(value)
    if form == "padded":
        return _PAD + str(value)
    if form == "limit":
        return "9" * 4300
    if form == "long":
        return "1" + "0" * 4300
    return str(value)


@st.composite
def _tokens(draw, clean):
    """One entry of a generator line: a coordinate or a run if clean, else anything."""
    kinds = ["coordinate"] * 2 + ["run"] + ([] if clean else ["reversed", "past", "blank", "junk"])
    kind = draw(st.sampled_from(kinds))
    if kind == "coordinate":
        token = _spelled(draw, draw(_COORDINATES), clean)
    elif kind == "run":
        lo = draw(st.integers(0, 128))
        hi = draw(st.integers(lo, min(lo + 3, 128)))
        token = f"{_spelled(draw, lo, clean)}-{_spelled(draw, hi, clean)}"
    elif kind == "reversed":
        hi = draw(st.integers(0, 127))
        token = f"{draw(st.integers(hi + 1, 128))}-{hi}"
    elif kind == "past":
        token = f"{draw(st.integers(0, 128))}-{draw(st.sampled_from([129, 200, 10**9]))}"
    elif kind == "blank":
        token = ""
    else:
        token = draw(st.sampled_from(["x", "1-", "-3", "\u00b2", "1-2-3", "4 5", "+1", "0x1"]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + token + draw(pad)


@st.composite
def _literals(draw):
    """A code literal from random tokens: duplicates, blank lines, padded or long numbers, a header.

    Half of the literals have clean tokens and header, so that they reach
    the degree and coordinate checks after the lines are read, or parse.
    """
    clean = draw(st.booleans())
    lines = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3, 4, 5]))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        tokens = draw(st.lists(_tokens(clean), min_size=1, max_size=4))
        if not clean and draw(st.booleans()):  # a token again, within a run or across tokens
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(tokens)))
        lines.append(draw(st.sampled_from(["", " ", "\t "])) + ",".join(tokens))
    numbers = [n.strip().lstrip("0") or "0" for line in lines
               for n in line.replace("-", ",").split(",") if n.strip().isascii() and n.strip().isdigit()]
    largest = max([int(n) for n in numbers if len(n) <= 4300], default=1)
    header = draw(st.sampled_from(["none", "degree", "below"] + ([] if clean else ["junk"])))
    if header == "degree":
        degree = draw(st.sampled_from([0, 1, 8, 64, 128, 129, 10**9]))
        lines.insert(0, f"degree={_spelled(draw, degree, clean)}")
    elif header == "below":  # a degree below the largest coordinate
        degree = max(0, largest - draw(st.integers(1, 3)))
        lines.insert(0, f"degree={_spelled(draw, degree, clean)}")
    elif header == "junk":
        lines.insert(0, draw(st.sampled_from(["degree=x", "degree= 8", "degree=", "degree=8x"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _parsed(parse, text):
    """The code a parser returns, or the class and message of what it raises."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expected value
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_literals())
def test_parse_code_matches_the_set_parser(text):
    got, want = _parsed(parse_code, text), _parsed(_set_parse_code, text)
    assert got == want
    if isinstance(want, BinaryCode):
        assert [g.mask() for g in got.generators] == [g.mask() for g in want.generators]


@pytest.mark.parametrize(
    "text,message",
    [
        ("degree=8\n1-4,3-6\n", "line 2, col 5: duplicate coordinate 3"),
        ("degree=8\n 1-4, 2\n", "line 2, col 6: duplicate coordinate 2"),
        ("5,1000000000,1000000000\n", "line 1, col 14: duplicate coordinate 1000000000"),
        ("1,1000000000\n", "degree 1000000000 out of range 1..128"),
        ("degree=8\n1,1000000000\n", "coordinate 1000000000 exceeds declared degree 8"),
        ("degree=8\n0,1\n9\n", "coordinate 0 outside 1..8"),
        ("degree=8\n1\n0,9\n", "coordinate 9 exceeds declared degree 8"),
        ("0\n", "degree 0 out of range 1..128"),
        ("1-129\n", "line 1, col 1: coordinate 129 out of range 1..128"),
        ("1,,2\n", "line 1, col 3: empty entry"),
    ],
)
def test_parse_errors_keep_their_text_and_order(text, message):
    assert _parsed(_set_parse_code, text) == (InvalidCodeError, message)
    with pytest.raises(InvalidCodeError) as exc:
        parse_code(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,same_as",
    [
        (f"degree={_PAD}8\n1-8\n", "degree=8\n1-8\n"),
        (f"1-{_PAD}4\n", "1-4\n"),
        (f"degree=8\n{_PAD}1, {_PAD}2 ,3,{_PAD}4\n", "degree=8\n1,2,3,4\n"),
        (f"{_PAD}5-8\n1-4\n", "5-8\n1-4\n"),
    ],
    ids=["degree", "run-end", "coordinates", "run-start"],
)
def test_zero_padded_numbers_parse_as_their_value(text, same_as):
    assert parse_code(text) == parse_code(same_as)  # same degree and generator masks


@pytest.mark.parametrize(
    "text,message",
    [
        (f"degree={_LONG}\n1-4\n", "line 1, col 8: number too long"),
        (f"degree=8\n1-7,{_LONG}\n", "line 2, col 5: number too long"),
        (f"1-{_LONG}\n", "line 1, col 1: number too long"),
        (f"1,2,{_PAD}{_LONG}-9\n", "line 1, col 5: number too long"),
    ],
    ids=["degree", "coordinate", "run-end", "run-start"],
)
def test_numbers_too_long_for_int_are_refused_with_their_position(text, message):
    with pytest.raises(InvalidCodeError) as exc:
        parse_code(text)
    assert str(exc.value) == message
