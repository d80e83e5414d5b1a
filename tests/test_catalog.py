"""Bundled minimal representations: shape, parsing, and id handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codeloops import (
    InvalidCodeError,
    all_loop_ids,
    canonical_loop,
    catalog_entries,
    catalog_entry,
    parse_loop_id,
)


def test_id_listing():
    assert len(all_loop_ids()) == 21
    assert len(all_loop_ids(3)) == 5
    assert len(all_loop_ids(4)) == 16
    assert all_loop_ids(3)[0] == "C3_1"
    assert all_loop_ids(4)[-1] == "C4_16"


def test_parse_loop_id():
    lc = parse_loop_id("C4_9")
    assert (lc.rank, lc.index) == (4, 9)
    for bad in ("C5_1", "C3_0", "C3_6", "C4_17", "c3_1", "C3", "C3_1_2", "x",
                "C4_01", "C3_001", "C4_00", "C4_016"):
        with pytest.raises(InvalidCodeError):
            parse_loop_id(bad)


@given(st.from_regex(r"\AC[345]_[0-9]{1,3}\Z") | st.text(alphabet="C034_1 6", max_size=6))
def test_parse_loop_id_accepts_only_class_names(name):
    try:
        loop = parse_loop_id(name)
    except InvalidCodeError:
        assert name not in all_loop_ids()
    else:
        assert loop.name == name


def test_entries_are_consistent():
    for entry in catalog_entries():
        code = entry.code()
        assert code.degree == entry.degree
        assert code.dimension == entry.loop.rank
        assert code.rep_type() == entry.rep_type
        assert code.is_doubly_even()
        assert entry.rep_type.is_reduced


def test_known_degrees():
    degrees3 = [catalog_entry(f"C3_{i}").degree for i in range(1, 6)]
    assert degrees3 == [7, 13, 11, 17, 17]
    degrees4 = [catalog_entry(f"C4_{i}").degree for i in range(1, 17)]
    assert degrees4 == [8, 14, 12, 18, 18, 11, 17, 17, 19, 19, 17, 17, 17, 13, 17, 17]


def test_canonical_loop_cached():
    assert canonical_loop("C3_3") is canonical_loop("C3_3")
    assert canonical_loop("C3_3").rank == 3
