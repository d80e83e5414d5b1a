"""Bundled minimal representations: shape, parsing, and id handling."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codeloops import (
    AssociativeLoopError,
    CharVector,
    InvalidCodeError,
    LoopClass,
    all_loop_ids,
    build_loop,
    canonical_catalog,
    canonical_loop,
    catalog_entries,
    catalog_entry,
    characteristic_vector,
    classify,
    parse_code,
    parse_loop_id,
)
from codeloops.cli import main
from codeloops.subsets import _SUBSETS


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


# a doubly even code of each rank the catalog does not cover: every code
# loop of rank 2 is a group, and the rank 5 code is C4_1's plus a disjoint word
_UNSUPPORTED_CODES = {
    2: "degree=8\n1-4\n5-8\n",
    5: "degree=12\n1,2,3,4\n1,2,5,6\n1,3,5,7\n1-8\n9-12\n",
}


def _refusal(call, *args):
    with pytest.raises(InvalidCodeError) as info:
        call(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("rank", sorted(_UNSUPPORTED_CODES))
def test_every_entry_point_refuses_an_unsupported_rank(rank, tmp_path, capsys):
    not_in = (InvalidCodeError, f"rank {rank} not in (3, 4)")
    assert _refusal(CharVector, rank, (0,) * rank, (0,) * comb(rank, 2)) == not_in
    assert _refusal(CharVector.from_bits, rank, "0" * (rank + comb(rank, 2))) == not_in
    assert _refusal(canonical_catalog, rank) == not_in
    assert _refusal(LoopClass, rank, 1) == not_in
    assert rank not in _SUBSETS
    assert all_loop_ids(rank) == ()
    unknown = (InvalidCodeError, f"unknown loop id 'C{rank}_1'")
    assert _refusal(parse_loop_id, f"C{rank}_1") == unknown
    assert _refusal(catalog_entry, f"C{rank}_1") == unknown

    loop = build_loop(parse_code(_UNSUPPORTED_CODES[rank]))
    basis = [1 << i for i in range(rank)]
    assert _refusal(characteristic_vector, loop, basis) == (
        InvalidCodeError, f"characteristic vectors need rank 3 or 4, got {rank}"
    )
    assert _refusal(classify, loop) == (
        (AssociativeLoopError, "loop is associative; not a nonassociative code loop")
        if rank == 2
        else (InvalidCodeError, "classification needs rank 3 or 4, got 5")
    )

    path = tmp_path / "code.txt"
    path.write_text(_UNSUPPORTED_CODES[rank])
    line = "class: associative" if rank == 2 else f"class: unsupported rank {rank}"
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == f"{line}\n"
    assert main(["construct", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"\nmoufang: yes\n{line}\n")
    for argv in (["minimal", "--loop", f"C{rank}_1"],
                 ["enumerate", "--loop", f"C{rank}_1", "--max-degree", "9"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: unknown loop id 'C{rank}_1'\n")
    assert main(["conjecture", "--rank", str(rank)]) == 1
    assert capsys.readouterr() == (
        "", f"error: argument --rank: invalid choice: {rank} (choose from 3, 4)\n"
    )
