"""Catalog data: minimal representations for the 21 nonassociative classes.

Each entry records the class id, its canonical characteristic vector, the
minimal degree, the type at that degree, and generators realizing it.  The
loader parses the generator literals lazily and caches built loops, since
several commands and most tests touch the same handful of loops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .codes import BinaryCode, InvalidCodeError, RepType, _is_number, parse_code
from .loops import CodeLoop, LoopClass, build_loop

# class index -> (minimal degree, type, generator lines)
_RANK3 = {
    1: (7, "1111111", ("1,2,3,4", "1,2,5,6", "1,3,5,7")),
    2: (13, "1111333", ("1-8", "1,2,3,4,9,10,11,12", "1,5,6,7,9,10,11,13")),
    3: (11, "1111115", ("1-8", "1,2,3,4,5,6,9,10", "1,2,3,4,5,7,9,11")),
    4: (17, "1111337", ("1,2,3,4", "1,2,5-14", "1,3,5-11,15,16,17")),
    5: (17, "1113335", ("1-12", "1-8,13,14,15,16", "1,2,3,4,5,9,10,11,13,14,15,17")),
}

_RANK4 = {
    1: (8, "11111111", ("1,2,3,4", "1,2,5,6", "1,3,5,7", "1-8")),
    2: (14, "11111111222",
        ("1-8", "1-4,9-12", "1,5,6,7,9,10,11,13", "1,2,5,8,9,12,13,14")),
    3: (12, "111111114", ("1-8", "1-6,9,10", "1,2,3,4,5,7,9,11", "1,6-12")),
    4: (18, "11111111226",
        ("1-8", "1-6,9,10", "1,2,3,7,9,11-17", "1,4,7,8,9,10,11,18")),
    5: (18, "111111112224",
        ("1-8", "1,2,3,4,9,10,11,12", "1,5,9,13-17", "1,2,5,6,9,10,13,18")),
    6: (11, "11111114", ("1,2,3,4", "1,2,5,6", "1,3,5,7", "8,9,10,11")),
    7: (17, "11113334",
        ("1-8", "1,2,3,4,9,10,11,12", "1,5,6,7,9,10,11,13", "14,15,16,17")),
    8: (17, "11111122223",
        ("1-8", "1,2,3,4,9-12", "1,2,3,5,9,13,14,15", "1,2,10,11,13,14,16,17")),
    9: (19, "11111222233",
        ("1-8", "1,2,3,4,9-16", "1,5,6,7,9,10,11,17", "5,6,9,10,12,13,18,19")),
    10: (19, "111223333",
         ("1-8", "1,2,9-14", "1,3,9,10,11,15,16,17", "4,5,18,19")),
    11: (17, "111122333",
         ("1-8", "1,2,3,4,9-12", "1,2,3,5,9,13,14,15", "6,7,16,17")),
    12: (17, "1111112234",
         ("1-8", "1,2,3,4,9-12", "1,2,3,5,9,10,11,13", "1,2,9,10,14,15,16,17")),
    13: (17, "111111236", ("1-8", "1,2,9,10", "1,3,9,11", "4,5,12-17")),
    14: (13, "111111223",
         ("1-8", "1,2,3,4,9-12", "1,2,3,5,9,10,11,13", "1,2,9,10")),
    15: (17, "111111227",
         ("1-12", "1,2,3,4,13-16", "1,2,3,5,13,14,15,17", "1,2,13,14")),
    16: (17, "111112235",
         ("1-8", "1,2,9-14", "1,3,9-13,15", "4,5,16,17")),
}

# two degree-19 representations of C4_16 with different types; the standard
# regression pair for enumeration, weight enumerators, and non-isomorphism
SAMPLE_C4_16_A = "degree=19\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n"
SAMPLE_C4_16_B = "degree=19\n1-8\n1-6,9-18\n1,2,3,4,5,7,9-17,19\n1,2,9,10\n"


@dataclass(frozen=True)
class CatalogEntry:
    loop: LoopClass
    degree: int
    rep_type: RepType
    generator_lines: tuple[str, ...]

    def code(self) -> BinaryCode:
        text = f"degree={self.degree}\n" + "\n".join(self.generator_lines)
        return parse_code(text)


def all_loop_ids(rank: int | None = None) -> tuple[str, ...]:
    ids = []
    if rank in (None, 3):
        ids.extend(f"C3_{i}" for i in _RANK3)
    if rank in (None, 4):
        ids.extend(f"C4_{i}" for i in _RANK4)
    return tuple(ids)


def parse_loop_id(name: str) -> LoopClass:
    parts = name.split("_")
    # the index in ASCII digits without zero padding, so that the id is the class's name
    if len(parts) == 2 and parts[0] in ("C3", "C4") and _is_number(parts[1]) and parts[1][0] != "0":
        rank = int(parts[0][1])
        index = int(parts[1])
        table = _RANK3 if rank == 3 else _RANK4
        if index in table:
            return LoopClass(rank, index)
    raise InvalidCodeError(f"unknown loop id {name!r}")


def catalog_entry(loop: LoopClass | str) -> CatalogEntry:
    if isinstance(loop, str):
        loop = parse_loop_id(loop)
    table = _RANK3 if loop.rank == 3 else _RANK4
    degree, type_str, gens = table[loop.index]
    return CatalogEntry(
        loop=loop,
        degree=degree,
        rep_type=RepType(tuple(int(ch) for ch in type_str)),
        generator_lines=gens,
    )


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(
        catalog_entry(parse_loop_id(name)) for name in all_loop_ids()
    )


@functools.lru_cache(maxsize=None)
def canonical_loop(name: str) -> CodeLoop:
    """Build (once) the loop of a catalog class from its minimal code."""
    return build_loop(catalog_entry(parse_loop_id(name)).code())
