"""The catalog's minimal representations of the 21 nonassociative classes.

The class table (loops._CLASSES) holds each class's canonical
characteristic vector, minimal degree, type at that degree and generator
lines; the functions here look entries and loop ids up in it.  The
generator literals are parsed lazily, and built loops are cached, since
several commands and most tests touch the same handful of loops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .codes import BinaryCode, InvalidCodeError, RepType, parse_code
from .loops import _CLASSES, CodeLoop, LoopClass, build_loop

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


@functools.cache
def _loop_classes() -> dict[str, LoopClass]:
    """Every class of the class table by its id, which is its name, in catalog order."""
    return {
        f"C{rank}_{index}": LoopClass(rank, index)
        for rank, rows in _CLASSES.items()
        for index in range(1, len(rows) + 1)
    }


def all_loop_ids(rank: int | None = None) -> tuple[str, ...]:
    return tuple(name for name, loop in _loop_classes().items() if rank in (None, loop.rank))


def parse_loop_id(name: str) -> LoopClass:
    # an id is a class's name, so it is never zero-padded or spelled another way
    loop = _loop_classes().get(name)
    if loop is None:
        raise InvalidCodeError(f"unknown loop id {name!r}")
    return loop


def catalog_entry(loop: LoopClass | str) -> CatalogEntry:
    if isinstance(loop, str):
        loop = parse_loop_id(loop)
    _, degree, type_str, lines = _CLASSES[loop.rank][loop.index - 1]
    return CatalogEntry(
        loop=loop,
        degree=degree,
        rep_type=RepType(tuple(int(ch) for ch in type_str)),
        generator_lines=tuple(lines.split()),
    )


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(map(catalog_entry, all_loop_ids()))


@functools.lru_cache(maxsize=None)
def canonical_loop(name: str) -> CodeLoop:
    """Build (once) the loop of a catalog class from its minimal code."""
    return build_loop(catalog_entry(parse_loop_id(name)).code())
