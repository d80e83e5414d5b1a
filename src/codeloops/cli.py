"""Command line front end.

Commands take code literal files (one generator per line, optional
"degree=m" header) or catalog loop ids such as C3_2 and C4_16.  Exit codes:
0 on success, 1 for invalid input, 2 for an internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .catalog import all_loop_ids, parse_loop_id
from .codes import BinaryCode, InternalInvariantError, InvalidCodeError, RepType, parse_code
from .equivalence import _pack, _packed_images, code_isomorphism, cycle_notation
from .equivalence import distinguishing_invariant
from .loops import _RANKS, CodeLoop, LoopClass, build_loop, classify, AssociativeLoopError
from .search import (
    Box,
    Representation,
    block_offsets,
    enumerate_reduced,
    generator_runs,
    minimal_representation,
    reduced_box,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for defects
        raise InvalidCodeError(message)


def _read_code(path: str) -> BinaryCode:
    # bytes decoded whole: parse_code's splitlines ends lines at \r and \r\n,
    # as text mode's newline translation would
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise InvalidCodeError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidCodeError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_code(text)


def _weight_enumerator_str(code: BinaryCode) -> str:
    # the weights are sorted, so each weight is one run, ended by bisect
    weights = code.weight_enumerator()
    terms = []
    start = 0
    while start < len(weights):
        w = weights[start]
        end = bisect_right(weights, w, start)
        terms.append(f"{w}^{end - start}" if end - start > 1 else str(w))
        start = end
    return " ".join(terms)


def _classification_lines(loop: CodeLoop) -> list[str]:
    if loop.rank not in _RANKS:
        if loop.is_associative():
            return ["class: associative"]
        return [f"class: unsupported rank {loop.rank}"]
    try:
        loop_class = classify(loop)
    except AssociativeLoopError:
        return ["class: associative"]
    return [f"lambda: {loop_class.vector}", f"class: {loop_class.name}"]


def cmd_construct(args) -> int:
    # lines are collected and printed together, so a code refused part way
    # (a dimension past a cap) leaves no partial report on stdout
    code = _read_code(args.file)
    lines = [f"degree: {code.degree}"]
    if not code.is_doubly_even():
        witness = code.first_odd_span_element()
        lines.append(f"not doubly even (weight {witness.weight})")
    else:
        lines.append("doubly even: yes")
        lines.append(f"dimension: {code.dimension}")
        lines.append(f"weight enumerator: {_weight_enumerator_str(code)}")
        lines.append(f"type: {code.rep_type()}")
        loop = build_loop(code)
        lines.append(f"moufang: {'yes' if loop.is_moufang() else 'no'}")
        lines.extend(_classification_lines(loop))
    print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    code = _read_code(args.file)
    if not code.is_doubly_even():
        witness = code.first_odd_span_element()
        lines = [f"not doubly even (weight {witness.weight})"]
    else:
        lines = _classification_lines(build_loop(code))
    print("\n".join(lines))
    return 0


def _record_lines(rep: Representation) -> list[str]:
    lines = [
        f"target: {rep.target.name}",
        f"degree: {rep.degree}",
        f"type: {rep.rep_type()}",
        "t: " + ",".join(map(str, rep.params.as_tuple())),
        "x: " + ",".join(map(str, rep.solution.as_tuple())),
        "generators:",
        f"degree={rep.degree}",
    ]
    lines.extend(str(g) for g in rep.generators)
    return lines


def _emit(chunks: list[str], out: str | None) -> None:
    """Write the text chunks, in order, to stdout or to the file out.

    The chunks are written one by one, so the text is never held a second
    time, joined or encoded as a whole.
    """
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InvalidCodeError(f"cannot write {out}: {exc.strerror}") from exc


@functools.cache
def _number_words(width: int, end: str) -> np.ndarray:
    """Word v, for v below 10**width: v in decimal right-aligned, then end, in 2 or 4 bytes.

    NUL stands for the leading zeros; _box_text strips it.  The words are
    read-only and made from bytes, so viewed back as bytes they are the
    text in either byte order.
    """
    size = 1 << width.bit_length()  # the least power of two above width
    text = "".join(f"{v:{size - 1}d}{end}" for v in range(10**width))
    return np.frombuffer(text.replace(" ", "\0").encode(), dtype=f"u{size}")


# the last coordinate of a record whose 15 classes all fit the one-digit x field
_RUN_TOP = 9 * 15


@functools.cache
def _run_words() -> np.ndarray:
    """Word (lead, a, b): a lead byte, then coordinates a+1..b as Codeword.__str__ writes them.

    The lead is none, a comma or a newline (0, 1, 2), and the run "b",
    "a,b" or "a-b" by its length, each number in three bytes.  NUL pads
    the numbers, and an empty run (b <= a) is NUL, lead and all.
    Read-only uint64 words, flat in (lead, a, b) with a, b in 0.._RUN_TOP.
    """
    text = "".join(f"{v:3d}" for v in range(_RUN_TOP + 2)).replace(" ", "\0")
    digits = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, 3)
    a, b = np.indices((_RUN_TOP + 1, _RUN_TOP + 1))
    length = (b - a)[:, :, None]
    words = np.zeros((3,) + a.shape + (8,), dtype=np.uint8)
    words[..., :1] = np.array([0, ord(","), ord("\n")], dtype=np.uint8)[:, None, None, None]
    words[..., 1:4] = np.where(length > 1, digits[a + 1], 0)
    words[..., 4:5] = np.where(length > 2, ord("-"), np.where(length == 2, ord(","), 0))
    words[..., 5:] = digits[b]
    words[:, b <= a] = 0
    return np.frombuffer(words.tobytes(), dtype=np.uint64)


@functools.cache
def _slot_leads(rank: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The lead of each run slot of the generator lines, and each generator's first slot.

    Generator i gets one slot per run it can have: its runs when every
    block is nonempty, since emptying blocks only merges runs.  The lead
    (of _run_words, times its plane size) is a comma (1) between the runs
    of a line, a newline (2) before each line but the first, else none (0).
    """
    slots = [len(runs) for runs in generator_runs(rank, (1 << 2**rank - 1) - 1)]
    firsts = tuple(np.cumsum([0] + slots[:-1]).tolist())
    lead = np.ones(sum(slots), dtype=np.intp)
    lead[list(firsts)] = 2
    lead[0] = 0
    lead *= (_RUN_TOP + 1) ** 2
    lead.setflags(write=False)
    return lead, firsts


@functools.cache
def _plan(rank: int, pattern: int) -> np.ndarray:
    """The (p, q) block pair of each run slot for one pattern of nonempty blocks.

    Unused slots get the empty run (0, 0).
    """
    lead, firsts = _slot_leads(rank)
    plan = np.zeros((len(lead), 2), dtype=np.intp)
    for first, runs in zip(firsts, generator_runs(rank, pattern)):
        plan[first:first + len(runs)] = runs
    plan.setflags(write=False)
    return plan


def _run_slots(rank: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the generator lines of each row of block offsets take their runs from.

    The runs depend only on which blocks are nonempty, so each pattern's
    plan is made once per process.  Returns the lead of each slot
    (_slot_leads), the plan of each pattern of the rows, and the pattern
    of each row.
    """
    blocks = offsets.shape[1] - 1
    nonempty = (np.diff(offsets, axis=1) > 0) @ (1 << np.arange(blocks))
    patterns, row_pattern = np.unique(nonempty, return_inverse=True)
    lead, _ = _slot_leads(rank)
    plans = np.array([_plan(rank, pattern) for pattern in patterns.tolist()], dtype=np.intp)
    return lead, plans.reshape(len(patterns), len(lead), 2), row_pattern


# records formatted together; bounds the row buffer of _box_text
_CHUNK_ROWS = 1024


def _box_text(target: LoopClass, box: Box) -> list[str]:
    """The enumerate output for a box, in chunks: each row's _record_lines, a blank line between.

    Each record is a row of one byte buffer: pieces are its constant text
    and the byte count of each field.  Per chunk of rows, each field is one
    take of NUL-padded ASCII words (_number_words, _run_words) viewed as
    bytes into its columns; the chunk is the buffer's bytes, NUL stripped.
    """
    rows, classes = box.x.shape
    if rows == 0:
        return []
    if box.t.max() >= 100 or box.x.max() >= 10 or box.degree.max() >= 1000:
        raise InternalInvariantError("a class or meet size is too wide for its record field")
    offsets = block_offsets(target.rank, box.x)
    lead, plans, row_pattern = _run_slots(target.rank, offsets)
    pieces = (
        f"target: {target.name}\ndegree: ", 4, "type: ", classes, "\nt: ", 4 * classes, "x: ",
        2 * classes - 2, "generators:\ndegree=", 4, "", 8 * len(lead), "\n\n",
    )
    template = b"".join(p.encode() if isinstance(p, str) else bytes(p) for p in pieces)
    bounds = np.cumsum([0] + [len(p) if isinstance(p, str) else p for p in pieces]).tolist()
    degree, rep_type, t, x, degree2, generators = map(slice, bounds[1::2], bounds[2::2])
    buf = np.tile(np.frombuffer(template, dtype=np.uint8), (min(_CHUNK_ROWS, rows), 1))
    type_digits = np.frombuffer(b"\x00123456789", dtype=np.uint8)  # a zero size is no class
    chunks = []
    for start in range(0, rows, _CHUNK_ROWS):
        part = Box(*(field[start:start + _CHUNK_ROWS] for field in box))
        row = buf[:len(part.degree)]
        degrees = _number_words(3, "\n").take(part.degree[:, None]).view(np.uint8)
        row[:, degree] = row[:, degree2] = degrees
        row[:, rep_type] = type_digits.take(np.sort(part.x, axis=1))
        row[:, t] = _number_words(2, ",").take(part.t).view(np.uint8)
        row[:, x] = _number_words(1, ",").take(part.x[:, 1:]).view(np.uint8)
        row[:, [t.stop - 1, x.stop - 1]] = ord("\n")  # the last commas
        slots = plans[row_pattern[start:start + _CHUNK_ROWS]].reshape(len(row), -1)
        ends = np.take_along_axis(offsets[start:start + _CHUNK_ROWS], slots, axis=1)
        row[:, generators] = _run_words().take(  # the run (a, b) of a slot
            lead + ends[:, 0::2] * (_RUN_TOP + 1) + ends[:, 1::2]
        ).view(np.uint8)
        chunks.append(row.tobytes().translate(None, b"\0").decode("ascii"))
    chunks[-1] = chunks[-1][:-1]  # no blank line after the last record
    return chunks


def cmd_enumerate(args) -> int:
    # the output is written once, so an error leaves no partial --out file
    target = parse_loop_id(args.loop)
    box = reduced_box(target, args.max_degree)
    _emit(_box_text(target, box), args.out)
    print(f"representations: {len(box.degree)}")
    if args.out:
        print(f"written: {args.out}")
    return 0


def cmd_minimal(args) -> int:
    target = parse_loop_id(args.loop)
    rep, cert = minimal_representation(target)
    print(f"loop: {target.name}")
    for line in _record_lines(rep)[1:]:
        print(line)
    print(f"visited: {cert.visited}")
    print(f"pruned: {cert.pruned}")
    return 0


def cmd_iso(args) -> int:
    a = _read_code(args.file_a)
    b = _read_code(args.file_b)
    perm = code_isomorphism(a, b)
    if perm is None:
        print("not isomorphic")
        reason = distinguishing_invariant(a, b) or "exhaustive search"
        print(f"reason: {reason}")
    else:
        print("isomorphic")
        print(f"permutation: {cycle_notation(perm)}")
    return 0


def cmd_conjecture(args) -> int:
    max_degree = args.max_degree if args.max_degree is not None else _CONJECTURE_CAPS[args.rank]

    groups, total = _conjecture_groups(args.rank, max_degree)
    lines = [
        f"rank: {args.rank}",
        f"max degree: {max_degree}",
        f"representations: {total}",
        f"groups: {len(groups)}",
    ]
    failures = []
    for (index, degree, sizes), group in sorted(groups.items()):  # by key: keys are distinct
        rep_type = RepType(sizes)
        _cross_check(group)
        verdict = "yes" if group.gap is None else "no"
        lines.append(
            f"group: loop=C{args.rank}_{index} degree={degree}"
            f" type={rep_type} count={group.count} isomorphic={verdict}"
        )
        if group.gap is not None:
            failures.append((index, degree, rep_type, group.gap))
    lines.append(f"counterexamples: {len(failures)}")
    for index, degree, rep_type, (first, second) in failures:
        lines.append(f"counterexample: loop=C{args.rank}_{index} degree={degree} type={rep_type}")
        lines.append("first:")
        lines.extend(_record_lines(first))
        lines.append("second:")
        lines.extend(_record_lines(second))
    _emit(["\n".join(lines) + "\n"], args.out)
    if args.out:
        print(f"groups: {len(groups)}")
        print(f"counterexamples: {len(failures)}")
        print(f"written: {args.out}")
    return 0


@dataclass(slots=True)
class _Group:
    """What the conjecture report needs of one (loop, degree, type) group.

    gap is the first member and the first member that is not isomorphic to
    it, or None while every member so far is.  orbit is the first member's
    orbit key (equivalence._packed_images) while its class streams by.
    """

    first: Representation
    last: Representation
    count: int = 1
    gap: tuple[Representation, Representation] | None = None
    orbit: set[int] | None = None


def _conjecture_groups(rank: int, max_degree: int):
    """The groups of conjecture by (loop index, degree, type sizes), and the member total.

    The members stream by and are not kept: a group holds its first, its
    last and its gap member only, so memory grows with the number of
    groups.  A member is keyed on its degree and the sorted nonzero class
    sizes of its box row, and no member's code is laid out here.  The
    members of a group are box points of one class, so a member is
    isomorphic to the first exactly when its row is an image of the
    first's under the stabilizer H_L (equivalence.box_stabilizer), that
    is when its _pack is in the first's orbit key (equivalence owns both).
    A group builds its orbit key when its second member arrives and keeps
    it until a gap is found or its class's members have all streamed by.
    """
    groups: dict[tuple[int, int, tuple[int, ...]], _Group] = {}
    total = 0
    for name in all_loop_ids(rank):
        target = parse_loop_id(name)
        of_class: dict[tuple[int, tuple[int, ...]], _Group] = {}
        for rep in enumerate_reduced(target, max_degree):
            total += 1
            row = rep.row
            key = (rep.degree, tuple(sorted(filter(None, row))))
            group = of_class.get(key)
            if group is None:
                of_class[key] = _Group(rep, rep)
                continue
            group.last = rep
            group.count += 1
            if group.gap is not None:
                continue
            if group.orbit is None:
                group.orbit = _packed_images(target, group.first.row)
            if _pack(row) not in group.orbit:
                group.gap = (group.first, rep)
        for key, group in of_class.items():
            group.orbit = None  # freed with the class
            groups[(target.index, *key)] = group
    return groups, total


def _cross_check(group: _Group) -> None:
    """Confirm the orbit-key verdict on a group with code_isomorphism.

    A reported pair must not be isomorphic, and in a group found
    isomorphic the first and last members must be.
    """
    if group.gap is not None:
        pair, found = group.gap, False
    elif group.count > 1:
        pair, found = (group.first, group.last), True
    else:
        return
    first, second = pair
    if (code_isomorphism(first.code(), second.code()) is not None) != found:
        raise InternalInvariantError(
            f"orbit key and code_isomorphism disagree on {first.target.name}"
            f" degree {first.degree} type {first.rep_type()}"
        )


# conjecture's default degree cap per rank
_CONJECTURE_CAPS = {3: 20, 4: 19}


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The command line parser and its subcommand parsers by name, built on first use.

    They are kept for the process: parse_args keeps no state between
    calls, as each call fills a new namespace, so one parser serves any
    number of main() calls.
    """
    parser = _Parser(prog="codeloops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and describe the loop of a code file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("classify", help="classify the loop of a code file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("enumerate", help="list reduced representations of a loop")
    p.add_argument("--loop", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("minimal", help="find the minimal representation of a loop")
    p.add_argument("--loop", required=True)
    p.set_defaults(fn=cmd_minimal)

    p = sub.add_parser("iso", help="test two code files for coordinate isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("conjecture", help="scan for same-degree same-type non-isomorphic pairs")
    p.add_argument("--rank", type=int, choices=_RANKS, required=True)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_conjecture)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # a subcommand name first goes straight to its own parser, which
        # the top-level parser would hand the rest of argv to; anything else
        # (no command, -h, an unknown name) goes to the top-level parser
        command = commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except OSError as exc:
        # the inputs and --out report their own errors, so this is stdout
        # (a full disk, say); quiet the flush at exit as above
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except InvalidCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
