"""Command line front end.

Commands take code literal files (one generator per line, optional
"degree=m" header) or catalog loop ids such as C3_2 and C4_16.  Exit codes:
0 on success, 1 for invalid input, 2 for an internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .catalog import all_loop_ids, parse_loop_id
from .codes import BinaryCode, InternalInvariantError, InvalidCodeError, parse_code
from .equivalence import cycle_notation, code_isomorphism, distinguishing_invariant
from .loops import build_loop, classify, AssociativeLoopError
from .search import Representation, enumerate_reduced, minimal_representation


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for defects
        raise InvalidCodeError(message)


def _read_code(path: str) -> BinaryCode:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidCodeError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidCodeError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_code(text)


def _weight_enumerator_str(code: BinaryCode) -> str:
    counts = Counter(code.weight_enumerator())
    return " ".join(
        f"{w}^{c}" if c > 1 else str(w) for w, c in sorted(counts.items())
    )


def _classification_lines(code: BinaryCode) -> list[str]:
    loop = build_loop(code)
    lines = [f"moufang: {'yes' if loop.is_moufang() else 'no'}"]
    if code.dimension not in (3, 4):
        if loop.is_associative():
            lines.append("class: associative")
        else:
            lines.append(f"class: unsupported rank {code.dimension}")
        return lines
    try:
        loop_class = classify(loop)
    except AssociativeLoopError:
        lines.append("class: associative")
        return lines
    lines.append(f"lambda: {loop_class.vector}")
    lines.append(f"class: {loop_class.name}")
    return lines


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
        lines.extend(_classification_lines(code))
    print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    code = _read_code(args.file)
    if not code.is_doubly_even():
        witness = code.first_odd_span_element()
        lines = [f"not doubly even (weight {witness.weight})"]
    else:
        lines = [line for line in _classification_lines(code) if not line.startswith("moufang")]
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_enumerate(args) -> int:
    # each record is formatted as the scan yields it and only its text is
    # kept; the output is still written once, after the scan
    target = parse_loop_id(args.loop)
    reps = enumerate_reduced(target, args.max_degree)
    chunks = ["\n".join(_record_lines(rep)) + "\n" for rep in reps]
    _emit("\n".join(chunks), args.out)
    print(f"representations: {len(chunks)}")
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
    default_cap = 20 if args.rank == 3 else 19
    max_degree = args.max_degree if args.max_degree is not None else default_cap

    groups: dict[tuple[int, int, tuple[int, ...]], list[Representation]] = {}
    total = 0
    for name in all_loop_ids(args.rank):
        target = parse_loop_id(name)
        for rep in enumerate_reduced(target, max_degree):
            total += 1
            key = (target.index, rep.degree, rep.rep_type().sizes)
            groups.setdefault(key, []).append(rep)

    lines = [
        f"rank: {args.rank}",
        f"max degree: {max_degree}",
        f"representations: {total}",
        f"groups: {len(groups)}",
    ]
    failures = []
    for (index, degree, sizes) in sorted(groups):
        members = groups[(index, degree, sizes)]
        rep_type = members[0].rep_type()
        witness = _isomorphism_gap(members)
        verdict = "yes" if witness is None else "no"
        lines.append(
            f"group: loop=C{args.rank}_{index} degree={degree}"
            f" type={rep_type} count={len(members)} isomorphic={verdict}"
        )
        if witness is not None:
            failures.append((index, degree, rep_type, witness))
    lines.append(f"counterexamples: {len(failures)}")
    for index, degree, rep_type, (first, second) in failures:
        lines.append(f"counterexample: loop=C{args.rank}_{index} degree={degree} type={rep_type}")
        lines.append("first:")
        lines.extend(_record_lines(first))
        lines.append("second:")
        lines.extend(_record_lines(second))
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.out:
        print(f"groups: {len(groups)}")
        print(f"counterexamples: {len(failures)}")
        print(f"written: {args.out}")
    return 0


def _isomorphism_gap(members: list[Representation]):
    """First pair of non-isomorphic members, via a transversal, or None."""
    transversal: list[tuple[Representation, BinaryCode]] = []
    for rep in members:
        code = rep.code()
        for seen_rep, seen_code in transversal:
            if code_isomorphism(seen_code, code) is not None:
                break
        else:
            if transversal:
                return transversal[0][0], rep
            transversal.append((rep, code))
    return None


def _build_parser() -> _Parser:
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
    p.add_argument("--rank", type=int, choices=(3, 4), required=True)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except InvalidCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
