"""Output checks, run after the timed passes.

Every check returns a list of problems; an empty list means the output is
right.  Numbers the program prints are compared with values worked out in
``workloads`` or here from bit masks, and sampled records are rebuilt and
passed through ``verify_representation``.
"""

from __future__ import annotations

import random
from itertools import combinations

from codeloops.catalog import parse_loop_id
from codeloops.codes import parse_code
from codeloops.factorset import build_factor_set, verify_factor_set
from codeloops.search import (
    ParamVector3,
    ParamVector4,
    Representation,
    Solution3,
    Solution4,
    verify_representation,
)

from workloads import type_str

RECORD_SAMPLE = 5  # enumerate records re-read and verified per output file
FACTOR_SET_SAMPLE = 4  # construct inputs whose factor set is re-verified


def fields(lines) -> dict[str, str]:
    """First value of each "key: value" line."""
    out: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def check_construct(op: dict, stdout: str) -> list[str]:
    got = fields(stdout.splitlines())
    return [
        f"{key}: got {got.get(key)!r}, want {want!r}"
        for key, want in op["expect"].items()
        if got.get(key) != want
    ]


def check_factor_sets(ops: list[dict], rng: random.Random) -> list[tuple[int, str]]:
    problems = []
    for i in rng.sample(range(len(ops)), min(FACTOR_SET_SAMPLE, len(ops))):
        with open(ops[i]["argv"][1], encoding="utf-8") as fh:
            code = parse_code(fh.read())
        violations = verify_factor_set(build_factor_set(code))
        if violations:
            problems.append((i, f"factor set violates {violations[0].axiom} axiom"))
    return problems


def check_minimal(op: dict, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    got = fields(lines)
    problems = [
        f"{key}: got {got.get(key)!r}, want {want!r}"
        for key, want in op["expect"].items()
        if got.get(key) != want
    ]
    record = ["target: " + got.get("loop", "")] + lines[1:]
    problems += check_record(parse_record(record, 0)[0], op["expect"]["loop"])
    return problems


def check_enumerate(op: dict, stdout: str, out_text: str, rng: random.Random) -> list[str]:
    got = fields(stdout.splitlines())
    lines = out_text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("target: ")]
    problems = []
    if got.get("representations") != str(len(starts)):
        problems.append(f"representations: {got.get('representations')!r}, "
                        f"file holds {len(starts)} records")
    cap = op["expect"]["max_degree"]
    loop = op["expect"]["loop"]
    for line in lines:
        if line.startswith("target: ") and line != f"target: {loop}":
            problems.append(f"record for {line[8:]!r} in the {loop} enumeration")
            break
        if line.startswith("degree: ") and int(line[8:]) > cap:
            problems.append(f"record of degree {line[8:]} above cap {cap}")
            break
    for start in rng.sample(starts, min(RECORD_SAMPLE, len(starts))):
        problems += check_record(parse_record(lines, start)[0], loop)
    return problems


def check_conjecture(op: dict, stdout: str, out_text: str) -> list[str]:
    want = op["expect"]
    lines = out_text.splitlines()
    head = fields(lines)
    problems = []
    for key in ("representations", "groups", "counterexamples"):
        if head.get(key) != str(want[key]):
            problems.append(f"{key}: got {head.get(key)!r}, want {want[key]}")
    out_fields = fields(stdout.splitlines())
    for key in ("groups", "counterexamples"):
        if out_fields.get(key) != head.get(key):
            problems.append(f"stdout {key} {out_fields.get(key)!r} differs from the report")
    groups = [line for line in lines if line.startswith("group: ")]
    if len(groups) != want["groups"]:
        problems.append(f"{len(groups)} group lines, want {want['groups']}")
    counted = sum(int(line.rsplit("count=", 1)[1].split()[0]) for line in groups)
    if counted != want["representations"]:
        problems.append(f"group counts add up to {counted}, want {want['representations']}")
    found = 0
    for i, line in enumerate(lines):
        if not line.startswith("counterexample: "):
            continue
        found += 1
        attrs = dict(part.split("=", 1) for part in line.split()[1:])
        if lines[i + 1] != "first:":
            problems.append(f"counterexample at line {i + 1} has no first member")
            continue
        first, end = parse_record(lines, i + 2)
        if lines[end] != "second:":
            problems.append(f"counterexample at line {i + 1} has no second member")
            continue
        second, _ = parse_record(lines, end + 1)
        for member in (first, second):
            if (member["target"], member["degree"], member["type"]) != (
                attrs["loop"], attrs["degree"], attrs["type"]
            ):
                problems.append(f"counterexample {line!r} member differs in loop, degree or type")
            problems += check_record(member, attrs["loop"])
    if found != want["counterexamples"]:
        problems.append(f"{found} counterexample blocks, want {want['counterexamples']}")
    return problems


def parse_record(lines: list[str], start: int) -> tuple[dict, int]:
    """One record starting at a "target:" line; returns it and the next index."""
    record: dict = {}
    i = start
    while i < len(lines) and lines[i] != "generators:":
        key, _, value = lines[i].partition(": ")
        record[key] = value
        i += 1
    i += 1
    code_lines = []
    while i < len(lines) and lines[i] and ": " not in lines[i] and not lines[i].endswith(":"):
        code_lines.append(lines[i])
        i += 1
    record["code"] = "\n".join(code_lines) + "\n"
    return record, i


def check_record(record: dict, loop: str) -> list[str]:
    """Re-read a printed representation and check it independently."""
    try:
        code = parse_code(record["code"])
        target = parse_loop_id(record["target"])
        t = tuple(int(v) for v in record["t"].split(","))
        x = tuple(int(v) for v in record["x"].split(","))
    except (KeyError, ValueError) as exc:
        return [f"unreadable record: {exc}"]
    problems = []
    if record["target"] != loop:
        problems.append(f"record target {record['target']!r}, want {loop!r}")
    masks = [sum(1 << (i - 1) for i in g.support) for g in code.generators]
    if record.get("degree") != str(code.degree):
        problems.append(f"record degree {record.get('degree')!r} but code degree {code.degree}")
    if record.get("type") != type_str(masks, code.degree):
        problems.append(f"record type {record.get('type')!r}, "
                        f"code has {type_str(masks, code.degree)}")
    if t != meet_vector(masks):
        problems.append(f"record t {t} differs from the generators' meets")
    params, solution = (ParamVector3, Solution3) if target.rank == 3 else (ParamVector4, Solution4)
    rep = Representation(target=target, params=params(*t), solution=solution(*x),
                         classes=(), generators=code.generators, degree=code.degree)
    if not verify_representation(rep):
        problems.append(f"record of degree {code.degree} fails verify_representation")
    return problems


def meet_vector(masks: list[int]) -> tuple[int, ...]:
    """Meet sizes over generator subsets, largest subsets first, then lexicographic."""
    k = len(masks)
    out = []
    for size in range(k, 0, -1):
        for subset in combinations(range(k), size):
            m = -1
            for j in subset:
                m &= masks[j]
            out.append(m.bit_count())
    return tuple(out)
