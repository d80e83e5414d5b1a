"""Seeded inputs for the three workloads, with the outputs each must give.

Each workload is a fixed list of ``codeloops.cli.main`` argument lists (one
*pass*); the runner repeats the pass in a closed loop.  The seed changes
which codes, classes and labelings appear, never how many of each kind, so
the work in a pass is the same size for every seed.

Expected values are worked out here, independently of the program where
that is cheap: weight enumerators and types come from bit masks of the
generators *before* relabeling, so the program must show they are
invariant.  Classes come from how a code was made (a catalog code, an
enumerated representation of a known class, or a direct sum of a
nonassociative code with extra generators).
"""

from __future__ import annotations

import os
import random
from collections import Counter

from codeloops.catalog import all_loop_ids, catalog_entry, parse_loop_id
from codeloops.search import enumerate_reduced

WORKLOADS = ("construct", "search", "conjecture")

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is the
# smallest input that still runs every layer of each workload, for tests.
SIZES = {
    "full": {
        "construct": {"catalog": 21, "rank3": 21, "rank4": 42, "dim5": 14, "dim6": 2},
        "search": {"minimal": 21, "enumerate": 4, "cap": 37},
        "conjecture": ((4, 25), (3, 49)),
    },
    "smoke": {
        "construct": {"catalog": 3, "rank3": 1, "rank4": 1, "dim5": 1, "dim6": 0},
        "search": {"minimal": 2, "enumerate": 1, "cap": 21},
        "conjecture": ((4, 21), (3, 20)),
    },
}

# conjecture reports at the seed commit: (rank, cap) ->
# (representations, groups, counterexamples).  The outputs must not change.
CONJECTURE_REFERENCE = {
    (4, 25): (1948, 324, 42),
    (3, 49): (160, 64, 0),
    (4, 21): (365, 100, 1),
    (3, 20): (22, 11, 0),
}

# reduced representations to relabel are drawn from these boxes
RELABEL_CAP = {3: 49, 4: 25}


# ---------------------------------------------------------------------------
# codes as bit masks, computed without the program


def masks_of(generator_lines, degree: int) -> list[int]:
    masks = []
    for line in generator_lines:
        m = 0
        for token in line.split(","):
            lo, _, hi = token.partition("-")
            for i in range(int(lo), int(hi or lo) + 1):
                m |= 1 << (i - 1)
        if m >> degree:
            raise ValueError(f"coordinate beyond degree {degree}")
        masks.append(m)
    return masks


def span_weights(masks: list[int]) -> list[int]:
    span = [0]
    for m in masks:
        span += [s ^ m for s in span]
    return sorted(s.bit_count() for s in span)


def weight_enumerator_str(masks: list[int]) -> str:
    counts = Counter(span_weights(masks))
    return " ".join(f"{w}^{c}" if c > 1 else str(w) for w, c in sorted(counts.items()))


def type_str(masks: list[int], degree: int) -> str:
    """Sorted sizes of the coordinate classes, in the CLI's notation."""
    sigs = Counter(
        tuple(m >> i & 1 for m in masks) for i in range(degree)
    )
    sigs.pop((0,) * len(masks), None)
    sizes = sorted(sigs.values())
    if max(sizes) > 9:
        return "(" + ",".join(map(str, sizes)) + ")"
    return "".join(map(str, sizes))


def code_text(masks: list[int], degree: int) -> str:
    lines = [f"degree={degree}"]
    for m in masks:
        lines.append(",".join(str(i + 1) for i in range(degree) if m >> i & 1))
    return "\n".join(lines) + "\n"


def _rank(masks: list[int]) -> int:
    basis: dict[int, int] = {}
    for m in masks:
        while m:
            lead = m.bit_length() - 1
            if lead not in basis:
                basis[lead] = m
                break
            m ^= basis[lead]
    return len(basis)


def relabel(masks: list[int], degree: int, rng: random.Random) -> tuple[list[int], int]:
    """Pad with zero coordinates, permute coordinates, change basis."""
    new_degree = degree + rng.randrange(0, 4)
    perm = list(range(new_degree))
    rng.shuffle(perm)
    moved = []
    for m in masks:
        out = 0
        for i in range(degree):
            if m >> i & 1:
                out |= 1 << perm[i]
        moved.append(out)
    k = len(moved)
    while True:
        rows = [rng.randrange(1, 1 << k) for _ in range(k)]
        if _rank(rows) == k:
            break
    based = []
    for row in rows:
        word = 0
        for j in range(k):
            if row >> j & 1:
                word ^= moved[j]
        based.append(word)
    return based, new_degree


def direct_sum_code(rng: random.Random, dimension: int) -> tuple[list[int], int, str]:
    """A nonassociative doubly even code of dimension 5 or 6.

    A catalog code of rank 3 or 4 (odd triple meet, so its loop is
    nonassociative) plus extra generators that are unions of 4-blocks on
    fresh coordinates.  Block unions meet in multiples of 4, so the sum
    stays doubly even.
    """
    base_rank = rng.choice([r for r in (3, 4) if 1 <= dimension - r <= 3])
    entry = catalog_entry(rng.choice(all_loop_ids(base_rank)))
    masks = masks_of(entry.generator_lines, entry.degree)
    extra = dimension - base_rank
    blocks = extra + 1
    while True:
        subsets = [rng.randrange(1, 1 << blocks) for _ in range(extra)]
        if _rank(subsets) == extra:
            break
    for subset in subsets:
        word = 0
        for b in range(blocks):
            if subset >> b & 1:
                word |= 0xF << (entry.degree + 4 * b)
        masks.append(word)
    return masks, entry.degree + 4 * blocks, f"unsupported rank {dimension}"


# ---------------------------------------------------------------------------
# plans


def build_plan(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Write the workload's input files under workdir and describe one pass."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[scale][workload]
    if workload == "construct":
        ops = _construct_ops(rng, size, workdir)
    elif workload == "search":
        ops = _search_ops(rng, size, workdir)
    elif workload == "conjecture":
        ops = _conjecture_ops(size, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "scale": scale, "ops": ops,
            "check_seed": rng.randrange(1 << 30)}


def _construct_ops(rng: random.Random, size: dict, workdir: str) -> list[dict]:
    sources = []  # (masks, degree, class line, relabel?)
    for name in rng.sample(all_loop_ids(), size["catalog"]):
        entry = catalog_entry(name)
        sources.append((masks_of(entry.generator_lines, entry.degree),
                        entry.degree, name, False))
    reps: dict[str, list] = {}
    for rank in (3, 4):
        for _ in range(size[f"rank{rank}"]):
            name = rng.choice(all_loop_ids(rank))
            if name not in reps:
                reps[name] = list(enumerate_reduced(parse_loop_id(name), RELABEL_CAP[rank]))
            rep = rng.choice(reps[name])
            lines = [",".join(str(i) for i in sorted(g.support)) for g in rep.generators]
            sources.append((masks_of(lines, rep.degree), rep.degree, name, True))
    for dimension in (5, 6):
        for _ in range(size[f"dim{dimension}"]):
            masks, degree, label = direct_sum_code(rng, dimension)
            sources.append((masks, degree, label, True))
    rng.shuffle(sources)

    ops = []
    for i, (masks, degree, label, relabeled) in enumerate(sources):
        expect = {
            "doubly even": "yes",
            "dimension": str(len(masks)),
            "weight enumerator": weight_enumerator_str(masks),
            "type": type_str(masks, degree),
            "moufang": "yes",
            "class": label,
        }
        if relabeled:
            masks, degree = relabel(masks, degree, rng)
        expect["degree"] = str(degree)
        path = os.path.join(workdir, f"code-{i:03d}.code")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(code_text(masks, degree))
        ops.append({"argv": ["construct", path], "out": None, "expect": expect})
    return ops


def _search_ops(rng: random.Random, size: dict, workdir: str) -> list[dict]:
    ops = []
    minimal_ids = list(all_loop_ids())
    rng.shuffle(minimal_ids)
    for name in minimal_ids[: size["minimal"]]:
        entry = catalog_entry(name)
        ops.append({"argv": ["minimal", "--loop", name], "out": None,
                    "expect": {"loop": name, "degree": str(entry.degree),
                               "type": str(entry.rep_type)}})
    cap = size["cap"]
    for i, name in enumerate(rng.sample(all_loop_ids(4), size["enumerate"])):
        out = os.path.join(workdir, f"enumerate-{i}.txt")
        ops.append({"argv": ["enumerate", "--loop", name, "--max-degree", str(cap),
                             "--out", out],
                    "out": out, "expect": {"loop": name, "max_degree": cap}})
    return ops


def _conjecture_ops(size, workdir: str) -> list[dict]:
    ops = []
    for rank, cap in size:
        out = os.path.join(workdir, f"conjecture-{rank}.txt")
        reps, groups, counterexamples = CONJECTURE_REFERENCE[(rank, cap)]
        ops.append({"argv": ["conjecture", "--rank", str(rank), "--max-degree", str(cap),
                             "--out", out],
                    "out": out,
                    "expect": {"rank": rank, "max_degree": cap, "representations": reps,
                               "groups": groups, "counterexamples": counterexamples}})
    return ops
