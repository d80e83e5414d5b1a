"""Benchmark of the codeloops command line: one workload, one seed, one run.

    python3 bench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run generates the workload's inputs
from the seed, starts a fresh worker process that imports the package from
``src/``, drives ``codeloops.cli.main`` in a closed loop (one caller, each
call starting when the previous one ends) for at least ``--seconds`` of
whole passes, checks every output, and prints the metrics.  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker alternates untraced and traced passes and the metrics are the
per-layer ones.  Times in the metrics are scaled to a reference machine
speed measured between calls (see ``worker.py``); the wall-clock figures
are printed beside them and kept in the result file.  The full result, with output hashes, per-pass figures and
the machine it ran on, goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
RESULTS = os.path.join(BENCH, "results")

SETUP_PROBES = 4  # extra processes that only set up; setup_s is the median of 5
TIME_LIMIT = 170.0  # seconds for the whole run, inside the 180 s a run may take

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("codes.parse_code.calls", "count"),
    ("codes.parse_code.s", "s"),
    ("codes.coordinate_classes.calls", "count"),
    ("codes.coordinate_classes.s", "s"),
    ("codes.Codeword.count", "count"),
    ("factorset.build_factor_set.calls", "count"),
    ("factorset.build_factor_set.s", "s"),
    ("loops.build_loop.self_s", "s"),
    ("loops.is_moufang.s", "s"),
    ("loops.is_associative.s", "s"),
    ("loops.classify.self_s", "s"),
    ("search.scan.self_s", "s"),
    ("search.assemble_generators.calls", "count"),
    ("search.assemble_generators.s", "s"),
    ("search.degenerate", "count"),
    ("search.useful_ratio", "ratio"),
    ("search.minimal.visited", "count"),
    ("search.minimal.pruned", "count"),
    ("equivalence.code_isomorphism.calls", "count"),
    ("equivalence.code_isomorphism.s", "s"),
    ("equivalence.screened", "count"),
    ("equivalence.isomorphic", "count"),
    ("equivalence.rejected_by_search", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def spawn(args: list[str], deadline: float) -> dict:
    """Run a worker to completion and return the JSON it prints."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--t0", repr(t0)] + args,
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(setups: list[dict], worker: dict, clock: str) -> dict:
    """The end-to-end metrics from scaled ("scaled") or wall-clock ("wall") times."""
    passes = worker["passes"]
    total, calls = ("scaled_s", "scaled") if clock == "scaled" else ("op_s", "latencies")
    return {
        "setup_s": statistics.median(s[clock] for s in setups),
        "items_per_s": statistics.median(p["items"] / p[total] for p in passes),
        "item_p50_ms": 1000.0 * statistics.median(nearest_rank(p[calls], 0.5) for p in passes),
        "item_p90_ms": 1000.0 * statistics.median(nearest_rank(p[calls], 0.9) for p in passes),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(worker: dict) -> dict:
    layers = dict(worker["layers"])
    rates = {traced: statistics.median(p["items"] / p["scaled_s"] for p in worker["passes"]
                                       if p["traced"] == traced)
             for traced in (False, True)}
    layers["trace.overhead_ratio"] = rates[True] / rates[False]
    return {name: layers[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that still reach every layer (tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join(SRC, "codeloops", "__init__.py")):
        print(f"error: no codeloops package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS, build_plan

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workroot = os.path.join(BENCH, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = build_plan(args.workload, args.seed, args.scale, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        load_before = os.getloadavg()
        setups = []
        if not args.trace:
            setups = [spawn(["--probe"], deadline)["setup"] for _ in range(SETUP_PROBES)]
        spans = os.path.join(RESULTS, f"{label}-spans.jsonl.gz") if args.trace else None
        worker = spawn([plan_path, "--seconds", str(args.seconds),
                        "--trace", str(args.trace)] + (["--spans", spans] if spans else []),
                       deadline)
        load_after = os.getloadavg()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(worker["setup"])
    if args.trace:
        metrics = per_layer(worker)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setups, worker, "scaled")
        units = dict(END_TO_END)
    attempted, failed = worker["attempted"], worker["failed"]
    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": worker["failures"][:50],
        "setup_samples": setups,
        "passes": [{k: p[k] for k in ("traced", "items", "op_s", "scaled_s", "output_bytes")}
                   for p in worker["passes"]],
        "latency_samples": sum(len(p["latencies"]) for p in worker["passes"]),
        "streams": worker["streams"],
        "env": dict(environment(), loadavg_before=load_before, loadavg_after=load_after),
    }
    wall = {} if args.trace else end_to_end(setups, worker, "wall")
    if wall:
        result["wall_metrics"] = wall
    else:
        result["layers_all"] = worker["layers"]
        result["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(RESULTS, f"{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"passes: {len(worker['passes'])}  calls: {attempted}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}"
              + (f"  (wall clock {wall[name]:.6g})" if name in wall and units[name] != "MB" else ""))
    print(f"error_rate: {failed / attempted:.6g} ({failed}/{attempted})")
    for failure in worker["failures"][:10]:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": failed == 0 and not worker["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
