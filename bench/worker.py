"""One workload in a fresh process: set up, run timed passes, check outputs.

Started by ``run.py``; prints one JSON object on stdout.  The program's own
stdout and stderr are captured per call, so they never reach this process's
stdout.

    worker.py PLAN --t0 T --seconds S --trace 0|1 --spans FILE
    worker.py --probe --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes on the machine, so
set-up time counts interpreter start-up too.  ``--probe`` stops
once set-up is done.

Call times are measured twice, as wall-clock time and scaled to a
reference machine speed; see ``speed.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

from speed import Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def setup() -> None:
    """Import the package, parse the catalog, build the canonical catalogs.

    This is everything a command finds ready in a long-lived process: the
    catalog codes parsed and the ``canonical_loop`` cache filled.
    """
    sys.path.insert(0, SRC)
    import codeloops
    from codeloops import catalog, cli, loops  # noqa: F401

    if not os.path.abspath(codeloops.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"codeloops imported from {codeloops.__file__}, not {SRC}")
    for entry in catalog.catalog_entries():
        entry.code()
    loops.canonical_catalog(3)
    loops.canonical_catalog(4)
    for name in catalog.all_loop_ids():
        catalog.canonical_loop(name)


# layers each workload must reach; a traced run where one of them records
# no call has lost a hook, and fails
MUST_RUN = {
    "construct": (
        "codes.parse_code.calls", "codes.coordinate_classes.calls",
        "factorset.build_factor_set.calls", "loops.build_loop.calls",
        "loops.is_moufang.calls", "loops.is_associative.calls",
        "loops.classify.calls", "codes.Codeword.count", "cli.calls",
    ),
    "search": (
        "search.scan.calls", "search.assemble_generators.calls",
        "search.minimal.visited", "search.minimal.pruned",
        "codes.Codeword.count", "cli.calls",
    ),
    "conjecture": (
        "codes.coordinate_classes.calls", "search.scan.calls",
        "search.assemble_generators.calls", "equivalence.code_isomorphism.calls",
        "equivalence.distinguishing_invariant.calls", "equivalence.isomorphic",
        "equivalence.rejected_by_search", "codes.Codeword.count", "cli.calls",
    ),
}


def run_op(main, op: dict, tracer, op_id: int) -> dict:
    out_buf, err_buf = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open("cli")
        start = time.perf_counter()
        try:
            rc = main(list(op["argv"]))
        except Exception:  # a crash is a failed operation, not a benchmark crash
            rc = None
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
    result = {"start": start, "end": end, "rc": rc, "stdout": out_buf.getvalue(),
              "stderr": err_buf.getvalue(), "error": error, "out_bytes": b""}
    if op["out"] is not None and os.path.exists(op["out"]):
        with open(op["out"], "rb") as fh:
            result["out_bytes"] = fh.read()
    return result


def items_of(op: dict, result: dict) -> int:
    """Work items one call completed: codes, representations certified or written or scanned."""
    command = op["argv"][0]
    if command in ("construct", "minimal"):
        return 1
    text = result["stdout"] if command == "enumerate" else result["out_bytes"].decode()
    for line in text.splitlines():
        if line.startswith("representations: "):
            return int(line.split(": ")[1])
    return 0


def run_pass(main, plan: dict, tracer, first_id: int, keep: bool) -> tuple[dict, list]:
    intervals, items, out_bytes, results = [], 0, 0, []
    for i, op in enumerate(plan["ops"]):
        result = run_op(main, op, tracer, first_id + i)
        intervals.append((result["start"], result["end"]))
        if result["rc"] == 0:
            items += items_of(op, result)
        out_bytes += len(result["stdout"].encode()) + len(result["out_bytes"])
        result["stdout_sha256"] = hashlib.sha256(result["stdout"].encode()).hexdigest()
        result["out_sha256"] = (hashlib.sha256(result["out_bytes"]).hexdigest()
                                if op["out"] is not None else None)
        if not keep:
            result["stdout"] = result["out_bytes"] = None
        results.append(result)
    return {"traced": tracer is not None, "intervals": intervals, "items": items,
            "output_bytes": out_bytes}, results


def time_passes(passes: list[dict], meter: Speedometer) -> None:
    """Per call: wall-clock seconds and seconds at reference speed."""
    for p in passes:
        timed = [meter.scale(start, end) for start, end in p.pop("intervals")]
        p["latencies"] = [wall for wall, _ in timed]
        p["scaled"] = [scaled for _, scaled in timed]
        p["op_s"] = sum(p["latencies"])
        p["scaled_s"] = sum(p["scaled"])


def check_first_pass(plan: dict, results: list) -> dict[int, list[str]]:
    import checks

    rng = random.Random(plan["check_seed"])
    problems: dict[int, list[str]] = {}
    for i, (op, res) in enumerate(zip(plan["ops"], results)):
        if res["error"] is not None or res["rc"] != 0:
            problems[i] = [f"exit {res['rc']}: {res['error'] or res['stderr'].strip()}"]
            continue
        command = op["argv"][0]
        stdout, out_text = res["stdout"], res["out_bytes"].decode()
        if command == "construct":
            found = checks.check_construct(op, stdout)
        elif command == "minimal":
            found = checks.check_minimal(op, stdout)
        elif command == "enumerate":
            found = checks.check_enumerate(op, stdout, out_text, rng)
        else:
            found = checks.check_conjecture(op, stdout, out_text)
        if found:
            problems[i] = found
    if plan["workload"] == "construct":
        for i, problem in checks.check_factor_sets(plan["ops"], rng):
            problems.setdefault(i, []).append(problem)
    return problems


def main_worker(args, meter: Speedometer, setup_times: dict) -> dict:
    from codeloops.cli import main
    import checks
    import tracing

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    passes, first_results, tracers = [], None, []
    executions = []  # per pass: per call, ran cleanly with the first pass's output
    started = time.perf_counter()
    with meter:
        while True:
            tracer = tracing.Tracer() if args.trace and len(passes) % 2 == 1 else None
            if tracer is not None:
                tracers.append(tracer)
                tracer.install()
            try:
                stats, results = run_pass(main, plan, tracer, len(passes) * len(plan["ops"]),
                                          keep=first_results is None)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            first_results = first_results or results
            executions.append([
                res["rc"] == 0
                and (res["stdout_sha256"], res["out_sha256"])
                == (ref["stdout_sha256"], ref["out_sha256"])
                for res, ref in zip(results, first_results)
            ])
            passes.append(stats)
            if time.perf_counter() - started >= args.seconds and (not args.trace or tracers):
                break
    time_passes(passes, meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_first_pass(plan, first_results)
    attempted = len(passes) * len(plan["ops"])
    # a call whose first output fails a check fails in every pass, since
    # later passes must repeat that output byte for byte
    failed = sum(not ok or i in problems for run in executions for i, ok in enumerate(run))
    failures = [f"op {i} {' '.join(plan['ops'][i]['argv'][:3])}: {msg}"
                for i, msgs in sorted(problems.items()) for msg in msgs]
    failures += [f"op {i}: pass {p} failed or differs from pass 0"
                 for p, run in enumerate(executions) for i, ok in enumerate(run) if not ok]

    layers = {}
    if tracers:
        per_pass = [t.layer_metrics() for t in tracers]
        for key in per_pass[0]:
            layers[key] = statistics.median_low(m[key] for m in per_pass)
        traced_bytes = [p["output_bytes"] for p in passes if p["traced"]]
        layers["cli.output_bytes"] = statistics.median_low(traced_bytes)
        missing = [k for k in MUST_RUN[plan["workload"]] if not layers.get(k)]
        if missing:
            failures.append("hooks recorded nothing for " + ", ".join(missing))
        # the certificate counters must match what minimal printed
        for key in ("visited", "pruned"):
            printed = sum(
                int(checks.fields(res["stdout"].splitlines()).get(key, 0))
                for op, res in zip(plan["ops"], first_results) if op["argv"][0] == "minimal"
            )
            if layers[f"search.minimal.{key}"] != printed:
                failures.append(f"search.minimal.{key} is {layers[f'search.minimal.{key}']}, "
                                f"minimal printed {printed}")
        if args.spans:
            with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                fh.write(json.dumps(["pass", "name", "start", "end", "parent", "op"]) + "\n")
                for n, tracer in enumerate(tracers):
                    for span in tracer.spans:
                        fh.write(json.dumps([n] + span) + "\n")

    streams = [
        {"argv": op["argv"], "stdout_sha256": res["stdout_sha256"],
         "out_sha256": res["out_sha256"]}
        for op, res in zip(plan["ops"], first_results)
    ]
    return {"setup": setup_times, "passes": passes, "peak_rss_mb": peak_rss_mb,
            "attempted": attempted, "failed": failed, "failures": failures,
            "streams": streams, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan", nargs="?")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    meter = Speedometer()
    with meter:
        setup()
        ready = time.perf_counter()
        setup_s = time.monotonic() - args.t0
    for _ in range(3):  # samples just after set-up, for every process alike
        meter.tick()
    wall, scaled = meter.scale(ready - setup_s, ready)
    setup_times = {"wall": wall, "scaled": scaled}
    result = ({"setup": setup_times} if args.probe
              else main_worker(args, meter, setup_times))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
