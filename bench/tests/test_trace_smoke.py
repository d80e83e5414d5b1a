"""Smoke test of the benchmark at a tiny size.

A traced run of each workload must report every per-layer metric named in
BENCHMARK.json, with a nonzero count wherever the workload runs the layer.
A refactor that renames or rebinds a hooked function must fail here
rather than report zero.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# per-layer metrics each workload must move off zero
NONZERO = {
    "construct": (
        "codes.parse_code.calls", "codes.parse_code.s",
        "codes.coordinate_classes.calls", "codes.Codeword.count",
        "factorset.build_factor_set.calls", "factorset.build_factor_set.s",
        "loops.build_loop.self_s", "loops.is_moufang.s", "loops.is_associative.s",
        "loops.classify.self_s", "cli.self_s", "cli.output_bytes",
    ),
    "search": (
        "codes.Codeword.count", "search.scan.self_s",
        "search.assemble_generators.calls", "search.assemble_generators.s",
        "search.useful_ratio", "search.minimal.visited", "search.minimal.pruned",
        "cli.self_s", "cli.output_bytes",
    ),
    "conjecture": (
        "codes.coordinate_classes.calls", "codes.coordinate_classes.s",
        "codes.Codeword.count", "search.scan.self_s", "search.assemble_generators.calls",
        "equivalence.code_isomorphism.calls", "equivalence.code_isomorphism.s",
        "equivalence.isomorphic", "equivalence.rejected_by_search",
        "cli.self_s", "cli.output_bytes",
    ),
}

# layers a workload skips stay at zero
ZERO = {
    "construct": ("search.assemble_generators.calls", "equivalence.code_isomorphism.calls"),
    "search": ("factorset.build_factor_set.calls", "equivalence.code_isomorphism.calls"),
    "conjecture": ("factorset.build_factor_set.calls", "codes.parse_code.calls"),
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_traced_run_reports_every_layer(workload):
    result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec()["per_layer"]]
    for m in spec()["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert [n for n in NONZERO[workload] if not metrics[n]["value"] > 0] == []
    assert [n for n in ZERO[workload] if metrics[n]["value"] != 0] == []
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = run("construct", 0)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)
