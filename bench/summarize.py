"""Summarize result files from ``bench/run.py``: median and spread per metric.

    python3 bench/summarize.py bench/results/*-trace0.json
    python3 bench/summarize.py --json OUT bench/results/*.json

For each workload, trace mode and metric it prints the median over the
given runs, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  ``--json`` also writes the summary, with the output hashes of
every run, for use as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys


def streams_row(stream: dict) -> list:
    """[command line, stdout sha256, --out sha256], with input and output
    files named without their per-run directory."""
    argv = [os.path.basename(a) if os.sep in a else a for a in stream["argv"]]
    return [" ".join(argv), stream["stdout_sha256"], stream["out_sha256"]]


def summarize(paths: list[str]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        groups.setdefault((result["workload"], result["trace"]), []).append(result)
    summary = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            metrics[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        summary[f"{workload}/trace{trace}"] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "streams": {str(r["seed"]): [streams_row(st) for st in r["streams"]]
                        for r in runs},
            "env": runs[0]["env"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="+")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, "
              f"failed {group['failed']}/{group['attempted']}")
        for name, m in group["metrics"].items():
            print(f"  {name:38s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
