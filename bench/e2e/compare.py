#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, metric by metric.

    python3 bench/e2e/compare.py --base parent/*.out --change change/*.out

Each file is the captured stdout of one `bench/e2e/run.py` (or bench_e2e)
invocation: its provenance line names the workload, its last line is the
result. For every (workload, metric) the script prints each side's median
and quartiles over the runs that verified every answer, and a verdict:

  ok          no worse than the bound BENCHMARK.json fixes for the metric
  worse       worse than the bound (a regression)
  unresolved  the base's own spread is wider than the bound, and the runs
              do not separate (every change run better than every base run
              counts as ok, every change run worse and past the bound as
              worse)
  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the base's quartile distance; never when the
              change failed more operations than the base
  info        a per-layer metric (or one BENCHMARK.json does not list): no
              bound, reported only
  missing     only one side reports the metric

Below the table it prints, per workload and side, the runs and operations
that failed. Spread is the distance between the first and third quartile
as a share of the median, as statistics.quantiles(values, n=4) gives them.

Exit code: 0 when nothing is worse, missing or failed; 1 when a metric is
worse or missing, or a run on either side failed an operation; 2 when an
input cannot be read.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def parse_output(text):
    """The provenance and result of one captured stdout, as a dict."""
    workload = None
    result = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "provenance" in record:
            workload = record["provenance"]["workload"]
        elif "metrics" in record:
            result = record
    if workload is None or result is None:
        raise ValueError("no provenance line or result line found")
    return {
        "workload": workload,
        "ok": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound):
    """Verdict for one metric; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (change_med - base_med) / abs(base_med) if base_med else 0.0
    all_better = all(sign * c < sign * b for c in change for b in base)
    all_worse = all(sign * c > sign * b for c in change for b in base)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    q1, _, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and \
            sign * (base_med - change_med) > q3 - q1:
        return "better"
    if bound is None:
        return "info"
    if spread(base) > bound:
        if all_better:
            return "ok"
        if all_worse and worse_by > bound:
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


class Side:
    """One side's runs of one workload."""

    def __init__(self):
        self.runs = 0
        self.failed_runs = 0
        self.attempted = 0
        self.failed = 0
        self.metrics = {}  # name -> values over the runs that verified

    def add(self, run):
        self.runs += 1
        self.attempted += run["attempted"]
        self.failed += run["failed"]
        if not run["ok"]:
            self.failed_runs += 1
            return
        for name, value in run["metrics"].items():
            self.metrics.setdefault(name, []).append(value)


def load_side(paths):
    """{workload: Side} over one side's files."""
    side = {}
    for path in paths:
        run = parse_output(Path(path).read_text())
        side.setdefault(run["workload"], Side()).add(run)
    return side


def specs(benchmark):
    table = {}
    for m in benchmark["end_to_end"]:
        table[m["name"]] = (m["better"], m["bound"])
    for m in benchmark["per_layer"]:
        table[m["name"]] = (m["better"], None)
    return table


def compare(base, change, benchmark):
    """Rows of (workload, metric, base quartiles, change quartiles, verdict);
    a side without the metric has None for its quartiles."""
    table = specs(benchmark)
    rows = []
    for workload in sorted(set(base) | set(change)):
        b_side = base.get(workload, Side())
        c_side = change.get(workload, Side())
        more_failures = c_side.failed > b_side.failed
        for name in sorted(set(b_side.metrics) | set(c_side.metrics)):
            b = b_side.metrics.get(name)
            c = c_side.metrics.get(name)
            if not b or not c:
                rows.append((workload, name, b and quartiles(b),
                             c and quartiles(c), "missing"))
                continue
            better, bound = table.get(name, ("lower", None))
            v = verdict(b, c, better, bound)
            if v == "better" and more_failures:
                v = "ok"
            rows.append((workload, name, quartiles(b), quartiles(c), v))
    return rows


def failures(base, change):
    """One line per workload and side with a failed run."""
    lines = []
    for label, side in (("base", base), ("change", change)):
        for workload in sorted(side):
            s = side[workload]
            if s.failed_runs or s.failed:
                lines.append(f"{label} {workload}: {s.failed_runs} of {s.runs} "
                             f"runs failed, {s.failed} of {s.attempted} "
                             f"operations")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args(argv)
    try:
        benchmark = json.loads(Path(args.benchmark).read_text())
        base = load_side(args.base)
        change = load_side(args.change)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"compare.py: cannot read the inputs: {err}", file=sys.stderr)
        return 2
    rows = compare(base, change, benchmark)

    def fmt(q):
        return "/".join(f"{x:.4g}" for x in q) if q else "-"

    print(f"{'workload':9} {'metric':40} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for workload, name, b, c, v in rows:
        print(f"{workload:9} {name:40} {fmt(b):>32} {fmt(c):>32}  {v}")
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload, Side()), change.get(workload, Side())
        print(f"{workload:9} failed operations: base {b.failed} of "
              f"{b.attempted}, change {c.failed} of {c.attempted}")

    status = 0
    for line in failures(base, change):
        print(f"FAILED {line}", file=sys.stderr)
        status = 1
    for kind in ("worse", "missing"):
        count = sum(1 for r in rows if r[4] == kind)
        if count:
            print(f"{count} metric(s) {kind}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
