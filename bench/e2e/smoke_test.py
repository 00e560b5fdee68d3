#!/usr/bin/env python3
"""Smoke test of bench_e2e at toy sizes (--quick), all four workloads.

    python3 bench/e2e/smoke_test.py BENCH_E2E BENCHMARK.json WORK_DIR

For each workload, an untraced and a traced invocation must exit 0, verify
every answer (correct, failed = 0), print every end-to-end (resp.
per-layer) metric of BENCHMARK.json by name with its unit and nothing else,
and the traced one must write a loadable Chrome trace. No timing is gated.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("psa", "leaflet", "repex", "service")


def run(binary, workload, work, extra):
    done = subprocess.run(
        [binary, "--quick", "--workload", workload, "--work", str(work)]
        + extra, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {done.returncode}\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{label}: failed operations: {result}")
    if result["attempted"] < 1:
        raise AssertionError(f"{label}: nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError(f"{label}: missing {missing}, unexpected "
                             f"{extra}, unit mismatch {units}")


def main(argv):
    binary, benchmark_path, work = argv[1], Path(argv[2]), Path(argv[3])
    benchmark = json.loads(benchmark_path.read_text())
    traces = work / "traces"
    for workload in WORKLOADS:
        check(run(binary, workload, work, []), benchmark["end_to_end"],
              f"{workload} untraced")
        check(run(binary, workload, work, ["--trace", str(traces)]),
              benchmark["per_layer"], f"{workload} traced")
        trace = json.loads((traces / f"{workload}.trace.json").read_text())
        if not any(e.get("ph") == "X" for e in trace["traceEvents"]):
            raise AssertionError(f"{workload}: trace has no spans")
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
