"""Unit tests for compare.py (run: python3 -m unittest discover -s bench/e2e)."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "run_cpu_s.mpi", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "op_cpu_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "engines.overhead_s.mpi", "unit": "s", "better": "lower"},
    ],
}


def output(workload, metrics, failed=0):
    provenance = {"provenance": {"workload": workload, "seed": 1}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    return f"{json.dumps(provenance)}\nsome table\n{json.dumps(result)}\n"


class ParseTest(unittest.TestCase):
    def test_reads_workload_and_last_result(self):
        run = compare.parse_output(output("psa", {"run_cpu_s.mpi": 0.2}))
        self.assertEqual(run["workload"], "psa")
        self.assertTrue(run["ok"])
        self.assertEqual(run["metrics"], {"run_cpu_s.mpi": 0.2})

    def test_keeps_failed_runs_marked(self):
        run = compare.parse_output(output("psa", {"run_cpu_s.mpi": 0.2}, 1))
        self.assertFalse(run["ok"])
        self.assertEqual(run["failed"], 1)

    def test_rejects_output_without_result(self):
        with self.assertRaises(ValueError):
            compare.parse_output('{"provenance": {"workload": "psa"}}\n')


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        change = [1.05, 1.04, 1.06, 1.05, 1.03]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), "ok")

    def test_past_bound_is_worse(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        change = [1.20, 1.21, 1.19, 1.22, 1.18]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), "worse")

    def test_direction_higher(self):
        base = [100.0, 101.0, 99.0, 100.0]
        change = [80.0, 81.0, 79.0, 80.0]
        self.assertEqual(compare.verdict(base, change, "higher", 0.1),
                         "worse")

    def test_noisy_base_is_unresolved(self):
        base = [0.6, 1.4, 0.8, 1.2, 1.0]
        change = [1.1, 0.7, 1.5, 0.9, 1.3]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1),
                         "unresolved")

    def test_noisy_base_separated_runs_are_ok(self):
        base = [1.6, 1.4, 1.8, 1.2, 1.5]
        change = [0.6, 0.5, 0.7, 0.55, 0.65]
        self.assertIn(compare.verdict(base, change, "lower", 0.1),
                      ("ok", "better"))

    def test_clear_gain_is_better(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02, 1.01, 0.99, 1.00, 1.01, 1.00]
        change = [0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 0.80, 0.81]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1),
                         "better")

    def test_per_layer_is_info(self):
        self.assertEqual(compare.verdict([1.0, 1.1], [2.0, 2.1], "lower",
                                         None), "info")


class MainTest(unittest.TestCase):
    def write(self, directory, name, text):
        path = Path(directory) / name
        path.write_text(text)
        return str(path)

    def run_main(self, base_runs, change_runs):
        """(exit code, stdout, stderr) over (metrics, failed) pairs."""
        with tempfile.TemporaryDirectory() as d:
            bench = self.write(d, "BENCHMARK.json", json.dumps(BENCHMARK))
            base = [self.write(d, f"b{i}", output("psa", m, f))
                    for i, (m, f) in enumerate(base_runs)]
            change = [self.write(d, f"c{i}", output("psa", m, f))
                      for i, (m, f) in enumerate(change_runs)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = compare.main(["--base", *base, "--change", *change,
                                     "--benchmark", bench])
            return code, out.getvalue(), err.getvalue()

    @staticmethod
    def runs(value, n=5, failed=(), extra=True):
        runs = []
        for i in range(n):
            metrics = {"run_cpu_s.mpi": value + i * 1e-3}
            if extra:
                metrics["engines.overhead_s.mpi"] = 0.01
            runs.append((metrics, 1 if i in failed else 0))
        return runs

    def test_exit_code_flags_regression(self):
        code, out, _ = self.run_main(self.runs(1.0), self.runs(1.5))
        self.assertEqual(code, 1)
        self.assertRegex(out, r"run_cpu_s\.mpi .* worse")

    def test_exit_code_clean(self):
        code, out, err = self.run_main(self.runs(1.0), self.runs(1.0))
        self.assertEqual(code, 0, err)
        self.assertIn("failed operations: base 0 of 50, change 0 of 50", out)

    def test_failed_run_is_reported_not_raised(self):
        code, out, err = self.run_main(self.runs(1.0),
                                       self.runs(1.0, failed=(2,)))
        self.assertEqual(code, 1)
        self.assertIn("change psa: 1 of 5 runs failed, 1 of 50 operations",
                      err)
        self.assertIn("failed operations: base 0 of 50, change 1 of 50", out)
        # The remaining runs are still compared.
        self.assertRegex(out, r"run_cpu_s\.mpi .* ok")

    def test_metric_missing_on_one_side_is_an_error(self):
        code, out, err = self.run_main(self.runs(1.0),
                                       self.runs(1.0, extra=False))
        self.assertEqual(code, 1)
        self.assertRegex(out, r"engines\.overhead_s\.mpi .* missing")
        self.assertIn("1 metric(s) missing", err)

    def test_more_failures_void_a_gain(self):
        base = self.runs(1.0, n=10)
        change = self.runs(0.5, n=10)
        change.append(({"run_cpu_s.mpi": 0.5}, 1))
        _, out, _ = self.run_main(base, change)
        self.assertRegex(out, r"run_cpu_s\.mpi .* ok")
        _, out, _ = self.run_main(base, change[:-1])
        self.assertRegex(out, r"run_cpu_s\.mpi .* better")

    def test_unreadable_input_exits_2(self):
        with tempfile.TemporaryDirectory() as d:
            bad = self.write(d, "bad.out", "no json here\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = compare.main(["--base", bad, "--change", bad])
        self.assertEqual(code, 2)
        self.assertIn("cannot read the inputs", err.getvalue())


if __name__ == "__main__":
    unittest.main()
