#!/usr/bin/env python3
"""Script-level lock for perfbench_pairs.py.

Checks its statistics on canned result lines (quartiles, wins and the
gain-beyond-spread test in both metric directions), its reading of
run.py's output, and — through stub checkouts whose perfbench/run.py
prints canned lines — the alternating run order, the printed table, the
exit status on incorrect runs and the --record mode. A last case checks
that the repository's own BENCH_throughput.json records every workload and
end-to-end metric of its BENCHMARK.json. Only the Python standard library
is used.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "perfbench_pairs.py"
REPO = SCRIPT.parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def line(req_per_s: float, rss: float = 100.0, correct: bool = True,
         failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 8, "failed": failed,
            "metrics": {"req_per_s": {"value": req_per_s, "unit": "req/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_interpolate_linearly(self) -> None:
        self.assertEqual(pairs.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(pairs.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(pairs.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_higher_is_better(self) -> None:
        parent = [100, 110, 90, 105, 95]
        change = [150, 160, 100, 155, 80]
        s = pairs.summarize(parent, change, "higher")
        self.assertEqual(s["wins"], 4)  # pair 5 lost
        self.assertEqual(s["pairs"], 5)
        self.assertEqual(s["parent"], (95, 100, 105))
        self.assertEqual(s["change"][1], 150)
        self.assertAlmostEqual(s["ratio"], 1.5)
        self.assertTrue(s["beyond_iqr"])  # +50 against a spread of 10

    def test_lower_is_better(self) -> None:
        parent = [200, 210, 190, 205, 195]
        change = [180, 185, 175, 200, 220]
        s = pairs.summarize(parent, change, "lower")
        self.assertEqual(s["wins"], 4)  # pair 5 lost
        self.assertAlmostEqual(s["ratio"], 185 / 200)
        self.assertTrue(s["beyond_iqr"])  # -15 against a spread of 10

    def test_gain_within_spread_is_not_beyond_iqr(self) -> None:
        parent = [100, 140, 60, 120, 80]  # quartiles 80/100/120
        change = [130, 150, 90, 125, 110]  # median 125: +25 < 40
        s = pairs.summarize(parent, change, "higher")
        self.assertEqual(s["wins"], 5)
        self.assertFalse(s["beyond_iqr"])

    def test_ties_are_not_wins(self) -> None:
        s = pairs.summarize([10, 10], [10, 10], "higher")
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["beyond_iqr"])


class ResultLineTest(unittest.TestCase):
    def test_last_line_is_the_result(self) -> None:
        stdout = ("workload paper-sweep\nreq_per_s 1 req/s\n"
                  + json.dumps(line(5.0)) + "\n")
        self.assertEqual(pairs.result_line(stdout), line(5.0))

    def test_host_line_is_kept(self) -> None:
        host = {"nproc": 4, "git_commit": "abc"}
        stdout = ("host: " + json.dumps(host) + "\n"
                  + json.dumps(line(5.0)) + "\n")
        self.assertEqual(pairs.result_line(stdout),
                         dict(line(5.0), host=host))

    def test_missing_or_malformed_result(self) -> None:
        self.assertIsNone(pairs.result_line(""))
        self.assertIsNone(pairs.result_line("build failed\n"))
        self.assertIsNone(pairs.result_line('{"no": "metrics"}\n'))

    def test_run_problems(self) -> None:
        self.assertEqual(pairs.run_problems(line(1.0)), [])
        self.assertEqual(pairs.run_problems(line(1.0, correct=False)),
                         ["correct: false"])
        self.assertEqual(pairs.run_problems(line(1.0, failed=2)),
                         ["failed: 2"])
        self.assertEqual(pairs.run_problems(None), ["printed no result line"])


STUB_RUN_PY = textwrap.dedent("""\
    import json, os, sys
    from pathlib import Path
    here = Path(__file__).resolve().parent.parent
    counter = here / "calls"
    call = int(counter.read_text()) if counter.exists() else 0
    counter.write_text(str(call + 1))
    with open(os.environ["PAIRS_ORDER_LOG"], "a") as log:
        log.write(here.name + "\\n")
    lines = json.loads((here / "lines.json").read_text())
    print("unit medians: ...")
    print("host: " + json.dumps({
        "nproc": 4, "cpu_model": "Stub CPU", "compiler": "GNU 12.2.0",
        "build_type": "Release", "release_build": True,
        "git_commit": here.name + "-commit"}))
    print(json.dumps(lines[call]))
    """)

BENCHMARK = {"end_to_end": [
    {"name": "req_per_s", "unit": "req/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]}


class RunnerTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = Path(self._tmp.name)
        self.order_log = self.root / "order.log"

    def checkout(self, name: str, lines: list[dict]) -> Path:
        path = self.root / name
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text(STUB_RUN_PY)
        (path / "lines.json").write_text(json.dumps(lines))
        (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        return path

    def run_pairs(self, parent: Path, change: Path, count: int,
                  *extra: str, workload: str = "paper-sweep"):
        env = dict(os.environ, PAIRS_ORDER_LOG=str(self.order_log))
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--parent", str(parent),
             "--change", str(change), "--workload", workload,
             "--pairs", str(count), "--seconds", "1", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, timeout=120)

    def test_alternates_and_summarizes(self) -> None:
        parent = self.checkout("parent", [line(v, 200) for v in
                                          (100, 102, 98, 101)])
        change = self.checkout("change", [line(v, 180) for v in
                                          (150, 149, 151, 99)])
        proc = self.run_pairs(parent, change, 4)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(self.order_log.read_text().split(),
                         ["parent", "change", "change", "parent",
                          "parent", "change", "change", "parent"])
        rows = {row.split()[0]: row for row in proc.stdout.splitlines()
                if row.startswith(("req_per_s", "peak_rss_mb"))}
        self.assertIn("3/4", rows["req_per_s"])
        self.assertIn("(higher is better)", rows["req_per_s"])
        self.assertIn("4/4", rows["peak_rss_mb"])
        self.assertIn("(lower is better)", rows["peak_rss_mb"])

    def test_incorrect_run_fails(self) -> None:
        parent = self.checkout("parent", [line(100), line(100)])
        change = self.checkout("change", [line(150),
                                          line(150, correct=False)])
        proc = self.run_pairs(parent, change, 2)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("pair 2 change: correct: false", proc.stdout)
        self.assertIn("incorrect runs: pair 2 change", proc.stdout)

    def test_failed_runs_fail(self) -> None:
        parent = self.checkout("parent", [line(100, failed=1)])
        change = self.checkout("change", [line(150)])
        proc = self.run_pairs(parent, change, 1)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("pair 1 parent: failed: 1", proc.stdout)

    def test_missing_checkout_is_a_usage_error(self) -> None:
        change = self.checkout("change", [line(150)])
        proc = self.run_pairs(self.root / "absent", change, 1)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_record_holds_the_change_side(self) -> None:
        parent = self.checkout("parent", [line(v, 400) for v in
                                          (10, 20, 30, 40, 50)])
        change = self.checkout("change", [line(v, 180 + v) for v in
                                          (150, 110, 130, 140, 120)])
        proc = self.run_pairs(parent, change, 5, "--record")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        text = (change / "BENCH_throughput.json").read_text()
        self.assertEqual(json.loads(text), {"workloads": {"paper-sweep": {
            "commit": "change-commit",
            "host": {"nproc": 4, "cpu_model": "Stub CPU",
                     "compiler": "GNU 12.2.0", "build_type": "Release"},
            "seed": 24301, "seconds": 1.0, "pairs": 5,
            "metrics": {
                "req_per_s": {"unit": "req/s", "q1": 120, "median": 130,
                              "q3": 140},
                "peak_rss_mb": {"unit": "MiB", "q1": 300, "median": 310,
                                "q3": 320}}}}})
        self.assertNotIn("parent", text)
        self.assertFalse((parent / "BENCH_throughput.json").exists())

    def test_second_workload_keeps_the_first(self) -> None:
        parent = self.checkout("parent", [line(100)] * 4)
        change = self.checkout("change", [line(v) for v in
                                          (150, 160, 170, 180)])
        self.assertEqual(self.run_pairs(parent, change, 2,
                                        "--record").returncode, 0)
        path = change / "BENCH_throughput.json"
        first = json.loads(path.read_text())["workloads"]["paper-sweep"]
        proc = self.run_pairs(parent, change, 2, "--record",
                              workload="dynamic")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        workloads = json.loads(path.read_text())["workloads"]
        self.assertEqual(sorted(workloads), ["dynamic", "paper-sweep"])
        self.assertEqual(workloads["paper-sweep"], first)
        self.assertEqual(workloads["dynamic"]["metrics"]["req_per_s"]
                         ["median"], 175)

    def test_incorrect_run_leaves_the_record_untouched(self) -> None:
        parent = self.checkout("parent", [line(100), line(100)])
        change = self.checkout("change", [line(150),
                                          line(150, correct=False)])
        path = change / "BENCH_throughput.json"
        path.write_text('{"workloads": {"paper-sweep": {"pairs": 9}}}')
        before = path.read_bytes()
        proc = self.run_pairs(parent, change, 2, "--record")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertEqual(path.read_bytes(), before)

    def test_no_record_without_the_flag(self) -> None:
        parent = self.checkout("parent", [line(100)])
        change = self.checkout("change", [line(150)])
        proc = self.run_pairs(parent, change, 1)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertFalse((change / "BENCH_throughput.json").exists())


class CommittedRecordTest(unittest.TestCase):
    """The committed BENCH_throughput.json holds a --record entry for every
    workload of the committed BENCHMARK.json."""

    def test_record_covers_the_benchmark(self) -> None:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        workloads = json.loads(
            (REPO / "BENCH_throughput.json").read_text())["workloads"]
        for workload in spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                entry = workloads[workload["name"]]
                self.assertEqual(entry["host"]["build_type"], "Release")
                self.assertFalse(entry["commit"].startswith("unknown"))
                self.assertEqual(entry["seed"], 24301)
                self.assertEqual(entry["seconds"], spec["run_seconds"])
                self.assertGreaterEqual(entry["pairs"], 5)
                for metric in spec["end_to_end"]:
                    recorded = entry["metrics"][metric["name"]]
                    self.assertEqual(recorded["unit"], metric["unit"])
                    self.assertLessEqual(recorded["q1"], recorded["median"])
                    self.assertLessEqual(recorded["median"], recorded["q3"])


if __name__ == "__main__":
    unittest.main()
