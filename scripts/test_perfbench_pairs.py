#!/usr/bin/env python3
"""Script-level lock for perfbench_pairs.py.

Checks its statistics on canned result lines (quartiles, wins and the
gain-beyond-spread test in both metric directions), its reading of
run.py's output, and — through stub checkouts whose perfbench/run.py
prints canned lines — the alternating run order, the printed table and
the exit status on incorrect runs. Only the Python standard library is
used.
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

    def run_pairs(self, parent: Path, change: Path, count: int):
        env = dict(os.environ, PAIRS_ORDER_LOG=str(self.order_log))
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--parent", str(parent),
             "--change", str(change), "--workload", "paper-sweep",
             "--pairs", str(count), "--seconds", "1"],
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


if __name__ == "__main__":
    unittest.main()
