#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized per metric.

Runs `perfbench/run.py --trace 0` once in each of two checkouts per pair,
alternating which side runs first (the host is shared, and a lone run
moves by 10-20%), then prints for every end-to-end metric of the change's
BENCHMARK.json: the median and quartiles of each side, the ratio of the
medians, the pairs the change won (in the direction of the metric's
`better`), and whether the median gain exceeds the parent's interquartile
range:

  python3 scripts/perfbench_pairs.py --parent ../parent --change . \\
      --workload paper-sweep --pairs 10 --seconds 10

Each checkout builds its own benchmark into its own .bench_build/ on the
first run. Nothing under perfbench/ is changed.

With --record, and only when every run was correct, the change side is
written into that workload's entry of BENCH_throughput.json at the root of
the change checkout (other entries are kept): every end-to-end metric's
quartiles, the pair count, seed, seconds, and the commit and host from the
`host:` line run.py prints before its result.

Exit status: 0 when every run was correct, 1 when any run reported
`correct: false` or `failed > 0` (or printed no result), 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800
RECORD_FILE = "BENCH_throughput.json"
HOST_FIELDS = ("nproc", "cpu_model", "compiler", "build_type")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float],
              better: str) -> dict:
    """Pairwise comparison of one metric; `parent[i]` and `change[i]` are
    pair i. `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins, "pairs": len(parent),
            "beyond_iqr": sign * (c_med - p_med) > p_q3 - p_q1}


def result_line(stdout: str) -> dict | None:
    """The JSON result run.py prints as its last line, or None. The host
    record it prints before that (`host: {...}`) is kept under "host"."""
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
        if not isinstance(line, dict) or "metrics" not in line:
            return None
        hosts = [text for text in lines[:-1] if text.startswith("host: ")]
        if hosts:
            line["host"] = json.loads(hosts[-1][len("host: "):])
    except json.JSONDecodeError:
        return None
    return line


def run_problems(line: dict | None) -> list[str]:
    """Why a run does not count as correct; empty when it does."""
    if line is None:
        return ["printed no result line"]
    problems = []
    if line.get("correct") is not True:
        problems.append("correct: false")
    if line.get("failed", 0) > 0:
        problems.append(f"failed: {line['failed']}")
    return problems


def end_to_end_metrics(checkout: Path) -> list[dict]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["end_to_end"]


def run_once(checkout: Path, args: argparse.Namespace) -> dict | None:
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return result_line(proc.stdout)


def report(metrics: list[dict], parent_lines: list[dict],
           change_lines: list[dict]) -> list[str]:
    rows = [f"{'metric':<26} {'parent q1/med/q3':>32} "
            f"{'change q1/med/q3':>32} {'ratio':>6} {'wins':>6}  beyond IQR"]
    for metric in metrics:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent_lines, change_lines)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        s = summarize([p for p, _ in pairs], [c for _, c in pairs],
                      metric["better"])
        cells = ["/".join(f"{v:.4g}" for v in s[side])
                 for side in ("parent", "change")]
        rows.append(f"{name:<26} {cells[0]:>32} {cells[1]:>32} "
                    f"{s['ratio']:>6.3f} {s['wins']:>3}/{s['pairs']:<2}  "
                    f"{'yes' if s['beyond_iqr'] else 'no'} "
                    f"({metric['better']} is better)")
    return rows


def record(path: Path, workload: str, metrics: list[dict],
           change_lines: list[dict], args: argparse.Namespace) -> None:
    """Write the change side's quartiles into `workload`'s entry of the
    record at `path`, keeping every other entry."""
    host = change_lines[0]["host"]
    recorded = {}
    for metric in metrics:
        values = [line["metrics"][metric["name"]] for line in change_lines]
        q1, median, q3 = quartiles([v["value"] for v in values])
        recorded[metric["name"]] = {"unit": values[0]["unit"], "q1": q1,
                                    "median": median, "q3": q3}
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("workloads", {})[workload] = {
        "commit": host["git_commit"],
        "host": {field: host[field] for field in HOST_FIELDS},
        "seed": args.seed, "seconds": args.seconds,
        "pairs": len(change_lines), "metrics": recorded}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=24301)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--record", action="store_true",
                        help=f"write the change side into {RECORD_FILE}")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    sides = {"parent": args.parent, "change": args.change}
    complete: dict[str, list[dict]] = {"parent": [], "change": []}
    bad_runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        lines = {}
        for side in order:
            lines[side] = run_once(sides[side], args)
            problems = run_problems(lines[side])
            print(f"pair {pair + 1} {side}: "
                  + (", ".join(problems) if problems else "ok"), flush=True)
            if problems:
                bad_runs.append(f"pair {pair + 1} {side}")
        if None not in lines.values():
            for side, line in lines.items():
                complete[side].append(line)
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{len(complete['change'])} pairs")
    metrics = end_to_end_metrics(args.change)
    for row in report(metrics, complete["parent"], complete["change"]):
        print(row)
    if bad_runs:
        print("incorrect runs: " + ", ".join(bad_runs))
        return 1
    if args.record:
        path = args.change / RECORD_FILE
        record(path, args.workload, metrics, complete["change"], args)
        print(f"recorded {args.workload} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
