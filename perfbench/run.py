#!/usr/bin/env python3
"""Benchmark runner for proxcache.

Builds the benchmark program (perfbench.cpp, linked against the library
built from this checkout's sources) into .bench_build/, runs one workload
and prints the result as the last line of standard output:

  python3 perfbench/run.py --workload torus-stream --seed 24301 \
      --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run (its spans go to
.bench_build/traces/). Other modes:

  python3 perfbench/run.py --self-test            # the benchmark's own tests
  python3 perfbench/run.py --record-fingerprints  # rewrite fingerprints.json

See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
# Results at this seed are compared with fingerprints.json.
DEFAULT_SEED = 24301
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure and build perfbench; build output goes to a log file and
    compiler temporaries stay inside the build tree."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_ROOT / "perfbench-build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                "-j", str(jobs())]
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=env,
                                  timeout=BUILD_TIMEOUT_S).returncode == 0
        ok = step(configure)
        if not ok and BUILD_DIR.exists():
            # A build tree configured elsewhere (a moved checkout): start over.
            shutil.rmtree(BUILD_DIR)
            ok = step(configure)
        if not ok or not step(compile_):
            raise BenchError(f"build failed; see {log_path}")


def run_program(args, timeout=RUN_TIMEOUT_S):
    """Run perfbench; echo its human-readable lines, return its report."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        raise BenchError(f"perfbench exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, scale="full"):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", scale]
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return run_program(args)


def benchmark_spec():
    return json.loads(BENCHMARK_JSON.read_text())


def declaration_problems(metrics, trace):
    """Every printed metric declared with its unit, every declared printed."""
    declared = {m["name"]: m["unit"]
                for m in benchmark_spec()["per_layer" if trace
                                          else "end_to_end"]}
    problems = []
    for name, metric in metrics.items():
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif declared[name] != metric["unit"]:
            problems.append(f"metric {name} has unit {metric['unit']}, "
                            f"declared {declared[name]}")
    problems += [f"declared metric {name} was not printed"
                 for name in declared if name not in metrics]
    return problems


def fingerprint_failures(recorded, fingerprints):
    """Run ids (`<unit>#0`, the warm-up run) whose result differs from the
    recorded fingerprint, or that have none recorded."""
    return [f"{key}#0" for key in sorted(set(recorded) | set(fingerprints))
            if recorded.get(key) != fingerprints.get(key)]


def recorded_fingerprints(workload):
    return json.loads(FINGERPRINTS.read_text())["workloads"].get(workload, {})


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_record(report):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "compiler": report["compiler"], "build_type": report["build_type"],
            "release_build": report["build_type"] == "Release",
            "git_commit": git_commit()}


def result(workload, seed, seconds, trace):
    report = run_workload(workload, seed, seconds, trace)
    failed = set(report["failed_runs"])
    if seed == DEFAULT_SEED:
        mismatches = fingerprint_failures(recorded_fingerprints(workload),
                                          report["fingerprints"])
        for run_id in mismatches:
            print(f"FAILED {run_id}: result differs from fingerprints.json")
        failed |= set(mismatches)
    problems = declaration_problems(report["metrics"], trace)
    for problem in problems:
        print(f"FAILED {problem}")
    host = host_record(report)
    print("host: " + json.dumps(host))
    if not host["release_build"]:
        print("WARNING: not a Release build; these timings are not comparable")
    return {"correct": not failed and not problems,
            "attempted": report["attempted"], "failed": len(failed),
            "metrics": report["metrics"]}


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def self_test():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    # Traced loops reproduce SimulationContext::run; failure counting.
    expect(subprocess.run([str(BINARY), "--self-test"],
                          timeout=RUN_TIMEOUT_S).returncode == 0,
           "perfbench --self-test")
    first = None
    for workload in workload_names():
        for trace in (0, 1):
            report = run_workload(workload, DEFAULT_SEED, 0.2, trace, "small")
            problems = declaration_problems(report["metrics"], trace)
            for problem in problems:
                print("      " + problem)
            expect(not problems, f"{workload} --trace {trace}: every printed "
                   "metric is declared and every declared metric printed")
            expect(report["attempted"] > 0 and not report["failed_runs"],
                   f"{workload} --trace {trace}: no failed run")
            if first is None:
                first = report["fingerprints"]
    # A result that differs from its recorded fingerprint is a failed run.
    perturbed = dict(first)
    key = sorted(perturbed)[0]
    perturbed[key] += "0"
    expect(fingerprint_failures(first, first) == [],
           "matching fingerprints fail no run")
    expect(fingerprint_failures(perturbed, first) == [f"{key}#0"],
           "a perturbed fingerprint is reported as a failed run")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def record_fingerprints():
    recorded = {}
    for workload in workload_names():
        report = run_workload(workload, DEFAULT_SEED, 1, 0)
        if report["failed_runs"]:
            raise BenchError(f"{workload}: failed runs {report['failed_runs']}")
        recorded[workload] = report["fingerprints"]
    FINGERPRINTS.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": recorded},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if args.record_fingerprints:
            return record_fingerprints()
        if args.workload not in workload_names():
            parser.error(f"--workload must be one of {workload_names()}")
        line = result(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(line), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
