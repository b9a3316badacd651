#!/usr/bin/env python3
"""Throughput-regression gate over micro_throughput's BENCH_throughput.json.

Compares a freshly produced bench file against the baseline committed at the
repo root, matching rows on (strategy, threads):

  * every baseline row must still exist in the fresh file;
  * no matched row's requests_per_sec may drop by more than --tolerance
    (default 0.30, i.e. fail on a >30% drop);
  * with --min-speedup S, every sharded row in the *fresh* file must reach at
    least S x its strategy's serial row — a same-process, same-machine ratio,
    so it is meaningful across host generations. The check is skipped (with a
    notice) when the fresh host had fewer cores than the engine width,
    because a speedup is physically impossible there; pass --require-cores 0
    to force it anyway;
  * when BOTH files carry a `dynamic` block (event-engine rows produced by
    micro_throughput --dynamic), its rows are matched on
    (strategy, policy, topology): every baseline dynamic row must still
    exist, and no matched row's events_per_sec may drop by more than
    --tolerance. A file without the block — e.g. a baseline predating the
    event engine, or a fresh run that skipped --dynamic — skips the check
    with a notice rather than failing (the block is optional by design);
  * when BOTH files carry a `tiered` block (tier-hierarchy rows produced by
    micro_throughput --tiered), its rows are matched on
    (tier_strategy, scenario) the same way: every baseline tiered row must
    still exist and no matched row's requests_per_sec may drop by more than
    --tolerance. The fresh block must additionally keep the hierarchy
    deliverable: wherever a scenario has both a cross-two-choice row and a
    nearest or front-first row, cross-two-choice must not lose on back-end
    tail load or origin hits (the figures are seeded and deterministic, so
    this is a correctness lock, not machine noise). Absent blocks skip with
    a notice, like `dynamic`.

Absolute req/s figures move with the host, so CI should pin runner types or
widen --tolerance rather than chase machine noise. Only the Python standard
library is used.

Exit status: 0 clean, 1 regression found, 2 bad invocation or input.
"""

from __future__ import annotations

import argparse
import json
import sys

Key = tuple[str, int]


def row_key(row: dict) -> Key:
    return (row.get("strategy"), int(row.get("threads", 1)))


def key_label(key: Key) -> str:
    strategy, threads = key
    return f"{strategy} threads={threads}"


def load_rows(path: str) -> tuple[dict, dict[Key, dict]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"error: cannot read bench file {path!r}: {error}")
    rows = {}
    for index, row in enumerate(doc.get("results", [])):
        if row.get("strategy") is None:
            sys.exit(f"error: result row {index} in {path!r} has no "
                     f"'strategy' field")
        key = row_key(row)
        if key in rows:
            sys.exit(f"error: duplicate row {key} in {path!r}")
        rows[key] = row
    if not rows:
        sys.exit(f"error: no result rows in {path!r}")
    return doc, rows


def row_rps(row: dict, key: Key, path: str) -> float:
    value = row.get("requests_per_sec")
    if value is None:
        sys.exit(f"error: row {key_label(key)} in {path!r} has no "
                 f"'requests_per_sec' field")
    try:
        return float(value)
    except (TypeError, ValueError):
        sys.exit(f"error: row {key_label(key)} in {path!r} has non-numeric "
                 f"requests_per_sec {value!r}")


DynKey = tuple[str, str, str]


def dynamic_key_label(key: DynKey) -> str:
    strategy, policy, topology = key
    return f"dynamic {strategy} policy={policy} on {topology}"


def load_dynamic_rows(doc: dict, path: str) -> dict[DynKey, dict] | None:
    """The `dynamic` block's rows keyed (strategy, policy, topology), or
    None when the document has no such block — an optional block, absent in
    files predating the event engine or runs that skipped --dynamic."""
    block = doc.get("dynamic")
    if block is None:
        return None
    rows: dict[DynKey, dict] = {}
    for index, row in enumerate(block.get("rows", [])):
        key = (str(row.get("strategy")), str(row.get("policy")),
               str(row.get("topology")))
        if None in (row.get("strategy"), row.get("policy"),
                    row.get("topology")):
            sys.exit(f"error: dynamic row {index} in {path!r} lacks a "
                     f"strategy/policy/topology key")
        if key in rows:
            sys.exit(f"error: duplicate dynamic row {key} in {path!r}")
        rows[key] = row
    return rows


def check_dynamic(baseline_doc: dict, fresh_doc: dict, baseline_path: str,
                  fresh_path: str, tolerance: float,
                  failures: list[str]) -> None:
    baseline = load_dynamic_rows(baseline_doc, baseline_path)
    fresh = load_dynamic_rows(fresh_doc, fresh_path)
    if baseline is None:
        print("[skip] dynamic: baseline has no 'dynamic' block")
        return
    if fresh is None:
        print("[skip] dynamic: fresh file has no 'dynamic' block")
        return
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"fresh file has no ({dynamic_key_label(key)}) "
                            f"row, present in the baseline")
            continue
        try:
            base_eps = float(base_row.get("events_per_sec", 0.0))
            fresh_eps = float(fresh_row.get("events_per_sec", 0.0))
        except (TypeError, ValueError):
            sys.exit(f"error: row {dynamic_key_label(key)} has a non-numeric "
                     f"events_per_sec")
        if base_eps <= 0:
            print(f"[skip] {dynamic_key_label(key)}: baseline recorded "
                  f"{base_eps:,.0f} events/s, no drop ratio to check")
            continue
        drop = 1.0 - fresh_eps / base_eps
        marker = "FAIL" if drop > tolerance else "ok"
        print(f"[{marker}] {dynamic_key_label(key)}: "
              f"{base_eps:,.0f} -> {fresh_eps:,.0f} events/s "
              f"({-drop:+.1%} vs baseline, tolerance -{tolerance:.0%})")
        if drop > tolerance:
            failures.append(f"{dynamic_key_label(key)}: events/s dropped "
                            f"{drop:.1%} (> {tolerance:.0%})")


TierKey = tuple[str, str]


def tiered_key_label(key: TierKey) -> str:
    strategy, scenario = key
    return f"tiered {strategy} under {scenario}"


def load_tiered_rows(doc: dict, path: str) -> dict[TierKey, dict] | None:
    """The `tiered` block's rows keyed (tier_strategy, scenario), or None
    when the document has no such block — optional, absent in files
    predating the tier layer or runs that skipped --tiered."""
    block = doc.get("tiered")
    if block is None:
        return None
    rows: dict[TierKey, dict] = {}
    for index, row in enumerate(block.get("rows", [])):
        if None in (row.get("tier_strategy"), row.get("scenario")):
            sys.exit(f"error: tiered row {index} in {path!r} lacks a "
                     f"tier_strategy/scenario key")
        key = (str(row.get("tier_strategy")), str(row.get("scenario")))
        if key in rows:
            sys.exit(f"error: duplicate tiered row {key} in {path!r}")
        rows[key] = row
    return rows


def check_tiered(baseline_doc: dict, fresh_doc: dict, baseline_path: str,
                 fresh_path: str, tolerance: float,
                 failures: list[str]) -> None:
    baseline = load_tiered_rows(baseline_doc, baseline_path)
    fresh = load_tiered_rows(fresh_doc, fresh_path)
    if baseline is None:
        print("[skip] tiered: baseline has no 'tiered' block")
        return
    if fresh is None:
        print("[skip] tiered: fresh file has no 'tiered' block")
        return
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"fresh file has no ({tiered_key_label(key)}) "
                            f"row, present in the baseline")
            continue
        try:
            base_rps = float(base_row.get("requests_per_sec", 0.0))
            fresh_rps = float(fresh_row.get("requests_per_sec", 0.0))
        except (TypeError, ValueError):
            sys.exit(f"error: row {tiered_key_label(key)} has a non-numeric "
                     f"requests_per_sec")
        if base_rps <= 0:
            print(f"[skip] {tiered_key_label(key)}: baseline recorded "
                  f"{base_rps:,.0f} req/s, no drop ratio to check")
            continue
        drop = 1.0 - fresh_rps / base_rps
        marker = "FAIL" if drop > tolerance else "ok"
        print(f"[{marker}] {tiered_key_label(key)}: "
              f"{base_rps:,.0f} -> {fresh_rps:,.0f} req/s "
              f"({-drop:+.1%} vs baseline, tolerance -{tolerance:.0%})")
        if drop > tolerance:
            failures.append(f"{tiered_key_label(key)}: req/s dropped "
                            f"{drop:.1%} (> {tolerance:.0%})")
    # The hierarchy deliverable: cross-tier candidate sets must keep beating
    # the load-oblivious baselines on the back-end tail and the origin hit
    # count. Deterministic (seeded) figures, so equality is the boundary.
    scenarios = {scenario for (_, scenario) in fresh}
    for scenario in sorted(scenarios):
        cross = fresh.get(("cross-two-choice", scenario))
        if cross is None:
            continue
        for rival_name in ("nearest", "front-first"):
            rival = fresh.get((rival_name, scenario))
            if rival is None:
                continue
            for metric in ("back_tail", "origin_hits"):
                try:
                    cross_value = float(cross.get(metric, 0.0))
                    rival_value = float(rival.get(metric, 0.0))
                except (TypeError, ValueError):
                    sys.exit(f"error: tiered rows under {scenario!r} have a "
                             f"non-numeric {metric}")
                marker = "FAIL" if cross_value > rival_value else "ok"
                print(f"[{marker}] tiered {scenario}: cross-two-choice "
                      f"{metric} {cross_value:,.1f} vs {rival_name} "
                      f"{rival_value:,.1f}")
                if cross_value > rival_value:
                    failures.append(
                        f"tiered {scenario}: cross-two-choice {metric} "
                        f"{cross_value:,.1f} exceeds {rival_name}'s "
                        f"{rival_value:,.1f} — the hierarchy deliverable "
                        f"regressed")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail when micro_throughput regressed vs the committed baseline"
    )
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json")
    parser.add_argument("--fresh", required=True,
                        help="bench file produced by this build")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="max fractional req/s drop per matched row "
                             "(default: 0.30)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="min sharded-vs-serial speedup each strategy "
                             "must reach in the fresh file (default: off)")
    parser.add_argument("--require-cores", type=int, default=None,
                        help="skip the --min-speedup check unless the fresh "
                             "host reported at least this many cores "
                             "(default: the fresh file's engine width)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    baseline_doc, baseline = load_rows(args.baseline)
    fresh_doc, fresh = load_rows(args.fresh)
    failures = []

    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"fresh file has no ({key_label(key)}) row, "
                            f"present in the baseline")
            continue
        base_rps = row_rps(base_row, key, args.baseline)
        fresh_rps = row_rps(fresh_row, key, args.fresh)
        if base_rps <= 0:
            # A zero/negative baseline cannot anchor a fractional-drop
            # check; any fresh value trivially passes. Say so instead of
            # dividing by it.
            print(f"[skip] {key_label(key)}: baseline recorded "
                  f"{base_rps:,.0f} req/s, no drop ratio to check")
            continue
        drop = 1.0 - fresh_rps / base_rps
        marker = "FAIL" if drop > args.tolerance else "ok"
        print(f"[{marker}] {key_label(key)}: "
              f"{base_rps:,.0f} -> {fresh_rps:,.0f} req/s "
              f"({-drop:+.1%} vs baseline, tolerance -{args.tolerance:.0%})")
        if drop > args.tolerance:
            failures.append(f"{key_label(key)}: req/s dropped {drop:.1%} "
                            f"(> {args.tolerance:.0%})")

    if args.min_speedup is not None:
        width = int(fresh_doc.get("threads", 1))
        host_cores = int(fresh_doc.get("host_cores", 0))
        need_cores = args.require_cores if args.require_cores is not None else width
        if width < 2:
            print("[skip] --min-speedup: fresh file has no sharded rows "
                  "(threads < 2)")
        elif host_cores and host_cores < need_cores:
            print(f"[skip] --min-speedup: fresh host had {host_cores} core(s) "
                  f"for an engine width of {width}; a parallel speedup is "
                  f"not measurable here")
        else:
            for key, row in sorted(fresh.items()):
                if key[1] < 2:
                    continue
                speedup = float(row.get("speedup_vs_serial", 0.0))
                marker = "FAIL" if speedup < args.min_speedup else "ok"
                print(f"[{marker}] {key_label(key)}: "
                      f"speedup {speedup:.2f}x (floor {args.min_speedup:.2f}x)")
                if speedup < args.min_speedup:
                    failures.append(f"{key_label(key)}: sharded speedup "
                                    f"{speedup:.2f}x below floor "
                                    f"{args.min_speedup:.2f}x")

    check_dynamic(baseline_doc, fresh_doc, args.baseline, args.fresh,
                  args.tolerance, failures)
    check_tiered(baseline_doc, fresh_doc, args.baseline, args.fresh,
                 args.tolerance, failures)

    if failures:
        print(f"\n{len(failures)} bench regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench check clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
