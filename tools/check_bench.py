#!/usr/bin/env python3
"""Benchmark regression gate over the schema-1 bench JSON snapshots.

Compares a freshly measured bench JSON (written by a bench binary's --json
flag) against the committed baseline snapshot (BENCH_*.json at the repo
root) and fails when any scenario's events_per_sec dropped by more than the
threshold (default 20%), or when any run's kernel event count differs from
the snapshot's: the simulator is deterministic, so `events` is exact on
every host and any difference is a change in what the scenario simulates.

    check_bench.py BASELINE CURRENT... [--threshold 0.20]

Several CURRENT files may be given — repeated runs of the same bench — and
each scenario is gated on the best of them.  This extends minimum-time
benchmarking across process invocations: the simulator is deterministic, so
a run only ever loses throughput to host interference, and a real
regression is the one thing all repetitions agree on.

Exit status 1 on a regression, an event-count mismatch, or a scenario that
disappeared from the current run.  Set PARAIO_BENCH_SOFT=1 to downgrade
throughput failures to warnings (exit 0) — for machines whose throughput is
not comparable to the one the baseline was recorded on.  Event-count
mismatches fail regardless: they do not depend on the host.  Improvements and new scenarios never fail; the
expected workflow is to re-record the snapshot when they are intentional
(see docs/PERF.md).
"""

import argparse
import json
import os
import sys


def load_scenarios(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported bench schema {doc.get('schema')!r}")
    return {s["name"]: s for s in doc.get("scenarios", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed snapshot (BENCH_*.json)")
    parser.add_argument("current", nargs="+",
                        help="freshly measured bench JSON (several runs "
                             "allowed; each scenario gates on the best)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional events_per_sec drop (default 0.20)",
    )
    args = parser.parse_args()

    base = load_scenarios(args.baseline)
    cur = {}
    mismatches = []
    for path in args.current:
        for name, s in load_scenarios(path).items():
            if name in base and s["events"] != base[name]["events"]:
                mismatches.append(
                    f"{name}: {base[name]['events']} events in the snapshot, "
                    f"{s['events']} in {path}")
            best = cur.get(name)
            if best is None or s["events_per_sec"] > best["events_per_sec"]:
                cur[name] = s
    soft = os.environ.get("PARAIO_BENCH_SOFT") == "1"

    width = max((len(n) for n in base), default=8)
    failures = []
    print(f"{'scenario':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<{width}}  {b['events_per_sec']:>12.0f}  "
                  f"{'MISSING':>12}  -")
            continue
        ratio = c["events_per_sec"] / b["events_per_sec"]
        marker = ""
        if ratio < 1.0 - args.threshold:
            failures.append(
                f"{name}: {b['events_per_sec']:.0f} -> "
                f"{c['events_per_sec']:.0f} events/sec "
                f"({(1.0 - ratio) * 100:.1f}% drop, limit "
                f"{args.threshold * 100:.0f}%)")
            marker = "  REGRESSION"
        print(f"{name:<{width}}  {b['events_per_sec']:>12.0f}  "
              f"{c['events_per_sec']:>12.0f}  {(ratio - 1.0) * 100:+6.1f}%"
              f"{marker}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<{width}}  {'(new)':>12}  "
              f"{cur[name]['events_per_sec']:>12.0f}  -")

    for m in mismatches:
        print(f"error: {m}", file=sys.stderr)
    label = "warning" if soft else "error"
    for f in failures:
        print(f"{label}: {f}", file=sys.stderr)
    if failures and soft:
        print("PARAIO_BENCH_SOFT=1: regressions downgraded to warnings",
              file=sys.stderr)
    if mismatches or (failures and not soft):
        return 1
    print("bench check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
