#!/usr/bin/env python3
"""Runs the paraio benchmark.

Builds perfbench/ (a standalone CMake project over ../src) in Release into
.bench_build/perfbench, runs one workload, and prints every metric by name
and unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload escat512-pfs --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (untraced jobs); --trace 1 runs the
traced mode and reports the per-layer metrics, writing the host-time spans
as Chrome JSON to .bench_build/perfbench/trace-<workload>-<seed>.json.
See perfbench/README.md for the metric catalogue.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "paraio_perfbench")
WORKLOADS = ("escat512-pfs", "htf128-pfs-obs", "escat512-ppfs-ckpt-faults")
# Cold starts per --trace 0 run; setup_s is their median.
SETUP_SAMPLES = 3
# A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150
END_TO_END = ("job_s", "job_s_tail", "ops_per_s", "peak_rss_mb", "setup_s")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the paraio sources (src/) are not next to perfbench/")
    cmds = [["cmake", "--build", BUILD, "--target", "paraio_perfbench",
             "-j", "4"]]
    # Configure once; the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_child(args, mode, extra=()):
    """Runs the binary; returns (seconds from spawn to READY, last line)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, *extra]
    start = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        ready = child.stdout.readline()
        setup_s = time.monotonic() - start
        rest = child.stdout.read()
        code = child.wait()
    finally:
        watchdog.cancel()
        child.kill()
        child.wait()
    if code != 0 or not ready.startswith("READY"):
        fail("%s run of %s exited with code %d" % (mode, args.workload, code))
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        fail("%s run of %s printed no result" % (mode, args.workload))
    return setup_s, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    if args.trace:
        trace_out = os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
        _, result = run_child(args, "trace", ("--trace-out", trace_out))
        metrics = result["metrics"]
        print("traced run: %d jobs; host-time spans in %s"
              % (result["jobs"], os.path.relpath(trace_out, ROOT)))
    else:
        setups = [run_child(args, "setup")[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_child(args, "measure")
        setups.append(setup_s)
        metrics = {name: result["metrics"][name] for name in END_TO_END
                   if name != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("%d jobs; job_s_tail is p%.4g; setup_s is the median of %d "
              "cold starts" % (result["jobs"], result["tail_percentile"],
                               len(setups)))
        frac = result["metrics"]["failed_op_frac"]
        print("  %-28s %.6g %s" % ("failed_op_frac", frac["value"],
                                   frac["unit"]))

    for name, m in metrics.items():
        print("  %-28s %.6g %s" % (name, m["value"], m["unit"]))
    for error in result["errors"]:
        print("CHECK FAILED: " + error)
    print(json.dumps({"correct": not result["errors"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
