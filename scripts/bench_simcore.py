#!/usr/bin/env python3
"""Measure the execution-core speedup and write BENCH_simcore.json.

Context-switch cost of the fiber backend against the
thread-per-processor baseline: the BM_SchedulerPingPong_* /
BM_SchedulerYield_* microbenchmarks from bench/micro_simthroughput
(each reports switches per second of wall time; ns/switch = 1e9 /
that).  The thread backend is no longer selectable on the command
line, so there is no end-to-end comparison.

Usage: scripts/bench_simcore.py [--build build]
Writes BENCH_simcore.json in the repository root.
"""

import argparse
import json
import os
import sys

import benchlib


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())

    micro = benchlib.run_micro(args.build, "PingPong|Yield", "switch")

    def ratio(base):
        f = micro[base + "_Fiber"]["ns_per_switch"]
        t = micro[base + "_Thread"]["ns_per_switch"]
        return t / f

    report = {
        "description": "Execution-core cost: fiber backend vs "
                       "thread-per-processor baseline",
        "context_switch": micro,
        "switch_speedup": {
            "block_unblock": ratio("BM_SchedulerPingPong"),
            "yield": ratio("BM_SchedulerYield"),
        },
    }
    benchlib.write_report("BENCH_simcore.json", report)
    print(json.dumps(report["switch_speedup"], indent=2))
    if min(report["switch_speedup"].values()) < 10:
        print("WARNING: switch speedup below 10x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
