#!/usr/bin/env python3
"""Measure the memory-path speedup and write BENCH_memsys.json.

Two measurements:

 1. Reference cost: the BM_MemSysHit / BM_MemSysMiss / BM_SweepAccess /
    BM_SweepBatched / BM_Delivery_* / BM_Broadcast microbenchmarks from
    bench/micro_simthroughput (each reports references per second;
    ns/ref = 1e9 / that).  BM_MemSysHitProto/<name> and
    BM_MemSysMissProto/<name> repeat the hit/miss measurements under
    every registered coherence protocol, so the table-driven dispatch
    can be compared across the zoo (BM_MemSysHit/Miss themselves are
    the MESI instances).
 2. End-to-end working-set sweep: wall clock of the Figure 3 sweep
    (FFT, 32 processors, 34 configurations + Mattson stacks) with the
    serial sweep (--replicas off) versus the capture/replay pool
    --replicas on sizes from the host's cores, best of N.  This is
    the headline number: the sweep dominates Figure 3 / Table 2
    turnaround.

Usage: scripts/bench_memsys.py [--build build] [--reps 3] [--n 16]
Writes BENCH_memsys.json in the repository root.
"""

import argparse
import json
import os
import sys

import benchlib


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--n", type=int, default=16,
                    help="FFT log2(points) for the end-to-end runs")
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())

    micro = benchlib.run_micro(
        args.build, "MemSys|Sweep|Delivery|Broadcast", "ref")

    fig3_exe = os.path.join(args.build, "bench", "fig3_working_sets")
    fig3_args = [fig3_exe, "--app", "fft", "--procs", "32",
                 "--n", str(args.n), "--csv"]
    sweep_serial = benchlib.time_cmd(
        fig3_args + ["--replicas", "off"], args.reps)
    sweep_parallel = benchlib.time_cmd(
        fig3_args + ["--replicas", "on"], args.reps)

    report = {
        "description": "Memory-path cost: silent-hit fast path (per "
                       "protocol), batched reference delivery, "
                       "parallel working-set sweep",
        "host_cpus": os.cpu_count(),
        "reference_cost": micro,
        "end_to_end_fig3_sweep": {
            "workload": " ".join(fig3_args[1:]),
            "reps": args.reps,
            "replicas_off_seconds": sweep_serial,
            "replicas_on_seconds": sweep_parallel,
            "speedup": sweep_serial / sweep_parallel,
        },
    }
    benchlib.write_report("BENCH_memsys.json", report)
    print(json.dumps(report["end_to_end_fig3_sweep"], indent=2))
    if report["end_to_end_fig3_sweep"]["speedup"] < 2 \
            and (os.cpu_count() or 1) >= 4:
        print("WARNING: fig3 sweep speedup below 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
