#!/usr/bin/env python3
"""Time the full figure/table suite through the characterization
engine: serial oracle (--jobs 1 --replicas off, one dedicated
execution per configuration) versus the parallel runner + broadcast
replay (--jobs N --replicas on), verifying byte-identical output,
and write BENCH_suite.json.

This is the tentpole acceptance measurement: on a multi-core host the
parallel suite should be >= 3x faster; on any host the broadcast still
removes the (N-1) redundant executions behind Figures 6/7 and the
protocol ablation.  On a single-core host the >= 3x criterion is
meaningless (running the same work through a thread pool can only be
slower), so the speedup fields are nulled and annotated instead of
reporting a misleading ~1x "speedup" -- the byte-identity checks
still run in full.

Each target is additionally run through the record-once trace store
(--record into a per-target store, then --replay from it, output
byte-compared against the serial oracle), reporting the replay time
and the store's compactness in bits per recorded reference.

Usage: scripts/bench_suite.py [--build build] [--jobs 0] [--full]
                              [--targets fig7,...] [--reps 1]
Writes BENCH_suite.json in the repository root.
"""

import argparse
import json
import os
import sys
import tempfile

import benchlib
from bench_trace import trace_stats

# (target, extra args): every figure/table bench in the suite.
TARGETS = [
    ("fig1_speedups", []),
    ("fig2_synchronization", []),
    ("fig3_working_sets", []),
    ("fig4_traffic", []),
    ("fig5_ocean_scaling", []),
    ("fig6_small_cache", []),
    ("fig7_miss_classification", []),
    ("table1_characterization", []),
    ("table2_working_sets", []),
    ("table3_comm_comp", []),
    ("ablation_protocol", []),
    ("interconnect_traffic", []),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--jobs", type=int, default=0,
                    help="parallel-runner job count (0 = host cores)")
    ap.add_argument("--full", action="store_true",
                    help="paper-scale runs (default: --quick)")
    ap.add_argument("--targets", default="",
                    help="comma-separated subset of bench targets")
    ap.add_argument("--reps", type=int, default=1)
    args = ap.parse_args()
    cpus = benchlib.host_cpus()
    if args.jobs < 1:
        args.jobs = cpus
    # With one usable core the parallel runner cannot outrun the
    # serial oracle; speedups would only mislead.
    single_core = cpus <= 1

    os.chdir(benchlib.repo_root())
    only = set(t for t in args.targets.split(",") if t)
    scale_args = [] if args.full else ["--quick"]

    suite = {}
    serial_total = 0.0
    parallel_total = 0.0
    mismatches = []
    for target, extra in TARGETS:
        if only and target not in only:
            continue
        exe = os.path.join(args.build, "bench", target)
        base = [exe] + extra + scale_args
        with tempfile.TemporaryDirectory() as td:
            s_out = os.path.join(td, "serial.txt")
            p_out = os.path.join(td, "parallel.txt")
            r_out = os.path.join(td, "replay.txt")
            store = os.path.join(td, "store")
            serial_s = benchlib.time_cmd(
                base + ["--jobs", "1", "--replicas", "off"],
                args.reps, capture_to=s_out)
            parallel_s = benchlib.time_cmd(
                base + ["--jobs", str(args.jobs), "--replicas", "on"],
                args.reps, capture_to=p_out)
            record_s = benchlib.time_cmd(
                base + ["--jobs", str(args.jobs), "--record", store], 1)
            replay_s = benchlib.time_cmd(
                base + ["--jobs", str(args.jobs), "--replay", store],
                args.reps, capture_to=r_out)
            model_s = None
            if target == "fig3_working_sets":
                # Analytical fast path: the first model pass replays
                # the trace once and saves the profile sidecar next to
                # it; the timed passes load the sidecar and evaluate
                # the grid with neither execution nor replay.
                model_cmd = base + ["--jobs", str(args.jobs),
                                    "--sweep", "model", "--replay",
                                    store]
                benchlib.time_cmd(model_cmd, 1)
                model_s = benchlib.time_cmd(model_cmd, args.reps)
            trace_bytes, trace_records, _ = trace_stats(store)
            with open(s_out, "rb") as f:
                serial_bytes = f.read()
            with open(p_out, "rb") as f:
                parallel_bytes = f.read()
            with open(r_out, "rb") as f:
                replay_bytes = f.read()
        identical = serial_bytes == parallel_bytes
        replay_identical = serial_bytes == replay_bytes
        if not identical or not replay_identical:
            mismatches.append(target)
        suite[target] = {
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": (None if single_core
                        else serial_s / parallel_s if parallel_s
                        else 0.0),
            "output_identical": identical,
            "record_seconds": record_s,
            "replay_seconds": replay_s,
            "replay_speedup": (serial_s / replay_s if replay_s
                               else 0.0),
            "trace_bytes": trace_bytes,
            "trace_bits_per_reference": (8.0 * trace_bytes /
                                         trace_records
                                         if trace_records else 0.0),
            "replay_identical": replay_identical,
        }
        if model_s is not None:
            suite[target]["model_seconds"] = model_s
            suite[target]["model_speedup"] = (serial_s / model_s
                                              if model_s else 0.0)
        serial_total += serial_s
        parallel_total += parallel_s
        print(f"{target}: {serial_s:.2f}s -> {parallel_s:.2f}s "
              f"parallel, {replay_s:.2f}s replay "
              f"({'ok' if identical and replay_identical else 'OUTPUT MISMATCH'})")

    report = {
        "description": "Full figure/table suite through the parallel "
                       "experiment runner + broadcast replay vs the "
                       "serial oracle (--jobs 1 --replicas off), plus "
                       "record-once trace store record/replay timings "
                       "and trace compactness; outputs byte-compared",
        "host_cpus": cpus,
        "jobs": args.jobs,
        "scale": "full" if args.full else "quick",
        "reps": args.reps,
        "targets": suite,
        "serial_total_seconds": serial_total,
        "parallel_total_seconds": parallel_total,
        "suite_speedup": (None if single_core
                          else serial_total / parallel_total
                          if parallel_total else 0.0),
        "parallel_criterion": {
            "threshold_speedup": 3.0,
            "evaluated": not single_core,
            "note": ("single-core host: parallel speedup not "
                     "evaluated (the >= 3x criterion needs multiple "
                     "cores; byte-identity checks still ran)"
                     if single_core else None),
        },
    }
    benchlib.write_report("BENCH_suite.json", report)
    print(json.dumps({k: report[k] for k in
                      ("serial_total_seconds", "parallel_total_seconds",
                       "suite_speedup", "parallel_criterion")},
                     indent=2))
    if mismatches:
        print("OUTPUT MISMATCH in: " + ", ".join(mismatches),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
