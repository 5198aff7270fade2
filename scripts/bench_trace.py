#!/usr/bin/env python3
"""Measure the record-once trace store: per-app trace size
(bits per reference) and replay-from-disk speed versus live execution,
and write BENCH_trace.json.

For every program the driver times a live characterization
(splash2run), then a recording run (execution + trace write), then
replay-from-disk runs whose output is byte-compared against the live
run.  Trace sizes come from the store files themselves (the 128-byte
header pins the record count at offset 80).

A second section pins the record-once methodology: a multi-
configuration characterization (the protocol/placement ablation, 7
machine configurations over one reference stream) run three ways --
execute-per-configuration (the serial oracle), record once, then
replay-from-disk feeding every configuration from the stored trace.
The acceptance targets: every replayed output is byte-identical to
live execution, and replay wall clock beats execution wall clock per
configuration (the decode runs once while the application would have
re-executed N times).  Trace size is reported, not targeted: the
store trades bits per reference for encode and decode speed.

Usage: scripts/bench_trace.py [--build build] [--procs 8]
                              [--scale 1.0] [--apps fft,ocean,...]
                              [--multi-apps fft,ocean,barnes]
                              [--reps 2]
Writes BENCH_trace.json in the repository root.
"""

import argparse
import json
import os
import struct
import sys
import tempfile

import benchlib

APPS = ["fft", "lu", "radix", "ocean", "water-nsq", "water-sp",
        "barnes", "fmm", "cholesky", "raytrace", "volrend",
        "radiosity"]


def trace_stats(store):
    """Sum (bytes, records, syncs) over every trace in a store dir."""
    total_bytes = total_records = total_syncs = 0
    for name in sorted(os.listdir(store)):
        if not name.endswith(".s2t"):
            continue
        path = os.path.join(store, name)
        with open(path, "rb") as f:
            hdr = f.read(128)
        if len(hdr) < 128 or hdr[0:8] != b"S2TRACE1":
            raise RuntimeError(f"{path}: not a trace file")
        records, syncs = struct.unpack_from("<QQ", hdr, 80)
        total_bytes += os.path.getsize(path)
        total_records += records
        total_syncs += syncs
    return total_bytes, total_records, total_syncs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build")
    ap.add_argument("--procs", type=int, default=8)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--apps", default="",
                    help="comma-separated subset (default: all 12)")
    ap.add_argument("--multi-apps", default="fft,ocean,barnes",
                    help="apps for the multi-configuration section "
                         "(empty disables it)")
    ap.add_argument("--reps", type=int, default=2,
                    help="best-of-N for execute and replay timings")
    args = ap.parse_args()

    os.chdir(benchlib.repo_root())
    exe = os.path.join(args.build, "src", "splash2run")
    apps = [a for a in args.apps.split(",") if a] or APPS

    per_app = {}
    mismatches = []
    sum_bytes = sum_records = 0
    exec_total = replay_total = 0.0
    for app in apps:
        base = [exe, "--app", app, "--procs", str(args.procs),
                "--scale", str(args.scale)]
        with tempfile.TemporaryDirectory() as td:
            store = os.path.join(td, "store")
            live_out = os.path.join(td, "live.txt")
            replay_out = os.path.join(td, "replay.txt")
            execute_s = benchlib.time_cmd(base, args.reps,
                                          capture_to=live_out)
            record_s = benchlib.time_cmd(base + ["--record", store], 1)
            replay_s = benchlib.time_cmd(base + ["--replay", store],
                                         args.reps,
                                         capture_to=replay_out)
            with open(live_out, "rb") as f:
                live_bytes = f.read()
            with open(replay_out, "rb") as f:
                replay_bytes = f.read()
            tbytes, records, syncs = trace_stats(store)
        identical = live_bytes == replay_bytes
        if not identical:
            mismatches.append(app)
        bits_per_ref = 8.0 * tbytes / records if records else 0.0
        per_app[app] = {
            "execute_seconds": execute_s,
            "record_seconds": record_s,
            "replay_seconds": replay_s,
            "replay_speedup": execute_s / replay_s if replay_s else 0.0,
            "trace_bytes": tbytes,
            "records": records,
            "syncs": syncs,
            "bits_per_reference": bits_per_ref,
            "output_identical": identical,
        }
        sum_bytes += tbytes
        sum_records += records
        exec_total += execute_s
        replay_total += replay_s
        print(f"{app}: {execute_s:.2f}s live -> {replay_s:.2f}s replay "
              f"({execute_s / replay_s if replay_s else 0:.1f}x), "
              f"{bits_per_ref:.2f} bits/ref "
              f"({'ok' if identical else 'OUTPUT MISMATCH'})")

    # Multi-configuration characterization: the protocol/placement
    # ablation evaluates 7 machine configurations (small cache with
    # and without hints, 1 MB placed/interleaved, the three non-base
    # protocols) over the SAME reference stream.  Three ways to get
    # there: execute once per configuration (--replicas off, the
    # serial oracle), execute once and broadcast live, or record once
    # and feed every configuration from the stored trace.  Record-once
    # wins when replay wall clock per configuration undercuts
    # execution wall clock per configuration.
    n_configs = 7
    abl = os.path.join(args.build, "bench", "ablation_protocol")
    multi_apps = [a for a in args.multi_apps.split(",") if a]
    per_multi = {}
    for app in multi_apps:
        base = [abl, "--app", app, "--jobs", "1"]
        with tempfile.TemporaryDirectory() as td:
            store = os.path.join(td, "store")
            serial_out = os.path.join(td, "serial.txt")
            replay_out = os.path.join(td, "replay.txt")
            serial_s = benchlib.time_cmd(base + ["--replicas", "off"],
                                         args.reps,
                                         capture_to=serial_out)
            record_s = benchlib.time_cmd(base + ["--record", store], 1)
            replay_s = benchlib.time_cmd(base + ["--replay", store],
                                         args.reps,
                                         capture_to=replay_out)
            with open(serial_out, "rb") as f:
                serial_bytes = f.read()
            with open(replay_out, "rb") as f:
                replay_bytes = f.read()
            tbytes, records, _ = trace_stats(store)
        identical = serial_bytes == replay_bytes
        if not identical:
            mismatches.append(app + " (multi-config)")
        per_multi[app] = {
            "n_configs": n_configs,
            "execute_seconds": serial_s,
            "execute_per_config_seconds": serial_s / n_configs,
            "record_seconds": record_s,
            "replay_seconds": replay_s,
            "replay_per_config_seconds": replay_s / n_configs,
            "replay_speedup": serial_s / replay_s if replay_s else 0.0,
            "replay_beats_execution": replay_s < serial_s,
            "trace_bytes": tbytes,
            "records": records,
            "output_identical": identical,
        }
        print(f"{app} x{n_configs} configs: {serial_s:.2f}s serial -> "
              f"{replay_s:.2f}s replay-from-disk "
              f"({serial_s / replay_s if replay_s else 0:.2f}x, "
              f"{'ok' if identical else 'OUTPUT MISMATCH'})")

    report = {
        "description": "Record-once trace store: live characterization "
                       "vs replay-from-disk (splash2run, outputs "
                       "byte-compared) and on-disk trace compactness",
        "host_cpus": os.cpu_count(),
        "procs": args.procs,
        "scale": args.scale,
        "reps": args.reps,
        "apps": per_app,
        "execute_total_seconds": exec_total,
        "replay_total_seconds": replay_total,
        "replay_speedup": (exec_total / replay_total
                           if replay_total else 0.0),
        "trace_total_bytes": sum_bytes,
        "trace_total_records": sum_records,
        "bits_per_reference": (8.0 * sum_bytes / sum_records
                               if sum_records else 0.0),
        "multi_config": {
            "description": "Protocol/placement ablation "
                           "(ablation_protocol --jobs 1): execute-per-"
                           "configuration vs record-once/replay-from-"
                           "disk, outputs byte-compared",
            "apps": per_multi,
        },
    }
    benchlib.write_report("BENCH_trace.json", report)
    print(json.dumps({k: report[k] for k in
                      ("execute_total_seconds", "replay_total_seconds",
                       "replay_speedup", "bits_per_reference")},
                     indent=2))
    if mismatches:
        print("OUTPUT MISMATCH in: " + ", ".join(mismatches),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
