#!/usr/bin/env python3
"""Serial end-to-end benchmark of splash2run over the whole suite.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload characterize|working_set|replay
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload W --write-golden

Builds splash2run and the layer probe from the checkout's sources into
.bench_build/ (perfbench/CMakeLists.txt), then times whole-suite passes:
one splash2run process runs all 12 programs at 32 processors, pinned to
the serial path (--jobs 1 --replicas off --sweep-threads 1; no other
wall-clock-only knob), with the workload seed forwarded as --seed.

Workloads (why each exists: BENCHMARK.json and perfbench/WORKLOADS.json):
  characterize  live execution into the paper's machine, scale 1.0
  working_set   live execution into the Figure-3 exact sweep plus the
                reuse-distance model (--sweep both), scale 0.25
  replay        set-up records the trace store (--record); each pass
                replays it into the paper's machine (--replay)

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
pass plus perfbench/layerprobe, which times each layer on the identical
captured stream, and prints the per-layer metrics.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}.

A program run is ok when its pass exits 0 and ran on one host thread
(CPU time <= wall time), it prints "valid: yes" (the sweep report has no
such line; its exit status carries the programs' validation), and every
statistic it prints equals the reference: the golden in perfbench/golden/
at the default seed (simulated statistics only, no model predictions),
the run's own first pass at any seed, and for replay also the recording
pass.  At the default seed the working_set model errors must not exceed
the golden's.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"

GOLDEN_SEED = 1234
PROCS = 32
SERIAL = ["--jobs", "1", "--replicas", "off", "--sweep-threads", "1"]
SCALE = {"characterize": 1.0, "working_set": 0.25, "replay": 1.0}
SETUP_REPS = {"characterize": 15, "working_set": 15, "replay": 3}
MIN_PASSES = 2
# A run is killed --seconds plus this long after its build: room for
# set-up (replay records its store three times), the pass that overruns
# the measuring window, and the traced run's layer probe, so a run ends
# within its time limit even when the host is slow.
SLACK_S = 135.0

# Layers whose self times make up an untraced pass of each workload
# (harness.unattributed_frac is the rest of the pass).  rt.deliver is
# the drain into one generic sink: splash2run attaches MemSystem and
# CacheSweep directly, the reuse-distance profiler (and, when
# recording, the trace writer) as generic sinks.
PASS_LAYERS = {
    "characterize": ["rt.exec", "memsys"],
    "working_set": ["rt.exec", "rt.deliver", "sweep", "reusedist"],
    "replay": ["tracestore.decode", "replay", "memsys"],
}
PER_APP_LAYERS = {"memsys": "memsys.ns_per_ref",
                  "sweep": "sweep.ns_per_ref",
                  "tracestore.decode": "tracestore.decode_ns_per_ref"}

NUM = re.compile(r"\d+(?:\.\d+)?")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Processes


class Proc:
    """One finished child: exit code, wall/CPU seconds, peak RSS, output."""

    def __init__(self, rc, wall, cpu, rss_mb, out):
        self.rc, self.wall, self.cpu, self.rss_mb, self.out = (
            rc, wall, cpu, rss_mb, out)


def spawn(cmd, deadline, out_path):
    """Run @cmd to completion (killed at @deadline, perf_counter time)
    and return its Proc; rusage comes from wait4 on the child alone."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before " + cmd[0])
    with open(out_path, "wb") as out, \
            open(f"{out_path}.err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(remaining, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode < 0:
        raise BenchError(f"{cmd[0]} killed (signal {-p.returncode})")
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, Path(out_path).read_text())


def build():
    """Configure once, then bring .bench_build up to date (no-op when
    nothing changed).  Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/CMakeLists.txt: run from a checkout root")
    # Compiler and program temporaries stay inside the checkout.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "splash2run", "layerprobe"],
                   stdout=sys.stderr, check=True)


def rel(path):
    """@path as children see it: relative to the checkout root, their
    working directory, so no command line names a host path."""
    return os.path.relpath(path, ROOT)


def splash2run(workload, seed, extra=()):
    return ([rel(BUILD / "splash2" / "splash2run"), "--app", "all",
             "--procs", str(PROCS), "--scale", f"{SCALE[workload]:g}",
             "--seed", str(seed)] + SERIAL +
            (["--sweep", "both"] if workload == "working_set" else []) +
            list(extra))


# ----------------------------------------------------------------------
# Output parsing and the correctness check


def parse_output(text):
    """{program: {"valid": bool|None, "stats": [[label, [numbers]], ...]}}.

    Every line after a program's title line carries its label and the
    numbers it prints; sweep table rows are labelled "|<cache size>".
    The sweep report prints no "valid:" line (valid is None): there the
    exit status alone carries the programs' own validation."""
    progs = {}
    for block in text.split("\n================\n"):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        if not lines or " on " not in lines[0]:
            continue
        name = lines[0].split(" on ")[0]
        stats, valid = [], None
        for ln in lines[1:]:
            if ln.startswith("valid:"):
                valid = ln.strip() == "valid: yes"
            if "|" in ln:
                cells = [c.strip() for c in ln.split("|")]
                if not NUM.fullmatch(cells[1]):
                    continue  # table header
                label, rest = "|" + cells[0], " ".join(cells[1:])
            elif ":" in ln:
                label, rest = ln.split(":", 1)
            else:
                continue  # section rules
            stats.append([label.strip(),
                          [float(x) for x in NUM.findall(rest)]])
        progs[name] = {"valid": valid, "stats": stats}
    return progs


def is_err_row(label, nums):
    """A --sweep both table row: four miss rates, then max|err|."""
    return label.startswith("|") and len(nums) == 5


def simulated_only(prog):
    """Statistics the golden pins: everything but model predictions
    (the profile line and the max|err| column of a --sweep both table)."""
    out = []
    for label, nums in prog["stats"]:
        if label == "profile":
            continue
        out.append([label, nums[:4] if is_err_row(label, nums) else nums])
    return out


def model_errors(progs):
    """(max, mean) of the max|err| column over every sweep row."""
    errs = [nums[4] for p in progs.values() for label, nums in p["stats"]
            if is_err_row(label, nums)]
    return (max(errs), sum(errs) / len(errs)) if errs else (None, None)


def load_golden(workload, seed):
    if seed != GOLDEN_SEED:
        return None
    return json.loads((GOLDEN / f"{workload}.json").read_text())


def check_pass(workload, proc, progs, refs, golden, apps):
    """Names of the programs whose run in this pass fails the check."""
    pass_ok = proc.rc == 0 and proc.cpu <= proc.wall
    if golden is not None and "model_err_max" in golden:
        mx, mean = model_errors(progs)
        if mx is None or mx > golden["model_err_max"] or \
                mean > golden["model_err_mean"]:
            log(f"model error above golden: max {mx} mean {mean}")
            pass_ok = False
    failed = set()
    for app in apps:
        p = progs.get(app)
        ok = (pass_ok and p is not None and
              p["valid"] is (None if workload == "working_set" else True) and
              all(p["stats"] == r.get(app, {}).get("stats") for r in refs))
        if ok and golden is not None:
            ok = simulated_only(p) == golden["programs"].get(app)
        if not ok:
            failed.add(app)
            log(f"check failed: {app} (exit {proc.rc}, cpu "
                f"{proc.cpu:.2f}s, wall {proc.wall:.2f}s)")
    return failed


def pass_refs(progs):
    """Simulated shared references of a pass: memory-system references
    of a characterization, profiled line references of a sweep."""
    total = 0.0
    for p in progs.values():
        for label, nums in p["stats"]:
            if label in ("references", "profile"):
                total += nums[0] * 1e6
    return total


# ----------------------------------------------------------------------
# Set-up


def prepare(workload):
    """The benchmark's own preparation: a clean work directory and a
    check that the built program lists the suite."""
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    proc = spawn([rel(BUILD / "splash2" / "splash2run"), "--list"],
                 time.perf_counter() + 60, wdir / "list.txt")
    apps = [ln.split()[0] for ln in proc.out.splitlines() if ln.strip()]
    if proc.rc != 0 or len(apps) != 12:
        raise BenchError("splash2run --list did not list the suite")
    return wdir, apps


def setup(workload, seed, reps, deadline):
    """Run the set-up @reps times (for replay: record the trace store);
    return (median seconds, work dir, program names, recording passes)."""
    times, records = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        wdir, apps = prepare(workload)
        if workload == "replay":
            records.append(spawn(
                splash2run(workload, seed, ["--record", rel(wdir / "store")]),
                deadline, wdir / "record.txt"))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), wdir, apps, records


def pass_command(workload, seed, wdir):
    extra = ["--replay", rel(wdir / "store")] if workload == "replay" else []
    return splash2run(workload, seed, extra)


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics


def timed_run(workload, seed, seconds, deadline):
    golden = load_golden(workload, seed)
    setup_s, wdir, apps, records = setup(
        workload, seed, SETUP_REPS[workload], deadline)
    cmd = pass_command(workload, seed, wdir)

    refs, attempted, failed = [], 0, 0
    for rec in records:
        progs = parse_output(rec.out)
        if not refs:
            refs.append(progs)
        attempted += len(apps)
        failed += len(check_pass(workload, rec, progs, refs, golden, apps))

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        proc = spawn(cmd, deadline, wdir / f"pass{len(passes)}.txt")
        progs = parse_output(proc.out)
        if not refs:
            refs.append(progs)
        attempted += len(apps)
        failed += len(check_pass(workload, proc, progs, refs, golden,
                                 apps))
        passes.append((proc, pass_refs(progs)))
        log(f"{workload} pass {len(passes)}: wall {proc.wall:.3f}s cpu "
            f"{proc.cpu:.3f}s rss {proc.rss_mb:.0f}MB")

    med = statistics.median
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(p.wall for p, _ in passes), "s"),
        "refs_per_s": (med(n / p.wall for p, n in passes), "1/s"),
        "peak_rss_mb": (med(p.rss_mb for p, _ in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


# ----------------------------------------------------------------------
# Traced run: per-layer metrics


def self_times(spans):
    """{(app, name): self seconds}: duration minus child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        key = (s["app"], s["name"])
        out[key] = out.get(key, 0.0) + s["end"] - s["start"] - child[i]
    return out


def probe_checks(workload, probe, progs):
    """Program names whose probe layers disagree with each other or with
    the untraced pass's printed statistics."""
    bad = []
    names = {k.lower(): k for k in progs}
    for a in probe["apps"]:
        p = progs.get(names.get(a["app"]), {"stats": []})
        printed = {label: nums for label, nums in p["stats"]}
        mem = a["mem"]
        ok = (a["valid"] and a["valid_bare"] and a["valid_count"]
              and mem["broadcast_equal"] and a["model"]["fa_equal"]
              and a["deliver"]["refs"] == a["refs"]
              and a["deliver"]["syncs"] == a["syncs"]
              and a["trace"]["decoded_refs"] == a["refs"]
              and a["trace"]["decoded_syncs"] == a["syncs"])
        if workload == "working_set":
            rows = [nums for label, nums in p["stats"]
                    if is_err_row(label, nums)]
            want = [[float(f"{100.0 * e:.3f}") for e in er] +
                    [float(f"{max(abs(e - m) for e, m in zip(er, mr)):.4f}")]
                    for er, mr in zip(a["sweep"]["rates"],
                                      a["model"]["rates"])]
            ok = ok and rows == want and printed.get("profile") == [
                float(f"{a['model']['accesses'] / 1e6:.3f}"),
                float(f"{100.0 * a['model']['stale_frac']:.2f}")]
        else:
            total = sum(mem["misses"])
            pct = [float(f"{100.0 * m / total:.1f}") if total else 0.0
                   for m in mem["misses"]]
            ok = ok and printed.get("references") == [
                float(f"{mem['accesses'] / 1e6:.3f}"),
                float(f"{100.0 * (total / mem['accesses']):.3f}")] \
                and printed.get("misses") == pct + [float(mem["upgrades"])] \
                and printed.get("shared reads/writes") == [
                    float(f"{a['reads'] / 1e6:.3f}"),
                    float(f"{a['writes'] / 1e6:.3f}")]
        if not ok:
            bad.append(a["app"])
            log(f"probe check failed: {a['app']}")
    return bad


def traced_run(workload, seed, deadline):
    golden = load_golden(workload, seed)
    _, wdir, apps, records = setup(workload, seed, 1, deadline)
    proc = spawn(pass_command(workload, seed, wdir), deadline,
                 wdir / "pass.txt")
    progs = parse_output(proc.out)
    refs = [parse_output(r.out) for r in records]
    failed = check_pass(workload, proc, progs, refs, golden, apps)

    out = wdir / "spans.json"
    probe_proc = spawn(
        [rel(BUILD / "layerprobe"), "--scale", f"{SCALE[workload]:g}",
         "--seed", str(seed), "--work", rel(wdir), "--out", rel(out)],
        deadline, wdir / "probe.txt")
    if probe_proc.rc != 0:
        failed |= set(apps)
    probe = json.loads(out.read_text())
    by_id = {k.lower(): k for k in progs}
    failed |= {by_id.get(a, a) for a in probe_checks(workload, probe, progs)}

    st = self_times(probe["spans"])
    names = [a["app"] for a in probe["apps"]]
    refs_by = {a["app"]: a["refs"] for a in probe["apps"]}
    n = sum(refs_by.values())

    def layer(app, name):
        if name == "rt.deliver":  # the counting run less the bare run
            return st[(app, "rt.deliver")] - st[(app, "rt.exec")]
        if name == "replay":  # staging only: the replica is memsys's time
            return st[(app, "replay")] - st[(app, "memsys")]
        return st[(app, name)]

    def total(name):
        return sum(layer(a, name) for a in names)

    metrics = {}
    for name, metric in [("rt.exec", "rt.exec_ns_per_ref"),
                         ("rt.deliver", "rt.deliver_ns_per_ref"),
                         ("memsys", "memsys.ns_per_ref"),
                         ("sweep", "sweep.ns_per_ref"),
                         ("reusedist", "reusedist.ns_per_ref"),
                         ("tracestore.encode",
                          "tracestore.encode_ns_per_ref"),
                         ("tracestore.decode",
                          "tracestore.decode_ns_per_ref"),
                         ("replay", "replay.ns_per_ref")]:
        metrics[metric] = (1e9 * total(name) / n, "ns/ref")
        if name in PER_APP_LAYERS:
            for a in names:
                metrics[f"{metric}.{a}"] = (
                    1e9 * layer(a, name) / refs_by[a], "ns/ref")

    mem = [a["mem"] for a in probe["apps"]]
    errs = [max(abs(e - m) for e, m in zip(er, mr))
            for a in probe["apps"]
            for er, mr in zip(a["sweep"]["rates"], a["model"]["rates"])]
    covered = sum(total(name) for name in PASS_LAYERS[workload])
    metrics.update({
        "rt.refs": (n, "count"),
        "memsys.slow_frac": (
            sum(sum(m["misses"]) + m["upgrades"] for m in mem) /
            sum(m["accesses"] for m in mem), "ratio"),
        "tracestore.bits_per_ref": (
            8.0 * sum(a["trace"]["bytes"] for a in probe["apps"]) / n,
            "bits/ref"),
        "reusedist.model_err_max": (max(errs), "ratio"),
        "reusedist.model_err_mean": (sum(errs) / len(errs), "ratio"),
        "harness.unattributed_frac": (1.0 - covered / proc.wall, "ratio"),
    })
    log(f"{workload} traced: untraced pass {proc.wall:.3f}s, layer shares " +
        ", ".join(f"{name} {total(name) / proc.wall:.3f}"
                  for name in PASS_LAYERS[workload]))
    return len(apps), len(failed), metrics


# ----------------------------------------------------------------------


def write_golden(workload, deadline):
    """Take the golden at the default seed from one pass of the current
    build (run once at the commit whose statistics are the reference)."""
    _, wdir, apps, _ = setup(workload, GOLDEN_SEED, 1, deadline)
    cmd = pass_command(workload, GOLDEN_SEED, wdir)
    proc = spawn(cmd, deadline, wdir / "golden.txt")
    progs = parse_output(proc.out)
    if proc.rc != 0 or sorted(progs) != sorted(apps) or any(
            p["valid"] is False for p in progs.values()):
        raise BenchError("golden pass failed")
    head = {"seed": GOLDEN_SEED, "command": cmd[1:]}
    if workload == "working_set":
        head["model_err_max"], head["model_err_mean"] = model_errors(progs)
    # One statistic per line, so a diff of the golden reads like a diff
    # of the program's output.
    body = ",\n".join(
        f" {json.dumps(a)}: [\n  " +
        ",\n  ".join(json.dumps(st) for st in simulated_only(progs[a])) +
        "]" for a in apps)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{workload}.json").write_text(
        json.dumps(head)[:-1] + ',\n"programs": {\n' + body + "}}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCALE))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must fit in 32 bits")

    try:
        build()
        deadline = time.perf_counter() + args.seconds + SLACK_S
        if args.write_golden:
            write_golden(args.workload, deadline)
            return 0
        if args.trace:
            attempted, failed, metrics = traced_run(
                args.workload, args.seed, deadline)
        else:
            attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
