#!/usr/bin/env python3
"""Validate the reuse-distance analytical sweep against the exact
Mattson engine, and maintain the committed per-app error table.

Input is the Both-mode Figure-3 CSV (fig3_working_sets --sweep both
--csv FILE: app,size_bytes,assoc,miss_rate_exact,miss_rate_model,
abs_error).
Two claims are enforced:

 1. Fully-associative rows (assoc 0) must match bit-for-bit -- the
    model reads the sweep's own fully associative column (its
    reuse-distance profile, whose bucket boundaries are all powers of
    two), so any FA disagreement is a bug, not model error.
 2. Finite-associativity rows carry the model's real error (binomial
    conflict approximation; no stale-victim preference); each app's
    maximum absolute error must stay within the bound committed in
    results/fig3_model_error.csv.  CI runs `--sweep both` on a subset
    and fails if the bound is exceeded.

Usage:
  check_model_error.py check --both BOTH.csv [--table TABLE.csv]
                             [--apps fft,ocean]
  check_model_error.py write-table --out TABLE.csv BOTH.csv [BOTH2.csv ...]

write-table computes per-app stats across every given Both-mode CSV
(e.g. paper scale and the reduced CI scale) and sets each bound to
1.5x the worst observed finite-associativity error (floor 0.005), so
the gate has headroom against benign cross-host drift without ever
tolerating a broken model.
"""

import argparse
import csv
import math
import sys


def read_both(path):
    """{app: {(size, assoc): (exact, model, err)}} from a Both CSV."""
    apps = {}
    with open(path, newline="") as f:
        rd = csv.DictReader(f)
        need = {"app", "size_bytes", "assoc", "miss_rate_exact",
                "miss_rate_model", "abs_error"}
        if not need.issubset(rd.fieldnames or []):
            sys.exit(f"{path}: not a --sweep both CSV "
                     f"(columns {rd.fieldnames})")
        for row in rd:
            apps.setdefault(row["app"], {})[
                (int(row["size_bytes"]), int(row["assoc"]))] = (
                float(row["miss_rate_exact"]),
                float(row["miss_rate_model"]),
                float(row["abs_error"]))
    return apps


def app_stats(points):
    """(fa_max, finite_max, finite_mean) absolute errors."""
    fa = [e for (_, a), (_, _, e) in points.items() if a == 0]
    fin = [e for (_, a), (_, _, e) in points.items() if a != 0]
    return (max(fa) if fa else 0.0, max(fin) if fin else 0.0,
            sum(fin) / len(fin) if fin else 0.0)


def read_table(path):
    with open(path, newline="") as f:
        return {r["app"]: r for r in csv.DictReader(f)}


def cmd_check(args):
    apps = read_both(args.both)
    table = read_table(args.table)
    only = set(a for a in args.apps.split(",") if a)
    failures = []
    print(f"{'app':<12} {'fa_max':>10} {'finite_max':>11} "
          f"{'bound':>8}  verdict")
    for app in sorted(apps):
        if only and app.lower() not in only:
            continue
        fa_max, fin_max, _ = app_stats(apps[app])
        if app not in table:
            failures.append(f"{app}: no committed bound in "
                            f"{args.table}")
            continue
        bound = float(table[app]["bound"])
        bad = []
        # Claim 1: FA is exact.  The CSV rounds to 1e-6, so a literal
        # zero is the expectation; anything above rounding is a bug.
        if fa_max > 1e-9:
            bad.append(f"FA mismatch {fa_max:.6f} (must be exact)")
        # Claim 2: finite-associativity error within the bound.
        if fin_max > bound:
            bad.append(f"finite-assoc error {fin_max:.6f} exceeds "
                       f"bound {bound:.6f}")
        verdict = "FAIL: " + "; ".join(bad) if bad else "ok"
        print(f"{app:<12} {fa_max:>10.6f} {fin_max:>11.6f} "
              f"{bound:>8.4f}  {verdict}")
        if bad:
            failures.append(f"{app}: " + "; ".join(bad))
    checked = [a for a in apps if not only or a.lower() in only]
    if only and len(checked) < len(only):
        missing = only - set(a.lower() for a in apps)
        failures.append("apps missing from CSV: " + ",".join(missing))
    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print(f"\nall {len(checked)} apps within committed bounds")
    return 0


def cmd_write_table(args):
    merged = {}
    for path in args.csvs:
        for app, points in read_both(path).items():
            fa, fin, mean = app_stats(points)
            cur = merged.setdefault(app, [0.0, 0.0, 0.0])
            cur[0] = max(cur[0], fa)
            cur[1] = max(cur[1], fin)
            cur[2] = max(cur[2], mean)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["app", "fa_max_abs_err", "finite_max_abs_err",
                    "finite_mean_abs_err", "bound"])
        for app in sorted(merged):
            fa, fin, mean = merged[app]
            bound = max(0.005, math.ceil(fin * 1.5 * 1000) / 1000)
            w.writerow([app, f"{fa:.6f}", f"{fin:.6f}",
                        f"{mean:.6f}", f"{bound:.3f}"])
    print(f"wrote {args.out} ({len(merged)} apps)")
    return 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    chk = sub.add_parser("check")
    chk.add_argument("--both", required=True)
    chk.add_argument("--table", default="results/fig3_model_error.csv")
    chk.add_argument("--apps", default="",
                     help="comma-separated lowercase subset to check")
    wt = sub.add_parser("write-table")
    wt.add_argument("--out", required=True)
    wt.add_argument("csvs", nargs="+")
    args = ap.parse_args()
    return (cmd_check if args.cmd == "check" else cmd_write_table)(args)


if __name__ == "__main__":
    sys.exit(main())
