#!/usr/bin/env python3
"""Gates the perf-smoke job: seeded counts exactly, wall-clock base-vs-head.

Two gates, both over the BENCH_*.json files the bench/ reports write:

* Seeded counts (exact). perf_report's end-to-end runs are single-threaded
  and seeded, so their page transfers per transaction and the
  fault_overhead transfer totals are a pure function of the code. Every
  head run must reproduce the values committed at the repo root; a change
  that moves them regenerates the committed BENCH_perf.json.
* Wall clock (same runner). Commit throughput (perf + mt) and crash
  recovery wall time depend on the host, so they are never compared with
  committed numbers. The job runs the base tree and the head tree
  alternately on one runner, at least three times each. A metric whose
  base runs spread by no more than --threshold ((max - min) / median)
  fails when the head median is worse than the base median by more than
  --threshold AND lies outside the base runs' min-max spread. A metric
  whose base runs spread wider than that is too noisy to judge by
  medians: it fails only when every head run is worse than every base
  run, passes when every head run is better, and is reported as
  "unresolved" otherwise (not a failure).

Usage:
  compare_bench.py --committed-dir . \\
      --base-runs runs/base-1 runs/base-2 runs/base-3 \\
      --head-runs runs/head-1 runs/head-2 runs/head-3 \\
      [--threshold 0.10] [--report BENCH_diff.json]

Each run directory holds one run's BENCH_perf.json, BENCH_mt.json and
BENCH_recovery.json. Exits 1 on any failed comparison, 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import sys

MIN_RUNS = 3


def load(directory, name):
    try:
        with open(os.path.join(directory, name)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def cell(row):
    return "{}/{}".format(row["config"], "rda" if row["rda"] else "plain")


def seeded_counts(perf):
    """{key: count} for the deterministic transfer counts of BENCH_perf."""
    out = {}
    if perf is None:
        return out
    for row in perf.get("end_to_end", []):
        out["perf/{}/page_transfers_per_txn".format(cell(row))] = \
            row["page_transfers_per_txn"]
    for key, value in perf.get("fault_overhead", {}).items():
        if key.startswith("transfers_"):
            out["perf/fault_overhead/" + key] = value
    return out


def wall_metrics(run_dir):
    """{key: (value, higher_is_better)} for one run directory."""
    out = {}
    perf = load(run_dir, "BENCH_perf.json") or {}
    for row in perf.get("end_to_end", []):
        out["perf/{}/txns_per_sec".format(cell(row))] = \
            (row["txns_per_sec"], True)
    mt = load(run_dir, "BENCH_mt.json") or {}
    for row in mt.get("results", []):
        out["mt/{}/{}t/txns_per_sec".format(cell(row), row["threads"])] = \
            (row["txns_per_sec"], True)
    recovery = load(run_dir, "BENCH_recovery.json") or {}
    for row in recovery.get("crash_recovery", []):
        key = "recovery/crash/{}/{}t/wall_ms".format(
            "rda" if row.get("rda") else "plain", row.get("threads"))
        out[key] = (row["wall_ms"], False)
    return out


def check_seeded(committed, head_dirs):
    """One record per (head run, count key); status ok/changed/missing."""
    for head in head_dirs:
        current = seeded_counts(load(head, "BENCH_perf.json"))
        for key in sorted(set(committed) | set(current)):
            record = {"gate": "seeded", "run": head, "metric": key,
                      "committed": committed.get(key),
                      "current": current.get(key)}
            if record["committed"] is None or record["current"] is None:
                record["status"] = "missing"
            elif record["committed"] != record["current"]:
                record["status"] = "changed"
            else:
                record["status"] = "ok"
            yield record


def check_wall(base_dirs, head_dirs, threshold):
    """One record per wall-clock key present in the base and head runs."""
    base_runs = [wall_metrics(d) for d in base_dirs]
    head_runs = [wall_metrics(d) for d in head_dirs]
    keys = set().union(*base_runs) & set().union(*head_runs)
    for key in sorted(keys):
        base = [run[key][0] for run in base_runs if key in run]
        head = [run[key][0] for run in head_runs if key in run]
        higher_is_better = next(run[key][1] for run in base_runs if key in run)
        record = {"gate": "wall", "metric": key, "base": base, "head": head}
        if len(base) < MIN_RUNS or len(head) < MIN_RUNS:
            record["status"] = "missing"
            yield record
            continue
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        if base_median <= 0:
            record["status"] = "skipped-zero-base"
            yield record
            continue
        change = (head_median - base_median) / base_median
        spread = (max(base) - min(base)) / base_median
        record["change"] = round(change, 4)
        record["base_spread"] = round(spread, 4)
        if spread > threshold:
            # Too noisy for medians: only a full separation decides.
            sign = 1 if higher_is_better else -1
            pairs = [sign * (h - b) for h in head for b in base]
            if all(d < 0 for d in pairs):
                record["status"] = "regressed"
            elif all(d > 0 for d in pairs):
                record["status"] = "ok"
            else:
                record["status"] = "unresolved"
            yield record
            continue
        if higher_is_better:
            regressed = change < -threshold and head_median < min(base)
        else:
            regressed = change > threshold and head_median > max(base)
        record["status"] = "regressed" if regressed else "ok"
        yield record


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--committed-dir", default=".",
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--base-runs", nargs="+", required=True,
                        help="run directories of the base tree")
    parser.add_argument("--head-runs", nargs="+", required=True,
                        help="run directories of the head tree")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional wall-clock regression that fails")
    parser.add_argument("--report", default="BENCH_diff.json",
                        help="where to write the machine-readable diff")
    args = parser.parse_args()

    if len(args.base_runs) < MIN_RUNS or len(args.head_runs) < MIN_RUNS:
        print("error: need at least {} base and {} head runs".format(
            MIN_RUNS, MIN_RUNS), file=sys.stderr)
        return 2
    committed = seeded_counts(load(args.committed_dir, "BENCH_perf.json"))
    if not committed:
        print("error: no seeded counts in {}/BENCH_perf.json".format(
            args.committed_dir), file=sys.stderr)
        return 2

    records = list(check_seeded(committed, args.head_runs))
    records += check_wall(args.base_runs, args.head_runs, args.threshold)
    failed = [r for r in records if r["status"] in
              ("changed", "missing", "regressed")]
    unresolved = [r for r in records if r["status"] == "unresolved"]

    with open(args.report, "w") as f:
        json.dump({"threshold": args.threshold, "compared": len(records),
                   "failed": len(failed), "unresolved": len(unresolved),
                   "comparisons": records}, f, indent=2)
        f.write("\n")

    for r in failed:
        if r["gate"] == "seeded":
            print("FAIL seeded {} in {}: committed {}, current {}".format(
                r["metric"], r["run"], r["committed"], r["current"]),
                file=sys.stderr)
        elif r["status"] == "missing":
            print("FAIL wall {}: fewer than {} runs on a side".format(
                r["metric"], MIN_RUNS), file=sys.stderr)
        else:
            print("FAIL wall {}: head median {:+.1%} vs base, outside the "
                  "base spread (base {}, head {})".format(
                      r["metric"], r["change"], r["base"], r["head"]),
                  file=sys.stderr)
    for r in unresolved:
        print("UNRESOLVED wall {}: base spread {:.1%} > threshold, head "
              "median {:+.1%} (base {}, head {})".format(
                  r["metric"], r["base_spread"], r["change"], r["base"],
                  r["head"]))
    walls = sum(1 for r in records if r["gate"] == "wall")
    print("compared {} seeded counts and {} wall-clock metrics: {} failed, "
          "{} unresolved (wall threshold {:.0%})".format(
              len(records) - walls, walls, len(failed), len(unresolved),
              args.threshold))
    if walls == 0:
        print("error: no wall-clock metric in both base and head runs",
              file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
