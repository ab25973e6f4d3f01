#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 3-7

PARENT and CHANGE are checkout roots.  For each seed the script runs
``benchmark/run.py --workload W --seed S --trace 0`` once in each checkout,
at the benchmark's own run length, one at a time, alternating which goes
first so that neither side always runs on a warmer machine.  Each run's last output line is its
JSON result.  For every end-to-end metric named in this checkout's
``BENCHMARK.json`` it prints both medians with their quartiles, the change
in the medians, how many pairs the change won, and whether the gain in
the medians exceeds the parent's interquartile range.  It exits 1 if any
run fails or reports a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(label, checkout, workload, seed):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s: run failed in %s" % (workload, checkout))
    result = json.loads(lines[-1])
    print("  %-6s seed %d: %s%s" % (
        label, seed,
        ", ".join("%s %.4f" % (k, m["value"]) for k, m in result["metrics"].items()),
        "" if result["correct"] else "  WRONG RESULT"), flush=True)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="inclusive range such as 3-7, or one seed")
    args = ap.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    pairs = []
    ok = True
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {lb: run(lb, dirs[lb], args.workload, seed) for lb in order}
        pairs.append((got["parent"], got["change"]))
        ok = ok and all(r["correct"] for r in got.values())

    print("%s, %d pairs, seeds %s" % (args.workload, len(pairs),
                                      ",".join(map(str, args.seeds))))
    print("  failed ops: parent %d of %d, change %d of %d" % (
        sum(p["failed"] for p, _ in pairs), sum(p["attempted"] for p, _ in pairs),
        sum(c["failed"] for _, c in pairs), sum(c["attempted"] for _, c in pairs)))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        pm, cm = statistics.median(par), statistics.median(chg)
        pq1, pq3 = quartiles(par)
        cq1, cq3 = quartiles(chg)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        gain = (pm - cm) if lower else (cm - pm)
        print("  %-13s parent %.4f [%.4f, %.4f]  change %.4f [%.4f, %.4f]  "
              "%+.1f%%  wins %d/%d  gain %s parent IQR (bound %.0f%%)"
              % (name, pm, pq1, pq3, cm, cq1, cq3, 100 * (cm - pm) / pm, wins,
                 len(pairs), ">" if gain > pq3 - pq1 else "<=", 100 * m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
