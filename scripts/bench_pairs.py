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

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 1-10 \
        --out BENCH.json --parent-commit abc1234 --change "what changed"

With ``--out`` the paired-run record is also written as JSON: the change,
the parent commit, the command, the machine, and under ``workloads`` the
entry of W (per metric the medians, quartiles, wins and the IQR verdict;
the printed summary lines; the failed operations; every run).  An existing
file keeps its other workloads, so runs of several workloads merge into one
record; a workload run again replaces its own entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def compare(metric, pairs):
    """Medians, quartiles, wins and the IQR verdict of one end-to-end
    metric over (parent, change) result pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    par = [p["metrics"][name]["value"] for p, _ in pairs]
    chg = [c["metrics"][name]["value"] for _, c in pairs]
    pm, cm = statistics.median(par), statistics.median(chg)
    pq1, pq3 = quartiles(par)
    cq1, cq3 = quartiles(chg)
    gain = (pm - cm) if lower else (cm - pm)
    return {"parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cm, "change_q1": cq1, "change_q3": cq3,
            "change_pct": 100 * (cm - pm) / pm,
            "change_wins": sum((c < p) if lower else (c > p)
                               for p, c in zip(par, chg)),
            "pairs": len(pairs), "gain_exceeds_parent_iqr": gain > pq3 - pq1}


def summary_line(name, s, bound):
    return ("  %-13s parent %.4f [%.4f, %.4f]  change %.4f [%.4f, %.4f]  "
            "%+.1f%%  wins %d/%d  gain %s parent IQR (bound %.0f%%)"
            % (name, s["parent_median"], s["parent_q1"], s["parent_q3"],
               s["change_median"], s["change_q1"], s["change_q3"],
               s["change_pct"], s["change_wins"], s["pairs"],
               ">" if s["gain_exceeds_parent_iqr"] else "<=", 100 * bound))


def rounded(stats):
    return {k: round(v, 1 if k == "change_pct" else 4) if isinstance(v, float) else v
            for k, v in stats.items()}


def write_record(path, workload, entry, args):
    """Merge this workload's entry into the JSON record at path."""
    record = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    if args.change:
        record["change"] = args.change
    if args.parent_commit:
        record["parent_commit"] = args.parent_commit
    record["command"] = ("python3 scripts/bench_pairs.py PARENT CHANGE --workload W "
                         "--seeds S (benchmark/run.py --workload W --seed S --trace 0 "
                         "at its own run length, one pair per seed, alternating order)")
    record["machine"] = {"python": platform.python_version(),
                         "platform": platform.platform(), "cpu_count": os.cpu_count()}
    record.setdefault("workloads", {})[workload] = entry
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", metavar="PARENT")
    ap.add_argument("change_dir", metavar="CHANGE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="inclusive range such as 3-7, or one seed")
    ap.add_argument("--out", default=None,
                    help="JSON record to write, merged with its other workloads")
    ap.add_argument("--parent-commit", default=None,
                    help="commit of the parent checkout, kept in the --out record")
    ap.add_argument("--change", default=None,
                    help="one line on what the change does, kept in the --out record")
    args = ap.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent_dir),
            "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    pairs = []
    runs = []
    ok = True
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {lb: run(lb, dirs[lb], args.workload, seed) for lb in order}
        pairs.append((got["parent"], got["change"]))
        runs.append({"seed": seed, **{lb: {name: round(m["value"], 4) for name, m
                                           in got[lb]["metrics"].items()}
                                      for lb in order}})
        ok = ok and all(r["correct"] for r in got.values())

    failed = {lb: [sum(pc[i]["failed"] for pc in pairs),
                   sum(pc[i]["attempted"] for pc in pairs)]
              for i, lb in enumerate(("parent", "change"))}
    lines = ["%s, %d pairs, seeds %s" % (args.workload, len(pairs),
                                         ",".join(map(str, args.seeds))),
             "  failed ops: parent %d of %d, change %d of %d"
             % (*failed["parent"], *failed["change"])]
    stats = {}
    for m in metrics:
        stats[m["name"]] = compare(m, pairs)
        lines.append(summary_line(m["name"], stats[m["name"]], m["bound"]))
    print("\n".join(lines))
    if args.out:
        write_record(args.out, args.workload, {
            "metrics": {name: rounded(s) for name, s in stats.items()},
            "bench_pairs_summary": lines, "failed_ops": failed,
            "all_correct": ok, "runs": runs}, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
