#!/usr/bin/env python3
"""Benchmark of the exact Betti pipelines of l2betti.

One workload, one run (closed loop: one process, one call at a time):

    python3 benchmark/run.py --workload s3_hochschild --seed 1 --seconds 40 --trace 0

Each sample imports l2betti afresh, loads the workload's seeded documents
through ``fileio`` (the set-up), then times the pipeline call and checks
its exact result.  Samples repeat until the next one would overrun
``--seconds``, or a sample fails.  With ``--trace 1`` one sample runs under
the span tracer first, and the untraced samples after it give the tracing
overhead.  The last line of output is one JSON object with the verdict and the metrics;
the line before it, starting with ``record``, holds the raw samples.

Every workload, for one seed (prints the end-to-end metrics by name, the
traced spans and counts, and exits nonzero if any output check fails):

    python3 benchmark/run.py --workload all --seed 0 [--runs 3] [--out FILE]

See benchmark/README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNTS, RATIOS, SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS, ROOT, SRC, WORK, WORKLOADS, run_sample, set_up, write_documents,
)

DEFAULT_SECONDS = 40
SETUP_REPEATS = 5           # extra set-ups per run, so setup_s is a median
SUBPROCESS_TIMEOUT = 180


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def source_digest():
    """sha256 over the l2betti sources: names the program measured when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "l2betti")
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            h.update(f.encode() + b"\0")
            with open(os.path.join(pkg, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def same_report_as_earlier_runs(workload, seed, report):
    """Structured report bytes must repeat across runs for a fixed seed and
    program; the first run of a set stores their digest."""
    digest = hashlib.sha256(report.encode()).hexdigest()
    path = os.path.join(WORK, "digests", "%s-%s-seed%d.sha256"
                        % (source_digest()[:16], workload, seed))
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip() == digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(digest + "\n")
    return True


def machine():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


# ---------------------------------------------------------------------------
# one run


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    start = perf_counter()
    paths = write_documents(workload, seed)
    try:
        setups = [set_up(workload, paths)[2] for _ in range(SETUP_REPEATS)]
    except Exception:           # the samples below record the failure
        setups = []
    traced, tracer = None, None
    if trace:
        tracer = Tracer()
        traced = run_sample(workload, paths, tracer)
    samples = []
    while True:
        t = perf_counter()
        samples.append(run_sample(workload, paths))
        step = perf_counter() - t
        if samples[-1].error or perf_counter() - start + step > seconds:
            break
    everything = samples + ([traced] if traced else [])
    verdicts = [v for s in everything for v in s.outcome.verdicts]
    failed = verdicts.count(False)
    reports = {s.outcome.report for s in everything}
    identical = len(reports) == 1
    repeat = identical and failed == 0 and \
        same_report_as_earlier_runs(name, seed, reports.pop())
    walls = [s.wall_s for s in samples]
    setups += [s.setup_s for s in samples]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **machine(), "src_sha256": source_digest(),
        "samples": {"wall_s": walls, "setup_s": setups},
        "wall_s": summary(walls), "setup_s": summary(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(verdicts), "failed": failed,
        "failed_frac": failed / len(verdicts),
        "reports_identical_in_run": identical,
        "reports_identical_across_runs": repeat,
        "errors": sorted({s.error for s in everything if s.error}),
    }
    if trace:
        record["traced_wall_s"] = traced.wall_s
        record["trace_overhead_s"] = traced.wall_s - record["wall_s"]["median"]
        record["trace_window_s"] = tracer.window_s
        metrics = tracer.metrics()
        record["per_layer"] = {k: v for k, (v, unit) in metrics.items()}
        metrics["traced_wall_s"] = (traced.wall_s, "s")
        metrics["trace_overhead_s"] = (record["trace_overhead_s"], "s")
    else:
        metrics = {"wall_s": (record["wall_s"]["median"], "s"),
                   "setup_s": (record["setup_s"]["median"], "s"),
                   "peak_rss_mib": (record["peak_rss_mib"], "MiB")}
    result = {"correct": failed == 0 and repeat, "attempted": len(verdicts),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return record, result


def print_run(record):
    w = record["wall_s"]
    print("%s seed %d: wall_s %.4f s (q1 %.4f, q3 %.4f, n=%d), setup_s %.4f s, "
          "peak_rss_mib %.1f MiB, failed %d of %d"
          % (record["workload"], record["seed"], w["median"], w["q1"], w["q3"],
             w["n"], record["setup_s"]["median"], record["peak_rss_mib"],
             record["failed"], record["attempted"]))
    for e in record["errors"]:
        print("error:", e)
    if not record["reports_identical_in_run"]:
        print("error: report bytes differ between samples of this run")
    elif not record["failed"] and not record["reports_identical_across_runs"]:
        print("error: report bytes differ from an earlier run with this seed")


# ---------------------------------------------------------------------------
# every workload


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("%s (trace %d) exited %d without a result"
                           % (name, trace, proc.returncode))
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def run_all(seed, seconds, runs, out):
    ok = True
    baseline = {"commit": git_commit(), "src_sha256": source_digest(),
                **machine(), "seed": seed, "seconds": seconds, "runs": runs,
                "workloads": {}}
    for name, workload in WORKLOADS.items():
        try:
            results = [run_child(name, seed, seconds, 0) for _ in range(runs)]
            trec, tres = run_child(name, seed, seconds, 1)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print("== %s: OUTPUT CHECK FAILED (%s)" % (name, e))
            ok = False
            continue
        records = [rec for rec, _ in results]
        correct = tres["correct"] and all(res["correct"] for _, res in results)
        ok = ok and correct
        walls = [w for r in records for w in r["samples"]["wall_s"]]
        setups = [s for r in records for s in r["samples"]["setup_s"]]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        entry = {
            "why": workload.why,
            "wall_s": summary(walls), "setup_s": summary(setups),
            "peak_rss_mib": summary([r["peak_rss_mib"] for r in records]),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "trace_overhead_s": trec["traced_wall_s"] - statistics.median(walls),
            "traced_wall_s": trec["traced_wall_s"],
            "per_layer": trec["per_layer"],
            "runs": records, "traced_run": trec,
        }
        baseline["workloads"][name] = entry
        print_workload(name, entry, correct)
    if out:
        with open(out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all output checks passed" if ok else "OUTPUT CHECK FAILED")
    return 0 if ok else 1


def print_workload(name, e, ok):
    w, s, m = e["wall_s"], e["setup_s"], e["peak_rss_mib"]
    print("== %s: %s" % (name, e["why"]))
    print("  wall_s        %10.4f s    (q1 %.4f, q3 %.4f, n=%d)"
          % (w["median"], w["q1"], w["q3"], w["n"]))
    print("  setup_s       %10.4f s    (q1 %.4f, q3 %.4f, n=%d)"
          % (s["median"], s["q1"], s["q3"], s["n"]))
    print("  peak_rss_mib  %10.1f MiB  (q1 %.1f, q3 %.1f, n=%d)"
          % (m["median"], m["q1"], m["q3"], m["n"]))
    print("  failed_frac   %10.4f      (%d of %d attempted)%s"
          % (e["failed_frac"], e["failed"], e["attempted"],
             "" if ok else "  OUTPUT CHECK FAILED"))
    print("  trace_overhead_s %7.4f s    (traced wall %.4f s)"
          % (e["trace_overhead_s"], e["traced_wall_s"]))
    pl = e["per_layer"]
    print("  %-36s %10s %10s %10s" % ("span", "calls", "self_s", "incl_s"))
    for span in SPANS:
        print("  %-36s %10d %10.4f %10.4f" % (span, pl[span + ".calls"],
                                             pl[span + ".self_s"], pl[span + ".incl_s"]))
    for key in COUNTS:
        print("  %-36s %10d count" % (key, pl[key]))
    for key in RATIOS:
        print("  %-36s %10.4f ratio" % (key, pl[key]))


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="untraced runs per workload with --workload all")
    ap.add_argument("--out", default=None,
                    help="with --workload all, write the result record here")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "l2betti")) or not os.path.isdir(CORPUS):
        sys.stderr.write("benchmark: no l2betti source tree or corpus under %s\n"
                         % ROOT)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.runs, args.out)
    record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print_run(record)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
