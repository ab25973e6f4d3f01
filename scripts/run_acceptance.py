#!/usr/bin/env python3
"""Drive the command-line interface across the bundled corpus.

Validates every document, runs both Betti pipelines on every groupoid,
verifies every bundled theorem instance, and checks byte-identical reruns.
Exits nonzero on the first discrepancy.  The full acceptance checklist
itself lives in tests/test_acceptance.py (run: pytest -s tests/test_acceptance.py).
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")
PY = [sys.executable, "-m", "l2betti.cli"]
# the package is imported from src/, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))


def fail(what, out="", err=""):
    print("FAILED: %s" % what)
    if out:
        print(out)
    if err:
        print(err)
    sys.exit(1)


def run(args, expect=0):
    r = subprocess.run(PY + args, capture_output=True, text=True, cwd=ROOT,
                       env=ENV)
    if r.returncode != expect:
        fail("(%d) l2betti %s" % (r.returncode, " ".join(args)), r.stdout, r.stderr)
    return r.stdout


def main():
    groupoids = ["trivial3", "pair2", "pair3", "group_c2", "group_c3",
                 "action_c2_swap", "action_c2_field", "partition_21"]
    algebras = ["m2_diag", "m2_scalars", "cc2", "cc3"]

    for name in groupoids + algebras:
        run(["validate", os.path.join(CORPUS, name + ".json")])
        print("validated", name)

    run(["validate", os.path.join(CORPUS, "cocycle_pair3_signs.json"),
         os.path.join(CORPUS, "pair3.json")])
    print("validated cocycle_pair3_signs against pair3")

    for name in groupoids:
        out = run(["betti", os.path.join(CORPUS, name + ".json"),
                   "--both", "--N", "3"])
        rep = json.loads(out)
        if not rep["equal"]:
            fail("the two pipelines disagree on %s" % name, out)
        print("betti agree on %-16s beta = %s" % (name, rep["sauer"]))

    for inst in sorted(glob.glob(os.path.join(CORPUS, "verify_*.json"))):
        out = run(["verify", inst])
        rep = json.loads(out)
        if not rep["passed"]:
            fail("%s did not pass" % inst, out)
        print("verified %-38s lhs = rhs = %s"
              % (os.path.basename(inst), rep["lhs"]))

    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        for out in (a, b):
            run(["betti", os.path.join(CORPUS, "pair3.json"), "--both",
                 "--N", "3", "--out", out])
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                fail("reports differ across reruns of pair3")
        print("reports are byte-identical across reruns")

    print("corpus run complete")


if __name__ == "__main__":
    main()
