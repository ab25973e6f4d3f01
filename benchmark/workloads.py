"""The benchmark's workloads: seeded input documents, the set-up, the timed
pipeline call and the exact output gate.

The program sees only the generated documents.  A seed relabels them: seed
k shuffles the ``basis`` of algebra documents and the ``atoms`` and
``elements`` of groupoid documents, and seed 0 leaves them as built.  That
is a pure relabeling, so the expected values are the same for every seed.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
WORK = os.path.join("benchmark", ".work")       # relative to ROOT


def import_program():
    """Import l2betti and its modules afresh from the checkout's source.

    Earlier imports are dropped first, so that every set-up pays the import
    as a new process would.
    """
    for name in [m for m in sys.modules
                 if m == "l2betti" or m.startswith("l2betti.")]:
        del sys.modules[name]
    cli = importlib.import_module("l2betti.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("l2betti was imported from %s, not from %s"
                          % (cli.__file__, SRC))
    return sys.modules["l2betti"]


def relabel(doc: dict, seed: int, key: str) -> dict:
    """Seeded relabeling of one document; seed 0 is the identity."""
    if seed == 0 or doc.get("kind") not in ("algebra", "groupoid"):
        return doc
    rng = random.Random("%d:%s" % (seed, key))
    doc = dict(doc)
    fields = ("basis",) if doc["kind"] == "algebra" else ("atoms", "elements")
    for f in fields:
        doc[f] = list(doc[f])
        rng.shuffle(doc[f])
    return doc


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """Exact verdict of one timed call: one flag per attempted operation,
    plus the report bytes that must repeat exactly."""

    verdicts: list
    report: str


@dataclass
class Hochschild:
    """``betti_hochschild(ext, N)`` on one generated document."""

    name: str
    filename: str
    build: object             # () -> document
    N: int
    expected: list            # exact Betti numbers as strings
    why: str
    attempts: int = 1

    def documents(self):
        return {self.filename: self.build()}

    def load(self, prog, paths):
        fileio = prog.fileio
        return fileio.as_extension(fileio.load_path(paths[self.filename]))

    def call(self, prog, ext):
        return prog.betti.betti_hochschild(ext, self.N)

    def check(self, prog, table):
        values = [str(v) for v in table.values]
        report = prog.fileio.render_structured(
            {"betti": values, "meta": table.meta})
        return Outcome([values == self.expected], report)


CORPUS_GROUPOIDS = ["trivial3", "pair2", "pair3", "group_c2", "group_c3",
                    "action_c2_swap", "action_c2_field", "partition_21"]

# sauer = hochschild values of `betti --both --N 3` on each corpus groupoid
CORPUS_BETTI = {
    "trivial3": ["1", "0", "0"],
    "pair2": ["1/2", "0", "0"],
    "pair3": ["1/3", "0", "0"],
    "group_c2": ["1/2", "0", "0"],
    "group_c3": ["1/3", "0", "0"],
    "action_c2_swap": ["1/2", "0", "0"],
    "action_c2_field": ["1/2", "0", "0"],
    "partition_21": ["2/3", "0", "0"],
}


@dataclass
class CorpusCLI:
    """In-process ``l2betti.cli.main`` over every ``verify_*.json`` and
    ``betti --both --N 3`` on the corpus groupoids."""

    name: str
    why: str

    @property
    def verify(self):
        return sorted(f for f in os.listdir(CORPUS)
                      if f.startswith("verify_") and f.endswith(".json"))

    @property
    def attempts(self):
        return len(self.verify) + len(CORPUS_GROUPOIDS)

    def documents(self):
        """The corpus documents the sweep reads: the verify instances, the
        files they name, and the groupoids."""
        docs = {}
        todo = self.verify + [g + ".json" for g in CORPUS_GROUPOIDS]
        while todo:
            f = todo.pop()
            if f not in docs:
                with open(os.path.join(CORPUS, f)) as fh:
                    docs[f] = json.load(fh)
                todo.extend(_named_files(docs[f]))
        return docs

    def commands(self, paths):
        return ([["verify", paths[f]] for f in self.verify] +
                [["betti", paths[g + ".json"], "--both", "--N", "3"]
                 for g in CORPUS_GROUPOIDS])

    def load(self, prog, paths):
        fileio = prog.fileio
        for path in paths.values():
            obj = fileio.load_path(path)
            if not isinstance(obj, dict):       # groupoid, algebra or sum
                fileio.as_extension(obj)
        return self.commands(paths)

    def call(self, prog, commands):
        results = []
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = prog.cli.main(argv)
                except Exception as e:       # a crash is a failed attempt
                    rc = "%s: %s" % (type(e).__name__, e)
            results.append((argv, rc, out.getvalue(), err.getvalue()))
        return results

    def check(self, prog, results):
        verdicts = []
        for argv, rc, text, _ in results:
            ok = rc == 0
            if ok:
                rep = json.loads(text)
                if argv[0] == "verify":
                    ok = rep["passed"] is True
                else:
                    g = os.path.basename(argv[1])[:-len(".json")]
                    ok = (rep["equal"] is True and
                          rep["sauer"] == rep["hochschild"] == CORPUS_BETTI[g])
            verdicts.append(ok)
        report = "".join("$ l2betti %s\n[exit %s]\n%s%s"
                         % (" ".join(argv), rc, out, err)
                         for argv, rc, out, err in results)
        return Outcome(verdicts, report)


def _named_files(obj):
    if isinstance(obj, str):
        return [obj] if obj.endswith(".json") else []
    values = obj.values() if isinstance(obj, dict) else \
        obj if isinstance(obj, list) else []
    return [f for v in values for f in _named_files(v)]


def _cs3():
    from l2betti.algebras import group_algebra, trivial_extension
    from l2betti.fileio import extension_to_doc
    from l2betti.groups import symmetric_table
    table, unit, els = symmetric_table(3)
    return extension_to_doc(trivial_extension(
        group_algebra(table, unit, elements=els, name="CS3")))


def _pair4():
    from l2betti.fileio import groupoid_to_doc
    from l2betti.groupoids import pair_relation, uniform_space
    return groupoid_to_doc(pair_relation(uniform_space(4)))


def _m3():
    from l2betti.algebras import matrix_algebra, trivial_extension
    from l2betti.fileio import extension_to_doc
    return extension_to_doc(trivial_extension(matrix_algebra(3), name="M3/C"))


WORKLOADS = {w.name: w for w in [
    Hochschild(
        "s3_hochschild", "cs3.json", _cs3, 3, ["1/6", "0", "0"],
        "CS3/C at N=3 through betti_hochschild: the exact checks "
        "(presimplicial, d o d, homotopy) and the fiber square over the "
        "scalars dominate"),
    Hochschild(
        "pair4_hochschild", "pair4.json", _pair4, 2, ["1/4", "0"],
        "pair(4) groupoid document at N=2: the groupoid fiber square with "
        "its enveloping checks dominates; radical-quotient tower levels "
        "follow"),
    # runs under --workload all and in the tests; left out of BENCHMARK.json
    # as unsteady (benchmark/README.md)
    Hochschild(
        "m3_hochschild", "m3.json", _m3, 2, ["1/9", "0"],
        "M3/C at N=2: generic product saturation of the fiber square over "
        "the scalars dominates"),
    CorpusCLI(
        "corpus_cli",
        "CLI sweep of 21 small corpus commands: the only workload with the "
        "Sauer pipeline, geometric complexes, file I/O, CLI and theorem "
        "drivers"),
]}


# ---------------------------------------------------------------------------
# running


def write_documents(workload, seed: int) -> dict:
    """Generate the workload's documents for ``seed`` and write them under
    the work directory; returns {filename: path relative to ROOT}."""
    docs = workload.documents()
    out_dir = os.path.join(WORK, "%s-seed%d" % (workload.name, seed))
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for f, doc in docs.items():
        path = os.path.join(out_dir, f)
        with open(path, "w") as fh:
            json.dump(relabel(doc, seed, f), fh, indent=1, sort_keys=True)
        paths[f] = path
    return paths


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    outcome: Outcome
    error: str = None


def set_up(workload, paths, tracer=None):
    """Import l2betti afresh and load the workload's documents; returns the
    package, the loaded inputs and the set-up seconds.  The tracer, when
    given, is installed after the import and before the load."""
    gc.collect()
    t0 = perf_counter()
    prog = import_program()
    if tracer is not None:
        tracer.install()
    try:
        inputs = workload.load(prog, paths)
    except BaseException:
        if tracer is not None:
            tracer.uninstall()
        raise
    return prog, inputs, perf_counter() - t0


def run_sample(workload, paths, tracer=None) -> Sample:
    """One set-up and one timed call, with the tracer installed around the
    load and the call when one is given."""
    t0 = perf_counter()
    try:
        prog, inputs, setup_s = set_up(workload, paths, tracer)
        try:
            t1 = perf_counter()
            out = workload.call(prog, inputs)
            wall_s = perf_counter() - t1
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.check(prog, out)
    except Exception as e:                  # recorded as failed attempts
        dt = perf_counter() - t0
        return Sample(dt, dt, Outcome([False] * workload.attempts, ""),
                      error="%s: %s" % (type(e).__name__, e))
    return Sample(setup_s, wall_s, outcome)
