"""The benchmark's own tests: seeded documents and tracer transparency.

Run from the repository root (about two minutes):

    python3 -m pytest -q benchmark/tracer_tests.py

The file name keeps these tests out of the default test collection.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORKLOADS, import_program, relabel, run_sample, write_documents,
)

sys.path.insert(0, SRC)

# spans every run of a workload must enter (the layer-to-workload list in
# benchmark/README.md); a missed from-import rebinding shows up here
COMMON = {
    "tensor.append_level", "tensor.insert_unit", "fibersquare.balanced_tensor",
    "fibersquare.fiber_square", "complexes.hochschild_complex",
    "complexes.l2_complex", "complexes.verify_presimplicial",
    "complexes.check_d_squared", "complexes.homotopy_verify",
    "complexes.homology", "complexes.action_matrices", "betti.vn_dimension",
    "betti.betti_hochschild", "linalg.mul", "linalg.eq", "linalg.elim",
    "algebras.build", "fileio.load",
}
ASSIGNED = {
    "s3_hochschild": COMMON,
    "m3_hochschild": COMMON,
    "pair4_hochschild": COMMON | {"fibersquare.groupoid_fiber_square",
                                  "groupoids.carrier"},
    "corpus_cli": set(SPANS),
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_seed_zero_is_identity_and_other_seeds_relabel():
    alg = {"kind": "algebra", "basis": ["a", "b", "c", "d"], "mult": []}
    grp = {"kind": "groupoid", "atoms": [["x", "1/2"], ["y", "1/2"]],
           "elements": [{"id": "e%d" % k} for k in range(6)]}
    assert relabel(alg, 0, "a.json") is alg
    assert relabel(grp, 0, "g.json") is grp
    for doc, fields in ((alg, ["basis"]), (grp, ["atoms", "elements"])):
        moved = [relabel(doc, s, "k") for s in range(1, 6)]
        assert moved[0] == relabel(doc, 1, "k")          # deterministic
        for m in moved:
            for f in fields:
                assert sorted(map(str, m[f])) == sorted(map(str, doc[f]))
        assert any(m[f] != doc[f] for m in moved for f in fields)
    other = {"kind": "verify_instance", "N": 2}
    assert relabel(other, 3, "v.json") is other


def test_install_rebinds_from_imports_and_uninstall_restores():
    prog = import_program()
    targets = [
        (prog.betti, "homology"), (prog.complexes, "homology"),
        (prog.cli, "betti_hochschild"), (prog.fibersquare, "append_level"),
        (prog.cli, "load_path"), (prog.linalg.GMatrix, "mul"),
        (prog.linalg.GMatrix, "__eq__"), (prog.scalars.GScalar, "__mul__"),
        (prog.tensor.Tower, "insert_unit"), (prog.linalg.Echelon, "reduce"),
    ]
    before = [getattr(owner, name) for owner, name in targets]
    tracer = Tracer()
    with tracer:
        during = [getattr(owner, name) for owner, name in targets]
        assert prog.betti.homology is prog.complexes.homology
        assert prog.cli.load_path is prog.fileio.load_path
    for b, d in zip(before, during):
        assert d is not b
    assert [getattr(owner, name) for owner, name in targets] == before


def test_self_time_excludes_children_and_recursion_counts_once():
    tracer = Tracer()
    outer_name, inner_name = "tensor.append_level", "tensor.insert_unit"

    def inner(k):
        time.sleep(0.02)
        if k:
            inner_w(k - 1)

    def outer():
        time.sleep(0.02)
        inner_w(1)

    inner_w = tracer._wrap(inner_name, inner, None)
    outer_w = tracer._wrap(outer_name, outer, None)
    outer_w()
    oc, oself, oincl = tracer.stats[outer_name]
    ic, iself, iincl = tracer.stats[inner_name]
    assert (oc, ic) == (1, 2)
    assert oself >= 0.02 and iself >= 0.04
    # the recursive inner call is inside the outer inner call: counted in
    # self time once, and in inclusive time only at the outermost entry
    assert abs(iself - iincl) < 1e-6
    assert abs(oincl - (oself + iincl)) < 1e-6


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    """One untraced and two traced samples of a workload at seed 1."""
    name = request.param
    os.chdir(ROOT)
    workload = WORKLOADS[name]
    paths = write_documents(workload, 1)
    plain = run_sample(workload, paths)
    tracers = [Tracer(), Tracer()]
    traced = [run_sample(workload, paths, t) for t in tracers]
    return name, plain, traced, tracers


def test_traced_and_untraced_runs_return_identical_values(traced_pair):
    name, plain, traced, _ = traced_pair
    assert plain.error is None and all(plain.outcome.verdicts)
    for s in traced:
        assert s.error is None
        assert s.outcome.verdicts == plain.outcome.verdicts
        assert s.outcome.report == plain.outcome.report


def test_every_assigned_span_is_entered(traced_pair):
    name, _, _, tracers = traced_pair
    metrics = tracers[0].metrics()
    missed = sorted(s for s in ASSIGNED[name] if metrics[s + ".calls"][0] == 0)
    assert not missed


def test_exact_counts_repeat_across_traced_runs(traced_pair):
    _, _, _, tracers = traced_pair
    assert tracers[0].exact_counts() == tracers[1].exact_counts()
    assert tracers[0].counts["scalars.ops"] > 0


def test_self_times_fit_inside_the_traced_window(traced_pair):
    _, _, _, tracers = traced_pair
    for t in tracers:
        total_self = sum(v for k, (v, unit) in t.metrics().items()
                         if k.endswith(".self_s"))
        assert 0 < total_self <= t.window_s
