import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.cli import build_parser, main
from l2betti.fileio import (
    InputError, extension_from_doc, extension_to_doc, groupoid_from_doc,
    groupoid_to_doc, parse_document,
)
from l2betti.algebras import (
    conditional_expectation, diagonal_subalgebra_vectors, matrix_algebra,
)
from l2betti.groupoids import pair_relation, uniform_space, validate_groupoid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def cpath(name):
    return os.path.join(CORPUS, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_groupoid_round_trip():
    g = pair_relation(uniform_space(3))
    doc = groupoid_to_doc(g)
    g2 = groupoid_from_doc(doc)
    assert validate_groupoid(g2).ok
    assert len(g2.elements) == 9
    assert groupoid_to_doc(g2)["compose"] == doc["compose"]


def test_extension_round_trip():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                  sub_labels=["d1", "d2"], name="M2/diag")
    doc = extension_to_doc(ext)
    ext2 = extension_from_doc(doc)
    assert ext2.alg.dim == 4 and ext2.sub.dim == 2
    assert ext2.validate().ok


def test_validate_corpus_groupoid(capsys):
    code, out = run_cli(["validate", cpath("pair3.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][cpath("pair3.json")]["ok"]


def test_validate_corpus_algebra(capsys):
    code, out = run_cli(["validate", cpath("m2_diag.json")], capsys)
    assert code == 0


def test_validate_cocycle_with_relation(capsys):
    code, out = run_cli(["validate", cpath("cocycle_pair3_signs.json"),
                         cpath("pair3.json")], capsys)
    assert code == 0


def test_validate_rejects_broken_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = main(["validate", str(p)])
    assert code == 2


def test_validate_reports_invalid_groupoid(tmp_path, capsys):
    doc = json.loads(open(cpath("pair2.json")).read())
    doc["compose"][0][2] = doc["compose"][1][2]  # corrupt one entry
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main([str(a) for a in ("validate", p)])
    assert code == 2


def test_groupoid_element_without_id_is_input_error(tmp_path, capsys):
    doc = json.loads(open(cpath("pair2.json")).read())
    del doc["elements"][1]["id"]
    p = tmp_path / "no_id.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "groupoid.elements" in err and "'id'" in err
    assert "Traceback" not in err


def test_algebra_star_row_with_unknown_label_is_input_error(tmp_path, capsys):
    doc = json.loads(open(cpath("m2_diag.json")).read())
    doc["star"][0][0] = "nope"
    p = tmp_path / "bad_star.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "algebra.star" in err and "'nope'" in err
    assert "Traceback" not in err


def _as_list(table):
    return [[k, v] for k, v in table.items()]


@pytest.mark.parametrize("document, field, mutate, location", [
    ("pair2.json", "units", _as_list, "groupoid.units"),
    ("pair2.json", "inverse", _as_list, "groupoid.inverse"),
    ("m2_diag.json", "basis", lambda basis: 4, "algebra.basis"),
    ("m2_diag.json", "mult", lambda rows: [rows[0][:2]] + rows[1:], "algebra.mult"),
    ("pair2.json", "atoms", lambda rows: [rows[0] + ["x"]] + rows[1:], "groupoid.atoms"),
    ("m2_diag.json", "star",
     lambda rows: [[rows[0][0], [rows[0][1][0][:1]]]] + rows[1:], "algebra.star[0]"),
    # a JSON list or object where a label or element name belongs
    ("m2_diag.json", "unit", lambda pairs: [[["e11"], "1"]] + pairs[1:], "algebra.unit"),
    ("m2_diag.json", "mult", lambda rows: [[{"e": 1}] + rows[0][1:]] + rows[1:],
     "algebra.mult"),
    ("m2_diag.json", "star", lambda rows: [[["e11"], rows[0][1]]] + rows[1:],
     "algebra.star"),
    ("m2_diag.json", "trace", lambda rows: [[["e11"], "1"]] + rows[1:], "algebra.trace"),
    ("pair2.json", "inverse", lambda table: dict(table, **{"('x0', 'x1')": ["x0"]}),
     "groupoid.inverse"),
    ("pair2.json", "units", lambda table: dict(table, x0={"x": 1}), "groupoid.units"),
    # summands of the wrong shape
    ("sum_half_m2_half_cc2.json", "summands", lambda rows: "m2_diag.json",
     "weighted_sum.summands"),
    ("sum_half_m2_half_cc2.json", "summands", lambda rows: ["m2_diag.json"],
     "weighted_sum.summands[0]"),
    ("sum_half_m2_half_cc2.json", "summands", lambda rows: [{"algebra": "m2_diag.json"}],
     "weighted_sum.summands[0]"),
    ("sum_half_m2_half_cc2.json", "summands", lambda rows: [{"weight": "1"}],
     "weighted_sum.summands[0]"),
    ("sum_half_m2_half_cc2.json", "summands",
     lambda rows: [{"algebra": 7, "weight": "1"}], "weighted_sum.summands[0].algebra"),
], ids=["units-list", "inverse-list", "basis-number", "mult-row", "atoms-row",
        "vector-pair-row", "vector-label-list", "mult-label-object", "star-label-list",
        "trace-label-list", "inverse-value-list", "units-value-object",
        "summands-string", "summand-string", "summand-without-weight",
        "summand-without-algebra", "summand-algebra-number"])
def test_field_of_the_wrong_shape_is_input_error(tmp_path, capsys, document, field,
                                                 mutate, location):
    doc = json.loads(open(cpath(document)).read())
    doc[field] = mutate(doc[field])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and (location + ": ") in err
    assert "Traceback" not in err


def test_non_object_document_is_input_error():
    with pytest.raises(InputError, match="expected a JSON object"):
        parse_document(["kind", "algebra"])


def test_missing_inverse_of_an_inverse_is_a_violation(tmp_path, capsys):
    # g2's inverse g1 has no inverse entry: validation reports both elements
    # instead of failing on the lookup
    doc = json.loads(open(cpath("group_c3.json")).read())
    del doc["inverse"]["g1"]
    p = tmp_path / "no_inverse.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["results"][str(p)]
    assert not result["ok"]
    assert ["missing_inverse", "g1"] in result["violations"]
    assert ["inverse_not_involutive", "g2"] in result["violations"]


@pytest.fixture(scope="module")
def corpus_copy(tmp_path_factory):
    """A scratch copy of the corpus, so that a mutated document written into
    it still finds the documents it names."""
    root = tmp_path_factory.mktemp("corpus")
    for name in os.listdir(CORPUS):
        shutil.copy(cpath(name), root / name)
    return root


def _run(argv):
    """Exit code, stdout and stderr of one command; an exception that
    escapes main fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# every document that validate accepts on its own
MUTABLE = sorted(f for f in os.listdir(CORPUS) if f.endswith(".json")
                 and json.load(open(cpath(f)))["kind"]
                 in ("groupoid", "algebra", "weighted_sum"))
REPLACEMENTS = {"list": ["g0", "1"], "object": {"x0": "1"}, "number": 7,
                "string": "no_such_label"}


def _sites(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _sites(value, path + (key,))


def _mutate(doc, data):
    """Delete a key, drop a list entry, or replace a value with a list, an
    object, a number or an unknown string, anywhere in doc; returns the
    mutated document, the site and the operation."""
    site = data.draw(st.sampled_from(list(_sites(doc))))
    ops = sorted(REPLACEMENTS) + (["delete"] if site else [])
    op = data.draw(st.sampled_from(ops))
    if not site:
        return REPLACEMENTS[op], site, op
    parent = doc
    for key in site[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[site[-1]]
    else:
        parent[site[-1]] = REPLACEMENTS[op]
    return doc, site, op


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_never_end_in_a_traceback(corpus_copy, data):
    name = data.draw(st.sampled_from(MUTABLE))
    doc, site, op = _mutate(json.loads(open(cpath(name)).read()), data)
    path = str(corpus_copy / "mutated.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    code, out, err = _run(["validate", path])
    # the mutated document may still be valid (an optional name, mode or
    # unitary family, or structure constants that still define an algebra);
    # otherwise it is an input error or a failed validation, both exit 2
    assert code in (0, 2), (name, site, op, code, err)
    if code == 2 and err:
        assert err.startswith("input error: "), (name, site, op, err)
    elif code == 2:
        assert not json.loads(out)["results"][path]["ok"], (name, site, op)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_relations_of_a_twisted_residual_never_end_in_a_traceback(
        corpus_copy, data):
    # the relation of a residual document with a cocycle is read by the
    # cocycle parser and the twisted algebra before any Betti number
    rel, site, op = _mutate(json.loads(open(cpath("pair2.json")).read()), data)
    (corpus_copy / "mutated_relation.json").write_text(json.dumps(rel))
    path = corpus_copy / "mutated_residual.json"
    path.write_text(json.dumps({
        "kind": "verify_instance", "theorem": "residual", "N": 1,
        "relation": "mutated_relation.json",
        "cocycle": "cocycle_pair2_trivial.json"}))
    code, out, err = _run(["verify", str(path)])
    # a name may go or change; every other mutation is bad input
    assert code in (0, 2), (site, op, code, err)
    if code == 2:
        assert err.startswith(("input error: ", "error: ")), (site, op, err)
    else:
        assert json.loads(out)["passed"], (site, op)


@pytest.mark.parametrize("breakage", ["inverse", "compose"])
def test_residual_with_cocycle_over_a_malformed_relation_exits_2(
        tmp_path, capsys, breakage):
    # pair(2) without the inverse of (x0, x1), or without its first compose
    # row: the relation is validated before the cocycle or the twisted
    # product reads it
    with open(cpath("pair2.json")) as f:
        rel = json.load(f)
    if breakage == "inverse":
        del rel["inverse"]["('x0', 'x1')"]
    else:
        rel["compose"] = rel["compose"][1:]
    (tmp_path / "relation.json").write_text(json.dumps(rel))
    shutil.copy(cpath("cocycle_pair2_trivial.json"), tmp_path / "cocycle.json")
    path = tmp_path / "residual.json"
    path.write_text(json.dumps({
        "kind": "verify_instance", "theorem": "residual", "N": 1,
        "relation": "relation.json", "cocycle": "cocycle.json"}))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid groupoid: ")


def _verify_field_sites():
    """(document, path) for each field a verify_* corpus document reads."""
    for name in sorted(f for f in os.listdir(CORPUS) if f.startswith("verify_")):
        doc = json.load(open(cpath(name)))
        for key in ("summands", "algebra", "projection", "groupoid", "relation"):
            if key in doc:
                yield name, (key,)
        for k in range(len(doc.get("summands", []))):
            yield name, ("summands", k, "algebra")
            yield name, ("summands", k, "weight")


@pytest.mark.parametrize("name, site", list(_verify_field_sites()),
                         ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
def test_verify_document_missing_a_field_is_input_error(corpus_copy, capsys, name, site):
    doc = json.load(open(cpath(name)))
    parent = doc
    for key in site[:-1]:
        parent = parent[key]
    del parent[site[-1]]
    path = corpus_copy / "missing_field.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "missing field %r" % site[-1] in err


def test_verify_document_naming_a_missing_cocycle_file_is_input_error(corpus_copy, capsys):
    doc = json.load(open(cpath("verify_residual_pair3_twisted.json")))
    doc["cocycle"] = "no_such_cocycle.json"
    path = corpus_copy / "missing_cocycle.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "no_such_cocycle.json: no such file" in err


@pytest.mark.parametrize("command", ["validate", "fiber-square"])
def test_non_unitary_family_entry_is_input_error(tmp_path, capsys, command):
    doc = json.loads(open(cpath("cc2.json")).read())
    k = [nm for nm, _ in doc["unitary_family"]].index("g1")
    doc["unitary_family"][k][1] = [["g1", "7"]]
    p = tmp_path / "cc2_scaled.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "algebra.unitary_family[%d]: " % k in err


@pytest.mark.parametrize("name", ["cc2", "m2_diag"])
def test_document_without_unitary_family_exits_2(tmp_path, capsys, name):
    # every fiber square takes its pairs from the family; over B = C, pairs
    # made up without one would give the trivial square and a wrong answer
    doc = json.loads(open(cpath(name + ".json")).read())
    del doc["unitary_family"]
    p = tmp_path / (name + "_no_family.json")
    p.write_text(json.dumps(doc))
    assert main(["betti", str(p), "--N", "2"]) == 2
    assert "extension has no canonical unitary family" in capsys.readouterr().err


def test_betti_both_pipelines(capsys):
    code, out = run_cli(["betti", cpath("action_c2_swap.json"), "--both",
                         "--N", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["equal"]
    assert rep["sauer"] == rep["hochschild"] == ["1/2", "0", "0"]


def test_betti_both_reports_its_seed(capsys):
    code, out = run_cli(["betti", cpath("pair2.json"), "--both", "--N", "2",
                         "--seed", "7"], capsys)
    assert code == 0
    meta = json.loads(out)["meta"]["hochschild"]
    assert meta["generator_independence"] == {"seed": 7, "checked": True}


def test_betti_algebra_input(capsys):
    code, out = run_cli(["betti", cpath("cc3.json"), "--N", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["hochschild"] == ["1/3", "0"]


def test_homology_command(capsys):
    code, out = run_cli(["homology", cpath("pair2.json"), "--kind",
                         "classifying", "--N", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["degrees"]["0"]["homology_dimension"] == 2
    assert rep["degrees"]["1"]["homology_dimension"] == 0


def test_fiber_square_command(capsys):
    code, out = run_cli(["fiber-square", cpath("pair2.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 4
    assert rep["tracial"]
    assert rep["enveloping_checks"]["algebra_morphism"]


def test_fiber_square_with_non_tracial_trace_exits_2(monkeypatch, capsys):
    # the report's tracial field is read from the certificate fiber_square
    # ran, so a trace table that is not tracial must stop the command there
    import l2betti.fibersquare as fs
    from l2betti.scalars import ONE, ZERO

    structure = fs.span_structure

    def skewed(span, *args):
        mult, star, traces, unit = structure(span, *args)
        n = len(mult)
        k = next(k for i in range(n) for j in range(n)
                 for k in mult[i][j].keys() - unit.keys()
                 if mult[i][j][k] != mult[j][i].get(k))
        traces = dict(traces)
        traces[k] = traces.get(k, ZERO) + ONE
        return mult, star, traces, unit

    monkeypatch.setattr(fs, "span_structure", skewed)
    assert main(["fiber-square", cpath("m2_diag.json")]) == 2
    err = capsys.readouterr().err
    assert "trace_not_tracial" in err


@pytest.mark.parametrize("command", ["betti", "fiber-square"])
@pytest.mark.parametrize("name", ["m2_scalars.json", "cs3.json"])
def test_unnormalized_trace_exits_2_also_under_python_optimize(tmp_path, name, command):
    # with every trace value doubled, tr(1) = 2: the fiber square checks its
    # trace's normalization itself, since nothing it certifies implies it,
    # and -O must not strip that check
    with open(cpath(name)) as f:
        doc = json.load(f)
    doc["trace"] = [[label, str(2 * Fraction(value))] for label, value in doc["trace"]]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    for flags in ([], ["-O"]):
        r = subprocess.run([sys.executable] + flags + ["-m", "l2betti.cli", command,
                            str(path), "--N", "1"], capture_output=True, cwd=ROOT)
        assert r.returncode == 2, r.stderr
        assert b"trace_normalization" in r.stderr


@pytest.mark.parametrize("command", ["betti", "fiber-square"])
def test_non_tracial_algebra_document_exits_2(tmp_path, capsys, command):
    # M2 over its diagonal with the trace 2/3, 1/3 on e11, e22: E is still
    # trace-preserving and bimodular, so the extension validates, and the
    # traciality check of the balanced square is what rejects the document
    with open(cpath("m2_diag.json")) as f:
        doc = json.load(f)
    doc["trace"] = [["e11", "2/3"], ["e22", "1/3"]]
    path = tmp_path / "m2_diag_skewed.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "is not tracial at basis pair (e21, e12)" in err


@pytest.mark.parametrize("kind", ["nerve", "bar", "cyclic", "acyclic", "classifying", "l2"])
def test_homology_of_malformed_groupoid_exits_2(tmp_path, capsys, kind):
    # pair(2) without its first compose row: every complex kind must reject
    # the document as bad input before it builds a tuple
    with open(cpath("pair2.json")) as f:
        doc = json.load(f)
    doc["compose"] = doc["compose"][1:]
    path = tmp_path / "pair2_short.json"
    path.write_text(json.dumps(doc))
    assert main(["homology", str(path), "--kind", kind, "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "invalid groupoid" in err


def test_verify_compression(capsys):
    code, out = run_cli(["verify", cpath("verify_compression_m2_diag.json")],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["lhs"][0] == "1"


def test_verify_directed_sum(capsys):
    code, out = run_cli(["verify", cpath("verify_directed_sum.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["lhs"][0] == "1/2"


def test_verify_central_quadratic(capsys):
    code, out = run_cli(["verify", cpath("verify_central_quadratic.json")],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["lhs"][0] == "5/24"


def test_verify_residual_twisted(capsys):
    code, out = run_cli(["verify", cpath("verify_residual_pair3_twisted.json")],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["details"]["twisted"] is True


FOURTH_ROOTS = ("1", "i", "-1", "-i")


def _coboundary_exponent(x, y, z):
    # sigma = i^(b(x,y) + b(y,z) - b(x,z)) with b(x0, x1) = 1, else 0
    def b(u, v):
        return 1 if (u, v) == ("x0", "x1") else 0
    return b(x, y) + b(y, z) - b(x, z)


# sigma(x, y, z) = i^k on pair(3), each breaking one axiom of validate_cocycle
BROKEN_COCYCLES = {
    # -1 on (x0,x1,x2) and its reverse: skew symmetric and normalized, but
    # sigma(x0,x1,x2) sigma(x0,x2,x0) != sigma(x1,x2,x0) sigma(x0,x1,x0)
    "cocycle_identity": lambda x, y, z:
        2 if (x, y, z) in (("x0", "x1", "x2"), ("x2", "x1", "x0")) else 0,
    # a coboundary, so a normalized cocycle, with
    # sigma(x0,x1,x2) sigma(x2,x1,x0) = i
    "not_skew_symmetric": _coboundary_exponent,
    # the constant -1: a skew-symmetric cocycle with sigma(x,x,x) = -1
    "unit_not_normalized": lambda x, y, z: 2,
}


@pytest.mark.parametrize("broken", sorted(BROKEN_COCYCLES))
def test_cocycle_breaking_one_axiom_is_refused(broken, corpus_copy):
    # the twisted product is certified by its cocycle, not by
    # validate_algebra, so each axiom of the cocycle must be enforced
    exponent = BROKEN_COCYCLES[broken]
    atoms = ("x0", "x1", "x2")
    values = [[x, y, z, FOURTH_ROOTS[exponent(x, y, z) % 4]]
              for x in atoms for y in atoms for z in atoms]
    path = corpus_copy / ("residual_%s.json" % broken)
    path.write_text(json.dumps({
        "kind": "verify_instance", "theorem": "residual", "N": 1,
        "relation": "pair3.json", "cocycle": {"kind": "cocycle", "values": values}}))
    code, out, err = _run(["verify", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid cocycle: ")
    kinds = set(re.findall(r"\('([a-z_]+)'", err))
    assert kinds == {broken}, err


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["betti", cpath("pair2.json"), "--both", "--N", "2",
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_plain_format(capsys):
    code, out = run_cli(["betti", cpath("cc2.json"), "--N", "1",
                         "--format", "plain"], capsys)
    assert code == 0
    assert "hochschild" in out
    assert "{" not in out.splitlines()[0]


def test_console_entry_point():
    env = dict(os.environ)
    r = subprocess.run([sys.executable, "-m", "l2betti.cli", "validate",
                        cpath("trivial3.json")], capture_output=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0


@pytest.mark.parametrize("args", [
    ["fiber-square", "pair3.json"],
    # degree 2 of CS3/C takes the split path
    ["homology", "cs3.json", "--N", "3"],
    ["betti", "pair3.json", "--both", "--N", "3"],
    # compression checks its coinvariant coordinates and trace identity
    ["verify", "verify_compression_m2_diag.json"],
    # c^{-1} has 14 terms here: the character reads 14 action matrices
    ["betti", "sum_central_cc2_cc3.json", "--N", "2"],
], ids=lambda args: "-".join(args[:2]))
def test_report_unchanged_under_python_optimize(args):
    # -O strips assert statements: no check or side effect may live in one
    outs = []
    for flags in ([], ["-O"]):
        r = subprocess.run([sys.executable] + flags + ["-m", "l2betti.cli", args[0],
                            cpath(args[1])] + args[2:],
                           capture_output=True, cwd=ROOT)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_betti_weighted_sum_document(capsys):
    code, out = run_cli(["betti", cpath("sum_half_m2_half_cc2.json"),
                         "--N", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["hochschild"] == ["1/2", "0"]


def test_fiber_square_plain_algebra_input(capsys):
    code, out = run_cli(["fiber-square", cpath("m2_diag.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 4 and rep["tracial"]


def test_bad_degree_cap_is_input_error(capsys):
    assert main(["betti", cpath("pair2.json"), "--N", "0"]) == 2
    assert capsys.readouterr().err == \
        "input error: degree cap N must be at least 1\n"


@pytest.mark.parametrize("N", [0, -1, True, 2.7, "2"], ids=repr)
def test_verify_document_N_must_be_a_positive_integer(corpus_copy, capsys, N):
    doc = json.load(open(cpath("verify_equality_pair2.json")))
    doc["N"] = N
    path = corpus_copy / "bad_N.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "N must be an integer" in err


def test_verify_document_without_N_takes_the_degree_cap(corpus_copy, capsys):
    doc = json.load(open(cpath("verify_equality_pair2.json")))
    del doc["N"]
    path = corpus_copy / "no_N.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["verify", str(path), "--N", "3"], capsys)
    assert code == 0 and json.loads(out)["lhs"] == ["1/2", "0", "0"]


@pytest.mark.parametrize("projection, message", [
    ([["e11", "2"]], "p is not a projection"),
    ([[e, "1/2"] for e in ("e11", "e12", "e21", "e22")],
     "p does not commute with the subalgebra at "),
], ids=["not_a_projection", "not_in_commutant"])
def test_verify_compression_reports_compression_precondition(
        corpus_copy, capsys, projection, message):
    doc = json.load(open(cpath("verify_compression_m2_diag.json")))
    doc["projection"] = projection
    path = corpus_copy / "bad_projection.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize("flags, code", [([], 2), (["--extended-scope"], 1)],
                         ids=["theorem-scope", "extended-scope"])
def test_compression_outside_the_theorem_needs_the_extended_scope(
        corpus_copy, capsys, flags, code):
    # p = (g0 + g1)/2 in CC2/C is not in B = C and CC2 is not a factor; the
    # extended scope runs the law anyway, and it fails: 1 against
    # (1/2) / tr(E(p)^2) = (1/2) / (1/4) = 2
    path = corpus_copy / "cc2_half.json"
    path.write_text(json.dumps({
        "kind": "verify_instance", "theorem": "compression", "N": 1,
        "algebra": "cc2.json", "projection": [["g0", "1/2"], ["g1", "1/2"]]}))
    assert main(["verify", str(path)] + flags) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: compression beyond a factor")
    else:
        rep = json.loads(captured.out)
        assert (rep["lhs"], rep["rhs"]) == (["1"], ["2"])
        assert rep["details"]["scope"] == "extended (remark)"


@pytest.mark.parametrize("args", [
    ["verify", "verify_equality_pair2.json", "--theorem", "groupoid_equality"],
    ["betti", "pair2.json", "--pipeline", "both"],
    ["validate", "pair2.json", "--seed", "1"],
    ["betti", "pair2.json", "--extended-scope"],
], ids=["theorem", "pipeline-both", "seed-outside-betti",
        "extended-scope-outside-verify"])
def test_retired_options_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], cpath(args[1])] + args[2:])
    assert exc.value.code == 2


@pytest.mark.parametrize("pipeline", ["sauer", "hochschild"])
def test_both_and_pipeline_exclude_each_other(capsys, pipeline):
    # --both used to be dropped silently in favour of --pipeline
    for args in (["--both", "--pipeline", pipeline], ["--pipeline", pipeline, "--both"]):
        with pytest.raises(SystemExit) as exc:
            main(["betti", cpath("pair2.json")] + args)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_is_input_error(tmp_path, kind):
    if kind == "directory":
        path = CORPUS
    else:
        path = str(tmp_path / "bytes.json")
        with open(path, "wb") as f:
            f.write(b"\xff\xfe")
    code, _, err = _run(["validate", path])
    assert code == 2
    assert path in err
    assert "Traceback" not in err


def test_unwritable_out_is_input_error(tmp_path, monkeypatch):
    import l2betti.cli as cli
    # the path is checked before the document is read or any pipeline runs
    ran = []
    for name in ("load_path", "verify_groupoid_equality", "betti_sauer",
                 "betti_hochschild"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: ran.append(name))
    for out, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        code, stdout, err = _run(["betti", cpath("pair2.json"), "--N", "1",
                                  "--out", str(out)])
        assert code == 2
        assert err == "input error: %s: cannot write the report (%s)\n" % (out, reason)
        assert stdout == ""
    assert ran == []


def test_readme_flags_name_every_cli_option():
    with open(os.path.join(ROOT, "README.md")) as f:
        paragraphs = f.read().split("\n\n")
    flags = [p for p in paragraphs if p.startswith("Flags:")]
    assert len(flags) == 1
    documented = set(re.findall(r"--[A-Za-z][\w-]*", flags[0]))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for parser in subparsers.choices.values()
               for action in parser._actions for opt in action.option_strings
               if opt not in ("-h", "--help")}
    assert documented == options


def test_corpus_sweep_covers_every_corpus_document():
    spec = importlib.util.spec_from_file_location(
        "corpus_sweep", os.path.join(ROOT, "scripts", "corpus_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    cmds = sweep.commands()
    assert len(cmds) == 89
    named = {args[1] for args in cmds}
    assert named == {"corpus/" + f for f in os.listdir(CORPUS) if f.endswith(".json")}
    assert all(os.path.exists(os.path.join(ROOT, p)) for p in named)


FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall = %r + seed / 1000
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.05, "unit": "s"},
    "peak_rss_mib": {"value": 26.0, "unit": "MiB"}}}))
"""


def test_bench_pairs_record_merges_workloads(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for side, wall in (("parent", 0.05), ("change", 0.04)):
        os.makedirs(tmp_path / side / "benchmark")
        (tmp_path / side / "benchmark" / "run.py").write_text(FAKE_RUN % wall)
    out = str(tmp_path / "BENCH.json")
    dirs = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench.main(dirs + ["--workload", "a", "--seeds", "1-4", "--out", out,
                              "--parent-commit", "abc1234", "--change", "faster"]) == 0
    assert bench.main(dirs + ["--workload", "b", "--seeds", "5", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        record = json.load(fh)
    assert (record["change"], record["parent_commit"]) == ("faster", "abc1234")
    assert sorted(record["workloads"]) == ["a", "b"]
    a = record["workloads"]["a"]
    assert a["metrics"]["wall_s"] == {
        "parent_median": 0.0525, "parent_q1": 0.0513, "parent_q3": 0.0538,
        "change_median": 0.0425, "change_q1": 0.0413, "change_q3": 0.0438,
        "change_pct": -19.0, "change_wins": 4, "pairs": 4,
        "gain_exceeds_parent_iqr": True}
    assert a["failed_ops"] == {"parent": [0, 16], "change": [0, 16]}
    assert [r["seed"] for r in a["runs"]] == [1, 2, 3, 4]
    # alternating order: the second pair ran the change first
    assert list(a["runs"][1]) == ["seed", "change", "parent"]
    assert a["bench_pairs_summary"][0] == "a, 4 pairs, seeds 1,2,3,4"
    assert len(record["workloads"]["b"]["runs"]) == 1


def load_tracer():
    """benchmark/tracer.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "benchmark", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_span_target_resolves():
    # benchmark/tracer.py wraps these names when a traced run installs it;
    # a deleted or renamed target would break every traced benchmark run
    tracer = load_tracer()
    targets = [t for ts in tracer.SPANS.values() for t in ts]
    assert targets
    for target in targets:
        modname, attr = target.split(":")
        module = importlib.import_module("l2betti." + modname)
        if "." in attr:
            # methods are patched through the class __dict__
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), target
        else:
            assert callable(getattr(module, attr, None)), target
    # the tracer also counts calls of these methods, patched the same way
    counted = [("scalars", "GScalar", tracer.SCALAR_OPS),
               ("linalg", "Echelon", ["reduce"]),
               ("algebras", "SpanBasis", ["add", "contains"])]
    for modname, cls_name, meths in counted:
        cls = getattr(importlib.import_module("l2betti." + modname), cls_name)
        for meth in meths:
            assert callable(vars(cls).get(meth)), (cls_name, meth)
    # and its probes are keyed by targets; one keyed otherwise never fires
    assert set(tracer.Tracer()._probes()) <= set(targets)


def test_tracer_probes_read_a_traced_run():
    # the tracer's probes read the arguments and results of what they wrap
    # (append_level's appended extension, the fiber square's dimension, the
    # homotopy's top degree); a signature change that breaks one fails here
    import l2betti.betti as betti
    from l2betti.algebras import group_algebra, trivial_extension
    from l2betti.groups import cyclic_table

    table, unit, els = cyclic_table(2)
    ext = trivial_extension(group_algebra(table, unit, elements=els, name="CC2"))
    with load_tracer().Tracer() as traced:
        betti.betti_hochschild(ext, 2)
    for name in ("tensor.ambient_dim", "fibersquare.dim", "complexes.homotopy_degrees"):
        assert traced.counts[name] > 0, name


def test_every_name_the_benchmark_imports_exists():
    # benchmark/workloads.py builds its documents from these l2betti names
    import ast
    with open(os.path.join(ROOT, "benchmark", "workloads.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("l2betti")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)


def _tokens(node):
    """Identifiers a syntax tree names: variables, attributes, imported
    names, and identifier-like words inside string constants."""
    import ast
    import re
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return out


def test_every_library_name_is_reached_from_the_cli_scripts_or_benchmark():
    # The library keeps only what its users reach: the CLI (main), scripts/
    # and benchmark/ (its own tests excepted).  Their identifiers, and the
    # words of their strings (tracer targets are strings), are the roots.
    # From each top-level function, class or assignment and each method of
    # src/l2betti whose name is reached, the names its code uses are reached
    # in turn; docstrings are not code.  A class reached also reaches its
    # bases, decorators, class-level statements and dunder methods.  What
    # only tests use belongs in tests/oracles.py.
    # The scan works by name, so a method is reached whenever an attribute
    # of its name is used anywhere: it cannot see a method whose name
    # collides with a used one, such as a validate method that only tests
    # call beside Extension.validate.
    import ast
    import glob

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    defs = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "l2betti", "*.py"))):
        mod = os.path.basename(path)[:-3]
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant):
                node.body = body[1:] or [ast.Pass()]
        for stmt in tree.body:
            named = []
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                named.append((stmt.name, stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                named += [(sub.name, "%s.%s" % (stmt.name, sub.name), sub)
                          for sub in stmt.body if isinstance(sub, ast.FunctionDef)]
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                named += [(n.id, n.id, stmt) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)]
            for name, qual, node in named:
                defs.setdefault(name, []).append(("%s.%s" % (mod, qual), node))

    todo = ["main"]
    for path in glob.glob(os.path.join(ROOT, "scripts", "*.py")) + \
            glob.glob(os.path.join(ROOT, "benchmark", "*.py")):
        if os.path.basename(path) != "tracer_tests.py":
            with open(path) as f:
                todo.extend(_tokens(ast.parse(f.read())))
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs.get(name, []):
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = node.bases + node.decorator_list + [
                    s for s in node.body
                    if not isinstance(s, ast.FunctionDef) or dunder(s.name)]
            for part in parts:
                todo.extend(_tokens(part))
    unreached = sorted(qual for name, entries in defs.items() for qual, _ in entries
                       if name not in reached and not dunder(name))
    assert not unreached, "only tests reach: %s" % ", ".join(unreached)


def spy_everywhere(monkeypatch, module, name):
    """Calls of module.name, however an l2betti module imported it: every
    module binding of the function is replaced by one counting spy."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("l2betti"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


def test_fiber_square_that_does_not_fill_exits_3(monkeypatch, capsys):
    # without its isotropy bisections, C3's family reaches too little of
    # C[G^e]: the document is valid, so the fault is internal, not bad input
    import l2betti.algebras as algebras_mod
    elementary = algebras_mod.elementary_bisections

    def swaps_only(g):
        return [b for b in elementary(g)
                if any(g.source[a] != g.target[a] for a in b)]

    monkeypatch.setattr(algebras_mod, "elementary_bisections", swaps_only)
    assert main(["betti", cpath("group_c3.json"), "--both"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: evaluation map not surjective onto C[G^e]")


def test_enveloping_identification_that_fails_exits_3(monkeypatch, capsys):
    # one structure constant of C[G^e] negated: pair2.json is a valid
    # groupoid, so the failed identification is a program fault
    import l2betti.fibersquare as fs
    convolution = fs.convolution_star_algebra

    def negated(g):
        alg = convolution(g)
        row = next(r for r in alg.mult if any(r))
        prod = next(p for p in row if p)
        k = next(iter(prod))
        prod[k] = -prod[k]
        return alg

    monkeypatch.setattr(fs, "convolution_star_algebra", negated)
    assert main(["betti", cpath("pair2.json"), "--both", "--N", "2"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: enveloping identification failed")


@pytest.mark.parametrize("name", ["verify_residual_pair2.json",
                                  "verify_residual_pair3_twisted.json"])
def test_verify_residual_validates_the_relation_once(name, monkeypatch, capsys):
    # the twisted instance builds its untwisted Sauer side from the relation
    # convolution_algebra has already validated
    import l2betti.groupoids as groupoids_mod
    calls = spy_everywhere(monkeypatch, groupoids_mod, "validate_groupoid")
    code, out = run_cli(["verify", cpath(name)], capsys)
    assert code == 0 and json.loads(out)["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("args, counts", [
    # the extension C[G] over L^inf(X) is built once and read by both
    # pipelines; C[G^e] of the identification is a *-algebra alone
    (["betti", "pair3.json", "--both", "--N", "2"], (1, 1, 1)),
    # the Sauer side reads only the convolution *-algebra
    (["betti", "pair3.json", "--pipeline", "sauer", "--N", "2"], (1, 0, 0)),
    (["homology", "pair3.json", "--kind", "classifying", "--N", "2"], (1, 0, 0)),
])
def test_convolution_extension_is_built_only_where_it_is_read(
        args, counts, monkeypatch, capsys):
    import l2betti.algebras as algebras_mod
    import l2betti.groupoids as groupoids_mod
    spies = [spy_everywhere(monkeypatch, groupoids_mod, "validate_groupoid"),
             spy_everywhere(monkeypatch, groupoids_mod, "elementary_bisections"),
             spy_everywhere(monkeypatch, algebras_mod, "conditional_expectation")]
    code, _ = run_cli([args[0], cpath(args[1])] + args[2:], capsys)
    assert code == 0
    assert tuple(len(calls) for calls in spies) == counts
