"""Self-describing JSON documents for groupoids, algebras, cocycles and
weighted sums, plus deterministic report rendering.

Every number in a document or report is an exact rational (or Gaussian
rational) rendered as a string; structured reports are canonical JSON with
sorted keys so identical runs are byte identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebras import (
    Extension, TracialStarAlgebra, TwoCocycle, conditional_expectation,
    convolution_algebra, weighted_sum,
)
from .groupoids import FiniteGroupoid, FiniteMeasuredSpace
from .scalars import parse_scalar, render_scalar


class InputError(Exception):
    """Malformed or inconsistent input document."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__("%s%s" % ("%s: " % location if location else "", message))


def _frac(text, location):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError("bad rational %r (%s)" % (text, e), location)


def _scalar(text, location):
    try:
        return parse_scalar(str(text))
    except (ValueError, ZeroDivisionError, IndexError) as e:
        raise InputError("bad scalar %r (%s)" % (text, e), location)


def _object(value, location):
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise InputError("expected a JSON object", location)
    return value


def _fields(value, keys, location):
    """value, which must be a JSON object holding every key in keys."""
    missing = [key for key in keys if key not in _object(value, location)]
    if missing:
        raise InputError("missing field %r" % missing[0], location)
    return value


def _list(value, location):
    """value, which must be a JSON list."""
    if not isinstance(value, list):
        raise InputError("expected a JSON list", location)
    return value


def _rows(value, width, location):
    """value, which must be a JSON list of lists of width entries each."""
    for k, row in enumerate(_list(value, location)):
        if not isinstance(row, list) or len(row) != width:
            raise InputError("row %d is not a list of %d entries" % (k, width),
                             location)
    return value


def _known(key, table):
    """Whether key, a JSON value, is a key of table; labels are strings, so a
    JSON list or object never is."""
    return isinstance(key, str) and key in table


def _vec_from_pairs(pairs, index, location):
    out = {}
    for label, coeff in _rows(pairs, 2, location):
        if not _known(label, index):
            raise InputError("unknown basis label %r" % label, location)
        c = _scalar(coeff, location)
        if not c.is_zero():
            out[index[label]] = c
    return out


def _pairs_from_vec(vec, labels):
    return [[labels[k], render_scalar(c)] for k, c in sorted(vec.items())]


# ---------------------------------------------------------------------------
# groupoids


def _element_id(a):
    return a if isinstance(a, str) else repr(a)


def groupoid_to_doc(g: FiniteGroupoid) -> dict:
    eid = {a: _element_id(a) for a in g.elements}
    return {
        "kind": "groupoid",
        "name": g.name,
        "atoms": [[str(x), str(g.base.weight[x])] for x in g.base.atoms],
        "elements": [{"id": eid[a], "source": str(g.source[a]),
                      "target": str(g.target[a])} for a in g.elements],
        "inverse": {eid[a]: eid[g.inverse[a]] for a in g.elements},
        "compose": sorted([eid[a], eid[b], eid[c]]
                          for (a, b), c in g.compose.items()),
        "units": {str(x): eid[g.units[x]] for x in g.base.atoms},
    }


def groupoid_from_doc(doc: dict, location="groupoid") -> FiniteGroupoid:
    _fields(doc, ("atoms", "elements", "inverse", "compose", "units"), location)
    atom_rows = _rows(doc["atoms"], 2, location + ".atoms")
    atoms = tuple(str(a) for a, _ in atom_rows)
    weights = {str(a): _frac(w, location + ".atoms") for a, w in atom_rows}
    try:
        base = FiniteMeasuredSpace(atoms, weights)
    except ValueError as e:
        raise InputError(str(e), location + ".atoms")
    els = []
    src, tgt = {}, {}
    for k, e in enumerate(_list(doc["elements"], location + ".elements")):
        missing = [key for key in ("id", "source", "target")
                   if not isinstance(e, dict) or key not in e]
        if missing:
            raise InputError("element %d has no field %r" % (k, missing[0]),
                             location + ".elements")
        i = str(e["id"])
        if i in src:
            raise InputError("duplicate element id %r" % i, location + ".elements")
        if str(e["source"]) not in weights or str(e["target"]) not in weights:
            raise InputError("element %r has an unknown endpoint" % i,
                             location + ".elements")
        els.append(i)
        src[i] = str(e["source"])
        tgt[i] = str(e["target"])
    elset = set(els)
    inv = {}
    for a, b in _object(doc["inverse"], location + ".inverse").items():
        if a not in elset or not _known(b, elset):
            raise InputError("inverse table mentions unknown element",
                             location + ".inverse")
        inv[a] = b
    comp = {}
    for row in _rows(doc["compose"], 3, location + ".compose"):
        a, b, c = (str(x) for x in row)
        if not {a, b, c} <= elset:
            raise InputError("composition mentions unknown element %r" % (row,),
                             location + ".compose")
        comp[(a, b)] = c
    units = {}
    for x, u in _object(doc["units"], location + ".units").items():
        if str(x) not in weights or not _known(u, elset):
            raise InputError("unit table mentions unknown atom or element",
                             location + ".units")
        units[str(x)] = u
    return FiniteGroupoid(base, tuple(els), src, tgt, inv, comp, units,
                          name=str(doc.get("name", "")))


# ---------------------------------------------------------------------------
# algebras and extensions


def extension_to_doc(ext: Extension) -> dict:
    a = ext.alg
    mult_rows = []
    for i in range(a.dim):
        for j in range(a.dim):
            if a.mult[i][j]:
                mult_rows.append([a.labels[i], a.labels[j],
                                  _pairs_from_vec(a.mult[i][j], a.labels)])
    doc = {
        "kind": "algebra",
        "name": ext.name,
        "basis": list(a.labels),
        "mult": mult_rows,
        "star": [[a.labels[i], _pairs_from_vec(a.star_table[i], a.labels)]
                 for i in range(a.dim)],
        "trace": [[a.labels[i], render_scalar(a.trace_table[i])]
                  for i in sorted(a.trace_table)],
        "unit": _pairs_from_vec(a.unit, a.labels),
        "subalgebra": [_pairs_from_vec(ext.embed.column(k), a.labels)
                       for k in range(ext.sub.dim)],
    }
    if a.unitary_family:
        doc["unitary_family"] = [[nm, _pairs_from_vec(u, a.labels)]
                                 for nm, u in a.unitary_family]
    return doc


def extension_from_doc(doc: dict, location="algebra") -> Extension:
    _fields(doc, ("basis", "mult", "star", "trace", "unit", "subalgebra"), location)
    labels = [str(l) for l in _list(doc["basis"], location + ".basis")]
    index = {l: k for k, l in enumerate(labels)}
    dim = len(labels)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for k, (i, j, pairs) in enumerate(_rows(doc["mult"], 3, location + ".mult")):
        if not (_known(i, index) and _known(j, index)):
            raise InputError("mult row mentions unknown label %r" % ([i, j],),
                             location + ".mult")
        mult[index[i]][index[j]] = _vec_from_pairs(
            pairs, index, "%s.mult[%d]" % (location, k))
    star = [{} for _ in range(dim)]
    for k, (i, pairs) in enumerate(_rows(doc["star"], 2, location + ".star")):
        if not _known(i, index):
            raise InputError("star row mentions unknown label %r" % (i,),
                             location + ".star")
        star[index[i]] = _vec_from_pairs(pairs, index, "%s.star[%d]" % (location, k))
    trace = {}
    for i, val in _rows(doc["trace"], 2, location + ".trace"):
        if not _known(i, index):
            raise InputError("trace row mentions unknown label %r" % (i,),
                             location + ".trace")
        trace[index[i]] = _scalar(val, location + ".trace")
    unit = _vec_from_pairs(doc["unit"], index, location + ".unit")
    fam = []
    family = _rows(doc.get("unitary_family", []), 2, location + ".unitary_family")
    for k, (nm, pairs) in enumerate(family):
        fam.append((str(nm), _vec_from_pairs(
            pairs, index, "%s.unitary_family[%d]" % (location, k))))
    alg = TracialStarAlgebra(labels, mult, star, trace, unit,
                             name=str(doc.get("name", "A")),
                             unitary_family=fam)
    for k, (nm, u) in enumerate(fam):
        if not alg.is_unitary(u):
            raise InputError("not unitary", "%s.unitary_family[%d]" % (location, k))
    sub_vectors = [_vec_from_pairs(pairs, index, "%s.subalgebra[%d]" % (location, k))
                   for k, pairs in enumerate(_list(doc["subalgebra"],
                                                   location + ".subalgebra"))]
    try:
        return conditional_expectation(alg, sub_vectors,
                                       name=str(doc.get("name", "A/B")))
    except (ValueError, AssertionError) as e:
        raise InputError("extension construction failed: %s" % e, location)


# ---------------------------------------------------------------------------
# cocycles


def cocycle_to_doc(sigma: TwoCocycle) -> dict:
    return {
        "kind": "cocycle",
        "values": [[x, y, z, render_scalar(v)]
                   for (x, y, z), v in sorted(sigma.values.items())],
    }


def cocycle_from_doc(doc: dict, relation: FiniteGroupoid,
                     location="cocycle") -> TwoCocycle:
    _fields(doc, ("values",), location)
    vals = {}
    for x, y, z, v in _rows(doc["values"], 4, location + ".values"):
        vals[(str(x), str(y), str(z))] = _scalar(v, location)
    return TwoCocycle(relation, vals)


# ---------------------------------------------------------------------------
# weighted sums


def summands_from_doc(doc: dict, loader, location) -> tuple:
    """The extensions and the weights of doc's summands."""
    _fields(doc, ("summands",), location)
    exts, weights = [], []
    for k, row in enumerate(_list(doc["summands"], location + ".summands")):
        where = "%s.summands[%d]" % (location, k)
        _fields(row, ("weight", "algebra"), where)
        weights.append(_frac(row["weight"], where))
        sub = row["algebra"]
        exts.append(as_extension(loader(sub) if isinstance(sub, str)
                                 else parse_document(sub, loader, where + ".algebra")))
    return exts, weights


def weighted_sum_from_doc(doc: dict, loader, location="weighted_sum") -> Extension:
    exts, weights = summands_from_doc(doc, loader, location)
    try:
        return weighted_sum(exts, weights, mode=doc.get("mode", "componentwise"),
                            name=str(doc.get("name", "sum")))
    except ValueError as e:
        raise InputError(str(e), location)


# ---------------------------------------------------------------------------
# top level


def parse_document(doc: dict, loader=None, location=None):
    kind = _object(doc, location).get("kind")
    if kind == "groupoid":
        return groupoid_from_doc(doc)
    if kind == "algebra":
        return extension_from_doc(doc)
    if kind == "cocycle":
        return doc          # needs its relation; resolved by the caller
    if kind == "weighted_sum":
        return weighted_sum_from_doc(doc, loader)
    if kind == "verify_instance":
        return doc
    raise InputError("unknown document kind %r" % kind)


def load_path(path: str):
    import os
    if not os.path.exists(path):
        raise InputError("no such file", path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise InputError("cannot read the file (%s)" % e.strerror, path)
    except UnicodeDecodeError as e:
        raise InputError("not UTF-8 (%s)" % e, path)
    except json.JSONDecodeError as e:
        raise InputError("invalid JSON (%s)" % e, path)
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object", path)

    def loader(rel):
        base = os.path.dirname(os.path.abspath(path))
        return load_path(os.path.join(base, rel))

    try:
        return parse_document(doc, loader)
    except InputError as e:
        if e.location and not str(e).startswith(path):
            raise InputError(str(e), path) from e
        raise


def as_extension(obj) -> Extension:
    if isinstance(obj, Extension):
        return obj
    if isinstance(obj, FiniteGroupoid):
        return convolution_algebra(obj)
    raise InputError("expected an algebra, weighted sum or groupoid document")


# ---------------------------------------------------------------------------
# reports


def render_structured(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def render_plain(report: dict, indent=0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (pad, key))
            lines.append(render_plain(val, indent + 1).rstrip("\n"))
        elif isinstance(val, list):
            lines.append("%s%s: %s" % (pad, key, json.dumps(val)))
        else:
            lines.append("%s%s: %s" % (pad, key, val))
    return "\n".join(lines) + "\n"
