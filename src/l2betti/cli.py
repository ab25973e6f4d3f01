"""Batch front door: parse input documents, run computations and
verification suites, emit deterministic reports.

Exit codes: 0 success (or verified equality), 1 verification discrepancy,
2 malformed input or precondition failure, 3 internal fault.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .algebras import Extension, validate_algebra, validate_cocycle
from .betti import (
    betti_hochschild, betti_sauer, verify_compression,
    verify_groupoid_equality, verify_residual, verify_weighted_sum,
)
from .complexes import geometric_complex, homology, l2_complex, bar_complex
from .fibersquare import InternalError, fiber_square_of
from .fileio import (
    InputError, _fields, _vec_from_pairs, as_extension, cocycle_from_doc, load_path,
    parse_document, render_plain, render_structured, summands_from_doc,
)
from .groupoids import GEOMETRIC_FAMILIES, FiniteGroupoid, validate_groupoid
from .scalars import render_scalar


def _check_out(path: str) -> None:
    """Raise, before any computation, the InputError that writing the
    report to path would raise, where the path alone shows it; _emit still
    catches what only the write finds."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise InputError("cannot write the report (%s)" % os.strerror(code), path)


def _emit(report: dict, args) -> None:
    text = (render_structured(report) if args.fmt == "structured"
            else render_plain(report))
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            raise InputError("cannot write the report (%s)" % e.strerror, args.out)
    else:
        sys.stdout.write(text)


def _betti_values(values):
    return [str(Fraction(v)) for v in values]


def cmd_validate(args) -> int:
    results = {}
    status = 0
    for path in args.paths:
        obj = load_path(path)
        if isinstance(obj, FiniteGroupoid):
            rep = validate_groupoid(obj)
            results[path] = {
                "kind": "groupoid",
                "ok": rep.ok,
                "elements": rep.element_count,
                "violations": [list(map(str, v)) for v in rep.violations],
            }
            if not rep.ok:
                status = 2
        elif isinstance(obj, Extension):
            # load_path built the extension through conditional_expectation,
            # which already ran Extension.validate and raised on a violation
            arep = validate_algebra(obj.alg)
            results[path] = {
                "kind": "algebra",
                "ok": arep.ok,
                "dimension": obj.alg.dim,
                "subalgebra_dimension": obj.sub.dim,
                "semisimple": arep.semisimple,
                "violations": [list(map(str, v)) for v in arep.violations],
            }
            if not arep.ok:
                status = 2
        elif isinstance(obj, dict) and obj.get("kind") == "cocycle":
            if len(args.paths) < 2:
                raise InputError("a cocycle file needs its relation file "
                                 "passed alongside", path)
            rel = None
            for other in args.paths:
                if other == path:
                    continue
                cand = load_path(other)
                if isinstance(cand, FiniteGroupoid):
                    rel = cand
                    break
            if rel is None:
                raise InputError("no relation file given for the cocycle", path)
            sigma = cocycle_from_doc(obj, rel)
            bad = validate_cocycle(sigma)
            results[path] = {
                "kind": "cocycle",
                "ok": not bad,
                "violations": [list(map(str, v)) for v in bad],
            }
            if bad:
                status = 2
        else:
            raise InputError("unsupported document", path)
    _emit({"command": "validate", "results": results}, args)
    return status


def cmd_betti(args) -> int:
    path = args.paths[0]
    obj = load_path(path)
    report = {"command": "betti", "input": path, "N": args.N}
    status = 0
    pipeline = args.pipeline or (
        "both" if args.both or isinstance(obj, FiniteGroupoid) else "hochschild")
    if pipeline == "both":
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("both pipelines need a groupoid input", path)
        rep = verify_groupoid_equality(obj, args.N, seed=args.seed)
        report["sauer"] = _betti_values(rep.lhs)
        report["hochschild"] = _betti_values(rep.rhs)
        report["equal"] = rep.passed
        report["meta"] = {"sauer": rep.details["sauer_meta"],
                          "hochschild": rep.details["hochschild_meta"]}
        if not rep.passed:
            report["discrepancy"] = [str(d) for d in rep.discrepancy()]
            status = 1
    elif pipeline == "sauer":
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("the groupoid pipeline needs a groupoid input", path)
        t = betti_sauer(obj, args.N)
        report["sauer"] = _betti_values(t.values)
        report["meta"] = t.meta
    else:
        ext = as_extension(obj)
        t = betti_hochschild(ext, args.N, seed=args.seed)
        report["hochschild"] = _betti_values(t.values)
        report["meta"] = t.meta
    _emit(report, args)
    return status


def cmd_homology(args) -> int:
    path = args.paths[0]
    obj = load_path(path)
    kind = args.kind
    if kind in GEOMETRIC_FAMILIES:
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("geometric complexes need a groupoid input", path)
        p = geometric_complex(obj, kind, args.N)          # validates obj
    elif kind == "l2":
        ext = as_extension(obj)
        p = l2_complex(fiber_square_of(ext)[0], args.N)
    else:                               # algebra-bar, the parser's last choice
        ext = as_extension(obj)
        p = bar_complex(ext, args.N)
    degrees = {}
    for n in range(args.N):
        hm = homology(p, n)
        degrees[str(n)] = {
            "space_dimension": p.dims[n],
            "homology_dimension": hm.dim,
            "rank_d_lower": hm.rank_lower,
            "rank_d_upper": hm.rank_upper,
            "method": hm.method,
        }
    report = {
        "command": "homology",
        "input": path,
        "complex": kind,
        "N": args.N,
        "top_dimension": p.dims[args.N],
        "degrees": degrees,
    }
    _emit(report, args)
    return 0


def cmd_fiber_square(args) -> int:
    path = args.paths[0]
    obj = load_path(path)
    ext = as_extension(obj)
    report = {"command": "fiber-square", "input": path}
    fsq, iso = fiber_square_of(ext)
    if iso is not None:
        report["enveloping_elements"] = len(iso.env.elements)
        report["enveloping_checks"] = {k: bool(v) for k, v in iso.checks.items()}
    report["dimension"] = fsq.dim
    report["trace"] = [render_scalar(fsq.trace_table[k])
                       if k in fsq.trace_table else "0"
                       for k in range(fsq.dim)]
    # fiber_square raises on any trace_not_tracial violation of its trace,
    # so a fiber square that got here is tracial
    report["tracial"] = True
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    path = args.paths[0]
    doc = load_path(path)
    if not isinstance(doc, dict) or doc.get("kind") != "verify_instance":
        raise InputError("verify needs a verify_instance document", path)
    theorem = doc.get("theorem")
    N = doc.get("N", args.N)
    if type(N) is not int or N < 1:
        raise InputError("N must be an integer at least 1, not %s"
                         % json.dumps(N), path)
    base = os.path.dirname(os.path.abspath(path))

    def loader(rel):
        return load_path(os.path.join(base, rel))

    def resolve(v):
        return loader(v) if isinstance(v, str) else parse_document(v, loader)

    def field(key):
        return _fields(doc, (key,), path)[key]

    if theorem == "compression":
        ext = as_extension(resolve(field("algebra")))
        index = {l: k for k, l in enumerate(ext.alg.labels)}
        p = _vec_from_pairs(field("projection"), index, path)
        rep = verify_compression(ext, p, N, args.extended_scope)
    elif theorem in ("directed_sum", "central_quadratic"):
        exts, weights = summands_from_doc(doc, loader, path)
        rep = verify_weighted_sum(theorem, exts, weights, N)
    elif theorem == "groupoid_equality":
        g = resolve(field("groupoid"))
        if not isinstance(g, FiniteGroupoid):
            raise InputError("groupoid_equality needs a groupoid", path)
        rep = verify_groupoid_equality(g, N)
    elif theorem == "residual":
        g = resolve(field("relation"))
        sigma = None
        if "cocycle" in doc:
            cdoc = doc["cocycle"]
            sigma = cocycle_from_doc(loader(cdoc) if isinstance(cdoc, str) else cdoc, g)
        rep = verify_residual(g, sigma, N)
    else:
        raise InputError("unknown theorem %r" % theorem, path)

    report = {
        "command": "verify",
        "theorem": rep.theorem,
        "input": path,
        "passed": rep.passed,
        "lhs": [str(v) for v in rep.lhs],
        "rhs": [str(v) for v in rep.rhs],
        "details": _stringify(rep.details),
    }
    if not rep.passed:
        report["discrepancy"] = [str(d) for d in rep.discrepancy()]
    _emit(report, args)
    return 0 if rep.passed else 1


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (bool, int)):
        return obj
    return str(obj)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="l2betti",
        description="Exact L2-Betti numbers of finite measured groupoids "
                    "and tracial extensions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, npaths="+"):
        p.add_argument("paths", nargs=npaths)
        p.add_argument("--N", type=int, default=4)
        p.add_argument("--format", dest="fmt", default="structured",
                       choices=("structured", "plain"))
        p.add_argument("--out", default=None)

    common(sub.add_parser("validate", help="check input documents"))
    pb = sub.add_parser("betti", help="Betti numbers of an input")
    common(pb, npaths=1)
    pipelines = pb.add_mutually_exclusive_group()
    pipelines.add_argument("--pipeline", choices=("hochschild", "sauer"), default=None)
    pipelines.add_argument("--both", action="store_true")
    pb.add_argument("--seed", type=int, default=0)
    ph = sub.add_parser("homology", help="per-degree dimensions and ranks")
    common(ph, npaths=1)
    ph.add_argument("--kind", default="l2",
                    choices=(*GEOMETRIC_FAMILIES, "l2", "algebra-bar"))
    common(sub.add_parser("fiber-square", help="build and check the fiber square"),
           npaths=1)
    pv = sub.add_parser("verify", help="verify a theorem instance")
    common(pv, npaths=1)
    pv.add_argument("--extended-scope", action="store_true")
    return ap


COMMANDS = {"validate": cmd_validate, "betti": cmd_betti,
            "homology": cmd_homology, "fiber-square": cmd_fiber_square,
            "verify": cmd_verify}


def run(args) -> int:
    """Run the parsed command line; returns the exit code."""
    try:
        if args.N < 1:
            raise InputError("degree cap N must be at least 1")
        if args.out:
            _check_out(args.out)
        return COMMANDS[args.command](args)
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except InternalError as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 3
    except (ValueError, AssertionError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
