"""Batch front door: parse input documents, run computations and
verification suites, emit deterministic reports.

Exit codes: 0 success (or verified equality), 1 verification discrepancy,
2 malformed input or precondition failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebras import Extension, validate_algebra, validate_cocycle
from .betti import betti_hochschild, betti_sauer, verify_theorem
from .complexes import geometric_complex, homology, l2_complex, bar_complex
from .fibersquare import fiber_square_of
from .fileio import (
    InputError, _fields, _vec_from_pairs, as_extension, cocycle_from_doc, load_path,
    parse_document, render_plain, render_structured, summands_from_doc,
)
from .groupoids import FiniteGroupoid, validate_groupoid
from .scalars import render_scalar


@dataclass
class RunConfig:
    command: str
    paths: list
    N: int = 4
    pipeline: str = None
    both: bool = False
    extended_scope: bool = False
    fmt: str = "structured"
    out: str = None
    seed: int = 0
    theorem: str = None
    kind: str = None

    def __post_init__(self):
        if self.N < 1:
            raise InputError("degree cap N must be at least 1")


def _emit(report: dict, config: RunConfig) -> None:
    text = (render_structured(report) if config.fmt == "structured"
            else render_plain(report))
    if config.out:
        with open(config.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _betti_values(table):
    return [str(Fraction(v)) for v in table.values]


def cmd_validate(config: RunConfig) -> int:
    results = {}
    status = 0
    for path in config.paths:
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
            if len(config.paths) < 2:
                raise InputError("a cocycle file needs its relation file "
                                 "passed alongside", path)
            rel = None
            for other in config.paths:
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
    _emit({"command": "validate", "results": results}, config)
    return status


def cmd_betti(config: RunConfig) -> int:
    path = config.paths[0]
    obj = load_path(path)
    report = {"command": "betti", "input": path, "N": config.N}
    status = 0
    pipeline = config.pipeline
    if pipeline is None:
        pipeline = ("both" if config.both or isinstance(obj, FiniteGroupoid)
                    else "hochschild")
    if pipeline == "both":
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("both pipelines need a groupoid input", path)
        ext = as_extension(obj)
        sau = betti_sauer(obj, config.N, ext=ext)
        hoch = betti_hochschild(ext, config.N, seed=config.seed)
        report["sauer"] = _betti_values(sau)
        report["hochschild"] = _betti_values(hoch)
        report["equal"] = sau.values == hoch.values
        report["meta"] = {"sauer": sau.meta, "hochschild": hoch.meta}
        if not report["equal"]:
            report["discrepancy"] = [str(Fraction(a) - Fraction(b))
                                     for a, b in zip(sau.values, hoch.values)]
            status = 1
    elif pipeline == "sauer":
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("the groupoid pipeline needs a groupoid input", path)
        t = betti_sauer(obj, config.N)
        report["sauer"] = _betti_values(t)
        report["meta"] = t.meta
    else:
        ext = as_extension(obj)
        t = betti_hochschild(ext, config.N, seed=config.seed)
        report["hochschild"] = _betti_values(t)
        report["meta"] = t.meta
    _emit(report, config)
    return status


def cmd_homology(config: RunConfig) -> int:
    path = config.paths[0]
    obj = load_path(path)
    kind = config.kind or "l2"
    if kind in ("nerve", "bar", "cyclic", "acyclic", "classifying"):
        if not isinstance(obj, FiniteGroupoid):
            raise InputError("geometric complexes need a groupoid input", path)
        if kind != "classifying":
            # the classifying complex validates through its convolution algebra
            rep = validate_groupoid(obj)
            if not rep.ok:
                raise ValueError("invalid groupoid: %s" % rep.violations[:3])
        p = geometric_complex(obj, kind, config.N)
    elif kind == "l2":
        ext = as_extension(obj)
        p = l2_complex(fiber_square_of(ext)[0], config.N)
    elif kind == "algebra-bar":
        ext = as_extension(obj)
        p = bar_complex(ext, config.N)
    else:
        raise InputError("unknown complex kind %r" % kind)
    degrees = {}
    for n in range(config.N):
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
        "N": config.N,
        "top_dimension": p.dims[config.N],
        "degrees": degrees,
    }
    _emit(report, config)
    return 0


def cmd_fiber_square(config: RunConfig) -> int:
    path = config.paths[0]
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
    # fiber_square raises on any trace_not_tracial violation that
    # validate_algebra finds, so a fiber square that got here is tracial
    report["tracial"] = True
    _emit(report, config)
    return 0


def cmd_verify(config: RunConfig) -> int:
    path = config.paths[0]
    doc = load_path(path)
    if not isinstance(doc, dict) or doc.get("kind") != "verify_instance":
        raise InputError("verify needs a verify_instance document", path)
    theorem = config.theorem or doc.get("theorem")
    n_default = int(doc.get("N", config.N))
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
        rep = verify_theorem("compression", ext=ext, p=p, N=n_default,
                             extended_scope=config.extended_scope)
    elif theorem == "directed_sum":
        exts, weights = summands_from_doc(doc, loader, path)
        rep = verify_theorem("directed_sum", extensions=exts, weights=weights,
                             N=n_default)
    elif theorem == "central_quadratic":
        exts, weights = summands_from_doc(doc, loader, path)
        rep = verify_theorem("central_quadratic", extensions=exts,
                             weights=weights, N=n_default)
    elif theorem == "groupoid_equality":
        g = resolve(field("groupoid"))
        if not isinstance(g, FiniteGroupoid):
            raise InputError("groupoid_equality needs a groupoid", path)
        rep = verify_theorem("groupoid_equality", groupoid=g, N=n_default)
    elif theorem == "residual":
        g = resolve(field("relation"))
        sigma = None
        if "cocycle" in doc:
            cdoc = doc["cocycle"]
            sigma = cocycle_from_doc(loader(cdoc) if isinstance(cdoc, str) else cdoc, g)
        rep = verify_theorem("residual", relation=g, sigma=sigma, N=n_default)
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
    _emit(report, config)
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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--extended-scope", action="store_true")

    common(sub.add_parser("validate", help="check input documents"))
    pb = sub.add_parser("betti", help="Betti numbers of an input")
    common(pb, npaths=1)
    pb.add_argument("--pipeline", choices=("hochschild", "sauer", "both"),
                    default=None)
    pb.add_argument("--both", action="store_true")
    ph = sub.add_parser("homology", help="per-degree dimensions and ranks")
    common(ph, npaths=1)
    ph.add_argument("--kind", default="l2",
                    choices=("nerve", "bar", "cyclic", "acyclic",
                             "classifying", "l2", "algebra-bar"))
    common(sub.add_parser("fiber-square", help="build and check the fiber square"),
           npaths=1)
    pv = sub.add_parser("verify", help="verify a theorem instance")
    common(pv, npaths=1)
    pv.add_argument("--theorem", default=None)
    return ap


def run(config: RunConfig) -> int:
    try:
        if config.command == "validate":
            return cmd_validate(config)
        if config.command == "betti":
            return cmd_betti(config)
        if config.command == "homology":
            return cmd_homology(config)
        if config.command == "fiber-square":
            return cmd_fiber_square(config)
        if config.command == "verify":
            return cmd_verify(config)
        raise InputError("unknown command %r" % config.command)
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except (ValueError, AssertionError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            paths=list(args.paths),
            N=args.N,
            pipeline=getattr(args, "pipeline", None),
            both=getattr(args, "both", False),
            extended_scope=args.extended_scope,
            fmt=args.fmt,
            out=args.out,
            seed=args.seed,
            theorem=getattr(args, "theorem", None),
            kind=getattr(args, "kind", None),
        )
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
