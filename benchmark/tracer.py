"""Per-layer spans and exact work counts, installed from outside l2betti.

The tracer replaces public functions and methods of the program's modules
with timing wrappers for as long as it is installed.  A module-level
function is also rebound in every l2betti module that imported it with a
from-import (``betti.homology``, ``cli.betti_hochschild``,
``fibersquare.append_level``, ...); without that, calls through the
imported name would bypass the span.  Methods are patched on their class,
which every importer shares.

Self time of a span is its duration minus the time covered by its child
spans.  A span re-entered while already open (a recursive call, or one
wrapped function calling another of the same span) counts a call and self
time, but adds inclusive time only at the outermost entry, so ``incl_s``
never counts an interval twice.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> the "module:attribute" targets it wraps (attribute may be
# "Class.method")
SPANS = {
    "tensor.append_level": ["tensor:append_level"],
    "tensor.insert_unit": ["tensor:Tower.insert_unit", "tensor:Tower.prepend_unit"],
    "fibersquare.balanced_tensor": ["fibersquare:balanced_tensor"],
    "fibersquare.fiber_square": ["fibersquare:fiber_square"],
    "fibersquare.groupoid_fiber_square": ["fibersquare:groupoid_fiber_square"],
    "complexes.hochschild_complex": ["complexes:hochschild_complex"],
    "complexes.l2_complex": ["complexes:l2_complex"],
    "complexes.geometric_complex": ["complexes:geometric_complex"],
    "complexes.verify_presimplicial": [
        "complexes:PresimplicialModule.verify_presimplicial"],
    "complexes.check_d_squared": ["complexes:ChainComplex.check_d_squared"],
    "complexes.homotopy_verify": ["complexes:ContractingHomotopy.verify"],
    "complexes.homology": ["complexes:homology"],
    "complexes.action_matrices": ["complexes:HomologyModule.action_matrices"],
    "betti.vn_dimension": ["betti:vn_dimension"],
    "betti.betti_hochschild": ["betti:betti_hochschild"],
    "betti.betti_sauer": ["betti:betti_sauer"],
    "linalg.mul": ["linalg:GMatrix.mul"],
    "linalg.eq": ["linalg:GMatrix.__eq__"],
    "linalg.elim": ["linalg:kernel_basis", "linalg:rank", "linalg:invert",
                    "linalg:solve", "linalg:LinearSolver.__init__",
                    "linalg:LinearSolver.solve"],
    "algebras.build": ["algebras:convolution_algebra",
                       "algebras:conditional_expectation", "algebras:compression",
                       "algebras:weighted_sum", "algebras:normalizer_span",
                       "algebras:validate_algebra"],
    "groupoids.carrier": ["groupoids:geometric_carrier", "groupoids:enveloping"],
    "fileio.load": ["fileio:load_path", "fileio:parse_document"],
    "fileio.render": ["fileio:render_structured"],
    "cli.command": ["cli:run"],
}

# exact counts; each repeats from run to run for the same inputs
COUNTS = [
    "scalars.ops",            # GScalar *, +, -, unary -, inverse
    "linalg.reduce.calls",    # Echelon.reduce
    "linalg.elim.cols",       # columns fed to the linalg.elim functions
    "tensor.ambient_dim",     # sum of prev.dim * A.dim over append_level
    "tensor.kept_dim",        # sum of the resulting Level.dim
    "fibersquare.dim",        # sum of fiber square dimensions built
    "fibersquare.candidates",  # SpanBasis.add/contains inside fiber_square
    "complexes.chain_dim",    # sum of chain-space dimensions built
    "complexes.boundary_nnz",  # sum of nnz over the boundary maps d_n
    "complexes.homotopy_degrees",  # sum of upto + 1 over homotopy_verify
    "complexes.split_degrees",     # homology degrees taking the split path
    "complexes.elim_degrees",      # homology degrees taking elimination
]

# ratios derived from the counts: name -> (numerator, denominator)
RATIOS = {
    "tensor.keep_ratio": ("tensor.kept_dim", "tensor.ambient_dim"),
    "fibersquare.accept_ratio": ("fibersquare.dim", "fibersquare.candidates"),
}

SCALAR_OPS = ("__mul__", "__add__", "__sub__", "__neg__", "inverse")

FIBER_SQUARE = "fibersquare.fiber_square"


def program_modules():
    """The loaded l2betti modules, by short name."""
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("l2betti.")}


class Tracer:
    """Span and count recorder over one installed interval.

    Usage: ``tracer.install()`` after l2betti is imported, run the work,
    then ``tracer.uninstall()``; ``metrics()`` gives the per-layer values.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, self, incl
        self.counts = dict.fromkeys(COUNTS, 0)
        self.window_s = 0.0
        self._depth = dict.fromkeys(SPANS, 0)
        self._stack = []          # per open span: [seconds in child spans]
        self._patches = []        # (owner, attribute, original)
        self._t_install = None

    # -- installation

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = program_modules()
        probes = self._probes()
        for span, targets in SPANS.items():
            for target in targets:
                modname, attr = target.split(":")
                module = mods[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(span, original,
                                                        probes.get(target)))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(span, original, probes.get(target))
                    for other in mods.values():
                        for name, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, name, wrapper)
        counted = [(mods["scalars"].GScalar, SCALAR_OPS, "scalars.ops", None),
                   (mods["linalg"].Echelon, ["reduce"], "linalg.reduce.calls", None),
                   (mods["algebras"].SpanBasis, ["add", "contains"],
                    "fibersquare.candidates", FIBER_SQUARE)]
        for owner, meths, key, inside in counted:
            for meth in meths:
                self._patch(owner, meth,
                            self._counted(owner.__dict__[meth], key, inside))
        self._t_install = perf_counter()

    def uninstall(self):
        self.window_s += perf_counter() - self._t_install
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers

    def _wrap(self, span, fn, probe):
        stats = self.stats[span]
        depth = self._depth
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[span] -= 1
                stats[0] += 1
                stats[1] += dur - frame[0]
                if not depth[span]:
                    stats[2] += dur
                if stack:
                    stack[-1][0] += dur
            if probe is not None:
                # probe time is tracing overhead: keep it out of the
                # caller's self time
                p0 = perf_counter()
                probe(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - p0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _counted(self, fn, key, inside=None):
        """Count calls to fn under ``key``; with ``inside``, only calls made
        while that span is open."""
        counts = self.counts
        depth = self._depth

        def wrapper(*args):
            if inside is None or depth[inside]:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def _probes(self):
        c = self.counts

        def append_level(args, level):
            c["tensor.ambient_dim"] += args[0].dim * args[1].alg.dim
            c["tensor.kept_dim"] += level.dim

        def fiber_square(args, fsq):
            c["fibersquare.dim"] += fsq.dim

        def chain_spaces(args, module):
            c["complexes.chain_dim"] += sum(module.dims)

        def d_squared(args, result):
            c["complexes.boundary_nnz"] += sum(m.nnz() for m in args[0].d.values())

        def homotopy(args, result):
            c["complexes.homotopy_degrees"] += args[2] + 1

        def homology(args, hm):
            key = "complexes.split_degrees" if hm.method == "split" \
                else "complexes.elim_degrees"
            c[key] += 1

        def elim_cols(args, result):
            c["linalg.elim.cols"] += args[0].cols

        def solver_cols(args, result):
            c["linalg.elim.cols"] += args[1].cols

        return {
            "tensor:append_level": append_level,
            "fibersquare:fiber_square": fiber_square,
            "complexes:hochschild_complex": chain_spaces,
            "complexes:geometric_complex": chain_spaces,
            "complexes:ChainComplex.check_d_squared": d_squared,
            "complexes:ContractingHomotopy.verify": homotopy,
            "complexes:homology": homology,
            "linalg:kernel_basis": elim_cols,
            "linalg:rank": elim_cols,
            "linalg:invert": elim_cols,
            "linalg:solve": elim_cols,
            "linalg:LinearSolver.__init__": solver_cols,
        }

    # -- results

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for span, (calls, self_s, incl_s) in self.stats.items():
            out[span + ".calls"] = (calls, "count")
            out[span + ".self_s"] = (self_s, "s")
            out[span + ".incl_s"] = (incl_s, "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        for name, (num, den) in RATIOS.items():
            d = self.counts[den]
            out[name] = (self.counts[num] / d if d else 0.0, "ratio")
        return out

    def exact_counts(self):
        """Everything in ``metrics()`` that must repeat exactly."""
        return {name: v for name, (v, unit) in self.metrics().items()
                if unit != "s"}
