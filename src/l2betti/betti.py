"""Von Neumann dimension over tracial algebras and L2-Betti numbers.

The dimension of a finite module over a finite-dimensional tracial algebra
is a character, dim_A M = Tr_M rho(c^{-1}) with c the Casimir element of
the trace form (vn_dimension), computed exactly; at finite dimension the
weak closures coincide with the algebras themselves, which every report
records.  A seeded run cross-checks each value against the free-cover
formula on a reshuffled generating set (cover_dimension).  Betti numbers
run through two pipelines: the square-coefficient Hochschild complex over
the fiber square, and the classifying-complex Tor description over the
convolution algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebras import (
    Extension, TracialStarAlgebra, compression, convolution_algebra,
    convolution_star_algebra, normalizer_span, weighted_sum,
)
from .complexes import geometric_complex, homology, l2_complex
from .fibersquare import fiber_square_of, projection_pair_trace_identity
from .groupoids import FiniteGroupoid
from .linalg import GMatrix, LinearSolver, rank, vec_dot, vec_eq
from .scalars import ONE, ZERO


@dataclass
class FiniteModule:
    """Finite-dimensional module: actions[a] is the matrix rho(e_a)."""

    algebra: TracialStarAlgebra
    dim: int
    actions: object             # list, or a mapping from basis index


def vn_dimension(alg: TracialStarAlgebra, module: FiniteModule) -> Fraction:
    """Murray-von Neumann dimension of a finite module: Tr_M rho(c^{-1}).

    Let e^a be the dual basis of e_a under (x, y) -> tr(xy) and
    c = sum_a e_a e^a the Casimir element (TracialStarAlgebra.
    inverse_casimir, which takes e_a* and the GNS-dual basis).  Write
    A = (+) M_{n_i} with tr = sum t_i Tr_i, t_i the trace of a minimal
    projection of block i.  The matrix units E_pq of block i have
    tr(E_pq E_rs) = t_i [q = r][p = s], so the dual of E_pq is E_qp / t_i
    and c = sum_i sum_{p,q} E_pq E_qp / t_i = sum_i (n_i / t_i) z_i, z_i the
    central projections.  c is basis-independent, central and invertible.
    A module M = (+) m_i C^{n_i} has Tr_M rho(z_i) = m_i n_i, hence
    Tr_M rho(c^{-1}) = sum_i m_i t_i = dim_A M.  With y = c^{-1} the sum is
    sum_a y_a Tr rho(e_a), so only the action matrices of the support of y
    are read.  rho must be a unital representation, and the module a
    module over alg.
    """
    if module.algebra is not alg:
        raise ValueError("module is over a different algebra")
    y = alg.inverse_casimir()
    if module.dim == 0:
        return Fraction(0)
    total = ZERO
    for a, ya in y.items():
        cols = module.actions[a].col
        total = total + ya * sum((cols[j].get(j, ZERO) for j in range(module.dim)), ZERO)
    if not total.is_real() or total.re < 0:
        raise AssertionError("von Neumann dimension is not a nonnegative real")
    return total.re


def _blockwise(f, v: dict, fdim: int) -> dict:
    """Apply f to each block of fdim coordinates of v."""
    blocks = {}
    for idx, x in v.items():
        blocks.setdefault(idx // fdim, {})[idx % fdim] = x
    out = {}
    for blk, sub in blocks.items():
        for r, x in f(sub).items():
            out[blk * fdim + r] = x
    return out


def cover_dimension(alg: TracialStarAlgebra, module: FiniteModule, generators):
    """Exact trace of the module's realizing projection in a free cover, as
    a Gaussian rational.

    The cover C: A^k -> M sends the unit in coordinate i to generators[i].
    Its kernel is cut out by the block trace form G = (+) gns_gram, and the
    dimension is the summed diagonal pairing of the complementary
    projection P against the coordinate units.  The complement of ker C is
    W = G^{-1} im C*, so rank W = rank C = dim M once the generators
    generate (checked) and G is nondegenerate (the solver).  ker C is a
    submodule because rho is a representation, and the left regular action
    is a *-action for the trace form, <a w | v> = <w | a* v>, so the
    complement of a submodule is a submodule and P commutes with the
    algebra.  Neither is checked again here: vn_dimension assumes the same
    of rho, and this formula serves as its seeded cross-check
    (generator_independence_check).
    """
    solver = LinearSolver(alg.gns_gram())
    k = len(generators)
    fdim = alg.dim
    # free cover columns: (i, a) -> action(e_a) g_i
    cover = GMatrix.zero(module.dim, k * fdim)
    for i, gvec in enumerate(generators):
        for a in range(fdim):
            col = module.actions[a].apply(gvec)
            for r, x in col.items():
                cover.col[i * fdim + a][r] = x
    if rank(cover) != module.dim:
        raise ValueError("generators do not generate the module")
    adj = cover.adjoint()
    w = GMatrix.from_cols(k * fdim, [_blockwise(solver.solve, adj.column(j), fdim)
                                     for j in range(adj.cols)])

    def g_apply(v):
        return _blockwise(alg.gns_gram().apply, v, fdim)

    gw = GMatrix.from_cols(k * fdim, [g_apply(w.column(j)) for j in range(w.cols)])
    small_solver = LinearSolver(w.adjoint().mul(gw))          # W* G W

    total = ZERO
    for i in range(k):
        e_i = {i * fdim + u: c for u, c in alg.unit.items()}
        s = small_solver.solve(w.adjoint().apply(g_apply(e_i)))  # W* G e_i
        total = total + vec_dot(e_i, g_apply(w.apply(s)))       # <e_i | P e_i>
    return total


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    values: list
    meta: dict = field(default_factory=dict)


def generator_independence_check(alg, module, base_value, seed: int) -> bool:
    """The free-cover dimension on a seeded permuted-and-duplicated
    generating set, against the character base_value."""
    import random

    rng = random.Random(seed)
    gens = [{i: ONE} for i in range(module.dim)]
    rng.shuffle(gens)
    gens.append(dict(gens[rng.randrange(len(gens))]))
    return cover_dimension(alg, module, gens) == base_value


def _homology_dimensions(cx, coeff: TracialStarAlgebra, N: int, seed=None):
    """Von Neumann dimension over coeff of each homology module of cx in
    degrees 0..N-1, with each degree's rank method and, when seeded, whether
    the free-cover cross-check ran (it raises if a dimension moves); only
    that check builds the action matrices outside the support of c^{-1}."""
    values = []
    methods = []
    checked = False
    for n in range(N):
        hm = homology(cx, n)
        methods.append(hm.method)
        if hm.dim == 0:
            values.append(Fraction(0))
            continue
        mod = FiniteModule(coeff, hm.dim, hm.action_matrices())
        values.append(vn_dimension(coeff, mod))
        if seed is not None:
            mod = FiniteModule(coeff, hm.dim, [hm.action_matrix(k) for k in range(coeff.dim)])
            if not generator_independence_check(coeff, mod, values[-1], seed):
                raise AssertionError(
                    "free-cover dimension on a reshuffled generating set "
                    "differs from the character")
            checked = True
    return values, methods, checked


def betti_hochschild(ext: Extension, N: int, seed: int = None) -> BettiTable:
    """Betti numbers through the square-coefficient Hochschild pipeline."""
    fsq, _ = fiber_square_of(ext)
    values, methods, checked = _homology_dimensions(l2_complex(fsq, N), fsq,
                                                    N, seed)
    meta = {
        "weak_closure": "finite dimensional: W*(A) = A",
        "fiber_square_dim": fsq.dim,
        "rank_methods": methods,
        "extension": ext.name,
    }
    if seed is not None:
        meta["generator_independence"] = {"seed": seed, "checked": checked}
    return BettiTable(values, meta)


def betti_sauer(g: FiniteGroupoid, N: int,
                alg: TracialStarAlgebra = None) -> BettiTable:
    """Betti numbers through the classifying complex over the convolution
    *-algebra alg of g, built by geometric_complex when none is given; at
    finite scale the enveloping von Neumann algebra is the algebra itself,
    so Tor is computed against the algebra."""
    cls = geometric_complex(g, "classifying", N, coeff=alg)
    values, methods, _ = _homology_dimensions(cls, cls.coeff, N)
    return BettiTable(values, {
        "weak_closure": "finite dimensional: NG = CG",
        "resolution": "classifying complex",
        "sidedness": "left modules over the convolution algebra",
        "groupoid": g.name,
        "rank_methods": methods,
    })


# ---------------------------------------------------------------------------
# theorem verification drivers


@dataclass
class TheoremReport:
    theorem: str
    passed: bool
    lhs: list
    rhs: list
    details: dict = field(default_factory=dict)

    def discrepancy(self):
        return [l - r for l, r in zip(self.lhs, self.rhs)]


def _in_center_of_sub(ext: Extension, p: dict) -> bool:
    b = ext.expectation_sub(p)
    if not vec_eq(ext.embed.apply(b), p):
        return False
    B = ext.sub
    return all(vec_eq(B.mul(b, {k: ONE}), B.mul({k: ONE}, b))
               for k in range(B.dim))


def verify_compression(ext: Extension, p: dict, N: int,
                       extended_scope=False) -> TheoremReport:
    # compression checks that p is a projection commuting with B
    comp = compression(ext, p)
    central = _in_center_of_sub(ext, p)
    factor_case = ext.alg.is_factor()
    if not (central or factor_case or extended_scope):
        raise ValueError(
            "compression beyond a factor needs p central in B, or the "
            "extended-scope flag")

    ep = ext.expectation_sub(p)
    denom_g = ext.sub.trace(ext.sub.mul(ep, ep))
    if not denom_g.is_real():
        raise AssertionError("tr_B(E(p)^2) is not real")
    denom = denom_g.re
    lhs = betti_hochschild(comp, N)
    base = betti_hochschild(ext, N)
    rhs = [v / denom for v in base.values]
    tr_pair, tr_exp = projection_pair_trace_identity(ext, p)
    details = {
        "tr_B(E(p)^2)": str(denom),
        "trace_identity": tr_pair == tr_exp,
        "p_central_in_B": central,
        "ambient_is_factor": factor_case,
        "scope": "theorem" if (central or factor_case) else "extended (remark)",
        "base_table": base.values,
    }
    passed = lhs.values == rhs and tr_pair == tr_exp
    return TheoremReport("compression", passed, lhs.values, rhs, details)


# theorem -> (mode of the weighted sum, power of the weights in its law)
WEIGHTED_SUMS = {"directed_sum": ("componentwise", 1),
                 "central_quadratic": ("central", 2)}


def verify_weighted_sum(theorem: str, extensions, weights, N: int) -> TheoremReport:
    """Betti numbers of a weighted sum against the weighted Betti numbers of
    its summands: weights w for directed sums, w^2 for central sums."""
    mode, power = WEIGHTED_SUMS[theorem]
    ws = [Fraction(w) for w in weights]
    lhs = betti_hochschild(weighted_sum(extensions, ws, mode=mode), N)
    parts = [betti_hochschild(e, N) for e in extensions]
    rhs = [sum((w ** power * t.values[n] for w, t in zip(ws, parts)), Fraction(0))
           for n in range(N)]
    details = {"weights": [str(w) for w in ws],
               "summands": [t.values for t in parts]}
    return TheoremReport(theorem, lhs.values == rhs, lhs.values, rhs, details)


def verify_groupoid_equality(g: FiniteGroupoid, N: int,
                             seed: int = None) -> TheoremReport:
    """Sauer's groupoid Betti numbers against the Hochschild Betti numbers
    of the convolution algebra; a seed adds the generator-independence check
    to the Hochschild side."""
    ext = convolution_algebra(g)
    sau = betti_sauer(g, N, alg=ext.alg)
    hoch = betti_hochschild(ext, N, seed=seed)
    details = {"groupoid": g.name, "sauer_meta": sau.meta,
               "hochschild_meta": hoch.meta}
    return TheoremReport("groupoid_equality", sau.values == hoch.values,
                         sau.values, hoch.values, details)


def verify_residual(r: FiniteGroupoid, sigma, N: int) -> TheoremReport:
    """Betti numbers of the normalizing extension N(A/B)/B of the (possibly
    twisted) relation algebra, against the groupoid Betti numbers; the
    finite-scale instance exercises the proof mechanism rather than the
    factor-and-Cartan hypothesis."""
    ext = convolution_algebra(r, sigma)
    nabla_ext = normalizer_span(ext, ext.alg.unitary_family)
    nabla = betti_hochschild(nabla_ext, N)
    # the Sauer side is untwisted: it reuses ext.alg only when ext is
    # untwisted, and r is validated once, by convolution_algebra above
    sau = betti_sauer(r, N, alg=ext.alg if sigma is None
                      else convolution_star_algebra(r))
    details = {
        "twisted": sigma is not None,
        "note": "finite-scale instance of the proof mechanism; no diffuse "
                "Cartan subalgebra exists at finite dimension",
        "normalizing_dim": nabla_ext.alg.dim,
    }
    return TheoremReport("residual", nabla.values == sau.values,
                         nabla.values, sau.values, details)
