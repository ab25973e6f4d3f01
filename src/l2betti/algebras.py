"""Finite-dimensional tracial *-algebras and tracial extensions.

An algebra is given by structure constants over a distinguished basis, an
antilinear star, a normalized trace, and (optionally) a canonical family of
unitaries used to generate fiber squares and normalizing algebras.  An
extension bundles an ambient algebra with an embedded unital *-subalgebra
and the trace-preserving conditional expectation onto it, realized as the
orthogonal projection for the trace inner product <a|b> = tr(a* b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .groupoids import (
    FiniteGroupoid, elementary_bisections, is_equivalence_relation, validate_groupoid,
)
from .linalg import (
    Echelon, GMatrix, LinearSolver, is_positive_semidefinite, kernel_basis,
    projection_coordinates, rank, solve, vec_add, vec_axpy, vec_eq, vec_scale,
    vec_sub,
)
from .scalars import FOURTH_ROOTS, GScalar, MINUS_ONE, ONE, ZERO, gs


class SpanBasis:
    """Tracked echelon span whose basis is the independent inserted vectors."""

    def __init__(self):
        self.ech = Echelon(track=True)
        self.vectors = []
        self._orig_to_pos = {}

    def add(self, v: dict) -> bool:
        piv, _ = self.ech.insert(v)
        if piv is None:
            return False
        self._orig_to_pos[self.ech.n_inserted - 1] = len(self.vectors)
        self.vectors.append(dict(v))
        return True

    @property
    def dim(self):
        return len(self.vectors)

    def coords(self, v: dict):
        combo = self.ech.coords(v)
        if combo is None:
            return None
        return {self._orig_to_pos[g]: c for g, c in combo.items()}

    def contains(self, v: dict) -> bool:
        return self.ech.contains(v)


def canonicalized_span(vectors) -> SpanBasis:
    """Span basis rebuilt from the echelon rows: sparser, deterministic."""
    tmp = Echelon()
    for v in vectors:
        tmp.insert(v)
    out = SpanBasis()
    for p in sorted(tmp.pivots):
        out.add(tmp.pivots[p])
    return out


def span_structure(span: SpanBasis, product, star, trace, unit):
    """Structure constants of the *-algebra spanned by span.vectors.

    product(i, j), star(i) and trace(i) give the ambient product, star and
    trace of basis vectors i and j, and unit is the ambient unit.  Returns
    (mult, star, trace, unit) in coordinates over span, trace holding the
    nonzero values only.  A unit, star or product outside the span raises
    ValueError naming the operation; stars are read before products.
    """
    def coords(v, failure):
        c = span.coords(v)
        if c is None:
            raise ValueError("span " + failure)
        return c

    n = span.dim
    unit_c = coords(unit, "does not contain the unit")
    star_c = [coords(star(i), "is not star-closed") for i in range(n)]
    mult = [[coords(product(i, j), "is not closed under multiplication")
             for j in range(n)] for i in range(n)]
    traces = {}
    for i in range(n):
        t = trace(i)
        if not t.is_zero():
            traces[i] = t
    return mult, star_c, traces, unit_c


def close_under_products(n: int, extend):
    """Close a span under products, given that its first n basis vectors
    generate it as an algebra and their span contains 1.

    extend(g, k) adds the product of generator g (g < n) and basis vector k
    to the span and returns whether the span grew.  Every word in the
    generators is a generator times a shorter word, so multiplying on the
    left by the generators, each round only the vectors new in the last
    round, reaches the span of all words; that span contains 1 and is
    closed under products.
    """
    size = n
    frontier = range(n)
    while frontier:
        start = size
        for k in frontier:
            for g in range(n):
                if extend(g, k):
                    size += 1
        frontier = range(start, size)


class TracialStarAlgebra:
    """*-algebra with structure constants, star, and a normalized trace."""

    def __init__(self, labels, mult, star, trace, unit, name="A",
                 unitary_family=None):
        self.labels = list(labels)
        self.mult = mult                    # mult[i][j]: sparse product vector
        self.star_table = star              # star[i]: sparse vector
        self.trace_table = trace            # {i: GScalar}
        self.unit = unit                    # sparse vector
        self.name = name
        self.unitary_family = unitary_family or []
        self._gram = None
        self._casimir_inv = None
        self._index = {l: k for k, l in enumerate(self.labels)}

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def mul(self, u: dict, v: dict) -> dict:
        out = {}
        for i, a in u.items():
            row = self.mult[i]
            for j, b in v.items():
                vec_axpy(out, a * b, row[j])
        return out

    def star(self, u: dict) -> dict:
        out = {}
        for i, a in u.items():
            vec_axpy(out, a.conj(), self.star_table[i])
        return out

    def trace(self, u: dict) -> GScalar:
        acc = ZERO
        for i, a in u.items():
            t = self.trace_table.get(i)
            if t is not None:
                acc = acc + a * t
        return acc

    def inner(self, u: dict, v: dict) -> GScalar:
        return self.trace(self.mul(self.star(u), v))

    def gns_gram(self) -> GMatrix:
        if self._gram is None:
            g = GMatrix.zero(self.dim, self.dim)
            for j in range(self.dim):
                for i in range(self.dim):
                    x = self.inner({i: ONE}, {j: ONE})
                    if not x.is_zero():
                        g.col[j][i] = x
            self._gram = g
        return self._gram

    def inverse_casimir(self) -> dict:
        """c^{-1} for the Casimir element c = sum_b e_b* f_b of the trace
        form, f the GNS-dual basis (<e_a | f_b> = delta_ab, so f_b is dual
        to e_b* under (x, y) -> tr(xy)); computed once.  c is invertible
        exactly when the algebra is semisimple (Higman); betti.vn_dimension
        reads the dimension off it."""
        if self._casimir_inv is None:
            try:
                solver = LinearSolver(self.gns_gram())
            except ValueError:
                raise ValueError(
                    "trace form is degenerate: algebra is not semisimple") from None
            c = {}
            for b in range(self.dim):
                c = vec_add(c, self.mul(self.star({b: ONE}), solver.solve({b: ONE})))
            y = solve(GMatrix(self.dim, self.dim,
                              [self.mul(c, {j: ONE}) for j in range(self.dim)]), self.unit)
            if y is None:
                raise ValueError(
                    "Casimir element is not invertible: algebra is not semisimple")
            self._casimir_inv = y
        return self._casimir_inv

    def is_unitary(self, u: dict) -> bool:
        return (vec_eq(self.mul(self.star(u), u), self.unit)
                and vec_eq(self.mul(u, self.star(u)), self.unit))

    def is_projection(self, p: dict) -> bool:
        return vec_eq(self.star(p), p) and vec_eq(self.mul(p, p), p)

    def center_basis(self):
        """Basis of the center, via the kernel of all commutator maps."""
        n = self.dim
        stacked = GMatrix.zero(n * n, n)
        for j in range(n):
            for i in range(n):
                comm = vec_sub(self.mul({i: ONE}, {j: ONE}), self.mul({j: ONE}, {i: ONE}))
                for r, x in comm.items():
                    stacked.col[j][r + i * n] = x
        return kernel_basis(stacked)

    def is_factor(self) -> bool:
        return self.center_basis().cols == 1

    def __repr__(self):
        return "TracialStarAlgebra(%s, dim=%d)" % (self.name, self.dim)


@dataclass
class AlgebraReport:
    ok: bool
    violations: list
    semisimple: bool

    def __bool__(self):
        return self.ok


def validate_algebra(a: TracialStarAlgebra) -> AlgebraReport:
    """Exact verification of the tracial *-algebra axioms.

    Unit, associativity (on all basis triples), star, trace
    (trace_violations) and the GNS form are checked.  Semisimplicity is
    certified by nondegeneracy of the trace form.
    """
    bad = []
    n = a.dim
    basis = [{i: ONE} for i in range(n)]

    for i in range(n):
        if not vec_eq(a.mul(a.unit, basis[i]), basis[i]):
            bad.append(("left_unit", a.labels[i]))
        if not vec_eq(a.mul(basis[i], a.unit), basis[i]):
            bad.append(("right_unit", a.labels[i]))

    for i in range(n):
        for j in range(n):
            ij = a.mul(basis[i], basis[j])
            for k in range(n):
                if not vec_eq(a.mul(ij, basis[k]), a.mul(basis[i], a.mul(basis[j], basis[k]))):
                    bad.append(("associativity", a.labels[i], a.labels[j], a.labels[k]))

    for i in range(n):
        if not vec_eq(a.star(a.star(basis[i])), basis[i]):
            bad.append(("star_involutive", a.labels[i]))
    for i in range(n):
        for j in range(n):
            lhs = a.star(a.mul(basis[i], basis[j]))
            rhs = a.mul(a.star(basis[j]), a.star(basis[i]))
            if not vec_eq(lhs, rhs):
                bad.append(("star_antimultiplicative", a.labels[i], a.labels[j]))

    bad += trace_violations(a)

    gram = a.gns_gram()
    if gram != gram.adjoint():
        bad.append(("gns_not_hermitian",))
        semisimple = False
    else:
        psd = is_positive_semidefinite(gram)
        nondeg = rank(gram) == n
        if not psd or not nondeg:
            bad.append(("gns_not_positive_definite", "psd=%s" % psd, "nondegenerate=%s" % nondeg))
        semisimple = nondeg
    return AlgebraReport(not bad, bad, semisimple)


def trace_violations(a: TracialStarAlgebra) -> list:
    """Violations of tr(1) = 1 and of tr(e_i e_j) = tr(e_j e_i) on every
    ordered basis pair, as validate_algebra reports them."""
    bad = []
    if a.trace(a.unit) != ONE:
        bad.append(("trace_normalization", str(a.trace(a.unit))))
    ordered = sorted(p for i, j in trace_defects(a) for p in ((i, j), (j, i)))
    return bad + [("trace_not_tracial", a.labels[i], a.labels[j]) for i, j in ordered]


def trace_defects(a: TracialStarAlgebra):
    """The basis pairs (i, j), j < i, with tr(e_i e_j) != tr(e_j e_i), i
    ascending and then j: each unordered pair compared once, which by
    bilinearity is traciality."""
    mult, tr = a.mult, a.trace
    return ((i, j) for i in range(a.dim) for j in range(i)
            if tr(mult[i][j]) != tr(mult[j][i]))


# ---------------------------------------------------------------------------
# extensions


_UNREAD = object()


class Extension:
    """Tracial extension: ambient algebra, embedded subalgebra, expectation."""

    def __init__(self, alg: TracialStarAlgebra, sub: TracialStarAlgebra,
                 embed: GMatrix, expect: GMatrix, name="A/B", groupoid=None):
        self.alg = alg
        self.sub = sub
        self.embed = embed            # dimA x dimB
        self.expect = expect          # dimB x dimA
        self.name = name
        self.groupoid = groupoid      # of which A is the convolution algebra, or None
        self._sandwich_memo = {}
        self._sub_trace = [alg.trace(embed.column(k)) for k in range(sub.dim)]
        self._grading = _UNREAD
        self._monomial = _UNREAD

    def iota(self, bvec: dict) -> dict:
        return self.embed.apply(bvec)

    def expectation_sub(self, avec: dict) -> dict:
        return self.expect.apply(avec)

    def expectation(self, avec: dict) -> dict:
        return self.embed.apply(self.expect.apply(avec))

    def sub_trace(self, bvec: dict) -> GScalar:
        acc = ZERO
        for k, c in bvec.items():
            acc = acc + c * self._sub_trace[k]
        return acc

    def sandwich(self, a_idx: int, b_idx: int) -> GMatrix:
        """The map g -> E(e_a^* iota(g) e_b) from B to B, as a matrix."""
        key = (a_idx, b_idx)
        m = self._sandwich_memo.get(key)
        if m is None:
            A = self.alg
            astar = A.star({a_idx: ONE})
            cols = []
            for k in range(self.sub.dim):
                mid = A.mul(astar, A.mul(self.embed.column(k), {b_idx: ONE}))
                cols.append(self.expect.apply(mid))
            m = GMatrix.from_cols(self.sub.dim, cols)
            self._sandwich_memo[key] = m
        return m

    def grading(self):
        """(t, s) with e_a = p_{t[a]} e_a p_{s[a]} for every basis vector
        e_a of A, when the basis of B is its minimal projections p_x
        (orthogonal projections summing to 1); None otherwise.  Read once
        from the structure constants."""
        if self._grading is _UNREAD:
            self._grading = self._read_grading()
        return self._grading

    def _read_grading(self):
        A, B = self.alg, self.sub
        n = B.dim
        if not vec_eq(B.unit, {x: ONE for x in range(n)}):
            return None
        for x in range(n):
            if not vec_eq(B.star_table[x], {x: ONE}):
                return None
            for y in range(n):
                if not vec_eq(B.mult[x][y], {x: ONE} if x == y else {}):
                    return None
        proj = [self.embed.column(x) for x in range(n)]

        def support(products, ea):
            # the one x with p_x e_a = e_a (or e_a p_x = e_a); every other
            # product must vanish
            hit = None
            for x, v in enumerate(products):
                if vec_eq(v, ea):
                    if hit is not None:
                        return None
                    hit = x
                elif not vec_eq(v, {}):
                    return None
            return hit

        t, s = [], []
        for a in range(A.dim):
            ea = {a: ONE}
            ta = support([A.mul(p, ea) for p in proj], ea)
            sa = support([A.mul(ea, p) for p in proj], ea)
            if ta is None or sa is None:
                return None
            t.append(ta)
            s.append(sa)
        return t, s

    def monomial(self):
        """The product table of a monomial basis, or None.

        The basis is monomial when every product e_a e_b is 0 or +-1 times
        one basis vector and 1 is a sum of basis vectors with signs +-1.
        Then Monomial.idx[a][b] is the index of e_a e_b (None for 0),
        Monomial.sign[a][b] its sign (sign is None when every sign is +1),
        and Monomial.unit the terms (u, +-1) of 1.  Read once from the
        structure constants, as grading() is."""
        if self._monomial is _UNREAD:
            self._monomial = _read_monomial(self.alg)
        return self._monomial

    def validate(self) -> AlgebraReport:
        """Check that B embeds as a unital *-subalgebra and that E is the
        identity on B, B-bimodular and trace-preserving.

        That makes E the trace-orthogonal projection onto B with no further
        check: for b in B and a in A, <b, a - E a> = tr(b* a) - tr(b* E a)
        = tr(b* a) - tr(E(b* a)) = 0.
        """
        bad = []
        A, B = self.alg, self.sub
        # B embeds as a unital *-subalgebra and E restricted to B is the identity
        if not vec_eq(self.iota(B.unit), A.unit):
            bad.append(("sub_not_unital",))
        for k in range(B.dim):
            bk = self.embed.column(k)
            if not vec_eq(self.expectation(bk), bk):
                bad.append(("expectation_not_identity_on_sub", B.labels[k]))
            if not vec_eq(self.expectation(A.star(bk)), A.star(bk)):
                bad.append(("sub_not_star_closed", B.labels[k]))
        # embedding respects products, star and trace
        for k in range(B.dim):
            for l in range(B.dim):
                lhs = A.mul(self.embed.column(k), self.embed.column(l))
                rhs = self.iota(B.mul({k: ONE}, {l: ONE}))
                if not vec_eq(lhs, rhs):
                    bad.append(("embedding_not_multiplicative", B.labels[k], B.labels[l]))
        for k in range(B.dim):
            if not vec_eq(A.star(self.embed.column(k)), self.iota(B.star({k: ONE}))):
                bad.append(("embedding_not_star", B.labels[k]))
            if A.trace(self.embed.column(k)) != B.trace({k: ONE}):
                bad.append(("embedding_not_trace_preserving", B.labels[k]))
        # trace-preserving expectation
        for j in range(A.dim):
            if A.trace({j: ONE}) != B.trace(self.expectation_sub({j: ONE})):
                bad.append(("expectation_not_trace_preserving", A.labels[j]))
        # bimodularity on basis triples
        for k in range(B.dim):
            bk = self.embed.column(k)
            for j in range(A.dim):
                for l in range(B.dim):
                    bl = self.embed.column(l)
                    lhs = self.expectation(A.mul(bk, A.mul({j: ONE}, bl)))
                    rhs = A.mul(bk, A.mul(self.expectation({j: ONE}), bl))
                    if not vec_eq(lhs, rhs):
                        bad.append(("expectation_not_bimodular", B.labels[k], A.labels[j], B.labels[l]))
        return AlgebraReport(not bad, bad, True)


@dataclass
class Monomial:
    idx: list           # a -> b -> index of e_a e_b, or None
    sign: list          # a -> b -> +-1, or None when every sign is +1
    unit: list          # the terms (u, +-1) of 1


def _unit_sign(x: GScalar):
    """1 or -1 for the GScalars ONE and MINUS_ONE, else None."""
    return x.a if not x.b and x.d == 1 and x.a in (1, -1) else None


def _read_monomial(A: TracialStarAlgebra):
    idx, sign = [], []
    for row in A.mult:
        ir, sr = [], []
        for v in row:
            items = [(c, x) for c, x in v.items() if x.a or x.b]
            if not items:
                ir.append(None)
                sr.append(1)
                continue
            if len(items) != 1 or _unit_sign(items[0][1]) is None:
                return None
            ir.append(items[0][0])
            sr.append(_unit_sign(items[0][1]))
        idx.append(ir)
        sign.append(sr)
    unit = [(u, _unit_sign(x)) for u, x in A.unit.items() if x.a or x.b]
    if any(s is None for _, s in unit):
        return None
    signed = any(-1 in sr for sr in sign)
    return Monomial(idx, sign if signed else None, unit)


def conditional_expectation(alg: TracialStarAlgebra, sub_vectors,
                            sub_labels=None, name="A/B", groupoid=None) -> Extension:
    """Extension with E = trace-orthogonal projection onto span(sub_vectors).

    E's coordinates over the span's basis are read straight from the Gram
    solve (linalg.projection_coordinates).  The span must be a unital
    *-subalgebra; violations raise ValueError.
    """
    span = SpanBasis()
    for v in sub_vectors:
        span.add(v)
    vecs = span.vectors
    structure = span_structure(span, lambda i, j: alg.mul(vecs[i], vecs[j]),
                               lambda i: alg.star(vecs[i]),
                               lambda i: alg.trace(vecs[i]), alg.unit)
    dim_b = span.dim
    labels = sub_labels if sub_labels is not None else ["b%d" % k for k in range(dim_b)]
    assert len(labels) == dim_b
    sub = TracialStarAlgebra(labels, *structure, name=name.split("/")[-1])

    embed = GMatrix.from_cols(alg.dim, span.vectors)
    expect = projection_coordinates(alg.gns_gram(), embed)
    ext = Extension(alg, sub, embed, expect, name=name, groupoid=groupoid)
    rep = ext.validate()
    if not rep.ok:
        raise ValueError("extension invariants violated: %s" % rep.violations[:3])
    return ext


def trivial_extension(alg: TracialStarAlgebra, name=None) -> Extension:
    """A over the scalars."""
    return conditional_expectation(alg, [alg.unit], sub_labels=["1"],
                                   name=name or (alg.name + "/C"))


# ---------------------------------------------------------------------------
# standard algebras


def matrix_algebra(n: int) -> TracialStarAlgebra:
    """n x n matrices with the normalized trace and monomial unitary family."""
    labels = ["e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    dim = n * n
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                mult[a][b] = {idx[(i, l)]: ONE}
    star = [{idx[(j, i)]: ONE} for (i, j) in sorted(idx, key=idx.get)]
    trace = {idx[(i, i)]: gs(Fraction(1, n)) for i in range(n)}
    unit = {idx[(i, i)]: ONE for i in range(n)}
    # powers of the long cycle dressed by the elementary sign flips: their
    # graphs cover every matrix cell, so these monomial unitaries span
    fam = []
    signs = [tuple(1 for _ in range(n))]
    signs += [tuple(-1 if j == k else 1 for j in range(n)) for k in range(n)]
    for p in range(n):
        perm = tuple((j + p) % n for j in range(n))
        for sg in signs:
            v = {idx[(perm[j], j)]: gs(sg[j]) for j in range(n)}
            fam.append(("c%d%s" % (p, "".join("+-"[s < 0] for s in sg)), v))
    return TracialStarAlgebra(labels, mult, star, trace, unit,
                              name="M%d" % n, unitary_family=fam)


def diagonal_subalgebra_vectors(n: int):
    return [{i * n + i: ONE} for i in range(n)]


def group_algebra(table: dict, unit, elements=None, name="CG") -> TracialStarAlgebra:
    els = elements or sorted({g for g, _ in table}, key=repr)
    idx = {g: k for k, g in enumerate(els)}
    dim = len(els)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    inv = {}
    for g in els:
        for h in els:
            mult[idx[g]][idx[h]] = {idx[table[(g, h)]]: ONE}
            if table[(g, h)] == unit:
                inv[g] = h
    star = [{idx[inv[g]]: ONE} for g in els]
    trace = {idx[unit]: ONE}
    fam = [(str(g), {idx[g]: ONE}) for g in els]
    fam += [("-" + str(g), {idx[g]: MINUS_ONE}) for g in els]
    return TracialStarAlgebra([str(g) for g in els], mult, star, trace,
                              {idx[unit]: ONE}, name=name, unitary_family=fam)


# ---------------------------------------------------------------------------
# 2-cocycles and twisted algebras


@dataclass
class TwoCocycle:
    """Circle-valued 2-cocycle of an equivalence relation, on atom triples.

    values[(x,y,z)] is the twist of the composition (x,y)(y,z); entries are
    restricted to fourth roots of unity so the scalar field stays exact.
    """

    relation: FiniteGroupoid
    values: dict

    def value(self, x, y, z) -> GScalar:
        return self.values[(x, y, z)]

    def composable_triples(self):
        r = self.relation
        out = []
        for (a, b) in r.compose:
            out.append((r.target[a], r.source[a], r.source[b]))
        return sorted(set(out))


def validate_cocycle(sigma: TwoCocycle):
    """Check the cocycle identity and the skew-symmetric normalization.

    Returns a list of violations, each with a witness tuple.
    """
    r = sigma.relation
    bad = []
    triples = set(sigma.composable_triples())
    for t in triples:
        if t not in sigma.values:
            bad.append(("missing_value", t))
    if bad:
        return bad
    for t, v in sigma.values.items():
        if t not in triples:
            bad.append(("value_on_non_composable", t))
        if v not in FOURTH_ROOTS:
            bad.append(("value_not_fourth_root", t, str(v)))
    rel = {(r.target[a], r.source[a]) for a in r.elements}
    for (x, y, z) in triples:
        if (z, y, x) in triples:
            if sigma.values[(x, y, z)] * sigma.values[(z, y, x)] != ONE:
                bad.append(("not_skew_symmetric", (x, y, z)))
    for x in r.base.atoms:
        if (x, x, x) in triples and sigma.values[(x, x, x)] != ONE:
            bad.append(("unit_not_normalized", x))
    # identity s(x,y,z) s(x,z,t) = s(y,z,t) s(x,y,t) on composable quadruples
    for (x, y, z) in triples:
        for t in r.base.atoms:
            if (x, z, t) in triples and (y, z, t) in triples and (x, y, t) in triples:
                lhs = sigma.values[(x, y, z)] * sigma.values[(x, z, t)]
                rhs = sigma.values[(y, z, t)] * sigma.values[(x, y, t)]
                if lhs != rhs:
                    bad.append(("cocycle_identity", (x, y, z, t)))
    return bad


def trivial_cocycle(r: FiniteGroupoid) -> TwoCocycle:
    sig = TwoCocycle(r, {})
    sig.values = {t: ONE for t in sig.composable_triples()}
    return sig


def distinct_triple_sign_cocycle(r: FiniteGroupoid) -> TwoCocycle:
    """-1 on pairwise-distinct atom triples, +1 elsewhere.

    On relations with classes of size >= 3 this is a nontrivial exactly
    normalized sign cocycle (a coboundary, but not the constant 1).
    """
    sig = TwoCocycle(r, {})
    vals = {}
    for (x, y, z) in sig.composable_triples():
        vals[(x, y, z)] = MINUS_ONE if len({x, y, z}) == 3 else ONE
    sig.values = vals
    return sig


def positivity_witness(sigma: TwoCocycle):
    """First triple (x, y, x) with sigma(x,y,x) != 1, or None.

    Such a value makes the untwisted-star trace form of the twisted product
    non-positive: tr(d_(x,y)* d_(x,y)) = sigma(y,x,y) w(y).
    """
    for t, v in sorted(sigma.values.items()):
        if t[0] == t[2] and v != ONE:
            return t
    return None


# ---------------------------------------------------------------------------
# groupoid convolution algebras


def convolution_star_algebra(g: FiniteGroupoid,
                             sigma: TwoCocycle = None) -> TracialStarAlgebra:
    """The convolution *-algebra C[G] of a groupoid that is already
    validated, with its product twisted by the 2-cocycle sigma when one is
    given.

    Basis the arrows, product from composition, star from inversion, trace
    the weighted sum over the units.  A twisted product picks up
    sigma(x,y,z) on (x,y)(y,z) of an equivalence relation; star and trace
    stay untwisted.  Since tr(d_(x,y)* d_(x,y)) = sigma(y,x,y) w(y), a
    cocycle with sigma(x,y,x) != 1 on a composable triple breaks positivity
    of the trace form; it is rejected with a ValueError naming the first
    such triple, before the product is built.

    The algebra is certified by its inputs, not by validate_algebra.
    validate_groupoid gives weights w > 0 of sum 1, equal along arrows, and
    the groupoid axioms.  Untwisted, the unit sum_x e_(u_x) is a unit as
    u_t(a) a = a = a u_s(a), composition is associative, (e_a e_b)* =
    e_(b^-1 a^-1) = e_b* e_a*, tr(1) = sum_x w(x) = 1, tr(e_a e_b) is
    w(t(a)) = w(s(a)) = tr(e_b e_a) when b = a^-1 and 0 otherwise, and the
    Gram is diagonal with tr(e_a* e_a) = w(s(a)) > 0.  Twisted, write d_xy
    for the arrow x <- y (one per pair: is_equivalence_relation), so
    d_xy d_yz = sigma(x,y,z) d_xz and other basis products are 0;
    validate_cocycle gives fourth roots with sigma(x,x,x) = 1, skew symmetry
    sigma(x,y,z) sigma(z,y,x) = 1 and the cocycle identity sigma(x,y,z)
    sigma(x,z,t) = sigma(y,z,t) sigma(x,y,t); positivity_witness gives
    sigma(x,y,x) = 1.  Hence:

    - units: the identity at y = z = x gives sigma(x,x,t) = 1, and at
      t = z = y it gives sigma(x,y,y) = 1;
    - associativity: it is the cocycle identity;
    - star: d_xy* = d_yx, and (d_xy d_yz)* = conj(sigma(x,y,z)) d_zx =
      sigma(z,y,x) d_zx = d_zy d_yx, a fourth root's conjugate being its
      inverse;
    - trace: tr(1) = 1, and tr(d_xy d_yx) = sigma(x,y,x) w(x) = w(y) =
      tr(d_yx d_xy);
    - GNS: the Gram is diagonal, tr(d_xy* d_xy) = sigma(y,x,y) w(y) > 0.
    """
    if sigma is not None:
        if not is_equivalence_relation(g):
            raise ValueError("twisted convolution needs an equivalence relation")
        bad = validate_cocycle(sigma)
        if bad:
            raise ValueError("invalid cocycle: %s" % bad[:3])
        t = positivity_witness(sigma)
        if t is not None:
            raise ValueError("cocycle breaks positivity of the trace form: "
                             "sigma%r = %s, must be 1" % (t, sigma.values[t]))
    els = list(g.elements)
    idx = {a: k for k, a in enumerate(els)}
    dim = len(els)
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for (a, b), c in g.compose.items():
        twist = ONE if sigma is None else \
            sigma.value(g.target[a], g.source[a], g.source[b])
        mult[idx[a]][idx[b]] = {idx[c]: twist}
    star = [{idx[g.inverse[a]]: ONE} for a in els]
    trace = {idx[g.units[x]]: gs(g.base.weight[x]) for x in g.base.atoms}
    unit = {idx[g.units[x]]: ONE for x in g.base.atoms}
    name = "C[%s%s]" % (g.name or "G", "" if sigma is None else ";twisted")
    return TracialStarAlgebra([repr(a) for a in els], mult, star, trace, unit,
                              name=name)


def convolution_algebra(g: FiniteGroupoid, sigma: TwoCocycle = None) -> Extension:
    """The extension C[G] over L^inf(X) of a finite measured groupoid, its
    product twisted by sigma when one is given (convolution_star_algebra).

    The groupoid is validated first, once.  The expectation is restriction
    to the units.  The unitary family is 1 and the single-atom sign flips
    w = 1 - 2*1_{x}, then the elementary bisections unsigned: 1 + n +
    n(n-1)/2 members for pair(n), not n! + n.  T_{u,v} T_{u',v'} =
    T_{u'u,vv'}, and the fiber square closes its pairs under products:

    - Generation.  They generate the group of bisections: swaps along arrows
      realise a bisection's atom permutation, and the rest is isotropy.
    - Matching pairs.  For (b, b') matching, write b = u_1 ... u_k with u_i
      elementary.  A swap matches itself, an isotropy bisection 1: so the
      family gives (b, c), and b' = delta c with delta fixing every atom, a
      product of isotropy bisections and a phase; (1, delta) matches.
    - Signed pairs.  T_{u,v} is linear in u and v, and 1_{x} = (1 - w)/2,
      so the pairs of 1 and the sign flips span every T_{d,d'} with d, d'
      diagonal; a diagonal phase changes no conjugation signature.
    - Unitary when twisted.  v = sum +-d_a over a bisection, arrows x <- y,
      has v* v = sum sigma(y,x,y) d_(u_y) = 1 (positivity_witness) = v v*.
    - Trace.  The first n+1 pairs (w, 1) span [u_x (x) u_x], off which
      <1 (x) 1 | .> vanishes (E kills non-units), and later echelon rows are
      reduced to zero there: the order of the bisections moves no trace.
    """
    rep = validate_groupoid(g)
    if not rep.ok:
        raise ValueError("invalid groupoid: %s" % rep.violations[:3])
    alg = convolution_star_algebra(g, sigma)
    idx = {a: k for k, a in enumerate(g.elements)}
    units = frozenset(g.units[x] for x in g.base.atoms)
    signed = [("w", units, None)] + [("w" + str(x), units, x) for x in g.base.atoms]
    for wname, b, flip in signed + [("w", b, None) for b in elementary_bisections(g)]:
        barrows = sorted(b, key=repr)
        alg.unitary_family.append(
            ("%s.%s" % (wname, ",".join(map(repr, barrows))),
             {idx[a]: MINUS_ONE if g.target[a] == flip else ONE for a in barrows}))

    sub_vectors = [{idx[g.units[x]]: ONE} for x in g.base.atoms]
    return conditional_expectation(alg, sub_vectors,
                                   sub_labels=[str(x) for x in g.base.atoms],
                                   name=alg.name + "/LinfX", groupoid=g)


# ---------------------------------------------------------------------------
# weighted directed sums


def _check_weights(weights):
    ws = [Fraction(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    if sum(ws) != 1:
        raise ValueError("weights must sum to 1, got %s" % sum(ws))
    return ws


def weighted_sum_algebras(algebras, weights, name=None) -> TracialStarAlgebra:
    """Direct sum with the weighted trace sum(w_n tr_n)."""
    ws = _check_weights(weights)
    offs = []
    off = 0
    for a in algebras:
        offs.append(off)
        off += a.dim
    dim = off
    labels = []
    for n, a in enumerate(algebras):
        labels += ["%d:%s" % (n, l) for l in a.labels]
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    star = [{} for _ in range(dim)]
    trace = {}
    unit = {}
    for n, a in enumerate(algebras):
        o = offs[n]
        for i in range(a.dim):
            star[o + i] = {o + k: c for k, c in a.star_table[i].items()}
            t = a.trace_table.get(i)
            if t is not None:
                trace[o + i] = gs(ws[n]) * t
            for j in range(a.dim):
                mult[o + i][o + j] = {o + k: c for k, c in a.mult[i][j].items()}
        for k, c in a.unit.items():
            unit[o + k] = c
    fams = [a.unitary_family or [("1", a.unit)] for a in algebras]
    fam = []
    for combo in itertools.product(*fams):
        v = {}
        for n, (_, u) in enumerate(combo):
            for k, c in u.items():
                v[offs[n] + k] = c
        fam.append(("+".join(nm for nm, _ in combo), v))
    out = TracialStarAlgebra(labels, mult, star, trace, unit,
                             name=name or "(+)".join(a.name for a in algebras),
                             unitary_family=fam)
    out._offsets = offs
    return out


def weighted_sum(extensions, weights, mode="componentwise", name=None) -> Extension:
    """Weighted directed sum of tracial extensions.

    componentwise: the subalgebra is the weighted sum of the B_n and the
    expectation acts blockwise.  central: all summands share one
    commutative B, embedded diagonally, and E = sum of w_n E_n.
    """
    ws = _check_weights(weights)
    algs = [e.alg for e in extensions]
    big = weighted_sum_algebras(algs, ws, name=name)
    offs = big._offsets

    if mode == "componentwise":
        sub_vectors = []
        sub_labels = []
        for n, e in enumerate(extensions):
            for k in range(e.sub.dim):
                col = e.embed.column(k)
                sub_vectors.append({offs[n] + i: c for i, c in col.items()})
                sub_labels.append("%d:%s" % (n, e.sub.labels[k]))
        return conditional_expectation(big, sub_vectors, sub_labels=sub_labels,
                                       name=name or "sum/componentwise")
    if mode == "central":
        b0 = extensions[0].sub
        for e in extensions[1:]:
            if e.sub.labels != b0.labels or e.sub.dim != b0.dim:
                raise ValueError("central mode needs structurally identical subalgebras")
        for i in range(b0.dim):
            for j in range(b0.dim):
                if not vec_eq(b0.mul({i: ONE}, {j: ONE}), b0.mul({j: ONE}, {i: ONE})):
                    raise ValueError("central mode needs a commutative subalgebra")
        sub_vectors = []
        for k in range(b0.dim):
            v = {}
            for n, e in enumerate(extensions):
                for i, c in e.embed.column(k).items():
                    v[offs[n] + i] = c
            sub_vectors.append(v)
        return conditional_expectation(big, sub_vectors, sub_labels=list(b0.labels),
                                       name=name or "sum/central")
    raise ValueError("unknown weighted sum mode %r" % mode)


# ---------------------------------------------------------------------------
# compression


def compression(ext: Extension, p: dict) -> Extension:
    """Compress A/B by a projection p commuting with B.

    The compressed algebra pAp carries the normalized trace
    tr_p(x) = tr(x)/tr(p); the subalgebra is pBp and the expectation is
    recomputed as the trace-orthogonal projection.
    """
    A = ext.alg
    if not A.is_projection(p):
        raise ValueError("p is not a projection")
    for k in range(ext.sub.dim):
        bk = ext.embed.column(k)
        if not vec_eq(A.mul(p, bk), A.mul(bk, p)):
            raise ValueError("p does not commute with the subalgebra at %s"
                             % ext.sub.labels[k])
    tp = A.trace(p)
    if tp.is_zero():
        raise ValueError("p has zero trace")

    span = SpanBasis()
    for j in range(A.dim):
        span.add(A.mul(p, A.mul({j: ONE}, p)))
    vecs = span.vectors
    tpi = tp.inverse()
    comp_alg = TracialStarAlgebra(
        ["p%d" % k for k in range(span.dim)],
        *span_structure(span, lambda i, j: A.mul(vecs[i], vecs[j]),
                        lambda i: A.star(vecs[i]),
                        lambda i: A.trace(vecs[i]) * tpi, p),
        name="p(%s)p" % A.name)
    fam = []
    for nm, u in (A.unitary_family or []):
        c = span.coords(A.mul(p, A.mul(u, p)))
        if c is not None and comp_alg.is_unitary(c):
            fam.append(("p.%s" % nm, c))
    for root in FOURTH_ROOTS:
        fam.append((str(root), vec_scale(root, comp_alg.unit)))
    comp_alg.unitary_family = fam

    sub_vecs = [span.coords(A.mul(p, A.mul(ext.embed.column(k), p)))
                for k in range(ext.sub.dim)]
    # never None: p b p = sum_j c_j p e_j p, and the span holds every p e_j p
    # tr_{A_p}(pxp) tr_A(p) = tr_A(pxp) for every x needs no check:
    # span_structure gives basis vector k the trace tr_A(vecs[k]) / tr_A(p),
    # span.coords is exact (pxp = sum_k c_k vecs[k] on the nose), and both
    # traces are linear, so tr_{A_p}(pxp) = sum_k c_k tr_A(vecs[k]) / tr_A(p)
    # = tr_A(pxp) / tr_A(p).  tests/test_algebras.py checks it on the corpus.
    return conditional_expectation(comp_alg, sub_vecs, name=ext.name + "|p")


# ---------------------------------------------------------------------------
# normalizing algebras


def normalizer_span(ext: Extension, unitaries) -> Extension:
    """Smallest *-subalgebra containing B and the given normalizing unitaries.

    Each u must be unitary with u B u* = B; a witness is reported otherwise.
    Returns the normalizing extension N/B, whose unitary family is the
    given generators in N-coordinates.
    """
    A = ext.alg
    sub = [ext.embed.column(k) for k in range(ext.sub.dim)]
    b_span = Echelon()
    for c in sub:
        b_span.insert(c)
    gens = []
    for item in unitaries:
        nm, u = item if isinstance(item, tuple) else ("u%d" % len(gens), item)
        if not A.is_unitary(u):
            raise ValueError("generator %s is not unitary" % nm)
        us = A.star(u)
        for k, bk in enumerate(sub):
            if not b_span.contains(A.mul(u, A.mul(bk, us))):
                raise ValueError("generator %s does not normalize B: witness %s"
                                 % (nm, ext.sub.labels[k]))
        gens.append((nm, u))

    grow = SpanBasis()
    seeds = sub + [u for _, u in gens] + [A.star(u) for _, u in gens]
    for v in seeds:
        grow.add(v)
    # B and the u, u* span a star-closed generating set containing 1
    close_under_products(grow.dim, lambda g, k: grow.add(
        A.mul(grow.vectors[g], grow.vectors[k])))

    # re-basis along echelon rows of the pieces b v b' (b, b' in the basis of
    # B), which span N as 1 lies in B; over minimal projections each piece,
    # hence each row, is homogeneous, so N/B takes the graded tensor path
    span = canonicalized_span(A.mul(bl, A.mul(v, br))
                              for v in grow.vectors for bl in sub for br in sub)
    vecs = span.vectors
    nalg = TracialStarAlgebra(
        ["n%d" % k for k in range(span.dim)],
        *span_structure(span, lambda i, j: A.mul(vecs[i], vecs[j]),
                        lambda i: A.star(vecs[i]), lambda i: A.trace(vecs[i]),
                        A.unit),
        name="N(%s)" % ext.name)
    nalg.unitary_family = [(nm, span.coords(u)) for nm, u in gens]
    sub_in_n = [span.coords(bk) for bk in sub]
    return conditional_expectation(nalg, sub_in_n,
                                   sub_labels=list(ext.sub.labels),
                                   name="N/%s" % ext.sub.name)

