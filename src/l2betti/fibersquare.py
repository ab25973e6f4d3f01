"""Balanced squares A (x)_B A, the operators u * v, and fiber squares.

The fiber square of A/B is the algebra of A-A-bimodular endomorphisms of
the balanced square A (x)_B A generated by the operators
(u * v)(a (x) c) = a u (x) v c over pairs of unitaries of A with matching
conjugation action on B.  It is the coefficient algebra of the L2-complex
(complexes.l2_complex), as in Connes-Shlyakhtenko's case B = C.  Every
object here is over one extension A/B, held once by the balanced square
as BalancedTensor.ext.

The form.  balanced_tensor checks that the trace of A is tracial on basis
pairs c < a (algebras.trace_defects).  That is what makes the three
expressions of the inner product on A (x)_B A agree,
tr_B(E(d b*) E(a* c)) = tr_A(b* E(a* c) d) = tr_A(c E(d b*) a*).  With E
trace-preserving and B-bimodular (Extension.validate),
tr_B(E(d b*) x) = tr_A(d b* x) and tr_B(y E(a* c)) = tr_A(y a* c) for x, y
in B, so the identities read tr_A(d w) = tr_A(w d) with w = b* x and
tr_A(z c) = tr_A(c z) with z = y a*; at x = y = 1 these w and z run over
all of A.  They hold exactly when tr_A is tracial.  The form is then checked
hermitian and positive semidefinite; append_level has already proved it
nondegenerate on the quotient, so it is positive definite.

The algebra is built by saturating the evaluations T(1 (x) 1), and the
structure constants are read off through them.  That evaluation at
1 (x) 1 is injective on bimodular operators is certified by three exact
checks, not assumed:

1. 1 (x) 1 is cyclic: each basis vector of the quotient, represented by
   a_i (x) c_j, equals a_i . (1 (x) 1) . c_j.  A bimodular S with
   S(1 (x) 1) = 0 therefore vanishes.
2. Every basis vector v of the final span is B-central, and the basis
   operator built from it by _operator, whose column q = (i, j) is
   a_i . v . c_j, evaluates to v.  Its columns are not compared with
   anything: they are a_i . v . c_j by construction, and as in 3 a
   B-central v makes a (x) c -> a . v . c a well-defined bimodular map,
   which by 1 is the operator.
3. Every admitted pair has a B-central evaluation xi = [u (x) v]:
   b . xi = xi . b for each basis element b of B (Level.is_central).
   Since the balancing relations span the radical (certified by
   tensor.append_level, by construction on the graded path and by one rank
   check on the radical path), the map a (x) c -> a . xi . c is then well
   defined and bimodular, and it is the pair operator u * v.

Hence a pair whose evaluation is dependent equals the combination of basis
operators its evaluation names, T_i T_j = sum_k c_k T_k with c the
coordinates of T_i(T_j(1 (x) 1)), and the adjoint of T_i, once checked
bimodular by columns, is the combination its evaluation names: none of them
needs an operator product or an entrywise comparison.

The axioms.  Write v_k = T_k(1 (x) 1).  Coordinates x name the operator
sum_k x_k T_k, linearly and injectively (the v_k are independent); by the
above, the structure constants become composition and the star the form
adjoint.  Only the trace comes from outside the construction:
tr(x) = <1 (x) 1 | x(1 (x) 1)> reads the user's trace through the form, so
tr(1) = 1 and traciality are checked (algebras.trace_violations).  The
other axioms are implied:

- Units.  The unit has the coordinates u of 1 (x) 1.  Left: sum_k u_k T_k
  is the operator of 1 (x) 1 (_operator is linear in xi), the identity by
  _check_cyclic.  Right: T_i(1 (x) 1) = v_i, as each basis operator is
  checked to evaluate to its basis vector.
- Associativity.  Composition is associative.
- Star.  The star of T_i is its form adjoint, checked bimodular.  The Gram
  of balanced_tensor is hermitian and nondegenerate, so adjoints are
  involutive and antimultiplicative.
- GNS.  tr(T* S) = <T(1 (x) 1) | S(1 (x) 1)>, so the GNS Gram is the Gram
  of the independent v_k under a positive definite form.

The fiber square is therefore held as its evaluations.  Saturation,
re-basis and the enveloping identification work on vectors, and an
operator matrix is built, always by _operator, only where one is consumed:
the identity of the cyclic check, each generator the saturation multiplies
while its span is below the invariants' bound, and the basis operators,
which act as the coefficients of complexes.l2_complex and whose adjoints
are checked bimodular.

The pairs.  For unitaries u and v in A, the pair matches (u* x u =
v x v* for every x in B, both sides in B) if and only if xi = [u (x) v] is
B-central.  If y = u* x u = v x v* lies in B, then x u = u y and v x = y v,
so x . xi = [u y (x) v] = [u (x) y v] = xi . x.  Conversely, multiplying
x . xi = xi . x by u* on the left and v* on the right gives
[u* x u (x) 1] = [1 (x) v x v*]; the balanced maps a (x) c -> (1 - E)(a) E(c)
and a (x) c -> E(a) c send the two sides to (1 - E)(u* x u) and 0, and to
E(u* x u) and v x v*, so u* x u lies in B and equals v x v*.  A mismatched
pair therefore fails check 3 and raises.  The starred pair (u*, v*) of a
matching pair matches too: x -> u* x u and x -> v x v* are the same
automorphism of B, so their inverses x -> u x u* and x -> v* x v agree.
A groupoid's family signs only 1 and lists only elementary bisections;
"The closure" forms the other pairs.

The identification.  groupoid_fiber_square maps the fiber square to C[G^e]
by phi, the coordinates of each v_k in the enveloping vectors
[delta_a (x) delta_b], and checks phi multiplicative, star- and
trace-preserving.  C[G^e] is read as a *-algebra alone
(algebras.convolution_star_algebra): G^e of a validated G is a groupoid
(groupoids.enveloping has the proof), so it is not validated again, and
neither its bisections nor an expectation onto L^inf(X) are built.  Two
checks on the enveloping vectors are implied by the ones that run:

- A vector that dies.  A zero enveloping vector is dependent, so
  SpanBasis.add refuses it and "enveloping vectors are dependent" raises.
- Invariants in the enveloping span.  The |G^e| enveloping vectors are
  checked independent, and so are the v_k, which are |G^e| many
  (fsq.dim == |G^e| raises otherwise).  Each v_k is B-central (check 2)
  and has coordinates in the enveloping span ("escapes" raises
  otherwise), so the v_k span the enveloping span.  The B-central vectors
  are the invariants (tensor.Level.invariants), whose dimension is checked
  to be |G^e|, so the v_k span the invariants too: the two spans are equal.

Three facts of its report are implied, not recomputed:

- Bijective.  phi is square, or fsq.dim == |G^e| raises, and its columns
  are coordinates of independent evaluations in an independent basis.
- Invariants faithful.  1 (x) 1 is B-central, so invariant, and
  evaluation at it is injective.
- Fixes diagonal.  [delta_x (x) 1] = [delta_x (x) delta_x] is a balancing
  relation, and [delta_x (x) delta_x] is the enveloping vector of
  (u_x, u_x).

The closure.  The pair-born operators, with the identity, span a
star-closed set of generators (T_{u,v}* = T_{u*,v*}, and both pairs are
admitted) whose span contains 1.  Every word in them is a generator times
a shorter word, so the span is closed under products once it is closed
under left multiplication by the generators, and only vectors new in the
last round need multiplying (algebras.close_under_products).  A
groupoid's family lists only elementary bisections, and the closure forms
every other pair from theirs (algebras.convolution_algebra): at pair(4)
the pairs span 10 of the 16 dimensions, the products the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    Extension, SpanBasis, TracialStarAlgebra, canonicalized_span,
    close_under_products, convolution_star_algebra, span_structure,
    trace_defects, trace_violations,
)
from .groupoids import FiniteGroupoid, enveloping
from .linalg import (
    GMatrix, adjoint_wrt, invert, is_positive_semidefinite, vec_dot, vec_eq,
)
from .scalars import ONE
from .tensor import Level, append_level, extension_base_level


class InternalError(AssertionError):
    """An invariant broke on a valid input: a program fault (CLI exit 3)."""


@dataclass
class BalancedTensor:
    """A (x)_B A with its scalar form and the distinguished vector 1 (x) 1."""

    ext: Extension
    level: Level
    one_one: dict
    gram: GMatrix

    @property
    def dim(self):
        return self.level.dim

    def gram_inv(self):
        if not hasattr(self, "_gram_inv"):
            self._gram_inv = invert(self.gram)
        return self._gram_inv


def balanced_tensor(ext: Extension) -> BalancedTensor:
    """The balanced square A (x)_B A of an extension A/B, its trace and
    form checked as the module docstring ("The form") says."""
    A = ext.alg
    defect = next(trace_defects(A), None)
    if defect is not None:
        raise ValueError("trace of %s is not tracial at basis pair (%s, %s)"
                         % (A.name, *(A.labels[k] for k in defect)))
    lvl = append_level(extension_base_level(ext), ext)
    unit = ext.alg.unit
    one_one = lvl.tensor_class(unit, unit)
    gram = lvl.scalar_gram()
    if gram != gram.adjoint():
        raise ValueError("balanced tensor form is not hermitian")
    if not is_positive_semidefinite(gram):
        raise ValueError("balanced tensor form is not positive semidefinite")
    return BalancedTensor(ext, lvl, one_one, gram)


def _operator(bt: BalancedTensor, xi: dict) -> GMatrix:
    """The operator a (x) c -> a . xi . c: column q = (i, j) is a_i . xi . c_j.
    It is well defined and bimodular when xi is B-central (module docstring,
    check 3); callers check that."""
    lvl = bt.level
    right = [lvl.right_act(j).apply(xi) for j in range(bt.ext.alg.dim)]
    return GMatrix(lvl.dim, lvl.dim, [lvl.left_act(i).apply(right[j]) for i, j in lvl.reps()])


def _check_cyclic(bt: BalancedTensor):
    """The operator a (x) c -> a . (1 (x) 1) . c is the identity."""
    for q, col in enumerate(_operator(bt, bt.one_one).col):
        if not vec_eq(col, {q: ONE}):
            raise AssertionError(
                "1(x)1 is not cyclic: basis vector %d is not a_i.(1(x)1).c_j" % q)


def _check_bimodular(bt: BalancedTensor, op: GMatrix) -> dict:
    """Check that op is bimodular, column by column; return op(1 (x) 1).

    The evaluation xi = op(1 (x) 1) must be B-central, and column q of op,
    the image of e_q = a_i . (1 (x) 1) . c_j, must equal a_i . xi . c_j.
    A B-central xi makes S: a (x) c -> a . xi . c a well-defined bimodular
    map (module docstring, check 3), and with 1 (x) 1 cyclic (_check_cyclic)
    S(e_q) = a_i . xi . c_j, so op agrees with S on a basis and is S.
    """
    xi = op.apply(bt.one_one)
    if not bt.level.is_central(xi):
        raise AssertionError(
            "operator does not commute with the actions of B: "
            "its evaluation at 1(x)1 is not B-central")
    for q, (col, want) in enumerate(zip(op.col, _operator(bt, xi).col)):
        if not vec_eq(col, want):
            raise AssertionError(
                "operator does not commute with the outer actions: "
                "column %d is not a_i.T(1(x)1).c_j" % q)
    return xi


class FiberSquareAlgebra(TracialStarAlgebra):
    """Tracial *-algebra of bimodular operators with basis T_1..T_m."""

    def __init__(self, tensor: BalancedTensor, ops, evals, *args, **kw):
        self.tensor = tensor
        self.ops = ops
        self.evals = evals
        super().__init__(*args, **kw)

    def gns_gram(self) -> GMatrix:
        # tr(T* S) = <T(1x1) | S(1x1)> since the star is the form adjoint
        # (module docstring, "GNS"), so it is not recomputed through mul
        if self._gram is None:
            bt = self.tensor
            g = GMatrix.zero(self.dim, self.dim)
            for j in range(self.dim):
                gv = bt.gram.apply(self.evals[j])
                for i in range(self.dim):
                    x = vec_dot(self.evals[i], gv)
                    if not x.is_zero():
                        g.col[j][i] = x
            self._gram = g
        return self._gram


def _saturate(bt: BalancedTensor, pairs) -> SpanBasis:
    """The span of the evaluations at 1 (x) 1, in generation order.

    Each pair and its starred pair are admitted.  A pair must match; its
    evaluation is checked B-central, which for unitaries is the same
    (module docstring), so a mismatched pair raises.

    The pairs alone need not fill the invariants (module docstring, "The
    closure").  Every evaluation of a bimodular operator is B-central, so
    the span cannot outgrow the invariants; once it fills them, every later
    candidate is dependent and is neither reduced nor multiplied.
    """
    A = bt.ext.alg
    bound = bt.level.invariants().cols
    evals = SpanBasis()
    evals.add(bt.one_one)

    seen_pairs = set()
    for (nu, u), (nv, v) in pairs:
        for nm, uu, vv in (("%s*%s" % (nu, nv), u, v),
                           ("%s**%s*" % (nu, nv), A.star(u), A.star(v))):
            key = (frozenset(uu.items()), frozenset(vv.items()))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            xi = bt.level.tensor_class(uu, vv)
            if not bt.level.is_central(xi):
                raise AssertionError(
                    "pair %s: evaluation at 1(x)1 is not B-central" % nm)
            if evals.dim < bound:
                evals.add(xi)

    # T_g T_k evaluates to T_g(ev_k), with T_g built once from ev_g.
    # Generator 0 is 1 (1 (x) 1 is cyclic, so nonzero), whose products add
    # nothing.
    gens = {}

    def extend(g, k):
        if g == 0 or evals.dim == bound:
            return False
        if g not in gens:
            gens[g] = _operator(bt, evals.vectors[g])
        return evals.add(gens[g].apply(evals.vectors[k]))

    close_under_products(evals.dim, extend)
    return evals


def fiber_square(ext: Extension, pairs, name=None, tensor=None) -> FiberSquareAlgebra:
    """Generate the fiber square from matching unitary pairs and saturate.

    pairs: iterable of ((name_u, u), (name_v, v)), each satisfying the
    matching condition; a mismatched pair raises.  The span is closed under
    products, and evaluation at 1 (x) 1 indexes the basis.  The checks that
    certify it, and the axioms they imply, are in the module docstring.
    """
    bt = tensor if tensor is not None else balanced_tensor(ext)
    if bt.ext is not ext:
        raise ValueError("balanced tensor is not the square of this extension")

    _check_cyclic(bt)
    evals = _saturate(bt, pairs)

    # canonical re-basis along the echelon rows of the evaluations: the
    # operators become sparser and coordinate extraction much cheaper.  The
    # evaluations are independent, so their pivot rows are evals.dim many.
    can = canonicalized_span(evals.vectors)
    vecs = can.vectors
    ops = []
    for k, vec in enumerate(vecs):
        if not bt.level.is_central(vec):
            raise AssertionError("basis vector %d is not B-central" % k)
        ops.append(_operator(bt, vec))
        if not vec_eq(ops[k].apply(bt.one_one), vec):
            raise AssertionError(
                "basis operator %d does not evaluate to its basis vector" % k)

    # structure constants through the separating vector; an adjoint checked
    # bimodular is the combination its evaluation names
    gram_inv = bt.gram_inv()
    structure = span_structure(
        can, lambda i, j: ops[i].apply(vecs[j]),
        lambda i: _check_bimodular(bt, adjoint_wrt(bt.gram, ops[i], gram_inv)),
        lambda i: vec_dot(bt.one_one, bt.gram.apply(vecs[i])), bt.one_one)
    fsq = FiberSquareAlgebra(
        bt, ops, [dict(v) for v in vecs], ["T%d" % k for k in range(len(ops))],
        *structure, name=name or ("%s*%s" % (ext.alg.name, ext.alg.name)))
    bad = trace_violations(fsq)
    if bad:
        raise AssertionError("fiber square is not a tracial *-algebra: %s" % bad[:3])
    return fsq


# ---------------------------------------------------------------------------
# canonical generating pairs


def _sig(ext: Extension, u: dict, side: str):
    """Conjugation signature of u on the subalgebra basis, or None."""
    A = ext.alg
    us = A.star(u)
    out = []
    for k in range(ext.sub.dim):
        x = ext.embed.column(k)
        conj = A.mul(us, A.mul(x, u)) if side == "left" else A.mul(u, A.mul(x, us))
        b = ext.expectation_sub(conj)
        if not vec_eq(ext.embed.apply(b), conj):
            return None
        out.append(frozenset(b.items()))
    return tuple(out)


def canonical_pairs(ext: Extension):
    """Unitary pairs from the canonical family, matched by conjugation.

    For the condition u* x u = v x v*, u is grouped by its left signature
    and v matched by its right signature.  Over B = C every pair of the
    family matches.  The one source of pairs for every fiber square; an
    extension without a family is refused, not given the trivial square.
    """
    fam = ext.alg.unitary_family
    if not fam:
        raise ValueError("extension has no canonical unitary family")
    left = {}
    for nm, u in fam:
        s = _sig(ext, u, "left")
        if s is not None:
            left.setdefault(s, []).append((nm, u))
    out = []
    for nm, v in fam:
        s = _sig(ext, v, "right")
        if s is None:
            continue
        for nu, u in left.get(s, ()):
            out.append(((nu, u), (nm, v)))
    return out


# ---------------------------------------------------------------------------
# groupoid fiber squares and the enveloping identification


def fiber_square_of(ext: Extension):
    """The fiber square of ext over itself, and its enveloping
    identification when ext comes from a groupoid (None otherwise)."""
    if ext.groupoid is not None:
        return groupoid_fiber_square(ext)
    return fiber_square(ext, canonical_pairs(ext)), None


@dataclass
class EnvelopingIso:
    groupoid: FiniteGroupoid
    env: FiniteGroupoid
    env_alg: TracialStarAlgebra  # C[G^e]
    matrix: GMatrix              # fiber square basis -> C[G^e] coordinates
    checks: dict


def groupoid_fiber_square(ext: Extension):
    """Fiber square of a groupoid (or twisted relation) extension, with its
    identification with C[G^e] (module docstring, "The identification")."""
    g = ext.groupoid
    if g is None:
        raise ValueError("extension does not come from a groupoid")
    pairs = canonical_pairs(ext)
    fsq = fiber_square(ext, pairs, name="C[%s]^sq" % (g.name or "G"))
    env = enveloping(g)
    envalg = convolution_star_algebra(env)
    lvl = fsq.tensor.level
    n = len(env.elements)

    gi = {a: k for k, a in enumerate(g.elements)}
    env_span = SpanBasis()
    for (a, b) in env.elements:
        if not env_span.add(lvl.tensor_class({gi[a]: ONE}, {gi[b]: ONE})):
            raise InternalError("enveloping vectors are dependent")
    inv_dim = lvl.invariants().cols
    if inv_dim != n:
        raise InternalError("invariant subspace has dimension %d, not |G^e| = %d"
                            % (inv_dim, n))

    if fsq.dim != n:
        raise InternalError(
            "evaluation map not surjective onto C[G^e]: fiber square has "
            "dimension %d, missing %d" % (fsq.dim, n - fsq.dim))

    phi_cols = [env_span.coords(v) for v in fsq.evals]
    if any(c is None for c in phi_cols):
        raise InternalError("evaluation escapes C[G^e]")
    phi = GMatrix.from_cols(n, phi_cols)

    basis = range(fsq.dim)
    checks = {
        "algebra_morphism": all(
            vec_eq(phi.apply(fsq.mul({i: ONE}, {j: ONE})),
                   envalg.mul(phi.column(i), phi.column(j)))
            for i in basis for j in basis),
        "star_morphism": all(
            vec_eq(phi.apply(fsq.star({i: ONE})), envalg.star(phi.column(i)))
            for i in basis),
        "trace_preserving": all(
            fsq.trace({i: ONE}) == envalg.trace(phi.column(i)) for i in basis),
        # implied by the checks above (module docstring, "The identification")
        "bijective": True, "fixes_diagonal": True, "invariants_faithful": True,
    }

    if not all(checks.values()):
        raise InternalError("enveloping identification failed: %s" % checks)
    return fsq, EnvelopingIso(g, env, envalg, phi, checks)


def projection_pair_trace_identity(ext: Extension, p: dict):
    """tr of the operator a(x)b -> ap(x)pb against tr_B(E(p)^2); exact pair.
    The trace is <1(x)1 | T(1(x)1)>, and T evaluates to [p (x) p].

    p must be a projection commuting with B, which the caller checks
    (betti.verify_compression); it is not checked again here."""
    bt = balanced_tensor(ext)
    lhs = vec_dot(bt.one_one, bt.gram.apply(bt.level.tensor_class(p, p)))
    ep = ext.expectation_sub(p)
    rhs = ext.sub.trace(ext.sub.mul(ep, ep))
    return lhs, rhs
