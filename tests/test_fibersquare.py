import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import l2betti.fibersquare as fs
import l2betti.tensor as tensor_mod
from l2betti.algebras import (
    SpanBasis, conditional_expectation, convolution_algebra,
    diagonal_subalgebra_vectors, distinct_triple_sign_cocycle, group_algebra,
    matrix_algebra, trivial_extension, weighted_sum,
)
from l2betti.betti import betti_hochschild
from l2betti.fibersquare import (
    balanced_tensor, canonical_pairs, fiber_square,
    groupoid_fiber_square, projection_pair_trace_identity,
)
from l2betti.fileio import as_extension, load_path
from l2betti.groupoids import (
    action_groupoid, elementary_bisections, enveloping, group_groupoid,
    pair_relation, uniform_space,
)
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import Echelon, GMatrix, combination, vec_add, vec_eq
from l2betti.scalars import ONE, gs
from l2betti.tensor import append_level, extension_base_level
from oracles import (
    full_extension, measured_groupoids, operator_spans_equal, pair_operator,
    s_condition, shuffled, signed_bisection_family,
)


def m2_diag_extension():
    m2 = matrix_algebra(2)
    return conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                   sub_labels=["d1", "d2"], name="M2/diag")


def m2_diag_sign_basis_extension():
    """M2 over its diagonal, with B given in the basis {1, e11 - e22}: not a
    basis of projections, so every level takes the radical path."""
    m2 = matrix_algebra(2)
    e11, e22 = m2.index("e11"), m2.index("e22")
    return conditional_expectation(m2, [{e11: ONE, e22: ONE}, {e11: ONE, e22: -ONE}],
                                   sub_labels=["1", "h"], name="M2/diag")


def cgroup_ext(n):
    table, unit, els = cyclic_table(n)
    return trivial_extension(group_algebra(table, unit, elements=els,
                                           name="CC%d" % n))


def test_balanced_tensor_scalars_full_dimension():
    ext = cgroup_ext(2)
    bt = balanced_tensor(ext)
    assert bt.dim == 4


def test_balanced_tensor_m2_diagonal_dimension_eight():
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    assert bt.dim == 8


def test_balanced_tensor_b_equals_a():
    m2 = matrix_algebra(2)
    ext = full_extension(m2)
    bt = balanced_tensor(ext)
    assert bt.dim == m2.dim


def test_append_level_rejects_another_extension():
    # a tower is over one extension: another one, over another B or merely
    # an equal copy, is refused before any level is built
    for other in (m2_diag_extension(), cgroup_ext(2)):
        with pytest.raises(ValueError, match="not the extension of the tower"):
            append_level(extension_base_level(cgroup_ext(2)), other)


def test_fiber_square_rejects_the_square_of_another_extension():
    ext = cgroup_ext(2)
    with pytest.raises(ValueError, match="not the square of this extension"):
        fiber_square(ext, canonical_pairs(ext), tensor=balanced_tensor(cgroup_ext(2)))


def test_fault_non_hermitian_balanced_form_is_caught(monkeypatch):
    # one entry above the diagonal of the square's Gram, without its mirror;
    # the base Gram is left alone, so the tower's own checks pass
    scalar_gram = tensor_mod.Level.scalar_gram

    def skewed(lvl):
        g = scalar_gram(lvl)
        if lvl.prev is None:
            return g
        g = GMatrix(g.rows, g.cols, [dict(c) for c in g.col])
        g.col[1][0] = ONE
        return g

    monkeypatch.setattr(tensor_mod.Level, "scalar_gram", skewed)
    with pytest.raises(ValueError, match="not hermitian"):
        balanced_tensor(cgroup_ext(2))


def test_pair_operator_identity_pair():
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    op = pair_operator(bt, dict(ext.alg.unit), dict(ext.alg.unit))
    assert op == GMatrix.identity(bt.dim)


def test_pair_operator_group_formula():
    ext = cgroup_ext(2)
    bt = balanced_tensor(ext)
    a = ext.alg
    g1 = {1: ONE}
    op = pair_operator(bt, g1, g1)
    # (u*v)(1(x)1) = u (x) v
    ev = op.apply(bt.one_one)
    amb = {1 * a.dim + 1: ONE}
    assert vec_eq(ev, bt.level.quotient.project(amb))


def test_central_element_one_sided_operators_agree():
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    # central unitary in B: d1 - d2
    z = {ext.alg.index("e11"): ONE, ext.alg.index("e22"): gs(-1)}
    op1 = pair_operator(bt, z, dict(ext.alg.unit))
    op2 = pair_operator(bt, dict(ext.alg.unit), z)
    assert op1 == op2


def test_s_condition_failure_witness():
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    swap = {ext.alg.index("e12"): ONE, ext.alg.index("e21"): ONE}
    # (swap, 1) does not satisfy the matching condition on the diagonal
    assert not s_condition(ext, swap, dict(ext.alg.unit))
    with pytest.raises(AssertionError, match="not B-central"):
        pair_operator(bt, swap, dict(ext.alg.unit))


def test_fiber_square_group_algebra_full_tensor():
    # over the scalars the saturation must reach the whole enveloping
    # algebra A (x) A^op, of dimension (dim A)^2
    for label, build in (("CC2/C", lambda: cgroup_ext(2)), ("CS3/C", cs3_ext),
                         ("M2/C", lambda: trivial_extension(matrix_algebra(2)))):
        ext = build()
        fsq = fiber_square(ext, canonical_pairs(ext))
        assert fsq.dim == ext.alg.dim ** 2, label
        # trace is phi(T) = <1(x)1 | T(1(x)1)>, faithful and tracial
        for i in range(fsq.dim):
            for j in range(fsq.dim):
                assert fsq.trace(fsq.mul({i: ONE}, {j: ONE})) == \
                    fsq.trace(fsq.mul({j: ONE}, {i: ONE})), label


def test_fiber_square_b_equals_a_gives_center():
    m2 = matrix_algebra(2)
    ext = full_extension(m2)
    pairs = canonical_pairs(ext)
    fsq = fiber_square(ext, pairs)
    # A *_A A is the center of A: trivial for a factor
    assert fsq.dim == 1


def test_fiber_square_weighted_sum_blocks():
    ext1 = m2_diag_extension()
    ext2 = cgroup_ext(2)
    s = weighted_sum([ext1, ext2], [Fraction(1, 2), Fraction(1, 2)])
    fsq = fiber_square(s, canonical_pairs(s))
    # blockwise: (M2 *_diag M2) (+) (CC2 * CC2) = 4 + 4
    assert fsq.dim == 8


def test_groupoid_fiber_square_pair2():
    ext = convolution_algebra(pair_relation(uniform_space(2)))
    fsq, iso = groupoid_fiber_square(ext)
    assert fsq.dim == 4
    assert iso.checks["algebra_morphism"]
    assert iso.checks["bijective"]
    assert iso.checks["fixes_diagonal"]


def test_groupoid_fiber_square_pair3():
    ext = convolution_algebra(pair_relation(uniform_space(3)))
    fsq, iso = groupoid_fiber_square(ext)
    assert fsq.dim == 9
    assert all(iso.checks.values())


def test_groupoid_fiber_square_group_c2():
    table, unit, _ = cyclic_table(2)
    g = group_groupoid(table, unit, name="C2")
    ext = convolution_algebra(g)
    fsq, iso = groupoid_fiber_square(ext)
    assert fsq.dim == 4  # C[G^o x G]
    assert all(iso.checks.values())


def test_groupoid_fiber_square_action_groupoid():
    table, unit, _ = cyclic_table(2)
    x = uniform_space(2)
    action = {("g0", "x0"): "x0", ("g0", "x1"): "x1",
              ("g1", "x0"): "x1", ("g1", "x1"): "x0"}
    g = action_groupoid(table, unit, action, x, name="C2swap")
    ext = convolution_algebra(g)
    fsq, iso = groupoid_fiber_square(ext)
    assert fsq.dim == len(enveloping(g).elements) == 4


def test_groupoid_fiber_square_isotropy_case():
    table, unit, _ = cyclic_table(2)
    x = uniform_space(2)
    action = {("g0", "x0"): "x0", ("g0", "x1"): "x1",
              ("g1", "x0"): "x0", ("g1", "x1"): "x1"}
    g = action_groupoid(table, unit, action, x, name="C2field")
    ext = convolution_algebra(g)
    fsq, iso = groupoid_fiber_square(ext)
    assert fsq.dim == len(enveloping(g).elements) == 8


def test_twisted_fiber_square_isomorphic_not_equal_subspace():
    r = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r)
    ext_t = convolution_algebra(r, sig)
    ext_u = convolution_algebra(r)
    f_t, iso_t = groupoid_fiber_square(ext_t)
    f_u, iso_u = groupoid_fiber_square(ext_u)
    # both are C[R^e] with the same trace vector through the identification
    assert f_t.dim == f_u.dim == 9
    envalg = iso_t.env_alg
    for i in range(f_t.dim):
        assert f_t.trace({i: ONE}) == envalg.trace(iso_t.matrix.column(i))
    # as operator subspaces of End(A (x)_B A) they genuinely differ: the
    # twisted module structure moves the operators even though the algebra
    # does not remember the cocycle
    assert not operator_spans_equal(f_t, f_u)


def test_projection_pair_trace_identity_m2():
    ext = m2_diag_extension()
    p = {ext.alg.index("e11"): ONE}
    lhs, rhs = projection_pair_trace_identity(ext, p)
    assert lhs == rhs == gs(Fraction(1, 2))


def test_projection_pair_trace_identity_scalars():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    p = {m2.index("e11"): ONE}
    lhs, rhs = projection_pair_trace_identity(ext, p)
    assert lhs == rhs == gs(Fraction(1, 4))


def test_invariant_subspace_faithful():
    ext = convolution_algebra(pair_relation(uniform_space(2)))
    fsq, iso = groupoid_fiber_square(ext)
    inv = fsq.tensor.level.invariants()
    assert inv.cols == 4
    # the report's invariants_faithful, recomputed entrywise: the basis
    # operators restricted to the invariants are independent
    ech = Echelon()
    for op in fsq.ops:
        r = op.mul(inv)
        flat = {j * r.rows + i: x for j, c in enumerate(r.col) for i, x in c.items()}
        assert ech.insert(flat)[0] is not None
    assert iso.checks["invariants_faithful"]


def test_s_condition_variant_reading_differs():
    # the matching condition u* x u = v x v* pairs a bisection with its
    # inverse permutation; the alternative reading u x u* = v x v* pairs it
    # with itself.  On pair(3) the two pair sets genuinely differ.  The
    # alternative set holds pairs whose evaluation is not B-central, which
    # fiber_square refuses; its central pairs are matching pairs after all
    # and generate the same fiber square.  The family holds every bisection
    # (signed_bisection_family): every elementary bisection's permutation is
    # an involution, and on those alone the two readings coincide.
    ext = convolution_algebra(pair_relation(uniform_space(3)))
    ext.alg.unitary_family = signed_bisection_family(ext)
    printed = canonical_pairs(ext)
    fam = ext.alg.unitary_family
    by_right_sig = {}
    for nm, u in fam:
        s = fs._sig(ext, u, "right")
        if s is not None:
            by_right_sig.setdefault(s, []).append((nm, u))
    alternative = [(named_u, (nv, v)) for nv, v in fam
                   for named_u in by_right_sig.get(fs._sig(ext, v, "right"), ())]

    def keyset(pairs):
        return {(nu, nv) for (nu, _), (nv, _) in pairs}

    assert keyset(printed) != keyset(alternative)
    with pytest.raises(AssertionError, match="not B-central"):
        fiber_square(ext, alternative)
    bt = balanced_tensor(ext)
    central = [((nu, u), (nv, v)) for (nu, u), (nv, v) in alternative
               if bt.level.is_central(bt.level.tensor_class(u, v))]
    assert 0 < len(central) < len(alternative)
    assert all(s_condition(ext, u, v) for (_, u), (_, v) in central)
    f1 = fiber_square(ext, printed)
    f2 = fiber_square(ext, central)
    assert f1.dim == f2.dim == 9


def fiber_square_of_family(ext, bt, fam):
    """The fiber square of ext on the canonical pairs of the family fam."""
    kept = ext.alg.unitary_family
    ext.alg.unitary_family = fam
    try:
        pairs = canonical_pairs(ext)
    finally:
        ext.alg.unitary_family = kept
    return fiber_square(ext, pairs, tensor=bt)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(measured_groupoids(max_arrows=8), st.booleans(), st.integers(0, 2 ** 16))
def test_unsigned_bisections_reach_the_signed_fiber_square(g, shuffle, seed):
    # the closure forms every sign-dressed pair from the signed identity and
    # the unsigned bisections (convolution_algebra docstring, "Same
    # algebra"), so both families give the same span of evaluations.  In
    # the order partition_relation and action_groupoid list a groupoid, the
    # trace list matches too; a shuffled document may list other traces.
    if shuffle:
        g = shuffled(g, seed)
    ext = convolution_algebra(g)
    assert len(ext.alg.unitary_family) == \
        1 + len(g.base.atoms) + len(elementary_bisections(g))
    bt = balanced_tensor(ext)
    fsq = fiber_square(ext, canonical_pairs(ext), tensor=bt)
    signed = fiber_square_of_family(ext, bt, signed_bisection_family(ext))
    assert fsq.dim == signed.dim == len(enveloping(g).elements)
    span = Echelon()
    for v in signed.evals:
        span.insert(v)
    assert all(span.contains(v) for v in fsq.evals)
    if not shuffle:
        assert fsq.trace_table == signed.trace_table


# ---------------------------------------------------------------------------
# the separating-vector certificate: oracle and fault injection


def cs3_ext():
    table, unit, els = symmetric_table(3)
    return trivial_extension(group_algebra(table, unit, elements=els,
                                           name="CS3"))


def pair3_ext():
    return convolution_algebra(pair_relation(uniform_space(3)))


ORACLE_CASES = {
    "CC2/C": lambda: cgroup_ext(2),
    "M2/diag": m2_diag_extension,
    "pair(3)": pair3_ext,
    "CS3/C": cs3_ext,
}


def admitted_pairs(ext, pairs):
    """The pairs fiber_square admits: each given pair and its starred pair
    that pass the matching condition."""
    A = ext.alg
    out = []
    for (_, u), (_, v) in pairs:
        for uu, vv in ((u, v), (A.star(u), A.star(v))):
            if s_condition(ext, uu, vv):
                out.append((uu, vv))
    return out


@pytest.mark.parametrize("label", sorted(ORACLE_CASES) + ["pair(4)"])
def test_saturation_stopped_at_the_invariants_builds_the_same_basis(label):
    # _saturate stops once the evaluations fill the B-central vectors; with
    # the bound patched away it saturates to the end, and must find nothing
    # more
    if label == "pair(4)":
        ext = convolution_algebra(pair_relation(uniform_space(4)))
    else:
        ext = ORACLE_CASES[label]()
    pairs = canonical_pairs(ext)
    bt = balanced_tensor(ext)
    evals = fs._saturate(bt, pairs)
    assert evals.dim == bt.level.invariants().cols

    unbounded = balanced_tensor(ext)
    unbounded.level.invariants = lambda: GMatrix(unbounded.dim, float("inf"), [])
    assert fs._saturate(unbounded, pairs).vectors == evals.vectors


def op_of(fsq, coeffs):
    """The combination of the basis operators that coeffs names."""
    return combination(fsq.tensor.dim, coeffs, fsq.ops.__getitem__)


def pair_operator_by_columns(bt, u, v):
    """u * v with column q = (i, j) the class of a_i u (x) v c_j: an oracle
    independent of the evaluation [u (x) v]."""
    A, lvl = bt.ext.alg, bt.level
    return GMatrix.from_cols(lvl.dim, [
        lvl.tensor_class(A.mul({i: ONE}, u), A.mul(v, {j: ONE})) for i, j in lvl.reps()])


@pytest.mark.parametrize("label", sorted(ORACLE_CASES))
def test_identities_read_off_the_cyclic_vector_hold_entrywise(label):
    # the certificate replaces these comparisons; here they run in full
    ext = ORACLE_CASES[label]()
    pairs = canonical_pairs(ext)
    fsq = fiber_square(ext, pairs)
    bt = fsq.tensor
    for i in range(fsq.dim):
        for j in range(fsq.dim):
            assert fsq.ops[i].mul(fsq.ops[j]) == op_of(fsq, fsq.mult[i][j])
    span = SpanBasis()
    for ev in fsq.evals:
        assert span.add(ev)
    admitted = admitted_pairs(ext, pairs)
    assert admitted
    for u, v in admitted:
        op = pair_operator_by_columns(bt, u, v)
        assert op == pair_operator(bt, u, v)
        coeffs = span.coords(op.apply(bt.one_one))
        assert coeffs is not None
        assert op == op_of(fsq, coeffs)


@pytest.mark.parametrize("label", ["pair(4)", "CS3/C"])
def test_operator_matrices_are_built_from_evaluations_only(monkeypatch, label):
    # fiber_square builds one operator for the cyclic check, one per basis
    # vector and one per adjoint check.  The saturation builds none on
    # CS3/C, where the pair evaluations alone reach the bound.  On pair(4)
    # the unsigned bisections need products with the sign flips, and the
    # saturation builds each generator's operator at most once.  Building
    # an operator per pair or per product would break these counts.
    built, adjoints, saturation = [], [], []
    operator, check_bimodular, saturate = fs._operator, fs._check_bimodular, fs._saturate
    monkeypatch.setattr(fs, "_operator",
                        lambda bt, xi: built.append(xi) or operator(bt, xi))
    monkeypatch.setattr(fs, "_check_bimodular",
                        lambda bt, op: adjoints.append(op) or check_bimodular(bt, op))

    def spied(bt, pairs):
        start = len(built)
        evals = saturate(bt, pairs)
        saturation.extend(built[start:])
        return evals

    monkeypatch.setattr(fs, "_saturate", spied)
    if label == "pair(4)":
        ext = convolution_algebra(pair_relation(uniform_space(4)))
        fsq, _ = groupoid_fiber_square(ext)
    else:
        ext = cs3_ext()
        fsq = fiber_square(ext, canonical_pairs(ext))
    assert len(adjoints) == fsq.dim
    if label == "CS3/C":
        assert len(built) - 1 - len(adjoints) == fsq.dim
        return
    assert len(built) - 1 - len(adjoints) - len(saturation) == fsq.dim
    # generator 0 is the identity and is never built
    assert 0 < len(saturation) < fsq.dim
    assert len({frozenset(xi.items()) for xi in saturation}) == len(saturation)
    assert len(saturation) < len(canonical_pairs(ext))


def bump_entry(op, skip_cols=()):
    """Turn the first zero entry of op outside skip_cols into 1, in place."""
    for j in range(op.cols):
        if j in skip_cols:
            continue
        for i in range(op.rows):
            if i not in op.col[j]:
                op.col[j][i] = ONE
                return
    raise AssertionError("operator has no zero entry")


def test_fault_basis_operator_with_wrong_evaluation_is_caught(monkeypatch):
    # 2 T is still bimodular; only its evaluation at 1(x)1 is wrong.  The
    # identity is left alone, so the cyclic check passes.
    ext = m2_diag_extension()
    operator = fs._operator

    def doubled(bt, xi):
        op = operator(bt, xi)
        if vec_eq(xi, bt.one_one):
            return op
        return GMatrix(op.rows, op.cols, [{i: x + x for i, x in c.items()} for c in op.col])

    monkeypatch.setattr(fs, "_operator", doubled)
    with pytest.raises(AssertionError, match="does not evaluate"):
        fiber_square(ext, canonical_pairs(ext))


def test_fault_non_central_basis_vector_is_caught(monkeypatch):
    # a coordinate with tl != sr added to the last canonical basis vector
    # makes it non-central; the operator built from it is not bimodular
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    lvl = bt.level
    q = next(q for q, (t, s) in enumerate(zip(lvl.tl, lvl.sr)) if t != s)
    canonicalized = fs.canonicalized_span

    def skewed(vectors):
        can = canonicalized(vectors)
        can.vectors[-1] = {**can.vectors[-1], q: ONE}
        return can

    monkeypatch.setattr(fs, "canonicalized_span", skewed)
    with pytest.raises(AssertionError, match="basis vector .* is not B-central"):
        fiber_square(ext, canonical_pairs(ext), tensor=bt)


def test_fault_adjoint_entry_is_caught(monkeypatch):
    # an entry bumped in a column outside the support of 1(x)1 leaves the
    # adjoint's evaluation unchanged, so only its bimodularity check, which
    # stands in for comparing it with the combination its evaluation names,
    # can see the corruption
    ext = m2_diag_extension()
    bt = balanced_tensor(ext)
    original = fs.adjoint_wrt

    def corrupted_adjoint(*args):
        adj = original(*args)
        bump_entry(adj, skip_cols=bt.one_one)
        return adj

    monkeypatch.setattr(fs, "adjoint_wrt", corrupted_adjoint)
    with pytest.raises(AssertionError, match="does not commute"):
        fiber_square(ext, canonical_pairs(ext), tensor=bt)


def test_fault_one_one_entry_is_caught():
    # over the scalars every extra entry of 1(x)1 moves some a.(1(x)1).c
    ext = cgroup_ext(2)
    bt = balanced_tensor(ext)
    q = next(q for q in range(bt.dim) if q not in bt.one_one)
    bt.one_one = dict(bt.one_one)
    bt.one_one[q] = ONE
    with pytest.raises(AssertionError, match="not cyclic"):
        fiber_square(ext, canonical_pairs(ext), tensor=bt)


def test_fault_mismatched_pair_admitted_is_caught():
    ext = m2_diag_extension()
    swap = {ext.alg.index("e12"): ONE, ext.alg.index("e21"): ONE}
    unit = dict(ext.alg.unit)
    pairs = canonical_pairs(ext) + [(("swap", swap), ("1", unit))]
    with pytest.raises(AssertionError, match="not B-central"):
        fiber_square(ext, pairs)
    with pytest.raises(AssertionError, match="not B-central"):
        pair_operator(balanced_tensor(ext), swap, unit)


def test_fault_radical_column_dropped_is_caught(monkeypatch):
    # over the basis {1, h} of B every nonzero relation is +-2 e_v (x) e_a,
    # one per pair, so without the first one its coordinate is kept although
    # it lies in the radical: only the rank check on the kept coordinates
    # sees it
    relations = tensor_mod._balancing_relations
    monkeypatch.setattr(tensor_mod, "_balancing_relations",
                        lambda prev: list(relations(prev))[1:])
    ext = m2_diag_sign_basis_extension()
    assert ext.grading() is None
    with pytest.raises(AssertionError, match="do not span the radical"):
        balanced_tensor(ext)


def test_fault_invariants_not_matching_coinvariants_is_caught(monkeypatch):
    # on the radical path the invariants (the common kernel of the defects)
    # and the coinvariants (the quotient by their span) are computed apart;
    # a coinvariant quotient one coordinate short is caught where the fiber
    # square reads the invariants
    original = tensor_mod.Level.coinvariants

    def short(self):
        q = original(self)
        return tensor_mod.Quotient(q.ambient_dim, list(q.keep)[1:], q.ech)

    ext = m2_diag_sign_basis_extension()
    assert fs.fiber_square_of(ext)[0].dim == 4
    monkeypatch.setattr(tensor_mod.Level, "coinvariants", short)
    with pytest.raises(AssertionError, match="^invariants do not match coinvariants$"):
        fs.fiber_square_of(m2_diag_sign_basis_extension())


def test_fault_relation_outside_the_radical_is_caught(monkeypatch):
    # e11 (x) e11 has <e11 (x) e11, e11 (x) e11> = tr(E(e11) E(e11)) != 0;
    # quotiented out as a relation it would pass the rank check, which only
    # sees the coordinates kept
    relations = tensor_mod._balancing_relations
    ext = m2_diag_sign_basis_extension()
    e11 = ext.alg.index("e11")
    monkeypatch.setattr(tensor_mod, "_balancing_relations",
                        lambda prev: list(relations(prev)) + [{e11 * ext.alg.dim + e11: ONE}])
    with pytest.raises(AssertionError, match="escapes the radical"):
        balanced_tensor(ext)


def test_fault_operator_with_non_central_evaluation_is_caught():
    # CS3 over itself: 1(x)1 is the basis vector [t (x) t] of a transposition
    # t, and xi = [t (x) 1] satisfies t . xi . t = xi, so the operator with
    # columns a_i . xi . c_j evaluates to xi; it passes the column check,
    # and only the centrality of xi rules it out
    ext = full_extension(cs3_ext().alg)
    bt = balanced_tensor(ext)
    lvl, d2 = bt.level, ext.alg.dim
    (q0,) = bt.one_one
    t = lvl.quotient.keep[q0] // d2
    xi = lvl.tensor_class({t: ONE}, ext.alg.unit)
    assert not lvl.is_central(xi)
    cols = []
    for k in lvl.quotient.keep:
        i, j = divmod(k, d2)
        cols.append(lvl.left_act(i).apply(lvl.right_act(j).apply(xi)))
    op = GMatrix.from_cols(bt.dim, cols)
    assert vec_eq(op.apply(bt.one_one), xi)
    with pytest.raises(AssertionError, match="does not commute.*not B-central"):
        fs._check_bimodular(bt, op)


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")


@pytest.mark.parametrize("name, part, caught", [
    ("cs3.json", "product", None),
    ("cs3.json", "star", None),
    ("cs3.json", "unit", None),
    ("m2_scalars.json", "product", None),
    ("m2_scalars.json", "star", None),
    ("m2_scalars.json", "unit", "trace_normalization"),
    ("pair2.json", "product", "'algebra_morphism': False"),
    ("pair2.json", "star", "'star_morphism': False"),
    ("pair2.json", "unit", "trace_normalization"),
])
def test_fault_corrupted_structure_is_caught_or_moves_the_value(
        monkeypatch, name, part, caught):
    # the unit, star and GNS axioms of a fiber square are not re-checked
    # (fibersquare module docstring, "The axioms").  One bumped coordinate
    # of T_0 in the product T_m T_m, in the star of T_m, or of T_m in the
    # unit (T_m the last basis operator) must be caught by a check that
    # still runs (caught names its message) or move beta_0, here unseeded
    structure = fs.span_structure

    def corrupted(span, *args):
        mult, star, traces, unit = structure(span, *args)
        mult, star = [list(row) for row in mult], list(star)
        if part == "product":
            mult[-1][-1] = vec_add(mult[-1][-1], {0: ONE})
        elif part == "star":
            star[-1] = vec_add(star[-1], {0: ONE})
        else:
            unit = vec_add(unit, {len(mult) - 1: ONE})
        return mult, star, traces, unit

    ext = as_extension(load_path(os.path.join(CORPUS, name)))
    clean = betti_hochschild(ext, 2).values
    monkeypatch.setattr(fs, "span_structure", corrupted)
    if caught:
        with pytest.raises(AssertionError, match=caught):
            betti_hochschild(ext, 2)
    else:
        assert betti_hochschild(ext, 2).values[0] != clean[0]


@pytest.mark.parametrize("n", [2, 3])
def test_fault_duplicated_phi_column_is_caught(monkeypatch, n):
    # bijective is read from the certified facts, not from a kernel of phi
    # (fibersquare module docstring, "The identification"); a phi with
    # column 1 replaced by column 0 fails the morphism checks that still run
    class Duplicating(GMatrix):
        @staticmethod
        def from_cols(rows, cols):
            cols = list(cols)
            cols[1] = cols[0]
            return GMatrix.from_cols(rows, cols)

    ext = convolution_algebra(pair_relation(uniform_space(n)))
    monkeypatch.setattr(fs, "GMatrix", Duplicating)
    with pytest.raises(AssertionError, match="'algebra_morphism': False"):
        groupoid_fiber_square(ext)


def test_fault_enveloping_vector_forced_to_zero_is_caught(monkeypatch):
    # a vector that dies in the balanced tensor is dependent: SpanBasis.add
    # refuses it (fibersquare module docstring, "The identification")
    ext = convolution_algebra(pair_relation(uniform_space(2)))
    original_env, original_class = fs.enveloping, tensor_mod.Level.tensor_class
    zero_next = []

    def enveloping_then_zero(g):
        zero_next.append(True)
        return original_env(g)

    def tensor_class(self, v, a):
        if zero_next and zero_next.pop():
            return {}
        return original_class(self, v, a)

    monkeypatch.setattr(fs, "enveloping", enveloping_then_zero)
    monkeypatch.setattr(tensor_mod.Level, "tensor_class", tensor_class)
    with pytest.raises(AssertionError, match="^enveloping vectors are dependent$"):
        groupoid_fiber_square(ext)


@pytest.mark.parametrize("name", ["pair(2)", "C2"])
def test_fault_negated_enveloping_structure_constant_is_caught(monkeypatch, name):
    # C[G^e] is built by convolution_star_algebra without validate_algebra;
    # negating any one of its structure constants after the build breaks
    # the multiplicativity of phi, which still runs
    if name == "C2":
        table, unit, _ = cyclic_table(2)
        g = group_groupoid(table, unit, name="C2")
    else:
        g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    mult = fs.convolution_star_algebra(enveloping(g)).mult
    constants = [(i, j) for i, row in enumerate(mult) for j, v in enumerate(row) if v]
    assert constants
    original = fs.convolution_star_algebra
    for i, j in constants:
        def negated(env, i=i, j=j):
            alg = original(env)
            (k, x), = alg.mult[i][j].items()
            alg.mult[i][j] = {k: -x}
            return alg

        monkeypatch.setattr(fs, "convolution_star_algebra", negated)
        with pytest.raises(AssertionError, match="'algebra_morphism': False"):
            groupoid_fiber_square(ext)
