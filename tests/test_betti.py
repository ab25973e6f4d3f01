from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.algebras import (
    TracialStarAlgebra, conditional_expectation, convolution_algebra,
    diagonal_subalgebra_vectors, distinct_triple_sign_cocycle, group_algebra,
    matrix_algebra, trivial_extension,
)
from l2betti.betti import (
    FiniteModule, betti_hochschild, betti_sauer, verify_compression,
    verify_groupoid_equality, verify_residual, verify_weighted_sum,
    vn_dimension,
)
from l2betti.complexes import geometric_complex, homology
from l2betti.groupoids import (
    group_groupoid, pair_relation, partition_relation,
    trivial_groupoid, uniform_space,
)
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, as_matrix
from l2betti.scalars import ONE
from oracles import direct_sum, free_module, matrix_from_rows, validate_module


def cgroup_ext(n):
    table, unit, els = cyclic_table(n)
    return trivial_extension(group_algebra(table, unit, elements=els,
                                           name="CC%d" % n))


def trivial_module(alg):
    """One-dimensional module where the algebra acts by the trace of the
    group-like character: only valid for group algebras (augmentation)."""
    acts = []
    for i in range(alg.dim):
        acts.append(matrix_from_rows([[1]]))
    return FiniteModule(alg, 1, acts)


def column_module(n):
    alg = matrix_algebra(n)
    acts = []
    for i in range(n):
        for j in range(n):
            m = GMatrix.zero(n, n)
            m.col[j][i] = ONE
            acts.append(m)
    return alg, FiniteModule(alg, n, acts)


def test_vn_dimension_free_modules():
    alg = cgroup_ext(3).alg
    for k in (1, 2):
        assert vn_dimension(alg, free_module(alg, k)) == k


def test_vn_dimension_trivial_module_group():
    for n in (2, 3):
        alg = cgroup_ext(n).alg
        mod = trivial_module(alg)
        validate_module(mod)
        assert vn_dimension(alg, mod) == Fraction(1, n)
    table, unit, els = symmetric_table(3)
    s3 = group_algebra(table, unit, elements=els, name="CS3")
    mod = trivial_module(s3)
    validate_module(mod)
    assert vn_dimension(s3, mod) == Fraction(1, 6)


def test_vn_dimension_column_module():
    for n in (2, 3):
        alg, mod = column_module(n)
        validate_module(mod)
        assert vn_dimension(alg, mod) == Fraction(1, n)


def test_vn_dimension_additive_and_generator_independent():
    alg, mod = column_module(2)
    both = direct_sum(mod, mod)
    assert vn_dimension(alg, both) == Fraction(1)
    # duplicated and permuted generating sets give the same value
    gens = [{0: ONE}, {1: ONE}]
    base = vn_dimension(alg, mod, generators=gens)
    dup = vn_dimension(alg, mod, generators=gens + [{0: ONE, 1: ONE}])
    perm = vn_dimension(alg, mod, generators=list(reversed(gens)))
    assert base == dup == perm == Fraction(1, 2)


@settings(max_examples=15, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_vn_dimension_isomorphism_invariance(a, b, c):
    alg, mod = column_module(2)
    # conjugate the module by a random invertible rational matrix
    t = matrix_from_rows([[1, a], [0, 1]]).mul(
        matrix_from_rows([[1, 0], [b, 1]])).mul(
        matrix_from_rows([[1, c], [0, 1]]))
    from l2betti.linalg import invert
    tinv = invert(t)
    conj = FiniteModule(alg, 2, [t.mul(m).mul(tinv) for m in mod.actions])
    validate_module(conj)
    assert vn_dimension(alg, conj) == vn_dimension(alg, mod) == Fraction(1, 2)


def test_vn_dimension_rejects_non_generators():
    alg, mod = column_module(2)
    with pytest.raises(ValueError, match="^generators do not generate the module$"):
        vn_dimension(alg, mod, generators=[{}])


def test_vn_dimension_rejects_a_degenerate_trace():
    # C^2 with the trace (1, 0): the second minimal projection has norm 0
    alg = TracialStarAlgebra(["p", "q"], [[{0: ONE}, {}], [{}, {1: ONE}]],
                             [{0: ONE}, {1: ONE}], {0: ONE}, {0: ONE, 1: ONE})
    with pytest.raises(ValueError, match="^trace form is degenerate: "
                                         "algebra is not semisimple$"):
        vn_dimension(alg, free_module(alg))


def test_betti_hochschild_group_algebras():
    for n in (2, 3):
        ext = cgroup_ext(n)
        t = betti_hochschild(ext, 2)
        assert t.values[0] == Fraction(1, n)
        assert t.values[1] == 0


def test_betti_hochschild_matrix_algebras():
    for n in (2, 3):
        ext = trivial_extension(matrix_algebra(n))
        t = betti_hochschild(ext, 1)
        assert t.values[0] == Fraction(1, n * n)


def test_betti_hochschild_m2_diag():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                  sub_labels=["d1", "d2"], name="M2/diag")
    t = betti_hochschild(ext, 3)
    assert t.values == [Fraction(1, 2), Fraction(0), Fraction(0)]


def test_betti_sauer_groupoids():
    table, unit, _ = cyclic_table(2)
    g = group_groupoid(table, unit, name="C2")
    t = betti_sauer(g, 3)
    assert t.values == [Fraction(1, 2), Fraction(0), Fraction(0)]

    for n in (2, 3):
        r = pair_relation(uniform_space(n))
        t = betti_sauer(r, 2)
        assert t.values[0] == Fraction(1, n)

    tr = trivial_groupoid(uniform_space(3))
    t = betti_sauer(tr, 2)
    assert t.values[0] == Fraction(1)


def test_betti_pipelines_agree_small():
    r = pair_relation(uniform_space(2))
    rep = verify_groupoid_equality(r, 3)
    assert rep.passed
    assert rep.lhs[0] == Fraction(1, 2)


def test_partition_relation_betti():
    g = partition_relation(uniform_space(3), [["x0", "x1"], ["x2"]])
    t = betti_sauer(g, 2)
    assert t.values[0] == Fraction(2, 3)
    rep = verify_groupoid_equality(g, 2)
    assert rep.passed


def test_compression_theorem_m2_scalars():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    p = {m2.index("e11"): ONE}
    rep = verify_compression(ext, p, 2)
    assert rep.passed
    assert rep.lhs[0] == Fraction(1) == rep.rhs[0]
    assert rep.details["trace_identity"]


def test_compression_theorem_m2_diag():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                  sub_labels=["d1", "d2"], name="M2/diag")
    p = {m2.index("e11"): ONE}
    rep = verify_compression(ext, p, 2)
    assert rep.passed
    assert rep.lhs[0] == Fraction(1)
    assert rep.details["tr_B(E(p)^2)"] == "1/2"


def test_directed_sum_theorem():
    m2 = matrix_algebra(2)
    ext1 = conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                   sub_labels=["d1", "d2"], name="M2/diag")
    ext2 = cgroup_ext(2)
    rep = verify_weighted_sum("directed_sum", [ext1, ext2],
                              [Fraction(1, 2), Fraction(1, 2)], 2)
    assert rep.passed
    assert rep.lhs[0] == Fraction(1, 2)


def test_central_quadratic_theorem():
    e1 = cgroup_ext(2)
    e2 = cgroup_ext(3)
    rep = verify_weighted_sum("central_quadratic", [e1, e2],
                              [Fraction(1, 2), Fraction(1, 2)], 2)
    assert rep.passed
    assert rep.lhs[0] == Fraction(5, 24)


def test_residual_theorem_untwisted_and_twisted():
    r = pair_relation(uniform_space(2))
    rep = verify_residual(r, None, 2)
    assert rep.passed
    assert rep.lhs[0] == Fraction(1, 2)

    r3 = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r3)
    rep_t = verify_residual(r3, sig, 2)
    rep_u = verify_residual(r3, None, 2)
    assert rep_t.passed and rep_u.passed
    assert rep_t.lhs == rep_u.lhs  # the cocycle is forgotten


def test_verify_residual_builds_the_relation_algebra_once(monkeypatch):
    import l2betti.betti as betti_mod
    r = pair_relation(uniform_space(2))
    built = []

    def counting(g, *args, **kwargs):
        if g is r:
            built.append(g)
        return convolution_algebra(g, *args, **kwargs)

    monkeypatch.setattr(betti_mod, "convolution_algebra", counting)
    assert verify_residual(r, None, 2).passed
    assert len(built) == 1


def test_dimension_isomorphism_robustness():
    # padding a complex with a split free summand keeps every Betti number
    r = pair_relation(uniform_space(2))
    ext = convolution_algebra(r)
    t = betti_sauer(r, 2, ext=ext)
    cls = geometric_complex(r, "classifying", 2, coeff_ext=ext)
    alg = ext.alg
    n0, n1 = cls.dims[0], cls.dims[1]
    pad = alg.dim

    faces1 = cls.faces[1]
    # extend degree 1 and 0 by a free block mapped identically
    def padded_face(f, sign_block):
        m = GMatrix.zero(n0 + pad, n1 + pad)
        f = as_matrix(f)
        for j in range(n1):
            for i, x in f.col[j].items():
                m.col[j][i] = x
        if sign_block:
            for j in range(pad):
                m.col[n1 + j][n0 + j] = ONE
        return m

    newfaces = [None, [padded_face(faces1[0], True), padded_face(faces1[1], False)],
                ]
    from l2betti.complexes import PresimplicialModule

    def action(n, k):
        base = cls.action(n, k)
        dim = (n0 if n == 0 else n1)
        m = GMatrix.zero(dim + pad, dim + pad)
        for j in range(dim):
            for i, x in base.col[j].items():
                m.col[j][i] = x
        reg = alg.mul({k: ONE}, {0: ONE})
        for j in range(pad):
            col = alg.mul({k: ONE}, {j: ONE})
            for i, x in col.items():
                m.col[dim + j][dim + i] = x
        return m

    def gram(n):
        base = cls.gram(n)
        dim = (n0 if n == 0 else n1)
        g = alg.gns_gram()
        m = GMatrix.zero(dim + pad, dim + pad)
        for j in range(dim):
            for i, x in base.col[j].items():
                m.col[j][i] = x
        for j in range(pad):
            for i, x in g.col[j].items():
                m.col[dim + j][dim + i] = x
        return m

    padded = PresimplicialModule([n0 + pad, n1 + pad], newfaces,
                                 coeff=alg, action=action, gram=gram,
                                 name="padded")
    hm = homology(padded, 0)
    mod = FiniteModule(alg, hm.dim, hm.action_matrices())
    assert vn_dimension(alg, mod) == t.values[0]
