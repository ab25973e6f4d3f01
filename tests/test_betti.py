import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.algebras import (
    TracialStarAlgebra, conditional_expectation, convolution_algebra,
    diagonal_subalgebra_vectors, distinct_triple_sign_cocycle, group_algebra,
    matrix_algebra, trivial_extension, weighted_sum_algebras,
)
from l2betti.betti import (
    FiniteModule, betti_hochschild, betti_sauer, cover_dimension,
    generator_independence_check, verify_compression, verify_groupoid_equality,
    verify_residual, verify_weighted_sum, vn_dimension,
)
from l2betti.complexes import (
    PresimplicialModule, geometric_complex, homology, l2_complex,
)
from l2betti.fibersquare import fiber_square_of
from l2betti.fileio import as_extension, load_path
from l2betti.groupoids import (
    group_groupoid, pair_relation, partition_relation,
    trivial_groupoid, uniform_space,
)
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, as_matrix, solve
from l2betti.scalars import ONE, gs
from oracles import (
    closed_form_betti, closed_form_matrix_sum_betti, column_module, conjugate,
    direct_sum, free_module, matrix_from_rows, measured_groupoids,
    partition_relations, trivial_module, validate_module,
)


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")


def cgroup_ext(n):
    table, unit, els = cyclic_table(n)
    return trivial_extension(group_algebra(table, unit, elements=els,
                                           name="CC%d" % n))


def cs3_ext():
    table, unit, els = symmetric_table(3)
    return trivial_extension(group_algebra(table, unit, elements=els, name="CS3"))


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
    # the free cover behind the seeded cross-check: duplicated and permuted
    # generating sets give the character's value
    gens = [{0: ONE}, {1: ONE}]
    base = cover_dimension(alg, mod, gens)
    dup = cover_dimension(alg, mod, gens + [{0: ONE, 1: ONE}])
    perm = cover_dimension(alg, mod, list(reversed(gens)))
    assert base == dup == perm == vn_dimension(alg, mod) == Fraction(1, 2)
    assert all(generator_independence_check(alg, m, v, seed)
               for m, v in ((mod, Fraction(1, 2)), (both, Fraction(1)))
               for seed in range(3))


@settings(max_examples=15, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_vn_dimension_isomorphism_invariance(a, b, c):
    alg, mod = column_module(2)
    # conjugate the module by a random invertible rational matrix
    t = matrix_from_rows([[1, a], [0, 1]]).mul(
        matrix_from_rows([[1, 0], [b, 1]])).mul(
        matrix_from_rows([[1, c], [0, 1]]))
    conj = conjugate(mod, t)
    validate_module(conj)
    assert vn_dimension(alg, conj) == vn_dimension(alg, mod) == Fraction(1, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["M2", "C3"]),
       st.lists(st.integers(0, 1), min_size=1, max_size=3),
       st.integers(-2, 2), st.integers(0, 2 ** 16))
def test_character_equals_the_free_cover_on_generated_modules(which, kinds, shear, seed):
    # direct sums of free and column (M2) or free and trivial (C[C3])
    # modules, conjugated by a shear: the character and the free cover on a
    # seeded generating set both give the additive value
    if which == "M2":
        alg, col = column_module(2)
        parts = [(free_module(alg), 1) if k else (col, Fraction(1, 2)) for k in kinds]
    else:
        alg = cgroup_ext(3).alg
        parts = [(free_module(alg), 1) if k else (trivial_module(alg), Fraction(1, 3))
                 for k in kinds]
    mod = parts[0][0]
    for m, _ in parts[1:]:
        mod = direct_sum(mod, m)
    rows = [[int(i == j) for j in range(mod.dim)] for i in range(mod.dim)]
    if mod.dim > 1:
        rows[0][-1] = shear
    mod = conjugate(mod, matrix_from_rows(rows))
    value = vn_dimension(alg, mod)
    assert value == sum(v for _, v in parts)
    assert generator_independence_check(alg, mod, value, seed)


def test_vn_dimension_rejects_non_generators():
    alg, mod = column_module(2)
    with pytest.raises(ValueError, match="^generators do not generate the module$"):
        cover_dimension(alg, mod, [{}])


def test_vn_dimension_rejects_a_degenerate_trace():
    # C^2 with the trace (1, 0): the second minimal projection has norm 0
    alg = TracialStarAlgebra(["p", "q"], [[{0: ONE}, {}], [{}, {1: ONE}]],
                             [{0: ONE}, {1: ONE}], {0: ONE}, {0: ONE, 1: ONE})
    with pytest.raises(ValueError, match="^trace form is degenerate: "
                                         "algebra is not semisimple$"):
        vn_dimension(alg, free_module(alg))


def test_vn_dimension_rejects_a_nilpotent_casimir():
    # C[x]/x^2 with tr(1) = 0, tr(x) = 1: the trace form is nondegenerate,
    # but c = 2x is nilpotent, as for every algebra that is not semisimple
    alg = TracialStarAlgebra(["1", "x"], [[{0: ONE}, {1: ONE}], [{1: ONE}, {}]],
                             [{0: ONE}, {1: ONE}], {1: ONE}, {0: ONE})
    with pytest.raises(ValueError, match="^Casimir element is not invertible: "
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


@settings(derandomize=True, max_examples=50, deadline=None)
@given(measured_groupoids(max_arrows=10))
def test_groupoid_equality_meets_the_closed_form_on_generated_groupoids(g):
    # beta_0 = sum_x mu(x) / |t^-1(x)| and beta_1 = 0, on the Sauer side and
    # on the Hochschild side
    rep = verify_groupoid_equality(g, 2)
    assert rep.passed
    assert rep.lhs == rep.rhs == closed_form_betti(g, 2)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(partition_relations(max_arrows=14))
def test_twisted_residual_meets_the_closed_form_on_generated_relations(r):
    rep = verify_residual(r, distinct_triple_sign_cocycle(r), 2)
    assert rep.passed
    assert rep.lhs == rep.rhs == closed_form_betti(r, 2)


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


CAUGHT_TWIST = ("is not unitary", "balancing relation escapes the radical",
                "operator does not commute with the outer actions")


def test_fault_bumped_twisted_structure_constant_is_caught(monkeypatch):
    # the twisted product is certified by its inputs
    # (convolution_star_algebra), not by validate_algebra; negating any one
    # of its 27 structure constants after the build is still caught, by the
    # unitarity of the normalizer's generators, by the balancing relations
    # of the tower, or by the bimodularity of a fiber-square operator
    import l2betti.betti as betti_mod
    r = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r)
    mult = convolution_algebra(r, sig).alg.mult
    constants = [(i, j) for i, row in enumerate(mult) for j, v in enumerate(row) if v]
    assert len(constants) == 27
    caught = set()
    for i, j in constants:
        def bumped(g, sigma=None, i=i, j=j):
            ext = convolution_algebra(g, sigma)
            if sigma is not None:
                (k, x), = ext.alg.mult[i][j].items()
                ext.alg.mult[i][j] = {k: -x}
            return ext

        monkeypatch.setattr(betti_mod, "convolution_algebra", bumped)
        with pytest.raises((AssertionError, ValueError)) as e:
            verify_residual(r, sig, 2)
        caught.add(next(m for m in CAUGHT_TWIST if m in str(e.value)))
    assert caught == set(CAUGHT_TWIST)


def test_dimension_isomorphism_robustness():
    # padding a complex with a split free summand keeps every Betti number
    r = pair_relation(uniform_space(2))
    ext = convolution_algebra(r)
    t = betti_sauer(r, 2, alg=ext.alg)
    cls = geometric_complex(r, "classifying", 2, coeff=ext.alg)
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

    padded = PresimplicialModule([n0 + pad, n1 + pad], newfaces,
                                 coeff=alg, action=action,
                                 name="padded")
    hm = homology(padded, 0)
    mod = FiniteModule(alg, hm.dim, hm.action_matrices())
    assert vn_dimension(alg, mod) == t.values[0]


# ---------------------------------------------------------------------------
# faults in what the character reads


@pytest.mark.parametrize("weight", [Fraction(1, 3), Fraction(0)], ids=["moved", "zero"])
def test_fault_corrupted_coefficient_trace(weight):
    # one trace value of betti_sauer's coefficient algebra, read through its
    # GNS Gram (dropped from the cache, as if the value were built wrong):
    # another weight moves beta_0, a zero weight is a degenerate trace form
    r = pair_relation(uniform_space(2))
    good = betti_sauer(r, 2).values
    ext = convolution_algebra(r)
    k = next(iter(ext.alg.trace_table))
    ext.alg.trace_table[k] = gs(weight)
    ext.alg._gram = None
    if weight:
        assert betti_sauer(r, 2, alg=ext.alg).values != good
    else:
        with pytest.raises(ValueError, match="^trace form is degenerate"):
            betti_sauer(r, 2, alg=ext.alg)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3)
       .filter(lambda ns: ns.count(2) <= 1),
       st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_weighted_matrix_sums_match_the_closed_form(blocks, parts):
    # A = (+)_i M_{n_i} over C.  With at most one M_2 block both degrees
    # take elimination (two M_2 blocks put d_2 past ELIMINATION_LIMIT):
    # H_0 != 0 keeps every column of d_1, and H_1 = 0 stops d_2 once its
    # image fills ker d_1
    parts = parts[:len(blocks)]
    weights = [Fraction(k, sum(parts)) for k in parts]
    alg = weighted_sum_algebras([matrix_algebra(n) for n in blocks], weights)
    table = betti_hochschild(trivial_extension(alg), 2)
    assert table.values == closed_form_matrix_sum_betti(blocks, weights, 2)
    assert table.meta["rank_methods"] == ["elimination", "elimination"]


def test_fault_corrupted_action_entry_moves_the_value():
    # a diagonal entry of the built chain action of the unit, on the support
    # of a basis cycle: the character moves from 1/6.  An entry in a column
    # that no basis cycle reaches is never read, so it cannot move it.
    fsq, _ = fiber_square_of(cs3_ext())
    (k,) = fsq.inverse_casimir()
    cx = l2_complex(fsq, 2)
    hm = homology(cx, 0)
    assert vn_dimension(fsq, FiniteModule(fsq, hm.dim, hm.action_matrices())) == \
        Fraction(1, 6)
    act = cx.action(0, k)
    j = min(hm.cycles.vectors[0])
    act.col[j][j] = act.col[j][j] + ONE
    assert vn_dimension(fsq, FiniteModule(fsq, hm.dim, hm.action_matrices())) == \
        Fraction(7, 36)


def test_fault_action_leaving_the_cycles_is_caught():
    # C_1 = A + A -> C_0 = A, (x, y) -> x, so H_1 = 0 + A is the free
    # module; an action that sends (0, y) to (y, y) leaves the cycles
    alg = cgroup_ext(2).alg
    n = alg.dim
    reg = free_module(alg).actions
    proj = GMatrix(n, 2 * n, [{j: ONE} for j in range(n)] + [{} for _ in range(n)])
    faces = [None, [proj, GMatrix.zero(n, 2 * n)], [GMatrix.zero(2 * n, 0)] * 3]

    def complex_with(leak):
        def action(deg, k):
            if deg == 0:
                return reg[k]
            m = GMatrix.zero(2 * n, 2 * n)
            for j in range(n):
                m.col[j] = dict(reg[k].col[j])
                m.col[n + j] = {n + i: x for i, x in reg[k].col[j].items()}
                if leak:
                    m.col[n + j].update(reg[k].col[j])
            return m
        return PresimplicialModule([n, 2 * n, 0], faces, coeff=alg, action=action)

    hm = homology(complex_with(False), 1)
    assert vn_dimension(alg, FiniteModule(alg, hm.dim, hm.action_matrices())) == 1
    hm = homology(complex_with(True), 1)
    with pytest.raises(AssertionError, match="an image leaves the cycles"):
        vn_dimension(alg, FiniteModule(alg, hm.dim, hm.action_matrices()))


def test_fault_corrupted_casimir_solve(monkeypatch):
    # c y = 1 solved to 2 c^{-1}: the value doubles, and the seeded
    # free-cover cross-check refuses it
    import l2betti.algebras as algebras_mod

    def doubled(m, rhs):
        return {k: x + x for k, x in solve(m, rhs).items()}

    monkeypatch.setattr(algebras_mod, "solve", doubled)
    assert betti_hochschild(cs3_ext(), 2).values == [Fraction(1, 3), 0]
    with pytest.raises(AssertionError, match="differs from the character"):
        betti_hochschild(cs3_ext(), 2, seed=0)


@pytest.mark.parametrize("name, terms", [("cs3.json", 1), ("sum_central_cc2_cc3.json", 14)])
def test_unseeded_run_builds_actions_only_on_the_casimir_support(name, terms, monkeypatch):
    built = []
    original = PresimplicialModule.action

    def spy(self, n, k):
        built.append((self.coeff, k))
        return original(self, n, k)

    monkeypatch.setattr(PresimplicialModule, "action", spy)
    betti_hochschild(as_extension(load_path(os.path.join(CORPUS, name))), 2)
    (coeff,) = {c for c, _ in built}
    assert {k for _, k in built} == set(coeff.inverse_casimir())
    assert len(coeff.inverse_casimir()) == terms
