from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.linalg import (
    Echelon, GMatrix, adjoint_wrt, as_matrix, invert, is_positive_semidefinite,
    kernel_basis, projection_coordinates, rank, solve, vec_dot, vec_eq,
)
from l2betti.scalars import GScalar, ONE, ZERO, gs, parse_scalar
from oracles import matrix_from_rows


# independent oracle: dense fraction-free-ish row reduction on plain lists
def oracle_rank(dense):
    m = [[gs(x) for x in row] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def test_scalar_field_basics():
    i = parse_scalar("i")
    assert i * i == gs(-1)
    z = parse_scalar("1/2+3/4i")
    assert z.conj().conj() == z
    assert (z * z.inverse()) == ONE
    assert str(parse_scalar("-i")) == "-i"
    assert parse_scalar("-2/3").re == Fraction(-2, 3)
    assert (z + (-z)).is_zero()


def test_rank_trivial_cases():
    assert rank(GMatrix.zero(3, 3)) == 0
    assert rank(GMatrix.identity(3)) == 3
    m = matrix_from_rows([[1, 1]])
    assert rank(m) == 1
    k = kernel_basis(m)
    assert k.cols == 1
    kv = k.column(0)
    # kernel spanned by (1, -1)
    assert kv[0] * gs(-1) == kv[1]


def test_kernel_identity_empty():
    k = kernel_basis(GMatrix.identity(4))
    assert k.cols == 0


def test_rank_adjoint_symmetry():
    m = matrix_from_rows([[1, 2, 0], [0, 0, 0], [3, 6, 1]])
    assert rank(m) == rank(m.adjoint()) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=3, max_size=5))
def test_rank_nullity_and_oracle(rows):
    m = matrix_from_rows(rows)
    r = rank(m)
    k = kernel_basis(m)
    assert r + k.cols == m.cols
    assert m.mul(k).is_zero()
    assert r == oracle_rank(rows)
    assert r == rank(m.adjoint())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_solve_consistency(rows, x):
    m = matrix_from_rows(rows)
    xv = {i: gs(c) for i, c in enumerate(x) if c}
    rhs = m.apply(xv)
    sol = solve(m, rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_invert_round_trip():
    m = matrix_from_rows([[1, 2], [3, 5]])
    mi = invert(m)
    assert m.mul(mi) == GMatrix.identity(2)
    assert mi.mul(m) == GMatrix.identity(2)
    with pytest.raises(ValueError):
        invert(matrix_from_rows([[1, 2], [2, 4]]))


def test_radical_trivial_and_rank_one():
    assert kernel_basis(GMatrix.identity(2)).cols == 0
    g = matrix_from_rows([[1, 1], [1, 1]])
    r = kernel_basis(g)
    assert r.cols == 1
    assert g.mul(r).is_zero()


def test_psd_checks():
    assert is_positive_semidefinite(GMatrix.identity(3))
    assert is_positive_semidefinite(matrix_from_rows([[1, 1], [1, 1]]))
    assert not is_positive_semidefinite(matrix_from_rows([[1, 0], [0, -1]]))
    # zero diagonal with off-diagonal mass is indefinite
    assert not is_positive_semidefinite(matrix_from_rows([[0, 1], [1, 0]]))


def test_orth_projection_symmetric_line():
    gram = GMatrix.identity(2)
    s = GMatrix.from_cols(2, [{0: ONE, 1: ONE}])
    p = s.mul(projection_coordinates(gram, s))
    half = gs(Fraction(1, 2))
    expected = matrix_from_rows([[half, half], [half, half]])
    assert p == expected
    assert p.mul(p) == p
    # form-self-adjoint: G P = P^* G
    assert gram.mul(p) == p.adjoint().mul(gram)


def test_orth_projection_whole_space_is_identity():
    s = GMatrix.identity(2)
    p = s.mul(projection_coordinates(matrix_from_rows([[2, 0], [0, 3]]), s))
    assert p == GMatrix.identity(2)


def test_orth_projection_rejects_degenerate_span():
    s = GMatrix.from_cols(2, [{0: ONE, 1: gs(-1)}])
    with pytest.raises(ValueError):
        projection_coordinates(matrix_from_rows([[1, 1], [1, 1]]), s)


def test_adjoint_wrt_weighted_form():
    gram = matrix_from_rows([[1, 0], [0, 2]])
    m = matrix_from_rows([[0, 1], [0, 0]])
    ma = adjoint_wrt(gram, m, invert(gram))
    # <m u, v> = <u, ma v> for all basis pairs
    for a in range(2):
        for b in range(2):
            lhs = vec_dot(m.apply({a: ONE}), gram.apply({b: ONE}))
            rhs = vec_dot({a: ONE}, gram.apply(ma.apply({b: ONE})))
            assert lhs == rhs


def test_echelon_coords_track():
    ech = Echelon(track=True)
    v1 = {0: ONE, 1: ONE}
    v2 = {1: ONE}
    ech.insert(v1)
    ech.insert(v2)
    c = ech.coords({0: ONE, 1: gs(3)})
    assert c == {0: ONE, 1: gs(2)}
    assert ech.coords({2: ONE}) is None


def test_bar_boundary_kernel_against_oracle():
    # d_1 of the two-sided bar resolution of the order-two group algebra
    # over the scalars: kernel dimension cross-checked by rank-nullity and
    # by the independent dense row-reduction oracle
    from l2betti.algebras import group_algebra, trivial_extension
    from l2betti.complexes import bar_complex
    from l2betti.groups import cyclic_table

    table, unit, els = cyclic_table(2)
    ext = trivial_extension(group_algebra(table, unit, elements=els, name="CC2"))
    bar = bar_complex(ext, 2)
    d1 = as_matrix(bar.boundary().d[1])
    assert (d1.rows, d1.cols) == (4, 8)
    r = rank(d1)
    k = kernel_basis(d1)
    assert r + k.cols == 8
    assert d1.mul(k).is_zero()
    dense = [[str(d1.entry(i, j)) for j in range(d1.cols)] for i in range(d1.rows)]
    dense = [[int(x) for x in row] for row in dense]
    assert oracle_rank(dense) == r


def test_radical_of_balanced_form_m2_diagonal():
    # the form on M2 (x) M2 over the diagonal has an 8-dimensional radical
    # spanned exactly by the balancing relations (16 - 8 survivors); the
    # diagonal is given in the basis {1, e11 - e22}, which is not a basis of
    # projections, so the level takes the radical path
    from l2betti.algebras import conditional_expectation, matrix_algebra
    from l2betti.tensor import append_level, extension_base_level

    m2 = matrix_algebra(2)
    e11, e22 = m2.index("e11"), m2.index("e22")
    ext = conditional_expectation(m2, [{e11: ONE, e22: ONE}, {e11: ONE, e22: -ONE}],
                                  sub_labels=["1", "h"], name="M2/diag")
    assert ext.grading() is None
    base = extension_base_level(ext)
    lvl = append_level(base, ext)   # asserts balancing relations span inside
    assert lvl.quotient.ambient_dim == 16
    assert lvl.dim == 8
    assert lvl.quotient.ech.rank == 8  # radical dimension


def test_orth_projection_diagonal_extraction():
    # projecting M2 onto its diagonal under the trace form solves the four
    # orthogonality equations and extracts the diagonal entrywise
    from l2betti.algebras import matrix_algebra

    m2 = matrix_algebra(2)
    gram = m2.gns_gram()
    s = GMatrix.from_cols(4, [{m2.index("e11"): ONE}, {m2.index("e22"): ONE}])
    p = s.mul(projection_coordinates(gram, s))
    for lbl in ("e11", "e22"):
        j = m2.index(lbl)
        assert p.apply({j: ONE}) == {j: ONE}
    for lbl in ("e12", "e21"):
        assert p.apply({m2.index(lbl): ONE}) == {}
    # oracle: the orthogonality equations <d - P d | b> = 0 for b diagonal
    for j in range(4):
        img = p.apply({j: ONE})
        res = dict({j: ONE})
        from l2betti.linalg import vec_axpy
        vec_axpy(res, gs(-1), img)
        for b in (m2.index("e11"), m2.index("e22")):
            assert vec_dot({b: ONE}, gram.apply(res)).is_zero()


def test_equality_ignores_stored_zeros():
    # equal dicts settle equality at once; a stored zero only makes the
    # dicts differ, so the comparison falls back to the difference
    half = gs(Fraction(1, 2))
    assert vec_eq({0: half, 3: ZERO}, {0: half})
    assert vec_eq({0: half}, {0: half, 3: ZERO})
    assert not vec_eq({0: half}, {0: gs(Fraction(1, 3))})
    assert not vec_eq({0: half, 1: ONE}, {0: half})
    assert GScalar(0, 0).is_zero() and not GScalar(0, 1).is_zero()
    a = GMatrix.from_cols(2, [{0: ONE, 1: ZERO}, {}])
    assert a == GMatrix.from_cols(2, [{0: ONE}, {}])
    assert a != GMatrix.from_cols(2, [{0: ONE}, {1: ONE}])
