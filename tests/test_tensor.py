"""Tower levels: the scalar Kronecker certificate against the ambient Gram
it replaces, and the reindexing lift against the tensor_class lift."""

import pytest

from l2betti.algebras import (
    conditional_expectation, convolution_algebra, diagonal_subalgebra_vectors,
    group_algebra, matrix_algebra, trivial_extension,
)
from l2betti.complexes import ChainComplex
from l2betti.groupoids import pair_relation, uniform_space
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, kernel_basis
from l2betti.scalars import ONE, ZERO, gs
from l2betti.tensor import algebra_tower, append_level, extension_base_level


def group_ext(table, name):
    table, unit, els = table
    return trivial_extension(group_algebra(table, unit, elements=els, name=name))


def scalar_extensions():
    return [group_ext(cyclic_table(2), "CC2"), group_ext(symmetric_table(3), "CS3"),
            trivial_extension(matrix_algebra(2))]


def m2_diag_ext():
    return conditional_expectation(matrix_algebra(2), diagonal_subalgebra_vectors(2),
                                   sub_labels=["d1", "d2"], name="M2/diag")


def ambient_gram(prev, ext):
    """The scalar Gram of prev (x) A, formed entry by entry from the
    sandwich maps as the radical-quotient path forms it."""
    d2 = ext.alg.dim
    amb = prev.dim * d2
    g = GMatrix.zero(amb, amb)
    for v, row in prev.bgram.items():
        for w, bv in row.items():
            for a in range(d2):
                for b in range(d2):
                    x = ext.sub_trace(ext.sandwich(a, b).apply(bv))
                    if not x.is_zero():
                        g.col[w * d2 + b][v * d2 + a] = x
    return g


def kronecker(g, h):
    out = GMatrix.zero(g.rows * h.rows, g.cols * h.cols)
    for w, gc in enumerate(g.col):
        for b, hc in enumerate(h.col):
            col = out.col[w * h.cols + b]
            for v, x in gc.items():
                for a, y in hc.items():
                    col[v * h.rows + a] = x * y
    return out


def trace_form(alg):
    """H[a, b] = tr(e_a^* e_b)."""
    h = GMatrix.zero(alg.dim, alg.dim)
    for a in range(alg.dim):
        sa = alg.star({a: ONE})
        for b in range(alg.dim):
            x = alg.trace(alg.mul(sa, {b: ONE}))
            if not x.is_zero():
                h.col[b][a] = x
    return h


@pytest.mark.parametrize("ext", scalar_extensions(), ids=lambda e: e.alg.name)
def test_scalar_levels_are_kronecker_products_with_empty_radical(ext):
    tower = algebra_tower(ext)
    h = trace_form(ext.alg)
    for k in range(1, 4):
        lvl, prev = tower.level(k), tower.level(k - 1)
        amb = ambient_gram(prev, ext)
        assert amb == kronecker(prev.scalar_gram(), h)
        assert kernel_basis(amb).cols == 0
        assert lvl.dim == amb.rows and lvl.quotient.is_identity
        assert lvl.scalar_gram() == amb


def test_fault_degenerate_base_gram_is_caught():
    ext = group_ext(cyclic_table(2), "CC2")
    base = extension_base_level(ext)
    # the appended factor's trace form stays nondegenerate; only the base
    # check can see that row 1 of the base Gram is gone
    base.bgram = {0: base.bgram[0]}
    with pytest.raises(AssertionError, match="base level has a degenerate scalar Gram"):
        append_level(base, ext)


def test_fault_degenerate_appended_trace_form_is_caught():
    ext = group_ext(cyclic_table(2), "CC2")
    base = extension_base_level(ext)
    ext.sandwich(1, 1)
    ext._sandwich_memo[(1, 1)] = GMatrix.zero(1, 1)
    with pytest.raises(AssertionError, match="degenerate trace form"):
        append_level(base, ext)


def tensor_class_lift(src, inner, dst):
    return GMatrix.from_cols(
        dst.dim, [dst.tensor_class(inner.col[v], {b: ONE}) for v, b in src.reps])


@pytest.mark.parametrize("ext", [
    convolution_algebra(pair_relation(uniform_space(3))), m2_diag_ext(),
    group_ext(cyclic_table(2), "CC2"),
], ids=["pair(3)", "M2/diag", "CC2"])
def test_reindexing_lift_equals_tensor_class_lift(ext):
    tower = algebra_tower(ext)
    for k in (2, 3):
        lvl, prev = tower.level(k), tower.level(k - 1)
        for a in range(ext.alg.dim):
            inner = prev.left_act(a)
            assert lvl.lift(inner, lvl) == tensor_class_lift(lvl, inner, lvl)
        for j in range(k - 1):
            inner = prev.join(j)
            assert lvl.lift(inner, prev) == tensor_class_lift(lvl, inner, prev)
    assert tower.level(3).quotient.is_identity == (ext.sub.dim == 1)


def test_apply_drops_stored_zeros_of_the_first_column():
    m = GMatrix(2, 2, [{0: ZERO, 1: ONE}, {0: ONE}])
    assert m.apply({0: ONE}) == {1: ONE}
    assert m.apply({0: gs(2)}) == {1: gs(2)}
    assert m.apply({0: ZERO, 1: ONE}) == {0: ONE}
    assert m.apply({}) == {}
    # d_1 stores a zero, so d_1 d_2 = 0 although d_2 is nonzero
    chain = ChainComplex([1, 1, 1], {1: GMatrix(1, 1, [{0: ZERO}]),
                                     2: GMatrix(1, 1, [{0: ONE}])})
    assert chain.check_d_squared()
