import itertools
import json
import os
from fractions import Fraction

import pytest

from l2betti.algebras import (
    Extension, SpanBasis, compression, conditional_expectation, convolution_algebra,
    diagonal_subalgebra_vectors, distinct_triple_sign_cocycle, group_algebra,
    matrix_algebra, normalizer_span, trace_defects, trace_violations,
    trivial_cocycle, trivial_extension, validate_algebra, validate_cocycle,
    weighted_sum,
)
from l2betti.fileio import _vec_from_pairs, as_extension, load_path
from l2betti.groupoids import (
    group_groupoid, pair_relation, trivial_groupoid, uniform_space,
)
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, vec_eq
from l2betti.scalars import I_UNIT, MINUS_ONE, ONE, ZERO, gs
from oracles import all_sign_cocycles, coboundary_cocycle, full_extension, is_trivial


def c_group_algebra(n, name=None):
    table, unit, els = cyclic_table(n)
    return group_algebra(table, unit, elements=els, name=name or ("CC%d" % n))


def test_matrix_algebra_valid_and_gns():
    m2 = matrix_algebra(2)
    rep = validate_algebra(m2)
    assert rep.ok and rep.semisimple
    # GNS form is (1/n) times the standard pairing
    g = m2.gns_gram()
    assert g.entry(0, 0) == gs(Fraction(1, 2))
    assert g.entry(1, 1) == gs(Fraction(1, 2))
    assert g.entry(0, 1).is_zero()


def test_group_algebra_c3_valid():
    a = c_group_algebra(3)
    rep = validate_algebra(a)
    assert rep.ok
    assert a.trace(a.unit) == ONE


def test_s3_group_algebra_valid():
    table, unit, els = symmetric_table(3)
    a = group_algebra(table, unit, elements=els, name="CS3")
    assert validate_algebra(a).ok


def test_trace_normalization_violation_detected():
    a = c_group_algebra(2)
    a.trace_table = {0: gs(2)}
    a._gram = None
    rep = validate_algebra(a)
    assert not rep.ok
    assert any(v[0] == "trace_normalization" for v in rep.violations)


def test_conditional_expectation_diagonal_of_m2():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                  sub_labels=["d1", "d2"], name="M2/diag")
    assert ext.validate().ok
    # E = diagonal extraction
    e12 = {m2.index("e12"): ONE}
    assert ext.expectation(e12) == {}
    e11 = {m2.index("e11"): ONE}
    assert vec_eq(ext.expectation(e11), e11)


def test_conditional_expectation_scalars_is_trace():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    e11 = {m2.index("e11"): ONE}
    # E(a) = tr(a) 1
    expected = {k: gs(Fraction(1, 2)) * c for k, c in m2.unit.items()}
    assert vec_eq(ext.expectation(e11), expected)


def test_conditional_expectation_whole_algebra_identity():
    a = c_group_algebra(2)
    ext = full_extension(a)
    for j in range(a.dim):
        assert vec_eq(ext.expectation({j: ONE}), {j: ONE})


def test_conditional_expectation_rejects_bad_span():
    m2 = matrix_algebra(2)
    with pytest.raises(ValueError):
        conditional_expectation(m2, [{m2.index("e12"): ONE}, m2.unit])


def test_convolution_pair_relation_is_matrix_algebra():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    assert ext.validate().ok
    a = ext.alg
    m2 = matrix_algebra(2)
    # structure constants match after delta_(x,y) -> e_xy
    conv_idx = {e: a.index(repr(e)) for e in g.elements}
    m2_idx = {("x%d" % i, "x%d" % j): m2.index("e%d%d" % (i + 1, j + 1))
              for i in range(2) for j in range(2)}
    for e1 in g.elements:
        for e2 in g.elements:
            lhs = a.mul({conv_idx[e1]: ONE}, {conv_idx[e2]: ONE})
            rhs = m2.mul({m2_idx[e1]: ONE}, {m2_idx[e2]: ONE})
            lhs_m = {}
            for k, c in lhs.items():
                e = g.elements[k]
                lhs_m[m2_idx[e]] = c
            assert vec_eq(lhs_m, rhs)
    # traces agree under the same identification
    for e in g.elements:
        assert a.trace({conv_idx[e]: ONE}) == m2.trace({m2_idx[e]: ONE})


def test_convolution_group_is_group_algebra():
    table, unit, els = cyclic_table(3)
    g = group_groupoid(table, unit, name="C3")
    ext = convolution_algebra(g)
    assert ext.validate().ok
    assert ext.sub.dim == 1
    a = ext.alg
    assert a.trace(a.unit) == ONE


def test_convolution_trivial_groupoid_commutative():
    g = trivial_groupoid(uniform_space(3))
    ext = convolution_algebra(g)
    assert ext.sub.dim == 3 == ext.alg.dim
    for j in range(ext.alg.dim):
        assert vec_eq(ext.expectation({j: ONE}), {j: ONE})


def test_trivial_cocycle_gives_untwisted():
    r = pair_relation(uniform_space(2))
    sig = trivial_cocycle(r)
    assert not validate_cocycle(sig)
    ext = convolution_algebra(r, sig)
    ext0 = convolution_algebra(r)
    for i in range(ext.alg.dim):
        for j in range(ext.alg.dim):
            assert vec_eq(ext.alg.mult[i][j], ext0.alg.mult[i][j])


def test_nontrivial_cocycle_on_three_atoms():
    r = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r)
    assert not validate_cocycle(sig)
    assert not is_trivial(sig)
    ext = convolution_algebra(r, sig)
    # every axiom, associativity of the twisted product included, brute force
    assert validate_algebra(ext.alg).ok


def test_cocycle_identity_violation_detected():
    r = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r)
    sig.values[("x0", "x1", "x2")] = ONE  # break one value
    bad = validate_cocycle(sig)
    assert bad
    assert any(v[0] in ("cocycle_identity", "not_skew_symmetric") for v in bad)
    with pytest.raises(ValueError):
        convolution_algebra(r, sig)


def test_sign_cocycles_on_pair2_positive_ones_are_trivial():
    # exhaustive search: the sign cocycles on two atoms that keep the trace
    # form positive are exactly the trivial one
    r = pair_relation(uniform_space(2))
    all_c = all_sign_cocycles(r)
    pos = all_sign_cocycles(r, require_positive=True)
    assert len(pos) == 1 and is_trivial(pos[0])
    # the non-positive survivor exists but fails algebra validation
    bad = [c for c in all_c if not is_trivial(c)]
    assert bad
    for c in bad:
        with pytest.raises(ValueError):
            convolution_algebra(r, c)


def test_coboundary_is_valid_cocycle():
    r = pair_relation(uniform_space(3))
    c = {}
    for (x, y) in r.elements:
        c[(x, y)] = MINUS_ONE if {x, y} == {"x0", "x1"} else ONE
    sig = coboundary_cocycle(r, c)
    assert not validate_cocycle(sig)


def test_weighted_sum_componentwise():
    m2 = matrix_algebra(2)
    ext1 = conditional_expectation(m2, diagonal_subalgebra_vectors(2), name="M2/diag")
    ext2 = trivial_extension(c_group_algebra(2))
    s = weighted_sum([ext1, ext2], [Fraction(1, 2), Fraction(1, 2)])
    assert s.validate().ok
    a = s.alg
    # trace of a summand unit equals its weight
    u1 = {k: c for k, c in m2.unit.items()}
    assert a.trace(u1) == gs(Fraction(1, 2))


def test_weighted_sum_central_mode():
    e1 = trivial_extension(c_group_algebra(2))
    e2 = trivial_extension(c_group_algebra(3))
    s = weighted_sum([e1, e2], [Fraction(1, 2), Fraction(1, 2)], mode="central")
    assert s.validate().ok
    assert s.sub.dim == 1
    # trace of the first summand idempotent (1, 0) is its weight
    a = s.alg
    first_unit = {k: ONE for k in range(2) if k == 0}
    # the unit of CC2 sits at offset 0 index 0
    assert a.trace({0: ONE}) == gs(Fraction(1, 2))


def test_weighted_sum_rejects_bad_weights():
    e1 = trivial_extension(c_group_algebra(2))
    with pytest.raises(ValueError):
        weighted_sum([e1, e1], [Fraction(1, 2), Fraction(1, 3)])


def test_weighted_sum_single_summand_identity():
    e1 = trivial_extension(c_group_algebra(2))
    s = weighted_sum([e1], [Fraction(1)])
    assert s.alg.dim == e1.alg.dim
    assert s.validate().ok


def test_compression_unit_is_identity():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    out = compression(ext, dict(m2.unit))
    assert out.alg.dim == m2.dim
    assert out.validate().ok


def test_compression_m2_by_e11():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, diagonal_subalgebra_vectors(2), name="M2/diag")
    p = {m2.index("e11"): ONE}
    out = compression(ext, p)
    assert out.alg.dim == 1
    assert out.alg.trace(out.alg.unit) == ONE
    assert out.validate().ok


def test_compression_m2_scalars_rank_one():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    p = {m2.index("e11"): ONE}
    out = compression(ext, p)
    assert out.alg.dim == 1
    assert out.sub.dim == 1


def test_compression_rejects_non_projection():
    m2 = matrix_algebra(2)
    ext = trivial_extension(m2)
    with pytest.raises(ValueError):
        compression(ext, {m2.index("e12"): ONE})


def test_compression_rejects_noncommuting_projection():
    m2 = matrix_algebra(2)
    ext = full_extension(m2)
    with pytest.raises(ValueError):
        compression(ext, {m2.index("e11"): ONE})


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")


def corpus_extensions():
    """(file, extension) for each corpus document that is not a verify_*
    instance and loads as an extension: algebras, sums and groupoids."""
    for f in sorted(os.listdir(CORPUS)):
        if f.endswith(".json") and not f.startswith("verify_"):
            obj = load_path(os.path.join(CORPUS, f))
            if not isinstance(obj, dict):       # a cocycle needs its relation
                yield f, as_extension(obj)


def test_fault_every_single_entry_corruption_of_the_expectation_is_caught():
    # Extension.validate does not compare E with the orthogonal projection:
    # identity on B, bimodularity and trace preservation imply it.  Adding
    # 1 or i to any one entry of E must still break one of those checks.
    missed, tried = [], 0
    for f, ext in corpus_extensions():
        for j in range(ext.alg.dim):
            for r in range(ext.sub.dim):
                for delta in (ONE, I_UNIT):
                    col = dict(ext.expect.col[j])
                    col[r] = col.get(r, ZERO) + delta
                    cols = list(ext.expect.col)
                    cols[j] = {k: x for k, x in col.items() if not x.is_zero()}
                    bad = GMatrix.from_cols(ext.sub.dim, cols)
                    tried += 1
                    if Extension(ext.alg, ext.sub, ext.embed, bad).validate().ok:
                        missed.append((f, j, r, str(delta)))
    assert tried and not missed, missed


def compression_instances():
    for f in sorted(os.listdir(CORPUS)):
        if f.startswith("verify_compression_"):
            path = os.path.join(CORPUS, f)
            with open(path) as fh:
                doc = json.load(fh)
            ext = as_extension(load_path(os.path.join(CORPUS, doc["algebra"])))
            index = {l: k for k, l in enumerate(ext.alg.labels)}
            yield f, ext, _vec_from_pairs(doc["projection"], index, path)


def test_compressed_trace_is_trace_over_trace_of_p_on_corpus():
    # compression() does not check tr_p(pxp) tr(p) = tr(pxp): span_structure
    # and exact span coordinates imply it; here it is checked on every corpus
    # compression instance, with the compressed basis rebuilt as compression
    # builds it
    names = []
    for name, ext, p in compression_instances():
        A = ext.alg
        out = compression(ext, p)
        span = SpanBasis()
        for j in range(A.dim):
            span.add(A.mul(p, A.mul({j: ONE}, p)))
        assert span.dim == out.alg.dim
        tp = A.trace(p)
        for j in range(A.dim):
            v = A.mul(p, A.mul({j: ONE}, p))
            assert out.alg.trace(span.coords(v)) * tp == A.trace(v), (name, j)
        names.append(name)
    assert names == ["verify_compression_m2_diag.json",
                     "verify_compression_m2_scalars.json"]


def test_normalizer_span_reaches_m2():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    out = normalizer_span(ext, ext.alg.unitary_family)
    assert out.alg.dim == 4  # saturation reaches the whole matrix algebra
    assert out.validate().ok


@pytest.mark.parametrize("n, twisted", [(2, False), (3, True)],
                         ids=["pair(2)", "pair(3) twisted"])
def test_normalizer_span_of_a_relation_is_graded_and_monomial(n, twisted):
    # the re-basis runs over the pieces p_x v p_y, so every basis vector of
    # N is homogeneous for the minimal projections of B, and N/B takes the
    # graded index path of the tower
    g = pair_relation(uniform_space(n))
    ext = convolution_algebra(g, distinct_triple_sign_cocycle(g) if twisted else None)
    out = normalizer_span(ext, ext.alg.unitary_family)
    assert out.alg.dim == n * n and out.validate().ok
    assert out.grading() is not None and out.monomial() is not None
    assert (out.monomial().sign is not None) == twisted


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_family_is_the_signed_identity_and_the_unsigned_bisections(n):
    # 1 and the n single-atom sign flips, then the swaps of two atoms, the
    # elementary bisections of pair(n), each pair once
    g = pair_relation(uniform_space(n))
    fam = convolution_algebra(g).alg.unitary_family
    assert len(fam) == 1 + n + n * (n - 1) // 2
    units = [(x, x) for x in g.base.atoms]
    diagonal = [v for _, v in fam[:n + 1]]
    idx = {a: k for k, a in enumerate(g.elements)}
    assert diagonal[0] == {idx[u]: ONE for u in units}
    for x, v in zip(g.base.atoms, diagonal[1:]):
        assert v == {idx[u]: MINUS_ONE if u == (x, x) else ONE for u in units}
    assert all(set(v.values()) == {ONE} for _, v in fam[n + 1:])
    swaps = [{g.elements[k] for k in v} - set(units) for _, v in fam[n + 1:]]
    assert swaps == [{(x, y), (y, x)} for x, y in itertools.combinations(g.base.atoms, 2)]


@pytest.mark.parametrize("n", [3, 4])
def test_twisted_pair_family_is_unitary(n):
    # v* v = sum sigma(y,x,y) d_(u_y) = 1 over a bisection's arrows x <- y
    # (convolution_algebra docstring): no member needs a unitarity filter
    g = pair_relation(uniform_space(n))
    alg = convolution_algebra(g, distinct_triple_sign_cocycle(g)).alg
    assert len(alg.unitary_family) == 1 + n + n * (n - 1) // 2
    assert all(alg.is_unitary(v) for _, v in alg.unitary_family)


@pytest.mark.parametrize("n, twisted", [(2, False), (3, True)],
                         ids=["pair(2)", "pair(3) twisted"])
def test_normalizer_span_family_is_its_generators(n, twisted):
    g = pair_relation(uniform_space(n))
    ext = convolution_algebra(g, distinct_triple_sign_cocycle(g) if twisted else None)
    fam = ext.alg.unitary_family
    out = normalizer_span(ext, fam)
    assert [nm for nm, _ in out.alg.unitary_family] == [nm for nm, _ in fam]
    assert all(out.alg.is_unitary(v) for _, v in out.alg.unitary_family)


def test_normalizer_span_no_generators_returns_b():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    out = normalizer_span(ext, [])
    assert out.alg.dim == ext.sub.dim


def test_normalizer_span_group_algebra():
    a = c_group_algebra(3)
    ext = trivial_extension(a)
    out = normalizer_span(ext, a.unitary_family[:3])
    assert out.alg.dim == 3


def test_normalizer_span_rejects_non_normalizing():
    m2 = matrix_algebra(2)
    ext = conditional_expectation(m2, [m2.unit, {m2.index("e11"): ONE}],
                                  name="M2/diag-partial")
    # rotation-like unitary (e12 - e21) normalizes the diagonal, so use a
    # genuinely non-normalizing one against a non-diagonal subalgebra
    idx = m2.index
    u = {idx("e11"): ONE, idx("e12"): ONE, idx("e22"): MINUS_ONE,
         idx("e21"): ONE}
    # u/sqrt2 would be unitary; u itself is not, so expect unitarity error
    with pytest.raises(ValueError):
        normalizer_span(ext, [u])


def test_twisted_and_untwisted_share_diagonal_data():
    r = pair_relation(uniform_space(3))
    sig = distinct_triple_sign_cocycle(r)
    tw = convolution_algebra(r, sig)
    un = convolution_algebra(r)
    assert tw.embed == un.embed
    assert tw.expect == un.expect
    for j in range(tw.alg.dim):
        assert tw.alg.trace({j: ONE}) == un.alg.trace({j: ONE})
    # diagonal products are untwisted
    for k in range(tw.sub.dim):
        for l in range(tw.sub.dim):
            assert vec_eq(tw.sub.mul({k: ONE}, {l: ONE}),
                          un.sub.mul({k: ONE}, {l: ONE}))


def test_validate_algebra_runs_only_on_algebra_documents():
    # the general validator, with its dim^3 associativity loop, checks an
    # algebra document (cli.cmd_validate) and nothing else.  A fiber square
    # checks only its trace (fibersquare module docstring, "The axioms"), and
    # a twisted product is certified by its groupoid and cocycle
    # (convolution_star_algebra docstring); any other reference to
    # validate_algebra in src/l2betti fails here.
    import ast
    import glob
    root = os.path.dirname(CORPUS)
    refs = set()

    class Refs(ast.NodeVisitor):
        def __init__(self, mod):
            self.scope = [mod]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id == "validate_algebra":
                refs.add(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr == "validate_algebra":
                refs.add(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(glob.glob(os.path.join(root, "src", "l2betti", "*.py"))):
        with open(path) as f:
            Refs(os.path.basename(path)[:-3]).visit(ast.parse(f.read()))
    assert refs == {"cli.cmd_validate"}


def test_trace_violations_list_each_defect_in_both_orders():
    # one comparison per unordered pair (trace_defects) still reports every
    # ordered pair, in basis order, as validate_algebra always has
    m3 = matrix_algebra(3)
    m3.trace_table = {m3.index("e11"): ONE}
    assert list(trace_defects(m3)) == [(m3.index("e21"), m3.index("e12")),
                                       (m3.index("e31"), m3.index("e13"))]
    assert trace_violations(m3) == [("trace_not_tracial", "e12", "e21"),
                                    ("trace_not_tracial", "e13", "e31"),
                                    ("trace_not_tracial", "e21", "e12"),
                                    ("trace_not_tracial", "e31", "e13")]
