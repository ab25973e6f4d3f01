import gc
import itertools
import os
import subprocess
import sys
import weakref

import pytest

from l2betti.algebras import (
    Extension, conditional_expectation, convolution_algebra,
    diagonal_subalgebra_vectors, distinct_triple_sign_cocycle, group_algebra,
    matrix_algebra, normalizer_span, trivial_extension,
)
from l2betti.complexes import (
    ChainComplex, ContractingHomotopy, PresimplicialModule, bar_complex,
    geometric_complex, homology, l2_complex,
)
from l2betti.fibersquare import (
    canonical_pairs, fiber_square, fiber_square_of, groupoid_fiber_square,
)
from l2betti.fileio import as_extension, load_path
from l2betti.groupoids import group_groupoid, pair_relation, uniform_space
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, IndexMap, IndexSum, as_matrix
from l2betti.scalars import ONE
from l2betti.tensor import Level, algebra_tower
from oracles import (
    bisections, full_extension, geometric_comparison, plain_hochschild_complex,
    theta_iso,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
CORPUS = os.path.join(ROOT, "corpus")
# every corpus document that is an extension or a groupoid on its own
CORPUS_EXTENSIONS = sorted(
    f for f in os.listdir(CORPUS)
    if f.endswith(".json") and not f.startswith(("verify_", "cocycle_")))


def c2_ext():
    table, unit, els = cyclic_table(2)
    return trivial_extension(group_algebra(table, unit, elements=els, name="CC2"))


def m2_diag_ext():
    m2 = matrix_algebra(2)
    return conditional_expectation(m2, diagonal_subalgebra_vectors(2),
                                   sub_labels=["d1", "d2"], name="M2/diag")


def test_bar_complex_c2_dimensions_and_d2():
    ext = c2_ext()
    bar = bar_complex(ext, 3)
    assert bar.dims == [4, 8, 16, 32]
    chain = bar.boundary()
    chain.check_d_squared()


def test_bar_complex_m2_diag_dimensions():
    ext = m2_diag_ext()
    bar = bar_complex(ext, 2)
    assert bar.dims[0] == 8 and bar.dims[1] == 16


def test_bar_complex_b_equals_a():
    m2 = matrix_algebra(2)
    ext = full_extension(m2)
    bar = bar_complex(ext, 2)
    # K_n is A at every degree
    assert bar.dims == [4, 4, 4]


def test_bar_homotopy_and_vanishing_m2_diag():
    ext = m2_diag_ext()
    bar = bar_complex(ext, 3)
    chain = bar.boundary()
    bar.homotopy.verify(chain, 2)
    for n in range(1, 3):
        hm = homology(bar, n, method="elimination")
        assert hm.dim == 0
        hs = homology(bar, n, method="split")
        assert hs.dim == 0
        assert (hm.rank_lower, hm.rank_upper) == (hs.rank_lower, hs.rank_upper)


def test_bar_h0_is_algebra():
    ext = m2_diag_ext()
    bar = bar_complex(ext, 2)
    hm = homology(bar, 0, method="elimination")
    # augmented complex resolves A: H_0 = K_0 / im d_1 = A
    assert hm.dim == ext.alg.dim


def test_hochschild_c0_of_m2_diag():
    ext = m2_diag_ext()
    hh = plain_hochschild_complex(ext, 2)
    # C_0 = A/[B,A]: the diagonal survives
    assert hh.dims[0] == 2
    # C_1: cyclic pairs
    assert hh.dims[1] == 4


def test_hochschild_h0_abelian_group():
    ext = c2_ext()
    hh = plain_hochschild_complex(ext, 2)
    hm = homology(hh, 0)
    assert hm.dim == 2  # commutators vanish for an abelian group


def test_l2_complex_m2_diag_dimensions():
    ext = m2_diag_ext()
    fsq, _ = groupoid_fiber_square(convolution_algebra(
        pair_relation(uniform_space(2))))
    # use the matrix-algebra extension directly with its own fiber square
    pairs = canonical_pairs(ext)
    fsq2 = fiber_square(ext, pairs)
    l2 = l2_complex(fsq2, 3)
    # degree n is spanned by the cyclically composable (n+2)-tuples
    assert l2.dims == [4, 8, 16, 32]
    chain = l2.boundary()
    chain.check_d_squared()
    l2.homotopy.verify(chain, 2)


def test_l2_complex_homology_degree_zero_m2_diag():
    ext = m2_diag_ext()
    fsq = fiber_square(ext, canonical_pairs(ext))
    l2 = l2_complex(fsq, 2)
    hm = homology(l2, 0)
    assert hm.dim == 2
    for n in (1,):
        assert homology(l2, n).dim == 0


def test_l2_complex_group_case_dimensions():
    ext = c2_ext()
    fsq = fiber_square(ext, canonical_pairs(ext))
    l2 = l2_complex(fsq, 3)
    assert l2.dims == [4, 8, 16, 32]
    hm = homology(l2, 0)
    assert hm.dim == 2  # A_B = A for B = C, and im d_1 halves it


def test_l2_complex_is_freed_without_the_cycle_collector():
    # the complex, its levels and its cached coefficient operators are
    # released by reference counting alone once the complex is dropped
    ext = m2_diag_ext()
    fsq = fiber_square(ext, canonical_pairs(ext))
    gc.disable()
    try:
        l2 = l2_complex(fsq, 2)
        l2.action(2, 0)
        ref = weakref.ref(l2.levels[2])
        del l2
        assert ref() is None
    finally:
        gc.enable()


def test_bisections_free_the_groupoid_without_the_cycle_collector():
    # the oracle's search keeps the lexicographic order over the target
    # fibers, and it leaves no reference cycle, so the groupoid is released
    # by reference counting alone
    g = pair_relation(uniform_space(3))
    fibers = [g.arrows(tgt=x) for x in g.base.atoms]
    expected = [frozenset(c) for c in itertools.product(*fibers)
                if len({g.source[a] for a in c}) == len(c)]
    gc.disable()
    try:
        assert bisections(g) == expected
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_geometric_complexes_pair2_all_kinds():
    g = pair_relation(uniform_space(2))
    for kind, d0 in (("nerve", 2), ("bar", 8), ("cyclic", 2),
                     ("acyclic", 4), ("classifying", 4)):
        p = geometric_complex(g, kind, 3)
        assert p.dims[0] == d0, kind
        p.boundary().check_d_squared()


def test_classifying_complex_c2_dims():
    table, unit, _ = cyclic_table(2)
    g = group_groupoid(table, unit, name="C2")
    p = geometric_complex(g, "classifying", 2)
    assert p.dims == [2, 4, 8]
    hm = homology(p, 0)
    assert hm.dim == 1  # resolves the base functions over a point
    assert homology(p, 1).dim == 0


def test_classifying_homotopy_identities():
    g = pair_relation(uniform_space(3))
    p = geometric_complex(g, "classifying", 3)
    p.homotopy.verify(p.boundary(), 2)
    hm = homology(p, 0)
    assert hm.dim == 3


def test_geometric_homotopies_bar_acyclic():
    g = pair_relation(uniform_space(2))
    for kind in ("bar", "acyclic"):
        p = geometric_complex(g, kind, 3)
        p.homotopy.verify(p.boundary(), 2)
        for n in (1, 2):
            a = homology(p, n, method="elimination")
            b = homology(p, n, method="split")
            assert a.dim == b.dim == 0
            assert (a.rank_lower, a.rank_upper) == (b.rank_lower, b.rank_upper)


def test_bar_comparison_pair2():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    geo = geometric_complex(g, "bar", 2)
    alg = bar_complex(ext, 2)
    isos = geometric_comparison(geo, alg, 2)
    assert [m.rows for m in isos] == alg.dims[:3]


def test_cyclic_comparison_pair2():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    geo = geometric_complex(g, "cyclic", 2)
    hh = plain_hochschild_complex(ext, 2)
    isos = geometric_comparison(geo, hh, 2)
    assert [m.rows for m in isos] == hh.dims[:3]


def test_cyclic_degree0_counts_conjugacy_classes():
    table, unit, els = symmetric_table(3)
    g = group_groupoid(table, unit, name="S3")
    geo = geometric_complex(g, "cyclic", 1)
    ext = convolution_algebra(g)
    hh = plain_hochschild_complex(ext, 1)
    # C_0 = A/[A-commutators with B]... over a point B = C so C_0 = A;
    # the homology H_0 = A/[A,A] counts conjugacy classes
    hm = homology(hh, 0)
    assert hm.dim == 3


def test_acyclic_comparison_pair2():
    g = pair_relation(uniform_space(2))
    ext = convolution_algebra(g)
    fsq, _ = groupoid_fiber_square(ext)
    geo = geometric_complex(g, "acyclic", 2)
    l2 = l2_complex(fsq, 2)
    isos = geometric_comparison(geo, l2, 2)
    assert [m.rows for m in isos] == l2.dims[:3]


def test_theta_iso_pair2():
    g = pair_relation(uniform_space(2))
    th = theta_iso(g, 3)
    assert th.lhs_dims == th.rhs_dims == [4, 8, 16, 32]
    assert all(th.checks.values())


def test_theta_iso_c2():
    table, unit, _ = cyclic_table(2)
    g = group_groupoid(table, unit, name="C2")
    th = theta_iso(g, 3)
    assert th.lhs_dims == th.rhs_dims
    assert all(th.checks.values())


def test_theta_iso_pair3_degree_two():
    g = pair_relation(uniform_space(3))
    th = theta_iso(g, 2)
    assert all(th.checks.values())


def test_homology_requires_next_degree():
    ext = c2_ext()
    bar = bar_complex(ext, 2)
    with pytest.raises(ValueError):
        homology(bar, 2)


def test_split_and_elimination_agree_on_bar_c2():
    ext = c2_ext()
    bar = bar_complex(ext, 3)
    for n in (1, 2):
        a = homology(bar, n, method="elimination")
        b = homology(bar, n, method="split")
        assert a.dim == b.dim == 0
        assert a.rank_lower == b.rank_lower and a.rank_upper == b.rank_upper


def test_bar_and_square_complexes_carry_verified_homotopies():
    ext = m2_diag_ext()
    bar = bar_complex(ext, 3)
    assert bar.homotopy.verified_upto >= 2
    assert bar.homotopy.verified_chain is bar.boundary()
    fsq = fiber_square(ext, canonical_pairs(ext))
    sq = l2_complex(fsq, 3)
    assert sq.homotopy.verified_upto >= 2
    assert sq.homotopy.verified_chain is sq.boundary()
    # H_0 of the square-coefficient complex has the commutator-quotient size
    assert homology(l2_complex(fsq, 2), 0).dim == 2


def test_theta_iso_with_isotropy_and_blocks():
    from l2betti.groupoids import action_groupoid, partition_relation
    table, unit, _ = cyclic_table(2)
    x = uniform_space(2)
    action = {("g0", "x0"): "x0", ("g0", "x1"): "x1",
              ("g1", "x0"): "x0", ("g1", "x1"): "x1"}
    g = action_groupoid(table, unit, action, x, name="C2field")
    th = theta_iso(g, 3)
    assert all(th.checks.values())
    assert th.lhs_dims == th.rhs_dims == [8, 16, 32, 64]
    p = partition_relation(uniform_space(3), [["x0", "x1"], ["x2"]])
    th2 = theta_iso(p, 3)
    assert all(th2.checks.values())
    assert th2.lhs_dims == th2.rhs_dims


# ---------------------------------------------------------------------------
# checks that stand in for removed ones: fault injection


def test_fault_descended_face_entry_is_caught_by_presimplicial(monkeypatch):
    # boundary() skips d o d where the faces are verified, so a corrupt
    # face must be caught by verify_presimplicial itself
    import l2betti.complexes as cx
    original = cx.descend
    calls = []

    def descend(m, src_q, dst_q):
        out = original(m, src_q, dst_q)
        calls.append(None)
        if len(calls) == 5:              # the wrap face at degree 2
            # its column 0 moves to another row
            assert isinstance(out, IndexMap)
            idx = list(out.idx)
            idx[0] = 1 if idx[0] == 0 else 0
            out = IndexMap(out.rows, idx, out.sign)
        return out

    monkeypatch.setattr(cx, "descend", descend)
    with pytest.raises(AssertionError, match="presimplicial identity fails"):
        plain_hochschild_complex(m2_diag_ext(), 2)


def test_fault_unverified_faces_breaking_d_squared_are_caught():
    from l2betti.complexes import PresimplicialModule
    one = GMatrix.identity(1)
    zero = GMatrix.zero(1, 1)
    # d_1 = 1 and d_2 = 1: the faces were never verified, so boundary()
    # checks d o d itself
    p = PresimplicialModule([1, 1, 1], [None, [one, zero], [one, zero, zero]],
                            name="broken")
    with pytest.raises(AssertionError, match="d o d != 0 at degree 2"):
        p.boundary()


def test_verified_faces_of_the_wrong_count_are_rejected():
    from l2betti.complexes import PresimplicialModule
    one = GMatrix.identity(1)
    zero = GMatrix.zero(1, 1)
    # two faces at degree 2 meet the one identity pi_0 pi_1 = pi_0 pi_0, yet
    # d_1 d_2 = 1: the d o d cancellation needs n + 1 faces at degree n
    p = PresimplicialModule([1, 1, 1], [None, [zero, one], [one, zero]],
                            name="short")
    with pytest.raises(AssertionError, match="degree 2 has 2 faces"):
        p.verify_presimplicial()


def corrupted_homotopy(hom, n, d_hi):
    """A copy of hom with one entry of h[n] moved by 1 in a row that d_{n+1}
    does not kill."""
    from l2betti.complexes import ContractingHomotopy
    h = dict(hom.h)
    m = GMatrix.from_cols(h[n].rows, as_matrix(h[n]).col)
    row = next(k for k in range(d_hi.cols) if d_hi.col[k])
    x = m.col[0].get(row)
    m.col[0][row] = ONE if x is None else x + ONE
    h[n] = m
    return ContractingHomotopy(h, hom.aug, hom.aug_section)


def test_fault_homotopy_entry_is_caught_by_split_homology():
    # e e = e is not checked; a wrong h must fail d h + h d = 1 instead
    bar = bar_complex(c2_ext(), 3)
    chain = bar.boundary()
    bar.homotopy = corrupted_homotopy(bar.homotopy, 1, as_matrix(chain.d[2]))
    with pytest.raises(AssertionError, match="homotopy identity fails at degree 1"):
        homology(bar, 1, method="split")


def test_homotopy_verify_reverifies_against_another_chain():
    bar = bar_complex(c2_ext(), 3)
    chain = bar.boundary()
    hom = bar.homotopy
    assert hom.verified_upto == 2 and hom.verified_chain is chain
    assert hom.verify(chain, 2)
    other = ChainComplex(list(chain.dims), dict(chain.d))
    d2 = as_matrix(chain.d[2])
    other.d[2] = GMatrix(d2.rows, d2.cols, [{i: x + x for i, x in c.items()} for c in d2.col])
    with pytest.raises(AssertionError, match="homotopy identity fails at degree 1"):
        hom.verify(other, 2)


# ---------------------------------------------------------------------------
# faces, boundaries and homotopies as index maps, against GMatrix columns


def assert_index_path_agrees_with_column_loop(build, monkeypatch, force):
    """build() on the index path against build() with force applied, which
    makes the faces GMatrix, so that the checks and the boundary take the
    column-by-column loop."""
    fast = build()
    with monkeypatch.context() as m:
        force(m)
        slow = build()
        assert all(isinstance(f, GMatrix) for row in slow.faces[1:] for f in row)
        slow_d = slow.boundary().d
        assert all(isinstance(d, GMatrix) for d in slow_d.values())
    assert all(isinstance(f, IndexMap) for row in fast.faces[1:] for f in row)
    assert fast.dims == slow.dims
    assert fast.presimplicial_upto == slow.presimplicial_upto == fast.N
    fast_d = fast.boundary().d
    assert all(isinstance(d, IndexSum) for d in fast_d.values())
    assert {n: as_matrix(d) for n, d in fast_d.items()} == slow_d
    fh, sh = fast.homotopy, slow.homotopy
    assert (fh is None) == (sh is None)
    if fh is not None:
        assert not any(isinstance(m, GMatrix) for m in [fh.aug, fh.aug_section, *fh.h.values()])
        assert as_matrix(fh.aug) == as_matrix(sh.aug)
        assert as_matrix(fh.aug_section) == as_matrix(sh.aug_section)
        assert {n: as_matrix(h) for n, h in fh.h.items()} == \
            {n: as_matrix(h) for n, h in sh.h.items()}


@pytest.mark.parametrize("name", CORPUS_EXTENSIONS)
def test_index_path_agrees_with_column_loop_on_corpus(name, monkeypatch):
    def build():
        ext = as_extension(load_path(os.path.join(CORPUS, name)))
        return l2_complex(fiber_square_of(ext)[0], 3)

    assert_index_path_agrees_with_column_loop(
        build, monkeypatch, lambda m: m.setattr(Extension, "monomial", lambda self: None))


@pytest.mark.parametrize("kind", ["nerve", "bar", "cyclic", "acyclic", "classifying"])
def test_index_path_agrees_with_column_loop_on_geometric(kind, monkeypatch):
    import l2betti.complexes as cx
    g = load_path(os.path.join(CORPUS, "action_c2_field.json"))
    tuple_face_map = cx._tuple_face_map

    def force(m):
        m.setattr(cx, "_tuple_face_map", lambda *a: tuple_face_map(*a).matrix())

    assert_index_path_agrees_with_column_loop(
        lambda: geometric_complex(g, kind, 3), monkeypatch, force)


def test_corpus_hochschild_complexes_take_the_index_path():
    assert len(CORPUS_EXTENSIONS) == 17
    for name in CORPUS_EXTENSIONS:
        ext = as_extension(load_path(os.path.join(CORPUS, name)))
        l2 = l2_complex(fiber_square_of(ext)[0], 3)
        assert all(isinstance(f, IndexMap) for row in l2.faces[1:] for f in row), name
    # cocycle signs put -1 entries into the faces: the twisted complex of
    # pair(3) takes the index path with sign lists, and so does its
    # normalizing extension N/LinfX (verify_residual_pair3_twisted), graded
    # and monomial as well
    g = pair_relation(uniform_space(3))
    ext = convolution_algebra(g, distinct_triple_sign_cocycle(g))
    nabla = normalizer_span(ext, ext.alg.unitary_family)
    assert ext.monomial().sign is not None
    assert nabla.grading() is not None and nabla.monomial() is not None
    for e in (ext, nabla):
        l2 = l2_complex(fiber_square_of(e)[0], 2)
        assert all(isinstance(f, IndexMap) for row in l2.faces[1:] for f in row), e.name
        assert any(f.sign is not None for row in l2.faces[1:] for f in row), e.name


def with_faces(p, n, i, face, name):
    """A fresh module with p's spaces and faces, face (n, i) replaced."""
    faces = [None] + [list(row) for row in p.faces[1:]]
    faces[n][i] = face
    return PresimplicialModule(p.dims, faces, name=name)


def moved_entry_fault():
    """Move one entry of the index-map face (2,1) of the Hochschild complex
    of M2/diag to a row with another pi_0, and verify: pi_0 pi_1 = pi_0 pi_0
    fails in that column."""
    p = plain_hochschild_complex(m2_diag_ext(), 2)
    low, m = p.faces[1][0], p.faces[2][1]
    assert isinstance(low, IndexMap) and isinstance(m, IndexMap)
    c = next(c for c, r in enumerate(m.idx) if r is not None)
    r = next(r for r in range(p.dims[1]) if low.idx[r] != low.idx[m.idx[c]])
    idx = list(m.idx)
    idx[c] = r
    with_faces(p, 2, 1, IndexMap(m.rows, idx, m.sign), "moved").verify_presimplicial()


def test_fault_moved_face_entry_is_caught_on_the_index_path():
    with pytest.raises(AssertionError,
                       match=r"presimplicial identity fails at degree 2 \(0,1\) in moved"):
        moved_entry_fault()


def test_moved_face_entry_is_caught_under_python_optimize():
    # -O strips assert statements; the index comparison must not live in one
    code = ("import sys\n"
            "print(sys.flags.optimize)\n"
            "import test_complexes\n"
            "test_complexes.moved_entry_fault()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), TESTS]))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, cwd=ROOT, env=env)
    assert r.stdout == "1\n"
    assert r.returncode == 1
    assert r.stderr.rstrip().endswith(
        "AssertionError: presimplicial identity fails at degree 2 (0,1) in moved")


def test_face_one_column_short_is_rejected():
    # as an index map and as a GMatrix, when the module is built: before the
    # presimplicial check or the boundary reads the face, and at degree 1,
    # which no presimplicial identity reads as the upper face
    p = plain_hochschild_complex(m2_diag_ext(), 2)
    for n, i in ((1, 0), (2, 1)):
        f = p.faces[n][i]
        g = as_matrix(f)
        message = r"face \(%d,%d\) is %dx%d, not %dx%d in short" % (
            n, i, p.dims[n - 1], p.dims[n] - 1, p.dims[n - 1], p.dims[n])
        for short in (IndexMap(f.rows, f.idx[:-1]), GMatrix(g.rows, g.cols - 1, g.col[:-1])):
            with pytest.raises(AssertionError, match=message):
                with_faces(p, n, i, short, "short")


# ---------------------------------------------------------------------------
# checks on index maps: fault injection


def scalar_l2_complex(which, N):
    if which == "CS3":
        table, unit, els = symmetric_table(3)
        ext = trivial_extension(group_algebra(table, unit, elements=els, name="CS3"))
    else:
        ext = trivial_extension(matrix_algebra(3), name="M3/C")
    return l2_complex(fiber_square_of(ext)[0], N)


def moved_homotopy_entry_fault(which):
    """Move one entry of h_1, an index map on CS3/C and a sum of three on
    M3/C (1 = e11 + e22 + e33), to a row where d_2 differs, and verify
    d h + h d = 1 again."""
    l2 = scalar_l2_complex(which, 2)
    chain = l2.boundary()
    hom = l2.homotopy
    h1 = hom.h[1]
    assert isinstance(h1, IndexSum)
    assert len(h1.terms) == (1 if which == "CS3" else 3)
    s, m = h1.terms[-1]
    c = next(c for c, r in enumerate(m.idx) if r is not None)
    d2 = chain.d[2]
    r = next(r for r in range(d2.cols) if d2.column(r) != d2.column(m.idx[c]))
    idx = list(m.idx)
    idx[c] = r
    h = dict(hom.h)
    h[1] = IndexSum(h1.rows, h1.cols, h1.terms[:-1] + [(s, IndexMap(m.rows, idx, m.sign))])
    ContractingHomotopy(h, hom.aug, hom.aug_section).verify(chain, 1)


def test_split_degree_boundary_is_summed_but_never_built_as_a_matrix():
    # CS3/C at N=3: degrees 0 and 1 run elimination on d_1 and d_2; d_3
    # (1296 x 7776) is only verified and traced, in ints
    l2 = scalar_l2_complex("CS3", 3)
    assert [homology(l2, n).method for n in range(3)] == ["elimination", "elimination", "split"]
    d = l2.boundary().d
    assert all(isinstance(m, IndexSum) for m in d.values())
    assert (d[3].rows, d[3].cols) == (1296, 7776)
    assert d[2]._matrix is not None and d[3]._matrix is None


@pytest.mark.parametrize("which", ["CS3", "M3"])
def test_fault_moved_homotopy_entry_is_caught_on_the_index_path(which):
    with pytest.raises(AssertionError, match="homotopy identity fails at degree 1"):
        moved_homotopy_entry_fault(which)


def test_moved_homotopy_entry_is_caught_under_python_optimize():
    code = ("import sys\n"
            "print(sys.flags.optimize)\n"
            "import test_complexes\n"
            "test_complexes.moved_homotopy_entry_fault('CS3')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), TESTS]))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, cwd=ROOT, env=env)
    assert r.stdout == "1\n"
    assert r.returncode == 1
    assert r.stderr.rstrip().endswith(
        "AssertionError: homotopy identity fails at degree 1")


def test_fault_flipped_sign_in_a_signed_face_is_caught_by_presimplicial():
    g = pair_relation(uniform_space(3))
    ext = convolution_algebra(g, distinct_triple_sign_cocycle(g))
    p = l2_complex(fiber_square_of(ext)[0], 2)
    i = next(i for i in range(3) if p.faces[2][i].sign is not None)
    m, low = p.faces[2][i], p.faces[1][0]
    # a column whose entry pi_0 keeps, so that one composite changes sign
    c = next(c for c, r in enumerate(m.idx) if r is not None and low.idx[r] is not None)
    sign = list(m.sign)
    sign[c] = -sign[c]
    with pytest.raises(AssertionError, match=r"presimplicial identity fails at degree 2"):
        with_faces(p, 2, i, IndexMap(m.rows, m.idx, sign), "flipped").verify_presimplicial()


def test_fault_face_entry_moved_onto_a_central_coordinate_fails_descent(monkeypatch):
    # pair(3): the coinvariants keep the coordinates with tl = sr; the wrap
    # at degree 1 sends one coordinate with tl != sr to a kept one
    ext = convolution_algebra(pair_relation(uniform_space(3)))
    wrap = Level.wrap

    def moved_wrap(self):
        m = wrap(self)
        if self.depth() != 1:
            return m
        q = next(q for q, (t, s) in enumerate(zip(self.tl, self.sr)) if t != s)
        prev = self.prev
        r = next(r for r, (t, s) in enumerate(zip(prev.tl, prev.sr)) if t == s)
        idx = list(m.idx)
        idx[q] = r
        return IndexMap(m.rows, idx, m.sign)

    assert plain_hochschild_complex(ext, 1).dims[1] > 0
    monkeypatch.setattr(Level, "wrap", moved_wrap)
    with pytest.raises(AssertionError,
                       match="face does not descend to coinvariants at degree 1"):
        plain_hochschild_complex(ext, 1)


def test_fault_non_descending_map_is_caught_on_the_radical_path(monkeypatch):
    # on the radical path the descent check maps the echelon rows of the
    # relations: the wrap passes, and a map sending every basis vector to
    # one kept coordinate of A/[B, A] does not
    monkeypatch.setattr(Extension, "grading", lambda self: None)
    lvl = algebra_tower(convolution_algebra(pair_relation(uniform_space(2)))).level(1)
    low_q = lvl.prev.coinvariants()
    assert lvl.sr is None and low_q.ech is not None
    lvl.check_descends([lvl.wrap()], low_q, 1)
    r = low_q.keep[0]
    constant = GMatrix(lvl.prev.dim, lvl.dim, [{r: ONE} for _ in range(lvl.dim)])
    with pytest.raises(AssertionError, match="face does not descend to coinvariants at degree 1"):
        lvl.check_descends([constant], low_q, 1)
