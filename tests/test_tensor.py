"""Tower levels: the graded path against the radical path it replaces on
every corpus extension, the scalar Kronecker certificate against the
ambient Gram, the factored form against the full B-valued form, one fault
per graded-path check, the reindexing lift against the tensor_class lift,
and the traced memory of one run."""

import contextlib
import importlib.util
import io
import os
import tracemalloc
from fractions import Fraction

import pytest

import l2betti.tensor as tensor_mod
from l2betti.algebras import (
    Extension, SpanBasis, TracialStarAlgebra, conditional_expectation,
    convolution_algebra, diagonal_subalgebra_vectors, group_algebra,
    matrix_algebra, span_structure, trivial_extension,
)
from l2betti.betti import betti_hochschild
from l2betti.cli import main
from l2betti.complexes import ChainComplex
from l2betti.fileio import as_extension, load_path
from l2betti.groupoids import FiniteGroupoid, pair_relation, uniform_space
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import GMatrix, IndexMap, as_matrix, kernel_basis
from l2betti.scalars import ONE, ZERO, gs
from l2betti.tensor import algebra_tower, append_level, extension_base_level

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def corpus_extension_files():
    """The corpus documents that define an extension: groupoids, algebras
    and weighted sums."""
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".json")
                  and not f.startswith(("verify_", "cocycle_")))


def corpus_extension(name):
    return as_extension(load_path(os.path.join(CORPUS, name)))


def group_ext(table, name):
    table, unit, els = table
    return trivial_extension(group_algebra(table, unit, elements=els, name=name))


def scalar_extensions():
    return [group_ext(cyclic_table(2), "CC2"), group_ext(symmetric_table(3), "CS3"),
            trivial_extension(matrix_algebra(2))]


def m2_diag_ext():
    return conditional_expectation(matrix_algebra(2), diagonal_subalgebra_vectors(2),
                                   sub_labels=["d1", "d2"], name="M2/diag")


def full_bgram(tower, k):
    """The B-valued form of level k as i -> {j -> b-vector}.  A graded
    appended level keeps it factored, so it is expanded here level by level
    from the base's: <v (x) a, w (x) b>_B = E(a^* <v, w>_B b) on every pair of
    kept coordinates."""
    lvl = tower.level(k)
    if lvl.bgram is not None:
        return lvl.bgram
    ext, pos = lvl.ext, lvl.quotient.pos
    d2 = ext.alg.dim
    out = {}
    for v, row in full_bgram(tower, k - 1).items():
        for w, bv in row.items():
            for a in range(d2):
                for b in range(d2):
                    i, j = v * d2 + a, w * d2 + b
                    if i not in pos or j not in pos:
                        continue
                    i, j = pos[i], pos[j]
                    x = ext.sandwich(a, b).apply(bv)
                    if x:
                        out.setdefault(i, {})[j] = x
    return out


def gram_of(bgram, lvl):
    """The scalar Gram tr <e_i, e_j>_B of a B-valued form."""
    g = GMatrix.zero(lvl.dim, lvl.dim)
    for i, row in bgram.items():
        for j, bv in row.items():
            x = lvl.ext.sub_trace(bv)
            if not x.is_zero():
                g.col[j][i] = x
    return g


def ambient_gram(prev, bgram, ext):
    """The scalar Gram of prev (x) A, formed entry by entry from the
    sandwich maps and the B-valued form of prev, as the radical-quotient
    path forms it."""
    d2 = ext.alg.dim
    amb = prev.dim * d2
    g = GMatrix.zero(amb, amb)
    for v, row in bgram.items():
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
        amb = ambient_gram(prev, full_bgram(tower, k - 1), ext)
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
    inner = as_matrix(inner)
    return GMatrix.from_cols(
        dst.dim, [dst.tensor_class(inner.col[v], {b: ONE}) for v, b in src.reps()])


def assert_lift_agrees(src, inner, dst):
    """The index lift is an IndexMap, equal to the tensor_class lift and to
    the column lift of the inner map as a GMatrix."""
    lifted = src.lift(inner, dst)
    assert isinstance(inner, IndexMap) and isinstance(lifted, IndexMap)
    assert lifted.matrix() == tensor_class_lift(src, inner, dst)
    assert lifted.matrix() == src.lift(inner.matrix(), dst)


@pytest.mark.parametrize("ext", [
    convolution_algebra(pair_relation(uniform_space(3))), m2_diag_ext(),
    group_ext(cyclic_table(2), "CC2"),
], ids=["pair(3)", "M2/diag", "CC2"])
def test_reindexing_lift_equals_tensor_class_lift(ext):
    tower = algebra_tower(ext)
    for k in (2, 3):
        lvl, prev = tower.level(k), tower.level(k - 1)
        for a in range(ext.alg.dim):
            assert_lift_agrees(lvl, prev.left_act(a), lvl)
        for j in range(k - 1):
            assert_lift_agrees(lvl, prev.join(j), prev)
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


# ---------------------------------------------------------------------------
# the graded path against the radical path


def tower_data(ext, N):
    tower = algebra_tower(ext)
    out = []
    for k in range(N + 1):
        lvl = tower.level(k)
        out.append((None if lvl.quotient is None else lvl.quotient.keep, full_bgram(tower, k),
                    lvl.coinvariants().keep, lvl.invariants()))
    return out


@pytest.mark.parametrize("name", corpus_extension_files())
def test_graded_path_equals_radical_path_on_corpus(name, monkeypatch):
    graded_ext = corpus_extension(name)
    assert graded_ext.grading() is not None
    assert algebra_tower(graded_ext).level(2).sr is not None
    graded = tower_data(graded_ext, 2), betti_hochschild(graded_ext, 2)

    monkeypatch.setattr(Extension, "grading", lambda self: None)
    radical_ext = corpus_extension(name)
    radical_level = algebra_tower(radical_ext).level(2)
    assert radical_level.sr is None and radical_level.quotient.ech is not None
    radical = tower_data(radical_ext, 2), betti_hochschild(radical_ext, 2)

    for k, (g, r) in enumerate(zip(graded[0], radical[0])):
        assert g[0] == r[0], "quotient keep differs at level %d" % k
        assert g[1] == r[1], "descended B-valued Gram differs at level %d" % k
        assert g[2] == r[2], "coinvariant keep differs at level %d" % k
        assert g[3] == r[3], "invariants differ at level %d" % k
    assert graded[1].values == radical[1].values
    assert graded[1].meta == radical[1].meta


def sweep_commands():
    """The l2betti argument lists of scripts/corpus_sweep.py, with paths
    relative to the checkout root."""
    spec = importlib.util.spec_from_file_location(
        "corpus_sweep", os.path.join(ROOT, "scripts", "corpus_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.commands()


def test_no_corpus_command_takes_the_radical_path(monkeypatch):
    # a silent fallback to the radical path shows up here: every command of
    # the corpus sweep, which holds the benchmark's corpus_cli commands
    # (the verify instances and `betti --both` on the groupoids), stays on
    # the graded path, the normalizing extensions of the residual
    # instances included
    for name in corpus_extension_files():
        assert corpus_extension(name).grading() is not None, name
    graded, radical = [], []
    original_graded, original_radical = tensor_mod._graded_level, tensor_mod._radical_level

    def spy_graded(prev, t, s):
        graded.append(prev.ext.name)
        return original_graded(prev, t, s)

    def spy_radical(prev):
        radical.append(prev.ext.name)
        return original_radical(prev)

    monkeypatch.setattr(tensor_mod, "_graded_level", spy_graded)
    monkeypatch.setattr(tensor_mod, "_radical_level", spy_radical)
    monkeypatch.chdir(ROOT)
    for args in sweep_commands():
        name = os.path.basename(args[1])
        # a cocycle is no input of these commands, and `betti --both` needs
        # a groupoid
        refused = name.startswith("cocycle_") or (
            args[0] == "betti" and not isinstance(load_path(args[1]), FiniteGroupoid))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(args) == (2 if refused else 0), args
    assert radical == []
    assert "N/LinfX" in graded and len(set(graded)) >= 10


def test_only_tensor_reads_the_level_path():
    # which path a level took (its supports tl and sr, its blocks and
    # B-valued form, the echelon of its quotient, its defects) is read in
    # tensor.py alone; every other module asks the Level or descend.  An
    # attribute of these names read off anything but self elsewhere in
    # src/l2betti fails here (SpanBasis and LinearSolver keep an echelon of
    # their own as self.ech).
    import ast
    import glob
    private = {"tl", "sr", "ech", "central_defects", "central_coords", "bgram", "blocks"}
    reads = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "l2betti", "*.py"))):
        if os.path.basename(path) == "tensor.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read())
        reads += ["%s:%d %s" % (os.path.basename(path), node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not reads, "outside tensor.py: %s" % ", ".join(reads)


def rebased_m2_diag():
    """M2 over its diagonal in the basis e11, e22, e12 + e11, e21: the basis
    of B is its minimal projections, but p_2 . (e12 + e11) . p_2 is neither
    e12 + e11 nor 0 on the right, so the basis of A is not homogeneous."""
    m2 = matrix_algebra(2)
    e11, e12, e21, e22 = (m2.index(l) for l in ("e11", "e12", "e21", "e22"))
    span = SpanBasis()
    for v in ({e11: ONE}, {e22: ONE}, {e12: ONE, e11: ONE}, {e21: ONE}):
        assert span.add(v)
    vecs = span.vectors
    alg = TracialStarAlgebra(
        ["e11", "e22", "f12", "e21"],
        *span_structure(span, lambda i, j: m2.mul(vecs[i], vecs[j]),
                        lambda i: m2.star(vecs[i]), lambda i: m2.trace(vecs[i]),
                        m2.unit),
        name="M2'", unitary_family=[(nm, span.coords(u)) for nm, u in m2.unitary_family])
    return conditional_expectation(alg, [{0: ONE}, {1: ONE}],
                                   sub_labels=["d1", "d2"], name="M2'/diag")


def test_fault_non_homogeneous_basis_falls_back_to_radical_path():
    ext = rebased_m2_diag()
    assert ext.grading() is None
    lvl = algebra_tower(ext).level(2)
    assert lvl.sr is None and lvl.quotient.ech is not None
    assert lvl.dim == algebra_tower(m2_diag_ext()).level(2).dim
    assert betti_hochschild(ext, 2).values == betti_hochschild(m2_diag_ext(), 2).values


def test_fault_degenerate_trace_form_block_is_caught():
    # M2 over its diagonal has two blocks, t = x; zeroing the sandwich of
    # e12 with itself leaves the block of e11, e12 of rank 1
    ext = m2_diag_ext()
    e12 = ext.alg.index("e12")
    base = extension_base_level(ext)
    ext.sandwich(e12, e12)
    ext._sandwich_memo[(e12, e12)] = GMatrix.zero(2, 2)
    with pytest.raises(AssertionError, match="degenerate trace form"):
        append_level(base, ext)


def test_fault_wrong_right_support_is_caught(monkeypatch):
    # a wrong s(e12) leaves every trace-form block intact; only the checks
    # that E(a^* p_x b) sits at p_{s(a)} and the base's <v, w>_B at p_{sr[v]}
    # see it
    ext = m2_diag_ext()
    t, s = ext.grading()
    wrong = list(s)
    e12 = ext.alg.index("e12")
    wrong[e12] = 1 - s[e12]
    monkeypatch.setattr(ext, "grading", lambda: (t, wrong))
    base = extension_base_level(ext)
    assert base.sr == wrong
    with pytest.raises(AssertionError, match="leaves the right support"):
        append_level(base, ext)


def test_fault_wrong_left_support_is_caught(monkeypatch):
    # a wrong t(e12) puts e12 in the block of p_2, where its row of the
    # trace form is tr((p_2 e12)^* b) = 0: that block check sees it
    ext = m2_diag_ext()
    t, s = ext.grading()
    wrong = list(t)
    e12 = ext.alg.index("e12")
    wrong[e12] = 1 - t[e12]
    monkeypatch.setattr(ext, "grading", lambda: (wrong, s))
    base = extension_base_level(ext)
    assert base.tl == wrong
    with pytest.raises(AssertionError, match="degenerate trace form"):
        append_level(base, ext)


@pytest.mark.parametrize("name", corpus_extension_files())
def test_factored_gram_equals_gram_of_the_full_form(name):
    tower = algebra_tower(corpus_extension(name))
    for k in (1, 2, 3):
        lvl = tower.level(k)
        assert lvl.bgram is None and lvl.blocks is not None
        assert lvl.scalar_gram() == gram_of(full_bgram(tower, k), lvl), k


def test_fault_base_form_off_its_support_is_caught():
    # <e12, e12>_B = E(e21 e12) = p_2 moved onto p_1 keeps the base Gram
    # (tr(p_1) = tr(p_2) = 1/2); only the support check on the base sees it
    ext = m2_diag_ext()
    e12 = ext.alg.index("e12")
    base = extension_base_level(ext)
    assert base.bgram[e12][e12] == {1: ONE}
    base.bgram[e12][e12] = {0: ONE}
    with pytest.raises(AssertionError, match="B-valued form leaves the right support"):
        append_level(base, ext)


def test_fault_sandwich_off_its_support_is_caught():
    # E(e12^* p_1 e12) = p_2; moved onto p_1 it keeps the trace tr(p_1) =
    # tr(p_2) = 1/2, so every trace-form block stays full rank and the base
    # form, read from E(a^* b) directly, stays right: only the check once
    # per appended algebra sees it
    ext = m2_diag_ext()
    e12 = ext.alg.index("e12")
    base = extension_base_level(ext)
    assert ext.sandwich(e12, e12).col[0] == {1: ONE}
    ext._sandwich_memo[(e12, e12)] = GMatrix(2, 2, [{0: ONE}, {}])
    with pytest.raises(AssertionError, match="sandwich leaves the right support"):
        append_level(base, ext)


def test_s3_hochschild_holds_no_level_gram():
    # the tower keeps each level's form factored; a B-valued Gram built on
    # every level brings the traced peak of this run to about 9.7 MiB
    ext = corpus_extension("cs3.json")
    tracemalloc.start()
    try:
        assert betti_hochschild(ext, 3).values[0] == Fraction(1, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20, "traced peak %.2f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("name, N", [("cs3.json", 3), ("pair4", 2)])
def test_betti_expands_no_gram_above_the_balanced_square(name, N, monkeypatch):
    # the homology is ker/im and its dimension a character: no level above
    # the balanced square (depth 1) expands its scalar Gram
    expanded = []
    original = tensor_mod.Level.scalar_gram

    def spy(self):
        if self._scalar is None:
            expanded.append(self.depth())
        return original(self)

    ext = convolution_algebra(pair_relation(uniform_space(4))) if name == "pair4" \
        else corpus_extension(name)
    monkeypatch.setattr(tensor_mod.Level, "scalar_gram", spy)
    betti_hochschild(ext, N)
    assert expanded and max(expanded) <= 1, expanded
