import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.groupoids import (
    FiniteGroupoid, FiniteMeasuredSpace, action_groupoid, elementary_bisections,
    enveloping, geometric_carrier, geometric_face, group_groupoid,
    is_equivalence_relation, pair_relation, partition_relation,
    trivial_groupoid, uniform_space, validate_groupoid,
)
from l2betti.groups import cyclic_table, symmetric_table
from oracles import (
    GroupoidMorphism, bisections, diagonal_embedding, measured_groupoids, shuffled,
)


def c2_groupoid():
    table, unit, _ = cyclic_table(2)
    return group_groupoid(table, unit, name="C2")


def swap_action_groupoid():
    table, unit, _ = cyclic_table(2)
    x = uniform_space(2)
    action = {("g0", "x0"): "x0", ("g0", "x1"): "x1",
              ("g1", "x0"): "x1", ("g1", "x1"): "x0"}
    return action_groupoid(table, unit, action, x, name="C2swap")


def test_trivial_groupoid_valid():
    g = trivial_groupoid(uniform_space(3))
    rep = validate_groupoid(g)
    assert rep.ok and rep.element_count == 3


def test_group_as_groupoid_valid():
    g = c2_groupoid()
    rep = validate_groupoid(g)
    assert rep.ok and rep.element_count == 2


def test_s3_groupoid_valid():
    table, unit, _ = symmetric_table(3)
    g = group_groupoid(table, unit, name="S3")
    assert validate_groupoid(g).ok


def test_corrupted_composition_reports_associativity():
    g = pair_relation(uniform_space(2))
    comp = dict(g.compose)
    # corrupt one entry of the table away from a unit-law slot
    comp[(("x0", "x1"), ("x1", "x0"))] = ("x0", "x1")
    bad = FiniteGroupoid(g.base, g.elements, g.source, g.target,
                         g.inverse, comp, g.units)
    rep = validate_groupoid(bad)
    assert not rep.ok
    kinds = {v[0] for v in rep.violations}
    assert kinds & {"associativity", "composition_endpoints", "inverse_law_right",
                    "inverse_law_left", "unit_law_right", "unit_law_left"}


def test_pair_relation_shape():
    g = pair_relation(uniform_space(2))
    assert validate_groupoid(g).ok
    assert len(g.elements) == 4
    assert set(g.units.values()) == {("x0", "x0"), ("x1", "x1")}


def test_partition_relation_singletons_is_trivial():
    x = uniform_space(3)
    g = partition_relation(x, [["x0"], ["x1"], ["x2"]])
    assert validate_groupoid(g).ok
    assert len(g.elements) == 3
    assert all(g.is_unit(a) for a in g.elements)


def test_partition_relation_blocks_21():
    x = uniform_space(3)
    g = partition_relation(x, [["x0", "x1"], ["x2"]])
    assert validate_groupoid(g).ok
    assert len(g.elements) == 5


def test_action_groupoid_swap_orbits():
    g = swap_action_groupoid()
    assert validate_groupoid(g).ok
    assert len(g.elements) == 4
    # the orbit relation, the image of (t, s), is the pair relation on the
    # two atoms, and the isotropy is trivial
    ref = pair_relation(uniform_space(2))
    assert {(g.target[a], g.source[a]) for a in g.elements} == set(ref.elements)
    assert all(g.is_unit(a) for a in g.elements if g.source[a] == g.target[a])


def test_enveloping_of_relation_is_isomorphic():
    g = pair_relation(uniform_space(3))
    e = enveloping(g)
    assert validate_groupoid(e).ok
    emb = diagonal_embedding(g)
    GroupoidMorphism(g, e, emb).check()
    assert len(e.elements) == len(g.elements)
    assert set(emb.values()) == set(e.elements)


def test_broken_nerve_face_raises_under_python_optimize():
    # -O strips assert statements; the presimplicial check of a geometric
    # complex must not live in one.  Swapping the first two entries of face
    # (2, 1) of the nerve of pair(2) breaks pi_0 pi_1 = pi_0 pi_0.
    code = "\n".join([
        "from l2betti.complexes import PresimplicialModule, geometric_complex",
        "from l2betti.groupoids import pair_relation, uniform_space",
        "from l2betti.linalg import IndexMap",
        "nerve = geometric_complex(pair_relation(uniform_space(2)), 'nerve', 2)",
        "faces = [None] + [list(row) for row in nerve.faces[1:]]",
        "f = faces[2][1]",
        "idx = list(f.idx)",
        "idx[0], idx[1] = idx[1], idx[0]",
        "faces[2][1] = IndexMap(f.rows, idx, f.sign)",
        "PresimplicialModule(nerve.dims, faces, name='nerve').verify_presimplicial()",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 1
    assert "AssertionError: presimplicial identity fails at degree 2" in r.stderr


def test_enveloping_of_group_is_square():
    g = c2_groupoid()
    e = enveloping(g)
    assert validate_groupoid(e).ok
    assert len(e.elements) == 4
    GroupoidMorphism(g, e, diagonal_embedding(g)).check()


def test_enveloping_trivial_is_trivial():
    g = trivial_groupoid(uniform_space(2))
    e = enveloping(g)
    assert len(e.elements) == 2
    assert all(e.is_unit(a) for a in e.elements)


def test_tuple_space_counts():
    pair2 = pair_relation(uniform_space(2))
    assert len(geometric_carrier(pair2, "nerve", 1)) == 4
    assert len(geometric_carrier(pair2, "classifying", 1)) == 8
    c2 = c2_groupoid()
    assert len(geometric_carrier(c2, "cyclic", 0)) == 2
    # nerve degree 0 is the base
    assert len(geometric_carrier(pair2, "nerve", 0)) == 2


def verify_presimplicial_carrier(g, kind, n):
    """pi_i pi_j = pi_{j-1} pi_i for i<j on every degree-n tuple."""
    for t in geometric_carrier(g, kind, n):
        for j in range(1, n + 1):
            for i in range(j):
                lhs = geometric_face(g, kind, n - 1, i, geometric_face(g, kind, n, j, t))
                rhs = geometric_face(g, kind, n - 1, j - 1, geometric_face(g, kind, n, i, t))
                if lhs != rhs:
                    return False
    return True


def test_presimplicial_identities_all_kinds():
    for g in (pair_relation(uniform_space(2)), c2_groupoid(),
              swap_action_groupoid()):
        for kind in ("nerve", "bar", "cyclic", "acyclic", "classifying"):
            for n in range(2, 5):
                assert verify_presimplicial_carrier(g, kind, n), (g.name, kind, n)


def is_bisection(g, subset):
    subset = list(subset)
    atoms = set(g.base.atoms)
    return (len(subset) == len(atoms)
            and {g.source[a] for a in subset} == atoms
            and {g.target[a] for a in subset} == atoms)


def test_bisections_counts():
    assert len(bisections(c2_groupoid())) == 2
    assert len(bisections(pair_relation(uniform_space(3)))) == math.factorial(3)
    t = trivial_groupoid(uniform_space(3))
    bs = bisections(t)
    assert len(bs) == 1 and bs[0] == frozenset(t.units.values())
    for b in bisections(pair_relation(uniform_space(2))):
        assert is_bisection(pair_relation(uniform_space(2)), b)


def bisection_product(g, b, c):
    """The bisection bc: each arrow of c, then the arrow of b from its target."""
    from_source = {g.source[a]: a for a in b}
    return frozenset(g.compose[(from_source[g.target[a]], a)] for a in c)


@pytest.mark.parametrize("shuffle", [False, True], ids=["built", "shuffled"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(g=measured_groupoids(max_arrows=10), seed=st.integers(0, 2 ** 16))
def test_elementary_bisections_generate_every_bisection(shuffle, g, seed):
    # the generation argument of convolution_algebra's family: closing the
    # elementary bisections under products gives every bisection
    if shuffle:
        g = shuffled(g, seed)
    gens = elementary_bisections(g)
    assert all(is_bisection(g, b) for b in gens)
    group = {frozenset(g.units.values())}
    frontier = group
    while frontier:
        frontier = {bisection_product(g, b, c) for b in gens for c in frontier} - group
        group |= frontier
    assert group == set(bisections(g))


def test_invariant_measure_required():
    # a block pairing atoms of different mass fails the t measure check
    x = FiniteMeasuredSpace(("x0", "x1"), {"x0": Fraction(1, 4), "x1": Fraction(3, 4)})
    g = pair_relation(x)
    rep = validate_groupoid(g)
    assert not rep.ok
    assert any(v[0] == "target_not_measure_preserving" for v in rep.violations)


def test_partition_relation_rejects_blocks_that_miss_an_atom():
    with pytest.raises(ValueError):
        partition_relation(uniform_space(2), [["x0"]])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_partition_relations_validate(n, data):
    atoms = ["x%d" % i for i in range(n)]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for a, l in zip(atoms, labels):
        blocks.setdefault(l, []).append(a)
    x = uniform_space(n)
    g = partition_relation(x, list(blocks.values()))
    assert validate_groupoid(g).ok
    assert is_equivalence_relation(g)
    e = enveloping(g)
    assert validate_groupoid(e).ok
    assert len(e.elements) == len(g.elements)
