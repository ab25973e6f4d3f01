"""Reference constructions the tests compare the library against.

Nothing in the l2betti package, its CLI, scripts or benchmark calls these.
They are oracles for statements of the paper (the classifying-to-square
isomorphism, the comparison of geometric and algebraic complexes, the
operator spans of twisted and untwisted fiber squares, the closed-form
Betti numbers of a finite measured groupoid, every bisection of a groupoid
and the fully signed bisection family), generated groupoids (Hypothesis
strategies) and small fixtures (free, trivial, column, direct-sum and
conjugated modules, sign cocycles, the Klein four-group).  The test modules
import them with ``from oracles import ...``; pytest does not collect this
file.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from l2betti import fibersquare as fs
from l2betti.algebras import (
    TracialStarAlgebra, TwoCocycle, conditional_expectation, matrix_algebra,
    positivity_witness, trivial_cocycle, validate_cocycle,
)
from l2betti.betti import FiniteModule
from l2betti.complexes import PresimplicialModule, _tuple_face_map, hochschild_complex
from l2betti.groupoids import (
    FiniteGroupoid, FiniteMeasuredSpace, action_groupoid, enveloping,
    geometric_carrier, partition_relation,
)
from l2betti.groups import cyclic_table, symmetric_table
from l2betti.linalg import (
    Echelon, GMatrix, as_matrix, combination, invert, kernel_basis,
)
from l2betti.scalars import MINUS_ONE, ONE, gs
from l2betti.tensor import Tower, extension_base_level


# ---------------------------------------------------------------------------
# groups, matrices, groupoids


def klein_table():
    """(table, unit, elements) for the Klein four-group."""
    els = ["e", "a", "b", "c"]
    idx = {e: i for i, e in enumerate(els)}
    table = {}
    for x in els:
        for y in els:
            table[(x, y)] = els[idx[x] ^ idx[y]]
    return table, "e", els


def matrix_from_rows(rows_list):
    """GMatrix from dense rows of ints, Fractions or GScalars."""
    r = len(rows_list)
    c = len(rows_list[0]) if r else 0
    m = GMatrix(r, c)
    for i, row in enumerate(rows_list):
        assert len(row) == c, "ragged rows"
        for j, x in enumerate(row):
            x = gs(x)
            if not x.is_zero():
                m.col[j][i] = x
    return m


def diagonal_embedding(g: FiniteGroupoid):
    """The morphism a -> (inverse(a), a) into enveloping(g)."""
    return {a: (g.inverse[a], a) for a in g.elements}


@dataclass
class GroupoidMorphism:
    dom: FiniteGroupoid
    cod: FiniteGroupoid
    mapping: dict

    def check(self):
        m = self.mapping
        for a in self.dom.elements:
            b = m[a]
            if self.dom.source[a] != self.cod.source[b]:
                raise AssertionError("source broken at %r" % (a,))
            if self.dom.target[a] != self.cod.target[b]:
                raise AssertionError("target broken at %r" % (a,))
            if m[self.dom.inverse[a]] != self.cod.inverse[b]:
                raise AssertionError("inverse broken at %r" % (a,))
        for (a, b), c in self.dom.compose.items():
            if self.cod.compose[(m[a], m[b])] != m[c]:
                raise AssertionError("composition broken at (%r,%r)" % (a, b))
        return True


GROUPS = {"C%d" % n: cyclic_table(n) for n in range(1, 5)}
GROUPS["C2xC2"] = klein_table()
GROUPS["S3"] = symmetric_table(3)


def subgroups(table, unit, els):
    """Every subgroup of a finite group, as a frozenset of its elements."""
    out = []
    for k in range(1, len(els) + 1):
        for sub in itertools.combinations(els, k):
            s = frozenset(sub)
            if unit in s and all(table[(g, h)] in s for g in s for h in s):
                out.append(s)
    return out


def _space(blocks, weights):
    """Atoms in blocks, block i's atoms weighted proportionally to
    weights[i]: block-constant weights, normalized to mass 1."""
    total = sum(w * len(b) for b, w in zip(blocks, weights))
    return FiniteMeasuredSpace(
        tuple(x for b in blocks for x in b),
        {x: Fraction(w, total) for b, w in zip(blocks, weights) for x in b})


def coset_action(group, stabilizers, weights):
    """The action groupoid of GROUPS[group] on the disjoint union of its
    coset spaces G/H, one orbit per stabilizer H, with orbit-constant
    weights (an invariant measure)."""
    table, unit, els = GROUPS[group]
    orbits, action = [], {}
    for i, h in enumerate(stabilizers):
        cosets = []
        for g in els:
            c = frozenset(table[(g, x)] for x in h)
            if c not in cosets:
                cosets.append(c)
        name = {c: "o%dc%d" % (i, j) for j, c in enumerate(cosets)}
        for g in els:
            for c in cosets:
                action[(g, name[c])] = name[frozenset(table[(g, x)] for x in c)]
        orbits.append([name[c] for c in cosets])
    return action_groupoid(table, unit, action, _space(orbits, weights),
                           name="%s/%d" % (group, len(stabilizers)))


@st.composite
def partition_relations(draw, max_arrows=8):
    """Partition relations with blocks of 1 to 3 atoms, non-uniform
    block-constant weights, and at most max_arrows arrows."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
        lambda s: sum(k * k for k in s) <= max_arrows))
    starts = list(itertools.accumulate([0] + sizes))
    blocks = [["x%d" % x for x in range(a, b)] for a, b in zip(starts, starts[1:])]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(blocks),
                            max_size=len(blocks)))
    return partition_relation(_space(blocks, weights), blocks)


@st.composite
def coset_actions(draw, max_arrows=8):
    """Actions of C1-C4, C2xC2 and S3 on disjoint unions of coset spaces,
    with non-uniform orbit-constant weights and at most max_arrows arrows."""
    group = draw(st.sampled_from(sorted(g for g in GROUPS
                                        if len(GROUPS[g][2]) <= max_arrows)))
    table, unit, els = GROUPS[group]
    stabilizers = draw(st.lists(
        st.sampled_from(subgroups(table, unit, els)), min_size=1, max_size=3).filter(
        lambda hs: sum(len(els) // len(h) for h in hs) * len(els) <= max_arrows))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(stabilizers),
                            max_size=len(stabilizers)))
    return coset_action(group, stabilizers, weights)


def measured_groupoids(max_arrows=8):
    """Partition relations and coset actions with at most max_arrows arrows."""
    return st.one_of(partition_relations(max_arrows), coset_actions(max_arrows))


def closed_form_betti(g: FiniteGroupoid, N: int):
    """beta_0 = sum_x mu(x) / |t^-1(x)| and beta_n = 0 for 1 <= n < N, the
    L2-Betti numbers of a finite measured groupoid (Gaboriau, Publ. IHES
    2002, for relations)."""
    b0 = sum((g.base.weight[x] / len(g.arrows(tgt=x)) for x in g.base.atoms),
             Fraction(0))
    return [b0] + [Fraction(0)] * (N - 1)


def shuffled(g: FiniteGroupoid, seed: int) -> FiniteGroupoid:
    """g with its arrows and atoms listed in a seeded random order, as a
    document may list them; elementary_bisections() and bisections()
    follow that order."""
    rng = random.Random(seed)
    elements, atoms = list(g.elements), list(g.base.atoms)
    rng.shuffle(elements)
    rng.shuffle(atoms)
    return FiniteGroupoid(FiniteMeasuredSpace(tuple(atoms), g.base.weight),
                          tuple(elements), g.source, g.target, g.inverse,
                          g.compose, g.units, name=g.name)


def bisections(g: FiniteGroupoid):
    """All subsets on which source and target are bijections onto the atoms.

    Exhaustive backtracking over target fibers; exponential but fine at desk
    scale.  The search is depth first with an explicit stack, children
    pushed in reverse so they pop in fiber order: the result keeps the order
    of the recursive search, and no self-referencing closure is left for the
    cycle collector.
    """
    atoms = list(g.base.atoms)
    fibers = [g.arrows(tgt=x) for x in atoms]
    out = []
    stack = [(0, frozenset(), ())]
    while stack:
        k, used_sources, chosen = stack.pop()
        if k == len(atoms):
            out.append(frozenset(chosen))
            continue
        for a in reversed(fibers[k]):
            s = g.source[a]
            if s not in used_sources:
                stack.append((k + 1, used_sources | {s}, chosen + (a,)))
    return out


def signed_bisection_family(ext):
    """Every bisection of ext.groupoid times 1 and times each single-atom
    sign flip 1 - 2*1_{x}, kept where unitary in ext's product: the family
    whose fiber square convolution_algebra's family, the signed identity
    and the unsigned elementary bisections, must reach through products."""
    g, A = ext.groupoid, ext.alg
    idx = {a: k for k, a in enumerate(g.elements)}
    fam = []
    for b in bisections(g):
        barrows = sorted(b, key=repr)
        for wname, flip in [("w", None)] + [("w" + str(x), x) for x in g.base.atoms]:
            v = {idx[a]: MINUS_ONE if g.target[a] == flip else ONE for a in barrows}
            if A.is_unitary(v):
                fam.append(("%s.%s" % (wname, ",".join(map(repr, barrows))), v))
    return fam


# ---------------------------------------------------------------------------
# algebras and cocycles


def full_extension(alg: TracialStarAlgebra, name=None):
    """A over itself."""
    basis = [{k: ONE} for k in range(alg.dim)]
    return conditional_expectation(alg, basis, sub_labels=list(alg.labels),
                                   name=name or (alg.name + "/" + alg.name))


def is_trivial(sigma: TwoCocycle) -> bool:
    return all(v == ONE for v in sigma.values.values())


def coboundary_cocycle(r: FiniteGroupoid, c: dict) -> TwoCocycle:
    """The coboundary s(x,y,z) = c(y,z) c(x,z)^{-1} c(x,y) of c: R -> T."""
    sig = TwoCocycle(r, {})
    vals = {}
    for (x, y, z) in sig.composable_triples():
        vals[(x, y, z)] = c[(y, z)] * c[(x, z)].inverse() * c[(x, y)]
    sig.values = vals
    return sig


def all_sign_cocycles(r: FiniteGroupoid, require_positive=False):
    """Exhaustive list of valid {1,-1}-valued cocycles (tiny relations only).

    With require_positive, keep only those whose twisted algebra has a
    positive trace form, i.e. s(x,y,x) = 1 on all composable (x,y,x).
    """
    sig0 = trivial_cocycle(r)
    triples = sorted(sig0.values)
    if len(triples) > 16:
        raise ValueError("relation too large for exhaustive cocycle search")
    out = []
    for signs in itertools.product((ONE, MINUS_ONE), repeat=len(triples)):
        cand = TwoCocycle(r, dict(zip(triples, signs)))
        if validate_cocycle(cand):
            continue
        if require_positive and positivity_witness(cand) is not None:
            continue
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# modules


def validate_module(m: FiniteModule):
    """The unit acts as the identity and the actions respect the structure
    constants; ValueError otherwise."""
    alg = m.algebra
    act = m.actions.__getitem__
    if combination(m.dim, alg.unit, act) != GMatrix.identity(m.dim):
        raise ValueError("unit does not act as the identity")
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = m.actions[i].mul(m.actions[j])
            rhs = combination(m.dim, alg.mul({i: ONE}, {j: ONE}), act)
            if lhs != rhs:
                raise ValueError("action breaks structure constants at (%d,%d)"
                                 % (i, j))
    return True


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    assert m1.algebra is m2.algebra
    n, m = m1.dim, m2.dim
    acts = []
    for k in range(m1.algebra.dim):
        a = GMatrix.zero(n + m, n + m)
        for j in range(n):
            for i, x in m1.actions[k].col[j].items():
                a.col[j][i] = x
        for j in range(m):
            for i, x in m2.actions[k].col[j].items():
                a.col[n + j][n + i] = x
        acts.append(a)
    return FiniteModule(m1.algebra, n + m, acts)


def free_module(alg: TracialStarAlgebra, k: int = 1) -> FiniteModule:
    """F^k with the left regular action."""
    acts = []
    for a in range(alg.dim):
        m = GMatrix.zero(alg.dim * k, alg.dim * k)
        for blk in range(k):
            for j in range(alg.dim):
                col = alg.mul({a: ONE}, {j: ONE})
                for i, x in col.items():
                    m.col[blk * alg.dim + j][blk * alg.dim + i] = x
        acts.append(m)
    return FiniteModule(alg, alg.dim * k, acts)


def trivial_module(alg: TracialStarAlgebra) -> FiniteModule:
    """The one-dimensional module where every group element acts as 1: only
    valid for group algebras (the augmentation)."""
    return FiniteModule(alg, 1, [matrix_from_rows([[1]]) for _ in range(alg.dim)])


def column_module(n: int):
    """(M_n, C^n) with e_ij acting as the matrix unit."""
    alg = matrix_algebra(n)
    acts = []
    for i in range(n):
        for j in range(n):
            m = GMatrix.zero(n, n)
            m.col[j][i] = ONE
            acts.append(m)
    return alg, FiniteModule(alg, n, acts)


def conjugate(m: FiniteModule, t: GMatrix) -> FiniteModule:
    """The module with actions t a t^{-1}, isomorphic to m."""
    tinv = invert(t)
    return FiniteModule(m.algebra, m.dim, [t.mul(a).mul(tinv) for a in m.actions])


# ---------------------------------------------------------------------------
# fiber squares


def s_condition(ext, u: dict, v: dict) -> bool:
    """Matching condition u* x u == v x v* in B, for every x in B."""
    left = fs._sig(ext, u, "left")
    return left is not None and left == fs._sig(ext, v, "right")


def pair_operator(bt, u: dict, v: dict) -> GMatrix:
    """The endomorphism a (x) c -> a u (x) v c on the balanced tensor, after
    checking that its evaluation [u (x) v] is B-central, which makes the map
    well defined and bimodular (fibersquare module docstring)."""
    xi = bt.level.tensor_class(u, v)
    if not bt.level.is_central(xi):
        raise AssertionError("pair operator: evaluation at 1(x)1 is not B-central")
    return fs._operator(bt, xi)


def _flatten(op: GMatrix) -> dict:
    """The entries of op as one vector, column after column."""
    out = {}
    n = op.rows
    for j, c in enumerate(op.col):
        for i, x in c.items():
            out[j * n + i] = x
    return out


def operator_spans_equal(f1, f2) -> bool:
    """Whether two fiber squares coincide as operator subspaces.

    Requires both balanced tensors to carry the same representative
    labeling (same kept ambient coordinates)."""
    if f1.tensor.dim != f2.tensor.dim:
        return False
    if f1.tensor.level.quotient.keep != f2.tensor.level.quotient.keep:
        raise ValueError("balanced tensors are not canonically identified")
    e1 = Echelon()
    for op in f1.ops:
        e1.insert(_flatten(op))
    both = Echelon()
    for op in f1.ops + f2.ops:
        both.insert(_flatten(op))
    e2 = Echelon()
    for op in f2.ops:
        e2.insert(_flatten(op))
    return e1.rank == both.rank == e2.rank


# ---------------------------------------------------------------------------
# complexes and comparison isomorphisms


def plain_hochschild_complex(ext, N: int) -> PresimplicialModule:
    """C_n(A/B) with coefficients in A itself."""
    return hochschild_complex(extension_base_level(ext), N, name="HH(%s)" % ext.name)


def _fold_tuple_class(tower: Tower, t):
    """Class of delta_{t0} (x) ... (x) delta_{tk} inside the tower of a
    groupoid extension.

    The base of depth d takes the first d + 1 letters."""
    gi = {a: k for k, a in enumerate(tower.base.ext.groupoid.elements)}
    levels = [tower.base]
    while levels[0].prev is not None:
        levels.insert(0, levels[0].prev)
    levels += [tower.level(k) for k in range(1, len(t) - len(levels) + 1)]
    vec = {gi[t[0]]: ONE}
    for lvl, a in zip(levels[1:], t[1:]):
        vec = lvl.tensor_class(vec, {gi[a]: ONE})
    return vec


def geometric_comparison(geo: PresimplicialModule, alg: PresimplicialModule, N: int):
    """Degreewise isomorphism from a geometric complex onto the algebraic
    complex over the same tower, commuting with all faces: bar onto bar,
    cyclic onto Hochschild, square tuples onto the square-coefficient
    complex.  Tuple classes are projected to the coinvariants exactly when
    the algebraic complex carries them."""
    coinv = getattr(alg, "coinv", None)
    what = "comparison %s -> %s" % (geo.name, alg.name)
    isos = []
    for n in range(N + 1):
        cols = [_fold_tuple_class(alg.tower, t) for t in geo.labels[n]]
        if coinv is not None:
            cols = [coinv[n].project(c) for c in cols]
        m = GMatrix.from_cols(alg.dims[n], cols)
        if geo.dims[n] != alg.dims[n]:
            raise AssertionError("%s: dimensions differ at degree %d" % (what, n))
        if kernel_basis(m).cols != 0:
            raise AssertionError("%s is not injective at degree %d" % (what, n))
        isos.append(m)
    for n in range(1, N + 1):
        for i in range(n + 1):
            if isos[n - 1].mul(as_matrix(geo.faces[n][i])) != \
                    as_matrix(alg.faces[n][i]).mul(isos[n]):
                raise AssertionError("%s breaks face (%d,%d)" % (what, n, i))
    return isos


@dataclass
class ThetaIso:
    """Degreewise isomorphism from C(G^e) (x)_{C G} C(E G) onto the
    square-coefficient tuple complex, with its explicit inverse."""

    groupoid: FiniteGroupoid
    env: FiniteGroupoid
    theta: list            # per-degree GMatrix (lhs -> acyclic tuples)
    theta_inv: list
    lhs_dims: list
    rhs_dims: list
    checks: dict


def _theta_tuple(g, t):
    """(a_0,...,a_n) -> (a_n^{-1}, a_0, a_0^{-1} a_1, ..., a_{n-1}^{-1} a_n)."""
    n = len(t) - 1
    out = [g.inverse[t[n]], t[0]]
    for i in range(n):
        out.append(g.compose[(g.inverse[t[i]], t[i + 1])])
    return tuple(out)


def theta_iso(g: FiniteGroupoid, N: int) -> ThetaIso:
    env = enveloping(g)
    acyc = [list(geometric_carrier(g, "acyclic", n)) for n in range(N + 1)]
    acyc_index = [{t: k for k, t in enumerate(c)} for c in acyc]

    # lhs carriers: degree 0 is G^e; degree n >= 1 is G^e *_{s,t} E^{n-1}
    lhs = [list(env.elements)]
    for n in range(1, N + 1):
        carrier = []
        for gamma in env.elements:
            for w in geometric_carrier(g, "classifying", n - 1):
                if env.source[gamma] == g.target[w[0]]:
                    carrier.append((gamma, w))
        lhs.append(carrier)
    lhs_index = [{t: k for k, t in enumerate(c)} for c in lhs]

    def act_env(gamma, z):
        """G^e-action on square tuples: (a,b).(z0, z1, rest) = (z0 a, b z1, rest)."""
        a, b = gamma
        z0 = g.compose[(z[0], a)]
        z1 = g.compose[(b, z[1])]
        return (z0, z1) + z[2:]

    def theta_apply(n, item):
        if n == 0:
            gamma = item
            x = env.source[gamma]
            unit_t = _theta_tuple(g, (g.units[x],))
            return act_env(gamma, unit_t)
        gamma, w = item
        x = g.target[w[0]]
        tup = (g.units[x],) + w
        return act_env(gamma, _theta_tuple(g, tup))

    theta = []
    for n in range(N + 1):
        m = GMatrix.zero(len(acyc[n]), len(lhs[n]))
        for j, item in enumerate(lhs[n]):
            m.col[j][acyc_index[n][theta_apply(n, item)]] = ONE
        theta.append(m)

    theta_inv = []
    for n in range(N + 1):
        m = GMatrix.zero(len(lhs[n]), len(acyc[n]))
        for j, z in enumerate(acyc[n]):
            if n == 0:
                # a square tuple (z0, z1) is an enveloping element
                m.col[j][lhs_index[0][(z[0], z[1])]] = ONE
            else:
                omegas = [z[2]]
                for k in range(3, n + 2):
                    omegas.append(g.compose[(omegas[-1], z[k])])
                alpha = g.compose[(omegas[-1], z[0])]
                item = ((alpha, z[1]), tuple(omegas))
                m.col[j][lhs_index[n][item]] = ONE
        theta_inv.append(m)

    checks = {"two_sided_inverse": True, "face_commuting": True,
              "equivariant": True}
    for n in range(N + 1):
        if theta[n].mul(theta_inv[n]) != GMatrix.identity(len(acyc[n])) or \
           theta_inv[n].mul(theta[n]) != GMatrix.identity(len(lhs[n])):
            checks["two_sided_inverse"] = False

    # lhs faces through the identification
    def lhs_face(n, i, item):
        gamma, w = item
        if i == 0:
            w1 = w[0]
            new_gamma = env.compose[(gamma, (g.inverse[w1], w1))]
            rest = tuple(g.compose[(g.inverse[w1], c)] for c in w[1:])
            return (new_gamma, rest) if n - 1 >= 1 else new_gamma
        # face i deletes w_{i-1} of the normalized tuple (1, w)
        keep = w[:i - 1] + w[i:]
        return (gamma, keep) if n - 1 >= 1 else gamma

    for n in range(1, N + 1):
        for i in range(n + 1):
            lm = GMatrix.zero(len(lhs[n - 1]), len(lhs[n]))
            for j, item in enumerate(lhs[n]):
                img = lhs_face(n, i, item)
                lm.col[j][lhs_index[n - 1][img]] = ONE
            geo_face = _tuple_face_map(g, "acyclic", n, i, acyc[n],
                                       acyc_index[n - 1]).matrix()
            if geo_face.mul(theta[n]) != theta[n - 1].mul(lm):
                checks["face_commuting"] = False

    # equivariance of theta on raw tuples: theta(alpha . w) = iota(alpha) theta(w)
    for n in range(0, min(N, 2) + 1):
        for w in geometric_carrier(g, "classifying", n):
            for alpha in g.elements:
                if g.source[alpha] != g.target[w[0]]:
                    continue
                aw = tuple(g.compose[(alpha, c)] for c in w)
                lhs_t = _theta_tuple(g, aw)
                rhs_t = act_env((g.inverse[alpha], alpha), _theta_tuple(g, w))
                if lhs_t != rhs_t:
                    checks["equivariant"] = False

    if not all(checks.values()):
        raise AssertionError("theta verification failed: %s" % checks)
    return ThetaIso(g, env, theta, theta_inv,
                    [len(c) for c in lhs], [len(c) for c in acyc], checks)
