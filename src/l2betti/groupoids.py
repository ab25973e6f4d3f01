"""Finite measured spaces, finite groupoids and their tuple spaces.

Elements compose left-to-right against arrows: compose(a, b) = ab is defined
exactly when source(a) == target(b), so ab is "b then a".  The canonical
measure on a groupoid carrier gives the arrow a the weight of its source
atom, which makes the source map measure preserving in the fiber-counting
sense; validation checks that the target map is measure preserving too
(equivalently, the base measure is invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class FiniteMeasuredSpace:
    atoms: tuple
    weight: dict = field(compare=False)

    def __post_init__(self):
        for x in self.atoms:
            w = self.weight[x]
            if w <= 0:
                raise ValueError("atom %r has nonpositive weight %s" % (x, w))

    @property
    def total_mass(self) -> Fraction:
        return sum((self.weight[x] for x in self.atoms), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass == 1


def uniform_space(n: int) -> FiniteMeasuredSpace:
    atoms = tuple("x%d" % i for i in range(n))
    w = Fraction(1, n)
    return FiniteMeasuredSpace(atoms, {a: w for a in atoms})


@dataclass(frozen=True)
class FiniteGroupoid:
    base: FiniteMeasuredSpace
    elements: tuple
    source: dict = field(compare=False)
    target: dict = field(compare=False)
    inverse: dict = field(compare=False)
    compose: dict = field(compare=False)    # (a, b) -> ab, keys exactly the composable pairs
    units: dict = field(compare=False)      # atom -> unit element
    name: str = field(default="", compare=False)

    def is_unit(self, a):
        return self.units[self.target[a]] == a

    def arrows(self, tgt):
        """The arrows with target tgt, in element order."""
        return [a for a in self.elements if self.target[a] == tgt]


@dataclass
class GroupoidReport:
    ok: bool
    violations: list
    element_count: int

    def __bool__(self):
        return self.ok


def validate_groupoid(g: FiniteGroupoid) -> GroupoidReport:
    """Exhaustively check the groupoid axioms, returning witnesses on failure."""
    bad = []
    els = g.elements
    elset = set(els)

    if not g.base.is_probability():
        bad.append(("base_not_probability", str(g.base.total_mass)))

    for x in g.base.atoms:
        u = g.units.get(x)
        if u is None or u not in elset:
            bad.append(("missing_unit", x))
            continue
        if g.source[u] != x or g.target[u] != x:
            bad.append(("unit_endpoints", x, u))

    for a in els:
        ai = g.inverse.get(a)
        if ai not in elset:
            bad.append(("missing_inverse", a))
            continue
        if g.inverse.get(ai) != a:
            bad.append(("inverse_not_involutive", a))
        if g.source[ai] != g.target[a] or g.target[ai] != g.source[a]:
            bad.append(("inverse_endpoints", a))

    for a in els:
        for b in els:
            comp = (a, b) in g.compose
            if comp != (g.source[a] == g.target[b]):
                bad.append(("composability_domain", a, b))
                continue
            if comp:
                c = g.compose[(a, b)]
                if c not in elset:
                    bad.append(("composition_out_of_carrier", a, b))
                    continue
                if g.target[c] != g.target[a] or g.source[c] != g.source[b]:
                    bad.append(("composition_endpoints", a, b, c))

    if not bad:
        for a in els:
            ai = g.inverse[a]
            if g.compose[(a, ai)] != g.units[g.target[a]]:
                bad.append(("inverse_law_right", a))
            if g.compose[(ai, a)] != g.units[g.source[a]]:
                bad.append(("inverse_law_left", a))
            if g.compose[(a, g.units[g.source[a]])] != a:
                bad.append(("unit_law_right", a))
            if g.compose[(g.units[g.target[a]], a)] != a:
                bad.append(("unit_law_left", a))
        for a in els:
            for b in els:
                if g.source[a] != g.target[b]:
                    continue
                ab = g.compose[(a, b)]
                for c in els:
                    if g.source[b] != g.target[c]:
                        continue
                    if g.compose[(ab, c)] != g.compose[(a, g.compose[(b, c)])]:
                        bad.append(("associativity", a, b, c))

    # measure preservation of s and t for the canonical carrier measure:
    # mu_G(A) = integral of the fiber count over the base, for every A;
    # pointwise this says weight(a) = mu(s(a)) (by construction) and
    # weight(a) = mu(t(a)) (base measure invariance).
    for a in els:
        if g.base.weight[g.source[a]] != g.base.weight[g.target[a]]:
            bad.append(("target_not_measure_preserving", a))

    return GroupoidReport(not bad, bad, len(els))


# ---------------------------------------------------------------------------
# builders


def trivial_groupoid(space: FiniteMeasuredSpace) -> FiniteGroupoid:
    els = tuple(("u", x) for x in space.atoms)
    src = {("u", x): x for x in space.atoms}
    comp = {((("u", x)), ("u", x)): ("u", x) for x in space.atoms}
    return FiniteGroupoid(space, els, dict(src), dict(src),
                          {e: e for e in els}, comp,
                          {x: ("u", x) for x in space.atoms},
                          name="trivial(%d)" % len(space.atoms))


def group_groupoid(table: dict, unit, name="group") -> FiniteGroupoid:
    """A finite group (multiplication table {(g,h): gh}) over a single point."""
    els = sorted({g for g, _ in table} | {h for _, h in table}, key=repr)
    space = FiniteMeasuredSpace(("pt",), {"pt": Fraction(1)})
    inv = {}
    for gg in els:
        for h in els:
            if table[(gg, h)] == unit:
                inv[gg] = h
                break
    return FiniteGroupoid(space, tuple(els),
                          {g: "pt" for g in els}, {g: "pt" for g in els},
                          inv, dict(table), {"pt": unit}, name=name)


def pair_relation(space: FiniteMeasuredSpace) -> FiniteGroupoid:
    """The full equivalence relation X x X; (x, y) is an arrow y -> x."""
    els = tuple((x, y) for x in space.atoms for y in space.atoms)
    src = {(x, y): y for (x, y) in els}
    tgt = {(x, y): x for (x, y) in els}
    inv = {(x, y): (y, x) for (x, y) in els}
    comp = {}
    for (x, y) in els:
        for (y2, z) in els:
            if y == y2:
                comp[((x, y), (y2, z))] = (x, z)
    units = {x: (x, x) for x in space.atoms}
    return FiniteGroupoid(space, els, src, tgt, inv, comp, units,
                          name="pair(%d)" % len(space.atoms))


def partition_relation(space: FiniteMeasuredSpace, blocks) -> FiniteGroupoid:
    """Equivalence relation with the given blocks (a partition of the atoms)."""
    seen = [x for b in blocks for x in b]
    if sorted(seen) != sorted(space.atoms) or len(seen) != len(set(seen)):
        raise ValueError("blocks do not partition the atom set")
    els = []
    for b in blocks:
        for x in b:
            for y in b:
                els.append((x, y))
    els = tuple(els)
    src = {(x, y): y for (x, y) in els}
    tgt = {(x, y): x for (x, y) in els}
    inv = {(x, y): (y, x) for (x, y) in els}
    elset = set(els)
    comp = {}
    for (x, y) in els:
        for (y2, z) in els:
            if y == y2 and (x, z) in elset:
                comp[((x, y), (y2, z))] = (x, z)
    units = {x: (x, x) for x in space.atoms}
    return FiniteGroupoid(space, els, src, tgt, inv, comp, units,
                          name="partition(%s)" % ",".join(str(len(b)) for b in blocks))


def action_groupoid(table: dict, unit, action: dict,
                    space: FiniteMeasuredSpace, name="action") -> FiniteGroupoid:
    """Transformation groupoid of a finite group acting on the atoms.

    action[(g, x)] is g.x; elements are (g, x): arrows x -> g.x.
    """
    group = sorted({g for g, _ in table}, key=repr)
    for g in group:
        for h in group:
            for x in space.atoms:
                if action[(table[(g, h)], x)] != action[(g, action[(h, x)])]:
                    raise ValueError("not a group action at (%r,%r,%r)" % (g, h, x))
    for x in space.atoms:
        if action[(unit, x)] != x:
            raise ValueError("unit does not act trivially on %r" % (x,))
    els = tuple((g, x) for g in group for x in space.atoms)
    src = {(g, x): x for (g, x) in els}
    tgt = {(g, x): action[(g, x)] for (g, x) in els}
    inv = {}
    ginv = {}
    for g in group:
        for h in group:
            if table[(g, h)] == unit:
                ginv[g] = h
    for (g, x) in els:
        inv[(g, x)] = (ginv[g], action[(g, x)])
    comp = {}
    for (g, x) in els:
        for (h, y) in els:
            if x == action[(h, y)]:
                comp[(((g, x)), (h, y))] = (table[(g, h)], y)
    units = {x: (unit, x) for x in space.atoms}
    return FiniteGroupoid(space, els, src, tgt, inv, comp, units, name=name)


# ---------------------------------------------------------------------------
# structure maps


def is_equivalence_relation(g: FiniteGroupoid) -> bool:
    return all(g.source[a] != g.target[a] or g.is_unit(a) for a in g.elements)


def enveloping(g: FiniteGroupoid) -> FiniteGroupoid:
    """Pairs (a, b) with s(a)=t(b), t(a)=s(b); (a,b)(a',b') = (a'a, bb').

    Source and target of (a, b) are those of the second component; the
    diagonal embedding a -> (inverse(a), a) is a groupoid morphism, and an
    isomorphism when g is an equivalence relation.

    When g passes validate_groupoid, so does G^e, which groupoid_fiber_square
    therefore does not validate again.  The base is g's; (u_x, u_x) is a pair
    from x to x, and (a^-1, b^-1) a pair from t(b) to s(b), as
    s(a^-1) = t(a) = s(b) = t(b^-1) and likewise t(a^-1) = s(b^-1).
    (a, b)(a', b') is defined exactly when s(b) = t(b'), and then
    s(a') = t(b') = s(b) = t(a), so (a'a, bb') is a pair from s(b') to t(b).
    Both components are associative, the unit and inverse laws hold in each
    (e.g. (a, b)(a^-1, b^-1) = (u_s(a), u_t(b)) is the unit at t(b) = s(a)),
    and s(b), t(b) have equal weights in g.
    tests/test_groupoids.py validates G^e of pair(3) and C2
    (test_enveloping_of_*).
    """
    els = tuple((a, b) for a in g.elements for b in g.elements
                if g.source[a] == g.target[b] and g.target[a] == g.source[b])
    src = {(a, b): g.source[b] for (a, b) in els}
    tgt = {(a, b): g.target[b] for (a, b) in els}
    inv = {(a, b): (g.inverse[a], g.inverse[b]) for (a, b) in els}
    comp = {}
    for (a, b) in els:
        for (a2, b2) in els:
            if g.source[b] == g.target[b2]:
                comp[(((a, b)), (a2, b2))] = (g.compose[(a2, a)], g.compose[(b, b2)])
    units = {x: (g.units[x], g.units[x]) for x in g.base.atoms}
    return FiniteGroupoid(g.base, els, src, tgt, inv, comp, units,
                          name=g.name + ".env")


# ---------------------------------------------------------------------------
# the five tuple-space families of a groupoid


def _chain_tuples(g: FiniteGroupoid, n: int):
    """Composable n-tuples (a1,...,an) with s(a_i) = t(a_{i+1})."""
    if n == 0:
        return [()]
    out = [(a,) for a in g.elements]
    for _ in range(n - 1):
        nxt = []
        for t in out:
            for b in g.arrows(tgt=g.source[t[-1]]):
                nxt.append(t + (b,))
        out = nxt
    return out


def _cyclic_tuples(g: FiniteGroupoid, n: int):
    """Composable (n+1)-tuples whose overall source equals the overall target."""
    return [t for t in _chain_tuples(g, n + 1)
            if g.source[t[-1]] == g.target[t[0]]]


def _target_tuples(g: FiniteGroupoid, n: int):
    """(n+1)-tuples sharing a common target."""
    out = [(a,) for a in g.elements]
    for _ in range(n):
        nxt = []
        for t in out:
            x = g.target[t[0]]
            for b in g.arrows(tgt=x):
                nxt.append(t + (b,))
        out = nxt
    return out


def _nerve_face(g, t, i):
    n = len(t)
    if n == 1:
        # faces into degree 0, which is the base
        return (g.source[t[0]],) if i == 0 else (g.target[t[0]],)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[:i - 1] + (g.compose[(t[i - 1], t[i])],) + t[i + 1:]


def _cyclic_face(g, t, i):
    m = len(t) - 1
    if i < m:
        return t[:i] + (g.compose[(t[i], t[i + 1])],) + t[i + 2:]
    return (g.compose[(t[m], t[0])],) + t[1:m]


def _nerve_carrier(g: FiniteGroupoid, n: int):
    """The base in degree 0, composable n-tuples above."""
    return [(x,) for x in g.base.atoms] if n == 0 else _chain_tuples(g, n)


# kind -> (carrier(g, n), face(g, t, i)): the degree-n tuples, and the i-th
# face of a degree-n tuple t, for 0 <= i <= n, landing in degree n-1
GEOMETRIC_FAMILIES = {
    "nerve": (_nerve_carrier, _nerve_face),
    "bar": (lambda g, n: _chain_tuples(g, n + 2),
            lambda g, t, i: _nerve_face(g, t, i + 1)),
    "cyclic": (_cyclic_tuples, _cyclic_face),
    "acyclic": (lambda g, n: _cyclic_tuples(g, n + 1),
                lambda g, t, i: _cyclic_face(g, t, i + 1)),
    "classifying": (_target_tuples, lambda g, t, i: t[:i] + t[i + 1:]),
}


def geometric_carrier(g: FiniteGroupoid, kind: str, n: int):
    return GEOMETRIC_FAMILIES[kind][0](g, n)


def geometric_face(g: FiniteGroupoid, kind: str, n: int, i: int, t):
    """The i-th face of the degree-n tuple t, landing in degree n-1."""
    return GEOMETRIC_FAMILIES[kind][1](g, t, i)


# ---------------------------------------------------------------------------
# bisections


def elementary_bisections(g: FiniteGroupoid):
    """The swaps {a, a^-1} along arrows between distinct atoms and the {a} of
    non-unit isotropy arrows, each completed by the units at the other atoms,
    in element order.  They generate the bisections (convolution_algebra)."""
    out, seen = [], set()
    for a in g.elements:
        ends = {g.source[a], g.target[a]}
        arrows = frozenset({a, g.inverse[a]} if len(ends) == 2 else {a})
        if not g.is_unit(a) and arrows not in seen:
            seen.add(arrows)
            out.append(arrows.union(g.units[x] for x in g.base.atoms if x not in ends))
    return out
