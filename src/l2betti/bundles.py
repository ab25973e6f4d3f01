"""The functor taking multibundles to function modules over the base algebra.

C[U] is the free space on the carrier of U; each bundle map pi installs a
module structure (a . f)(u) = a(pi(u)) f(u) over functions on the base and a
base-valued inner product (f*g)(x) = sum over the pi-fiber of x of
conj(f) g.  The star product identifies balanced tensors with functions on
fiber products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupoids import MultiBundle, fiber_product, lusin_partition
from .linalg import Echelon, GMatrix, kernel_basis, rank
from .scalars import ONE, ZERO, gs


@dataclass
class CModule:
    """Functions on a multibundle carrier, with per-map module structures."""

    bundle: MultiBundle

    @property
    def dim(self):
        return self.bundle.dim

    def index(self, u):
        return self.bundle.index(u)

    def act(self, name: str, base_vec: dict) -> GMatrix:
        """Diagonal action of a base function through the bundle map."""
        atoms = self.bundle.base.atoms
        m = GMatrix.zero(self.dim, self.dim)
        for k, u in enumerate(self.bundle.carrier):
            x = self.bundle.maps[name][u]
            c = base_vec.get(atoms.index(x))
            if c is not None and not c.is_zero():
                m.col[k][k] = c
        return m

    def inner(self, name: str, f: dict, g: dict) -> dict:
        """Base-valued product (f*g)(x) = sum_{pi(u)=x} conj(f(u)) g(u)."""
        atoms = self.bundle.base.atoms
        out = {}
        for k, c in f.items():
            d = g.get(k)
            if d is None:
                continue
            u = self.bundle.carrier[k]
            xi = atoms.index(self.bundle.maps[name][u])
            s = out.get(xi, ZERO) + c.conj() * d
            if s.is_zero():
                out.pop(xi, None)
            else:
                out[xi] = s
        return out

    def gram(self, name: str) -> GMatrix:
        """Scalar form integrating the base-valued product against the measure."""
        w = self.bundle.base.weight
        m = GMatrix.zero(self.dim, self.dim)
        for k, u in enumerate(self.bundle.carrier):
            m.col[k][k] = gs(w[self.bundle.maps[name][u]])
        return m


def c_module(u: MultiBundle) -> CModule:
    return CModule(u)


def pushforward(u: MultiBundle, v: MultiBundle, mapping: dict) -> GMatrix:
    """Matrix of C[phi] for a carrier map phi: sum over fibers.

    phi must be a morphism of multibundles: every bundle map of v pulls back
    to a bundle map of u.
    """
    for name, mv in v.maps.items():
        pulled = {x: mv[mapping[x]] for x in u.carrier}
        if pulled not in u.maps.values():
            raise ValueError("pullback of %r is not a bundle map of the domain" % name)
    m = GMatrix.zero(v.dim, u.dim)
    for k, x in enumerate(u.carrier):
        m.col[k][v.index(mapping[x])] = ONE
    return m


@dataclass
class BalancedBundleTensor:
    """C[U] (x)_base C[V] realized as the quotient by the form radical."""

    left: CModule
    right: CModule
    pi: str
    sigma: str
    ambient_dim: int
    quotient_dim: int
    classes: GMatrix            # ambient -> quotient projection
    section: GMatrix            # quotient -> ambient representatives


def balanced_bundle_tensor(cu: CModule, pi: str, cv: CModule, sigma: str):
    """Quotient of C[U] (x) C[V] by the radical of the induced form.

    The scalar form is the integrated product of the two base-valued inner
    products; the balancing relations (a.f) (x) g - f (x) (a.g) are checked
    to lie in the radical and to span it.
    """
    udim, vdim = cu.dim, cv.dim
    amb = udim * vdim
    w = cu.bundle.base.weight
    atoms = cu.bundle.base.atoms
    gram = GMatrix.zero(amb, amb)
    for a in range(udim):
        ua = cu.bundle.carrier[a]
        xa = cu.bundle.maps[pi][ua]
        for b in range(vdim):
            vb = cv.bundle.carrier[b]
            if cv.bundle.maps[sigma][vb] != xa:
                continue
            k = a + b * udim
            gram.col[k][k] = gs(w[xa])
    # the form is diagonal: radical = coordinates with zero weight
    rad_cols = [{k: ONE} for k in range(amb) if not gram.col[k]]
    rad = GMatrix.from_cols(amb, rad_cols)

    # balancing relations span the radical
    ech = Echelon()
    for ai, x in enumerate(atoms):
        xvec = {ai: ONE}
        au = cu.act(pi, xvec)
        av = cv.act(sigma, xvec)
        for a in range(udim):
            for b in range(vdim):
                rel = {}
                fa = au.col[a].get(a)
                if fa is not None:
                    rel[a + b * udim] = fa
                fb = av.col[b].get(b)
                if fb is not None:
                    k = a + b * udim
                    rel[k] = rel.get(k, ZERO) - fb
                    if rel[k].is_zero():
                        rel.pop(k)
                if rel:
                    res, _ = ech.reduce(rel)
                    if res:
                        ech.insert(rel)
    rad_ech = Echelon()
    for c in rad.col:
        rad_ech.insert(c)
    for piv, row in ech.pivots.items():
        if not rad_ech.contains(row):
            raise AssertionError("balancing relation escapes the radical")
    if ech.rank != rad.cols:
        raise AssertionError("balancing relations do not span the radical")

    keep = [k for k in range(amb) if gram.col[k]]
    proj = GMatrix.zero(len(keep), amb)
    sec = GMatrix.zero(amb, len(keep))
    for q, k in enumerate(keep):
        proj.col[k][q] = ONE
        sec.col[q][k] = ONE
    return BalancedBundleTensor(cu, cv, pi, sigma, amb, len(keep), proj, sec)


def star_iso(u: MultiBundle, pi: str, v: MultiBundle, sigma: str):
    """Isomorphism from the balanced tensor onto C[U * V].

    Returns (tensor, fiber product bundle, iso matrix); the iso sends the
    class of delta_u (x) delta_v to delta_{(u,v)} on composable pairs and is
    checked to preserve the base-valued inner products entrywise.
    """
    cu, cv = c_module(u), c_module(v)
    bt = balanced_bundle_tensor(cu, pi, cv, sigma)
    fp = fiber_product(u, pi, v, sigma)
    cf = c_module(fp)
    iso = GMatrix.zero(fp.dim, bt.quotient_dim)
    for q in range(bt.quotient_dim):
        amb_vec = bt.section.col[q]
        (k, c), = amb_vec.items()
        a, b = k % cu.dim, k // cu.dim
        pair = (u.carrier[a], v.carrier[b])
        iso.col[q][fp.index(pair)] = c
    if not rank(iso) == bt.quotient_dim == fp.dim:
        raise AssertionError("star map is not bijective")

    # inner-product preservation: base-valued products match entrywise
    shared = "L." + pi
    for q1 in range(bt.quotient_dim):
        for q2 in range(bt.quotient_dim):
            k1, k2 = bt.section.col[q1], bt.section.col[q2]
            (i1, c1), = k1.items()
            (i2, c2), = k2.items()
            a1, b1 = i1 % cu.dim, i1 // cu.dim
            a2, b2 = i2 % cu.dim, i2 // cu.dim
            lhs_u = cu.inner(pi, {a1: c1}, {a2: c2})
            lhs_v = cv.inner(sigma, {b1: ONE}, {b2: ONE})
            lhs = {}
            for x, s in lhs_u.items():
                t = lhs_v.get(x)
                if t is not None:
                    val = s * t
                    if not val.is_zero():
                        lhs[x] = val
            rhs = cf.inner(shared, iso.col[q1], iso.col[q2])
            if lhs != rhs:
                raise AssertionError("star map does not preserve the inner product")
    return bt, fp, iso


def invariants_coinvariants(u: MultiBundle, pi: str, sigma: str):
    """Invariants, coinvariants and the natural map between them.

    Invariants of C[U] for the bimodule structure induced by pi and sigma
    are the functions supported where the two maps agree; coinvariants are
    the quotient by the differences of the two actions.  Returns
    (inv_basis, coinv_projection, psi) with psi invertible.
    """
    cu = c_module(u)
    atoms = u.base.atoms
    dim = cu.dim

    # invariant coordinates: pi(u) == sigma(u)
    inv_idx = [k for k, x in enumerate(u.carrier)
               if u.maps[pi][x] == u.maps[sigma][x]]
    inv = GMatrix.from_cols(dim, [{k: ONE} for k in inv_idx])

    # cross-check against the kernel of the stacked action differences
    diff_cols = []
    for ai in range(len(atoms)):
        d = cu.act(pi, {ai: ONE}).sub(cu.act(sigma, {ai: ONE}))
        diff_cols.append(d)
    stacked = GMatrix.zero(dim * len(atoms), dim)
    for j in range(dim):
        for bi, d in enumerate(diff_cols):
            for i, x in d.col[j].items():
                stacked.col[j][i + bi * dim] = x
    ker = kernel_basis(stacked)
    if ker.cols != len(inv_idx):
        raise AssertionError("invariant space mismatch")

    # coinvariants: quotient by the span of the action differences
    ech = Echelon()
    for d in diff_cols:
        for c in d.col:
            if c:
                ech.insert(c)
    pivset = set(ech.pivots)
    keep = [k for k in range(dim) if k not in pivset]
    proj = GMatrix.zero(len(keep), dim)
    pos = {k: q for q, k in enumerate(keep)}
    for j in range(dim):
        res, _ = ech.reduce({j: ONE})
        for i, x in res.items():
            proj.col[j][pos[i]] = x
    psi = proj.mul(inv)
    if not rank(psi) == len(keep) == inv.cols:
        raise AssertionError("invariants -> coinvariants not bijective")
    return inv, proj, psi


def bundle_decomposition(u: MultiBundle, pi: str):
    """Direct-sum decomposition of C[U] induced by a selection partition.

    Returns the list of (part, submodule basis); the parts partition the
    carrier and pi is injective on each, so each C[part] is a module with
    automorphism bundle maps.
    """
    parts = lusin_partition(u, pi)
    cu = c_module(u)
    out = []
    for p in parts:
        cols = [{cu.index(x): ONE} for x in p]
        out.append((p, GMatrix.from_cols(cu.dim, cols)))
    if sum(m.cols for _, m in out) != cu.dim:
        raise AssertionError("selection parts do not partition the carrier")
    return out
