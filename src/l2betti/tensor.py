"""Balanced tensor products over the embedded subalgebra.

A balanced product M (x)_B A is built on one of two paths.

- Graded: when the basis of B is its minimal projections p_x and every
  basis vector of A is p_t e p_s for exactly one pair (t, s)
  (`Extension.grading`), the balanced tensor is spanned by the composable
  pairs.  Every level records the left and right support (tl, sr) of each
  basis vector; appending A keeps the pairs (v, a) with sr[v] = t(a), since
  e_v (x) e_a = e_v p_x (x) e_a = e_v (x) p_x e_a = 0 for x = sr[v] != t(a).
  The quotient drops coordinates, the defects lambda_b - rho_b are diagonal
  and the coinvariants keep the basis vectors with tl = sr.  The
  certificate, stated in `_graded_level`, is a blockwise Kronecker product
  checked once per tower, on the first append (sandwich supports and
  trace-form blocks, base form supports and base Gram rank); an appended
  level keeps its form factored and expands it only when its Gram is asked
  for.  Over the scalars B = C1 is one minimal projection, so the graded
  path has one block and the quotient is the identity.
- Radical: for inputs that are not graded (a non-commutative B, or a basis
  of B that is not its minimal projections) the level is the quotient of
  the plain tensor product by the balancing relations
  (m.b) (x) a - m (x) (b.a), certified once to be the radical of the
  induced hermitian form (`_radical_level`).  No corpus input takes this
  path; the tests keep it as the reference for the graded one.

Which path a level took is read in this module only: `Level` answers for
the B-action and `descend` carries maps to the quotients, on either path.

Levels are built iteratively (append one factor at a time) and carry the
B-valued inner product, the outer algebra actions, merge maps for adjacent
factors, and unit-insertion maps used by the contracting homotopies.  A
tower is over one extension A/B, held once on each level as `Level.ext`:
the base is A (or a level of A's own tower, such as the square A (x)_B A),
and every appended factor is A again, so the balanced tensor, the fiber
square and every complex built on them have one A and one B.

On graded levels whose algebras have a monomial basis
(`Extension.monomial`), every one of those maps sends each basis vector
to zero or to +-1 times one basis vector, since each product e_a e_b does
and the class of e_v (x) e_b is a kept coordinate or zero.  Such an
"index level" builds them as IndexMaps straight from `reps`, `Quotient.pos`
and the product table, and unit insertions as IndexSums, one map per term
of 1; no GMatrix column is formed.  Every other level builds GMatrix maps.
"""

from __future__ import annotations

from itertools import repeat

from .algebras import Extension
from .linalg import (
    Echelon, GMatrix, IndexMap, IndexSum, as_matrix, combination, kernel_basis,
    rank,
)
from .scalars import ONE, ZERO


class Quotient:
    """V -> V/S with representatives at the coordinates keep.

    Without an echelon, S is spanned by the coordinates outside keep, so
    project drops them and section reindexes.  Quotient.of_span takes any
    S and keeps the non-pivot coordinates of its echelon basis.  Every
    caller lists keep in increasing order, so a quotient that keeps every
    coordinate is the identity, and keep and pos are both range(n)."""

    def __init__(self, ambient_dim: int, keep, ech=None):
        self.ambient_dim = ambient_dim
        self.ech = ech
        self.dim = len(keep)
        if self.dim == ambient_dim:
            self.keep = self.pos = range(ambient_dim)
        else:
            self.keep = keep
            self.pos = {k: q for q, k in enumerate(keep)}

    @classmethod
    def of_span(cls, ambient_dim: int, subspace_cols) -> "Quotient":
        ech = Echelon()
        for c in subspace_cols:
            ech.insert(c)
        return cls(ambient_dim,
                   [k for k in range(ambient_dim) if k not in ech.pivots], ech)

    @property
    def is_identity(self):
        return self.dim == self.ambient_dim

    # on the identity both maps hand back the dict they are given, not a
    # copy: every caller passes a fresh dict or copies the result

    def project(self, v: dict) -> dict:
        if self.is_identity:
            return v
        pos = self.pos
        if self.ech is None:
            return {pos[i]: x for i, x in v.items() if i in pos}
        res, _ = self.ech.reduce(v)
        return {pos[i]: x for i, x in res.items()}

    def section(self, q: dict) -> dict:
        if self.is_identity:
            return q
        return {self.keep[i]: x for i, x in q.items()}

    def reindex(self, rows: list) -> list:
        """Ambient coordinates (or None) as quotient coordinates of a
        coordinate quotient, None where the coordinate is dropped."""
        if self.is_identity:
            return rows
        pos = self.pos
        return [pos.get(k) for k in rows]


def descend(m, src_q: Quotient, dst_q: Quotient):
    """m carried to the quotients; through two identities it is m itself,
    shared with whatever cache holds it, and from a coordinate quotient
    its columns are read at the kept coordinates, shared the same way.
    IndexMaps stay IndexMaps between coordinate quotients, and IndexSums
    descend term by term."""
    if src_q.is_identity and dst_q.is_identity:
        return m
    if isinstance(m, IndexSum) and src_q.ech is None and dst_q.ech is None:
        return IndexSum(dst_q.dim, src_q.dim,
                        [(s, descend(t, src_q, dst_q)) for s, t in m.terms])
    if isinstance(m, IndexMap) and src_q.ech is None and dst_q.ech is None:
        keep = src_q.keep
        idx, sign = m.idx, m.sign
        return IndexMap(dst_q.dim, dst_q.reindex([idx[k] for k in keep]),
                        None if sign is None else [sign[k] for k in keep])
    m = as_matrix(m)
    if src_q.ech is None:
        cols = [m.col[k] for k in src_q.keep]
    else:
        cols = [m.apply(src_q.section({q: ONE})) for q in range(src_q.dim)]
    return GMatrix(dst_q.dim, src_q.dim, [dst_q.project(c) for c in cols])


class Level:
    """One balanced tensor power A (x)_B ... (x)_B A, with its actions, forms
    and merge maps.

    Every level of a tower is over one extension A/B, held as ext: the base
    is A, each appended factor is A, and A acts on the outer factors from
    both sides.  An appended level is the quotient of prev (x) A; its basis
    vector q is the class of e_v (x) e_b for the q-th pair (v, b) of reps().
    Every map between levels is built from two primitives: tensor_class
    (the class of v (x) a) and lift (carry a map of the previous level
    through the last factor).  The B-action (coinvariants, invariants,
    is_central, check_descends) is read off tl and sr, the left and right
    support of each basis vector, on the graded path, and off the defects
    lambda_b - rho_b on the radical path, where tl and sr are None.  On an
    index level (graded, with a monomial basis) the maps are IndexMaps.
    """

    def __init__(self, ext, dim, bgram, prev=None, quotient=None, tl=None, sr=None,
                 index=False, blocks=None):
        self.ext = ext
        self.dim = dim
        self.tl = tl
        self.sr = sr
        self.index = index
        self.bgram = bgram                  # i -> {j -> b-vector}; graded appended: None
        self.blocks = blocks                # graded appended: _graded_level's blocks
        self.prev = prev
        self.quotient = quotient
        self._right = {}
        self._left = {}
        self._join = {}
        self._scalar = None
        self._defects = None
        self._coinvariants = None
        self._invariants = None

    # -- the tower primitives

    def reps(self):
        """The pair (v, b) of each basis vector, in order."""
        return map(divmod, self.quotient.keep, repeat(self.ext.alg.dim))

    def tensor_class(self, v: dict, a: dict) -> dict:
        """The class of v (x) a, for v in the previous level and a in the
        appended algebra."""
        d2 = self.ext.alg.dim
        return self.quotient.project(
            {i * d2 + j: x * y for i, x in v.items() for j, y in a.items()})

    def class_index(self, pairs) -> list:
        """On an index level, the coordinate of the class of e_v (x) e_b for
        each pair (v, b): None where v or b is None or the pair is dropped."""
        d2 = self.ext.alg.dim
        return self.quotient.reindex([None if v is None or b is None else v * d2 + b
                                      for v, b in pairs])

    def lift(self, inner, dst: "Level"):
        """v (x) b -> inner(v) (x) b, from this level into dst.

        The class of w (x) e_b is the projection of w reindexed into the
        b-th slot, so no product with 1 is formed.  Into an index level an
        IndexMap lifts to an IndexMap and an IndexSum term by term."""
        if dst.index and isinstance(inner, IndexSum):
            return IndexSum(dst.dim, self.dim,
                            [(s, self.lift(m, dst)) for s, m in inner.terms])
        d2 = dst.ext.alg.dim
        if dst.index and isinstance(inner, IndexMap):
            idx, sign = inner.idx, inner.sign
            amb = [None if (r := idx[v]) is None else r * d2 + b for v, b in self.reps()]
            return IndexMap(dst.dim, dst.quotient.reindex(amb),
                            None if sign is None else [sign[v] for v, _ in self.reps()])
        project = dst.quotient.project
        inner = as_matrix(inner)
        return GMatrix(dst.dim, self.dim, [
            project({i * d2 + b: x for i, x in inner.col[v].items()})
            for v, b in self.reps()])

    def unit_insertion(self, front=False):
        """v -> [v (x) 1] from the previous level into this one; with front,
        b -> [1 (x) b] from the appended algebra, the previous level being
        the base algebra."""
        ext = self.ext
        cols = ext.alg.dim if front else self.prev.dim
        if self.index:
            terms = []
            for u, s in ext.monomial().unit:
                pairs = [(u, b) for b in range(cols)] if front else [(v, u) for v in range(cols)]
                terms.append((s, IndexMap(self.dim, self.class_index(pairs))))
            return IndexSum.merged(self.dim, cols, terms)
        unit = ext.alg.unit
        return GMatrix.from_cols(self.dim, [
            self.tensor_class(unit, {k: ONE}) if front else self.tensor_class({k: ONE}, unit)
            for k in range(cols)])

    # -- the B-action: coinvariants, invariants and centrality

    def central_defects(self) -> list:
        """lambda_b - rho_b for each basis element b of B, on the radical
        path.  A vector is B-central when all of them kill it; their
        columns span the relations of the B-coinvariants."""
        if self._defects is None:
            self._defects = [
                combination(self.dim, self.ext.embed.column(k), self.left_act).sub(
                    combination(self.dim, self.ext.embed.column(k), self.right_act))
                for k in range(self.ext.sub.dim)]
        return self._defects

    def coinvariants(self) -> Quotient:
        """The quotient by the span of lambda_b - rho_b.  On a graded level
        p_x e_q - e_q p_x = ([tl[q] = x] - [sr[q] = x]) e_q, so it keeps the
        basis vectors with tl = sr."""
        if self._coinvariants is None:
            if self.sr is not None:
                self._coinvariants = Quotient(
                    self.dim, [q for q, (t, s) in enumerate(zip(self.tl, self.sr)) if t == s])
            else:
                self._coinvariants = Quotient.of_span(
                    self.dim, [c for d in self.central_defects() for c in d.col if c])
        return self._coinvariants

    def invariants(self) -> GMatrix:
        """Basis of the B-central vectors: the common kernel of the defects,
        on a graded level the basis vectors the coinvariants keep, so there
        the two match by construction.  On the radical path the kernel and
        the quotient by the span of the defects are computed apart; the form
        is nondegenerate and the adjoint of lambda_b - rho_b is
        lambda_b* - rho_b*, so the kernel is the orthogonal complement of
        that span, and its dimension is checked against the coinvariants."""
        if self._invariants is None:
            if self.sr is not None:
                keep = self.coinvariants().keep
                self._invariants = GMatrix(self.dim, len(keep), [{q: ONE} for q in keep])
            else:
                stacked = GMatrix.zero(self.dim * self.ext.sub.dim, self.dim)
                for k, d in enumerate(self.central_defects()):
                    for j, c in enumerate(d.col):
                        for i, x in c.items():
                            stacked.col[j][i + k * self.dim] = x
                inv = kernel_basis(stacked)
                if inv.cols != self.coinvariants().dim:
                    raise AssertionError("invariants do not match coinvariants")
                self._invariants = inv
        return self._invariants

    def is_central(self, xi: dict) -> bool:
        """b . xi == xi . b for every basis element b of B: on a graded
        level, tl = sr on the support of xi."""
        if self.sr is not None:
            tl, sr = self.tl, self.sr
            return all(tl[q] == sr[q] for q, x in xi.items() if x.a or x.b)
        return not any(defect.apply(xi) for defect in self.central_defects())

    def check_descends(self, maps, low_q: Quotient, n: int):
        """Each map sends the coinvariant relations of this level into those
        of the level below, whose coinvariants are low_q, so it descends.
        On the graded path the relations are the coordinates with tl != sr
        on both levels, so each such coordinate must go to zero or to
        coordinates that low_q drops; on the radical path each echelon row
        of the relations is mapped and projected."""
        if self.sr is not None:
            off = [q for q, (t, s) in enumerate(zip(self.tl, self.sr)) if t != s]
            kept = low_q.pos
            for m in maps:
                if isinstance(m, IndexMap):
                    idx = m.idx
                    # None in a range would be a linear scan
                    holds = not any((r := idx[q]) is not None and r in kept for q in off)
                else:
                    holds = not any(r in kept for q in off for r, x in m.col[q].items() if x)
                if not holds:
                    break
        else:
            rows = self.coinvariants().ech.pivots.values()
            holds = not any(low_q.project(m.apply(w)) for m in maps for w in rows)
        if not holds:
            raise AssertionError("face does not descend to coinvariants at degree %d" % n)

    # -- actions

    def right_act(self, a_idx: int):
        m = self._right.get(a_idx)
        if m is None:
            if self.prev is None:
                m = self._base_mult(a_idx, right=True)
            elif self.index:
                # v (x) e_b . a = sign v (x) e_c for e_b a = sign e_c
                mono = self.ext.monomial()
                col = [row[a_idx] for row in mono.idx]
                m = IndexMap(self.dim, self.class_index([(v, col[b]) for v, b in self.reps()]),
                             None if mono.sign is None else
                             [mono.sign[b][a_idx] for _, b in self.reps()])
            else:
                # v (x) e_b . a is e_b a reindexed into slot v, then projected
                mult = self.ext.alg.mult
                d2 = self.ext.alg.dim
                project = self.quotient.project
                m = GMatrix(self.dim, self.dim, [
                    project({v * d2 + c: x for c, x in mult[b][a_idx].items()})
                    for v, b in self.reps()])
            self._right[a_idx] = m
        return m

    def left_act(self, a_idx: int):
        m = self._left.get(a_idx)
        if m is None:
            if self.prev is None:
                m = self._base_mult(a_idx, right=False)
            else:
                m = self.lift(self.prev.left_act(a_idx), self)
            self._left[a_idx] = m
        return m

    def _base_mult(self, a_idx: int, right: bool):
        """e_j -> e_j a (right) or a e_j on the base A, for a = e_{a_idx}: on
        an index level an IndexMap read off the monomial product table,
        otherwise a GMatrix."""
        A = self.ext.alg
        if self.index:
            mono = self.ext.monomial()
            if right:
                return IndexMap(A.dim, [row[a_idx] for row in mono.idx],
                                None if mono.sign is None else [row[a_idx] for row in mono.sign])
            return IndexMap(A.dim, mono.idx[a_idx],
                            None if mono.sign is None else mono.sign[a_idx])
        a = {a_idx: ONE}
        return GMatrix(A.dim, A.dim, [A.mul({j: ONE}, a) if right else A.mul(a, {j: ONE})
                                      for j in range(A.dim)])

    # -- forms

    def coefficients(self):
        """(i, j, c) for each <e_i, e_j>_B = c p_{sr[i]} != 0 of a graded level,
        expanded on each call from the base's bgram and the blocks above it."""
        if self.blocks is None:
            return ((i, j, bv[self.sr[i]]) for i, row in self.bgram.items()
                    for j, bv in row.items())
        d2, pos, psr, blocks = self.ext.alg.dim, self.quotient.pos, self.prev.sr, self.blocks
        return ((pos[v * d2 + a], pos[w * d2 + b], c * d)
                for v, w, c in self.prev.coefficients() for a, b, d in blocks[psr[v]])

    def scalar_gram(self) -> GMatrix:
        if self._scalar is None:
            tr = self.ext.sub_trace
            if self.bgram is None:
                tp = [tr({x: ONE}) for x in range(self.ext.sub.dim)]
                entries = ((i, j, c * tp[self.sr[i]]) for i, j, c in self.coefficients())
            else:
                entries = ((i, j, tr(bv)) for i, row in self.bgram.items() for j, bv in row.items())
            self._scalar = g = GMatrix.zero(self.dim, self.dim)
            for i, j, x in entries:
                if not x.is_zero():
                    g.col[j][i] = x
        return self._scalar

    # -- merge maps: join(j) multiplies slots (j, j+1); slot 0 is the base

    def depth(self):
        return 0 if self.prev is None else self.prev.depth() + 1

    def join(self, j: int):
        assert self.prev is not None, "base level has no joins"
        m = self._join.get(j)
        if m is not None:
            return m
        k = self.depth()
        assert 0 <= j <= k - 1
        if j == k - 1:
            m = self._gather(self.prev.right_act)
        else:
            # merge happens inside the prev part: (v (x) b) -> join(v) (x) b
            m = self.lift(self.prev.join(j), self.prev)
        self._join[j] = m
        return m

    def wrap(self):
        """Move the last slot to act on the base slot from the left."""
        assert self.prev is not None
        return self._gather(self.prev.left_act)

    def _gather(self, act):
        """v (x) b -> act(b) v, into the previous level."""
        acts = [act(b) for b in range(self.ext.alg.dim)]
        if self.index:
            cols = [m.idx for m in acts]
            idx = [cols[b][v] for v, b in self.reps()]
            if all(m.sign is None for m in acts):
                return IndexMap(self.prev.dim, idx)
            signs = [[1] * m.cols if m.sign is None else m.sign for m in acts]
            return IndexMap(self.prev.dim, idx, [signs[b][v] for v, b in self.reps()])
        acts = [as_matrix(m) for m in acts]
        return GMatrix.from_cols(self.prev.dim, [acts[b].col[v] for v, b in self.reps()])


def extension_base_level(ext: Extension) -> Level:
    """The algebra A of A/B as the one-factor level."""
    A = ext.alg
    bgram = {}
    for i in range(A.dim):
        row = {}
        si = A.star({i: ONE})
        for j in range(A.dim):
            bv = ext.expectation_sub(A.mul(si, {j: ONE}))
            if bv:
                row[j] = bv
        if row:
            bgram[i] = row

    tl, sr = ext.grading() or (None, None)
    return Level(ext, A.dim, bgram, tl=tl, sr=sr,
                 index=tl is not None and ext.monomial() is not None)


def append_level(prev: Level, ext: Extension) -> Level:
    """prev (x)_B A: the composable pairs when prev is graded, otherwise the
    radical quotient of prev (x) A.  ext must be the tower's extension,
    prev.ext, itself."""
    if ext is not prev.ext:
        raise ValueError("appended extension is not the extension of the tower")
    if prev.sr is None:
        return _radical_level(prev)
    return _graded_level(prev, *ext.grading())


def _sandwich_blocks(ext: Extension, by_t, s) -> list:
    """x -> the (a, b, d) with E(a^* p_x b) = d p_{s(a)} != 0, t(a) = t(b) = x,
    checked at that support with s(a) = s(b); each block H_x full rank."""
    tr = [ext.sub_trace({y: ONE}) for y in range(ext.sub.dim)]
    blocks = []
    for x, members in enumerate(by_t):
        h = GMatrix.zero(len(members), len(members))
        nz = []
        for j, b in enumerate(members):
            for i, a in enumerate(members):
                e = ext.sandwich(a, b).col[x]
                if not e:
                    continue
                y = s[a]
                if s[b] != y or len(e) != 1 or y not in e:
                    raise AssertionError(
                        "sandwich leaves the right support at (%d, %d)" % (a, b))
                nz.append((a, b, e[y]))
                h.col[j][i] = e[y] * tr[y]
        if rank(h) != len(members):
            raise AssertionError("appended algebra has a degenerate trace form")
        blocks.append(nz)
    return blocks


def _graded_level(prev: Level, t, s) -> Level:
    """prev (x)_B A on the pairs (v, a) with sr[v] = t(a).

    Certificate.  Claim: <v, w>_B = c_vw p_x, x = sr[v] = sr[w]; checked at
    the base where it is first appended to.  Level k-1 to k: on kept pairs
    t(a) = t(b) = x and <v (x) a, w (x) b>_B = c_vw E(a^* p_x b), which lies
    in p_{s(a)} B p_{s(b)} = [s(a) = s(b)] C p_{s(a)} as a = p_x a p_{s(a)};
    _sandwich_blocks checks E(a^* p_x b) = d_ab p_{s(a)} once per tower, on
    the first append, and every level above reuses its blocks.  So the
    claim holds at level k without forming its form, which coefficients()
    expands as c_vw d_ab on demand.  The scalar Gram on the kept pairs is
    then the blockwise Kronecker product

        (+)_x  (G_prev restricted to sr = x) / tr(p_x)  (x)  H_x,

    H_x[a, b] = d_ab tr(p_{s(a)}) over t(a) = t(b) = x.  G_prev is block
    diagonal by sr and nondegenerate (checked at the base, and by induction
    above it), and each H_x is checked full rank, so the kept Gram is
    nondegenerate.  Every dropped pair is orthogonal to everything
    (a^* p_x = 0 for t(a) != x) and is itself a balancing relation,
    e_v (x) e_a = (e_v . p_x) (x) e_a - e_v (x) (p_x . e_a); the balancing
    relations for b = p_y are ([sr[v] = y] - [t(a) = y]) times those same
    coordinates.  So the radical is exactly the span of the dropped
    coordinates and of the balancing relations: no ambient Gram, kernel or
    relation echelon is formed.
    """
    ext = prev.ext
    d2 = ext.alg.dim
    by_t = [[] for _ in range(ext.sub.dim)]
    for a, x in enumerate(t):
        by_t[x].append(a)
    if prev.prev is not None:
        blocks = prev.blocks
    else:
        blocks = _sandwich_blocks(ext, by_t, s)
        for v, row in prev.bgram.items():
            for w, bv in row.items():
                if prev.sr[w] != prev.sr[v] or len(bv) != 1 or prev.sr[v] not in bv:
                    raise AssertionError(
                        "B-valued form leaves the right support at (%d, %d)" % (v, w))
        if rank(prev.scalar_gram()) != prev.dim:
            raise AssertionError("base level has a degenerate scalar Gram")

    keep = [v * d2 + a for v, x in enumerate(prev.sr) for a in by_t[x]]
    quot = Quotient(prev.dim * d2, keep)
    return Level(ext, quot.dim, None, prev=prev, quotient=quot,
                 tl=[prev.tl[k // d2] for k in keep], sr=[s[k % d2] for k in keep],
                 index=prev.index, blocks=blocks)


def _balancing_relations(prev: Level):
    """The nonzero (v . b) (x) e_a - v (x) (b . e_a) over the basis vectors
    v of prev, b of B and e_a of A, in the coordinates of prev (x) A."""
    ext = prev.ext
    A = ext.alg
    d2 = A.dim
    sub = [ext.embed.column(k) for k in range(ext.sub.dim)]
    right_b = [combination(prev.dim, b, prev.right_act) for b in sub]
    left_b = [[A.mul(b, {a: ONE}) for a in range(d2)] for b in sub]
    for v in range(prev.dim):
        for right, left in zip(right_b, left_b):
            moved = right.col[v]
            for a in range(d2):
                rel = {w * d2 + a: c for w, c in moved.items()}
                for c2, coef in left[a].items():
                    key = v * d2 + c2
                    val = rel.get(key, ZERO) - coef
                    if val.is_zero():
                        rel.pop(key, None)
                    else:
                        rel[key] = val
                if rel:
                    yield rel


def _radical_level(prev: Level) -> Level:
    """prev (x)_B A as the quotient of prev (x) A by the span R of the
    balancing relations, certified to be the radical of its form.

    Each relation is checked to lie in the radical.  The quotient keeps the
    coordinates K off the pivots of R, so K (+) R is the whole space, and
    the new level's scalar Gram, the form on K, is checked nondegenerate.
    A radical vector k + r (k in K, r in R) then has k in the radical, so
    k = 0: the radical is R, which the fiber square's certificate needs.
    """
    ext = prev.ext
    d2 = ext.alg.dim
    amb = prev.dim * d2

    # nonzero sandwich maps g -> E(e_a^* iota(g) e_b)
    sandwiches = {}
    for a in range(d2):
        for b in range(d2):
            s = ext.sandwich(a, b)
            if not s.is_zero():
                sandwiches[(a, b)] = s

    gram = GMatrix.zero(amb, amb)
    amb_bgram = {}
    for v, row in prev.bgram.items():
        for w, bv in row.items():
            for (a, b), s in sandwiches.items():
                out = s.apply(bv)
                if not out:
                    continue
                i, j = v * d2 + a, w * d2 + b
                amb_bgram.setdefault(i, {})[j] = out
                tr = ext.sub_trace(out)
                if not tr.is_zero():
                    gram.col[j][i] = tr

    rels = list(_balancing_relations(prev))
    for rel in rels:
        if gram.apply(rel):
            raise AssertionError("balancing relation escapes the radical")
    quot = Quotient.of_span(amb, rels)

    # descended B-valued gram on the chosen representatives
    bgram = {}
    pos = quot.pos
    for i, row in amb_bgram.items():
        if i not in pos:
            continue
        for j, bv in row.items():
            if j in pos:
                bgram.setdefault(pos[i], {})[pos[j]] = bv

    lvl = Level(ext, quot.dim, bgram, prev=prev, quotient=quot)
    if rank(lvl.scalar_gram()) != lvl.dim:
        raise AssertionError(
            "balancing relations do not span the radical: the form is "
            "degenerate on the %d kept coordinates" % lvl.dim)
    return lvl


class Tower:
    """Iterated balanced powers base, base (x) A, base (x) A (x) A, ...

    Every appended factor is A of the base's extension; levels are cached.
    """

    def __init__(self, base: Level):
        self.base = base
        self.levels = [base]

    def level(self, k: int) -> Level:
        while len(self.levels) <= k:
            self.levels.append(append_level(self.levels[-1], self.base.ext))
        return self.levels[k]

    def insert_unit(self, k: int, base_insert):
        """Insert a unit factor at the insertion slot: level k -> k+1.

        base_insert realizes the insertion on the base (level 0 -> level 1),
        for instance a -> class of 1 (x) a for towers over an algebra base;
        the higher levels carry it through their last factors.
        """
        if k == 0:
            return base_insert
        nxt = self.level(k + 1)
        return self.level(k).lift(self.insert_unit(k - 1, base_insert), nxt)

    prepend_unit = insert_unit


def algebra_tower(ext: Extension) -> Tower:
    return Tower(extension_base_level(ext))
