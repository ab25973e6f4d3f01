"""Balanced tensor products over the embedded subalgebra.

A balanced product M (x)_B A is realized as the quotient of the plain
tensor product by the radical of the induced hermitian form; the balancing
relations (m.b) (x) a - m (x) (b.a) are checked to lie in the radical and to
span it, which certifies that the quotient is the algebraic balanced tensor.
Levels are built iteratively (append one factor at a time) and carry the
B-valued inner product, the outer algebra actions, merge maps for adjacent
factors, and unit-insertion maps used by the contracting homotopies.
"""

from __future__ import annotations

from .algebras import Extension, TracialStarAlgebra
from .linalg import Echelon, GMatrix, combination, kernel_basis, rank, vec_eq
from .scalars import ONE, ZERO


def same_algebra(b1: TracialStarAlgebra, b2: TracialStarAlgebra) -> bool:
    if b1 is b2:
        return True
    if b1.dim != b2.dim or b1.labels != b2.labels:
        return False
    for i in range(b1.dim):
        if not vec_eq(b1.star_table[i], b2.star_table[i]):
            return False
        for j in range(b1.dim):
            if not vec_eq(b1.mult[i][j], b2.mult[i][j]):
                return False
    return (vec_eq(b1.unit, b2.unit)
            and all(b1.trace({i: ONE}) == b2.trace({i: ONE}) for i in range(b1.dim)))


class Quotient:
    """V -> V/S with representatives at the non-pivot coordinates of S."""

    def __init__(self, ambient_dim: int, subspace_cols):
        self.ambient_dim = ambient_dim
        self.ech = Echelon()
        for c in subspace_cols:
            self.ech.insert(c)
        pivset = set(self.ech.pivots)
        self.keep = [k for k in range(ambient_dim) if k not in pivset]
        self.pos = {k: q for q, k in enumerate(self.keep)}
        self.dim = len(self.keep)

    @property
    def is_identity(self):
        return self.dim == self.ambient_dim

    # on the identity both maps hand back the dict they are given, not a
    # copy: every caller passes a fresh dict or copies the result

    def project(self, v: dict) -> dict:
        if self.is_identity:
            return v
        res, _ = self.ech.reduce(v)
        return {self.pos[i]: x for i, x in res.items()}

    def section(self, q: dict) -> dict:
        if self.is_identity:
            return q
        return {self.keep[i]: x for i, x in q.items()}


class Level:
    """One balanced tensor power, with its actions, forms and merge maps.

    An appended level is the quotient of prev (x) A2; its basis vector q is
    the class of e_v (x) e_b for (v, b) = reps[q].  Every map between levels
    is built from three primitives: tensor_class (the class of v (x) a),
    lift (carry a map of the previous level through the last factor) and
    central_defects / invariants (lambda_b - rho_b and their common kernel).
    """

    def __init__(self, dim, left_ext, right_ext, bgram,
                 prev=None, app_ext=None, quotient=None,
                 base_right_mult=None, base_left_mult=None):
        self.dim = dim
        self.left_ext = left_ext            # extension acting on the left
        self.right_ext = right_ext          # extension acting on the right
        self.sub = left_ext.sub
        self.bgram = bgram                  # i -> {j -> b-coordinate vector}
        self.prev = prev
        self.app_ext = app_ext
        self.quotient = quotient
        self.reps = (None if prev is None else
                     [divmod(k, app_ext.alg.dim) for k in quotient.keep])
        self._base_right_mult = base_right_mult
        self._base_left_mult = base_left_mult
        self._right = {}
        self._left = {}
        self._join = {}
        self._scalar = None
        self._defects = None
        self._invariants = None

    # -- the tower primitives

    def tensor_class(self, v: dict, a: dict) -> dict:
        """The class of v (x) a, for v in the previous level and a in the
        appended algebra."""
        d2 = self.app_ext.alg.dim
        return self.quotient.project(
            {i * d2 + j: x * y for i, x in v.items() for j, y in a.items()})

    def lift(self, inner: GMatrix, dst: "Level") -> GMatrix:
        """v (x) b -> inner(v) (x) b, from this level into dst.

        The class of w (x) e_b is the projection of w reindexed into the
        b-th slot, so no product with 1 is formed."""
        d2 = dst.app_ext.alg.dim
        project = dst.quotient.project
        return GMatrix(dst.dim, self.dim, [
            project({i * d2 + b: x for i, x in inner.col[v].items()})
            for v, b in self.reps])

    def central_defects(self) -> list:
        """lambda_b - rho_b for each basis element b of B.  A vector is
        B-central when all of them kill it; their columns span the
        relations of the B-coinvariants."""
        if self._defects is None:
            self._defects = [
                combination(self.dim, self.left_ext.embed.column(k), self.left_act).sub(
                    combination(self.dim, self.right_ext.embed.column(k), self.right_act))
                for k in range(self.sub.dim)]
        return self._defects

    def invariants(self) -> GMatrix:
        """Basis of the B-central vectors: the common kernel of the defects."""
        if self._invariants is None:
            stacked = GMatrix.zero(self.dim * self.sub.dim, self.dim)
            for k, d in enumerate(self.central_defects()):
                for j, c in enumerate(d.col):
                    for i, x in c.items():
                        stacked.col[j][i + k * self.dim] = x
            self._invariants = kernel_basis(stacked)
        return self._invariants

    # -- actions

    def right_act(self, a_idx: int) -> GMatrix:
        m = self._right.get(a_idx)
        if m is None:
            if self.prev is None:
                m = self._base_right_mult(a_idx)
            else:
                mult = self.app_ext.alg.mult
                m = GMatrix.from_cols(self.dim, [
                    self.tensor_class({v: ONE}, mult[b][a_idx]) for v, b in self.reps])
            self._right[a_idx] = m
        return m

    def left_act(self, a_idx: int) -> GMatrix:
        m = self._left.get(a_idx)
        if m is None:
            if self.prev is None:
                m = self._base_left_mult(a_idx)
            else:
                m = self.lift(self.prev.left_act(a_idx), self)
            self._left[a_idx] = m
        return m

    # -- forms

    def scalar_gram(self) -> GMatrix:
        if self._scalar is None:
            g = GMatrix.zero(self.dim, self.dim)
            for i, row in self.bgram.items():
                for j, bv in row.items():
                    x = self.left_ext.sub_trace(bv)
                    if not x.is_zero():
                        g.col[j][i] = x
            self._scalar = g
        return self._scalar

    # -- merge maps: join(j) multiplies slots (j, j+1); slot 0 is the base

    def depth(self):
        return 0 if self.prev is None else self.prev.depth() + 1

    def join(self, j: int) -> GMatrix:
        assert self.prev is not None, "base level has no joins"
        m = self._join.get(j)
        if m is not None:
            return m
        k = self.depth()
        assert 0 <= j <= k - 1
        if j == k - 1:
            m = GMatrix.from_cols(self.prev.dim, [
                self.prev.right_act(b).col[v] for v, b in self.reps])
        else:
            # merge happens inside the prev part: (v (x) b) -> join(v) (x) b
            m = self.lift(self.prev.join(j), self.prev)
        self._join[j] = m
        return m

    def wrap(self) -> GMatrix:
        """Move the last slot to act on the base slot from the left."""
        assert self.prev is not None
        return GMatrix.from_cols(self.prev.dim, [
            self.prev.left_act(b).col[v] for v, b in self.reps])


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

    def base_right(a_idx):
        return GMatrix(A.dim, A.dim, [A.mul({j: ONE}, {a_idx: ONE}) for j in range(A.dim)])

    def base_left(a_idx):
        return GMatrix(A.dim, A.dim, [A.mul({a_idx: ONE}, {j: ONE}) for j in range(A.dim)])

    return Level(A.dim, ext, ext, bgram,
                 base_right_mult=base_right, base_left_mult=base_left)


def append_level(prev: Level, ext2: Extension) -> Level:
    """prev (x)_B A2 as the radical quotient of prev (x) A2; over the
    scalars the radical is certified empty and the level is prev (x) A2."""
    if not same_algebra(prev.sub, ext2.sub):
        raise ValueError("appended extension has a different base subalgebra")
    A2 = ext2.alg
    d2 = A2.dim
    amb = prev.dim * d2
    dim_b = ext2.sub.dim

    def pidx(v, a):
        return v * d2 + a

    # nonzero sandwich maps g -> E(e_a^* iota(g) e_b)
    sandwiches = {}
    for a in range(d2):
        for b in range(d2):
            s = ext2.sandwich(a, b)
            if not s.is_zero():
                sandwiches[(a, b)] = s

    # the ambient scalar Gram is formed only where a radical can exist
    gram = GMatrix.zero(amb, amb) if dim_b > 1 else None
    amb_bgram = {}
    for v, row in prev.bgram.items():
        for w, bv in row.items():
            for (a, b), s in sandwiches.items():
                out = s.apply(bv)
                if not out:
                    continue
                i, j = pidx(v, a), pidx(w, b)
                amb_bgram.setdefault(i, {})[j] = out
                if gram is not None:
                    tr = ext2.sub_trace(out)
                    if not tr.is_zero():
                        gram.col[j][i] = tr

    if dim_b == 1:
        # Over the scalars each sandwich is multiplication by the number
        # h_ab = s_ab(1), so the ambient Gram tr(<v (x) a, w (x) b>) is
        # G_prev[v, w] * h_ab: the Kronecker product G_prev (x) H.  As
        # det(G (x) H) = det(G)^d2 det(H)^dim_prev, it is nondegenerate when
        # H and G_prev are.  H is checked here, and G_prev by induction down
        # to the base level, checked where it is first appended to.  The
        # radical is empty and the level is the plain tensor product.
        h = GMatrix.zero(d2, d2)
        for (a, b), s in sandwiches.items():
            h.col[b][a] = s.col[0][0]
        if rank(h) != d2:
            raise AssertionError("appended algebra has a degenerate trace form")
        if prev.prev is None and rank(prev.scalar_gram()) != prev.dim:
            raise AssertionError("base level has a degenerate scalar Gram")
        quot = Quotient(amb, [])
    else:
        rad = kernel_basis(gram)
        quot = Quotient(amb, rad.col)
        # the fiber square's separating-vector certificate rests on this:
        # the radical is exactly the span of the balancing relations
        right_b = [combination(prev.dim, ext2.embed.column(k), prev.right_act)
                   for k in range(dim_b)]
        left_b = [[A2.mul(ext2.embed.column(k), {a: ONE}) for a in range(d2)]
                  for k in range(dim_b)]
        bal = Echelon()
        for v in range(prev.dim):
            for k in range(dim_b):
                moved = right_b[k].col[v]
                for a in range(d2):
                    rel = {}
                    for w, c in moved.items():
                        rel[pidx(w, a)] = c
                    for c2, coef in left_b[k][a].items():
                        key = pidx(v, c2)
                        val = rel.get(key, ZERO) - coef
                        if val.is_zero():
                            rel.pop(key, None)
                        else:
                            rel[key] = val
                    if not rel:
                        continue
                    if gram.apply(rel):
                        raise AssertionError("balancing relation escapes the radical")
                    bal.insert(rel)
        if bal.rank != rad.cols:
            raise AssertionError(
                "balancing relations do not span the radical (%d vs %d)"
                % (bal.rank, rad.cols))

    # descended B-valued gram on the chosen representatives
    bgram = {}
    posmap = quot.pos
    for i, row in amb_bgram.items():
        qi = posmap.get(i)
        if qi is None:
            continue
        for j, bv in row.items():
            qj = posmap.get(j)
            if qj is None:
                continue
            bgram.setdefault(qi, {})[qj] = bv

    return Level(quot.dim, prev.left_ext, ext2, bgram, prev=prev, app_ext=ext2,
                 quotient=quot)


class Tower:
    """Iterated balanced powers base, base (x) A, base (x) A (x) A, ...

    All appended factors come from the same extension; levels are cached.
    """

    def __init__(self, base: Level, ext: Extension):
        self.base = base
        self.ext = ext
        self.levels = [base]

    def level(self, k: int) -> Level:
        while len(self.levels) <= k:
            self.levels.append(append_level(self.levels[-1], self.ext))
        return self.levels[k]

    def insert_unit(self, k: int, base_insert: GMatrix) -> GMatrix:
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
    return Tower(extension_base_level(ext), ext)
