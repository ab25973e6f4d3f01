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
from .linalg import Echelon, GMatrix, kernel_basis, vec_axpy, vec_eq
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

    @staticmethod
    def identity(n):
        q = Quotient.__new__(Quotient)
        q.ambient_dim = n
        q.ech = Echelon()
        q.keep = list(range(n))
        q.pos = {k: k for k in range(n)}
        q.dim = n
        return q

    @property
    def is_identity(self):
        return self.dim == self.ambient_dim

    def project(self, v: dict) -> dict:
        if self.is_identity:
            return dict(v)
        res, _ = self.ech.reduce(v)
        return {self.pos[i]: x for i, x in res.items()}

    def section(self, q: dict) -> dict:
        if self.is_identity:
            return dict(q)
        return {self.keep[i]: x for i, x in q.items()}

    def kills(self, v: dict) -> bool:
        return not self.project(v)


class Level:
    """One balanced tensor power, with its actions, forms and merge maps."""

    def __init__(self, dim, left_ext, right_ext, bgram, labels=None,
                 prev=None, app_ext=None, quotient=None,
                 base_right_mult=None, base_left_mult=None):
        self.dim = dim
        self.left_ext = left_ext            # extension acting on the left
        self.right_ext = right_ext          # extension acting on the right
        self.sub = left_ext.sub
        self.bgram = bgram                  # i -> {j -> b-coordinate vector}
        self.labels = labels
        self.prev = prev
        self.app_ext = app_ext
        self.quotient = quotient
        self._base_right_mult = base_right_mult
        self._base_left_mult = base_left_mult
        self._right = {}
        self._left = {}
        self._join = {}
        self._scalar = None
        self._prepend = None
        self._insert0 = None

    # -- pairing of ambient indices for appended levels

    def _pidx(self, v, a):
        return v * self.app_ext.alg.dim + a

    def _unpair(self, k):
        d = self.app_ext.alg.dim
        return k // d, k % d

    # -- actions

    def right_act(self, a_idx: int) -> GMatrix:
        m = self._right.get(a_idx)
        if m is not None:
            return m
        if self.prev is None:
            m = self._base_right_mult(a_idx)
        else:
            A2 = self.app_ext.alg
            cols = []
            for q in range(self.dim):
                (v, b) = self._unpair(self.quotient.keep[q])
                amb = {}
                for c, coef in A2.mult[b][a_idx].items():
                    amb[self._pidx(v, c)] = coef
                cols.append(self.quotient.project(amb))
            m = GMatrix.from_cols(self.dim, cols)
        self._right[a_idx] = m
        return m

    def left_act(self, a_idx: int) -> GMatrix:
        m = self._left.get(a_idx)
        if m is not None:
            return m
        if self.prev is None:
            m = self._base_left_mult(a_idx)
        else:
            lam = self.prev.left_act(a_idx)
            cols = []
            for q in range(self.dim):
                (v, b) = self._unpair(self.quotient.keep[q])
                amb = {}
                for w, coef in lam.col[v].items():
                    amb[self._pidx(w, b)] = coef
                cols.append(self.quotient.project(amb))
            m = GMatrix.from_cols(self.dim, cols)
        self._left[a_idx] = m
        return m

    def right_act_vec(self, avec: dict) -> GMatrix:
        out = GMatrix.zero(self.dim, self.dim)
        for a, c in avec.items():
            m = self.right_act(a)
            for j in range(self.dim):
                vec_axpy(out.col[j], c, m.col[j])
        return out

    def left_act_vec(self, avec: dict) -> GMatrix:
        out = GMatrix.zero(self.dim, self.dim)
        for a, c in avec.items():
            m = self.left_act(a)
            for j in range(self.dim):
                vec_axpy(out.col[j], c, m.col[j])
        return out

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
            cols = []
            for q in range(self.dim):
                (v, b) = self._unpair(self.quotient.keep[q])
                cols.append(dict(self.prev.right_act(b).col[v]))
            m = GMatrix.from_cols(self.prev.dim, cols)
        else:
            # merge happens inside the prev part: (v (x) b) -> join(v) (x) b
            inner = self.prev.join(j)
            cols = []
            for q in range(self.dim):
                (v, b) = self._unpair(self.quotient.keep[q])
                amb = {}
                for w, coef in inner.col[v].items():
                    amb[self.prev._pidx(w, b)] = coef
                cols.append(self.prev.quotient.project(amb))
            m = GMatrix.from_cols(self.prev.dim, cols)
        self._join[j] = m
        return m

    def wrap(self) -> GMatrix:
        """Move the last slot to act on the base slot from the left."""
        assert self.prev is not None
        cols = []
        for q in range(self.dim):
            (v, b) = self._unpair(self.quotient.keep[q])
            cols.append(dict(self.prev.left_act(b).col[v]))
        return GMatrix.from_cols(self.prev.dim, cols)


def extension_base_level(ext: Extension, labels_from_alg=True) -> Level:
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
    labels = [(l,) for l in A.labels] if labels_from_alg else None

    def base_right(a_idx):
        return GMatrix(A.dim, A.dim, [A.mul({j: ONE}, {a_idx: ONE}) for j in range(A.dim)])

    def base_left(a_idx):
        return GMatrix(A.dim, A.dim, [A.mul({a_idx: ONE}, {j: ONE}) for j in range(A.dim)])

    return Level(A.dim, ext, ext, bgram, labels=labels,
                 base_right_mult=base_right, base_left_mult=base_left)


def append_level(prev: Level, ext2: Extension, check_balancing=True) -> Level:
    """prev (x)_B A2 as the radical quotient of prev (x) A2."""
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

    gram = GMatrix.zero(amb, amb)
    amb_bgram = {}
    for v, row in prev.bgram.items():
        for w, bv in row.items():
            for (a, b), s in sandwiches.items():
                out = s.apply(bv)
                if not out:
                    continue
                i, j = pidx(v, a), pidx(w, b)
                amb_bgram.setdefault(i, {})[j] = out
                tr = ext2.sub_trace(out)
                if not tr.is_zero():
                    gram.col[j][i] = tr

    if dim_b == 1:
        quot = Quotient(amb, [])
        if kernel_basis(gram).cols != 0:
            raise AssertionError("unexpected degeneracy over the scalars")
    else:
        rad = kernel_basis(gram)
        quot = Quotient(amb, rad.col)
        if check_balancing:
            # the fiber square's separating-vector certificate rests on this:
            # the radical is exactly the span of the balancing relations
            right_b = [prev.right_act_vec(ext2.embed.column(k)) for k in range(dim_b)]
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

    labels = None
    if prev.labels is not None:
        labels = []
        for q in range(quot.dim):
            v, a = quot.keep[q] // d2, quot.keep[q] % d2
            labels.append(prev.labels[v] + (A2.labels[a],))

    return Level(quot.dim, prev.left_ext, ext2, bgram, labels=labels,
                 prev=prev, app_ext=ext2, quotient=quot)


class Tower:
    """Iterated balanced powers base, base (x) A, base (x) A (x) A, ...

    All appended factors come from the same extension; levels are cached.
    """

    def __init__(self, base: Level, ext: Extension, check_balancing=True):
        self.base = base
        self.ext = ext
        self.check_balancing = check_balancing
        self.levels = [base]

    def level(self, k: int) -> Level:
        while len(self.levels) <= k:
            self.levels.append(append_level(self.levels[-1], self.ext,
                                            self.check_balancing))
        return self.levels[k]

    def insert_unit(self, k: int, base_insert: GMatrix = None) -> GMatrix:
        """Insert a unit factor at the insertion slot: level k -> k+1.

        base_insert realizes the insertion on the base (level 0 -> level 1);
        the default appends a unit after a one-slot base.
        """
        nxt = self.level(k + 1)
        cur = self.level(k)
        if k == 0:
            if base_insert is not None:
                return base_insert
            cols = []
            for q in range(cur.dim):
                amb = {}
                for u, c in self.ext.alg.unit.items():
                    amb[nxt._pidx(q, u)] = c
                cols.append(nxt.quotient.project(amb))
            return GMatrix.from_cols(nxt.dim, cols)
        inner = self.insert_unit(k - 1, base_insert)
        cols = []
        for q in range(cur.dim):
            (v, b) = cur._unpair(cur.quotient.keep[q])
            amb = {}
            for w, coef in inner.col[v].items():
                amb[nxt._pidx(w, b)] = coef
            cols.append(nxt.quotient.project(amb))
        return GMatrix.from_cols(nxt.dim, cols)

    def prepend_unit(self, k: int, base_prepend: GMatrix) -> GMatrix:
        """1 (x) v for towers over an algebra base: level k -> level k+1.

        base_prepend gives a -> class of 1 (x) a from the base into level 1.
        """
        if k == 0:
            return base_prepend
        nxt = self.level(k + 1)
        cur = self.level(k)
        inner = self.prepend_unit(k - 1, base_prepend)
        cols = []
        for q in range(cur.dim):
            (v, b) = cur._unpair(cur.quotient.keep[q])
            amb = {}
            for w, coef in inner.col[v].items():
                amb[nxt._pidx(w, b)] = coef
            cols.append(nxt.quotient.project(amb))
        return GMatrix.from_cols(nxt.dim, cols)


def algebra_tower(ext: Extension, check_balancing=True) -> Tower:
    return Tower(extension_base_level(ext), ext, check_balancing)


def base_prepend_matrix(tower: Tower) -> GMatrix:
    """a -> class of 1 (x) a from the algebra base into level 1."""
    lvl1 = tower.level(1)
    A = tower.ext.alg
    cols = []
    for a in range(A.dim):
        amb = {}
        for u, c in A.unit.items():
            amb[lvl1._pidx(u, a)] = c
        cols.append(lvl1.quotient.project(amb))
    return GMatrix.from_cols(lvl1.dim, cols)
