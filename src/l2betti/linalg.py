"""Sparse exact linear algebra over the Gaussian rationals.

Vectors are dicts {index: GScalar} holding only nonzero entries.  Matrices
store their columns sparsely; everything is computed field-exactly with
plain Gaussian elimination on sparse rows (pivot = least index, rows kept
forward-reduced only), which is exact and fast enough at desk scale.

Scalars are kept in normal form (see ``scalars``), so equal vectors are
equal dicts: ``vec_eq`` and ``GMatrix.__eq__`` compare the dicts first and
form a difference only on a mismatch.  Hot loops read the int fields
``a``, ``b``, ``d`` of a scalar rather than its Fraction-valued ``re`` and
``im``, so no Fraction is built here.

Maps that send every basis vector to zero or to plus or minus one basis
vector (faces, joins and unit insertions over a monomial basis) are
``IndexMap`` lists of row-or-None instead, and short sums of them are
``IndexSum``.  Both apply to vectors with GScalar or int entries, so their
identities are checked in ints; ``as_matrix`` builds the GMatrix where
elimination or a product with a general matrix needs one.
"""

from __future__ import annotations

import heapq

from .scalars import GScalar, MINUS_ONE, ONE, ZERO, gs

# ---------------------------------------------------------------------------
# sparse vectors


def vec_scale(c: GScalar, v: dict) -> dict:
    if c.is_zero():
        return {}
    return {i: c * x for i, x in v.items()}


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for i, x in v.items():
        y = out.get(i)
        s = x if y is None else y + x
        if s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


def vec_axpy(out: dict, c: GScalar, v: dict) -> None:
    """out += c*v in place."""
    if c.is_zero():
        return
    # the int fields are read directly: this is the innermost loop of
    # every matrix product and face descent
    if c.a == 1 and not c.b and c.d == 1:
        for i, x in v.items():
            y = out.get(i)
            s = x if y is None else y + x
            if s.a or s.b:
                out[i] = s
            else:
                out.pop(i, None)
        return
    for i, x in v.items():
        y = out.get(i)
        s = c * x if y is None else y + c * x
        if s.a or s.b:
            out[i] = s
        else:
            out.pop(i, None)


def vec_sub(u: dict, v: dict) -> dict:
    out = dict(u)
    vec_axpy(out, MINUS_ONE, v)
    return out


def vec_eq(u: dict, v: dict) -> bool:
    # GScalar equality is exact, so equal dicts are equal vectors; only a
    # mismatch, possibly a stored zero on either side, needs the difference
    return u == v or not any(vec_sub(u, v).values())


def vec_dot(u: dict, v: dict) -> GScalar:
    """Hermitian dot product conj(u).v (antilinear in the first slot)."""
    if len(u) > len(v):
        small, other, flip = v, u, True
    else:
        small, other, flip = u, v, False
    acc = ZERO
    for i, x in small.items():
        y = other.get(i)
        if y is not None:
            acc = acc + (y.conj() * x if flip else x.conj() * y)
    return acc


# ---------------------------------------------------------------------------
# matrices


class GMatrix:
    """Sparse matrix over the Gaussian rationals, stored column-wise."""

    __slots__ = ("rows", "cols", "col")

    def __init__(self, rows: int, cols: int, col_data=None):
        self.rows = rows
        self.cols = cols
        self.col = [dict() for _ in range(cols)] if col_data is None else col_data

    # -- constructors

    @staticmethod
    def zero(rows, cols):
        return GMatrix(rows, cols)

    @staticmethod
    def identity(n):
        return GMatrix(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def from_cols(rows, cols_list):
        return GMatrix(rows, len(cols_list), [dict(c) for c in cols_list])

    # -- access

    def entry(self, i, j) -> GScalar:
        return self.col[j].get(i, ZERO)

    def column(self, j) -> dict:
        return self.col[j]

    def nnz(self):
        return sum(len(c) for c in self.col)

    def is_zero(self):
        return all(not c for c in self.col)

    def __eq__(self, other):
        if not isinstance(other, GMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self.col == other.col or \
            all(vec_eq(a, b) for a, b in zip(self.col, other.col))

    def __hash__(self):
        raise TypeError("GMatrix is not hashable")

    # -- arithmetic

    def apply(self, v: dict) -> dict:
        # the first term lands in an empty dict, so it is copied rather than
        # accumulated; stored zeros are dropped as vec_axpy drops them
        items = iter(v.items())
        for j, c in items:
            if c.a == 1 and not c.b and c.d == 1:
                out = {i: x for i, x in self.col[j].items() if x.a or x.b}
            elif c.a or c.b:
                out = {i: c * x for i, x in self.col[j].items() if x.a or x.b}
            else:
                continue
            break
        else:
            return {}
        for j, c in items:
            vec_axpy(out, c, self.col[j])
        return out

    def mul(self, other: "GMatrix") -> "GMatrix":
        assert self.cols == other.rows, "dimension mismatch"
        return GMatrix(self.rows, other.cols, [self.apply(c) for c in other.col])

    def sub(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return GMatrix(self.rows, self.cols,
                       [vec_sub(a, b) for a, b in zip(self.col, other.col)])

    def adjoint(self):
        """Conjugate transpose."""
        out = GMatrix(self.cols, self.rows)
        for j, c in enumerate(self.col):
            for i, x in c.items():
                out.col[i][j] = x.conj()
        return out

    def __repr__(self):
        return "GMatrix(%dx%d, nnz=%d)" % (self.rows, self.cols, self.nnz())


# ---------------------------------------------------------------------------
# index maps


def _index_axpy(out: dict, s: int, m: "IndexMap", v: dict) -> None:
    """out += s m v in place, for s = 1 or -1 and entries of v that are
    GScalars or ints alike."""
    idx, sign = m.idx, m.sign
    for c, x in v.items():
        r = idx[c]
        if r is None or not x:
            continue
        if (s if sign is None else s * sign[c]) < 0:
            x = -x
        y = out.get(r)
        if y is None:
            out[r] = x
        else:
            y = y + x
            if y:
                out[r] = y
            else:
                del out[r]


class IndexMap:
    """A matrix with at most one entry, 1 or -1, in each column.

    Column c is sign[c] e_{idx[c]}, or zero when idx[c] is None; sign is
    None when every entry is 1.  Composition is list indexing, so identities
    between such maps are checked without forming a product."""

    __slots__ = ("rows", "idx", "sign")

    def __init__(self, rows: int, idx: list, sign: list = None):
        self.rows = rows
        self.idx = idx
        self.sign = sign

    @property
    def cols(self):
        return len(self.idx)

    def nnz(self):
        return len(self.idx) - self.idx.count(None)

    def apply(self, v: dict) -> dict:
        out = {}
        _index_axpy(out, 1, self, v)
        return out

    def compose(self, inner: "IndexMap") -> "IndexMap":
        """self . inner."""
        idx = self.idx
        out = [None if r is None else idx[r] for r in inner.idx]
        si, so = inner.sign, self.sign
        if si is None and so is None:
            return IndexMap(self.rows, out)
        sign = [1 if r is None else (1 if si is None else si[c]) * (1 if so is None else so[r])
                for c, r in enumerate(inner.idx)]
        return IndexMap(self.rows, out, sign)

    def __eq__(self, other):
        """Equal as matrices: the signs of zero columns do not count."""
        if not isinstance(other, IndexMap):
            return NotImplemented
        if self.rows != other.rows or self.idx != other.idx:
            return False
        if self.sign == other.sign:
            return True
        s1 = self.sign or [1] * len(self.idx)
        s2 = other.sign or [1] * len(self.idx)
        return all(r is None or a == b for r, a, b in zip(self.idx, s1, s2))

    __hash__ = None

    def matrix(self) -> GMatrix:
        sign = self.sign
        return GMatrix(self.rows, len(self.idx), [
            {} if r is None else {r: ONE if sign is None or sign[c] > 0 else MINUS_ONE}
            for c, r in enumerate(self.idx)])

    def __repr__(self):
        return "IndexMap(%dx%d, nnz=%d%s)" % (
            self.rows, self.cols, self.nnz(), "" if self.sign is None else ", signed")


class IndexSum:
    """sum_k s_k M_k for index maps M_k of one shape and signs s_k = +-1.

    Contracting homotopies insert 1 = sum_u e_u, one map per term u (three
    on M3 over the scalars), and boundaries sum their faces with signs.
    Columns are read in ints, and the GMatrix is built only on request,
    once."""

    __slots__ = ("rows", "cols", "terms", "_matrix")

    def __init__(self, rows: int, cols: int, terms: list):
        self.rows = rows
        self.cols = cols
        self.terms = terms
        self._matrix = None

    @staticmethod
    def merged(rows: int, cols: int, terms) -> "IndexSum":
        """The sum of terms, with the terms whose columns do not overlap
        folded into one map (on a graded level the unit's terms
        p_x hit disjoint columns, so their sum is one map)."""
        out = []
        for s, m in terms:
            for k, (s0, m0) in enumerate(out):
                if all(r is None or r0 is None for r, r0 in zip(m.idx, m0.idx)):
                    idx = [r0 if r is None else r for r, r0 in zip(m.idx, m0.idx)]
                    sign = [s0 * (1 if m0.sign is None else m0.sign[c]) if r is None
                            else s * (1 if m.sign is None else m.sign[c])
                            for c, r in enumerate(m.idx)]
                    out[k] = (1, IndexMap(rows, idx, None if -1 not in sign else sign))
                    break
            else:
                out.append((s, m))
        return IndexSum(rows, cols, out)

    def apply(self, v: dict) -> dict:
        out = {}
        for s, m in self.terms:
            _index_axpy(out, s, m, v)
        return out

    def column(self, c) -> dict:
        return self.apply({c: 1})

    def is_identity(self) -> bool:
        n = self.cols
        if self.rows != n:
            return False
        # diagonal and off-diagonal entries summed over the terms
        diag, off = [0] * n, {}
        for s, m in self.terms:
            sign = m.sign
            for c, r in enumerate(m.idx):
                if r is None:
                    continue
                x = s if sign is None else s * sign[c]
                if r == c:
                    diag[c] += x
                else:
                    off[c * n + r] = off.get(c * n + r, 0) + x
        return all(x == 1 for x in diag) and not any(off.values())

    def nnz(self):
        return sum(len(self.column(c)) for c in range(self.cols))

    def matrix(self) -> GMatrix:
        if self._matrix is None:
            cols = [{} for _ in range(self.cols)]
            for s, m in self.terms:
                sign = m.sign
                for c, r in enumerate(m.idx):
                    if r is not None:
                        col = cols[c]
                        col[r] = col.get(r, 0) + (s if sign is None else s * sign[c])
            # each entry is a sum of +-1 over the terms
            t = len(self.terms)
            scalar = {k: gs(k) for k in range(-t, t + 1)}
            self._matrix = GMatrix(self.rows, self.cols, [
                {r: scalar[x] for r, x in col.items() if x} for col in cols])
        return self._matrix

    def __repr__(self):
        return "IndexSum(%dx%d, %d terms)" % (self.rows, self.cols, len(self.terms))


def index_product(pairs, rows: int, cols: int) -> IndexSum:
    """sum_k outer_k inner_k for IndexSums, as the sum of the composites of
    their terms; equal composites of opposite sign cancel exactly and are
    dropped, so a homotopy identity reduces to the few terms that remain."""
    out = []
    for outer, inner in pairs:
        for s, m in outer.terms:
            for t, n in inner.terms:
                st, mn = s * t, m.compose(n)
                for k, (s0, m0) in enumerate(out):
                    if s0 == -st and m0 == mn:
                        del out[k]
                        break
                else:
                    out.append((st, mn))
    return IndexSum(rows, cols, out)


def index_trace(outer: IndexSum, inner: IndexSum) -> int:
    """tr(outer inner) for IndexSums: the signed count of the fixed
    columns of each composite of their terms."""
    tr = 0
    for s, m in outer.terms:
        for t, n in inner.terms:
            mn = m.compose(n)
            sign = mn.sign
            fixed = [c for c, r in enumerate(mn.idx) if r == c]
            tr += s * t * (len(fixed) if sign is None else sum(sign[c] for c in fixed))
    return tr


def index_form(m):
    """m as an IndexSum when it is an IndexMap or an IndexSum, else None."""
    if isinstance(m, IndexSum):
        return m
    if isinstance(m, IndexMap):
        return IndexSum(m.rows, m.cols, [(1, m)])
    return None


def as_matrix(m) -> GMatrix:
    return m if isinstance(m, GMatrix) else m.matrix()


def common_form(*maps) -> list:
    """The maps as IndexSums when every one has an index form, otherwise
    all as GMatrix: either way each has column(c) and apply(v) of one kind
    of entry, and products are formed column by column."""
    forms = [index_form(m) for m in maps]
    if all(f is not None for f in forms):
        return forms
    return [as_matrix(m) for m in maps]


def combination(n: int, coeffs: dict, mat) -> GMatrix:
    """sum_k coeffs[k] mat(k) for n x n matrices mat(k)."""
    out = GMatrix.zero(n, n)
    for k, c in coeffs.items():
        m = as_matrix(mat(k))
        for j in range(n):
            vec_axpy(out.col[j], c, m.col[j])
    return out


# ---------------------------------------------------------------------------
# echelon bases


class Echelon:
    """Growing row-echelon basis of sparse vectors.

    Rows are normalized to pivot coefficient 1 at their least nonzero index
    and only forward-reduced; reduction of a new vector processes indices in
    increasing order, which terminates because pivot rows have no entries
    below their pivot.  With track=True every pivot row remembers its
    expression in the originally inserted vectors, so coordinates of any
    vector in the inserted family can be recovered exactly.
    """

    def __init__(self, track=False):
        self.pivots = {}        # pivot index -> normalized row
        self.reps = {}          # pivot index -> combo over inserted originals
        self.order = []         # pivot indices in insertion order
        self.track = track
        self.n_inserted = 0

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, v: dict):
        """Return (residual, combo) with v = sum(combo[k]*orig_k) + residual."""
        v = dict(v)
        combo = {} if self.track else None
        heap = list(v.keys())
        heapq.heapify(heap)
        seen_done = set()
        while heap:
            p = heapq.heappop(heap)
            if p in seen_done:
                continue
            seen_done.add(p)
            c = v.get(p)
            if c is None or c.is_zero():
                v.pop(p, None)
                continue
            row = self.pivots.get(p)
            if row is None:
                continue
            # subtract c * row (row pivot coefficient is 1)
            for k, x in row.items():
                y = v.get(k)
                s = -(c * x) if y is None else y - c * x
                if s.a or s.b:
                    v[k] = s
                    if k > p and k not in seen_done:
                        heapq.heappush(heap, k)
                else:
                    v.pop(k, None)
            if self.track:
                vec_axpy(combo, c, self.reps[p])
        return v, combo

    def insert(self, v: dict):
        """Insert v; return (pivot, combo) with pivot None when dependent."""
        res, combo = self.reduce(v)
        idx = self.n_inserted
        self.n_inserted += 1
        if not res:
            return None, combo
        p = min(res)
        inv = res[p].inverse()
        row = {k: inv * x for k, x in res.items()}
        self.pivots[p] = row
        self.order.append(p)
        if self.track:
            rep = {idx: inv}
            for g, x in (combo or {}).items():
                rep[g] = -(inv * x)
            self.reps[p] = rep
        return p, combo

    def contains(self, v: dict) -> bool:
        res, _ = self.reduce(v)
        return not res

    def coords(self, v: dict):
        """Coordinates of v over the inserted vectors, or None if outside."""
        assert self.track, "coords requires track=True"
        res, combo = self.reduce(v)
        if res:
            return None
        return combo


# ---------------------------------------------------------------------------
# rank / kernel / solvers


def rank(M: GMatrix) -> int:
    ech = Echelon()
    for c in M.col:
        ech.insert(c)
    return ech.rank


def kernel_basis(M: GMatrix) -> GMatrix:
    """Columns form a basis of ker M; M @ kernel_basis(M) == 0."""
    ech = Echelon(track=True)
    kernel = []
    for j, c in enumerate(M.col):
        p, combo = ech.insert(c)
        if p is None:
            k = {j: ONE}
            for g, x in (combo or {}).items():
                k[g] = -x
            kernel.append(k)
    return GMatrix.from_cols(M.cols, kernel)


def solve(M: GMatrix, rhs: dict):
    """One exact solution x of M x = rhs, or None when inconsistent."""
    ech = Echelon(track=True)
    for c in M.col:
        ech.insert(c)
    return ech.coords(rhs)


def invert(M: GMatrix) -> GMatrix:
    assert M.rows == M.cols, "invert needs a square matrix"
    ech = Echelon(track=True)
    for c in M.col:
        p, _ = ech.insert(c)
        if p is None:
            raise ValueError("matrix is singular")
    cols = []
    for i in range(M.rows):
        x = ech.coords({i: ONE})
        assert x is not None
        cols.append(x)
    return GMatrix.from_cols(M.rows, cols)


class LinearSolver:
    """Reusable exact solver for a fixed nonsingular square matrix."""

    def __init__(self, m: GMatrix):
        assert m.rows == m.cols
        self.ech = Echelon(track=True)
        for c in m.col:
            p, _ = self.ech.insert(c)
            if p is None:
                raise ValueError("solver matrix is singular")

    def solve(self, rhs: dict) -> dict:
        x = self.ech.coords(rhs)
        assert x is not None
        return x


# ---------------------------------------------------------------------------
# hermitian forms


def is_positive_semidefinite(gram: GMatrix) -> bool:
    """Whether the hermitian form <u|v> = adjoint(u) G v of a hermitian Gram
    G is positive semidefinite: pivoted exact elimination, every pivot
    real and nonnegative."""
    assert gram.rows == gram.cols, "gram must be square"
    work = {i: dict(c) for i, c in enumerate(gram.col) if c}
    alive = set(range(gram.rows))
    while alive:
        piv = None
        for j in list(alive):
            d = work.get(j, {}).get(j)
            if d is not None and not d.is_zero():
                piv = j
                break
        if piv is None:
            # all remaining diagonal entries vanish: psd iff block is zero
            for j in alive:
                cj = work.get(j, {})
                for i, x in cj.items():
                    if i in alive and not x.is_zero():
                        return False
            return True
        d = work[piv][piv]
        if not d.is_real() or d.a < 0:
            return False
        col = {i: x for i, x in work[piv].items() if i in alive}
        dinv = d.inverse()
        for j in list(alive):
            if j == piv:
                continue
            cj = work.get(j)
            if cj is None:
                continue
            f = cj.get(piv)
            if f is None or f.is_zero():
                continue
            coef = -(dinv * f)
            for i, x in col.items():
                y = cj.get(i)
                s = coef * x if y is None else y + coef * x
                if s.is_zero():
                    cj.pop(i, None)
                else:
                    cj[i] = s
        alive.discard(piv)
        work.pop(piv, None)
    return True


def projection_coordinates(gram: GMatrix, S: GMatrix) -> GMatrix:
    """Coordinates over the columns of S of the projection onto span(S)
    orthogonal for the hermitian form <u|v> = adjoint(u) gram v:
    X = (S* G S)^-1 S* G, so that P = S X is the projection.

    Requires the columns of S independent and the form nondegenerate on
    span(S).  Then X S = 1, so P^2 = P and im P = span(S), and
    gram @ P == adjoint(P) @ gram.  Dependent columns make S* G S singular.
    """
    try:
        small_inv = invert(S.adjoint().mul(gram.mul(S)))      # (S* G S)^-1
    except ValueError:
        raise ValueError("form is degenerate on the projection target")
    return small_inv.mul(S.adjoint().mul(gram))


def adjoint_wrt(gram: GMatrix, M: GMatrix, gram_inv: GMatrix) -> GMatrix:
    """Adjoint of M with respect to the form with Gram G = gram:
    G^{-1} M^* G, with gram_inv = G^{-1}."""
    return gram_inv.mul(M.adjoint().mul(gram))
