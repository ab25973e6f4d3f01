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
"""

from __future__ import annotations

import heapq

from .scalars import GScalar, MINUS_ONE, ONE, ZERO, gs

# ---------------------------------------------------------------------------
# sparse vectors


def vec(*pairs):
    return {i: gs(c) for i, c in pairs if not gs(c).is_zero()}


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


def vec_conj(u: dict) -> dict:
    return {i: x.conj() for i, x in u.items()}


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
    def from_rows(rows_list):
        """Dense row-of-rows input (ints, Fractions or GScalars)."""
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

    def index_map(self):
        """This 0/1 partial function matrix as a list over its columns: the
        row of the column's one entry, which equals ONE, or None for an
        empty column.  None when some column holds two entries or another
        value; stored zeros count as absent."""
        out = []
        for c in self.col:
            row = None
            for i, x in c.items():
                if row is None and x.a == 1 and not x.b and x.d == 1:
                    row = i
                elif x.a or x.b:
                    return None
            out.append(row)
        return out

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

    def __matmul__(self, other):
        return self.mul(other)

    def add(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return GMatrix(self.rows, self.cols,
                       [vec_add(a, b) for a, b in zip(self.col, other.col)])

    def sub(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return GMatrix(self.rows, self.cols,
                       [vec_sub(a, b) for a, b in zip(self.col, other.col)])

    def scale(self, c):
        c = gs(c)
        return GMatrix(self.rows, self.cols, [vec_scale(c, v) for v in self.col])

    def transpose(self):
        out = GMatrix(self.cols, self.rows)
        for j, c in enumerate(self.col):
            for i, x in c.items():
                out.col[i][j] = x
        return out

    def conj(self):
        return GMatrix(self.rows, self.cols, [vec_conj(c) for c in self.col])

    def adjoint(self):
        """Conjugate transpose."""
        out = GMatrix(self.cols, self.rows)
        for j, c in enumerate(self.col):
            for i, x in c.items():
                out.col[i][j] = x.conj()
        return out

    def __repr__(self):
        return "GMatrix(%dx%d, nnz=%d)" % (self.rows, self.cols, self.nnz())


def combination(n: int, coeffs: dict, mat) -> GMatrix:
    """sum_k coeffs[k] mat(k) for n x n matrices mat(k)."""
    out = GMatrix.zero(n, n)
    for k, c in coeffs.items():
        m = mat(k)
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


class HermitianForm:
    """A hermitian form given by its Gram matrix: <u|v> = adjoint(u) G v."""

    def __init__(self, gram: GMatrix, check=True):
        assert gram.rows == gram.cols, "gram must be square"
        if check and gram != gram.adjoint():
            raise ValueError("gram matrix is not hermitian")
        self.gram = gram

    @property
    def dim(self):
        return self.gram.rows

    def pair(self, u: dict, v: dict) -> GScalar:
        return vec_dot(u, self.gram.apply(v))

    def is_positive_semidefinite(self) -> bool:
        """Pivoted exact elimination; all pivots must be real nonnegative."""
        n = self.dim
        work = {i: dict(c) for i, c in enumerate(self.gram.col) if c}
        alive = set(range(n))
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


def radical(form: HermitianForm) -> GMatrix:
    """Basis of the null space {v : <v|w> = 0 for all w}."""
    return kernel_basis(form.gram)


def orth_projection(form: HermitianForm, S: GMatrix) -> GMatrix:
    """Form-orthogonal projection onto span(S).

    Requires the columns of S independent and the form nondegenerate on
    span(S); the result P satisfies P^2 = P, im P = span(S) and
    gram @ P == adjoint(P) @ gram.
    """
    if rank(S) != S.cols:
        raise ValueError("projection target columns are dependent")
    G = form.gram
    GS = G.mul(S)
    small = S.adjoint().mul(GS)          # S^* G S
    try:
        small_inv = invert(small)
    except ValueError:
        raise ValueError("form is degenerate on the projection target")
    X = small_inv.mul(S.adjoint().mul(G))
    return S.mul(X)


def adjoint_wrt(form: HermitianForm, M: GMatrix, gram_inv: GMatrix = None) -> GMatrix:
    """Adjoint of M with respect to the form: G^{-1} M^* G."""
    gi = gram_inv if gram_inv is not None else invert(form.gram)
    return gi.mul(M.adjoint().mul(form.gram))
