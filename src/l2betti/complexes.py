"""Presimplicial modules, chain complexes, contracting homotopies, homology.

Chain spaces come in two flavors: free spaces on groupoid tuples (the five
geometric families) and coinvariant quotients of balanced tensor powers
(bar, Hochschild and the square-coefficient complex).  Homology is computed
exactly, either by sparse elimination or, for large degrees of complexes
carrying a verified contracting homotopy, through the split-certificate.
The coinvariants, the check that each face descends to them and the
descended maps come from `tensor` (Level.coinvariants,
Level.check_descends, descend), which alone knows how a level was built.

Each identity is verified once, where it is cheapest, and the others are
read off it:

- verify_presimplicial checks pi_i pi_j = pi_{j-1} pi_i on the face
  matrices.  The boundary d_n = sum_i (-1)^i pi_i is summed from those
  same matrices, so d_n d_{n+1} = 0 cancels term by term; boundary()
  checks d o d directly only above the verified degree.
- The same d o d = 0 puts im d_{n+1} inside ker d_n, so homology's
  elimination stops inserting columns of d_{n+1} once the image's rank
  reaches dim ker d_n: the rank is then exact and H_n = 0.
- ContractingHomotopy.verify checks d h + h d = 1 and remembers the degrees
  it proved against which boundary; it re-proves nothing for that boundary.
- In the split certificate, d h + h d = 1 at degree n and d o d = 0 give
  e d_{n+1} = d_{n+1} for e = d_{n+1} h_n, hence e e = e: e is an
  idempotent with image ker d_n = im d_{n+1}, and its trace pins every
  rank without elimination.

Homology is the quotient ker d_n / im d_{n+1}, held as an echelon
complement of the image in the kernel, and the coefficient algebra acts on
it modulo the image.  That needs the chain action to be a unital
representation commuting with d, which holds by certificates already run.
On the L2-complex the action is the fiber square's basis operators, checked
bimodular (fibersquare, check 2 and the adjoint check), whose products are
read off the injective evaluation at 1 (x) 1, so they multiply as the
algebra does with the identity as unit; lifted into the tower they commute
with the joins (right linearity), the wrap (left linearity) and the
B-coinvariant relations (B-bimodularity), and lifting is multiplicative.
On the classifying complex the convolution algebra acts diagonally on
tuples with a common target, which commutes with deleting an entry, and
the groupoid axioms checked by validate_groupoid make it a unital
representation.

Faces, boundaries and homotopies of monomial complexes (the geometric
families, and Hochschild complexes over index levels, see `tensor`) are
IndexMaps and IndexSums, and every identity above is checked on them in
ints.  A GMatrix is built from them only where elimination or a
comparison with a general matrix needs one.  A face keeps the form its
level (tensor.Level.index) or carrier (_tuple_face_map) built, and a
degree with a face in another form is checked and summed column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import (
    Extension, SpanBasis, TracialStarAlgebra, convolution_star_algebra,
)
from .fibersquare import FiberSquareAlgebra
from .groupoids import (
    FiniteGroupoid, geometric_carrier, geometric_face, validate_groupoid,
)
from .linalg import (
    Echelon, GMatrix, IndexMap, IndexSum, as_matrix, common_form, index_product,
    index_trace, kernel_basis, vec_add, vec_axpy, vec_eq,
)
from .scalars import MINUS_ONE, ONE, ZERO, gs
from .tensor import Level, Tower, algebra_tower, descend

ELIMINATION_LIMIT = 2500


def _sum_is_identity(dim: int, pairs) -> bool:
    """sum_k outer_k inner_k == 1 on a space of dimension dim; each pair
    comes from one common_form.  IndexSums are multiplied out into their
    composites (index_product), whose remaining terms are summed in ints;
    GMatrix products are formed column by column."""
    for outer, inner in pairs:
        if outer.rows != dim or inner.cols != dim or outer.cols != inner.rows:
            return False
    if isinstance(pairs[0][0], IndexSum):
        return index_product(pairs, dim, dim).is_identity()
    for c in range(dim):
        acc = {}
        for outer, inner in pairs:
            acc = vec_add(acc, outer.apply(inner.column(c)))
        if acc != {c: ONE}:
            return False
    return True


@dataclass
class ChainComplex:
    dims: list
    d: dict            # n -> GMatrix or IndexSum, degree n -> n-1, for 1 <= n <= N

    @property
    def N(self):
        return len(self.dims) - 1

    def check_d_squared(self, above=1):
        """d_n d_{n+1} = 0 for every degree n + 1 > above."""
        for n in sorted(self.d):
            if n + 1 not in self.d or n + 1 <= above:
                continue
            lo, hi = common_form(self.d[n], self.d[n + 1])
            for c in range(hi.cols):
                if lo.apply(hi.column(c)):
                    raise AssertionError("d o d != 0 at degree %d" % (n + 1))
        return True


@dataclass
class ContractingHomotopy:
    """Degree-raising maps with d h + h d = 1 against an augmentation."""

    h: dict                    # n -> map, degree n -> n+1
    aug: object                # degree 0 -> target
    aug_section: object        # target -> degree 0
    verified_upto: int = -1
    verified_chain: ChainComplex = field(default=None, repr=False, compare=False)

    def verify(self, chain: ChainComplex, upto: int):
        """Check the augmentation and d h + h d = 1 at degrees 0..upto.

        Degrees already proved against this same chain object are not
        checked again; against any other chain everything is re-proved.
        The maps may be GMatrix, IndexMap or IndexSum; when all of them are
        index maps the identities are checked in ints (common_form).
        """
        if chain is not self.verified_chain:
            self.verified_chain = None
            self.verified_upto = -1
        if self.verified_upto < 0 <= upto:
            aug, sec, d1, h0 = common_form(self.aug, self.aug_section, chain.d[1],
                                           self.h[0])
            if aug.cols != d1.rows or any(aug.apply(d1.column(c)) for c in range(d1.cols)):
                raise AssertionError("augmentation does not kill the boundary")
            if not _sum_is_identity(aug.rows, [(aug, sec)]):
                raise AssertionError("augmentation section is not a section")
            if not _sum_is_identity(chain.dims[0], [(d1, h0), (sec, aug)]):
                raise AssertionError("homotopy identity fails at degree 0")
        for n in range(max(self.verified_upto + 1, 1), upto + 1):
            d_hi, h_n, h_lo, d_n = common_form(chain.d[n + 1], self.h[n],
                                               self.h[n - 1], chain.d[n])
            if not _sum_is_identity(chain.dims[n], [(d_hi, h_n), (h_lo, d_n)]):
                raise AssertionError("homotopy identity fails at degree %d" % n)
        self.verified_chain = chain
        self.verified_upto = max(self.verified_upto, upto)
        return True


class PresimplicialModule:
    """Graded spaces with face maps pi_i pi_j = pi_{j-1} pi_i for i < j."""

    def __init__(self, dims, faces, coeff=None, action=None,
                 labels=None, homotopy=None, name=""):
        self.dims = dims                  # list, degrees 0..N
        self.faces = faces                # faces[n] = [GMatrix or IndexMap], n >= 1
        self.coeff = coeff                # acting tracial algebra, or None
        self._action = action             # callable (n, k) -> GMatrix
        self.labels = labels
        self.homotopy = homotopy
        self.name = name
        self._chain = None
        # the faces satisfy the presimplicial identities up to this degree;
        # below degree 2 there are none
        self.presimplicial_upto = 1
        self._action_cache = {}
        # every face is checked dims[n-1] x dims[n] once, here, before any
        # identity or the boundary reads it
        for n in range(1, self.N + 1):
            for i, f in enumerate(faces[n]):
                width = f.cols if isinstance(f, IndexMap) else len(f.col)
                if (f.rows, f.cols, width) != (dims[n - 1], dims[n], dims[n]):
                    raise AssertionError(
                        "face (%d,%d) is %dx%d, not %dx%d in %s"
                        % (n, i, f.rows, width, dims[n - 1], dims[n], name))

    @property
    def N(self):
        return len(self.dims) - 1

    def action(self, n, k) -> GMatrix:
        key = (n, k)
        if key not in self._action_cache:
            self._action_cache[key] = self._action(n, k)
        return self._action_cache[key]

    def verify_presimplicial(self):
        for n in range(self.presimplicial_upto + 1, self.N + 1):
            fs = self.faces[n]
            lower = self.faces[n - 1]
            if len(fs) != n + 1 or len(lower) != n:
                # the d o d cancellation in boundary() pairs off n + 1 faces
                # at degree n with n faces at degree n - 1
                raise AssertionError(
                    "degree %d has %d faces over %d, not %d over %d in %s"
                    % (n, len(fs), len(lower), n + 1, n, self.name))
            indexed = all(isinstance(f, IndexMap) for f in fs + lower)
            if not indexed:
                fs = [as_matrix(f).col for f in fs]
                lower = [as_matrix(f) for f in lower]
            for j in range(1, len(fs)):
                for i in range(j):
                    if indexed:
                        # pi_i pi_j and pi_{j-1} pi_i as composed index maps,
                        # signs included
                        holds = lower[i].compose(fs[j]) == lower[j - 1].compose(fs[i])
                    else:
                        # column by column, so neither product is stored
                        holds = all(vec_eq(lower[i].apply(fs[j][c]),
                                           lower[j - 1].apply(fs[i][c]))
                                    for c in range(self.dims[n]))
                    if not holds:
                        raise AssertionError(
                            "presimplicial identity fails at degree %d (%d,%d) in %s"
                            % (n, i, j, self.name))
        self.presimplicial_upto = max(self.presimplicial_upto, self.N)
        return True

    def boundary(self) -> ChainComplex:
        """d_n = sum_i (-1)^i pi_i, with d o d = 0 checked where the faces
        are not already verified.

        Where pi_i pi_j = pi_{j-1} pi_i holds at degree n + 1 (checked by
        verify_presimplicial on these same face matrices), the terms of
        d_n d_{n+1} cancel in pairs, so only degrees above that are
        checked directly.  When every face of degree n is an IndexMap, d_n
        is their IndexSum: its columns are summed in ints where they are
        read, and its GMatrix is built only for elimination.
        """
        if self._chain is None:
            d = {}
            for n in range(1, self.N + 1):
                fs = self.faces[n]
                if all(isinstance(f, IndexMap) for f in fs):
                    d[n] = IndexSum(self.dims[n - 1], self.dims[n],
                                    [(1 if i % 2 == 0 else -1, f) for i, f in enumerate(fs)])
                    continue
                acc = GMatrix.zero(self.dims[n - 1], self.dims[n])
                for i, f in enumerate(fs):
                    s = ONE if i % 2 == 0 else MINUS_ONE
                    f = as_matrix(f)
                    for j in range(self.dims[n]):
                        vec_axpy(acc.col[j], s, f.col[j])
                d[n] = acc
            self._chain = ChainComplex(list(self.dims), d)
            self._chain.check_d_squared(self.presimplicial_upto)
        return self._chain


# ---------------------------------------------------------------------------
# geometric complexes


def _tuple_face_map(g, kind, n, i, carrier, lower_index) -> IndexMap:
    return IndexMap(len(lower_index),
                    [lower_index[geometric_face(g, kind, n, i, t)] for t in carrier])


def geometric_complex(g: FiniteGroupoid, kind: str, N: int,
                      coeff: TracialStarAlgebra = None) -> PresimplicialModule:
    """Function complex of one of the five tuple-space families.

    For the classifying family the convolution *-algebra coeff of g acts
    diagonally and a contracting homotopy (append a unit arrow, with
    alternating signs) is installed; its augmentation is the target-class
    map onto functions on the base.  Without coeff, g is validated before
    any tuple, for every kind, and the classifying family builds its
    convolution *-algebra.
    """
    if coeff is None:
        rep = validate_groupoid(g)
        if not rep.ok:
            raise ValueError("invalid groupoid: %s" % rep.violations[:3])
        if kind == "classifying":
            coeff = convolution_star_algebra(g)

    carriers = [list(geometric_carrier(g, kind, n)) for n in range(N + 1)]
    index = [{t: k for k, t in enumerate(c)} for c in carriers]
    dims = [len(c) for c in carriers]
    faces = [None]
    for n in range(1, N + 1):
        faces.append([_tuple_face_map(g, kind, n, i, carriers[n], index[n - 1])
                      for i in range(n + 1)])

    action = None
    if kind == "classifying":
        def action(n, k, _carriers=carriers, _index=index):
            alpha = g.elements[k]
            m = GMatrix.zero(dims[n], dims[n])
            for j, t in enumerate(_carriers[n]):
                if g.source[alpha] == g.target[t[0]]:
                    img = tuple(g.compose[(alpha, c)] for c in t)
                    m.col[j][_index[n][img]] = ONE
            return m

    # homotopies, augmentations and sections send tuples to tuples, so
    # they are index maps read off the carriers
    homotopy = None
    if kind == "classifying":
        h = {}
        for n in range(0, N):
            m = IndexMap(dims[n + 1], [index[n + 1][t + (g.units[g.target[t[0]]],)]
                                       for t in carriers[n]])
            h[n] = IndexSum(dims[n + 1], dims[n], [(1 if (n + 1) % 2 == 0 else -1, m)])
        atom_index = {x: k for k, x in enumerate(g.base.atoms)}
        aug = IndexMap(len(g.base.atoms), [atom_index[g.target[t[0]]] for t in carriers[0]])
        sec = IndexMap(dims[0], [index[0][(g.units[x],)] for x in g.base.atoms])
        homotopy = ContractingHomotopy(h, aug, sec)
    elif kind in ("bar", "acyclic"):
        h = {}
        for n in range(0, N):
            if kind == "bar":
                ext_ts = [(g.units[g.target[t[0]]],) + t for t in carriers[n]]
            else:
                ext_ts = [(t[0], g.units[g.source[t[0]]]) + t[1:] for t in carriers[n]]
            h[n] = IndexMap(dims[n + 1], [index[n + 1][t] for t in ext_ts])
        # augment with the degree "-1" carrier of the family
        if kind == "bar":
            lowc = list(geometric_carrier(g, "nerve", 1))
            low_index = {t: k for k, t in enumerate(lowc)}
            aug = IndexMap(len(lowc), [low_index[(g.compose[(t[0], t[1])],)]
                                       for t in carriers[0]])
            sec = IndexMap(dims[0], [index[0][(g.units[g.target[t[0]]], t[0])]
                                     for t in lowc])
        else:
            lowc = list(geometric_carrier(g, "cyclic", 0))
            low_index = {t: k for k, t in enumerate(lowc)}
            aug = IndexMap(len(lowc), [low_index[(g.compose[(t[1], t[0])],)]
                                       for t in carriers[0]])
            sec = IndexMap(dims[0], [index[0][(t[0], g.units[g.source[t[0]]])]
                                     for t in lowc])
        homotopy = ContractingHomotopy(h, aug, sec)

    out = PresimplicialModule(
        dims, faces, coeff=coeff, action=action, labels=carriers,
        homotopy=homotopy, name="%s-%s" % (g.name or "G", kind))
    out.verify_presimplicial()
    return out


# ---------------------------------------------------------------------------
# algebraic complexes over a tower


def hochschild_complex(base_level: Level, N: int, coeff=None, coeff_action=None,
                       name="") -> PresimplicialModule:
    """Chain spaces: coinvariants of base (x)_B A^{(x)n}, A being the
    base's own extension; faces merge slots and wrap the last factor onto
    the base through the left action."""
    tower = Tower(base_level)
    levels = [tower.level(n) for n in range(N + 1)]
    coqs = [l.coinvariants() for l in levels]
    dims = [q.dim for q in coqs]

    # the base may itself be an iterated tensor; its internal slots are
    # glued together, so merge positions are offset by the base depth
    bd = base_level.depth()

    faces = [None]
    for n in range(1, N + 1):
        lvl = levels[n]
        row = [lvl.join(bd + i) for i in range(n)] + [lvl.wrap()]
        lvl.check_descends(row, coqs[n - 1], n)
        faces.append([descend(m, coqs[n], coqs[n - 1]) for m in row])

    action = None
    if coeff_action is not None:
        ext_ops = {}

        def extended_op(n, k):
            # lift up from the highest cached degree; a loop, not recursion,
            # so the closure does not refer to itself and the cached
            # matrices die with the complex instead of waiting for the
            # cycle collector
            m = n
            while m >= 0 and (m, k) not in ext_ops:
                m -= 1
            if m < 0:
                m = 0
                ext_ops[(0, k)] = coeff_action(k)
            for j in range(m + 1, n + 1):
                ext_ops[(j, k)] = levels[j].lift(ext_ops[(j - 1, k)], levels[j])
            return ext_ops[(n, k)]

        def action(n, k):
            return descend(extended_op(n, k), coqs[n], coqs[n])

    out = PresimplicialModule(dims, faces, coeff=coeff, action=action, name=name)
    out.tower = tower
    out.coinv = coqs
    out.levels = levels
    out.verify_presimplicial()
    return out


def l2_complex(fsq: FiberSquareAlgebra, N: int) -> PresimplicialModule:
    """Square-coefficient Hochschild complex of the extension A/B whose
    fiber square is fsq (fsq.tensor.ext), a module over the fiber square.

    At finite scale the weak closure of the fiber square is the fiber
    square itself, so the coefficient bimodule is the balanced square with
    its operator action.  Carries the insert-a-unit contracting homotopy
    and the wrap augmentation onto A/[B, A].
    """
    sq = fsq.tensor.level
    out = hochschild_complex(sq, N, coeff=fsq, coeff_action=lambda k: fsq.ops[k],
                             name="L2(%s)" % fsq.tensor.ext.name)
    tower = out.tower
    coqs = out.coinv

    # the augmentation a (x) c -> c a onto A/[B, A] is the wrap of the
    # square; its section is a -> a (x) 1
    ab_quot = sq.prev.coinvariants()
    aug = descend(sq.wrap(), coqs[0], ab_quot)
    insert = sq.unit_insertion()
    sec = descend(insert, ab_quot, coqs[0])

    # a_0 (x) a_1 (x) ... -> a_0 (x) 1 (x) a_1 (x) ...: the unit is inserted
    # inside the square coefficient, pushing its second slot outward
    base_insert = sq.lift(insert, tower.level(1))

    h = {}
    for n in range(0, N):
        ins = tower.insert_unit(n, base_insert)
        h[n] = descend(ins, coqs[n], coqs[n + 1])
    homotopy = ContractingHomotopy(h, aug, sec)
    homotopy.verify(out.boundary(), max(N - 1, 0))
    out.homotopy = homotopy
    return out


def bar_complex(ext: Extension, N: int):
    """The two-sided bar resolution of A by balanced powers.

    Returns the presimplicial module.  Its contracting homotopy, which holds
    the augmentation K_0 -> A, is verified and kept as .homotopy.
    """
    tower = algebra_tower(ext)
    levels = [tower.level(n + 1) for n in range(N + 1)]
    dims = [l.dim for l in levels]
    faces = [None]
    for n in range(1, N + 1):
        faces.append([levels[n].join(i) for i in range(n + 1)])

    bp = tower.level(1).unit_insertion(front=True)
    aug = tower.level(1).join(0)
    h = {}
    for n in range(0, N):
        h[n] = tower.prepend_unit(n + 1, bp)
    homotopy = ContractingHomotopy(h, aug, bp)

    out = PresimplicialModule(dims, faces, name="bar(%s)" % ext.name,
                              homotopy=homotopy)
    out.tower = tower
    out.levels = levels
    out.verify_presimplicial()
    homotopy.verify(out.boundary(), max(N - 1, 0))
    return out


# ---------------------------------------------------------------------------
# homology


@dataclass
class HomologyModule:
    """H_n = ker d_n / im d_{n+1}.  Where it is nonzero, image is the
    untracked echelon of im d_{n+1}, and cycles an echelon complement of it
    in ker d_n whose vectors are reduced modulo image."""

    degree: int
    dim: int
    rank_lower: int           # rank of d_n
    rank_upper: int           # rank of d_{n+1}
    method: str
    presimp: PresimplicialModule = field(repr=False, default=None)
    image: Echelon = field(repr=False, default=None)
    cycles: SpanBasis = field(repr=False, default=None)

    def action_matrices(self) -> dict:
        """k -> action_matrix(k) for k in the support of c^{-1}, the only
        matrices betti.vn_dimension reads."""
        return {k: self.action_matrix(k) for k in self.presimp.coeff.inverse_casimir()}

    def action_matrix(self, k) -> GMatrix:
        """The matrix of e_k on cycles.vectors modulo the image.  The chain
        action acts on H_n by the certificates in the module docstring;
        that each image of a basis cycle is a cycle is checked here."""
        act = self.presimp.action(self.degree, k)
        cols = []
        for x in self.cycles.vectors:
            c = self.cycles.coords(self.image.reduce(act.apply(x))[0])
            if c is None:
                raise AssertionError("coefficient action does not preserve "
                                     "homology: an image leaves the cycles")
            cols.append(c)
        return GMatrix.from_cols(self.dim, cols)


def homology(p: PresimplicialModule, n: int, method="auto") -> HomologyModule:
    """H_n = ker d_n / im d_{n+1}.

    method "elimination" computes kernels and images by sparse exact
    elimination; where H_n is nonzero, each kernel vector is reduced
    modulo the image and the independent residues, cycles themselves, are
    kept until there are dim H_n of them.  Columns of d_{n+1} stop entering
    the image's echelon once its rank reaches dim ker d_n.  That stop is
    exact: boundary(), called first, certified d_n d_{n+1} = 0 (face
    identities verified, or d o d checked directly), so im d_{n+1} lies in
    ker d_n and its rank cannot exceed dim ker d_n; at equality it is
    rank d_{n+1} and H_n = 0.  The stop can fire only where H_n = 0, so
    wherever H_n is nonzero the image holds all of im d_{n+1}, which
    action_matrix reduces by.  "split" uses the verified
    contracting homotopy.  There d h + h d = 1 is verified at degrees
    0..n and d o d = 0 is implied by the verified face identities (or
    checked by boundary()).  Together they imply that e = d_{n+1} h_n is
    idempotent, with image exactly ker d_n = im d_{n+1}, so tr(e) pins both
    ranks and H_n = 0; e e = e is therefore not checked, and e is not even
    formed.
    """
    if n + 1 > p.N:
        raise ValueError("homology at degree %d needs spaces up to %d" % (n, n + 1))
    chain = p.boundary()
    d_hi = chain.d[n + 1]
    d_lo = chain.d.get(n)

    if method == "auto":
        if p.homotopy is not None and n >= 1 and d_hi.cols > ELIMINATION_LIMIT:
            method = "split"
        else:
            method = "elimination"

    if method == "split":
        if p.homotopy is None:
            raise ValueError("split method needs a contracting homotopy")
        p.homotopy.verify(chain, n)
        # e = d_{n+1} h_n is idempotent without checking e e = e: d h + h d
        # = 1 at degree n (just verified) and d_n d_{n+1} = 0 (verified by
        # boundary()) give e d_{n+1} = d_{n+1} - h_{n-1} d_n d_{n+1} =
        # d_{n+1}, so e e = (e d_{n+1}) h_n = e.  Only its trace is needed,
        # sum_j sum_k d[j, k] h[k, j], so e itself is never formed; on
        # index maps it is summed in ints.
        d, h = common_form(d_hi, p.homotopy.h[n])
        if isinstance(d, IndexSum):
            tr = gs(index_trace(d, h))
        else:
            tr = ZERO
            for j, hcol in enumerate(h.col):
                for k, x in hcol.items():
                    y = d.col[k].get(j)
                    if y is not None:
                        tr = tr + y * x
        if not (tr.is_real() and tr.re.denominator == 1):
            raise AssertionError("split certificate has a non-integral trace")
        r_hi = int(tr.re)
        ker_dim = r_hi                      # ker d_n = im e
        r_lo = p.dims[n] - ker_dim
        dim_h = ker_dim - r_hi
        if dim_h != 0:
            raise AssertionError("split certificate leaves homology")
        return HomologyModule(n, 0, r_lo, r_hi, "split", p)

    # elimination
    if n == 0:
        ker = GMatrix.identity(p.dims[0])
        r_lo = 0
    else:
        ker = kernel_basis(as_matrix(d_lo))
        r_lo = p.dims[n] - ker.cols
    # d o d = 0 (certified by boundary()) caps the image at dim ker d_n
    image = Echelon()
    for c in as_matrix(d_hi).col:
        if image.rank == ker.cols:
            break
        image.insert(c)
    r_hi = image.rank
    dim_h = ker.cols - r_hi
    if dim_h == 0:
        return HomologyModule(n, 0, r_lo, r_hi, "elimination", p)
    cycles = SpanBasis()
    for v in ker.col:
        if cycles.dim == dim_h:
            break
        cycles.add(image.reduce(v)[0])
    if cycles.dim != dim_h:
        raise AssertionError("homology basis has %d vectors, not %d"
                             % (cycles.dim, dim_h))
    return HomologyModule(n, dim_h, r_lo, r_hi, "elimination", p, image, cycles)
