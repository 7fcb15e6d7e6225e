"""Exact linear algebra over the scalar carriers: column spaces K^n,
semilinear maps, and subspace lattices.

Conventions (chosen once, used everywhere):

* K^n is a left module; scalars multiply vectors componentwise on the
  left.
* A semilinear map is a matrix, held as its row supports, plus a ring
  automorphism theta, and acts as ``f(v)_i = sum_j M[i][j] *
  theta(v_j)`` -- theta hits coordinates first, then the matrix.  With
  this convention composition satisfies ``matrix(f o g) = M_f *
  theta_f(M_g)`` and ``theta(f o g) = theta_f o theta_g``.
* Matrix-backed maps require a commutative ring: with entries acting on
  the left, the semilinear law f(a v) = theta(a) f(v) only holds when
  scalars commute.  The quaternions keep full ring-level support but
  are rejected here.
* Subspaces are canonicalized to reduced row echelon bases, so equality
  of subspaces is equality of tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import and_, or_
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    GlatticeError,
    InfiniteCarrier,
    NonCommutativeCarrier,
    NotInvertible,
    NotLatticeAutomorphism,
    SpaceMismatch,
    TooLarge,
)
from .lattice import (
    _AUT_GROUP_LIMIT,
    LatticeAutomorphism,
    SetLattice,
    _order_violation,
    automorphism_closure,
)
from .scalar import RingAutomorphism, list_automorphisms

_SUBSPACE_ENUM_LIMIT = 5000
# subspaces of L(GF(q)^n), counted before any basis is built: admits
# L(GF(7)^4) (3652) and L(GF(8)^4) (5917), each within 2 s (README.md)
_SUBSPACE_COUNT_LIMIT = 6000


class VectorSpace:
    """K^n for a division ring K."""

    __slots__ = ("ring", "dim")

    def __init__(self, ring, dim):
        if dim < 1:
            raise DimensionMismatch("dimension must be >= 1")
        self.ring = ring
        self.dim = dim

    def zero_vector(self):
        z = self.ring.zero()
        return (z,) * self.dim

    def basis_vector(self, i):
        z, one = self.ring.zero(), self.ring.one()
        return tuple(one if j == i else z for j in range(self.dim))

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def vector(self, coords):
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return tuple(self.ring.scalar(c) for c in coords)

    def all_vectors(self):
        if not self.ring.is_finite():
            raise InfiniteCarrier(f"{self.ring}^{self.dim} is infinite")
        return [tuple(v) for v in itertools.product(self.ring.elements(), repeat=self.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, VectorSpace)
            and self.ring == other.ring
            and self.dim == other.dim
        )

    def __hash__(self):
        return hash((self.ring, self.dim))

    def __repr__(self):
        return f"{self.ring!r}^{self.dim}"


def add_vectors(u, v):
    return tuple(a + b for a, b in zip(u, v))

def scale_vector(a, v):
    return tuple(a * b for b in v)


def rref(rows, ring):
    """Reduced row echelon form by exact Gaussian elimination.

    Returns (rows, pivots): nonzero echelon rows with leading 1s and
    cleared pivot columns, plus the pivot column of each row.
    """
    rows = [list(r) for r in rows]
    pivots = []
    pivot_row = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead_inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [lead_inv * x for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pivot_row]), tuple(pivots)


def matrix_rank(matrix, ring):
    return len(rref(matrix, ring)[0])


def matrix_inverse(matrix, ring):
    n = len(matrix)
    zero, one = ring.zero(), ring.one()
    augmented = [
        list(matrix[i]) + [one if j == i else zero for j in range(n)]
        for i in range(n)
    ]
    reduced, pivots = rref(augmented, ring)
    if len(reduced) < n or list(pivots) != list(range(n)):
        raise NotInvertible("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def mat_mul(a, b):
    """Dense matrix product; the reference ``SemilinearMap.compose`` is
    tested against."""
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, mid):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def identity_matrix(space):
    zero, one = space.ring.zero(), space.ring.one()
    return tuple(
        tuple(one if i == j else zero for j in range(space.dim))
        for i in range(space.dim)
    )


class SemilinearMap:
    """A matrix together with a ring automorphism it twists scalars by.

    A map is held as its row supports, ``_rows``: for each row, the
    ``(column, entry)`` pairs of its nonzero entries in column order.
    They are the map's one representation: all but ``rank``,
    ``inverse`` and ``repr`` read them, so a monomial matrix (the
    regular representation has one nonzero entry per row) costs O(n)
    per product instead of O(n^3), and the dense ``matrix`` is built
    from them on every read, never kept.

    A monomial map, one nonzero entry per row in pairwise distinct
    columns, also has a monomial view (``_monomial``), read once from
    the row supports: per row, the column of its one entry and, over
    GF(q) with exp/log tables (q <= 5000), the log of that entry.
    ``is_invertible`` reads the view's existence, and
    ``rep.extract_cocycle`` decides a family of such maps on these ints
    without composing any of them.
    """

    __slots__ = ("space", "theta", "_rows", "_rank", "_mono")

    def __init__(self, space, matrix, theta=None):
        if not space.ring.is_commutative():
            raise NonCommutativeCarrier(
                "matrix-backed semilinear maps need a commutative scalar ring"
            )
        matrix = tuple(tuple(space.ring.scalar(x) for x in row) for row in matrix)
        if len(matrix) != space.dim or any(len(row) != space.dim for row in matrix):
            raise DimensionMismatch(f"matrix must be {space.dim}x{space.dim}")
        theta = theta or RingAutomorphism.identity(space.ring)
        if theta.ring != space.ring:
            raise SpaceMismatch("automorphism belongs to a different ring")
        self.space = space
        self.theta = theta
        self._rows = tuple(
            tuple((j, x) for j, x in enumerate(row) if not x.is_zero()) for row in matrix
        )
        self._rank = self._mono = None

    @classmethod
    def _from_rows(cls, space, rows, theta):
        """The map with these row supports, whose entries are already
        checked nonzero scalars of the space's ring in column order."""
        f = object.__new__(cls)
        f.space, f.theta, f._rows = space, theta, rows
        f._rank = f._mono = None
        return f

    @property
    def matrix(self):
        """The dense matrix, built from the row supports on every read."""
        zero, n = self.space.ring.zero(), self.space.dim
        matrix = []
        for row in self._rows:
            dense = [zero] * n
            for j, x in row:
                dense[j] = x
            matrix.append(tuple(dense))
        return tuple(matrix)

    def _monomial(self):
        """The monomial view ``(columns, logs)``, or None unless every row
        has exactly one nonzero entry and the columns are pairwise
        distinct.  Per row, ``columns`` holds the column of that entry
        and ``logs`` its discrete log, or ``logs`` is None when the ring
        has no exp/log tables.  Built on first use and kept."""
        if self._mono is None:
            rows = self._rows
            self._mono = False
            if all(len(row) == 1 for row in rows):
                columns = tuple(row[0][0] for row in rows)
                if len(set(columns)) == len(columns):
                    logs = None
                    if self.space.ring.has_log_tables():
                        _, log = self.space.ring._log_tables()
                        logs = tuple(log[row[0][1].payload] for row in rows)
                    self._mono = (columns, logs)
        return self._mono or None

    def apply(self, v):
        if len(v) != self.space.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.space.dim}")
        tv = [self.theta(x) for x in v]
        zero = self.space.ring.zero()
        out = []
        for row in self._rows:
            acc = zero
            for j, x in row:
                acc = acc + x * tv[j]
            out.append(acc)
        return tuple(out)

    def __call__(self, v):
        return self.apply(v)

    def compose(self, other):
        """self after other: matrix M_self * theta_self(M_other), twist
        theta_self o theta_other.

        Only the nonzero entries of ``other`` are twisted, and the
        product runs over the two row supports, so it equals the dense
        ``mat_mul(self.matrix, twisted)`` entry by entry.
        """
        if self.space != other.space:
            raise SpaceMismatch("maps live on different spaces")
        theta = self.theta
        twisted = other._rows
        if not theta.is_identity():
            twisted = [[(j, theta(x)) for j, x in row] for row in twisted]
        rows = []
        for row in self._rows:
            acc = {}
            for t, a in row:
                for j, b in twisted[t]:
                    term = a * b
                    acc[j] = acc[j] + term if j in acc else term
            rows.append(tuple((j, acc[j]) for j in sorted(acc) if not acc[j].is_zero()))
        return SemilinearMap._from_rows(self.space, tuple(rows), theta.compose(other.theta))

    def scale(self, a):
        """The map v -> a * self(v)."""
        a = self.space.ring.scalar(a)
        if a.is_zero():
            rows = ((),) * self.space.dim
        else:
            rows = tuple(tuple((j, a * x) for j, x in row) for row in self._rows)
        return SemilinearMap._from_rows(self.space, rows, self.theta)

    def rank(self):
        if self._rank is None:
            self._rank = matrix_rank(self.matrix, self.space.ring)
        return self._rank

    def is_invertible(self):
        """Whether the matrix has full rank.  A monomial matrix, one
        nonzero entry per row in pairwise distinct columns, has a
        monomial view and is invertible; any other matrix is row
        reduced."""
        if self._monomial() is not None:
            return True
        return self.rank() == self.space.dim

    def inverse(self):
        if not self.is_invertible():
            raise NotInvertible("map is not a semilinear automorphism")
        theta_inv = self.theta.inverse()
        inv = matrix_inverse(self.matrix, self.space.ring)
        back = tuple(tuple(theta_inv(x) for x in row) for row in inv)
        return SemilinearMap(self.space, back, theta_inv)

    def is_identity(self):
        one = self.space.ring.one()
        return self.theta.is_identity() and all(
            row == ((r, one),) for r, row in enumerate(self._rows)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.space == other.space
            and self._rows == other._rows
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.space, self._rows, self.theta))

    def __repr__(self):
        return f"SemilinearMap({self.matrix!r}, theta={self.theta!r})"


def identity_map(space):
    return SemilinearMap(space, identity_matrix(space))


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A submodule of K^n, held as a canonical reduced-row-echelon basis."""

    __slots__ = ("space", "basis", "pivots")

    def __init__(self, space, rows):
        reduced, pivots = rref(rows, space.ring)
        self.space = space
        self.basis = reduced
        self.pivots = pivots

    @classmethod
    def _reduced(cls, space, basis, pivots):
        """The subspace with this basis, already in reduced row echelon
        form with these pivot columns: no elimination runs."""
        w = object.__new__(cls)
        w.space, w.basis, w.pivots = space, basis, pivots
        return w

    @classmethod
    def from_vectors(cls, space, vectors):
        return cls(space, [space.vector(v) for v in vectors])

    @classmethod
    def zero(cls, space):
        return cls(space, [])

    @classmethod
    def full(cls, space):
        return cls(space, identity_matrix(space))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.space.dim:
            raise DimensionMismatch("vector has the wrong length")
        v = list(v)
        for row, pivot in zip(self.basis, self.pivots):
            coeff = v[pivot]
            if not coeff.is_zero():
                for j in range(len(v)):
                    v[j] = v[j] - coeff * row[j]
        return all(x.is_zero() for x in v)

    def leq(self, other):
        return all(other.contains(row) for row in self.basis)

    def meet(self, other):
        """Intersection, via the Zassenhaus double-block reduction."""
        if self.space != other.space:
            raise SpaceMismatch("subspaces of different spaces")
        n = self.space.dim
        zero_row = self.space.zero_vector()
        block = [tuple(row) + tuple(row) for row in self.basis]
        block += [tuple(row) + zero_row for row in other.basis]
        if not block:
            return Subspace.zero(self.space)
        reduced, _ = rref(block, self.space.ring)
        inter = [row[n:] for row in reduced if all(x.is_zero() for x in row[:n])]
        return Subspace(self.space, inter)

    def join(self, other):
        if self.space != other.space:
            raise SpaceMismatch("subspaces of different spaces")
        return Subspace(self.space, list(self.basis) + list(other.basis))

    def annihilator(self):
        """W^perp = {x : sum_j x_j w_j = 0 for all w in W}, of dimension n - dim W.

        Read off the reduced basis: one solution per free column f, with
        x_f = 1 and x at each pivot set to minus that row's entry in f.
        """
        ring = self.space.ring
        if not ring.is_commutative():
            raise NonCommutativeCarrier("annihilators need a commutative scalar ring")
        n = self.space.dim
        rows = []
        for f in range(n):
            if f in self.pivots:
                continue
            x = [ring.zero()] * n
            x[f] = ring.one()
            for row, pivot in zip(self.basis, self.pivots):
                x[pivot] = -row[f]
            rows.append(tuple(x))
        return Subspace(self.space, rows)

    def sort_key(self):
        return (
            self.dim,
            tuple(tuple(x.sort_key() for x in row) for row in self.basis),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.space == other.space
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.space, self.basis))

    def __repr__(self):
        if self.dim == 0:
            return "span{}"
        rows = ";".join("(" + ",".join(repr(x) for x in row) + ")" for row in self.basis)
        return "span{" + rows + "}"


def map_subspace(f, subspace):
    """Image of a subspace under an invertible semilinear map."""
    if f.space != subspace.space:
        raise SpaceMismatch("map and subspace live on different spaces")
    if not f.is_invertible():
        raise NotInvertible("images of subspaces need an invertible map")
    return Subspace(f.space, [f.apply(row) for row in subspace.basis])


@functools.cache
def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class SubspaceLattice(SetLattice):
    """The lattice L(V) of all subspaces of a finite vector space
    V = GF(q)^n.

    ``bases`` lists every subspace once, in lattice order, as its
    reduced row echelon basis in element coordinates: ``(rows,
    pivots)``, each row a tuple of element indices over ``range(q)``
    and ``pivots`` its pivot columns.  The payloads are the
    ``Subspace`` objects of those bases, built without elimination when
    first read.

    It is the set lattice of the points (1-dimensional subspaces) each
    subspace contains, bit i for the point at index i: ``masks`` lists
    them by index, ``by_mask`` inverts it and ``points`` lists the point
    indices, ``point_rows`` their canonical rows (element-index tuples)
    in the same order and ``point_of`` maps each such row back to its
    point index.  A mask is spanned on element indices with the ring's
    add/mul index tables, which only n >= 2 needs (and there q <= 70);
    the masks must be pairwise distinct, so two bases that span one
    subspace raise first.  ``orth[p]`` is the mask of the points whose
    dot product with point p is zero, computed apart from the masks.

    Construction certifies, in one pass over the points of every
    subspace, that the masks are exactly the point sets of L(V) and that
    W -> W^perp reverses inclusion (``_certificate_failure``).  Every
    basis row is a point, so ``_perp[x]``, the point mask of W^perp for
    the subspace W at x, is the AND of ``orth[r]`` over the rows r of W;
    phi[x] is the element with that mask.  The certificate checks that
    the family has as many members as L(V) has subspaces (the Gaussian
    binomials), that phi is total and an involution, that perp[p] ==
    orth[p] for every point p, and that perp[x] is the AND, over the
    points p of x, of perp[p], starting from the set of all points.
    Since masks[phi[x]] == perp[x], then:

    * phi reverses inclusion both ways.  x <= y gives phi[y] <= phi[x],
      since the AND over more points is smaller, and the same applied
      to phi[y] <= phi[x] gives back x <= y.
    * Each mask is a subspace's point set.  Applied to phi[x], with
      phi[phi[x]] == x and perp[t] == orth[t], the identity reads
      masks[x] = AND(orth[t] for t in points of phi[x]); orth[t], read
      off dot products apart from the masks, is the point set of
      t^perp, and an intersection of subspaces is one (Veblen & Young,
      *Projective Geometry*, vol. 1, ch. 1).
    * So the pairwise distinct masks, as many as L(V) has subspaces,
      are all of L(V): the family is closed under intersection and holds
      its union V, so it is a lattice whose meet is the intersection
      (Davey & Priestley, *Introduction to Lattices and Order*, chs. 2
      and 7).  An order-reversing involution turns meets into joins, so
      ``join[x][y] = phi[meet[phi[x]][phi[y]]]``, the sum
      ``(W1^perp meet W2^perp)^perp``, and the covers of W are
      W + <p> = phi(phi W meet phi p) for the points p outside W.
    * A row that permutes the points and equals their lift
      ``_induced_row``, which sends every mask to the mask of its moved
      points, keeps inclusion both ways and is injective, since the
      masks are distinct: axiom (3) accepts it without the up-set masks.

    The bases come from ``enumerate_subspaces`` alone, so a failed
    certificate is a bug in the enumeration: GlatticeError with the
    first failing clause and its witness.  A row the point check does
    not accept goes to ``_order_violation``, which reads the up-set
    masks.

    ``labels`` are the ``repr`` of the payloads, written from a table of
    element reprs over the index rows; ``index_of`` reads a dictionary
    from reduced basis to index that is built when first needed.
    """

    def __init__(self, space, bases):
        ring, n = space.ring, space.dim
        self.space = space
        self._bases = bases
        point_of = {rows[0]: i for i, (rows, _) in enumerate(bases) if len(rows) == 1}
        # L(K^1) = {0, K} needs no arithmetic; for n >= 2, q^2 <= q^n <= 5000
        add, mul = ring._index_tables() if n > 1 else (None, None)
        members = _point_sets(bases, point_of, add, mul, ring.order)
        masks = tuple([functools.reduce(or_, map((1).__lshift__, points), 0) for points in members])
        by_mask = {}
        for x, mask in enumerate(masks):
            if mask in by_mask:
                raise GlatticeError(
                    f"enumeration bug: bases {by_mask[mask]} and {x} span one subspace",
                    witness=(by_mask[mask], x),
                )
            by_mask[mask] = x
        orth = _orthogonality(point_of, n, add, mul)
        perp = _annihilator_masks(bases, point_of, orth)
        phi = [by_mask.get(mask) for mask in perp]
        count = sum(gaussian_binomial(n, k, ring.order) for k in range(n + 1))
        failure = _certificate_failure(phi, perp, members, orth, count)
        if failure is not None:
            raise GlatticeError(f"enumeration bug: {failure[0]}", witness=failure[1])
        self.size = len(masks)
        self.masks = masks
        self.by_mask = by_mask
        self._perp = perp
        self._phi = phi
        self.points = tuple(point_of.values())
        self.point_rows = tuple(point_of)
        self.point_of = point_of

    @functools.cached_property
    def _elements(self):
        """The ring's elements by index, listed when first needed."""
        return self.space.ring.elements()

    @functools.cached_property
    def payloads(self):
        """The ``Subspace`` of each basis, built when first read.  Every
        reduced row is a canonical point row, so each is converted once."""
        elements = self._elements
        rows = {row: tuple(map(elements.__getitem__, row)) for row in self.point_rows}
        return tuple(
            Subspace._reduced(self.space, tuple(map(rows.__getitem__, basis)), pivots)
            for basis, pivots in self._bases
        )

    @functools.cached_property
    def labels(self):
        """``Subspace.__repr__`` of each payload, written from the repr of
        each element index in use and each point row once, when first
        read."""
        elements = self._elements
        names = {i: repr(elements[i]) for i in set().union(*self.point_rows)}
        rows = {row: "(" + ",".join(map(names.__getitem__, row)) + ")" for row in self.point_rows}
        return tuple("span{" + ";".join(map(rows.__getitem__, basis)) + "}" for basis, _ in self._bases)

    @functools.cached_property
    def join(self):
        """The join table through the duality: x v y = phi(phi x ^ phi y),
        the meet read off the annihilator masks row by row."""
        phi, get, perp = self._phi, self.by_mask.__getitem__, self._perp
        return tuple(tuple(map(phi.__getitem__, map(get, map(a.__and__, perp)))) for a in perp)

    def covers(self):
        """Pairs (x, y) with y covering x: the covers of x are
        x v p = phi(phi x ^ phi p) for the points p outside x."""
        phi, by_mask, masks, perp = self._phi, self.by_mask, self.masks, self._perp
        everything = perp[0]  # phi of the zero subspace is V
        out = []
        for x, mask in enumerate(masks):
            above = []
            # each cover y = x v p takes the points p outside x that lie in y
            rest = everything & ~mask
            while rest:
                y = phi[by_mask[perp[x] & perp[(rest & -rest).bit_length() - 1]]]
                above.append(y)
                rest &= ~masks[y]
            out += [(x, y) for y in sorted(above)]
        return out

    def _row_violation(self, row):
        """None at once for a row that permutes the points and is the
        lift ``_induced_row`` of that permutation; else
        ``_order_violation``."""
        if sorted(row[p] for p in self.points) == list(self.points):
            try:
                if self._induced_row(row) == list(row):
                    return None
            except NotLatticeAutomorphism:
                pass
        return _order_violation(self, row)

    @functools.cached_property
    def _index(self):
        """The index of each subspace, by its reduced basis."""
        return {sub.basis: i for i, sub in enumerate(self.payloads)}

    def index_of(self, subspace):
        return self._index[subspace.basis]

    def point_image(self, f):
        """Where the semilinear map f sends each point, as a dict from
        point index to point index, moved on element indices.

        Each point row v goes to ``out[r] = sum_j M[r][j] * theta(v_j)``,
        summed over the row support of r through the ring's add/mul index
        tables, is scaled by the index inverse of its first nonzero entry,
        and is looked up in ``point_of``.  NotInvertible at the first
        point, in ``points`` order, that goes to zero, which happens
        exactly when f is singular: its kernel is a nonzero subspace and
        so holds a point.  L(K^1) has the one point <1>, which goes to
        itself unless row 0 is empty; it needs no tables, which would
        hold q^2 entries.  ``coordinatize`` knows each point's target,
        so it scales and looks up nothing: it tests that the image is a
        nonzero multiple of the target row (``_frame``).
        """
        if f.space != self.space:
            raise SpaceMismatch("map and lattice live on different spaces")
        if self.space.dim == 1:
            if not f._rows[0]:
                raise NotInvertible("images of subspaces need an invertible map")
            return {i: i for i in self.points}
        ring = self.space.ring
        add, mul = ring._index_tables()
        inv = ring._index_inverses()
        # per row, its support with the mul row of each entry: mul[x][a] is x * a
        rows = [[(j, mul[x.index()]) for j, x in row] for row in f._rows]
        twist = None if f.theta.is_identity() else ring._frobenius_indices(f.theta.power)
        point_of = self.point_of
        image = {}
        for i, v in zip(self.points, self.point_rows):
            if twist is not None:
                v = [twist[a] for a in v]
            out = []
            for row in rows:
                acc = 0
                for j, times in row:
                    acc = add[acc][times[v[j]]]
                out.append(acc)
            lead = next((a for a in out if a), 0)
            if not lead:
                raise NotInvertible("images of subspaces need an invertible map")
            if lead != 1:
                scale = mul[inv[lead]]
                out = [scale[a] for a in out]
            image[i] = point_of[tuple(out)]
        return image

    @functools.cached_property
    def _frame(self):
        """The per-lattice data ``coordinatize`` reads, formed on its
        first call on this lattice (n >= 2 only): the frame points, each
        point's leading column and canonical row, each twist's point rows
        and the index of -1 (``_Frame``).  O(k N) entries for k twists
        and N points; no table of the q^n vectors."""
        ring, n = self.space.ring, self.space.dim
        point_of, point_rows = self.point_of, self.point_rows
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        frame = tuple(point_of[row] for row in unit) + (point_of[(1,) * n],)
        # a canonical row's first nonzero entry is index 1, the one
        rows = {p: (row.index(1), row) for p, row in zip(self.points, point_rows)}
        twists = []
        for theta in list_automorphisms(ring):
            if theta.is_identity():
                twists.append((theta, point_rows))
            else:
                twist = ring._frobenius_indices(theta.power)
                twists.append((theta, tuple([tuple([twist[a] for a in v]) for v in point_rows])))
        add, _ = ring._index_tables()
        return _Frame(frame, rows, tuple(twists), add[1].index(0))

    def automorphism_order(self):
        """|Aut L(GF(q)^n)| in closed form: 1 for n = 1, (q + 1)! for
        n = 2 (every permutation of the q + 1 points), and
        |PGammaL(n, q)| = |GL(n, q)| / (q - 1) * k for n >= 3 and
        q = p^k (the fundamental theorem of projective geometry; Artin,
        *Geometric Algebra*, ch. II)."""
        n, q = self.space.dim, self.space.ring.order
        if n == 1:
            return 1
        if n == 2:
            return math.factorial(q + 1)
        return general_linear_order(n, q) // (q - 1) * (self.space.ring.k or 1)

    def automorphism_generators(self):
        """Checked automorphisms that generate Aut L(V).

        n = 1: none.  n = 2: a transposition and a (q + 1)-cycle of the
        points.  n >= 3: the maps induced by I + E_12, the swap of the
        first two coordinates, the cyclic shift of the coordinates and
        diag(w, 1, ..., 1) for the first primitive w, which generate
        GL(V) (transvections generate SL(V)), and over GF(p^k), k > 1,
        the Frobenius twist of the identity matrix.
        """
        n, ring = self.space.dim, self.space.ring
        if n == 1:
            return []
        points = list(self.points)
        if n == 2:
            swap = [points[1], points[0]] + points[2:]
            cycle = points[1:] + points[:1]
            images = (dict(zip(points, image)) for image in (swap, cycle))
            return [LatticeAutomorphism(self, self._induced_row(image)) for image in images]
        zero, one = ring.zero(), ring.one()
        unit = [[one if i == j else zero for j in range(n)] for i in range(n)]
        transvection = [row[:] for row in unit]
        transvection[0][1] = one
        swap = [unit[1], unit[0]] + unit[2:]
        shift = unit[1:] + unit[:1]
        scaling = [row[:] for row in unit]
        scaling[0][0] = ring.exp(1)  # a unit of order q - 1
        maps = [SemilinearMap(self.space, m) for m in (transvection, swap, shift, scaling)]
        if ring.k:
            maps.append(SemilinearMap(self.space, unit, RingAutomorphism.frobenius(ring, 1)))
        return [LatticeAutomorphism(self, self._induced_row(self.point_image(f))) for f in maps]

    def _closed_automorphism_group(self):
        """Aut L(V): the generators closed and counted against the
        closed-form order, which is capped before any generator is built."""
        order = self.automorphism_order()
        if order > _AUT_GROUP_LIMIT:
            raise TooLarge(
                f"|Aut L(V)| = {order} exceeds the automorphism-group cap {_AUT_GROUP_LIMIT}"
            )
        return automorphism_closure(self, self.automorphism_generators(), order)


class _Frame(NamedTuple):
    """What ``coordinatize`` reads of a subspace lattice on every call
    (``SubspaceLattice._frame``)."""

    frame_points: tuple  # the point indices of <e_1>, ..., <e_n>, <e_1 + ... + e_n>
    rows: dict  # point index -> (leading column, canonical row)
    twists: tuple  # (theta, the point rows twisted, in ``points`` order), in list_automorphisms order
    minus_one: int  # the index of -1


def _rref_bases(n, q, k):
    """Every reduced row echelon basis of a k-dimensional subspace of
    GF(q)^n, as ``(rows, pivots)``: each row a tuple of element indices
    (index 0 is zero and index 1 is one in every finite ring), pivots
    its pivot columns.  No field arithmetic runs."""
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free_slots, values):
                rows[i][j] = val
            yield tuple(map(tuple, rows)), pivots


def _point_sets(bases, point_of, add, mul, q):
    """The indices of the points inside the span of each basis, each
    once when the rows are independent.

    The combinations of reduced rows whose first nonzero coefficient is
    1 are already canonical point rows: the one with c_t = 1 and c_s = 0
    for s < t is rows[t] plus a vector of the span of rows[t + 1:].  So
    the points are spanned from the last row up, on element indices
    through the ``add``/``mul`` index tables, and looked up in
    ``point_of`` (canonical row to point index).  A basis of at most one
    row needs no arithmetic.
    """
    out = []
    for rows, _ in bases:
        if len(rows) < 2:
            out.append([point_of[rows[0]]] if rows else [])
            continue
        span = [(0,) * len(rows[0])]  # the span of rows[t + 1:]
        members = []
        for t in reversed(range(len(rows))):
            row = rows[t]
            members += [point_of[tuple([add[a][b] for a, b in zip(row, v)])] for v in span]
            if t:
                multiples = [tuple([mul[c][a] for a in row]) for c in range(1, q)]
                span += [tuple([add[a][b] for a, b in zip(w, v)]) for w in multiples for v in span]
        out.append(members)
    return out


def _orthogonality(point_of, n, add, mul):
    """orth[p]: the bitmask of the points whose dot product with point p
    is zero, for each point index p.  Dot products are symmetric, so
    each pair is computed once."""
    orth = dict.fromkeys(point_of.values(), 0)
    if n == 1:
        # the one point of K^1 is <1>, and 1 * 1 = 1
        return orth
    points = list(point_of.items())
    for i, (u, p) in enumerate(points):
        for v, r in points[i:]:
            dot = 0
            for a, b in zip(u, v):
                dot = add[dot][mul[a][b]]
            if dot == 0:
                orth[p] |= 1 << r
                orth[r] |= 1 << p
    return orth


def _annihilator_masks(bases, point_of, orth):
    """The point mask of W^perp for each basis of W: the points
    orthogonal to every basis row (each row is a point), and every
    point for W = 0."""
    all_points = sum(1 << p for p in orth)
    out = []
    for rows, _ in bases:
        mask = all_points
        for row in rows:
            mask &= orth[point_of[row]]
        out.append(mask)
    return out


def _certificate_failure(phi, perp, members, orth, count):
    """None when the certificate of ``SubspaceLattice`` holds, with
    ``members[x]`` the points of element x and ``perp[x]`` the point mask
    of its annihilator; else (message, witness) for the first clause to
    fail, in the docstring's order.  The witness is the member count for
    the count, the point for orth, else the first element that fails."""
    if len(members) != count:
        return f"{len(members)} subspaces, but L(V) has {count}", (len(members),)
    involution = "the annihilator masks are no order-reversing involution at element {}"
    if None in phi:
        x = phi.index(None)
        return involution.format(x) + ": no element has its annihilator mask", (x,)
    for x, y in enumerate(phi):
        if phi[y] != x:
            return involution.format(x), (x,)
    for p, mask in orth.items():
        if perp[p] != mask:
            return f"the annihilator of point {p} is not the points orthogonal to it", (p,)
    get, everything = perp.__getitem__, sum(1 << p for p in orth)
    for x, points in enumerate(members):
        if perp[x] != functools.reduce(and_, map(get, points), everything):
            return f"the annihilator of element {x} is not the AND over its points", (x,)
    return None


def subspace_refusal(n, q):
    """The TooLarge that ``enumerate_subspaces`` raises for GF(q)^n, or
    None when L(GF(q)^n) fits both caps: q^n <= 5000, then at most 6000
    subspaces."""
    if q**n > _SUBSPACE_ENUM_LIMIT:
        return TooLarge(f"q^n = {q ** n} exceeds {_SUBSPACE_ENUM_LIMIT}")
    count = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    if count > _SUBSPACE_COUNT_LIMIT:
        return TooLarge(f"{count} subspaces exceeds {_SUBSPACE_COUNT_LIMIT}")
    return None


def enumerate_subspaces(space):
    """Build L(V) for a finite field V = GF(q)^n with q^n <= 5000 and at
    most 6000 subspaces (counted by Gaussian binomials before any work).

    The bases are enumerated in element indices and each dimension's
    layer is sorted on them, which is the (dimension, basis) order of
    ``Subspace.sort_key``, since a finite element's sort key is its
    index.  Nothing here counts or compares the bases: the certificate
    of ``SubspaceLattice`` refuses two bases with one point set and a
    family with another count than L(V), so the family is all of L(V).
    """
    ring = space.ring
    if not ring.is_finite():
        raise InfiniteCarrier(f"cannot enumerate subspaces over {ring}")
    q, n = ring.order, space.dim
    refusal = subspace_refusal(n, q)
    if refusal is not None:
        raise refusal
    bases = [b for k in range(n + 1) for b in sorted(_rref_bases(n, q, k))]
    return SubspaceLattice(space, bases)


def general_linear_order(n, q):
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out
