"""Exact linear algebra over the scalar carriers: column spaces K^n,
semilinear maps, subspace lattices, and enumeration of SGL(V).

Conventions (chosen once, used everywhere):

* K^n is a left module; scalars multiply vectors componentwise on the
  left.
* A semilinear map is a matrix plus a ring automorphism theta and acts
  as ``f(v)_i = sum_j M[i][j] * theta(v_j)`` -- theta hits coordinates
  first, then the matrix.  With this convention composition satisfies
  ``matrix(f o g) = M_f * theta_f(M_g)`` and ``theta(f o g) =
  theta_f o theta_g``.
* Matrix-backed maps require a commutative ring: with entries acting on
  the left, the semilinear law f(a v) = theta(a) f(v) only holds when
  scalars commute.  The quaternions keep full ring-level support but
  are rejected here.
* Subspaces are canonicalized to reduced row echelon bases, so equality
  of subspaces is equality of tuples.
"""

from __future__ import annotations

import itertools

from .errors import (
    DimensionMismatch,
    InfiniteCarrier,
    NonCommutativeCarrier,
    NotInvertible,
    SpaceMismatch,
    TooLarge,
)
from .lattice import FiniteLattice
from .scalar import RingAutomorphism, list_automorphisms

_SUBSPACE_ENUM_LIMIT = 5000
_SGL_ENUM_LIMIT = 10**6


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
    """A matrix together with a ring automorphism it twists scalars by."""

    __slots__ = ("space", "matrix", "theta", "_rank")

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
        self.matrix = matrix
        self.theta = theta
        self._rank = None

    def apply(self, v):
        if len(v) != self.space.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.space.dim}")
        tv = [self.theta(x) for x in v]
        out = []
        for row in self.matrix:
            acc = row[0] * tv[0]
            for j in range(1, len(tv)):
                acc = acc + row[j] * tv[j]
            out.append(acc)
        return tuple(out)

    def __call__(self, v):
        return self.apply(v)

    def compose(self, other):
        """self after other."""
        if self.space != other.space:
            raise SpaceMismatch("maps live on different spaces")
        twisted = tuple(tuple(self.theta(x) for x in row) for row in other.matrix)
        return SemilinearMap(
            self.space, mat_mul(self.matrix, twisted), self.theta.compose(other.theta)
        )

    def scale(self, a):
        """The map v -> a * self(v)."""
        a = self.space.ring.scalar(a)
        return SemilinearMap(
            self.space,
            tuple(tuple(a * x for x in row) for row in self.matrix),
            self.theta,
        )

    def rank(self):
        if self._rank is None:
            self._rank = matrix_rank(self.matrix, self.space.ring)
        return self._rank

    def is_invertible(self):
        return self.rank() == self.space.dim

    def inverse(self):
        if not self.is_invertible():
            raise NotInvertible("map is not a semilinear automorphism")
        theta_inv = self.theta.inverse()
        inv = matrix_inverse(self.matrix, self.space.ring)
        back = tuple(tuple(theta_inv(x) for x in row) for row in inv)
        return SemilinearMap(self.space, back, theta_inv)

    def is_identity(self):
        return self.theta.is_identity() and self.matrix == identity_matrix(self.space)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.space == other.space
            and self.matrix == other.matrix
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.space, self.matrix, self.theta))

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

    def point_rows(self):
        """Canonical basis rows of the 1-dimensional subspaces inside this one.

        The first nonzero entry of ``sum(c_i * basis[i])`` is ``c_t`` at
        ``pivots[t]``, for the first t with ``c_t != 0``; so the
        combinations with ``c_t = 1`` are already in reduced form.
        """
        units = self.space.ring.units()
        span = [self.space.zero_vector()]  # span of basis[t + 1:]
        rows = []
        for t in reversed(range(self.dim)):
            rows.extend(add_vectors(self.basis[t], v) for v in span)
            if t:
                multiples = [scale_vector(c, self.basis[t]) for c in units]
                span += [add_vectors(w, v) for w in multiples for v in span]
        return rows

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


def subspace_count(n, q):
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


class SubspaceLattice(FiniteLattice):
    """The lattice L(V) of all subspaces of a finite vector space.

    ``subspaces`` must be the whole family.  Each subspace is held as
    the bitmask of the points (1-dimensional subspaces) it contains:
    the order is inclusion of point sets and the meet is their
    intersection.  The join is the sum, computed through annihilators
    as ``W1 + W2 = (W1^perp meet W2^perp)^perp``, so only m
    eliminations run.  The base class then cross-validates both tables
    against the bounds it recomputes from the order alone.
    """

    def __init__(self, space, subspaces):
        self.space = space
        self._index = {sub.basis: i for i, sub in enumerate(subspaces)}
        point_bit = {sub.basis[0]: 1 << i for i, sub in enumerate(subspaces) if sub.dim == 1}
        masks = [sum(point_bit[row] for row in sub.point_rows()) for sub in subspaces]
        by_mask = {mask: i for i, mask in enumerate(masks)}
        leq = [[mi & ~mj == 0 for mj in masks] for mi in masks]
        meet = [[by_mask[mi & mj] for mj in masks] for mi in masks]
        perp = [self._index[sub.annihilator().basis] for sub in subspaces]
        join = [[perp[meet[pi][pj]] for pj in perp] for pi in perp]
        super().__init__(
            leq,
            meet=meet,
            join=join,
            payloads=subspaces,
            labels=[repr(s) for s in subspaces],
        )

    def index_of(self, subspace):
        return self._index[subspace.basis]


def _rref_bases(space, k):
    """All canonical bases of k-dimensional subspaces, in a fixed order."""
    n, ring = space.dim, space.ring
    elements = ring.elements()
    zero, one = ring.zero(), ring.one()
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(elements, repeat=len(free_slots)):
            rows = [[zero] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = one
            for (i, j), val in zip(free_slots, values):
                rows[i][j] = val
            yield [tuple(r) for r in rows]


def enumerate_subspaces(space):
    """Build L(V) for a finite field V = GF(q)^n with q^n <= 5000.

    Subspaces come out in (dimension, basis) order.  The total count is
    checked against the Gaussian-binomial sum before the lattice is
    assembled.
    """
    ring = space.ring
    if not ring.is_finite():
        raise InfiniteCarrier(f"cannot enumerate subspaces over {ring}")
    if not ring.is_commutative():
        raise InfiniteCarrier("subspace enumeration needs a commutative carrier")
    q = ring.order
    if q**space.dim > _SUBSPACE_ENUM_LIMIT:
        raise TooLarge(f"q^n = {q ** space.dim} exceeds {_SUBSPACE_ENUM_LIMIT}")
    subspaces = []
    for k in range(space.dim + 1):
        layer = [Subspace(space, rows) for rows in _rref_bases(space, k)]
        layer.sort(key=Subspace.sort_key)
        expected = gaussian_binomial(space.dim, k, q)
        if len(layer) != len({s.basis for s in layer}) or len(layer) != expected:
            raise TooLarge(
                f"enumeration bug: got {len(layer)} subspaces of dim {k}, expected {expected}"
            )
        subspaces.extend(layer)
    return SubspaceLattice(space, subspaces)


# ---------------------------------------------------------------------------
# SGL(V)


def general_linear_order(n, q):
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _invertible_matrices(space):
    """All invertible matrices, in row-major lexicographic order."""
    n, ring = space.dim, space.ring
    all_rows = [tuple(v) for v in itertools.product(ring.elements(), repeat=n)]

    def extend(chosen, echelon):
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for row in all_rows:
            reduced, _ = rref(list(echelon) + [row], ring)
            if len(reduced) == len(echelon) + 1:
                yield from extend(chosen + [row], reduced)

    yield from extend([], ())


def iter_semilinear_automorphisms(space):
    """Lazily yield all of SGL(V): automorphisms outer (identity first),
    invertible matrices inner in lexicographic order."""
    ring = space.ring
    if not ring.is_finite():
        raise InfiniteCarrier(f"cannot enumerate SGL over {ring}")
    total = general_linear_order(space.dim, ring.order) * len(list_automorphisms(ring))
    if total > _SGL_ENUM_LIMIT:
        raise TooLarge(f"|SGL(V)| = {total} exceeds {_SGL_ENUM_LIMIT}")
    for theta in list_automorphisms(ring):
        for matrix in _invertible_matrices(space):
            yield SemilinearMap(space, matrix, theta)


def enumerate_sgl(space):
    return list(iter_semilinear_automorphisms(space))
