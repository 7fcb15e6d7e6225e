"""Semilinear projective representations and their subspace lattices.

A representation assigns to every group element an invertible
semilinear map such that rho(g) rho(h) = alpha(g,h) rho(gh) for scalars
alpha(g,h) in K*.  Two maps with the same twist agree up to a scalar
exactly when their matrices are proportional, so the cocycle, the
equivalence scalars and the normalization are all read as one exact
matrix ratio (``_ratio``), read on the maps' row supports: the
supports must coincide, and the scalar at the first nonzero entry is
checked on every other nonzero entry.  A pair with no such scalar
raises ScalarInconsistent with the pair as witness.

Over GF(q) with exp/log tables (q <= 5000), a family of monomial maps,
such as a regular representation, has its cocycle decided on
integers: each map's monomial view holds per row the column of its one
entry and that entry's log, so a pair is a column lookup and a log sum
per row, with no composite map and no ``Scalar`` product.  Every other
family (QQ, larger prime fields, maps with more than one entry in a
row) composes on row supports and reads ``_ratio``, which is also the
reference the integer route is tested against.

The bridge to lattices goes both ways: a representation over a finite
field induces an action on the subspace lattice (scalars drop out), and
an action on a subspace lattice can be pulled back to a representation
by coordinatizing each lattice automorphism.  By the fundamental
theorem of projective geometry the images of the frame <e_1>, ...,
<e_n>, <e_1 + ... + e_n> fix the matrix up to a scalar, so
coordinatization is one linear solve followed by a check of each ring
automorphism on the points; it returns the same map as the first
match of a scan of SGL(V) in enumeration order.  Both directions work
on points and element indices, never whole subspaces: the induced
action moves each point and looks its image up
(``SubspaceLattice.point_image``), while coordinatization knows each
point's target row w and only tests that the image is a nonzero
multiple lambda w, lambda read at w's leading column, against data
the lattice keeps for every call (``SubspaceLattice._frame``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    NotCoordinatizable,
    NotProjective,
    ScalarInconsistent,
    SpaceMismatch,
)
from .lattice import GLatticeAction, LatticeAutomorphism, validate_glattice
from .linalg import (
    SemilinearMap,
    SubspaceLattice,
    enumerate_subspaces,
    identity_map,
)


class SemilinearProjectiveRep:
    """A family g -> SemilinearMap, indexed by group element.

    The family is immutable (``maps`` is a read-only view of immutable
    maps), so, as ``FactorSystem`` keeps its report, a representation
    keeps what has been checked on it: the cocycle ``extract_cocycle``
    decides and the system ``factor_system_from_rep`` validates.  Only
    successes are kept; a failing check runs, and raises, on every call.
    """

    def __init__(self, group, space, maps):
        for g in range(group.order):
            if g not in maps:
                raise NotProjective(f"no map assigned to element {g}")
            f = maps[g]
            if f.space != space:
                raise SpaceMismatch(f"map for element {g} lives on {f.space}")
            if not f.is_invertible():
                raise NotProjective(f"map for element {g} is singular")
        self.group = group
        self.space = space
        self.maps = MappingProxyType({g: maps[g] for g in range(group.order)})
        self._cocycle = self._fs = None

    def scaled(self, eta):
        """The representation g -> eta(g) * rho(g)."""
        return SemilinearProjectiveRep(
            self.group,
            self.space,
            {g: self.maps[g].scale(eta[g]) for g in range(self.group.order)},
        )

    def normalized(self):
        """The equivalent representation with rho(e) = identity.

        Raises NotProjective unless rho(e) is a scalar multiple of the
        identity, checked on every entry.
        """
        if self.maps[0].is_identity():
            return self
        c = _ratio(identity_map(self.space)._rows, self.maps[0]._rows)
        if c is None or not self.maps[0].theta.is_identity():
            raise NotProjective("rho(e) is not a scalar multiple of the identity")
        one = self.space.ring.one()
        eta = {g: one for g in range(self.group.order)}
        eta[0] = c
        return self.scaled(eta)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearProjectiveRep)
            and self.group == other.group
            and self.space == other.space
            and self.maps == other.maps
        )

    def __repr__(self):
        return f"SemilinearProjectiveRep(|G|={self.group.order}, V={self.space!r})"


def rep_from_matrices(group, space, assignment):
    """Build a representation from {element: (matrix, theta)} data."""
    maps = {}
    for g, value in assignment.items():
        if isinstance(value, SemilinearMap):
            maps[g] = value
        else:
            matrix, theta = value
            maps[g] = SemilinearMap(space, matrix, theta)
    return SemilinearProjectiveRep(group, space, maps)


def _ratio(a, b):
    """The scalar c with a == c*b entry by entry, or None.

    a and b are row supports (``SemilinearMap._rows``).  Unless a is zero,
    such a c is a unit, so the two supports must coincide: c is read at
    the first entry of b in row-major order and then checked on every
    other support entry, so a returned scalar is exact.  A zero a
    against a nonzero b gives 0; None when b is zero or no c exists.
    This is the dense entry-by-entry ratio, read on the nonzero entries
    only.
    """
    c = None
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return _unequal_support_ratio(a, b)
        for (ja, x), (jb, y) in zip(row_a, row_b):
            if ja != jb:
                return _unequal_support_ratio(a, b)
            if c is None:
                c = x * y.inverse()
            elif x != c * y:
                return None
    return c


def _unequal_support_ratio(a, b):
    """The ratio of a to b when their supports differ: 0 if a is zero
    (b is then nonzero), None otherwise."""
    if any(a):
        return None
    return next(y for row in b for _, y in row).ring.zero()


def extract_cocycle(rep):
    """The scalar family alpha(g,h) with rho(g)rho(h) = alpha(g,h)rho(gh).

    Pairs are visited in (g, h) order.  Each pair's twists are checked
    first: theta(g)theta(h) != theta(gh) raises NotProjective with
    witness (g, h).  Both sides then share their twist, so they agree up
    to a scalar exactly when their matrices are proportional: alpha(g,h)
    is the matrix ratio, checked on every entry.  A pair whose matrices
    are not proportional means the input is not actually projective and
    raises ScalarInconsistent with witness (g, h).

    Two routes decide the ratio, with the same cocycle and witnesses.
    When the ring has exp/log tables (GF(q), q <= 5000) and every map
    has a monomial view (``SemilinearMap._monomial``), no map is
    composed: with theta(g) = Frob^e, row r of rho(g)rho(h) has its one
    entry in column cols_h[cols_g[r]], with log
    L_g[r] + p^e L_h[cols_g[r]].  The pair is projective exactly when
    those columns are cols_gh and the log differences with L_gh are one
    value d mod q - 1; then alpha(g,h) = ``ring.exp(d)``.  Every other
    family (QQ, prime fields past the table cap, maps that are not
    monomial) composes on row supports (``compose``) and reads
    ``_ratio``, which is also the reference the log route is tested
    against.

    The cocycle is decided once per representation and kept on it; every
    call returns a fresh dict, so a caller may change what it gets.
    """
    if rep._cocycle is None:
        views = _monomial_views(rep)
        rep._cocycle = _support_cocycle(rep) if views is None else _log_cocycle(rep, views)
    return dict(rep._cocycle)


def _support_cocycle(rep):
    """``extract_cocycle`` on row supports: each pair is composed and its
    ratio read with ``_ratio``."""
    group = rep.group
    cocycle = {}
    for g in range(group.order):
        for h in range(group.order):
            _check_twists(rep, g, h)
            composite = rep.maps[g].compose(rep.maps[h])
            target = rep.maps[group.cayley[g][h]]
            alpha = _ratio(composite._rows, target._rows)
            if alpha is None:
                _raise_inconsistent(g, h)
            cocycle[(g, h)] = alpha
    return cocycle


def _check_twists(rep, g, h):
    if rep.maps[g].theta.compose(rep.maps[h].theta) != rep.maps[rep.group.cayley[g][h]].theta:
        raise NotProjective(
            f"theta mismatch: theta({g})theta({h}) != theta({g}*{h})",
            witness=(g, h),
        )


def _raise_inconsistent(g, h):
    raise ScalarInconsistent(
        f"rho({g})rho({h}) is not a scalar multiple of rho({g}*{h})",
        witness=(g, h),
    )


def _monomial_views(rep):
    """Each map's monomial view, by element, or None unless the ring has
    exp/log tables and every map is monomial."""
    if not rep.space.ring.has_log_tables():
        return None
    views = [rep.maps[g]._monomial() for g in range(rep.group.order)]
    return None if None in views else views


def _log_cocycle(rep, views):
    """``extract_cocycle`` on monomial views: integer column lookups and
    log sums, no composite map."""
    group, ring = rep.group, rep.space.ring
    m = ring.order - 1
    cocycle = {}
    for g, (cols_g, logs_g) in enumerate(views):
        mult = pow(ring.p, rep.maps[g].theta.power, m)
        row_g = group.cayley[g]
        for h, (cols_h, logs_h) in enumerate(views):
            _check_twists(rep, g, h)
            cols_gh, logs_gh = views[row_g[h]]
            if tuple([cols_h[c] for c in cols_g]) != cols_gh:
                _raise_inconsistent(g, h)
            diffs = {
                (a + mult * logs_h[c] - b) % m for a, c, b in zip(logs_g, cols_g, logs_gh)
            }
            if len(diffs) != 1:
                _raise_inconsistent(g, h)
            cocycle[(g, h)] = ring.exp(diffs.pop())
    return cocycle


@dataclass
class RepClassification:
    theta_trivial: bool
    cocycle_trivial: bool
    cocycle: dict

    @property
    def kind(self):
        if self.theta_trivial and self.cocycle_trivial:
            return "linear"
        if self.theta_trivial:
            return "projective-linear"
        if self.cocycle_trivial:
            return "semilinear"
        return "semilinear-projective"


def validate_rep(rep):
    """Verify the projective law and classify the representation.

    Classification: linear (all theta identity, all scalars 1),
    projective-linear (theta identity), semilinear (scalars 1), and the
    general semilinear-projective case.
    """
    try:
        cocycle = extract_cocycle(rep)
    except ScalarInconsistent as exc:
        raise NotProjective(str(exc), witness=exc.witness) from exc
    theta_trivial = all(
        rep.maps[g].theta.is_identity() for g in range(rep.group.order)
    )
    cocycle_trivial = all(alpha.is_one() for alpha in cocycle.values())
    return RepClassification(theta_trivial, cocycle_trivial, cocycle)


def induced_glattice(rep, lattice=None):
    """The action of G on the subspace lattice L(V) through rho.

    Each rho(g) moves only the points (``SubspaceLattice.point_image``);
    every subspace then goes where its point mask goes, and a moved mask
    that is no subspace's raises.  The whole table is validated
    afterwards.  Scalar factors are invisible here: projectively
    equivalent maps move every subspace identically.
    """
    if lattice is None:
        lattice = enumerate_subspaces(rep.space)
    elif not isinstance(lattice, SubspaceLattice) or lattice.space != rep.space:
        raise SpaceMismatch("lattice does not coordinatize this space")
    table = [
        lattice._induced_row(lattice.point_image(rep.maps[g])) for g in range(rep.group.order)
    ]
    action = GLatticeAction(rep.group, lattice, table)
    report = validate_glattice(action)
    if not report.ok:
        raise NotProjective(f"induced action failed validation: {report}")
    return action


_NO_TWIST = "no semilinear automorphism induces this lattice automorphism"


def coordinatize(phi):
    """A semilinear automorphism inducing a given lattice automorphism.

    Reads the frame images off phi: v_i spans phi(<e_i>) and u spans
    phi(<e_1 + ... + e_n>).  Any inducing map sends e_i to a multiple
    of v_i and the basis sum to a multiple of u, whatever its twist
    (theta fixes 0 and 1), so solving sum_i c_i v_i = u once fixes the
    matrix M = [c_1 v_1 | ... | c_n v_n] up to a scalar; M is scaled so
    its first nonzero row-major entry is 1.  Each ring automorphism is
    then tried in ``list_automorphisms`` order and (M, theta) is checked
    on the points (1-dimensional subspaces) only.  That suffices: phi is
    an order automorphism of L(V), and so is the permutation any
    invertible semilinear map induces; lattice automorphisms preserve
    joins, and L(V) is atomistic (every subspace is the join of the
    points it contains), so two automorphisms that agree on the points
    agree everywhere.

    For n >= 2 all of it runs on element indices, against what the
    lattice keeps once for every call (``SubspaceLattice._frame``): the
    frame points, each point's canonical row and leading column, and
    each twist's point rows.  The solve is a Gauss-Jordan elimination
    on the ring's add/mul index tables.  Each twist then checks every
    point p, the frame included, against the row w of phi(p), which is
    known: M theta(v) lies in phi(p) exactly when it equals lambda w,
    with lambda its entry at w's leading column and lambda nonzero
    (``_inducing_twist``), so no image is scaled or looked up, and a
    twist stops at its first point that misses.  ``Scalar``s are built
    only for the returned map and for the witness of a frame that is
    not in general position.  L(K^1) = {0, K} needs no tables (they
    would hold q^2 entries): every map fixes its one point, and the
    identity map comes first in the scan.  The ``Scalar`` route, with
    ``rref`` and one ``SemilinearMap`` per twist, is the reference in
    ``tests/oracles.py``.

    The result is the first match of a scan of SGL(V) with twists outer
    and matrices inner in lexicographic order: within one twist every
    match is a scalar multiple of M, and among those multiples the one
    whose first nonzero entry is 1 (the first unit in enumeration order)
    comes first.  Raises NotCoordinatizable when no twist matches.
    """
    lattice = phi.lattice
    if not isinstance(lattice, SubspaceLattice):
        raise NotCoordinatizable("lattice elements carry no coordinates")
    space = lattice.space
    ring, n = space.ring, space.dim
    if n == 1:
        point = lattice.points[0]
        if phi(point) != point:
            raise NotCoordinatizable(_NO_TWIST)
        return identity_map(space)
    frame = lattice._frame
    columns = [frame.rows[phi(p)][1] for p in frame.frame_points]
    u = columns.pop()
    add, mul = ring._index_tables()
    inv = ring._index_inverses()
    coeffs = _frame_coefficients(columns, u, add, mul, inv, frame.minus_one)
    scalar = ring.from_index
    if coeffs is None:
        raise NotCoordinatizable(
            "frame images are not in general position",
            witness=([tuple(map(scalar, v)) for v in columns], tuple(map(scalar, u))),
        )
    matrix = [[mul[c][v[r]] for c, v in zip(coeffs, columns)] for r in range(n)]
    scale = mul[inv[next(x for row in matrix for x in row if x)]]
    rows = [[(j, scale[x]) for j, x in enumerate(row) if x] for row in matrix]
    theta = _inducing_twist(lattice, phi.perm, rows)
    if theta is None:
        raise NotCoordinatizable(_NO_TWIST)
    support = tuple(tuple((j, scalar(x)) for j, x in row) for row in rows)
    return SemilinearMap._from_rows(space, support, theta)


def _inducing_twist(lattice, perm, matrix):
    """The first twist theta, in ``list_automorphisms`` order, with which
    the matrix sends every point p of the subspace lattice into the point
    perm[p], or None; ``matrix`` holds each row's (column, entry index)
    pairs, n >= 2.

    Let v be p's twisted row and w the canonical row of perm[p], whose
    first nonzero entry is 1 at column c.  M theta(v) lies in <w> exactly
    when M theta(v) = lambda w for a nonzero lambda, and then lambda is
    its entry at c.  So each point costs one such entry, a test that it
    is nonzero, and a comparison of every entry with lambda w, all on
    the ring's add/mul index tables; no image is scaled or looked up.
    A twist stops at its first point that misses.
    """
    frame = lattice._frame
    add, mul = lattice.space.ring._index_tables()
    # per row, its support with the mul row of each entry: mul[x][a] is x * a
    rows = [[(j, mul[x]) for j, x in row] for row in matrix]
    targets = frame.rows
    for theta, twisted in frame.twists:
        for p, v in zip(lattice.points, twisted):
            # a point sent outside the points (an unchecked phi) misses
            target = targets.get(perm[p])
            if target is None:
                break
            lead, w = target
            lam = 0
            for j, times in rows[lead]:
                lam = add[lam][times[v[j]]]
            if not lam:
                break
            scale = mul[lam]
            for row, x in zip(rows, w):
                acc = 0
                for j, times in row:
                    acc = add[acc][times[v[j]]]
                if acc != scale[x]:
                    break
            else:
                continue  # p lies in perm[p]: on to the next point
            break
        else:
            return theta
    return None


def _frame_coefficients(columns, u, add, mul, inv, minus_one):
    """The c with sum_j c_j v_j = u, on element indices, by Gauss-Jordan
    elimination of [v_1 ... v_n | u] through the add/mul index tables;
    None unless the v_j are independent and every c_j is nonzero."""
    n = len(u)
    rows = [[v[r] for v in columns] + [u[r]] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = mul[inv[rows[col][col]]]
        top = rows[col] = [scale[x] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                minus = mul[mul[minus_one][row[col]]]
                rows[r] = [add[x][minus[y]] for x, y in zip(row, top)]
    coeffs = [row[n] for row in rows]
    return None if 0 in coeffs else coeffs


def rep_from_glattice(action):
    """Pull a lattice action on L(V) back to a representation on V.

    The action is validated once; each group element's lattice
    automorphism is then coordinatized independently, and the resulting
    family is checked to satisfy the projective law via cocycle
    extraction.  The automorphisms are built unchecked: axiom (3) has
    compared the order on every pair for every row, and a row that keeps
    x <= y iff gx <= gy is injective by antisymmetry, so it is a
    permutation.  The family induces the table exactly, with no row
    compared again: ``coordinatize`` has checked each map on every
    point, and two automorphisms of the atomistic L(V) that agree on
    points agree everywhere.
    """
    lattice = action.lattice
    if not isinstance(lattice, SubspaceLattice):
        raise NotCoordinatizable("action is not on a coordinatized lattice")
    report = validate_glattice(action)
    if not report.ok:
        raise NotProjective(f"not a valid action: {report}")
    maps = {}
    for g in range(action.group.order):
        phi = LatticeAutomorphism._unchecked(lattice, action.table[g])
        maps[g] = coordinatize(phi)
    rep = SemilinearProjectiveRep(action.group, lattice.space, maps)
    extract_cocycle(rep)  # raises if the family is not projective
    return rep


@dataclass
class RepEquivalence:
    """A witness eta with rho2(g) = eta(g) * rho1(g) for all g."""

    eta: dict


def rep_equivalence(rep1, rep2):
    """Find eta making two representations equivalent, or return None.

    eta(g) is the ratio of the two matrices, checked on every entry, so
    a returned witness is always exact.
    """
    if rep1.group != rep2.group or rep1.space != rep2.space:
        raise SpaceMismatch("representations live on different groups or spaces")
    eta = {}
    for g in range(rep1.group.order):
        f1, f2 = rep1.maps[g], rep2.maps[g]
        if f1.theta != f2.theta:
            return None
        eta[g] = _ratio(f2._rows, f1._rows)
        if eta[g] is None:
            return None
    return RepEquivalence(eta)
