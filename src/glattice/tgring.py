"""Twisted group rings K(G;H) and their module structure.

The ring is the free left K-module on basis symbols, one per group
element, with the product extended distributively from

    gbar * hbar = bracket(g,h) * (gh)bar
    gbar * (b * hbar) = chi(g)(b) * bracket(g,h) * (gh)bar

Elements are sparse coefficient maps (zeros dropped).  The ring is
associative exactly because the bracket satisfies the E2 law; the tests
re-verify that on basis triples for every enumerated system.

Whether the ring is a K-algebra (``is_algebra``) is decided from the
validated system and chi, with no ring product: it is one exactly when
K is commutative and chi is trivial.  Only a negative verdict's witness
triple runs through the product.

A representation whose factor system is the ring's makes its space a
left module (``TwistedModule``); that association is checked once, when
the module is built.  The five module laws follow from it, so
``validate_module_axioms`` builds the module and replays no law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import rep
from .errors import (
    GlatticeError,
    NonCommutativeCarrier,
    NotAssociated,
    ParentMismatch,
    TooLarge,
)
from .extension import factor_system_from_rep, validate_factor_system
from .linalg import SemilinearMap, VectorSpace, add_vectors, scale_vector
from .rep import SemilinearProjectiveRep


class TwistedGroupRing:
    """The twisted group ring of a factor system: rank |G| over K."""

    def __init__(self, fs):
        report = validate_factor_system(fs)
        if not report.ok:
            raise GlatticeError(f"invalid factor system: {report}")
        self.fs = fs
        self.ring = fs.ring
        self.group = fs.group
        self.rank = fs.group.order

    def element(self, coeffs):
        """Build an element from {group element: scalar} data; zero
        coefficients are dropped to keep the sparse form canonical."""
        clean = {}
        for g, value in coeffs.items():
            scalar = self.ring.scalar(value)
            if not scalar.is_zero():
                clean[g] = scalar
        return TwistedRingElement(self, tuple(sorted(clean.items())))

    def zero(self):
        return self.element({})

    def basis_element(self, g):
        return self.element({g: 1})

    def one(self):
        return self.basis_element(0)

    def basis(self):
        return [self.basis_element(g) for g in range(self.group.order)]

    def all_elements(self):
        """Every element (finite carriers, small rank only)."""
        if not self.ring.is_finite():
            raise GlatticeError("cannot enumerate elements over an infinite carrier")
        count = self.ring.order ** self.rank
        if count > 4096:
            raise TooLarge(f"{count} ring elements is too many to enumerate")
        out = []
        for coeffs in itertools.product(self.ring.elements(), repeat=self.rank):
            out.append(self.element(dict(enumerate(coeffs))))
        return out

    def __eq__(self, other):
        return isinstance(other, TwistedGroupRing) and self.fs == other.fs

    def __repr__(self):
        return f"TwistedGroupRing(K={self.ring!r}, G={self.group.name})"


class TwistedRingElement:
    """A sparse sum of scalar multiples of the basis symbols."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = coeffs  # sorted tuple of (g, Scalar), no zeros

    def coeff(self, g):
        for h, value in self.coeffs:
            if h == g:
                return value
        return self.parent.ring.zero()

    def support(self):
        return [g for g, _ in self.coeffs]

    def _check_parent(self, other):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatch("elements of different twisted group rings")

    def __add__(self, other):
        self._check_parent(other)
        out = dict(self.coeffs)
        for g, value in other.coeffs:
            out[g] = out.get(g, self.parent.ring.zero()) + value
        return self.parent.element(out)

    def __neg__(self):
        return self.parent.element({g: -value for g, value in self.coeffs})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        """Left scalar multiple a * self."""
        a = self.parent.ring.scalar(a)
        return self.parent.element({g: a * value for g, value in self.coeffs})

    def __mul__(self, other):
        self._check_parent(other)
        fs = self.parent.fs
        group = self.parent.group
        out = {}
        zero = self.parent.ring.zero()
        for g, a in self.coeffs:
            chi_g = fs.chi[g]
            for h, b in other.coeffs:
                k = group.cayley[g][h]
                term = a * chi_g(b) * fs.bracket[g][h]
                out[k] = out.get(k, zero) + term
        return self.parent.element(out)

    def __eq__(self, other):
        return (
            isinstance(other, TwistedRingElement)
            and self.parent == other.parent
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        labels = self.parent.group.labels
        return " + ".join(f"{value!r}*~{labels[g]}" for g, value in self.coeffs)


# ---------------------------------------------------------------------------
# the regular representation (the extension acting on K^{|G|})


def regular_representation(tgr):
    """rho(g): v -> gbar * v on coordinates indexed by group elements.

    Concretely rho(g) has theta = chi(g) and matrix entry bracket(g,h)
    in row g*h, column h, which makes rho(g)rho(h) = bracket(g,h)
    rho(gh) an exact matrix identity.  The extracted cocycle is
    compared with the input bracket on every call; the twists are chi
    by construction, and the ring validated its system once, so E2 is
    not checked again.  Once the comparison passes, ``tgr.fs`` is kept
    as rho's factor system: rho(e) is the identity (chi(e) = id and
    [e, h] = 1 in a valid system), so the system
    ``factor_system_from_rep`` would build equals ``tgr.fs``.
    """
    fs = tgr.fs
    if not fs.ring.is_commutative():
        raise NonCommutativeCarrier(
            "matrix form of the regular representation needs a field; "
            "use the ring product directly for the quaternions"
        )
    group, ring = fs.group, fs.ring
    n = group.order
    space = VectorSpace(ring, n)
    maps = {}
    for g in range(n):
        # row g*h holds its one entry, the unit bracket(g,h), in column h
        rows = [None] * n
        for h, gh in enumerate(group.cayley[g]):
            rows[gh] = ((h, fs.bracket[g][h]),)
        maps[g] = SemilinearMap._from_rows(space, tuple(rows), fs.chi[g])
    rho = SemilinearProjectiveRep(group, space, maps)
    cocycle = rep.extract_cocycle(rho)
    if any(cocycle[g, h] != fs.bracket[g][h] for g in range(n) for h in range(n)):
        raise GlatticeError("regular representation does not reproduce its system")
    rho._fs = fs
    return rho


# ---------------------------------------------------------------------------
# the algebra criterion


@dataclass
class AlgebraVerdict:
    ok: bool
    law: str | None = None
    scalar: object = None
    left_factor: object = None
    right_factor: object = None
    lhs: object = None
    rhs: object = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "algebra"
        return (
            f"not an algebra: {self.law} fails with a={self.scalar!r}, "
            f"u={self.left_factor!r}, v={self.right_factor!r}: "
            f"{self.lhs!r} != {self.rhs!r}"
        )


def is_algebra(tgr):
    """Decide whether the twisted ring is a K-algebra, with a witness.

    The scalar action a * sum(c_g gbar) = sum((a c_g) gbar) must satisfy
    (a u) v = a (u v) and u (a v) = a (u v).  The product is the
    distributive extension of gbar * hbar = [g,h] (gh)bar, twisted by
    chi, over a system the ring validated when it was built.  So the
    first law holds by associativity in K, and the second holds exactly
    when K is commutative and every chi(g) is the identity.  A positive
    verdict forms no ring product; ``tests/oracles.py`` replays the
    basis products and the bimodule laws as the reference.

    When K is noncommutative the witness is a = i, u = j 1bar, v = 1bar;
    otherwise it is the first g with chi(g) != id, the first a in
    ``ring.elements()`` it moves, u = gbar and v = 1bar.  Only that
    witness runs through the ring product: both sides are computed, and
    must differ, before it is returned.
    """
    fs, ring = tgr.fs, tgr.ring
    one_bar = tgr.one()
    if not ring.is_commutative():
        a = ring.scalar((0, 1, 0, 0))  # i
        u = one_bar.scale(ring.scalar((0, 0, 1, 0)))  # j 1bar
    else:
        moved = next(
            (
                (a, g)
                for g, phi in enumerate(fs.chi)
                if not phi.is_identity()
                for a in ring.elements()
                if phi(a) != a
            ),
            None,
        )
        if moved is None:
            return AlgebraVerdict(True)
        a, g = moved
        u = tgr.basis_element(g)
    lhs = u * one_bar.scale(a)
    rhs = (u * one_bar).scale(a)
    if lhs == rhs:
        raise GlatticeError("algebra witness failed to fail")
    return AlgebraVerdict(False, "u*(a*v) == a*(u*v)", a, u, one_bar, lhs, rhs)


# ---------------------------------------------------------------------------
# modules over the twisted ring


class TwistedModule:
    """The space of a representation as a left module over the ring.

    Built only when rep is over the ring's (K, G) and
    ``factor_system_from_rep(rep)`` is the ring's system (NotAssociated
    otherwise); ``act`` then runs no check of its own.
    """

    def __init__(self, tgr, rep):
        if rep.group != tgr.group or rep.space.ring != tgr.ring:
            raise NotAssociated("representation is for a different (K, G)")
        if factor_system_from_rep(rep) != tgr.fs:
            raise NotAssociated("representation has a different factor system")
        self.tgr = tgr
        self.rep = rep
        self.space = rep.space

    def act(self, element, vector):
        """Act by a ring element on a vector: sum of a_g * rho(g)(v)."""
        images = {g: self.rep.maps[g].apply(vector) for g in element.support()}
        return _combine(self.space, element, images)


def _combine(space, element, images):
    """sum of a_g * images[g] over the support of the element."""
    out = space.zero_vector()
    for g, a in element.coeffs:
        out = add_vectors(out, scale_vector(a, images[g]))
    return out


def validate_module_axioms(tgr, rep):
    """The five module laws for V under the ring action, decided from
    the association.

      (1) s(u+v) = su+sv        (2) (s+t)v = sv+tv
      (3) s(tv) = (st)v         (4) 1bar v = v
      (5) (b s)v = b(sv)

    Building the ``TwistedModule`` checks ``factor_system_from_rep(rep)
    == tgr.fs`` (NotAssociated otherwise).  So theta(rho(g)) = chi(g),
    rho(g)rho(h) = [g,h] rho(gh), and rho(e) = id (the extraction raises
    NotNormalized otherwise).  Matrix-backed maps need a commutative K,
    so each rho(g) is additive and rho(g)(a v) = chi(g)(a) rho(g)(v).
    With s v = sum a_g rho(g)(v), the laws follow:

    - (1) and (2) by additivity and linearity in the coefficients;
    - (3) from s(tv) = sum a_g chi(g)(b_h) [g,h] rho(gh)(v) = (st)v;
    - (4) from rho(e) = id;
    - (5) from associativity in K.

    Returns ``(True, None)``.  ``tests/oracles.py`` replays every law
    through ``TwistedModule.act`` as the reference.
    """
    TwistedModule(tgr, rep)
    return True, None
