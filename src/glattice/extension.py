"""Factor systems, Schreier extensions of K* by G, and their equivalences.

A factor system for (K, G) is a pair (chi, bracket) with chi(g) a ring
automorphism of K and bracket(g,h) a unit of K, subject to

  E1)  chi(g)chi(h) = c(bracket(g,h)) chi(gh)
  E2)  bracket(g,h) bracket(gh,k) = chi(g)(bracket(h,k)) bracket(g,hk)
  E3)  bracket(1,1) = 1

where c(b) is conjugation x -> b x b^-1, the identity for a central b
and so on every commutative carrier.  Only E3 is a normalization; the
companion identities bracket(1,h) = bracket(g,1) = 1 are consequences
of E2+E3 and are asserted as theorems in the test suite rather than
assumed here.

The extension H(chi, bracket) lives on pairs (a, g) with a in K* and
multiplies as (a,g)(b,h) = (a chi(g)(b) bracket(g,h), gh).  For finite
K it materializes as a Cayley-table group (identity first, pairs in
(g, unit) order); for the rationals and quaternions it stays a lazy
multiplication object.

Equivalence of factor systems is witnessed by mu : G -> K* with

  E4)  chi'(g) = c(mu(g)^-1) chi(g)
  E5)  bracket(g,h) mu(gh) = mu(g) chi'(g)(mu(h)) bracket'(g,h)
  E6)  mu(1) = 1

where the unprimed system is the source and the primed one the
destination of the witness.

E1 and E4 are equalities of ring automorphisms, and ``RingAutomorphism``
keeps each in a canonical form (identity, Frobenius power, or inner by a
normalized unit), so both are decided by comparing two composed
automorphisms, on every carrier, with no pointwise sample.

Over GF(q), q = p^k <= 5000, a factor system is an integer 2-cochain
(Brown, *Cohomology of Groups*, IV.3).  With w = ``ring.exp(1)`` a
generator of K*, chi(g) = Frob^e_g and [g, h] = w^beta[g][h], so
chi(g)(w^j) = w^(p^e_g j) and the laws E2 and E5 become congruences
mod q - 1:

  E2)  beta[g][h] + beta[gh][k] = p^e_g beta[h][k] + beta[g][hk]
  E5)  beta[g][h] + m[gh] = m[g] + p^e'_g m[h] + beta'[g][h]

with mu(g) = w^m[g].  ``Cochain`` holds (q - 1, p^e_g mod (q - 1),
beta); it is built once per system, on first use, and E2, E5, the
classification's mu-orbits and signatures and the Schreier table run on
it.  ``transform_factor_system`` moves a system on ``Scalar``s.  The
rationals, the quaternions and prime fields above 5000 keep the
products of ``Scalar``s.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    CarrierMismatch,
    GlatticeError,
    InfiniteCarrier,
    NotAssociated,
    NotEquivalent,
    NotNormalized,
    TooLarge,
    ZeroBracket,
)
from .groups import FiniteGroup
from .rep import extract_cocycle
from .scalar import RingAutomorphism

_MATERIALIZE_LIMIT = 2000
# the E2 check runs over |G|^3 triples: 110,592 at the cap, which took
# 0.023 s on the cochain of C48 over GF(41) or GF(32), 0.28 s on Scalars
# over GF(2^31 - 1) and 0.95 s over QQ (Python 3.11.7, 2 shared vCPUs)
_FACTOR_SYSTEM_ORDER_LIMIT = 48
# candidates mu that find_equivalence scans, (q - 1)^(|G| - 1), within
# 1 s: a full scan of 16,380 took 0.17-0.26 s on Scalars (C2 over
# GF(16381)) and of 2^13 0.03-0.05 s on cochains (C14 over GF(3)); 32,748
# took 0.38-0.43 s on Scalars (C2 over GF(32749); Python 3.11.7, 2 shared
# vCPUs)
_MU_SEARCH_LIMIT = 2**14


def _conjugation(b):
    """x -> b x b^-1; the identity for a central b, so for every unit of a
    commutative carrier."""
    return RingAutomorphism.identity(b.ring) if b.is_central() else RingAutomorphism.inner(b)


class FactorSystem:
    """The (chi, bracket) data of a Schreier extension of K* by G.

    The data is immutable, so ``validate_factor_system`` keeps its report
    on the object and checks each system once, however many of the CLI,
    ``SchreierExtension`` and ``TwistedGroupRing`` ask.
    """

    def __init__(self, group, ring, chi, bracket):
        order = group.order
        self.group = group
        self.ring = ring
        chi_list = []
        for g in range(order):
            phi = chi.get(g) if isinstance(chi, dict) else chi[g]
            phi = phi or RingAutomorphism.identity(ring)
            if phi.ring != ring:
                raise CarrierMismatch(f"chi({g}) acts on {phi.ring}, not {ring}")
            chi_list.append(phi)
        table = []
        for g in range(order):
            row = []
            for h in range(order):
                if isinstance(bracket, dict):
                    value = bracket.get((g, h), ring.one())
                else:
                    value = bracket[g][h]
                value = ring.scalar(value)
                if value.is_zero():
                    raise ZeroBracket(f"bracket({g},{h}) = 0", witness=(g, h))
                row.append(value)
            table.append(tuple(row))
        self.chi = tuple(chi_list)
        self.bracket = tuple(table)
        self._report = None
        self._cochain = None

    def signature(self):
        """A hashable fingerprint: chi shapes plus bracket sort keys."""
        return (
            tuple(repr(phi) for phi in self.chi),
            tuple(tuple(x.sort_key() for x in row) for row in self.bracket),
        )

    def __eq__(self, other):
        return (
            isinstance(other, FactorSystem)
            and self.group == other.group
            and self.ring == other.ring
            and self.chi == other.chi
            and self.bracket == other.bracket
        )

    def __hash__(self):
        return hash((self.ring, self.chi, self.bracket))

    def __repr__(self):
        return f"FactorSystem(G={self.group.name}, K={self.ring!r})"


class Cochain(NamedTuple):
    """A factor system over GF(q) on integers mod n = q - 1: ``twist[g]``
    is p^e_g mod n for chi(g) = Frob^e_g, and ``beta[g][h]`` is the log of
    [g, h] to the base ``ring.exp(1)``."""

    n: int
    twist: tuple
    beta: tuple


def cochain(fs):
    """The system's ``Cochain``, built from its bracket on first use and
    kept on it; None unless the ring has exp/log tables (GF(q),
    q <= 5000)."""
    ring = fs.ring
    if not ring.has_log_tables():
        return None
    if fs._cochain is None:
        p, n = ring.p, ring.order - 1
        # the constructor checked each entry's ring and refused zero
        _, log = ring._log_tables()
        fs._cochain = Cochain(
            n,
            tuple(pow(p, phi.power, n) for phi in fs.chi),
            tuple(tuple(log[x.payload] for x in row) for row in fs.bracket),
        )
    return fs._cochain


def trivial_factor_system(group, ring):
    return FactorSystem(group, ring, {}, {})


@dataclass
class FsReport:
    ok: bool
    law: str | None = None
    witness: tuple = ()
    message: str = ""

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "pass" if self.ok else f"{self.law} fails: {self.message} witness={self.witness}"


def validate_factor_system(fs):
    """Check E3, E1, E2 in that order; report the first violation.

    E1 at (g, h) compares the canonical automorphisms chi(g)chi(h) and
    c(bracket(g,h)) chi(gh), with no pointwise sample.  Over a field the
    witness is (g, h); over the quaternions it is (g, h, a), with a the
    first of i, j, k that the two sides send apart.  Groups above order
    48 raise TooLarge before any check runs.  The report is computed
    once per system and returned again on later calls.
    """
    group = fs.group
    if group.order > _FACTOR_SYSTEM_ORDER_LIMIT:
        raise TooLarge(
            f"factor-system check capped at |G| = {_FACTOR_SYSTEM_ORDER_LIMIT}, got {group.order}"
        )
    if fs._report is None:
        fs._report = _first_violation(fs)
    return fs._report


def _first_violation(fs):
    if not fs.bracket[0][0].is_one():
        return FsReport(False, "E3", (0, 0), "bracket(1,1) != 1")
    ring = fs.ring
    cayley = fs.group.cayley
    for g in range(fs.group.order):
        for h in range(fs.group.order):
            left = fs.chi[g].compose(fs.chi[h])
            right = _conjugation(fs.bracket[g][h]).compose(fs.chi[cayley[g][h]])
            if left == right:
                continue
            if ring.is_commutative():
                return FsReport(False, "E1", (g, h), "chi(g)chi(h) != chi(gh)")
            # both sides fix 1 and are Q-linear, so they part on i, j or k
            units = [ring.scalar(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
            a = next(a for a in units if left(a) != right(a))
            return FsReport(
                False, "E1", (g, h, a), "chi(g)chi(h) differs from conjugated chi(gh)"
            )
    witness = _e2_violation(fs)
    if witness is not None:
        return FsReport(
            False,
            "E2",
            witness,
            "bracket(g,h)bracket(gh,k) != chi(g)(bracket(h,k))bracket(g,hk)",
        )
    return FsReport(True)


def _e2_violation(fs):
    """The first triple (g, h, k), in row-major order, that breaks E2, or
    None: on the cochain over GF(q), q <= 5000, else on ``Scalar``s."""
    cayley = fs.group.cayley
    triples = itertools.product(range(fs.group.order), repeat=3)
    view = cochain(fs)
    if view is not None:
        return _e2_log_violation(cayley, view.n, view.twist, view.beta, triples)
    bracket = fs.bracket
    for g, h, k in triples:
        left = bracket[g][h] * bracket[cayley[g][h]][k]
        right = fs.chi[g](bracket[h][k]) * bracket[g][cayley[h][k]]
        if left != right:
            return (g, h, k)
    return None


def _e2_log_violation(cayley, n, twist, beta, triples):
    """The first of ``triples`` at which the log table ``beta`` breaks E2
    mod n, or None.  ``enumerate_factor_systems`` passes its partial
    table and only the triples a search node completes."""
    for g, h, k in triples:
        if (beta[g][h] + beta[cayley[g][h]][k] - twist[g] * beta[h][k] - beta[g][cayley[h][k]]) % n:
            return (g, h, k)
    return None


# ---------------------------------------------------------------------------
# the extension itself


class SchreierExtension:
    """The group on pairs (a, g) defined by a factor system.

    Finite carriers materialize to a FiniteGroup through
    ``materialize()``; infinite ones still expose exact multiplication,
    identity and inverses.
    """

    def __init__(self, fs):
        report = validate_factor_system(fs)
        if not report.ok:
            raise GlatticeError(f"invalid factor system: {report}")
        self.fs = fs
        self._materialized = None

    @property
    def is_finite(self):
        return self.fs.ring.is_finite()

    def identity(self):
        return (self.fs.ring.one(), 0)

    def multiply(self, x, y):
        a, g = x
        b, h = y
        fs = self.fs
        coeff = a * fs.chi[g](b) * fs.bracket[g][h]
        return (coeff, fs.group.cayley[g][h])

    def inverse(self, x):
        a, g = x
        fs = self.fs
        g_inv = fs.group.inverse[g]
        b = fs.chi[g].inverse()(a.inverse() * fs.bracket[g][g_inv].inverse())
        return (b, g_inv)

    def pairs(self):
        """All elements as (unit, g) pairs, in materialization order."""
        units = self.fs.ring.units()
        return [(a, g) for g in range(self.fs.group.order) for a in units]

    def materialize(self):
        """Cayley-table form of the extension (finite carriers only).

        The table is built on the cochain: the pair (a, g) sits at index
        g (q - 1) + position(a), with position(a) the place of a in
        ``ring.units()``, and (w^i, g)(w^j, h) = (w^(i + p^e_g j + beta[g][h]), gh).
        Before ``FiniteGroup`` verifies, exhaustively, that the pairs form a
        group, two integer checks run: the (*, identity) layer, indices
        0..q-2, multiplies as K* does, and every product of a pair over g
        with a pair over h lies in the index range of gh, so (a, g) -> g
        is a homomorphism onto G.  The layer is that homomorphism's
        kernel, so it is a normal subgroup and collapsing it recovers G.
        """
        if self._materialized is not None:
            return self._materialized
        fs = self.fs
        if not self.is_finite:
            raise InfiniteCarrier(f"{fs.ring} has infinitely many units")
        units = fs.ring.units()
        n = len(units)
        order = n * fs.group.order
        if order > _MATERIALIZE_LIMIT:
            raise TooLarge(f"extension order {order} exceeds {_MATERIALIZE_LIMIT}")
        # q - 1 <= 2000 here, so the ring has exp/log tables
        logs = [fs.ring.log(a) for a in units]
        position = [0] * n
        for j, i in enumerate(logs):
            position[i] = j
        cayley = _pair_table(fs.group.cayley, cochain(fs), logs, position)

        for x in range(n):
            if cayley[x][:n] != [position[(logs[x] + i) % n] for i in logs]:
                raise GlatticeError("K* layer does not copy K*")
        for g in range(fs.group.order):
            quotient_row = fs.group.cayley[g]
            for x in range(g * n, g * n + n):
                row = cayley[x]
                for h, gh in enumerate(quotient_row):
                    block = row[h * n: h * n + n]
                    if min(block) < gh * n or max(block) >= gh * n + n:
                        raise GlatticeError("quotient by the K* layer is not G")

        pairs = self.pairs()
        labels = [f"{a!r}*{fs.group.labels[g]}" for a, g in pairs]
        group = FiniteGroup(cayley, labels=labels, name=f"H({fs.group.name})")
        self._materialized = (group, pairs)
        return self._materialized

    @property
    def group(self):
        return self.materialize()[0]

    def __repr__(self):
        return f"SchreierExtension({self.fs!r})"


def _pair_table(group_cayley, view, logs, position):
    """The Cayley table of the pairs on indices: row g n + x, column
    h n + y holds the index of (w^logs[x], g)(w^logs[y], h), where
    ``position`` inverts ``logs``."""
    n, twist, beta = view
    # layers[k][i] is the index of (w^i, k), for 0 <= i < 2n
    layers = [[k * n + j for j in position + position] for k in range(len(group_cayley))]
    table = []
    for g, quotient_row in enumerate(group_cayley):
        # the log of chi(g)(b) for b in ring.units() order
        twisted = [twist[g] * i % n for i in logs]
        beta_g = beta[g]
        for i in logs:
            row = []
            for h, gh in enumerate(quotient_row):
                layer, c = layers[gh], (i + beta_g[h]) % n
                row += [layer[c + t] for t in twisted]
            table.append(row)
    return table


def build_extension(fs):
    """Validate a factor system and construct its extension.

    Finite carriers are materialized (and structurally verified) right
    away; infinite ones return the lazy multiplication object.
    """
    ext = SchreierExtension(fs)
    if ext.is_finite:
        ext.materialize()
    return ext


@dataclass
class ExtensionFlags:
    central: bool
    projective: bool
    split: bool
    direct: bool


def classify_extension(fs):
    """Flags: central / projective (chi trivial) / split (bracket trivial)
    / direct (both)."""
    central = all(x.is_central() for row in fs.bracket for x in row)
    projective = all(phi.is_identity() for phi in fs.chi)
    split = all(x.is_one() for row in fs.bracket for x in row)
    direct = projective and split
    flags = ExtensionFlags(central, projective, split, direct)
    # structural implications; violations would mean an invalid system
    if (projective or split or fs.ring.is_commutative()) and not central:
        raise GlatticeError("classification inconsistency: extension should be central")
    return flags


def factor_system_from_rep(rep):
    """The factor system (theta family, cocycle) of a representation.

    Requires the normalized form rho(e) = identity; otherwise the
    extracted bracket would violate E3.  The system is built from the
    kept cocycle and validated on the first call, and the same object is
    returned on later calls, so a returned system is a mechanical proof
    that the representation yields a factor system.
    """
    if rep._fs is None:
        if not rep.maps[0].is_identity():
            raise NotNormalized(
                "rho(identity) must be the identity map; use rep.normalized() first"
            )
        chi = {g: rep.maps[g].theta for g in range(rep.group.order)}
        fs = FactorSystem(rep.group, rep.space.ring, chi, extract_cocycle(rep))
        report = validate_factor_system(fs)
        if not report.ok:
            raise GlatticeError(f"extracted data is not a factor system: {report}")
        rep._fs = fs
    return rep._fs


def _system_of(rep, fs):
    """``factor_system_from_rep(rep)``, kept as fs itself when rep is
    normalized over fs's (K, G), its twists and cocycle are fs's chi and
    bracket, and fs is valid: the system that call would build equals fs,
    so it passes the same checks, and no law runs again."""
    if rep._fs is None and rep.maps[0].is_identity():
        cocycle = extract_cocycle(rep)
        if (
            (rep.group, rep.space.ring) == (fs.group, fs.ring)
            and tuple(f.theta for f in rep.maps.values()) == fs.chi
            and all(x == fs.bracket[g][h] for (g, h), x in cocycle.items())
            and validate_factor_system(fs).ok
        ):
            rep._fs = fs
    return factor_system_from_rep(rep)


# ---------------------------------------------------------------------------
# equivalence


def _coerce_mu(fs, mu):
    out = []
    for g in range(fs.group.order):
        value = mu.get(g) if isinstance(mu, dict) else mu[g]
        value = fs.ring.scalar(value if value is not None else 1)
        if value.is_zero():
            raise ZeroBracket(f"mu({g}) = 0")
        out.append(value)
    return out


def check_equivalence(fs_src, fs_dst, mu):
    """Whether mu witnesses E4-E6 from fs_src to fs_dst.

    E4 compares the canonical automorphisms chi'(g) and
    c(mu(g)^-1) chi(g), with no pointwise sample; E6 compares a scalar,
    and E5 runs through ``_e5_test``, as in ``find_equivalence``.
    """
    if fs_src.group != fs_dst.group or fs_src.ring != fs_dst.ring:
        raise CarrierMismatch("factor systems for different (K, G)")
    mu = _coerce_mu(fs_src, mu)
    if not mu[0].is_one():
        return False
    for g in range(fs_src.group.order):
        if fs_dst.chi[g] != _conjugation(mu[g].inverse()).compose(fs_src.chi[g]):
            return False
    return _e5_test(fs_src, fs_dst)(mu)


def _e5_test(fs_src, fs_dst):
    """E5 from fs_src to fs_dst as a test of mu, a sequence of units
    indexed by the group: logs mod q - 1 on the cochains over GF(q),
    q <= 5000, and products of ``Scalar``s elsewhere."""
    cayley = fs_src.group.cayley
    src = cochain(fs_src)
    if src is not None:
        dst, (_, log) = cochain(fs_dst), fs_src.ring._log_tables()
        return functools.partial(_e5_log_holds, cayley, src, dst, log)
    return lambda mu: all(
        fs_src.bracket[g][h] * mu[gh] == mu[g] * fs_dst.chi[g](mu[h]) * fs_dst.bracket[g][h]
        for g, row in enumerate(cayley)
        for h, gh in enumerate(row)
    )


def _e5_log_holds(cayley, src, dst, log, mu):
    """E5 mod n from the cochain ``src`` to ``dst``, for mu = w^m with m
    read off ``log``, the ring's table of discrete logarithms."""
    n, twist = dst.n, dst.twist
    m = [log[x.payload] for x in mu]
    for beta_g, beta_dst_g, cayley_g, m_g, t_g in zip(src.beta, dst.beta, cayley, m, twist):
        for b, b_dst, gh, m_h in zip(beta_g, beta_dst_g, cayley_g, m):
            if (b + m[gh] - m_g - t_g * m_h - b_dst) % n:
                return False
    return True


def transform_factor_system(fs, mu):
    """The equivalent system reached from fs through the witness mu.

    chi'(g) = c(mu(g)^-1) chi(g) by E4, and the bracket follows E5, so
    the output satisfies ``check_equivalence(fs, output, mu)`` by
    construction.  The input is validated once (its report is kept on
    it) and the output is not validated, because a system equivalent to
    a valid system is valid:

    - E1 and E2 together say that the pair product
      (a, g)(b, h) = (a chi(g)(b) [g, h], gh) is associative, and E3
      says that (1, e) is its identity;
    - the map (a, g) -> (a mu(g), g) is a bijection that carries one
      product to the other (E4, E5) and fixes (1, e) (E6).

    An invalid input raises GlatticeError with its own first violation.
    """
    mu = _coerce_mu(fs, mu)
    if not mu[0].is_one():
        raise NotEquivalent("mu(1) must be 1")
    report = validate_factor_system(fs)
    if not report.ok:
        raise GlatticeError(f"invalid factor system: {report}")
    group = fs.group
    mu_inv = [m.inverse() for m in mu]
    new_chi = [_conjugation(mu_inv[g]).compose(fs.chi[g]) for g in range(group.order)]
    new_bracket = [
        [
            new_chi[g](mu[h]).inverse() * mu_inv[g] * fs.bracket[g][h] * mu[group.cayley[g][h]]
            for h in range(group.order)
        ]
        for g in range(group.order)
    ]
    return FactorSystem(group, fs.ring, new_chi, new_bracket)


def find_equivalence(fs_src, fs_dst):
    """Search all mu : G -> K* with mu(1) = 1, tails in
    ``itertools.product`` order of ``ring.units()``, and return the first
    witness, or None.

    K is a finite field, where conjugation is the identity, so E4 says
    chi' = chi whatever mu is: it is decided once, before the cap.
    TooLarge before the first candidate when there are more than 2^14
    of them.  Each candidate is then tested for E5 alone, by the
    ``_e5_test`` that ``check_equivalence`` runs.
    """
    if fs_src.group != fs_dst.group or fs_src.ring != fs_dst.ring:
        raise CarrierMismatch("factor systems for different (K, G)")
    ring, order = fs_src.ring, fs_src.group.order
    if not ring.is_finite():
        raise InfiniteCarrier("cannot search equivalences over an infinite unit group")
    if fs_src.chi != fs_dst.chi:
        return None
    if (ring.order - 1) ** (order - 1) > _MU_SEARCH_LIMIT:
        raise TooLarge(
            f"equivalence search capped at {_MU_SEARCH_LIMIT} candidates mu, "
            f"got {ring.order - 1}^{order - 1}"
        )
    e5_holds, units = _e5_test(fs_src, fs_dst), ring.units()
    for mu in itertools.product([ring.one()], *[units] * (order - 1)):
        if e5_holds(mu):
            return list(mu)
    return None


class ExtensionIsomorphism:
    """The isomorphism (a, g) -> (a mu(g), g) between equivalent extensions.

    ``check_equivalence`` decides E4-E6 exactly, on canonical
    automorphisms, and those laws are exactly what makes the pair map a
    multiplicative bijection that fixes (1, e): the theorem in
    ``transform_factor_system``'s docstring.  So nothing is replayed on
    pairs, over any carrier.
    """

    def __init__(self, fs_src, fs_dst, mu):
        if not check_equivalence(fs_src, fs_dst, mu):
            raise NotEquivalent("mu does not witness E4-E6")
        self.src = SchreierExtension(fs_src)
        self.dst = SchreierExtension(fs_dst)
        self.mu = _coerce_mu(fs_src, mu)

    def apply(self, pair):
        a, g = pair
        return (a * self.mu[g], g)

    def __call__(self, pair):
        return self.apply(pair)


# ---------------------------------------------------------------------------
# desk-scale enumeration and classification


def _enumeration_feasible(group, ring):
    if not ring.is_finite():
        raise InfiniteCarrier("enumeration needs a finite unit group")
    n_units = ring.order - 1
    if group.order <= 3 and n_units <= 4:
        return
    if group.order <= 4 and n_units <= 2:
        return
    raise TooLarge(
        f"enumeration not feasible for |G| = {group.order}, |K*| = {n_units}"
    )


def enumerate_factor_systems(group, ring, chi=None):
    """All factor systems with the given chi (default: trivial), sorted
    by signature.

    chi is checked by ``validate_factor_system`` on the all-ones bracket,
    for which E2 and E3 hold, so only E1 can fail there.  Bracket values
    on pairs involving the identity are pinned to 1 (log 0) -- E2+E3
    force that, so no system is missed -- and the remaining free pairs
    are filled depth-first, in row-major order, with the logs of
    ``ring.units()`` in order, into one log table.  Each E2 triple is due
    at the node that fills the last free pair it reads, and is checked
    there only, by ``_e2_log_violation``: a node passes exactly when
    every triple it completes holds.  Each leaf is validated again in
    full.
    """
    _enumeration_feasible(group, ring)
    if chi is None:
        chi = {g: RingAutomorphism.identity(ring) for g in range(group.order)}
    probe = FactorSystem(group, ring, chi, {})
    if not validate_factor_system(probe).ok:
        raise GlatticeError("chi is not a homomorphism; E1 cannot hold")

    order = group.order
    cayley = group.cayley
    n, twist, _ = cochain(probe)
    logs = [ring.log(a) for a in ring.units()]
    free_pairs = [(g, h) for g in range(1, order) for h in range(1, order)]
    position = {pair: i for i, pair in enumerate(free_pairs)}
    due = [[] for _ in free_pairs]
    for g, h, k in itertools.product(range(order), repeat=3):
        read = ((g, h), (cayley[g][h], k), (h, k), (g, cayley[h][k]))
        filled = [position[pair] for pair in read if pair in position]
        # a triple that reads no free pair multiplies ones and holds
        if filled:
            due[max(filled)].append((g, h, k))
    table = [[0] * order for _ in range(order)]
    results = []

    def fill(i):
        if i == len(free_pairs):
            fs = FactorSystem(group, ring, chi, [[ring.exp(b) for b in row] for row in table])
            if validate_factor_system(fs).ok:
                results.append(fs)
            return
        g, h = free_pairs[i]
        for b in logs:
            table[g][h] = b
            if _e2_log_violation(cayley, n, twist, table, due[i]) is None:
                fill(i + 1)

    fill(0)
    results.sort(key=lambda fs: fs.signature())
    return results


def classify_up_to_equivalence(group, ring, chi=None):
    """Equivalence classes of the enumerated systems, via mu-orbits.

    Returns a list of classes, each a list of factor systems; classes
    are sorted by their least member so output order is deterministic.
    Raises unless the classes cover every enumerated system exactly once,
    so the class sizes sum to the number of systems.

    The orbits run on the cochains (Brown, *Cohomology of Groups*,
    IV.3): ``_enumeration_feasible`` admits only GF(2) to GF(5), which
    all have exp/log tables, and over a field chi' = chi, so the image
    of a system under mu = w^m is read off ``_coboundary_orbit`` with no
    ``FactorSystem`` built.  The systems share one chi and come sorted
    by signature, so each is keyed by its bracket logs and named by its
    position: classes and their members are ordered by position.
    ``transform_factor_system`` gives the same images and is the
    reference the orbits are tested against.
    """
    systems = enumerate_factor_systems(group, ring, chi)
    position = {cochain(fs).beta: i for i, fs in enumerate(systems)}
    unseen = set(position.values())
    classes = []
    for i, fs in enumerate(systems):
        if i not in unseen:
            continue
        orbit = set()
        for beta in _coboundary_orbit(cochain(fs), group.cayley):
            moved = position.get(tuple(map(tuple, beta)))
            if moved is None:
                raise GlatticeError(
                    "equivalence moved a system outside the enumerated family"
                )
            orbit.add(moved)
        if not orbit <= unseen:
            raise GlatticeError("two equivalence classes share a system")
        unseen -= orbit
        classes.append(sorted(orbit))
    if sum(len(cls) for cls in classes) != len(systems):
        raise GlatticeError("the equivalence classes do not cover every system once")
    return [[systems[i] for i in cls] for cls in classes]


def _coboundary_orbit(view, cayley):
    """The bracket logs of every system equivalent to the cochain ``view``
    over a field: beta'(g,h) = beta(g,h) + m(gh) - m(g) - p^e_g m(h)
    mod q - 1 (E5 with chi' = chi), one table per m with m(e) = 0."""
    n, twist, beta = view
    for tail in itertools.product(range(n), repeat=len(cayley) - 1):
        m = (0, *tail)
        yield [
            [(b + m[gh] - m_g - t_g * m[h]) % n for h, (b, gh) in enumerate(zip(beta_g, cayley_g))]
            for beta_g, cayley_g, m_g, t_g in zip(beta, cayley, m, twist)
        ]


def transport_rep(rep, fs, fs_target, mu):
    """Equivalence transport: scale an fs-associated representation by mu
    to get one associated with fs_target.

    ``mu`` must witness fs_target -> fs.  The input's system and the
    output's are each decided by comparing the extracted twists and
    cocycle with the validated fs and fs_target, with no law run again,
    so a successful return is a mechanical proof of the transport.
    """
    if _system_of(rep, fs) != fs:
        raise NotAssociated("representation is not associated with the given system")
    if not check_equivalence(fs_target, fs, mu):
        raise NotEquivalent("mu does not witness fs_target -> fs")
    mu = _coerce_mu(fs, mu)
    moved = rep.scaled({g: mu[g] for g in range(rep.group.order)})
    if _system_of(moved, fs_target) != fs_target:
        raise GlatticeError("transported representation has the wrong factor system")
    return moved
