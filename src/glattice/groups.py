"""Finite groups as Cayley tables, subgroup lattices, conjugation actions.

Elements are plain ints ``0..n-1`` and index 0 is always the identity;
display labels ride along for IO.  Construction validates the group
axioms, exhaustively for small orders and by Light's associativity test
on a generating set for larger ones.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    TooLarge,
)
from . import lattice as _lattice

_EXHAUSTIVE_ASSOC_LIMIT = 64
_SUBGROUP_ORDER_LIMIT = 48


class FiniteGroup:
    """A finite group given by its Cayley table (indices compose as
    ``table[a][b] = a*b``)."""

    def __init__(self, cayley, labels=None, name=None):
        n = len(cayley)
        if n == 0:
            raise MalformedTable("empty table")
        for row in cayley:
            if len(row) != n:
                raise MalformedTable("table is not square")
            for entry in row:
                # not isinstance: a bool is an int, and JSON true/false are no indices
                if type(entry) is not int or not 0 <= entry < n:
                    raise MalformedTable(f"entry {entry!r} out of range")
        cayley = tuple(tuple(row) for row in cayley)
        for x in range(n):
            if cayley[0][x] != x or cayley[x][0] != x:
                # index 0 must be the identity; report any other identity found
                for e in range(n):
                    if all(cayley[e][y] == y and cayley[y][e] == y for y in range(n)):
                        raise NoIdentity(
                            f"identity is at index {e}, but index 0 is required"
                        )
                raise NoIdentity("no two-sided identity element")
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if cayley[x][y] == 0 and cayley[y][x] == 0:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise NoInverse(f"element {x} has no inverse", witness=(x,))
        _check_associativity(cayley)
        if labels and len(labels) != n:
            raise MalformedTable(f"{len(labels)} labels for {n} elements")
        self.cayley = cayley
        self.inverse = tuple(inverse)
        self.order = n
        self.labels = tuple(labels) if labels else tuple(_default_labels(n))
        self.name = name or f"group{n}"

    def element_order(self, a):
        x, k = a, 1
        while x != 0:
            x = self.cayley[x][a]
            k += 1
        return k

    def is_abelian(self):
        n = self.order
        return all(
            self.cayley[a][b] == self.cayley[b][a] for a in range(n) for b in range(n)
        )

    def label_index(self, label):
        """Resolve a display label (or a stringified index) to an element."""
        if label in self.labels:
            return self.labels.index(label)
        try:
            i = int(label)
        except (TypeError, ValueError):
            raise MalformedTable(f"unknown element label {label!r}") from None
        if 0 <= i < self.order:
            return i
        raise MalformedTable(f"element index {i} out of range")

    def __len__(self):
        return self.order

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.cayley == other.cayley

    def __hash__(self):
        return hash(self.cayley)

    def __repr__(self):
        return f"{self.name}(order={self.order})"


def _default_labels(n):
    return [f"g{i}" for i in range(n)]


def _close(cayley, closed, new):
    """The product closure of ``closed``, already closed, with ``new``.

    Each added element is multiplied on both sides with every member, so
    no pair inside ``closed`` is formed again.  In a finite group the
    closure holds the inverses, so it is the subgroup generated.
    """
    closure = set(closed)
    queue = list(set(new) - closure)
    closure.update(queue)
    members = list(closure)
    while queue:
        x = queue.pop()
        for y in members:
            for z in (cayley[x][y], cayley[y][x]):
                if z not in closure:
                    closure.add(z)
                    members.append(z)
                    queue.append(z)
    return frozenset(closure)


def _generating_set(cayley):
    """The least element outside the closure so far, until it is all."""
    n = len(cayley)
    gens = []
    closure = frozenset({0})
    while len(closure) < n:
        g = min(x for x in range(n) if x not in closure)
        gens.append(g)
        closure = _close(cayley, closure, (g,))
    return gens


def _check_associativity(cayley):
    n = len(cayley)
    if n <= _EXHAUSTIVE_ASSOC_LIMIT:
        rng = range(n)
        for a in rng:
            row_a = cayley[a]
            for b in rng:
                ab = row_a[b]
                row_ab = cayley[ab]
                row_b = cayley[b]
                for c in rng:
                    if row_ab[c] != row_a[row_b[c]]:
                        raise NotAssociative(
                            f"({a}*{b})*{c} != {a}*({b}*{c})", witness=(a, b, c)
                        )
        return
    # Light's test: checking a(sb) == (as)b for s in a generating set
    # suffices for a magma with identity generated by that set.
    for s in _generating_set(cayley):
        for a in range(n):
            as_ = cayley[a][s]
            row_a = cayley[a]
            row_as = cayley[as_]
            for b in range(n):
                if row_a[cayley[s][b]] != row_as[b]:
                    raise NotAssociative(
                        f"({a}*{s})*{b} != {a}*({s}*{b})", witness=(a, s, b)
                    )


# ---------------------------------------------------------------------------
# presets


def cyclic_group(n):
    if n < 1:
        raise MalformedTable("order must be positive")
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"a^{i}" if i > 1 else "a" for i in range(1, n)]
    return FiniteGroup(cayley, labels=labels, name=f"C{n}")


def symmetric_group(n):
    """S_n on lexicographically ordered permutation tuples, n <= 5."""
    if n > 5:
        raise TooLarge("symmetric presets stop at n = 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # (p*q)(x) = p(q(x))
    cayley = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    labels = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(cayley, labels=labels, name=f"S{n}")


def dihedral_group(n):
    """The dihedral group of order 2n in the form s^f r^i: n rotations
    (f = 0) then n reflections (f = 1), multiplying by r^i s = s r^-i."""
    if n < 1:
        raise MalformedTable("need n >= 1")

    def mul(x, y):
        f1, i = divmod(x, n)
        f2, j = divmod(y, n)
        rot = (j + i) % n if f2 == 0 else (j - i) % n
        return (f1 ^ f2) * n + rot

    cayley = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    labels = (
        ["1"]
        + [f"r^{i}" if i > 1 else "r" for i in range(1, n)]
        + ["s"]
        + [f"sr^{i}" if i > 1 else "sr" for i in range(1, n)]
    )
    return FiniteGroup(cayley, labels=labels, name=f"D{n}")


def trivial_group():
    return FiniteGroup([[0]], labels=["1"], name="C1")


# ---------------------------------------------------------------------------
# subgroups


class Subgroup:
    """A subgroup as a sorted tuple of element indices of its parent."""

    __slots__ = ("parent", "members")

    def __init__(self, parent, members):
        members = tuple(sorted(set(members)))
        if 0 not in members:
            raise MalformedTable("subgroup must contain the identity")
        mem = set(members)
        for a in members:
            if parent.inverse[a] not in mem:
                raise MalformedTable(f"not closed under inverse at {a}")
            for b in members:
                if parent.cayley[a][b] not in mem:
                    raise MalformedTable(f"not closed under product at ({a},{b})")
        self.parent = parent
        self.members = members

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "{" + ",".join(self.parent.labels[m] for m in self.members) + "}"

    def conjugate(self, g):
        """g H g^-1 as a member set."""
        cay, inv = self.parent.cayley, self.parent.inverse
        return frozenset(cay[cay[g][h]][inv[g]] for h in self.members)


def all_subgroups(group):
    """Every subgroup, found by closing one added generator at a time."""
    if group.order > _SUBGROUP_ORDER_LIMIT:
        raise TooLarge(f"subgroup enumeration capped at order {_SUBGROUP_ORDER_LIMIT}")
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        current = frontier.pop()
        for g in range(1, group.order):
            if g in current:
                continue
            bigger = _close(group.cayley, current, (g,))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    sets = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Subgroup(group, s) for s in sets]


def subgroup_lattice(group):
    """The lattice of all subgroups ordered by inclusion.

    Meet is intersection and join is the subgroup generated by the
    union; both are recomputed from the order relation during lattice
    validation, so the tables passed in are cross-checked.
    """
    subs = all_subgroups(group)
    m = len(subs)
    member_sets = [set(s.members) for s in subs]
    index = {frozenset(s.members): i for i, s in enumerate(subs)}
    leq = [[member_sets[i] <= member_sets[j] for j in range(m)] for i in range(m)]
    meet = [[index[frozenset(member_sets[i] & member_sets[j])] for j in range(m)] for i in range(m)]
    join = [
        [index[_close(group.cayley, member_sets[i], member_sets[j])] for j in range(m)]
        for i in range(m)
    ]
    return _lattice.FiniteLattice(
        leq,
        meet=meet,
        join=join,
        payloads=subs,
        labels=[repr(s) for s in subs],
    )


def conjugation_glattice(group):
    """The action of a group on its own subgroup lattice by conjugation."""
    lat = subgroup_lattice(group)
    index = {frozenset(s.members): i for i, s in enumerate(lat.payloads)}
    table = [
        [index[lat.payloads[x].conjugate(g)] for x in range(lat.size)]
        for g in range(group.order)
    ]
    action = _lattice.GLatticeAction(group, lat, table)
    report = _lattice.validate_glattice(action)
    if not report.ok:
        raise MalformedTable(f"conjugation action failed validation: {report}")
    return action


# ---------------------------------------------------------------------------
# isomorphism testing (exhaustive search with pruning, small orders only)

_ISO_ORDER_LIMIT = 40


def are_isomorphic(g1, g2):
    if g1.order != g2.order:
        return False
    if g1.order > _ISO_ORDER_LIMIT:
        raise TooLarge("isomorphism search capped at order 40")
    n = g1.order
    orders1 = [g1.element_order(x) for x in range(n)]
    orders2 = [g2.element_order(x) for x in range(n)]
    if sorted(orders1) != sorted(orders2):
        return False
    gens = _generating_set(g1.cayley)

    def words(gen_images):
        """Extend a generator assignment to the full map, or None."""
        phi = {0: 0}
        queue = [0]
        while queue:
            x = queue.pop()
            for g, img in zip(gens, gen_images):
                y = g1.cayley[x][g]
                fy = g2.cayley[phi[x]][img]
                if y in phi:
                    if phi[y] != fy:
                        return None
                else:
                    phi[y] = fy
                    queue.append(y)
        if len(phi) != n or len(set(phi.values())) != n:
            return None
        for a in range(n):
            for b in range(n):
                if phi[g1.cayley[a][b]] != g2.cayley[phi[a]][phi[b]]:
                    return None
        return phi

    candidates = [
        [y for y in range(n) if orders2[y] == orders1[g]] for g in gens
    ]
    for images in itertools.product(*candidates):
        if words(images) is not None:
            return True
    return False


def identify_group(group):
    """A human-readable name for a small group: cyclic and abelian
    groups by invariant factors, dihedral/symmetric by isomorphism,
    otherwise a descriptor string."""
    n = group.order
    if n == 1:
        return "C1"
    orders = [group.element_order(x) for x in range(n)]
    if max(orders) == n:
        return f"C{n}"
    if group.is_abelian():
        return "x".join(f"C{d}" for d in _invariant_factors(orders))
    if n % 2 == 0 and n >= 6:
        if n == 6 and are_isomorphic(group, symmetric_group(3)):
            return "S3"
        if n == 24 and are_isomorphic(group, symmetric_group(4)):
            return "S4"
        if are_isomorphic(group, dihedral_group(n // 2)):
            return f"D{n // 2}"
        if n == 8 and orders.count(2) == 1:
            return "Q8"
    return f"order{n}-nonabelian-maxord{max(orders)}"


def _invariant_factors(orders):
    """The invariant factors (d1, d2, ...), each divisible by the next,
    of the abelian group with these element orders.

    In C_d1 x ... x C_dr the number of x with x^e = 1 is the product of
    the gcd(e, d_i).  So d1 is the least divisor e of n at which all n
    elements qualify, and dividing each count by gcd(e, d1) leaves the
    counts of the other factors.
    """
    n = len(orders)
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    counts = {e: sum(1 for o in orders if e % o == 0) for e in divisors}
    factors = []
    remaining = n
    while remaining > 1:
        d = next(e for e in divisors if counts[e] == remaining)
        factors.append(d)
        remaining //= d
        counts = {e: c // math.gcd(e, d) for e, c in counts.items()}
    return factors
