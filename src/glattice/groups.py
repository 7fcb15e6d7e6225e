"""Finite groups as Cayley tables, subgroup lattices, conjugation actions.

Elements are plain ints ``0..n-1`` and index 0 is always the identity;
display labels ride along for IO.  Construction validates the group
axioms, associativity by Light's test on a generating set at every
order.
"""

from __future__ import annotations

import functools
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
        """Whether the table equals its transpose."""
        return self.cayley == tuple(zip(*self.cayley))

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


def _close(cayley, gens):
    """The subgroup generated by ``gens``: every element reached from
    the identity by right products with a generator.  In a finite group
    every inverse is a positive power, so nothing else is needed."""
    gens = set(gens)
    closure = {0}
    queue = [0]
    while queue:
        row = cayley[queue.pop()]
        for g in gens:
            z = row[g]
            if z not in closure:
                closure.add(z)
                queue.append(z)
    return frozenset(closure)


def _generating_set(cayley):
    """The least element outside the closure so far, until it is all.

    Every element ``_close`` reaches is a product of generators, so the
    set generates the table as a magma with identity, which is what
    Light's test needs before associativity is known."""
    n = len(cayley)
    gens = []
    closure = frozenset({0})
    while len(closure) < n:
        gens.append(min(x for x in range(n) if x not in closure))
        closure = _close(cayley, gens)
    return gens


def _check_associativity(cayley):
    """Light's test: a(sb) == (as)b for every s of a generating set and
    all a, b.  It suffices for a table with a two-sided identity: the s
    that pass are closed under products and include the generators, of
    which every element is a product."""
    n = len(cayley)
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
    """S_n on lexicographically ordered permutation tuples, 1 <= n <= 5."""
    if n < 1:
        raise MalformedTable("need n >= 1")
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


def _dihedral_product(n, x, y):
    """x * y in D_n, element f n + i being s^f r^i, by r^i s = s r^-i."""
    f1, i = divmod(x, n)
    f2, j = divmod(y, n)
    rot = (j + i) % n if f2 == 0 else (j - i) % n
    return (f1 ^ f2) * n + rot


def dihedral_group(n):
    """The dihedral group of order 2n in the form s^f r^i: n rotations
    (f = 0) then n reflections (f = 1), multiplying by r^i s = s r^-i."""
    if n < 1:
        raise MalformedTable("need n >= 1")
    cayley = [[_dihedral_product(n, x, y) for y in range(2 * n)] for x in range(2 * n)]
    labels = (
        ["1"]
        + [f"r^{i}" if i > 1 else "r" for i in range(1, n)]
        + ["s"]
        + [f"sr^{i}" if i > 1 else "sr" for i in range(1, n)]
    )
    return FiniteGroup(cayley, labels=labels, name=f"D{n}")


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
            bigger = _close(group.cayley, (*current, g))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    sets = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Subgroup(group, s) for s in sets]


def subgroup_lattice(group):
    """The lattice of all subgroups ordered by inclusion, as the set
    lattice of their member bitmasks (bit h for element h).

    The meet is intersection: construction checks that the member sets
    are closed under it.  The algebraic route then checks the join read
    off the order, one row at a time, against the subgroup the union
    generates; the first entry that differs raises TableMismatch with
    witness (x, y), and a join that is no subgroup has no index and
    differs as None.  Each distinct union is closed once, and a union
    that is a subgroup already is its own closure.
    """
    subs = all_subgroups(group)
    masks = [sum(1 << h for h in s.members) for s in subs]
    lattice = _lattice.SetLattice(masks, payloads=subs, labels=[repr(s) for s in subs])
    closure = dict(zip(masks, masks))
    for x, (a, true_row) in enumerate(zip(masks, lattice.join)):
        row = []
        for b in masks:
            union = a | b
            if union not in closure:
                closure[union] = sum(1 << h for h in _close(group.cayley, _lattice._bits(union)))
            row.append(lattice.by_mask.get(closure[union]))
        error = _lattice._row_mismatch("join", x, row, list(true_row))
        if error is not None:
            raise error
    return lattice


def conjugation_glattice(group):
    """The action of a group on its own subgroup lattice by conjugation.

    Row g moves each subgroup element by element, h -> g h g^-1, and
    the table is not validated: in a validated group each such map is
    an automorphism, so it permutes the subgroups keeping inclusion both
    ways (3), is the identity for g = e (2), and conjugating by h then
    by g is conjugating by gh (1).
    """
    lattice = subgroup_lattice(group)
    cayley, inverse = group.cayley, group.inverse
    table = [
        lattice._induced_row([cayley[cayley[g][h]][inverse[g]] for h in range(group.order)])
        for g in range(group.order)
    ]
    return _lattice.GLatticeAction(group, lattice, table)


# ---------------------------------------------------------------------------
# names: S4 and D_m by isomorphisms checked on the whole table, no search


def identify_group(group):
    """A human-readable name for any finite group: cyclic and abelian
    groups by invariant factors, S4 and D_m (S3 as D3) by presentation
    witnesses (``_is_s4``, ``_is_dihedral``), Q8 by its one involution,
    otherwise a descriptor string.  No name needs a search."""
    n = group.order
    if n == 1:
        return "C1"
    orders = [group.element_order(x) for x in range(n)]
    if max(orders) == n:
        return f"C{n}"
    if group.is_abelian():
        return "x".join(f"C{d}" for d in _invariant_factors(orders))
    if n % 2 == 0:
        if n == 24 and _is_s4(group, orders):
            return "S4"
        if _is_dihedral(group, orders):
            return "S3" if n == 6 else f"D{n // 2}"
        if n == 8 and orders.count(2) == 1:
            return "Q8"
    return f"order{n}-nonabelian-maxord{max(orders)}"


def _is_isomorphism(cayley, image, product):
    """Whether x -> image[x], from the model group whose product is
    ``product(x, y)``, is a bijection onto the table and multiplicative
    on every pair: an isomorphism, checked."""
    n = len(cayley)
    return len(set(image)) == n and all(
        cayley[image[x]][image[y]] == image[product(x, y)] for x in range(n) for y in range(n)
    )


def _is_dihedral(group, orders):
    """Whether a non-abelian group of order n = 2m >= 6 is D_m.

    r is the first element of order m and s the first element outside
    <r>, so s^f r^i (f = 0, 1; 0 <= i < m) lists every element once.
    The group is D_m exactly when that map from D_m, element f m + i to
    s^f r^i, is an isomorphism.  In D_m with m > 2 every element of
    order m is a rotation and every element outside the rotations a
    reflection, so the map is an isomorphism whichever r and s are
    picked: a failure is no accident of the choice.
    """
    m = group.order // 2
    r = next((x for x, o in enumerate(orders) if o == m), None)
    if r is None:
        return False
    cayley = group.cayley
    image = [0]
    for _ in range(1, m):
        image.append(cayley[image[-1]][r])
    rotations = set(image)
    s = next(x for x in range(group.order) if x not in rotations)
    image += [cayley[s][x] for x in image]
    return _is_isomorphism(cayley, image, functools.partial(_dihedral_product, m))


def _is_s4(group, orders):
    """Whether a non-abelian group of order 24 is S4, which is
    <a, b | a^4 = b^2 = (ab)^3 = 1> (Coxeter & Moser).

    a is the first element of order 4, and b runs over the involutions
    with ab of order 3.  The preset ``symmetric_group(4)``, whose table
    ``_s4_model`` builds once per process, is generated by
    a0 = (0 1 2 3) and b0 = (0 1); each pair extends a0 -> a, b0 -> b
    to the preset's elements by words, and the group is S4 exactly when
    one such map is an isomorphism.  The elements of order 4 in S4 are
    all conjugate, so fixing a loses no S4.
    """
    a = next((x for x, o in enumerate(orders) if o == 4), None)
    if a is None:
        return False
    model, a0, b0 = _s4_model()
    cayley = group.cayley
    for b in range(group.order):
        if orders[b] != 2 or orders[cayley[a][b]] != 3:
            continue
        image = {0: 0}
        queue = [0]
        while queue:
            x = queue.pop()
            for g0, g in ((a0, a), (b0, b)):
                y = model[x][g0]
                if y not in image:
                    image[y] = cayley[image[x]][g]
                    queue.append(y)
        if _is_isomorphism(cayley, [image[x] for x in range(24)], lambda x, y: model[x][y]):
            return True
    return False


@functools.cache
def _s4_model():
    """The Cayley table of the preset ``symmetric_group(4)`` and its
    elements a0 = (0 1 2 3) and b0 = (0 1), built once per process."""
    model = symmetric_group(4)
    return model.cayley, model.label_index("1230"), model.label_index("1023")


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
