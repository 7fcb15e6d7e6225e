"""Finite lattices, their automorphisms, and lattices acted on by a group.

Every lattice is a family of sets under inclusion: a lattice given by
its order is the family of its down-sets.  It stores the sets, and
forms the down-set and up-set bitmask of every element and its
meet/join tables when they are first read.  Construction checks that
the sets are closed under intersection and hold their union: such a
family is a lattice whose meet is the intersection.  That check scans
every pair of elements once, at every size, except on a subspace
lattice, whose construction proves that its sets are exactly L(V)
through the annihilator duality (``linalg.SubspaceLattice``).

An action of a group G on a lattice L is a |G| x |L| index table.  The
five compatibility axioms an action must satisfy are

  (1) g(hx) = (gh)x          (2) ex = x
  (3) x <= y  iff  gx <= gy
  (4) g(x ^ y) = gx ^ gy     (5) g(x v y) = gx v gy

and each has its own checker so violations can be pinpointed with a
witness.  ``validate_glattice`` stops after (3): a row that passes it is
an order automorphism, and order automorphisms preserve meets and
joins, so (4) and (5) cannot fail after it; their checkers stay public.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import and_, itemgetter, or_

from .errors import (
    GlatticeError,
    NoJoin,
    NoMeet,
    NotGSet,
    NotHomomorphism,
    NotLatticeAutomorphism,
    NotPartialOrder,
    ShapeMismatch,
    TableMismatch,
    TooLarge,
)

_AUT_SEARCH_LIMIT = 40
# |Aut L| on either route: admits L(GF(2)^4) (20,160) and the diamond M_8
# (8!), refuses L(GF(8)^2) (9!), L(GF(4)^3) (120,960) and M_9
_AUT_GROUP_LIMIT = 50_000
# points of a power-set G-set: boolean_lattice checks that each of the
# 4^n / 2 pairs of subsets intersects in a member, so each extra point
# costs about 4x time (C2 on 11 points builds in 0.29-0.31 s in a fresh
# process; Python 3.11.7, 2 shared vCPUs)
_POWERSET_LIMIT = 11
_POWERSET_REFUSAL = f"power-set lattice capped at {_POWERSET_LIMIT} points"
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class FiniteLattice:
    """A finite lattice as a family of sets under inclusion, built by
    ``_set_family``: ``masks`` lists the sets as bitmasks and
    ``by_mask`` inverts it.  ``SetLattice`` hands over point sets; a
    lattice given by an ``leq`` matrix is checked to be a partial order
    and hands over its down-sets, since x <= y exactly when down[x] is a
    subset of down[y].  Nothing else is kept: ``down_masks`` /
    ``up_masks``, the elements below and above each x (bit y for element
    y), are formed when first read, and ``_bound_rows`` reads ``meet``
    and ``join`` when first read.  A lattice that also knows its join
    algebraically compares it with the table itself, through
    ``_row_mismatch``: ``subgroup_lattice`` does so.
    """

    def __init__(self, leq, payloads=None, labels=None):
        m = len(leq)
        for row in leq:
            if len(row) != m:
                raise ShapeMismatch("leq matrix is not square")
        # up[x] is row x of leq, down[x] column x
        up = [_mask(row) for row in leq]
        down = _transpose(up)
        for x in range(m):
            if not up[x] >> x & 1:
                raise NotPartialOrder(f"not reflexive at {x}", witness=(x,))
        for x in range(m):
            for y in _bits(up[x]):
                if x != y and down[x] >> y & 1:
                    raise NotPartialOrder(f"not antisymmetric at ({x},{y})", witness=(x, y))
                if down[x] & ~down[y]:
                    z = (down[x] & ~down[y]).bit_length() - 1
                    raise NotPartialOrder(
                        f"not transitive: {z}<={x}<={y} but not {z}<={y}",
                        witness=(z, x, y),
                    )
        self._set_family(tuple(down), payloads, labels)

    def _set_family(self, sets, payloads=None, labels=None):
        """Build the lattice of the pairwise distinct sets ``sets``
        (bitmasks, one per element) under inclusion, checked by
        ``_check_closure``.

        The errors come in a fixed order.  NotPartialOrder("not
        antisymmetric") at the first element x with a repeated set and
        the first other element y with its set; then the errors of
        ``_check_closure``; then ShapeMismatch for the payloads or
        labels.
        """
        m = len(sets)
        if m == 0:
            raise NotPartialOrder("empty carrier")
        # the last element with each set, so a repeated set maps past its first
        by_mask = dict(zip(sets, range(m)))
        if len(by_mask) < m:
            x = next(x for x, mask in enumerate(sets) if by_mask[mask] != x)
            y = sets.index(sets[x], x + 1)
            raise NotPartialOrder(f"not antisymmetric at ({x},{y})", witness=(x, y))
        _check_closure(sets, by_mask)
        for name, values in (("payloads", payloads), ("labels", labels)):
            if values is not None and len(values) != m:
                raise ShapeMismatch(f"{len(values)} {name} for {m} elements")
        self.size = m
        self.masks = sets
        self.by_mask = by_mask
        self.payloads = tuple(payloads) if payloads is not None else tuple(range(m))
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(m))

    @functools.cached_property
    def up_masks(self):
        """The elements above each x, formed when first read."""
        return tuple(_up_sets(self.masks))

    @functools.cached_property
    def down_masks(self):
        """The elements below each x, the transpose of ``up_masks``."""
        return tuple(_transpose(self.up_masks))

    @functools.cached_property
    def meet(self):
        """The meet table, the intersections read off ``masks`` when first read."""
        return tuple(map(tuple, _bound_rows(self.masks)))

    @functools.cached_property
    def join(self):
        """The join table, read off the up-set masks when first read."""
        return tuple(map(tuple, _bound_rows(self.up_masks)))

    def covers(self):
        """Pairs (x, y) with y covering x (the Hasse diagram edges)."""
        down, up = self.down_masks, self.up_masks
        # y covers x when x and y are all that lies between them
        return [
            (x, y)
            for x in range(self.size)
            for y in _bits(up[x])
            if x != y and up[x] & down[y] == 1 << x | 1 << y
        ]

    def _row_violation(self, row):
        """The first (x, y) at which the map x -> row[x] breaks x <= y
        iff row[x] <= row[y], or None: ``_order_violation``."""
        return _order_violation(self, row)

    def _closed_automorphism_group(self):
        """Every automorphism, sorted by permutation, when the lattice
        knows its automorphism group in closed form; None sends
        ``lattice_automorphism_group`` to the backtracking search."""
        return None

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteLattice(size={self.size})"


def _mask(flags):
    """The bitmask with bit i set where flags[i] is true."""
    return int(bytes(map(bool, reversed(flags))).translate(_BIT_CHARS), 2)


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(mask, sets):
    """The union of the bitmasks sets[z] over the set bits z of mask."""
    out = 0
    for z in _bits(mask):
        out |= sets[z]
    return out


def _transpose(masks):
    """The masks of the transposed relation: bit x of out[y] for bit y of masks[x]."""
    out = [0] * len(masks)
    for x, mask in enumerate(masks):
        for y in _bits(mask):
            out[y] |= 1 << x
    return out


def _up_sets(sets):
    """The up-set of each of the distinct sets ``sets``: the AND, over
    the points p of the set, of the members that hold p."""
    # contain[p]: the elements whose set holds point p
    contain = {}
    for x, mask in enumerate(sets):
        for p in _bits(mask):
            contain[p] = contain.get(p, 0) | 1 << x
    everything = (1 << len(sets)) - 1
    return [functools.reduce(and_, map(contain.get, _bits(mask)), everything) for mask in sets]


def _check_closure(sets, by_mask):
    """Raise unless the pairwise distinct sets ``sets``, indexed by
    ``by_mask``, are closed under pairwise intersection and hold their
    union.

    Such a family is a lattice under inclusion: meet[x][y] is the
    member masks[x] & masks[y], the union is the top, and the join of x
    and y is the meet of their common upper bounds, which the top makes
    nonempty (Davey & Priestley, *Introduction to Lattices and Order*,
    2nd ed., chs. 2 and 7).  The glb and lub of a partial order satisfy
    the lattice laws, so no cubic law check runs: this checks every
    ``a & b`` with a before b, and the union, O(m^2) mask operations.
    On down-sets that is the scan of every meet and the check of the
    top.

    When an intersection or the union is no member: NoMeet / NoJoin at
    the first pair in row-major order that lacks a bound in the
    inclusion order, the meet first; for a family that is a lattice all
    the same, GlatticeError at the first pair whose intersection is no
    member.
    """
    gap = _first_gap(sets)
    if gap is None and functools.reduce(or_, sets) in by_mask:
        return
    up = _up_sets(sets)
    no_meet, no_join = _first_gap(_transpose(up)), _first_gap(up)
    if no_meet is not None and (no_join is None or no_meet <= no_join):
        raise NoMeet("elements {},{} have no meet".format(*no_meet), witness=no_meet)
    if no_join is not None:
        raise NoJoin("elements {},{} have no join".format(*no_join), witness=no_join)
    x, y = gap
    raise GlatticeError(f"the sets of elements {x},{y} intersect in no member", witness=(x, y))


def _order_violation(lattice, row):
    """The first (x, y) in row-major order at which the map x -> row[x]
    breaks x <= y iff row[x] <= row[y], or None.

    Row x of the comparison is up[x] ^ {y : row[x] <= row[y]}, the
    preimage of up[row[x]]; the witness y is its lowest bit.
    """
    up = lattice.up_masks
    # fibres[z]: the bitmask of the elements row sends to z
    fibres = [0] * lattice.size
    for y, z in enumerate(row):
        fibres[z] |= 1 << y
    for x, z in enumerate(row):
        differ = up[x] ^ _union(up[z], fibres)
        if differ:
            return x, (differ & -differ).bit_length() - 1
    return None


def _bound_rows(masks):
    """Row x of the table whose entry y is the element with mask
    masks[x] & masks[y], for x = 0, 1, ... in turn; None where no
    element has it.  Over the sets of a lattice this is the meet, over
    its up-set masks the join, over its down-set masks the meet read off
    the order."""
    get = {mask: z for z, mask in enumerate(masks)}.get
    for a in masks:
        yield [get(a & b) for b in masks]


def _first_gap(masks):
    """The first (x, y) in row-major order at which ``_bound_rows`` finds
    no element, or None.  ``a & b`` is symmetric and ``a & a`` is a
    member, so the first gap has x < y, and only those pairs are
    scanned."""
    members = set(masks)
    for x, a in enumerate(masks):
        later = masks[x + 1 :]
        if not all(map(members.__contains__, map(a.__and__, later))):
            return x, x + 1 + next(y for y, b in enumerate(later) if a & b not in members)
    return None


def _row_mismatch(name, x, row, true_row):
    """TableMismatch at the first y with row[y] != true_row[y], or None
    when row x of the table ``name`` is right."""
    if row == true_row:
        return None
    y = next(y for y in range(len(true_row)) if row[y] != true_row[y])
    return TableMismatch(
        f"{name}[{x}][{y}] = {row[y]}, but the true bound is {true_row[y]}", witness=(x, y)
    )


class SetLattice(FiniteLattice):
    """Sets of points ordered by inclusion, given as pairwise distinct
    bitmasks (bit p for point p) and built by ``_set_family``.
    ``_induced_row`` lifts a permutation of the points to the sets."""

    def __init__(self, masks, payloads=None, labels=None):
        self._set_family(tuple(masks), payloads, labels)

    def _induced_row(self, image):
        """The index each set goes to when point p moves to image[p]: its
        mask, moved bit by bit.  NotLatticeAutomorphism when a moved mask
        is no element's."""
        by_mask = self.by_mask
        row = []
        for mask in self.masks:
            moved = 0
            while mask:
                low = mask & -mask
                moved |= 1 << image[low.bit_length() - 1]
                mask ^= low
            if moved not in by_mask:
                raise NotLatticeAutomorphism("a point permutation moves a subspace off the lattice")
            row.append(by_mask[moved])
        return row


def chain_lattice(m):
    return FiniteLattice([[i <= j for j in range(m)] for i in range(m)])


def boolean_lattice(num_atoms):
    """The lattice of subsets of {0..num_atoms-1}; element i is bitmask i.
    TooLarge above 11 atoms, before any table is built."""
    if num_atoms > _POWERSET_LIMIT:
        raise TooLarge(_POWERSET_REFUSAL)
    payloads = [tuple(_bits(i)) for i in range(1 << num_atoms)]
    labels = ["{" + ",".join(str(b) for b in payload) + "}" for payload in payloads]
    return SetLattice(range(1 << num_atoms), payloads, labels)


# ---------------------------------------------------------------------------
# automorphisms


class LatticeAutomorphism:
    """An order-automorphism of a finite lattice, stored as a permutation.

    The constructor checks the permutation through the lattice's
    ``_row_violation``: on every ordered pair, one up-set mask per
    element, or on the point sets of a subspace lattice.  Products and
    inverses of checked automorphisms are automorphisms, so ``compose``,
    ``inverse`` and the closure of checked generators build their
    results through ``_unchecked``.
    """

    __slots__ = ("lattice", "perm")

    def __init__(self, lattice, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(lattice.size)):
            raise NotLatticeAutomorphism("not a permutation of the carrier")
        witness = lattice._row_violation(perm)
        if witness is not None:
            x, y = witness
            raise NotLatticeAutomorphism(f"order not preserved at ({x},{y})", witness=witness)
        self.lattice = lattice
        self.perm = perm

    @classmethod
    def _unchecked(cls, lattice, perm):
        """The automorphism with this permutation tuple, known to be one."""
        a = object.__new__(cls)
        a.lattice, a.perm = lattice, perm
        return a

    def __call__(self, x):
        return self.perm[x]

    def compose(self, other):
        """self after other."""
        if self.lattice is not other.lattice:
            raise ShapeMismatch("automorphisms of different lattices")
        return LatticeAutomorphism._unchecked(self.lattice, tuple([self.perm[x] for x in other.perm]))

    def inverse(self):
        inv = [0] * self.lattice.size
        for x, y in enumerate(self.perm):
            inv[y] = x
        return LatticeAutomorphism._unchecked(self.lattice, tuple(inv))

    def is_identity(self):
        return all(self.perm[x] == x for x in range(self.lattice.size))

    def __eq__(self, other):
        return (
            isinstance(other, LatticeAutomorphism)
            and self.lattice is other.lattice
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"LatticeAutomorphism{self.perm}"


def identity_automorphism(lattice):
    return LatticeAutomorphism(lattice, range(lattice.size))


def automorphism_closure(lattice, generators, order):
    """The group the checked automorphisms ``generators`` generate,
    sorted by ``perm``; GlatticeError unless it has exactly ``order``
    elements.

    A breadth-first search from the identity over permutation tuples;
    p after g is ``itemgetter(*g)(p)``, so composing is tuple indexing
    in C.  In a finite group the products of the generators already
    contain every inverse, and a product of automorphisms is one, so
    only the generators are checked.  The search stops once it has
    passed ``order`` elements.
    """
    identity = tuple(range(lattice.size))
    # itemgetter of a single index returns a bare entry, but a one-element
    # lattice has no permutation other than the identity, which is dropped
    after = [itemgetter(*g) for g in dict.fromkeys(a.perm for a in generators) if g != identity]
    seen = {identity}
    frontier = [identity]
    while frontier and len(seen) <= order:
        grown = []
        for p in frontier:
            for g in after:
                pg = g(p)
                if pg not in seen:
                    seen.add(pg)
                    grown.append(pg)
        frontier = grown
    if len(seen) != order:
        raise GlatticeError(
            f"the generators close to {'at least ' if frontier else ''}{len(seen)} "
            f"automorphisms, not the closed-form {order}"
        )
    return [LatticeAutomorphism._unchecked(lattice, p) for p in sorted(seen)]


def _refine_signatures(lattice):
    m = lattice.size
    covers = lattice.covers()
    lower = [[] for _ in range(m)]
    upper = [[] for _ in range(m)]
    for x, y in covers:
        upper[x].append(y)
        lower[y].append(x)
    sig = [
        (
            bin(lattice.down_masks[x]).count("1"),
            bin(lattice.up_masks[x]).count("1"),
            len(lower[x]),
            len(upper[x]),
        )
        for x in range(m)
    ]
    for _ in range(3):
        canon = {s: i for i, s in enumerate(sorted(set(sig)))}
        coded = [canon[s] for s in sig]
        sig = [
            (
                coded[x],
                tuple(sorted(coded[y] for y in lower[x])),
                tuple(sorted(coded[y] for y in upper[x])),
            )
            for x in range(m)
        ]
    canon = {s: i for i, s in enumerate(sorted(set(sig)))}
    return [canon[s] for s in sig]


def lattice_automorphism_group(lattice):
    """Every order-automorphism, sorted by permutation.

    A lattice whose automorphism group is known in closed form returns
    it from its ``_closed_automorphism_group`` hook; a subspace lattice
    closes generators of PGammaL(V) and checks the count.  Every other
    lattice goes to ``search_automorphisms``, refused above 40 elements.
    Both routes refuse a group of more than 50,000 automorphisms.
    """
    found = lattice._closed_automorphism_group()
    if found is not None:
        return found
    if lattice.size > _AUT_SEARCH_LIMIT:
        raise TooLarge(f"automorphism search capped at {_AUT_SEARCH_LIMIT} elements")
    return search_automorphisms(lattice)


def search_automorphisms(lattice):
    """Every order-automorphism, by backtracking over signature classes.

    The search prunes with an iterated degree/height refinement.  A
    candidate y for x must relate to the images of the placed elements
    as x relates to them: up[y] and down[y] restricted to the used
    images equal the images of up[x] and down[x] restricted to the
    placed elements.  So a leaf is an automorphism and is built
    unchecked.  The elements are placed in one fixed order, so the
    placed elements above and below each one are listed once, before
    the search.  TooLarge as soon as more than 50,000 are found.  The
    search stays the reference the closed forms are tested against.
    """
    m = lattice.size
    sig = _refine_signatures(lattice)
    classes = {}
    for x in range(m):
        classes[sig[x]] = classes.get(sig[x], 0) | 1 << x
    # the bitmask of the elements x may be sent to
    same = [classes[s] for s in sig]
    order = sorted(range(m), key=lambda x: (bin(same[x]).count("1"), x))
    down, up = lattice.down_masks, lattice.up_masks
    # step i places order[i] after order[:i]: per step, the element, the
    # bitmask of its candidates, and the placed elements above and below it
    steps, placed = [], 0
    for x in order:
        steps.append((x, same[x], list(_bits(up[x] & placed)), list(_bits(down[x] & placed))))
        placed |= 1 << x
    found = []
    image = [None] * m
    image_bit = [0] * m

    # the loops stay inline: a generator or a comprehension would cost one
    # more frame per node
    def backtrack(i, used):
        if i == m:
            found.append(tuple(image))
            if len(found) > _AUT_GROUP_LIMIT:
                raise TooLarge(
                    f"automorphism search found more than {_AUT_GROUP_LIMIT} automorphisms"
                )
            return
        x, candidates, above, below = steps[i]
        up_image = down_image = 0
        for z in above:
            up_image |= image_bit[z]
        for z in below:
            down_image |= image_bit[z]
        free = candidates & ~used
        while free:
            bit = free & -free
            free ^= bit
            y = bit.bit_length() - 1
            if up[y] & used != up_image or down[y] & used != down_image:
                continue
            image[x], image_bit[x] = y, bit
            backtrack(i + 1, used | bit)

    backtrack(0, 0)
    return [LatticeAutomorphism._unchecked(lattice, perm) for perm in sorted(found)]


# ---------------------------------------------------------------------------
# group actions on lattices


class GLatticeAction:
    """A group action on a lattice, as an explicit |G| x |L| table."""

    __slots__ = ("group", "lattice", "table")

    def __init__(self, group, lattice, table):
        if len(table) != group.order:
            raise ShapeMismatch("action table must have one row per group element")
        for row in table:
            if len(row) != lattice.size:
                raise ShapeMismatch("action row length differs from lattice size")
            for entry in row:
                # not isinstance: a bool is an int, and JSON true/false are no indices
                if type(entry) is not int or not 0 <= entry < lattice.size:
                    raise ShapeMismatch(f"action entry {entry!r} out of range")
        self.group = group
        self.lattice = lattice
        self.table = tuple(tuple(row) for row in table)

    def apply(self, g, x):
        return self.table[g][x]

    def __eq__(self, other):
        return (
            isinstance(other, GLatticeAction)
            and self.group == other.group
            and self.table == other.table
        )

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"GLatticeAction(|G|={self.group.order}, |L|={self.lattice.size})"


@dataclass
class ActionReport:
    ok: bool
    axiom: int | None = None
    witness: tuple = ()
    message: str = ""

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass"
        return f"axiom ({self.axiom}) fails: {self.message} witness={self.witness}"


def _axiom1(table, cayley):
    """The first (g, h, x) with g(hx) != (gh)x in a table of rows, one
    per group element, or None."""
    for g, row in enumerate(table):
        for h, gh in enumerate(cayley[g]):
            moved, want = table[h], table[gh]
            for x in range(len(want)):
                if row[moved[x]] != want[x]:
                    return (g, h, x)
    return None


def _axiom2(table):
    """(0, x) for the first point x the identity row moves, or None."""
    for x, ex in enumerate(table[0]):
        if ex != x:
            return (0, x)
    return None


def _axiom3(action):
    for g, row in enumerate(action.table):
        witness = action.lattice._row_violation(row)
        if witness is not None:
            return (g, *witness)
    return None


def _preserves(action, op):
    """The first (g, x, y) with g(x op y) != gx op gy, for a meet or
    join table op."""
    for g in range(action.group.order):
        row = action.table[g]
        for x in range(action.lattice.size):
            for y in range(action.lattice.size):
                if row[op[x][y]] != op[row[x]][row[y]]:
                    return (g, x, y)
    return None


AXIOM_CHECKERS = {
    1: lambda action: _axiom1(action.table, action.group.cayley),
    2: lambda action: _axiom2(action.table),
    3: _axiom3,
    4: lambda action: _preserves(action, action.lattice.meet),
    5: lambda action: _preserves(action, action.lattice.join),
}

_AXIOM_TEXT = {
    1: "g(hx) = (gh)x",
    2: "ex = x",
    3: "x <= y iff gx <= gy",
    4: "g(x^y) = gx^gy",
    5: "g(xvy) = gxvgy",
}


def check_axiom(action, k):
    """Witness of a violation of axiom k, or None if it holds."""
    return AXIOM_CHECKERS[k](action)


def validate_glattice(action):
    """Check the action axioms (1)-(3); report the first that fails.

    That decides all five.  A row that passes (3) is injective, by
    antisymmetry, so it is a bijection of a finite set that keeps
    x <= y iff gx <= gy: an order automorphism.  An order isomorphism
    between lattices preserves every meet and join (Davey & Priestley,
    *Introduction to Lattices and Order*, ch. 2), and the lattice's
    tables are its true bounds, read off the order.  So (4) and (5)
    hold whenever (3) does; ``check_axiom`` still checks them on their
    own.
    """
    for k in (1, 2, 3):
        witness = check_axiom(action, k)
        if witness is not None:
            return ActionReport(False, axiom=k, witness=witness, message=_AXIOM_TEXT[k])
    return ActionReport(True)


def trivial_action(group, lattice):
    return GLatticeAction(group, lattice, [list(range(lattice.size))] * group.order)


def action_from_homomorphism(group, lattice, rho):
    """Turn a homomorphism g -> Aut(L) into an action table.

    ``rho`` maps element indices to LatticeAutomorphisms of ``lattice``.
    Axiom (1) alone decides: rho(g)rho(h) = rho(gh), whose first failing
    (g, h, x) names the first failing pair (g, h).  rho(e) is checked to
    be the identity, which is (2), and each rho(g) is a checked
    automorphism of ``lattice``, which is (3).
    """
    if not rho[0].is_identity():
        raise NotHomomorphism("identity must map to the identity automorphism", witness=(0,))
    if any(rho[g].lattice is not lattice for g in range(group.order)):
        raise ShapeMismatch("automorphisms of different lattices")
    table = [[rho[g](x) for x in range(lattice.size)] for g in range(group.order)]
    witness = _axiom1(table, group.cayley)
    if witness is not None:
        g, h, _ = witness
        raise NotHomomorphism(f"rho({g})rho({h}) != rho({g}*{h})", witness=(g, h))
    return GLatticeAction(group, lattice, table)


def homomorphism_from_action(action):
    """Recover the automorphism family g -> (x -> gx) from an action.

    The rows are built unchecked: axiom (3) has compared the order on
    every pair for every row, and a row that keeps x <= y iff gx <= gy
    is injective by antisymmetry, so it is a permutation.
    """
    report = validate_glattice(action)
    if not report.ok:
        raise ShapeMismatch(f"not a valid action: {report}", witness=report.witness)
    return {
        g: LatticeAutomorphism._unchecked(action.lattice, action.table[g])
        for g in range(action.group.order)
    }


def powerset_glattice(group, gset_table):
    """Lift a finite G-set to the action on its Boolean lattice of subsets.

    ``gset_table[g][x]`` is the image point of x under g.  Subsets are
    indexed by bitmask, so element i of the lattice is the subset with
    characteristic bits i.

    The points are checked with the loops of axioms (2) and (1), and
    the lifted table is not: a G-set moved along bijections of its
    points is a G-lattice.  S -> gS is an inclusion-preserving
    bijection whose inverse, the lift of g^-1, preserves inclusion too
    (3); it fixes every S for g = e (2); g(hS) = (gh)S since it holds
    on every point (1).
    """
    if len(gset_table) != group.order:
        raise ShapeMismatch("G-set table needs one row per group element")
    npoints = len(gset_table[0])
    if npoints > _POWERSET_LIMIT:
        raise TooLarge(_POWERSET_REFUSAL)
    for row in gset_table:
        if len(row) != npoints:
            raise ShapeMismatch("ragged G-set table")
        if sorted(row) != list(range(npoints)):
            raise NotGSet("a group element must act as a bijection on points")
    witness = _axiom2(gset_table)
    if witness is not None:
        raise NotGSet(f"identity moves point {witness[1]}", witness=witness[1:])
    witness = _axiom1(gset_table, group.cayley)
    if witness is not None:
        raise NotGSet("g(hx) != (gh)x at ({},{},{})".format(*witness), witness=witness)
    lattice = boolean_lattice(npoints)
    return GLatticeAction(group, lattice, [lattice._induced_row(row) for row in gset_table])


def orbits(action):
    """Orbit partition of the lattice elements, sorted by least member.

    The action must be valid (``validate_glattice``): then the orbit of
    x is {gx : g in G}, column x of the table, read off as it stands."""
    columns = {frozenset(column) for column in zip(*action.table)}
    return sorted(sorted(orbit) for orbit in columns)


def fixed_points(action):
    return [
        x
        for x in range(action.lattice.size)
        if all(action.table[g][x] == x for g in range(action.group.order))
    ]


def orbit_report(action):
    """JSON-ready orbit summary: {"orbits": [[...]], "fixed": [...]}."""
    return {"orbits": orbits(action), "fixed": fixed_points(action)}


_DOT_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
    "#6a3d9a", "#b15928",
)


def hasse_dot(lattice, action=None):
    """DOT source for the Hasse diagram (cover relation only).

    When an action is given, nodes are filled with one color per orbit.
    Output is deterministic: nodes in index order, edges sorted.
    """
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box, style=filled, fillcolor=white];']
    color = {}
    if action is not None:
        for i, orbit in enumerate(orbits(action)):
            for x in orbit:
                color[x] = _DOT_PALETTE[i % len(_DOT_PALETTE)]
    for x in range(lattice.size):
        label = str(lattice.labels[x]).replace("\\", "\\\\").replace('"', '\\"')
        attrs = f'label="{label}"'
        if x in color:
            attrs += f', fillcolor="{color[x]}"'
        lines.append(f"  n{x} [{attrs}];")
    for x, y in sorted(lattice.covers()):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
