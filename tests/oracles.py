"""Brute-force references the library's fast paths are tested against.

None of this is library code: each function enumerates or scans the
whole search space, so it only runs on the small families of the tests.
"""

import itertools
import random
from fractions import Fraction

from glattice.errors import (
    GlatticeError,
    NoJoin,
    NoMeet,
    NotCoordinatizable,
    NotGSet,
    NotHomomorphism,
    NotInvertible,
    SpaceMismatch,
    TooLarge,
)
from glattice.extension import FactorSystem, FsReport
from glattice.groups import FiniteGroup
from glattice.lattice import _AXIOM_TEXT, ActionReport, check_axiom
from glattice.linalg import SemilinearMap, add_vectors, rref, scale_vector
from glattice.scalar import QUATERNIONS, DivisionRing, RingAutomorphism, list_automorphisms
from glattice.tgring import AlgebraVerdict, TwistedModule


def leq_matrix(lattice):
    """The order of a lattice as an m x m matrix of bools, read off its
    up-set masks: entry (x, y) is x <= y."""
    m = lattice.size
    return [[bool(lattice.up_masks[x] >> y & 1) for y in range(m)] for x in range(m)]


def meet_and_join_scan(down, up):
    """The bound check of lattice construction before it read a lattice
    as a family of sets: the meet and the join of every pair, read off
    the down-set and up-set masks row by row.  Raises NoMeet / NoJoin at
    the first pair in row-major order that lacks a bound (the meet
    first); returns the (meet, join) tables, as lists, for a lattice."""
    by_down = {mask: x for x, mask in enumerate(down)}
    by_up = {mask: x for x, mask in enumerate(up)}
    meet = [[None] * len(down) for _ in down]
    join = [[None] * len(down) for _ in down]
    for x in range(len(down)):
        for y in range(len(down)):
            if down[x] & down[y] not in by_down:
                raise NoMeet(f"elements {x},{y} have no meet", witness=(x, y))
            if up[x] & up[y] not in by_up:
                raise NoJoin(f"elements {x},{y} have no join", witness=(x, y))
            meet[x][y] = by_down[down[x] & down[y]]
            join[x][y] = by_up[up[x] & up[y]]
    return meet, join


def validate_all_five_axioms(action):
    """The action validator's loop over all five axioms, (4) and (5)
    included: the first that fails, with its witness."""
    for k in (1, 2, 3, 4, 5):
        witness = check_axiom(action, k)
        if witness is not None:
            return ActionReport(False, axiom=k, witness=witness, message=_AXIOM_TEXT[k])
    return ActionReport(True)


def orbits_by_search(action):
    """The orbit partition, sorted by least member, found by closing each
    unseen element under every group element in turn: the search
    ``lattice.orbits`` ran before it read the orbits off the columns."""
    seen = [False] * action.lattice.size
    out = []
    for x in range(action.lattice.size):
        if seen[x]:
            continue
        orbit = set()
        queue = [x]
        while queue:
            y = queue.pop()
            if y in orbit:
                continue
            orbit.add(y)
            for g in range(action.group.order):
                queue.append(action.table[g][y])
        for y in orbit:
            seen[y] = True
        out.append(sorted(orbit))
    out.sort(key=lambda orb: orb[0])
    return out


# ---------------------------------------------------------------------------
# subspaces


def point_rows(w):
    """Canonical basis rows of the 1-dimensional subspaces inside the
    ``Subspace`` w, spanned with ``Scalar`` arithmetic.

    The first nonzero entry of ``sum(c_i * basis[i])`` is ``c_t`` at
    ``pivots[t]``, for the first t with ``c_t != 0``; so the
    combinations with ``c_t = 1`` are already in reduced form.
    """
    units = w.space.ring.units()
    span = [w.space.zero_vector()]  # span of basis[t + 1:]
    rows = []
    for t in reversed(range(w.dim)):
        rows.extend(add_vectors(w.basis[t], v) for v in span)
        if t:
            multiples = [scale_vector(c, w.basis[t]) for c in units]
            span += [add_vectors(u, v) for u in multiples for v in span]
    return rows


def point_image(lattice, f):
    """Where the semilinear map f sends each point of the
    ``SubspaceLattice`` lattice, with ``Scalar`` arithmetic: f applied to
    each point's canonical row, the image scaled by the inverse of its
    first nonzero entry and looked up among the 1-dimensional bases.
    NotInvertible at the first point that goes to zero."""
    if f.space != lattice.space:
        raise SpaceMismatch("map and lattice live on different spaces")
    image = {}
    for i in lattice.points:
        v = f.apply(lattice.payloads[i].basis[0])
        lead = next((x for x in v if not x.is_zero()), None)
        if lead is None:
            raise NotInvertible("images of subspaces need an invertible map")
        lead = lead.inverse()
        image[i] = lattice._index[(tuple([lead * x for x in v]),)]
    return image


def coordinatize(phi):
    """``rep.coordinatize`` with ``Scalar`` arithmetic: the frame rows read
    off the payloads' bases, the frame system solved with ``rref``, and
    one ``SemilinearMap`` per twist, in ``list_automorphisms`` order,
    checked with the ``Scalar`` ``point_image`` above.  Raises
    NotCoordinatizable with the library's messages and frame witness."""
    lattice = phi.lattice
    space = lattice.space
    ring, n = space.ring, space.dim

    def image_row(v):
        return lattice.payloads[phi(lattice._index[(v,)])].basis[0]

    columns = [image_row(e) for e in space.basis()]
    u = image_row((ring.one(),) * n)
    reduced, pivots = rref([[v[r] for v in columns] + [u[r]] for r in range(n)], ring)
    coeffs = [row[n] for row in reduced]
    if pivots != tuple(range(n)) or any(c.is_zero() for c in coeffs):
        raise NotCoordinatizable(
            "frame images are not in general position", witness=(columns, u)
        )
    matrix = [[coeffs[j] * columns[j][r] for j in range(n)] for r in range(n)]
    lead = next(x for row in matrix for x in row if not x.is_zero()).inverse()
    matrix = [[lead * x for x in row] for row in matrix]
    targets = {i: phi(i) for i in lattice.points}
    for theta in list_automorphisms(ring):
        f = SemilinearMap(space, matrix, theta)
        if point_image(lattice, f) == targets:
            return f
    raise NotCoordinatizable("no semilinear automorphism induces this lattice automorphism")


# ---------------------------------------------------------------------------
# SGL(V) in enumeration order


def invertible_matrices(space):
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
    """Lazily yield all of SGL(V) over a finite field: ring automorphisms
    outer (identity first), invertible matrices inner in lexicographic
    order."""
    for theta in list_automorphisms(space.ring):
        for matrix in invertible_matrices(space):
            yield SemilinearMap(space, matrix, theta)


def enumerate_sgl(space):
    return list(iter_semilinear_automorphisms(space))


# ---------------------------------------------------------------------------
# groups


def normal_subgroup_indices(group, lat):
    """Indices (in the subgroup lattice) of the normal subgroups,
    decided by the direct coset test gH == Hg."""
    normal = []
    for i, sub in enumerate(lat.payloads):
        mem = set(sub.members)
        if all(
            {group.cayley[g][h] for h in mem} == {group.cayley[h][g] for h in mem}
            for g in range(group.order)
        ):
            normal.append(i)
    return normal


def generating_set(cayley):
    """The least element outside the closure so far, until it is all,
    each closure grown from scratch over the whole element list."""
    n = len(cayley)
    gens = []
    closure = {0}
    while len(closure) < n:
        gens.append(min(x for x in range(n) if x not in closure))
        closure = close_subset(cayley, closure | {gens[-1]})
    return gens


def associativity_violation(cayley):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc),
    or None: every triple of the table is checked."""
    n = len(cayley)
    for a, b, c in itertools.product(range(n), repeat=3):
        if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
            return a, b, c
    return None


def close_subset(cayley, seed):
    """The closure of ``seed`` and the identity under the product, by
    iterating to a fixed point over all pairs."""
    closure = set(seed) | {0}
    while True:
        grown = closure | {cayley[x][y] for x in closure for y in closure}
        if grown == closure:
            return frozenset(closure)
        closure = grown


def all_subgroups(group):
    """Every subgroup as a sorted member tuple, each closed from scratch
    over the inverses too, in the order of ``groups.all_subgroups``."""
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        current = frontier.pop()
        for g in range(1, group.order):
            bigger = close_subset(group.cayley, current | {g, group.inverse[g]})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return [tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def quaternion_group():
    """Q8: the units +-1, +-i, +-j, +-k of the quaternions under their
    product, 1 first."""
    ring = DivisionRing.quaternions()
    units = [ring.scalar([sign * (i == c) for i in range(4)]) for sign in (1, -1) for c in range(4)]
    index = {u: n for n, u in enumerate(units)}
    return FiniteGroup([[index[a * b] for b in units] for a in units], name="Q8")


def subgroup_leq(lattice):
    """The inclusion order of a subgroup lattice as an m x m matrix of
    bools, compared on member frozensets."""
    member_sets = [frozenset(s.members) for s in lattice.payloads]
    return [[a <= b for b in member_sets] for a in member_sets]


def conjugate(group, members, g):
    """g H g^-1 as a member frozenset."""
    cayley, inverse = group.cayley, group.inverse
    return frozenset(cayley[cayley[g][h]][inverse[g]] for h in members)


def conjugation_table(group, lattice):
    """The conjugation action on a subgroup lattice, each subgroup
    conjugated as a member frozenset and looked up by its members."""
    index = {frozenset(s.members): i for i, s in enumerate(lattice.payloads)}
    return tuple(
        tuple(index[conjugate(group, s.members, g)] for s in lattice.payloads)
        for g in range(group.order)
    )


def check_gset(group, table):
    """The G-set laws on a table of point bijections, in the loops
    ``powerset_glattice`` ran before it shared the axiom checkers':
    NotGSet at the first point the identity moves, else at the first
    (g, h, x) with g(hx) != (gh)x."""
    for x in range(len(table[0])):
        if table[0][x] != x:
            raise NotGSet(f"identity moves point {x}", witness=(x,))
    for g in range(group.order):
        for h in range(group.order):
            gh = group.cayley[g][h]
            for x in range(len(table[0])):
                if table[g][table[h][x]] != table[gh][x]:
                    raise NotGSet(f"g(hx) != (gh)x at ({g},{h},{x})", witness=(g, h, x))


def check_homomorphism(group, rho):
    """The homomorphism check ``action_from_homomorphism`` ran before it
    read the first failing pair off axiom (1): rho(e) the identity, then
    rho(g)rho(h) = rho(gh) composed pair by pair."""
    if not rho[0].is_identity():
        raise NotHomomorphism("identity must map to the identity automorphism", witness=(0,))
    for g in range(group.order):
        for h in range(group.order):
            if rho[g].compose(rho[h]) != rho[group.cayley[g][h]]:
                raise NotHomomorphism(f"rho({g})rho({h}) != rho({g}*{h})", witness=(g, h))


def direct_product_of_cyclics(factors):
    """C_d1 x C_d2 x ... on coordinate tuples in lexicographic order."""
    shape = list(factors)
    elems = list(itertools.product(*[range(d) for d in shape]))
    index = {e: i for i, e in enumerate(elems)}
    cayley = [
        [index[tuple((a + b) % d for a, b, d in zip(x, y, shape))] for y in elems]
        for x in elems
    ]
    return FiniteGroup(cayley, name="x".join(f"C{d}" for d in shape))


# ---------------------------------------------------------------------------
# factor systems


def primitive_element_by_orders(ring):
    """The first unit, in enumeration order, of multiplicative order q - 1."""

    def order(w):
        x, steps = w, 1
        while not x.is_one():
            x, steps = x * w, steps + 1
        return steps

    return next(w for w in ring.units() if order(w) == ring.order - 1)


def enumerate_factor_systems(group, ring, chi):
    """Every bracket table with the identity row and column pinned to 1
    that passes ``first_violation_by_probes``, sorted by signature."""
    order = group.order
    free_pairs = [(g, h) for g in range(1, order) for h in range(1, order)]
    found = []
    for values in itertools.product(ring.units(), repeat=len(free_pairs)):
        fs = FactorSystem(group, ring, chi, dict(zip(free_pairs, values)))
        if first_violation_by_probes(fs).ok:
            found.append(fs)
    found.sort(key=lambda fs: fs.signature())
    return found


def carrier_sample(ring):
    """Every element of a finite carrier; 1, i, j, k and one generic
    element of the quaternions; 18 rationals of QQ."""
    if ring.is_finite():
        return ring.elements()
    if ring.kind == QUATERNIONS:
        mk = ring.scalar
        return [
            mk(1),
            mk((0, 1, 0, 0)),
            mk((0, 0, 1, 0)),
            mk((0, 0, 0, 1)),
            mk((Fraction(2, 3), Fraction(-1, 5), Fraction(1, 7), Fraction(4))),
        ]
    return [ring.scalar(Fraction(n, d)) for n in (-3, -1, 0, 1, 2, 5) for d in (1, 2, 7)]


def first_violation_by_probes(fs):
    """E3, E1, E2 in that order, with E1 applied pointwise to
    ``carrier_sample``: the report ``validate_factor_system`` must give.
    A field's E1 witness is (g, h), a quaternion one (g, h, a) with a the
    first sample element where chi(g)chi(h) and [g,h] chi(gh) [g,h]^-1
    differ."""
    group, ring = fs.group, fs.ring
    if not fs.bracket[0][0].is_one():
        return FsReport(False, "E3", (0, 0), "bracket(1,1) != 1")
    for g in range(group.order):
        for h in range(group.order):
            b = fs.bracket[g][h]
            gh = group.cayley[g][h]
            for a in carrier_sample(ring):
                if fs.chi[g](fs.chi[h](a)) != b * fs.chi[gh](a) * b.inverse():
                    if ring.is_commutative():
                        return FsReport(False, "E1", (g, h), "chi(g)chi(h) != chi(gh)")
                    return FsReport(
                        False, "E1", (g, h, a), "chi(g)chi(h) differs from conjugated chi(gh)"
                    )
    witness = e2_violation_by_scalars(fs)
    if witness is not None:
        return FsReport(
            False,
            "E2",
            witness,
            "bracket(g,h)bracket(gh,k) != chi(g)(bracket(h,k))bracket(g,hk)",
        )
    return FsReport(True)


def e2_violation_by_scalars(fs):
    """The first triple (g, h, k), in row-major order, at which the
    ``Scalar`` products of E2 differ, or None."""
    group = fs.group
    for g, h, k in itertools.product(range(group.order), repeat=3):
        gh, hk = group.cayley[g][h], group.cayley[h][k]
        if fs.bracket[g][h] * fs.bracket[gh][k] != fs.chi[g](fs.bracket[h][k]) * fs.bracket[g][hk]:
            return (g, h, k)
    return None


def equivalent_by_probes(fs_src, fs_dst, mu):
    """E4 applied pointwise to ``carrier_sample``, then E5 and E6, for a
    list mu."""
    group, ring = fs_src.group, fs_src.ring
    if not mu[0].is_one():
        return False
    for g in range(group.order):
        for a in carrier_sample(ring):
            if fs_dst.chi[g](a) != mu[g].inverse() * fs_src.chi[g](a) * mu[g]:
                return False
    for g in range(group.order):
        for h in range(group.order):
            gh = group.cayley[g][h]
            left = fs_src.bracket[g][h] * mu[gh]
            right = mu[g] * fs_dst.chi[g](mu[h]) * fs_dst.bracket[g][h]
            if left != right:
                return False
    return True


def mu_candidates(fs):
    """Every mu with mu(1) = 1, tails in ``itertools.product`` order of
    the units."""
    one = fs.ring.one()
    for tail in itertools.product(fs.ring.units(), repeat=fs.group.order - 1):
        yield [one, *tail]


def find_equivalence_by_probes(fs_src, fs_dst):
    """The first of ``mu_candidates`` that passes ``equivalent_by_probes``."""
    return next(
        (mu for mu in mu_candidates(fs_src) if equivalent_by_probes(fs_src, fs_dst, mu)), None
    )


def coboundary(fs, mu):
    """The destination of mu from fs: chi'(g) = c(mu(g)^-1) chi(g) by E4,
    and the bracket solved from E5 with chi'(g) applied pointwise on
    ``Scalar``s, so written out apart from ``transform_factor_system``."""
    group, ring = fs.group, fs.ring
    chi = []
    for g in range(group.order):
        u = mu[g].inverse()
        c = RingAutomorphism.identity(ring) if u.is_central() else RingAutomorphism.inner(u)
        chi.append(c.compose(fs.chi[g]))
    bracket = {}
    for g, h in itertools.product(range(group.order), repeat=2):
        image = mu[g].inverse() * fs.chi[g](mu[h]) * mu[g]
        bracket[(g, h)] = image.inverse() * mu[g].inverse() * fs.bracket[g][h] * mu[group.cayley[g][h]]
    return FactorSystem(group, ring, chi, bracket)


def classes_by_orbits(systems, move=coboundary):
    """The mu-orbits of ``systems`` through ``move(fs, mu)``, each sorted
    by signature, in the order of their least signatures.  ``move`` is
    ``coboundary`` or, to classify on ``FactorSystem``s through the
    library's own map, ``transform_factor_system``."""
    by_sig = {fs.signature(): fs for fs in systems}
    classes, seen = [], set()
    for sig in sorted(by_sig):
        if sig in seen:
            continue
        fs = by_sig[sig]
        orbit = sorted({move(fs, mu).signature() for mu in mu_candidates(fs)})
        seen.update(orbit)
        classes.append([by_sig[s] for s in orbit])
    return classes


def isomorphic_by_samples(fs_src, fs_dst, mu):
    """Whether mu passes ``equivalent_by_probes`` and the pair map
    (a, g) -> (a mu(g), g) carries (a, g)(b, h) = (a chi(g)(b) [g,h], gh)
    of fs_src to that of fs_dst, for a, b among the first four nonzero
    ``carrier_sample`` elements."""
    if not equivalent_by_probes(fs_src, fs_dst, mu):
        return False
    sample = [a for a in carrier_sample(fs_src.ring) if not a.is_zero()][:4]
    cayley = fs_src.group.cayley
    for a, b in itertools.product(sample, repeat=2):
        for g, h in itertools.product(range(fs_src.group.order), repeat=2):
            gh = cayley[g][h]
            image = a * fs_src.chi[g](b) * fs_src.bracket[g][h] * mu[gh]
            product = a * mu[g] * fs_dst.chi[g](b * mu[h]) * fs_dst.bracket[g][h]
            if image != product:
                return False
    return True


def isomorphic_on_all_pairs(fs_src, fs_dst, mu):
    """Whether mu passes ``equivalent_by_probes`` and the pair map
    (a, g) -> (a mu(g), g) is a bijection of K* x G that carries the
    product (a, g)(b, h) = (a chi(g)(b) [g,h], gh) of fs_src to that of
    fs_dst on every pair of pairs (finite carriers only)."""
    if not equivalent_by_probes(fs_src, fs_dst, mu):
        return False
    group, units = fs_src.group, fs_src.ring.units()
    pairs = [(a, g) for g in range(group.order) for a in units]

    def image(pair):
        a, g = pair
        return a * mu[g], g

    def product(fs, x, y):
        (a, g), (b, h) = x, y
        return a * fs.chi[g](b) * fs.bracket[g][h], group.cayley[g][h]

    if {image(x) for x in pairs} != set(pairs):
        return False
    return all(
        image(product(fs_src, x, y)) == product(fs_dst, image(x), image(y))
        for x in pairs
        for y in pairs
    )


# ---------------------------------------------------------------------------
# the algebra criterion


def _bimodule_scalars(ring):
    if ring.is_finite():
        return ring.elements()
    if ring.is_commutative():
        return [ring.scalar(Fraction(n, d)) for n in (-2, -1, 0, 1, 3) for d in (1, 2, 5)]
    return [
        ring.scalar((1, 0, 0, 0)),
        ring.scalar((0, 1, 0, 0)),
        ring.scalar((0, 0, 1, 0)),
        ring.scalar((0, 0, 0, 1)),
        ring.scalar((Fraction(1, 2), Fraction(-2), Fraction(0), Fraction(3, 7))),
    ]


def basis_product_violation(tgr):
    """The basis-product formula replayed through the ring product: the
    first pair (g, h), in row-major order, with gbar * hbar != [g,h] (gh)bar,
    or None.  ``glattice.tgring.is_algebra`` takes the formula from the
    definition of the product and forms no basis product."""
    fs, group = tgr.fs, tgr.group
    for g in range(group.order):
        gbar = tgr.basis_element(g)
        for h in range(group.order):
            product = gbar * tgr.basis_element(h)
            if product.coeffs != ((group.cayley[g][h], fs.bracket[g][h]),):
                return (g, h)
    return None


def is_algebra(tgr):
    """The algebra verdict by sampling: the witness search of
    ``glattice.tgring.is_algebra``, and on a positive verdict both
    bimodule laws on all basis pairs against a scalar sample, with full
    ring products."""
    ring = tgr.ring
    one_bar = tgr.one()
    if not ring.is_commutative():
        a = ring.scalar((0, 1, 0, 0))  # i
        b = ring.scalar((0, 0, 1, 0))  # j
        u = one_bar.scale(b)
        v = one_bar
        lhs = u * v.scale(a)
        rhs = (u * v).scale(a)
        if lhs == rhs:
            raise GlatticeError("quaternion commutator witness failed to fail")
        return AlgebraVerdict(False, "u*(a*v) == a*(u*v)", a, u, v, lhs, rhs)
    for g in range(tgr.group.order):
        phi = tgr.fs.chi[g]
        if phi.is_identity():
            continue
        for a in ring.elements():
            if phi(a) != a:
                u = tgr.basis_element(g)
                v = one_bar
                lhs = u * v.scale(a)
                rhs = (u * v).scale(a)
                if lhs == rhs:
                    raise GlatticeError("chi witness failed to fail")
                return AlgebraVerdict(False, "u*(a*v) == a*(u*v)", a, u, v, lhs, rhs)
    # commutative carrier, trivial chi: verify the bimodule laws
    for g in range(tgr.group.order):
        for h in range(tgr.group.order):
            u, v = tgr.basis_element(g), tgr.basis_element(h)
            uv = u * v
            for a in _bimodule_scalars(ring):
                if (u.scale(a)) * v != uv.scale(a):
                    raise GlatticeError("left bimodule law failed unexpectedly")
                if u * (v.scale(a)) != uv.scale(a):
                    raise GlatticeError("right bimodule law failed unexpectedly")
    return AlgebraVerdict(True)


# ---------------------------------------------------------------------------
# the module laws

_EXHAUSTIVE_MODULE_LIMIT = 32


def seeded_rationals(seed, count):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count)]


def module_law_data(tgr, space, seed, samples):
    """The ring elements, vectors and scalars the module laws run over:
    everything over a finite carrier (TooLarge past 32 ring elements or
    vectors); over the rationals the basis data plus ``samples // 10``
    seeded combinations of each, and five seeded scalars."""
    ring = tgr.ring
    if ring.is_finite():
        if ring.order ** max(tgr.rank, space.dim) > _EXHAUSTIVE_MODULE_LIMIT:
            raise TooLarge("exhaustive module check too big")
        return tgr.all_elements(), space.all_vectors(), ring.elements()
    it = iter(seeded_rationals(seed, samples * (tgr.rank + space.dim + 1)))
    elements = tgr.basis() + [
        tgr.element({g: next(it) for g in range(tgr.rank)}) for _ in range(samples // 10)
    ]
    vectors = list(space.basis()) + [
        space.vector([next(it) for _ in range(space.dim)]) for _ in range(samples // 10)
    ]
    scalars = [ring.scalar(next(it)) for _ in range(5)]
    return elements, vectors, scalars


def reference_module_laws(tgr, rep, seed=0, samples=100):
    """The five module laws replayed through ``TwistedModule.act`` on
    ``module_law_data``: ``(True, None)`` or the first failing law with
    its witness.  Every left-hand side is computed afresh; the products
    act(s, v) of a data element and a data vector that the right-hand
    sides read are computed once per call."""
    act = TwistedModule(tgr, rep).act
    elements, vectors, scalars = module_law_data(tgr, rep.space, seed, samples)
    acted = [[act(s, v) for v in vectors] for s in elements]
    for s, s_acted in zip(elements, acted):
        for u, su in zip(vectors, s_acted):
            for v, sv in zip(vectors, s_acted):
                if act(s, add_vectors(u, v)) != add_vectors(su, sv):
                    return False, ("law1", s, u, v)
    for s, s_acted in zip(elements, acted):
        for t, t_acted in zip(elements, acted):
            for v, sv, tv in zip(vectors, s_acted, t_acted):
                if act(s + t, v) != add_vectors(sv, tv):
                    return False, ("law2", s, t, v)
                if act(s, act(t, v)) != act(s * t, v):
                    return False, ("law3", s, t, v)
    one_bar = tgr.one()
    for v in vectors:
        if act(one_bar, v) != v:
            return False, ("law4", v)
    for b in scalars:
        for s, s_acted in zip(elements, acted):
            for v, sv in zip(vectors, s_acted):
                if act(s.scale(b), v) != scale_vector(b, sv):
                    return False, ("law5", b, s, v)
    return True, None
