"""Semilinear maps, subspace canonicalization, L(V) and SGL(V)."""

import copy
import itertools
import random
import re
import time

import pytest

from glattice import (
    DivisionRing,
    RingAutomorphism,
    SemilinearMap,
    Subspace,
    VectorSpace,
    enumerate_subspaces,
    gaussian_binomial,
    map_subspace,
)
from glattice import lattice as lattice_module
from glattice import linalg
from glattice.errors import (
    GlatticeError,
    InfiniteCarrier,
    NonCommutativeCarrier,
    NotInvertible,
    TooLarge,
)
from glattice.lattice import LatticeAutomorphism, SetLattice, _bits, _order_violation
from glattice.linalg import add_vectors, identity_map, rref
from glattice.scalar import list_automorphisms

from oracles import (
    enumerate_sgl,
    invertible_matrices,
    iter_semilinear_automorphisms,
    leq_matrix,
    point_image,
    point_rows,
)


def gaussian_binomial_oracle(n, k, q):
    """Independent count via the recurrence C(n,k) = C(n-1,k-1) + q^k C(n-1,k)."""
    if k in (0, n):
        return 1
    if k < 0 or k > n:
        return 0
    return gaussian_binomial_oracle(n - 1, k - 1, q) + q**k * gaussian_binomial_oracle(
        n - 1, k, q
    )


def shift_map(ring):
    space = VectorSpace(ring, 3)
    one, zero = ring.one(), ring.zero()
    return SemilinearMap(space, ((zero, zero, one), (one, zero, zero), (zero, one, zero)))


# ---------------------------------------------------------------------------
# applying and composing


def test_identity_map_is_identity(gf3):
    space = VectorSpace(gf3, 3)
    f = identity_map(space)
    for v in space.all_vectors():
        assert f(v) == v


def test_frobenius_componentwise(gf4):
    space = VectorSpace(gf4, 3)
    frob = RingAutomorphism.frobenius(gf4, 1)
    f = SemilinearMap(space, identity_map(space).matrix, frob)
    omega = gf4.scalar(2)
    v = (omega, gf4.one(), gf4.zero())
    assert f(v) == (omega * omega, gf4.one(), gf4.zero())
    for v in space.all_vectors():
        assert f(v) == tuple(frob(x) for x in v)


@pytest.mark.parametrize("seed", range(3))
def test_dense_matrix_matches_the_row_supports(gf4, seed):
    # sparse maps over GF(4)^3, zero rows included, against a dense form
    # filled entry by entry here
    rng = random.Random(seed)
    space = VectorSpace(gf4, 3)
    units, zero = gf4.units(), gf4.zero()
    thetas = list_automorphisms(gf4)
    for trial in range(20):
        rows = []
        for r in range(3):
            # row trial % 3 is zero; the others keep a random set of columns
            columns = [] if r == trial % 3 else sorted(rng.sample(range(3), rng.randrange(4)))
            rows.append(tuple((j, rng.choice(units)) for j in columns))
        dense = [[zero, zero, zero] for _ in range(3)]
        for r, row in enumerate(rows):
            for j, x in row:
                dense[r][j] = x
        f = SemilinearMap._from_rows(space, tuple(rows), rng.choice(thetas))
        assert f.matrix == tuple(map(tuple, dense))
        assert SemilinearMap(space, dense, f.theta) == f


def test_shift_over_rationals(rationals):
    f = shift_map(rationals)
    v = tuple(rationals.scalar(c) for c in (1, 2, 3))
    assert f(v) == tuple(rationals.scalar(c) for c in (3, 1, 2))  # (x,y,z) -> (z,x,y)


def test_compose_with_identity(gf3):
    f = shift_map(gf3)
    assert f.compose(identity_map(f.space)) == f
    assert identity_map(f.space).compose(f) == f


def test_frobenius_squared_is_linear(gf4):
    space = VectorSpace(gf4, 2)
    frob = RingAutomorphism.frobenius(gf4, 1)
    f = SemilinearMap(space, identity_map(space).matrix, frob)
    ff = f.compose(f)
    assert ff.theta.is_identity()


def test_shift_squared_matches_two_step_shift(rationals):
    f = shift_map(rationals)
    ff = f.compose(f)
    v = tuple(rationals.scalar(c) for c in (1, 2, 3))
    assert ff(v) == tuple(rationals.scalar(c) for c in (2, 3, 1))  # (x,y,z) -> (y,z,x)


def test_composition_agrees_pointwise(gf3):
    space = VectorSpace(gf3, 2)
    maps = enumerate_sgl(space)[:8]
    vectors = space.all_vectors()
    for f in maps:
        for g in maps:
            fg = f.compose(g)
            assert all(fg(v) == f(g(v)) for v in vectors)


def test_semilinear_scalar_law_exhaustive(gf4):
    space = VectorSpace(gf4, 2)
    frob = RingAutomorphism.frobenius(gf4, 1)
    matrix = ((gf4.scalar(2), gf4.one()), (gf4.zero(), gf4.scalar(3)))
    f = SemilinearMap(space, matrix, frob)
    for alpha in gf4.elements():
        for v in space.all_vectors():
            scaled = tuple(alpha * x for x in v)
            assert f(scaled) == tuple(frob(alpha) * x for x in f(v))


def test_matrix_maps_reject_quaternions(quaternions):
    space = VectorSpace(quaternions, 2)
    with pytest.raises(NonCommutativeCarrier):
        identity_map(space)


def test_invertibility_matches_rank_on_every_matrix(gf2):
    # every 3x3 matrix over GF(2): the monomial ones are read off their
    # row supports, the others row reduced, and both agree with the rank
    space = VectorSpace(gf2, 3)
    rows = list(itertools.product(range(2), repeat=3))
    for matrix in itertools.product(rows, repeat=3):
        f = SemilinearMap(space, matrix)
        assert f.is_invertible() == (linalg.matrix_rank(f.matrix, gf2) == 3)


# ---------------------------------------------------------------------------
# subspace canonical forms


def test_canonicalization_idempotent_and_basis_independent(gf5):
    space = VectorSpace(gf5, 3)
    rng = random.Random(7)
    base = Subspace.from_vectors(space, [(1, 2, 0), (0, 1, 4)])
    for _ in range(25):
        rows = [list(r) for r in base.basis]
        # random invertible row operations
        for _ in range(6):
            op = rng.choice(["swap", "scale", "add"])
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if op == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif op == "scale":
                c = gf5.scalar(rng.randrange(1, 5))
                rows[i] = [c * x for x in rows[i]]
            elif i != j:
                c = gf5.scalar(rng.randrange(5))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        again = Subspace(space, [tuple(r) for r in rows])
        assert again == base
    assert Subspace(space, base.basis) == base


def test_membership_and_leq(gf2):
    space = VectorSpace(gf2, 3)
    w = Subspace.from_vectors(space, [(1, 1, 0), (0, 0, 1)])
    assert w.contains(space.vector((1, 1, 1)))
    assert not w.contains(space.vector((1, 0, 0)))
    line = Subspace.from_vectors(space, [(1, 1, 1)])
    assert line.leq(w)
    assert not w.leq(line)


def test_meet_join_against_vector_sets(gf2):
    # oracle: compare Zassenhaus meet and rref join with brute-force
    # vector-set intersection and sum set in GF(2)^3 (8 vectors)
    space = VectorSpace(gf2, 3)
    lattice = enumerate_subspaces(space)

    def vectors_of(sub):
        return {v for v in space.all_vectors() if sub.contains(v)}

    subs = lattice.payloads
    for a in subs:
        for b in subs:
            va, vb = vectors_of(a), vectors_of(b)
            assert vectors_of(a.meet(b)) == va & vb
            assert vectors_of(a.join(b)) == {add_vectors(u, v) for u in va for v in vb}


# (p, k, n) for L(GF(p^k)^n): GF(2)^1..4, GF(3)^2, GF(3)^3, GF(4)^2,
# GF(5)^2, GF(8)^2, GF(9)^2, GF(4)^3, GF(5)^3 and GF(7)^3, prime and
# extension fields alike
_LATTICE_FAMILY = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                   (2, 2, 2), (5, 1, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (5, 1, 3),
                   (7, 1, 3)]


@pytest.mark.parametrize("p,k,n", _LATTICE_FAMILY)
def test_lattice_tables_match_per_pair_reference(p, k, n):
    # the point-mask order and meet and the annihilator join against
    # contains-based leq, Zassenhaus meet and rref join on every pair
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
    subs = lattice.payloads
    leq = leq_matrix(lattice)
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            assert leq[i][j] == a.leq(b)
            assert lattice.meet[i][j] == lattice.index_of(a.meet(b))
            assert lattice.join[i][j] == lattice.index_of(a.join(b))


@pytest.mark.parametrize("p,k,n", _LATTICE_FAMILY)
def test_annihilator_is_an_involution(p, k, n):
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
    for w in lattice.payloads:
        perp = w.annihilator()
        assert perp.dim == n - w.dim
        assert perp.annihilator() == w
        for x in perp.basis:
            for y in w.basis:
                assert sum((a * b for a, b in zip(x, y)), w.space.ring.zero()).is_zero()


@pytest.mark.parametrize("p,k,n", _LATTICE_FAMILY)
def test_index_construction_matches_scalar_route(p, k, n, monkeypatch):
    # masks, annihilators, payloads and their order built on element
    # indices against the Scalar route: point_rows, Subspace.annihilator,
    # rref and Subspace.sort_key
    perps = []

    def recorded(*args):
        perps.append(annihilator_masks(*args))
        return perps[-1]

    annihilator_masks = linalg._annihilator_masks
    monkeypatch.setattr(linalg, "_annihilator_masks", recorded)
    space = VectorSpace(DivisionRing.gf(p, k), n)
    lattice = enumerate_subspaces(space)
    (perp_masks,) = perps
    for i, w in enumerate(lattice.payloads):
        spanned = [lattice.index_of(Subspace(space, [row])) for row in point_rows(w)]
        assert lattice.masks[i] == sum(1 << j for j in spanned)
        assert lattice.by_mask[perp_masks[i]] == lattice.index_of(w.annihilator())
        assert rref(w.basis, space.ring) == (w.basis, w.pivots)
        assert Subspace(space, w.basis) == w
    assert lattice.points == tuple(i for i, w in enumerate(lattice.payloads) if w.dim == 1)
    assert list(lattice.payloads) == sorted(lattice.payloads, key=Subspace.sort_key)


# every subspace lattice the suite builds, as (p, k, modulus, n): the family
# above, the larger and the one-dimensional ones, and GF(8)^2 and GF(9)^2
# under their second modulus as well
_BUILT = [(p, k, None, n) for p, k, n in _LATTICE_FAMILY] + [
    (3, 1, None, 4), (5, 1, None, 4), (2, 1, None, 5), (2, 3, None, 3), (37, 1, None, 2),
    (67, 1, None, 2), (7, 1, None, 1), (2, 2, None, 1), (4999, 1, None, 1), (2, 12, None, 1),
    (2, 3, (1, 0, 1, 1), 2), (3, 2, (2, 1, 1), 2),
]


@pytest.mark.parametrize("p,k,modulus,n", _BUILT)
def test_labels_and_index_follow_the_payloads(p, k, modulus, n):
    # labels written from element reprs over index rows, and the lazy index
    space = VectorSpace(DivisionRing.gf(p, k, modulus), n)
    lattice = enumerate_subspaces(space)
    assert lattice.labels == tuple(repr(w) for w in lattice.payloads)
    assert "_index" not in vars(lattice)
    every = list(range(lattice.size))
    assert [lattice.index_of(w) for w in lattice.payloads] == every
    # the same subspaces, reduced again by elimination
    assert [lattice.index_of(Subspace(space, list(w.basis))) for w in lattice.payloads] == every


def _replace_basis(monkeypatch, old, new):
    """Make the enumeration yield ``new`` (rows, pivots) in place of ``old``."""
    rref_bases = linalg._rref_bases

    def patched(n, q, k):
        for basis in rref_bases(n, q, k):
            yield new if basis == old else basis

    monkeypatch.setattr(linalg, "_rref_bases", patched)


def test_duplicated_basis_is_refused(monkeypatch, gf2):
    _replace_basis(monkeypatch, (((0, 1, 0), (0, 0, 1)), (1, 2)), (((1, 0, 0), (0, 1, 0)), (0, 1)))
    assert _build_outcome(VectorSpace(gf2, 3)) == (
        GlatticeError,
        "enumeration bug: bases 9 and 10 span one subspace",
        (9, 10),
    )


def test_dropped_basis_is_refused_by_the_count(monkeypatch, gf3):
    # the count clause of the certificate, reached through the enumeration:
    # one basis of a plane of GF(3)^3 is never yielded
    rref_bases = linalg._rref_bases
    dropped = (((1, 0, 0), (0, 1, 0)), (0, 1))

    def patched(n, q, k):
        return (basis for basis in rref_bases(n, q, k) if basis != dropped)

    monkeypatch.setattr(linalg, "_rref_bases", patched)
    assert _build_outcome(VectorSpace(gf3, 3)) == (
        GlatticeError,
        "enumeration bug: 27 subspaces, but L(V) has 28",
        (27,),
    )


def test_two_bases_spanning_one_subspace_are_refused(monkeypatch, gf2):
    # (0,1,0), (1,1,0) is not reduced and spans <e_1, e_2>, whose reduced
    # basis is enumerated too; the count and the bases stay distinct
    space = VectorSpace(gf2, 3)
    lattice = enumerate_subspaces(space)
    replaced = lattice.index_of(Subspace.from_vectors(space, [(0, 1, 0), (0, 0, 1)]))
    plane = lattice.index_of(Subspace.from_vectors(space, [(1, 0, 0), (0, 1, 0)]))
    _replace_basis(monkeypatch, (((0, 1, 0), (0, 0, 1)), (1, 2)), (((0, 1, 0), (1, 1, 0)), (1, 0)))
    with pytest.raises(GlatticeError, match="span one subspace") as caught:
        enumerate_subspaces(space)
    assert sorted(caught.value.witness) == sorted([replaced, plane])


_INVOLUTION = "enumeration bug: the annihilator masks are no order-reversing involution at element {}"
_NOT_TOTAL = _INVOLUTION + ": no element has its annihilator mask"
_NOT_ORTH = "enumeration bug: the annihilator of point {} is not the points orthogonal to it"
_NOT_AND = "enumeration bug: the annihilator of element {} is not the AND over its points"


def _build_outcome(space):
    """The error the build raises, as (type, message, witness), or the
    masks of the lattice it builds."""
    try:
        return enumerate_subspaces(space).masks
    except GlatticeError as exc:
        return type(exc), str(exc), exc.witness


def _orthogonality_corrupted(monkeypatch):
    """Give the first point the orthogonal set of the second, another
    hyperplane's points."""
    orthogonality = linalg._orthogonality

    def corrupted(*args):
        orth = orthogonality(*args)
        first, second = list(orth)[:2]
        orth[first] = orth[second]
        return orth

    monkeypatch.setattr(linalg, "_orthogonality", corrupted)


def test_corrupted_orthogonality_is_caught_by_the_join(monkeypatch):
    # over the extension field GF(4): the annihilators spanned from the
    # corrupted orth send V to an element other than the top, so phi fails
    # to be an involution at the bottom
    _orthogonality_corrupted(monkeypatch)
    got = _build_outcome(VectorSpace(DivisionRing.gf(2, 2), 3))
    assert got == (GlatticeError, _INVOLUTION.format(0), (0,))


@pytest.mark.parametrize("corruption", ["swap", "no-annihilator"])
def test_corrupted_annihilator_is_caught_by_the_join(monkeypatch, gf3, corruption):
    # two points trade annihilators, so phi[phi[1]] = 2; or element 5
    # gains the points of another hyperplane, a mask no element has
    annihilator_masks = linalg._annihilator_masks

    def corrupted(*args):
        perp = annihilator_masks(*args)
        if corruption == "swap":
            perp[1], perp[2] = perp[2], perp[1]
        else:
            perp[5] |= perp[1]
        return perp

    monkeypatch.setattr(linalg, "_annihilator_masks", corrupted)
    want = {"swap": (_INVOLUTION.format(1), (1,)), "no-annihilator": (_NOT_TOTAL.format(5), (5,))}
    assert _build_outcome(VectorSpace(gf3, 3)) == (GlatticeError, *want[corruption])


def _annihilators_replaced(monkeypatch, corrupt):
    """Make the enumeration hand ``corrupt(perp_masks)`` to the certificate."""
    annihilator_masks = linalg._annihilator_masks
    monkeypatch.setattr(
        linalg, "_annihilator_masks", lambda *args: corrupt(annihilator_masks(*args))
    )


def test_non_involutive_duality_is_caught(monkeypatch, gf3):
    # masks of W -> alpha(W^perp) for an automorphism alpha: an order-reversing
    # permutation whose sums (W1^perp meet W2^perp)^perp all match the join,
    # since alpha keeps meets; only the involution check sees it
    space = VectorSpace(gf3, 3)
    lattice = enumerate_subspaces(space)
    perp = [lattice.index_of(w.annihilator()) for w in lattice.payloads]
    alpha = lattice.automorphism_generators()[0].perm
    twisted = [alpha[y] for y in perp]
    bad = next(x for x, y in enumerate(twisted) if twisted[y] != x)
    _annihilators_replaced(monkeypatch, lambda masks: [lattice.masks[y] for y in twisted])
    with pytest.raises(GlatticeError, match="no order-reversing involution") as caught:
        enumerate_subspaces(space)
    assert type(caught.value) is GlatticeError
    assert caught.value.witness == (bad,)


def test_identity_duality_is_caught_by_the_join(monkeypatch, gf3):
    # each element's own point mask: phi is the identity, a total
    # involution, but the first point's mask is no hyperplane
    space = VectorSpace(gf3, 3)
    lattice = enumerate_subspaces(space)
    _annihilators_replaced(monkeypatch, lambda masks: list(lattice.masks))
    assert _build_outcome(space) == (GlatticeError, _NOT_ORTH.format(1), (1,))


def test_duality_onto_no_element_is_caught(monkeypatch, gf3):
    # bit 0 is the zero subspace, never a point, so no mask holds it: phi
    # hits no element, while the sums match the join bit for bit
    _annihilators_replaced(monkeypatch, lambda masks: [mask | 1 for mask in masks])
    with pytest.raises(GlatticeError, match="no order-reversing involution") as caught:
        enumerate_subspaces(VectorSpace(gf3, 3))
    assert type(caught.value) is GlatticeError
    assert caught.value.witness == (0,)


def _swap_points_and_hyperplanes(perp):
    # points 1 and 2 trade annihilators, and so do their hyperplanes:
    # phi stays an involution, but perp[1] is the hyperplane of point 2
    h1, h2 = perp.index(1 << 1), perp.index(1 << 2)  # the hyperplanes with perp 1 and 2
    perp[1], perp[2], perp[h1], perp[h2] = perp[2], perp[1], perp[h2], perp[h1]
    return perp


def _swap_bottom_and_top(perp):
    # 0 and V each become their own annihilator: a total involution that
    # agrees with orth on the points, but the AND over no points is V
    perp[0], perp[-1] = perp[-1], perp[0]
    return perp


def _no_element_at_14(perp):
    perp[14] |= 1  # bit 0 is the zero subspace, no point
    return perp


def _first_two_alike(perp):
    # phi[0] = phi[1] = the hyperplane of point 1, which phi sends to 1
    perp[0] = perp[1]
    return perp


@pytest.mark.parametrize(
    "corrupt,want",
    [
        (_no_element_at_14, (_NOT_TOTAL.format(14), (14,))),
        (_first_two_alike, (_INVOLUTION.format(0), (0,))),
        (_swap_points_and_hyperplanes, (_NOT_ORTH.format(1), (1,))),
        (_swap_bottom_and_top, (_NOT_AND.format(0), (0,))),
    ],
    ids=["total", "involution", "orth", "and"],
)
def test_each_certificate_clause_raises_at_its_witness(monkeypatch, gf3, corrupt, want):
    # one corruption of the annihilator masks of L(GF(3)^3) per clause:
    # phi total, an involution, orth on the points, the AND over the points
    _annihilators_replaced(monkeypatch, corrupt)
    assert _build_outcome(VectorSpace(gf3, 3)) == (GlatticeError, *want)


def test_certificate_refuses_a_short_family(gf3):
    # the count clause on the data of L(GF(3)^3), one member short
    lattice = enumerate_subspaces(VectorSpace(gf3, 3))
    add, mul = gf3._index_tables()
    orth = linalg._orthogonality(lattice.point_of, 3, add, mul)
    members = linalg._point_sets(lattice._bases, lattice.point_of, add, mul, 3)
    data = lattice._phi, lattice._perp
    assert linalg._certificate_failure(*data, members, orth, 28) is None
    got = linalg._certificate_failure(*data, members[:-1], orth, 28)
    assert got == ("27 subspaces, but L(V) has 28", (27,))


def test_subspace_lattices_form_no_join_rows(monkeypatch):
    # the certificate builds the lattice: no row is read off the sets, the
    # up-set or the down-set masks, and no order mask is formed
    given = []
    bound_rows = lattice_module._bound_rows

    def spy(masks):
        given.append(tuple(masks))
        return bound_rows(masks)

    monkeypatch.setattr(lattice_module, "_bound_rows", spy)
    for p, k, n in _LATTICE_FAMILY + [(3, 1, 4), (4999, 1, 1)]:
        lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
        assert given == []
        assert "up_masks" not in vars(lattice) and "down_masks" not in vars(lattice)


@pytest.mark.parametrize("p,k,modulus,n", _BUILT)
def test_certified_build_matches_the_forced_fallback(p, k, modulus, n):
    # the reference is the generic set-family route on the same masks: the
    # pairwise closure scan, then covers, join and axiom (3) read off the
    # order masks
    space = VectorSpace(DivisionRing.gf(p, k, modulus), n)
    certified = enumerate_subspaces(space)
    reference = SetLattice(certified.masks)
    assert certified.by_mask == reference.by_mask
    assert certified.covers() == reference.covers()
    assert certified.meet == reference.meet
    assert certified.join == reference.join
    # the annihilator masks are the masks of the elements phi names
    assert certified._perp == [certified.masks[y] for y in certified._phi]
    # axiom (3) on lifted generators, accepted without the order masks, and
    # on tampered rows: two points swapped, and a point sent to the bottom,
    # which is no point
    rows = [list(range(certified.size))] + [list(a.perm) for a in certified.automorphism_generators()]
    for row in rows:
        assert certified._row_violation(row) is None
    assert "up_masks" not in vars(certified)
    first, second = certified.points[0], certified.points[-1]
    for row in rows[:]:
        swapped = row[:]
        swapped[first], swapped[second] = row[second], row[first]
        to_bottom = row[:]
        to_bottom[first] = 0
        rows += [swapped, to_bottom]
    for row in rows:
        assert certified._row_violation(row) == _order_violation(reference, row)


# each returns a new mask for element x of the family ``masks``
def _lowest_point_dropped(masks, x):
    return masks[x] & masks[x] - 1


def _foreign_point_added(masks, x):
    outside = masks[-1] & ~masks[x]
    return masks[x] | outside & -outside


def _zero_bit_added(masks, x):
    # bit 0 is the zero subspace, which is no point
    return masks[x] | 1


def _next_mask_repeated(masks, x):
    return masks[x + 1]


# what the build raises for each corruption below, as (message, witness): a
# repeated mask raises before the certificate; a lost or added point leaves
# the mask of some element's annihilator to no element
_SPAN_ONE = "enumeration bug: bases {} and {} span one subspace"
_CORRUPTED_MASKS = {
    (3, 3, 2, _lowest_point_dropped): (_NOT_TOTAL.format(5), (5,)),
    (3, 3, 3, _lowest_point_dropped): (_NOT_TOTAL.format(0), (0,)),
    (3, 3, 2, _foreign_point_added): (_NOT_TOTAL.format(5), (5,)),
    (3, 3, 2, _zero_bit_added): (_NOT_TOTAL.format(5), (5,)),
    (3, 3, 2, _next_mask_repeated): (_SPAN_ONE.format(14, 15), (14, 15)),
    (2, 4, 2, _lowest_point_dropped): (_NOT_TOTAL.format(26), (26,)),
    (2, 4, 3, _lowest_point_dropped): (_NOT_TOTAL.format(8), (8,)),
    (2, 4, 2, _foreign_point_added): (_NOT_TOTAL.format(26), (26,)),
    (2, 4, 3, _foreign_point_added): (_NOT_TOTAL.format(8), (8,)),
    (2, 4, 3, _zero_bit_added): (_NOT_TOTAL.format(8), (8,)),
    (2, 4, 1, _next_mask_repeated): (_SPAN_ONE.format(1, 2), (1, 2)),
    (3, 4, 3, _lowest_point_dropped): (_NOT_TOTAL.format(14), (14,)),
    (3, 4, 3, _foreign_point_added): (_NOT_TOTAL.format(14), (14,)),
}


@pytest.mark.parametrize("p,n,dim,corrupt", list(_CORRUPTED_MASKS))
def test_corrupted_masks_raise_what_the_pairwise_scan_raises(monkeypatch, p, n, dim, corrupt):
    # the first mask of dimension dim loses a point, gains one, or repeats
    # the next mask: the build raises at the pinned witness
    space = VectorSpace(DivisionRing.gf(p), n)
    x = sum(gaussian_binomial(n, j, p) for j in range(dim))
    point_sets = linalg._point_sets

    def corrupted(*args):
        sets = point_sets(*args)
        sets[x] = list(_bits(corrupt([sum(1 << t for t in points) for points in sets], x)))
        return sets

    monkeypatch.setattr(linalg, "_point_sets", corrupted)
    assert _build_outcome(space) == (GlatticeError, *_CORRUPTED_MASKS[p, n, dim, corrupt])


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4)])
def test_corrupted_orthogonality_raises_what_the_order_masks_raise(monkeypatch, p, n):
    # the masks are right, so the order masks would build L(V); the
    # annihilators spanned from the corrupted orth are what fails
    _orthogonality_corrupted(monkeypatch)
    got = _build_outcome(VectorSpace(DivisionRing.gf(p), n))
    assert got == (GlatticeError, _INVOLUTION.format(0), (0,))


@pytest.mark.parametrize("p,k,n", [(4999, 1, 1), (2, 12, 1), (67, 1, 2)])
def test_enumeration_set_up_is_not_quadratic_in_q(p, k, n):
    # a q x q table would take 25 million entries for GF(4999)
    start = time.perf_counter()
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
    elapsed = time.perf_counter() - start
    assert lattice.size == (2 if n == 1 else p + 3)
    assert elapsed < 1.0


def test_point_rows_are_the_points_inside(gf3):
    space = VectorSpace(gf3, 3)
    lattice = enumerate_subspaces(space)
    points = [s for s in lattice.payloads if s.dim == 1]
    for w in lattice.payloads:
        rows = point_rows(w)
        assert len(rows) == len(set(rows)) == (3**w.dim - 1) // 2
        assert set(rows) == {s.basis[0] for s in points if s.leq(w)}


# ---------------------------------------------------------------------------
# moving points on element indices, against the Scalar route


def _same_point_image(lattice, f):
    """The index route and the Scalar oracle agree on f: the same dict,
    or NotInvertible from both at the same first point, in ``points``
    order.  The first point is pinned by cutting the point list: on the
    points before the oracle's first zero image both routes return the
    same dict, and with that point added both raise."""
    try:
        expected = point_image(lattice, f)
    except NotInvertible:
        expected = None
    if expected is not None:
        assert lattice.point_image(f) == expected
        return
    with pytest.raises(NotInvertible):
        lattice.point_image(f)
    points = lattice.points
    cut = copy.copy(lattice)
    for k in range(1, len(points) + 1):
        cut.points, cut.point_rows = points[:k], lattice.point_rows[:k]
        try:
            prefix = point_image(cut, f)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                cut.point_image(f)
            return
        assert cut.point_image(f) == prefix
    raise AssertionError("the oracle raised on no prefix of the points")


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_point_image_matches_scalar_route_on_all_of_sgl(p, k, n):
    space = VectorSpace(DivisionRing.gf(p, k), n)
    lattice = enumerate_subspaces(space)
    matrices = list(invertible_matrices(space))
    for theta in list_automorphisms(space.ring):
        for matrix in matrices:
            f = SemilinearMap(space, matrix, theta)
            assert lattice.point_image(f) == point_image(lattice, f)


@pytest.mark.parametrize(
    "p,k,modulus", [(2, 3, None), (3, 2, None), (3, 2, (2, 1, 1))],
    ids=["gf8", "gf9", "gf9-x2+x+2"],
)
def test_point_image_matches_scalar_route_on_a_sample(p, k, modulus):
    # random matrices, singular ones among them, under every twist
    ring = DivisionRing.gf(p, k, modulus)
    space = VectorSpace(ring, 2)
    lattice = enumerate_subspaces(space)
    elements = ring.elements()
    rng = random.Random(16)
    for _ in range(60):
        matrix = [[rng.choice(elements) for _ in range(2)] for _ in range(2)]
        f = SemilinearMap(space, matrix, rng.choice(list_automorphisms(ring)))
        _same_point_image(lattice, f)


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_singular_maps_fail_at_the_same_first_point(p, k, n):
    # rank-deficient matrices: a zero row, a repeated row, a zero column,
    # and each matrix of rank 1 spanned by a point row
    ring = DivisionRing.gf(p, k)
    space = VectorSpace(ring, n)
    lattice = enumerate_subspaces(space)
    zero, one = ring.zero(), ring.one()
    unit = [[one if i == j else zero for j in range(n)] for i in range(n)]
    singular = [
        unit[:-1] + [[zero] * n],
        [unit[0]] + unit[:-1],
        [row[:-1] + [zero] for row in unit],
        [[zero] * n] * n,
    ]
    mul = ring._index_tables()[1]
    for u in lattice.point_rows:
        for v in lattice.point_rows[:4]:
            singular.append([[mul[a][b] for b in u] for a in v])
    for matrix in singular:
        for theta in list_automorphisms(ring):
            _same_point_image(lattice, SemilinearMap(space, matrix, theta))


@pytest.mark.parametrize("p", [7, 4999])
def test_point_image_on_a_line_needs_no_tables(p, monkeypatch):
    # L(K^1) has one point; q^2 = 25 million entries for GF(4999) is never built
    ring = DivisionRing.gf(p)
    space = VectorSpace(ring, 1)
    lattice = enumerate_subspaces(space)

    def refuse(self):
        raise AssertionError("index tables built for n = 1")

    monkeypatch.setattr(DivisionRing, "_index_tables", refuse)
    monkeypatch.setattr(DivisionRing, "_index_inverses", refuse)
    start = time.perf_counter()
    for c in (1, 2, p - 1):
        f = SemilinearMap(space, [[ring.scalar(c)]])
        assert lattice.point_image(f) == point_image(lattice, f) == {1: 1}
    for route in (lattice.point_image, lambda f: point_image(lattice, f)):
        with pytest.raises(NotInvertible):
            route(SemilinearMap(space, [[ring.zero()]]))
    assert time.perf_counter() - start < 0.1


def test_annihilator_needs_commutative_ring(quaternions):
    w = Subspace.from_vectors(VectorSpace(quaternions, 2), [(1, 0)])
    with pytest.raises(NonCommutativeCarrier):
        w.annihilator()


# ---------------------------------------------------------------------------
# enumeration


def test_subspace_counts():
    assert enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 1)).size == 2
    assert enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 3)).size == 16
    assert enumerate_subspaces(VectorSpace(DivisionRing.gf(3), 3)).size == 28
    assert enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 4)).size == 67


def test_counts_match_gaussian_binomials():
    for q, n in ((2, 3), (3, 3), (4, 2), (5, 2)):
        ring = DivisionRing.gf(q) if q != 4 else DivisionRing.gf(2, 2)
        lattice = enumerate_subspaces(VectorSpace(ring, n))
        by_dim = {}
        for s in lattice.payloads:
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        for k in range(n + 1):
            assert by_dim[k] == gaussian_binomial_oracle(n, k, q)
            assert gaussian_binomial(n, k, q) == gaussian_binomial_oracle(n, k, q)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 2) == 35


def test_enumeration_guards(rationals):
    with pytest.raises(InfiniteCarrier):
        enumerate_subspaces(VectorSpace(rationals, 2))
    with pytest.raises(TooLarge):
        enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 13))


@pytest.mark.parametrize(
    "q,n,refusal",
    [
        (2, 13, "q^n = 8192 exceeds 5000"),
        (5, 5, "42176 subspaces exceeds 6000"),
        (2, 7, "29212 subspaces exceeds 6000"),
        (3, 6, "56632 subspaces exceeds 6000"),
        (7, 4, None),
        (8, 4, None),
        (17, 3, None),
        (2, 6, None),
    ],
)
def test_enumeration_refuses_through_subspace_refusal(q, n, refusal):
    # the q^n cap first, then the subspace count, both before any basis
    got = linalg.subspace_refusal(n, q)
    assert (got and str(got)) == refusal
    if refusal is not None:
        with pytest.raises(TooLarge, match=f"^{re.escape(refusal)}$"):
            enumerate_subspaces(VectorSpace(DivisionRing.gf(q), n))


# ---------------------------------------------------------------------------
# mapping subspaces


def test_map_subspace_identity(gf2):
    space = VectorSpace(gf2, 3)
    lattice = enumerate_subspaces(space)
    f = identity_map(space)
    for w in lattice.payloads:
        assert map_subspace(f, w) == w


def test_shift_image_of_line(gf2):
    f = shift_map(gf2)
    w = Subspace.from_vectors(f.space, [(1, 1, 0)])
    assert map_subspace(f, w) == Subspace.from_vectors(f.space, [(0, 1, 1)])


@pytest.mark.parametrize("ringname", ["q", "gf3"])
def test_plane_cycle_under_shift(ringname, rationals, gf3):
    # W = {x + y = z}; the shift a(x,y,z) = (z,x,y) sends it to {x = y+z},
    # and a^2 sends it to {x + z = y}; a^3 returns it.
    ring = rationals if ringname == "q" else gf3
    f = shift_map(ring)
    w = Subspace.from_vectors(f.space, [(1, 0, 1), (0, 1, 1)])
    aw = map_subspace(f, w)
    assert aw == Subspace.from_vectors(f.space, [(1, 1, 0), (1, 0, 1)])  # x = y+z
    aaw = map_subspace(f, aw)
    assert aaw == Subspace.from_vectors(f.space, [(1, 1, 0), (0, 1, 1)])  # x+z = y
    assert map_subspace(f, aaw) == w


def test_map_subspace_preserves_structure(gf2):
    space = VectorSpace(gf2, 3)
    lattice = enumerate_subspaces(space)
    f = shift_map(gf2)
    for a in lattice.payloads:
        fa = map_subspace(f, a)
        assert fa.dim == a.dim
        for b in lattice.payloads:
            fb = map_subspace(f, b)
            assert a.leq(b) == fa.leq(fb)
            assert map_subspace(f, a.meet(b)) == fa.meet(fb)
            assert map_subspace(f, a.join(b)) == fa.join(fb)


def test_map_subspace_needs_invertible(gf2):
    space = VectorSpace(gf2, 2)
    zero = gf2.zero()
    singular = SemilinearMap(space, ((gf2.one(), zero), (zero, zero)))
    with pytest.raises(NotInvertible):
        map_subspace(singular, Subspace.full(space))


# ---------------------------------------------------------------------------
# SGL enumeration


def test_sgl_counts():
    gf2 = DivisionRing.gf(2)
    assert len(enumerate_sgl(VectorSpace(gf2, 2))) == 6  # (4-1)(4-2)
    assert len(enumerate_sgl(VectorSpace(gf2, 3))) == 168  # (8-1)(8-2)(8-4)
    gf4 = DivisionRing.gf(2, 2)
    assert len(enumerate_sgl(VectorSpace(gf4, 1))) == 6  # 3 units x 2 autos


def test_sgl_closure_spot_check(gf2):
    space = VectorSpace(gf2, 2)
    maps = enumerate_sgl(space)
    keys = {(f.matrix, f.theta) for f in maps}
    rng = random.Random(3)
    for _ in range(20):
        f, g = rng.choice(maps), rng.choice(maps)
        composed = f.compose(g)
        assert (composed.matrix, composed.theta) in keys
        inv = f.inverse()
        assert (inv.matrix, inv.theta) in keys
        assert f.compose(inv).is_identity()


def test_sgl_maps_are_lattice_automorphisms(gf2):
    # every SGL element induces a lattice automorphism of L(GF(2)^3)
    space = VectorSpace(gf2, 3)
    lattice = enumerate_subspaces(space)
    for f in iter_semilinear_automorphisms(space):
        perm = [lattice.index_of(map_subspace(f, w)) for w in lattice.payloads]
        LatticeAutomorphism(lattice, perm)  # raises if order is not preserved


def test_deterministic_enumeration_order(gf4):
    space = VectorSpace(gf4, 1)
    maps = enumerate_sgl(space)
    # identity automorphism first, matrices in lexicographic order
    assert maps[0].theta.is_identity()
    assert maps[0].matrix[0][0] == gf4.one()
    thetas = [f.theta.is_identity() for f in maps]
    assert thetas == [True, True, True, False, False, False]
