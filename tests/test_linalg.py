"""Semilinear maps, subspace canonicalization, L(V) and SGL(V)."""

import random

import pytest

from glattice import (
    DivisionRing,
    RingAutomorphism,
    SemilinearMap,
    Subspace,
    VectorSpace,
    enumerate_sgl,
    enumerate_subspaces,
    gaussian_binomial,
    map_subspace,
)
from glattice.errors import (
    InfiniteCarrier,
    NonCommutativeCarrier,
    NotInvertible,
    TooLarge,
)
from glattice.lattice import LatticeAutomorphism
from glattice.linalg import add_vectors, identity_map, iter_semilinear_automorphisms


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
# GF(5)^2, GF(8)^2 and GF(9)^2, prime and extension fields alike
_LATTICE_FAMILY = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                   (2, 2, 2), (5, 1, 2), (2, 3, 2), (3, 2, 2)]


@pytest.mark.parametrize("p,k,n", _LATTICE_FAMILY)
def test_lattice_tables_match_per_pair_reference(p, k, n):
    # the point-mask order and meet and the annihilator join against
    # contains-based leq, Zassenhaus meet and rref join on every pair
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
    subs = lattice.payloads
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            assert lattice.leq[i][j] == a.leq(b)
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


def test_point_rows_are_the_points_inside(gf3):
    space = VectorSpace(gf3, 3)
    lattice = enumerate_subspaces(space)
    points = [s for s in lattice.payloads if s.dim == 1]
    for w in lattice.payloads:
        rows = w.point_rows()
        assert len(rows) == len(set(rows)) == (3**w.dim - 1) // 2
        assert set(rows) == {s.basis[0] for s in points if s.leq(w)}


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


def test_sgl_guards(rationals):
    with pytest.raises(InfiniteCarrier):
        enumerate_sgl(VectorSpace(rationals, 2))
    with pytest.raises(TooLarge):
        enumerate_sgl(VectorSpace(DivisionRing.gf(7), 4))


def test_deterministic_enumeration_order(gf4):
    space = VectorSpace(gf4, 1)
    maps = enumerate_sgl(space)
    # identity automorphism first, matrices in lexicographic order
    assert maps[0].theta.is_identity()
    assert maps[0].matrix[0][0] == gf4.one()
    thetas = [f.theta.is_identity() for f in maps]
    assert thetas == [True, True, True, False, False, False]
