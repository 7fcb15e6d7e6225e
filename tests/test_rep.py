"""Projective-representation validation, cocycles, coordinatization,
equivalence."""

import functools
import os
import random
import time
import tracemalloc

import pytest

import glattice.linalg
import glattice.rep
from glattice import (
    DivisionRing,
    RingAutomorphism,
    SemilinearProjectiveRep,
    VectorSpace,
    coordinatize,
    cyclic_group,
    enumerate_subspaces,
    extract_cocycle,
    induced_glattice,
    rep_equivalence,
    rep_from_glattice,
    rep_from_matrices,
    validate_rep,
)
from glattice.errors import (
    NotCoordinatizable,
    NotInvertible,
    NotNormalized,
    NotProjective,
    ScalarInconsistent,
    SpaceMismatch,
)
from glattice.cli import main
from glattice.extension import (
    FactorSystem,
    enumerate_factor_systems,
    factor_system_from_rep,
    transform_factor_system,
)
from glattice.jsonio import parse_ring_spec
from glattice.lattice import (
    GLatticeAction,
    LatticeAutomorphism,
    lattice_automorphism_group,
    orbits,
)
from glattice.linalg import SemilinearMap, general_linear_order, identity_map, map_subspace, mat_mul
from glattice.rep import _ratio
from glattice.scalar import Scalar, list_automorphisms
from glattice.tgring import TwistedGroupRing, regular_representation

import oracles
from conftest import shift_rep
from oracles import enumerate_sgl, iter_semilinear_automorphisms
from test_acceptance import enumerated_system_family
from test_tgring import enumerated_rings


def scalar_rep_gf3():
    """rho(e) = 2I, rho(a) = I on GF(3)^1: a projective-linear C2 rep
    with alpha(a,a) = 2."""
    gf3 = DivisionRing.gf(3)
    c2 = cyclic_group(2)
    space = VectorSpace(gf3, 1)
    return rep_from_matrices(
        c2, space, {0: (((gf3.scalar(2),),), None), 1: (((gf3.one(),),), None)}
    )


def frobenius_rep_gf4():
    """C2 on GF(4)^1 through the Frobenius twist: semilinear, not linear."""
    gf4 = DivisionRing.gf(2, 2)
    c2 = cyclic_group(2)
    space = VectorSpace(gf4, 1)
    frob = RingAutomorphism.frobenius(gf4, 1)
    return rep_from_matrices(
        c2, space, {0: (((gf4.one(),),), None), 1: (((gf4.one(),),), frob)}
    )


# ---------------------------------------------------------------------------
# classification


def test_shift_rep_is_linear(shift_rep_q):
    assert validate_rep(shift_rep_q).kind == "linear"


def test_frobenius_rep_is_semilinear():
    cls = validate_rep(frobenius_rep_gf4())
    assert cls.kind == "semilinear"
    assert cls.cocycle_trivial and not cls.theta_trivial


def test_scalar_rep_is_projective_linear():
    rep = scalar_rep_gf3()
    cls = validate_rep(rep)
    assert cls.kind == "projective-linear"
    alpha = cls.cocycle[(1, 1)]
    assert alpha == rep.space.ring.scalar(2)


def test_generic_semilinear_projective():
    gf4 = DivisionRing.gf(2, 2)
    c2 = cyclic_group(2)
    space = VectorSpace(gf4, 1)
    frob = RingAutomorphism.frobenius(gf4, 1)
    omega = gf4.scalar(2)
    rep = rep_from_matrices(
        c2, space, {0: (((gf4.one(),),), None), 1: (((omega,),), frob)}
    )
    cls = validate_rep(rep)
    # rho(a)^2 = omega * frob(omega) = omega * omega^2 = 1... alpha = 1
    assert cls.cocycle[(1, 1)].is_one()
    assert cls.kind == "semilinear"


def test_not_projective_detected():
    gf3 = DivisionRing.gf(3)
    c2 = cyclic_group(2)
    space = VectorSpace(gf3, 2)
    one, zero, two = gf3.one(), gf3.zero(), gf3.scalar(2)
    # rho(e) = diag(1,2) is not a scalar matrix: no single alpha works
    rep = rep_from_matrices(
        c2,
        space,
        {0: (((one, zero), (zero, two)), None), 1: (((one, zero), (zero, one)), None)},
    )
    with pytest.raises(NotProjective):
        validate_rep(rep)


@pytest.mark.parametrize(
    "matrix",
    [((0, 2, 0), (0, 0, 0), (5, 0, 0)), ((0, 2, 0), (7, 0, 0), (0, 3, 0))],
    ids=["zero-row", "repeated-column"],
)
def test_singular_monomial_shaped_maps_are_not_projective(rationals, matrix):
    # at most one nonzero entry per row, yet singular: the support check
    # must not pass them, and the rank decides
    space = VectorSpace(rationals, 3)
    f = SemilinearMap(space, matrix)
    assert not f.is_invertible() and f.rank() < 3
    with pytest.raises(NotProjective, match="map for element 1 is singular"):
        SemilinearProjectiveRep(cyclic_group(2), space, {0: identity_map(space), 1: f})


def test_monomial_maps_are_invertible_without_row_reduction(rationals):
    space = VectorSpace(rationals, 3)
    f = SemilinearMap(space, ((0, "1/2", 0), (0, 0, -3), (7, 0, 0)))
    assert f.is_invertible() and f._rank is None
    assert f.rank() == 3


# ---------------------------------------------------------------------------
# cocycle extraction


def test_cocycle_trivial_for_linear(shift_rep_gf2):
    cocycle = extract_cocycle(shift_rep_gf2)
    assert all(alpha.is_one() for alpha in cocycle.values())


def test_cocycle_identity_row(shift_rep_q):
    cocycle = extract_cocycle(shift_rep_q)
    for g in range(3):
        assert cocycle[(0, g)].is_one()
        assert cocycle[(g, 0)].is_one()


def test_cocycle_values_scalar_rep():
    rep = scalar_rep_gf3()
    two = rep.space.ring.scalar(2)
    cocycle = extract_cocycle(rep)
    assert cocycle[(1, 1)] == two
    assert cocycle[(0, 1)] == two  # rho(e)rho(a) = 2 rho(a)
    assert cocycle[(0, 0)] == two


def test_cocycle_probe_independence(shift_rep_gf2, shift_rep_gf3, shift_rep_q):
    # recompute alpha separately from every basis vector; all must agree
    # with the scalar extract_cocycle reads off the whole matrix
    reps = [shift_rep_gf2, shift_rep_gf3, shift_rep_q] + [
        regular_representation(TwistedGroupRing(fs))
        for fs in enumerated_system_family()
        if fs.ring.is_commutative()
    ]
    for rep in reps:
        space, group = rep.space, rep.group
        cocycle = extract_cocycle(rep)
        for g in range(group.order):
            for h in range(group.order):
                composite = rep.maps[g].compose(rep.maps[h])
                target = rep.maps[group.cayley[g][h]]
                alphas = set()
                for i in range(space.dim):
                    v = space.basis_vector(i)
                    u, w = composite(v), target(v)
                    j = next(idx for idx, x in enumerate(w) if not x.is_zero())
                    alphas.add(u[j] * w[j].inverse())
                assert alphas == {cocycle[(g, h)]}


def _with_last_column_scaled(f, a):
    matrix = tuple(row[:-1] + (a * row[-1],) for row in f.matrix)
    return SemilinearMap(f.space, matrix, f.theta)


def test_cocycle_checks_every_column(shift_rep_gf3):
    # rho(a)rho(a) = rho(a^2) on every column but the last, where the
    # ratio is 2 instead of 1
    rep = shift_rep_gf3
    maps = dict(rep.maps)
    maps[2] = _with_last_column_scaled(maps[2], rep.space.ring.scalar(2))
    mutated = SemilinearProjectiveRep(rep.group, rep.space, maps)
    with pytest.raises(NotProjective) as exc:
        validate_rep(mutated)
    assert exc.value.witness == (1, 1)


def test_rep_equivalence_checks_every_column(shift_rep_gf3):
    # rho2(a) agrees with rho1(a) on e_1 but not on the last basis vector
    rep = shift_rep_gf3
    maps = dict(rep.maps)
    maps[1] = _with_last_column_scaled(maps[1], rep.space.ring.scalar(2))
    other = SemilinearProjectiveRep(rep.group, rep.space, maps)
    assert rep_equivalence(rep, other) is None
    assert rep_equivalence(other, rep) is None


# ---------------------------------------------------------------------------
# induced lattice actions


def test_trivial_rep_induces_trivial_action(gf2):
    c2 = cyclic_group(2)
    space = VectorSpace(gf2, 2)
    rep = SemilinearProjectiveRep(
        c2, space, {0: identity_map(space), 1: identity_map(space)}
    )
    action = induced_glattice(rep)
    assert all(row == tuple(range(action.lattice.size)) for row in action.table)


def test_shift_action_on_gf2_cube(shift_rep_gf2):
    action = induced_glattice(shift_rep_gf2)
    assert action.lattice.size == 16
    orbs = orbits(action)
    assert len(orbs) == 8
    assert sorted(len(o) for o in orbs) == [1, 1, 1, 1, 3, 3, 3, 3]


def test_frobenius_action_fixes_rational_subspaces(gf4):
    c2 = cyclic_group(2)
    space = VectorSpace(gf4, 2)
    frob = RingAutomorphism.frobenius(gf4, 1)
    rep = rep_from_matrices(
        c2,
        space,
        {0: (identity_map(space).matrix, None), 1: (identity_map(space).matrix, frob)},
    )
    action = induced_glattice(rep)
    lattice = action.lattice
    fixed = [i for i in range(lattice.size) if action.table[1][i] == i]
    # oracle: a subspace is Frobenius-fixed iff it has a GF(2)-rational
    # canonical basis (all coordinates in the prime field)
    rational = [
        i
        for i, w in enumerate(lattice.payloads)
        if all(x.payload in ((0, 0), (1, 0)) for row in w.basis for x in row)
    ]
    assert fixed == rational
    assert len(fixed) == 5  # 0, V, and the three GF(2)-rational lines


def _small_lattice_reps():
    """The shift reps over GF(2), GF(3) and GF(4), and the regular reps
    of the acceptance suite's systems over those fields on at most 64
    vectors, among them Frobenius twists over GF(4)."""
    reps = [shift_rep(DivisionRing.gf(p, k)) for p, k in ((2, 1), (3, 1), (2, 2))]
    for fs in enumerated_system_family():
        if fs.ring.order in (2, 3, 4) and fs.ring.order**fs.group.order <= 64:
            reps.append(regular_representation(TwistedGroupRing(fs)))
    return reps


def test_induced_rows_match_per_subspace_images():
    # moving the points against one map_subspace elimination per subspace
    reps = _small_lattice_reps()
    assert any(not f.theta.is_identity() for rep in reps for f in rep.maps.values())
    lattices = {}
    for rep in reps:
        if rep.space not in lattices:
            lattices[rep.space] = enumerate_subspaces(rep.space)
        lattice = lattices[rep.space]
        action = induced_glattice(rep, lattice)
        for g, f in rep.maps.items():
            assert action.table[g] == _induced_perm(lattice, f)


def test_singular_map_moves_no_points(gf3):
    space = VectorSpace(gf3, 3)
    lattice = enumerate_subspaces(space)
    one, zero = gf3.one(), gf3.zero()
    singular = SemilinearMap(space, ((one, one, zero), (zero, zero, one), (one, one, one)))
    with pytest.raises(NotInvertible):
        lattice.point_image(singular)
    with pytest.raises(NotInvertible):
        _induced_perm(lattice, singular)


def same_induced_lattice(rep1, rep2):
    """Whether two representations induce identical subspace actions."""
    lattice = enumerate_subspaces(rep1.space)
    return induced_glattice(rep1, lattice).table == induced_glattice(rep2, lattice).table


def test_scalars_invisible_on_lattice(shift_rep_gf3):
    rep = shift_rep_gf3
    two = rep.space.ring.scalar(2)
    scaled = rep.scaled({g: two for g in range(3)})
    assert same_induced_lattice(rep, scaled)


# ---------------------------------------------------------------------------
# coordinatization


def test_coordinatize_identity(gf2):
    lattice = enumerate_subspaces(VectorSpace(gf2, 3))
    phi = LatticeAutomorphism(lattice, range(lattice.size))
    f = coordinatize(phi)
    assert f.is_identity()


def test_coordinatize_shift(shift_rep_gf2):
    action = induced_glattice(shift_rep_gf2)
    phi = LatticeAutomorphism(action.lattice, action.table[1])
    f = coordinatize(phi)
    # over GF(2) the scalars are trivial: exactly the shift matrix comes back
    assert f.matrix == shift_rep_gf2.maps[1].matrix
    assert f.theta.is_identity()


@pytest.mark.parametrize("p,k", [(2, 2), (4999, 1)], ids=["gf4", "gf4999"])
def test_coordinatize_one_dimensional(p, k):
    # L(K^1) needs no index tables: q^2 = 25 million entries for GF(4999)
    ring = DivisionRing.gf(p, k)
    lattice = enumerate_subspaces(VectorSpace(ring, 1))
    phi = LatticeAutomorphism(lattice, range(lattice.size))
    f = coordinatize(phi)
    assert f.matrix[0][0].is_one() and f.theta.is_identity()
    # the chain {0, K} has no other automorphism; an unchecked swap is refused
    with pytest.raises(NotCoordinatizable):
        coordinatize(LatticeAutomorphism._unchecked(lattice, (1, 0)))
    if p == 4999:
        assert ring._tables is None


def test_not_coordinatizable_witness():
    # L(GF(5)^2) has 6 lines and Aut(L) = S6 (any permutation of lines),
    # but the coordinatizable ones form PGL(2,5), which is sharply
    # 3-transitive and so contains no transposition.  Swapping two lines
    # and fixing the rest is therefore not coordinatizable.
    gf5 = DivisionRing.gf(5)
    lattice = enumerate_subspaces(VectorSpace(gf5, 2))
    assert lattice.size == 8  # 0, six lines, V
    perm = list(range(8))
    lines = [i for i, w in enumerate(lattice.payloads) if w.dim == 1]
    perm[lines[0]], perm[lines[1]] = perm[lines[1]], perm[lines[0]]
    phi = LatticeAutomorphism(lattice, perm)
    with pytest.raises(NotCoordinatizable):
        coordinatize(phi)


def test_coordinatize_solves_one_system(monkeypatch):
    # the frame solve and the twist checks run on element indices: no rref
    # call and no Scalar product, yet the map still induces phi
    calls = []
    rref, mul = glattice.linalg.rref, Scalar.__mul__

    def counted_rref(rows, ring):
        calls.append("rref")
        return rref(rows, ring)

    def counted_mul(self, other):
        calls.append("mul")
        return mul(self, other)

    for p, k, matrix, frobenius in [(5, 1, [[1, 2], [3, 4]], 0), (2, 2, [[1, [0, 1]], [1, 0]], 1)]:
        ring = DivisionRing.gf(p, k)
        space = VectorSpace(ring, 2)
        theta = RingAutomorphism.frobenius(ring, frobenius) if k > 1 else None
        f = SemilinearMap(space, matrix, theta)
        lattice = enumerate_subspaces(space)
        phi = LatticeAutomorphism(lattice, _induced_perm(lattice, f))
        list_automorphisms(ring)  # checks the twists once per ring, with Scalar products
        monkeypatch.setattr(glattice.linalg, "rref", counted_rref)
        monkeypatch.setattr(Scalar, "__mul__", counted_mul)
        g = coordinatize(phi)
        monkeypatch.undo()
        assert calls == []
        assert _induced_perm(lattice, g) == phi.perm
        assert g.theta == f.theta


def _induced_perm(lattice, f):
    return tuple(lattice.index_of(map_subspace(f, w)) for w in lattice.payloads)


@pytest.mark.parametrize(
    "p,k,n",
    [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 2, 1)],
    ids=["gf2-dim2", "gf2-dim3", "gf3-dim2", "gf4-dim2", "gf5-dim2", "gf4-dim1"],
)
def test_coordinatize_matches_sgl_scan(p, k, n):
    # the reference: first map in SGL(V) enumeration order per induced permutation
    space = VectorSpace(DivisionRing.gf(p, k), n)
    lattice = enumerate_subspaces(space)
    oracle = {}
    for f in enumerate_sgl(space):
        oracle.setdefault(_induced_perm(lattice, f), f)
    for phi in lattice_automorphism_group(lattice):
        if phi.perm in oracle:
            f = coordinatize(phi)
            expected = oracle[phi.perm]
            assert (f.matrix, f.theta) == (expected.matrix, expected.theta)
        else:
            with pytest.raises(NotCoordinatizable):
                coordinatize(phi)


@pytest.mark.parametrize(
    "p,k,matrix,frobenius",
    [
        (2, 2, [[0, 1, 0], [0, 0, 1], [1, 0, [0, 1]]], 1),
        (5, 1, [[1, 2, 0], [0, 3, 1], [4, 0, 2]], 0),
    ],
    ids=["gf4-dim3-twisted", "gf5-dim3"],
)
def test_coordinatize_beyond_sgl_cap(p, k, matrix, frobenius):
    # |SGL(GF(5)^3)| > 10^6 maps is past what a scan of SGL(V) can cover;
    # the frame reads off one map
    ring = DivisionRing.gf(p, k)
    space = VectorSpace(ring, 3)
    theta = RingAutomorphism.frobenius(ring, frobenius) if k > 1 else None
    f = SemilinearMap(space, matrix, theta)
    lattice = enumerate_subspaces(space)
    phi = LatticeAutomorphism(lattice, _induced_perm(lattice, f))
    start = time.perf_counter()
    g = coordinatize(phi)
    elapsed = time.perf_counter() - start
    assert _induced_perm(lattice, g) == phi.perm
    assert g.theta == f.theta
    assert elapsed < 1.0
    if p == 5:
        assert general_linear_order(3, 5) == 1_488_000


def _same_coordinatization(phi):
    """Compare coordinatize with the Scalar route of tests/oracles.py on
    phi: the same (matrix, theta), or the same exception type, message
    and witness.  Returns which outcome it was."""
    try:
        expected = oracles.coordinatize(phi)
    except NotCoordinatizable as exc:
        with pytest.raises(NotCoordinatizable) as raised:
            coordinatize(phi)
        assert type(raised.value) is type(exc)
        assert (str(raised.value), raised.value.witness) == (str(exc), exc.witness)
        return "frame" if exc.witness is not None else "no twist"
    f = coordinatize(phi)
    assert (f.matrix, f.theta) == (expected.matrix, expected.theta)
    return "twisted" if not f.theta.is_identity() else "linear"


@pytest.mark.parametrize(
    "p,k,n,outcomes",
    [
        (2, 1, 3, {"linear"}),
        (3, 1, 2, {"linear"}),  # PGL(2, 3) is all of S4
        (2, 2, 2, {"linear", "twisted"}),  # PGammaL(2, 4) is all of S5
        (5, 1, 2, {"linear", "no twist"}),
    ],
    ids=["gf2-dim3", "gf3-dim2", "gf4-dim2", "gf5-dim2"],
)
def test_coordinatize_matches_scalar_route_on_every_automorphism(p, k, n, outcomes):
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))
    auts = lattice_automorphism_group(lattice)
    assert len(auts) == lattice.automorphism_order()
    assert {_same_coordinatization(phi) for phi in auts} == outcomes


def _random_semilinear_map(space, rng):
    thetas = list_automorphisms(space.ring)
    elements = space.ring.elements()
    while True:
        matrix = [[rng.choice(elements) for _ in range(space.dim)] for _ in range(space.dim)]
        f = SemilinearMap(space, matrix, rng.choice(thetas))
        if f.is_invertible():
            return f


@pytest.mark.parametrize(
    "p,k,n",
    [(2, 3, 2), (3, 2, 2), (3, 1, 3), (2, 2, 3)],
    ids=["gf8-dim2", "gf9-dim2", "gf3-dim3", "gf4-dim3"],
)
def test_coordinatize_matches_scalar_route_on_a_sample(p, k, n):
    ring = DivisionRing.gf(p, k)
    lattice = enumerate_subspaces(VectorSpace(ring, n))
    rng = random.Random(p * 100 + k * 10 + n)
    # induced by random semilinear maps, Frobenius twists included
    induced = set()
    for _ in range(60):
        f = _random_semilinear_map(lattice.space, rng)
        induced.add(_same_coordinatization(LatticeAutomorphism(lattice, _induced_perm(lattice, f))))
    assert induced == ({"linear", "twisted"} if k > 1 else {"linear"})
    # random permutations of the points; for n = 3 most are no lattice
    # automorphism, but both routes read phi on the points only, so a
    # frame out of general position is reached and compared too
    permuted = set()
    points = list(lattice.points)
    for _ in range(60):
        perm = list(range(lattice.size))
        for i, j in zip(points, rng.sample(points, len(points))):
            perm[i] = j
        if n == 2:
            phi = LatticeAutomorphism(lattice, perm)
        else:
            phi = LatticeAutomorphism._unchecked(lattice, tuple(perm))
        permuted.add(_same_coordinatization(phi))
    assert "no twist" in permuted
    if n == 3:
        assert "frame" in permuted


def test_coordinatize_forms_its_frame_data_once_per_lattice(monkeypatch):
    # the per-lattice data is formed on the first coordinatize call and
    # kept; building a lattice or moving points with point_image forms none
    formed = []
    form = glattice.linalg.SubspaceLattice._frame.func

    def counted(self):
        formed.append(self)
        return form(self)

    spy = functools.cached_property(counted)
    spy.__set_name__(glattice.linalg.SubspaceLattice, "_frame")
    monkeypatch.setattr(glattice.linalg.SubspaceLattice, "_frame", spy)
    lattices = [enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n)) for p, k, n in [(2, 2, 2), (3, 1, 2)]]
    for lattice in lattices:
        lattice.point_image(identity_map(lattice.space))
    assert main(["subspace-lattice", "--ring", "gf:4", "--dim", "2", "--out", os.devnull]) == 0
    assert formed == []
    for lattice in lattices:
        for _ in range(2):
            for phi in lattice_automorphism_group(lattice):
                coordinatize(phi)
    assert formed == lattices
    # O(k N) entries: one row per point and twist
    for lattice in lattices:
        frame = lattice._frame
        assert len(frame.twists) == len(list_automorphisms(lattice.space.ring))
        assert all(len(rows) == len(lattice.points) for _, rows in frame.twists)
        assert frame.rows == {p: (v.index(1), v) for p, v in zip(lattice.points, lattice.point_rows)}


def test_inducing_twist_refuses_a_point_sent_to_zero():
    # M = [[1, 0], [0, 0]] on GF(3)^2 sends every point into <e_1> but
    # <e_2>, which it sends to zero; 0 = lambda w holds with lambda = 0,
    # so only the lambda != 0 test refuses the map
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(3), 2))
    identity = list(range(lattice.size))
    assert glattice.rep._inducing_twist(lattice, identity, [[(0, 1)], [(1, 1)]]).is_identity()
    onto_e1 = list(identity)
    for p in lattice.points:
        onto_e1[p] = lattice.point_of[(1, 0)]
    assert glattice.rep._inducing_twist(lattice, onto_e1, [[(0, 1)], []]) is None


def frobenius_swap_rep_gf4():
    """C2 on GF(4)^3 by (x, y, z) -> (y^2, x^2, z^2): the Frobenius twist
    on a lattice of rank 3, where it is read back off the action."""
    gf4 = DivisionRing.gf(2, 2)
    one, zero = gf4.one(), gf4.zero()
    swap = ((zero, one, zero), (one, zero, zero), (zero, zero, one))
    identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    frob = RingAutomorphism.frobenius(gf4, 1)
    return rep_from_matrices(
        cyclic_group(2), VectorSpace(gf4, 3), {0: (identity, None), 1: (swap, frob)}
    )


def test_rep_from_glattice_roundtrip(shift_rep_gf2, shift_rep_gf3):
    for rep in (shift_rep_gf2, shift_rep_gf3, frobenius_swap_rep_gf4()):
        action = induced_glattice(rep)
        back = rep_from_glattice(action)
        again = induced_glattice(back, action.lattice)
        assert again.table == action.table
        assert back.maps[0].is_identity()
        assert [f.theta for f in back.maps.values()] == [f.theta for f in rep.maps.values()]


def test_rep_from_glattice_trivial(gf2):
    c2 = cyclic_group(2)
    lattice = enumerate_subspaces(VectorSpace(gf2, 2))
    action = GLatticeAction(
        c2, lattice, [list(range(lattice.size)), list(range(lattice.size))]
    )
    rep = rep_from_glattice(action)
    assert all(rep.maps[g].is_identity() for g in range(2))


# ---------------------------------------------------------------------------
# equivalence


def test_rep_equivalent_to_itself(shift_rep_gf3):
    witness = rep_equivalence(shift_rep_gf3, shift_rep_gf3)
    assert witness is not None
    assert all(value.is_one() for value in witness.eta.values())


def test_global_scaling_is_equivalence(shift_rep_gf3):
    rep = shift_rep_gf3
    two = rep.space.ring.scalar(2)
    scaled = rep.scaled({g: two for g in range(3)})
    witness = rep_equivalence(rep, scaled)
    assert witness is not None
    assert all(value == two for value in witness.eta.values())


def test_different_actions_not_equivalent(gf2, shift_rep_gf2):
    # the identity representation and the shift induce different lattices
    c3 = cyclic_group(3)
    space = VectorSpace(gf2, 3)
    trivial = SemilinearProjectiveRep(
        c3, space, {g: identity_map(space) for g in range(3)}
    )
    assert rep_equivalence(trivial, shift_rep_gf2) is None
    assert not same_induced_lattice(trivial, shift_rep_gf2)


def test_theta_mismatch_not_equivalent():
    gf4 = DivisionRing.gf(2, 2)
    c2 = cyclic_group(2)
    space = VectorSpace(gf4, 1)
    frob = RingAutomorphism.frobenius(gf4, 1)
    linear = rep_from_matrices(
        c2, space, {0: (((gf4.one(),),), None), 1: (((gf4.one(),),), None)}
    )
    twisted = rep_from_matrices(
        c2, space, {0: (((gf4.one(),),), None), 1: (((gf4.one(),),), frob)}
    )
    assert rep_equivalence(linear, twisted) is None


def test_space_mismatch_rejected(shift_rep_gf2, shift_rep_gf3):
    with pytest.raises(SpaceMismatch):
        rep_equivalence(shift_rep_gf2, shift_rep_gf3)


# ---------------------------------------------------------------------------
# normalization


def test_normalized_rep():
    rep = scalar_rep_gf3()
    with pytest.raises(NotNormalized):
        factor_system_from_rep(rep)
    fixed = rep.normalized()
    assert fixed.maps[0].is_identity()
    fs = factor_system_from_rep(fixed)
    # after normalization rho(a) = I so the system collapses to trivial
    assert all(x.is_one() for row in fs.bracket for x in row)


@pytest.mark.parametrize(
    "rho_e", [((2, 1), (0, 2)), ((1, 0), (0, 2))], ids=["jordan", "diagonal"]
)
def test_normalized_rejects_non_scalar_rho_e(gf3, rho_e):
    space = VectorSpace(gf3, 2)
    rep = rep_from_matrices(
        cyclic_group(2), space, {0: (rho_e, None), 1: (identity_map(space).matrix, None)}
    )
    with pytest.raises(NotProjective):
        rep.normalized()


def test_equivalence_iff_same_lattice_family(gf2):
    # all 57 order-dividing-3 matrices in GL(3,2) as C3 representations
    c3 = cyclic_group(3)
    space = VectorSpace(gf2, 3)
    reps = []
    for f in iter_semilinear_automorphisms(space):
        fff = f.compose(f).compose(f)
        if fff.is_identity():
            reps.append(
                SemilinearProjectiveRep(
                    c3, space, {0: identity_map(space), 1: f, 2: f.compose(f)}
                )
            )
    assert len(reps) == 57  # 1 identity + 56 elements of order 3
    lattice = enumerate_subspaces(space)
    tables = [induced_glattice(rep, lattice).table for rep in reps]
    for i in range(0, len(reps), 7):  # a systematic sample of pairs
        for j in range(len(reps)):
            equivalent = rep_equivalence(reps[i], reps[j]) is not None
            assert equivalent == (tables[i] == tables[j])


# ---------------------------------------------------------------------------
# row supports against the dense reference


def dense_ratio(a, b):
    """The scalar c with a == c*b entry by entry, or None: read at the
    first nonzero entry of b in row-major order and checked on every
    entry of the two dense matrices."""
    pairs = [(x, y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)]
    for x, y in pairs:
        if not y.is_zero():
            c = x * y.inverse()
            return c if all(u == c * v for u, v in pairs) else None
    return None


def dense_compose(f, g):
    """f after g by the dense product M_f * theta_f(M_g)."""
    twisted = tuple(tuple(f.theta(x) for x in row) for row in g.matrix)
    return mat_mul(f.matrix, twisted), f.theta.compose(g.theta)


def support_families():
    """The regular representations of the acceptance suite's 66 systems,
    the shift rep over QQ, all of SGL(GF(3)^2), and every ninth map of
    SGL(GF(4)^2) (20 per twist, so the Frobenius twist moves entries)."""
    families = [
        list(regular_representation(TwistedGroupRing(fs)).maps.values())
        for fs in enumerated_system_family()
    ]
    assert len(families) == 66
    families.append(list(shift_rep(DivisionRing.rationals()).maps.values()))
    families.append(enumerate_sgl(VectorSpace(DivisionRing.gf(3), 2)))
    families.append(enumerate_sgl(VectorSpace(DivisionRing.gf(2, 2), 2))[::9])
    return families


def test_support_compose_matches_dense_product():
    pairs = 0
    for maps in support_families():
        for f in maps:
            for g in maps:
                fg = f.compose(g)
                assert (fg.matrix, fg.theta) == dense_compose(f, g)
                # the support built during the product is the matrix's own
                fresh = SemilinearMap(f.space, fg.matrix, fg.theta)
                assert fg._rows == fresh._rows
                pairs += 1
    assert pairs > 48 * 48 + 40 * 40


def test_support_ratio_matches_dense_ratio():
    for maps in support_families()[:-2]:
        for f in maps:
            for g in maps:
                fg = f.compose(g)
                for target in maps:
                    a, b = fg._rows, target._rows
                    assert _ratio(a, b) == dense_ratio(fg.matrix, target.matrix)
                    assert _ratio(b, a) == dense_ratio(target.matrix, fg.matrix)


def test_support_ratio_on_multiples_zeros_and_mismatched_supports():
    for ring in (DivisionRing.gf(3), DivisionRing.gf(2, 2), DivisionRing.rationals()):
        space = VectorSpace(ring, 2)
        units = ring.units() if ring.is_finite() else [ring.scalar(c) for c in (1, -2, "3/7")]
        zero, one, two = ring.zero(), ring.one(), ring.scalar(2)
        matrices = [
            ((zero, zero), (zero, zero)),
            ((one, zero), (zero, one)),
            ((one, one), (zero, one)),
            ((zero, one), (one, zero)),
            ((one, zero), (zero, zero)),
            ((zero, two), (zero, zero)),
            ((two, one), (one, zero)),
            ((one, two), (zero, one)),
        ]
        maps = [SemilinearMap(space, m) for m in matrices]
        maps += [f.scale(c) for f in maps for c in units]
        for f in maps:
            for g in maps:
                assert _ratio(f._rows, g._rows) == dense_ratio(f.matrix, g.matrix)
        zero_map, identity, upper, _, first, second, _, upper_two = (
            f._rows for f in maps[: len(matrices)]
        )
        assert _ratio(zero_map, identity) == zero  # zero against nonzero
        assert _ratio(identity, zero_map) is None  # nothing against zero
        assert _ratio(zero_map, zero_map) is None
        assert _ratio(upper, identity) is None  # an extra entry
        assert _ratio(identity, upper) is None  # a missing entry
        assert _ratio(second, first) is None  # one entry each, in other columns
        assert _ratio(upper_two, upper) is None  # one support, not proportional


def dense_apply(matrix, theta, v):
    """f(v)_i = sum_j M[i][j] * theta(v_j), over every entry of M."""
    tv = [theta(x) for x in v]
    out = []
    for row in matrix:
        acc = row[0] * tv[0]
        for x, y in zip(row[1:], tv[1:]):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


def dense_families():
    """Families of (map, dense matrix): every map of SGL(GF(3)^2), the
    regular representations of the acceptance suite's 66 systems and of
    C48 over GF(41), with the dense matrix read off the bracket, and the
    shift reps over QQ and GF(5003), whose square is a dense product."""
    space = VectorSpace(DivisionRing.gf(3), 2)
    families = [[(SemilinearMap(space, m), m) for m in oracles.invertible_matrices(space)]]
    for fs in list(enumerated_system_family()) + _c48_over_gf41_systems()[:1]:
        n, zero = fs.group.order, fs.ring.zero()
        rho = regular_representation(TwistedGroupRing(fs))
        family = []
        for g in range(n):
            dense = [[zero] * n for _ in range(n)]
            for h, gh in enumerate(fs.group.cayley[g]):
                dense[gh][h] = fs.bracket[g][h]
            family.append((rho.maps[g], dense))
        families.append(family)
    for ring in (DivisionRing.rationals(), DivisionRing.gf(5003)):
        maps = shift_rep(ring).maps
        shift = maps[1].matrix
        dense = [identity_map(maps[0].space).matrix, shift, mat_mul(shift, shift)]
        families.append(list(zip(maps.values(), dense)))
    return families


def test_row_supports_match_the_dense_matrix():
    rng = random.Random(22)
    for family in dense_families():
        space = family[0][0].space
        ring, n = space.ring, space.dim
        coerced = [SemilinearMap(space, dense, f.theta) for f, dense in family]
        vectors = space.basis()[:3] + [
            space.vector([rng.randrange(-9, 10) for _ in range(n)]) for _ in range(3)
        ]
        twists = list_automorphisms(ring) if ring.is_finite() and ring.order < 50 else []
        for (f, dense), reference in zip(family, coerced):
            assert f.matrix == reference.matrix
            assert f == reference and hash(f) == hash(reference)
            for phi in twists:
                assert (f == SemilinearMap(space, dense, phi)) == (phi == f.theta)
            for v in vectors:
                assert f.apply(v) == dense_apply(reference.matrix, f.theta, v)
        for f, _ in family:
            for g in coerced:
                same = (f.matrix, f.theta) == (g.matrix, g.theta)
                assert (f == g) == same and (g == f) == same
                assert not same or hash(f) == hash(g)


def test_scale_matches_the_dense_product():
    for family in dense_families():
        space = family[0][0].space
        ring = space.ring
        if ring.is_finite():
            scalars = ring.elements()
        else:
            scalars = [ring.scalar(c) for c in (0, 1, -2, "3/7")]
        # every map of a small family; three of C48's
        maps = [f for f, _ in family][: 3 if space.dim == 48 else None]
        for f in maps:
            for a in scalars:
                scaled = f.scale(a)
                assert not hasattr(scaled, "_matrix")
                reference = SemilinearMap(space, [[a * x for x in row] for row in f.matrix], f.theta)
                assert scaled == reference and hash(scaled) == hash(reference)
                assert scaled.matrix == reference.matrix


def test_regular_representation_keeps_no_dense_matrix():
    # 48 dense 48 x 48 matrices are n^3 pointers, n^3 * 8 bytes; the first
    # pass warms the ring's and the group's caches
    fs = _c48_over_gf41_systems()[0]
    tgr = TwistedGroupRing(fs)
    rng = random.Random(41)
    mu = [fs.ring.one()] + [fs.ring.from_index(rng.randrange(1, 41)) for _ in range(47)]

    def run():
        rho = regular_representation(tgr)
        extract_cocycle(rho)
        return rho, rho.scaled(mu)

    run()
    tracemalloc.start()
    try:
        reps = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48**3 * 8
    assert not any(hasattr(f, "_matrix") for rho in reps for f in rho.maps.values())


# ---------------------------------------------------------------------------
# cocycle extraction: the log route against the row-support route


def _extraction(route, rep):
    """The cocycle a route returns, or the kind, witness and message of
    its refusal."""
    try:
        return route(rep)
    except (NotProjective, ScalarInconsistent) as exc:
        return type(exc), exc.witness, str(exc)


def _c48_over_gf41_systems():
    """The trivial system of C48 over GF(41) and a coboundary
    [g,h] = mu(g)mu(h)/mu(gh) from seeded units mu."""
    gf41, c48 = DivisionRing.gf(41), cyclic_group(48)
    rng = random.Random(41)
    mu = [gf41.one()] + [gf41.from_index(rng.randrange(1, 41)) for _ in range(47)]
    coboundary = {
        (g, h): mu[g] * mu[h] * mu[c48.cayley[g][h]].inverse() for g in range(48) for h in range(48)
    }
    return [FactorSystem(c48, gf41, {}, {}), FactorSystem(c48, gf41, {}, coboundary)]


def test_log_route_matches_the_support_route_on_regular_representations():
    # the benchmark's eleven classify pairs (cyclic 2-4 and dihedral:2 over
    # GF(2), 3, 4, 5), the Frobenius families, and C48 over GF(41)
    systems = list(enumerated_system_family())
    systems += [
        tgr.fs for tgr in enumerated_rings() if not all(phi.is_identity() for phi in tgr.fs.chi)
    ]
    systems += _c48_over_gf41_systems()
    systems += [fs for fs in _tamper_systems().values() if fs.ring.has_log_tables()]
    assert any(not phi.is_identity() for fs in systems for phi in fs.chi)
    for fs in systems:
        rho = regular_representation(TwistedGroupRing(fs))
        views = glattice.rep._monomial_views(rho)
        assert views is not None
        cocycle = glattice.rep._log_cocycle(rho, views)
        assert cocycle == glattice.rep._support_cocycle(rho)
        n = fs.group.order
        assert cocycle == {(g, h): fs.bracket[g][h] for g in range(n) for h in range(n)}


def _non_monomial_reps():
    gf3 = DivisionRing.gf(3)
    space = VectorSpace(gf3, 2)
    # an involution of GF(3)^2 with two entries in its first row
    flip = SemilinearMap(space, ((1, 1), (0, 2)))
    reps = [
        SemilinearProjectiveRep(cyclic_group(2), space, {0: identity_map(space), 1: flip}),
        shift_rep(DivisionRing.rationals()),
        shift_rep(DivisionRing.gf(5003)),  # monomial, but past the log tables
    ]
    # coordinatize output: the shift rep conjugated by a non-monomial change of basis
    base = SemilinearMap(VectorSpace(gf3, 3), ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    shift = shift_rep(gf3)
    conjugated = {g: base.compose(f).compose(base.inverse()) for g, f in shift.maps.items()}
    action = induced_glattice(SemilinearProjectiveRep(shift.group, shift.space, conjugated))
    reps.append(rep_from_glattice(action))
    return reps


def test_log_route_is_not_taken_on_non_monomial_families(monkeypatch):
    reps = _non_monomial_reps()
    assert any(len(row) > 1 for f in reps[-1].maps.values() for row in f._rows)

    def no_log_route(rep, views):
        raise AssertionError("the log route ran on a family without monomial views")

    monkeypatch.setattr(glattice.rep, "_log_cocycle", no_log_route)
    for rho in reps:
        assert glattice.rep._monomial_views(rho) is None
        assert extract_cocycle(rho) == glattice.rep._support_cocycle(rho)


def _tamper_systems():
    """A system per carrier: GF(3), GF(4) and GF(9) with chi(g) = Frob^g
    on C4, and GF(5003), which has no log tables, so its log route never
    runs.  The GF(9) bracket is moved off the trivial one by mu(g) =
    exp(g), so that Frobenius moves its logs."""
    gf3, gf4, gf9 = DivisionRing.gf(3), DivisionRing.gf(2, 2), DivisionRing.gf(3, 2)

    def frobenius_c4(ring):
        frob = RingAutomorphism.frobenius(ring, 1)
        return FactorSystem(cyclic_group(4), ring, {1: frob, 3: frob}, {})

    return {
        "gf3": enumerate_factor_systems(cyclic_group(3), gf3)[-1],
        "gf4-frob": frobenius_c4(gf4),
        "gf9-frob": transform_factor_system(frobenius_c4(gf9), [gf9.exp(i) for i in range(4)]),
        "gf5003": FactorSystem(
            cyclic_group(3), DivisionRing.gf(5003), {}, {(1, 2): 7, (2, 1): 7, (2, 2): 7}
        ),
    }


TAMPER_CASES = ["gf3", "gf4-frob", "gf9-frob", "gf5003"]


def _tampered(case, edit=None, theta=None):
    """The regular representation of the case's system with its last
    map's dense matrix edited in place by ``edit`` or its twist replaced
    by ``theta``, rebuilt through the coercing constructor so that no
    support or view is carried over."""
    rho = regular_representation(TwistedGroupRing(_tamper_systems()[case]))
    g = rho.group.order - 1
    f = rho.maps[g]
    matrix = [list(row) for row in f.matrix]
    if edit:
        edit(matrix, f.space.ring)
    maps = dict(rho.maps)
    maps[g] = SemilinearMap(f.space, matrix, theta or f.theta)
    return SemilinearProjectiveRep(rho.group, rho.space, maps)


def _assert_same_refusal(rho, kind):
    """extract_cocycle refuses rho as the row-support route does; the log
    route runs exactly when the ring has log tables and every map is
    monomial."""
    expected = _extraction(glattice.rep._support_cocycle, rho)
    assert expected[0] is kind
    assert _extraction(extract_cocycle, rho) == expected
    views = glattice.rep._monomial_views(rho)
    assert (views is not None) == (rho.space.ring.has_log_tables() and all(
        f._monomial() is not None for f in rho.maps.values()
    ))
    if views is not None:
        assert _extraction(lambda r: glattice.rep._log_cocycle(r, views), rho) == expected
    return views


def _entry(matrix, r):
    return next(j for j, x in enumerate(matrix[r]) if not x.is_zero())


@pytest.mark.parametrize("case", ["gf4-frob", "gf9-frob"])
def test_log_route_refuses_a_changed_theta_as_the_oracle(case):
    # a prime field has no automorphism but the identity, so no twist to change
    rho = _tampered(case, theta=RingAutomorphism.identity(_tamper_systems()[case].ring))
    assert _assert_same_refusal(rho, NotProjective) is not None


@pytest.mark.parametrize("case", TAMPER_CASES)
def test_log_route_refuses_a_changed_unit_as_the_oracle(case):
    def change_unit(matrix, ring):
        j = _entry(matrix, 1)
        matrix[1][j] = matrix[1][j] * ring.from_index(2)  # a unit other than 1

    views = _assert_same_refusal(_tampered(case, change_unit), ScalarInconsistent)
    assert (views is None) == (case == "gf5003")


@pytest.mark.parametrize("case", TAMPER_CASES)
def test_log_route_refuses_swapped_columns_as_the_oracle(case):
    def swap_columns(matrix, ring):
        a, b = _entry(matrix, 0), _entry(matrix, 1)
        matrix[0][a], matrix[0][b] = matrix[0][b], matrix[0][a]
        matrix[1][a], matrix[1][b] = matrix[1][b], matrix[1][a]

    views = _assert_same_refusal(_tampered(case, swap_columns), ScalarInconsistent)
    assert (views is None) == (case == "gf5003")


@pytest.mark.parametrize("case", TAMPER_CASES)
def test_a_second_entry_falls_back_to_the_oracle(case):
    def second_entry(matrix, ring):
        j = _entry(matrix, 0)
        matrix[0][(j + 1) % len(matrix)] = ring.one()

    rho = _tampered(case, second_entry)
    assert rho.maps[rho.group.order - 1]._monomial() is None
    assert _assert_same_refusal(rho, ScalarInconsistent) is None


# ---------------------------------------------------------------------------
# what a representation keeps


@pytest.mark.parametrize("ring", ["gf:3", "q"])
def test_extract_cocycle_returns_a_fresh_dict_on_every_call(ring):
    # GF(3) takes the log route and QQ the row-support route
    rho = shift_rep(parse_ring_spec(ring))
    first, second = extract_cocycle(rho), extract_cocycle(rho)
    assert first == second
    assert first is not second
    first[(1, 1)] = first[(1, 1)] + first[(1, 1)]
    assert extract_cocycle(rho) == second != first


def test_factor_system_from_rep_returns_the_same_system(gf3):
    rho = shift_rep(gf3)
    fs = factor_system_from_rep(rho)
    assert factor_system_from_rep(rho) is fs
    tgr = TwistedGroupRing(_tamper_systems()["gf3"])
    assert factor_system_from_rep(regular_representation(tgr)) is tgr.fs


@pytest.mark.parametrize("case", TAMPER_CASES)
def test_a_refusal_is_never_kept(case):
    def change_unit(matrix, ring):
        j = _entry(matrix, 1)
        matrix[1][j] = matrix[1][j] * ring.from_index(2)

    rho = _tampered(case, change_unit)
    routes = (extract_cocycle, validate_rep, factor_system_from_rep)
    first = [_extraction(route, rho) for route in routes]
    assert [refusal[0] for refusal in first] == [ScalarInconsistent, NotProjective, ScalarInconsistent]
    assert [_extraction(route, rho) for route in routes] == first
    assert (rho._cocycle, rho._fs) == (None, None)


def test_regular_rep_cocycle_is_extracted_once(monkeypatch):
    calls = []
    original = glattice.rep._log_cocycle

    def counted(rep, views):
        calls.append(rep)
        return original(rep, views)

    monkeypatch.setattr(glattice.rep, "_log_cocycle", counted)
    tgr = TwistedGroupRing(_tamper_systems()["gf4-frob"])
    rho = regular_representation(tgr)
    assert validate_rep(rho).kind == "semilinear"
    assert factor_system_from_rep(rho) is tgr.fs
    assert calls == [rho]
