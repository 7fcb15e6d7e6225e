"""Twisted group ring arithmetic, the regular representation, the
algebra criterion, and the module laws."""

import itertools
import time
from fractions import Fraction

import pytest

import glattice.rep
from glattice import (
    DivisionRing,
    FactorSystem,
    RingAutomorphism,
    SemilinearMap,
    SemilinearProjectiveRep,
    TwistedGroupRing,
    TwistedModule,
    cyclic_group,
    dihedral_group,
    enumerate_factor_systems,
    factor_system_from_rep,
    is_algebra,
    regular_representation,
    symmetric_group,
    trivial_factor_system,
    validate_module_axioms,
    validate_rep,
)
from glattice import tgring
from glattice.errors import GlatticeError, NonCommutativeCarrier, NotAssociated, ParentMismatch
from glattice.lattice import orbits
from glattice.linalg import scale_vector
from glattice.rep import induced_glattice

import oracles
from oracles import is_algebra as sampled_is_algebra
from conftest import shift_rep
from test_acceptance import enumerated_system_family


# ---------------------------------------------------------------------------
# ring arithmetic


def test_product_expansion(rationals):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    u = tgr.element({0: 1, 1: 2})
    v = tgr.element({1: 3})
    # direct expansion: (1*1bar + 2*abar)(3*abar) = 3*abar + 6*a2bar
    assert u * v == tgr.element({1: 3, 2: 6})


def test_basis_multiplication_law(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    tgr = TwistedGroupRing(fs)
    for g in range(2):
        for h in range(2):
            product = tgr.basis_element(g) * tgr.basis_element(h)
            gh = fs.group.cayley[g][h]
            assert product == tgr.element({gh: fs.bracket[g][h]})
    # abar*abar = 2*1bar
    assert tgr.basis_element(1) * tgr.basis_element(1) == tgr.element({0: 2})


def test_addition_and_scalar_action(gf3):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(2), gf3))
    u = tgr.element({0: 1, 1: 2})
    v = tgr.element({0: 2, 1: 1})
    assert u + v == tgr.zero()  # coefficients cancel mod 3
    assert u.scale(gf3.scalar(2)) == tgr.element({0: 2, 1: 1})
    assert u - u == tgr.zero()


def test_sparse_canonical_form(gf3):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(2), gf3))
    assert tgr.element({0: 0, 1: 0}) == tgr.zero()
    assert tgr.element({1: 3}).coeffs == ()  # 3 = 0 mod 3


def test_parent_mismatch(gf3, gf5):
    t1 = TwistedGroupRing(trivial_factor_system(cyclic_group(2), gf3))
    t2 = TwistedGroupRing(trivial_factor_system(cyclic_group(2), gf5))
    with pytest.raises(ParentMismatch):
        t1.one() + t2.one()


def test_products_within_one_ring_compare_no_factor_systems(monkeypatch, gf3):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(4), gf3))
    calls = []
    original = FactorSystem.__eq__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(FactorSystem, "__eq__", counted)
    assert oracles.basis_product_violation(tgr) is None
    assert calls == []
    twin = TwistedGroupRing(trivial_factor_system(cyclic_group(4), gf3))
    product = tgr.one() * twin.one()  # equal rings are still compared field by field
    assert len(calls) == 1
    assert product.coeffs == tgr.one().coeffs


def enumerated_rings():
    """Twisted rings for every enumerable (group, field, chi) family used
    in the associativity and algebra sweeps."""
    out = []
    gf2, gf3, gf4 = DivisionRing.gf(2), DivisionRing.gf(3), DivisionRing.gf(2, 2)
    gf5 = DivisionRing.gf(5)
    pairs = [
        (cyclic_group(2), gf2),
        (cyclic_group(2), gf3),
        (cyclic_group(2), gf4),
        (cyclic_group(2), gf5),
        (cyclic_group(3), gf3),
        (cyclic_group(3), gf4),
        (cyclic_group(4), gf3),
        (dihedral_group(2), gf3),
    ]
    for group, ring in pairs:
        chis = [None]
        if ring is gf4 and group.order == 2:
            # the one nontrivial homomorphism C2 -> Gal(GF(4)/GF(2))
            chis.append(
                {
                    0: RingAutomorphism.identity(ring),
                    1: RingAutomorphism.frobenius(ring, 1),
                }
            )
        for chi in chis:
            for fs in enumerate_factor_systems(group, ring, chi):
                out.append(TwistedGroupRing(fs))
    return out


def test_associativity_on_basis_triples_everywhere():
    # doubles as an independent re-verification of the E2 law
    for tgr in enumerated_rings():
        basis = tgr.basis()
        for u in basis:
            for v in basis:
                uv = u * v
                for w in basis:
                    assert (uv) * w == u * (v * w)


def test_distributivity_sampled(gf4):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), gf4))
    elems = tgr.all_elements()[:16]
    for u, v, w in itertools.islice(itertools.product(elems, repeat=3), 300):
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w


# ---------------------------------------------------------------------------
# regular representation


def test_regular_rep_shift_matrices(rationals, shift_rep_q):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    reg = regular_representation(tgr)
    # the coordinate identification x*1bar + y*abar + z*a2bar makes the
    # regular representation literally the shift representation
    for g in range(3):
        assert reg.maps[g].matrix == shift_rep_q.maps[g].matrix
        assert reg.maps[g].theta == shift_rep_q.maps[g].theta


def test_regular_rep_projective_case(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    reg = regular_representation(TwistedGroupRing(fs))
    matrix = [[x.payload for x in row] for row in reg.maps[1].matrix]
    assert matrix == [[0, 2], [1, 0]]
    squared = reg.maps[1].compose(reg.maps[1])
    two_i = [[2, 0], [0, 2]]
    assert [[x.payload for x in row] for row in squared.matrix] == two_i


def test_regular_rep_frobenius_case(gf4):
    frob = RingAutomorphism.frobenius(gf4, 1)
    fs = FactorSystem(cyclic_group(2), gf4, {1: frob}, {})
    reg = regular_representation(TwistedGroupRing(fs))
    assert reg.maps[1].theta == frob
    swap = [[0, 1], [1, 0]]
    assert [[x.sort_key() for x in row] for row in reg.maps[1].matrix] == swap


def vector_to_ring_element(tgr, v):
    """Identify K^{|G|} with the ring: coordinate h becomes the hbar term."""
    return tgr.element(dict(enumerate(v)))


def ring_element_to_vector(tgr, u):
    coords = [tgr.ring.zero()] * tgr.rank
    for g, value in u.coeffs:
        coords[g] = value
    return tuple(coords)


def test_regular_rep_agrees_with_ring_product(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    tgr = TwistedGroupRing(fs)
    reg = regular_representation(tgr)
    for g in range(2):
        gbar = tgr.basis_element(g)
        for u in tgr.all_elements():
            via_matrix = reg.maps[g].apply(ring_element_to_vector(tgr, u))
            via_ring = gbar * u
            assert vector_to_ring_element(tgr, via_matrix) == via_ring


def test_regular_rep_roundtrips_every_enumerated_system():
    for tgr in enumerated_rings():
        reg = regular_representation(tgr)
        assert factor_system_from_rep(reg) == tgr.fs


@pytest.mark.parametrize("pair", [(0, 0), (1, 2), (2, 2)])
def test_regular_rep_rejects_a_cocycle_off_by_one_entry(monkeypatch, gf3, pair):
    original = glattice.rep.extract_cocycle

    def off_by_one(rep):
        cocycle = original(rep)
        cocycle[pair] = cocycle[pair] * gf3.scalar(2)
        return cocycle

    monkeypatch.setattr(glattice.rep, "extract_cocycle", off_by_one)
    tgr = TwistedGroupRing(FactorSystem(cyclic_group(3), gf3, {}, {}))
    with pytest.raises(GlatticeError, match="does not reproduce its system"):
        regular_representation(tgr)


def test_regular_rep_rejects_quaternions(quaternions):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(2), quaternions))
    with pytest.raises(NonCommutativeCarrier):
        regular_representation(tgr)
    # the lazy ring product is still available
    i = quaternions.scalar((0, 1, 0, 0))
    u = tgr.basis_element(1).scale(i)
    assert (u * u).coeff(0) == i * i  # chi trivial: (i abar)^2 = i^2 1bar


def test_s3_regular_construction_has_rank_six(rationals):
    tgr = TwistedGroupRing(trivial_factor_system(symmetric_group(3), rationals))
    reg = regular_representation(tgr)
    assert reg.space.dim == 6
    assert reg.space.dim != 3
    assert validate_rep(reg).kind == "linear"


# ---------------------------------------------------------------------------
# the algebra criterion


def test_group_algebra_is_algebra(gf3):
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        tgr = TwistedGroupRing(trivial_factor_system(group, gf3))
        assert is_algebra(tgr).ok


def test_frobenius_twist_is_not_algebra(gf4):
    frob = RingAutomorphism.frobenius(gf4, 1)
    fs = FactorSystem(cyclic_group(2), gf4, {1: frob}, {})
    verdict = is_algebra(TwistedGroupRing(fs))
    assert not verdict.ok
    # replay the witness through the ring operations
    lhs = verdict.left_factor * verdict.right_factor.scale(verdict.scalar)
    rhs = (verdict.left_factor * verdict.right_factor).scale(verdict.scalar)
    assert lhs == verdict.lhs and rhs == verdict.rhs and lhs != rhs
    # the witness scalar is moved by Frobenius: omega -> omega^2
    assert verdict.scalar == gf4.scalar(2)


def test_quaternion_ring_is_not_algebra(quaternions):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(2), quaternions))
    verdict = is_algebra(tgr)
    assert not verdict.ok
    lhs = verdict.left_factor * verdict.right_factor.scale(verdict.scalar)
    rhs = (verdict.left_factor * verdict.right_factor).scale(verdict.scalar)
    assert lhs != rhs  # ji != ij in coefficient form
    i = quaternions.scalar((0, 1, 0, 0))
    j = quaternions.scalar((0, 0, 1, 0))
    assert lhs.coeff(0) == j * i and rhs.coeff(0) == i * j


def test_algebra_biconditional_over_enumerated_family():
    for tgr in enumerated_rings():
        expected = tgr.ring.is_commutative() and all(
            phi.is_identity() for phi in tgr.fs.chi
        )
        assert is_algebra(tgr).ok == expected


def _frobenius_ring(ring, group):
    """chi(a^k) = frob^k on a cyclic group whose order divides [K : GF(p)]."""
    chi = {g: RingAutomorphism.frobenius(ring, g) for g in range(group.order)}
    return TwistedGroupRing(FactorSystem(group, ring, chi, {}))


def _algebra_reference_rings():
    rationals, quaternions = DivisionRing.rationals(), DivisionRing.quaternions()
    rings = enumerated_rings()
    rings += [TwistedGroupRing(fs) for fs in enumerated_system_family()]
    rings += [
        TwistedGroupRing(trivial_factor_system(cyclic_group(n), rationals))
        for n in (1, 2, 3, 6, 12)
    ]
    rings += [
        TwistedGroupRing(trivial_factor_system(group, quaternions))
        for group in (cyclic_group(2), symmetric_group(3))
    ]
    rings += [
        _frobenius_ring(DivisionRing.gf(2, 2), cyclic_group(2)),
        _frobenius_ring(DivisionRing.gf(2, 3), cyclic_group(3)),
        _frobenius_ring(DivisionRing.gf(3, 2), cyclic_group(2)),
    ]
    return rings


def test_algebra_verdict_matches_sampled_reference():
    fields = ("ok", "law", "scalar", "left_factor", "right_factor", "lhs", "rhs")
    rings = _algebra_reference_rings()
    for tgr in rings:
        verdict, reference = is_algebra(tgr), sampled_is_algebra(tgr)
        for name in fields:
            assert getattr(verdict, name) == getattr(reference, name), (tgr, name)
        assert str(verdict) == str(reference)
    verdicts = [is_algebra(tgr).ok for tgr in rings]
    assert True in verdicts and False in verdicts


def test_basis_products_follow_the_formula_on_every_reference_ring():
    for tgr in _algebra_reference_rings():
        assert oracles.basis_product_violation(tgr) is None, tgr


def test_algebra_check_catches_a_product_without_bracket(monkeypatch, gf3):
    tgr = TwistedGroupRing(FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2}))

    def unbracketed(self, other):
        out = {}
        for g, a in self.coeffs:
            for h, b in other.coeffs:
                k = self.parent.group.cayley[g][h]
                out[k] = out.get(k, gf3.zero()) + a * self.parent.fs.chi[g](b)
        return self.parent.element(out)

    monkeypatch.setattr(tgring.TwistedRingElement, "__mul__", unbracketed)
    # the sampled bimodule laws hold for this product too
    assert sampled_is_algebra(tgr).ok
    assert oracles.basis_product_violation(tgr) == (1, 1)
    # the verdict is the theorem's, read off the validated system and chi
    assert is_algebra(tgr).ok


def test_positive_algebra_verdicts_form_no_ring_product(monkeypatch):
    rings = _algebra_reference_rings()
    expected = [sampled_is_algebra(tgr).ok for tgr in rings]

    def refuse(self, other):
        raise AssertionError("a positive verdict formed a ring product")

    monkeypatch.setattr(tgring.TwistedRingElement, "__mul__", refuse)
    positive = [tgr for tgr, ok in zip(rings, expected) if ok]
    assert positive and all(is_algebra(tgr).ok for tgr in positive)


def test_algebra_verdict_on_c48_over_rationals_is_fast(rationals):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(48), rationals))
    start = time.perf_counter()
    verdict = is_algebra(tgr)
    elapsed = time.perf_counter() - start
    assert verdict.ok
    assert elapsed < 0.5


# ---------------------------------------------------------------------------
# module structure


def test_one_bar_acts_as_identity(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    tgr = TwistedGroupRing(fs)
    rho = regular_representation(tgr)
    module = TwistedModule(tgr, rho)
    for v in rho.space.all_vectors():
        assert module.act(tgr.one(), v) == v


def test_shift_module_action(rationals, shift_rep_q):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    abar = tgr.basis_element(1)
    v = tuple(rationals.scalar(c) for c in (1, 2, 3))
    assert TwistedModule(tgr, shift_rep_q).act(abar, v) == tuple(
        rationals.scalar(c) for c in (3, 1, 2)
    )


def test_module_axioms_exhaustive_gf3_c2(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    tgr = TwistedGroupRing(fs)
    rho = regular_representation(tgr)
    ok, witness = validate_module_axioms(tgr, rho)
    assert ok, witness


def test_module_axioms_sampled_over_rationals(rationals, shift_rep_q):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    ok, witness = validate_module_axioms(tgr, shift_rep_q)
    assert ok, witness
    for seed in (0, 12345):
        assert oracles.reference_module_laws(tgr, shift_rep_q, seed=seed) == (True, None)


def test_module_action_requires_association(gf3, shift_rep_gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    tgr = TwistedGroupRing(fs)
    with pytest.raises(NotAssociated):
        TwistedModule(tgr, shift_rep_gf3)
    trivial = TwistedGroupRing(trivial_factor_system(cyclic_group(2), gf3))
    rho = regular_representation(tgr)
    with pytest.raises(NotAssociated):
        TwistedModule(trivial, rho)
    with pytest.raises(NotAssociated):
        validate_module_axioms(trivial, rho)


def test_module_checks_the_association_once(monkeypatch, rationals, shift_rep_q):
    calls = []

    def counted(rep):
        calls.append(rep)
        return factor_system_from_rep(rep)

    monkeypatch.setattr(tgring, "factor_system_from_rep", counted)
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    module = TwistedModule(tgr, shift_rep_q)
    v = tuple(rationals.scalar(c) for c in (1, -2, 3))
    for k in range(200):
        v = module.act(tgr.basis_element(k % 3), v)
    assert calls == [shift_rep_q]
    assert v == tuple(rationals.scalar(c) for c in (3, 1, -2))


def test_module_laws_hold_past_the_exhaustive_budget(gf4):
    # 4^3 = 64 ring elements: the laws follow from the association, so no
    # element count caps the verdict
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), gf4))
    rho = regular_representation(tgr)
    assert validate_module_axioms(tgr, rho) == (True, None)


# ---------------------------------------------------------------------------
# the module laws against the product-by-product oracle


def regular_module(ring, group, bracket):
    tgr = TwistedGroupRing(FactorSystem(group, ring, {}, bracket))
    return tgr, regular_representation(tgr)


def shift_module(ring):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), ring))
    return tgr, shift_rep(ring)


@pytest.mark.parametrize(
    "build,seed",
    [
        (lambda: regular_module(DivisionRing.gf(3), cyclic_group(2), {}), 0),
        (lambda: regular_module(DivisionRing.gf(3), cyclic_group(2), {(1, 1): 2}), 0),
        (lambda: regular_module(DivisionRing.gf(2), cyclic_group(2), {}), 0),
        (lambda: shift_module(DivisionRing.rationals()), 0),
        (lambda: shift_module(DivisionRing.rationals()), 1),
        (lambda: shift_module(DivisionRing.rationals()), 12345),
    ],
    ids=["gf3-c2", "gf3-c2-bracket2", "gf2-c2", "qq-c3-seed0", "qq-c3-seed1", "qq-c3-seed12345"],
)
def test_module_laws_match_reference(build, seed):
    tgr, rep = build()
    got = validate_module_axioms(tgr, rep)
    assert got == (True, None)
    assert got == oracles.reference_module_laws(tgr, rep, seed=seed)


class TamperedMap(SemilinearMap):
    """rho(g) with its matrix and twist, so the association check still
    accepts it, but with ``apply`` passed through ``tamper(v, image)``.

    The library decides the laws from the matrices, which the tamper
    leaves alone; that ``apply`` agrees with them is pinned in
    test_linalg (``test_composition_agrees_pointwise``,
    ``test_semilinear_scalar_law_exhaustive``).  The oracle replays
    ``apply`` and must catch each tamper."""

    __slots__ = ("tamper",)

    def apply(self, v):
        return self.tamper(v, super().apply(v))


def tampered(rep, g, tamper):
    f = rep.maps[g]
    bad = TamperedMap(f.space, f.matrix, f.theta)
    bad.tamper = tamper
    return SemilinearProjectiveRep(rep.group, rep.space, {**rep.maps, g: bad})


def doubled_at(w):
    """Double the image of the one vector w: no longer additive."""
    return lambda v, image: scale_vector(w[0].ring.scalar(2), image) if v == w else image


def doubled(v, image):
    return scale_vector(v[0].ring.scalar(2), image)


def nudged_first_coordinate(v, image):
    """Add 1/10^9 to the first coordinate of every image: affine, not linear."""
    return (image[0] + Fraction(1, 10**9),) + image[1:]


@pytest.mark.parametrize(
    "build,g,tamper,laws",
    [
        (
            lambda: regular_module(DivisionRing.gf(3), cyclic_group(2), {(1, 1): 2}),
            1,
            doubled_at((DivisionRing.gf(3).one(), DivisionRing.gf(3).zero())),
            ("law1",),
        ),
        (
            lambda: shift_module(DivisionRing.rationals()),
            2,
            doubled_at(tuple(DivisionRing.rationals().scalar(c) for c in (1, 1, 0))),
            ("law1",),
        ),
        (
            lambda: regular_module(DivisionRing.gf(3), cyclic_group(2), {(1, 1): 2}),
            0,
            doubled,
            ("law3", "law4"),
        ),
        (lambda: shift_module(DivisionRing.rationals()), 1, doubled, ("law3", "law4")),
        (
            lambda: shift_module(DivisionRing.rationals()),
            1,
            nudged_first_coordinate,
            ("law1",),
        ),
    ],
    ids=[
        "nonadditive-gf3-c2",
        "nonadditive-qq-c3",
        "scaled-identity-gf3-c2",
        "scaled-shift-qq-c3",
        "nudged-shift-qq-c3",
    ],
)
def test_failing_module_laws_match_reference(build, g, tamper, laws):
    tgr, rep = build()
    got = oracles.reference_module_laws(tgr, tampered(rep, g, tamper))
    assert got[0] is False and got[1][0] in laws


def test_vector_ring_element_roundtrip(gf3):
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), gf3))
    for u in tgr.all_elements():
        assert vector_to_ring_element(tgr, ring_element_to_vector(tgr, u)) == u


def test_regular_rep_reproduces_shift_lattice(gf2, shift_rep_gf2):
    # the regular representation of the trivial (GF(2), C3) system induces
    # exactly the shift action on L(GF(2)^3) under the basis identification
    tgr = TwistedGroupRing(trivial_factor_system(cyclic_group(3), gf2))
    reg = regular_representation(tgr)
    action_reg = induced_glattice(reg)
    action_shift = induced_glattice(shift_rep_gf2)
    assert action_reg.table == action_shift.table
    assert len(orbits(action_reg)) == 8
