"""Factor-system laws, Schreier extensions, equivalences, classification."""

import itertools
import time
from fractions import Fraction

import pytest

from glattice import extension
from glattice import (
    DivisionRing,
    ExtensionIsomorphism,
    FactorSystem,
    RingAutomorphism,
    build_extension,
    check_equivalence,
    classify_extension,
    classify_up_to_equivalence,
    cyclic_group,
    dihedral_group,
    enumerate_factor_systems,
    factor_system_from_rep,
    find_equivalence,
    identify_group,
    transform_factor_system,
    transport_rep,
    trivial_factor_system,
    validate_factor_system,
)
from glattice.errors import (
    CarrierMismatch,
    GlatticeError,
    InfiniteCarrier,
    NotAssociated,
    NotEquivalent,
    TooLarge,
    ZeroBracket,
)
from glattice.jsonio import parse_group_spec, parse_ring_spec
from glattice.linalg import VectorSpace, identity_map
from glattice.rep import SemilinearProjectiveRep, rep_equivalence
from glattice.tgring import TwistedGroupRing, regular_representation

import oracles
from oracles import are_isomorphic
from test_rep import frobenius_rep_gf4


def e2_holds_oracle(fs):
    """Direct reimplementation of the E2 law, kept independent of
    validate_factor_system."""
    group = fs.group
    for g in range(group.order):
        for h in range(group.order):
            for k in range(group.order):
                gh = group.cayley[g][h]
                hk = group.cayley[h][k]
                lhs = fs.bracket[g][h] * fs.bracket[gh][k]
                rhs = fs.chi[g](fs.bracket[h][k]) * fs.bracket[g][hk]
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# validation


def test_trivial_system_valid(gf3):
    fs = trivial_factor_system(cyclic_group(2), gf3)
    assert validate_factor_system(fs).ok
    assert e2_holds_oracle(fs)


def test_c2_gf3_twisted_bracket_valid(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    report = validate_factor_system(fs)
    assert report.ok
    assert e2_holds_oracle(fs)  # exhaustive oracle over the 8 triples


def test_e3_violation_reported(gf3):
    # C1 keeps E2 satisfiable while E3 breaks
    fs = FactorSystem(cyclic_group(1), gf3, {}, {(0, 0): 2})
    report = validate_factor_system(fs)
    assert not report.ok and report.law == "E3"


def test_e3_checked_before_e2(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(0, 0): 2})
    report = validate_factor_system(fs)
    assert report.law == "E3"


def test_e1_violation_for_non_homomorphic_chi(gf4):
    # chi(a) = Frobenius on C3 is not a homomorphism: chi(a)^3 = Frobenius != id
    frob = RingAutomorphism.frobenius(gf4, 1)
    fs = FactorSystem(cyclic_group(3), gf4, {1: frob}, {})
    report = validate_factor_system(fs)
    assert not report.ok and report.law == "E1"


def test_e2_violation_reported(gf5):
    fs = FactorSystem(cyclic_group(3), gf5, {}, {(1, 1): 2})
    report = validate_factor_system(fs)
    assert not report.ok and report.law == "E2"
    g, h, k = report.witness
    gh = fs.group.cayley[g][h]
    hk = fs.group.cayley[h][k]
    assert fs.bracket[g][h] * fs.bracket[gh][k] != fs.chi[g](fs.bracket[h][k]) * fs.bracket[g][hk]


def test_zero_bracket_rejected(gf3):
    with pytest.raises(ZeroBracket):
        FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 0})


def test_identity_brackets_are_derived():
    # bracket(1,h) = bracket(g,1) = 1 is not imposed at construction,
    # but follows from E2+E3: every enumerated valid system satisfies it.
    #   E2 at (1,1,k):  [1,1][1,k] = chi(1)([1,k])[1,k]  =>  [1,k] = [1,k]^2
    #   E2 at (g,1,1):  [g,1][g,1] = chi(g)([1,1])[g,1]  =>  [g,1] = 1
    for ring in (DivisionRing.gf(3), DivisionRing.gf(2, 2)):
        for fs in enumerate_factor_systems(cyclic_group(3), ring):
            for g in range(3):
                assert fs.bracket[0][g].is_one()
                assert fs.bracket[g][0].is_one()


def test_noncommutative_factor_system(quaternions):
    # chi(a) = conjugation by 1+i squares to conjugation by 2i = inner(i),
    # matching bracket(a,a) = i, so E1 holds noncommutatively.
    c2 = cyclic_group(2)
    one_plus_i = quaternions.scalar((1, 1, 0, 0))
    i = quaternions.scalar((0, 1, 0, 0))
    fs = FactorSystem(
        c2, quaternions, {1: RingAutomorphism.inner(one_plus_i)}, {(1, 1): i}
    )
    assert validate_factor_system(fs).ok
    flags = classify_extension(fs)
    assert not flags.central  # i is not central in the quaternions
    assert not flags.projective and not flags.split
    # breaking the bracket away from the chi square must now fail E1
    j = quaternions.scalar((0, 0, 1, 0))
    bad = FactorSystem(
        c2, quaternions, {1: RingAutomorphism.inner(one_plus_i)}, {(1, 1): j}
    )
    report = validate_factor_system(bad)
    assert not report.ok and report.law == "E1"


# ---------------------------------------------------------------------------
# building extensions


def test_trivial_extension_is_direct_product(gf3):
    fs = trivial_factor_system(cyclic_group(2), gf3)
    ext = build_extension(fs)
    group, _ = ext.materialize()
    assert group.order == 4
    assert identify_group(group) == "C2xC2"


def test_twisted_extension_is_c4(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    ext = build_extension(fs)
    # order oracle, straight from the multiplication law
    x = (gf3.one(), 1)
    seen = x
    order = 1
    while seen != ext.identity():
        seen = ext.multiply(seen, x)
        order += 1
        assert order <= 8
    assert order == 4
    assert identify_group(ext.group) == "C4"


def test_frobenius_extension_is_s3(gf4):
    frob = RingAutomorphism.frobenius(gf4, 1)
    fs = FactorSystem(cyclic_group(2), gf4, {1: frob}, {})
    ext = build_extension(fs)
    assert are_isomorphic(ext.group, dihedral_group(3))
    assert identify_group(ext.group) == "S3"


def test_lazy_extension_over_rationals(rationals):
    fs = trivial_factor_system(cyclic_group(3), rationals)
    ext = build_extension(fs)
    assert not ext.is_finite
    two, three = rationals.scalar(2), rationals.scalar(3)
    assert ext.multiply((two, 1), (three, 1)) == (rationals.scalar(6), 2)
    with pytest.raises(InfiniteCarrier):
        ext.materialize()
    # inverses work lazily too
    x = (rationals.scalar(Fraction(5, 7)), 2)
    assert ext.multiply(x, ext.inverse(x)) == ext.identity()
    assert ext.multiply(ext.inverse(x), x) == ext.identity()


def test_materialize_too_large():
    # 1009 is prime: 1008 units x |C2| = 2016 pairs, past the cap
    c2 = cyclic_group(2)
    fs_big = trivial_factor_system(c2, DivisionRing.gf(1009))
    from glattice.extension import SchreierExtension

    with pytest.raises(TooLarge):
        SchreierExtension(fs_big).materialize()


def test_factor_system_check_order_cap(gf3):
    # |G|^3 E2 triples: 110,592 at the cap, checked in about 0.3 s over GF(3)
    assert validate_factor_system(trivial_factor_system(cyclic_group(48), gf3)).ok
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        validate_factor_system(trivial_factor_system(cyclic_group(49), gf3))
    assert time.perf_counter() - start < 1.0


def _non_symmetric_v4_system(ring):
    """V4 = D2 as pairs (f, i) with [x, y] = (-1)^(f_x i_y): a bilinear
    form, so a normalized cocycle, and not symmetric."""
    minus_one = -ring.one()
    bracket = {(x, y): minus_one for x in range(4) for y in range(4) if x // 2 and y % 2}
    return FactorSystem(dihedral_group(2), ring, {}, bracket)


@pytest.mark.parametrize(
    "system,name",
    [
        (lambda: trivial_factor_system(parse_group_spec("sym:4"), DivisionRing.gf(3)), "order48-nonabelian-maxord6"),
        (lambda: _non_symmetric_v4_system(DivisionRing.gf(13)), "order48-nonabelian-maxord12"),
        (
            lambda: FactorSystem(
                cyclic_group(2),
                DivisionRing.gf(7, 2),
                {1: RingAutomorphism.frobenius(DivisionRing.gf(7, 2), 1)},
                {},
            ),
            "order96-nonabelian-maxord48",
        ),
        (lambda: trivial_factor_system(cyclic_group(48), DivisionRing.gf(41)), "C240xC8"),
    ],
    ids=["s4-gf3", "v4-gf13-non-symmetric", "c2-gf49-frobenius", "c48-gf41"],
)
def test_naming_refusal_agrees_with_identify_group(system, name):
    # extensions above order 40: the non-abelian ones are named by their
    # descriptor, with no refusal before materialize and no search after
    fs = system()
    assert validate_factor_system(fs).ok
    assert identify_group(build_extension(fs).group) == name


def wrapping_system(n, ring, w):
    """C_n's system with [a, b] = w where a + b wraps past n; it is
    equivalent to the trivial one exactly when w is an n-th power."""
    brackets = {(a, b): w for a in range(1, n) for b in range(1, n) if a + b >= n}
    return FactorSystem(cyclic_group(n), ring, {}, brackets)


def test_equivalence_search_cap(gf3):
    # (q - 1)^(|G| - 1) candidates mu over GF(3): the 2^13 of C14 are all
    # scanned, since -1 is no 14th power; C15 has 2^14, the cap, and -1 is
    # a 15th power; C16 (2^15) and C48 (2^47) are refused before the first
    trivial, wrapped = trivial_factor_system(cyclic_group(14), gf3), wrapping_system(14, gf3, 2)
    assert validate_factor_system(wrapped).ok
    start = time.perf_counter()
    assert find_equivalence(trivial, wrapped) is None
    assert find_equivalence(trivial_factor_system(cyclic_group(15), gf3), wrapping_system(15, gf3, 2))
    for n in (16, 48):
        refusal = rf"^equivalence search capped at 16384 candidates mu, got 2\^{n - 1}"
        with pytest.raises(TooLarge, match=refusal):
            find_equivalence(trivial_factor_system(cyclic_group(n), gf3), wrapping_system(n, gf3, 2))
    # the Scalar route, over a prime field without log tables: 65536 units
    gf65537 = DivisionRing.gf(65537)
    with pytest.raises(TooLarge, match=r"got 65536\^1"):
        find_equivalence(
            trivial_factor_system(cyclic_group(2), gf65537),
            FactorSystem(cyclic_group(2), gf65537, {}, {(1, 1): 3}),
        )
    assert time.perf_counter() - start < 1.0


def test_equivalence_search_refusals_come_in_a_fixed_order(gf3, gf4, rationals, quaternions):
    c2, c16 = cyclic_group(2), cyclic_group(16)
    with pytest.raises(CarrierMismatch, match="^factor systems for different"):
        find_equivalence(trivial_factor_system(c2, gf3), trivial_factor_system(c2, gf4))
    # an infinite carrier is refused before chi' = chi is compared
    inner = RingAutomorphism.inner(quaternions.scalar((0, 1, 0, 0)))
    turned = FactorSystem(c2, quaternions, {1: inner}, {})
    for src, dst in [
        (trivial_factor_system(c2, rationals), trivial_factor_system(c2, rationals)),
        (trivial_factor_system(c2, quaternions), turned),
    ]:
        with pytest.raises(InfiniteCarrier, match="^cannot search equivalences over an infinite"):
            find_equivalence(src, dst)
    # E4 fails for every mu when chi' != chi on a field: None, before the
    # cap that 3^15 candidates would meet
    frob = RingAutomorphism.frobenius(gf4, 1)
    twisted = FactorSystem(c16, gf4, [frob if g % 2 else None for g in range(16)], {})
    assert find_equivalence(trivial_factor_system(c16, gf4), twisted) is None
    with pytest.raises(TooLarge, match=r"got 3\^15$"):
        find_equivalence(twisted, twisted)


def gf5003_pairs():
    """Pairs over GF(5003), a prime field without log tables, so the scan
    runs on Scalars: C1, and C2 with [a, a] a square (4) and a non-square
    (5, since 5003 = 3 mod 5)."""
    ring = DivisionRing.gf(5003)
    c1, c2 = cyclic_group(1), cyclic_group(2)
    trivial = trivial_factor_system(c2, ring)
    return {
        "c1-trivial": (trivial_factor_system(c1, ring), trivial_factor_system(c1, ring)),
        "c2-square": (trivial, FactorSystem(c2, ring, {}, {(1, 1): 4})),
        "c2-non-square": (trivial, FactorSystem(c2, ring, {}, {(1, 1): 5})),
    }


@pytest.mark.parametrize("case", ["c1-trivial", "c2-square", "c2-non-square"])
def test_scalar_scan_finds_the_first_candidate_check_equivalence_accepts(case):
    src, dst = gf5003_pairs()[case]
    assert extension.cochain(src) is None
    want = next((mu for mu in oracles.mu_candidates(src) if check_equivalence(src, dst, mu)), None)
    assert find_equivalence(src, dst) == want
    assert (want is None) == (case == "c2-non-square")


def test_scalar_scan_decides_e4_once(monkeypatch):
    # chi' = chi is compared once, with no conjugation per candidate mu
    src, dst = gf5003_pairs()["c2-non-square"]
    calls = []
    original = extension._conjugation

    def counted(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(extension, "_conjugation", counted)
    assert find_equivalence(src, dst) is None
    assert len(calls) <= src.group.order


# ---------------------------------------------------------------------------
# classification flags


def test_flags_trivial_system(gf3):
    flags = classify_extension(trivial_factor_system(cyclic_group(2), gf3))
    assert flags.central and flags.projective and flags.split and flags.direct


def test_flags_projective_not_split(gf3):
    flags = classify_extension(FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2}))
    assert flags.central and flags.projective
    assert not flags.split and not flags.direct


def test_flags_split_not_projective(gf4):
    frob = RingAutomorphism.frobenius(gf4, 1)
    flags = classify_extension(FactorSystem(cyclic_group(2), gf4, {1: frob}, {}))
    assert flags.central and flags.split
    assert not flags.projective and not flags.direct


# ---------------------------------------------------------------------------
# factor systems from representations


def test_shift_rep_yields_trivial_system(shift_rep_q, rationals):
    fs = factor_system_from_rep(shift_rep_q)
    assert fs == trivial_factor_system(cyclic_group(3), rationals)


def test_projective_rep_yields_twisted_bracket(gf3):
    fs0 = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    rho = regular_representation(TwistedGroupRing(fs0))
    fs = factor_system_from_rep(rho)
    assert fs == fs0
    assert fs.bracket[1][1] == gf3.scalar(2)


def test_frobenius_rep_yields_twisted_chi(gf4):
    fs = factor_system_from_rep(frobenius_rep_gf4())
    assert fs.chi[1] == RingAutomorphism.frobenius(gf4, 1)
    assert all(x.is_one() for row in fs.bracket for x in row)


# ---------------------------------------------------------------------------
# equivalence


def test_self_equivalence(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    assert check_equivalence(fs, fs, {0: 1, 1: 1})


def test_c2_gf3_systems_not_equivalent(gf3):
    c2 = cyclic_group(2)
    fs1 = trivial_factor_system(c2, gf3)
    fs2 = FactorSystem(c2, gf3, {}, {(1, 1): 2})
    # oracle: mu(a)^2 = 1 for both unit candidates, so the coboundary
    # cannot bridge bracket 1 and bracket 2
    for mu_a in (1, 2):
        assert (gf3.scalar(mu_a) * gf3.scalar(mu_a)).is_one()
    assert find_equivalence(fs1, fs2) is None
    assert find_equivalence(fs2, fs1) is None


def test_gf4_c3_coboundary_equivalence(gf4):
    c3 = cyclic_group(3)
    fs1 = trivial_factor_system(c3, gf4)
    omega = gf4.scalar(2)
    nu = {0: gf4.one(), 1: omega, 2: omega}
    fs2 = transform_factor_system(fs1, nu)
    assert validate_factor_system(fs2).ok
    assert not all(x.is_one() for row in fs2.bracket for x in row)
    # the coboundary shape: bracket'(g,h) = nu(g)^-1 nu(h)^-1 nu(gh)... times 1
    for g in range(3):
        for h in range(3):
            gh = c3.cayley[g][h]
            expected = nu[g].inverse() * nu[h].inverse() * nu[gh]
            assert fs2.bracket[g][h] == expected
    mu = find_equivalence(fs1, fs2)
    assert mu is not None
    assert check_equivalence(fs1, fs2, mu)


def test_extension_iso_identity(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    iso = ExtensionIsomorphism(fs, fs, {0: 1, 1: 1})
    for pair in iso.src.pairs():
        assert iso(pair) == pair


def test_extension_iso_explicit(gf4):
    c3 = cyclic_group(3)
    fs1 = trivial_factor_system(c3, gf4)
    omega = gf4.scalar(2)
    fs2 = transform_factor_system(fs1, {0: gf4.one(), 1: omega, 2: omega})
    mu = find_equivalence(fs1, fs2)
    iso = ExtensionIsomorphism(fs1, fs2, mu)  # |H| = 9: exhaustive
    # the K*-layer maps onto the K*-layer (mu(e) = 1)
    for a in gf4.units():
        assert iso((a, 0)) == (a, 0)


def test_iso_requires_equivalence(gf3):
    c2 = cyclic_group(2)
    fs1 = trivial_factor_system(c2, gf3)
    fs2 = FactorSystem(c2, gf3, {}, {(1, 1): 2})
    with pytest.raises(NotEquivalent):
        ExtensionIsomorphism(fs1, fs2, {0: 1, 1: 1})


def test_equivalent_systems_isomorphic_extensions_and_converse(gf3):
    # desk-scale instance of "equivalent iff isomorphic": the two
    # (C2, GF(3)) classes give C2xC2 and C4, which are not isomorphic
    c2 = cyclic_group(2)
    fs1 = trivial_factor_system(c2, gf3)
    fs2 = FactorSystem(c2, gf3, {}, {(1, 1): 2})
    assert find_equivalence(fs1, fs2) is None
    assert not are_isomorphic(build_extension(fs1).group, build_extension(fs2).group)


# ---------------------------------------------------------------------------
# enumeration / classification counts
#
# Expected counts come from the cyclic-group cohomology formulas, an
# oracle independent of the search: for trivial chi over GF(q) and
# G = C_n, the valid systems number |B^2| * |H^2| with
# |B^2| = (q-1)^(n-1) / |Hom(C_n, K*)| and |H^2| = gcd(n, q-1).


def cohomology_counts_oracle(n, q):
    import math

    units = q - 1
    hom = math.gcd(n, units)  # |Hom(C_n, K*)| for cyclic K*
    b2 = units ** (n - 1) // hom
    h2 = math.gcd(n, units)
    return b2 * h2, h2


@pytest.mark.parametrize(
    "n,ring_args,systems,classes",
    [
        (2, (3,), 2, 2),
        (2, (2,), 1, 1),
        (3, (2, 2), 9, 3),
        (4, (3,), 8, 2),
        (2, (5,), 4, 2),
        (3, (3,), 4, 1),
    ],
)
def test_enumeration_counts(n, ring_args, systems, classes):
    ring = DivisionRing.gf(*ring_args)
    expected_systems, expected_classes = cohomology_counts_oracle(n, ring.order)
    assert (expected_systems, expected_classes) == (systems, classes)
    group = cyclic_group(n)
    found = enumerate_factor_systems(group, ring)
    assert len(found) == systems
    assert all(validate_factor_system(fs).ok for fs in found)
    split = classify_up_to_equivalence(group, ring)
    assert len(split) == classes
    assert sum(len(cls) for cls in split) == systems


def test_enumeration_with_frobenius_chi(gf4):
    c2 = cyclic_group(2)
    frob = RingAutomorphism.frobenius(gf4, 1)
    chi = {0: RingAutomorphism.identity(gf4), 1: frob}
    found = enumerate_factor_systems(c2, gf4, chi)
    # E2 at (a,a,a) forces bracket(a,a) = bracket(a,a)^2, so only 1 works
    assert len(found) == 1
    assert all(x.is_one() for row in found[0].bracket for x in row)
    assert len(classify_up_to_equivalence(c2, gf4, chi)) == 1


@pytest.mark.parametrize(
    "group_spec,ring_spec,frobenius",
    [
        ("cyclic:2", "gf:2", False),
        ("cyclic:2", "gf:3", False),
        ("cyclic:2", "gf:4", False),
        ("cyclic:2", "gf:5", False),
        ("cyclic:3", "gf:2", False),
        ("cyclic:3", "gf:3", False),
        ("cyclic:3", "gf:4", False),
        ("cyclic:3", "gf:5", False),
        ("cyclic:4", "gf:2", False),
        ("cyclic:4", "gf:3", False),
        ("dihedral:2", "gf:3", False),
        ("cyclic:2", "gf:4", True),
    ],
)
def test_enumeration_matches_brute_force(group_spec, ring_spec, frobenius):
    # the search checks each E2 triple once, at the node that fills its last free pair
    group, ring = parse_group_spec(group_spec), parse_ring_spec(ring_spec)
    chi = {1: RingAutomorphism.frobenius(ring, 1)} if frobenius else {}
    found = enumerate_factor_systems(group, ring, chi)
    assert found == oracles.enumerate_factor_systems(group, ring, chi)
    assert found


def test_enumeration_refuses_chi_that_is_not_a_homomorphism(gf4):
    # chi(a) = Frobenius on C3: chi(a)chi(a^2) = Frobenius != chi(1)
    chi = {1: RingAutomorphism.frobenius(gf4, 1)}
    with pytest.raises(GlatticeError, match="^chi is not a homomorphism; E1 cannot hold$"):
        enumerate_factor_systems(cyclic_group(3), gf4, chi)


def test_classes_closed_under_equivalence(gf3, gf4):
    for group, ring in ((cyclic_group(2), gf3), (cyclic_group(3), gf4)):
        classes = classify_up_to_equivalence(group, ring)
        for cls in classes:
            for fs1 in cls:
                for fs2 in cls:
                    assert find_equivalence(fs1, fs2) is not None
        for cls1, cls2 in itertools.combinations(classes, 2):
            assert find_equivalence(cls1[0], cls2[0]) is None


def test_classes_must_cover_every_system_once(monkeypatch, gf3):
    from glattice import extension

    c2 = cyclic_group(2)
    systems = enumerate_factor_systems(c2, gf3)
    # a system enumerated twice is counted twice but classified once
    monkeypatch.setattr(extension, "enumerate_factor_systems", lambda *a: systems + systems[:1])
    with pytest.raises(GlatticeError, match="cover"):
        classify_up_to_equivalence(c2, gf3)
    monkeypatch.undo()
    # a mu-action that sends everything to one system makes two orbits meet
    first = extension.cochain(systems[0]).beta
    monkeypatch.setattr(extension, "_coboundary_orbit", lambda view, cayley: [first])
    with pytest.raises(GlatticeError, match="share"):
        classify_up_to_equivalence(c2, gf3)


def test_enumeration_guards(rationals, gf5):
    with pytest.raises(InfiniteCarrier):
        enumerate_factor_systems(cyclic_group(2), rationals)
    with pytest.raises(TooLarge):
        enumerate_factor_systems(cyclic_group(4), gf5)


def test_c2_gf5_extension_groups(gf5):
    classes = classify_up_to_equivalence(cyclic_group(2), gf5)
    names = sorted(identify_group(build_extension(cls[0]).group) for cls in classes)
    assert names == ["C4xC2", "C8"]


def test_klein_group_enumeration(gf3):
    v4 = dihedral_group(2)
    found = enumerate_factor_systems(v4, gf3)
    assert all(validate_factor_system(fs).ok for fs in found)
    ext_orders = {build_extension(fs).group.order for fs in found}
    assert ext_orders == {8}


# ---------------------------------------------------------------------------
# equivalence transport of representations


def test_transport_identity(gf3):
    fs = FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2})
    rho = regular_representation(TwistedGroupRing(fs))
    moved = transport_rep(rho, fs, fs, {0: 1, 1: 1})
    assert moved == rho


def test_transport_and_roundtrip(gf4):
    c3 = cyclic_group(3)
    fs = trivial_factor_system(c3, gf4)
    omega = gf4.scalar(2)
    fs_target = transform_factor_system(fs, {0: gf4.one(), 1: omega, 2: omega})
    rho = regular_representation(TwistedGroupRing(fs))
    mu = find_equivalence(fs_target, fs)
    assert mu is not None
    moved = transport_rep(rho, fs, fs_target, mu)
    assert factor_system_from_rep(moved) == fs_target
    # the transported representation must be equivalent to the original
    witness = rep_equivalence(rho, moved)
    assert witness is not None
    # pointwise inverse restores the original exactly
    mu_inv = [m.inverse() for m in mu]
    assert check_equivalence(fs, fs_target, mu_inv)
    back = transport_rep(moved, fs_target, fs, mu_inv)
    assert back == rho


def test_transport_runs_no_law_between_validated_systems(monkeypatch, gf4):
    fs = trivial_factor_system(cyclic_group(3), gf4)
    omega = gf4.scalar(2)
    fs_target = transform_factor_system(fs, {0: gf4.one(), 1: omega, 2: omega})
    assert validate_factor_system(fs_target).ok
    rho = regular_representation(TwistedGroupRing(fs))
    mu = find_equivalence(fs_target, fs)
    calls = []
    original = extension._first_violation

    def counted(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(extension, "_first_violation", counted)
    moved = transport_rep(rho, fs, fs_target, mu)
    back = transport_rep(moved, fs_target, fs, [m.inverse() for m in mu])
    assert calls == []
    assert factor_system_from_rep(moved) is fs_target
    assert back == rho


def test_transport_refuses_a_wrong_witness_that_passes_the_equivalence_check(monkeypatch, gf3):
    # [a, a] = 1 and [a, a] = 2 are not equivalent on C2 over GF(3)
    c2 = cyclic_group(2)
    fs, fs_target = trivial_factor_system(c2, gf3), FactorSystem(c2, gf3, {}, {(1, 1): 2})
    rho = regular_representation(TwistedGroupRing(fs))
    monkeypatch.setattr(extension, "check_equivalence", lambda *args: True)
    with pytest.raises(
        GlatticeError, match="^transported representation has the wrong factor system$"
    ):
        transport_rep(rho, fs, fs_target, {0: 1, 1: 1})


def test_transport_refuses_a_system_on_another_group_of_the_same_order(gf3):
    # the same all-ones bracket and identity twists, on C4 and on V4
    reg = regular_representation(TwistedGroupRing(trivial_factor_system(cyclic_group(4), gf3)))
    rho = SemilinearProjectiveRep(reg.group, reg.space, reg.maps)  # keeps no system yet
    klein = trivial_factor_system(dihedral_group(2), gf3)
    with pytest.raises(NotAssociated):
        transport_rep(rho, klein, klein, {})


def test_transport_refuses_a_group_past_the_factor_system_cap(gf3):
    # the trivial representation of C49 on GF(3)^1 matches the trivial system
    c49 = cyclic_group(49)
    space = VectorSpace(gf3, 1)
    rho = SemilinearProjectiveRep(c49, space, {g: identity_map(space) for g in range(49)})
    fs = trivial_factor_system(c49, gf3)
    with pytest.raises(TooLarge, match="^factor-system check capped at"):
        transport_rep(rho, fs, fs, {})


def test_transport_not_associated(gf3):
    c2 = cyclic_group(2)
    fs1 = trivial_factor_system(c2, gf3)
    fs2 = FactorSystem(c2, gf3, {}, {(1, 1): 2})
    rho = regular_representation(TwistedGroupRing(fs1))
    with pytest.raises(NotAssociated):
        transport_rep(rho, fs2, fs1, {0: 1, 1: 1})
