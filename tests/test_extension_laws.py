"""E1, E4 and the transformed twist on canonical automorphisms, against
the pointwise probe references in ``oracles``.

Three families: every enumerated system of the benchmark's classify
pairs; Frobenius twists over GF(4), GF(8) and GF(9), E1-breaking ones
included; and seeded quaternion and rational coboundaries over C2, C3,
C4, V4 and S3, each also tampered in one chi, in one bracket entry or
at [1, 1].
"""

import itertools
import json
import random

import pytest

from glattice import extension
from glattice.errors import GlatticeError, NotEquivalent
from glattice.extension import (
    ExtensionIsomorphism,
    FactorSystem,
    check_equivalence,
    enumerate_factor_systems,
    transform_factor_system,
    trivial_factor_system,
    validate_factor_system,
)
from glattice.groups import cyclic_group, dihedral_group, symmetric_group
from glattice.jsonio import parse_group_spec, parse_ring_spec
from glattice.scalar import DivisionRing, RingAutomorphism

import oracles
from oracles import coboundary
from test_cli import run_cli

CLASSIFY_PAIRS = [
    ("cyclic:2", "gf:2"), ("cyclic:2", "gf:3"), ("cyclic:2", "gf:4"), ("cyclic:2", "gf:5"),
    ("cyclic:3", "gf:2"), ("cyclic:3", "gf:3"), ("cyclic:3", "gf:4"), ("cyclic:3", "gf:5"),
    ("cyclic:4", "gf:2"), ("cyclic:4", "gf:3"), ("dihedral:2", "gf:3"),
]
SMALL_GROUPS = [
    cyclic_group(2), cyclic_group(3), cyclic_group(4), dihedral_group(2), symmetric_group(3)
]


def fresh(fs, chi=None, bracket=None):
    """A copy of fs with no cached report, optionally with other data."""
    return FactorSystem(
        fs.group, fs.ring, list(chi or fs.chi), [list(row) for row in (bracket or fs.bracket)]
    )


def report_fields(report):
    return (report.ok, report.law, report.witness, report.message)


def assert_validation_matches_probes(fs):
    got = validate_factor_system(fresh(fs))
    assert report_fields(got) == report_fields(oracles.first_violation_by_probes(fs))
    return got


def random_unit(rng, ring):
    if ring.is_finite():
        return rng.choice(ring.units())
    if ring.is_commutative():
        return ring.scalar(rng.choice([-3, -2, -1, 2, 3, 5]))
    while True:
        coords = tuple(rng.randint(-2, 2) for _ in range(4))
        if any(coords):
            return ring.scalar(coords)


def random_mu(rng, fs):
    return [fs.ring.one()] + [random_unit(rng, fs.ring) for _ in range(fs.group.order - 1)]


def tampered(rng, fs):
    """Over QQ or the quaternions: fs with one chi replaced (a no-op over
    QQ, which has no other automorphism), with one bracket entry scaled,
    and with [1, 1] doubled."""
    ring, order = fs.ring, fs.group.order
    g, h = rng.randrange(order), rng.randrange(order)
    chi = list(fs.chi)
    chi[g] = _other_automorphism(rng, ring, chi[g])
    bracket = [list(row) for row in fs.bracket]
    # a central factor keeps E1 over the quaternions and can only break E2
    bracket[g][h] = bracket[g][h] * rng.choice([ring.scalar(2), random_unit(rng, ring)])
    corner = [list(row) for row in fs.bracket]
    corner[0][0] = corner[0][0] * ring.scalar(2)
    return [fresh(fs, chi=chi), fresh(fs, bracket=bracket), fresh(fs, bracket=corner)]


def _other_automorphism(rng, ring, phi):
    if not ring.is_commutative():
        return RingAutomorphism.inner(random_unit(rng, ring))
    if ring.is_finite() and ring.order != ring.p:
        return RingAutomorphism.frobenius(ring, (phi.power or 0) + 1)
    return phi


# ---------------------------------------------------------------------------
# the three families


def classify_family():
    for group_spec, ring_spec in CLASSIFY_PAIRS:
        group, ring = parse_group_spec(group_spec), parse_ring_spec(ring_spec)
        yield from enumerate_factor_systems(group, ring)


def frobenius_family():
    """chi(a^m) = frob^(j m) on cyclic groups, a homomorphism exactly when
    n j = 0 mod k, with trivial, coboundary and seeded random brackets;
    and seeded random chi, which break E1."""
    rng = random.Random(18)
    for ring_spec in ("gf:4", "gf:8", "gf:9"):
        ring = parse_ring_spec(ring_spec)
        for n in (2, 3, 4):
            group = cyclic_group(n)
            twists = [
                [RingAutomorphism.frobenius(ring, j * m) for m in range(n)] for j in range(1, ring.k)
            ]
            twists.append([RingAutomorphism.frobenius(ring, rng.randrange(ring.k)) for _ in range(n)])
            for chi in twists:
                fs = FactorSystem(group, ring, chi, {})
                yield fs
                yield coboundary(fs, random_mu(rng, fs))
                bracket = {(g, h): rng.choice(ring.units()) for g in range(1, n) for h in range(1, n)}
                yield FactorSystem(group, ring, chi, bracket)


def seeded_family(ring, seeds=4):
    """(source, destination, mu) triples: coboundaries of the trivial
    system (inner chi over the quaternions) by seeded mu, and over the
    quaternions also of the C2 system chi(a) = c(1 + i), [a, a] = i."""
    rng = random.Random(ring.kind)
    sources = [trivial_factor_system(group, ring) for group in SMALL_GROUPS]
    if not ring.is_commutative():
        chi = {1: RingAutomorphism.inner(ring.scalar((1, 1, 0, 0)))}
        sources.append(FactorSystem(cyclic_group(2), ring, chi, {(1, 1): ring.scalar((0, 1, 0, 0))}))
    for src in sources:
        for _ in range(seeds):
            mu = random_mu(rng, src)
            yield src, coboundary(src, mu), mu


QUATERNIONS = DivisionRing.quaternions()
RATIONALS = DivisionRing.rationals()


# ---------------------------------------------------------------------------
# validate_factor_system


def test_enumerated_systems_validate_like_the_probe_reference():
    systems = list(classify_family())
    assert len(systems) == 65
    for fs in systems:
        assert assert_validation_matches_probes(fs).ok


def test_frobenius_twists_validate_like_the_probe_reference():
    laws = [assert_validation_matches_probes(fs).law for fs in frobenius_family()]
    # the family reaches every verdict: pass, an E1 break, an E2 break
    assert {None, "E1", "E2"} <= set(laws)


@pytest.mark.parametrize("ring", [QUATERNIONS, RATIONALS], ids=["quat", "qq"])
def test_seeded_coboundaries_validate_like_the_probe_reference(ring):
    rng = random.Random(7)
    laws = []
    for _, dst, _ in seeded_family(ring):
        laws.append(assert_validation_matches_probes(dst).law)
        laws += [assert_validation_matches_probes(bad).law for bad in tampered(rng, dst)]
    assert laws.count(None) >= len(SMALL_GROUPS) * 4
    assert "E3" in laws and "E2" in laws
    if ring is QUATERNIONS:
        e1 = [law for law in laws if law == "E1"]
        assert len(e1) >= 20


def test_quaternion_e1_witness_is_the_first_of_i_j_k_sent_apart():
    q = QUATERNIONS
    i, j, k = (q.scalar(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    c2 = cyclic_group(2)
    one_plus_i = RingAutomorphism.inner(q.scalar((1, 1, 0, 0)))
    # c(1 + i)c(1 + i) = c(2i) against c(j): they already part on i
    report = validate_factor_system(FactorSystem(c2, q, {1: one_plus_i}, {(1, 1): j}))
    assert (report.law, report.witness) == ("E1", (1, 1, i))
    # c(i)c(i) = c(-1) is the identity against c(i), which fixes i and moves j
    chi = {1: RingAutomorphism.inner(i)}
    report = validate_factor_system(FactorSystem(c2, q, chi, {(1, 1): i}))
    assert (report.law, report.witness) == ("E1", (1, 1, j))


# ---------------------------------------------------------------------------
# check_equivalence and transform_factor_system


def equivalence_cases(src, rng):
    """(src, dst, mu): a true pair, a wrong mu and a perturbed chi'."""
    mu = random_mu(rng, src)
    dst = transform_factor_system(src, mu)
    yield src, dst, mu
    g = rng.randrange(1, src.group.order)
    wrong = list(mu)
    wrong[g] = wrong[g] * random_unit(rng, src.ring)
    yield src, dst, wrong
    chi = list(dst.chi)
    chi[g] = _other_automorphism(rng, src.ring, chi[g])
    yield src, fresh(dst, chi=chi), mu


def assert_equivalence_matches_probes(src, dst, mu):
    got = check_equivalence(src, dst, mu)
    assert got == oracles.equivalent_by_probes(src, dst, mu)
    return got


def test_transform_outputs_validate_and_check_like_the_probe_reference():
    rng = random.Random(11)
    verdicts = []
    for src in itertools.chain(classify_family(), frobenius_family()):
        if not validate_factor_system(src).ok:
            continue
        for fs, dst, mu in equivalence_cases(src, rng):
            verdicts.append(assert_equivalence_matches_probes(fs, dst, mu))
        # the theorem: every image of a valid system is valid
        for mu in itertools.islice(oracles.mu_candidates(src), 8):
            assert validate_factor_system(transform_factor_system(src, mu)).ok
    assert True in verdicts and False in verdicts


def test_extension_isomorphism_matches_the_all_pairs_oracle():
    # E4-E6 make the pair map an isomorphism, so ExtensionIsomorphism
    # replays nothing; the oracle replays it on every pair of pairs
    rng = random.Random(19)
    accepted = []
    for src in itertools.chain(classify_family(), frobenius_family()):
        if not validate_factor_system(src).ok:
            continue
        for fs, dst, mu in equivalence_cases(src, rng):
            try:
                ExtensionIsomorphism(fs, dst, mu)
            except NotEquivalent:
                accepted.append(False)
            else:
                accepted.append(True)
            assert accepted[-1] == oracles.isomorphic_on_all_pairs(fs, dst, mu)
    assert True in accepted and False in accepted


@pytest.mark.parametrize("ring", [QUATERNIONS, RATIONALS], ids=["quat", "qq"])
def test_seeded_equivalences_match_the_probe_and_sampled_references(ring):
    rng = random.Random(13)
    accepted = []
    for src, dst, mu in seeded_family(ring, seeds=2):
        # transform_factor_system agrees with the written-out coboundary
        assert transform_factor_system(src, mu) == dst
        assert validate_factor_system(dst).ok
        for fs, target, nu in equivalence_cases(dst, rng):
            expected = oracles.isomorphic_by_samples(fs, target, nu)
            assert assert_equivalence_matches_probes(fs, target, nu) == expected
            try:
                ExtensionIsomorphism(fs, target, nu)
            except NotEquivalent:
                accepted.append(False)
            else:
                accepted.append(True)
            assert accepted[-1] == expected
    assert True in accepted and False in accepted


# ---------------------------------------------------------------------------
# each law checked once


@pytest.mark.parametrize(
    "group,ring,checks",
    [("cyclic:3", "gf:4", 10), ("dihedral:2", "gf:3", 17), ("cyclic:2", "gf:5", 5)],
)
def test_classify_checks_each_system_once(capsys, monkeypatch, group, ring, checks):
    # the chi probe and each enumerated system; transform_factor_system
    # reads the kept report of its input and validates no output
    calls = []
    original = extension._first_violation

    def counted(fs):
        calls.append(fs)
        return original(fs)

    monkeypatch.setattr(extension, "_first_violation", counted)
    code, out = run_cli(capsys, "classify-extensions", "--group", group, "--ring", ring)
    assert code == 0
    assert len(calls) == json.loads(out)["systems"] + 1 == checks


def test_transform_of_an_invalid_system_names_its_first_violation():
    gf5 = DivisionRing.gf(5)
    fs = FactorSystem(cyclic_group(3), gf5, {}, {(1, 1): 2})
    report = validate_factor_system(fs)
    assert (report.law, report.witness) == ("E2", (1, 1, 2))
    with pytest.raises(GlatticeError) as raised:
        transform_factor_system(fs, [gf5.one(), gf5.scalar(2), gf5.one()])
    assert str(raised.value) == f"invalid factor system: {report}"
