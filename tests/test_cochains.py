"""Factor systems over GF(q) as integer cochains, against the ``Scalar``
routes they replace.

The exp/log tables of prime and extension fields; E2 witnesses on the
acceptance family, the benchmark's systems and seeded systems at the
48-element cap; enumeration, classification and the first equivalence
witness on every (G, K) the enumeration cap accepts; and the Schreier
table against ``SchreierExtension.multiply``.
"""

import hashlib
import itertools
import json
import os
import random
import time

import pytest

from glattice import extension
from glattice.errors import GlatticeError, InfiniteCarrier, TooLarge
from glattice.extension import (
    FactorSystem,
    SchreierExtension,
    check_equivalence,
    classify_up_to_equivalence,
    cochain,
    enumerate_factor_systems,
    find_equivalence,
    transform_factor_system,
    trivial_factor_system,
    validate_factor_system,
)
from glattice.groups import cyclic_group, dihedral_group
from glattice.jsonio import parse_factor_system_file, parse_group_spec, parse_ring_spec
from glattice.scalar import DivisionRing, RingAutomorphism, _is_prime

import oracles
from test_acceptance import enumerated_system_family
from test_cli import run_cli
from oracles import coboundary
from test_extension_laws import CLASSIFY_PAIRS, fresh

C48_GF41_DIGEST = "afcf33291b2006c1c4fe09a7af422b784e16a378dae030c3a6c80448395dafc0"
BENCHMARK_INPUTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "glatbench", "data", "inputs.json"
)


def small_fields():
    """Every field with q <= 64, GF(9) under both moduli."""
    for q in range(2, 65):
        for p in range(2, q + 1):
            k = next((k for k in range(1, 7) if p**k == q), None)
            if _is_prime(p) and k:
                yield DivisionRing.gf(p, k)
                if (p, k) == (3, 2):
                    yield DivisionRing.gf(3, 2, modulus=(2, 1, 1))


# ---------------------------------------------------------------------------
# exp and log


def test_log_and_exp_round_trip_on_every_unit_of_every_small_field():
    fields = list(small_fields())
    assert len(fields) == 28  # 18 primes and 9 higher prime powers, GF(9) twice
    for ring in fields:
        n = ring.order - 1
        logs = [ring.log(a) for a in ring.units()]
        assert sorted(logs) == list(range(n)), ring
        assert all(ring.exp(ring.log(a)) == a for a in ring.units()), ring
        assert all(ring.exp(i + n) == ring.exp(i) for i in range(n)), ring


def test_exp_one_is_the_first_unit_of_order_q_minus_one():
    for ring in small_fields():
        assert ring.exp(1) == oracles.primitive_element_by_orders(ring), ring


def test_largest_prime_field_with_tables_builds_them():
    ring = DivisionRing.gf(4999)
    assert ring.has_log_tables()
    assert ring.exp(1) == ring.scalar(3)
    assert ring.exp(ring.log(ring.scalar(4998))) == ring.scalar(4998)
    assert len({ring.log(a) for a in ring.units()}) == 4998


def test_logs_refused_on_infinite_and_large_carriers():
    with pytest.raises(InfiniteCarrier):
        DivisionRing.rationals().log(DivisionRing.rationals().one())
    big = DivisionRing.gf(5003)
    assert not big.has_log_tables()
    with pytest.raises(TooLarge):
        big.exp(1)


def test_a_prime_field_past_the_tables_validates_on_scalars():
    # brackets in {1, 2}: E2 compares 2^i with 2^j, i, j <= 2, which
    # differ for i != j in GF(5) and in GF(2^31 - 1) alike
    big, small = DivisionRing.gf(2147483647), DivisionRing.gf(5)
    shapes = [
        (cyclic_group(2), {}),
        (cyclic_group(2), {(1, 1): 2}),
        (cyclic_group(3), {(1, 1): 2, (1, 2): 2, (2, 1): 2}),
        (cyclic_group(3), {(1, 1): 2}),
        (cyclic_group(3), {(2, 1): 2}),
        (cyclic_group(3), {(0, 0): 2}),
    ]
    reports = []
    for group, bracket in shapes:
        fs, reference = FactorSystem(group, big, {}, bracket), FactorSystem(group, small, {}, bracket)
        got = validate_factor_system(fs)
        assert str(got) == str(validate_factor_system(reference))
        assert cochain(fs) is None and cochain(reference) is not None
        if got.law != "E3":
            assert extension._e2_violation(fs) == oracles.e2_violation_by_scalars(fs)
        reports.append((got.law, got.witness))
    assert reports == [
        (None, ()), (None, ()), (None, ()), ("E2", (1, 1, 2)), ("E2", (1, 1, 1)), ("E3", (0, 0))
    ]
    assert big._log is None and big._exp is None


# ---------------------------------------------------------------------------
# E2


def benchmark_systems():
    with open(BENCHMARK_INPUTS, encoding="utf-8") as handle:
        literals = json.load(handle)["systems"]
    return [parse_factor_system_file(literals[key]) for key in sorted(literals)]


def classify_pair_systems():
    for group_spec, ring_spec in CLASSIFY_PAIRS:
        yield from enumerate_factor_systems(parse_group_spec(group_spec), parse_ring_spec(ring_spec))


def tampered_entries(rng, fs, count):
    """``count`` copies of fs, each with one seeded bracket entry moved to
    another unit."""
    units = fs.ring.units()
    if len(units) < 2:
        return
    order = fs.group.order
    for _ in range(count):
        g, h = rng.randrange(order), rng.randrange(order)
        bracket = [list(row) for row in fs.bracket]
        bracket[g][h] = rng.choice([u for u in units if u != bracket[g][h]])
        yield fresh(fs, bracket=bracket)


def assert_same_e2_witness(fs):
    fs = fresh(fs)
    assert cochain(fs) is not None
    assert extension._e2_violation(fs) == oracles.e2_violation_by_scalars(fs)


def test_e2_witnesses_match_scalars_on_the_acceptance_and_benchmark_families():
    rng = random.Random(20)
    systems = [*enumerated_system_family(), *benchmark_systems(), *classify_pair_systems()]
    assert len(systems) > 100
    witnesses = set()
    for fs in systems:
        assert_same_e2_witness(fs)
        for bad in tampered_entries(rng, fs, 2):
            assert_same_e2_witness(bad)
            witnesses.add(extension._e2_violation(bad))
    assert len(witnesses) > 10


def frobenius_by_residue(ring, order, modulo):
    """chi(a^m) = frob^(m mod ``modulo``); a homomorphism from C_order
    exactly when ``modulo`` divides ``order``."""
    return [RingAutomorphism.frobenius(ring, m % modulo) for m in range(order)]


CAP_CASES = [
    ("gf41-trivial", (41, 1), None),
    ("gf32-trivial", (2, 5), None),
    # C48 has no homomorphism onto Gal(GF(32)) = C5, so E1 fails here and
    # only E2 is compared
    ("gf32-frobenius", (2, 5), 5),
    ("gf64-frobenius", (2, 6), 6),
]


@pytest.mark.parametrize("field,modulo", [case[1:] for case in CAP_CASES], ids=[c[0] for c in CAP_CASES])
def test_e2_witnesses_match_scalars_at_the_cap(field, modulo):
    ring = DivisionRing.gf(*field)
    c48 = cyclic_group(48)
    chi = frobenius_by_residue(ring, 48, modulo) if modulo else {}
    rng = random.Random(48 + field[0] * 10 + field[1])
    plain = FactorSystem(c48, ring, chi, {})
    mu = [ring.one()] + [rng.choice(ring.units()) for _ in range(47)]
    moved = coboundary(plain, mu)
    cases = [plain, moved, *tampered_entries(rng, moved, 2)]
    results = []
    for fs in cases:
        assert_same_e2_witness(fs)
        results.append(extension._e2_violation(fresh(fs)))
    assert results[0] is None
    if modulo != 5:
        assert results[1] is None and None not in results[2:]


# ---------------------------------------------------------------------------
# enumeration, classification and equivalence


def enumeration_cases():
    """Every (G, K, chi) the enumeration cap accepts: |G| <= 3 with
    |K*| <= 4, or |G| = 4 with |K*| <= 2, and each Frobenius chi that
    is a homomorphism."""
    gf4 = DivisionRing.gf(2, 2)
    fields = [DivisionRing.gf(2), DivisionRing.gf(3), gf4, DivisionRing.gf(5)]
    groups = [cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4), dihedral_group(2)]
    for group, ring in itertools.product(groups, fields):
        if group.order == 4 and ring.order > 3:
            continue
        yield group, ring, None
    yield cyclic_group(2), gf4, frobenius_by_residue(gf4, 2, 2)


@pytest.mark.parametrize(
    "group,ring,chi",
    list(enumeration_cases()),
    ids=lambda value: repr(value) if not isinstance(value, list) else "frob",
)
def test_enumeration_classes_and_witnesses_match_scalars(group, ring, chi):
    systems = enumerate_factor_systems(group, ring, chi)
    assert systems == oracles.enumerate_factor_systems(group, ring, chi or {})
    classes = classify_up_to_equivalence(group, ring, chi)
    assert classes == oracles.classes_by_orbits(systems)
    for src, dst in itertools.product(systems, repeat=2):
        mu = find_equivalence(src, dst)
        assert mu == oracles.find_equivalence_by_probes(src, dst)
        assert (mu is not None) == any(src in cls and dst in cls for cls in classes)


@pytest.mark.parametrize(
    "group,ring,chi",
    list(enumeration_cases()),
    ids=lambda value: repr(value) if not isinstance(value, list) else "frob",
)
def test_cochain_orbits_match_orbits_through_transform_factor_system(group, ring, chi):
    # classify moves cochains; the reference moves whole FactorSystems
    systems = enumerate_factor_systems(group, ring, chi)
    classes = classify_up_to_equivalence(group, ring, chi)
    expected = oracles.classes_by_orbits(systems, transform_factor_system)
    assert [len(cls) for cls in classes] == [len(cls) for cls in expected]
    assert classes == expected


def test_classify_refuses_an_orbit_that_leaves_the_family(monkeypatch, gf3):
    original = extension._coboundary_orbit

    def foreign(view, cayley):
        yield from original(view, cayley)
        beta = [list(row) for row in view.beta]
        beta[0][0] = 1  # [e, e] = w, so E3 fails
        yield beta

    monkeypatch.setattr(extension, "_coboundary_orbit", foreign)
    with pytest.raises(GlatticeError, match="^equivalence moved a system outside the enumerated family$"):
        classify_up_to_equivalence(cyclic_group(2), gf3)


def test_systems_with_different_chi_are_not_equivalent():
    # E4 fails for every mu, though E5 holds for mu = 1 on the all-ones brackets
    gf4 = DivisionRing.gf(2, 2)
    plain = trivial_factor_system(cyclic_group(2), gf4)
    twisted = FactorSystem(cyclic_group(2), gf4, frobenius_by_residue(gf4, 2, 2), {})
    for src, dst in ((plain, twisted), (twisted, plain)):
        assert find_equivalence(src, dst) is None
        assert oracles.find_equivalence_by_probes(src, dst) is None


def test_equivalence_and_transform_match_scalars_on_seeded_mu():
    rng = random.Random(5)
    for fs in enumerated_system_family():
        for _ in range(3):
            mu = [fs.ring.one()] + [rng.choice(fs.ring.units()) for _ in range(fs.group.order - 1)]
            moved = transform_factor_system(fs, mu)
            assert moved == coboundary(fs, mu)
            # the output's cochain is the one its bracket gives
            assert cochain(moved) == cochain(fresh(moved))
            for dst in (moved, fs):
                assert check_equivalence(fs, dst, mu) == oracles.equivalent_by_probes(fs, dst, mu)


# ---------------------------------------------------------------------------
# the Schreier table


def multiply_table(ext):
    pairs = ext.pairs()
    index = {pair: i for i, pair in enumerate(pairs)}
    return [[index[ext.multiply(x, y)] for y in pairs] for x in pairs]


def test_schreier_tables_match_multiply_on_every_benchmark_system():
    systems = benchmark_systems()
    gf4 = DivisionRing.gf(2, 2)
    systems.append(FactorSystem(cyclic_group(2), gf4, frobenius_by_residue(gf4, 2, 2), {}))
    for fs in systems:
        ext = SchreierExtension(fs)
        group, pairs = ext.materialize()
        assert pairs == ext.pairs()
        assert [list(row) for row in group.cayley] == multiply_table(ext)


@pytest.mark.parametrize(
    "entry,flip,message",
    [
        ((0, 1), 1, "K\\* layer does not copy K\\*"),
        ((2, 3), 2, "quotient by the K\\* layer is not G"),
    ],
    ids=["layer", "quotient"],
)
def test_schreier_table_checks_catch_a_corrupted_entry(monkeypatch, entry, flip, message):
    # C2 over GF(3): pairs 0, 1 form the K* layer and pairs 2, 3 lie over
    # a; flipping bit 0 of an entry stays in its layer, bit 1 leaves it
    original = extension._pair_table
    x, y = entry

    def corrupted(*args):
        table = original(*args)
        table[x][y] ^= flip
        return table

    monkeypatch.setattr(extension, "_pair_table", corrupted)
    fs = FactorSystem(cyclic_group(2), DivisionRing.gf(3), {}, {(1, 1): 2})
    with pytest.raises(GlatticeError, match=message):
        SchreierExtension(fs).materialize()


def test_cli_c48_over_gf41_is_byte_identical(capsys, tmp_path):
    # digest recorded from the Scalar-product table, which took over 11 s
    path = tmp_path / "fs.json"
    path.write_text(json.dumps({"group": {"group": "cyclic", "n": 48}, "ring": {"ring": "gf", "p": 41}}))
    start = time.perf_counter()
    code, out = run_cli(capsys, "build-extension", "--fs", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["group"] == "C240xC8"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == C48_GF41_DIGEST
    assert elapsed < 10.0
