"""Acceptance suite: one test per exit criterion, each printing a
single PASS/FAIL line.  Everything is exact arithmetic, so every
comparison below is equality, not a tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
from fractions import Fraction


from glattice import (
    DivisionRing,
    ExtensionIsomorphism,
    FactorSystem,
    GLatticeAction,
    RingAutomorphism,
    SemilinearProjectiveRep,
    TwistedGroupRing,
    VectorSpace,
    action_from_homomorphism,
    build_extension,
    classify_extension,
    classify_up_to_equivalence,
    conjugation_glattice,
    cyclic_group,
    dihedral_group,
    enumerate_factor_systems,
    enumerate_subspaces,
    factor_system_from_rep,
    find_equivalence,
    gaussian_binomial,
    homomorphism_from_action,
    identify_group,
    induced_glattice,
    is_algebra,
    powerset_glattice,
    rep_equivalence,
    rep_from_glattice,
    regular_representation,
    symmetric_group,
    transport_rep,
    trivial_factor_system,
    validate_factor_system,
    validate_module_axioms,
    validate_rep,
)
from glattice.lattice import boolean_lattice, chain_lattice, check_axiom
from glattice.linalg import identity_map
from glattice.rep import rep_from_matrices

from conftest import shift_rep
from oracles import iter_semilinear_automorphisms, reference_module_laws


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description}")
    assert not failures, f"criterion {number}: {failures}"


# ---------------------------------------------------------------------------
# shared generated families


def three_reference_actions():
    conj = conjugation_glattice(symmetric_group(3))
    swap = powerset_glattice(cyclic_group(2), [[0, 1], [1, 0]])
    shift = induced_glattice(shift_rep(DivisionRing.gf(2)))
    return [("conjugation-S3", conj), ("powerset-C2", swap), ("shift-L(GF(2)^3)", shift)]


def gf2_cube_rep_family():
    """All 57 representations of C3 on GF(2)^3 coming from matrices of
    order dividing 3."""
    c3 = cyclic_group(3)
    space = VectorSpace(DivisionRing.gf(2), 3)
    reps = []
    for f in iter_semilinear_automorphisms(space):
        if f.compose(f).compose(f).is_identity():
            reps.append(
                SemilinearProjectiveRep(
                    c3, space, {0: identity_map(space), 1: f, 2: f.compose(f)}
                )
            )
    return reps


def gf4_line_rep_families():
    """One-dimensional families over GF(4) with a fixed theta pattern:
    27 C3 representations with identity twists and 9 C2 representations
    with the Frobenius twist.  (The rank-1 lattice carries no
    information, so mixing theta patterns would defeat the theorem's
    rank hypothesis; each family keeps its pattern fixed.)"""
    gf4 = DivisionRing.gf(2, 2)
    space = VectorSpace(gf4, 1)
    ident = RingAutomorphism.identity(gf4)
    frob = RingAutomorphism.frobenius(gf4, 1)
    units = gf4.units()
    c3_family = [
        rep_from_matrices(
            cyclic_group(3),
            space,
            {0: (((a,),), ident), 1: (((b,),), ident), 2: (((c,),), ident)},
        )
        for a in units
        for b in units
        for c in units
    ]
    c2_family = [
        rep_from_matrices(
            cyclic_group(2), space, {0: (((a,),), ident), 1: (((b,),), frob)}
        )
        for a in units
        for b in units
    ]
    return c3_family, c2_family


def enumerated_system_family():
    """Every factor system of every enumeration-feasible (G, K, chi)
    triple with |K*| * |G| <= 36."""
    gf2, gf3, gf5 = DivisionRing.gf(2), DivisionRing.gf(3), DivisionRing.gf(5)
    gf4 = DivisionRing.gf(2, 2)
    pairs = [
        (cyclic_group(2), gf2),
        (cyclic_group(2), gf3),
        (cyclic_group(2), gf4),
        (cyclic_group(2), gf5),
        (cyclic_group(3), gf2),
        (cyclic_group(3), gf3),
        (cyclic_group(3), gf4),
        (cyclic_group(3), gf5),
        (cyclic_group(4), gf2),
        (cyclic_group(4), gf3),
        (dihedral_group(2), gf3),
    ]
    systems = []
    for group, ring in pairs:
        assert (ring.order - 1) * group.order <= 36
        chis = [None]
        if ring is gf4 and group.order == 2:
            chis.append(
                {
                    0: RingAutomorphism.identity(ring),
                    1: RingAutomorphism.frobenius(ring, 1),
                }
            )
        for chi in chis:
            systems.extend(enumerate_factor_systems(group, ring, chi))
    return systems


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_action_axioms_and_mutations():
    failures = []
    for name, action in three_reference_actions():
        for k in (1, 2, 3, 4, 5):
            witness = check_axiom(action, k)
            if witness is not None:
                failures.append(f"{name} axiom {k} fails at {witness}")
    expected = {"conjugation-S3": 6, "powerset-C2": 4, "shift-L(GF(2)^3)": 16}
    for name, action in three_reference_actions():
        if action.lattice.size != expected[name]:
            failures.append(f"{name} has size {action.lattice.size}")

    # mutation tests: each axiom's checker catches a crafted violation
    s3 = symmetric_group(3)
    conj = conjugation_glattice(s3)
    mutated = [list(row) for row in conj.table]
    target = next(
        g for g in range(1, 6) if conj.table[g] != tuple(range(conj.lattice.size))
    )
    mutated[target] = list(range(conj.lattice.size))
    if check_axiom(GLatticeAction(s3, conj.lattice, mutated), 1) is None:
        failures.append("axiom 1 mutation not caught")
    c2 = cyclic_group(2)
    if check_axiom(GLatticeAction(c2, chain_lattice(2), [[1, 0], [1, 0]]), 2) is None:
        failures.append("axiom 2 mutation not caught")
    if check_axiom(GLatticeAction(c2, chain_lattice(2), [[0, 1], [1, 0]]), 3) is None:
        failures.append("axiom 3 mutation not caught")
    b2 = boolean_lattice(2)
    bad45 = GLatticeAction(c2, b2, [list(range(4)), [3, 1, 2, 0]])
    if check_axiom(bad45, 4) is None:
        failures.append("axiom 4 mutation not caught")
    if check_axiom(bad45, 5) is None:
        failures.append("axiom 5 mutation not caught")
    report(1, "all five action axioms hold on the three reference actions; "
              "each axiom individually catchable", failures)


def test_criterion_02_action_homomorphism_bijection():
    failures = []
    for name, action in three_reference_actions():
        rho = homomorphism_from_action(action)
        back = action_from_homomorphism(action.group, action.lattice, rho)
        if back.table != action.table:
            failures.append(f"{name} table changed under the roundtrip")
        again = homomorphism_from_action(back)
        if any(again[g] != rho[g] for g in range(action.group.order)):
            failures.append(f"{name} homomorphism changed under the roundtrip")
    report(2, "action <-> homomorphism roundtrips are table-identical", failures)


def test_criterion_03_rep_lattice_roundtrip():
    failures = []
    for q in (2, 3):
        rep = shift_rep(DivisionRing.gf(q))
        action = induced_glattice(rep)
        recovered = rep_from_glattice(action)
        again = induced_glattice(recovered, action.lattice)
        if again.table != action.table:
            failures.append(f"GF({q})^3 shift action not recovered")
        # probe independence of the cocycle on every basis vector
        space = rep.space
        for g in range(3):
            for h in range(3):
                composite = recovered.maps[g].compose(recovered.maps[h])
                target = recovered.maps[rep.group.cayley[g][h]]
                alphas = set()
                for i in range(space.dim):
                    v = space.basis_vector(i)
                    u, w = composite(v), target(v)
                    pivot = next(idx for idx, x in enumerate(w) if not x.is_zero())
                    alphas.add(u[pivot] * w[pivot].inverse())
                if len(alphas) != 1:
                    failures.append(f"GF({q}) probe dependence at ({g},{h})")
    report(3, "representation <-> lattice roundtrip over GF(2)^3 and GF(3)^3; "
              "cocycle probe-independent on every basis vector", failures)


def test_criterion_04_equivalence_biconditional():
    failures = []
    counted = 0

    cube = gf2_cube_rep_family()
    lattice = enumerate_subspaces(cube[0].space)
    tables = [induced_glattice(rep, lattice).table for rep in cube]
    for i in range(len(cube)):
        for j in range(i, len(cube)):
            counted += 1
            equivalent = rep_equivalence(cube[i], cube[j]) is not None
            if equivalent != (tables[i] == tables[j]):
                failures.append(f"GF(2)^3 counterexample at pair ({i},{j})")

    for family in gf4_line_rep_families():
        lattice1 = enumerate_subspaces(family[0].space)
        tabs = [induced_glattice(rep, lattice1).table for rep in family]
        for i in range(len(family)):
            for j in range(i, len(family)):
                counted += 1
                equivalent = rep_equivalence(family[i], family[j]) is not None
                if equivalent != (tabs[i] == tabs[j]):
                    failures.append(f"GF(4)^1 counterexample at pair ({i},{j})")
    total = len(cube) + sum(len(f) for f in gf4_line_rep_families())
    if total < 20:
        failures.append(f"family too small: {total}")
    report(4, f"equivalent <=> same induced lattice on {total} representations "
              f"({counted} pairs), zero counterexamples", failures)


def generated_valid_reps():
    reps = list(gf2_cube_rep_family())
    for family in gf4_line_rep_families():
        reps.extend(family)
    for fs in enumerated_system_family():
        if fs.ring.is_commutative():
            reps.append(regular_representation(TwistedGroupRing(fs)))
    return reps


def test_criterion_05_reps_yield_factor_systems():
    failures = []
    checked = 0
    for rep in generated_valid_reps():
        normalized = rep.normalized()
        fs = factor_system_from_rep(normalized)
        rep_report = validate_factor_system(fs)
        checked += 1
        if not rep_report.ok:
            failures.append(f"system from rep #{checked} violates {rep_report.law}")
    report(5, f"factor systems extracted from {checked} generated representations "
              "all pass E1-E3 exhaustively", failures)


def test_criterion_06_extension_classification():
    failures = []
    gf3, gf2 = DivisionRing.gf(3), DivisionRing.gf(2)
    classes = classify_up_to_equivalence(cyclic_group(2), gf3)
    if len(classes) != 2:
        failures.append(f"(C2, GF(3)) gave {len(classes)} classes")
    names = sorted(identify_group(build_extension(cls[0]).group) for cls in classes)
    if names != ["C2xC2", "C4"]:
        failures.append(f"(C2, GF(3)) groups were {names}")
    classes2 = classify_up_to_equivalence(cyclic_group(2), gf2)
    if len(classes2) != 1:
        failures.append(f"(C2, GF(2)) gave {len(classes2)} classes")
    report(6, "(C2, GF(3)) has exactly 2 classes with groups C2xC2 and C4; "
              "(C2, GF(2)) has exactly 1", failures)


def test_criterion_07_equivalence_transport():
    failures = []
    gf3 = DivisionRing.gf(3)
    gf4 = DivisionRing.gf(2, 2)
    pairs_checked = 0
    for group, ring in ((cyclic_group(2), gf3), (cyclic_group(3), gf4)):
        systems = enumerate_factor_systems(group, ring)
        for fs1 in systems:
            rho = regular_representation(TwistedGroupRing(fs1))
            for fs2 in systems:
                pairs_checked += 1
                mu = find_equivalence(fs2, fs1)
                # rep-side probe: does any eta with eta(e)=1 rescale rho
                # into an fs2-associated representation?
                eta_exists = False
                units = ring.units()
                for tail in itertools.product(units, repeat=group.order - 1):
                    eta = {0: ring.one()}
                    eta.update({g + 1: tail[g] for g in range(group.order - 1)})
                    moved = rho.scaled(eta)
                    if factor_system_from_rep(moved) == fs2:
                        eta_exists = True
                        break
                if (mu is not None) != eta_exists:
                    failures.append(f"transport biconditional fails for {fs1!r} vs {fs2!r}")
                if mu is not None:
                    moved = transport_rep(rho, fs1, fs2, mu)
                    if rep_equivalence(rho, moved) is None:
                        failures.append("transported rep not equivalent")
                    mu_inv = [m.inverse() for m in mu]
                    back = transport_rep(moved, fs2, fs1, mu_inv)
                    if back != rho:
                        failures.append("transport roundtrip not exact")
    report(7, f"transport roundtrips exact; system equivalence <=> representation "
              f"equivalence on {pairs_checked} enumerated pairs", failures)


def test_criterion_08_extension_regular_rep_roundtrip():
    failures = []
    count = 0
    for fs in enumerated_system_family():
        ext = build_extension(fs)  # materializes and verifies the group
        if ext.group.order != (fs.ring.order - 1) * fs.group.order:
            failures.append(f"extension of {fs!r} has wrong order")
        rho = regular_representation(TwistedGroupRing(fs))
        if factor_system_from_rep(rho) != fs:
            failures.append(f"roundtrip failed for {fs!r}")
        count += 1

    # the rational chain: trivial system over (QQ, C3)
    rationals = DivisionRing.rationals()
    fs_q = trivial_factor_system(cyclic_group(3), rationals)
    ext = build_extension(fs_q)
    iso = ExtensionIsomorphism(fs_q, fs_q, {g: 1 for g in range(3)})
    direct_ok = True
    samples = [Fraction(2), Fraction(-3, 7), Fraction(5, 2)]
    for a in samples:
        for b in samples:
            for g in range(3):
                for h in range(3):
                    got = ext.multiply((rationals.scalar(a), g), (rationals.scalar(b), h))
                    if got != (rationals.scalar(a * b), (g + h) % 3):
                        direct_ok = False
    if not direct_ok:
        failures.append("(QQ, C3) extension is not the direct product Q*xC3")
    rho_q = regular_representation(TwistedGroupRing(fs_q))
    if factor_system_from_rep(rho_q) != fs_q:
        failures.append("(QQ, C3) roundtrip failed")
    report(8, f"system -> extension -> regular representation -> system is the "
              f"identity on {count} enumerated systems; (QQ, C3) chain gives "
              "Q* x C3 with a verified isomorphism", failures)


def test_criterion_09_extension_rep_taxonomy():
    failures = []
    count = 0
    for fs in enumerated_system_family():
        flags = classify_extension(fs)
        rho = regular_representation(TwistedGroupRing(fs))
        cls = validate_rep(rho)
        count += 1
        if flags.projective != cls.theta_trivial:
            failures.append(f"projective/projective-linear mismatch on {fs!r}")
        if flags.split != cls.cocycle_trivial:
            failures.append(f"split/semilinear mismatch on {fs!r}")
        if flags.direct != (cls.kind == "linear"):
            failures.append(f"direct/linear mismatch on {fs!r}")
    report(9, f"extension flags match representation classification on "
              f"{count} enumerated pairs", failures)


def test_criterion_10_algebra_criterion():
    failures = []
    count = 0
    for fs in enumerated_system_family():
        tgr = TwistedGroupRing(fs)
        verdict = is_algebra(tgr)
        expected = fs.ring.is_commutative() and all(
            phi.is_identity() for phi in fs.chi
        )
        count += 1
        if verdict.ok != expected:
            failures.append(f"algebra criterion fails on {fs!r}")
        if not verdict.ok:
            lhs = verdict.left_factor * verdict.right_factor.scale(verdict.scalar)
            rhs = (verdict.left_factor * verdict.right_factor).scale(verdict.scalar)
            if lhs == rhs or lhs != verdict.lhs or rhs != verdict.rhs:
                failures.append(f"witness on {fs!r} does not replay")

    quat = DivisionRing.quaternions()
    tgr_q = TwistedGroupRing(trivial_factor_system(cyclic_group(2), quat))
    verdict = is_algebra(tgr_q)
    if verdict.ok:
        failures.append("quaternion ring claimed to be an algebra")
    else:
        i = quat.scalar((0, 1, 0, 0))
        j = quat.scalar((0, 0, 1, 0))
        if verdict.lhs.coeff(0) != j * i or verdict.rhs.coeff(0) != i * j:
            failures.append("quaternion witness is not the ij != ji commutator")
    report(10, f"is_algebra <=> (commutative carrier and projective system) on "
               f"{count} rings, witnesses verified, quaternion ij != ji included",
           failures)


def test_criterion_11_module_laws():
    failures = []
    gf3 = DivisionRing.gf(3)
    c2 = cyclic_group(2)
    for bracket in ({}, {(1, 1): 2}):
        fs = FactorSystem(c2, gf3, {}, bracket)
        tgr = TwistedGroupRing(fs)
        rho = regular_representation(tgr)  # acts on GF(3)^2
        for check in (validate_module_axioms, reference_module_laws):
            ok, witness = check(tgr, rho)
            if not ok:
                failures.append(f"GF(3)/C2 bracket {bracket}: law {witness[0]} fails")

    rationals = DivisionRing.rationals()
    tgr_q = TwistedGroupRing(trivial_factor_system(cyclic_group(3), rationals))
    rho_q = shift_rep(rationals)
    for check in (validate_module_axioms, reference_module_laws):
        ok, witness = check(tgr_q, rho_q)
        if not ok:
            failures.append(f"QQ/C3: law {witness[0]} fails")
    report(11, "module laws (1)-(5) follow from the association, and hold replayed "
               "exhaustively for GF(3)/C2 on GF(3)^2 and on basis+seeded samples "
               "for QQ/C3 on QQ^3", failures)


def test_criterion_12_rank_and_counts():
    failures = []
    rationals = DivisionRing.rationals()
    tgr = TwistedGroupRing(trivial_factor_system(symmetric_group(3), rationals))
    reg = regular_representation(tgr)
    if reg.space.dim != 6:
        failures.append(f"S3 regular construction has rank {reg.space.dim}")
    if reg.space.dim == 3:
        failures.append("S3 regular construction collapsed to rank 3")
    if enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 3)).size != 16:
        failures.append("GF(2)^3 count != 16")
    if enumerate_subspaces(VectorSpace(DivisionRing.gf(3), 3)).size != 28:
        failures.append("GF(3)^3 count != 28")
    if sum(gaussian_binomial(3, k, 2) for k in range(4)) != 16:
        failures.append("Gaussian sum for q=2 wrong")
    if sum(gaussian_binomial(3, k, 3) for k in range(4)) != 28:
        failures.append("Gaussian sum for q=3 wrong")
    report(12, "S3 regular construction has rank 6, never 3; subspace counts "
               "match the Gaussian binomials (16 and 28)", failures)
