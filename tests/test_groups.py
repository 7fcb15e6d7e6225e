"""Cayley-table groups, subgroup lattices, conjugation actions."""

import functools
import itertools
import math

import pytest

import glattice.groups
from glattice import (
    FiniteGroup,
    FiniteLattice,
    are_isomorphic,
    conjugation_glattice,
    cyclic_group,
    dihedral_group,
    identify_group,
    subgroup_lattice,
    symmetric_group,
    validate_glattice,
)
from glattice.errors import (
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    TableMismatch,
    TooLarge,
)
from glattice.extension import (
    FactorSystem,
    build_extension,
    classify_up_to_equivalence,
    enumerate_factor_systems,
    trivial_factor_system,
)
from glattice.groups import _generating_set, all_subgroups, trivial_group
from glattice.lattice import fixed_points, orbits
from glattice.scalar import DivisionRing, RingAutomorphism

import oracles
from oracles import direct_product_of_cyclics, normal_subgroup_indices


# ---------------------------------------------------------------------------
# oracle: subgroups by filtering *all* subsets (feasible to order ~8)


def brute_force_subgroups(group):
    n = group.order
    found = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if 0 not in subset:
                continue
            s = set(subset)
            if all(group.cayley[a][b] in s for a in s for b in s) and all(
                group.inverse[a] in s for a in s
            ):
                found.append(frozenset(s))
    return found


# ---------------------------------------------------------------------------
# construction


def test_cyclic_preset():
    c3 = cyclic_group(3)
    assert c3.order == 3
    assert c3.cayley[1][1] == 2  # a*a = a^2


def test_symmetric_preset_order():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def test_dihedral_presets():
    assert dihedral_group(1).order == 2
    assert dihedral_group(3).order == 6
    assert not dihedral_group(3).is_abelian()
    assert dihedral_group(2).is_abelian()


def test_symmetric_composition_convention():
    s3 = symmetric_group(3)
    # labels are one-line images; composing (p*q)(x) = p(q(x))
    swap01 = s3.labels.index("102")
    swap12 = s3.labels.index("021")
    product = s3.cayley[swap01][swap12]
    # p(q(x)): q = (1 2) swap, p = (0 1) swap: 0->0->1, 1->2->2, 2->1->0
    assert s3.labels[product] == "120"


def test_no_inverse_rejected():
    with pytest.raises(NoInverse):
        FiniteGroup([[0, 1], [1, 1]])


def test_no_identity_rejected():
    with pytest.raises(NoIdentity):
        FiniteGroup([[1, 0], [0, 1]])  # identity exists but sits at index 1


def test_not_associative_rejected():
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotAssociative):
        FiniteGroup(table)


def test_not_associative_witness_is_lights():
    # the generating set is [1, 2]; s = 1 fails first, at a = 1 and b = 2:
    # (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*0 = 1
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotAssociative) as err:
        FiniteGroup(table)
    assert err.value.witness == (1, 1, 2)
    assert str(err.value) == "(1*1)*2 != 1*(1*2)"


def test_lights_test_matches_the_triple_loop_on_single_entry_tampers():
    # every entry off the identity row and column, set to every other
    # value: the table keeps its two-sided identity, which Light's test
    # needs.  Relabelings by a transposition fixing 0 stay associative.
    tables = []
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3), dihedral_group(2)):
        n = group.order
        for x, y in itertools.product(range(1, n), repeat=2):
            for value in range(n):
                if value != group.cayley[x][y]:
                    table = [list(row) for row in group.cayley]
                    table[x][y] = value
                    tables.append(table)
        for i, j in itertools.combinations(range(1, n), 2):
            swap = list(range(n))
            swap[i], swap[j] = j, i
            relabeled = [[swap[group.cayley[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
            tables.append(relabeled)
    rejected = 0
    for table in tables:
        expected = oracles.associativity_violation(table)
        try:
            glattice.groups._check_associativity(table)
        except NotAssociative as err:
            a, s, b = err.witness
            assert table[table[a][s]][b] != table[a][table[s][b]]
            assert expected is not None
            rejected += 1
        else:
            assert expected is None
    assert rejected == 304 and len(tables) == 304 + 3 + 10 + 10 + 3


def test_lights_test_needs_every_generator():
    # V4 with 2*2 = 3*3 = 1: a(1b) == (a1)b for all a, b, so the first
    # generator passes; the second does not
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 1], [3, 2, 1, 1]]
    assert _generating_set(table) == [1, 2]
    assert oracles.associativity_violation(table) is not None
    with pytest.raises(NotAssociative) as err:
        glattice.groups._check_associativity(table)
    assert err.value.witness[1] == 2


def test_lights_test_on_large_group():
    # order 75: C5 x C5 x C3 passes Light's test on its generating set
    shape = (5, 5, 3)
    elems = list(itertools.product(*[range(d) for d in shape]))
    index = {e: i for i, e in enumerate(elems)}
    cayley = [
        [index[tuple((a + b) % d for a, b, d in zip(x, y, shape))] for y in elems]
        for x in elems
    ]
    group = FiniteGroup(cayley)
    assert group.order == 75


def closure_test_groups():
    """Presets, direct products and the extension groups the tests build:
    C4, S3 and one group per class of (V4, GF(3)) systems."""
    gf3, gf4 = DivisionRing.gf(3), DivisionRing.gf(2, 2)
    systems = [
        FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2}),
        FactorSystem(cyclic_group(2), gf4, {1: RingAutomorphism.frobenius(gf4, 1)}, {}),
    ]
    systems += [cls[0] for cls in classify_up_to_equivalence(dihedral_group(2), gf3)]
    groups = [trivial_group()]
    groups += [cyclic_group(n) for n in (2, 3, 4, 6, 8, 12)]
    groups += [dihedral_group(n) for n in (1, 2, 3, 4, 6)]
    groups += [symmetric_group(n) for n in (2, 3, 4)]
    groups += [direct_product_of_cyclics(s) for s in ((2, 2), (2, 4), (2, 2, 2), (3, 3), (5, 5, 3))]
    return groups + [build_extension(fs).group for fs in systems]


def test_generating_sets_match_the_from_scratch_closure():
    for group in closure_test_groups():
        assert _generating_set(group.cayley) == oracles.generating_set(group.cayley)


def test_subgroups_match_the_from_scratch_closure():
    for group in closure_test_groups():
        if group.order <= 48:
            expected = oracles.all_subgroups(group)
            assert [s.members for s in all_subgroups(group)] == expected
            lat = subgroup_lattice(group)
            for i, j in itertools.product(range(lat.size), repeat=2):
                union = set(lat.payloads[i].members) | set(lat.payloads[j].members)
                assert lat.payloads[lat.join[i][j]].members == tuple(
                    sorted(oracles.close_subset(group.cayley, union))
                )


def test_symmetric_preset_cap():
    with pytest.raises(TooLarge):
        symmetric_group(6)
    for n in (0, -4):
        with pytest.raises(MalformedTable, match="^need n >= 1$"):
            symmetric_group(n)


def test_element_orders():
    s3 = symmetric_group(3)
    orders = sorted(s3.element_order(x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


# ---------------------------------------------------------------------------
# subgroup lattices


def test_subgroup_lattice_c3():
    lat = subgroup_lattice(cyclic_group(3))
    assert lat.size == 2  # prime order: only the trivial subgroups
    assert [len(s) for s in lat.payloads] == [1, 3]


def test_subgroup_lattice_s3_against_brute_force():
    s3 = symmetric_group(3)
    lat = subgroup_lattice(s3)
    brute = brute_force_subgroups(s3)
    assert lat.size == len(brute) == 6
    assert {frozenset(s.members) for s in lat.payloads} == set(brute)
    assert sorted(len(s) for s in lat.payloads) == [1, 2, 2, 2, 3, 6]


def test_subgroup_lattice_d4_against_brute_force():
    d4 = dihedral_group(4)
    lat = subgroup_lattice(d4)
    assert lat.size == len(brute_force_subgroups(d4)) == 10


def test_subgroup_lattice_trivial_group():
    assert subgroup_lattice(trivial_group()).size == 1


def test_subgroup_lattice_meet_join():
    s3 = symmetric_group(3)
    lat = subgroup_lattice(s3)
    sizes = [len(s) for s in lat.payloads]
    order2 = [i for i, k in enumerate(sizes) if k == 2]
    # two distinct order-2 subgroups meet in the trivial group and
    # generate all of S3
    i, j = order2[0], order2[1]
    assert len(lat.payloads[lat.meet[i][j]]) == 1
    assert len(lat.payloads[lat.join[i][j]]) == 6


SET_LATTICE_GROUPS = {
    **{f"C{n}": functools.partial(cyclic_group, n) for n in range(1, 13)},
    "S3": functools.partial(symmetric_group, 3),
    "S4": functools.partial(symmetric_group, 4),
    "D4": functools.partial(dihedral_group, 4),
    "D6": functools.partial(dihedral_group, 6),
    "Q8": oracles.quaternion_group,
}


@pytest.mark.parametrize("name", SET_LATTICE_GROUPS)
def test_subgroup_lattice_masks_match_the_leq_construction(name):
    # the up-set masks formed from member bitmasks against the order built
    # from an m x m matrix of frozenset inclusions
    lat = subgroup_lattice(SET_LATTICE_GROUPS[name]())
    want = FiniteLattice(oracles.subgroup_leq(lat))
    assert (lat.up_masks, lat.down_masks) == (want.up_masks, want.down_masks)
    assert lat.masks == tuple(sum(1 << h for h in s.members) for s in lat.payloads)
    assert (lat.meet, lat.join) == (want.meet, want.join)
    # the meet is read as intersections of member sets, the reference reads
    # both tables off the down-set and up-set masks
    meet, join = oracles.meet_and_join_scan(lat.down_masks, lat.up_masks)
    assert (lat.meet, lat.join) == (tuple(map(tuple, meet)), tuple(map(tuple, join)))


SUBGROUP_MUTANTS = {"S4": lambda: symmetric_group(4), "D6": lambda: dihedral_group(6)}


def incomparable_pairs(lat):
    """The pairs x < y of incomparable elements, in row-major order."""
    return [
        (x, y)
        for x in range(lat.size)
        for y in range(x + 1, lat.size)
        if not lat.up_masks[x] >> y & 1 and not lat.up_masks[y] >> x & 1
    ]


@pytest.mark.parametrize("name", SUBGROUP_MUTANTS)
def test_subgroup_lattice_rejects_a_corrupted_join(name, bounds_returning):
    group = SUBGROUP_MUTANTS[name]()
    lat = subgroup_lattice(group)
    x, y = incomparable_pairs(lat)[-1]
    join = [list(row) for row in lat.join]
    join[x][y] = lat.meet[x][y]
    bounds_returning(lat, lat.meet, join)
    with pytest.raises(TableMismatch) as err:
        subgroup_lattice(group)
    assert err.value.witness == (x, y)
    assert str(err.value).startswith(
        f"join[{x}][{y}] = {lat.join[x][y]}, but the true bound is {lat.meet[x][y]}"
    )


@pytest.mark.parametrize("name", SUBGROUP_MUTANTS)
def test_subgroup_lattice_rejects_a_join_that_is_no_subgroup(name, monkeypatch):
    # the union itself as the join: at the first pair whose union is no
    # subgroup, the algebraic join has no index
    group = SUBGROUP_MUTANTS[name]()
    lat = subgroup_lattice(group)
    subs = all_subgroups(group)
    member_sets = [frozenset(s.members) for s in subs]
    x, y = next(
        (x, y)
        for x, a in enumerate(member_sets)
        for y, b in enumerate(member_sets)
        if a | b not in member_sets
    )
    monkeypatch.setattr(glattice.groups, "all_subgroups", lambda _: subs)
    monkeypatch.setattr(glattice.groups, "_close", lambda cayley, gens: frozenset(gens))
    with pytest.raises(TableMismatch) as err:
        subgroup_lattice(group)
    assert err.value.witness == (x, y)
    assert str(err.value).startswith(
        f"join[{x}][{y}] = None, but the true bound is {lat.join[x][y]}"
    )


@pytest.mark.parametrize("name,unions", [("S4", 315), ("D6", 72)])
def test_subgroup_join_check_closes_each_union_once(name, unions, monkeypatch):
    # one closure per distinct union of two member sets that is no member
    # itself; a member is its own closure
    group = SUBGROUP_MUTANTS[name]()
    subs = all_subgroups(group)
    masks = {sum(1 << h for h in s.members) for s in subs}
    assert len({a | b for a in masks for b in masks} - masks) == unions
    close = glattice.groups._close
    calls = []

    def spy(cayley, generators):
        calls.append(None)
        return close(cayley, generators)

    monkeypatch.setattr(glattice.groups, "all_subgroups", lambda _: subs)
    monkeypatch.setattr(glattice.groups, "_close", spy)
    subgroup_lattice(group)
    assert 0 < len(calls) <= unions


def test_subgroup_enumeration_too_large():
    big = cyclic_group(49)
    with pytest.raises(TooLarge):
        all_subgroups(big)


# ---------------------------------------------------------------------------
# conjugation action


def test_conjugation_abelian_fixes_everything():
    c6 = cyclic_group(6)
    action = conjugation_glattice(c6)
    assert validate_glattice(action).ok
    assert fixed_points(action) == list(range(action.lattice.size))


def test_conjugation_s3_orbits():
    action = conjugation_glattice(symmetric_group(3))
    # direct conjugation oracle: the three order-2 subgroups form one
    # orbit, everything else is fixed
    orbs = orbits(action)
    assert sorted(len(o) for o in orbs) == [1, 1, 1, 3]
    sizes = [len(s) for s in action.lattice.payloads]
    moved = [i for o in orbs if len(o) == 3 for i in o]
    assert all(sizes[i] == 2 for i in moved)
    order3 = next(i for i, k in enumerate(sizes) if k == 3)
    assert order3 in fixed_points(action)  # index 2 is normal in S3


def test_conjugation_fixed_points_are_normal_subgroups():
    for group in (symmetric_group(3), dihedral_group(4), symmetric_group(4)):
        lat = subgroup_lattice(group)
        action = conjugation_glattice(group)
        assert fixed_points(action) == normal_subgroup_indices(group, lat)


def test_conjugation_axioms_exhaustive_small():
    for group in (cyclic_group(4), symmetric_group(3), dihedral_group(4),
                  dihedral_group(6), cyclic_group(12)):
        assert group.order <= 12
        assert validate_glattice(conjugation_glattice(group)).ok


@pytest.mark.parametrize("name", SET_LATTICE_GROUPS)
def test_conjugation_tables_match_the_frozenset_conjugates(name):
    group = SET_LATTICE_GROUPS[name]()
    action = conjugation_glattice(group)
    assert action.table == oracles.conjugation_table(group, action.lattice)


def test_normal_sublattice_closed():
    # the normal subgroups form an action-closed sublattice
    s4 = symmetric_group(4)
    lat = subgroup_lattice(s4)
    action = conjugation_glattice(s4)
    normal = set(normal_subgroup_indices(s4, lat))
    for i in normal:
        for g in range(s4.order):
            assert action.table[g][i] in normal
        for j in normal:
            assert lat.meet[i][j] in normal
            assert lat.join[i][j] in normal


# ---------------------------------------------------------------------------
# isomorphism testing


def test_are_isomorphic_basics():
    assert are_isomorphic(dihedral_group(3), symmetric_group(3))
    assert not are_isomorphic(cyclic_group(4), dihedral_group(2))
    assert are_isomorphic(cyclic_group(6), cyclic_group(6))


def _commutes_pairwise(group):
    n = group.order
    return all(group.cayley[a][b] == group.cayley[b][a] for a in range(n) for b in range(n))


def _groups_to_compare():
    """Every preset at small sizes, the groups the extension tests name,
    and the extension groups those tests build."""
    groups = [trivial_group()]
    groups += [cyclic_group(n) for n in range(1, 13)] + [cyclic_group(48), cyclic_group(49)]
    groups += [dihedral_group(n) for n in range(1, 9)]
    groups += [symmetric_group(n) for n in range(1, 5)]
    groups += [direct_product_of_cyclics(s) for s in ((2, 2), (2, 4), (3, 3))]
    gf3, gf4, gf5 = DivisionRing.gf(3), DivisionRing.gf(2, 2), DivisionRing.gf(5)
    systems = [
        FactorSystem(cyclic_group(2), gf3, {}, {}),
        FactorSystem(cyclic_group(2), gf3, {}, {(1, 1): 2}),
        FactorSystem(cyclic_group(2), gf4, {1: RingAutomorphism.frobenius(gf4, 1)}, {}),
    ]
    systems += [cls[0] for cls in classify_up_to_equivalence(cyclic_group(2), gf5)]
    groups += [build_extension(fs).group for fs in systems]
    return groups


def test_is_abelian_matches_the_pairwise_check():
    groups = _groups_to_compare()
    verdicts = [group.is_abelian() for group in groups]
    assert verdicts == [_commutes_pairwise(group) for group in groups]
    assert True in verdicts and False in verdicts


def test_identify_group_refuses_a_large_nonabelian_group_before_building_a_dihedral(monkeypatch):
    # 42 elements, past the isomorphism search's cap: D21 is recognised by
    # its presentation, and no dihedral group is built to compare with
    group = dihedral_group(21)

    def no_dihedral(n):
        raise AssertionError(f"dihedral_group({n}) built for a comparison")

    monkeypatch.setattr(glattice.groups, "dihedral_group", no_dihedral)
    assert identify_group(group) == "D21"


ABELIAN_SHAPES = [(2, 2), (2, 6), (6, 2), (3, 4), (4, 6), (2, 2, 2), (2, 3, 4), (2, 2, 6), (3, 3), (3, 9), (2, 4, 4), (5, 5), (2, 2, 2, 2)]


def _groups_up_to_forty():
    """Every group of order <= 40 the tests build: the presets, direct
    products of cyclic groups, Q8, and the extensions of the enumerated
    and the trivial factor systems over small fields."""
    quaternions = oracles.quaternion_group()
    groups = [trivial_group(), quaternions]
    groups += [cyclic_group(n) for n in range(1, 41)] + [dihedral_group(n) for n in range(1, 21)]
    groups += [symmetric_group(n) for n in range(1, 5)]
    groups += [direct_product_of_cyclics(shape) for shape in ABELIAN_SHAPES]
    fields = [DivisionRing.gf(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
    bases = [cyclic_group(n) for n in range(2, 7)] + [dihedral_group(n) for n in range(2, 7)]
    bases += [symmetric_group(3), quaternions]
    systems = [
        trivial_factor_system(group, ring)
        for group in bases
        for ring in fields
        if (ring.order - 1) * group.order <= 40
    ]
    # the enumeration cap: |G| <= 3 with |K*| <= 4, or |G| <= 4 with |K*| <= 2
    for group, ring in itertools.product((cyclic_group(2), cyclic_group(3), cyclic_group(4), dihedral_group(2)), fields[:4]):
        if group.order <= 3 or ring.order <= 3:
            systems += enumerate_factor_systems(group, ring)
    gf4 = fields[2]
    systems += enumerate_factor_systems(cyclic_group(2), gf4, {1: RingAutomorphism.frobenius(gf4, 1)})
    groups += [build_extension(fs).group for fs in systems]
    return list(dict.fromkeys(groups))


def test_identify_group_matches_the_isomorphism_search_up_to_forty(monkeypatch):
    # the presentation witness against the isomorphism search it replaced,
    # are_isomorphic(group, dihedral_group(n // 2)), on every group that
    # search accepts
    groups = _groups_up_to_forty()
    names = [identify_group(group) for group in groups]
    monkeypatch.setattr(
        glattice.groups,
        "_is_dihedral",
        lambda group, orders: are_isomorphic(group, dihedral_group(group.order // 2)),
    )
    assert names == [identify_group(group) for group in groups]
    assert len(groups) > 100
    assert {"D20", "Q8", "S4", "order24-nonabelian-maxord12", "order30-nonabelian-maxord15"} <= set(names)


def test_identify_group_names():
    assert identify_group(cyclic_group(6)) == "C6"
    assert identify_group(dihedral_group(2)) == "C2xC2"
    assert identify_group(dihedral_group(4)) == "D4"
    assert identify_group(symmetric_group(3)) == "S3"
    assert identify_group(trivial_group()) == "C1"


@pytest.mark.parametrize("shape", ABELIAN_SHAPES)
def test_identify_group_names_abelian_groups_by_invariant_factors(shape):
    # the name is the invariant-factor form of a group isomorphic to this one
    group = direct_product_of_cyclics(shape)
    factors = [int(part[1:]) for part in identify_group(group).split("x")]
    assert math.prod(factors) == group.order
    assert all(d % e == 0 for d, e in zip(factors, factors[1:]))
    assert are_isomorphic(group, direct_product_of_cyclics(factors))
