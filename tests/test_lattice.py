"""Lattice validation, automorphisms, and action-axiom machinery."""

import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest

import glattice.lattice as lattice_module
from glattice import (
    DivisionRing,
    FiniteLattice,
    LatticeAutomorphism,
    GLatticeAction,
    VectorSpace,
    action_from_homomorphism,
    boolean_lattice,
    conjugation_glattice,
    cyclic_group,
    dihedral_group,
    enumerate_subspaces,
    hasse_dot,
    homomorphism_from_action,
    induced_glattice,
    lattice_automorphism_group,
    orbits,
    powerset_glattice,
    subgroup_lattice,
    symmetric_group,
    validate_glattice,
)
from glattice.errors import (
    GlatticeError,
    NoJoin,
    NoMeet,
    NotGSet,
    NotHomomorphism,
    NotLatticeAutomorphism,
    NotPartialOrder,
    ShapeMismatch,
    TableMismatch,
    TooLarge,
)
from glattice.groups import trivial_group
from glattice.lattice import (
    chain_lattice,
    check_axiom,
    fixed_points,
    identity_automorphism,
    search_automorphisms,
    trivial_action,
)

import oracles
from conftest import shift_rep
from oracles import leq_matrix, meet_and_join_scan, validate_all_five_axioms


def leq_from_pairs(m, pairs):
    leq = [[i == j for j in range(m)] for i in range(m)]
    for i, j in pairs:
        leq[i][j] = True
    return leq


# ---------------------------------------------------------------------------
# FiniteLattice construction


def test_two_chain_valid():
    lat = FiniteLattice([[1, 1], [0, 1]])
    assert lat.size == 2
    assert lat.meet[0][1] == 0 and lat.join[0][1] == 1


def test_two_maximal_elements_have_no_join():
    # bottom 0, then 3 below the two incomparable maximal elements 1, 2
    leq = leq_from_pairs(4, [(0, 1), (0, 2), (0, 3), (3, 1), (3, 2)])
    with pytest.raises(NoJoin) as err:
        FiniteLattice(leq)
    assert set(err.value.witness) == {1, 2}


def test_boolean_lattice_on_three_atoms():
    # power-set order oracle: subsets of a 3-set under inclusion
    subsets = [frozenset(s) for k in range(4) for s in itertools.combinations("abc", k)]
    assert len(subsets) == 8
    lat = boolean_lattice(3)
    assert lat.size == 8
    # absorption and associativity re-checked here, independently
    for x in range(8):
        for y in range(8):
            assert lat.meet[x][lat.join[x][y]] == x
            assert lat.join[x][lat.meet[x][y]] == x
            for z in range(8):
                assert lat.meet[lat.meet[x][y]][z] == lat.meet[x][lat.meet[y][z]]
                assert lat.join[lat.join[x][y]][z] == lat.join[x][lat.join[y][z]]


@pytest.mark.parametrize("n", range(7))
def test_boolean_lattice_matches_the_leq_construction(n):
    # the up-set masks it hands over against the order built from i & j == i
    m = 1 << n
    got = boolean_lattice(n)
    want = FiniteLattice(
        [[(i & j) == i for j in range(m)] for i in range(m)],
        payloads=got.payloads,
        labels=got.labels,
    )
    assert (got.up_masks, got.down_masks) == (want.up_masks, want.down_masks)
    assert got.payloads == tuple(tuple(b for b in range(n) if i >> b & 1) for i in range(m))
    assert got.labels[-1] == "{" + ",".join(map(str, range(n))) + "}"
    assert (got.meet, got.join) == (want.meet, want.join)


def test_not_partial_order_rejected():
    with pytest.raises(NotPartialOrder):
        FiniteLattice([[1, 1], [1, 1]])  # antisymmetry fails
    with pytest.raises(NotPartialOrder):
        # 0<=1, 1<=2, but not 0<=2
        FiniteLattice(leq_from_pairs(3, [(0, 1), (1, 2)]))


def test_table_mismatch_reported():
    # a row of bounds found another way, against the row read off the
    # order: None where they agree, else the first entry that differs
    row_mismatch = lattice_module._row_mismatch
    assert row_mismatch("meet", 1, [0, 1, 1, 1], [0, 1, 1, 1]) is None
    error = row_mismatch("join", 2, [3, 7, 2, 5], [3, 3, 2, 3])
    assert isinstance(error, TableMismatch)
    assert error.witness == (2, 1)
    assert str(error).startswith("join[2][1] = 7, but the true bound is 3")


# 0 and 3 have no meet, 1 and 2 no join
NO_BOUNDS = [[1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1]]
# B2 without its top: 1 and 2 have no join, every meet exists
NO_TOP = leq_from_pairs(4, [(0, 1), (0, 2), (0, 3), (3, 1), (3, 2)])


def b2_tables(*changes):
    """boolean_lattice(2)'s meet and join tables as lists, with each
    (table, x, y, value) in changes written in."""
    lat = boolean_lattice(2)
    tables = {"meet": [list(row) for row in lat.meet], "join": [list(row) for row in lat.join]}
    for name, x, y, value in changes:
        tables[name][x][y] = value
    return tables


@pytest.mark.parametrize(
    "leq,changes,error,witness,message",
    [
        # the order first, then the bounds; then, for a lattice that knows
        # its join algebraically (the subgroup lattice of C6, which is
        # B2), the join rows.  The changes corrupt the rows read off the
        # masks, so the algebraic entry is reported against the corrupted
        # one, at the first pair in row-major order; the meet is the
        # intersection, which construction has checked, and is never
        # compared
        ([[1, 1], [1, 1]], None, NotPartialOrder, (0, 1), "antisymmetric"),
        (NO_BOUNDS, None, NoMeet, (0, 3), "0,3 have no meet"),
        (NO_TOP, None, NoJoin, (1, 2), "1,2 have no join"),
        (None, [("join", 3, 0, 0), ("join", 1, 2, 1)],
         TableMismatch, (1, 2), r"join\[1\]\[2\] = 3, but the true bound is 1"),
        (None, [("meet", 0, 1, 3), ("meet", 3, 3, 0), ("join", 2, 1, 2)],
         TableMismatch, (2, 1), r"join\[2\]\[1\] = 3, but the true bound is 2"),
    ],
    ids=["order", "no-meet", "no-join", "first-join-entry", "meet-never-compared"],
)
def test_construction_errors_come_in_a_fixed_order(
    leq, changes, error, witness, message, bounds_returning
):
    build = functools.partial(FiniteLattice, leq)
    if leq is None:
        c6 = cyclic_group(6)
        lat = subgroup_lattice(c6)
        assert (lat.meet, lat.join) == (boolean_lattice(2).meet, boolean_lattice(2).join)
        bounds_returning(lat, **b2_tables(*changes))
        build = functools.partial(subgroup_lattice, c6)
    with pytest.raises(error, match=message) as err:
        build()
    assert err.value.witness == witness


# sets with no lattice under inclusion, and the lattice {0, 01, 02, 012}
# whose two middle sets meet in the bottom although they intersect in {0}
SET_FAMILY_FAILURES = {
    "repeated-set": ([0b000, 0b001, 0b010, 0b001, 0b011], NotPartialOrder, (1, 3),
                     r"not antisymmetric at \(1,3\)"),
    "no-top": ([0b00, 0b01, 0b10], NoJoin, (1, 2), "1,2 have no join"),
    "not-intersection-closed": ([0b000, 0b011, 0b101, 0b111], GlatticeError, (1, 2),
                                "elements 1,2 intersect in no member"),
}


@pytest.mark.parametrize("name", SET_FAMILY_FAILURES)
def test_set_family_failures(name):
    # the error, and its witness, of the leq construction on the inclusion
    # order, except on a lattice that is no closure system
    masks, error, witness, message = SET_FAMILY_FAILURES[name]
    with pytest.raises(error, match=message) as err:
        lattice_module.SetLattice(masks)
    assert type(err.value) is error and err.value.witness == witness
    inclusion = functools.partial(FiniteLattice, [[a & b == a for b in masks] for a in masks])
    if error is GlatticeError:
        assert inclusion().meet[1][2] == 0
    else:
        assert construction_outcome(inclusion) == (error, str(err.value), witness)


def test_construction_keeps_no_table():
    # one m x m table of pointers is m^2 * 8 bytes; the first build warms
    # the ring's index tables
    space = VectorSpace(DivisionRing.gf(2), 5)
    enumerate_subspaces(space)
    tracemalloc.start()
    try:
        lat = enumerate_subspaces(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.size == 374
    assert peak < lat.size**2 * 8
    assert "meet" not in vars(lat) and "join" not in vars(lat)
    assert lat.meet[1][2] == 0 and "meet" in vars(lat)


def test_covers_transitive_reduction():
    lat = chain_lattice(3)
    assert lat.covers() == [(0, 1), (1, 2)]
    b3 = boolean_lattice(3)
    assert len(b3.covers()) == 12


def test_label_and_payload_counts_must_match_the_order():
    leq = [[1, 1], [0, 1]]
    for field in ("labels", "payloads"):
        with pytest.raises(ShapeMismatch, match=f"1 {field} for 2 elements"):
            FiniteLattice(leq, **{field: ["only one"]})


# ---------------------------------------------------------------------------
# the tables read off the masks, against the cubic law check as an oracle


def reference_table_laws(meet, join):
    """Absorption and associativity on every pair and triple: the first
    failure as (law, x, y[, z]), or None.  Each (x, y) compares whole
    rows, z = 0..m-1, and walks z only when a row differs."""
    rng = range(len(meet))
    for x in rng:
        for y in rng:
            if meet[x][join[x][y]] != x or join[x][meet[x][y]] != x:
                return ("absorption", x, y)
    for x in rng:
        meet_x, join_x = meet[x], join[x]
        for y in rng:
            meet_xy, join_xy = meet[meet_x[y]], join[join_x[y]]
            if (
                list(meet_xy) == [meet_x[v] for v in meet[y]]
                and list(join_xy) == [join_x[v] for v in join[y]]
            ):
                continue
            for z in rng:
                if meet_xy[z] != meet_x[meet[y][z]]:
                    return ("meet associativity", x, y, z)
                if join_xy[z] != join_x[join[y][z]]:
                    return ("join associativity", x, y, z)
    return None


def reference_bounds(down, up):
    """Meet and join by one dictionary lookup per pair, meet first."""
    m = len(down)
    by_down = {down[x]: x for x in range(m)}
    by_up = {up[x]: x for x in range(m)}
    meet = [[None] * m for _ in range(m)]
    join = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            meet[x][y] = by_down.get(down[x] & down[y])
            if meet[x][y] is None:
                raise NoMeet("no meet", witness=(x, y))
            join[x][y] = by_up.get(up[x] & up[y])
            if join[x][y] is None:
                raise NoJoin("no join", witness=(x, y))
    return meet, join


def _subspace_lattice(p, k, n):
    return lambda: enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))


# the subspace lattices are those of test_lattice_tables_match_per_pair_reference
SMALL_FAMILY = {
    **{f"chain{m}": functools.partial(chain_lattice, m) for m in (1, 2, 3, 5, 8)},
    **{f"boolean{n}": functools.partial(boolean_lattice, n) for n in range(8)},
    **{
        f"L(GF({p}{f'^{k}' if k > 1 else ''})^{n})": _subspace_lattice(p, k, n)
        for p, k, n in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2),
                        (3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 3, 2), (3, 2, 2)]
    },
    "sub(S4)": lambda: subgroup_lattice(symmetric_group(4)),
    "sub(D6)": lambda: subgroup_lattice(dihedral_group(6)),
}
LARGE_FAMILY = {
    "boolean8": functools.partial(boolean_lattice, 8),
    "L(GF(3)^4)": _subspace_lattice(3, 1, 4),
}
FAMILY = {**SMALL_FAMILY, **LARGE_FAMILY}
# every lattice with an off-diagonal pair to corrupt
MUTATED = [name for name in FAMILY if name not in ("chain1", "boolean0")]


def corrupted(lat, which):
    """(meet, join, (x, y)): one entry of one table replaced by the other
    table's entry, at the first incomparable pair (else the last pair)."""
    leq = leq_matrix(lat)
    pairs = [(x, y) for x in range(lat.size) for y in range(x + 1, lat.size)]
    incomparable = [(x, y) for x, y in pairs if not leq[x][y] and not leq[y][x]]
    x, y = (incomparable or pairs[::-1])[0]
    meet = [list(row) for row in lat.meet]
    join = [list(row) for row in lat.join]
    if which == "meet":
        meet[x][y] = join[x][y]
    else:
        join[x][y] = meet[x][y]
    return meet, join, (x, y)


def mask_certificate_failure(table, masks):
    """The first pair (x, y) at which masks is not injective or
    masks[table[x][y]] != masks[x] & masks[y], or None.  With down-set
    masks this certifies a meet table, with up-set masks a join table
    (see FiniteLattice)."""
    m = len(masks)
    if len(set(masks)) != m:
        return next((x, y) for y in range(m) for x in range(y) if masks[x] == masks[y])
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            # a negative entry would index masks from the end
            if not 0 <= z < m or masks[z] != masks[x] & masks[y]:
                return (x, y)
    return None


@pytest.mark.parametrize("name", FAMILY)
def test_certified_tables_satisfy_the_lattice_laws(name):
    lat = FAMILY[name]()
    assert (lat.size > 128) == (name in LARGE_FAMILY)
    assert mask_certificate_failure(lat.meet, lat.down_masks) is None
    assert mask_certificate_failure(lat.join, lat.up_masks) is None
    assert reference_table_laws(lat.meet, lat.join) is None


@pytest.mark.parametrize("name", FAMILY)
def test_tables_match_the_bound_rows(name):
    # the meet of a set lattice is read as intersections of its sets; the
    # reference reads both tables off the down-set and up-set masks
    lat = FAMILY[name]()
    meet, join = meet_and_join_scan(lat.down_masks, lat.up_masks)
    assert lat.meet == tuple(map(tuple, meet))
    assert lat.join == tuple(map(tuple, join))
    assert (lat.masks == lat.down_masks) == name.startswith("chain")


@pytest.mark.parametrize("name", ["boolean3", "L(GF(3)^2)", "sub(S4)", "L(GF(3)^4)"])
def test_each_table_reads_only_its_own_masks(name):
    # construction has proved every bound, so the meet needs no up-set
    # mask and the join no down-set mask
    expected = FAMILY[name]()
    for table, other in (("meet", "up_masks"), ("join", "down_masks")):
        lat = FAMILY[name]()
        setattr(lat, other, None)
        assert getattr(lat, table) == getattr(expected, table)


def first_row_mismatch(lat, meet, join):
    """The comparison ``subgroup_lattice`` runs on its algebraic tables:
    every meet row against ``lat.meet``, then every join row against
    ``lat.join``, through ``_row_mismatch``; its first TableMismatch, or
    None."""
    for name, table in (("meet", meet), ("join", join)):
        for x, true_row in enumerate(getattr(lat, name)):
            error = lattice_module._row_mismatch(name, x, list(table[x]), list(true_row))
            if error is not None:
                return error
    return None


@pytest.mark.parametrize("which", ["meet", "join"])
@pytest.mark.parametrize("name", MUTATED)
def test_corrupted_supplied_table_rejected(name, which):
    lat = FAMILY[name]()
    assert (lat.size > 128) == (name in LARGE_FAMILY)
    assert first_row_mismatch(lat, lat.meet, lat.join) is None
    meet, join, pair = corrupted(lat, which)
    error = first_row_mismatch(lat, meet, join)
    assert isinstance(error, TableMismatch)
    assert error.witness == pair
    assert str(error).startswith(f"{which}[{pair[0]}][{pair[1]}] = ")


@pytest.mark.parametrize("which", ["meet", "join"])
@pytest.mark.parametrize("name", MUTATED)
def test_corrupted_bound_computation_rejected(name, which, bounds_returning):
    # FiniteLattice trusts its own bound computation; the mask certificate
    # that pins it in test_certified_tables_satisfy_the_lattice_laws must
    # catch a wrong entry there, at its pair
    lat = FAMILY[name]()
    meet, join, pair = corrupted(lat, which)
    bounds_returning(lat, meet, join)
    built = FiniteLattice(leq_matrix(lat))
    assert mask_certificate_failure(built.meet, built.down_masks) == (
        pair if which == "meet" else None
    )
    assert mask_certificate_failure(built.join, built.up_masks) == (
        pair if which == "join" else None
    )


@pytest.mark.parametrize("name", ["chain3", "boolean2", "boolean3", "L(GF(2)^2)", "L(GF(3)^2)"])
def test_certificate_rejects_every_single_entry_corruption(name):
    # every wrong value of every entry, out-of-range ones and the negative
    # aliases of the true value included
    lat = FAMILY[name]()
    m = lat.size
    masks = {"meet": lat.down_masks, "join": lat.up_masks}
    for which, x, y in itertools.product(("meet", "join"), range(m), range(m)):
        for value in range(-m, m + 1):
            table = [list(row) for row in getattr(lat, which)]
            if value == table[x][y]:
                continue
            table[x][y] = value
            assert mask_certificate_failure(table, masks[which]) == (x, y)


def test_law_check_passes_a_wrong_chain_table():
    # on 0 < 1 < 2, meet[1][0] = 1 keeps absorption and associativity
    lat = chain_lattice(3)
    meet = [list(row) for row in lat.meet]
    meet[1][0] = 1
    assert reference_table_laws(meet, lat.join) is None
    assert mask_certificate_failure(meet, lat.down_masks) == (1, 0)


def test_dual_tables_satisfy_the_laws_but_fail_the_certificate():
    lat = boolean_lattice(3)
    assert reference_table_laws(lat.join, lat.meet) is None
    assert mask_certificate_failure(lat.join, lat.down_masks) == (0, 1)
    assert mask_certificate_failure(lat.meet, lat.up_masks) == (0, 1)


def test_certificate_needs_injective_masks():
    # constant tables pass the identity on equal masks; injectivity rejects them
    assert mask_certificate_failure(((0, 0), (0, 0)), (1, 1)) == (0, 1)


def reference_partial_order_failure(leq):
    """The pairwise scan the masks replaced: (message, witness) of the
    first failure of reflexivity, then of antisymmetry or transitivity
    at the first pair in row-major order, with z the largest element
    that breaks transitivity; None for a partial order."""
    m = len(leq)
    for x in range(m):
        if not leq[x][x]:
            return f"not reflexive at {x}", (x,)
    for x in range(m):
        for y in range(m):
            if x != y and leq[x][y] and leq[y][x]:
                return f"not antisymmetric at ({x},{y})", (x, y)
            broken = [z for z in range(m) if leq[z][x] and not leq[z][y]]
            if leq[x][y] and broken:
                z = broken[-1]
                return f"not transitive: {z}<={x}<={y} but not {z}<={y}", (z, x, y)
    return None


def test_bounds_match_reference_on_every_small_order():
    # every relation on 1..4 labeled elements: the same partial-order
    # failure, the same tables, or the same error at the same first pair
    for m in range(1, 5):
        cells = list(itertools.product(range(m), repeat=2))
        for bits in range(1 << len(cells)):
            leq = [[False] * m for _ in range(m)]
            for b, (i, j) in enumerate(cells):
                leq[i][j] = bool(bits >> b & 1)
            failure = reference_partial_order_failure(leq)
            try:
                lat = FiniteLattice(leq)
            except NotPartialOrder as exc:
                assert (str(exc), exc.witness) == failure
                continue
            except (NoMeet, NoJoin) as exc:
                assert failure is None
                down = [sum(1 << y for y in range(m) if leq[y][x]) for x in range(m)]
                up = [sum(1 << x for x in range(m) if leq[y][x]) for y in range(m)]
                with pytest.raises(type(exc)) as err:
                    reference_bounds(down, up)
                assert err.value.witness == exc.witness
                continue
            assert failure is None
            assert leq_matrix(lat) == leq
            ref_meet, ref_join = reference_bounds(lat.down_masks, lat.up_masks)
            assert [list(r) for r in lat.meet] == ref_meet
            assert [list(r) for r in lat.join] == ref_join


@functools.cache
def small_posets():
    """Every partial order among the relations on 1..4 labeled elements
    that test_bounds_match_reference_on_every_small_order builds."""
    posets = []
    for m in range(1, 5):
        cells = list(itertools.product(range(m), repeat=2))
        for bits in range(1 << len(cells)):
            leq = [[False] * m for _ in range(m)]
            for b, (i, j) in enumerate(cells):
                leq[i][j] = bool(bits >> b & 1)
            if reference_partial_order_failure(leq) is None:
                posets.append(leq)
    return posets


def construction_outcome(build):
    """(exception type, message, witness) of what build() raises, or None."""
    try:
        build()
    except GlatticeError as exc:
        return type(exc), str(exc), exc.witness
    return None


def leq_matrix_masks(leq):
    """(down, up): the down-set and up-set masks of an leq matrix."""
    m = len(leq)
    return (
        [sum(1 << y for y in range(m) if leq[y][x]) for x in range(m)],
        [sum(1 << y for y in range(m) if leq[x][y]) for x in range(m)],
    )


def assert_construction_matches_scan(leq):
    """Construction fails as the scan of every meet and join row does:
    the same exception type, message and witness, or success on both;
    returns whether it succeeded."""
    outcome = construction_outcome(lambda: FiniteLattice(leq))
    assert outcome == construction_outcome(lambda: meet_and_join_scan(*leq_matrix_masks(leq)))
    return outcome is None


def test_meet_only_construction_matches_the_full_scan_on_every_small_poset():
    posets = small_posets()
    assert len(posets) == 1 + 3 + 19 + 219
    assert {assert_construction_matches_scan(leq) for leq in posets} == {True, False}


@pytest.mark.parametrize("name", FAMILY)
def test_meet_only_construction_matches_the_full_scan_on_the_family(name):
    assert assert_construction_matches_scan(leq_matrix(FAMILY[name]()))


def test_meet_only_construction_names_the_first_missing_join():
    # NO_TOP has every meet: the missing top sends construction to the full scan
    with pytest.raises(NoJoin, match="1,2 have no join") as err:
        FiniteLattice(NO_TOP)
    assert err.value.witness == (1, 2)
    # 3, 4 < 2 < 0, 1: 0 and 1 have no join, 3 and 4 no meet; the meet rows
    # alone stop at (3, 4), but (0, 1) comes first in row-major order
    leq = leq_from_pairs(5, [(2, 0), (2, 1), (3, 2), (4, 2), (3, 0), (3, 1), (4, 0), (4, 1)])
    with pytest.raises(NoJoin, match="0,1 have no join") as err:
        FiniteLattice(leq)
    assert err.value.witness == (0, 1)
    assert lattice_module._first_gap(leq_matrix_masks(leq)[0]) == (3, 4)


def test_bounds_reads_one_family_on_a_missing_bound():
    # the rescan after a missing bound reads each mask family on its own
    down, up = leq_matrix_masks(NO_BOUNDS)
    assert lattice_module._first_gap(down) == (0, 3)
    # 0 and 3 lack a join as well: their upper bounds 1 and 2 are incomparable
    assert lattice_module._first_gap(up) == (0, 3)


def full_row_major_gap(masks):
    """The first (x, y) over every ordered pair, row by row, whose
    intersection is no member, or None."""
    members = set(masks)
    for x, a in enumerate(masks):
        for y, b in enumerate(masks):
            if a & b not in members:
                return x, y
    return None


@pytest.mark.parametrize("seed", range(24))
def test_first_gap_matches_the_full_row_major_scan(seed):
    # a family closed under intersection (every subset of a few points, or
    # the down-sets of a chain), shuffled, with members dropped and random
    # sets added; the half scan finds the full scan's first gap
    rng = random.Random(seed)
    points = rng.randint(2, 6)
    if seed % 2:
        family = list(range(1 << points))
    else:
        family = [(1 << k) - 1 for k in range(points + 1)]
    rng.shuffle(family)
    for _ in range(rng.randint(1, len(family) // 2)):
        family.pop(rng.randrange(len(family)))
    for _ in range(rng.randint(1, 3)):
        family.insert(rng.randrange(len(family) + 1), rng.getrandbits(points))
    assert lattice_module._first_gap(family) == full_row_major_gap(family)


def reference_covers(leq):
    """Hasse edges by the pairwise definition: x < y with no z strictly
    between them."""
    m = len(leq)
    return [
        (x, y)
        for x in range(m)
        for y in range(m)
        if x != y and leq[x][y]
        and not any(leq[x][z] and leq[z][y] for z in range(m) if z not in (x, y))
    ]


@pytest.mark.parametrize("name", SMALL_FAMILY)
def test_covers_match_pairwise_definition(name):
    lat = SMALL_FAMILY[name]()
    assert lat.covers() == reference_covers(leq_matrix(lat))


# ---------------------------------------------------------------------------
# lattice automorphisms


def test_two_chain_has_one_automorphism():
    assert len(lattice_automorphism_group(chain_lattice(2))) == 1


def test_boolean_lattice_automorphisms_are_atom_permutations():
    lat = boolean_lattice(3)
    autos = lattice_automorphism_group(lat)
    # oracle: each permutation of the 3 atoms extends uniquely to subsets
    expected = set()
    for perm in itertools.permutations(range(3)):
        image = []
        for mask in range(8):
            out = 0
            for b in range(3):
                if mask >> b & 1:
                    out |= 1 << perm[b]
            image.append(out)
        expected.add(tuple(image))
    assert {a.perm for a in autos} == expected
    assert len(autos) == 6


def test_m3_diamond_automorphisms():
    # 0 below atoms 1,2,3 below top 4: automorphisms permute the atoms
    leq = leq_from_pairs(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    )
    lat = FiniteLattice(leq)
    autos = lattice_automorphism_group(lat)
    assert len(autos) == 6
    for a in autos:
        assert a.perm[0] == 0 and a.perm[4] == 4


def test_automorphism_group_closed():
    lat = boolean_lattice(3)
    autos = set(lattice_automorphism_group(lat))
    for a in autos:
        assert a.inverse() in autos
        for b in autos:
            assert a.compose(b) in autos


@pytest.mark.parametrize(
    "make",
    [lambda: boolean_lattice(3), lambda: enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 3))],
    ids=["boolean3", "gf2-dim3"],
)
def test_products_and_inverses_pass_the_full_check(make):
    # compose and inverse build their results unchecked; the checking
    # constructor must accept every one of them, with the same permutation
    lat = make()
    autos = lattice_automorphism_group(lat)
    for a in autos:
        inv = a.inverse()
        assert LatticeAutomorphism(lat, inv.perm) == inv
        assert a.compose(inv).is_identity() and inv.compose(a).is_identity()
        for b in autos:
            ab = a.compose(b)
            assert ab.perm == tuple(a.perm[b.perm[x]] for x in range(lat.size))
            assert LatticeAutomorphism(lat, ab.perm) == ab


def test_automorphisms_preserve_meet_and_join():
    lat = boolean_lattice(3)
    for phi in lattice_automorphism_group(lat):
        for x in range(lat.size):
            for y in range(lat.size):
                assert phi(lat.meet[x][y]) == lat.meet[phi(x)][phi(y)]
                assert phi(lat.join[x][y]) == lat.join[phi(x)][phi(y)]


def test_non_order_preserving_permutation_rejected():
    with pytest.raises(NotLatticeAutomorphism):
        LatticeAutomorphism(chain_lattice(2), (1, 0))


def test_automorphism_search_cap():
    with pytest.raises(TooLarge):
        lattice_automorphism_group(boolean_lattice(6))


def diamond(k):
    """M_k: the bottom 0, the atoms 1..k and the top k + 1."""
    top = k + 1
    pairs = [(0, top)] + [(0, a) for a in range(1, top)] + [(a, top) for a in range(1, top)]
    return FiniteLattice(leq_from_pairs(top + 1, pairs))


def test_search_returns_every_automorphism_of_m8():
    autos = lattice_automorphism_group(diamond(8))
    assert len(autos) == math.factorial(8) == len({a.perm for a in autos})


@pytest.mark.parametrize("k", [9, 38])
def test_search_refuses_a_group_past_the_cap_quickly(k):
    # M_k passes the 40-element cap, but has k! automorphisms: the search
    # stops once it has found more than 50,000 of them
    lat = diamond(k)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="found more than 50000 automorphisms"):
        lattice_automorphism_group(lat)
    assert time.perf_counter() - start < 1.0


def reference_order_violation(leq, row):
    """The pairwise scan the masks replaced: the first (x, y) in
    row-major order with leq[x][y] != leq[row[x]][row[y]], or None."""
    m = len(leq)
    for x in range(m):
        for y in range(m):
            if leq[x][y] != leq[row[x]][row[y]]:
                return (x, y)
    return None


PERMUTED = {
    "chain3": functools.partial(chain_lattice, 3),
    "M3": functools.partial(diamond, 3),
    "boolean2": functools.partial(boolean_lattice, 2),
}


@pytest.mark.parametrize("name", PERMUTED)
def test_order_checks_match_pairwise_scan(name):
    # axiom (3) on every map of the carrier to itself, the checking
    # constructor on every permutation: the same verdict and witness
    lat = PERMUTED[name]()
    leq = leq_matrix(lat)
    c2 = cyclic_group(2)
    identity = list(range(lat.size))
    for row in itertools.product(range(lat.size), repeat=lat.size):
        expected = reference_order_violation(leq, row)
        action = GLatticeAction(c2, lat, [identity, list(row)])
        assert check_axiom(action, 3) == (None if expected is None else (1, *expected))
        if len(set(row)) < lat.size:
            continue
        if expected is None:
            assert LatticeAutomorphism(lat, row).perm == row
            continue
        with pytest.raises(NotLatticeAutomorphism) as err:
            LatticeAutomorphism(lat, row)
        assert err.value.witness == expected
        assert str(err.value) == "order not preserved at ({},{})".format(*expected)


SEARCHED = {
    **{f"chain{m}": functools.partial(chain_lattice, m) for m in range(1, 6)},
    **{f"boolean{n}": functools.partial(boolean_lattice, n) for n in range(4)},
    "M3": functools.partial(diamond, 3),
    "L(GF(2)^2)": _subspace_lattice(2, 1, 2),
    "sub(S3)": lambda: subgroup_lattice(symmetric_group(3)),
}


@pytest.mark.parametrize("name", SEARCHED)
def test_search_matches_brute_force(name):
    lat = SEARCHED[name]()
    leq = leq_matrix(lat)
    brute = [
        perm
        for perm in itertools.permutations(range(lat.size))
        if reference_order_violation(leq, perm) is None
    ]
    assert [a.perm for a in search_automorphisms(lat)] == brute


# ---------------------------------------------------------------------------
# action validation and per-axiom mutation catches


def test_trivial_action_passes():
    lat = boolean_lattice(2)
    action = trivial_action(cyclic_group(3), lat)
    assert validate_glattice(action).ok


def test_conjugation_action_passes():
    assert validate_glattice(conjugation_glattice(symmetric_group(3))).ok


def test_axiom3_first_failure_with_witness():
    c2 = cyclic_group(2)
    action = GLatticeAction(c2, chain_lattice(2), [[0, 1], [1, 0]])
    report = validate_glattice(action)
    assert not report.ok and report.axiom == 3
    g, x, y = report.witness
    leq = leq_matrix(action.lattice)
    assert leq[x][y] != leq[action.table[g][x]][action.table[g][y]]


def test_each_axiom_individually_catchable():
    """Mutation tests: for every axiom there is a table its checker flags.

    For an honestly validated lattice, axioms (4)/(5) cannot fail while
    (1)-(3) hold (an order-automorphism preserves bounds), so those two
    are exercised through their dedicated checkers on tables that also
    break (3).
    """
    s3 = symmetric_group(3)
    conj = conjugation_glattice(s3)

    # axiom 1: overwrite one non-identity row with the identity permutation;
    # each row is still an automorphism, so 2-5 keep holding
    mutated = [list(row) for row in conj.table]
    target = next(
        g for g in range(1, s3.order)
        if conj.table[g] != tuple(range(conj.lattice.size))
    )
    mutated[target] = list(range(conj.lattice.size))
    bad1 = GLatticeAction(s3, conj.lattice, mutated)
    assert check_axiom(bad1, 1) is not None
    for k in (2, 3, 4, 5):
        assert check_axiom(bad1, k) is None
    assert validate_glattice(bad1).axiom == 1

    # axiom 2: identity row moved
    c2 = cyclic_group(2)
    lat = chain_lattice(2)
    bad2 = GLatticeAction(c2, lat, [[1, 0], [1, 0]])
    assert check_axiom(bad2, 2) is not None

    # axiom 3: order-reversing row (the first failure seen by validate)
    bad3 = GLatticeAction(c2, lat, [[0, 1], [1, 0]])
    assert check_axiom(bad3, 3) is not None
    assert validate_glattice(bad3).axiom == 3

    # axioms 4 and 5: swap bottom and top of the 2-atom Boolean lattice,
    # fixing the atoms: meets and joins of the atoms land wrong
    b2 = boolean_lattice(2)
    swap = [3, 1, 2, 0]
    bad45 = GLatticeAction(c2, b2, [list(range(4)), swap])
    w4 = check_axiom(bad45, 4)
    assert w4 is not None
    g, x, y = w4
    assert bad45.table[g][b2.meet[x][y]] != b2.meet[bad45.table[g][x]][bad45.table[g][y]]
    w5 = check_axiom(bad45, 5)
    assert w5 is not None


# every self-map of these lattices, as the second row of a C2 action
DIFFERENTIAL = {**PERMUTED, "L(GF(2)^2)": _subspace_lattice(2, 1, 2)}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_three_axioms_decide_all_five_on_every_self_map(name):
    # a row that passes (3) is an order automorphism, so it keeps every
    # meet and join: the three-axiom validator returns the five-axiom report
    lat = DIFFERENTIAL[name]()
    c2 = cyclic_group(2)
    identity = list(range(lat.size))
    passed = 0
    for row in itertools.product(range(lat.size), repeat=lat.size):
        action = GLatticeAction(c2, lat, [identity, list(row)])
        assert validate_glattice(action) == validate_all_five_axioms(action)
        if check_axiom(action, 3) is None:
            passed += 1
            assert check_axiom(action, 4) is None and check_axiom(action, 5) is None
    assert passed == len(lattice_automorphism_group(lat))


def _reference_actions():
    s3, c2, c3 = symmetric_group(3), cyclic_group(2), cyclic_group(3)
    conj = conjugation_glattice(s3)
    broken = [list(row) for row in conj.table]
    broken[1] = list(range(conj.lattice.size))
    b2 = boolean_lattice(2)
    yield trivial_action(c3, b2)
    yield conj
    yield GLatticeAction(s3, conj.lattice, broken)
    yield powerset_glattice(c3, [[(x + g) % 3 for x in range(3)] for g in range(3)])
    yield powerset_glattice(c2, [[0, 1], [1, 0]])
    yield GLatticeAction(c2, b2, [list(range(4)), [3, 1, 2, 0]])
    yield GLatticeAction(trivial_group(), chain_lattice(2), [[0, 0]])
    for p, k in ((2, 1), (3, 1), (2, 2)):
        yield induced_glattice(shift_rep(DivisionRing.gf(p, k)))


def test_three_axioms_decide_all_five_on_reference_actions():
    reports = [validate_glattice(action) for action in _reference_actions()]
    assert reports == [validate_all_five_axioms(action) for action in _reference_actions()]
    assert [report.axiom for report in reports] == [None, None, 1, None, None, 3, 2, None, None, None]


# ---------------------------------------------------------------------------
# homomorphism <-> action


def test_homomorphism_roundtrip_trivial():
    lat = boolean_lattice(2)
    c3 = cyclic_group(3)
    action = trivial_action(c3, lat)
    rho = homomorphism_from_action(action)
    assert all(rho[g].is_identity() for g in range(3))
    back = action_from_homomorphism(c3, lat, rho)
    assert back.table == action.table


def test_homomorphism_roundtrip_conjugation():
    action = conjugation_glattice(symmetric_group(3))
    rho = homomorphism_from_action(action)
    for g in range(6):
        for h in range(6):
            composed = rho[g].compose(rho[h])
            assert composed == rho[action.group.cayley[g][h]]
    back = action_from_homomorphism(action.group, action.lattice, rho)
    assert back.table == action.table


@pytest.mark.parametrize("atoms", [3, 2], ids=["larger-lattice", "equal-copy"])
def test_homomorphism_onto_another_lattice_is_refused(atoms):
    # rho acts on one boolean_lattice(2); the lattice argument is another
    # lattice, larger or built the same way
    lat = boolean_lattice(2)
    rho = {0: identity_automorphism(lat), 1: LatticeAutomorphism(lat, (0, 2, 1, 3))}
    with pytest.raises(ShapeMismatch, match="automorphisms of different lattices"):
        action_from_homomorphism(cyclic_group(2), boolean_lattice(atoms), rho)


def test_not_homomorphism_rejected():
    lat = boolean_lattice(2)
    c2 = cyclic_group(2)
    swap_atoms = LatticeAutomorphism(lat, (0, 2, 1, 3))
    rho = {0: identity_automorphism(lat), 1: swap_atoms}
    # rho(a)rho(a) = id = rho(e): fine; now break it
    bad = {0: swap_atoms, 1: swap_atoms}
    with pytest.raises(NotHomomorphism):
        action_from_homomorphism(c2, lat, bad)
    ok = action_from_homomorphism(c2, lat, rho)
    assert validate_glattice(ok).ok


def outcome(build):
    """What build() gives: its result, or the type, message and witness
    of the GlatticeError it raises."""
    try:
        return build()
    except GlatticeError as exc:
        return type(exc), str(exc), exc.witness


HOMOMORPHISM_BASES = {
    "conj(S3)": lambda: conjugation_glattice(symmetric_group(3)),
    "atoms(B3)": lambda: powerset_glattice(
        symmetric_group(3), [list(p) for p in sorted(itertools.permutations(range(3)))]
    ),
}


@pytest.mark.parametrize("name", HOMOMORPHISM_BASES)
def test_homomorphism_failures_match_the_pairwise_composition(name):
    # rho with one value replaced by each automorphism in turn, or by one of
    # another lattice: the first failing pair is the one rho(g)rho(h) =
    # rho(gh), composed pair by pair, names
    action = HOMOMORPHISM_BASES[name]()
    group, lat = action.group, action.lattice
    rho = homomorphism_from_action(action)
    stranger = identity_automorphism(FiniteLattice(leq_matrix(lat)))
    failures = set()
    for g in range(group.order):
        for a in [*lattice_automorphism_group(lat), stranger]:
            tampered = {**rho, g: a}
            expected = outcome(lambda: oracles.check_homomorphism(group, tampered))
            got = outcome(lambda: action_from_homomorphism(group, lat, tampered))
            if expected is None:
                assert got.table == tuple(a.perm for a in tampered.values())
            else:
                assert got == expected
                failures.add(expected[1].split("(")[0])
    assert failures == {
        "identity must map to the identity automorphism", "rho", "automorphisms of different lattices"
    }


# ---------------------------------------------------------------------------
# power-set actions


def test_powerset_trivial_group():
    action = powerset_glattice(trivial_group(), [[0, 1]])
    assert action.lattice.size == 4
    assert validate_glattice(action).ok
    assert orbits(action) == [[0], [1], [2], [3]]


def test_powerset_c2_swap_orbits():
    c2 = cyclic_group(2)
    action = powerset_glattice(c2, [[0, 1], [1, 0]])
    # oracle: {} fixed, {a} <-> {b}, {a,b} fixed
    assert orbits(action) == [[0], [1, 2], [3]]


def test_powerset_c3_regular_fixed_subsets():
    c3 = cyclic_group(3)
    table = [[(x + g) % 3 for x in range(3)] for g in range(3)]
    action = powerset_glattice(c3, table)
    assert action.lattice.size == 8
    assert fixed_points(action) == [0, 7]  # only {} and X survive the shift


def test_powerset_rejects_non_gset():
    c2 = cyclic_group(2)
    # a acts as a 3-cycle, so a(a x) != (a a) x = x
    with pytest.raises(NotGSet):
        powerset_glattice(c2, [[0, 1, 2], [1, 2, 0]])
    # identity row broken
    with pytest.raises(NotGSet):
        powerset_glattice(c2, [[1, 0], [0, 1]])


GSETS = {
    "C3-shift": (cyclic_group(3), [[(x + g) % 3 for x in range(3)] for g in range(3)]),
    "S3-natural": (symmetric_group(3), [list(p) for p in sorted(itertools.permutations(range(3)))]),
    "C4-on-5": (cyclic_group(4), [[(x + g) % 4 for x in range(4)] + [4] for g in range(4)]),
}


@pytest.mark.parametrize("name", GSETS)
def test_gset_failures_match_the_pointwise_loops(name):
    # one row replaced by each bijection of the points in turn: the same
    # NotGSet, message and witness as the pointwise identity and
    # composition loops
    group, table = GSETS[name]
    failures = set()
    for g in range(group.order):
        for row in itertools.permutations(range(len(table[0]))):
            tampered = [*table[:g], list(row), *table[g + 1:]]
            expected = outcome(lambda: oracles.check_gset(group, tampered))
            got = outcome(lambda: powerset_glattice(group, tampered))
            if expected is None:
                assert isinstance(got, GLatticeAction)
            else:
                assert got == expected
                failures.add(expected[1].split(" ")[0])
    assert failures == {"identity", "g(hx)"}


def test_powerset_too_large():
    c2 = cyclic_group(2)
    with pytest.raises(TooLarge):
        powerset_glattice(c2, [list(range(17)), list(range(17))])


def test_powerset_one_point_past_the_cap_is_refused_at_once():
    # 12 points would take about 5 s to build; the cap is 11
    reversal = [list(range(12)), list(range(11, -1, -1))]
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        powerset_glattice(cyclic_group(2), reversal)
    assert time.perf_counter() - start < 1.0


def test_boolean_lattice_one_atom_past_the_cap_is_refused_at_once():
    # its order would take about 5 s to check; the refusal is the one
    # powerset_glattice gives
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^power-set lattice capped at 11 points"):
        boolean_lattice(12)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# orbits and DOT output


def test_orbits_partition():
    action = conjugation_glattice(symmetric_group(3))
    orbs = orbits(action)
    flat = sorted(i for o in orbs for i in o)
    assert flat == list(range(action.lattice.size))
    for orbit in orbs:
        for x in orbit:
            for g in range(action.group.order):
                assert action.table[g][x] in orbit


def test_hasse_dot_deterministic_and_reduced():
    lat = chain_lattice(3)
    dot = hasse_dot(lat)
    assert dot == hasse_dot(lat)
    assert "n0 -> n1;" in dot and "n1 -> n2;" in dot
    assert "n0 -> n2" not in dot  # transitive edge must be reduced away


def test_hasse_dot_orbit_colors():
    c2 = cyclic_group(2)
    action = powerset_glattice(c2, [[0, 1], [1, 0]])
    dot = hasse_dot(action.lattice, action)
    assert dot.count("fillcolor=") >= action.lattice.size
