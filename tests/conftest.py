import sys

import pytest

import glattice.groups
import glattice.lattice
import oracles
from glattice import (
    DivisionRing,
    SemilinearMap,
    SemilinearProjectiveRep,
    VectorSpace,
    cyclic_group,
)
from glattice.lattice import GLatticeAction, orbits, validate_glattice
from glattice.linalg import identity_map


@pytest.fixture(scope="session")
def gf2():
    return DivisionRing.gf(2)


@pytest.fixture(scope="session")
def gf3():
    return DivisionRing.gf(3)


@pytest.fixture(scope="session")
def gf4():
    return DivisionRing.gf(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return DivisionRing.gf(5)


@pytest.fixture(scope="session")
def rationals():
    return DivisionRing.rationals()


@pytest.fixture(scope="session")
def quaternions():
    return DivisionRing.quaternions()


# the builders that return their action unvalidated, by a theorem
# stated in their docstrings
UNVALIDATED_BUILDERS = (
    glattice.lattice.powerset_glattice.__code__,
    glattice.groups.conjugation_glattice.__code__,
)


@pytest.fixture(autouse=True)
def orbits_match_the_search():
    """Every valid action a test builds has the orbits that
    ``oracles.orbits_by_search`` finds, and every action that
    ``powerset_glattice`` or ``conjugation_glattice`` builds is valid;
    checked once the test is done, after the test's own patches are
    undone."""
    built = []
    init = GLatticeAction.__init__

    def recording(self, group, lattice, table):
        init(self, group, lattice, table)
        built.append((self, sys._getframe(1).f_code in UNVALIDATED_BUILDERS))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GLatticeAction, "__init__", recording)
        yield
    for action, unvalidated in built:
        report = validate_glattice(action)
        assert report.ok or not unvalidated, (action, report)
        if report.ok:
            assert orbits(action) == oracles.orbits_by_search(action), action


@pytest.fixture
def bounds_returning(monkeypatch):
    """Make the bound reader yield the rows of the given meet table when
    it reads the sets or the down-set masks of ``lat``, and of the given
    join table when it reads its up-set masks."""

    def install(lat, meet, join):
        reader = glattice.lattice._bound_rows
        tables = {lat.masks: meet, lat.down_masks: meet, lat.up_masks: join}

        def rows(masks):
            table = tables.get(tuple(masks))
            return reader(masks) if table is None else (list(row) for row in table)

        monkeypatch.setattr(glattice.lattice, "_bound_rows", rows)

    return install


def shift_rep(ring):
    """The cyclic-shift representation of C3 on K^3: a(x,y,z) = (z,x,y)."""
    group = cyclic_group(3)
    space = VectorSpace(ring, 3)
    one, zero = ring.one(), ring.zero()
    shift = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    m = SemilinearMap(space, shift)
    return SemilinearProjectiveRep(
        group, space, {0: identity_map(space), 1: m, 2: m.compose(m)}
    )


@pytest.fixture(scope="session")
def shift_rep_gf2(gf2):
    return shift_rep(gf2)


@pytest.fixture(scope="session")
def shift_rep_gf3(gf3):
    return shift_rep(gf3)


@pytest.fixture(scope="session")
def shift_rep_q(rationals):
    return shift_rep(rationals)
