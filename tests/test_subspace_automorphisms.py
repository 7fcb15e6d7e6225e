"""Automorphism groups of subspace lattices closed from generators.

The backtracking search (``search_automorphisms``) is the reference
wherever it finishes; beyond it the closed-form order, the full
``LatticeAutomorphism`` check and closure under ``compose`` are.
"""

import math
import random
import time

import pytest

import glattice.linalg as linalg_module
from glattice import (
    DivisionRing,
    LatticeAutomorphism,
    VectorSpace,
    enumerate_subspaces,
    lattice_automorphism_group,
    map_subspace,
)
from glattice.errors import GlatticeError, TooLarge
from glattice.lattice import search_automorphisms

from oracles import enumerate_sgl


def subspace_lattice(p, k, n):
    return enumerate_subspaces(VectorSpace(DivisionRing.gf(p, k), n))


@pytest.mark.parametrize(
    "p,k,n,order",
    [
        (2, 1, 1, 1),
        (2, 2, 1, 1),
        (2, 1, 2, 6),
        (3, 1, 2, 24),
        (2, 2, 2, 120),
        (5, 1, 2, 720),
        (2, 1, 3, 168),
    ],
    ids=["gf2-dim1", "gf4-dim1", "gf2-dim2", "gf3-dim2", "gf4-dim2", "gf5-dim2", "gf2-dim3"],
)
def test_closure_matches_the_backtracking_search(p, k, n, order):
    lattice = subspace_lattice(p, k, n)
    closed = lattice_automorphism_group(lattice)
    assert lattice.automorphism_order() == order
    assert [a.perm for a in closed] == [a.perm for a in search_automorphisms(lattice)]
    assert len(closed) == order


def test_closure_on_gf2_dim3_is_the_group_sgl_induces():
    # n >= 3: every automorphism comes from a semilinear map (PGL(3, 2) here)
    lattice = subspace_lattice(2, 1, 3)
    induced = {
        tuple(lattice.index_of(map_subspace(f, w)) for w in lattice.payloads)
        for f in enumerate_sgl(lattice.space)
    }
    assert {a.perm for a in lattice_automorphism_group(lattice)} == induced


def test_gf3_dim3_oracle():
    lattice = subspace_lattice(3, 1, 3)
    autos = lattice_automorphism_group(lattice)
    assert len(autos) == 5616 == len({a.perm for a in autos})
    perms = {a.perm for a in autos}
    for a in autos:
        assert LatticeAutomorphism(lattice, a.perm) == a
        assert a.inverse().perm in perms
    # closed under compose: every element after each generator and after a
    # seeded sample of elements (all 5616^2 products would take minutes)
    partners = lattice.automorphism_generators() + random.Random(10).sample(autos, 12)
    for a in autos:
        for b in partners:
            assert a.compose(b).perm in perms


def test_gf2_dim4_has_20160_automorphisms():
    lattice = subspace_lattice(2, 1, 4)
    autos = lattice_automorphism_group(lattice)
    assert len({a.perm for a in autos}) == len(autos) == 20160
    assert [a.perm for a in autos] == sorted(a.perm for a in autos)


def test_generators_pass_the_full_check_with_frobenius():
    # L(GF(4)^3) is past the cap, but its five generators (Frobenius the
    # fifth) are each built and checked
    lattice = subspace_lattice(2, 2, 3)
    gens = lattice.automorphism_generators()
    assert len({g.perm for g in gens}) == 5
    for g in gens:
        assert LatticeAutomorphism(lattice, g.perm) == g
    assert lattice.automorphism_order() == 120960


@pytest.mark.parametrize(
    "p,k,n,size,order",
    [(2, 3, 2, 11, math.factorial(9)), (37, 1, 2, 40, math.factorial(38)), (2, 2, 3, 44, 120960)],
    ids=["gf8-dim2", "gf37-dim2", "gf4-dim3"],
)
def test_large_automorphism_groups_refused_quickly(p, k, n, size, order):
    # gf8-dim2 and gf37-dim2 pass the 40-element search cap, which let them
    # backtrack over 9! and 38! permutations
    lattice = subspace_lattice(p, k, n)
    assert lattice.size == size and lattice.automorphism_order() == order
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        lattice_automorphism_group(lattice)
    assert time.perf_counter() - start < 1.0


def test_gf3_dim3_enumerated_within_one_second():
    lattice = subspace_lattice(3, 1, 3)
    start = time.perf_counter()
    autos = lattice_automorphism_group(lattice)
    elapsed = time.perf_counter() - start
    assert len(autos) == 5616
    assert elapsed < 1.0


def test_closure_count_is_checked(monkeypatch):
    lattice = subspace_lattice(3, 1, 2)
    # a wrong closed form, too small and too large
    for wrong in (23, 25):
        monkeypatch.setattr(lattice, "automorphism_order", lambda: wrong)
        with pytest.raises(GlatticeError, match="not the closed-form"):
            lattice_automorphism_group(lattice)
    monkeypatch.undo()
    # a generating set that falls short: the transposition alone
    transposition = lattice.automorphism_generators()[:1]
    monkeypatch.setattr(lattice, "automorphism_generators", lambda: transposition)
    with pytest.raises(GlatticeError, match="close to 2 automorphisms"):
        lattice_automorphism_group(lattice)


def test_cap_is_checked_before_any_generator(monkeypatch):
    lattice = subspace_lattice(2, 3, 2)

    def refuse():
        raise AssertionError("generators built past the cap")

    monkeypatch.setattr(lattice, "automorphism_generators", refuse)
    with pytest.raises(TooLarge):
        lattice_automorphism_group(lattice)
    monkeypatch.setattr(linalg_module, "_AUT_GROUP_LIMIT", math.factorial(9))
    with pytest.raises(AssertionError):
        lattice_automorphism_group(lattice)
