"""Ring arithmetic against independent oracles, plus the ring axioms."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from glattice import (
    DivisionRing,
    RingAutomorphism,
    list_automorphisms,
)
from glattice.errors import (
    DivisionByZero,
    GlatticeError,
    InfiniteAutomorphismGroup,
    InfiniteCarrier,
    RingMismatch,
    TooLarge,
)
from glattice.scalar import EXTENSION, _poly_mod, _poly_mul

# ---------------------------------------------------------------------------
# oracles

# full multiplication table on the quaternion units, written out by hand:
# rows * columns, entries as (sign, symbol) with symbols 1,i,j,k
_UNIT_TABLE = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}

_SYMBOL_COORDS = {
    "1": (1, 0, 0, 0),
    "i": (0, 1, 0, 0),
    "j": (0, 0, 1, 0),
    "k": (0, 0, 0, 1),
}


def _poly_mod_oracle(poly, modulus, p):
    """Naive polynomial remainder, little-endian int lists, for cross-checks."""
    poly = list(poly)
    while len(poly) >= len(modulus):
        lead = poly[-1]
        if lead:
            shift = len(poly) - len(modulus)
            for i, c in enumerate(modulus):
                poly[shift + i] = (poly[shift + i] - lead * c) % p
        poly.pop()
    return tuple(poly)


# ---------------------------------------------------------------------------
# arithmetic examples


def test_gf3_times(gf3):
    assert gf3.scalar(2) * gf3.scalar(2) == gf3.scalar(1)  # 4 mod 3
    assert gf3.scalar(2) * 2 == gf3.scalar(1)  # the int is coerced into GF(3)


def test_ring_arithmetic_dispatch(gf5):
    a, b = gf5.scalar(3), gf5.scalar(4)
    assert a + b == gf5.scalar(2)
    assert a - b == gf5.scalar(4)
    assert -a == gf5.scalar(2)
    assert a.inverse() == gf5.scalar(2)  # 3*2 = 6 = 1
    phi = RingAutomorphism.identity(gf5)
    assert phi.apply(a) == a


def test_rational_inverse(rationals):
    a = rationals.scalar(Fraction(-3, 4))
    assert a.inverse() == rationals.scalar(Fraction(-4, 3))


def test_quaternion_unit_table(quaternions):
    for (s1, s2), (sign, s3) in _UNIT_TABLE.items():
        a = quaternions.scalar(_SYMBOL_COORDS[s1])
        b = quaternions.scalar(_SYMBOL_COORDS[s2])
        expected = quaternions.scalar(tuple(sign * c for c in _SYMBOL_COORDS[s3]))
        assert a * b == expected, f"{s1}*{s2}"


def test_quaternions_noncommutative_witness(quaternions):
    i = quaternions.scalar((0, 1, 0, 0))
    j = quaternions.scalar((0, 0, 1, 0))
    k = quaternions.scalar((0, 0, 0, 1))
    assert i * j == k
    assert j * i == -k


def test_gf4_frobenius_via_modulus_oracle(gf4):
    frob = RingAutomorphism.frobenius(gf4, 1)
    p = gf4.p
    for a in gf4.elements():
        squared = _poly_mod_oracle(
            [
                sum(
                    a.payload[i] * a.payload[n - i] if 0 <= n - i < gf4.k else 0
                    for i in range(max(0, n - gf4.k + 1), min(n, gf4.k - 1) + 1)
                )
                % p
                for n in range(2 * gf4.k - 1)
            ],
            list(gf4.modulus),
            p,
        )
        squared = squared + (0,) * (gf4.k - len(squared))
        assert frob(a).payload == squared
    omega = gf4.scalar(2)
    assert frob(omega) == omega * omega == omega + gf4.one()


def test_identity_automorphism_everywhere(gf3, gf4, rationals, quaternions):
    for ring in (gf3, gf4, rationals, quaternions):
        phi = RingAutomorphism.identity(ring)
        a = ring.scalar(1)
        assert phi(a) == a


def test_quaternion_inner_conjugation(quaternions):
    i = quaternions.scalar((0, 1, 0, 0))
    j = quaternions.scalar((0, 0, 1, 0))
    phi = RingAutomorphism.inner(i)
    assert phi(j) == i * j * i.inverse() == -j


# ---------------------------------------------------------------------------
# automorphism groups


def test_list_automorphisms_gf5(gf5):
    assert len(list_automorphisms(gf5)) == 1


def test_list_automorphisms_gf4_exhaustive(gf4):
    autos = list_automorphisms(gf4)
    assert len(autos) == 2
    # independent: count all bijections that preserve + and * (16 candidates
    # would be 4!, prune by fixing 0 and 1)
    elems = gf4.elements()
    count = 0
    for images in itertools.permutations(elems):
        table = dict(zip(elems, images))
        if table[gf4.zero()] != gf4.zero() or table[gf4.one()] != gf4.one():
            continue
        if all(
            table[a * b] == table[a] * table[b] and table[a + b] == table[a] + table[b]
            for a in elems
            for b in elems
        ):
            count += 1
    assert count == 2


def test_list_automorphisms_rationals(rationals):
    autos = list_automorphisms(rationals)
    assert len(autos) == 1 and autos[0].is_identity()


def test_list_automorphisms_quaternions_raises(quaternions):
    with pytest.raises(InfiniteAutomorphismGroup):
        list_automorphisms(quaternions)


def test_frobenius_power_composition():
    for ring in (DivisionRing.gf(2, 3), DivisionRing.gf(3, 2)):
        for j1 in range(ring.k):
            for j2 in range(ring.k):
                lhs = RingAutomorphism.frobenius(ring, j1).compose(
                    RingAutomorphism.frobenius(ring, j2)
                )
                assert lhs == RingAutomorphism.frobenius(ring, (j1 + j2) % ring.k)


def test_automorphisms_bijective_on_finite_rings():
    for ring in (DivisionRing.gf(7), DivisionRing.gf(2, 2), DivisionRing.gf(3, 2)):
        for phi in list_automorphisms(ring):
            images = {phi(a) for a in ring.elements()}
            assert len(images) == ring.order


def test_inner_normalization(quaternions):
    two = quaternions.scalar(2)
    assert RingAutomorphism.inner(two).is_identity()
    i = quaternions.scalar((0, 1, 0, 0))
    scaled = quaternions.scalar((0, Fraction(5, 3), 0, 0))
    assert RingAutomorphism.inner(i) == RingAutomorphism.inner(scaled)


# ---------------------------------------------------------------------------
# ring axioms, exhaustively on finite carriers


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(spec):
    p, k = spec
    ring = DivisionRing.gf(p, k)
    elems = ring.elements()
    zero, one = ring.zero(), ring.one()
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_quaternion_axioms_on_units_and_samples(quaternions):
    units = [
        quaternions.scalar(tuple(sign * c for c in coords))
        for coords in _SYMBOL_COORDS.values()
        for sign in (1, -1)
    ]
    for a in units:
        for b in units:
            for c in units:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


@st.composite
def rational_quaternions(draw):
    coords = tuple(
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in range(4)
    )
    return coords


@given(rational_quaternions(), rational_quaternions(), rational_quaternions())
def test_quaternion_laws_random(qa, qb, qc):
    ring = DivisionRing.quaternions()
    a, b, c = ring.scalar(qa), ring.scalar(qb), ring.scalar(qc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    if not a.is_zero():
        assert a * a.inverse() == ring.one()
        assert a.inverse() * a == ring.one()


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_rational_laws_random(x, y, z):
    ring = DivisionRing.rationals()
    a, b, c = ring.scalar(x), ring.scalar(y), ring.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a * b) * b.inverse() == a


# ---------------------------------------------------------------------------
# construction-time validation


def test_canonical_moduli():
    assert DivisionRing.gf(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert DivisionRing.gf(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert DivisionRing.gf(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_reducible_modulus_rejected():
    with pytest.raises(GlatticeError):
        DivisionRing.gf(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)


def test_nonprime_rejected():
    with pytest.raises(GlatticeError):
        DivisionRing.gf(6)


def test_field_order_caps():
    # refused before any primality test or irreducibility search
    for p, k, modulus in [
        (2**61 - 1, 1, None),  # a prime above 2^32
        (2, 13, None),  # 8192 elements
        (71, 2, (7, 0, 1)),  # 5041 elements, modulus given
        (2, 10**9, None),  # refused without forming 2^(10^9)
    ]:
        with pytest.raises(TooLarge):
            DivisionRing.gf(p, k, modulus)
    assert DivisionRing.gf(17, 3).order == 4913  # just inside the cap


def test_ring_mismatch(gf3, gf5):
    with pytest.raises(RingMismatch):
        gf3.scalar(1) + gf5.scalar(1)


def test_division_by_zero(gf3, quaternions):
    with pytest.raises(DivisionByZero):
        gf3.zero().inverse()
    with pytest.raises(DivisionByZero):
        quaternions.zero().inverse()


def test_infinite_carrier_guards(rationals):
    with pytest.raises(InfiniteCarrier):
        rationals.elements()


def test_canonical_payloads(rationals, quaternions):
    assert rationals.scalar("6/4").payload == Fraction(3, 2)
    a = quaternions.scalar((Fraction(2, 4), 0, 0, 0))
    assert a.payload[0] == Fraction(1, 2)
    assert a.is_central()


def test_element_enumeration_order(gf4):
    payloads = [a.payload for a in gf4.elements()]
    assert payloads == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [a.index() for a in gf4.elements()] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# table arithmetic against the polynomial reference, and interning


def _poly_product(ring, a, b):
    prod = _poly_mod(_poly_mul(a, b, ring.p), ring.modulus, ring.p)
    return prod + (0,) * (ring.k - len(prod))


@pytest.mark.parametrize(
    "p,k,modulus",
    [(2, 2, None), (2, 3, None), (3, 2, None), (3, 2, (2, 1, 1)), (2, 4, None),
     (5, 2, None), (3, 3, None), (2, 5, None), (7, 2, None), (2, 6, None)],
    ids=["gf4", "gf8", "gf9", "gf9-x2+x+2", "gf16", "gf25", "gf27", "gf32", "gf49", "gf64"],
)
def test_tables_match_polynomial_reference(p, k, modulus):
    ring = DivisionRing.gf(p, k, modulus)
    elems = ring.elements()
    one = ring.one().payload
    for a in elems:
        products = {b.payload: (a * b).payload for b in elems}
        assert products == {b.payload: _poly_product(ring, a.payload, b.payload) for b in elems}
        if not a.is_zero():
            solutions = [b for b in elems if _poly_product(ring, a.payload, b.payload) == one]
            assert solutions == [a.inverse()]
        power = a.payload
        for j in range(k):
            assert RingAutomorphism.frobenius(ring, j)(a).payload == power
            pth = one
            for _ in range(p):
                pth = _poly_product(ring, pth, power)
            power = pth
        assert power == a.payload  # x^(p^k) = x


def test_rings_are_interned():
    assert DivisionRing.gf(2, 2) is DivisionRing.gf(2, 2, modulus=(1, 1, 1))
    assert DivisionRing.gf(2, 2, modulus=[3, 1, 1]) is DivisionRing.gf(2, 2)
    assert DivisionRing.gf(5) is DivisionRing.gf(5)
    assert DivisionRing.gf(4294967291) is DivisionRing.gf(4294967291)  # largest prime below 2^32
    assert DivisionRing.rationals() is DivisionRing.rationals()
    assert DivisionRing.quaternions() is DivisionRing.quaternions()


def test_gf9_moduli_give_distinct_rings():
    plain = DivisionRing.gf(3, 2, modulus=(1, 0, 1))  # x^2 + 1
    other = DivisionRing.gf(3, 2, modulus=(2, 1, 1))  # x^2 + x + 2
    assert plain is DivisionRing.gf(3, 2) and plain is not other
    assert plain.scalar([0, 1]) != other.scalar([0, 1])
    with pytest.raises(RingMismatch):
        plain.scalar([0, 1]) * other.scalar([0, 1])
    with pytest.raises(RingMismatch):
        plain.scalar(other.one())


def test_reducible_modulus_refused_after_cache():
    DivisionRing.gf(2, 2)
    DivisionRing.gf(3, 2)
    with pytest.raises(GlatticeError):
        DivisionRing.gf(2, 2, modulus=(1, 0, 1))  # (x + 1)^2
    with pytest.raises(GlatticeError):
        DivisionRing.gf(3, 2, modulus=(2, 0, 1))  # (x + 1)(x + 2)


def test_tables_refuse_a_ring_without_a_primitive_element():
    # built directly, past gf's irreducibility test: GF(2)[x]/(x^2 + 1)
    with pytest.raises(GlatticeError):
        DivisionRing(EXTENSION, 2, 2, (1, 0, 1))


def test_list_automorphisms_checked_once_per_ring():
    ring = DivisionRing.gf(2, 6)
    first = list_automorphisms(ring)
    start = time.perf_counter()
    second = list_automorphisms(ring)
    assert time.perf_counter() - start < 0.1
    assert first == second and first is not second
    second.pop()
    assert list_automorphisms(ring) == first


@pytest.mark.parametrize(
    "p,k,modulus",
    [(2, 1, None), (7, 1, None), (2, 2, None), (2, 3, None), (3, 2, None), (3, 2, (2, 1, 1))],
    ids=["gf2", "gf7", "gf4", "gf8", "gf9", "gf9-x2+x+2"],
)
def test_index_inverse_and_frobenius_tables_match_scalars(p, k, modulus):
    ring = DivisionRing.gf(p, k, modulus)
    inv = ring._index_inverses()
    assert len(inv) == ring.order and ring._index_inverses() is inv
    for a in ring.units():
        assert ring.from_index(inv[a.index()]) == a.inverse()
    for theta in list_automorphisms(ring):
        if theta.is_identity():
            continue
        perm = ring._frobenius_indices(theta.power)
        assert [ring.from_index(b) for b in perm] == [theta(a) for a in ring.elements()]
