"""Exact division-ring arithmetic.

Four scalar carriers are supported:

* ``GF(p)`` -- prime fields, residues stored as ints in ``[0, p)``.
* ``GF(p^k)`` -- extension fields, elements stored as little-endian
  coefficient tuples of length ``k`` over ``GF(p)``, reduced modulo a
  monic irreducible polynomial of degree ``k``.
* the rationals, stored as ``fractions.Fraction`` (always reduced,
  positive denominator).
* rational quaternions ``a + bi + cj + dk``, stored as 4-tuples of
  ``Fraction``; the one noncommutative carrier.

Everything is immutable and hashable; equality is decidable because
payloads are kept in canonical form.  No floating point is used anywhere.

Each ring spec is built once and interned: ``DivisionRing.gf`` (keyed by
``p``, ``k`` and the normalized modulus), ``rationals()`` and
``quaternions()`` return the same object for the same spec, so two rings
are equal exactly when they are identical and a ring check is an
identity test.

A ``GF(p^k)`` ring builds its arithmetic tables once, when it is
constructed: the payloads in enumeration order, their indices, and
exp/log tables over a primitive element g (the discrete-logarithm tables
behind Zech logarithms; Lidl & Niederreiter, *Finite Fields*).  The
powers of g are walked with the polynomial product and remainder, and
construction is refused unless they hit every nonzero payload exactly
once.  After that a product is ``exp[log a + log b]``, an inverse
``exp[-log a]`` and the Frobenius power ``x -> x^(p^j)`` is
``exp[log x * p^j mod (q - 1)]``; no polynomial arithmetic runs.  The
payload is still the coefficient tuple, so element order, sort order,
``repr`` and the JSON form are unchanged.

A prime field ``GF(p)`` with p <= 5000 builds the same exp/log tables on
the first call of ``log`` or ``exp``, walking powers with the residue
product.  ``log`` and ``exp`` are how callers write a unit of GF(q) as
an integer mod q - 1 (see the factor-system cochains in ``extension``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    DivisionByZero,
    GlatticeError,
    InfiniteAutomorphismGroup,
    InfiniteCarrier,
    RingMismatch,
    TooLarge,
)

PRIME = "prime"
EXTENSION = "extension"
RATIONALS = "rationals"
QUATERNIONS = "quaternions"

# refused before any trial division: primality testing runs up to sqrt(p),
# and an irreducible modulus is searched among p^k candidates
_PRIME_LIMIT = 2**32
_EXTENSION_ORDER_LIMIT = 5000
# exp/log tables hold 3(q - 1) entries; a prime field builds them on first
# use, and a GF(p^k) field computes on them, so the two caps agree
_LOG_TABLE_LIMIT = _EXTENSION_ORDER_LIMIT

_QUAT_ZERO = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
_QUAT_ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo m over GF(p); m must be nonzero."""
    a = list(_poly_trim(a))
    dm, inv_lead = len(m) - 1, pow(m[-1], p - 2, p)
    while len(a) > dm:
        coef, shift = (a[-1] * inv_lead) % p, len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * c) % p
        a = list(_poly_trim(a))
    return tuple(a)


def _digits(e, p, k):
    """The k little-endian base-p digits of e."""
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return tuple(out)


def _poly_is_irreducible(m, p):
    """Trial division against every monic polynomial of lower positive degree."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg):
        for body in itertools.product(range(p), repeat=d):
            cand = tuple(body) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


def smallest_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are ordered by the base-p encoding of their non-leading
    coefficients, so the choice is deterministic and reproducible.
    """
    for encoding in range(p**k):
        cand = _digits(encoding, p, k) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise GlatticeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# quaternion helpers, payloads are 4-tuples of Fraction


def _quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _quat_inv(a):
    norm = a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]
    return (a[0] / norm, -a[1] / norm, -a[2] / norm, -a[3] / norm)


# every ring built so far, keyed by its spec (kind, p, k, modulus); a field
# asked for without a modulus is also filed under modulus None
_INTERNED = {}


class DivisionRing:
    """A division ring specification: which carrier, and its parameters.

    Rings come from :meth:`gf`, :meth:`rationals` and :meth:`quaternions`,
    which intern them: one object per spec (including the modulus for
    extension fields), so rings compare by identity.  Instances are
    immutable; an extension field carries its arithmetic tables.
    """

    __slots__ = (
        "kind", "p", "k", "modulus", "_zero", "_one",
        "_elems", "_index", "_exp", "_log", "_autos", "_tables",
        "_inverses", "_frobenii",
    )

    def __init__(self, kind, p=None, k=None, modulus=None):
        self.kind = kind
        self.p = p
        self.k = k
        self.modulus = modulus
        if kind == PRIME:
            self._zero, self._one = 0, 1
        elif kind == EXTENSION:
            self._zero, self._one = (0,) * k, (1,) + (0,) * (k - 1)
        elif kind == RATIONALS:
            self._zero, self._one = Fraction(0), Fraction(1)
        else:
            self._zero, self._one = _QUAT_ZERO, _QUAT_ONE
        self._elems = self._index = self._exp = self._log = self._autos = None
        self._tables = self._inverses = self._frobenii = None
        if kind == EXTENSION:
            self._build_tables()

    def _build_tables(self):
        """Payloads by index, indices by payload, and exp/log over a generator
        whose powers are walked with the polynomial product."""
        p, k, m = self.p, self.k, self.modulus
        elems = [_digits(i, p, k) for i in range(p**k)]

        def times(x, g):
            prod = _poly_mod(_poly_mul(x, g, p), m, p)
            return prod + (0,) * (k - len(prod))

        self._build_logs(elems, times)
        self._elems = elems
        self._index = {a: i for i, a in enumerate(elems)}

    def _build_logs(self, elems, times):
        """exp/log tables over the first unit, in enumeration order, whose
        powers (walked with ``times``) return to 1 only after q - 1 steps;
        the powers must hit every unit exactly once."""
        n = len(elems) - 1
        one = elems[1]
        for g in elems[1:]:
            exp, x = [one], g
            while x != one and len(exp) < n:
                exp.append(x)
                x = times(x, g)
            if x == one and len(exp) == n:
                break
        else:
            raise GlatticeError(f"{self} has no element of order {n}")
        log = {a: i for i, a in enumerate(exp)}
        if len(log) != n or not all(a in log for a in elems[1:]):
            raise GlatticeError(f"the powers of {g!r} do not hit every unit of {self} once")
        self._exp = exp + exp  # exp[la + lb] needs no reduction mod q - 1
        self._log = log

    # -- constructors -------------------------------------------------

    @classmethod
    def _interned(cls, kind, p=None, k=None, modulus=None):
        spec = (kind, p, k, modulus)
        ring = _INTERNED.get(spec)
        if ring is None:
            ring = _INTERNED[spec] = cls(kind, p, k, modulus)
        return ring

    @classmethod
    def gf(cls, p, k=1, modulus=None):
        if p > _PRIME_LIMIT:
            raise TooLarge(f"characteristic {p} is above the cap 2^32")
        # an interned prime field already proved p prime
        if (PRIME, p, None, None) not in _INTERNED and not _is_prime(p):
            raise GlatticeError(f"{p} is not prime")
        if k == 1:
            if modulus is not None:
                raise GlatticeError("prime fields take no modulus")
            return cls._interned(PRIME, p)
        if k < 2:
            raise GlatticeError("extension degree must be >= 2")
        # p^k >= 2^k, so a degree past the cap's bit length is refused unevaluated
        if k > _EXTENSION_ORDER_LIMIT.bit_length() or p**k > _EXTENSION_ORDER_LIMIT:
            raise TooLarge(f"GF({p}^{k}) is above the cap of 5000 elements")
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise GlatticeError(
                    f"modulus must be monic of degree {k} (little-endian, length {k + 1})"
                )
        spec = (EXTENSION, p, k, modulus)
        ring = _INTERNED.get(spec)
        if ring is None:
            if modulus is None:
                modulus = smallest_irreducible(p, k)
            elif not _poly_is_irreducible(modulus, p):
                raise GlatticeError("modulus is reducible")
            ring = _INTERNED[spec] = cls._interned(EXTENSION, p, k, modulus)
        return ring

    @classmethod
    def rationals(cls):
        return cls._interned(RATIONALS)

    @classmethod
    def quaternions(cls):
        return cls._interned(QUATERNIONS)

    # -- structure ----------------------------------------------------

    def is_finite(self):
        return self.kind in (PRIME, EXTENSION)

    def is_commutative(self):
        return self.kind != QUATERNIONS

    @property
    def order(self):
        if self.kind == PRIME:
            return self.p
        if self.kind == EXTENSION:
            return self.p**self.k
        return None

    def __repr__(self):
        if self.kind == PRIME:
            return f"GF({self.p})"
        if self.kind == EXTENSION:
            return f"GF({self.p}^{self.k})"
        if self.kind == RATIONALS:
            return "QQ"
        return "HH(QQ)"

    # -- element construction ------------------------------------------

    def zero(self):
        return Scalar(self, self._zero)

    def one(self):
        return Scalar(self, self._one)

    def scalar(self, value):
        """Coerce ``value`` into an element of this ring.

        Accepts ints (residue / integer embedding), Fractions and
        fraction strings, coefficient sequences for extension fields,
        and 4-sequences for quaternions.
        """
        if isinstance(value, Scalar):
            if value.ring is not self:
                raise RingMismatch(f"scalar of {value.ring} used in {self}")
            return value
        if self.kind == PRIME:
            if isinstance(value, int):
                return Scalar(self, value % self.p)
        elif self.kind == EXTENSION:
            if isinstance(value, int):
                return self.from_index(value)
            if isinstance(value, (list, tuple)):
                if len(value) > self.k:
                    raise GlatticeError("coefficient vector longer than the degree")
                coeffs = tuple(int(c) % self.p for c in value)
                return Scalar(self, coeffs + (0,) * (self.k - len(coeffs)))
        elif self.kind == RATIONALS:
            if isinstance(value, (int, str, Fraction)):
                return Scalar(self, Fraction(value))
        elif self.kind == QUATERNIONS:
            if isinstance(value, (int, str, Fraction)):
                return Scalar(
                    self, (Fraction(value), Fraction(0), Fraction(0), Fraction(0))
                )
            if isinstance(value, (list, tuple)) and len(value) == 4:
                return Scalar(self, tuple(Fraction(c) for c in value))
        raise GlatticeError(f"cannot interpret {value!r} as an element of {self}")

    def from_index(self, i):
        """The i-th element in enumeration order (finite rings only)."""
        if self.kind == PRIME:
            return Scalar(self, i % self.p)
        if self.kind == EXTENSION:
            # little-endian base-p digits of i mod q
            return Scalar(self, self._elems[i % len(self._elems)])
        raise InfiniteCarrier(f"{self} is not enumerable")

    def elements(self):
        """All elements in a fixed deterministic order (finite rings only)."""
        if not self.is_finite():
            raise InfiniteCarrier(f"{self} is not enumerable")
        return [self.from_index(i) for i in range(self.order)]

    def units(self):
        """All nonzero elements, in enumeration order (finite rings only)."""
        return [a for a in self.elements() if not a.is_zero()]

    def has_log_tables(self):
        """Whether ``log`` and ``exp`` work: GF(q) with q <= 5000."""
        return self.is_finite() and self.order <= _LOG_TABLE_LIMIT

    def _log_tables(self):
        if self._log is None:
            if not self.is_finite():
                raise InfiniteCarrier(f"{self} has no discrete logarithms")
            if not self.has_log_tables():
                raise TooLarge(f"{self} has no exp/log tables (q <= {_LOG_TABLE_LIMIT} only)")
            p = self.p
            self._build_logs(range(p), lambda x, g: x * g % p)
        return self._exp, self._log

    def log(self, a):
        """The discrete logarithm of the unit a to the base ``exp(1)``, an
        int in [0, q - 1); ``exp(1)`` is the first unit of order q - 1 in
        enumeration order."""
        if a.ring is not self:
            raise RingMismatch(f"scalar of {a.ring} used in {self}")
        _, log = self._log_tables()
        if a.is_zero():
            raise DivisionByZero(f"logarithm of zero in {self}")
        return log[a.payload]

    def exp(self, i):
        """exp(1)^i, for any int i."""
        exp, log = self._log_tables()
        return Scalar(self, exp[i % len(log)])

    def _payloads_by_index(self):
        """The payloads of a finite ring in index order, and the index of
        each payload; on a prime field a residue is its own index."""
        if self.kind == PRIME:
            return range(self.p), range(self.p)
        return self._elems, self._index

    def _index_tables(self):
        """Addition and multiplication of a finite ring on element indices:
        ``add[a][b]`` is the index of a + b and ``mul[a][b]`` that of a * b.

        Built on first use and kept, q^2 entries each, so a caller asks
        only for small rings.
        """
        if self._tables is None:
            elems, index = self._payloads_by_index()
            self._tables = tuple(
                tuple(tuple(index[op(a, b)] for b in elems) for a in elems)
                for op in (self._add, self._mul)
            )
        return self._tables

    def _index_inverses(self):
        """Inversion of a finite ring on element indices: ``inv[a]`` is the
        index of 1/a, and ``inv[0]`` is 0, which no caller reads.

        Built on first use and kept, q entries.
        """
        if self._inverses is None:
            elems, index = self._payloads_by_index()
            self._inverses = (0,) + tuple(index[self._inv(a)] for a in elems[1:])
        return self._inverses

    def _frobenius_indices(self, j):
        """The Frobenius power x -> x^(p^j) of an extension field on element
        indices, as a tuple: entry a is the index of the image of element a.

        All k powers are built on first use and kept, q * k entries.
        """
        if self._frobenii is None:
            index, elems = self._index, self._elems
            self._frobenii = tuple(
                tuple(index[self._frobenius(a, i)] for a in elems) for i in range(self.k)
            )
        return self._frobenii[j]

    # -- payload arithmetic (internal) ----------------------------------

    def _add(self, a, b):
        if self.kind == PRIME:
            return (a + b) % self.p
        if self.kind == EXTENSION:
            return tuple((x + y) % self.p for x, y in zip(a, b))
        if self.kind == RATIONALS:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        if self.kind == PRIME:
            return (-a) % self.p
        if self.kind == EXTENSION:
            return tuple((-x) % self.p for x in a)
        if self.kind == RATIONALS:
            return -a
        return tuple(-x for x in a)

    def _mul(self, a, b):
        if self.kind == PRIME:
            return (a * b) % self.p
        if self.kind == EXTENSION:
            la, lb = self._log.get(a), self._log.get(b)
            if la is None or lb is None:
                return self._zero
            return self._exp[la + lb]
        if self.kind == RATIONALS:
            return a * b
        return _quat_mul(a, b)

    def _inv(self, a):
        if a == self._zero:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        if self.kind == EXTENSION:
            return self._exp[len(self._log) - self._log[a]]
        if self.kind == RATIONALS:
            return Fraction(1) / a
        return _quat_inv(a)

    def _frobenius(self, a, j):
        """x -> x^(p^j) on an extension field."""
        la = self._log.get(a)
        if la is None:
            return a
        return self._exp[la * self.p**j % len(self._log)]


class Scalar:
    """An element of a :class:`DivisionRing`, stored in canonical form."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerced(self, other):
        if isinstance(other, Scalar):
            if other.ring is not self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        return self.ring.scalar(other)

    def __add__(self, other):
        other = self._coerced(other)
        return Scalar(self.ring, self.ring._add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._coerced(other)
        return Scalar(self.ring, self.ring._add(self.payload, self.ring._neg(other.payload)))

    def __neg__(self):
        return Scalar(self.ring, self.ring._neg(self.payload))

    def __mul__(self, other):
        other = self._coerced(other)
        return Scalar(self.ring, self.ring._mul(self.payload, other.payload))

    def inverse(self):
        return Scalar(self.ring, self.ring._inv(self.payload))

    def is_zero(self):
        return self.payload == self.ring._zero

    def is_one(self):
        return self.payload == self.ring._one

    def is_central(self):
        """Whether the element commutes with everything in its ring."""
        if self.ring.kind != QUATERNIONS:
            return True
        return self.payload[1] == 0 and self.payload[2] == 0 and self.payload[3] == 0

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring is other.ring
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def sort_key(self):
        """A total order on elements of one ring, used for determinism."""
        if self.ring.kind == PRIME:
            return self.payload
        if self.ring.kind == EXTENSION:
            return self.ring._index[self.payload]
        return self.payload  # Fraction and tuples of Fractions order fine

    def index(self):
        """Enumeration index of this element (finite rings only)."""
        if not self.ring.is_finite():
            raise InfiniteCarrier(f"{self.ring} has no element indices")
        return self.sort_key()

    def __repr__(self):
        if self.ring.kind == PRIME:
            return str(self.payload)
        if self.ring.kind == EXTENSION:
            return "[" + ",".join(str(c) for c in self.payload) + "]"
        if self.ring.kind == RATIONALS:
            return str(self.payload)
        return "(" + ",".join(str(c) for c in self.payload) + ")"


# ---------------------------------------------------------------------------
# ring automorphisms

IDENTITY = "identity"
FROBENIUS = "frobenius"
INNER = "inner"


class RingAutomorphism:
    """A ring automorphism in canonical form.

    Three shapes exist: the identity (any ring), Frobenius powers
    ``x -> x^(p^j)`` on extension fields, and inner automorphisms
    ``x -> u x u^-1`` on the quaternions.  Construction normalizes:
    Frobenius power 0 collapses to the identity, inner units are scaled
    so the first nonzero coordinate is 1, and central units collapse to
    the identity.  Equality is therefore structural equality of maps.
    """

    __slots__ = ("ring", "kind", "power", "unit")

    def __init__(self, ring, kind, power=0, unit=None):
        self.ring = ring
        self.kind = kind
        self.power = power
        self.unit = unit

    @classmethod
    def identity(cls, ring):
        return cls(ring, IDENTITY)

    @classmethod
    def frobenius(cls, ring, j):
        if ring.kind != EXTENSION:
            raise GlatticeError("Frobenius automorphisms live on extension fields")
        j %= ring.k
        if j == 0:
            return cls.identity(ring)
        return cls(ring, FROBENIUS, power=j)

    @classmethod
    def inner(cls, unit):
        ring = unit.ring
        if ring.kind != QUATERNIONS:
            raise GlatticeError("inner automorphisms are only nontrivial on quaternions")
        if unit.is_zero():
            raise DivisionByZero("conjugation by zero")
        if unit.is_central():
            return cls.identity(ring)
        coords = unit.payload
        lead = next(c for c in coords if c != 0)
        normalized = tuple(c / lead for c in coords)
        return cls(ring, INNER, unit=Scalar(ring, normalized))

    def is_identity(self):
        return self.kind == IDENTITY

    def apply(self, a):
        if a.ring is not self.ring:
            raise RingMismatch(f"automorphism of {self.ring} applied to {a.ring} element")
        if self.kind == IDENTITY:
            return a
        if self.kind == FROBENIUS:
            return Scalar(self.ring, self.ring._frobenius(a.payload, self.power))
        return self.unit * a * self.unit.inverse()

    def __call__(self, a):
        return self.apply(a)

    def compose(self, other):
        """self after other: (self.compose(other))(a) == self(other(a))."""
        if self.ring is not other.ring:
            raise RingMismatch("automorphisms of different rings")
        if self.kind == IDENTITY:
            return other
        if other.kind == IDENTITY:
            return self
        if self.kind == FROBENIUS and other.kind == FROBENIUS:
            return RingAutomorphism.frobenius(self.ring, self.power + other.power)
        if self.kind == INNER and other.kind == INNER:
            return RingAutomorphism.inner(self.unit * other.unit)
        raise GlatticeError("cannot compose automorphisms of mixed shape")

    def inverse(self):
        if self.kind == IDENTITY:
            return self
        if self.kind == FROBENIUS:
            return RingAutomorphism.frobenius(self.ring, self.ring.k - self.power)
        return RingAutomorphism.inner(self.unit.inverse())

    def __eq__(self, other):
        return (
            isinstance(other, RingAutomorphism)
            and self.ring is other.ring
            and self.kind == other.kind
            and self.power == other.power
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.ring, self.kind, self.power, self.unit))

    def __repr__(self):
        if self.kind == IDENTITY:
            return "id"
        if self.kind == FROBENIUS:
            return f"frob^{self.power}"
        return f"inner({self.unit!r})"


def _verify_automorphism(phi):
    ring = phi.ring
    elems = ring.elements()
    for a in elems:
        for b in elems:
            if phi(a * b) != phi(a) * phi(b):
                raise GlatticeError(f"{phi!r} not multiplicative at ({a!r},{b!r})")
            if phi(a + b) != phi(a) + phi(b):
                raise GlatticeError(f"{phi!r} not additive at ({a!r},{b!r})")


def list_automorphisms(ring):
    """All ring automorphisms of a finite field, or [id] for the rationals.

    Finite fields return the full Galois group (Frobenius powers), each
    checked to be additive and multiplicative on every element pair; the
    check runs once per ring, and later calls get a fresh list of the
    checked maps.
    The rationals are rigid, so the singleton identity comes back.  The
    quaternions have a continuum of inner automorphisms and raise.
    """
    if ring.kind == PRIME:
        return [RingAutomorphism.identity(ring)]
    if ring.kind == EXTENSION:
        if ring._autos is None:
            autos = tuple(RingAutomorphism.frobenius(ring, j) for j in range(ring.k))
            for phi in autos:
                _verify_automorphism(phi)
            ring._autos = autos
        return list(ring._autos)
    if ring.kind == RATIONALS:
        return [RingAutomorphism.identity(ring)]
    raise InfiniteAutomorphismGroup(
        "the quaternions have infinitely many inner automorphisms"
    )
