"""Parsers for the JSON input dialect used by the CLI.

Literal forms:

* ring:    {"ring": "gf", "p": 3}
           {"ring": "gf", "p": 2, "k": 2, "modulus": [1, 1, 1]}
           {"ring": "q"}            the rationals
           {"ring": "quat"}         rational quaternions
  The modulus is little-endian (constant coefficient first), length k+1,
  monic.  Omitting it selects the canonical smallest irreducible.
* scalar:  integer | "n/d" string | 4-element list (quaternions) |
           coefficient list (extension fields); list entries are
           integers or strings
  Integer fields (p, k, n, dim, frob, modulus coefficients) take JSON
  integers only: no booleans, fractions or digit strings.
* group:   {"group": "cyclic", "n": 3} | {"group": "sym", "n": 3} |
           {"group": "dihedral", "n": 4} | {"group": "table", "cayley": [[...]]}
* lattice: {"leq": [[...]]} | {"space": {"ring": ..., "dim": n}}
* action file:  {"group": ..., "lattice": ..., "action": [[...]]}
* factor system file:  {"group": ..., "ring": ...,
                        "chi": {"a": {"frob": 1}}, "bracket": {"a,a": "2"}}
  with omitted chi/bracket entries defaulting to the identity / 1.
  Bracket keys are "label,label" pairs; labels follow the group's
  display labels ("1", "a", "a^2", ... for cyclic groups).

Command-line micro-syntax: --group cyclic:3 | sym:3 | dihedral:4,
--ring gf:q | q | quat (prime powers are factored automatically).
"""

from __future__ import annotations

import json
import math

from .errors import GlatticeError, ParseError, TooLarge
from .groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from .lattice import FiniteLattice, GLatticeAction
from .linalg import VectorSpace, enumerate_subspaces
from .scalar import _PRIME_LIMIT, DivisionRing, RingAutomorphism
from .extension import FactorSystem

# the order of S5, the largest symmetric preset
_PRESET_ORDER_LIMIT = 120


def _need(obj, key, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _need_int(obj, key, where):
    value = _need(obj, key, where)
    # not isinstance or int(): true, 2.7 and "3" are no JSON integers
    if type(value) is not int:
        raise ParseError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _optional(obj, key, kind, where):
    """An optional field: None when absent or null, else a ``kind`` (dict or list)."""
    value = obj.get(key)
    if value is not None and not isinstance(value, kind):
        noun = "an object" if kind is dict else "an array"
        raise ParseError(f"{where}: field {key!r} must be {noun}, got {value!r}")
    return value


def _need_table(obj, key, where):
    value = _need(obj, key, where)
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ParseError(f"{where}: field {key!r} must be an array of arrays, got {value!r}")
    return value


def parse_ring(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"ring literal must be an object, got {obj!r}")
    kind = _need(obj, "ring", "ring literal")
    try:
        if kind == "gf":
            p = _need_int(obj, "p", "ring literal")
            k = _need_int(obj, "k", "ring literal") if "k" in obj else 1
            modulus = _optional(obj, "modulus", list, "ring literal")
            if modulus and not all(type(c) is int for c in modulus):
                raise ParseError(f"ring literal: modulus {modulus!r} has a non-integer coefficient")
            return DivisionRing.gf(p, k, tuple(modulus) if modulus else None)
        if kind == "q":
            return DivisionRing.rationals()
        if kind == "quat":
            return DivisionRing.quaternions()
    except (ParseError, TooLarge):
        raise
    except GlatticeError as exc:
        raise ParseError(f"ring literal: {exc}") from exc
    raise ParseError(f"ring literal: unknown kind {kind!r}")


def parse_scalar(ring, lit):
    try:
        if isinstance(lit, str):
            if "/" in lit:
                return ring.scalar(lit)
            return ring.scalar(int(lit))
        # a bool is an int, and JSON true/false are no scalars
        if type(lit) is int:
            return ring.scalar(lit)
        if isinstance(lit, (list, tuple)) and all(type(c) in (int, str) for c in lit):
            return ring.scalar(lit)
    except (GlatticeError, ValueError) as exc:
        raise ParseError(f"scalar literal {lit!r}: {exc}") from exc
    raise ParseError(f"scalar literal {lit!r} not understood")


def _check_preset_order(order):
    """Refuse a preset before its order x order table is built."""
    if order > _PRESET_ORDER_LIMIT:
        raise TooLarge(f"group order {order} is above the preset cap {_PRESET_ORDER_LIMIT}")


def parse_group(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"group literal must be an object, got {obj!r}")
    kind = _need(obj, "group", "group literal")
    try:
        if kind == "cyclic":
            n = _need_int(obj, "n", "group literal")
            _check_preset_order(n)
            return cyclic_group(n)
        if kind == "sym":
            return symmetric_group(_need_int(obj, "n", "group literal"))
        if kind == "dihedral":
            n = _need_int(obj, "n", "group literal")
            _check_preset_order(2 * n)
            return dihedral_group(n)
        if kind == "table":
            return FiniteGroup(
                _need_table(obj, "cayley", "group literal"),
                labels=_optional(obj, "labels", list, "group literal"),
            )
    except (ParseError, TooLarge):
        raise
    except GlatticeError as exc:
        raise ParseError(f"group literal: {exc}") from exc
    raise ParseError(f"group literal: unknown kind {kind!r}")


def parse_group_spec(text):
    """cyclic:3 / sym:4 / dihedral:5 micro-syntax for flags."""
    name, _, arg = text.partition(":")
    if not arg:
        raise ParseError(f"group spec {text!r} needs a size, e.g. cyclic:3")
    try:
        n = int(arg)
    except ValueError:
        raise ParseError(f"group spec {text!r}: size is not an integer") from None
    return parse_group({"group": name, "n": n})


def _factor_prime_power(q):
    if q < 2:
        raise ParseError("field order must be >= 2")
    if q > _PRIME_LIMIT:
        raise TooLarge(f"field order {q} is above the cap 2^32")
    # the smallest divisor of q is at most isqrt(q), or q itself is prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise ParseError("field order must be a prime power")
    return p, k


def parse_ring_spec(text):
    """gf:9 / q / quat micro-syntax for flags."""
    if text == "q":
        return DivisionRing.rationals()
    if text == "quat":
        return DivisionRing.quaternions()
    name, _, arg = text.partition(":")
    if name == "gf" and arg:
        try:
            q = int(arg)
        except ValueError:
            raise ParseError(f"ring spec {text!r}: order is not an integer") from None
        p, k = _factor_prime_power(q)
        return DivisionRing.gf(p, k)
    raise ParseError(f"ring spec {text!r} not understood (gf:N, q, quat)")


def parse_theta(ring, lit):
    try:
        if lit in (None, "id", "identity"):
            return RingAutomorphism.identity(ring)
        if isinstance(lit, dict) and "frob" in lit:
            power = lit["frob"]
            if type(power) is not int:
                raise TypeError(f"frob power {power!r} is not an integer")
            return RingAutomorphism.frobenius(ring, power)
        if isinstance(lit, dict) and "inner" in lit:
            return RingAutomorphism.inner(parse_scalar(ring, lit["inner"]))
    except (GlatticeError, TypeError, ValueError) as exc:
        raise ParseError(f"theta literal {lit!r}: {exc}") from exc
    raise ParseError(f"theta literal {lit!r} not understood")


def parse_space(obj):
    if not isinstance(obj, dict):
        raise ParseError("space literal must be an object")
    ring = parse_ring(_need(obj, "ring", "space literal"))
    dim = _need_int(obj, "dim", "space literal")
    if dim < 1:
        raise ParseError(f"space literal: dim must be >= 1, got {dim}")
    return VectorSpace(ring, dim)


def parse_lattice(obj):
    if not isinstance(obj, dict):
        raise ParseError("lattice literal must be an object")
    if "space" in obj:
        return enumerate_subspaces(parse_space(obj["space"]))
    if "leq" in obj:
        leq = _need_table(obj, "leq", "lattice literal")
        for row in leq:
            for entry in row:
                if type(entry) not in (bool, int) or entry not in (0, 1):
                    raise ParseError(
                        f"lattice literal: leq entry {entry!r} is not 0, 1 or a boolean"
                    )
        labels = _optional(obj, "labels", list, "lattice literal")
        try:
            return FiniteLattice(leq, labels=labels)
        except GlatticeError as exc:
            raise ParseError(f"lattice literal: {exc}") from exc
    raise ParseError("lattice literal needs either 'leq' or 'space'")


def parse_action_file(obj):
    group = parse_group(_need(obj, "group", "action file"))
    lattice = parse_lattice(_need(obj, "lattice", "action file"))
    table = _need_table(obj, "action", "action file")
    try:
        return GLatticeAction(group, lattice, table)
    except GlatticeError as exc:
        raise ParseError(f"action file: {exc}") from exc


def parse_factor_system_file(obj):
    group = parse_group(_need(obj, "group", "factor system file"))
    ring = parse_ring(_need(obj, "ring", "factor system file"))
    chi = {}
    for label, lit in (_optional(obj, "chi", dict, "factor system file") or {}).items():
        chi[group.label_index(label)] = parse_theta(ring, lit)
    bracket = {}
    for key, lit in (_optional(obj, "bracket", dict, "factor system file") or {}).items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ParseError(f"bracket key {key!r} must be 'g,h'")
        g = group.label_index(parts[0].strip())
        h = group.label_index(parts[1].strip())
        bracket[(g, h)] = parse_scalar(ring, lit)
    try:
        return FactorSystem(group, ring, chi, bracket)
    except GlatticeError as exc:
        raise ParseError(f"factor system file: {exc}") from exc


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def scalar_to_json(a):
    ring = a.ring
    if ring.kind == "prime":
        return a.payload
    if ring.kind == "extension":
        return list(a.payload)
    if ring.kind == "rationals":
        return str(a.payload)
    return [str(c) for c in a.payload]
