"""Parsers for the JSON input dialect used by the CLI.

Literal forms:

* ring:    {"ring": "gf", "p": 3}
           {"ring": "gf", "p": 2, "k": 2, "modulus": [1, 1, 1]}
           {"ring": "q"}            the rationals
           {"ring": "quat"}         rational quaternions
  The modulus is little-endian (constant coefficient first), length k+1,
  monic.  Omitting it selects the canonical smallest irreducible.
* scalar:  integer | "n/d" string | 4-element list (quaternions) |
           coefficient list (extension fields)
* group:   {"group": "cyclic", "n": 3} | {"group": "sym", "n": 3} |
           {"group": "dihedral", "n": 4} | {"group": "table", "cayley": [[...]]}
* lattice: {"leq": [[...]]} | {"space": {"ring": ..., "dim": n}}
* action file:  {"group": ..., "lattice": ..., "action": [[...]]}
* rep file:     {"group": ..., "space": {"ring":..., "dim":...},
                 "rep": [{"g": "a", "matrix": [[...]], "theta": {"frob": 1}}, ...]}
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

from .errors import GlatticeError, ParseError
from .groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from .lattice import FiniteLattice, GLatticeAction
from .linalg import VectorSpace, enumerate_subspaces
from .rep import rep_from_matrices
from .scalar import DivisionRing, RingAutomorphism
from .extension import FactorSystem


def _need(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def parse_ring(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"ring literal must be an object, got {obj!r}")
    kind = _need(obj, "ring", "ring literal")
    try:
        if kind == "gf":
            p = _need(obj, "p", "ring literal")
            k = obj.get("k", 1)
            modulus = obj.get("modulus")
            return DivisionRing.gf(p, k, tuple(modulus) if modulus else None)
        if kind == "q":
            return DivisionRing.rationals()
        if kind == "quat":
            return DivisionRing.quaternions()
    except GlatticeError as exc:
        raise ParseError(f"ring literal: {exc}") from exc
    raise ParseError(f"ring literal: unknown kind {kind!r}")


def parse_scalar(ring, lit):
    try:
        if isinstance(lit, str):
            if "/" in lit:
                return ring.scalar(lit)
            return ring.scalar(int(lit))
        if isinstance(lit, (int, list, tuple)):
            return ring.scalar(lit)
    except (GlatticeError, ValueError) as exc:
        raise ParseError(f"scalar literal {lit!r}: {exc}") from exc
    raise ParseError(f"scalar literal {lit!r} not understood")


def parse_group(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"group literal must be an object, got {obj!r}")
    kind = _need(obj, "group", "group literal")
    try:
        if kind == "cyclic":
            return cyclic_group(int(_need(obj, "n", "group literal")))
        if kind == "sym":
            return symmetric_group(int(_need(obj, "n", "group literal")))
        if kind == "dihedral":
            return dihedral_group(int(_need(obj, "n", "group literal")))
        if kind == "table":
            return FiniteGroup(
                _need(obj, "cayley", "group literal"), labels=obj.get("labels")
            )
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
            return RingAutomorphism.frobenius(ring, int(lit["frob"]))
        if isinstance(lit, dict) and "inner" in lit:
            return RingAutomorphism.inner(parse_scalar(ring, lit["inner"]))
    except GlatticeError as exc:
        raise ParseError(f"theta literal {lit!r}: {exc}") from exc
    raise ParseError(f"theta literal {lit!r} not understood")


def parse_matrix(space, rows):
    if not isinstance(rows, list) or len(rows) != space.dim:
        raise ParseError(f"matrix must be a {space.dim}x{space.dim} array")
    return tuple(
        tuple(parse_scalar(space.ring, x) for x in row) for row in rows
    )


def parse_vector(space, coords):
    if not isinstance(coords, list) or len(coords) != space.dim:
        raise ParseError(f"vector must have {space.dim} coordinates")
    return tuple(parse_scalar(space.ring, x) for x in coords)


def parse_space(obj):
    if not isinstance(obj, dict):
        raise ParseError("space literal must be an object")
    ring = parse_ring(_need(obj, "ring", "space literal"))
    return VectorSpace(ring, int(_need(obj, "dim", "space literal")))


def parse_lattice(obj):
    if not isinstance(obj, dict):
        raise ParseError("lattice literal must be an object")
    if "space" in obj:
        return enumerate_subspaces(parse_space(obj["space"]))
    if "leq" in obj:
        try:
            return FiniteLattice(obj["leq"], labels=obj.get("labels"))
        except GlatticeError as exc:
            raise ParseError(f"lattice literal: {exc}") from exc
    raise ParseError("lattice literal needs either 'leq' or 'space'")


def parse_action_file(obj):
    group = parse_group(_need(obj, "group", "action file"))
    lattice = parse_lattice(_need(obj, "lattice", "action file"))
    table = _need(obj, "action", "action file")
    try:
        return GLatticeAction(group, lattice, table)
    except GlatticeError as exc:
        raise ParseError(f"action file: {exc}") from exc


def parse_rep_file(obj):
    group = parse_group(_need(obj, "group", "rep file"))
    space = parse_space(_need(obj, "space", "rep file"))
    entries = _need(obj, "rep", "rep file")
    assignment = {}
    for entry in entries:
        g = group.label_index(str(_need(entry, "g", "rep entry")))
        matrix = parse_matrix(space, _need(entry, "matrix", "rep entry"))
        theta = parse_theta(space.ring, entry.get("theta"))
        assignment[g] = (matrix, theta)
    missing = [g for g in range(group.order) if g not in assignment]
    if missing:
        raise ParseError(f"rep file: no matrix for elements {missing}")
    try:
        return rep_from_matrices(group, space, assignment)
    except GlatticeError as exc:
        raise ParseError(f"rep file: {exc}") from exc


def parse_factor_system_file(obj):
    group = parse_group(_need(obj, "group", "factor system file"))
    ring = parse_ring(_need(obj, "ring", "factor system file"))
    chi = {}
    for label, lit in (obj.get("chi") or {}).items():
        chi[group.label_index(label)] = parse_theta(ring, lit)
    bracket = {}
    for key, lit in (obj.get("bracket") or {}).items():
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
