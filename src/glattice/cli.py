"""Command-line front end.

Every command reads JSON, writes a stable-ordered JSON report (and
optionally a DOT file), and exits with 0 on success, 1 when a
verification fails (the report carries a replayable witness), or 2 on
malformed input.  Execution is single-threaded and deterministic.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .errors import GlatticeError, ParseError
from .extension import (
    build_extension,
    classify_extension,
    classify_up_to_equivalence,
    factor_system_from_rep,
    trivial_factor_system,
    validate_factor_system,
)
from .groups import cyclic_group, identify_group
from .jsonio import (
    load_json,
    parse_action_file,
    parse_factor_system_file,
    parse_group_spec,
    parse_lattice,
    parse_ring_spec,
    scalar_to_json,
)
from .lattice import hasse_dot, orbit_report, orbits, validate_glattice
from .linalg import (
    VectorSpace,
    enumerate_subspaces,
    gaussian_binomial,
    identity_matrix,
    mat_mul,
    subspace_refusal,
)
from .rep import RepClassification, induced_glattice, rep_from_matrices, validate_rep
from .scalar import DivisionRing
from .tgring import (
    TwistedGroupRing,
    is_algebra,
    regular_representation,
    validate_module_axioms,
)


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_dot(dot, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dot)


def _witness_json(witness):
    if witness is None:
        return None
    return [repr(w) if not isinstance(w, (int, str)) else w for w in witness]


# ---------------------------------------------------------------------------
# commands


def cmd_verify_action(args):
    action = parse_action_file(load_json(args.input))
    report = validate_glattice(action)
    payload = {
        "command": "verify-action",
        "ok": report.ok,
        "group_order": action.group.order,
        "lattice_size": action.lattice.size,
    }
    if report.ok:
        payload.update(orbit_report(action))
    else:
        payload["axiom"] = report.axiom
        payload["witness"] = list(report.witness)
        payload["message"] = report.message
    if args.dot:
        _write_dot(hasse_dot(action.lattice, action if report.ok else None), args.dot)
    _emit(payload, args.out)
    return 0 if report.ok else 1


def cmd_subspace_lattice(args):
    ring = parse_ring_spec(args.ring)
    if args.dim < 1:
        raise ParseError(f"--dim must be >= 1, got {args.dim}")
    space = VectorSpace(ring, args.dim)
    lattice = enumerate_subspaces(space)
    # a reduced basis has one row per dimension
    by_dim = collections.Counter(len(rows) for rows, _ in lattice._bases)
    payload = {
        "command": "subspace-lattice",
        "ok": True,
        "ring": repr(ring),
        "dim": args.dim,
        "size": lattice.size,
        "by_dimension": {str(k): v for k, v in sorted(by_dim.items())},
        "gaussian_binomials": {
            str(k): gaussian_binomial(args.dim, k, ring.order)
            for k in range(args.dim + 1)
        },
        "labels": list(lattice.labels),
    }
    if args.dot:
        _write_dot(hasse_dot(lattice), args.dot)
    _emit(payload, args.out)
    return 0


def cmd_orbit_report(args):
    action = parse_action_file(load_json(args.input))
    report = validate_glattice(action)
    if not report.ok:
        _emit(
            {
                "command": "orbit-report",
                "ok": False,
                "axiom": report.axiom,
                "witness": list(report.witness),
                "message": report.message,
            },
            args.out,
        )
        return 1
    payload = {"command": "orbit-report", "ok": True}
    payload.update(orbit_report(action))
    _emit(payload, args.out)
    return 0


def cmd_build_extension(args):
    fs = parse_factor_system_file(load_json(args.fs))
    report = validate_factor_system(fs)
    if not report.ok:
        _emit(
            {
                "command": "build-extension",
                "ok": False,
                "law": report.law,
                "witness": _witness_json(report.witness),
                "message": report.message,
            },
            args.out,
        )
        return 1
    ext = build_extension(fs)
    flags = classify_extension(fs)
    payload = {
        "command": "build-extension",
        "ok": True,
        "flags": dataclasses.asdict(flags),
        "finite": ext.is_finite,
    }
    if ext.is_finite:
        group, _ = ext.materialize()
        payload["order"] = group.order
        payload["group"] = identify_group(group)
    else:
        a2 = fs.ring.scalar(2)
        a3 = fs.ring.scalar(3)
        product = ext.multiply((a2, 1 % fs.group.order), (a3, 1 % fs.group.order))
        payload["sample_product"] = [
            scalar_to_json(product[0]),
            fs.group.labels[product[1]],
        ]
    _emit(payload, args.out)
    return 0


def cmd_classify_extensions(args):
    group = parse_group_spec(args.group)
    ring = parse_ring_spec(args.ring)
    classes = classify_up_to_equivalence(group, ring)
    names = []
    for cls in classes:
        ext = build_extension(cls[0])
        names.append(identify_group(ext.group))
    payload = {
        "command": "classify-extensions",
        "ok": True,
        "systems": sum(len(cls) for cls in classes),
        "classes": len(classes),
        "class_sizes": [len(cls) for cls in classes],
        "groups": names,
    }
    _emit(payload, args.out)
    return 0


def cmd_roundtrip(args):
    fs = parse_factor_system_file(load_json(args.fs))
    report = validate_factor_system(fs)
    if not report.ok:
        _emit(
            {
                "command": "roundtrip",
                "ok": False,
                "stage": "factor-system",
                "law": report.law,
                "witness": _witness_json(report.witness),
            },
            args.out,
        )
        return 1
    ext = build_extension(fs)
    flags = classify_extension(fs)
    payload = {
        "command": "roundtrip",
        "flags": dataclasses.asdict(flags),
        "finite": ext.is_finite,
    }
    if ext.is_finite:
        payload["extension_order"] = ext.group.order
        payload["extension_group"] = identify_group(ext.group)
    tgr = TwistedGroupRing(fs)
    verdict = is_algebra(tgr)
    payload["algebra"] = verdict.ok
    if not verdict.ok:
        payload["algebra_witness"] = str(verdict)
    if fs.ring.is_commutative():
        # raises unless rho's twists and cocycle are fs's chi and bracket
        rho = regular_representation(tgr)
        cocycle = {(g, h): x for g, row in enumerate(fs.bracket) for h, x in enumerate(row)}
        payload["regular_rep"] = RepClassification(flags.projective, flags.split, cocycle).kind
        payload["recovered_system_equal"] = True
        if fs.ring.is_finite() and subspace_refusal(fs.group.order, fs.ring.order) is None:
            action = induced_glattice(rho)
            payload["lattice_size"] = action.lattice.size
            payload["orbits"] = len(orbits(action))
    else:
        payload["regular_rep"] = "skipped (noncommutative carrier)"
    payload["ok"] = True
    _emit(payload, args.out)
    return 0


def _shift_rep_over(ring):
    group = cyclic_group(3)
    space = VectorSpace(ring, 3)
    one, zero = ring.one(), ring.zero()
    shift = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    return rep_from_matrices(
        group,
        space,
        {0: (identity_matrix(space), None), 1: (shift, None), 2: (mat_mul(shift, shift), None)},
    )


def cmd_example_c3(args):
    checks = {}
    rho = _shift_rep_over(DivisionRing.rationals())
    classification = validate_rep(rho)
    checks["rep_is_linear"] = classification.kind == "linear"

    fs = factor_system_from_rep(rho)
    flags = classify_extension(fs)
    checks["factor_system_trivial"] = fs == trivial_factor_system(
        fs.group, fs.ring
    )
    checks["extension_direct"] = flags.direct

    ext = build_extension(fs)
    q = fs.ring
    sample_ok = True
    values = [Fraction(2), Fraction(-3, 7), Fraction(5, 2)]
    for a in values:
        for b in values:
            for g in range(3):
                for h in range(3):
                    got = ext.multiply((q.scalar(a), g), (q.scalar(b), h))
                    want = (q.scalar(a * b), (g + h) % 3)
                    sample_ok = sample_ok and got == want
    checks["extension_is_direct_product_QxC3"] = sample_ok

    tgr = TwistedGroupRing(fs)
    reg = regular_representation(tgr)
    checks["regular_rep_matches_shift"] = reg.maps == rho.maps
    checks["twisted_ring_is_algebra"] = is_algebra(tgr).ok
    module_ok, _ = validate_module_axioms(tgr, rho)
    checks["module_laws_over_Q3"] = module_ok

    gf2 = DivisionRing.gf(2)
    rho2 = _shift_rep_over(gf2)
    action = induced_glattice(rho2)
    orbs = orbits(action)
    checks["gf2_lattice_size_16"] = action.lattice.size == 16
    checks["gf2_orbit_count_8"] = len(orbs) == 8

    ok = all(checks.values())
    payload = {"command": "example-c3", "ok": ok, "checks": checks}
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_hasse_dot(args):
    data = load_json(args.input)
    action = None
    if isinstance(data, dict) and "action" in data:
        action = parse_action_file(data)
        lattice = action.lattice
        if not validate_glattice(action).ok:
            action = None
    else:
        lattice = parse_lattice(data)
    dot = hasse_dot(lattice, action)
    if args.out:
        _write_dot(dot, args.out)
    else:
        sys.stdout.write(dot)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glattice",
        description="Exact group-lattice, representation, extension and "
        "twisted-group-ring computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-action", help="check the five action axioms")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_verify_action)

    p = sub.add_parser("subspace-lattice", help="enumerate L(GF(q)^n)")
    p.add_argument("--ring", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_subspace_lattice)

    p = sub.add_parser("orbit-report", help="orbit partition of an action")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit_report)

    p = sub.add_parser("build-extension", help="build and classify a Schreier extension")
    p.add_argument("--fs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_extension)

    p = sub.add_parser(
        "classify-extensions", help="count factor systems and equivalence classes"
    )
    p.add_argument("--group", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify_extensions)

    p = sub.add_parser(
        "roundtrip",
        help="factor system -> extension -> regular representation -> factor system",
    )
    p.add_argument("--fs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser(
        "example-c3", help="the cyclic-shift chain over the rationals and GF(2)"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_example_c3)

    p = sub.add_parser("hasse-dot", help="emit a Hasse diagram in DOT form")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hasse_dot)

    return parser


# built on first use and kept: building it costs about as much as a small
# command, and parsing leaves it unchanged
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"command": args.command, "ok": False, "error": str(exc)}, None)
        return 2
    except GlatticeError as exc:
        _emit(
            {
                "command": args.command,
                "ok": False,
                "error": str(exc),
                "witness": _witness_json(exc.witness),
            },
            None,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
