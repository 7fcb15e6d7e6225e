"""Regenerate the benchmark's input data and expected results.

    python3 glatbench/record_expected.py

Writes ``glatbench/data/inputs.json`` (the shift actions and the
enumerated factor systems the workloads turn into input files) and
``glatbench/data/expected.json`` (one observation per job name, taken
by running every job once, including all 720 automorphisms of
L(GF(5)^2) that the search workload samples from).  Run it only on a
commit whose outputs are the reference: every later run is checked
against these files byte for byte.
"""

import platform
import sys

import run
import workloads
from repeat import git_commit

CLASSIFY_PAIRS = [
    ("cyclic", 2, 2, 1), ("cyclic", 2, 3, 1), ("cyclic", 2, 2, 2), ("cyclic", 2, 5, 1),
    ("cyclic", 3, 2, 1), ("cyclic", 3, 3, 1), ("cyclic", 3, 2, 2), ("cyclic", 3, 5, 1),
    ("cyclic", 4, 2, 1), ("cyclic", 4, 3, 1), ("dihedral", 2, 3, 1),
]
TRANSPORT_PAIRS = [("cyclic", 2, 3, 1), ("cyclic", 3, 2, 2), ("cyclic", 2, 5, 1)]


def ring_literal(p, k):
    return {"ring": "gf", "p": p} if k == 1 else {"ring": "gf", "p": p, "k": k}


def fs_literal(glat, fs, group_lit, ring_lit):
    labels = fs.group.labels
    to_json = glat.jsonio.scalar_to_json
    literal = {"group": group_lit, "ring": ring_lit}
    chi = {labels[g]: {"frob": phi.power} for g, phi in enumerate(fs.chi) if not phi.is_identity()}
    if chi:
        literal["chi"] = chi
    literal["bracket"] = {
        f"{labels[g]},{labels[h]}": to_json(fs.bracket[g][h])
        for g in range(fs.group.order)
        for h in range(fs.group.order)
        if not fs.bracket[g][h].is_one()
    }
    if glat.jsonio.parse_factor_system_file(literal) != fs:
        raise SystemExit(f"factor system literal does not parse back: {literal}")
    return literal


def make_inputs(glat):
    shift_actions = {}
    for p in (2, 3):
        ring = glat.DivisionRing.gf(p)
        space = glat.VectorSpace(ring, 3)
        one, zero = ring.one(), ring.zero()
        shift = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
        rep = glat.rep_from_matrices(
            glat.cyclic_group(3),
            space,
            {0: glat.linalg.identity_map(space), 1: (shift, None),
             2: (glat.linalg.mat_mul(shift, shift), None)},
        )
        action = glat.induced_glattice(rep)
        shift_actions[f"shift-gf{p}"] = {
            "group": {"group": "cyclic", "n": 3},
            "lattice": {"space": {"ring": ring_literal(p, 1), "dim": 3}},
            "action": [list(row) for row in action.table],
        }

    systems, families = {}, {}
    for kind, n, p, k in CLASSIFY_PAIRS:
        group = {"cyclic": glat.cyclic_group, "dihedral": glat.dihedral_group}[kind](n)
        ring = glat.DivisionRing.gf(p, k)
        chis = [None]
        if (kind, n, p, k) == ("cyclic", 2, 2, 2):
            frob = glat.RingAutomorphism.frobenius(ring, 1)
            chis.append({0: glat.RingAutomorphism.identity(ring), 1: frob})
        for chi in chis:
            keys = []
            for fs in glat.enumerate_factor_systems(group, ring, chi):
                key = f"fs{len(systems):02d}"
                systems[key] = fs_literal(glat, fs, {"group": kind, "n": n}, ring_literal(p, k))
                keys.append(key)
            if chi is None and (kind, n, p, k) in TRANSPORT_PAIRS:
                families[f"{kind}:{n}/gf:{p ** k}"] = keys

    trivial_c3_gf4 = glat.trivial_factor_system(glat.cyclic_group(3), glat.DivisionRing.gf(2, 2))
    return {
        "shift_actions": shift_actions,
        "roundtrip_system": fs_literal(
            glat, trivial_c3_gf4, {"group": "cyclic", "n": 3}, ring_literal(2, 2)
        ),
        "classify_pairs": [[f"{kind}:{n}", f"gf:{p ** k}"] for kind, n, p, k in CLASSIFY_PAIRS],
        "systems": systems,
        "transport_families": families,
    }


def main():
    glat = run.import_glattice()
    data = make_inputs(glat)
    run.write_data(run.INPUTS_PATH, data)
    results = {}
    with run.work_dir("record") as work:
        for name in workloads.SETUPS:
            jobs = workloads.SETUPS[name](glat, data, None, work, None)
            for job in jobs:
                if job.name in results:
                    continue
                results[job.name] = run.normalized(job.run(run.NO_SPANS))
                print(f"{name}: {job.name}", file=sys.stderr)
    run.write_data(
        run.EXPECTED_PATH,
        {
            "commit": git_commit(),
            "python": platform.python_version(),
            "results": results,
        },
    )
    print(f"recorded {len(results)} expected results", file=sys.stderr)


if __name__ == "__main__":
    main()
