"""The benchmark's three workloads, as lists of jobs.

A job is a name and a function.  The function takes a ``calls`` object
and routes every library or CLI call through ``calls.call(name, fn,
*args)``, so the traced run can put a span (and the profiler) around
exactly those calls.  It returns a JSON-able observation; run.py
compares that with the recorded expected result for the job's name.

Each ``setup_*`` function takes a freshly imported ``glattice`` module,
the benchmark's input data, the expected results, a work directory for
JSON input and DOT files, and a ``random.Random`` for the sampled
inputs (``None`` selects every input, which is how the expected results
are recorded).  The library sees only the inputs generated here.
"""

import contextlib
import hashlib
import io
import json
import os


class Job:
    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def cli_job(glat, name, argv, dot=None, keep=()):
    """A job that runs ``glattice.cli.main(argv)`` in-process; ``keep``
    names report fields observed as values besides the digest."""
    main = glat.cli.main
    if dot:
        argv = argv + ["--dot", dot]

    def run(calls):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = calls.call("cli." + argv[0], main, argv)
        text = buf.getvalue()
        seen = {"exit": code, "stdout": digest(text)}
        if keep:
            report = json.loads(text)
            seen.update((key, report.get(key)) for key in keep)
        if dot:
            with open(dot, "rb") as handle:
                seen["dot"] = digest(handle.read())
        return seen

    return Job(name, run)


def matrix_json(glat, matrix):
    to_json = glat.jsonio.scalar_to_json
    return [[to_json(x) for x in row] for row in matrix]


def map_json(glat, f):
    return {"matrix": matrix_json(glat, f.matrix), "twist": f.theta.power}


def perm_key(perm):
    return ".".join(str(i) for i in perm)


# ---------------------------------------------------------------------------
# subspace: CLI jobs that build subspace lattices

# tens of ms each; repeated so that a pass has enough jobs for a tail percentile
SMALL_LATTICES = [("gf:2", 3), ("gf:3", 2), ("gf:8", 2), ("gf:9", 2)]
# 44 to 116 subspaces, 0.5 to 2 s each.  GF(3)^4 (212 subspaces, the one
# affordable lattice above the 128-element table-law cap) takes 9 to 11 s
# and varies by 10% between runs; it does not fit the run budget three times.
LARGE_LATTICES = [("gf:2", 4), ("gf:5", 3), ("gf:4", 3), ("gf:7", 3)]
SMALL_REPEATS = 12


def setup_subspace(glat, data, expected, work, rng):
    small, large = [], []
    for ring, dim in SMALL_LATTICES + LARGE_LATTICES:
        name = f"subspace-lattice {ring} {dim}"
        dot = os.path.join(work, f"L-{ring[3:]}-{dim}.dot")
        job = cli_job(glat, name, ["subspace-lattice", "--ring", ring, "--dim", str(dim)], dot)
        (small if (ring, dim) in SMALL_LATTICES else large).append(job)
    for key, action in data["shift_actions"].items():
        path = write_json(os.path.join(work, f"{key}.json"), action)
        dot = os.path.join(work, f"{key}.dot")
        small.append(cli_job(glat, f"verify-action {key}", ["verify-action", "--in", path], dot))
        small.append(cli_job(glat, f"orbit-report {key}", ["orbit-report", "--in", path]))
    path = write_json(os.path.join(work, "fs-c3-gf4.json"), data["roundtrip_system"])
    large.append(cli_job(glat, "roundtrip c3-gf4", ["roundtrip", "--fs", path]))
    return small * SMALL_REPEATS + large


# ---------------------------------------------------------------------------
# extension: the factor-system pipeline, no subspace lattice


def setup_extension(glat, data, expected, work, rng):
    parse = glat.jsonio.parse_factor_system_file
    jobs = []
    for group, ring in data["classify_pairs"]:
        jobs.append(
            cli_job(
                glat,
                f"classify-extensions {group} {ring}",
                ["classify-extensions", "--group", group, "--ring", ring],
                keep=("systems", "classes"),
            )
        )
    systems = {}
    for key, literal in data["systems"].items():
        path = write_json(os.path.join(work, f"{key}.json"), literal)
        jobs.append(cli_job(glat, f"build-extension {key}", ["build-extension", "--fs", path]))
        fs = systems[key] = parse(literal)
        jobs.append(Job(f"regular-rep {key}", _regular_rep_run(glat, fs)))
    for family, keys in data["transport_families"].items():
        reps = {
            key: glat.regular_representation(glat.TwistedGroupRing(systems[key]))
            for key in keys
        }
        for src in keys:
            for dst in keys:
                run = _transport_run(glat, systems[src], reps[src], systems[dst])
                jobs.append(Job(f"transport {src} {dst}", run))
    jobs.append(cli_job(glat, "example-c3", ["example-c3"]))
    return jobs


def _regular_rep_run(glat, fs):
    def run(calls):
        tgr = glat.TwistedGroupRing(fs)
        rho = calls.call("tgring.regular_representation", glat.regular_representation, tgr)
        kind = calls.call("rep.validate_rep", glat.validate_rep, rho).kind
        back = calls.call("extension.factor_system_from_rep", glat.factor_system_from_rep, rho)
        algebra = calls.call("tgring.is_algebra", glat.is_algebra, tgr).ok
        return {"kind": kind, "roundtrip": back == fs, "algebra": algebra}

    return run


def _transport_run(glat, fs, rho, fs_target):
    def run(calls):
        mu = calls.call("extension.find_equivalence", glat.find_equivalence, fs_target, fs)
        if mu is None:
            return {"mu": None}
        moved = calls.call("extension.transport_rep", glat.transport_rep, rho, fs, fs_target, mu)
        to_json = glat.jsonio.scalar_to_json
        return {
            "mu": [to_json(m) for m in mu],
            "moved": [matrix_json(glat, moved.maps[g].matrix) for g in sorted(moved.maps)],
        }

    return run


# ---------------------------------------------------------------------------
# search: coordinatization and automorphism search on lattices built here

# (name, q as p, k, dim); L(GF(7)^2) is left out: 8! automorphisms
COORDINATIZE_SPACES = [("gf2^3", 2, 1, 3), ("gf3^2", 3, 1, 2), ("gf4^2", 2, 2, 2)]
# L(GF(5)^2): 720 automorphisms, 120 induced; a seeded sample of each kind
SAMPLED_SPACE = ("gf5^2", 5, 1, 2)
SAMPLE_INDUCED, SAMPLE_NOT_INDUCED = 10, 50


def setup_search(glat, data, expected, work, rng):
    jobs = []
    lattices = {}
    for key, p, k, dim in COORDINATIZE_SPACES + [SAMPLED_SPACE]:
        lattice = glat.enumerate_subspaces(glat.VectorSpace(glat.DivisionRing.gf(p, k), dim))
        lattices[key] = lattice
        auts = glat.lattice_automorphism_group(lattice)
        named = [(f"coordinatize {key} {perm_key(a.perm)}", a) for a in auts]
        if key == SAMPLED_SPACE[0] and rng is not None:
            named = _stratified_sample(named, expected, rng)
        jobs.extend(Job(name, _coordinatize_run(glat, a)) for name, a in named)
    for key, action in data["shift_actions"].items():
        parsed = glat.jsonio.parse_action_file(action)
        jobs.append(Job(f"rep-from-glattice {key}", _rep_from_glattice_run(glat, parsed)))
    aut_inputs = {
        "subgroups-S4": glat.subgroup_lattice(glat.symmetric_group(4)),
        "subgroups-D6": glat.subgroup_lattice(glat.dihedral_group(6)),
        "gf2^3": lattices["gf2^3"],
    }
    for key, lattice in aut_inputs.items():
        jobs.append(Job(f"automorphisms {key}", _automorphisms_run(glat, lattice)))
    return jobs


def _stratified_sample(named, expected, rng):
    induced = [item for item in named if "raises" not in expected[item[0]]]
    other = [item for item in named if "raises" in expected[item[0]]]
    picked = rng.sample(induced, SAMPLE_INDUCED) + rng.sample(other, SAMPLE_NOT_INDUCED)
    return sorted(picked, key=lambda item: item[1].perm)


def _coordinatize_run(glat, phi):
    not_coordinatizable = glat.errors.NotCoordinatizable

    def run(calls):
        try:
            f = calls.call("rep.coordinatize", glat.coordinatize, phi)
        except not_coordinatizable:
            return {"raises": "NotCoordinatizable"}
        return map_json(glat, f)

    return run


def _rep_from_glattice_run(glat, action):
    def run(calls):
        rep = calls.call("rep.rep_from_glattice", glat.rep_from_glattice, action)
        return [map_json(glat, rep.maps[g]) for g in sorted(rep.maps)]

    return run


def _automorphisms_run(glat, lattice):
    def run(calls):
        auts = calls.call("lattice.lattice_automorphism_group", glat.lattice_automorphism_group, lattice)
        return {"count": len(auts), "perms": digest(json.dumps([list(a.perm) for a in auts]))}

    return run


SETUPS = {"subspace": setup_subspace, "extension": setup_extension, "search": setup_search}
