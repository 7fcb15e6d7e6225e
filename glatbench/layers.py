"""Per-layer metrics from one cProfile run.

A layer is a module under ``src/glattice/``.  Every profiled function is
charged to the module whose file defines it; builtins and the rest of
the standard library (``fractions``, ``json``, ``argparse``, ...) go to
``stdlib``, and the benchmark's own functions are left out.  Named
functions are found through the freshly imported package, so a later
change that moves a function keeps its metric; a function that no
longer exists reads 0.
"""

import os
import pstats

LAYERS = ("scalar", "linalg", "lattice", "groups", "rep", "extension", "tgring", "jsonio", "cli")
CALL_COUNTS = ("scalar", "linalg")

# metric -> (module, attribute path) whose call count or cumulative time it reads
CALLS = {
    "scalar.mul.calls": ("scalar", "Scalar.__mul__"),
    "scalar.inverse.calls": ("scalar", "Scalar.inverse"),
    "scalar.ring_eq.calls": ("scalar", "DivisionRing.__eq__"),
    "linalg.rref.calls": ("linalg", "rref"),
    "linalg.map_subspace.calls": ("linalg", "map_subspace"),
    "rep.coordinatize.calls": ("rep", "coordinatize"),
    "rep.extract_cocycle.calls": ("rep", "extract_cocycle"),
}
TIMES = {
    "linalg.enumerate_subspaces.s": ("linalg", "enumerate_subspaces"),
    "lattice.FiniteLattice.s": ("lattice", "FiniteLattice.__init__"),
    "lattice.validate_glattice.s": ("lattice", "validate_glattice"),
    "rep.coordinatize.s": ("rep", "coordinatize"),
    "rep.extract_cocycle.s": ("rep", "extract_cocycle"),
    "rep.induced_glattice.s": ("rep", "induced_glattice"),
    "extension.materialize.s": ("extension", "SchreierExtension.materialize"),
    "tgring.regular_representation.s": ("tgring", "regular_representation"),
    "tgring.is_algebra.s": ("tgring", "is_algebra"),
    "tgring.module_laws.s": ("tgring", "validate_module_axioms"),
    "groups.identify_group.s": ("groups", "identify_group"),
}
# nested functions, found by module and name: backtracking and enumeration nodes
NESTED_CALLS = {
    "lattice.aut_search.nodes": ("lattice", "backtrack"),
    "extension.enumerate.nodes": ("extension", "fill"),
    "extension.enumerate.e2_checks": ("extension", "e2_consistent"),
}
# (callee, caller) pairs: calls of the callee made by the caller; pstats
# keeps per-caller figures as (calls, primitive calls, self, cumulative)
EDGES = {
    # maps the SGL(V) scan yields to coordinatize
    "rep.coordinatize.candidates": [
        (("linalg", "SemilinearMap.__init__"), ("linalg", "iter_semilinear_automorphisms")),
    ],
    # mu values tried by find_equivalence and by the mu-orbit classification
    "extension.mu.tried": [
        (("extension", "check_equivalence"), ("extension", "find_equivalence")),
        (("extension", "transform_factor_system"), ("extension", "classify_up_to_equivalence")),
    ],
}


def _key(glat, module, path):
    """The (file, line, name) key cProfile uses for a named function."""
    obj = getattr(glat, module, None)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def per_layer_metrics(glat, profiler, src, bench):
    stats = pstats.Stats(profiler).stats
    package = os.path.join(src, "glattice") + os.sep
    bench = bench + os.sep
    self_s = dict.fromkeys(LAYERS + ("stdlib",), 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    nested = dict.fromkeys(NESTED_CALLS, 0)
    for key, (_, ncalls, tottime, _, _) in stats.items():
        filename = key[0]
        if filename.startswith(bench):
            continue
        if not filename.startswith(package):
            self_s["stdlib"] += tottime
            continue
        module = os.path.splitext(os.path.basename(filename))[0]
        if module in self_s:
            self_s[module] += tottime
        if module in calls:
            calls[module] += ncalls
        for name, (nested_module, function) in NESTED_CALLS.items():
            if module == nested_module and key[2] == function:
                nested[name] += ncalls

    def entry(module, path):
        return stats.get(_key(glat, module, path))

    out = {}
    for module in LAYERS + ("stdlib",):
        out[f"{module}.self_s"] = self_s[module]
    for module in CALL_COUNTS:
        out[f"{module}.calls"] = calls[module]
    for name, (module, path) in CALLS.items():
        found = entry(module, path)
        out[name] = found[1] if found else 0
    for name, (module, path) in TIMES.items():
        found = entry(module, path)
        out[name] = found[3] if found else 0.0
    out.update(nested)
    for name, edges in EDGES.items():
        total = 0
        for callee, caller in edges:
            found = entry(*callee)
            caller_key = _key(glat, *caller)
            if found and caller_key in found[4]:
                total += found[4][caller_key][0]
        out[name] = total

    coordinatize_calls = out["rep.coordinatize.calls"]
    out["rep.coordinatize.candidates_per_call"] = (
        out["rep.coordinatize.candidates"] / coordinatize_calls if coordinatize_calls else 0.0
    )
    # leaves of the enumeration (candidate systems built) per node visited
    leaves = 0
    found = entry("extension", "FactorSystem.__init__")
    if found:
        for caller_key, caller_stats in found[4].items():
            if caller_key[0].startswith(package) and caller_key[2] == "fill":
                leaves += caller_stats[0]
    nodes = out["extension.enumerate.nodes"]
    out["extension.enumerate.systems_per_node"] = leaves / nodes if nodes else 0.0

    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(out.items())}


def _unit(name):
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s"):
        return "s"
    return "ratio" if "per_" in last else "count"
