"""The runtime is pure standard library, and every module-level function has a caller."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import glattice


def test_runtime_imports_only_stdlib_and_glattice():
    # a fresh interpreter without site hooks, so only the package's own imports load
    src = os.path.dirname(os.path.dirname(glattice.__file__))
    probe = "import json, sys, glattice, glattice.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "glattice.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "glattice"
    ]
    assert foreign == []


_ROOT = pathlib.Path(__file__).resolve().parents[1]
# public constructions that only tests and library users call
_CALLED_ONLY_FROM_TESTS = {
    "chain_lattice",
    "identity_automorphism",
    "trivial_action",
    "transform_factor_system",
    "ExtensionIsomorphism",
    "conjugation_glattice",
    "action_from_homomorphism",
    "homomorphism_from_action",
    "powerset_glattice",
    "map_subspace",
    "rep_equivalence",
}


def _names(node):
    """Every identifier a syntax tree names: variables, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def test_every_public_function_is_named_outside_its_definition():
    # a module-level function or class must be named somewhere in
    # src/glattice (its own module included) or in glatbench/, other than
    # in its own definition; a re-export by __init__ is no use, and only
    # the public constructions above may have no caller there
    src = sorted(p for p in (_ROOT / "src" / "glattice").glob("*.py") if p.name != "__init__.py")
    paths = src + sorted((_ROOT / "glatbench").glob("*.py"))
    statements = {path: ast.parse(path.read_text(encoding="utf-8")).body for path in paths}
    names = {path: [_names(stmt) for stmt in body] for path, body in statements.items()}
    uncalled = []
    for path in src:
        elsewhere = set().union(*(n for other in paths if other != path for n in names[other]))
        for i, stmt in enumerate(statements[path]):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = set().union(*(n for j, n in enumerate(names[path]) if j != i))
            if stmt.name not in elsewhere | own and stmt.name not in _CALLED_ONLY_FROM_TESTS:
                uncalled.append(f"{path.name}: {stmt.name}")
    assert uncalled == []


def test_every_public_method_is_named():
    # a public method or property of a class in src/glattice must be named
    # as an attribute, or by a string constant, somewhere in src/glattice,
    # tests/ or glatbench/
    src = sorted((_ROOT / "src" / "glattice").glob("*.py"))
    paths = src + sorted((_ROOT / "tests").glob("*.py")) + sorted((_ROOT / "glatbench").glob("*.py"))
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    unnamed = [
        f"{path.name}: {cls.name}.{stmt.name}"
        for path in src
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in named
    ]
    assert unnamed == []
