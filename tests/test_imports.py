"""The runtime is pure standard library."""

import json
import os
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
