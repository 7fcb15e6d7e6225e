"""README.md states every cap constant of the library."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# every module-level ``_NAME_LIMIT = ...`` under src/glattice
CAPS = [
    (path.stem, name)
    for path in sorted((ROOT / "src" / "glattice").glob("*.py"))
    for name in re.findall(r"^(_[A-Z_]+_LIMIT)\s*=", path.read_text(encoding="utf-8"), re.MULTILINE)
]


def test_the_scan_finds_the_caps_of_every_capped_module():
    assert {module for module, _ in CAPS} == {"scalar", "groups", "lattice", "jsonio", "extension", "linalg"}


@pytest.mark.parametrize("module,name", CAPS, ids=[name for _, name in CAPS])
def test_readme_states_every_cap(module, name):
    value = getattr(importlib.import_module(f"glattice.{module}"), name)
    # the entry reads "* `NAME` (`module`) = VALUE. ...": VALUE as digits,
    # with or without thousands separators
    entry = re.search(rf"^  \* `{name}` \(`{module}`\) = (.+?)\.\s", README, re.MULTILINE | re.DOTALL)
    assert entry is not None, f"README.md has no entry for {name}"
    stated = re.findall(r"(?<![\d^])\d[\d,]*", entry.group(1))
    assert f"{value}" in stated or f"{value:,}" in stated, (name, value, entry.group(1))
