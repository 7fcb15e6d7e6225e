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


SOURCE = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "glattice").glob("*.py")))


@pytest.mark.parametrize("module,name", CAPS, ids=[name for _, name in CAPS])
def test_readme_cap_entries_name_only_code_that_exists(module, name):
    # every identifier with an underscore inside backticks of the entry,
    # up to the next entry or the blank line that ends the list, is
    # defined or named somewhere in src/glattice
    entry = re.search(rf"^  \* `{name}` \(`{module}`\) = (.*?)(?=^  \* |^\s*$)", README, re.MULTILINE | re.DOTALL)
    assert entry is not None, f"README.md has no entry for {name}"
    spans = re.findall(r"`([^`]+)`", entry.group(0))
    names = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span) if "_" in word}
    missing = sorted(word for word in names if not re.search(rf"\b{word}\b", SOURCE))
    assert not missing, (name, missing)
