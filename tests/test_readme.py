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


def _names_missing_from_source(text):
    """Every identifier with an underscore inside backticks of ``text``
    that is neither defined nor named anywhere in src/glattice."""
    spans = re.findall(r"`([^`]+)`", text)
    names = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span) if "_" in word}
    return sorted(word for word in names if not re.search(rf"\b{word}\b", SOURCE))


@pytest.mark.parametrize("module,name", CAPS, ids=[name for _, name in CAPS])
def test_readme_cap_entries_name_only_code_that_exists(module, name):
    # the entry runs up to the next entry or the blank line that ends the list
    entry = re.search(rf"^  \* `{name}` \(`{module}`\) = (.*?)(?=^  \* |^\s*$)", README, re.MULTILINE | re.DOTALL)
    assert entry is not None, f"README.md has no entry for {name}"
    missing = _names_missing_from_source(entry.group(0))
    assert not missing, (name, missing)


def test_readme_library_tour_names_only_code_that_exists():
    # the table rows of the "## Library tour" section, up to the next section
    section = re.search(r"^## Library tour$(.*?)(?=^## )", README, re.MULTILINE | re.DOTALL)
    assert section is not None, "README.md has no library tour"
    rows = [line for line in section.group(1).splitlines() if line.startswith("| `glattice.")]
    assert len(rows) >= 6
    missing = _names_missing_from_source("\n".join(rows))
    assert not missing, missing
