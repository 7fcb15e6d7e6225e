"""JSON parsing and end-to-end CLI behavior (exit codes, reports, DOT)."""

import hashlib
import json
import time

import pytest

from glattice.cli import main
from glattice.errors import ParseError
from glattice.jsonio import (
    parse_factor_system_file,
    parse_group,
    parse_group_spec,
    parse_rep_file,
    parse_ring,
    parse_ring_spec,
    parse_scalar,
    parse_theta,
)


# ---------------------------------------------------------------------------
# parsers


def test_parse_ring_literals():
    assert repr(parse_ring({"ring": "gf", "p": 3})) == "GF(3)"
    gf4 = parse_ring({"ring": "gf", "p": 2, "k": 2, "modulus": [1, 1, 1]})
    assert gf4.order == 4
    assert repr(parse_ring({"ring": "q"})) == "QQ"
    assert repr(parse_ring({"ring": "quat"})) == "HH(QQ)"
    with pytest.raises(ParseError):
        parse_ring({"ring": "gf", "p": 4})
    with pytest.raises(ParseError):
        parse_ring({"ring": "octonion"})
    with pytest.raises(ParseError):
        parse_ring({"p": 3})


def test_parse_scalar_forms():
    q = parse_ring({"ring": "q"})
    assert parse_scalar(q, "3/4").payload.numerator == 3
    assert parse_scalar(q, -2).payload == -2
    quat = parse_ring({"ring": "quat"})
    value = parse_scalar(quat, [0, 1, 0, 0])
    assert value.payload[1] == 1
    gf9 = parse_ring({"ring": "gf", "p": 3, "k": 2})
    assert parse_scalar(gf9, [1, 2]).payload == (1, 2)
    with pytest.raises(ParseError):
        parse_scalar(q, {"bad": 1})


def test_parse_group_literals():
    assert parse_group({"group": "cyclic", "n": 4}).order == 4
    assert parse_group({"group": "sym", "n": 3}).order == 6
    assert parse_group({"group": "dihedral", "n": 3}).order == 6
    table = parse_group({"group": "table", "cayley": [[0, 1], [1, 0]]})
    assert table.order == 2
    with pytest.raises(ParseError):
        parse_group({"group": "table", "cayley": [[1, 0], [0, 1]]})


def test_parse_specs():
    assert parse_group_spec("cyclic:3").order == 3
    assert parse_ring_spec("gf:9").order == 9
    assert parse_ring_spec("q").is_commutative()
    with pytest.raises(ParseError):
        parse_group_spec("cyclic")
    with pytest.raises(ParseError):
        parse_ring_spec("gf:6")


def test_parse_theta():
    gf4 = parse_ring({"ring": "gf", "p": 2, "k": 2})
    assert parse_theta(gf4, "id").is_identity()
    assert not parse_theta(gf4, {"frob": 1}).is_identity()
    with pytest.raises(ParseError):
        parse_theta(gf4, {"rot": 3})


def test_parse_rep_file():
    rep = parse_rep_file(
        {
            "group": {"group": "cyclic", "n": 2},
            "space": {"ring": {"ring": "gf", "p": 3}, "dim": 1},
            "rep": [
                {"g": "1", "matrix": [[1]]},
                {"g": "a", "matrix": [[2]]},
            ],
        }
    )
    assert rep.maps[1].matrix[0][0].payload == 2
    with pytest.raises(ParseError):
        parse_rep_file(
            {
                "group": {"group": "cyclic", "n": 2},
                "space": {"ring": {"ring": "gf", "p": 3}, "dim": 1},
                "rep": [{"g": "1", "matrix": [[1]]}],
            }
        )


def test_parse_factor_system_file():
    fs = parse_factor_system_file(
        {
            "group": {"group": "cyclic", "n": 2},
            "ring": {"ring": "gf", "p": 3},
            "bracket": {"a,a": "2"},
        }
    )
    assert fs.bracket[1][1].payload == 2
    assert fs.bracket[0][1].is_one()  # omitted entries default to 1
    with pytest.raises(ParseError):
        parse_factor_system_file(
            {
                "group": {"group": "cyclic", "n": 2},
                "ring": {"ring": "gf", "p": 3},
                "bracket": {"a": "2"},
            }
        )


# ---------------------------------------------------------------------------
# CLI end-to-end


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_classify_extensions(capsys):
    code, out = run_cli(
        capsys, "classify-extensions", "--group", "cyclic:2", "--ring", "gf:3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["systems"] == 2
    assert report["classes"] == 2
    assert report["groups"] == ["C2xC2", "C4"]


def test_cli_subspace_lattice(capsys, tmp_path):
    dot_path = tmp_path / "cube.dot"
    code, out = run_cli(
        capsys,
        "subspace-lattice", "--ring", "gf:2", "--dim", "3", "--dot", str(dot_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 16
    assert report["by_dimension"] == {"0": 1, "1": 7, "2": 7, "3": 1}
    dot = dot_path.read_text()
    assert dot.startswith("digraph")


@pytest.mark.parametrize(
    "ring,dim,json_sha,dot_sha",
    [
        (
            "gf:3", "4",
            "b375b0335c99a4f2557c4457fb8b6c8a01e17c84c79069220cec8d024b6f273d",
            "a8afbd7ca50b38d330212b15f6b890fb955269d1dc41d98c248aa45061daf656",
        ),
        (
            "gf:2", "5",
            "a8b2ecce92f4c7e78542b5c4a9ce74ee4caff171ad1781a0aaa97464a1e24abf",
            "5a203c8a9117e2a225242e0571e1d9cb54c5530dc21fe1e8e705d86d87800409",
        ),
    ],    ids=["gf3-dim4", "gf2-dim5"],
)
def test_cli_subspace_lattice_pinned_above_table_law_cap(
    capsys, tmp_path, ring, dim, json_sha, dot_sha
):
    # 212 and 374 subspaces; digests recorded from the rref-per-pair build
    dot_path = tmp_path / "lattice.dot"
    code, out = run_cli(
        capsys, "subspace-lattice", "--ring", ring, "--dim", dim, "--dot", str(dot_path)
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_sha
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == dot_sha


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("classify-extensions", "--group", "cyclic:2", "--ring", "gf:1000000007"), 1),
        (("subspace-lattice", "--ring", "gf:1000000007", "--dim", "2"), 1),
        (("classify-extensions", "--group", "cyclic:2", "--ring", "gf:1000000014"), 2),
    ],    ids=["classify-prime", "subspace-prime", "classify-composite"],
)
def test_cli_large_field_orders_refused_quickly(capsys, argv, expected):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == expected
    assert json.loads(out)["ok"] is False
    assert elapsed < 1.0


def test_cli_verify_action_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "lattice": {"leq": [[1, 1], [0, 1]]},
                "action": [[0, 1], [0, 1]],
            }
        )
    )
    code, out = run_cli(capsys, "verify-action", "--in", str(good))
    assert code == 0 and json.loads(out)["ok"]

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "lattice": {"leq": [[1, 1], [0, 1]]},
                "action": [[0, 1], [1, 0]],
            }
        )
    )
    code, out = run_cli(capsys, "verify-action", "--in", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["axiom"] == 3 and "witness" in report


def test_cli_orbit_report(capsys, tmp_path):
    path = tmp_path / "act.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 3},
                "lattice": {"space": {"ring": {"ring": "gf", "p": 2}, "dim": 3}},
                "action": None,
            }
        )
    )
    # fill the action with the shift table computed through the library
    from conftest import shift_rep
    from glattice import DivisionRing
    from glattice.rep import induced_glattice

    action = induced_glattice(shift_rep(DivisionRing.gf(2)))
    data = json.loads(path.read_text())
    data["action"] = [list(row) for row in action.table]
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "orbit-report", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert len(report["orbits"]) == 8
    assert len(report["fixed"]) == 4


def test_cli_build_extension(capsys, tmp_path):
    path = tmp_path / "fs.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "ring": {"ring": "gf", "p": 3},
                "bracket": {"a,a": "2"},
            }
        )
    )
    code, out = run_cli(capsys, "build-extension", "--fs", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "C4"
    assert report["flags"]["projective"] and not report["flags"]["split"]


def test_cli_build_extension_invalid_fs(capsys, tmp_path):
    path = tmp_path / "fs.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "ring": {"ring": "gf", "p": 3},
                "bracket": {"1,1": "2"},
            }
        )
    )
    code, out = run_cli(capsys, "build-extension", "--fs", str(path))
    assert code == 1
    assert json.loads(out)["law"] == "E3"


def test_cli_roundtrip(capsys, tmp_path):
    path = tmp_path / "fs.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "ring": {"ring": "gf", "p": 2, "k": 2},
                "chi": {"a": {"frob": 1}},
            }
        )
    )
    code, out = run_cli(capsys, "roundtrip", "--fs", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["recovered_system_equal"]
    assert report["extension_group"] == "S3"
    assert report["regular_rep"] == "semilinear"
    assert report["algebra"] is False


def test_cli_example_c3(capsys):
    code, out = run_cli(capsys, "example-c3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and all(report["checks"].values())


def test_cli_hasse_dot(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"leq": [[1, 1], [0, 1]]}))
    code, out = run_cli(capsys, "hasse-dot", "--in", str(path))
    assert code == 0
    assert "n0 -> n1;" in out


def test_cli_malformed_input_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "verify-action", "--in", str(path))
    assert code == 2
    assert "line" in json.loads(out)["error"]
    code, _ = run_cli(capsys, "verify-action", "--in", str(tmp_path / "missing.json"))
    assert code == 2


def test_cli_threads_env_validated(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GLAT_THREADS", "zebra")
    code, out = run_cli(capsys, "example-c3")
    assert code == 2
    monkeypatch.setenv("GLAT_THREADS", "2")
    code, _ = run_cli(capsys, "example-c3")
    assert code == 0


def test_cli_hasse_dot_action_colors_and_out(capsys, tmp_path):
    act = {
        "group": {"group": "cyclic", "n": 2},
        "lattice": {"leq": [[1, 1], [0, 1]]},
        "action": [[0, 1], [0, 1]],
    }
    path = tmp_path / "act.json"
    path.write_text(json.dumps(act))
    out_path = tmp_path / "out.dot"
    code, _ = run_cli(capsys, "hasse-dot", "--in", str(path), "--out", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert "fillcolor=" in dot and "n0 -> n1;" in dot


def test_cli_out_flag_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, printed = run_cli(
        capsys,
        "classify-extensions", "--group", "cyclic:2", "--ring", "gf:2",
        "--out", str(out_path),
    )
    assert code == 0 and printed == ""
    report = json.loads(out_path.read_text())
    assert report["systems"] == 1


def test_cli_determinism(capsys):
    _, first = run_cli(
        capsys, "classify-extensions", "--group", "cyclic:2", "--ring", "gf:3"
    )
    _, second = run_cli(
        capsys, "classify-extensions", "--group", "cyclic:2", "--ring", "gf:3"
    )
    assert first == second
