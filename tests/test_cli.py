"""JSON parsing and end-to-end CLI behavior (exit codes, reports, DOT)."""

import hashlib
import json
import time

import pytest

import glattice.cli
import glattice.extension
import glattice.rep
from glattice import DivisionRing, VectorSpace, enumerate_subspaces
from glattice.cli import main
from glattice.errors import ParseError, TooLarge
from glattice.jsonio import (
    parse_factor_system_file,
    parse_group,
    parse_group_spec,
    parse_ring,
    parse_ring_spec,
    parse_scalar,
    parse_theta,
)
from glattice.lattice import SetLattice, _order_violation


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


def test_parse_group_preset_cap():
    assert parse_group({"group": "cyclic", "n": 120}).order == 120
    assert parse_group({"group": "dihedral", "n": 60}).order == 120
    for literal in (
        {"group": "cyclic", "n": 121},
        {"group": "dihedral", "n": 61},
        {"group": "sym", "n": 6},
    ):
        with pytest.raises(TooLarge):
            parse_group(literal)
    with pytest.raises(TooLarge):
        parse_ring({"ring": "gf", "p": 2, "k": 13})


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
        (
            "gf:2", "6",
            "ff4ec353cf1ff70de163a28e7a8697677fc1bf846410fa27b84264268fe2702f",
            "ca32c7e751c1f3e8bc3e0e24db2ef36c4b7586ec01c4015136742e665ea962e8",
        ),
        (
            "gf:3", "5",
            "727e3b344e288283e649d80f97ffcb58d78d2f442dbe185c27c054f740e28ea7",
            "18d1c9ca581b2f9f32ed7dadf46be63cc2bbff94524cc8149fb1a1127fc01ba6",
        ),
        (
            "gf:7", "4",
            "aa728c31674d5d27b059c827f3f9a9330dd2959bb7a3e89ded47fe092db110e6",
            "d7ec18b6ac8d400bc229db832e17b260e773e817e5832da98e0654f04e17e3a3",
        ),
        (
            "gf:8", "4",
            "030b193d83c4c07ad1f8583e2a272926bb3c6c3d8551c9fa0603e637c9bb7890",
            "b65ab4d9e9ed2c9059e89a6dd6294a3ee5ef6694f3eb81228b76edf9918763da",
        ),
    ],
    ids=["gf3-dim4", "gf2-dim5", "gf2-dim6", "gf3-dim5", "gf7-dim4", "gf8-dim4"],
)
def test_cli_subspace_lattice_pinned_above_table_law_cap(
    capsys, tmp_path, ring, dim, json_sha, dot_sha
):
    # 212, 374, 2825, 2664, 3652 and 5917 subspaces; the first two digests
    # recorded from the rref-per-pair build, the others from the build that
    # scanned every pair of point masks and read the covers off the up-set
    # and down-set masks (GF(7)^4 and GF(8)^4 with the subspace cap lifted)
    dot_path = tmp_path / "lattice.dot"
    code, out = run_cli(
        capsys, "subspace-lattice", "--ring", ring, "--dim", dim, "--dot", str(dot_path)
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_sha
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == dot_sha


@pytest.mark.parametrize(
    "ring,dim,json_sha,dot_sha",
    [
        (
            "gf:4", "3",
            "cb4a2194061128f4b2d2a67b829358bdef61b0487610d91fb04419a4f8de48c9",
            "69024750b2dfafb045f3558249e703c26663eefc31165caeefe3fb15fbe54c79",
        ),
        (
            "gf:8", "2",
            "b4785c06d53d3f9548a66ffeac516356e1ba8787c3c24d2743360dcfe4a73c87",
            "9c127aa52bcacd94d936bf47fe3f7efe4af598a27d6cb4c36968f733b4391b12",
        ),
        (
            "gf:9", "2",
            "87b82bf3f8efa4ff0c1bed299cf22decb94c1f4dc88fc4233b63674253bf2ab9",
            "aa2f763f0514a0aa474fa412461bf9422084ee44725bfc354200ca46f1701abd",
        ),
    ],
    ids=["gf4-dim3", "gf8-dim2", "gf9-dim2"],
)
def test_cli_subspace_lattice_pinned_over_extension_fields(
    capsys, tmp_path, ring, dim, json_sha, dot_sha
):
    # digests recorded from polynomial-division GF(p^k) arithmetic
    dot_path = tmp_path / "lattice.dot"
    code, out = run_cli(
        capsys, "subspace-lattice", "--ring", ring, "--dim", dim, "--dot", str(dot_path)
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == json_sha
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == dot_sha


def test_cli_extension_field_reports_pinned(capsys, tmp_path):
    # digests recorded from polynomial-division GF(p^k) arithmetic
    code, out = run_cli(
        capsys, "classify-extensions", "--group", "cyclic:3", "--ring", "gf:4"
    )
    assert code == 0
    assert json.loads(out)["class_sizes"] == [3, 3, 3]
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "cc39d23d16ce21f8c2eada362a7b26668b9574dc5fbda3fd9c738662c8bbcfa2"
    )
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
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "730992bca47d18a7f0d5c405b6108858c349645e7e8b5b9a8c635960a6571eed"
    )


@pytest.mark.parametrize(
    "system,digest",
    [
        # the i*j != j*i witness
        (
            {"group": {"group": "cyclic", "n": 2}, "ring": {"ring": "quat"}},
            "3c2082138556a0f330d9e4cd3b668ad0deb35a465f168968e8552fec9a784f20",
        ),
        # the Frobenius witness; lattice_size 148
        (
            {
                "group": {"group": "cyclic", "n": 3},
                "ring": {"ring": "gf", "p": 2, "k": 3},
                "chi": {"a": {"frob": 1}, "a^2": {"frob": 2}},
            },
            "74b058641d461eb17415570fbd9bd64407e51a4fe63b6e18aaef3782f7e422dd",
        ),
        # an algebra
        (
            {"group": {"group": "cyclic", "n": 12}, "ring": {"ring": "q"}},
            "13ccf2d3d22d68f4808c81f1ba91007c9656349a4e7fc0b314bc6cd93ccc4e70",
        ),
    ],
    ids=["c2-quat", "c3-gf8-frobenius", "c12-qq"],
)
def test_cli_roundtrip_algebra_reports_pinned(capsys, tmp_path, system, digest):
    # digests recorded from the sampled bimodule-law check
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(system))
    code, out = run_cli(capsys, "roundtrip", "--fs", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def space_action(p, dim):
    """An action file on L(GF(p)^dim); the lattice is refused before the action is read."""
    return {"group": {"group": "cyclic", "n": 2}, "lattice": {"space": gf_space(p, dim)}, "action": [[0]]}


def gf_space(p, dim):
    return {"ring": {"ring": "gf", "p": p}, "dim": dim}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("classify-extensions", "--group", "cyclic:2", "--ring", "gf:1000000007"), 1),
        (("subspace-lattice", "--ring", "gf:1000000007", "--dim", "2"), 1),
        (("classify-extensions", "--group", "cyclic:2", "--ring", "gf:1000000014"), 2),
        (("subspace-lattice", "--ring", "gf:1073741824", "--dim", "1"), 1),
        (("subspace-lattice", "--ring", "gf:10510100501", "--dim", "1"), 1),
        (("subspace-lattice", "--ring", "gf:2305843009213693951", "--dim", "1"), 1),
        (
            (
                "build-extension",
                "--fs",
                {"group": {"group": "cyclic", "n": 2}, "ring": {"ring": "gf", "p": 2, "k": 13}},
            ),
            1,
        ),
        # lattice literals past the q^n cap and past the subspace-count cap
        (("verify-action", "--in", space_action(2, 13)), 1),
        (("orbit-report", "--in", space_action(2, 7)), 1),
        (("hasse-dot", "--in", {"space": gf_space(3, 6)}), 1),
    ],
    ids=[
        "classify-prime",
        "subspace-prime",
        "classify-composite",
        "subspace-2pow30",
        "subspace-101pow5",
        "subspace-mersenne61",
        "fs-literal-2pow13",
        "verify-action-2pow13",
        "orbit-report-gf2-dim7",
        "hasse-dot-gf3-dim6",
    ],
)
def test_cli_large_field_orders_refused_quickly(capsys, tmp_path, argv, expected):
    assert_refused_quickly(capsys, tmp_path, argv, expected)


def assert_refused_quickly(capsys, tmp_path, argv, expected):
    """Run the CLI, each dict in argv written to a JSON file first, and
    require the exit code within 1 s."""
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    start = time.perf_counter()
    code, out = run_cli(capsys, *args)
    elapsed = time.perf_counter() - start
    assert code == expected
    assert json.loads(out)["ok"] is False
    assert elapsed < 1.0


def rational_fs(group):
    return {"group": group, "ring": {"ring": "q"}}


@pytest.mark.parametrize(
    "argv",
    [
        ("classify-extensions", "--group", "cyclic:5000", "--ring", "gf:2"),
        ("classify-extensions", "--group", "dihedral:3000", "--ring", "gf:2"),
        ("classify-extensions", "--group", "sym:6", "--ring", "gf:2"),
        ("build-extension", "--fs", rational_fs({"group": "cyclic", "n": 100})),
        ("build-extension", "--fs", rational_fs({"group": "cyclic", "n": 200})),
        ("roundtrip", "--fs", rational_fs({"group": "dihedral", "n": 25})),
        (
            "build-extension",
            "--fs",
            rational_fs({"group": "table", "cayley": [[(i + j) % 49 for j in range(49)] for i in range(49)]}),
        ),
    ],
    ids=[
        "classify-cyclic5000",
        "classify-dihedral3000",
        "classify-sym6",
        "fs-cyclic100",
        "fs-cyclic200",
        "roundtrip-dihedral25",
        "fs-table49",
    ],
)
def test_cli_large_groups_refused_quickly(capsys, tmp_path, argv):
    # presets above order 120 are refused before their table is built,
    # and factor systems above |G| = 48 before their |G|^3 checks
    assert_refused_quickly(capsys, tmp_path, argv, 1)


@pytest.mark.parametrize(
    "ring,dim",
    [("gf:2", "7"), ("gf:3", "6"), ("gf:4", "5"), ("gf:5", "5")],
    ids=["gf2-dim7", "gf3-dim6", "gf4-dim5", "gf5-dim5"],
)
def test_cli_subspace_count_refused_quickly(capsys, ring, dim):
    # q^n <= 5000 in each case, but 29212 / 56632 / 12278 / 42176 subspaces
    start = time.perf_counter()
    code, out = run_cli(capsys, "subspace-lattice", "--ring", ring, "--dim", dim)
    elapsed = time.perf_counter() - start
    assert code == 1
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


@pytest.mark.parametrize("swap", [(1, 8), (1, 2)], ids=["point-with-line", "point-transposition"])
def test_cli_verify_action_refuses_a_bad_row_on_a_subspace_lattice(capsys, tmp_path, swap):
    # C2 on L(GF(2)^3), elements 1-7 the points and 8-14 the lines, through
    # an involution the point check does not accept, so axiom (3) reads the
    # order masks: a point swapped with a line, or two points swapped while
    # every line stays
    lattice = enumerate_subspaces(VectorSpace(DivisionRing.gf(2), 3))
    assert lattice.points == tuple(range(1, 8))
    x, y = swap
    row = list(range(lattice.size))
    row[x], row[y] = y, x
    path = tmp_path / "act.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 2},
                "lattice": {"space": gf_space(2, 3)},
                "action": [list(range(lattice.size)), row],
            }
        )
    )
    code, out = run_cli(capsys, "verify-action", "--in", str(path))
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and report["axiom"] == 3
    assert report["witness"] == [1, *_order_violation(SetLattice(lattice.masks), row)]


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


@pytest.mark.parametrize(
    "n,p,lattice",
    [(4, 7, (3652, 942)), (5, 5, None), (7, 2, None), (3, 17, (616, 208))],
    ids=["c4-gf7", "c5-gf5", "c7-gf2", "c3-gf17"],
)
def test_cli_roundtrip_reports_the_lattice_within_both_subspace_caps(capsys, tmp_path, n, p, lattice):
    # q^|G| <= 5000 in each case, but L(GF(q)^|G|) holds 42176 / 29212
    # subspaces past the 6000 cap for C5 and C7: no lattice
    path = tmp_path / "fs.json"
    path.write_text(json.dumps({"group": {"group": "cyclic", "n": n}, "ring": {"ring": "gf", "p": p}}))
    code, out = run_cli(capsys, "roundtrip", "--fs", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["recovered_system_equal"]
    assert (report.get("lattice_size"), report.get("orbits")) == (lattice or (None, None))


def test_cli_roundtrip_extracts_the_cocycle_once(capsys, tmp_path, monkeypatch):
    calls = []
    original = glattice.rep.extract_cocycle

    def counted(rep):
        calls.append(rep)
        return original(rep)

    for module in (glattice.rep, glattice.extension):
        monkeypatch.setattr(module, "extract_cocycle", counted)
    path = tmp_path / "fs.json"
    path.write_text(
        json.dumps(
            {
                "group": {"group": "cyclic", "n": 4},
                "ring": {"ring": "q"},
                # the carry cocycle: 2 where i + j >= 4
                "bracket": {
                    f"{g},{h}": "2"
                    for g, h in [("a", "a^3"), ("a^2", "a^2"), ("a^2", "a^3"),
                                 ("a^3", "a"), ("a^3", "a^2"), ("a^3", "a^3")]
                },
            }
        )
    )
    code, out = run_cli(capsys, "roundtrip", "--fs", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["recovered_system_equal"] and report["regular_rep"] == "projective-linear"
    assert len(calls) == 1


C4_CARRY_GF5 = {
    "group": {"group": "cyclic", "n": 4},
    "ring": {"ring": "gf", "p": 5},
    "bracket": {
        f"{g},{h}": "2"
        for g, h in [("a", "a^3"), ("a^2", "a^2"), ("a^2", "a^3"),
                     ("a^3", "a"), ("a^3", "a^2"), ("a^3", "a^3")]
    },
}


@pytest.mark.parametrize(
    "command,system,passes",
    [
        # the input system, once, where the CLI, the extension and the ring all ask
        ("build-extension", C4_CARRY_GF5, 1),
        ("build-extension", rational_fs({"group": "cyclic", "n": 6}), 1),
        # the input system only: regular_representation compares the
        # cocycle it extracts with the validated bracket entry by entry
        ("roundtrip", C4_CARRY_GF5, 1),
        ("roundtrip", rational_fs({"group": "cyclic", "n": 6}), 1),
        # over the quaternions there is no regular representation to extract from
        ("roundtrip", {"group": {"group": "cyclic", "n": 2}, "ring": {"ring": "quat"}}, 1),
    ],
    ids=["build-c4-gf5", "build-c6-qq", "roundtrip-c4-gf5", "roundtrip-c6-qq", "roundtrip-c2-hh"],
)
def test_cli_validates_each_factor_system_once(capsys, tmp_path, monkeypatch, command, system, passes):
    calls = []
    original = glattice.extension._e2_violation

    def counted(fs):
        calls.append(fs)
        return original(fs)

    monkeypatch.setattr(glattice.extension, "_e2_violation", counted)
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(system))
    code, out = run_cli(capsys, command, "--fs", str(path))
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(calls) == passes
    assert len({id(fs) for fs in calls}) == passes


def test_cli_roundtrip_c24_over_rationals_within_ten_seconds(capsys, tmp_path):
    # the cocycle of the 24-dimensional regular representation is read on
    # row supports; a dense product per pair took about 50 s
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(rational_fs({"group": "cyclic", "n": 24})))
    start = time.perf_counter()
    code, out = run_cli(capsys, "roundtrip", "--fs", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["recovered_system_equal"] is True
    assert elapsed < 10.0


def test_cli_example_c3(capsys):
    code, out = run_cli(capsys, "example-c3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and all(report["checks"].values())


def test_cli_example_c3_is_byte_identical_and_takes_no_seed(capsys):
    # digest recorded from the sampled module-law loop, which --seed fed
    code, out = run_cli(capsys, "example-c3")
    assert code == 0
    digest = "95ab342edb5491d494518923116ded31e6d397d6f776893f149c9ab753a75c65"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    with pytest.raises(SystemExit) as refused:
        main(["example-c3", "--seed", "0"])
    assert refused.value.code == 2


def test_cli_hasse_dot(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"leq": [[1, 1], [0, 1]]}))
    code, out = run_cli(capsys, "hasse-dot", "--in", str(path))
    assert code == 0
    assert "n0 -> n1;" in out


def test_cli_hasse_dot_escapes_backslashes_and_quotes(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"leq": [[1, 1], [0, 1]], "labels": ["a\\", 'b"c']}))
    code, out = run_cli(capsys, "hasse-dot", "--in", str(path))
    assert code == 0
    assert 'n0 [label="a\\\\"];' in out
    assert 'n1 [label="b\\"c"];' in out


@pytest.mark.parametrize(
    "command,system,name,digest",
    [
        (
            "roundtrip",
            {"group": {"group": "cyclic", "n": 48}, "ring": {"ring": "gf", "p": 2, "k": 2}},
            "C48xC3",
            "2525103c509bbae28f351f75789a34c173df9b66e7003889a23d8e5d7bc68ab4",
        ),
        (
            "build-extension",
            {"group": {"group": "cyclic", "n": 12}, "ring": {"ring": "gf", "p": 5}},
            "C12xC4",
            "0c0164aae901bd4ce874d01b8941c78b32f0c049af8c5e0500250c7e22fece0a",
        ),
    ],
    ids=["roundtrip-c48-gf4", "build-c12-gf5"],
)
def test_cli_abelian_extensions_above_forty_elements_named(capsys, tmp_path, command, system, name, digest):
    # invariant factors come from element orders, with no isomorphism search
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(system))
    code, out = run_cli(capsys, command, "--fs", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["extension_group" if command == "roundtrip" else "group"] == name
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_D24_GF41 = {"group": {"group": "dihedral", "n": 24}, "ring": {"ring": "gf", "p": 41}}
_S3_GF8 = {"group": {"group": "sym", "n": 3}, "ring": {"ring": "gf", "p": 2, "k": 3}}
_C2_GF49_FROBENIUS = {
    "group": {"group": "cyclic", "n": 2},
    "ring": {"ring": "gf", "p": 7, "k": 2},
    "chi": {"a": {"frob": 1}},
}


@pytest.mark.parametrize(
    "command,system,name,digest",
    [
        (
            "build-extension",
            _D24_GF41,
            "order1920-nonabelian-maxord120",
            "d28df564f2ac4900c91d643797d0b64a7d91bf8803272379380fe75b7c0ab083",
        ),
        (
            "roundtrip",
            _D24_GF41,
            "order1920-nonabelian-maxord120",
            "3e65a9ea200369a9e8f467bc146dd6897c1b4d02da4781b50f0065d50ebf9e34",
        ),
        (
            "build-extension",
            _S3_GF8,
            "order42-nonabelian-maxord21",
            "fc36d43ed6ae0c8da9b5ebc4b68126ca4536ad52be9914c210d3d6388cbcb822",
        ),
        (
            "roundtrip",
            _S3_GF8,
            "order42-nonabelian-maxord21",
            "bcce1e0c8640b01177b3442b51083a492204180319a204a4d0c458f4513d77f1",
        ),
        (
            "build-extension",
            _C2_GF49_FROBENIUS,
            "order96-nonabelian-maxord48",
            "dc7590d8a8799d245c64a56bed0e5283992d14db97e92c68db9d22c503e471bd",
        ),
        (
            "roundtrip",
            _C2_GF49_FROBENIUS,
            "order96-nonabelian-maxord48",
            "0b0b61981a6136e6f122a163287cf244b7ff0513464971227361f0154c22331d",
        ),
    ],
    ids=[
        "build-d24-gf41",
        "roundtrip-d24-gf41",
        "build-s3-gf8",
        "roundtrip-s3-gf8",
        "build-c2-gf49-frobenius",
        "roundtrip-c2-gf49-frobenius",
    ],
)
def test_cli_unnameable_extension_refused_before_materialize(capsys, tmp_path, command, system, name, digest):
    # non-abelian extensions above order 40, once refused before
    # materialize, are named by their descriptor; D24 over GF(41) has
    # 1920 elements, so it runs within the 3 s materialize budget
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(system))
    start = time.perf_counter()
    code, out = run_cli(capsys, command, "--fs", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out)
    assert report["extension_group" if command == "roundtrip" else "group"] == name
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert elapsed < 3.0


@pytest.mark.parametrize(
    "argv",
    [
        ("classify-extensions", "--group", "sym:0", "--ring", "gf:3"),
        ("classify-extensions", "--group", "sym:-4", "--ring", "gf:3"),
        ("subspace-lattice", "--ring", "gf:2", "--dim", "0"),
        ("subspace-lattice", "--ring", "gf:2", "--dim", "-2"),
    ],
    ids=["sym-0", "sym-negative", "dim-0", "dim-negative"],
)
def test_cli_non_positive_sizes_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert ">= 1" in report["error"] and "witness" not in report


def test_cli_malformed_input_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "verify-action", "--in", str(path))
    assert code == 2
    assert "line" in json.loads(out)["error"]
    code, _ = run_cli(capsys, "verify-action", "--in", str(tmp_path / "missing.json"))
    assert code == 2


def test_cli_parser_is_shared_and_unchanged_by_bad_arguments(capsys, tmp_path, monkeypatch):
    good = ["subspace-lattice", "--ring", "gf:2", "--dim", "2"]
    dot = tmp_path / "bad.dot"
    assert glattice.cli._shared_parser() is glattice.cli._shared_parser()
    with pytest.raises(SystemExit) as bad:
        main(["subspace-lattice", "--ring", "gf:3", "--dim", "two", "--dot", str(dot)])
    assert bad.value.code == 2
    capsys.readouterr()
    shared = run_cli(capsys, *good)
    monkeypatch.setattr(glattice.cli, "_shared_parser", glattice.cli.build_parser)
    fresh = run_cli(capsys, *good)
    assert shared == fresh
    assert shared[0] == 0
    assert not dot.exists()


GOOD_ACTION = {
    "group": {"group": "cyclic", "n": 2},
    "lattice": {"leq": [[1, 1], [0, 1]]},
    "action": [[0, 1], [0, 1]],
}
GOOD_FS = {"group": {"group": "cyclic", "n": 2}, "ring": {"ring": "gf", "p": 2, "k": 2}}


def test_cli_shape_baselines_are_well_formed(capsys, tmp_path):
    # each malformed input below is one of these with one field broken
    for command, flag, data in (("verify-action", "--in", GOOD_ACTION), ("roundtrip", "--fs", GOOD_FS)):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(capsys, command, flag, str(path))
        assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize(
    "command,data",
    [
        ("hasse-dot", {"leq": 5}),
        ("hasse-dot", {"leq": [5]}),
        ("hasse-dot", {"leq": [[1, "no"], [0, 1]]}),
        ("verify-action", {**GOOD_ACTION, "lattice": {"leq": [[1, 1], [0, 1]], "labels": ["0"]}}),
        ("verify-action", {**GOOD_ACTION, "group": {"group": "table", "cayley": 5}}),
        ("verify-action", {**GOOD_ACTION, "group": {"group": "cyclic", "n": "x"}}),
        ("verify-action", {**GOOD_ACTION, "action": 7}),
        ("verify-action", {**GOOD_ACTION, "action": [[False, True], [False, True]]}),
        ("verify-action", {**GOOD_ACTION, "group": {"group": "table", "cayley": [[False, True], [True, False]]}}),
        ("verify-action", {**GOOD_ACTION, "group": {"group": "sym", "n": -2}, "action": [[0, 1]]}),
        ("verify-action", {**GOOD_ACTION, "lattice": {"space": gf_space(2, 0)}}),
        ("roundtrip", {**GOOD_FS, "ring": {"ring": "gf", "p": "x"}}),
        ("roundtrip", {**GOOD_FS, "ring": {"ring": "gf", "p": 3, "k": None}}),
        ("roundtrip", {**GOOD_FS, "ring": {"ring": "gf", "p": 2, "k": 2, "modulus": 5}}),
        ("roundtrip", {**GOOD_FS, "ring": {"ring": "gf", "p": 2, "k": 2, "modulus": ["a", 1, 1]}}),
        ("roundtrip", {**GOOD_FS, "chi": 5}),
        ("roundtrip", {**GOOD_FS, "chi": {"a": {"frob": "x"}}}),
        ("roundtrip", {**GOOD_FS, "bracket": 5}),
        ("roundtrip", {**GOOD_FS, "group": {"group": "table", "cayley": [[0, 1], [1, 0]], "labels": ["e"]}}),
        # JSON numbers that are not integers, and booleans, where the dialect says integer
        ("roundtrip", {"group": {"group": "cyclic", "n": 2.7}, "ring": {"ring": "gf", "p": 3}}),
        ("roundtrip", {"group": {"group": "cyclic", "n": 2}, "ring": {"ring": "gf", "p": 3.9}}),
        ("roundtrip", {**GOOD_FS, "group": {"group": "cyclic", "n": True}}),
        ("roundtrip", {**GOOD_FS, "chi": {"a": {"frob": 1.9}}}),
        ("roundtrip", {**GOOD_FS, "ring": {"ring": "gf", "p": 2, "k": 2, "modulus": [True, True, True]}}),
        ("roundtrip", {**GOOD_FS, "bracket": {"a,a": True}}),
        ("roundtrip", {**GOOD_FS, "bracket": {"a,a": [1.5, 0]}}),
    ],
    ids=[
        "leq-scalar", "leq-row-scalar", "leq-entry-string", "short-labels", "cayley-scalar",
        "n-not-int", "action-scalar", "action-bool", "cayley-bool", "sym-n-negative",
        "space-dim-0", "p-not-int", "k-null",
        "modulus-scalar", "modulus-entry", "chi-scalar", "frob-not-int", "bracket-scalar",
        "short-group-labels", "n-float", "p-float", "n-bool", "frob-float", "modulus-bool",
        "bracket-bool", "coefficient-float",
    ],
)
def test_cli_malformed_shapes_exit_2(capsys, tmp_path, command, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [command, "--fs" if command == "roundtrip" else "--in", str(path)]
    if command == "verify-action":
        argv += ["--dot", str(tmp_path / "out.dot")]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(out)


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
