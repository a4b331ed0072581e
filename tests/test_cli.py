import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from stabkit import cli, heart
from stabkit.cli import main, parse_path_expr, parse_range, parse_rep
from stabkit.lattice import InputError
from stabkit.quiver import Quiver

F = Fraction
A2_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "a2.json")
K3_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "k3_rank1.json")


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "k3_h2.json"
    path.write_text(
        json.dumps({"rank": 1, "gram": [[2]], "ample_ref": [1], "neg2_curves": []})
    )
    return str(path)


@pytest.fixture
def lattice2_file(tmp_path):
    path = tmp_path / "k3_rk2.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "gram": [[2, 0], [0, -2]],
                "ample_ref": [1, 0],
                "neg2_curves": [[0, 1]],
            }
        )
    )
    return str(path)


@pytest.fixture
def quiver_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(
        json.dumps(
            {
                "vertices": 2,
                "arrows": [[0, 1]],
                "p": 2,
                "charge": [["-1", "1"], ["1", "1"]],
            }
        )
    )
    return str(path)


class TestWrite:
    def test_replaces_the_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        cli._write(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_leaves_target_and_no_temporary(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        # a lone surrogate cannot be encoded: the write fails partway
        with pytest.raises(UnicodeEncodeError):
            cli._write(str(target), "new\n" * 1000 + "\ud800")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_writes_into_a_device(self):
        # a device cannot be replaced by a renamed file: written in place
        cli._write(os.devnull, "data\n")


class TestParsers:
    def test_parse_range(self):
        assert parse_range("1/2..2") == (F(1, 2), F(2))
        assert parse_range("3") == (F(3), F(3))

    def test_parse_path_expr(self):
        parts = parse_path_expr("t*h", 1)
        assert parts[None] == (0,)
        assert parts["t"] == (1,)
        parts = parse_path_expr("e1 + t*e2", 2)
        assert parts[None] == (1, 0)
        assert parts["t"] == (0, 1)
        parts = parse_path_expr("1/2*[1,0] - u*[0,2]", 2)
        assert parts[None] == (F(1, 2), 0)
        assert parts["u"] == (0, -2)
        assert parse_path_expr("0", 1)[None] == (0,)

    def test_parse_path_rejects_quadratic(self):
        with pytest.raises(InputError):
            parse_path_expr("t*t*h", 1)

    def test_parse_rep_single_arrow(self):
        Q = Quiver.a_n(2, 2)
        E = parse_rep("dims=[1,1];f=[[1]]", Q)
        assert E.dims == (1, 1)
        assert E.mats == (((1,),),)


class TestK3Commands:
    def test_scan_csv(self, lattice_file, tmp_path, capsys):
        out = tmp_path / "walls.csv"
        code = main(
            [
                "k3", "scan", "--lattice", lattice_file,
                "--B", "0", "--omega", "t*h", "--t", "1/2..2",
                "--bound", "4", "-o", str(out),
            ]
        )
        assert code == 0
        body = out.read_text()
        data_lines = [l for l in body.splitlines() if not l.startswith("#")]
        assert data_lines == ["t,kind,r,l1,s,k", "1,A,1,0,1,"]

    def test_scan_deterministic(self, lattice_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "k3", "scan", "--lattice", lattice_file,
                    "--B", "0", "--omega", "t*h", "--t", "1/2..2",
                    "--bound", "3", "-o", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scan_json_and_svg(self, lattice2_file, tmp_path):
        out = tmp_path / "walls.csv"
        js = tmp_path / "walls.json"
        svg = tmp_path / "walls.svg"
        code = main(
            [
                "k3", "scan", "--lattice", lattice2_file,
                "--B", "0", "--omega", "e1 + t*e2", "--t=-1..1",
                "--bound", "2", "-o", str(out), "--json", str(js), "--svg", str(svg),
            ]
        )
        assert code == 0
        data = json.loads(js.read_text())
        kinds = {(w["kind"], tuple(w["witness"]["l"])) for w in data["walls"]}
        assert ("C", (0, 1)) in kinds
        assert svg.read_text().startswith("<?xml")

    def test_two_parameter_svg(self, lattice_file, tmp_path):
        svg = tmp_path / "chambers.svg"
        code = main(
            [
                "k3", "scan", "--lattice", lattice_file,
                "--B", "u*h", "--omega", "t*h", "--t", "1/2..2", "--u", "0..1",
                "--bound", "2", "--svg", str(svg),
            ]
        )
        assert code == 0
        assert "polyline" in svg.read_text() or "circle" in svg.read_text()

    def test_guard_exit_codes(self, lattice_file):
        ok = main(
            ["k3", "guard", "--lattice", lattice_file, "--B", "0",
             "--omega", "t*h", "--t", "2", "--bound", "4"]
        )
        assert ok == 0
        bad = main(
            ["k3", "guard", "--lattice", lattice_file, "--B", "0",
             "--omega", "t*h", "--t", "1/2", "--bound", "4"]
        )
        assert bad == 1

    def test_heart_check(self, lattice_file, capsys):
        code = main(
            ["k3", "heart-check", "--lattice", lattice_file, "--B", "0",
             "--omega", "t*h", "--t", "2", "--bound", "4"]
        )
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_normalize(self, lattice_file, capsys):
        code = main(
            ["k3", "normalize", "--lattice", lattice_file,
             "--re", "1,0,-9/4", "--im", "0,3/2,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "omega = ['3/2']" in out

    def test_malformed_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(
            ["k3", "guard", "--lattice", str(bad), "--B", "0",
             "--omega", "t*h", "--t", "2"]
        )
        assert code == 2


class TestQuiverCommands:
    def test_hn_stable_rep(self, quiver_file, capsys):
        code = main(
            ["quiver", "hn", "--config", quiver_file, "--rep", "dims=[1,1];f=[[1]]"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "factor 1" in out and "1/2" in out
        assert "factor 2" not in out

    def test_invariant_failure_is_exit_3(self, quiver_file, monkeypatch, capsys):
        def first_above(lat, values, current):
            return min(heart._bits(lat.above[current]))

        monkeypatch.setattr(heart, "_max_destabilizer", first_above)
        code = main(
            ["quiver", "hn", "--config", quiver_file, "--rep", "dims=[1,1];f=[[0]]"]
        )
        assert code == 3
        assert "InvariantError" in capsys.readouterr().err

    def test_uncaught_internal_error_is_exit_3(self, quiver_file, monkeypatch):
        def broken(lat, zc):
            raise ZeroDivisionError("defect")

        monkeypatch.setattr(heart, "_charge_values", broken)
        code = main(
            ["quiver", "hn", "--config", quiver_file, "--rep", "dims=[1,1];f=[[1]]"]
        )
        assert code == 3

    def test_jh(self, quiver_file, capsys):
        code = main(
            ["quiver", "jh", "--config", quiver_file, "--rep", "dims=[1,1];f=[[1]]"]
        )
        assert code == 0

    def test_check_gp(self, quiver_file):
        assert main(
            ["quiver", "check", "--config", quiver_file, "--suite", "gp",
             "--bound", "2,2"]
        ) == 0

    def test_check_slicing(self, quiver_file):
        assert main(
            ["quiver", "check", "--config", quiver_file, "--suite", "slicing",
             "--bound", "2,2"]
        ) == 0

    def test_check_local_finiteness(self, quiver_file):
        assert main(
            ["quiver", "check", "--config", quiver_file, "--suite",
             "local-finiteness", "--bound", "2,2", "--eta", "1/2"]
        ) == 0

    def test_deform(self, quiver_file, capsys):
        code = main(
            ["quiver", "deform", "--config", quiver_file, "--eps", "1/8",
             "--bound", "2,2", "--perturb", "0:1/10,0"]
        )
        assert code == 0
        assert "applicable" in capsys.readouterr().out

    def test_deform_not_applicable(self, quiver_file, capsys):
        code = main(
            ["quiver", "deform", "--config", quiver_file, "--eps", "1/8",
             "--bound", "2,2", "--perturb", "0:2,0"]
        )
        assert code == 0
        assert "not applicable" in capsys.readouterr().out

    def test_tilt_degenerate_identities(self, quiver_file, capsys):
        assert main(
            ["quiver", "tilt", "--config", quiver_file, "--torsion", "all",
             "--bound", "2,2"]
        ) == 0
        assert "original heart" in capsys.readouterr().out
        assert main(
            ["quiver", "tilt", "--config", quiver_file, "--torsion", "none",
             "--bound", "2,2"]
        ) == 0
        assert "shifted heart" in capsys.readouterr().out

    def test_resource_bound_is_exit_2(self, quiver_file):
        code = main(
            ["quiver", "hn", "--config", quiver_file,
             "--rep", "dims=[5,5];f=[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]"]
        )
        assert code == 2

    def test_sweep_box_past_the_total_bound_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "three_points.json"
        path.write_text(json.dumps(
            {"vertices": 3, "arrows": [], "p": 2,
             "charge": [["-1", "1"], ["0", "1"], ["1", "1"]]}
        ))
        code = main(["quiver", "check", "--config", str(path), "--suite", "gp",
                     "--bound", "3,3,3"])
        assert code == 2
        assert "total dimension 9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["deform", "--eps", "1/8", "--perturb", "5:1/10,0"],
            ["deform", "--eps", "1/8", "--perturb=-1:1/10,0"],
            ["deform", "--eps", "1/8", "--perturb", "0:1/10,0;0:1/5,0"],
            ["tilt", "--torsion", "d7=0"],
        ],
        ids=["perturb-past-the-last-vertex", "perturb-negative", "perturb-twice", "torsion"],
    )
    def test_unknown_or_repeated_vertex_is_exit_2(self, argv, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "deformation_test", no_sweep)
        monkeypatch.setattr(cli, "tilt_heart_check", no_sweep)
        code = main(["quiver", argv[0], "--config", A2_CONFIG, "--bound", "2,2", *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMalformedInput:
    """Malformed files and option values exit 2 with a message that names
    what is wrong, not with Python's own message (or exit 3)."""

    @pytest.mark.parametrize(
        "data, argv, message",
        [
            ({"vertices": 2, "p": 2}, ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config has no 'arrows' key"),
            ([2], ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config must be a JSON object, got list"),
            ({"ample_ref": [1]}, ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2",
                                  "--lattice"],
             "lattice file has no 'gram' key"),
            ({"M": [["1", "0"], ["0", "1"]]}, ["group", "compose", "--h", "{}", "--g"],
             "group element has no 'f0' key"),
            ({"M": [["1", "0"], ["0", "1"]], "f0": {"dir": [1, 0]}},
             ["group", "compose", "--h", "{}", "--g"], "f0 has no 'offset' key"),
            ({"vertices": 2, "arrows": [[0, 1]], "p": 2, "charge": [[1]]},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'charge' entry must be a list of 2 values, got [1]"),
            ({"vertices": 2, "arrows": [[0, 1]], "p": 2, "charge": 5},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'charge' must be a list, got 5"),
            ({"vertices": 2, "arrows": [[0]], "p": 2},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'arrows' entry must be a list of 2 values, got [0]"),
            ({"vertices": "2", "arrows": [[0, 1]], "p": 2},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'vertices' must be an integer, got '2'"),
            ({"gram": [2], "ample_ref": [1]},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'gram' row must be a list, got 2"),
            ({"gram": [[2]], "ample_ref": [1], "neg2_curves": 3},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'neg2_curves' must be a list, got 3"),
            ({"gram": [[[2]]], "ample_ref": [1]},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'gram' row must hold numbers or rational strings, got [[2]]"),
            ({"gram": [["a"]], "ample_ref": [1]},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'gram' row must hold numbers or rational strings, got ['a']"),
            ({"vertices": 2, "arrows": [[0, 1]], "p": 2, "charge": [["a", "1"], ["1", "1"]]},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'charge' entry must hold numbers or rational strings, "
             "got ['a', '1']"),
            ({"gram": [[2]], "ample_ref": [1], "rank": True},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'rank' must be an integer, got True"),
            ({"gram": [[2]], "ample_ref": [1], "rank": "1"},
             ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
             "lattice file 'rank' must be an integer, got '1'"),
            ({"vertices": True, "arrows": [], "p": 2},
             ["quiver", "check", "--suite", "gp", "--config"],
             "quiver config 'vertices' must be an integer, got True"),
        ],
        ids=["quiver-key", "quiver-list", "lattice-key", "group-key", "f0-key",
             "charge-entry", "charge", "arrow", "vertices", "gram-row", "curves",
             "gram-nested", "gram-entry", "charge-value", "rank-bool", "rank-string",
             "vertices-bool"],
    )
    def test_config_files(self, tmp_path, capsys, data, argv, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_inline_group_element(self, capsys):
        assert main(["group", "compose", "--g", "{}", "--h", "{}"]) == 2
        assert capsys.readouterr().err == "error: group element has no 'M' key\n"

    @pytest.mark.parametrize(
        "element, message",
        [
            ('{"M": 5, "f0": "0"}', "group element 'M' must be a list of 2 values, got 5"),
            ('{"M": [5, 1], "f0": "0"}',
             "group element 'M' row must be a list of 2 values, got 5"),
            ('{"M": [["1", "0"], ["0", "1"]], "f0": {"dir": 5, "offset": "0"}}',
             "f0 'dir' must be a list of 2 values, got 5"),
            ('{"M": [["a", "0"], ["0", "1"]], "f0": "0"}',
             "group element 'M' row must hold numbers or rational strings, got ['a', '0']"),
            ('{"rot": "1/0"}', "group element 'rot' must be a number or a rational string, "
             "got '1/0'"),
            ('{"rot": "x"}', "group element 'rot' must be a number or a rational string, got 'x'"),
            ('{"M": [["1", "0"], ["0", "1"]], "f0": "1/0"}',
             "group element 'f0' must be a number or a rational string, got '1/0'"),
            ('{"M": [["1", "0"], ["0", "1"]], "f0": {"dir": [1, 0], "offset": "1/0"}}',
             "f0 'offset' must be a number or a rational string, got '1/0'"),
            ('{"M": [["1", "0"], ["0", "1"]], "f0": {"dir": [0, "0/3"], "offset": "0"}}',
             "f0 'dir' must be a nonzero vector, got [0, '0/3']"),
        ],
        ids=["matrix", "row", "f0-dir", "entry", "rot-zero-denominator", "rot-literal",
             "f0-zero-denominator", "f0-offset", "f0-zero-dir"],
    )
    def test_inline_group_element_shape(self, capsys, element, message):
        assert main(["group", "compose", "--g", element, "--h", "{}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["deform", "--eps", "1/8", "--bound", "2,2", "--perturb", "0:1"],
             "--perturb expects i:re,im;..., got '0:1'"),
            (["deform", "--eps", "1/8", "--bound", "2,2", "--perturb", "x:1,0"],
             "--perturb expects i:re,im;..., got 'x:1,0'"),
            (["check", "--suite", "gp", "--bound", "2,x"],
             "--bound expects n,n,..., got '2,x'"),
            (["check", "--suite", "gp", "--bound", "2,-1"],
             "--bound entries must be nonnegative, got '2,-1'"),
            (["tilt", "--torsion", "d0=0", "--bound", "0,-3"],
             "--bound entries must be nonnegative, got '0,-3'"),
            (["hn", "--rep", "dims"], "--rep expects dims=[...];f=[...], got 'dims'"),
            (["hn", "--rep", "dims=5"], "--rep dims must be a list of integers, got 5"),
            (["hn", "--rep", "dims=[1,'a']"],
             "--rep dims must be a list of integers, got [1, 'a']"),
            (["hn", "--rep", "dims=[1,1];f=5"],
             "--rep f must be a list of integer matrices, got 5"),
            (["hn", "--rep", "dims=[-1,1];f=[[]]"], "--rep dims must be nonnegative, got [-1, 1]"),
            (["hn", "--rep", "dims=[1,1];f=[[x]]"],
             "--rep f must be a Python literal, got '[[x]]'"),
            (["hn", "--rep", "dims=x"], "--rep dims must be a Python literal, got 'x'"),
            (["hn", "--rep", "dims=[1,1];f=[[1]]extra"],
             "--rep f must be a Python literal, got '[[1]]extra'"),
            (["hn", "--rep", "dims=[1,1];f={[1]: 2}"],
             "--rep f must be a Python literal, got '{[1]: 2}'"),
            (["hn", "--rep", "dims=[1,1];f=[[1]];f=[[0]]"], "--rep names f twice"),
            (["hn", "--rep", "dims=[1,1];g=[[1]]"],
             "--rep has no key 'g': use dims=[...];f=[...]"),
        ],
        ids=["perturb-no-comma", "perturb-vertex", "bound", "bound-negative-check",
             "bound-negative-tilt", "rep", "rep-dims",
             "rep-dims-entry", "rep-f", "rep-dims-negative", "rep-f-name", "rep-dims-name",
             "rep-f-syntax", "rep-f-unhashable", "rep-repeated-key", "rep-unknown-key"],
    )
    def test_option_values(self, capsys, argv, message):
        assert main(["quiver", argv[0], "--config", A2_CONFIG, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--g", '{"rot": "1/8"}'],
            ["--g", '{"rot": "1/8"}', "--lattice", K3_CONFIG, "--re", "1,0,-1"],
            ["--g", '{"rot": "1/8"}', "--lattice", K3_CONFIG, "--im", "0,1,0"],
            ["--g", '{"rot": "1/8"}', "--re", "1,0,-1", "--im", "0,1,0"],
        ],
        ids=["nothing", "no-im", "no-re", "no-lattice"],
    )
    def test_group_act_without_a_charge(self, capsys, argv):
        assert main(["group", "act", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: group act needs --curve-m, or --lattice with --re and --im\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--g", '{"rot": 1/8}', "--h", "{}"],
             "--g: Expecting ',' delimiter: line 1 column 10 (char 9)"),
            (["--g", '{"rot": "1/8"}', "--h", '{"rot": 1/8}'],
             "--h: Expecting ',' delimiter: line 1 column 10 (char 9)"),
        ],
        ids=["g", "h"],
    )
    def test_group_element_json_syntax_names_the_option(self, capsys, argv, message):
        assert main(["group", "compose", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_group_element_file_json_syntax_names_the_option(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"rot": 1/8}')
        assert main(["group", "compose", "--g", str(path), "--h", "{}"]) == 2
        assert capsys.readouterr().err == (
            "error: --g: Expecting ',' delimiter: line 1 column 10 (char 9)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["k3", "guard", "--B", "0", "--omega", "t*h", "--t", "2", "--lattice"],
            ["quiver", "check", "--suite", "gp", "--config"],
        ],
        ids=["lattice", "config"],
    )
    def test_file_json_syntax_names_the_option_and_path(self, tmp_path, capsys, argv):
        path = tmp_path / "truncated.json"
        path.write_text('{"rank": 1, "gram": [[2]],\n')
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {argv[-1]}: {path}: Expecting property name enclosed in double quotes: "
            "line 2 column 1 (char 27)\n"
        ))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quiver", "deform", "--config", A2_CONFIG, "--eps", "1/4", "--bound", "2,2",
              "--rotate", "1/6", "--perturb", "0:x"], "give --rotate or --perturb, not both"),
            (["quiver", "deform", "--config", A2_CONFIG, "--eps", "1/4", "--bound", "2,2",
              "--rotate", "1/6", "--perturb", "0:1/10,0"], "give --rotate or --perturb, not both"),
            *((["group", "act", "--g", '{"rot": "1/8"}', "--curve-m", "1,0;0,1", *extra],
               "group act takes --curve-m, or --lattice with --re and --im, not both")
              for extra in (["--lattice", K3_CONFIG], ["--re", "1,0,-1"], ["--im", "0,1,0"],
                            ["--lattice", K3_CONFIG, "--re", "1,0,-1", "--im", "0,1,0"])),
            *((["k3", "scan", "--lattice", K3_CONFIG, "--B", "u*h", "--omega", "t*h",
                "--t", "1/2..2", "--u", "0..1", "--bound", "2", "--svg", "c.svg", *extra],
               "a two-parameter scan (--u) writes only --svg, not -o or --json")
              for extra in (["-o", "w.csv", "--json", "w.json"], ["-o", "w.csv"],
                            ["--json", "w.json"])),
        ],
        ids=["deform-bad-perturb", "deform", "act-lattice", "act-re", "act-im", "act-all",
             "scan-both", "scan-output", "scan-json"],
    )
    def test_conflicting_options(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["scan", "--B", "0", "--t", "1..2", "--k-bound=-1"], None,
             "--k-bound must be nonnegative, got -1"),
            (["scan", "--B", "u*h", "--t", "1..2", "--u", "0..1", "--svg", "c.svg",
              "--k-bound=-1"], None, "--k-bound must be nonnegative, got -1"),
            (["guard", "--B", "0", "--t", "2", "--bound=-1"], None,
             "--bound must be nonnegative, got -1"),
            (["heart-check", "--B", "0", "--t", "2", "--bound=-1"], None,
             "--bound must be nonnegative, got -1"),
            (["guard", "--B", "0", "--t", "2"], "-2",
             "STABKIT_BOUND must be nonnegative, got '-2'"),
        ],
        ids=["k-bound-scan", "k-bound-chambers", "bound-guard", "bound-heart-check", "env"],
    )
    def test_negative_k3_bounds(self, tmp_path, monkeypatch, capsys, argv, env, message):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("STABKIT_BOUND", raising=False)
        else:
            monkeypatch.setenv("STABKIT_BOUND", env)
        assert main(["k3", *argv, "--lattice", K3_CONFIG, "--omega", "t*h"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_k_bound_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["k3", "scan", "--lattice", K3_CONFIG, "--B", "0", "--omega", "t*h",
                     "--t", "1/2..2", "--bound", "2", "--k-bound", "0"]) == 0

    @pytest.mark.parametrize(
        "degrees, message",
        [
            ("5..-5", "--d is an empty parameter range, got '5..-5'"),
            ("1/2..5/2", "--d expects integer degrees, got '1/2..5/2'"),
        ],
        ids=["empty", "fractional"],
    )
    def test_order_check_degrees(self, capsys, degrees, message):
        assert main(["curve", "order-check", f"--d={degrees}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["k3", "guard", "--lattice", K3_CONFIG, "--B", "0", "--omega", "t*h", "--t", "x"],
             "--t: not a rational: 'x'"),
            (["k3", "guard", "--lattice", K3_CONFIG, "--B", "0", "--omega", "t*q", "--t", "2"],
             "--omega: not a rational: 'q'"),
            (["k3", "scan", "--lattice", K3_CONFIG, "--B", "[1/0]", "--omega", "t*h",
              "--t", "1..2"], "--B: not a rational: '1/0'"),
            (["quiver", "deform", "--config", A2_CONFIG, "--eps", "1/8", "--perturb", "0:x,0"],
             "--perturb: not a rational: 'x'"),
            (["quiver", "deform", "--config", A2_CONFIG, "--eps", "e", "--rotate", "1/6"],
             "--eps: not a rational: 'e'"),
            (["curve", "order-check", "--d=x..1"], "--d: not a rational: 'x'"),
            (["curve", "polygon", "--parts", "0,1 x"],
             "--parts: a curve class is two integers r,d, got 'x'"),
            (["curve", "polygon", "--parts", "0,1,2"],
             "--parts: a curve class is two integers r,d, got '0,1,2'"),
        ],
        ids=["t", "omega", "B", "perturb", "eps", "d", "parts", "parts-length"],
    )
    def test_parse_errors_name_the_option(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_dimension_without_arrows(self, tmp_path, capsys):
        # no matrix shape can catch it on a quiver without arrows
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"vertices": 2, "arrows": [], "p": 2, "charge": [["-1", "1"], ["1", "1"]]}
        ))
        assert main(["quiver", "jh", "--config", str(path), "--rep", "dims=[-1,2]"]) == 2
        assert capsys.readouterr().err == "error: --rep dims must be nonnegative, got [-1, 2]\n"


class TestCurveCommands:
    def test_decompose_identity(self, capsys):
        assert main(["curve", "decompose", "--m", "0,-1;1,0"]) == 0
        assert "['1', '0']" in capsys.readouterr().out

    def test_decompose_orientation_error(self):
        assert main(["curve", "decompose", "--m", "0,-1;-1,0"]) == 1

    def test_polygon(self, capsys):
        assert main(["curve", "polygon", "--parts", "0,1 1,0"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows == ["re,im", "0,0", "-1,0", "-1,1"]

    def test_order_check(self):
        assert main(["curve", "order-check", "--d=-10..10"]) == 0


class TestGroupCommands:
    def test_compose(self, capsys):
        assert main(
            ["group", "compose", "--g", '{"rot": "1/8"}', "--h", '{"rot": "3/8"}']
        ) == 0
        assert json.loads(capsys.readouterr().out) == {"M": [["0", "1"], ["-1", "0"]], "f0": "-1/2"}

    def test_act_on_curve(self, capsys):
        assert main(
            ["group", "act", "--g", '{"M": [["2","0"],["0","2"]], "f0": "0"}',
             "--curve-m", "0,-1;1,0"]
        ) == 0
        assert "-1/2" in capsys.readouterr().out

    def test_commute(self, lattice_file):
        assert main(
            ["group", "commute", "--lattice", lattice_file,
             "--iso", "reflection:1,0,1",
             "--g", '{"M": [["0","1"],["-1","0"]], "f0": "-1/2"}',
             "--re", "1,0,-1", "--im", "0,1,0"]
        ) == 0
