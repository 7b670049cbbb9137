import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe.cli import build_parser, main
from helpers import path_graph
from graphrothe import calculus, fileio, spectral
from test_golden import config_heat_p1


def write_p5_graph(tmp_path):
    path = tmp_path / "p5.txt"
    fileio.write_graph_file(path_graph(5), str(path))
    return str(path)


def write_domain_123(tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("omega 1\nomega 2\nomega 3\n")
    return str(path)


def heat_config(tmp_path, **overrides):
    cfg = {
        "graph": {"file": write_p5_graph(tmp_path)},
        "domain": {"file": write_domain_123(tmp_path)},
        "problem": {
            "kind": "heat",
            "p": 1.0,
            "horizon": 1.0,
            "steps": 40,
            "initial": {"values": {"2": 1.0}},
        },
        "output": str(tmp_path / "out"),
    }
    cfg["problem"].update(overrides.pop("problem", {}))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def vi_obstacle_config(tmp_path, **overrides):
    """A small obstacle VI on the 5-vertex path, omega {1, 2, 3}."""
    cfg = {
        "graph": {"file": write_p5_graph(tmp_path)},
        "domain": {"file": write_domain_123(tmp_path)},
        "problem": {
            "kind": "vi",
            "horizon": 1.0,
            "steps": 4,
            "initial": {"values": {"2": 1.0}},
            "forcing": {"kind": "constant",
                        "field": {"values": {"2": -5.0}}},
            "constraint": {"kind": "obstacle",
                           "psi": {"values": {"2": 0.0}}},
            "lipschitz_bound": 0.0,
        },
        "output": str(tmp_path / "out"),
    }
    cfg["problem"].update(overrides.pop("problem", {}))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def grid_config(tmp_path, name, problem):
    """The 5x5 grid p = 1 heat config of the golden tests, with its
    problem block updated by ``problem``, written to ``name``; its output
    directory is named after the file. The domain has 19 interior
    vertices."""
    cfg = config_heat_p1(tmp_path)
    cfg["problem"].update(problem)
    cfg["output"] = str(tmp_path / pathlib.Path(name).stem)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunHeat:
    def test_outputs_and_manifest(self, tmp_path):
        cfg_path, cfg = heat_config(tmp_path)
        assert main(["run", cfg_path]) == 0
        out = tmp_path / "out"
        for name in ("trajectory.csv", "estimates.csv", "norms.csv",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trajectory.csv",
                                            "estimates.csv", "norms.csv"}
        assert manifest["diagnostics"]["max_energy_defect"] <= 1e-10

    def test_deterministic_reruns(self, tmp_path):
        cfg_path, cfg = heat_config(tmp_path)
        configs = [cfg_path,
                   grid_config(tmp_path, "oracle.json",
                               {"steps_list": [3, 6],
                                "compare_oracle": True}),
                   grid_config(tmp_path, "spectral.json",
                               {"kind": "spectral"})]
        for path in configs:
            out = pathlib.Path(json.loads(open(path).read())["output"])
            assert main(["run", path]) == 0
            first = {name: (out / name).read_bytes()
                     for name in os.listdir(out)}
            assert main(["run", path]) == 0
            second = {name: (out / name).read_bytes()
                      for name in os.listdir(out)}
            assert first == second
        assert "oracle_trajectory.csv" in os.listdir(tmp_path / "oracle")
        assert len(os.listdir(tmp_path / "spectral")) > 3

    def test_compare_oracle_order(self, tmp_path):
        cfg_path, cfg = heat_config(
            tmp_path,
            problem={"steps_list": [125, 250, 500, 1000],
                     "compare_oracle": True})
        assert main(["run", cfg_path]) == 0
        text = (tmp_path / "out" / "oracle_error.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        orders = [float(r[4]) for r in rows if r[4]]
        assert all(0.8 <= o <= 1.2 for o in orders)

    def test_exhaustion_run(self, tmp_path):
        cfg = {
            "graph": {"generative": "lattice_z", "params": {}},
            "domain": "all",
            "problem": {
                "kind": "heat",
                "p": 1.0,
                "horizon": 1.0,
                "steps": 50,
                "initial": {"values": {"0": 1.0}},
                "exhaustion": {"seeds": ["0"], "levels": [4, 8, 12]},
            },
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "levels.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "m,interior_size,l2_terminal,delta_prev"
        assert len(lines) == 4


class TestRunVi:
    def test_obstacle_run(self, tmp_path, capsys):
        cfg = {
            "graph": {"file": write_p5_graph(tmp_path)},
            "domain": {"file": write_domain_123(tmp_path)},
            "problem": {
                "kind": "vi",
                "horizon": 1.0,
                "steps": 20,
                "initial": {"values": {"2": 1.0}},
                "forcing": {"kind": "separable",
                            "field": {"values": {"2": -5.0}},
                            "time": "1 + 0.1*t"},
                "constraint": {"kind": "obstacle",
                               "psi": {"values": {"2": 0.0}}},
            },
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert "no declared Lipschitz bound" in err
        reports = (tmp_path / "out" / "vi_reports.csv").read_text()
        header = reports.splitlines()[0].split(",")
        assert "complementarity" in header and "beta" in header
        assert header[-1] == "iterations"
        for row in reports.splitlines()[1:]:
            assert 1 <= int(row.split(",")[-1]) <= 2

    def test_lipschitz_violation_downgrades(self, tmp_path):
        cfg = {
            "graph": {"file": write_p5_graph(tmp_path)},
            "domain": {"file": write_domain_123(tmp_path)},
            "problem": {
                "kind": "vi",
                "horizon": 1.0,
                "steps": 32,
                "initial": {"values": {"2": 1.0}},
                "forcing": {"kind": "separable",
                            "field": {"values": {"2": 1.0}},
                            "time": "t**0.5"},
                "lipschitz_bound": 0.5,
            },
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["lipschitz"]["violated"]
        assert "downgraded" in manifest["diagnostics"]["convergence_claims"]


class TestValidation:
    def test_ok(self, tmp_path, capsys):
        cfg_path, _ = heat_config(tmp_path)
        assert main(["validate-config", cfg_path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_p_below_one_exit_2(self, tmp_path, capsys):
        cfg_path, _ = heat_config(tmp_path, problem={"p": 0.5})
        assert main(["validate-config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith("error[CONFIG]:")

    def test_missing_reference_exit_4(self, tmp_path, capsys):
        cfg_path, cfg = heat_config(tmp_path)
        data = json.loads(open(cfg_path).read())
        data["graph"] = {"file": str(tmp_path / "missing.txt")}
        open(cfg_path, "w").write(json.dumps(data))
        assert main(["validate-config", cfg_path]) == 4
        assert capsys.readouterr().err.startswith("error[IO]:")

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        cfg_path, _ = heat_config(tmp_path)
        valid = open(cfg_path).read()
        path = tmp_path / "bad.json"
        # non-finite literals, a float literal that overflows to inf, and
        # an int beyond the float range
        for literal in ("NaN", "Infinity", "-Infinity", "1e400",
                        "1" + "0" * 400):
            path.write_text(valid.replace('"horizon": 1.0',
                                          f'"horizon": {literal}'))
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error[CONFIG]:")
        # malformed, undecodable, and an int past the parser's digit limit
        for text in (b"{not json", b"\xff{}",
                     b'{"steps": ' + b"1" * 5000 + b"}"):
            path.write_bytes(text)
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error[CONFIG]:")

    def test_no_partial_output_on_invalid_config(self, tmp_path, capsys):
        nan_field = tmp_path / "nan_field.txt"
        nan_field.write_text("2 1.0\n1 nan\n")
        cases = [({"p": 0.5}, []),
                 ({"steps": True}, []),
                 ({"steps": None, "steps_list": [True, 2]}, []),
                 ({"horizon": True}, []),
                 ({"p": True}, []),
                 ({"exhaustion": {"seeds": ["2"], "levels": [True]}}, []),
                 ({}, ["--horizon", "inf"]),
                 ({}, ["--p", "nan"]),
                 ({"initial": {"values": {"2": "abc"}}}, []),
                 ({"initial": {"values": {"2": True}}}, []),
                 ({"initial": {"values": {"2": None}}}, []),
                 ({}, ["--initial", str(nan_field)]),
                 ({}, ["--levels", "a,b"]),
                 ({}, ["--levels", "1.5"])]
        for problem, extra in cases:
            cfg_path, _ = heat_config(tmp_path, problem=problem)
            assert main(["run", cfg_path, *extra]) == 2
            assert not (tmp_path / "out").exists()
            err = capsys.readouterr().err
            assert err.startswith("error[CONFIG]:") and err.count("\n") == 1
        # a domain whose interior is empty, for every problem kind, and an
        # exhaustion inside it: refused at validation with no warning line
        for problem in ({}, {"exhaustion": {"seeds": ["2"], "levels": [1]}},
                        {"kind": "spectral"}):
            cfg_path, _ = heat_config(tmp_path, domain={"omega": ["2"]},
                                      problem=problem)
            for command in ("validate-config", "run"):
                assert main([command, cfg_path]) == 2
                assert not (tmp_path / "out").exists()
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(
                    "error[CONFIG]: domain has an empty interior")
                assert captured.err.count("\n") == 1
        # field values that JSON reads as inf, or as an int past the
        # float range
        for literal in ("1e400", "-1e400", "1" + "0" * 400):
            cfg_path, _ = heat_config(tmp_path)
            text = open(cfg_path).read()
            open(cfg_path, "w").write(
                text.replace('{"2": 1.0}', f'{{"2": {literal}}}'))
            assert main(["run", cfg_path]) == 2
            assert not (tmp_path / "out").exists()
            err = capsys.readouterr().err
            assert err.startswith("error[CONFIG]:") and err.count("\n") == 1

    def test_solve_error_exit_3(self, tmp_path, capsys):
        # explicit oracle cannot resolve a graph with huge weights
        g = path_graph(3, w=1e9)
        gpath = tmp_path / "stiff.txt"
        fileio.write_graph_file(g, str(gpath))
        cfg = {
            "graph": {"file": str(gpath)},
            "domain": "all",
            "problem": {"kind": "heat", "p": 3.0, "horizon": 1.0,
                        "steps": 10, "initial": {"values": {"1": 1.0}},
                        "compare_oracle": True},
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith("error[SOLVE]:")
        # the Newton state overflows: one error line and no numpy warning
        cfg_path, _ = heat_config(
            tmp_path, domain="all", output=str(tmp_path / "out_p100"),
            problem={"p": 100.0, "steps": 4,
                     "initial": {"values": {"2": 2000.0}}})
        assert main(["run", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[SOLVE]:") and err.count("\n") == 1

    def test_undecodable_input_files_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfeg\x00r\x00")
        cases = [({"graph": {"file": str(bad)}}, []),
                 ({"domain": {"file": str(bad)}}, []),
                 ({}, ["--initial", str(bad)])]
        for overrides, extra in cases:
            cfg_path, _ = heat_config(tmp_path, **overrides)
            assert main(["run", cfg_path, *extra]) == 2
            assert not (tmp_path / "out").exists()
            err = capsys.readouterr().err
            assert err == f"error[CONFIG]: {bad}: not UTF-8 text " \
                "(invalid start byte at byte 0)\n"
        traj = TestCompare()._run(tmp_path, 8, "out_a")
        assert main(["compare", traj, str(bad),
                     "--graph", str(tmp_path / "p5.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[CONFIG]: {bad}: not UTF-8 text")
        assert err.count("\n") == 1


    def test_psor_relax_refused(self, tmp_path, capsys):
        cfg_path, _ = vi_obstacle_config(
            tmp_path, tolerances={"psor": 1e-10, "psor_relax": 1.5})
        for command in ("validate-config", "run"):
            assert main([command, cfg_path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error[CONFIG]: tolerances.psor_relax ")
            assert "primal-dual active set method (PDAS)" in err
            assert "no relaxation" in err
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        # the obstacle KKT tolerance keeps its key
        cfg_path, _ = vi_obstacle_config(tmp_path,
                                         tolerances={"psor": 1e-10})
        assert main(["run", cfg_path]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())
        assert manifest["tolerances"] == {"newton_factor": 1e-12,
                                          "psor": 1e-10, "ode_oracle": 1e-10}

    def test_overflowing_data_exit_3(self, tmp_path, capsys):
        # finite inputs whose squares leave the float64 range
        for cfg_path, _ in (
                vi_obstacle_config(tmp_path,
                                   problem={"initial": {"values":
                                                        {"2": 1e300}}}),
                heat_config(tmp_path, problem={"initial": {"values":
                                                           {"2": 1e200}}})):
            assert main(["run", cfg_path]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error[SOLVE]: overflow encountered in ")
            assert err.endswith(": the data exceed the float64 range\n")
            assert err.count("error[") == 1 and "Warning" not in err

    def test_repeated_values_keys_exit_2(self, tmp_path, capsys):
        for problem, message in (
                ({"initial": {"values": {"1": 1.0, "01": 5.0}}},
                 "values keys '1' and '01' name one vertex 1"),
                ({"constraint": {"kind": "obstacle",
                                 "psi": {"values": {"2": 0.0,
                                                    "+2": 0.5}}}},
                 "values keys '2' and '+2' name one vertex 2")):
            cfg_path, _ = vi_obstacle_config(tmp_path, problem=problem)
            assert main(["validate-config", cfg_path]) == 2
            assert capsys.readouterr().err == f"error[CONFIG]: {message}\n"

    def test_unknown_domain_label_names_file_and_line(self, tmp_path,
                                                        capsys):
        domain = tmp_path / "dom_zz.txt"
        domain.write_text("omega 1\n# a comment\nomega zz\n")
        message = f"error[CONFIG]: {domain}:3: unknown vertex label 'zz'\n"
        cfg_path, _ = heat_config(tmp_path, domain={"file": str(domain)})
        assert main(["validate-config", cfg_path]) == 2
        assert capsys.readouterr().err == message
        p5 = str(tmp_path / "p5.txt")
        assert main(["graph-info", p5, "--domain", str(domain)]) == 2
        assert capsys.readouterr().err == message
        cfg_path, _ = heat_config(tmp_path, problem={"steps": 4})
        assert main(["run", cfg_path]) == 0
        traj = str(tmp_path / "out" / "trajectory.csv")
        capsys.readouterr()
        assert main(["compare", traj, traj, "--graph", p5,
                     "--domain", str(domain)]) == 2
        assert capsys.readouterr().err == message

    def test_repeated_records_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("graph 2\nv 0 1.0\nv 1 1.0\nv 00 2.0\n"
                         "e 0 1 1.0\n")
        cases = [({"graph": {"file": str(graph)}}, [],
                  f"{graph}:4: vertex 0 listed twice")]
        for name, text, message in (
                ("twice.txt", "2 1.0\n02 3.0\n", "vertex 2 listed twice"),
                ("unknown.txt", "2 1.0\nzz 3.0\n",
                 "unknown vertex label 'zz'")):
            field = tmp_path / name
            field.write_text(text)
            cases.append(({}, ["--initial", str(field)],
                          f"{field}:2: {message}"))
        for overrides, extra, message in cases:
            cfg_path, _ = heat_config(tmp_path, **overrides)
            assert main(["run", cfg_path, *extra]) == 2
            assert not (tmp_path / "out").exists()
            assert capsys.readouterr().err == f"error[CONFIG]: {message}\n"


class TestUsageErrors:
    """Command-line usage errors keep the contract: exit 2 and one
    ``error[CONFIG]:`` line, with no usage block and no SystemExit."""

    @pytest.mark.parametrize("argv, message", [
        ([], "graphrothe: the following arguments are required: command"),
        (["run"], "graphrothe run: the following arguments are required: "
                  "config"),
        (["run", "CONFIG", "--steps", "abc"],
         "graphrothe run: argument --steps: invalid int value: 'abc'"),
        (["frobnicate"], "graphrothe: argument command: invalid choice: "
                         "'frobnicate'"),
    ])
    def test_one_config_line(self, tmp_path, capsys, argv, message):
        cfg_path, _ = heat_config(tmp_path)
        argv = [cfg_path if a == "CONFIG" else a for a in argv]
        # twice: the parser is built once per process and reused
        for _ in range(2):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error[CONFIG]: {message}")
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_parser_reused_across_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        cfg_path, _ = heat_config(tmp_path)
        assert main(["run", cfg_path, "--steps", "x"]) == 2
        for _ in range(2):
            assert main(["validate-config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert captured.out == "config ok\nconfig ok\n"
        assert captured.err.count("\n") == 1


def lattice_config(tmp_path, generative, seeds, params=None, levels=(2, 4)):
    cfg = {
        "graph": {"generative": generative, "params": params or {}},
        "domain": "all",
        "problem": {"kind": "heat", "horizon": 1.0, "steps": 4,
                    "initial": {"values": {}},
                    "exhaustion": {"seeds": seeds, "levels": list(levels)}},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGenerativeValidation:
    """A malformed seed or ``params`` entry of a generative graph exits 2
    with one error line from ``validate-config``, before any ball is
    built."""

    @pytest.mark.parametrize("generative, seeds, params, message", [
        ("lattice_z2", ["1,2,3"], None, "seed '1,2,3' is not a vertex"),
        ("lattice_z2", ["a"], None, "seed 'a' is not a vertex"),
        ("lattice_z", ["0,0"], None, "seed '0,0' is not a vertex"),
        ("lattice_z", ["0"], {"weight": "x"}, "graph.params.weight must"),
        ("lattice_z", ["0"], {"wieght": 1.0}, "unknown graph.params key"),
        ("lattice_z", ["0"], {"weight": True}, "graph.params.weight must"),
        ("lattice_z2", ["0,0"], {"mu": True}, "graph.params.mu must"),
        ("lattice_z2", "0,0", None, "exhaustion needs a list of seeds"),
        ("lattice_z2", ["99999999999999999999,0"], None, "int64"),
    ])
    def test_refused(self, tmp_path, capsys, generative, seeds, params,
                     message):
        cfg_path = lattice_config(tmp_path, generative, seeds, params)
        assert main(["validate-config", cfg_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[CONFIG]:")
        assert message in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("generative, seed, level", [
        ("lattice_z2", "0,0", 10 ** 6), ("lattice_z", "0", 10 ** 12)])
    def test_oversized_level_refused(self, tmp_path, capsys, generative,
                                     seed, level):
        # levels whose ball asks for terabytes, so they fail at once even
        # without the bound; none near the bound is run here
        cfg_path = lattice_config(tmp_path, generative, [seed],
                                  levels=(2, level))
        (tmp_path / "small").mkdir()
        small = lattice_config(tmp_path / "small", generative, [seed])
        for argv in (["validate-config", cfg_path],
                     ["run", cfg_path],
                     ["run", small, "--levels", f"2,{level}"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[CONFIG]: the ball of "
                                           f"radius {level + 1} around 1 ")
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "small" / "out").exists()

    def test_accepted_seed_forms(self, tmp_path, capsys):
        for generative, seeds in (("lattice_z", [0, "-3"]),
                                  ("lattice_z2", ["0,0", "-2,5"])):
            cfg_path = lattice_config(tmp_path, generative, seeds,
                                      {"weight": 2, "mu": 0.5})
            assert main(["validate-config", cfg_path]) == 0
            assert capsys.readouterr().out == "config ok\n"


class TestInitialOutsideInterior:
    """An initial field that is nonzero outside the interior of a finite
    domain is a config error, refused by ``validate-config`` too."""

    @pytest.mark.parametrize("make_config", [heat_config,
                                             vi_obstacle_config])
    def test_exit_2(self, tmp_path, capsys, make_config):
        for command in ("validate-config", "run"):
            cfg_path, _ = make_config(
                tmp_path, problem={"initial": {"values": {"2": 1.0,
                                                          "3": 0.5}}})
            assert main([command, cfg_path]) == 2
            assert not (tmp_path / "out").exists()
            err = capsys.readouterr().err
            assert err == ("error[CONFIG]: problem.initial must vanish "
                           "outside the domain interior, but it is 0.5 "
                           "at vertex 3\n")

    def test_exhaustion_restricts_initial(self, tmp_path, capsys):
        # on a file graph the levels restrict the initial field instead
        cfg_path, _ = heat_config(
            tmp_path, domain="all",
            problem={"initial": {"values": {"0": 1.0, "2": 1.0}},
                     "exhaustion": {"seeds": ["2"], "levels": [1, 2]}})
        assert main(["validate-config", cfg_path]) == 0


class TestRunSpectral:
    def test_basis_outputs(self, tmp_path):
        cfg = {
            "graph": {"file": write_p5_graph(tmp_path)},
            "domain": {"file": write_domain_123(tmp_path)},
            "problem": {"kind": "spectral"},
            "output": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        basis = (out / "basis.csv").read_text().splitlines()
        assert basis[0] == "j,lambda"
        assert float(basis[1].split(",")[1]) == pytest.approx(2.0, abs=1e-12)
        assert (out / "basis_field_1.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        diag = manifest["diagnostics"]
        assert diag["max_eigen_residual"] <= 1e-10 * 3.0
        assert diag["max_orthonormality_defect"] <= 1e-10

        # a multi-mode domain: one row and one field file per mode
        assert main(["run", grid_config(tmp_path, "grid.json",
                                        {"kind": "spectral"})]) == 0
        out = tmp_path / "grid"
        rows = (out / "basis.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, 20))
        lams = [float(r.split(",")[1]) for r in rows]
        assert lams == sorted(lams) and lams[0] > 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(
            ["basis.csv"] + [f"basis_field_{j}.txt" for j in range(1, 20)])
        for j in range(1, 20):
            text = (out / f"basis_field_{j}.txt").read_text()
            assert len(text.splitlines()) == 25
        diag = manifest["diagnostics"]
        assert diag["max_eigen_residual"] <= 1e-10 * (1.0 + lams[-1])
        assert diag["max_orthonormality_defect"] <= 1e-10
        assert diag["nonpositive_modes"] is False

    def test_no_pairwise_inner_products(self, tmp_path, monkeypatch):
        calls = []
        inner_product = calculus.inner_product

        def counted(*args, **kwargs):
            calls.append(args)
            return inner_product(*args, **kwargs)

        monkeypatch.setattr(calculus, "inner_product", counted)
        assert main(["run", grid_config(tmp_path, "grid.json",
                                        {"kind": "spectral"})]) == 0
        assert calls == []


class TestDenseSizeGuard:
    """A dense eigenbasis above ``spectral.MAX_DENSE_INTERIOR`` interior
    vertices is refused at validation; the limit is lowered here, so no
    large ``eigh`` runs."""

    def _refuses(self, path, capsys, monkeypatch):
        def no_eigh(dom):
            raise AssertionError("eigenbasis built past the guard")

        monkeypatch.setattr(spectral, "dirichlet_eigenbasis", no_eigh)
        for command in ("validate-config", "run"):
            assert main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error[CONFIG]: a dense eigenbasis (kind spectral, p = 1 "
                "oracle study) of 19 interior vertices is above the limit "
                "of 18\n")
        assert not os.path.exists(
            json.loads(open(path).read())["output"])

    def test_spectral_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_DENSE_INTERIOR", 18)
        path = grid_config(tmp_path, "grid.json", {"kind": "spectral"})
        self._refuses(path, capsys, monkeypatch)

    def test_p1_oracle_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_DENSE_INTERIOR", 18)
        path = grid_config(tmp_path, "grid.json",
                           {"steps_list": [3, 6], "compare_oracle": True})
        self._refuses(path, capsys, monkeypatch)
        # the same through --compare-oracle on a config without it
        path = grid_config(tmp_path, "plain.json", {})
        assert main(["run", path, "--compare-oracle"]) == 2
        assert "limit of 18" in capsys.readouterr().err

    def test_at_limit_and_other_runs_pass(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_DENSE_INTERIOR", 19)
        assert main(["run", grid_config(tmp_path, "spectral.json",
                                        {"kind": "spectral"})]) == 0
        monkeypatch.setattr(spectral, "MAX_DENSE_INTERIOR", 1)
        # no eigenbasis: plain heat, and the p > 1 oracle (RK4)
        assert main(["run", grid_config(tmp_path, "heat.json", {})]) == 0
        assert main(["run", grid_config(
            tmp_path, "p2.json",
            {"p": 2.0, "steps_list": [3, 6], "compare_oracle": True})]) == 0


class TestGraphInfo:
    def test_info(self, tmp_path, capsys):
        gpath = write_p5_graph(tmp_path)
        dpath = write_domain_123(tmp_path)
        assert main(["graph-info", gpath, "--domain", dpath]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["num_vertices"] == 5
        assert info["max_degree"] == 2
        assert info["interior_size"] == 1

    def test_empty_interior_reported_quietly(self, tmp_path, capsys):
        gpath = write_p5_graph(tmp_path)
        dpath = tmp_path / "omega2.txt"
        dpath.write_text("omega 2\n")
        assert main(["graph-info", gpath, "--domain", str(dpath)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        info = json.loads(captured.out)
        assert info["omega_size"] == 1
        assert info["interior_size"] == 0


class TestCompare:
    def _run(self, tmp_path, steps, outname):
        cfg_path, _ = heat_config(tmp_path,
                                  problem={"steps": steps},
                                  output=str(tmp_path / outname))
        cfg = json.loads(open(cfg_path).read())
        cfg["output"] = str(tmp_path / outname)
        open(cfg_path, "w").write(json.dumps(cfg))
        assert main(["run", cfg_path]) == 0
        return str(tmp_path / outname / "trajectory.csv")

    def test_self_comparison_zero(self, tmp_path, capsys):
        traj = self._run(tmp_path, 8, "out_a")
        gpath = str(tmp_path / "p5.txt")
        dpath = str(tmp_path / "dom.txt")
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", traj, traj, "--graph", gpath,
                     "--domain", dpath, "--output", out]) == 0
        rows = open(out).read().splitlines()[1:]
        for row in rows:
            _, l2, sup = row.split(",")
            assert float(l2) == 0.0 and float(sup) == 0.0
        assert "max_l2_diff 0.0" in capsys.readouterr().out

    def test_dyadic_errors_halve(self, tmp_path, capsys):
        traj_a = self._run(tmp_path, 50, "out_a")
        traj_b = self._run(tmp_path, 100, "out_b")
        gpath = str(tmp_path / "p5.txt")
        dpath = str(tmp_path / "dom.txt")
        # difference between n and 2n runs is dominated by the coarser
        # run's first-order error
        assert main(["compare", traj_a, traj_b, "--graph", gpath,
                     "--domain", dpath, "--times", "1.0"]) == 0
        out_ab = capsys.readouterr().out
        diff_ab = float(out_ab.splitlines()[-1].split()[-1])
        exact = math.exp(-3.0)
        endpoint_a = (1.0 + 3.0 / 50.0) ** -50
        endpoint_b = (1.0 + 3.0 / 100.0) ** -100
        assert diff_ab == pytest.approx(endpoint_a - endpoint_b, abs=1e-12)
        assert abs(endpoint_a - exact) / abs(endpoint_b - exact) \
            == pytest.approx(2.0, abs=0.1)

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        traj = self._run(tmp_path, 8, "out_a")
        gpath = str(tmp_path / "p5.txt")
        good = open(traj).read().splitlines()
        bad = tmp_path / "bad.csv"
        # (replacement for the third data row, file row number)
        for row in ("1,0.125,2", "1,0.125,2,0.5,9", "x,0.125,2,0.5",
                    "1.5,0.125,2,0.5", "-1,0.125,2,0.5", "1,0.125,2,abc",
                    "1,0.125,2,nan", "1,0.125,2,inf", "1,nan,2,0.5",
                    "1,zz,2,0.5", ""):
            lines = good[:3] + [row] + good[4:]
            bad.write_text("\n".join(lines) + "\n")
            assert main(["compare", traj, str(bad), "--graph", gpath]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error[CONFIG]: {bad}:4: ")
            assert err.count("\n") == 1

    def test_inconsistent_steps_exit_2(self, tmp_path, capsys):
        traj = self._run(tmp_path, 8, "out_a")
        gpath = str(tmp_path / "p5.txt")
        good = open(traj).read().splitlines()
        assert good[3].startswith("0,0.0,2,")
        bad = tmp_path / "bad.csv"
        # a step-0 row at another time, a row that skips step 1, and one
        # past the last step that skips step 9
        for lines, rowno, msg in (
                (good[:3] + ["0,0.5,2,0.0"] + good[4:], 4,
                 "step 0 at time 0.5, read before at 0.0"),
                (good[:3] + ["2,0.25,2,0.0"] + good[4:], 4,
                 "step index 2 skips step 1"),
                (good + ["10,1.25,0,0.0"], len(good) + 1,
                 "step index 10 skips step 9")):
            bad.write_text("\n".join(lines) + "\n")
            assert main(["compare", traj, str(bad), "--graph", gpath]) == 2
            err = capsys.readouterr().err
            assert err == f"error[CONFIG]: {bad}:{rowno}: {msg}\n"

    def test_repeated_row_exit_2(self, tmp_path, capsys):
        traj = self._run(tmp_path, 8, "out_a")
        gpath = str(tmp_path / "p5.txt")
        good = open(traj).read().splitlines()
        step1 = next(row for row in good if row.startswith("1,"))
        t1 = step1.split(",")[1]
        bad = tmp_path / "bad.csv"
        capsys.readouterr()
        # a second row for (step 1, vertex 2), at the end and with a label
        # token that parses to the same vertex
        for extra in (f"1,{t1},2,99.0", f"1,{t1},+2,99.0"):
            bad.write_text("\n".join(good + [extra]) + "\n")
            assert main(["compare", traj, str(bad), "--graph", gpath]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error[CONFIG]: {bad}:{len(good) + 1}: "
                                    f"vertex 2 listed twice in step 1\n")

    def test_graph_mismatch(self, tmp_path, capsys):
        traj = self._run(tmp_path, 8, "out_a")
        other = path_graph(4)
        gpath = str(tmp_path / "p4.txt")
        fileio.write_graph_file(other, gpath)
        assert main(["compare", traj, traj, "--graph", gpath]) == 2
        assert capsys.readouterr().err.startswith("error[CONFIG]:")
        # times that do not parse, and a domain with an empty interior
        empty = tmp_path / "empty_interior.txt"
        empty.write_text("omega 2\n")
        p5 = str(tmp_path / "p5.txt")
        for extra in (["--times", "abc"], ["--times", "0.5,x"],
                      ["--domain", str(empty)]):
            assert main(["compare", traj, traj, "--graph", p5, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[CONFIG]:")
            assert captured.err.count("\n") == 1

    def test_nothing_to_compare_exit_2(self, tmp_path, capsys):
        # grids with no time in common, and a trajectory without steps
        g = path_graph(3)
        gpath = str(tmp_path / "p3.txt")
        fileio.write_graph_file(g, gpath)
        values = np.array([[0.0, float(k), 0.0] for k in range(2)])
        traj_a = str(tmp_path / "a.csv")
        traj_b = str(tmp_path / "b.csv")
        empty = tmp_path / "empty.csv"
        fileio.write_trajectory_csv(traj_a, values, [0.0, 0.5], g)
        fileio.write_trajectory_csv(traj_b, values[1:], [0.1], g)
        empty.write_text("i,t,vertex,value\n")
        for a, b in ((traj_a, traj_b), (traj_a, str(empty)),
                     (str(empty), traj_a), (str(empty), str(empty))):
            assert main(["compare", a, b, "--graph", gpath]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error[CONFIG]: {a} and {b} have no "
                                    "time in common to compare\n")


# keys that parse to the same label ("2", "+2", "002"; "1", "01"),
# labels outside the interior {2} or the graph, and a tuple label that the
# path does not have
INTERIOR_KEYS = st.sampled_from(["2", "+2", "002"])
LABEL_KEYS = st.sampled_from(["0", "1", "01", "2", "+2", "002", "3", "4",
                              "-1", "zz", "1,2"])
NUMBERS = st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3))
ODD_NUMBERS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 1e-300, 1e300, 5e-324, 10**400]))


def _junk():
    return st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                     st.lists(st.integers(), max_size=2))


def _mostly(good, bad, odds=4):
    """``good``, and ``bad`` once in ``odds`` draws."""
    return st.sampled_from([good] * (odds - 1) + [bad]).flatmap(
        lambda strategy: strategy)


def _values_block(keys):
    return _mostly(
        st.fixed_dictionaries({"values": st.dictionaries(
            keys, _mostly(NUMBERS, st.one_of(ODD_NUMBERS, _junk()), 12),
            max_size=3)}),
        st.one_of(st.fixed_dictionaries({"values": _junk()}),
                  st.just({"file": "no-such-field.txt"}),
                  st.just({"values": {}, "file": "f.txt"}),
                  _junk()))


def _constraint_block():
    return _mostly(
        st.one_of(st.just({"kind": "subspace"}),
                  st.fixed_dictionaries({
                      "kind": st.just("obstacle"),
                      "psi": _values_block(LABEL_KEYS)})),
        st.one_of(st.just({"kind": "obstacle"}),
                  st.fixed_dictionaries({"kind": st.text(max_size=4)}),
                  _junk()))


def _tolerances_block():
    return _mostly(
        st.dictionaries(
            st.sampled_from(["newton_factor", "psor", "psor_relax",
                             "ode_oracle", "sweeps"]),
            _mostly(st.floats(1e-14, 1e-6),
                    st.one_of(NUMBERS, ODD_NUMBERS, _junk())),
            max_size=3),
        _junk())


class TestViConfigFuzz:
    """Generated constraint, tolerances and inline values blocks of a
    small VI run: ``main`` returns a documented exit code and prints one
    error line exactly when it fails."""

    @settings(max_examples=150, deadline=None)
    @given(initial=_values_block(st.one_of(INTERIOR_KEYS, LABEL_KEYS)),
           forcing=_values_block(LABEL_KEYS),
           constraint=_constraint_block(), tolerances=_tolerances_block(),
           drop_tolerances=st.booleans())
    def test_vi_config_blocks(self, initial, forcing, constraint,
                              tolerances, drop_tolerances):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = pathlib.Path(tmp)
            cfg_path, cfg = vi_obstacle_config(tmp_path)
            prob = cfg["problem"]
            prob["initial"] = initial
            prob["forcing"]["field"] = forcing
            prob["constraint"] = constraint
            if not drop_tolerances:
                cfg["tolerances"] = tolerances
            # allow_nan: NaN and Infinity literals must be refused too
            with open(cfg_path, "w") as fh:
                fh.write(json.dumps(cfg, allow_nan=True))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", cfg_path])
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error[")]
        assert code in (0, 2, 3, 4)
        assert len(errors) == (0 if code == 0 else 1)
