import contextlib
import csv
import dataclasses
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
from graphrothe.errors import InvalidGraphData
from helpers import path_graph, reference_read_trajectory_csv
from graphrothe import calculus, cli, fileio, heat, spectral
from test_fileio import input_files, write_input_files
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


def stalling_tree_config(tmp_path):
    """A p = 1.5 heat run on a six-vertex tree with measures near 1e-150
    and weights near 1e150: Newton stalls in its first step with
    max|G/mass| at the rounding level of A w / mass, far above tol."""
    gpath = tmp_path / "tree.txt"
    gpath.write_text(
        "graph 6\n"
        "v 0 6.911045135733596e-151\nv 1 6.10344357995948e-151\n"
        "v 2 6.05489380353827e-151\nv 3 1.803281441520979e-150\n"
        "v 4 1.4511049690211648e-150\nv 5 1.2448575406982796e-150\n"
        "e 0 1 6.3165183013923015e+149\ne 0 2 1.8102839466810983e+150\n"
        "e 1 3 1.2084505051250171e+150\ne 2 4 1.6488756766083085e+150\n"
        "e 4 5 1.8729859401676487e+150\n")
    initial = {"0": 57.93314649197407, "1": -81.45090489532384,
               "2": 15.751700664700508, "3": -60.55301054082629,
               "4": 61.62735036271363, "5": -2.2307927741480142}
    return heat_config(
        tmp_path, graph={"file": str(gpath)}, domain="all",
        problem={"p": 1.5, "horizon": 0.04, "steps": 4,
                 "initial": {"values": initial}})[0]


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

    def test_initial_below_obstacle_bound(self, tmp_path):
        # g = 0 below psi = 1 at vertex 2: the first step lifts u onto
        # psi, and the bound starts from its quotient (zero forcing, c = 0)
        cfg_path, _ = vi_obstacle_config(
            tmp_path, domain={"omega": ["0", "1", "2", "3", "4"]},
            problem={"initial": {"values": {}},
                     "forcing": {"kind": "constant",
                                 "field": {"values": {}}},
                     "constraint": {"kind": "obstacle",
                                    "psi": {"values": {"2": 1.0}}}})
        assert main(["run", cfg_path]) == 0
        diagnostics = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["max_quotient_l2"] == 4.12180766827143
        assert diagnostics["quotient_bound"] == 4.12180766827143

    def test_norms_energy_squares_python_floats(self, tmp_path, monkeypatch):
        # the energy column is 0.5 * x ** 2 of the grad_l2 column on Python
        # floats (``pow``); this planted gradient norm squares differently
        # by numpy's multiplication with common libms
        value = 0.8683284008647664
        norms = calculus.norms

        def planted(g, v, dom, q=2.0):
            nb = norms(g, v, dom, q)
            return dataclasses.replace(
                nb, grad_l2=np.full_like(nb.grad_l2, value))

        monkeypatch.setattr(calculus, "norms", planted)
        cfg_path, _ = vi_obstacle_config(tmp_path)
        assert main(["run", cfg_path]) == 0
        with open(tmp_path / "out" / "norms.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["grad_l2"] for row in rows] == [repr(value)] * 5
        assert [row["energy"] for row in rows] \
            == [repr(0.5 * value ** 2)] * 5

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

    def test_solve_error_names_level_step_and_time(self, tmp_path, capsys):
        # the same overflowing data on the 5-vertex path and on a lattice
        # exhaustion: each line says where the solve failed
        lines = []
        for overrides in (
                {"domain": "all",
                 "problem": {"initial": {"values": {"2": 2000.0}}}},
                {"graph": {"generative": "lattice_z"}, "domain": "all",
                 "problem": {"initial": {"values": {"0": 2000.0}},
                             "exhaustion": {"seeds": ["0"],
                                            "levels": [2, 4]}}}):
            overrides["problem"].update(p=100.0, steps=4)
            cfg_path, _ = heat_config(tmp_path, **overrides)
            assert main(["run", cfg_path]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            lines.append(err)
        message = "Newton gradient is not finite at p = 100 (overflow)\n"
        assert lines == [
            f"error[SOLVE]: step 1 (t = 0.25): {message}",
            f"error[SOLVE]: level 2: step 1 (t = 0.25): {message}"]

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

    def test_cg_breakdown_exit_3(self, tmp_path, capsys):
        # on the stalling tree a Newton direction of the first step once
        # had curvature d.Sd = 0.0 in CG, which ended the run with a
        # ZeroDivisionError traceback
        assert main(["run", stalling_tree_config(tmp_path)]) == 3
        # preconditioned with the Jacobian's diagonal, CG gets through,
        # and Newton stalls at the rounding level of A w / mass
        assert capsys.readouterr() == (
            "", "error[SOLVE]: step 1 (t = 0.01): Newton stalled at "
            "max|G/mass| = 2.40083e+285, above the tolerance "
            "8.24509e-11\n")
        # measures of 1e-152, weights of 1e30 and an initial value of
        # 1e-180: the curvature of the first search direction underflows
        gpath = tmp_path / "stiff5.txt"
        fileio.write_graph_file(path_graph(5, mu=1e-152, w=1e30),
                                str(gpath))
        cfg_path, _ = heat_config(
            tmp_path, graph={"file": str(gpath)},
            problem={"p": 2.0, "horizon": 0.1, "steps": 1,
                     "initial": {"values": {"2": 1e-180}}})
        assert main(["run", cfg_path]) == 3
        assert capsys.readouterr() == (
            "", "error[SOLVE]: step 1 (t = 0.1): conjugate gradients broke "
            "down: the curvature d.Sd = 0 of a search direction is not "
            "positive\n")

    def test_newton_stall_stops_early(self, tmp_path, capsys, monkeypatch):
        # w stops changing from the 5th gradient evaluation on; the loop
        # used to run all NEWTON_MAX_ITER = 100 iterations
        gradients = [0]
        grad_half = heat._HeatStepper._grad_half

        def counting(self, *args):
            gradients[0] += 1
            return grad_half(self, *args)

        monkeypatch.setattr(heat._HeatStepper, "_grad_half", counting)
        assert main(["run", stalling_tree_config(tmp_path)]) == 3
        assert "Newton stalled" in capsys.readouterr().err
        assert gradients[0] <= 10

    def test_newton_norm_underflow_exit_3(self, tmp_path, capsys):
        # measures of 1e-300 and an initial value of 1e-170: |G| underflows
        # to 0.0 while max|G/mass| is above tol, which once ended the run
        # with a ZeroDivisionError traceback
        gpath = tmp_path / "tiny.txt"
        fileio.write_graph_file(path_graph(5, mu=1e-300), str(gpath))
        cfg_path, _ = heat_config(
            tmp_path, graph={"file": str(gpath)},
            problem={"p": 2.0, "horizon": 0.1, "steps": 1,
                     "initial": {"values": {"2": 1e-170}}})
        assert main(["run", cfg_path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[SOLVE]: step 1 (t = 0.1): Newton "
                              "residual norm underflows to 0 at p = 2 while "
                              "max|G/mass| = ")
        assert err.count("\n") == 1

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


DROP = object()


def _edited(cfg, edits):
    """``cfg`` with each dotted key path of ``edits`` set to its value, or
    removed for ``DROP``; the empty path replaces the whole config."""
    for path, value in edits.items():
        if not path:
            return value
        *parents, last = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


def _in_dir(value, tmp_path):
    """``value`` with ``{tmp}`` in its strings replaced by ``tmp_path``."""
    if isinstance(value, str):
        return value.replace("{tmp}", str(tmp_path))
    if isinstance(value, list):
        return [_in_dir(v, tmp_path) for v in value]
    if isinstance(value, dict):
        return {k: _in_dir(v, tmp_path) for k, v in value.items()}
    return value


def _base_config(tmp_path, base):
    """The config dict of ``base`` (heat, vi or lattice), with its files
    written under ``tmp_path``; the heat and vi runs take 4 steps."""
    if base == "heat":
        _, cfg = heat_config(tmp_path, problem={"steps": 4})
    elif base == "vi":
        _, cfg = vi_obstacle_config(tmp_path)
    else:
        cfg = json.loads(open(lattice_config(tmp_path, "lattice_z2",
                                             ["0,0"])).read())
    return cfg


TABLE_FORCING = {"kind": "table", "times": [0.0, 0.5, 1.0],
                 "fields": [{"values": {}}] * 3}

# entries that are neither a string nor an integer, and their JSON
NOT_LABELS = [("null", None), ("true", True), ("float", 1.5), ("list", [1]),
              ("object", {"a": 1})]
ORACLE_ONLY_HEAT = ("problem.compare_oracle (or --compare-oracle) applies "
                    "to kind heat on a finite domain, not to ")

# one fault per check of a run config, in the order the checks run: the
# config, its structure, the referenced files, then what the files and
# values hold. ``{tmp}`` is the directory of the config's files.
CONFIG_FAULTS = [
    ("not_object", "heat", {"": []}, 2,
     "config must be a JSON object"),
    ("missing_graph", "heat", {"graph": DROP}, 2,
     "config is missing 'graph'"),
    ("missing_domain", "heat", {"domain": DROP}, 2,
     "config is missing 'domain'"),
    ("missing_problem", "heat", {"problem": DROP}, 2,
     "config is missing 'problem'"),
    ("missing_output", "heat", {"output": DROP}, 2,
     "config is missing 'output'"),
    ("graph_both", "heat", {"graph.generative": "lattice_z"}, 2,
     "graph must give exactly one of 'file' or 'generative'"),
    ("graph_not_object", "heat", {"graph": "p5.txt"}, 2,
     "graph must give exactly one of 'file' or 'generative'"),
    ("unknown_generative", "lattice", {"graph.generative": "lattice_z3"}, 2,
     "unknown generative graph 'lattice_z3' (choose from ['lattice_z', "
     "'lattice_z2'])"),
    ("generative_domain", "lattice", {"domain": {"omega": ["0,0"]}}, 2,
     "generative graphs require domain 'all'"),
    ("params_not_object", "lattice", {"graph.params": [1.0]}, 2,
     "graph.params must be an object"),
    ("params_key", "lattice", {"graph.params": {"size": 1.0}}, 2,
     "unknown graph.params key 'size' (choose from mu, weight)"),
    ("params_value", "lattice", {"graph.params": {"mu": 0}}, 2,
     "graph.params.mu must be a finite number > 0"),
    ("domain_shape", "heat", {"domain": "interior"}, 2,
     "domain must be 'all', {'file': ...}, or {'omega': [...]}"),
    ("domain_both", "heat", {"domain.omega": ["1"]}, 2,
     "domain must be 'all', {'file': ...}, or {'omega': [...]}"),
    *((f"omega_entry_{name}", "heat", {"domain": {"omega": ["1", entry]}},
       2, f"domain.omega entry {json.dumps(entry)} is not a vertex label "
       "(a string or an integer)") for name, entry in NOT_LABELS),
    ("problem_not_object", "heat", {"problem": []}, 2,
     "problem must be an object"),
    ("kind", "heat", {"problem.kind": "wave"}, 2,
     "problem.kind must be one of heat, vi, spectral"),
    ("generative_no_exhaustion", "lattice", {"problem.exhaustion": DROP}, 2,
     "generative graphs are used through problem.exhaustion (heat or vi)"),
    ("generative_spectral", "lattice", {"problem.kind": "spectral"}, 2,
     "generative graphs are used through problem.exhaustion (heat or vi)"),
    ("horizon", "heat", {"problem.horizon": 0}, 2,
     "problem.horizon must be a finite number > 0"),
    ("no_steps", "heat", {"problem.steps": DROP}, 2,
     "problem needs steps or steps_list"),
    ("steps", "heat", {"problem.steps": 0}, 2,
     "problem.steps must be an integer >= 1"),
    ("steps_list", "heat", {"problem.steps_list": []}, 2,
     "problem.steps_list must be a list of integers >= 1"),
    ("no_initial", "heat", {"problem.initial": DROP}, 2,
     "problem.initial is required"),
    ("initial_both", "heat", {"problem.initial.file": "h.txt"}, 2,
     "problem.initial must give exactly one of 'file' or 'values'"),
    ("initial_values", "heat", {"problem.initial.values": {"2": "abc"}}, 2,
     "problem.initial.values must map labels to finite numbers"),
    ("exhaustion_levels", "heat",
     {"problem.exhaustion": {"seeds": ["2"], "levels": [2, 1]}}, 2,
     "exhaustion needs a list of seeds and a strictly increasing list of "
     "integer levels"),
    ("exhaustion_seeds", "heat",
     {"problem.exhaustion": {"seeds": "2", "levels": [1]}}, 2,
     "exhaustion needs a list of seeds and a strictly increasing list of "
     "integer levels"),
    *((f"exhaustion_seed_{name}", "heat",
       {"problem.exhaustion": {"seeds": ["2", entry], "levels": [1]}}, 2,
       f"exhaustion seed {json.dumps(entry)} is not a vertex label (a "
       "string or an integer)") for name, entry in NOT_LABELS),
    ("lattice_seed_bool", "lattice", {"problem.exhaustion.seeds": [True]},
     2, "exhaustion seed true is not a vertex label (a string or an "
     "integer)"),
    ("lattice_seed", "lattice", {"problem.exhaustion.seeds": ["0"]}, 2,
     "exhaustion seed '0' is not a vertex of lattice_z2: a seed is a pair "
     "\"i,j\" of integers"),
    ("p", "heat", {"problem.p": 0.5}, 2,
     "problem.p must be a finite number >= 1, got 0.5"),
    ("forcing_kind", "vi", {"problem.forcing.kind": "step"}, 2,
     "problem.forcing.kind must be constant, separable, or table"),
    ("no_forcing", "vi", {"problem.forcing": DROP}, 2,
     "problem.forcing.kind must be constant, separable, or table"),
    ("forcing_field", "vi", {"problem.forcing.field": DROP}, 2,
     "forcing.field must give exactly one of 'file' or 'values'"),
    ("forcing_values", "vi", {"problem.forcing.field.values": {"2": None}},
     2, "forcing.field.values must map labels to finite numbers"),
    ("separable_no_time", "vi", {"problem.forcing.kind": "separable"}, 2,
     "separable forcing needs a 'time' expression"),
    ("separable_time", "vi", {"problem.forcing.kind": "separable",
                              "problem.forcing.time": "x"}, 2,
     "time expression: unsupported construct Name(id='x', ctx=Load())"),
    ("table_shape", "vi",
     {"problem.forcing": dict(TABLE_FORCING, times=[0.0, 1.0])}, 2,
     "table forcing needs parallel 'times' and 'fields'"),
    ("table_field", "vi",
     {"problem.forcing": dict(TABLE_FORCING, fields=[{}] * 3)}, 2,
     "forcing.fields[] must give exactly one of 'file' or 'values'"),
    ("constraint_kind", "vi", {"problem.constraint.kind": "box"}, 2,
     "constraint.kind must be subspace or obstacle"),
    ("obstacle_psi", "vi", {"problem.constraint.psi": DROP}, 2,
     "constraint.psi must give exactly one of 'file' or 'values'"),
    ("lipschitz_bound", "vi", {"problem.lipschitz_bound": -1.0}, 2,
     "lipschitz_bound must be a nonnegative number"),
    ("oracle_vi", "vi", {"problem.compare_oracle": True}, 2,
     ORACLE_ONLY_HEAT + "kind vi"),
    ("oracle_spectral", "heat", {"problem.kind": "spectral",
                                 "problem.compare_oracle": True}, 2,
     ORACLE_ONLY_HEAT + "kind spectral"),
    ("oracle_exhaustion", "heat",
     {"problem.exhaustion": {"seeds": ["2"], "levels": [1]},
      "problem.compare_oracle": True}, 2,
     ORACLE_ONLY_HEAT + "a heat exhaustion"),
    ("oracle_lattice", "lattice", {"problem.compare_oracle": True}, 2,
     ORACLE_ONLY_HEAT + "a heat exhaustion"),
    ("tolerances_not_object", "heat", {"tolerances": [1e-12]}, 2,
     "tolerances must be an object"),
    ("psor_relax", "vi", {"tolerances": {"psor_relax": 1.5}}, 2,
     "tolerances.psor_relax is no longer accepted: the obstacle solver is "
     "now the primal-dual active set method (PDAS), which takes no "
     "relaxation"),
    ("tolerance_key", "heat", {"tolerances": {"newton": 1e-12}}, 2,
     "unknown tolerance 'newton'"),
    ("tolerance_value", "heat", {"tolerances": {"ode_oracle": 0.0}}, 2,
     "tolerance ode_oracle must be positive"),
    ("missing_graph_file", "heat", {"graph.file": "{tmp}/none.txt"}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("missing_domain_file", "heat", {"domain.file": "{tmp}/none.txt"}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("missing_initial_file", "heat",
     {"problem.initial": {"file": "{tmp}/none.txt"}}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("missing_forcing_file", "vi",
     {"problem.forcing.field": {"file": "{tmp}/none.txt"}}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("missing_table_file", "vi",
     {"problem.forcing": dict(TABLE_FORCING,
                              fields=[{"file": "{tmp}/none.txt"}] * 3)}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("missing_psi_file", "vi",
     {"problem.constraint.psi": {"file": "{tmp}/none.txt"}}, 4,
     "referenced file {tmp}/none.txt does not exist"),
    ("graph_file_parse", "heat", {"graph.file": "{tmp}/dom.txt"}, 2,
     "{tmp}/dom.txt:1: unrecognized record"),
    ("lattice_ball", "lattice", {"problem.exhaustion.levels": [2, 10 ** 6]},
     2, "the ball of radius 1000001 around 1 seed(s) needs 6000018000014 "
     "offsets and keys, more than the 12000000 (about 2 GB) a ball may "
     "hold; an exhaustion to level m builds the ball of radius m + 1"),
    ("domain_file_label", "heat", {"domain.file": "{tmp}/h_zz.txt"}, 2,
     "{tmp}/h_zz.txt:1: expected 'omega <label>'"),
    ("omega_label", "heat", {"domain": {"omega": ["1", "zz", "3"]}}, 2,
     "unknown vertex label 'zz'"),
    ("empty_interior", "heat", {"domain": {"omega": ["1", "2"]}}, 2,
     "domain has an empty interior (every omega vertex is on its "
     "boundary); it cannot pose a problem"),
    ("exhaustion_seed_label", "heat",
     {"domain": "all", "problem.exhaustion": {"seeds": ["zz"],
                                              "levels": [1]}}, 2,
     "unknown vertex label 'zz'"),
    ("exhaustion_seed_outside", "heat",
     {"problem.exhaustion": {"seeds": ["0"], "levels": [1]}}, 2,
     "seed 0 is not in omega"),
    ("initial_file_label", "heat",
     {"problem.initial": {"file": "{tmp}/h_zz.txt"}}, 2,
     "{tmp}/h_zz.txt:1: unknown vertex label 'zz'"),
    ("initial_key_label", "heat", {"problem.initial.values": {"zz": 1.0}},
     2, "unknown vertex label 'zz'"),
    ("initial_keys_repeat", "heat",
     {"problem.initial.values": {"2": 1.0, "02": 1.0}}, 2,
     "values keys '2' and '02' name one vertex 2"),
    ("initial_outside", "heat", {"problem.initial.values": {"1": 0.5}}, 2,
     "problem.initial must vanish outside the domain interior, but it is "
     "0.5 at vertex 1"),
    ("run_bytes", "heat", {"problem.steps": 10 ** 9}, 2,
     "a run of 1000000000 steps on 5 vertices needs about 240000000240 "
     "bytes of arrays and output text, more than the 2000000000 a run may "
     "hold"),
    ("run_bytes_levels", "lattice", {"problem.steps": 10 ** 9}, 2,
     "a run of 1000000000 steps on 61 vertices needs about 976000005856 "
     "bytes of arrays and output text, more than the 2000000000 a run may "
     "hold"),
    ("forcing_key_label", "vi",
     {"problem.forcing.field.values": {"zz": 1.0}}, 2,
     "unknown vertex label 'zz'"),
    ("table_overlap", "vi",
     {"problem.forcing": dict(TABLE_FORCING, times=[1.0, 0.5, 0.5])}, 2,
     "tabulated forcing times 0.5 and 0.5 lie within 1e-9 * max(1, |t|) "
     "of one time, which would match both fields"),
    ("table_times", "vi",
     {"problem.forcing": dict(TABLE_FORCING, times=[0.0, 0.4, 1.0])}, 2,
     "t = 0.25 is not a tabulated forcing time"),
    *((f"separable_fails_{name}", "vi",
       {"problem.forcing.kind": "separable", "problem.forcing.time": expr},
       2, f"time expression {expr!r} {failure}")
      for name, expr, failure in [
          ("overflow", "exp(1000*t)", "fails at t = 0.75: math range error"),
          ("division", "1/t", "fails at t = 0.0: float division by zero"),
          ("negative_power", "t**-1", "fails at t = 0.0: 0.0 cannot be "
           "raised to a negative power"),
          ("complex", "(0-t)**0.5", "fails at t = 0.25: float() argument "
           "must be a string or a real number, not 'complex'"),
          ("int_overflow", "10**400*t", "fails at t = 0.0: int too large "
           "to convert to float"),
          ("domain", "sin(1e308*t*10)", "fails at t = 0.25: math domain "
           "error"),
          ("inf_times_zero", "exp(700)*exp(700)*t", "fails at t = 0.0: "
           "value nan"),
          ("inf_literal", "1e308*10*t", "fails at t = 0.0: value nan"),
      ]),
    ("separable_product_overflow", "vi",
     {"problem.forcing.kind": "separable", "problem.forcing.time": "1e300*t",
      "problem.forcing.field.values": {"2": 1e10}}, 2,
     "time expression '1e300*t' fails at t = 0.25: its product with the "
     "forcing field overflows"),
    ("psi_keys_repeat", "vi",
     {"problem.constraint.psi.values": {"3": 0.0, "+3": 0.5}}, 2,
     "values keys '3' and '+3' name one vertex 3"),
]


class TestRunBudget:
    """A heat or vi run whose estimated arrays and output text exceed
    ``cli.MAX_RUN_BYTES`` is refused at validation, before any array the
    size of its time grid is built."""

    def test_estimate(self):
        # 4 x 10 values per Rothe array
        assert cli.run_bytes(3, 10, None, False) == 8 * 40 + 40 * 40
        assert cli.run_bytes(3, 10, None, True) == 8 * 80 + 40 * 80
        assert cli.run_bytes(3, 10, 2, False) == 8 * 80 + 40 * 20

    def test_vi_refused_before_its_forcing(self, tmp_path, capsys,
                                           monkeypatch):
        # validation samples a vi's forcing on every grid time
        path, cfg = vi_obstacle_config(tmp_path)
        need = cli.run_bytes(4, 5, None, False)
        monkeypatch.setattr(cli, "MAX_RUN_BYTES", need - 1)
        sampled = []
        forcing = cli.PreparedRun._forcing
        monkeypatch.setattr(cli.PreparedRun, "_forcing",
                            lambda prep: sampled.append(1) or forcing(prep))
        for command in ("validate-config", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == (
                f"error[CONFIG]: a run of 4 steps on 5 vertices needs about "
                f"{need} bytes of arrays and output text, more than the "
                f"{need - 1} a run may hold\n")
        assert not sampled
        monkeypatch.setattr(cli, "MAX_RUN_BYTES", need)
        assert main(["validate-config", path]) == 0
        assert sampled


class TestConfigChecks:
    """Each check of a run config, met by a config with that one fault:
    ``validate-config`` and ``run`` exit with its code, print its one
    line and write nothing."""

    @pytest.mark.parametrize("base, edits, code, message", [
        case[1:] for case in CONFIG_FAULTS],
        ids=[case[0] for case in CONFIG_FAULTS])
    def test_single_fault(self, tmp_path, capsys, base, edits, code,
                          message):
        cfg = _base_config(tmp_path, base)
        (tmp_path / "h_zz.txt").write_text("zz 1.0\n")
        edits = {key: _in_dir(value, tmp_path)
                 for key, value in edits.items()}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_edited(cfg, edits)))
        prefix = {2: "CONFIG", 4: "IO"}[code]
        line = message.replace("{tmp}", str(tmp_path))
        for command in ("validate-config", "run"):
            assert main([command, str(path)]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error[{prefix}]: {line}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base, edits, extra, message", [
        ("vi", {}, ["--p", "2"], "--p does not apply to kind vi"),
        *(("heat", {"problem.kind": "spectral"}, [option, value],
           f"{option} does not apply to kind spectral")
          for option, value in (("--p", "2"), ("--horizon", "2"),
                                ("--steps", "3"), ("--initial", "h.txt"),
                                ("--levels", "1,2"))),
        ("vi", {}, ["--compare-oracle"], ORACLE_ONLY_HEAT + "kind vi"),
        ("heat", {"problem.kind": "spectral"}, ["--compare-oracle"],
         ORACLE_ONLY_HEAT + "kind spectral"),
        ("heat", {"problem.exhaustion": {"seeds": ["2"], "levels": [1]}},
         ["--compare-oracle"], ORACLE_ONLY_HEAT + "a heat exhaustion"),
    ], ids=["p_vi", "p_spectral", "horizon_spectral", "steps_spectral",
            "initial_spectral", "levels_spectral", "oracle_vi",
            "oracle_spectral", "oracle_exhaustion"])
    def test_unread_override(self, tmp_path, capsys, base, edits, extra,
                             message):
        # an override the problem kind would not read is refused before
        # any file is opened; the config alone stays valid
        cfg = _edited(_base_config(tmp_path, base),
                      {"graph.file": str(tmp_path / "none.txt"), **edits})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), *extra]) == 2
        assert capsys.readouterr() == ("", f"error[CONFIG]: {message}\n")
        assert not (tmp_path / "out").exists()
        path.write_text(json.dumps(_edited(
            cfg, {"graph.file": str(tmp_path / "p5.txt")})))
        assert main(["validate-config", str(path)]) == 0
        assert capsys.readouterr() == ("config ok\n", "")

    def test_oracle_false_accepted(self, tmp_path, capsys):
        for base, edits in (
                ("vi", {}), ("heat", {"problem.kind": "spectral"}),
                ("heat", {"problem.exhaustion": {"seeds": ["2"],
                                                 "levels": [1]}})):
            cfg = _edited(_base_config(tmp_path, base),
                          {"problem.compare_oracle": False, **edits})
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            assert main(["validate-config", str(path)]) == 0
            assert capsys.readouterr() == ("config ok\n", "")

    def test_structure_before_missing_file(self, tmp_path, capsys):
        cfg = _edited(_base_config(tmp_path, "heat"),
                      {"graph.file": str(tmp_path / "none.txt"),
                       "problem.horizon": -1.0})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", str(path)]) == 2
        assert capsys.readouterr().err == ("error[CONFIG]: problem.horizon "
                                           "must be a finite number > 0\n")

    def test_missing_file_before_parse_error(self, tmp_path, capsys):
        # the graph file is malformed and the psi file, read later, is
        # missing: the missing file is reported first
        bad = tmp_path / "bad_graph.txt"
        bad.write_text("graph 1\nv 0\n")
        cfg = _edited(_base_config(tmp_path, "vi"),
                      {"graph.file": str(bad),
                       "problem.constraint.psi": {
                           "file": str(tmp_path / "none.txt")}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", str(path)]) == 4
        assert capsys.readouterr().err == (
            f"error[IO]: referenced file {tmp_path / 'none.txt'} does not "
            "exist\n")

    def test_generative_structure_before_ball(self, tmp_path, capsys,
                                              monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("lattice ball built before validation")

        monkeypatch.setattr(cli, "exhaust_generative", no_ball)
        cfg = _edited(_base_config(tmp_path, "lattice"),
                      {"problem.horizon": "1"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        for command in ("validate-config", "run"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == (
                "error[CONFIG]: problem.horizon must be a finite number "
                "> 0\n")


    def test_separable_overflow_off_the_interior_accepted(self, tmp_path,
                                                          capsys):
        # the run reads the forcing on the interior {2} only, so a field
        # value whose product with s(t) overflows on the boundary vertex 1
        # is never read
        cfg = _edited(_base_config(tmp_path, "vi"), {
            "problem.forcing": {"kind": "separable", "time": "1e300*t",
                                "field": {"values": {"1": 1e10,
                                                     "2": -1e-300}}},
            "problem.lipschitz_bound": 2.0})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate-config", str(path)]) == 0
        assert capsys.readouterr() == ("config ok\n", "")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_vi_reads_one_domain(self, tmp_path, monkeypatch):
        # the forcing check and the Lipschitz sample read one domain: the
        # domain, or on an exhaustion its largest level, built once
        from graphrothe import graph

        prep = cli.PreparedRun(_base_config(tmp_path, "vi"))
        assert prep.vi_domain is prep.domain
        built = []
        make_domain = graph.make_domain

        def counting(g, ids):
            built.append(1)
            return make_domain(g, ids)

        monkeypatch.setattr(graph, "make_domain", counting)
        cfg = json.loads(open(lattice_config(tmp_path, "lattice_z2",
                                             ["0,0"])).read())
        cfg["problem"].update({
            "kind": "vi", "initial": {"values": {"0,0": 1.0}},
            "forcing": {"kind": "separable", "time": "1 + t",
                        "field": {"values": {"1,0": 2.0}}}})
        prep = cli.PreparedRun(cfg)
        assert prep.vi_domain is prep.exhaustion.level(4)
        assert len(built) == 1
        path = tmp_path / "vi_lattice.json"
        path.write_text(json.dumps(cfg))
        built.clear()
        assert main(["run", str(path)]) == 0
        assert len(built) == len(prep.levels) == 2

    def test_unused_blocks_not_opened(self, tmp_path, capsys):
        # a heat run reads no forcing or obstacle, a spectral run no
        # initial field, time grid or exhaustion: their files need not
        # exist and their blocks are not checked
        missing = {"file": str(tmp_path / "none.txt")}
        for problem in (
                {"forcing": {"kind": "constant", "field": missing},
                 "constraint": {"kind": "obstacle", "psi": missing},
                 "lipschitz_bound": "x"},
                {"kind": "spectral", "initial": missing, "horizon": None,
                 "exhaustion": 5, "compare_oracle": "no"}):
            cfg_path, _ = heat_config(tmp_path, problem=problem)
            assert main(["validate-config", cfg_path]) == 0
            assert capsys.readouterr() == ("config ok\n", "")


class TestOverrides:
    """A command-line override lands in the config or is refused with one
    error line; it never raises and is never dropped."""

    @pytest.mark.parametrize("value", ["no", "false", 1, None])
    def test_compare_oracle_not_bool(self, tmp_path, capsys, value):
        cfg_path, _ = heat_config(tmp_path,
                                  problem={"compare_oracle": value})
        for command in ("validate-config", "run"):
            assert main([command, cfg_path]) == 2
            assert capsys.readouterr().err == (
                "error[CONFIG]: problem.compare_oracle must be true or "
                "false\n")
        assert not (tmp_path / "out").exists()

    def test_compare_oracle_false(self, tmp_path, capsys):
        cfg_path, _ = heat_config(tmp_path, problem={
            "steps": 4, "compare_oracle": False})
        assert main(["run", cfg_path]) == 0
        assert not (tmp_path / "out" / "oracle_error.csv").exists()
        assert main(["run", cfg_path, "--compare-oracle"]) == 0
        assert (tmp_path / "out" / "oracle_error.csv").exists()

    @pytest.mark.parametrize("problem, extra, message", [
        ([], ["--p", "2"], "problem must be an object"),
        ("heat", ["--horizon", "2"], "problem must be an object"),
        ({"exhaustion": 5}, ["--levels", "1,2"],
         "exhaustion must be an object"),
        ({"exhaustion": None}, ["--levels", "1,2"],
         "exhaustion must be an object"),
        ({"steps_list": [2, 3]}, ["--steps", "7"],
         "problem.steps_list takes precedence over --steps; drop one"),
    ], ids=["problem_list", "problem_string", "exhaustion_int",
            "exhaustion_null", "steps_with_steps_list"])
    def test_refused(self, tmp_path, capsys, problem, extra, message):
        cfg_path, cfg = heat_config(tmp_path)
        if isinstance(problem, dict):
            cfg["problem"].update(problem)
        else:
            cfg["problem"] = problem
        open(cfg_path, "w").write(json.dumps(cfg))
        assert main(["run", cfg_path, *extra]) == 2
        assert capsys.readouterr().err == f"error[CONFIG]: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_steps_list_without_steps_override(self, tmp_path, capsys):
        cfg_path, _ = heat_config(tmp_path, problem={"steps_list": [2, 3]})
        assert main(["run", cfg_path, "--horizon", "2"]) == 0
        times, values = fileio.read_trajectory_csv(
            str(tmp_path / "out" / "trajectory.csv"), path_graph(5))
        assert times == [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0]


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
    def test_overflowing_dmu_exit_3(self, tmp_path, capsys):
        # D_mu = deg / mu overflows at a measure of 1e-320: as in run, one
        # error line, no numpy warning and no "Infinity" in the JSON
        gpath = tmp_path / "tiny.txt"
        gpath.write_text("graph 2\nv 0 1e-320\nv 1 1\ne 0 1 1\n")
        assert main(["graph-info", str(gpath)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error[SOLVE]: overflow encountered in divide: the "
                       "data exceed the float64 range\n")
        assert err.count("error[") == 1 and "Warning" not in err

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


class TestCompareTimes:
    """How ``compare`` matches the wanted times to the two grids: each
    time takes the first step within 1e-12 on each grid."""

    def _files(self, tmp_path, *grids):
        """The graph file of a 3-vertex path and one trajectory per
        ``(times, middle values)``, zero at the ends."""
        g = path_graph(3)
        gpath = str(tmp_path / "p3.txt")
        fileio.write_graph_file(g, gpath)
        paths = []
        for k, (times, middle) in enumerate(grids):
            values = np.zeros((len(times), 3))
            values[:, 1] = middle
            paths.append(str(tmp_path / f"traj{k}.csv"))
            fileio.write_trajectory_csv(paths[-1], values, times, g)
        return gpath, paths

    def test_time_on_one_grid_only_exit_2(self, tmp_path, capsys):
        gpath, (a, b) = self._files(tmp_path, ([0.0, 0.5, 1.0], [1, 2, 3]),
                                    ([0.0, 1.0], [10, 30]))
        for times in ("0.5", "0.0,0.5", "1.0,0.75"):
            assert main(["compare", a, b, "--graph", gpath,
                         "--times", times]) == 2
            bad = times.split(",")[-1]
            assert capsys.readouterr() == (
                "", f"error[CONFIG]: time {float(bad)} is not on both "
                "trajectory grids\n")

    def test_near_time_matches_first_step(self, tmp_path, capsys):
        t = float("0.5000000000004")
        gpath, (a, b) = self._files(
            tmp_path, ([0.0, 0.5, t, 1.0], [1, 2, 5, 3]),
            ([0.0, 0.5 + 8e-13], [10, 20]))
        assert main(["compare", a, b, "--graph", gpath,
                     "--times", "0.5000000000004"]) == 0
        # step 1 of a (0.5), not step 2 (t itself): |2 - 20| = 18
        assert capsys.readouterr().out == (
            "t,l2_diff,sup_diff\n0.5000000000004,18.0,18.0\n"
            "max_l2_diff 18.0\n")

    def test_steps_at_one_time(self, tmp_path, capsys):
        gpath, (a, b) = self._files(tmp_path, ([0.0, 0.5, 0.5], [1, 2, 4]),
                                    ([0.0, 0.5], [1, 7]))
        assert main(["compare", a, b, "--graph", gpath]) == 0
        # both rows at 0.5 compare a's first step there, |2 - 7| = 5
        assert capsys.readouterr().out == (
            "t,l2_diff,sup_diff\n0.0,0.0,0.0\n0.5,5.0,5.0\n0.5,5.0,5.0\n"
            "max_l2_diff 5.0\n")

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        gpath, (a, b) = self._files(
            tmp_path, ([0.0, 0.25, 0.5], [1.0 / 3.0, -0.0, 1e150]),
            ([0.0, 0.5, 0.25], [0.1, -1e-300, 2.0]))
        for extra in ([], ["--times", "0.5,0.0"]):
            assert main(["compare", a, b, "--graph", gpath, *extra]) == 0
            table, max_line = capsys.readouterr().out.rsplit("\n", 2)[:2]
            out = str(tmp_path / "cmp.csv")
            assert main(["compare", a, b, "--graph", gpath, *extra,
                         "--output", out]) == 0
            assert capsys.readouterr().out == max_line + "\n"
            assert open(out).read() == table + "\n"

    def test_overflowing_difference_exit_3(self, tmp_path, capsys):
        # as in run: no numpy warning and no infinite norm in the table
        gpath, (a, b, c) = self._files(tmp_path, ([0.0], [1e300]),
                                       ([0.0], [-1e308]), ([0.0], [1e308]))
        for x, y, op in ((a, c, "power"), (b, c, "subtract")):
            assert main(["compare", x, y, "--graph", gpath]) == 3
            assert capsys.readouterr() == (
                "", f"error[SOLVE]: overflow encountered in {op}: the data "
                "exceed the float64 range\n")

    def test_vertex_mismatch_of_a_before_parse_fault_of_b(self, tmp_path,
                                                          capsys):
        # each file is read whole, vertex check included, before the next
        gpath, (good,) = self._files(tmp_path, ([0.0], [1.0]))
        short = str(tmp_path / "short.csv")
        fileio.write_trajectory_csv(short, np.zeros((1, 2)), [0.0],
                                    path_graph(2))
        bad = tmp_path / "bad.csv"
        bad.write_text(open(good).read().replace(",1,1.0", ",1,abc"))
        mismatch = "trajectory vertices do not match the graph"
        for a, b, err in (
                (short, str(bad), f"{short}: {mismatch}"),
                (str(bad), short, f"{bad}:3: could not convert string to "
                 "float: 'abc'"),
                (good, short, f"{short}: {mismatch}")):
            assert main(["compare", a, b, "--graph", gpath]) == 2
            assert capsys.readouterr() == ("", f"error[CONFIG]: {err}\n")


# value and time tokens around the edges of float(): underscores,
# whitespace, signs, hex, overflow and non-finite words
NUMBER_TOKENS = {"1_0": True, " 2.5": True, "+3": True, "0x1p3": False,
                 "1e999": False, "nan": False, "-inf": False, "-0.0": True}


class TestCompareNumberTokens:
    """``compare`` accepts a value or time token exactly when ``float()``
    reads it as a finite number, with the reference reader's message when
    it refuses."""

    @pytest.mark.parametrize("column", ["value", "time"])
    @pytest.mark.parametrize("token", sorted(NUMBER_TOKENS))
    def test_token(self, tmp_path, capsys, token, column):
        g = path_graph(3)
        gpath = str(tmp_path / "p3.txt")
        fileio.write_graph_file(g, gpath)
        a = str(tmp_path / "a.csv")
        fileio.write_trajectory_csv(a, np.ones((2, 3)), [0.0, 0.5], g)
        with open(a, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[0] == "1" and column == "time":
                row[1] = token
            elif row[:3] == ["1", "0.5", "1"] and column == "value":
                row[3] = token
        b = str(tmp_path / "b.csv")
        with open(b, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        try:
            times, values = reference_read_trajectory_csv(b, g)
            expected = None
        except InvalidGraphData as exc:
            expected = f"error[CONFIG]: {exc}\n"
        assert (expected is None) == NUMBER_TOKENS[token]
        code = main(["compare", b, b, "--graph", gpath])
        captured = capsys.readouterr()
        if expected is not None:
            assert code == 2 and captured == ("", expected)
            return
        assert code == 0 and captured.err == ""
        lines = captured.out.splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == times
        if column == "value":
            assert values[1, 1] == float(token)
            assert main(["compare", a, b, "--graph", gpath, "--times",
                         "0.5"]) == 0
            sup = float(capsys.readouterr().out.splitlines()[1]
                        .split(",")[2])
            assert sup == abs(1.0 - float(token))

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


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=4)


def _evolution_problem():
    """A heat or spectral problem block on the 5-vertex path, its keys
    mostly well formed."""
    exhaustion = _mostly(st.fixed_dictionaries({
        "seeds": _mostly(st.lists(st.sampled_from(["1", "2", 3, "zz"]),
                                  min_size=1, max_size=2), JSON_VALUES),
        "levels": _mostly(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3), JSON_VALUES)}),
        JSON_VALUES)
    return st.fixed_dictionaries({
        "kind": _mostly(st.sampled_from(["heat", "spectral"]), JSON_VALUES,
                        8),
        "horizon": _mostly(st.sampled_from([0.5, 1, 2.0]), JSON_VALUES),
        "steps": _mostly(st.integers(1, 4), JSON_VALUES),
        "initial": _values_block(st.one_of(INTERIOR_KEYS, LABEL_KEYS)),
    }, optional={
        "p": _mostly(st.sampled_from([1.0, 1.5, 2, 3.0]), JSON_VALUES),
        "steps_list": _mostly(st.lists(st.integers(1, 4), min_size=1,
                                       max_size=3), JSON_VALUES),
        "exhaustion": exhaustion,
        "compare_oracle": _mostly(st.booleans(), JSON_VALUES),
    })


class TestViConfigFuzz:
    """Generated blocks of small runs: the constraint, tolerances and
    inline values of a VI, and heat or spectral problem blocks of any
    JSON type under command-line overrides. ``main`` returns a documented
    exit code and prints one error line exactly when it fails."""

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


    @settings(max_examples=150, deadline=None)
    @given(problem=_mostly(_evolution_problem(), JSON_VALUES, odds=8),
           domain=st.sampled_from(["file", "all"]),
           overrides=st.fixed_dictionaries({}, optional={
               "--p": st.sampled_from(["1", "2.5", "0.5", "nan", "x"]),
               "--steps": st.sampled_from(["1", "3", "0", "-2", "x"]),
               "--levels": st.sampled_from(["1", "1,2", "2,1", "0",
                                            "a,b", ","]),
               "--initial": st.sampled_from(["h.txt", "h_zz.txt",
                                             "none.txt"])}))
    def test_heat_and_spectral_configs(self, problem, domain, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = pathlib.Path(tmp)
            cfg_path, cfg = heat_config(tmp_path)
            (tmp_path / "h.txt").write_text("2 0.5\n")
            (tmp_path / "h_zz.txt").write_text("zz 1.0\n")
            cfg["problem"] = problem
            if domain == "all":
                cfg["domain"] = "all"
            with open(cfg_path, "w") as fh:
                fh.write(json.dumps(cfg, allow_nan=True))
            if "--initial" in overrides:
                overrides["--initial"] = str(tmp_path
                                             / overrides["--initial"])
            extra = [token for item in overrides.items() for token in item]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", cfg_path, *extra])
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error[")]
        assert code in (0, 2, 3, 4)
        assert len(errors) == (0 if code == 0 else 1)


TRAJECTORY_TOKENS = {
    "i": ["0", "1", "2", "-1", "+1", "x", ""],
    "t": ["0.0", "0.5", "1.0", "-0.0", "1e-13", "1e308", "-1e308", "nan",
          "1e999", "0x1p3", "1_0"],
    "vertex": ["0", "1", "2", "3", "+1", "01", "zz", "1,2", 'q"'],
    "value": ["0.0", "-0.0", "1.5", "5e-324", "1e300", "-1e308", "nan",
              "-inf", " 2.5", "abc", ""],
}


@st.composite
def _trajectory_text(draw):
    """A trajectory CSV on the 3-vertex path: written whole, then with a
    few cells, rows or the header damaged."""
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0, 1e-13]),
                          min_size=draw(_mostly(st.just(1), st.just(0))),
                          max_size=3))
    values = draw(st.lists(
        _mostly(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.125]),
                st.sampled_from([1e300, -1e308]), odds=8),
        min_size=3 * len(times), max_size=3 * len(times)))
    rows = [[str(i), fileio.fmt(t), str(v), fileio.fmt(values[3 * i + v])]
            for i, t in enumerate(times) for v in draw(st.permutations(
                range(3)))]
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2), odds=2))):
        col = draw(st.integers(0, 3))
        token = draw(st.sampled_from(TRAJECTORY_TOKENS[
            ("i", "t", "vertex", "value")[col]]))
        if rows and draw(st.booleans()):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[min(col, len(row) - 1)] = token
        else:
            rows.append(draw(st.lists(st.sampled_from(
                TRAJECTORY_TOKENS["t"]), min_size=3, max_size=5)))
    header = draw(_mostly(st.just(["i", "t", "vertex", "value"]),
                          st.sampled_from([["i", "t", "v", "value"], []]),
                          odds=8))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))
               ).writerows([header, *rows])
    return buf.getvalue()


class TestCompareFuzz:
    """Generated trajectory files and ``compare`` options: ``main``
    returns a documented exit code and prints one error line exactly when
    it fails."""

    @settings(max_examples=150, deadline=None)
    @given(text_a=_trajectory_text(), text_b=_trajectory_text(),
           same=st.booleans(),
           b_file=_mostly(st.just("b.csv"),
                          st.sampled_from(["missing.csv", "latin1.csv"])),
           times=_mostly(
               st.sampled_from([None, "0.0", "0.5,0.5000000000001"]),
               st.sampled_from(["1e-13", "abc", "1e999", "nan", "1e308"])),
           domain=_mostly(
               st.sampled_from([None, "omega 0\nomega 1\nomega 2\n"]),
               st.sampled_from(["omega 2\n", "omega 9\n"])),
           output=_mostly(st.sampled_from([None, "cmp.csv"]),
                          st.just("no-dir/cmp.csv")))
    def test_compare_files_and_options(self, text_a, text_b, same, b_file,
                                       times, domain, output):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = pathlib.Path(tmp)
            gpath = str(tmp_path / "p3.txt")
            fileio.write_graph_file(path_graph(3), gpath)
            (tmp_path / "a.csv").write_text(text_a)
            (tmp_path / "b.csv").write_text(text_a if same else text_b)
            (tmp_path / "latin1.csv").write_bytes(text_b.encode() + b"\xff")
            argv = ["compare", str(tmp_path / "a.csv"),
                    str(tmp_path / b_file), "--graph", gpath]
            if times is not None:
                argv += ["--times", times]
            if domain is not None:
                (tmp_path / "dom.txt").write_text(domain)
                argv += ["--domain", str(tmp_path / "dom.txt")]
            if output is not None:
                argv += ["--output", str(tmp_path / output)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error[")]
        assert code in (0, 2, 3, 4)
        assert len(errors) == (0 if code == 0 else 1)
        assert err.getvalue().count("\n") == len(errors)


class TestInputFileFuzz:
    """Generated graph, domain and field files (``test_fileio.input_files``)
    through ``graph-info`` and ``validate-config``: ``main`` returns a
    documented exit code and prints one error line exactly when it
    fails."""

    @settings(max_examples=100, deadline=None)
    @given(files=input_files(), domain=st.sampled_from(["file", "all"]))
    def test_graph_domain_and_field_files(self, files, domain):
        with tempfile.TemporaryDirectory() as tmp:
            gpath, dpath, fpath = write_input_files(tmp, files)
            cfg = {"graph": {"file": gpath},
                   "domain": {"file": dpath} if domain == "file" else "all",
                   "problem": {"kind": "heat", "p": 1.0, "horizon": 1.0,
                               "steps": 2, "initial": {"file": fpath}},
                   "output": os.path.join(tmp, "out")}
            cpath = os.path.join(tmp, "config.json")
            with open(cpath, "w") as fh:
                json.dump(cfg, fh)
            for argv in (["graph-info", gpath, "--domain", dpath],
                         ["validate-config", cpath]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error[")]
                assert code in (0, 2, 3, 4)
                assert len(errors) == (0 if code == 0 else 1)
                assert err.getvalue().count("\n") == len(errors)
