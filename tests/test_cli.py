import json
import math
import os

import pytest

from graphrothe.cli import main
from helpers import path_graph
from graphrothe import fileio


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
        assert main(["run", cfg_path]) == 0
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes()
                 for name in os.listdir(out)}
        assert main(["run", cfg_path]) == 0
        second = {name: (out / name).read_bytes()
                  for name in os.listdir(out)}
        assert first == second

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
