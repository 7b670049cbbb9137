"""Golden outputs: the SHA-256 of every output file and the manifest
diagnostics of a few small runs, pinned so that a refactor has to prove
byte-identical output rather than rerun determinism alone.

The dense ``eigh`` paths (``kind: spectral`` and the p = 1 oracle study)
are left out, so that the pins do not depend on the LAPACK build. A
deliberate change of numerics rewrites the pins and says so.
"""

import json

import pytest

from graphrothe.cli import main

SIDE = 5


def _label(i, j):
    return f"{i},{j}"


def write_grid(tmp_path):
    """A 5x5 grid with measures and weights that are exact binary
    fractions, so the graph file reads back without rounding."""
    lines = [f"graph {SIDE * SIDE}"]
    for i in range(SIDE):
        for j in range(SIDE):
            lines.append(f"v {_label(i, j)} {0.5 + 0.25 * ((i + 2 * j) % 4)}")
    for i in range(SIDE):
        for j in range(SIDE):
            w = 0.5 + 0.25 * ((i * j + i) % 5)
            if j + 1 < SIDE:
                lines.append(f"e {_label(i, j)} {_label(i, j + 1)} {w}")
            if i + 1 < SIDE:
                lines.append(f"e {_label(i, j)} {_label(i + 1, j)} {w}")
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _grid_field(fn):
    return {"values": {_label(i, j): fn(i, j)
                       for i in range(SIDE) for j in range(SIDE)}}


def config_heat_p1(tmp_path):
    omega = [_label(i, j) for i in range(SIDE) for j in range(SIDE)
             if i + j <= 6]
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": {"omega": omega},
            "problem": {"kind": "heat", "p": 1.0, "horizon": 0.5,
                        "steps": 6,
                        "initial": {"values": {"2,2": 1.0, "1,3": -0.5}}}}


def config_heat_p2_lattice(tmp_path):
    return {"graph": {"generative": "lattice_z2",
                      "params": {"weight": 1.25, "mu": 0.75}},
            "domain": "all",
            "problem": {"kind": "heat", "p": 2.0, "horizon": 0.5,
                        "steps": 4,
                        "initial": {"values": {"0,0": 2.0, "1,0": 1.0,
                                               "0,-1": 0.5}},
                        "exhaustion": {"seeds": ["0,0"],
                                       "levels": [2, 3, 4]}}}


def config_heat_p2_oracle(tmp_path):
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": "all",
            "problem": {"kind": "heat", "p": 2.0, "horizon": 0.25,
                        "steps_list": [2, 4],
                        "compare_oracle": True,
                        "initial": {"values": {"2,2": 1.5, "3,1": 0.5}}}}


def config_vi_separable(tmp_path):
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": "all",
            "problem": {"kind": "vi", "horizon": 1.0, "steps": 5,
                        "initial": {"values": {"2,2": 1.0}},
                        "forcing": {"kind": "separable",
                                    "field": _grid_field(
                                        lambda i, j: 0.25 * (i - j)),
                                    "time": "sin(t) + 1"},
                        "lipschitz_bound": 2.0}}


def config_vi_obstacle(tmp_path):
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": "all",
            "problem": {"kind": "vi", "horizon": 3.0, "steps": 3,
                        "initial": _grid_field(
                            lambda i, j: max(0.0, 1.0 - 0.25 * (
                                abs(i - 2) + abs(j - 2)))),
                        "forcing": {"kind": "constant",
                                    "field": _grid_field(
                                        lambda i, j: 0.5 * (j - 2))},
                        "constraint": {"kind": "obstacle",
                                       "psi": {"values": {}}},
                        "lipschitz_bound": 1.0}}


def config_vi_lattice(tmp_path):
    return {"graph": {"generative": "lattice_z",
                      "params": {"weight": 0.75, "mu": 1.25}},
            "domain": "all",
            "problem": {"kind": "vi", "horizon": 1.0, "steps": 4,
                        "initial": {"values": {"0": 1.0, "1": 0.5}},
                        "forcing": {"kind": "constant",
                                    "field": {"values": {"-1": 0.25}}},
                        "exhaustion": {"seeds": ["0"], "levels": [2, 4, 6]},
                        "lipschitz_bound": 0.0}}


def write_quoted_graph(tmp_path):
    """A 3x3 grid of tuple labels with an int label and two string labels
    that CSV must quote (a comma that is no int tuple, and a quote)."""
    lines = ["graph 12"]
    for i in range(3):
        for j in range(3):
            lines.append(f"v {_label(i, j)} {0.5 + 0.25 * ((i + j) % 3)}")
    lines += ["v 7 1.25", "v a,b 0.75", 'v say"hi" 1.0']
    for i in range(3):
        for j in range(3):
            w = 0.5 + 0.25 * ((i + 2 * j) % 4)
            if j + 1 < 3:
                lines.append(f"e {_label(i, j)} {_label(i, j + 1)} {w}")
            if i + 1 < 3:
                lines.append(f"e {_label(i, j)} {_label(i + 1, j)} {w}")
    lines += ["e 2,2 7 0.75", "e 7 a,b 1.5", 'e a,b say"hi" 0.5',
              'e say"hi" 0,0 1.25']
    path = tmp_path / "quoted.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def config_vi_obstacle_overrelaxed(tmp_path):
    return {"graph": {"file": write_quoted_graph(tmp_path)},
            "domain": "all",
            "problem": {"kind": "vi", "horizon": 2.0, "steps": 2,
                        "initial": {"values": {"1,1": 1.0, "7": 0.5,
                                               "a,b": 0.75, 'say"hi"': 0.25}},
                        "forcing": {"kind": "constant",
                                    "field": {"values": {
                                        "0,2": -1.5, "2,0": 1.0,
                                        "a,b": -2.0, 'say"hi"': 0.5}}},
                        "constraint": {"kind": "obstacle",
                                       "psi": {"values": {"2,2": 0.125}}},
                        "lipschitz_bound": 0.0},
            "tolerances": {"psor_relax": 1.5}}


def run_manifest(tmp_path, make_config):
    cfg = make_config(tmp_path)
    cfg["output"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # config_sha256 covers the tmp paths, so it is not pinned
    return {"outputs": manifest["outputs"],
            "diagnostics": manifest["diagnostics"]}


GOLDEN = {
    "heat_p1": {
        "diagnostics": {
            "max_energy_defect": -0.04323045480240173,
            "max_energy_residual": -0.0018012689501000698
        },
        "outputs": {
            "estimates.csv": "19e130e6bf49bdbef35dcc4abf366aa46d5bf6f0da2f7a7bddb0c6ec0c38b1ba",
            "norms.csv": "a183327c6d373872b50d0ee96b8d7d180c5b6eccd8983195737d4bc466efeb00",
            "trajectory.csv": "dd25c1d1da8c5ff5eed8be7bf2d2ecfc34657dc24a9882ae5ee9f7c2e57a0f10"
        }
    },
    "heat_p2_lattice": {
        "diagnostics": {
            "level_deltas": [
                0.24765205197325285,
                0.12990013020621569
            ]
        },
        "outputs": {
            "levels.csv": "85e4d090170503675ec55889ef5a794de9f866d635926ceffba9e2ec88ddd426",
            "terminal_level_2.txt": "a6b3bcb2c020b21fb5c0c9257c39e3b37e1b096b33c57952b82d6ea13afdc046",
            "terminal_level_3.txt": "f9429050dc1d1e0cb664b2bba112b4bc384312cc1ac9535154da937539142bbe",
            "terminal_level_4.txt": "2adc5220bb8fadca63963908e2117f8f5a5cc970cfac75dca83e7eafb40f88a3"
        }
    },
    "heat_p2_oracle": {
        "diagnostics": {
            "max_energy_defect": -0.3025281326272222,
            "max_energy_residual": -0.009454004144600736
        },
        "outputs": {
            "estimates.csv": "bbbac869f01fd042c6171d252957ce25837b99cef4a2620d102e7cc6a1f6f9a4",
            "norms.csv": "7b39b0294a26f6c8a908273fe8b77f90a8aa79734fb62345a3334192767d631e",
            "oracle_error.csv": "aa27c587a1ed066e374160296b44b9a5b56534c9fffa6cd28604e1980fcc743d",
            "oracle_trajectory.csv": "302601c2f5dd5604184b2bfe828424532de9422c82a851bde19464679955e841",
            "trajectory.csv": "ee92ec7a975379dae9e4b8c0c482a35d02837a9b3b5a732695887c9faf4c2b75"
        }
    },
    "vi_lattice": {
        "diagnostics": {
            "level_deltas": [
                0.21656343861328775,
                0.01169341608417374
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "78a269bbb931b8d34faa1876908444820e79f57db51296b155f19631ba57470d",
            "terminal_level_2.txt": "590f89304aa9c03ad489a35e63b285bdac919b93abdf7d68976d2f48d2f1bc06",
            "terminal_level_4.txt": "7da2d1a08b395c22960852c8f51dad84d33806b36ede3d2f3132a206ea0a0e1a",
            "terminal_level_6.txt": "bc2cefb621c95ac5edb6d7df4548e77f0f71217c212383045ee39e503a911275"
        }
    },
    "vi_obstacle": {
        "diagnostics": {
            "lipschitz": {
                "declared": 1.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 2.0410083400964347,
            "quotient_bound": 5.59773963022651,
            "quotient_recurrence_max_slack": -0.27387624021064405
        },
        "outputs": {
            "norms.csv": "dbc9d82d962559470aea729b0b50e0cc1e50b4d89b2285a9a41b52fd22b4c04b",
            "trajectory.csv": "ea2e82b82ac7d0b2a22705e5971b104d430c6127847163a980422dc581e6d127",
            "vi_reports.csv": "def884c67b09475600b309886cb92fa16b061df26ee99312e2ec456a33ab644a"
        }
    },
    "vi_obstacle_overrelaxed": {
        "diagnostics": {
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 1.2172796655101479,
            "quotient_bound": 7.774773904824381,
            "quotient_recurrence_max_slack": -0.7894440089285005
        },
        "outputs": {
            "norms.csv": "781ed800cb6698ccf3d0f87f99e065ee60af5ddb0b80b810763430f815c7a2c2",
            "trajectory.csv": "b069e51cc3073cd204da533ff75a01df4dccd3a095340f0cddf84b2b34b0372d",
            "vi_reports.csv": "fbb873b9b613eb8b9cb331edf0b54760f65a6286f252abe5fd1b47ed410190f4"
        }
    },
    "vi_separable": {
        "diagnostics": {
            "convergence_claims": "downgraded: declared Lipschitz bound exceeded by the sampled forcing",
            "lipschitz": {
                "declared": 2.0,
                "estimate": 2.2072645460806095,
                "violated": True
            },
            "max_quotient_l2": 3.3087896927292184,
            "quotient_bound": 9.549941367077198,
            "quotient_recurrence_max_slack": -0.2694138540875032
        },
        "outputs": {
            "norms.csv": "9cd81bda43c5a454efbb1e767a743cf7c1a74020c0e0761dd7c9cb3320724058",
            "trajectory.csv": "068bbcdc2f41e3d41c46c3c9beb85fa4fbc71499d96a6fac0796bf59f06c4423",
            "vi_reports.csv": "df7986298ce2d5a5d5656bdddce7517a89ea273e5d9f2ab865a499b7b8a1da71"
        }
    }
}


CONFIGS = {
    "heat_p1": config_heat_p1,
    "heat_p2_lattice": config_heat_p2_lattice,
    "heat_p2_oracle": config_heat_p2_oracle,
    "vi_separable": config_vi_separable,
    "vi_lattice": config_vi_lattice,
    "vi_obstacle": config_vi_obstacle,
    "vi_obstacle_overrelaxed": config_vi_obstacle_overrelaxed,
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs(tmp_path, name):
    assert run_manifest(tmp_path, CONFIGS[name]) == GOLDEN[name]
