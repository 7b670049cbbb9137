"""Golden outputs: the SHA-256 of every output file and the manifest
diagnostics of a few small runs, pinned so that a refactor has to prove
byte-identical output rather than rerun determinism alone, on the direct
solver path and, with the direct-solve size forced to 0, on the iterative
one.

The dense ``eigh`` paths (``kind: spectral`` and the p = 1 oracle study)
are left out, so that the pins do not depend on the LAPACK build. A
deliberate change of numerics rewrites the pins and says so.
"""

import json

import pytest

from graphrothe import operators
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
                        "lipschitz_bound": 0.0}}


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
            "max_energy_defect": -0.04323045480240181,
            "max_energy_residual": -0.0018012689501000767
        },
        "outputs": {
            "estimates.csv": "322f7a7e933e28009ef6f8a4041be8eae3361d8104bf0ee22a44be803c9299ae",
            "norms.csv": "b0d836d09fca5891c3ed429755f3d7a1daafcf752be05e4bfbf18a23ad0782c3",
            "trajectory.csv": "bbff86484831b5869a96e6598218398c406aec9c4f11110c64d6fe0ad7752eae"
        }
    },
    "heat_p2_lattice": {
        "diagnostics": {
            "level_deltas": [
                0.24765205197329837,
                0.129900130206256
            ]
        },
        "outputs": {
            "levels.csv": "ed6f6a2cd7fbe19ec2128a43536612a1c599dde0470a1865c5f410a64a3d62a8",
            "terminal_level_2.txt": "16a09866adfe509786e32881d96fab969720c8a954bc9e4ea92d7018aad1bfe7",
            "terminal_level_3.txt": "6b292b171a7926e6d5ab867e158ac818c9b7ee49b116c365429f876a4e56044c",
            "terminal_level_4.txt": "82834488cd68183c4ed38a33e55c04e5c760dcb6b83a59ef7a36d9229d6263d2"
        }
    },
    "heat_p2_oracle": {
        "diagnostics": {
            "max_energy_defect": -0.30252813262733813,
            "max_energy_residual": -0.009454004144604289
        },
        "outputs": {
            "estimates.csv": "ebe1cea98a8334271399eda53beaa6a803c3bd1604a12d9068853cfec6adeb6c",
            "norms.csv": "ecfd63a8a86e6ea4ec5fee533df417dea37fe517537d3b8db25cf914d84e65a3",
            "oracle_error.csv": "309eff98b7ef5fca6e64c5d02cb97e6cd868f9368c9ed9e831b8160fd94531bd",
            "oracle_trajectory.csv": "302601c2f5dd5604184b2bfe828424532de9422c82a851bde19464679955e841",
            "trajectory.csv": "6975df4789974babbdf769d717f08563c717e9c164d5e4498116d965ebf02325"
        }
    },
    "vi_lattice": {
        "diagnostics": {
            "level_deltas": [
                0.21656343861328758,
                0.011693416084173751
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "707217153f245274a9d6dc52a126c27a7e967164d0edcaa501a47b98d87caa3e",
            "terminal_level_2.txt": "1d647e2045a0a94e85f9bb59be668329a4c188a5c85a01c3531b7fbce459d9b3",
            "terminal_level_4.txt": "945c9bd37927af68bd6a9b35083c1e8591f310ec94dc07bfdb094ac5995ee783",
            "terminal_level_6.txt": "c9801fa33f72191b0fe5a78d357981e8adac6cac5ed559b7c197d9dc28e0b7f0"
        }
    },
    "vi_obstacle": {
        "diagnostics": {
            "lipschitz": {
                "declared": 1.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 2.0410083401732804,
            "quotient_bound": 5.59773963022651,
            "quotient_recurrence_max_slack": -0.27387624007566513
        },
        "outputs": {
            "norms.csv": "219872ce441eb9a6504d9ebb831aa525237af7bbb332ca5ba54b3feee64ee513",
            "trajectory.csv": "627ef9c71c66f36e3200d838e7bed07eaf7fd0eddc5ee7a5ad0f3d55e0d6d876",
            "vi_reports.csv": "427c8bd6c756c7d12eff0cd6766302adfd64d5b98f0a232bc16ebf4658ff87f6"
        }
    },
    "vi_obstacle_overrelaxed": {
        "diagnostics": {
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 1.2172796654841853,
            "quotient_bound": 1.2172796654841853,
            "quotient_recurrence_max_slack": -0.7894440089178766
        },
        "outputs": {
            "norms.csv": "645c46013d2e6670d4b6c2c188fbd0a9a18af0e5948abb3e5136d120148da3fd",
            "trajectory.csv": "b7757c0f9d84ed0e2acf3138ff74a5b9877a685f77ab1359ef8e381dbd9f1880",
            "vi_reports.csv": "5c0ce73b3f52631acd2457f1452c14962fb91877f6d8f7742ae8bd3a8125b4dd"
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
            "max_quotient_l2": 3.308789692729219,
            "quotient_bound": 9.549941367077198,
            "quotient_recurrence_max_slack": -0.26941385408750185
        },
        "outputs": {
            "norms.csv": "0db3ec0b5431ec6402393d433383e5cbe2f9773da14535285f8c7476af088d31",
            "trajectory.csv": "248d905faa18d7fd7a1e787d3f2cbaff383bd256084978f2c26e38d18f6dd684",
            "vi_reports.csv": "0d3c118b4f442f49537edb2d976cad1771ac6c9d82a6af1a09d2c73e048d192b"
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


# The same configs with every SPD system on the iterative path
# (``operators.DIRECT_SOLVE_MAX`` = 0): Jacobi-preconditioned CG in place
# of sparse LU for p = 1, the VI subspace and the active-set blocks. Each
# of these differs from its direct-path pin above in the last bits of the
# fields. A p = 2 run factors nothing on either path, so each p = 2
# config's iterative pin is its direct pin.
GOLDEN_ITERATIVE = {
    "heat_p1": {
        "diagnostics": {
            "max_energy_defect": -0.04323045480240284,
            "max_energy_residual": -0.0018012689501001183
        },
        "outputs": {
            "estimates.csv": "8c39a90c5a6e88fdadb13b9c23b00187b0f987093fef43f0422deb855ae4035c",
            "norms.csv": "242f9fdbf64b5139d90c8baf6d8a7e1ac0a7a26cb23b36a0e290d4993e3960bb",
            "trajectory.csv": "24336e62e7743a0602256d34386e8211669bb56b47f26bdddefe3ba5afd4ab0d"
        }
    },
    "heat_p2_lattice": GOLDEN["heat_p2_lattice"],
    "heat_p2_oracle": GOLDEN["heat_p2_oracle"],
    "vi_lattice": {
        "diagnostics": {
            "level_deltas": [
                0.21656343861328797,
                0.01169341608417374
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "46a8d4e49b7f22874c99267a85ac7c5e4491660830d0540003fb0b2a701d13c5",
            "terminal_level_2.txt": "435a80a1446a81798446517c3fffcc1ed0d18650517089e7c9fdbea2aaf35b58",
            "terminal_level_4.txt": "bf62f17cd8a5749e63c122eb0390cc1537872e769dd6176922054e8189ddfed7",
            "terminal_level_6.txt": "430eb3ee0925114a106cb9d3d6c1b30b9a7a3b4b6995a875cfd3848bf2898538"
        }
    },
    "vi_obstacle": {
        "diagnostics": {
            "lipschitz": {
                "declared": 1.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 2.0410083401732804,
            "quotient_bound": 5.59773963022651,
            "quotient_recurrence_max_slack": -0.2738762400756647
        },
        "outputs": {
            "norms.csv": "56f220038f1b9179d0c21124322b9636c273ab4109ff170c17888261d287d1ce",
            "trajectory.csv": "3609e95a3dde129ccc20232c333557ef329ba59dff8153cce10452bbd163843d",
            "vi_reports.csv": "0724ca5279af6ff3f44c98e25ff3c6ea652f8035fe92b27b9aba78fdaea5e923"
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
            "max_quotient_l2": 3.3087896927292153,
            "quotient_bound": 9.549941367077198,
            "quotient_recurrence_max_slack": -0.269413854087584
        },
        "outputs": {
            "norms.csv": "4608dcbc48b735ea42063275b13bce538660a46bc123ad54bdab69ec9b4c60ba",
            "trajectory.csv": "43788da97756215203b5f95e768b37d650774d68c4437f01aab729469ed7941d",
            "vi_reports.csv": "229a5f0ae2c053084f7099022e7e34d0d79b7dc317135731ca38a4893607bb42"
        }
    }
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ITERATIVE))
def test_golden_outputs_iterative(tmp_path, monkeypatch, name):
    monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
    assert run_manifest(tmp_path, CONFIGS[name]) == GOLDEN_ITERATIVE[name]
