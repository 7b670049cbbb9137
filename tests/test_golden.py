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


def config_heat_p1_exhaustion(tmp_path):
    omega = [_label(i, j) for i in range(SIDE) for j in range(SIDE)
             if i + j <= 6]
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": {"omega": omega},
            "problem": {"kind": "heat", "p": 1.0, "horizon": 0.5,
                        "steps": 3,
                        "initial": {"values": {"2,2": 1.0, "1,1": -0.5,
                                               "2,1": 0.25}},
                        "exhaustion": {"seeds": ["1,1", "3,2"],
                                       "levels": [1, 2, 4]}}}


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


def config_vi_obstacle_exhaustion(tmp_path):
    return {"graph": {"file": write_grid(tmp_path)},
            "domain": "all",
            "problem": {"kind": "vi", "horizon": 2.0, "steps": 3,
                        "initial": _grid_field(
                            lambda i, j: max(0.0, 1.0 - 0.25 * (
                                abs(i - 2) + abs(j - 2)))),
                        "forcing": {"kind": "constant",
                                    "field": _grid_field(
                                        lambda i, j: 0.5 * (j - 2))},
                        "constraint": {"kind": "obstacle",
                                       "psi": {"values": {"2,2": 0.125}}},
                        "exhaustion": {"seeds": ["2,2"], "levels": [1, 2, 3]},
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
            "estimates.csv": "509fb674af8a90b4399743d2c7b4abf6fb84d491e0bee0ad5ec837600b313fd9",
            "norms.csv": "b7762f29e18f4421288abf21e2b3c2e69851de53621d1a66515a8fee056c82ad",
            "trajectory.csv": "316e54c7179e57ca6641640d2cf1b69f27ce14a2d2c600dd15db41c3d95ecdd9"
        }
    },
    "heat_p1_exhaustion": {
        "diagnostics": {
            "level_deltas": [
                0.2022467561129601,
                0.038382658797722825
            ]
        },
        "outputs": {
            "levels.csv": "18b29d5d823b3f2655843c4a1cecb5f731a601c4212010a9b1120cc9263c8a42",
            "terminal_level_1.txt": "d60ccb67ad4bda9db3239dfaa24d6bc3c097743be65e94ff3c0dd0d1b3b5bdcd",
            "terminal_level_2.txt": "538c035085c17f1756c4fcf8f810dec0e92a8cdd8339f4812a65979eed066931",
            "terminal_level_4.txt": "ac25e98f161533ad6dd2457e13b848ab8d22a23f559e7a232d35689d2a68d9eb"
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
                0.21656343861328772,
                0.011693416084173751
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "a7138316eba765060f6dfb5453fc3ac08459270c8a482bbcad2a7911fd55fce7",
            "terminal_level_2.txt": "5d0f19232d91ddcfadf55f8469f69355af5e344f1ac1872817f39bb31a97c504",
            "terminal_level_4.txt": "3239bb65694922979afaaf5f89f119ad34b7be72579fd4a8907091885e3b864d",
            "terminal_level_6.txt": "08b07273af9aa68f259835b11af6902106cb4d653311a51c4fd4586145775462"
        }
    },
    "vi_obstacle": {
        "diagnostics": {
            "lipschitz": {
                "declared": 1.0,
                "estimate": 0.0,
                "violated": False
            },
            "max_quotient_l2": 2.04100834017328,
            "quotient_bound": 5.59773963022651,
            "quotient_recurrence_max_slack": -0.273876240075664
        },
        "outputs": {
            "norms.csv": "ba0a7af92985b1734d4828946b01f48e03dd4ade379a4c287975a75164b414de",
            "trajectory.csv": "88ab85fcd14c5eb07ff82c32d99aadd844c3a189a18fd2c4e9d378c68d6a1221",
            "vi_reports.csv": "03608cce13d4539700b8ea7070681e5689e5472998c78f7b6d8190c1f0ca3096"
        }
    },
    "vi_obstacle_exhaustion": {
        "diagnostics": {
            "level_deltas": [
                0.08534142784610413,
                0.9301301153114263
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "419aa8a32384386a76156df71f290b871b8415dc75d483a64842a53c5054730f",
            "terminal_level_1.txt": "f3596fb9af3fedf088b0ed1848d08776b1d729f5e4fdbfbaadbd0996f2ac829a",
            "terminal_level_2.txt": "d3c3d8e98966db46e2009c5db2d0c2f5a14af08932335fe008c1d8e7c41f942f",
            "terminal_level_3.txt": "489f5edd721de60f3a5f340198135b0903224306d023f8a5d1bfa9e86e6afcf9"
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
            "quotient_recurrence_max_slack": -0.7894440089178767
        },
        "outputs": {
            "norms.csv": "643c5d47ccd5d74b6a5c5e8043e2e312e90dbfb39149faa06eeaf79f328a0e5b",
            "trajectory.csv": "99cd4135241f109678758ecc9b18e5a2f10e55fc527600a9bdb5cd7f561adc7c",
            "vi_reports.csv": "8e23979aac317670a5993e9d7b5e3be81226194e98a5c418862db1a62e1cbdde"
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
            "max_quotient_l2": 3.308789692729218,
            "quotient_bound": 9.549941367077198,
            "quotient_recurrence_max_slack": -0.2694138540875014
        },
        "outputs": {
            "norms.csv": "da17802a0766fefae6bcc9aa248542b677be2c923507e3293e457961e73ac409",
            "trajectory.csv": "5fbef9b32a9d97824bb87137674b30d8e8ee703ab6ad8a1fdaa99600bf2a4103",
            "vi_reports.csv": "b521dcfa873d24db00616ed5cf18a449064a8ef98f8381cd393cb5c0cc4270bc"
        }
    }
}


CONFIGS = {
    "heat_p1": config_heat_p1,
    "heat_p1_exhaustion": config_heat_p1_exhaustion,
    "heat_p2_lattice": config_heat_p2_lattice,
    "heat_p2_oracle": config_heat_p2_oracle,
    "vi_separable": config_vi_separable,
    "vi_lattice": config_vi_lattice,
    "vi_obstacle": config_vi_obstacle,
    "vi_obstacle_exhaustion": config_vi_obstacle_exhaustion,
    "vi_obstacle_overrelaxed": config_vi_obstacle_overrelaxed,
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs(tmp_path, name):
    assert run_manifest(tmp_path, CONFIGS[name]) == GOLDEN[name]


# The same configs with every SPD system on the iterative path
# (``operators.DIRECT_SOLVE_MAX`` = 0): Jacobi-preconditioned CG in place
# of banded Cholesky for p = 1, the VI subspace and the active-set blocks.
# Each of these differs from its direct-path pin above in the last bits of
# the fields. A p = 2 run factors nothing on either path, so each p = 2
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
    "heat_p1_exhaustion": {
        "diagnostics": {
            "level_deltas": [
                0.2022467561129603,
                0.03838265879772161
            ]
        },
        "outputs": {
            "levels.csv": "393c096a46148ab2e9916a7792f53741957e88326fc8bac1dc302ce244fa24f1",
            "terminal_level_1.txt": "b5c3d2861fb08068fc7c85346d540dd0bca63e7535bd844c7a0c238151c31ea5",
            "terminal_level_2.txt": "eec7aa12cc536a5e2c7729e10b2b39a072f7e5c915a8d11e3c47102ec5c024c6",
            "terminal_level_4.txt": "798ac83078832f5252190a29d831b76cffdd1fa5a5fa3c3b6efe159d1664942a"
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
    "vi_obstacle_exhaustion": {
        "diagnostics": {
            "level_deltas": [
                0.08534142784610414,
                0.9301301153114266
            ],
            "lipschitz": {
                "declared": 0.0,
                "estimate": 0.0,
                "violated": False
            }
        },
        "outputs": {
            "levels.csv": "3ac27a2ba291fa20bd0f1416709caaa91e4f4f96d3e0a7f3856d8ce8ba2ee452",
            "terminal_level_1.txt": "f3596fb9af3fedf088b0ed1848d08776b1d729f5e4fdbfbaadbd0996f2ac829a",
            "terminal_level_2.txt": "ee4a02299822121eddcd25d130a29059750662c07a86edef60f0e91410312022",
            "terminal_level_3.txt": "4ea31741a6c0d42e43876a6a7bdfc96d75697395ddbaa8368119fd12e8989b70"
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
