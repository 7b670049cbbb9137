"""Seeded input generators for the four benchmark workloads.

Each generator writes a graph (or names a generative one), field files
and a JSON config into a work directory and returns a ``Workload``. The
program under test only ever sees these files; the benchmark keeps the
generated arrays (edge list, measures, fields) so that its checks can
rebuild every operator without reading anything the program produced.

Sizes, step counts and levels are fixed per workload, so that the seed
changes values only, never the shape of the work. ``scale`` shrinks every
size for the self-test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Workload:
    name: str
    config: str
    outdir: str
    params: dict
    # Generated data, kept for the independent checks.
    labels: list = field(default_factory=list)
    mu: np.ndarray = None
    edges: list = field(default_factory=list)
    arrays: dict = field(default_factory=dict)
    graph_file: str = None

    def run_argv(self):
        return ["run", self.config, "--output", self.outdir]

    def validate_argv(self):
        return ["validate-config", self.config]

    def compare_argv(self):
        """The follow-up ``compare`` of the grid-oracle workload, or None."""
        if self.name != "grid-oracle":
            return None
        return ["compare", os.path.join(self.outdir, "trajectory.csv"),
                os.path.join(self.outdir, "oracle_trajectory.csv"),
                "--graph", self.graph_file]


def _fmt(x):
    return repr(float(x))


def _label(i, j):
    return f"{i},{j}"


def grid_graph(rng, side):
    """Square side x side grid with random measures and edge weights in
    [0.5, 1.5]. Labels are ``i,j``; vertex k = i * side + j."""
    labels = [_label(i, j) for i in range(side) for j in range(side)]
    mu = rng.uniform(0.5, 1.5, side * side)
    edges = []
    for i in range(side):
        for j in range(side):
            k = i * side + j
            if j + 1 < side:
                edges.append((k, k + 1))
            if i + 1 < side:
                edges.append((k, k + side))
    weights = rng.uniform(0.5, 1.5, len(edges))
    return labels, mu, [(a, b, float(w)) for (a, b), w in zip(edges, weights)]


def write_graph(path, labels, mu, edges):
    lines = [f"graph {len(labels)}"]
    lines += [f"v {lab} {_fmt(m)}" for lab, m in zip(labels, mu)]
    lines += [f"e {labels[a]} {labels[b]} {_fmt(w)}" for a, b, w in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field(path, labels, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab} {_fmt(v)}\n" for lab, v in zip(labels, values)))


def _write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)


def _scaled(n, scale, floor):
    return max(floor, int(round(n * scale)))


def make_grid_heat(workdir, rng, scale=1.0):
    """p = 1 heat on a file-backed grid; monitors and CSV emission
    dominate. The grid is below DIRECT_SOLVE_MAX, so the direct solve
    runs: the CG path needs a round too long to time steadily."""
    side = _scaled(30, scale, 4)
    steps = 3
    labels, mu, edges = grid_graph(rng, side)
    gpath = os.path.join(workdir, "graph.txt")
    write_graph(gpath, labels, mu, edges)
    k = int(rng.integers(side * side))
    cfg = {"graph": {"file": gpath}, "domain": "all",
           "problem": {"kind": "heat", "p": 1.0, "horizon": 0.5,
                       "steps": steps,
                       "initial": {"values": {labels[k]: 1.0}}},
           "output": os.path.join(workdir, "out")}
    h = np.zeros(side * side)
    h[k] = 1.0
    return _finish(workdir, "grid-heat", cfg, labels, mu, edges,
                   {"initial": h}, gpath,
                   {"side": side, "steps": steps, "horizon": 0.5})


def make_lattice_newton(workdir, rng, scale=1.0):
    """p = 2 heat on the generative Z^2 lattice by exhaustion; Newton
    refactorisation dominates. The initial field is supported within
    radius 4 of the seed, so every level sees the same data."""
    levels = [_scaled(6, scale, 4), _scaled(12, scale, 8),
              _scaled(18, scale, 12)]
    steps = 10
    horizon = 0.5
    weight = float(rng.uniform(0.8, 1.2))
    mu = float(rng.uniform(0.8, 1.2))
    support = [(i, j) for i in range(-4, 5) for j in range(-4, 5)
               if abs(i) + abs(j) <= 4]
    values = rng.uniform(0.5, 2.0, len(support))
    labels = [_label(i, j) for i, j in support]
    hpath = os.path.join(workdir, "initial.txt")
    write_field(hpath, labels, values)
    cfg = {"graph": {"generative": "lattice_z2",
                     "params": {"weight": weight, "mu": mu}},
           "domain": "all",
           "problem": {"kind": "heat", "p": 2.0, "horizon": horizon,
                       "steps": steps, "initial": {"file": hpath},
                       "exhaustion": {"seeds": ["0,0"], "levels": levels}},
           "output": os.path.join(workdir, "out")}
    return _finish(workdir, "lattice-newton", cfg, labels, None, [],
                   {"support": support, "initial": values}, None,
                   {"levels": levels, "steps": steps, "horizon": horizon,
                    "weight": weight, "mu": mu, "p": 2.0})


def make_grid_obstacle(workdir, rng, scale=1.0):
    """Obstacle VI (psi = 0) on a file-backed grid with step 1: a bump
    initial field and a spatially sign-changing constant forcing. The
    pure-Python PSOR sweep dominates."""
    side = _scaled(16, scale, 16)
    steps = 3
    labels, mu, edges = grid_graph(rng, side)
    gpath = os.path.join(workdir, "graph.txt")
    write_graph(gpath, labels, mu, edges)
    ii, jj = np.divmod(np.arange(side * side), side)
    ci, cj = rng.uniform(0.3, 0.7, 2) * (side - 1)
    radius = 0.3 * side
    bump = np.maximum(0.0, 1.0 - ((ii - ci) ** 2 + (jj - cj) ** 2)
                      / radius ** 2) * rng.uniform(1.0, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    forcing = 0.2 * np.sin(2.0 * np.pi * ii / side + phase) \
        * np.cos(2.0 * np.pi * jj / side)
    hpath = os.path.join(workdir, "initial.txt")
    fpath = os.path.join(workdir, "forcing.txt")
    write_field(hpath, labels, bump)
    write_field(fpath, labels, forcing)
    cfg = {"graph": {"file": gpath}, "domain": "all",
           "problem": {"kind": "vi", "horizon": float(steps), "steps": steps,
                       "initial": {"file": hpath},
                       "forcing": {"kind": "constant",
                                   "field": {"file": fpath}},
                       "constraint": {"kind": "obstacle",
                                      "psi": {"values": {}}},
                       "lipschitz_bound": 1.0},
           "output": os.path.join(workdir, "out")}
    return _finish(workdir, "grid-obstacle", cfg, labels, mu, edges,
                   {"initial": bump, "forcing": forcing}, gpath,
                   {"side": side, "steps": steps, "ell": 1.0})


def make_grid_oracle(workdir, rng, scale=1.0):
    """p = 1 heat with the spectral oracle study over three step counts,
    followed by ``compare`` of the trajectory against the oracle."""
    side = _scaled(8, scale, 4)
    steps_list = [10, 20, 40]
    labels, mu, edges = grid_graph(rng, side)
    gpath = os.path.join(workdir, "graph.txt")
    write_graph(gpath, labels, mu, edges)
    k = int(rng.integers(side * side))
    cfg = {"graph": {"file": gpath}, "domain": "all",
           "problem": {"kind": "heat", "p": 1.0, "horizon": 1.0,
                       "steps_list": steps_list, "compare_oracle": True,
                       "initial": {"values": {labels[k]: 1.0}}},
           "output": os.path.join(workdir, "out")}
    h = np.zeros(side * side)
    h[k] = 1.0
    return _finish(workdir, "grid-oracle", cfg, labels, mu, edges,
                   {"initial": h}, gpath,
                   {"side": side, "steps_list": steps_list, "horizon": 1.0})


def _finish(workdir, name, cfg, labels, mu, edges, arrays, gpath,
            params):
    cpath = os.path.join(workdir, "config.json")
    _write_config(cpath, cfg)
    return Workload(name, cpath, cfg["output"], params, labels, mu,
                    edges, arrays, gpath)


GENERATORS = {
    "grid-heat": make_grid_heat,
    "lattice-newton": make_lattice_newton,
    "grid-obstacle": make_grid_obstacle,
    "grid-oracle": make_grid_oracle,
}


def generate(name, seed, workdir, scale=1.0):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(name)])
    return GENERATORS[name](workdir, rng, scale)
