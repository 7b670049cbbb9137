"""Batch front-end.

Subcommands: ``run`` (solve from a JSON config), ``compare`` (difference
two trajectory CSVs), ``validate-config`` (fail-fast validation only),
``graph-info`` (structure and metrics). Exit codes: 2 config, 3 solve,
4 I/O; one-line stderr prefix ``error[<CODE>]:``. Identical configs
produce bit-identical outputs (fixed summation order, no timestamps).

The config schema is documented in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import calculus, fileio, heat, spectral, vi
from .calculus import VertexField
from .errors import (
    ConfigError,
    EmptyInteriorWarning,
    GraphrotheError,
    IoError,
    SolveError,
)
from .graph import GENERATORS, compute_metrics, exhaust, exhaust_generative, \
    make_domain
from .timeexpr import compile_time_expression


# bound on the bytes ``run_bytes`` estimates for one heat or vi run, about
# 2 GB, as ``graph.MAX_BALL_ENTRIES`` bounds a ball
MAX_RUN_BYTES = 2_000_000_000


def _fail(msg):
    raise ConfigError(msg)


def _expect(cond, msg):
    if not cond:
        _fail(msg)


def _is_int(x):
    # bool is a subclass of int, and JSON true must not pass as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    """A finite number that converts to a float. The literal 1e400 reads
    as inf, and command-line overrides may carry inf or nan."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _label(entry, what):
    """The vertex label named by a config entry, a string or an int."""
    _expect(isinstance(entry, str) or _is_int(entry),
            f"{what} {json.dumps(entry)} is not a vertex label (a string "
            f"or an integer)")
    return fileio.parse_label(str(entry))


def _reject_constant(name):
    _fail(f"non-finite number {name} is not allowed")


def _list_option(text, convert, what):
    """A comma-separated command-line list, each item read by ``convert``;
    ``what`` names the option and its items."""
    try:
        return [convert(s) for s in text.split(",")]
    except ValueError:
        _fail(f"{what} must be a comma-separated list, got {text!r}")


def _quiet_domain(g, ids):
    """``make_domain`` without its empty-interior warning: the commands
    refuse an empty interior, or report its size, themselves."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyInteriorWarning)
        return make_domain(g, ids)


def _problem_domain(g, ids):
    """The domain on ``ids``, refused when its interior is empty: no
    problem can be posed on it, and every exhaustion level inside it has
    an empty interior too."""
    dom = _quiet_domain(g, ids)
    _expect(dom.num_interior, "domain has an empty interior (every omega "
            "vertex is on its boundary); it cannot pose a problem")
    return dom


def run_bytes(steps, vertices, levels, oracle):
    """The bytes a heat or vi run of ``steps`` steps on a graph of
    ``vertices`` vertices holds, estimated: 8 per value of each
    (steps + 1) x V Rothe array, one per selected exhaustion level (the
    count ``levels``, None on a finite domain) plus the oracle study's
    reference when ``oracle``, and about 40 per value a trajectory file
    writes (an exhaustion writes each level's terminal row)."""
    rows = (steps + 1) * vertices
    written = levels * vertices if levels else rows * (1 + oracle)
    return 8 * rows * ((levels or 1) + oracle) + 40 * written


def load_config(path, overrides=None):
    """Read a run config and apply the command-line overrides, refusing
    one that the config's problem kind does not read; ``PreparedRun``
    checks the rest."""
    if not os.path.exists(path):
        raise IoError(f"config file {path} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, undecodable bytes, or an int too long to parse
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    _expect(isinstance(cfg, dict), "config must be a JSON object")
    problem = cfg.get("problem")
    kind = problem.get("kind") if isinstance(problem, dict) else None
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "output":
            cfg["output"] = value
            continue
        _expect(key == "compare_oracle" or not (
            kind == "spectral" or kind == "vi" and key == "p"),
            f"--{key} does not apply to kind {kind}")
        target = cfg.setdefault("problem", {})
        _expect(isinstance(target, dict), "problem must be an object")
        if key == "levels":
            target = target.setdefault("exhaustion", {})
            _expect(isinstance(target, dict), "exhaustion must be an object")
        elif key == "initial":
            value = {"file": value}
        _expect(key != "steps" or target.get("steps_list") is None,
                "problem.steps_list takes precedence over --steps; drop one")
        target[key] = value
    return cfg


class PreparedRun:
    """Everything a run needs, built fail-fast before any solve: pass 1
    checks the config's structure and keeps each value it checked, pass 2
    reads the files it names once they all exist. A block that the problem
    kind does not use is not opened."""

    def __init__(self, cfg):
        self._files = []
        self._check(cfg)
        for path in self._files:
            if not os.path.exists(path):
                raise IoError(f"referenced file {path} does not exist")
        self._build()

    def _file(self, path, what):
        _expect(isinstance(path, str), f"{what} must be a file name")
        self._files.append(path)
        return path

    def _field_spec(self, spec, what):
        _expect(isinstance(spec, dict)
                and (("file" in spec) ^ ("values" in spec)),
                f"{what} must give exactly one of 'file' or 'values'")
        if "file" in spec:
            self._file(spec["file"], f"{what}.file")
        else:
            _expect(isinstance(spec["values"], dict)
                    and all(_is_number(v) for v in spec["values"].values()),
                    f"{what}.values must map labels to finite numbers")
        return spec

    def _check(self, cfg):
        """Pass 1: the structure of ``cfg``, in a fixed order."""
        for key in ("graph", "domain", "problem", "output"):
            _expect(key in cfg, f"config is missing {key!r}")
        gspec = cfg["graph"]
        _expect(isinstance(gspec, dict) and (("file" in gspec)
                ^ ("generative" in gspec)),
                "graph must give exactly one of 'file' or 'generative'")
        self.generative = gspec.get("generative")
        dspec = cfg["domain"]
        if "generative" in gspec:
            _expect(isinstance(self.generative, str)
                    and self.generative in GENERATORS,
                    f"unknown generative graph {self.generative!r} "
                    f"(choose from {sorted(GENERATORS)})")
            _expect(dspec == "all", "generative graphs require domain 'all'")
            self.params = gspec.get("params", {})
            _expect(isinstance(self.params, dict),
                    "graph.params must be an object")
            for key, val in self.params.items():
                _expect(key in ("weight", "mu"),
                        f"unknown graph.params key {key!r} (choose from mu, "
                        f"weight)")
                _expect(_is_number(val) and val > 0,
                        f"graph.params.{key} must be a finite number > 0")
        else:
            self.graph_file = self._file(gspec["file"], "graph.file")
        _expect(dspec == "all" or (isinstance(dspec, dict)
                and ("file" in dspec) ^ ("omega" in dspec)
                and isinstance(dspec.get("omega", []), list)),
                "domain must be 'all', {'file': ...}, or {'omega': [...]}")
        if dspec != "all" and "file" in dspec:
            self._file(dspec["file"], "domain.file")
        elif dspec != "all":
            self.omega = [_label(s, "domain.omega entry")
                          for s in dspec["omega"]]
        self.domain_spec = dspec
        prob = cfg["problem"]
        _expect(isinstance(prob, dict), "problem must be an object")
        self.kind = prob.get("kind")
        _expect(self.kind in ("heat", "vi", "spectral"),
                "problem.kind must be one of heat, vi, spectral")
        if self.generative is not None:
            _expect(self.kind in ("heat", "vi")
                    and prob.get("exhaustion") is not None,
                    "generative graphs are used through problem.exhaustion "
                    "(heat or vi)")
        self.seeds = None
        if self.kind in ("heat", "vi"):
            self._check_evolution(prob)
        if self.kind == "heat":
            p = prob.get("p", 1.0)
            _expect(_is_number(p) and p >= 1.0,
                    f"problem.p must be a finite number >= 1, got {p!r}")
            self.p = float(p)
        if self.kind == "vi":
            self._check_vi(prob)
        if prob.get("compare_oracle") is True:
            _expect(self.kind == "heat" and self.seeds is None,
                    "problem.compare_oracle (or --compare-oracle) applies to "
                    "kind heat on a finite domain, not to " + (
                        "a heat exhaustion" if self.kind == "heat"
                        else f"kind {self.kind}"))
        tol = cfg.get("tolerances", {})
        _expect(isinstance(tol, dict), "tolerances must be an object")
        _expect("psor_relax" not in tol,
                "tolerances.psor_relax is no longer accepted: the obstacle "
                "solver is now the primal-dual active set method (PDAS), "
                "which takes no relaxation")
        for key, val in tol.items():
            _expect(key in ("newton_factor", "psor", "ode_oracle"),
                    f"unknown tolerance {key!r}")
            _expect(_is_number(val) and val > 0,
                    f"tolerance {key} must be positive")
        self.newton_factor = float(tol.get("newton_factor", 1e-12))
        self.kkt_tol = float(tol.get("psor", vi.KKT_TOL))
        self.ode_tol = float(tol.get("ode_oracle", 1e-10))
        self.output = cfg["output"]
        _expect(isinstance(self.output, str), "output must name a directory")

    def _check_evolution(self, prob):
        """The time grid, initial field and exhaustion of heat or vi."""
        horizon = prob.get("horizon")
        _expect(_is_number(horizon) and horizon > 0,
                "problem.horizon must be a finite number > 0")
        self.horizon = float(horizon)
        steps = prob.get("steps")
        steps_list = prob.get("steps_list")
        _expect(steps is not None or steps_list is not None,
                "problem needs steps or steps_list")
        if steps is not None:
            _expect(_is_int(steps) and steps >= 1,
                    "problem.steps must be an integer >= 1")
        if steps_list is not None:
            _expect(isinstance(steps_list, list) and steps_list
                    and all(_is_int(n) and n >= 1 for n in steps_list),
                    "problem.steps_list must be a list of integers >= 1")
        self.steps_list = sorted(set(steps_list or [steps]))
        self.steps = self.steps_list[-1]
        _expect("initial" in prob, "problem.initial is required")
        self.initial_spec = self._field_spec(prob["initial"],
                                             "problem.initial")
        exh = prob.get("exhaustion")
        if exh is not None:
            _expect(isinstance(exh, dict)
                    and isinstance(exh.get("seeds"), list) and exh["seeds"]
                    and isinstance(exh.get("levels"), list) and exh["levels"]
                    and all(_is_int(m) and m >= 1 for m in exh["levels"])
                    and exh["levels"] == sorted(set(exh["levels"])),
                    "exhaustion needs a list of seeds and a strictly "
                    "increasing list of integer levels")
            self.seeds = [_label(s, "exhaustion seed") for s in exh["seeds"]]
            self.levels = list(exh["levels"])
            if self.generative is not None:
                lattice = GENERATORS[self.generative]
                form = "an integer" if lattice.dim == 1 \
                    else 'a pair "i,j" of integers'
                for seed, label in zip(exh["seeds"], self.seeds):
                    _expect(lattice.is_vertex(label),
                            f"exhaustion seed {seed!r} is not a vertex of "
                            f"{self.generative}: a seed is {form}")
        self.compare_oracle = prob.get("compare_oracle", False)
        _expect(isinstance(self.compare_oracle, bool),
                "problem.compare_oracle must be true or false")

    def _check_vi(self, prob):
        """The forcing, constraint and Lipschitz bound of a vi."""
        fspec = prob.get("forcing")
        _expect(isinstance(fspec, dict)
                and fspec.get("kind") in ("constant", "separable", "table"),
                "problem.forcing.kind must be constant, separable, or table")
        self.forcing_kind = fspec["kind"]
        if self.forcing_kind in ("constant", "separable"):
            self.forcing_specs = [self._field_spec(fspec.get("field"),
                                                   "forcing.field")]
        if self.forcing_kind == "separable":
            _expect(isinstance(fspec.get("time"), str),
                    "separable forcing needs a 'time' expression")
            self.forcing_text = fspec["time"]
            self.forcing_time = compile_time_expression(self.forcing_text)
        if self.forcing_kind == "table":
            times = fspec.get("times")
            _expect(isinstance(times, list)
                    and all(_is_number(t) for t in times)
                    and isinstance(fspec.get("fields"), list)
                    and len(times) == len(fspec["fields"])
                    and fspec["fields"],
                    "table forcing needs parallel 'times' and 'fields'")
            self.forcing_times = [float(t) for t in times]
            self.forcing_specs = [self._field_spec(fs, "forcing.fields[]")
                                  for fs in fspec["fields"]]
        cspec = prob.get("constraint", {"kind": "subspace"})
        _expect(isinstance(cspec, dict)
                and cspec.get("kind") in ("subspace", "obstacle"),
                "constraint.kind must be subspace or obstacle")
        self.psi_spec = (self._field_spec(cspec.get("psi"), "constraint.psi")
                         if cspec["kind"] == "obstacle" else None)
        lb = prob.get("lipschitz_bound")
        _expect(lb is None or (_is_number(lb) and lb >= 0),
                "lipschitz_bound must be a nonnegative number")
        self.lipschitz_bound = lb

    def _build(self):
        """Pass 2: the graph, domain, exhaustion and fields."""
        self.exhaustion = None
        if self.generative is not None:
            self.exhaustion = exhaust_generative(
                GENERATORS[self.generative](**self.params), self.seeds,
                self.levels[-1])
            self.graph = self.exhaustion.graph
            self.domain = None
        else:
            self.graph = fileio.read_graph_file(self.graph_file)
            dspec = self.domain_spec
            if dspec == "all":
                ids = range(self.graph.num_vertices)
            elif "file" in dspec:
                ids = fileio.read_domain_file(self.graph, dspec["file"])
            else:
                ids = map(self.graph.vertex, self.omega)
            self.domain = _problem_domain(self.graph, ids)
            if self.seeds is not None:
                self.exhaustion = exhaust(
                    self.domain, list(map(self.graph.vertex, self.seeds)),
                    self.levels[-1])
        if self.kind in ("heat", "vi"):
            self.initial = self._field(self.initial_spec)
            if self.exhaustion is None:
                calculus.require_admissible(self.initial, self.domain,
                                            "problem.initial")
            # before a VI samples its forcing on the time grid
            vertices = self.graph.num_vertices
            need = run_bytes(self.steps, vertices, None if self.exhaustion
                             is None else len(self.levels),
                             self.compare_oracle)
            if need > MAX_RUN_BYTES:
                _fail(f"a run of {self.steps} steps on {vertices} vertices "
                      f"needs about {need} bytes of arrays and output text, "
                      f"more than the {MAX_RUN_BYTES} a run may hold")
        dense = self.kind == "spectral" or (self.compare_oracle
                                            and self.p == 1.0)
        if dense and self.domain.num_interior > spectral.MAX_DENSE_INTERIOR:
            _fail(f"a dense eigenbasis (kind spectral, p = 1 oracle study) "
                  f"of {self.domain.num_interior} interior vertices is "
                  f"above the limit of {spectral.MAX_DENSE_INTERIOR}")
        if self.kind == "vi":
            # the domain the run reads: the domain, or on an exhaustion the
            # largest level
            self.vi_domain = self.domain if self.exhaustion is None \
                else self.exhaustion.level(self.levels[-1])
            self.forcing = self._forcing()
            self.constraint = vi.Subspace() if self.psi_spec is None \
                else vi.Obstacle(self._field(self.psi_spec))

    def _field(self, spec):
        if "file" in spec:
            return fileio.read_field_file(self.graph, spec["file"])
        values = spec["values"]
        keys = {}
        for key in values:
            label = _label(key, "values key")
            _expect(keys.setdefault(label, key) == key,
                    f"values keys {keys[label]!r} and {key!r} name one "
                    f"vertex {label!r}")
        return VertexField.from_mapping(
            self.graph, {label: values[key] for label, key in keys.items()})

    def _forcing(self):
        fields = [self._field(spec) for spec in self.forcing_specs]
        ids = []
        if self.forcing_kind == "constant":
            forcing = vi.ConstantForcing(fields[0])
        elif self.forcing_kind == "separable":
            forcing = vi.SeparableForcing(fields[0], self.forcing_time)
            # float products round monotonically in |chi|, so the vertex
            # of largest |chi| that the run reads overflows first
            read = self.vi_domain.interior_ids
            if read.size:
                ids = read[[int(np.argmax(np.abs(fields[0].values[read])))]]
        else:
            forcing = vi.TableForcing(self.forcing_times, fields)
        # every grid time: refuses a table that misses one, and a time
        # expression that fails or is not finite at one or whose product
        # with the field overflows there
        times = heat.TimePartition(self.horizon, self.steps).times
        with np.errstate(over="ignore"):
            finite = np.isfinite(forcing.rows(times, ids)).all(axis=1)
        if not finite.all():
            _fail(f"time expression {self.forcing_text!r} fails at "
                  f"t = {float(times[np.argmin(finite)])}: its product "
                  f"with the forcing field overflows")
        return forcing

    def tolerances(self):
        return {"newton_factor": self.newton_factor,
                "psor": self.kkt_tol, "ode_oracle": self.ode_tol}


def _write_levels(results, outdir, diagnostics):
    """Terminal field of each exhaustion level and the levels table."""
    outputs = []
    l2_terminal = []
    for res in results:
        g = res.domain.graph
        terminal = res.run.values[-1]
        l2_terminal.append(math.sqrt(calculus.power_integral(
            g, terminal, res.domain.interior_ids, 2.0)))
        name = f"terminal_level_{res.level}.txt"
        fileio.write_field_file(VertexField(g, terminal),
                                os.path.join(outdir, name))
        outputs.append(name)
    deltas = [res.delta_prev for res in results]
    fileio.write_csv(os.path.join(outdir, "levels.csv"), {
        "m": [res.level for res in results],
        "interior_size": [res.domain.num_interior for res in results],
        "l2_terminal": l2_terminal, "delta_prev": deltas})
    outputs.append("levels.csv")
    # only the first level has no previous one
    diagnostics["level_deltas"] = deltas[1:]
    return outputs, diagnostics


def _write_run_tables(run, nb, energy, outdir):
    """``trajectory.csv`` and ``norms.csv`` of a run on a finite domain,
    from its NormBundle ``nb`` and its energy column."""
    times = run.partition.times
    fileio.write_trajectory_csv(os.path.join(outdir, "trajectory.csv"),
                                run.values, times, run.problem.domain.graph)
    fileio.write_csv(os.path.join(outdir, "norms.csv"), {
        "t": times, "l2_interior": nb.l2_interior, "grad_l2": nb.grad_l2,
        "lq": nb.lq, "energy": energy})


def _run_heat(prep, outdir):
    diagnostics = {}
    outputs = []
    if prep.exhaustion is not None:
        prob = heat.HeatProblem(prep.exhaustion, prep.p, prep.initial)
        part = heat.TimePartition(prep.horizon, prep.steps)
        results = heat.run_exhaustion(prob, part, levels=prep.levels,
                                      tol_factor=prep.newton_factor)
        return _write_levels(results, outdir, diagnostics)

    prob = heat.HeatProblem(prep.domain, prep.p, prep.initial)
    part = heat.TimePartition(prep.horizon, prep.steps)
    traj = heat.run_rothe(prob, part, tol_factor=prep.newton_factor)
    report = heat.monitor_estimates(traj)
    nb = report.norms
    _write_run_tables(traj, nb, report.energy, outdir)
    fileio.write_csv(os.path.join(outdir, "estimates.csv"), {
        "i": range(part.steps + 1), "l2": nb.l2_domain,
        "grad_l2": nb.grad_l2, "l2p": nb.lq, "delta_l2": report.delta_l2,
        "r_i": report.r, "d_i": report.d})
    outputs += ["trajectory.csv", "estimates.csv", "norms.csv"]
    diagnostics["max_energy_residual"] = report.max_r
    diagnostics["max_energy_defect"] = report.max_d

    if prep.compare_oracle:
        outputs.extend(_oracle_study(prep, prob, traj, outdir))
    return outputs, diagnostics


def _oracle_study(prep, prob, finest, outdir):
    """Error against the oracle for each n in ``steps_list``; ``finest``
    is the trajectory already solved for the largest n."""
    basis = None
    if prep.p == 1.0:
        basis = spectral.dirichlet_eigenbasis(prep.domain)
    ns = prep.steps_list
    ells, max_errs, end_errs = [], [], []
    for n in ns:
        if n == finest.partition.steps:
            traj, part = finest, finest.partition
        else:
            part = heat.TimePartition(prep.horizon, n)
            traj = heat.run_rothe(prob, part, tol_factor=prep.newton_factor)
        times = part.times
        if basis is not None:
            refs = spectral.exact_p1_solution(basis, prep.initial, times)
        else:
            refs = spectral.ode_oracle(prob, [float(t) for t in times],
                                       tol=prep.ode_tol)
        errs = calculus._l2_rows(prep.graph, traj.values - refs,
                                 prep.domain.interior_ids)
        ells.append(part.step_size)
        max_errs.append(float(errs.max()))
        end_errs.append(errs[-1])
    orders = [None] + [
        math.log(e0 / e1) / math.log(n1 / n0) if e0 > 0 and e1 > 0 else None
        for n0, n1, e0, e1 in zip(ns, ns[1:], max_errs, max_errs[1:])]
    fileio.write_csv(os.path.join(outdir, "oracle_error.csv"), {
        "n": ns, "ell": ells, "max_l2_error": max_errs,
        "endpoint_l2_error": end_errs, "observed_order": orders})
    # the reference itself, in the common trajectory schema (finest grid)
    fileio.write_trajectory_csv(os.path.join(outdir, "oracle_trajectory.csv"),
                                refs, times, prep.graph)
    return ["oracle_error.csv", "oracle_trajectory.csv"]


def _run_vi(prep, outdir):
    diagnostics = {}
    outputs = []
    part = heat.TimePartition(prep.horizon, prep.steps)
    opts = {"kkt_tol": prep.kkt_tol}

    sample = part.times[:: max(1, part.steps // 32)]
    lip = vi.lipschitz_validate(prep.forcing, sample, prep.vi_domain,
                                prep.lipschitz_bound)
    diagnostics["lipschitz"] = {
        "estimate": lip.estimate,
        "declared": lip.declared,
        "violated": lip.violated,
    }
    if prep.lipschitz_bound is None:
        print("warning: no declared Lipschitz bound for the forcing; "
              f"proceeding on the sampled estimate {lip.estimate:.6g}",
              file=sys.stderr)
    if lip.violated:
        diagnostics["convergence_claims"] = "downgraded: declared Lipschitz " \
            "bound exceeded by the sampled forcing"

    prob = vi.VIProblem(prep.exhaustion or prep.domain, prep.forcing,
                        prep.initial, prep.constraint)
    if prep.exhaustion is not None:
        results = vi.run_vi_exhaustion(prob, part, levels=prep.levels, **opts)
        return _write_levels(results, outdir, diagnostics)
    run = vi.run_vi(prob, part, **opts)
    nb = calculus.norms(prep.graph, run.values, prep.domain)
    mono = vi.vi_monotonicity_monitor(run)
    # squared on Python floats, as the heat monitor's energy
    _write_run_tables(run, nb, 0.5 * heat._squares(nb.grad_l2), outdir)
    idx = [rep.index for rep in run.reports]
    # then every field of VIStepReport after its index, in field order
    fileio.write_csv(os.path.join(outdir, "vi_reports.csv"), {
        "i": idx, "t": part.times[idx], "l2": nb.l2_interior[idx],
        "grad_l2": nb.grad_l2[idx], "delta_l2": mono.quotient_l2,
        **{f.name: [getattr(rep, f.name) for rep in run.reports]
           for f in dataclasses.fields(vi.VIStepReport)[1:]}})
    outputs += ["trajectory.csv", "vi_reports.csv", "norms.csv"]
    diagnostics["quotient_recurrence_max_slack"] = mono.max_slack
    diagnostics["quotient_bound"] = mono.cumulative_bound
    diagnostics["max_quotient_l2"] = mono.max_quotient
    return outputs, diagnostics


def _run_spectral(prep, outdir):
    basis = spectral.dirichlet_eigenbasis(prep.domain)
    outputs = []
    fileio.write_csv(os.path.join(outdir, "basis.csv"), {
        "j": range(1, basis.size + 1), "lambda": basis.eigenvalues})
    outputs.append("basis.csv")
    for j in range(basis.size):
        name = f"basis_field_{j + 1}.txt"
        phi = calculus.field_on_interior(prep.domain, basis.vectors[:, j])
        fileio.write_field_file(phi, os.path.join(outdir, name))
        outputs.append(name)
    gram = calculus.w12_gram(prep.graph, prep.domain, basis.vectors)
    diagnostics = {
        "max_eigen_residual": float(np.max(basis.residuals)),
        "max_orthonormality_defect":
            float(np.max(np.abs(gram - np.eye(basis.size)))),
        "nonpositive_modes": basis.has_nonpositive_modes,
    }
    return outputs, diagnostics


@contextlib.contextmanager
def _within_float64():
    """Data too large for float64 stop the command with a SolveError
    instead of printing numpy warnings and writing infinite norms."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise SolveError(f"{exc}: the data exceed the float64 range") \
            from None


def cmd_run(args):
    overrides = {"p": args.p, "horizon": args.horizon, "steps": args.steps,
                 "levels": (_list_option(args.levels, int,
                                         "--levels (integers)")
                            if args.levels else None),
                 "initial": args.initial, "output": args.output,
                 "compare_oracle": args.compare_oracle or None}
    cfg = load_config(args.config, overrides)
    prep = PreparedRun(cfg)
    outdir = prep.output
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {outdir}: {exc}") \
            from None
    try:
        with _within_float64():
            if prep.kind == "heat":
                outputs, diagnostics = _run_heat(prep, outdir)
            elif prep.kind == "vi":
                outputs, diagnostics = _run_vi(prep, outdir)
            else:
                outputs, diagnostics = _run_spectral(prep, outdir)
    except GraphrotheError as exc:
        if isinstance(exc, (ConfigError, IoError)):
            raise
        raise SolveError(str(exc)) from exc
    fileio.write_manifest(os.path.join(outdir, "manifest.json"), cfg,
                          prep.tolerances(), outdir, outputs, diagnostics)
    print(f"wrote {len(outputs) + 1} files to {outdir}")
    return 0


def cmd_validate_config(args):
    PreparedRun(load_config(args.config))
    print("config ok")
    return 0


def cmd_graph_info(args):
    g = fileio.read_graph_file(args.graph)
    with _within_float64():
        metrics = compute_metrics(g)
    info = {
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "mu0": metrics.mu0,
        "max_degree": metrics.max_degree,
        "dmu": metrics.dmu,
    }
    if args.domain:
        dom = _quiet_domain(g, fileio.read_domain_file(g, args.domain))
        info["omega_size"] = dom.omega_ids.size
        info["boundary_size"] = dom.boundary_ids.size
        info["interior_size"] = dom.num_interior
    print(json.dumps(info, sort_keys=True, indent=2))
    return 0


def _near(times, grid):
    """``near[k, i]``: ``times[k]`` is within 1e-12 of ``grid[i]``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.subtract.outer(np.asarray(times, dtype=float),
                                        np.asarray(grid, dtype=float))) \
            <= 1e-12


def cmd_compare(args):
    g = fileio.read_graph_file(args.graph)
    if args.domain:
        dom = _problem_domain(g, fileio.read_domain_file(g, args.domain))
    else:
        dom = _problem_domain(g, range(g.num_vertices))
    times_a, values_a = fileio.read_trajectory_csv(args.traj_a, g)
    times_b, values_b = fileio.read_trajectory_csv(args.traj_b, g)
    if args.times:
        wanted = _list_option(args.times, float, "--times (numbers)")
    else:
        on_b = _near(times_a, times_b).any(axis=1).tolist()
        wanted = [t for t, on in zip(times_a, on_b) if on]
    if not wanted:
        raise ConfigError(f"{args.traj_a} and {args.traj_b} have no time "
                          "in common to compare")
    near_a = _near(wanted, times_a)
    near_b = _near(wanted, times_b)
    on_both = near_a.any(axis=1) & near_b.any(axis=1)
    if not on_both.all():
        t = wanted[int(np.argmin(on_both))]
        raise ConfigError(f"time {t} is not on both trajectory grids")
    with _within_float64():
        # argmax takes each time's first step within 1e-12
        diff = values_a[near_a.argmax(axis=1)] \
            - values_b[near_b.argmax(axis=1)]
        l2s = calculus._l2_rows(g, diff, dom.interior_ids)
    table = {"t": wanted, "l2_diff": l2s,
             "sup_diff": np.max(np.abs(diff), axis=1, initial=0.0)}
    if args.output:
        fileio.write_csv(args.output, table)
    else:
        print(fileio.csv_text(table), end="")
    print(f"max_l2_diff {fileio.fmt(np.max(l2s, initial=0.0))}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    they leave ``main`` as one ``error[CONFIG]:`` line and exit code 2
    like every other bad input. Subcommand parsers are of this class
    too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="graphrothe",
        description="Heat flow and parabolic variational inequalities on "
                    "weighted graphs by Rothe time stepping.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="solve from a JSON config")
    runp.add_argument("config")
    runp.add_argument("--p", type=float, help="override problem.p")
    runp.add_argument("--horizon", type=float, help="override horizon T")
    runp.add_argument("--steps", type=int, help="override step count n")
    runp.add_argument("--levels", help="override exhaustion levels, e.g. "
                      "'5,10,15'")
    runp.add_argument("--initial", help="override initial field file")
    runp.add_argument("--compare-oracle", action="store_true",
                      help="emit error-vs-step-size table against the oracle")
    runp.add_argument("--output", help="override output directory")
    runp.set_defaults(func=cmd_run)

    valp = sub.add_parser("validate-config",
                          help="fail-fast validation without solving")
    valp.add_argument("config")
    valp.set_defaults(func=cmd_validate_config)

    infop = sub.add_parser("graph-info", help="graph structure and metrics")
    infop.add_argument("graph")
    infop.add_argument("--domain")
    infop.set_defaults(func=cmd_graph_info)

    cmpp = sub.add_parser("compare", help="difference two trajectory CSVs")
    cmpp.add_argument("traj_a")
    cmpp.add_argument("traj_b")
    cmpp.add_argument("--graph", required=True)
    cmpp.add_argument("--domain")
    cmpp.add_argument("--times", help="comma-separated times "
                      "(default: shared grid times)")
    cmpp.add_argument("--output", help="write the table to a CSV file")
    cmpp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error[CONFIG]: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 4
    except SolveError as exc:
        print(f"error[SOLVE]: {exc}", file=sys.stderr)
        return 3
    except GraphrotheError as exc:
        # anything raised while building inputs is a configuration problem
        print(f"error[CONFIG]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
