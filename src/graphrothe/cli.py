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
    GraphMismatch,
    GraphrotheError,
    IoError,
    SolveError,
)
from .graph import GENERATORS, compute_metrics, exhaust, exhaust_generative, \
    make_domain
from .timeexpr import compile_time_expression


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
    _expect(dom.interior, "domain has an empty interior (every omega "
            "vertex is on its boundary); it cannot pose a problem")
    return dom


def load_config(path, overrides=None):
    """Read, override, and structurally validate a run config."""
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
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "output":
            cfg["output"] = value
        elif key == "levels":
            prob = cfg.setdefault("problem", {})
            prob.setdefault("exhaustion", {})["levels"] = value
        elif key == "initial":
            cfg.setdefault("problem", {})["initial"] = {"file": value}
        else:
            cfg.setdefault("problem", {})[key] = value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    for key in ("graph", "domain", "problem", "output"):
        _expect(key in cfg, f"config is missing {key!r}")
    gspec = cfg["graph"]
    _expect(isinstance(gspec, dict) and (("file" in gspec)
            ^ ("generative" in gspec)),
            "graph must give exactly one of 'file' or 'generative'")
    if "generative" in gspec:
        _expect(isinstance(gspec["generative"], str)
                and gspec["generative"] in GENERATORS,
                f"unknown generative graph {gspec['generative']!r} "
                f"(choose from {sorted(GENERATORS)})")
        _expect(cfg["domain"] == "all",
                "generative graphs require domain 'all'")
        params = gspec.get("params", {})
        _expect(isinstance(params, dict), "graph.params must be an object")
        for key, val in params.items():
            _expect(key in ("weight", "mu"),
                    f"unknown graph.params key {key!r} (choose from mu, "
                    f"weight)")
            _expect(_is_number(val) and val > 0,
                    f"graph.params.{key} must be a finite number > 0")
    dspec = cfg["domain"]
    _expect(dspec == "all" or (isinstance(dspec, dict)
            and (("file" in dspec) ^ ("omega" in dspec))),
            "domain must be 'all', {'file': ...}, or {'omega': [...]}")
    prob = cfg["problem"]
    _expect(isinstance(prob, dict), "problem must be an object")
    kind = prob.get("kind")
    _expect(kind in ("heat", "vi", "spectral"),
            "problem.kind must be one of heat, vi, spectral")
    if "generative" in gspec:
        _expect(kind in ("heat", "vi") and "exhaustion" in prob,
                "generative graphs are used through problem.exhaustion "
                "(heat or vi)")
    if kind in ("heat", "vi"):
        _expect(_is_number(prob.get("horizon")) and prob["horizon"] > 0,
                "problem.horizon must be a finite number > 0")
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
        _expect("initial" in prob, "problem.initial is required")
        _validate_field_spec(prob["initial"], "problem.initial")
        exh = prob.get("exhaustion")
        if exh is not None:
            _expect(isinstance(exh, dict)
                    and isinstance(exh.get("seeds"), list) and exh["seeds"]
                    and isinstance(exh.get("levels"), list)
                    and all(_is_int(m) and m >= 1 for m in exh["levels"])
                    and exh["levels"] == sorted(set(exh["levels"])),
                    "exhaustion needs a list of seeds and a strictly "
                    "increasing list of integer levels")
            if "generative" in gspec:
                _validate_lattice_seeds(gspec["generative"], exh["seeds"])
    if kind == "heat":
        p = prob.get("p", 1.0)
        _expect(_is_number(p) and p >= 1.0,
                f"problem.p must be a finite number >= 1, got {p!r}")
    if kind == "vi":
        fspec = prob.get("forcing")
        _expect(isinstance(fspec, dict)
                and fspec.get("kind") in ("constant", "separable", "table"),
                "problem.forcing.kind must be constant, separable, or table")
        if fspec["kind"] in ("constant", "separable"):
            _validate_field_spec(fspec.get("field"), "forcing.field")
        if fspec["kind"] == "separable":
            _expect(isinstance(fspec.get("time"), str),
                    "separable forcing needs a 'time' expression")
            compile_time_expression(fspec["time"])
        if fspec["kind"] == "table":
            _expect(isinstance(fspec.get("times"), list)
                    and isinstance(fspec.get("fields"), list)
                    and len(fspec["times"]) == len(fspec["fields"])
                    and fspec["fields"],
                    "table forcing needs parallel 'times' and 'fields'")
            for fs in fspec["fields"]:
                _validate_field_spec(fs, "forcing.fields[]")
        cspec = prob.get("constraint", {"kind": "subspace"})
        _expect(isinstance(cspec, dict)
                and cspec.get("kind") in ("subspace", "obstacle"),
                "constraint.kind must be subspace or obstacle")
        if cspec.get("kind") == "obstacle":
            _validate_field_spec(cspec.get("psi"), "constraint.psi")
        lb = prob.get("lipschitz_bound")
        _expect(lb is None or (_is_number(lb) and lb >= 0),
                "lipschitz_bound must be a nonnegative number")
    tol = cfg.get("tolerances", {})
    _expect(isinstance(tol, dict), "tolerances must be an object")
    _expect("psor_relax" not in tol,
            "tolerances.psor_relax is no longer accepted: the obstacle "
            "solver is now the primal-dual active set method (PDAS), which "
            "takes no relaxation")
    for key, val in tol.items():
        _expect(key in ("newton_factor", "psor", "ode_oracle"),
                f"unknown tolerance {key!r}")
        _expect(_is_number(val) and val > 0,
                f"tolerance {key} must be positive")


def _validate_lattice_seeds(name, seeds):
    lattice = GENERATORS[name]
    form = "an integer" if lattice.dim == 1 else 'a pair "i,j" of integers'
    for seed in seeds:
        _expect(lattice.is_vertex(fileio.parse_label(str(seed))),
                f"exhaustion seed {seed!r} is not a vertex of {name}: a "
                f"seed is {form}")


def _validate_field_spec(spec, what):
    _expect(isinstance(spec, dict) and (("file" in spec) ^ ("values" in spec)),
            f"{what} must give exactly one of 'file' or 'values'")
    if "values" in spec:
        _expect(isinstance(spec["values"], dict)
                and all(_is_number(v) for v in spec["values"].values()),
                f"{what}.values must map labels to finite numbers")


def _referenced_files(cfg):
    files = []
    if "file" in cfg["graph"]:
        files.append(cfg["graph"]["file"])
    if isinstance(cfg["domain"], dict) and "file" in cfg["domain"]:
        files.append(cfg["domain"]["file"])
    prob = cfg["problem"]

    def field_file(spec):
        if isinstance(spec, dict) and "file" in spec:
            files.append(spec["file"])

    field_file(prob.get("initial"))
    fspec = prob.get("forcing")
    if isinstance(fspec, dict):
        field_file(fspec.get("field"))
        for fs in fspec.get("fields", []):
            field_file(fs)
    cspec = prob.get("constraint")
    if isinstance(cspec, dict):
        field_file(cspec.get("psi"))
    return files


class PreparedRun:
    """Everything a run needs, built fail-fast before any solve."""

    def __init__(self, cfg):
        self.cfg = cfg
        prob = cfg["problem"]
        self.kind = prob["kind"]
        tol = cfg.get("tolerances", {})
        self.newton_factor = float(tol.get("newton_factor", 1e-12))
        self.kkt_tol = float(tol.get("psor", vi.KKT_TOL))
        self.ode_tol = float(tol.get("ode_oracle", 1e-10))

        for path in _referenced_files(cfg):
            if not os.path.exists(path):
                raise IoError(f"referenced file {path} does not exist")

        gspec = cfg["graph"]
        self.exhaustion = None
        if "generative" in gspec:
            oracle = GENERATORS[gspec["generative"]](
                **gspec.get("params", {}))
            exh_spec = prob["exhaustion"]
            seeds = [fileio.parse_label(str(s)) for s in exh_spec["seeds"]]
            self.exhaustion = exhaust_generative(
                oracle, seeds, max(exh_spec["levels"]))
            self.levels = list(exh_spec["levels"])
            self.graph = self.exhaustion.graph
            self.domain = None
        else:
            self.graph = fileio.read_graph_file(gspec["file"])
            dspec = cfg["domain"]
            if dspec == "all":
                ids = range(self.graph.num_vertices)
            elif "file" in dspec:
                ids = fileio.read_domain_file(self.graph, dspec["file"])
            else:
                ids = (self.graph.vertex(fileio.parse_label(str(s)))
                       for s in dspec["omega"])
            self.domain = _problem_domain(self.graph, ids)
            exh_spec = prob.get("exhaustion")
            if exh_spec is not None:
                seeds = [self.graph.vertex(fileio.parse_label(str(s)))
                         for s in exh_spec["seeds"]]
                self.exhaustion = exhaust(self.domain, seeds,
                                          max(exh_spec["levels"]))
                self.levels = list(exh_spec["levels"])

        if self.kind in ("heat", "vi"):
            self.horizon = float(prob["horizon"])
            self.steps_list = sorted(set(prob.get("steps_list")
                                         or [prob["steps"]]))
            self.steps = self.steps_list[-1]
            self.initial = self._field(prob["initial"])
            if self.exhaustion is None:
                self._refuse_exterior_initial()
            self.compare_oracle = bool(prob.get("compare_oracle", False))
        if self.kind == "heat":
            self.p = float(prob.get("p", 1.0))
        dense = self.kind == "spectral" or (
            self.kind == "heat" and self.compare_oracle and self.p == 1.0
            and self.exhaustion is None)
        if dense and self.domain.num_interior > spectral.MAX_DENSE_INTERIOR:
            _fail(f"a dense eigenbasis (kind spectral, p = 1 oracle study) "
                  f"of {self.domain.num_interior} interior vertices is "
                  f"above the limit of {spectral.MAX_DENSE_INTERIOR}")
        if self.kind == "vi":
            self.forcing = self._forcing(prob["forcing"])
            cspec = prob.get("constraint", {"kind": "subspace"})
            if cspec["kind"] == "subspace":
                self.constraint = vi.Subspace()
            else:
                self.constraint = vi.Obstacle(self._field(cspec["psi"]))
            self.lipschitz_bound = prob.get("lipschitz_bound")

    def _refuse_exterior_initial(self):
        """An initial field must vanish outside the domain interior; an
        exhaustion restricts it to each level instead."""
        outside = np.ones(self.graph.num_vertices, dtype=bool)
        outside[self.domain.interior_ids] = False
        nonzero = np.flatnonzero(outside & (self.initial.values != 0.0))
        if nonzero.size:
            i = int(nonzero[0])
            _fail(f"problem.initial must vanish outside the domain "
                  f"interior, but it is {float(self.initial.values[i])!r} at "
                  f"vertex {self.graph.label_of(i)!r}")

    def _field(self, spec):
        if "file" in spec:
            return fileio.read_field_file(self.graph, spec["file"])
        mapping = {}
        keys = {}
        for key, value in spec["values"].items():
            label = fileio.parse_label(str(key))
            if label in keys:
                _fail(f"values keys {keys[label]!r} and {key!r} name one "
                      f"vertex {label!r}")
            keys[label] = key
            mapping[label] = float(value)
        return VertexField.from_mapping(self.graph, mapping)

    def _forcing(self, spec):
        if spec["kind"] == "constant":
            return vi.ConstantForcing(self._field(spec["field"]))
        if spec["kind"] == "separable":
            return vi.SeparableForcing(
                self._field(spec["field"]),
                compile_time_expression(spec["time"]))
        fields = [self._field(fs) for fs in spec["fields"]]
        forcing = vi.TableForcing([float(t) for t in spec["times"]], fields)
        part = heat.TimePartition(self.horizon, self.steps)
        for t in part.times:
            forcing.at(float(t))
        return forcing

    def tolerances(self):
        return {"newton_factor": self.newton_factor,
                "psor": self.kkt_tol, "ode_oracle": self.ode_tol}


def _estimate_rows(report):
    for row in report.rows:
        yield (row.index, row.l2, row.grad_l2, row.l2p,
               None if math.isnan(row.delta_l2) else row.delta_l2,
               None if math.isnan(row.r) else row.r,
               None if math.isnan(row.d) else row.d)


def _write_levels(results, outdir, diagnostics):
    """Terminal field of each exhaustion level and the levels table."""
    outputs = []
    rows = []
    for res in results:
        g = res.domain.graph
        terminal = res.run.values[-1]
        l2_terminal = math.sqrt(calculus.power_integral(
            g, terminal, res.domain.interior_ids, 2.0))
        rows.append((res.level, res.domain.num_interior, l2_terminal,
                     res.delta_prev))
        name = f"terminal_level_{res.level}.txt"
        fileio.write_field_file(VertexField(g, terminal),
                                os.path.join(outdir, name))
        outputs.append(name)
    fileio.write_csv(os.path.join(outdir, "levels.csv"),
                     ("m", "interior_size", "l2_terminal", "delta_prev"),
                     rows)
    outputs.append("levels.csv")
    diagnostics["level_deltas"] = [r.delta_prev for r in results
                                   if r.delta_prev is not None]
    return outputs, diagnostics


def _run_heat(prep, outdir):
    diagnostics = {}
    outputs = []
    if prep.exhaustion is not None:
        prob = heat.HeatProblem(prep.exhaustion, prep.p, prep.initial,
                                prep.horizon)
        part = heat.TimePartition(prep.horizon, prep.steps)
        results = heat.run_exhaustion(prob, part, levels=prep.levels,
                                      tol_factor=prep.newton_factor)
        return _write_levels(results, outdir, diagnostics)

    prob = heat.HeatProblem(prep.domain, prep.p, prep.initial, prep.horizon)
    part = heat.TimePartition(prep.horizon, prep.steps)
    traj = heat.run_rothe(prob, part, tol_factor=prep.newton_factor)
    g = prep.graph
    fileio.write_trajectory_csv(os.path.join(outdir, "trajectory.csv"),
                                traj.values, part.times, g)
    report = heat.monitor_estimates(traj)
    fileio.write_csv(os.path.join(outdir, "estimates.csv"),
                     ("i", "l2", "grad_l2", "l2p", "delta_l2", "r_i", "d_i"),
                     _estimate_rows(report))
    fileio.write_csv(os.path.join(outdir, "norms.csv"),
                     ("t", "l2_interior", "grad_l2", "lq", "energy"),
                     ((float(t), row.l2_interior, row.grad_l2, row.l2p,
                       row.energy)
                      for t, row in zip(part.times, report.rows)))
    outputs += ["trajectory.csv", "estimates.csv", "norms.csv"]
    diagnostics["max_energy_residual"] = report.max_r
    diagnostics["max_energy_defect"] = report.max_d

    if prep.compare_oracle:
        outputs.extend(_oracle_study(prep, prob, traj, outdir))
    return outputs, diagnostics


def _oracle_study(prep, prob, finest, outdir):
    """Error against the oracle for each n in ``steps_list``; ``finest``
    is the trajectory already solved for the largest n."""
    op = prep.domain.operator
    basis = None
    if prep.p == 1.0:
        basis = spectral.dirichlet_eigenbasis(prep.domain)
    rows = []
    prev = None
    for n in prep.steps_list:
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
        errs = [op.l2(diff) for diff in op.restrict_rows(traj.values - refs)]
        err = max(errs)
        order = None
        if prev is not None:
            prev_n, prev_err = prev
            if err > 0 and prev_err > 0:
                order = math.log(prev_err / err) / math.log(n / prev_n)
        rows.append((n, part.step_size, err, errs[-1], order))
        prev = (n, err)
    fileio.write_csv(os.path.join(outdir, "oracle_error.csv"),
                     ("n", "ell", "max_l2_error", "endpoint_l2_error",
                      "observed_order"), rows)
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
    dom_for_lip = (prep.exhaustion.level(max(prep.levels))
                   if prep.exhaustion is not None else prep.domain)
    lip = vi.lipschitz_validate(prep.forcing, sample, dom_for_lip,
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

    if prep.exhaustion is not None:
        prob = vi.VIProblem(prep.exhaustion, prep.forcing, prep.initial,
                            prep.horizon, prep.lipschitz_bound,
                            prep.constraint)
        results = vi.run_vi_exhaustion(prob, part, levels=prep.levels, **opts)
        return _write_levels(results, outdir, diagnostics)

    prob = vi.VIProblem(prep.domain, prep.forcing, prep.initial,
                        prep.horizon, prep.lipschitz_bound, prep.constraint)
    run = vi.run_vi(prob, part, **opts)
    g = prep.graph
    fileio.write_trajectory_csv(os.path.join(outdir, "trajectory.csv"),
                                run.values, part.times, g)
    dom = prep.domain
    bundles = calculus.norms(g, run.values, dom)
    delta_sqs = calculus.power_integral(g, run.quotients, dom.interior_ids,
                                        2.0).tolist()
    rows = []
    for rep, delta_sq in zip(run.reports, delta_sqs):
        nb = bundles[rep.index]
        rows.append((rep.index, float(part.times[rep.index]),
                     nb.l2_interior, nb.grad_l2, math.sqrt(delta_sq),
                     rep.variational_residual, rep.primal_residual,
                     rep.dual_residual, rep.complementarity, rep.beta,
                     rep.iterations))
    fileio.write_csv(os.path.join(outdir, "vi_reports.csv"),
                     ("i", "t", "l2", "grad_l2", "delta_l2",
                      "variational_residual", "primal_residual",
                      "dual_residual", "complementarity", "beta",
                      "iterations"),
                     rows)
    fileio.write_csv(os.path.join(outdir, "norms.csv"),
                     ("t", "l2_interior", "grad_l2", "lq", "energy"),
                     ((float(t), nb.l2_interior, nb.grad_l2, nb.lq,
                       0.5 * nb.grad_l2 ** 2)
                      for t, nb in zip(part.times, bundles)))
    outputs += ["trajectory.csv", "vi_reports.csv", "norms.csv"]
    mono = vi.vi_monotonicity_monitor(run)
    diagnostics["quotient_recurrence_max_slack"] = mono.max_slack
    diagnostics["quotient_bound"] = mono.cumulative_bound
    diagnostics["max_quotient_l2"] = mono.max_quotient
    return outputs, diagnostics


def _run_spectral(prep, outdir):
    basis = spectral.dirichlet_eigenbasis(prep.domain)
    outputs = []
    fileio.write_csv(os.path.join(outdir, "basis.csv"), ("j", "lambda"),
                     ((j + 1, float(lam))
                      for j, lam in enumerate(basis.eigenvalues)))
    outputs.append("basis.csv")
    for j, phi in enumerate(basis.fields):
        name = f"basis_field_{j + 1}.txt"
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


def cmd_run(args):
    overrides = {"p": args.p, "horizon": args.horizon, "steps": args.steps,
                 "levels": (_list_option(args.levels, int,
                                         "--levels (integers)")
                            if args.levels else None),
                 "initial": args.initial, "output": args.output}
    if args.compare_oracle:
        overrides["compare_oracle"] = True
    cfg = load_config(args.config, overrides)
    prep = PreparedRun(cfg)
    outdir = cfg["output"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {outdir}: {exc}") \
            from None
    try:
        # data too large for float64 stop the run instead of printing
        # numpy warnings and writing infinite norms
        with np.errstate(over="raise", invalid="raise"):
            if prep.kind == "heat":
                outputs, diagnostics = _run_heat(prep, outdir)
            elif prep.kind == "vi":
                outputs, diagnostics = _run_vi(prep, outdir)
            else:
                outputs, diagnostics = _run_spectral(prep, outdir)
    except FloatingPointError as exc:
        raise SolveError(f"{exc}: the data exceed the float64 range") \
            from None
    except GraphrotheError as exc:
        if isinstance(exc, (ConfigError, IoError)):
            raise
        raise SolveError(str(exc)) from exc
    fileio.write_manifest(os.path.join(outdir, "manifest.json"), cfg,
                          prep.tolerances(), outdir, outputs, diagnostics)
    print(f"wrote {len(outputs) + 1} files to {outdir}")
    return 0


def cmd_validate_config(args):
    cfg = load_config(args.config)
    PreparedRun(cfg)
    print("config ok")
    return 0


def cmd_graph_info(args):
    g = fileio.read_graph_file(args.graph)
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
        info["omega_size"] = len(dom.omega)
        info["boundary_size"] = len(dom.boundary)
        info["interior_size"] = len(dom.interior)
    print(json.dumps(info, sort_keys=True, indent=2))
    return 0


def _step_values(g, steps, name):
    """The steps of a trajectory as one array, a row per step with its
    values in vertex order; refuses a step whose vertices are not the
    graph's."""
    labels = set(g.labels)
    if any(step.keys() != labels for step in steps):
        raise GraphMismatch(
            f"{name}: trajectory vertices do not match the graph")
    values = [list(map(step.__getitem__, g.labels)) for step in steps]
    return np.array(values, dtype=float).reshape(len(steps), g.num_vertices)


def cmd_compare(args):
    g = fileio.read_graph_file(args.graph)
    if args.domain:
        dom = _problem_domain(g, fileio.read_domain_file(g, args.domain))
    else:
        dom = _problem_domain(g, range(g.num_vertices))
    times_a, steps_a = fileio.read_trajectory_csv(args.traj_a)
    times_b, steps_b = fileio.read_trajectory_csv(args.traj_b)
    values_a = _step_values(g, steps_a, args.traj_a)
    values_b = _step_values(g, steps_b, args.traj_b)
    if args.times:
        wanted = _list_option(args.times, float, "--times (numbers)")
    else:
        wanted = [t for t in times_a
                  if any(math.isclose(t, s, rel_tol=0.0, abs_tol=1e-12)
                         for s in times_b)]
    if not wanted:
        raise ConfigError(f"{args.traj_a} and {args.traj_b} have no time "
                          "in common to compare")

    def step_at(times, t):
        for i, ti in enumerate(times):
            if math.isclose(t, ti, rel_tol=0.0, abs_tol=1e-12):
                return i
        raise ConfigError(f"time {t} is not on both trajectory grids")

    op = dom.operator
    rows = []
    max_l2 = 0.0
    for t in wanted:
        diff = (values_a[step_at(times_a, t)]
                - values_b[step_at(times_b, t)])
        l2 = op.l2(diff[op.interior_ids])
        sup = float(np.max(np.abs(diff), initial=0.0))
        rows.append((t, l2, sup))
        max_l2 = max(max_l2, l2)
    if args.output:
        fileio.write_csv(args.output, ("t", "l2_diff", "sup_diff"), rows)
    else:
        print("t,l2_diff,sup_diff")
        for t, l2, sup in rows:
            print(f"{fileio.fmt(t)},{fileio.fmt(l2)},{fileio.fmt(sup)}")
    print(f"max_l2_diff {fileio.fmt(max_l2)}")
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
