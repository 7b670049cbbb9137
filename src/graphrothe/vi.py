"""Rothe stepping for the parabolic variational inequality

    I(du/dt (v - u)) >= I((Laplacian u + f)(v - u))   for all admissible v,

with initial field g and zero exterior values. Each step solves the
elliptic inequality a(u, v-u) >= <F, v-u> with the coercive form
a(w, v) = (1/l) I(w v) + gradient energy; over the admissible subspace
this is exactly the SPD system (M/l + A) u = M (f_i + u_prev/l). The
obstacle-constrained admissible set {v >= psi on the interior} is an
extension beyond the subspace theory and is solved by projected SOR with
a pointwise complementarity (KKT) stopping test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels
from .calculus import VertexField, require_admissible
from .errors import (
    DomainMismatch,
    EmptyInterior,
    InsufficientSamples,
    NonConvergence,
    TimeOutOfRange,
)
from .graph import Domain, ExhaustionSequence
from .heat import TimePartition, _run_levels
from .operators import DIRECT_SOLVE_MAX, CachedSPD, DirichletOperator

PSOR_TOL = 1e-10
PSOR_MAX_SWEEPS = 50_000


# -- admissible-set descriptors ---------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Values free on the interior, zero outside."""


@dataclass(frozen=True)
class Obstacle:
    """Lower bound u >= psi on the interior (extension beyond the
    subspace case)."""

    psi: VertexField


# -- forcing providers -------------------------------------------------------

class ConstantForcing:
    """f(x, t) = chi(x)."""

    def __init__(self, field):
        self.graph = field.graph
        self._field = field

    def at(self, t):
        return self._field


class SeparableForcing:
    """f(x, t) = chi(x) * s(t) for a scalar function s."""

    def __init__(self, field, time_fn):
        self.graph = field.graph
        self._field = field
        self._time_fn = time_fn

    def at(self, t):
        return VertexField(self.graph,
                           self._field.values * float(self._time_fn(t)))


class TableForcing:
    """Fields tabulated at fixed times; ``at`` requires an exact grid hit."""

    def __init__(self, times, fields):
        if len(times) != len(fields) or not fields:
            raise ValueError("times and fields must align and be nonempty")
        self.graph = fields[0].graph
        self._times = [float(t) for t in times]
        self._fields = tuple(fields)

    def at(self, t):
        for tk, fk in zip(self._times, self._fields):
            if math.isclose(t, tk, rel_tol=0.0,
                            abs_tol=1e-9 * max(1.0, abs(tk))):
                return fk
        raise TimeOutOfRange(f"t = {t} is not a tabulated forcing time")


@dataclass(frozen=True)
class VIProblem:
    domain: object
    forcing: object
    initial: VertexField
    horizon: float
    lipschitz_bound: object = None
    constraint: object = Subspace()

    def __post_init__(self):
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.initial.graph is not self.domain.graph:
            raise DomainMismatch("initial field lives on a different graph")
        if self.forcing.graph is not self.domain.graph:
            raise DomainMismatch("forcing lives on a different graph")
        if isinstance(self.domain, Domain):
            if not self.domain.interior:
                raise EmptyInterior("problem domain has empty interior")
            require_admissible(self.initial, self.domain, "initial field")


@dataclass(frozen=True)
class VIStepReport:
    """One elliptic step: solution, quotient, and residual diagnostics.

    ``variational_residual`` is sup |S u - b| in the subspace case and the
    sup of the pointwise complementarity function min(r, u - psi) in the
    obstacle case; primal/dual/complementarity are the KKT residuals
    (zero by convention in the subspace case). ``beta`` is the coercivity
    constant min(1/l, 1) of the step form.
    """

    index: int
    u: VertexField
    quotient: VertexField
    variational_residual: float
    primal_residual: float
    dual_residual: float
    complementarity: float
    beta: float
    sweeps: int


class ViStepper:
    """Step solver with the form assembled (and, in the subspace case,
    factorized) once for a fixed step size."""

    def __init__(self, dom, ell, constraint=Subspace(),
                 psor_relax=1.0, psor_tol=PSOR_TOL,
                 psor_max_sweeps=PSOR_MAX_SWEEPS,
                 direct_threshold=DIRECT_SOLVE_MAX):
        if not (ell > 0.0):
            raise ValueError(f"step size must be positive, got {ell}")
        self.op = DirichletOperator(dom)
        self.ell = float(ell)
        self.constraint = constraint
        self.beta = min(1.0 / self.ell, 1.0)
        self.relax = float(psor_relax)
        self.tol = float(psor_tol)
        self.max_sweeps = int(psor_max_sweeps)
        S = (self.op.stiffness
             + sp.diags(self.op.mass / self.ell)).tocsr()
        S.sort_indices()
        self.S = S
        if isinstance(constraint, Subspace):
            self._solver = CachedSPD(S, direct_threshold)
        elif isinstance(constraint, Obstacle):
            if constraint.psi.graph is not dom.graph:
                raise DomainMismatch("obstacle lives on a different graph")
            # Python lists: the sweep's fast path (see kernels)
            self._indptr = S.indptr.tolist()
            self._indices = S.indices.tolist()
            self._data = S.data.tolist()
            self._diag = S.diagonal().tolist()
            self._lower = constraint.psi.values[self.op.interior_ids]
            self._lower_list = self._lower.tolist()
        else:
            raise TypeError(f"unknown constraint {constraint!r}")

    def step(self, index, u_prev, f_field):
        w_prev = self.op.restrict(u_prev)
        f_int = self.op.restrict(f_field) if isinstance(f_field, VertexField) \
            else np.asarray(f_field, dtype=float)
        b = self.op.mass * (f_int + w_prev / self.ell)
        scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
        if isinstance(self.constraint, Subspace):
            w = self._solver.solve(b)
            res = float(np.max(np.abs(self.S @ w - b), initial=0.0))
            # a refinement round if rounding left the residual above target
            if res > 1e-12 * scale:
                w = w - self._solver.solve(self.S @ w - b)
                res = float(np.max(np.abs(self.S @ w - b), initial=0.0))
            report = (res, 0.0, 0.0, 0.0, 0)
        else:
            w, report = self._psor(b, w_prev, scale)
        u = self.op.extend(w)
        dq = self.op.extend((w - w_prev) / self.ell)
        var, primal, dual, compl, sweeps = report
        return VIStepReport(index, u, dq, var, primal, dual, compl,
                            self.beta, sweeps)

    def _psor(self, b, w_start, scale):
        ul = np.maximum(w_start, self._lower).tolist()
        bl = b.tolist()
        for sweep in range(1, self.max_sweeps + 1):
            kernels.psor_sweep(self._indptr, self._indices, self._data,
                               self._diag, bl, self._lower_list, ul,
                               self.relax)
            u = np.array(ul)
            r = self.S @ u - b
            gap = u - self._lower
            primal = max(0.0, float(np.max(-gap, initial=0.0)))
            dual = max(0.0, float(np.max(-r, initial=0.0)))
            compl = float(np.max(np.abs(r * gap), initial=0.0))
            uscale = 1.0 + float(np.max(np.abs(gap), initial=0.0))
            if dual <= self.tol * scale and compl <= self.tol * scale * uscale:
                var = float(np.max(np.abs(np.minimum(r, gap)), initial=0.0))
                return u, (var, primal, dual, compl, sweep)
        raise NonConvergence(
            f"projected SOR did not meet tol {self.tol:g} in "
            f"{self.max_sweeps} sweeps")


def vi_step(dom, u_prev, f_i, ell, constraint=Subspace(), **opts):
    """One elliptic VI step (one-shot; run_vi caches the assembly)."""
    require_admissible(u_prev, dom, "u_prev")
    return ViStepper(dom, ell, constraint, **opts).step(1, u_prev, f_i)


@dataclass(frozen=True)
class VIRun:
    problem: VIProblem
    partition: TimePartition
    fields: tuple
    reports: tuple
    operator: DirichletOperator

    @property
    def quotients(self):
        return tuple(r.quotient for r in self.reports)


def run_vi(prob, part, **opts):
    """Rothe sequence for the VI on a finite domain: u_0 = g and
    u_i from the step inequality with forcing sampled at f(., t_i)."""
    if not isinstance(prob.domain, Domain):
        raise TypeError("run_vi needs a finite Domain; "
                        "use run_vi_exhaustion for exhaustion targets")
    stepper = ViStepper(prob.domain, part.step_size, prob.constraint, **opts)
    fields = [stepper.op.extend(stepper.op.restrict(prob.initial))]
    reports = []
    times = part.times
    for i in range(1, part.steps + 1):
        rep = stepper.step(i, fields[-1], prob.forcing.at(float(times[i])))
        fields.append(rep.u)
        reports.append(rep)
    return VIRun(prob, part, tuple(fields), tuple(reports), stepper.op)


def forcing_step_function(prob, part, t):
    """The piecewise-constant forcing reconstruction: f(., t_i) on
    (t_{i-1}, t_i], and f(., t_0) on [-l, 0]."""
    ell = part.step_size
    if t < -ell - 1e-14 * part.horizon or t > part.horizon:
        raise TimeOutOfRange(f"t = {t} outside [{-ell}, {part.horizon}]")
    if t <= 0.0:
        return prob.forcing.at(0.0)
    i = min(max(int(math.ceil(t / ell - 1e-12)), 1), part.steps)
    return prob.forcing.at(float(part.times[i]))


# -- validation and monitors -------------------------------------------------

@dataclass(frozen=True)
class LipschitzReport:
    estimate: float
    declared: object
    violated: bool
    worst_pair: tuple


def lipschitz_validate(forcing, time_samples, dom, c_declared=None):
    """Largest sampled quotient |f(., t) - f(., s)|_{L2(interior)} / |t - s|;
    flags a declared constant exceeded by more than 1 percent."""
    times = sorted(set(float(t) for t in time_samples))
    if len(times) < 2:
        raise InsufficientSamples("need at least two distinct sample times")
    g = dom.graph
    ids = dom.interior_ids
    mu = g.mu[ids]
    vals = [forcing.at(t).values[ids] for t in times]
    best = 0.0
    worst = (times[0], times[1])
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            diff = vals[b] - vals[a]
            q = math.sqrt(float(np.dot(mu * diff, diff))) \
                / (times[b] - times[a])
            if q > best:
                best = q
                worst = (times[a], times[b])
    violated = c_declared is not None and best > 1.01 * float(c_declared)
    return LipschitzReport(best, c_declared, violated, worst)


@dataclass(frozen=True)
class QuotientRow:
    index: int
    quotient_l2: float
    forcing_increment_l2: float
    recurrence_slack: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-triple check of |delta u_j| <= |delta u_{j-1}| + |f_j - f_{j-1}|
    plus the cumulative bound |delta u_i| <= |Laplacian g| + |f(., 0)| +
    c_grid * T with the grid-sampled forcing increment rate c_grid."""

    rows: tuple
    cumulative_bound: float
    grid_rate: float

    @property
    def max_slack(self):
        return max((r.recurrence_slack for r in self.rows if r.index >= 2),
                   default=0.0)

    @property
    def max_quotient(self):
        return max((r.quotient_l2 for r in self.rows), default=0.0)


def vi_monotonicity_monitor(run):
    prob = run.problem
    op = run.operator
    times = run.partition.times
    ell = run.partition.step_size
    f_vals = [op.restrict(prob.forcing.at(float(t))) for t in times]
    q_norms = [op.l2(op.restrict(q)) for q in run.quotients]
    rows = []
    for j in range(1, len(q_norms) + 1):
        finc = op.l2(f_vals[j] - f_vals[j - 1])
        slack = (q_norms[j - 1] - q_norms[j - 2] - finc
                 if j >= 2 else math.nan)
        rows.append(QuotientRow(j, q_norms[j - 1], finc, slack))
    grid_rate = max((r.forcing_increment_l2 / ell for r in rows), default=0.0)
    lap_g = op.l2(op.neg_laplacian(op.restrict(prob.initial)))
    bound = lap_g + op.l2(f_vals[0]) + grid_rate * run.partition.horizon
    return MonotonicityReport(tuple(rows), bound, grid_rate)


def run_vi_exhaustion(prob, part, levels=None, **opts):
    """Per-level VI runs with terminal deltas on the smaller level, with
    g and psi restricted per level and forcing read on level interiors."""
    if not isinstance(prob.domain, ExhaustionSequence):
        raise TypeError("run_vi_exhaustion needs an ExhaustionSequence domain")
    return _run_levels(prob, part, levels, run_vi, **opts)
