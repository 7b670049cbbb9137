"""Rothe stepping for the parabolic variational inequality

    I(du/dt (v - u)) >= I((Laplacian u + f)(v - u))   for all admissible v,

with initial field g and zero exterior values. Each step solves the
elliptic inequality a(u, v-u) >= <F, v-u> with the coercive form
a(w, v) = (1/l) I(w v) + gradient energy; over the admissible subspace
this is exactly the SPD system (M/l + A) u = M (f_i + u_prev/l). The
obstacle-constrained admissible set {v >= psi on the interior} is an
extension beyond the subspace theory. Its step is the complementarity
problem S u >= b, u >= psi, (S u - b)(u - psi) = 0, solved by the
primal-dual active set method and accepted by a pointwise KKT test.

``ViStepper.step`` maps interior vectors to interior vectors and a
report of scalar diagnostics; ``run_vi`` fills the run's (steps + 1) x V
array row by row through the step loop it shares with ``heat.run_rothe``,
so a ``VIRun`` is a ``heat.RotheTrajectory`` plus its step reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import VertexField, require_admissible
from .errors import (
    DomainMismatch,
    EmptyInterior,
    InsufficientSamples,
    NonConvergence,
    TimeOutOfRange,
)
from .graph import Domain, ExhaustionSequence
from .heat import RotheTrajectory, _run_levels, _step_rows
from .operators import CachedSPD

KKT_TOL = 1e-10


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
    """Residual diagnostics of one elliptic step; its solution and
    quotient are rows of the run's ``values`` and ``quotients``.

    ``variational_residual`` is sup |S u - b| in the subspace case and the
    sup of the pointwise complementarity function min(r, u - psi) in the
    obstacle case; primal/dual/complementarity are the KKT residuals
    (zero by convention in the subspace case). ``beta`` is the coercivity
    constant min(1/l, 1) of the step form.
    """

    index: int
    variational_residual: float
    primal_residual: float
    dual_residual: float
    complementarity: float
    beta: float
    iterations: int


class ViStepper:
    """Step solver with the form assembled (and, in the subspace case,
    factorized) once for a fixed step size."""

    def __init__(self, dom, ell, constraint=Subspace(), kkt_tol=KKT_TOL):
        if not (ell > 0.0):
            raise ValueError(f"step size must be positive, got {ell}")
        self.op = dom.operator
        self.ell = float(ell)
        self.constraint = constraint
        self.beta = min(1.0 / self.ell, 1.0)
        self.tol = float(kkt_tol)
        S = self.S = self.op.step_matrix(self.ell)
        if isinstance(constraint, Subspace):
            self._solver = CachedSPD(S)
        elif isinstance(constraint, Obstacle):
            if constraint.psi.graph is not dom.graph:
                raise DomainMismatch("obstacle lives on a different graph")
            self._lower = constraint.psi.values[self.op.interior_ids]
        else:
            raise TypeError(f"unknown constraint {constraint!r}")

    def step(self, index, w_prev, f):
        """Step ``index`` from the interior vector ``w_prev`` with the
        interior forcing values ``f``: the interior solution and its
        VIStepReport."""
        b = self.op.mass * (f + w_prev / self.ell)
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
            w, report = self._obstacle(b, w_prev, scale)
        var, primal, dual, compl, iterations = report
        return w, VIStepReport(index, var, primal, dual, compl, self.beta,
                               iterations)

    def _obstacle(self, b, w_start, scale):
        """The active-set solution, accepted only if its KKT residuals
        meet the tolerance."""
        u, r, iterations = active_set_solve(self.S, b, self._lower, w_start)
        gap = u - self._lower
        primal = max(0.0, float(np.max(-gap, initial=0.0)))
        dual = max(0.0, float(np.max(-r, initial=0.0)))
        compl = float(np.max(np.abs(r * gap), initial=0.0))
        uscale = 1.0 + float(np.max(np.abs(gap), initial=0.0))
        if dual <= self.tol * scale and compl <= self.tol * scale * uscale:
            var = float(np.max(np.abs(np.minimum(r, gap)), initial=0.0))
            return u, (var, primal, dual, compl, iterations)
        raise NonConvergence(
            f"obstacle step missed the KKT tolerance {self.tol:g}: dual "
            f"residual {dual:.3g}, complementarity {compl:.3g}")


def active_set_solve(S, b, lower, u_start):
    """The complementarity problem S u >= b, u >= lower,
    (S u - b)(u - lower) = 0 by the primal-dual active set method
    (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002); returns
    (u, S u - b, iterations).

    Each iteration fixes u = lower on the active set A, solves the
    inactive rows I of S u = b by ``CachedSPD`` and takes the multiplier
    lam = S u - b on A, 0 on I. The next active set is
    {lam - c (u - lower) > 0} with c the diagonal of S, which puts lam
    in the units of u. As u equals lower on A and lam vanishes on I, c
    only shapes the first set, built from u = max(u_start, lower). For
    an M-matrix S the sets settle after finitely many iterations; more
    than n + 1 raise NonConvergence.
    """
    c = S.diagonal()
    u = np.maximum(u_start, lower)
    lam = np.maximum(S @ u - b, 0.0)
    active = lam - c * (u - lower) > 0.0
    for iteration in range(1, lower.size + 2):
        u = np.where(active, lower, 0.0)
        free = np.flatnonzero(~active)
        if free.size:
            rhs = b[free] - (S @ u)[free]
            u[free] = CachedSPD(S[free][:, free]).solve(rhs)
        r = S @ u - b
        lam = np.where(active, r, 0.0)
        settled = lam - c * (u - lower) > 0.0
        if np.array_equal(settled, active):
            return u, r, iteration
        active = settled
    raise NonConvergence(
        f"primal-dual active set did not settle in {lower.size + 1} "
        f"iterations")


def vi_step(dom, u_prev, f_i, ell, constraint=Subspace(), **opts):
    """One elliptic VI step (one-shot; run_vi caches the assembly): the
    solution field and its VIStepReport."""
    require_admissible(u_prev, dom, "u_prev")
    stepper = ViStepper(dom, ell, constraint, **opts)
    op = stepper.op
    w, report = stepper.step(1, op.restrict(u_prev), op.restrict(f_i))
    return op.extend(w), report


@dataclass(frozen=True, eq=False)
class VIRun(RotheTrajectory):
    """A VI run: its Rothe sequence as a RotheTrajectory, plus the report
    of each step i = 1..n."""

    reports: tuple


def run_vi(prob, part, **opts):
    """Rothe sequence for the VI on a finite domain: u_0 = g and
    u_i from the step inequality with forcing sampled at f(., t_i)."""
    if not isinstance(prob.domain, Domain):
        raise TypeError("run_vi needs a finite Domain; "
                        "use run_vi_exhaustion for exhaustion targets")
    stepper = ViStepper(prob.domain, part.step_size, prob.constraint, **opts)
    op = stepper.op
    times = part.times
    reports = []

    def step(i, w):
        w, report = stepper.step(
            i, w, op.restrict(prob.forcing.at(float(times[i]))))
        reports.append(report)
        return w

    values = _step_rows(prob, part, step)
    return VIRun(prob, part, values, tuple(reports))


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
    op = prob.domain.operator
    times = run.partition.times
    ell = run.partition.step_size
    f_vals = [op.restrict(prob.forcing.at(float(t))) for t in times]
    q_norms = [op.l2(q) for q in op.restrict_rows(run.quotients)]
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
