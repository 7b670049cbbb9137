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
Each inactive block of S is factored by banded Cholesky in S's reverse
Cuthill-McKee order restricted to the block, its band cut from S's
upper-triangle entries by one mask, and a block's factor is reused while
the inactive set repeats.

``ViStepper.step`` maps interior vectors to interior vectors and a
report of scalar diagnostics; ``run_vi`` fills the run's (steps + 1) x V
array row by row through the step loop it shares with ``heat.run_rothe``,
so a ``VIRun`` is a ``heat.RotheTrajectory`` plus its step reports.

Each forcing provider samples f in one call, ``rows(times, ids)``: a
read-only array with f(., t) on the vertex ids ``ids`` in the row of each
time t. ``run_vi``, the monitor and ``lipschitz_validate`` each make one
such call per run, and step i reads row i, f(., t_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import VertexField, _l2_rows, _read_only, \
    field_on_interior, require_admissible
from .errors import (
    AmbiguousTable,
    DomainMismatch,
    EmptyInterior,
    InsufficientSamples,
    NonConvergence,
    TimeOutOfRange,
)
from .graph import Domain, ExhaustionSequence
from .heat import RotheTrajectory, _run_levels, _step_rows
from .operators import CachedSPD, PrincipalBlocks, spmv

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
    """f(x, t) = chi(x); its rows are views of one vector."""

    def __init__(self, field):
        self.graph = field.graph
        self._field = field

    def rows(self, times, ids):
        chi = self._field.values[ids]
        return np.broadcast_to(chi, (len(times), chi.size))


class SeparableForcing:
    """f(x, t) = chi(x) * s(t) for a scalar function s, called once per
    time."""

    def __init__(self, field, time_fn):
        self.graph = field.graph
        self._field = field
        self._time_fn = time_fn

    def rows(self, times, ids):
        s = [float(self._time_fn(float(t))) for t in times]
        values = np.multiply.outer(np.array(s, float), self._field.values[ids])
        values.setflags(write=False)
        return values


class TableForcing:
    """Fields tabulated at fixed times t_k; a time t reads the field of the
    t_k with |t - t_k| <= 1e-9 max(1, |t_k|). A table in which one time
    is that close to two t_k is refused."""

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=float)
        if times.shape != (len(fields),) or not fields \
                or not np.all(np.isfinite(times)):
            raise ValueError("times and fields must align, be finite and "
                             "be nonempty")
        self.graph = fields[0].graph
        order = np.argsort(times)
        self._times = times[order]
        self._tol = 1e-9 * np.maximum(1.0, np.abs(self._times))
        close = np.diff(self._times) <= self._tol[:-1] + self._tol[1:]
        if close.any():
            a, b = self._times[np.argmax(close):][:2].tolist()
            raise AmbiguousTable(
                f"tabulated forcing times {a} and {b} lie within "
                f"1e-9 * max(1, |t|) of one time, which would match both "
                f"fields")
        self._values = np.array([fields[k].values for k in order])

    def rows(self, times, ids):
        times = np.asarray(times, dtype=float)
        tk, tol = self._times, self._tol
        above = np.minimum(np.searchsorted(tk, times), tk.size - 1)
        below = np.maximum(above - 1, 0)
        k = np.where(np.abs(times - tk[below]) <= tol[below], below, above)
        miss = np.abs(times - tk[k]) > tol[k]
        if miss.any():
            t = times[np.argmax(miss)]
            raise TimeOutOfRange(f"t = {t} is not a tabulated forcing time")
        values = self._values[:, ids][k]
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class VIProblem:
    """Problem data: domain (a finite Domain or an ExhaustionSequence),
    forcing provider, initial field g and admissible set; the horizon is
    the TimePartition's."""

    domain: object
    forcing: object
    initial: VertexField
    constraint: object = Subspace()

    def __post_init__(self):
        if self.initial.graph is not self.domain.graph:
            raise DomainMismatch("initial field lives on a different graph")
        if self.forcing.graph is not self.domain.graph:
            raise DomainMismatch("forcing lives on a different graph")
        if isinstance(self.domain, Domain):
            if not self.domain.num_interior:
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
    factorized) once for a fixed step size. In the obstacle case the
    stepper keeps the ``PrincipalBlocks`` of its matrix, so a factor
    outlives the step that built it."""

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
            self._blocks = PrincipalBlocks(S)
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
            res = float(np.max(np.abs(spmv(self.S, w) - b), initial=0.0))
            # a refinement round if rounding left the residual above target
            if res > 1e-12 * scale:
                w = w - self._solver.solve(spmv(self.S, w) - b)
                res = float(np.max(np.abs(spmv(self.S, w) - b), initial=0.0))
            report = (res, 0.0, 0.0, 0.0, 0)
        else:
            w, report = self._obstacle(b, w_prev, scale)
        var, primal, dual, compl, iterations = report
        return w, VIStepReport(index, var, primal, dual, compl, self.beta,
                               iterations)

    def _obstacle(self, b, w_start, scale):
        """The active-set solution, accepted only if its KKT residuals
        meet the tolerance."""
        u, r, iterations = active_set_solve(self._blocks, b, self._lower,
                                            w_start)
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


def active_set_solve(blocks, b, lower, u_start):
    """The complementarity problem S u >= b, u >= lower,
    (S u - b)(u - lower) = 0 by the primal-dual active set method
    (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002), with S the
    matrix of the ``PrincipalBlocks`` ``blocks``; returns
    (u, S u - b, iterations).

    Each iteration fixes u = lower on the active set A, solves the
    inactive rows I of S u = b with the factor of S[I][:, I] (its band
    cut by one mask, and reused while I repeats, across steps too) and
    takes the multiplier lam = S u - b on A, 0 on I. The next active set is
    {lam - c (u - lower) > 0} with c the diagonal of S, which puts lam
    in the units of u. As u equals lower on A and lam vanishes on I, c
    only shapes the first set, built from u = max(u_start, lower). For
    an M-matrix S the sets settle after finitely many iterations; more
    than n + 1 raise NonConvergence.
    """
    S = blocks.S
    c = blocks.diagonal
    u = np.maximum(u_start, lower)
    lam = np.maximum(spmv(S, u) - b, 0.0)
    active = lam - c * (u - lower) > 0.0
    for iteration in range(1, lower.size + 2):
        u = np.where(active, lower, 0.0)
        inactive = ~active
        if inactive.any():
            rhs = b[inactive] - spmv(S, u)[inactive]
            u[inactive] = blocks.solver(inactive).solve(rhs)
        r = spmv(S, u) - b
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
    return field_on_interior(dom, w), report


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
    f = prob.forcing.rows(part.times, stepper.op.interior_ids)
    reports = []

    def step(i, w):
        w, report = stepper.step(i, w, f[i])
        reports.append(report)
        return w

    values = _step_rows(prob, part, step)
    return VIRun(prob, part, values, tuple(reports))


def forcing_step_function(prob, part, t):
    """The piecewise-constant forcing reconstruction: f(., t_i) on
    (t_{i-1}, t_i], and f(., t_0) on [-l, 0], with i picked by
    ``TimePartition.step_index`` as for the step interpolant."""
    i = part.step_index(t)
    g = prob.domain.graph
    return VertexField(g, prob.forcing.rows(part.times[i:i + 1],
                                            np.arange(g.num_vertices))[0])


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
    vals = np.zeros((len(times), g.num_vertices))
    vals[:, ids] = forcing.rows(times, ids)
    grid = np.array(times)
    best = 0.0
    worst = (times[0], times[1])
    for a in range(len(times) - 1):
        qs = _l2_rows(g, vals[a + 1:] - vals[a], ids) / (grid[a + 1:]
                                                          - times[a])
        # the first largest quotient of this row, as a strict > keeps
        b = int(np.argmax(qs))
        if qs[b] > best:
            best, worst = float(qs[b]), (times[a], times[a + 1 + b])
    violated = c_declared is not None and best > 1.01 * float(c_declared)
    return LipschitzReport(best, c_declared, violated, worst)


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Per-triple check of |delta u_j| <= |delta u_{j-1}| + |f_j - f_{j-1}|
    plus the cumulative bound |delta u_i| <= |Laplacian g| + |f(., 0)| +
    c_grid * T with the grid-sampled forcing increment rate c_grid. For an
    obstacle run whose g lies below psi at an interior vertex that bound
    fails at the first step, and the cumulative bound is |delta u_1| +
    c_grid * T, the sum of the triples from j = 2 on.

    ``quotient_l2``, ``forcing_increment_l2`` and ``recurrence_slack`` are
    read-only arrays with entry j - 1 for step j = 1..n: |delta u_j|,
    |f_j - f_{j-1}| and |delta u_j| - |delta u_{j-1}| - |f_j - f_{j-1}|
    (NaN at j = 1)."""

    quotient_l2: np.ndarray
    forcing_increment_l2: np.ndarray
    recurrence_slack: np.ndarray
    cumulative_bound: float
    grid_rate: float

    @property
    def max_slack(self):
        """The largest slack over j >= 2, which may be negative; 0.0 for a
        one-step run."""
        return max(self.recurrence_slack[1:].tolist(), default=0.0)

    @property
    def max_quotient(self):
        return max(self.quotient_l2.tolist(), default=0.0)


def vi_monotonicity_monitor(run):
    """Quotient norms and cumulative bound of a VI run, from one ordered
    reduction over the quotients, forcing increments, f(., 0) and -Lap g."""
    prob = run.problem
    dom = prob.domain
    op = dom.operator
    n = run.partition.steps
    ell = run.partition.step_size
    f_vals = prob.forcing.rows(run.partition.times, op.interior_ids)
    g = op.restrict(prob.initial)
    norms = _l2_rows(dom.graph, np.vstack((run.quotients, op.extend_rows(
        np.vstack((np.diff(f_vals, axis=0), f_vals[0],
                   op.neg_laplacian(g)))))), dom.interior_ids)
    q, finc = norms[:n], norms[n:2 * n]
    slack = np.concatenate(([math.nan], q[1:] - q[:-1] - finc[1:]))
    grid_rate = max((finc / ell).tolist(), default=0.0)
    below_psi = isinstance(prob.constraint, Obstacle) and bool(
        np.any(g < op.restrict(prob.constraint.psi)))
    start = q[0] if below_psi else norms[-1] + norms[-2]
    bound = float(start + grid_rate * run.partition.horizon)
    return MonotonicityReport(*map(_read_only, (q, finc, slack)), bound,
                              grid_rate)


def run_vi_exhaustion(prob, part, levels=None, **opts):
    """Per-level VI runs with terminal deltas on the smaller level, with
    g and psi restricted per level and forcing read on level interiors."""
    if not isinstance(prob.domain, ExhaustionSequence):
        raise TypeError("run_vi_exhaustion needs an ExhaustionSequence domain")
    return _run_levels(prob, part, levels,
                       lambda sub, part, start, **o: run_vi(sub, part, **o),
                       **opts)
