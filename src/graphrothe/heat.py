"""Rothe time stepping for the semilinear heat flow

    du/dt + |u|^(p-1) u = Laplacian u   on the domain interior,
    u = 0 outside the interior,         u(., 0) = h,

with p >= 1. Each step minimizes the strictly convex functional

    F(u) = (1/l) I(u^2) - (2/l) I(u_prev u) + 2/(p+1) I(|u|^(p+1)) + E(u),

where I integrates over the interior and E is the gradient energy over
Omega; the minimizer solves (u - u_prev)/l + |u|^(p-1) u = Laplacian u.
For p = 1 this is one SPD solve; for p > 1 a damped (semismooth) Newton
iteration with an Armijo line search on F. Its Jacobian is
J = S0 + diag(mu p |w|^(p-1)) with S0 = A + M/l, so S0^{-1} J has its
spectrum in [1, 1 + l max p|w|^(p-1)]: each Newton system is solved by
``operators.pcg`` preconditioned with one factorization of S0, made once
per stepper, and refactored at the current Jacobian only when a solve
needs more than NEWTON_PCG_MAX_ITER iterations (stiff data). Every
matrix A + diag(d) and every solver comes from ``operators``; its sparse
LU orders and pivots symmetrically, as all these matrices are SPD.
Newton is inexact: system k is solved to the relative residual eta_k
that Eisenstat and Walker's choice 2 sets from the decrease of the
Newton residual G (SIAM J. Sci. Comput. 17, 1996), so systems far from
the minimizer take few CG iterations; the step still ends only when
max|G/mass| <= tol. Outside CG, each Newton iteration computes one
stiffness product A w, plus one per Armijo backtrack: the accepted trial
hands its A w and its value of F on to the next iteration.

A run holds its Rothe sequence as one read-only (steps + 1) x V array,
a row per step, filled row by row by the step loop that ``run_rothe``
and ``vi.run_vi`` share; the steppers work on interior vectors, and the
monitors, the level deltas and the writers read the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import calculus, kernels, operators
from .calculus import VertexField, field_on_interior, require_admissible
from .errors import (
    DomainMismatch,
    EmptyInterior,
    NonConvergence,
    SolverBreakdown,
    TimeOutOfRange,
)
from .graph import Domain, ExhaustionSequence
from .operators import CG_RTOL, CachedSPD, pcg

NEWTON_TOL_FACTOR = 1e-12
NEWTON_MAX_ITER = 100
NEWTON_PCG_MAX_ITER = 15
# Eisenstat-Walker choice 2 forcing terms: Newton system k is solved to the
# relative residual eta_k = GAMMA (|G_k| / |G_k-1|)^ALPHA, eta_0 = ETA0,
# within [CG_RTOL, MAX]
FORCING_ETA0 = 0.1
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2.0
FORCING_MAX = 0.5
POWER_DERIV_FLOOR = 1e-12


@dataclass(frozen=True)
class TimePartition:
    """Equidistant grid t_i = T * (i/n), i = 0..n."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0) or not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def step_size(self):
        return self.horizon / self.steps

    @property
    def times(self):
        return self.horizon * (np.arange(self.steps + 1) / self.steps)


@dataclass(frozen=True)
class HeatProblem:
    """Problem data: domain (a finite Domain, or an ExhaustionSequence for
    unbounded targets), exponent p >= 1, initial field h, horizon T."""

    domain: object
    p: float
    initial: VertexField
    horizon: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.initial.graph is not self.domain.graph:
            raise DomainMismatch("initial field lives on a different graph")
        if isinstance(self.domain, Domain):
            if not self.domain.interior:
                raise EmptyInterior("problem domain has empty interior")
            require_admissible(self.initial, self.domain, "initial field")


@dataclass(frozen=True, eq=False)
class RotheTrajectory:
    """The Rothe sequence u_{n,0}, ..., u_{n,n} on one finite domain.

    ``values`` is one read-only (steps + 1) x V array: row i holds u_{n,i}
    on every vertex of the graph, in vertex id order. It is copied from
    the array given, and a non-finite entry refuses the whole run, with
    the error of a non-finite ``VertexField``."""

    problem: object
    partition: TimePartition
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        shape = (self.partition.steps + 1,
                 self.problem.domain.graph.num_vertices)
        if values.shape != shape:
            raise ValueError(f"expected {shape} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def fields(self):
        """The steps as VertexFields, built on each read."""
        g = self.problem.domain.graph
        return tuple(VertexField(g, row) for row in self.values)

    @property
    def quotients(self):
        """Difference quotients (u_i - u_{i-1}) / l for i = 1..n, one row
        each."""
        return np.diff(self.values, axis=0) / self.partition.step_size


def _power(w, p):
    return np.abs(w) ** (p - 1.0) * w if p != 1.0 else w


def _functional(mass, w, Aw, u_prev, p, ell):
    """F at the interior vector ``w``, with ``Aw`` its stiffness product,
    given the previous interior vector; +inf when the power term
    overflows."""
    sq = float(np.dot(mass * w, w))
    cross = float(np.dot(mass * u_prev, w))
    with np.errstate(over="ignore"):
        powr = float(np.dot(mass, np.abs(w) ** (p + 1.0)))
    grad = float(np.dot(w, Aw))
    return (sq / ell - 2.0 * cross / ell
            + 2.0 / (p + 1.0) * powr + grad)


def _require_finite(x, what, p):
    if not np.all(np.isfinite(x)):
        raise SolverBreakdown(
            f"Newton {what} is not finite at p = {p:g} (overflow)")


def _forcing(eta_prev, g_norm, g_norm_prev):
    """Relative residual for the next Newton system from the decrease of
    Newton's own residual, with Eisenstat and Walker's safeguard against
    a sudden drop of the forcing term."""
    if eta_prev is None:
        return FORCING_ETA0
    ratio = g_norm / g_norm_prev if g_norm < g_norm_prev else 1.0
    eta = FORCING_GAMMA * ratio ** FORCING_ALPHA
    guard = FORCING_GAMMA * eta_prev ** FORCING_ALPHA
    if guard > 0.1:
        eta = max(eta, guard)
    return max(min(eta, FORCING_MAX), CG_RTOL)


def step_functional(u, u_prev, prob, ell):
    """Value of the per-step functional F at ``u``."""
    dom = prob.domain
    if u.graph is not dom.graph or u_prev.graph is not dom.graph:
        raise DomainMismatch("fields live on a different graph")
    require_admissible(u, dom, "u")
    require_admissible(u_prev, dom, "u_prev")
    op = dom.operator
    w = op.restrict(u)
    return _functional(op.mass, w, op.stiffness @ w, op.restrict(u_prev),
                       float(prob.p), ell)


class _HeatStepper:
    """Per-step solver on the domain's shared operator for a fixed step
    size. For p = 1 it factors A + M(1 + 1/l) once. For p > 1 it keeps
    the Newton preconditioner, initially the factor of S0 = A + M/l;
    above ``operators.DIRECT_SOLVE_MAX`` unknowns it keeps none, and each
    Newton system is one Jacobi-PCG solve of ``CachedSPD``."""

    def __init__(self, prob, ell, tol_factor=NEWTON_TOL_FACTOR):
        self.op = prob.domain.operator
        self.p = float(prob.p)
        self.ell = float(ell)
        self.tol_factor = tol_factor
        self.mass = self.op.mass
        self.A = self.op.stiffness
        self._linear = self._pre = None
        if self.p == 1.0:
            self._linear = CachedSPD(
                self.op.shifted(self.mass * (1.0 + 1.0 / self.ell)))
        elif self.op.n <= operators.DIRECT_SOLVE_MAX:
            self._pre = CachedSPD(self.op.step_matrix(self.ell))

    def _grad_half(self, w, Aw, u_prev):
        """Half the functional gradient: mass*((w-u_prev)/l + |w|^(p-1) w)
        + A w, with ``Aw`` = A w; the pointwise Euler-Lagrange residual is
        this over mass."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.mass * ((w - u_prev) / self.ell + _power(w, self.p))
                    + Aw)

    def _newton_direction(self, jd, b, eta):
        """Solve (A + diag(jd)) s = b to the relative residual ``eta`` by
        ``pcg`` preconditioned with the factored ``_pre``. A solve that
        reaches NEWTON_PCG_MAX_ITER iterations replaces ``_pre`` by the
        factor of this Jacobian, solves with it and keeps it for the later
        systems."""
        s = pcg(lambda d: self.A @ d + jd * d, b, self._pre.solve, eta,
                NEWTON_PCG_MAX_ITER)
        if s is None:
            self._pre = CachedSPD(self.op.shifted(jd))
            s = self._pre.solve(b)
        return s

    def solve(self, u_prev, x0=None):
        """Interior minimizer of F given the previous interior vector."""
        tol = self.tol_factor * (1.0 + float(np.max(np.abs(u_prev),
                                                    initial=0.0)))
        if self.p == 1.0:
            rhs = self.mass * u_prev / self.ell
            w = self._linear.solve(rhs)
            # at most three refinement rounds bring the residual to
            # rounding level
            for _ in range(3):
                G = self._grad_half(w, self.A @ w, u_prev)
                if float(np.max(np.abs(G / self.mass), initial=0.0)) <= tol:
                    break
                w = w - self._linear.solve(G)
            return w
        p = self.p
        w = u_prev.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
        # A w and F(w) of the iterate; an accepted Armijo trial hands on
        # both, a full step below the noise of F only its product
        Aw = self.A @ w
        fw = None
        eta = g_norm = None
        for _ in range(NEWTON_MAX_ITER):
            G = self._grad_half(w, Aw, u_prev)
            _require_finite(G, "gradient", p)
            if float(np.max(np.abs(G / self.mass), initial=0.0)) <= tol:
                return w
            g_norm_prev, g_norm = g_norm, float(np.linalg.norm(G))
            eta = _forcing(eta, g_norm, g_norm_prev)
            with np.errstate(over="ignore"):
                jd = self.mass * (1.0 / self.ell + p * np.maximum(
                    np.abs(w), POWER_DERIV_FLOOR) ** (p - 1.0))
            _require_finite(jd, "Jacobian", p)
            if self._pre is None:
                s = CachedSPD(self.op.shifted(jd)).solve(-G)
            else:
                s = self._newton_direction(jd, -G, eta)
            if fw is None:
                fw = _functional(self.mass, w, Aw, u_prev, p, self.ell)
            slope = 2.0 * float(np.dot(G, s))
            # Armijo only while the predicted decrease is measurable above
            # the rounding noise of F; near the minimum the full (damped)
            # Newton step is safe by strict convexity.
            if abs(slope) > 1e-13 * (1.0 + abs(fw)):
                alpha = 1.0
                while True:
                    w_new = w + alpha * s
                    Aw = self.A @ w_new
                    f_new = _functional(self.mass, w_new, Aw, u_prev, p,
                                        self.ell)
                    if not (f_new > fw + 1e-4 * alpha * slope
                            and alpha > 1e-14):
                        break
                    alpha *= 0.5
                w, fw = w_new, f_new
            else:
                w = w + s
                Aw = self.A @ w
                fw = None
        raise NonConvergence(
            f"Newton did not reach residual {tol:g} in {NEWTON_MAX_ITER} "
            f"iterations")


def solve_step(u_prev, prob, ell, x0=None, **opts):
    """One Rothe step from ``u_prev`` (admissible field) with step size l.

    ``x0`` optionally overrides the initial Newton iterate (the default is
    u_prev); the minimizer is unique, so the result must not depend on it.
    """
    dom = prob.domain
    if u_prev.graph is not dom.graph:
        raise DomainMismatch("u_prev lives on a different graph")
    require_admissible(u_prev, dom, "u_prev")
    if not (ell > 0.0):
        raise ValueError(f"step size must be positive, got {ell}")
    stepper = _HeatStepper(prob, ell, **opts)
    w0 = None if x0 is None else stepper.op.restrict(x0)
    w = stepper.solve(stepper.op.restrict(u_prev), x0=w0)
    return stepper.op.extend(w)


def _step_rows(prob, part, step):
    """The Rothe sequence of ``prob`` on ``part`` as one (steps + 1) x V
    array, filled row by row: row 0 holds the initial field and row i the
    zero extension of ``step(i, w)``, the interior vector of u_i computed
    from w, that of u_{i-1}."""
    op = prob.domain.operator
    values = np.zeros((part.steps + 1, prob.domain.graph.num_vertices))
    w = op.restrict(prob.initial)
    values[0, op.interior_ids] = w
    for i in range(1, part.steps + 1):
        w = step(i, w)
        values[i, op.interior_ids] = w
    return values


def run_rothe(prob, part, **opts):
    """Full Rothe sequence on a finite domain."""
    if not isinstance(prob.domain, Domain):
        raise TypeError("run_rothe needs a finite Domain; "
                        "use run_exhaustion for exhaustion targets")
    stepper = _HeatStepper(prob, part.step_size, **opts)
    return RotheTrajectory(
        prob, part, _step_rows(prob, part, lambda i, w: stepper.solve(w)))


def evaluate_interpolant(traj, t, kind="linear"):
    """Piecewise-linear Rothe interpolant, or the piecewise-constant step
    reconstruction (which also extends to t in [-l, 0] with the initial
    field)."""
    part = traj.partition
    ell = part.step_size
    n = part.steps
    grid = part.times
    idx = int(np.searchsorted(grid, t))
    if idx <= n and math.isclose(t, grid[idx] if idx <= n else 0.0,
                                 rel_tol=0.0, abs_tol=1e-14 * part.horizon):
        exact = idx
    elif idx >= 1 and math.isclose(t, grid[idx - 1], rel_tol=0.0,
                                   abs_tol=1e-14 * part.horizon):
        exact = idx - 1
    else:
        exact = None
    g = traj.problem.domain.graph
    values = traj.values
    if kind == "linear":
        if t < 0.0 or t > part.horizon:
            raise TimeOutOfRange(f"t = {t} outside [0, {part.horizon}]")
        if exact is not None:
            return VertexField(g, values[exact])
        i = min(max(idx, 1), n)
        return VertexField(g, values[i - 1]
                           + (t - grid[i - 1]) * traj.quotients[i - 1])
    if kind == "step":
        if t < -ell - 1e-14 * part.horizon or t > part.horizon:
            raise TimeOutOfRange(f"t = {t} outside [{-ell}, {part.horizon}]")
        if t <= 0.0:
            return VertexField(g, values[0])
        if exact is not None:
            return VertexField(g, values[exact])
        return VertexField(g, values[min(max(idx, 1), n)])
    raise ValueError(f"unknown interpolant kind {kind!r}")


@dataclass(frozen=True)
class StepEstimate:
    """Per-step monitored quantities; ``r`` and ``d`` are the one-step
    energy-inequality residual and the discrete energy-production defect,
    both <= 0 up to solver residual at the exact minimizer. ``energy`` is
    E(u_i)/2 + I(|u_i|^{p+1})/(p+1)."""

    index: int
    l2: float
    l2_interior: float
    grad_l2: float
    l2p: float
    energy: float
    delta_l2: float
    r: float
    d: float


@dataclass(frozen=True)
class EstimateReport:
    rows: tuple

    @property
    def max_r(self):
        return max((row.r for row in self.rows if row.index > 0),
                   default=0.0)

    @property
    def max_d(self):
        return max((row.d for row in self.rows if row.index > 0),
                   default=0.0)

    def l2_values(self):
        return [row.l2 for row in self.rows]


def monitor_estimates(traj):
    """Norm and energy monitors along a trajectory, from its values (a row
    per step) and quotients in one norm pass and two power-integral
    passes.

    Row i >= 1 reports, for u_i: the L2(Omega) and L2(interior) norms,
    the gradient L2 norm, the L^{2p}(Omega) norm, the energy, the quotient
    norm |delta u_i| over Omega, and

        r_i = I(u_i^2) + l (I(|u_i|^{p+1}) + E(u_i))
              - (I(u_i^2) + I(u_{i-1}^2)) / 2,
        d_i = (I(u_i^2) - I(u_{i-1}^2)) / l + 2 I(|u_i|^{p+1}) + 2 E(u_i),

    with I the interior integral and E the gradient energy over Omega.
    Row 0 carries the initial norms with r, d, delta as NaN. Every number
    is bit for bit the one computed from its step's field alone.
    """
    prob = traj.problem
    dom = prob.domain
    g = dom.graph
    ell = traj.partition.step_size
    p = prob.p
    bundles = calculus.norms(g, traj.values, dom, q=2.0 * p)
    powrs = calculus.power_integral(g, traj.values, dom.interior_ids,
                                    p + 1.0).tolist()
    delta_sqs = [math.nan] + calculus.power_integral(
        g, traj.quotients, dom.omega_ids, 2.0).tolist()
    rows = []
    prev_sq = None
    for i, (nb, powr, delta_sq) in enumerate(zip(bundles, powrs, delta_sqs)):
        sq = nb.l2_interior ** 2
        grad_sq = nb.grad_l2 ** 2
        energy = 0.5 * grad_sq + powr / (p + 1.0)
        if i == 0:
            delta_l2 = r = d = math.nan
        else:
            delta_l2 = math.sqrt(delta_sq)
            r = sq + ell * (powr + grad_sq) - 0.5 * (sq + prev_sq)
            d = (sq - prev_sq) / ell + 2.0 * powr + 2.0 * grad_sq
        rows.append(StepEstimate(i, nb.l2_domain, nb.l2_interior, nb.grad_l2,
                                 nb.lq, energy, delta_l2, r, d))
        prev_sq = sq
    return EstimateReport(tuple(rows))


@dataclass(frozen=True)
class LevelResult:
    """One exhaustion level: ball radius, its domain, the run on it (a
    RotheTrajectory or a VIRun), and the L2(Omega_prev) distance between
    this and the previous level's terminal rows (None on the first
    level)."""

    level: int
    domain: Domain
    run: object
    delta_prev: object


def _level_delta(g, prev_dom, prev_values, cur_values):
    """L2(Omega_prev) distance of two fields' values."""
    ids = prev_dom.omega_ids
    diff = cur_values[ids] - prev_values[ids]
    return math.sqrt(kernels.seq_sum(
        np.ascontiguousarray(g.mu[ids] * diff * diff)))


def restrict_initial(initial, dom):
    """h restricted to the level interior and zero elsewhere."""
    return field_on_interior(dom, initial.values[dom.interior_ids])


def _run_levels(prob, part, levels, solve, **opts):
    """``solve(sub, part, **opts)`` on each selected exhaustion level of
    ``prob.domain``, where ``sub`` is ``prob`` with that level's domain and
    the initial field restricted to it, with cross-level terminal deltas.
    ``levels`` selects ball radii (None: every level)."""
    exh = prob.domain
    radii = list(exh.radii) if levels is None else list(levels)
    results = []
    for m in radii:
        dom = exh.level(m)
        if not dom.interior:
            raise EmptyInterior(f"exhaustion level {m} has empty interior")
        sub = replace(prob, domain=dom,
                      initial=restrict_initial(prob.initial, dom))
        run = solve(sub, part, **opts)
        # a solved level keeps its domain, not its stiffness: peak memory
        # stays that of the largest level, not the sum over the levels
        dom.release_operator()
        delta = None
        if results:
            prev = results[-1]
            delta = _level_delta(exh.graph, prev.domain,
                                 prev.run.values[-1], run.values[-1])
        results.append(LevelResult(m, dom, run, delta))
    return results


def run_exhaustion(prob, part, levels=None, **opts):
    """Rothe runs over exhaustion levels with cross-level terminal deltas.

    ``prob.domain`` must be an ExhaustionSequence; ``levels`` selects ball
    radii (default: every level). The initial field lives on the ambient
    graph and is restricted per level.
    """
    if not isinstance(prob.domain, ExhaustionSequence):
        raise TypeError("run_exhaustion needs an ExhaustionSequence domain")
    return _run_levels(prob, part, levels, run_rothe, **opts)
