"""Rothe time stepping for the semilinear heat flow

    du/dt + |u|^(p-1) u = Laplacian u   on the domain interior,
    u = 0 outside the interior,         u(., 0) = h,

with p >= 1. Each step minimizes the strictly convex functional

    F(u) = (1/l) I(u^2) - (2/l) I(u_prev u) + 2/(p+1) I(|u|^(p+1)) + E(u),

where I integrates over the interior and E is the gradient energy over
Omega; the minimizer solves (u - u_prev)/l + |u|^(p-1) u = Laplacian u.
For p = 1 this is one SPD solve; for p > 1 a damped (semismooth) Newton
iteration with an Armijo line search on F. Its Jacobian is
J = A + diag(jd) with jd = M(1/l + p|w|^(p-1)) >= M/l, and each Newton
system is one ``operators.pcg`` solve within 50 n iterations,
preconditioned with J's diagonal D: nothing is factored. Off the
diagonal, row a of A sums to at most deg_omega(a), so by Gershgorin
D^{-1} J has its spectrum in [1 - rho, 1 + rho] with
rho = max deg_omega/(deg_omega + mu/l), a condition number of at most
1 + 2 l max(deg_omega/mu), however large w is.
Newton is inexact: system k is solved to the relative residual eta_k
that Eisenstat and Walker's choice 2 sets from the decrease of the
Newton residual G (SIAM J. Sci. Comput. 17, 1996), so systems far from
the minimizer take few CG iterations; the step still ends only when
max|G/mass| <= tol, or with ``NonConvergence`` once an iteration that
sees |G| unchanged leaves w unchanged, as every later one would. eta_k
is kept at or above FORCING_TOL_SHARE tol min(mass) / |G_k| (Kelley,
Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
section 6.3): CG bounds the 2-norm of the residual r = -G - J s it
leaves, and max|r/mass| <= |r| / min(mass), so the linear part of the next
max|G/mass| stays within FORCING_TOL_SHARE tol and the last system of a
step is not solved past what the stopping test can use. Outside CG,
each Newton iteration computes one stiffness product A w, plus one per
Armijo backtrack: the accepted trial hands its A w and its value of F on
to the next iteration. Every product with A, in and outside CG, is
``operators.spmv``, and CG's Jacobian product adds jd d into it in
place. The loop runs in one numpy error state that ignores overflow: a
gradient or Jacobian that overflows shows in the reductions the loop
computes anyway and stops the step with ``SolverBreakdown``, while the
direction solves, and the rare replays of an overflowing residual or
norm, run in the caller's error state. A replay that does not raise
there stops the step with ``SolverBreakdown`` before its direction
solve.

The tolerance is tol = tol_factor (1 + max|u_prev|), and at p > 1 at
least NEWTON_ROUNDING_FLOOR max|u_prev| / l = 4 eps max|u_prev| / l:
rounding w alone moves (w - u_prev)/l by about eps |w| / l, above the
unfloored tol once l is below about 1e-4, and Newton would stall.

An exhaustion run solves its levels in order by one ``run_rothe`` each,
and every level after the first gets the previous level's rows as
``start``: Newton step i starts at the previous level's u_i on its
interior (0 where that level has no interior vertex). The levels
converge as the balls grow, so that start is close, but a step still
ends only at max|G/mass| <= tol: a level agrees with its cold run within
the Newton tolerance, not bit for bit. p = 1 and VI levels start cold.

A run holds its Rothe sequence as one read-only (steps + 1) x V array,
a row per step, filled row by row by the step loop that ``run_rothe``
and ``vi.run_vi`` share; the steppers work on interior vectors, and the
monitors, the level deltas, the interpolant and the writers read the
array. A caller that wants step i as a field builds
``VertexField(graph, values[i])``; nothing builds every step's field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import calculus
from .calculus import VertexField, field_on_interior, require_admissible
from .errors import (
    DomainMismatch,
    EmptyInterior,
    GraphrotheError,
    NonConvergence,
    SolverBreakdown,
    TimeOutOfRange,
)
from .graph import Domain, ExhaustionSequence
from .operators import CG_RTOL, CachedSPD, pcg, spmv

NEWTON_TOL_FACTOR = 1e-12
NEWTON_MAX_ITER = 100
# the p > 1 tolerance is at least this times max|u_prev| / l
NEWTON_ROUNDING_FLOOR = 4.0 * float(np.finfo(float).eps)
# Eisenstat-Walker choice 2 forcing terms: Newton system k is solved to the
# relative residual eta_k = GAMMA (|G_k| / |G_k-1|)^ALPHA, eta_0 = ETA0,
# at least TOL_SHARE tol min(mass) / |G_k|, within [CG_RTOL, MAX]
FORCING_ETA0 = 0.1
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2.0
FORCING_MAX = 0.5
FORCING_TOL_SHARE = 0.5
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

    def _locate(self, t):
        """(i, True) when t lies within 1e-14 T of the grid time t_i, and
        else (i, False) with t_{i-1} < t < t_i (i clamped to 1..n)."""
        grid = self.times
        idx = int(np.searchsorted(grid, t))
        for i in (idx, idx - 1):
            if 0 <= i <= self.steps and math.isclose(
                    t, grid[i], rel_tol=0.0, abs_tol=1e-14 * self.horizon):
                return i, True
        return min(max(idx, 1), self.steps), False

    def step_index(self, t):
        """The step whose value the piecewise-constant reconstruction
        takes at t: i on (t_{i-1}, t_i], 0 on [-l, 0], with a t within
        1e-14 T of a grid time taken as that time."""
        ell = self.step_size
        if not -ell - 1e-14 * self.horizon <= t <= self.horizon:
            raise TimeOutOfRange(f"t = {t} outside [{-ell}, {self.horizon}]")
        return 0 if t <= 0.0 else self._locate(t)[0]


@dataclass(frozen=True)
class HeatProblem:
    """Problem data: domain (a finite Domain, or an ExhaustionSequence for
    unbounded targets), exponent p >= 1 and initial field h; the horizon
    is the TimePartition's."""

    domain: object
    p: float
    initial: VertexField

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.initial.graph is not self.domain.graph:
            raise DomainMismatch("initial field lives on a different graph")
        if isinstance(self.domain, Domain):
            if not self.domain.num_interior:
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
    def quotients(self):
        """Difference quotients (u_i - u_{i-1}) / l for i = 1..n, one row
        each."""
        return np.diff(self.values, axis=0) / self.partition.step_size


def _power(w, p):
    return np.abs(w) ** (p - 1.0) * w if p != 1.0 else w


def _functional(mass, w, Aw, u_prev, p, ell):
    """F at the interior vector ``w``, with ``Aw`` its stiffness product,
    given the previous interior vector; +inf when the power term
    overflows, which callers run with numpy's overflow ignored."""
    sq = float(np.dot(mass * w, w))
    cross = float(np.dot(mass * u_prev, w))
    powr = float(np.dot(mass, np.abs(w) ** (p + 1.0)))
    grad = float(np.dot(w, Aw))
    return (sq / ell - 2.0 * cross / ell
            + 2.0 / (p + 1.0) * powr + grad)


def _require_finite(x, what, p):
    if not np.all(np.isfinite(x)):
        raise SolverBreakdown(
            f"Newton {what} is not finite at p = {p:g} (overflow)")


def _replay(caller, fn, *args):
    """``fn(*args)`` in the numpy error state ``caller``, so that an
    overflow the Newton loop let pass warns or raises where the caller
    asks for it."""
    with np.errstate(**caller):
        fn(*args)


def _forcing(eta_prev, g_norm, g_norm_prev, g_target):
    """Relative residual for the next Newton system from the decrease of
    Newton's own residual, with Eisenstat and Walker's safeguard against
    a sudden drop of the forcing term, and at least the share
    FORCING_TOL_SHARE of ``g_target`` / ``g_norm``, where ``g_target`` =
    tol min(mass) is a 2-norm of G below which the stopping test
    holds."""
    if eta_prev is None:
        eta = FORCING_ETA0
    else:
        ratio = g_norm / g_norm_prev if g_norm < g_norm_prev else 1.0
        eta = FORCING_GAMMA * ratio ** FORCING_ALPHA
        guard = FORCING_GAMMA * eta_prev ** FORCING_ALPHA
        if guard > 0.1:
            eta = max(eta, guard)
    eta = max(eta, FORCING_TOL_SHARE * g_target / g_norm)
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
    with np.errstate(over="ignore"):
        return _functional(op.mass, w, spmv(op.stiffness, w),
                           op.restrict(u_prev), float(prob.p), ell)


class _HeatStepper:
    """Per-step solver on the domain's shared operator for a fixed step
    size. For p = 1 it factors A + M(1 + 1/l) once. For p > 1 it factors
    nothing: it keeps the diagonal of A, and each Newton system is one
    ``pcg`` solve preconditioned with the Jacobian's own diagonal."""

    def __init__(self, prob, ell, tol_factor=NEWTON_TOL_FACTOR):
        self.op = prob.domain.operator
        self.p = float(prob.p)
        self.ell = float(ell)
        self.tol_factor = tol_factor
        self.mass = self.op.mass
        self.A = self.op.stiffness
        if self.p == 1.0:
            self._linear = CachedSPD(
                self.op.shifted(self.mass * (1.0 + 1.0 / self.ell)))
        else:
            self._diag = self.A.diagonal()

    def _grad_half(self, w, Aw, u_prev):
        """Half the functional gradient: mass*((w-u_prev)/l + |w|^(p-1) w)
        + A w, with ``Aw`` = A w; the pointwise Euler-Lagrange residual is
        this over mass. Callers ignore numpy's overflow and invalid
        warnings: an overflow shows as a non-finite entry."""
        return (self.mass * ((w - u_prev) / self.ell + _power(w, self.p))
                + Aw)

    def solve(self, u_prev, x0=None):
        """Interior minimizer of F given the previous interior vector."""
        top = float(np.abs(u_prev).max())
        tol = self.tol_factor * (1.0 + top)
        if self.p == 1.0:
            rhs = self.mass * u_prev / self.ell
            w = self._linear.solve(rhs)
            # at most three refinement rounds bring the residual to
            # rounding level
            for _ in range(3):
                Aw = spmv(self.A, w)
                with np.errstate(over="ignore", invalid="ignore"):
                    G = self._grad_half(w, Aw, u_prev)
                if float(np.abs(G / self.mass).max()) <= tol:
                    break
                w = w - self._linear.solve(G)
            return w
        p = self.p
        tol = max(tol, NEWTON_ROUNDING_FLOOR * top / self.ell)
        w = u_prev.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
        # A w and F(w) of the iterate; an accepted Armijo trial hands on
        # both, a full step below the noise of F only its product
        Aw = spmv(self.A, w)
        fw = None
        eta = g_norm = None
        g_target = tol * float(self.mass.min())
        cap = 50 * self.op.n
        caller = np.geterr()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(NEWTON_MAX_ITER):
                G = self._grad_half(w, Aw, u_prev)
                # non-finite when G is, or when G / mass overflows
                residual = float(np.abs(G / self.mass).max())
                if residual <= tol:
                    return w
                if not math.isfinite(residual):
                    _require_finite(G, "gradient", p)
                    _replay(caller, np.divide, G, self.mass)
                g_norm_prev, g_norm = g_norm, math.sqrt(float(np.dot(G, G)))
                if not math.isfinite(g_norm):
                    _replay(caller, np.dot, G, G)
                elif g_norm == 0.0:
                    # G is nonzero (its residual is above tol), but the
                    # squares of its entries underflow
                    raise SolverBreakdown(
                        f"Newton residual norm underflows to 0 at "
                        f"p = {p:g} while max|G/mass| = {residual:g} is "
                        f"above the tolerance {tol:g}")
                eta = _forcing(eta, g_norm, g_norm_prev, g_target)
                jd = self.mass * (1.0 / self.ell + p * np.maximum(
                    np.abs(w), POWER_DERIV_FLOOR) ** (p - 1.0))
                # jd >= 0, so its maximum is finite exactly when jd is
                if not math.isfinite(jd.max()):
                    _require_finite(jd, "Jacobian", p)
                # a residual or norm whose replay did not raise
                if not (math.isfinite(residual) and math.isfinite(g_norm)):
                    raise SolverBreakdown(
                        f"Newton residual is not finite at p = {p:g} "
                        f"(overflow)")
                jdiag = self._diag + jd

                def jacobian(d):
                    q = spmv(self.A, d)
                    q += jd * d
                    return q

                # an overflow inside CG warns or raises as the caller asks
                with np.errstate(**caller):
                    s = pcg(jacobian, -G, lambda r: r / jdiag, eta, cap)
                if s is None:
                    raise SolverBreakdown(
                        f"conjugate gradients missed the relative residual "
                        f"{eta:g} in {cap} iterations")
                if fw is None:
                    fw = _functional(self.mass, w, Aw, u_prev, p, self.ell)
                slope = 2.0 * float(np.dot(G, s))
                # Armijo only while the predicted decrease is measurable
                # above the rounding noise of F; near the minimum the full
                # (damped) Newton step is safe by strict convexity.
                if abs(slope) > 1e-13 * (1.0 + abs(fw)):
                    alpha = 1.0
                    while True:
                        w_new = w + alpha * s
                        Aw = spmv(self.A, w_new)
                        f_new = _functional(self.mass, w_new, Aw, u_prev, p,
                                            self.ell)
                        if not (f_new > fw + 1e-4 * alpha * slope
                                and alpha > 1e-14):
                            break
                        alpha *= 0.5
                else:
                    w_new = w + s
                    Aw = spmv(self.A, w_new)
                    f_new = None
                # |G_k| = |G_k-1| sets eta = FORCING_MAX, so an iteration
                # that then leaves w unchanged is repeated bit for bit by
                # every later one; the second of two in a row that leave w
                # unchanged is one
                if g_norm == g_norm_prev and np.array_equal(w_new, w):
                    raise NonConvergence(
                        f"Newton stalled at max|G/mass| = {residual:g}, "
                        f"above the tolerance {tol:g}")
                w, fw = w_new, f_new
        raise NonConvergence(
            f"Newton did not reach residual {tol:g} in {NEWTON_MAX_ITER} "
            f"iterations")


def solve_step(u_prev, prob, ell, x0=None, **opts):
    """One Rothe step from ``u_prev`` (admissible field) with step size l.

    ``x0`` optionally overrides the initial Newton iterate (the default is
    u_prev); the minimizer is unique, so the result depends on ``x0`` only
    within the Newton tolerance.
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
    return field_on_interior(dom, w)


def _step_rows(prob, part, step):
    """The Rothe sequence of ``prob`` on ``part`` as one (steps + 1) x V
    array, filled row by row: row 0 holds the initial field and row i the
    zero extension of ``step(i, w)``, the interior vector of u_i computed
    from w, that of u_{i-1}. An error of step i names i and t_i."""
    op = prob.domain.operator
    values = np.zeros((part.steps + 1, prob.domain.graph.num_vertices))
    w = op.restrict(prob.initial)
    values[0, op.interior_ids] = w
    for i in range(1, part.steps + 1):
        try:
            w = step(i, w)
        except (GraphrotheError, FloatingPointError) as exc:
            raise type(exc)(f"step {i} (t = {part.times[i]:g}): {exc}") \
                from exc
        values[i, op.interior_ids] = w
    return values


def run_rothe(prob, part, start=None, **opts):
    """Full Rothe sequence on a finite domain. Row i of ``start``, a
    (steps + 1) x V array, is the first Newton iterate of step i on the
    interior (default: u_{i-1}); p = 1 has no Newton iteration and
    ignores it."""
    if not isinstance(prob.domain, Domain):
        raise TypeError("run_rothe needs a finite Domain; "
                        "use run_exhaustion for exhaustion targets")
    stepper = _HeatStepper(prob, part.step_size, **opts)
    rows = None
    if start is not None and stepper.p != 1.0:
        rows = np.asarray(start)[:, stepper.op.interior_ids]
    return RotheTrajectory(prob, part, _step_rows(
        prob, part, lambda i, w: stepper.solve(
            w, x0=None if rows is None else rows[i])))


def evaluate_interpolant(traj, t, kind="linear"):
    """Piecewise-linear Rothe interpolant, or the piecewise-constant step
    reconstruction (which also extends to t in [-l, 0] with the initial
    field); both take a t within 1e-14 T of a grid time as that time."""
    part = traj.partition
    g = traj.problem.domain.graph
    values = traj.values
    if kind == "step":
        return VertexField(g, values[part.step_index(t)])
    if kind != "linear":
        raise ValueError(f"unknown interpolant kind {kind!r}")
    if not 0.0 <= t <= part.horizon:
        raise TimeOutOfRange(f"t = {t} outside [0, {part.horizon}]")
    i, on_grid = part._locate(t)
    if on_grid:
        return VertexField(g, values[i])
    return VertexField(g, values[i - 1] + (t - part.times[i - 1])
                       * ((values[i] - values[i - 1]) / part.step_size))


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """The monitors of a run, one read-only array per quantity with entry
    i for u_i: ``norms`` is ``calculus.norms`` of the run's stack (its
    ``lq`` is the L^{2p}(Omega) norm), ``energy`` is
    E(u_i)/2 + I(|u_i|^{p+1})/(p+1), ``delta_l2`` the quotient norm
    |delta u_i| over Omega, and ``r`` and ``d`` are the one-step
    energy-inequality residual and the discrete energy-production defect,
    both <= 0 up to solver residual at the exact minimizer. Entry 0 of
    ``delta_l2``, ``r`` and ``d`` is NaN."""

    norms: calculus.NormBundle
    energy: np.ndarray
    delta_l2: np.ndarray
    r: np.ndarray
    d: np.ndarray

    @property
    def max_r(self):
        return max(self.r[1:].tolist(), default=0.0)

    @property
    def max_d(self):
        return max(self.d[1:].tolist(), default=0.0)


def _squares(column):
    """x ** 2 of each entry on Python floats, which call ``pow``: numpy's
    array square multiplies, and the two can differ in the last bit."""
    return np.array([x ** 2 for x in column.tolist()])


def monitor_estimates(traj):
    """Norm and energy monitors along a trajectory, from its values (a row
    per step) and quotients in one norm pass and two power-integral
    passes.

    Entry i >= 1 reports, for u_i: the L2(Omega) and L2(interior) norms,
    the gradient L2 norm, the L^{2p}(Omega) norm, the energy, the quotient
    norm |delta u_i| over Omega, and

        r_i = I(u_i^2) + l (I(|u_i|^{p+1}) + E(u_i))
              - (I(u_i^2) + I(u_{i-1}^2)) / 2,
        d_i = (I(u_i^2) - I(u_{i-1}^2)) / l + 2 I(|u_i|^{p+1}) + 2 E(u_i),

    with I the interior integral and E the gradient energy over Omega,
    where I(u_i^2) and E(u_i) are the Python-float squares of the L2 and
    gradient norms. Entry 0 carries the initial norms with r, d, delta as
    NaN. Every number is bit for bit the one computed from its step's
    field alone.
    """
    prob = traj.problem
    dom = prob.domain
    g = dom.graph
    ell = traj.partition.step_size
    p = prob.p
    nb = calculus.norms(g, traj.values, dom, q=2.0 * p)
    powr = calculus.power_integral(g, traj.values, dom.interior_ids, p + 1.0)
    sq = _squares(nb.l2_interior)
    grad_sq = _squares(nb.grad_l2)
    delta = calculus._l2_rows(g, traj.quotients, dom.omega_ids)
    r = sq[1:] + ell * (powr[1:] + grad_sq[1:]) - 0.5 * (sq[1:] + sq[:-1])
    d = (sq[1:] - sq[:-1]) / ell + 2.0 * powr[1:] + 2.0 * grad_sq[1:]
    return EstimateReport(nb, *map(calculus._read_only, (
        0.5 * grad_sq + powr / (p + 1.0),
        *(np.insert(x, 0, math.nan) for x in (delta, r, d)))))


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


def _run_levels(prob, part, levels, solve, **opts):
    """``solve(sub, part, start, **opts)`` on each selected exhaustion
    level of ``prob.domain``, where ``sub`` is ``prob`` with that level's
    domain and the initial field restricted to it and ``start`` is the
    previous level's (steps + 1) x V rows (None on the first level), with
    cross-level terminal deltas. ``levels`` selects ball radii (None:
    every level). An error of level m names m."""
    exh = prob.domain
    radii = list(exh.radii) if levels is None else list(levels)
    results = []
    for m in radii:
        dom = exh.level(m)
        if not dom.num_interior:
            raise EmptyInterior(f"exhaustion level {m} has empty interior")
        sub = replace(prob, domain=dom, initial=field_on_interior(
            dom, prob.initial.values[dom.interior_ids]))
        prev = results[-1] if results else None
        try:
            run = solve(sub, part, prev.run.values if prev else None, **opts)
        except (GraphrotheError, FloatingPointError) as exc:
            raise type(exc)(f"level {m}: {exc}") from exc
        # a solved level keeps its domain, not its stiffness: peak memory
        # stays that of the largest level, not the sum over the levels
        dom.release_operator()
        delta = None
        if prev:
            delta = math.sqrt(calculus.power_integral(
                exh.graph, run.values[-1] - prev.run.values[-1],
                prev.domain.omega_ids, 2.0))
        results.append(LevelResult(m, dom, run, delta))
    return results


def run_exhaustion(prob, part, levels=None, **opts):
    """Rothe runs over exhaustion levels with cross-level terminal deltas.

    ``prob.domain`` must be an ExhaustionSequence; ``levels`` selects ball
    radii (default: every level). The initial field lives on the ambient
    graph and is restricted per level. Each level is one ``run_rothe``
    call with the previous level's rows as ``start``: the levels
    converge, so that start is close, and a step lands within the Newton
    tolerance of its cold-started answer in fewer iterations.
    """
    if not isinstance(prob.domain, ExhaustionSequence):
        raise TypeError("run_exhaustion needs an ExhaustionSequence domain")
    return _run_levels(prob, part, levels, run_rothe, **opts)
