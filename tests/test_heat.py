import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla

from graphrothe import (
    HeatProblem,
    LatticeZ,
    LatticeZ2,
    TimePartition,
    VertexField,
    evaluate_interpolant,
    exhaust,
    exhaust_generative,
    field_on_interior,
    make_domain,
    monitor_estimates,
    norms,
    run_exhaustion,
    run_rothe,
    step_functional,
)
from graphrothe import heat, operators
from graphrothe.errors import (DomainMismatch, SolverBreakdown,
                               TimeOutOfRange)
from graphrothe.operators import DirichletOperator
from helpers import (
    five_path_domain,
    level_problem,
    one_step,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_monitor_estimates,
    reference_newton_solve,
    reference_run_rothe,
    reference_warm_levels,
)


def bisect_root(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def single_interior_problem(p=1.0, value=1.0):
    g, dom = five_path_domain()
    h = VertexField.from_mapping(g, {2: value})
    return g, dom, HeatProblem(dom, p, h)


class TestTimePartition:
    def test_grid(self):
        part = TimePartition(0.3, 7)
        t = part.times
        assert t[0] == 0.0 and t[-1] == 0.3
        ell = part.step_size
        # spacing uniform to one ulp at the horizon scale
        for a, b in zip(t, t[1:]):
            assert abs((b - a) - ell) <= np.spacing(part.horizon)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimePartition(0.0, 5)
        with pytest.raises(ValueError):
            TimePartition(1.0, 0)


class TestStepFunctional:
    def test_hand_quadratic(self):
        # single interior vertex, p=1, l=0.1: F(c) = 13 c^2 - 20 c
        g, dom, prob = single_interior_problem()
        for c in (0.0, 0.3, 10.0 / 13.0, -1.2):
            u = field_on_interior(dom, [c])
            assert step_functional(u, prob.initial, prob, 0.1) \
                == pytest.approx(13.0 * c * c - 20.0 * c, abs=1e-12)

    def test_zero_field_zero_value(self):
        g, dom, prob = single_interior_problem()
        z = VertexField.zeros(g)
        assert step_functional(z, prob.initial, prob, 0.1) == 0.0

    def test_domain_mismatch(self):
        g, dom, prob = single_interior_problem()
        other = path_graph(5)
        with pytest.raises(DomainMismatch):
            step_functional(VertexField.zeros(other), prob.initial, prob, 0.1)


class TestSolveStep:
    def test_p1_closed_form(self):
        g, dom, prob = single_interior_problem()
        u = one_step(prob.initial, prob, 0.1)
        assert u[2] == pytest.approx(10.0 / 13.0, abs=1e-14)
        assert u[0] == u[1] == u[3] == u[4] == 0.0

    def test_zero_invariance(self):
        g, dom, prob = single_interior_problem()
        z = VertexField.zeros(g)
        u = one_step(z, prob, 0.1)
        assert np.all(u.values == 0.0)

    def test_p3_against_bisection_oracle(self):
        # Euler-Lagrange at the single vertex: 10(u-1) + u^3 + 2u = 0
        root = bisect_root(lambda u: 10.0 * (u - 1.0) + u ** 3 + 2.0 * u,
                           0.0, 1.0)
        assert root == pytest.approx(0.791942867912496, abs=1e-12)
        g, dom, prob = single_interior_problem(p=3.0)
        u = one_step(prob.initial, prob, 0.1)
        assert u[2] == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_euler_lagrange_residual(self, p):
        from graphrothe import laplacian
        rng = np.random.default_rng(int(p * 10))
        for _ in range(5):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, u_prev)
            ell = float(rng.uniform(0.02, 0.5))
            u = one_step(u_prev, prob, ell)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(u_prev.values))))
            for x in dom.interior_ids.tolist():
                res = ((u.values[x] - u_prev.values[x]) / ell
                       + abs(u.values[x]) ** (p - 1.0) * u.values[x]
                       - laplacian(g, u, x))
                assert abs(res) <= tol

    def test_minimizer_optimality(self):
        rng = np.random.default_rng(77)
        g = random_connected_graph(rng, 8, 20)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        prob = HeatProblem(dom, 2.0, u_prev)
        u = one_step(u_prev, prob, 0.1)
        fu = step_functional(u, u_prev, prob, 0.1)
        for _ in range(20):
            phi = random_admissible(rng, dom)
            for eps in (1e-3, -1e-3):
                pert = VertexField(g, u.values + eps * phi.values)
                assert step_functional(pert, u_prev, prob, 0.1) \
                    >= fu - 1e-12 * (1.0 + abs(fu))

    def test_initialization_independence(self):
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 3.0):
            g = random_connected_graph(rng, 5, 20)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, u_prev)
            a = one_step(u_prev, prob, 0.1)
            b = one_step(u_prev, prob, 0.1, x0=VertexField.zeros(g))
            assert float(np.max(np.abs(a.values - b.values))) <= 1e-8

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(int(31 * p))
        g = random_connected_graph(rng, 5, 12)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        prob = HeatProblem(dom, p, u_prev)
        ell = 0.1
        from graphrothe import laplacian
        u = random_admissible(rng, dom)
        ids = list(dom.interior_ids)
        h = 1e-6
        for a, x in enumerate(ids):
            up = u.values.copy()
            up[x] += h
            dn = u.values.copy()
            dn[x] -= h
            fd = (step_functional(VertexField(g, up), u_prev, prob, ell)
                  - step_functional(VertexField(g, dn), u_prev, prob, ell)) \
                / (2.0 * h)
            an = 2.0 * g.mu[x] * (
                (u.values[x] - u_prev.values[x]) / ell
                + abs(u.values[x]) ** (p - 1.0) * u.values[x]
                - laplacian(g, u, x))
            assert abs(fd - an) <= 1e-5 * (1.0 + abs(an))


class TestRunRothe:
    def test_n1_is_single_step(self):
        g, dom, prob = single_interior_problem()
        part = TimePartition(0.1, 1)
        traj = run_rothe(prob, part)
        step = reference_run_rothe(prob, part)[1]
        assert np.array_equal(traj.values[1], step.values)

    def test_zero_initial(self):
        g, dom, prob = single_interior_problem(value=0.0)
        traj = run_rothe(prob, TimePartition(1.0, 10))
        assert np.all(traj.values == 0.0)

    def test_l2_monotone(self):
        rng = np.random.default_rng(17)
        for p in (1.0, 2.0, 3.0):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            h = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, h)
            traj = run_rothe(prob, TimePartition(0.5, 20))
            report = monitor_estimates(traj)
            l2 = report.norms.l2_domain.tolist()
            scale = 1.0 + l2[0]
            for a, b in zip(l2, l2[1:]):
                assert b <= a + 1e-12 * scale

    def test_endpoint_near_exact_decay(self):
        # first-order scheme: |1.003^-1000 - e^-3| = 2.241e-4
        g, dom, prob = single_interior_problem()
        traj = run_rothe(prob, TimePartition(1.0, 1000))
        assert traj.values[-1, g.vertex(2)] == pytest.approx(
            math.exp(-3.0), abs=2.5e-4)

    def test_first_order_in_time(self):
        g, dom, prob = single_interior_problem()
        errors = []
        for n in (125, 250, 500, 1000):
            traj = run_rothe(prob, TimePartition(1.0, n))
            times = traj.partition.times
            u2 = traj.values[:, g.vertex(2)]
            err = max(abs(u2[i] - math.exp(-3.0 * times[i]))
                      for i in range(n + 1))
            errors.append(err)
        for e1, e2 in zip(errors, errors[1:]):
            assert 1.8 <= e1 / e2 <= 2.2


class TestInterpolant:
    def setup_method(self):
        g, dom, prob = single_interior_problem()
        self.traj = run_rothe(prob, TimePartition(1.0, 10))

    def test_grid_points(self):
        part = self.traj.partition
        for i in (0, 3, 10):
            t = float(part.times[i])
            for kind in ("linear", "step"):
                u = evaluate_interpolant(self.traj, t, kind)
                assert np.array_equal(u.values, self.traj.values[i])

    def test_midpoint_linear(self):
        part = self.traj.partition
        t = 0.5 * (part.times[0] + part.times[1])
        u = evaluate_interpolant(self.traj, float(t), "linear")
        expect = 0.5 * (self.traj.values[0] + self.traj.values[1])
        assert np.allclose(u.values, expect, rtol=0.0, atol=1e-15)

    def test_step_initial_extension(self):
        ell = self.traj.partition.step_size
        u = evaluate_interpolant(self.traj, -0.5 * ell, "step")
        assert np.array_equal(u.values, self.traj.values[0])
        mid = evaluate_interpolant(self.traj, 0.25 * ell, "step")
        assert np.array_equal(mid.values, self.traj.values[1])

    def test_out_of_range(self):
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, -0.01, "linear")
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, 1.01, "linear")
        for kind in ("linear", "step"):
            with pytest.raises(TimeOutOfRange):
                evaluate_interpolant(self.traj, math.nan, kind)
        ell = self.traj.partition.step_size
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, -1.5 * ell, "step")

    def test_linear_reads_its_quotient_row_bit_for_bit(self):
        # off the grid, u(t) = u_{i-1} + (t - t_{i-1}) * row i - 1 of
        # ``quotients``, whose row the interpolant forms on its own
        rng = np.random.default_rng(43)
        for p in (1.0, 1.5, 2.0, 3.0):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            n = int(rng.integers(2, 12))
            traj = run_rothe(HeatProblem(dom, p, random_admissible(rng, dom)),
                             TimePartition(0.7, n))
            grid = traj.partition.times
            quotients = traj.quotients
            for i in range(1, n + 1):
                t = float(grid[i - 1]
                          + rng.uniform(0.05, 0.95) * (grid[i] - grid[i - 1]))
                u = evaluate_interpolant(traj, t, "linear")
                expect = (traj.values[i - 1]
                          + (t - grid[i - 1]) * quotients[i - 1])
                assert u.values.tobytes() == expect.tobytes()

    def test_gap_between_interpolants_bounded(self):
        dom = self.traj.problem.domain
        g = dom.graph
        ell = self.traj.partition.step_size
        bound = max(norms(g, self.traj.quotients, dom).l2_domain.tolist()) \
            * ell
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 101):
            lin = evaluate_interpolant(self.traj, float(t), "linear")
            stp = evaluate_interpolant(self.traj, float(t), "step")
            diff = VertexField(g, lin.values - stp.values)
            worst = max(worst, norms(g, diff, dom).l2_domain)
        assert worst <= bound + 1e-14


class TestMonitor:
    def test_zero_data(self):
        g, dom, prob = single_interior_problem(value=0.0)
        report = monitor_estimates(run_rothe(prob, TimePartition(1.0, 5)))
        nb = report.norms
        for column in (nb.l2_domain, nb.grad_l2, nb.lq, report.delta_l2,
                       report.r, report.d):
            assert column.shape == (6,) and np.all(column[1:] == 0.0)

    def test_energy_residual_single_interior(self):
        g, dom, prob = single_interior_problem()
        report = monitor_estimates(run_rothe(prob, TimePartition(1.0, 50)))
        scale = (1.0 + 1.0) ** 2
        assert report.max_r <= 1e-10 * scale

    def test_energy_defect_random(self):
        rng = np.random.default_rng(23)
        for p in (1.0, 2.0):
            g = random_connected_graph(rng, 5, 20)
            dom = random_domain(rng, g)
            h = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, h)
            report = monitor_estimates(run_rothe(prob, TimePartition(0.5, 20)))
            scale = (1.0 + float(report.norms.l2_domain[0])) ** 2
            assert report.max_r <= 1e-10 * scale
            assert report.max_d <= 1e-10 * scale


def boundary_domain(rng, g):
    """A random domain whose Omega has vertices outside its interior."""
    for _ in range(50):
        dom = random_domain(rng, g, keep=rng.uniform(0.4, 0.9))
        if dom.omega_ids.size > dom.interior_ids.size:
            return dom
    return make_domain(g, range(g.num_vertices - 1))


def estimate_bits(report):
    """Every entry of every column, the five norms first; repr tells -0.0
    from 0.0 and shows NaN."""
    nb = report.norms
    return [[repr(x) for x in column.tolist()] for column in (
        nb.l2_domain, nb.l2_interior, nb.grad_l2, nb.lq, nb.w12,
        report.energy, report.delta_l2, report.r, report.d)]


class TestStackedMonitorMatchesReference:
    """``monitor_estimates`` reduces the whole trajectory as one stack;
    every row equals the per-field loop of ``reference_monitor_estimates``
    bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           steps=st.integers(1, 12),
           kind=st.sampled_from(["solved", "random", "zero"]))
    def test_bit_identical(self, seed, p, steps, kind):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 30)
        dom = boundary_domain(rng, g)
        assert dom.omega_ids.size > dom.interior_ids.size
        h = random_admissible(rng, dom, scale=float(rng.uniform(0.1, 3.0)))
        part = TimePartition(float(rng.uniform(0.1, 2.0)), steps)
        prob = HeatProblem(dom, p, h)
        if kind == "solved":
            traj = run_rothe(prob, part)
        else:
            # random fields, also off the interior, with -0.0 at about a
            # third of their entries, or the all-zero trajectory
            rows = []
            for _ in range(steps + 1):
                vals = rng.normal(size=g.num_vertices)
                vals[rng.random(vals.size) < 0.3] = -0.0
                rows.append(vals if kind == "random"
                            else np.zeros(g.num_vertices))
            traj = heat.RotheTrajectory(prob, part, np.array(rows))
        report = monitor_estimates(traj)
        got = estimate_bits(report)
        assert got == estimate_bits(reference_monitor_estimates(traj))
        assert all(len(column) == steps + 1 for column in got)
        assert [column[0] for column in got[6:]] == ["nan"] * 3
        assert not any(column.flags.writeable for column in (
            report.energy, report.delta_l2, report.r, report.d))

    @pytest.mark.parametrize("p", [1.0, 4.0])
    def test_norm_squares_are_python_floats(self, p):
        # one interior vertex of measure 1 with one unit edge to the
        # boundary: both the L2 and the gradient norm of this value are
        # the value itself, whose Python square (``pow``) and numpy
        # square differ in the last bit with common libms; at p = 4 the
        # energy stays in the binade of |grad|^2 / 2, so a changed gradient
        # square shows in it, which the p = 1 power term can round away
        value = 0.8683284008647664
        g = path_graph(3)
        dom = make_domain(g, [0, 1])
        assert dom.interior_ids.tolist() == [0]
        prob = HeatProblem(dom, p, VertexField.indicator(g, 0))
        for rows in ([value, 0.0], [value, value, 0.0], [0.0, value]):
            values = np.zeros((len(rows), 3))
            values[:, 0] = rows
            traj = heat.RotheTrajectory(
                prob, TimePartition(float(len(rows) - 1), len(rows) - 1),
                values)
            report = monitor_estimates(traj)
            assert report.norms.l2_interior.tolist()[rows.index(value)] \
                == value == report.norms.grad_l2.tolist()[rows.index(value)]
            assert estimate_bits(report) \
                == estimate_bits(reference_monitor_estimates(traj))


class TestExhaustion:
    def test_finite_domain_stabilizes_with_zero_delta(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 8)
        h = VertexField.indicator(g, 2)
        prob = HeatProblem(exh, 1.0, h)
        results = run_exhaustion(prob, TimePartition(0.5, 10),
                                 levels=[5, 6, 7, 8])
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev == 0.0

    def test_support_enters_late(self):
        exh = exhaust_generative(LatticeZ(), [0], 10)
        h = VertexField.from_mapping(exh.graph, {7: 1.0})
        prob = HeatProblem(exh, 1.0, h)
        results = run_exhaustion(prob, TimePartition(0.5, 10),
                                 levels=[3, 5, 10])
        assert np.all(results[0].run.values[-1] == 0.0)
        assert np.all(results[1].run.values[-1] == 0.0)
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev > 0.0

    def test_z_lattice_delta_decay(self):
        exh = exhaust_generative(LatticeZ(), [0], 16)
        h = VertexField.from_mapping(exh.graph, {0: 1.0})
        prob = HeatProblem(exh, 1.0, h)
        results = run_exhaustion(prob, TimePartition(1.0, 50),
                                 levels=[4, 8, 12, 16])
        deltas = [r.delta_prev for r in results[1:]]
        assert all(d > 0 for d in deltas)
        assert deltas[0] > deltas[1] > deltas[2]

    def test_half_plane_p2(self):
        # the paper's unbounded Omega, a proper subset of V: the half-plane
        # {i >= 0} of Z^2, exhausted from the seed (0, 0) on its boundary
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], 6,
                                 membership=lambda x: x[0] >= 0)
        g = exh.graph
        h = VertexField.from_mapping(g, {(1, 0): 1.0, (2, 0): 0.5,
                                         (1, 1): 0.25})
        results = run_exhaustion(HeatProblem(exh, 2.0, h),
                                 TimePartition(0.5, 5), levels=[3, 4, 6])
        assert min(lab[0] for lab in g.labels) < 0
        for res in results:
            assert all(g.label_of(i)[0] >= 0
                       for i in res.domain.omega_ids.tolist())
            TestNewtonOneFactorization.assert_stationary(res.run)
        deltas = [res.delta_prev for res in results[1:]]
        assert deltas[0] > deltas[1] > 0.0


class TestLinearSolverPaths:
    def test_cg_path_matches_direct(self, monkeypatch):
        # force the iterative branch by dropping the direct-solve threshold
        rng = np.random.default_rng(71)
        for p in (1.0, 2.0):
            g = random_connected_graph(rng, 10, 30)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, u_prev)
            a = one_step(u_prev, prob, 0.1)
            with monkeypatch.context() as m:
                m.setattr(operators, "DIRECT_SOLVE_MAX", 0)
                b = one_step(u_prev, prob, 0.1)
            assert float(np.max(np.abs(a.values - b.values))) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(1.5, 5.0),
           log_ell=st.floats(-3.0, math.log10(3.0)),
           log_amplitude=st.floats(-1.0, 1.0))
    def test_newton_ignores_direct_solve_size(self, seed, p, log_ell,
                                              log_amplitude):
        # p > 1 steps factor nothing, so the direct-solve threshold
        # leaves them bit for bit as they are
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 40)
        dom = random_domain(rng, g, keep=0.9)
        prob = HeatProblem(dom, p, random_admissible(
            rng, dom, scale=10.0 ** log_amplitude))
        part = TimePartition(3.0 * 10.0 ** log_ell, 3)
        direct = run_rothe(prob, part).values
        with pytest.MonkeyPatch.context() as m:
            m.setattr(operators, "DIRECT_SOLVE_MAX", 0)
            iterative = run_rothe(prob, part).values
        assert direct.tobytes() == iterative.tobytes()


def splu_newton_rothe(prob, part):
    """Interior Rothe fields by damped Newton with a fresh sparse LU of the
    Jacobian at every iteration, the same Armijo search and stopping test
    as the library's stepper; a reference for the preconditioned solve."""
    op = DirichletOperator(prob.domain)
    A, m = op.stiffness, op.mass
    p, ell = float(prob.p), part.step_size

    def functional(w, u_prev):
        return (float(np.dot(m * w, w)) / ell
                - 2.0 * float(np.dot(m * u_prev, w)) / ell
                + 2.0 / (p + 1.0) * float(np.dot(m, np.abs(w) ** (p + 1.0)))
                + float(np.dot(w, A @ w)))

    w = op.restrict(prob.initial)
    fields = [w]
    for _ in range(part.steps):
        u_prev = w
        tol = 1e-12 * (1.0 + float(np.max(np.abs(u_prev))))
        for _ in range(100):
            G = m * ((w - u_prev) / ell + np.abs(w) ** (p - 1.0) * w) + A @ w
            if float(np.max(np.abs(G / m))) <= tol:
                break
            J = A + sp.diags(m * (1.0 / ell + p * np.maximum(
                np.abs(w), 1e-12) ** (p - 1.0)))
            s = spla.splu(sp.csc_matrix(J)).solve(-G)
            fw = functional(w, u_prev)
            slope = 2.0 * float(np.dot(G, s))
            alpha = 1.0
            if abs(slope) > 1e-13 * (1.0 + abs(fw)):
                while (functional(w + alpha * s, u_prev)
                       > fw + 1e-4 * alpha * slope and alpha > 1e-14):
                    alpha *= 0.5
            w = w + alpha * s
        else:
            raise AssertionError("reference Newton did not converge")
        fields.append(w)
    return np.array(fields)


@pytest.fixture
def solver_count(monkeypatch):
    """Numbers of ``CachedSPD`` constructions (item 0) and of the CG
    iterations of the heat stepper's ``pcg`` solves (item 1)."""
    count = [0, 0]
    init = operators.CachedSPD.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counting_pcg(matvec, *args):
        def counted(d):
            count[1] += 1
            return matvec(d)
        return operators.pcg(counted, *args)

    monkeypatch.setattr(operators.CachedSPD, "__init__", counting_init)
    monkeypatch.setattr(heat, "pcg", counting_pcg)
    return count


def lattice_exhaustion_problem():
    exh = exhaust_generative(LatticeZ2(), [(0, 0)], 12)
    rng = np.random.default_rng(6)
    support = {(i, j): float(rng.uniform(0.5, 2.0))
               for i in range(-4, 5) for j in range(-4, 5)
               if abs(i) + abs(j) <= 4}
    h = VertexField.from_mapping(exh.graph, support)
    return HeatProblem(exh, 2.0, h)


def stiff_problem():
    dom = exhaust_generative(LatticeZ2(), [(0, 0)], 8).level(8)
    rng = np.random.default_rng(8)
    vals = 10.0 * rng.uniform(-1.0, 1.0, len(dom.interior_ids))
    return HeatProblem(dom, 5.0, field_on_interior(dom, vals))


class TestNewtonOneFactorization:
    """p > 1 Newton factors nothing: it solves each system by CG
    preconditioned with the Jacobian's diagonal, to a relative residual
    set by Newton's own progress (Eisenstat-Walker forcing)."""

    @staticmethod
    def assert_stationary(traj, tol_factor=heat.NEWTON_TOL_FACTOR):
        """Every step meets Newton's stopping test max|G/mass| <= tol,
        with tol floored at p > 1 as ``heat`` floors it."""
        prob, ell = traj.problem, traj.partition.step_size
        op, p = prob.domain.operator, float(prob.p)
        A, m = op.stiffness, op.mass
        for prev, cur in zip(traj.values, traj.values[1:]):
            u_prev, w = prev[op.interior_ids], cur[op.interior_ids]
            G = m * ((w - u_prev) / ell + np.abs(w) ** (p - 1.0) * w) + A @ w
            top = float(np.max(np.abs(u_prev)))
            floor = heat.NEWTON_ROUNDING_FLOOR * top / ell if p != 1.0 else 0.0
            assert float(np.max(np.abs(G / m))) \
                <= max(tol_factor * (1.0 + top), floor)

    @classmethod
    def compare(cls, prob, part):
        dom = prob.domain
        traj = run_rothe(prob, part)
        cls.assert_stationary(traj)
        got = traj.values[:, dom.interior_ids]
        ref = splu_newton_rothe(prob, part)
        assert float(np.max(np.abs(got - ref))) \
            <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("ell", [0.01, 1.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_matches_per_iteration_lu(self, p, ell, solver_count):
        rng = np.random.default_rng([int(10 * p), int(100 * ell)])
        for amplitude in (1.0, 10.0):
            g = random_connected_graph(rng, 30, 60)
            dom = random_domain(rng, g, keep=0.9)
            vals = amplitude * rng.uniform(-1.0, 1.0, len(dom.interior_ids))
            prob = HeatProblem(dom, p, field_on_interior(dom, vals))
            self.compare(prob, TimePartition(3 * ell, 3))
        assert solver_count[0] == 0 and solver_count[1] > 0

    def test_no_factorization_per_level(self, solver_count):
        run_exhaustion(lattice_exhaustion_problem(), TimePartition(0.5, 10),
                       levels=[4, 8, 12])
        assert solver_count[0] == 0 and solver_count[1] > 0

    def test_forcing_halves_cg_iterations(self, solver_count, monkeypatch):
        # 371 against 1086 CG iterations
        part = TimePartition(0.5, 10)
        run_exhaustion(lattice_exhaustion_problem(), part, levels=[4, 8, 12])
        forced = solver_count[1]
        monkeypatch.setattr(heat, "_forcing", lambda *args: heat.CG_RTOL)
        solver_count[1] = 0
        run_exhaustion(lattice_exhaustion_problem(), part, levels=[4, 8, 12])
        assert 2 * forced <= solver_count[1]

    def test_floor_cuts_solves_not_iterations(self, solver_count,
                                              monkeypatch):
        # forcing terms floored at FORCING_TOL_SHARE tol min(mass) / |G|
        # against no floor (share 0): 371 against 527 CG iterations, and
        # 140 Newton iterations on both sides
        counts = {}
        gradients = [0]
        grad_half = heat._HeatStepper._grad_half

        def counting(self, *args):
            gradients[0] += 1
            return grad_half(self, *args)

        monkeypatch.setattr(heat._HeatStepper, "_grad_half", counting)
        for share in (heat.FORCING_TOL_SHARE, 0.0):
            monkeypatch.setattr(heat, "FORCING_TOL_SHARE", share)
            solver_count[:] = [0, 0]
            gradients[0] = 0
            run_exhaustion(lattice_exhaustion_problem(),
                           TimePartition(0.5, 10), levels=[4, 8, 12])
            counts[share] = (solver_count[0], solver_count[1], gradients[0])
        floored, unfloored = counts[0.5], counts[0.0]
        assert floored[0] == unfloored[0] == 0
        assert floored[1] < 0.8 * unfloored[1]
        assert floored[2] <= unfloored[2]

    def test_stiff_data_matches_without_factoring(self, solver_count):
        # D^{-1} J stays well conditioned however large w grows
        self.compare(stiff_problem(), TimePartition(3.0, 3))
        assert solver_count[0] == 0

    def test_cg_miss_raises(self, monkeypatch):
        # a direction that misses its forcing term within 50 n iterations
        # stops the step, as CachedSPD's iterative path does
        monkeypatch.setattr(heat, "pcg", lambda *args: None)
        _, dom, prob = single_interior_problem(p=2.0)
        with pytest.raises(SolverBreakdown,
                           match=r"^step 1 \(t = 0\.1\): conjugate gradients "
                                 r"missed the relative "
                                 r"residual 0\.1 in 50 iterations$"):
            one_step(prob.initial, prob, 0.1)

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_tight_newton_factor_converges(self, p):
        prob = replace(stiff_problem(), p=p)
        traj = run_rothe(prob, TimePartition(3.0, 3), tol_factor=1e-14)
        self.assert_stationary(traj, tol_factor=1e-14)


class TestForcingFloor:
    """The forcing floor FORCING_TOL_SHARE tol min(mass) / |G| stops
    solving the last Newton system of a step past what the stopping test
    can use: every step still meets max|G/mass| <= tol, in no more Newton
    iterations than the loop without the floor."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(1.5, 5.0),
           log_ell=st.floats(-3.0, 0.5), log_amplitude=st.floats(-1.0, 1.0))
    def test_stationary_in_no_more_iterations(self, seed, p, log_ell,
                                              log_amplitude):
        rng = np.random.default_rng(seed)
        ell = 10.0 ** log_ell
        g = random_connected_graph(rng, 5, 40)
        dom = random_domain(rng, g, keep=0.9)
        vals = 10.0 ** log_amplitude * rng.uniform(
            -1.0, 1.0, len(dom.interior_ids))
        prob = HeatProblem(dom, p, field_on_interior(dom, vals))
        op = dom.operator
        w = op.restrict(prob.initial)
        part = TimePartition(ell, 1)
        for _ in range(3):
            got, _ = heat._HeatStepper(prob, part).step(1, w, None)
            floored, unfloored = {}, {}
            ref = reference_newton_solve(heat._HeatStepper(prob, part), w,
                                         stats=floored)
            reference_newton_solve(heat._HeatStepper(prob, part), w,
                                   stats=unfloored, floor=False)
            assert got.tobytes() == ref.tobytes()
            assert floored["gradients"] <= unfloored["gradients"]
            G = op.mass * ((got - w) / ell + np.abs(got) ** (p - 1.0) * got) \
                + op.stiffness @ got
            assert float(np.max(np.abs(G / op.mass))) \
                <= heat.NEWTON_TOL_FACTOR * (1.0 + float(np.max(np.abs(w))))
            w = got


def newton_pair(prob, part, zero_start=False):
    """Interior Rothe fields of ``_HeatStepper.step`` and of
    ``reference_newton_solve``, each on a fresh stepper and from the
    previous field (or, with ``zero_start``, from zero), and the
    reference's Newton counts."""
    stepper = heat._HeatStepper(prob, part)
    ref_stepper = heat._HeatStepper(prob, part)
    w = v = stepper.op.restrict(prob.initial)
    got, ref, stats = [w], [v], {}
    for i in range(1, part.steps + 1):
        x0 = np.zeros_like(w) if zero_start else None
        w, _ = stepper.step(i, w, x0)
        v = reference_newton_solve(ref_stepper, v, x0=x0, stats=stats)
        got.append(w)
        ref.append(v)
    return np.array(got), np.array(ref), stats


def backtracking_problem():
    """``stiff_problem`` at ten times the data: Newton from zero
    overshoots, and Armijo backtracks."""
    prob = stiff_problem()
    return replace(prob, initial=VertexField(prob.domain.graph,
                                             10.0 * prob.initial.values))


class CountingStiffness:
    """Counts the ``spmv`` products of ``heat`` made outside ``pcg``."""

    def __init__(self, monkeypatch):
        self.products = 0
        self.in_cg = False

        def counting_pcg(*args):
            self.in_cg = True
            try:
                return operators.pcg(*args)
            finally:
                self.in_cg = False

        def counting_spmv(S, x):
            if not self.in_cg:
                self.products += 1
            return operators.spmv(S, x)

        monkeypatch.setattr(heat, "pcg", counting_pcg)
        monkeypatch.setattr(heat, "spmv", counting_spmv)


class TestNewtonProductReuse:
    """p > 1 Newton hands the stiffness product and F of an accepted
    Armijo trial on to the next iteration: the fields stay bit-identical
    to the loop that computed A w three times per iteration."""

    @pytest.mark.parametrize("ell", [0.01, 1.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_bit_identical_to_three_product_loop(self, p, ell):
        rng = np.random.default_rng([int(10 * p), int(100 * ell), 13])
        skipped = 0
        for amplitude in (1.0, 10.0):
            g = random_connected_graph(rng, 30, 60)
            dom = random_domain(rng, g, keep=0.9)
            vals = amplitude * rng.uniform(-1.0, 1.0, len(dom.interior_ids))
            prob = HeatProblem(dom, p, field_on_interior(dom, vals))
            for zero_start in (False, True):
                got, ref, stats = newton_pair(
                    prob, TimePartition(3 * ell, 3), zero_start)
                assert got.tobytes() == ref.tobytes()
                skipped += stats["skipped"]
        # the full step below the rounding noise of F is taken
        assert skipped > 0

    def test_bit_identical_with_backtracking(self, solver_count):
        got, ref, stats = newton_pair(backtracking_problem(),
                                      TimePartition(3.0, 3), zero_start=True)
        assert got.tobytes() == ref.tobytes()
        assert stats["backtracks"] > 3 and stats["skipped"] > 0
        # neither stepper factored its stiff Jacobians
        assert solver_count[0] == 0

    def test_bit_identical_without_preconditioner(self, monkeypatch):
        # the direct-solve threshold leaves the Newton directions alone
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        got, ref, stats = newton_pair(backtracking_problem(),
                                      TimePartition(3.0, 3), zero_start=True)
        assert got.tobytes() == ref.tobytes()
        assert stats["backtracks"] > 3

    def test_one_product_per_iteration_and_backtrack(self, monkeypatch):
        prob, part = backtracking_problem(), TimePartition(3.0, 3)
        stepper = heat._HeatStepper(prob, part)
        counter = CountingStiffness(monkeypatch)
        ref_stepper = heat._HeatStepper(prob, part)
        w = v = stepper.op.restrict(prob.initial)
        backtracks = 0
        for i in range(1, part.steps + 1):
            stats = {}
            counter.products = 0
            x0 = np.zeros_like(w)
            w, _ = stepper.step(i, w, x0)
            v = reference_newton_solve(ref_stepper, v, x0=x0, stats=stats)
            assert counter.products \
                == stats["gradients"] + stats["backtracks"]
            backtracks += stats["backtracks"]
        assert backtracks > 3


class TestLevelWarmStart:
    """Each exhaustion level after the first starts Newton step i at the
    previous level's u_i: its steps stop within the Newton tolerance of
    the cold-started ones, in fewer iterations on the largest level. The
    first level and p = 1 steps are their cold runs bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_levels_match_cold_runs(self, data):
        dim = data.draw(st.sampled_from([1, 2]), label="dim")
        p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="p")
        weight = data.draw(st.floats(0.5, 2.0), label="weight")
        mu = data.draw(st.floats(0.5, 2.0), label="mu")
        levels = sorted(data.draw(st.sets(st.integers(2, 8), min_size=2,
                                          max_size=3), label="levels"))
        horizon = data.draw(st.floats(0.05, 1.0), label="horizon")
        steps = data.draw(st.integers(1, 6), label="steps")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        if dim == 1:
            exh = exhaust_generative(LatticeZ(weight, mu), [0], levels[-1])
            support = range(-2, 3)
        else:
            exh = exhaust_generative(LatticeZ2(weight, mu), [(0, 0)],
                                     levels[-1])
            support = [(i, j) for i in range(-2, 3) for j in range(-2, 3)
                       if abs(i) + abs(j) <= 2]
        h = VertexField.from_mapping(exh.graph, {
            x: float(rng.uniform(-2.0, 2.0)) for x in support})
        prob = HeatProblem(exh, p, h)
        part = TimePartition(horizon, steps)
        # two answers of a step that each meet max|G/mass| <= tol differ
        # by at most 2 l tol in the max norm (A + M/l + a nonnegative
        # diagonal is an M-matrix whose rows exceed M/l), and the step
        # map does not grow the difference of the previous fields; tol is
        # at most NEWTON_TOL_FACTOR (1 + max|h|) by the maximum principle
        bound = (2.0 * horizon * heat.NEWTON_TOL_FACTOR
                 * (1.0 + float(np.abs(h.values).max())))
        results = run_exhaustion(prob, part, levels=levels)
        for res in results:
            cold = run_rothe(level_problem(prob, res.domain), part)
            if p == 1.0 or res is results[0]:
                assert res.run.values.tobytes() == cold.values.tobytes()
            else:
                TestNewtonOneFactorization.assert_stationary(res.run)
                assert float(np.abs(res.run.values - cold.values).max()) \
                    <= bound

    def test_largest_level_takes_fewer_gradients(self, monkeypatch):
        # 34 against 43 gradient evaluations on the level-12 ball
        gradients = Counter()
        grad_half = heat._HeatStepper._grad_half

        def counting(stepper, *args):
            gradients[stepper.op.n] += 1
            return grad_half(stepper, *args)

        monkeypatch.setattr(heat._HeatStepper, "_grad_half", counting)
        prob, part = lattice_exhaustion_problem(), TimePartition(0.5, 10)
        top = run_exhaustion(prob, part, levels=[4, 8, 12])[-1]
        n = top.domain.num_interior
        warm = gradients[n]
        gradients.clear()
        run_rothe(level_problem(prob, top.domain), part)
        assert 0 < warm < gradients[n]


class TestOneLevelLoop:
    """``run_exhaustion`` steps every level inside ``run_rothe``, which
    takes the previous level's rows as the first Newton iterates: one
    call per selected level, and the rows of the warm-started level loop
    that stepped the later levels outside it, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           levels=st.sets(st.integers(2, 8), min_size=1, max_size=3),
           steps=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_call_per_level_with_warm_rows(self, p, levels, steps, seed):
        levels = sorted(levels)
        rng = np.random.default_rng(seed)
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], levels[-1])
        h = VertexField.from_mapping(exh.graph, {
            (i, j): float(rng.uniform(-2.0, 2.0))
            for i in range(-2, 3) for j in range(-2, 3)
            if abs(i) + abs(j) <= 2})
        prob, part = HeatProblem(exh, p, h), TimePartition(0.5, steps)
        calls = []
        run = heat.run_rothe

        def counting(sub, part, start=None, **opts):
            calls.append(sub.domain)
            return run(sub, part, start, **opts)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heat, "run_rothe", counting)
            results = run_exhaustion(prob, part, levels=levels)
        assert calls == [res.domain for res in results]
        for res, ref in zip(results, reference_warm_levels(prob, part,
                                                           levels)):
            assert res.run.values.tobytes() == ref.tobytes()

    def test_start_rows_ignored_at_p1(self):
        g, dom, prob = single_interior_problem(p=1.0)
        part = TimePartition(0.5, 4)
        start = np.full((part.steps + 1, g.num_vertices), 7.0)
        assert run_rothe(prob, part, start).values.tobytes() \
            == run_rothe(prob, part).values.tobytes()


class TestFineTimeGrid:
    """At p > 1 the Newton tolerance is at least NEWTON_ROUNDING_FLOOR
    max|u_prev| / l: rounding w alone moves (w - u_prev)/l by about
    eps |w| / l, so on fine time grids a fixed tol_factor (1 + max|u_prev|)
    sat below the noise of the residual and Newton stalled."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("ell", [1e-5, 1e-6, 1e-8])
    def test_single_step_converges(self, p, ell):
        g = path_graph(5)
        h = VertexField.from_mapping(g, {1: 1.0, 2: -2.0, 3: 0.5})
        prob = HeatProblem(make_domain(g, range(5)), p, h)
        u = one_step(h, prob, ell)
        TestNewtonOneFactorization.assert_stationary(heat.RotheTrajectory(
            prob, TimePartition(ell, 1), np.vstack((h.values, u.values))))

    def test_twenty_thousand_steps_on_the_path(self):
        # stalled at step 2371 with max|G/mass| = 2.20801e-12 against the
        # unfloored tolerance 2.2068e-12
        g = path_graph(5)
        h = VertexField.from_mapping(g, {1: 1.0, 2: -2.0, 3: 0.5})
        TestNewtonOneFactorization.assert_stationary(run_rothe(
            HeatProblem(make_domain(g, range(5)), 2.0, h),
            TimePartition(1.0, 20000)))

    def test_short_horizon_exhaustion(self):
        # ran out of its 100 Newton iterations at level 6, step 1
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], 18)
        rng = np.random.default_rng(1)
        h = VertexField.from_mapping(exh.graph, {
            (i, j): float(rng.uniform(0.5, 2.0))
            for i in range(-4, 5) for j in range(-4, 5)
            if abs(i) + abs(j) <= 4})
        results = run_exhaustion(HeatProblem(exh, 2.0, h),
                                 TimePartition(1e-4, 10), levels=[6, 12, 18])
        assert [res.level for res in results] == [6, 12, 18]
        for res in results:
            TestNewtonOneFactorization.assert_stationary(res.run)


class TestNewtonOverflow:
    """The Newton loop runs in one error state that ignores overflow, yet
    stops where the loop with a scope per evaluation stopped: a gradient
    or Jacobian that overflows raises ``SolverBreakdown``, and an
    overflowing residual, norm or direction solve warns or raises as the
    caller's error state asks."""

    @staticmethod
    def problem(p, value, mu=1.0):
        g = path_graph(5, mu=mu)
        dom = make_domain(g, [1, 2, 3])
        return HeatProblem(dom, p, VertexField.from_mapping(g, {2: value}))

    @pytest.mark.parametrize("state", ["warn", "raise"])
    def test_gradient_overflow(self, state):
        prob = self.problem(5.0, 1e100)
        with np.errstate(over=state, invalid=state), \
                pytest.raises(SolverBreakdown,
                              match=r"^step 1 \(t = 0\.1\): Newton gradient "
                                    r"is not finite at "
                                    r"p = 5 \(overflow\)$"):
            one_step(prob.initial, prob, 0.1)

    def test_jacobian_overflow(self):
        # p |w|^(p-1) overflows while |w|^p does not: G is finite, and
        # only its 2-norm overflows
        prob = self.problem(300.0, 10.6)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SolverBreakdown,
                              match=r"^step 1 \(t = 0\.1\): Newton Jacobian "
                                    r"is not finite at "
                                    r"p = 300 \(overflow\)$"):
            warnings.simplefilter("always")
            one_step(prob.initial, prob, 0.1)
        assert [str(w.message) for w in caught] \
            == ["overflow encountered in dot"]
        with np.errstate(over="raise"), \
                pytest.raises(FloatingPointError,
                              match="overflow encountered in dot"):
            one_step(prob.initial, prob, 0.1)

    def test_residual_overflow_raises_in_callers_state(self):
        # G is finite, G / mass is not
        prob = self.problem(2.0, 1e10, mu=1e-300)
        with np.errstate(over="raise"), \
                pytest.raises(FloatingPointError,
                              match="overflow encountered in divide"):
            one_step(prob.initial, prob, 0.1)

    @pytest.mark.parametrize("state", ["ignore", "raise"])
    @pytest.mark.parametrize("value", [1e-165, 1e-170])
    def test_norm_underflow_breaks_down(self, value, state):
        # max|G/mass| is far above tol, while the squares of G's entries
        # underflow and |G| is 0.0 (this once raised ZeroDivisionError)
        prob = self.problem(2.0, value, mu=1e-300)
        with np.errstate(over=state, invalid=state), \
                pytest.raises(SolverBreakdown,
                              match=r"^step 1 \(t = 0\.1\): Newton residual "
                                    r"norm underflows to 0 "
                                    r"at p = 2 while max\|G/mass\| = "):
            one_step(prob.initial, prob, 0.1)

    def test_small_data_still_solve(self):
        prob = self.problem(2.0, 1e-150, mu=1e-300)
        w = one_step(prob.initial, prob, 0.1)
        assert np.all(np.isfinite(w.values))


class TestNewtonOverflowNotRaised:
    """In a caller's numpy error state that does not raise, a finite
    gradient whose pointwise residual G / mass or 2-norm |G| overflows
    stops the step with ``SolverBreakdown`` in the Newton iteration that
    meets it, after the replay has warned as that state asks."""

    CASES = {
        # |w|^5 = 1e155: G is finite, |G|^2 is not
        "norm": (8, 1.0, range(8), 5.0, 3, 1e31, "dot"),
        # G is finite, G / mass with mass 1e-300 is not
        "residual": (5, 1e-300, [1, 2, 3], 2.0, 2, 1e10, "divide"),
    }

    @pytest.mark.parametrize("state", ["ignore", "warn"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_breakdown_in_first_iteration(self, monkeypatch, case, state):
        size, mu, omega, p, vertex, value, op = self.CASES[case]
        g = path_graph(size, mu=mu)
        prob = HeatProblem(make_domain(g, omega), p,
                           VertexField.from_mapping(g, {vertex: value}))
        iterations = []
        grad_half = heat._HeatStepper._grad_half

        def counting(stepper, *args):
            iterations.append(1)
            return grad_half(stepper, *args)

        monkeypatch.setattr(heat._HeatStepper, "_grad_half", counting)
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(all=state), \
                pytest.raises(SolverBreakdown,
                              match=rf"^step 1 \(t = 0\.1\): Newton residual "
                                    rf"is not finite at "
                                    rf"p = {p:g} \(overflow\)$"):
            warnings.simplefilter("always")
            one_step(prob.initial, prob, 0.1)
        assert len(iterations) == 1
        assert [str(w.message) for w in caught] \
            == ([f"overflow encountered in {op}"] if state == "warn" else [])


class TestSolverBudget:
    def test_newton_budget_exhausted(self, monkeypatch):
        from graphrothe.errors import NonConvergence
        g, dom, prob = single_interior_problem(p=3.0)
        monkeypatch.setattr(heat, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            one_step(prob.initial, prob, 0.1, x0=VertexField.zeros(g))


class TestProblemValidation:
    def test_p_below_one(self):
        g, dom = five_path_domain()
        with pytest.raises(ValueError):
            HeatProblem(dom, 0.5, VertexField.zeros(g))

    def test_initial_not_admissible(self):
        from graphrothe.errors import NotDirichletAdmissible
        g, dom = five_path_domain()
        with pytest.raises(NotDirichletAdmissible):
            HeatProblem(dom, 1.0, VertexField.indicator(g, 0))

    def test_empty_interior(self):
        from graphrothe.errors import EmptyInterior, EmptyInteriorWarning
        g = path_graph(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyInteriorWarning)
            dom = make_domain(g, [2])
        with pytest.raises(EmptyInterior):
            HeatProblem(dom, 1.0, VertexField.zeros(g))
