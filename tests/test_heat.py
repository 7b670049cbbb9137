import math
import warnings
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
    solve_step,
    step_functional,
)
from graphrothe import heat, operators
from graphrothe.errors import DomainMismatch, TimeOutOfRange
from graphrothe.operators import DirichletOperator
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_monitor_estimates,
    reference_newton_solve,
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
    return g, dom, HeatProblem(dom, p, h, 1.0)


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
        u = solve_step(prob.initial, prob, 0.1)
        assert u[2] == pytest.approx(10.0 / 13.0, abs=1e-14)
        assert u[0] == u[1] == u[3] == u[4] == 0.0

    def test_zero_invariance(self):
        g, dom, prob = single_interior_problem()
        z = VertexField.zeros(g)
        u = solve_step(z, prob, 0.1)
        assert np.all(u.values == 0.0)

    def test_p3_against_bisection_oracle(self):
        # Euler-Lagrange at the single vertex: 10(u-1) + u^3 + 2u = 0
        root = bisect_root(lambda u: 10.0 * (u - 1.0) + u ** 3 + 2.0 * u,
                           0.0, 1.0)
        assert root == pytest.approx(0.791942867912496, abs=1e-12)
        g, dom, prob = single_interior_problem(p=3.0)
        u = solve_step(prob.initial, prob, 0.1)
        assert u[2] == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_euler_lagrange_residual(self, p):
        from graphrothe import laplacian
        rng = np.random.default_rng(int(p * 10))
        for _ in range(5):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, u_prev, 1.0)
            ell = float(rng.uniform(0.02, 0.5))
            u = solve_step(u_prev, prob, ell)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(u_prev.values))))
            for x in sorted(dom.interior):
                res = ((u.values[x] - u_prev.values[x]) / ell
                       + abs(u.values[x]) ** (p - 1.0) * u.values[x]
                       - laplacian(g, u, x))
                assert abs(res) <= tol

    def test_minimizer_optimality(self):
        rng = np.random.default_rng(77)
        g = random_connected_graph(rng, 8, 20)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        prob = HeatProblem(dom, 2.0, u_prev, 1.0)
        u = solve_step(u_prev, prob, 0.1)
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
            prob = HeatProblem(dom, p, u_prev, 1.0)
            a = solve_step(u_prev, prob, 0.1)
            b = solve_step(u_prev, prob, 0.1, x0=VertexField.zeros(g))
            assert float(np.max(np.abs(a.values - b.values))) <= 1e-8

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(int(31 * p))
        g = random_connected_graph(rng, 5, 12)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        prob = HeatProblem(dom, p, u_prev, 1.0)
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
        traj = run_rothe(prob, TimePartition(0.1, 1))
        step = solve_step(prob.initial, prob, 0.1)
        assert np.array_equal(traj.fields[1].values, step.values)

    def test_zero_initial(self):
        g, dom, prob = single_interior_problem(value=0.0)
        traj = run_rothe(prob, TimePartition(1.0, 10))
        for u in traj.fields:
            assert np.all(u.values == 0.0)

    def test_l2_monotone(self):
        rng = np.random.default_rng(17)
        for p in (1.0, 2.0, 3.0):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            h = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, h, 0.5)
            traj = run_rothe(prob, TimePartition(0.5, 20))
            report = monitor_estimates(traj)
            l2 = report.l2_values()
            scale = 1.0 + l2[0]
            for a, b in zip(l2, l2[1:]):
                assert b <= a + 1e-12 * scale

    def test_endpoint_near_exact_decay(self):
        # first-order scheme: |1.003^-1000 - e^-3| = 2.241e-4
        g, dom, prob = single_interior_problem()
        traj = run_rothe(prob, TimePartition(1.0, 1000))
        assert traj.fields[-1][2] == pytest.approx(math.exp(-3.0),
                                                   abs=2.5e-4)

    def test_first_order_in_time(self):
        g, dom, prob = single_interior_problem()
        errors = []
        for n in (125, 250, 500, 1000):
            traj = run_rothe(prob, TimePartition(1.0, n))
            times = traj.partition.times
            err = max(abs(traj.fields[i][2] - math.exp(-3.0 * times[i]))
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
                assert np.array_equal(u.values, self.traj.fields[i].values)

    def test_midpoint_linear(self):
        part = self.traj.partition
        t = 0.5 * (part.times[0] + part.times[1])
        u = evaluate_interpolant(self.traj, float(t), "linear")
        expect = 0.5 * (self.traj.fields[0].values
                        + self.traj.fields[1].values)
        assert np.allclose(u.values, expect, rtol=0.0, atol=1e-15)

    def test_step_initial_extension(self):
        ell = self.traj.partition.step_size
        u = evaluate_interpolant(self.traj, -0.5 * ell, "step")
        assert np.array_equal(u.values, self.traj.fields[0].values)
        mid = evaluate_interpolant(self.traj, 0.25 * ell, "step")
        assert np.array_equal(mid.values, self.traj.fields[1].values)

    def test_out_of_range(self):
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, -0.01, "linear")
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, 1.01, "linear")
        ell = self.traj.partition.step_size
        with pytest.raises(TimeOutOfRange):
            evaluate_interpolant(self.traj, -1.5 * ell, "step")

    def test_gap_between_interpolants_bounded(self):
        dom = self.traj.problem.domain
        g = dom.graph
        ell = self.traj.partition.step_size
        bound = max(nb.l2_domain
                    for nb in norms(g, self.traj.quotients, dom)) * ell
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
        for row in report.rows[1:]:
            assert row.l2 == row.grad_l2 == row.l2p == row.delta_l2 == 0.0
            assert row.r == 0.0 and row.d == 0.0

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
            prob = HeatProblem(dom, p, h, 0.5)
            report = monitor_estimates(run_rothe(prob, TimePartition(0.5, 20)))
            scale = (1.0 + report.rows[0].l2) ** 2
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
    """Every field of every row; repr tells -0.0 from 0.0 and shows NaN."""
    return [tuple(map(repr, (row.index, row.l2, row.l2_interior,
                             row.grad_l2, row.l2p, row.energy,
                             row.delta_l2, row.r, row.d)))
            for row in report.rows]


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
        prob = HeatProblem(dom, p, h, part.horizon)
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
        got = estimate_bits(monitor_estimates(traj))
        assert got == estimate_bits(reference_monitor_estimates(traj))
        assert got[0][6:] == ("nan", "nan", "nan")


class TestExhaustion:
    def test_finite_domain_stabilizes_with_zero_delta(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 8)
        h = VertexField.indicator(g, 2)
        prob = HeatProblem(exh, 1.0, h, 0.5)
        results = run_exhaustion(prob, TimePartition(0.5, 10),
                                 levels=[5, 6, 7, 8])
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev == 0.0

    def test_support_enters_late(self):
        exh = exhaust_generative(LatticeZ(), [0], 10)
        h = VertexField.from_mapping(exh.graph, {7: 1.0})
        prob = HeatProblem(exh, 1.0, h, 0.5)
        results = run_exhaustion(prob, TimePartition(0.5, 10),
                                 levels=[3, 5, 10])
        assert np.all(results[0].run.fields[-1].values == 0.0)
        assert np.all(results[1].run.fields[-1].values == 0.0)
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev > 0.0

    def test_z_lattice_delta_decay(self):
        exh = exhaust_generative(LatticeZ(), [0], 16)
        h = VertexField.from_mapping(exh.graph, {0: 1.0})
        prob = HeatProblem(exh, 1.0, h, 1.0)
        results = run_exhaustion(prob, TimePartition(1.0, 50),
                                 levels=[4, 8, 12, 16])
        deltas = [r.delta_prev for r in results[1:]]
        assert all(d > 0 for d in deltas)
        assert deltas[0] > deltas[1] > deltas[2]


class TestLinearSolverPaths:
    def test_cg_path_matches_direct(self, monkeypatch):
        # force the iterative branch by dropping the direct-solve threshold
        rng = np.random.default_rng(71)
        for p in (1.0, 2.0):
            g = random_connected_graph(rng, 10, 30)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            prob = HeatProblem(dom, p, u_prev, 1.0)
            a = solve_step(u_prev, prob, 0.1)
            with monkeypatch.context() as m:
                m.setattr(operators, "DIRECT_SOLVE_MAX", 0)
                b = solve_step(u_prev, prob, 0.1)
            assert float(np.max(np.abs(a.values - b.values))) <= 1e-9


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
def spd_count(monkeypatch):
    """Numbers of ``CachedSPD`` constructions (item 0) and solves (item 1)
    made by the heat stepper."""
    count = [0, 0]

    class Counting(heat.CachedSPD):
        def __init__(self, *args, **kwargs):
            count[0] += 1
            super().__init__(*args, **kwargs)

        def solve(self, *args, **kwargs):
            count[1] += 1
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(heat, "CachedSPD", Counting)
    return count


def lattice_exhaustion_problem():
    exh = exhaust_generative(LatticeZ2(), [(0, 0)], 12)
    rng = np.random.default_rng(6)
    support = {(i, j): float(rng.uniform(0.5, 2.0))
               for i in range(-4, 5) for j in range(-4, 5)
               if abs(i) + abs(j) <= 4}
    h = VertexField.from_mapping(exh.graph, support)
    return HeatProblem(exh, 2.0, h, 0.5)


def stiff_problem():
    dom = exhaust_generative(LatticeZ2(), [(0, 0)], 8).level(8)
    rng = np.random.default_rng(8)
    vals = 10.0 * rng.uniform(-1.0, 1.0, len(dom.interior_ids))
    return HeatProblem(dom, 5.0, field_on_interior(dom, vals), 3.0)


class TestNewtonOneFactorization:
    """p > 1 Newton solves each system by CG preconditioned with one factor
    of A + M/l per stepper, refactoring only on stiff data, to a relative
    residual set by Newton's own progress (Eisenstat-Walker forcing)."""

    @staticmethod
    def assert_stationary(traj, tol_factor=heat.NEWTON_TOL_FACTOR):
        """Every step meets Newton's stopping test max|G/mass| <= tol."""
        prob, ell = traj.problem, traj.partition.step_size
        op, p = prob.domain.operator, float(prob.p)
        A, m = op.stiffness, op.mass
        for prev, cur in zip(traj.fields, traj.fields[1:]):
            u_prev, w = op.restrict(prev), op.restrict(cur)
            G = m * ((w - u_prev) / ell + np.abs(w) ** (p - 1.0) * w) + A @ w
            assert float(np.max(np.abs(G / m))) \
                <= tol_factor * (1.0 + float(np.max(np.abs(u_prev))))

    @classmethod
    def compare(cls, prob, part):
        dom = prob.domain
        traj = run_rothe(prob, part)
        cls.assert_stationary(traj)
        got = np.array([u.values[dom.interior_ids] for u in traj.fields])
        ref = splu_newton_rothe(prob, part)
        assert float(np.max(np.abs(got - ref))) \
            <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("ell", [0.01, 1.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_matches_per_iteration_lu(self, p, ell, spd_count):
        rng = np.random.default_rng([int(10 * p), int(100 * ell)])
        for amplitude in (1.0, 10.0):
            g = random_connected_graph(rng, 30, 60)
            dom = random_domain(rng, g, keep=0.9)
            vals = amplitude * rng.uniform(-1.0, 1.0, len(dom.interior_ids))
            prob = HeatProblem(dom, p, field_on_interior(dom, vals), 3 * ell)
            spd_count[0] = 0
            self.compare(prob, TimePartition(3 * ell, 3))
            # S0^{-1} J has its spectrum in [1, 1 + l max p|w|^(p-1)]
            if ell * p * amplitude ** (p - 1.0) <= 0.2:
                assert spd_count[0] == 1

    def test_one_factorization_per_level(self, spd_count):
        run_exhaustion(lattice_exhaustion_problem(), TimePartition(0.5, 10),
                       levels=[4, 8, 12])
        assert spd_count[0] == 3

    def test_forcing_halves_preconditioner_solves(self, spd_count,
                                                  monkeypatch):
        part = TimePartition(0.5, 10)
        run_exhaustion(lattice_exhaustion_problem(), part, levels=[4, 8, 12])
        forced = spd_count[1]
        monkeypatch.setattr(heat, "_forcing", lambda *args: heat.CG_RTOL)
        spd_count[1] = 0
        run_exhaustion(lattice_exhaustion_problem(), part, levels=[4, 8, 12])
        assert 2 * forced <= spd_count[1]

    def test_stiff_data_refactors_and_matches(self, spd_count):
        self.compare(stiff_problem(), TimePartition(3.0, 3))
        # the fixed 1e-13 target refactored 13 times on this data
        assert 1 < spd_count[0] <= 13

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_tight_newton_factor_converges(self, p):
        prob = replace(stiff_problem(), p=p)
        traj = run_rothe(prob, TimePartition(3.0, 3), tol_factor=1e-14)
        self.assert_stationary(traj, tol_factor=1e-14)


def newton_pair(prob, part, zero_start=False):
    """Interior Rothe fields of ``_HeatStepper.solve`` and of
    ``reference_newton_solve``, each on a fresh stepper and from the
    previous field (or, with ``zero_start``, from zero), and the
    reference's Newton counts."""
    stepper = heat._HeatStepper(prob, part.step_size)
    ref_stepper = heat._HeatStepper(prob, part.step_size)
    w = v = stepper.op.restrict(prob.initial)
    got, ref, stats = [w], [v], {}
    for _ in range(part.steps):
        x0 = np.zeros_like(w) if zero_start else None
        w = stepper.solve(w, x0=x0)
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
    """Stands in for a stepper's stiffness matrix and counts the products
    made outside ``pcg``."""

    def __init__(self, A, monkeypatch):
        self.A = A
        self.products = 0
        self.in_cg = False

        def counting_pcg(*args):
            self.in_cg = True
            try:
                return operators.pcg(*args)
            finally:
                self.in_cg = False

        monkeypatch.setattr(heat, "pcg", counting_pcg)

    def __matmul__(self, x):
        if not self.in_cg:
            self.products += 1
        return self.A @ x


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
            prob = HeatProblem(dom, p, field_on_interior(dom, vals), 3 * ell)
            for zero_start in (False, True):
                got, ref, stats = newton_pair(
                    prob, TimePartition(3 * ell, 3), zero_start)
                assert got.tobytes() == ref.tobytes()
                skipped += stats["skipped"]
        # the full step below the rounding noise of F is taken
        assert skipped > 0

    def test_bit_identical_with_backtracking(self, spd_count):
        got, ref, stats = newton_pair(backtracking_problem(),
                                      TimePartition(3.0, 3), zero_start=True)
        assert got.tobytes() == ref.tobytes()
        assert stats["backtracks"] > 3 and stats["skipped"] > 0
        # both steppers refactored at their stiff Jacobians
        assert spd_count[0] > 2

    def test_bit_identical_without_preconditioner(self, monkeypatch):
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        got, ref, stats = newton_pair(backtracking_problem(),
                                      TimePartition(3.0, 3), zero_start=True)
        assert got.tobytes() == ref.tobytes()
        assert stats["backtracks"] > 3

    def test_one_product_per_iteration_and_backtrack(self, monkeypatch):
        prob, part = backtracking_problem(), TimePartition(3.0, 3)
        stepper = heat._HeatStepper(prob, part.step_size)
        counter = CountingStiffness(stepper.A, monkeypatch)
        stepper.A = counter
        ref_stepper = heat._HeatStepper(prob, part.step_size)
        w = v = stepper.op.restrict(prob.initial)
        backtracks = 0
        for _ in range(part.steps):
            stats = {}
            counter.products = 0
            x0 = np.zeros_like(w)
            w = stepper.solve(w, x0=x0)
            v = reference_newton_solve(ref_stepper, v, x0=x0, stats=stats)
            assert counter.products \
                == stats["gradients"] + stats["backtracks"]
            backtracks += stats["backtracks"]
        assert backtracks > 3


class TestSolverBudget:
    def test_newton_budget_exhausted(self, monkeypatch):
        from graphrothe.errors import NonConvergence
        g, dom, prob = single_interior_problem(p=3.0)
        monkeypatch.setattr(heat, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            solve_step(prob.initial, prob, 0.1, x0=VertexField.zeros(g))


class TestProblemValidation:
    def test_p_below_one(self):
        g, dom = five_path_domain()
        with pytest.raises(ValueError):
            HeatProblem(dom, 0.5, VertexField.zeros(g), 1.0)

    def test_initial_not_admissible(self):
        from graphrothe.errors import NotDirichletAdmissible
        g, dom = five_path_domain()
        with pytest.raises(NotDirichletAdmissible):
            HeatProblem(dom, 1.0, VertexField.indicator(g, 0), 1.0)

    def test_empty_interior(self):
        from graphrothe.errors import EmptyInterior, EmptyInteriorWarning
        g = path_graph(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyInteriorWarning)
            dom = make_domain(g, [2])
        with pytest.raises(EmptyInterior):
            HeatProblem(dom, 1.0, VertexField.zeros(g), 1.0)
