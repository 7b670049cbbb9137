import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import (
    ConstantForcing,
    Obstacle,
    SeparableForcing,
    Subspace,
    TableForcing,
    TimePartition,
    VertexField,
    VIProblem,
    build_finite_graph,
    exhaust,
    field_on_interior,
    inner_product,
    lipschitz_validate,
    make_domain,
    norms,
    run_vi,
    run_vi_exhaustion,
    vi_monotonicity_monitor,
)
from graphrothe.errors import (
    AmbiguousTable,
    InsufficientSamples,
    NonConvergence,
    SolverBreakdown,
    TimeOutOfRange,
)
from graphrothe import operators, vi
from graphrothe.operators import DirichletOperator, PrincipalBlocks
from graphrothe.timeexpr import compile_time_expression
from graphrothe.heat import RotheTrajectory, evaluate_interpolant
from graphrothe.vi import ViStepper, active_set_solve, forcing_step_function
from helpers import (
    five_path_domain,
    level_problem,
    one_vi_step,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_active_set_solve,
    reference_forcing_at,
    reference_l2,
    reference_psor,
    vi_stepper,
)


class TestViStep:
    def test_scalar_subspace(self):
        g, dom = five_path_domain()
        u_prev = VertexField.indicator(g, 2)
        u, rep = one_vi_step(dom, u_prev, VertexField.zeros(g), 0.1)
        assert u[2] == pytest.approx(5.0 / 6.0, abs=1e-14)
        assert rep.variational_residual <= 1e-10 * (1.0 + 10.0)
        assert rep.beta == pytest.approx(min(10.0, 1.0))

    def test_zero_rhs(self):
        g, dom = five_path_domain()
        u, _ = one_vi_step(dom, VertexField.zeros(g), VertexField.zeros(g),
                           0.1)
        assert np.all(u.values == 0.0)

    def test_scalar_obstacle_clamps(self):
        # unconstrained value (10 - 20)/12 < 0 clamps to the obstacle 0;
        # residual r = 12*0 - (-20 + 10) = 10 >= 0 and r (u - psi) = 0
        g, dom = five_path_domain()
        u_prev = VertexField.indicator(g, 2)
        f = VertexField.from_mapping(g, {2: -20.0})
        u, rep = one_vi_step(dom, u_prev, f, 0.1,
                             Obstacle(VertexField.zeros(g)))
        assert u[2] == 0.0
        assert rep.dual_residual == 0.0
        assert rep.complementarity == 0.0
        assert rep.primal_residual == 0.0

    def test_subspace_matches_independent_dense_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            f = VertexField(g, rng.normal(size=g.num_vertices))
            ell = float(rng.uniform(0.05, 0.5))
            u, _ = one_vi_step(dom, u_prev, f, ell)
            op = DirichletOperator(dom)
            S = op.stiffness.toarray() + np.diag(op.mass / ell)
            b = op.mass * (op.restrict(f) + op.restrict(u_prev) / ell)
            ref = np.linalg.solve(S, b)
            scale = 1.0 + float(np.max(np.abs(b)))
            assert float(np.max(np.abs(op.restrict(u) - ref))) \
                <= 1e-10 * scale

    def test_subspace_refinement_round(self):
        # a first solve that is off by 1e-6 leaves the residual above
        # 1e-12 (1 + max|b|); the refinement round brings it back, and
        # the report carries the refined residual
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            ell = float(rng.uniform(0.05, 0.5))
            u_prev = random_admissible(rng, dom)
            f = rng.normal(size=len(dom.interior_ids))
            stepper = vi_stepper(dom, ell, field_on_interior(dom, f))
            solver = stepper._solver
            calls = []

            class OffFirst:
                def solve(self, rhs):
                    x = solver.solve(rhs)
                    calls.append(rhs)
                    if len(calls) == 1:
                        x = x + 1e-6 * rng.normal(size=x.size)
                    return x

            stepper._solver = OffFirst()
            op = stepper.op
            w_prev = op.restrict(u_prev)
            w, rep = stepper.step(1, w_prev, None)
            assert len(calls) == 2
            b = op.mass * (f + w_prev / ell)
            res = float(np.max(np.abs(stepper.S @ w - b)))
            assert res <= 1e-12 * (1.0 + float(np.max(np.abs(b))))
            assert rep.variational_residual == res

    def test_obstacle_kkt_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            u_prev = random_admissible(rng, dom)
            psi = field_on_interior(
                dom, rng.uniform(-0.5, 0.3, size=len(dom.interior_ids)))
            f = VertexField(g, rng.normal(size=g.num_vertices))
            ell = float(rng.uniform(0.05, 0.5))
            u_new, _ = one_vi_step(dom, u_prev, f, ell, Obstacle(psi))
            op = DirichletOperator(dom)
            S = op.stiffness.toarray() + np.diag(op.mass / ell)
            b = op.mass * (op.restrict(f) + op.restrict(u_prev) / ell)
            u = op.restrict(u_new)
            r = S @ u - b
            gap = u - op.restrict(psi)
            assert gap.min() >= -1e-8
            assert r.min() >= -1e-8 * (1.0 + np.abs(b).max())
            assert np.abs(r * gap).max() <= 1e-8 * (1.0 + np.abs(b).max())

    def test_uniqueness_across_relaxations(self):
        # the obstacle step has one solution: projected SOR reaches the
        # active-set answer at every relaxation
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        psi = field_on_interior(dom, np.zeros(len(dom.interior_ids)))
        f = VertexField(g, rng.normal(size=g.num_vertices))
        stepper = vi_stepper(dom, 0.2, f, Obstacle(psi))
        u, _ = stepper.step(1, stepper.op.restrict(u_prev), None)
        b, scale = _obstacle_rhs(stepper, u_prev, f)
        for relax in (1.0, 1.4):
            w, _ = reference_psor(stepper.S, stepper.op.restrict(psi), b,
                                  stepper.op.restrict(u_prev), scale, relax,
                                  1e-12)
            assert float(np.max(np.abs(u - w))) <= 1e-8


class TestCoercivity:
    def test_quadratic_form_bound(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        for ell in (0.1, 0.5, 2.0):
            beta = min(1.0 / ell, 1.0)
            for _ in range(50):
                v = random_admissible(rng, dom)
                nb = norms(g, v, dom)
                a_vv = nb.l2_interior ** 2 / ell + nb.grad_l2 ** 2
                assert a_vv >= beta * nb.w12 ** 2 * (1.0 - 1e-12)


class TestRunVi:
    def test_zero_everything(self):
        g, dom = five_path_domain()
        prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                         VertexField.zeros(g))
        run = run_vi(prob, TimePartition(1.0, 10))
        assert np.all(run.values == 0.0)

    def test_linear_decay_endpoint(self):
        # pure subspace flow decays like e^{-2t}; backward-Euler endpoint
        # error floor at n=1000 is |1.002^-1000 - e^-2| = 2.706e-4
        g, dom = five_path_domain()
        prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                         VertexField.indicator(g, 2))
        run = run_vi(prob, TimePartition(1.0, 1000))
        assert run.values[-1, g.vertex(2)] == pytest.approx(math.exp(-2.0),
                                                           abs=3e-4)

    def test_constant_forcing_steady_state(self):
        g, dom = five_path_domain()
        f = VertexField.from_mapping(g, {2: 1.0})
        prob = VIProblem(dom, ConstantForcing(f),
                         VertexField.zeros(g))
        run = run_vi(prob, TimePartition(50.0, 500))
        op = DirichletOperator(dom)
        steady = np.linalg.solve(op.stiffness.toarray(),
                                 op.mass * op.restrict(f))
        resid = float(np.max(np.abs(
            op.stiffness @ run.values[-1, op.interior_ids]
            - op.mass * op.restrict(f))))
        assert resid <= 1e-6
        assert run.values[-1, op.interior_ids[0]] \
            == pytest.approx(steady[0], abs=1e-6)

    def test_contraction_between_initials(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        f = ConstantForcing(VertexField(g, rng.normal(size=g.num_vertices)))
        g1 = random_admissible(rng, dom)
        g2 = random_admissible(rng, dom)
        part = TimePartition(1.0, 20)
        run1 = run_vi(VIProblem(dom, f, g1), part)
        run2 = run_vi(VIProblem(dom, f, g2), part)
        prev = math.inf
        scale = 1.0 + norms(g, g1, dom).l2_interior \
            + norms(g, g2, dom).l2_interior
        for u1, u2 in zip(run1.values, run2.values):
            diff = VertexField(g, u1 - u2)
            cur = norms(g, diff, dom).l2_interior
            assert cur <= prev + 1e-12 * scale
            prev = cur


class TestMonotonicityMonitor:
    def _random_run(self, rng, time_expr="1 + 0.5*t"):
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        chi = VertexField(g, rng.normal(size=g.num_vertices))
        forcing = SeparableForcing(chi, compile_time_expression(time_expr))
        init = random_admissible(rng, dom)
        prob = VIProblem(dom, forcing, init)
        return g, dom, run_vi(prob, TimePartition(1.0, 15))

    def test_recurrence_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g, dom, run = self._random_run(rng)
            report = vi_monotonicity_monitor(run)
            bound_scale = 1.0 + report.max_quotient
            assert report.max_slack <= 1e-10 * bound_scale
            assert report.quotient_l2.shape == (15,)
            assert np.all(report.quotient_l2 <= report.cumulative_bound
                          + 1e-10 * bound_scale)

    def test_constant_forcing_nonincreasing_quotients(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        forcing = ConstantForcing(
            VertexField(g, rng.normal(size=g.num_vertices)))
        prob = VIProblem(dom, forcing, random_admissible(rng, dom))
        run = run_vi(prob, TimePartition(1.0, 15))
        report = vi_monotonicity_monitor(run)
        qs = report.quotient_l2.tolist()
        for a, b in zip(qs, qs[1:]):
            assert b <= a + 1e-10 * (1.0 + qs[0])

    def test_initial_below_obstacle(self):
        # g below psi at an interior vertex: the first step lifts u onto
        # psi, and the bound starts from that step's quotient
        rng = np.random.default_rng(47)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 20)
            dom = random_domain(rng, g)
            init = random_admissible(rng, dom)
            lower = init.values + rng.normal(size=g.num_vertices)
            lower[dom.interior_ids[0]] = init.values[dom.interior_ids[0]] + 0.5
            psi = VertexField(g, lower)
            chi = VertexField(g, rng.normal(size=g.num_vertices))
            forcing = SeparableForcing(chi,
                                       compile_time_expression("sin(5*t)"))
            prob = VIProblem(dom, forcing, init,
                             constraint=Obstacle(psi))
            report = vi_monotonicity_monitor(run_vi(prob,
                                                    TimePartition(1.0, 15)))
            assert report.cumulative_bound == report.quotient_l2[0] \
                + report.grid_rate * 1.0
            bound_scale = 1.0 + report.max_quotient
            assert report.max_quotient <= report.cumulative_bound \
                + 1e-10 * bound_scale

    def test_zero_run_zero_quotients(self):
        g, dom = five_path_domain()
        prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                         VertexField.zeros(g))
        report = vi_monotonicity_monitor(run_vi(prob, TimePartition(1.0, 6)))
        assert report.max_quotient == 0.0


class TestLipschitz:
    def test_constant_in_time(self):
        g, dom = five_path_domain()
        rep = lipschitz_validate(
            ConstantForcing(VertexField.indicator(g, 2)),
            [0.0, 0.5, 1.0], dom)
        assert rep.estimate == 0.0
        assert not rep.violated

    def test_linear_profile_exact(self):
        # f = t * chi with |chi| = 2: every quotient equals 2
        g, dom = five_path_domain()
        chi = VertexField.from_mapping(g, {2: 2.0})
        forcing = SeparableForcing(chi, compile_time_expression("t"))
        rep = lipschitz_validate(forcing, np.linspace(0.0, 1.0, 9), dom,
                                 c_declared=2.0)
        assert rep.estimate == pytest.approx(2.0, rel=1e-12)
        assert not rep.violated

    def test_sqrt_profile_flagged(self):
        g, dom = five_path_domain()
        chi = VertexField.indicator(g, 2)
        forcing = SeparableForcing(chi, compile_time_expression("t**0.5"))
        samples = [0.0] + [4.0 ** -k for k in range(6, -1, -1)]
        rep = lipschitz_validate(forcing, samples, dom, c_declared=1.0)
        assert rep.violated
        dense = lipschitz_validate(forcing, [0.0] + [4.0 ** -k
                                                     for k in range(8, -1, -1)],
                                   dom)
        assert dense.estimate > rep.estimate  # grows with sample density

    def test_matches_pairwise_reference(self):
        # each pair's quotient from its own difference field, pairs in the
        # order of a double loop; the first strict maximum wins, so equal
        # fields (a zero quotient) keep the first pair
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            times = sorted((rng.choice(200, size=int(rng.integers(2, 9)),
                                       replace=False) / 100.0).tolist())
            fields = [VertexField(g, rng.normal(size=g.num_vertices))]
            for _ in times[1:]:
                fields.append(fields[-1] if rng.random() < 0.3 else
                              VertexField(g, rng.normal(size=g.num_vertices)))
            ids = dom.interior_ids
            best, worst = 0.0, (times[0], times[1])
            for a in range(len(times)):
                for b in range(a + 1, len(times)):
                    q = reference_l2(dom, fields[b].values[ids]
                                     - fields[a].values[ids]) \
                        / (times[b] - times[a])
                    if q > best:
                        best, worst = q, (times[a], times[b])
            rep = lipschitz_validate(TableForcing(times, fields), times, dom)
            assert (rep.estimate, rep.worst_pair) == (best, worst)

    def test_insufficient_samples(self):
        g, dom = five_path_domain()
        with pytest.raises(InsufficientSamples):
            lipschitz_validate(ConstantForcing(VertexField.zeros(g)),
                               [0.5], dom)


class _CountingForcing:
    """A forcing provider that counts the calls of its ``rows``."""

    def __init__(self, inner):
        self.graph = inner.graph
        self.calls = 0
        self._inner = inner

    def rows(self, times, ids):
        self.calls += 1
        return self._inner.rows(times, ids)


class TestForcingProviders:
    def test_table_forcing_exact_times(self):
        g, dom = five_path_domain()
        fields = [VertexField.from_mapping(g, {2: float(k)})
                  for k in range(3)]
        forcing = TableForcing([0.0, 0.5, 1.0], fields)
        assert forcing.rows([0.5], [g.vertex(2)]).tolist() == [[1.0]]
        # |t - 0| equals the tolerance 1e-9 exactly at both edges
        assert forcing.rows([1e-9, -1e-9], [g.vertex(2)]).tolist() \
            == [[0.0], [0.0]]
        with pytest.raises(TimeOutOfRange, match=r"^t = 0\.3 is not a "
                           r"tabulated forcing time$"):
            forcing.rows([0.5, 0.3, 0.4], [g.vertex(2)])
        with pytest.raises(TimeOutOfRange):
            forcing.rows([np.nextafter(1e-9, 1.0)], [g.vertex(2)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_match_per_time_reference(self, data):
        # times at, just inside and just outside each tabulated time's
        # tolerance, on a table listed out of order
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = random_connected_graph(rng, 3, 12)
        ids = np.flatnonzero(rng.random(g.num_vertices) < 0.6)
        scale = data.draw(st.sampled_from([1e-3, 0.25, 1.0, 1e6]))
        ks = data.draw(st.lists(st.integers(-40, 40), min_size=1,
                                max_size=6, unique=True))
        table_times = [k * scale for k in ks]
        fields = [VertexField(g, rng.normal(size=g.num_vertices))
                  for _ in ks]
        near = []
        for tk in table_times:
            tol = 1e-9 * max(1.0, abs(tk))
            for edge in (tk - tol, tk + tol):
                near += [edge, np.nextafter(edge, tk),
                         np.nextafter(edge, 2 * edge - tk)]
            near.append(tk)
        times = data.draw(st.lists(st.sampled_from(near), max_size=12))
        chi = VertexField(g, rng.normal(size=g.num_vertices))
        providers = [
            ConstantForcing(chi),
            SeparableForcing(chi, compile_time_expression("sin(3*t) + t")),
            TableForcing(table_times, fields),
        ]
        for forcing in providers:
            try:
                want = np.array([reference_forcing_at(forcing,
                                                      float(t)).values[ids]
                                 for t in times]).reshape(len(times),
                                                          ids.size)
            except TimeOutOfRange as exc:
                with pytest.raises(TimeOutOfRange) as info:
                    forcing.rows(times, ids)
                assert str(info.value) == str(exc)
                continue
            got = forcing.rows(times, ids)
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_constant_rows_are_one_vector(self):
        g, dom = five_path_domain()
        rows = ConstantForcing(VertexField.indicator(g, 2)).rows(
            TimePartition(1.0, 1000).times, dom.interior_ids)
        assert rows.shape == (1001, 1) and rows.strides[0] == 0

    def test_overlapping_table_refused(self):
        g, dom = five_path_domain()
        f = VertexField.zeros(g)
        # 0.5 and 0.5 + 1.5e-9 are each within 1e-9 of 0.5 + 0.75e-9
        for times in ([0.5, 0.0, 0.5 + 1.5e-9], [1.0, 0.5, 0.5]):
            with pytest.raises(AmbiguousTable, match=r"^tabulated forcing "
                               r"times 0\.5 and 0\.5(000000015)? lie within "
                               r"1e-9 \* max\(1, \|t\|\) of one time, "
                               r"which would match both fields$"):
                TableForcing(times, [f, f, f])
        # windows 2.5e-9 apart do not overlap: each time reads one field
        fields = [VertexField.from_mapping(g, {2: k}) for k in (1.0, 2.0)]
        forcing = TableForcing([0.5 + 2.5e-9, 0.5], fields)
        assert forcing.rows([0.5 + 0.5e-9, 0.5 + 2e-9],
                            [g.vertex(2)]).tolist() == [[2.0], [1.0]]

    def test_sampled_once_per_run(self):
        g, dom = five_path_domain()
        part = TimePartition(1.0, 50)
        forcing = _CountingForcing(TableForcing(
            part.times, [VertexField.from_mapping(g, {2: math.sin(t)})
                         for t in part.times]))
        run = run_vi(VIProblem(dom, forcing, VertexField.zeros(g)),
                     part)
        assert forcing.calls == 1
        vi_monotonicity_monitor(run)
        assert forcing.calls == 2
        lipschitz_validate(forcing, part.times, dom)
        assert forcing.calls == 3

    def test_step_function_reconstruction(self):
        g, dom = five_path_domain()
        chi = VertexField.indicator(g, 2)
        forcing = SeparableForcing(chi, compile_time_expression("t"))
        prob = VIProblem(dom, forcing, VertexField.zeros(g))
        part = TimePartition(1.0, 4)
        ell = part.step_size
        assert forcing_step_function(prob, part, -0.1)[2] == 0.0
        assert forcing_step_function(prob, part, 0.1)[2] == 0.25
        assert forcing_step_function(prob, part, 0.25)[2] == 0.25
        assert forcing_step_function(prob, part, 0.26)[2] == 0.5
        with pytest.raises(TimeOutOfRange):
            forcing_step_function(prob, part, 1.2)

    @pytest.mark.parametrize("horizon, steps",
                             [(1.0, 10), (0.3, 7), (50.0, 500)])
    def test_step_function_picks_the_interpolant_step(self, horizon, steps):
        # row i of the run and tabulated field i both hold i everywhere,
        # so each reconstruction shows the step it picks
        g, dom = five_path_domain()
        part = TimePartition(horizon, steps)
        ell = part.step_size
        rows = np.repeat(np.arange(steps + 1.0)[:, None], g.num_vertices,
                         axis=1)
        forcing = TableForcing(part.times,
                               [VertexField(g, row) for row in rows])
        prob = VIProblem(dom, forcing, VertexField.zeros(g))
        traj = RotheTrajectory(prob, part, rows)

        def picked(fn, t):
            try:
                return fn(t).values.tolist()
            except TimeOutOfRange:
                return "out of range"

        offsets = [k * 1e-13 * ell for k in range(-10, 11)]
        offsets += [s * 1e-14 * horizon
                    for s in (-1.01, -1.0, -0.99, 0.99, 1.0, 1.01)]
        for i, t_i in enumerate(part.times.tolist() + [-ell]):
            for t in (t_i + dt for dt in offsets):
                step = picked(
                    lambda t: evaluate_interpolant(traj, t, "step"), t)
                assert picked(lambda t: forcing_step_function(prob, part, t),
                              t) == step, (i, t)
                if abs(t - t_i) <= 1e-14 * horizon and 0.0 < t <= horizon:
                    assert step == [float(i)] * g.num_vertices, (i, t)
        for fn in (lambda t: evaluate_interpolant(traj, t, "step"),
                   lambda t: forcing_step_function(prob, part, t)):
            with pytest.raises(TimeOutOfRange):
                fn(math.nan)


class TestViExhaustion:
    def test_finite_stabilizes(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 8)
        forcing = ConstantForcing(VertexField.indicator(g, 3))
        prob = VIProblem(exh, forcing, VertexField.indicator(g, 2))
        results = run_vi_exhaustion(prob, TimePartition(0.5, 8),
                                    levels=[6, 7, 8])
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev == 0.0

    def test_lattice_deltas_decay(self):
        from graphrothe import LatticeZ, exhaust_generative
        exh = exhaust_generative(LatticeZ(), [0], 12)
        g = exh.graph
        forcing = ConstantForcing(VertexField.from_mapping(g, {0: 1.0}))
        prob = VIProblem(exh, forcing, VertexField.from_mapping(g, {0: 0.5}))
        results = run_vi_exhaustion(prob, TimePartition(1.0, 25),
                                    levels=[4, 8, 12])
        deltas = [r.delta_prev for r in results[1:]]
        assert deltas[0] > deltas[1] > 0.0

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_levels_match_cold_runs(self, obstacle):
        # VI levels start cold: each is bit for bit its own run_vi
        from graphrothe import LatticeZ2, exhaust_generative
        exh = exhaust_generative(LatticeZ2(1.1, 0.9), [(0, 0)], 8)
        g = exh.graph
        rng = np.random.default_rng(24)
        support = [(i, j) for i in range(-2, 3) for j in range(-2, 3)
                   if abs(i) + abs(j) <= 2]
        h = VertexField.from_mapping(g, {
            x: float(rng.uniform(0.0, 2.0)) for x in support})
        f = VertexField.from_mapping(g, {
            x: float(rng.uniform(-3.0, 1.0)) for x in support})
        constraint = (Obstacle(VertexField.zeros(g)) if obstacle
                      else Subspace())
        prob = VIProblem(exh, ConstantForcing(f), h,
                         constraint=constraint)
        part = TimePartition(0.5, 6)
        for res in run_vi_exhaustion(prob, part, levels=[3, 5, 8]):
            cold = run_vi(level_problem(prob, res.domain), part)
            assert res.run.values.tobytes() == cold.values.tobytes()

    def test_one_run_vi_call_per_level(self, monkeypatch):
        # each level is one run_vi call, looked up when the level runs,
        # with the previous level's rows as its start
        g = path_graph(6)
        exh = exhaust(make_domain(g, range(6)), [0], 8)
        prob = VIProblem(exh, ConstantForcing(VertexField.indicator(g, 3)),
                         VertexField.indicator(g, 2))
        calls = []
        run = vi.run_vi

        def counting(sub, part, start=None, **opts):
            calls.append((sub.domain, start))
            return run(sub, part, start, **opts)

        monkeypatch.setattr(vi, "run_vi", counting)
        results = run_vi_exhaustion(prob, TimePartition(0.5, 4),
                                    levels=[3, 5, 8])
        assert [dom for dom, _ in calls] == [res.domain for res in results]
        assert calls[0][1] is None
        for (_, start), prev in zip(calls[1:], results):
            assert start is prev.run.values

    def test_half_plane_obstacle_kkt(self):
        # the half-plane Omega = {i >= 0} of Z^2, a proper subset of V,
        # with the obstacle psi = 0 binding where the forcing pushes down:
        # every step of every level meets the KKT tolerance
        from graphrothe import LatticeZ2, exhaust_generative
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], 6,
                                 membership=lambda x: x[0] >= 0)
        g = exh.graph
        h = VertexField.from_mapping(g, {(1, 0): 1.0, (2, 0): 0.5,
                                         (1, 1): 0.25})
        f = VertexField.from_mapping(g, {(1, 0): -4.0, (2, 1): -2.0,
                                         (3, 0): 1.0})
        prob = VIProblem(exh, ConstantForcing(f), h,
                         constraint=Obstacle(VertexField.zeros(g)))
        part = TimePartition(1.0, 4)
        ell = part.step_size
        tol = vi.KKT_TOL
        binding = 0
        for res in run_vi_exhaustion(prob, part, levels=[3, 4, 6]):
            op = res.domain.operator
            assert all(g.label_of(i)[0] >= 0
                       for i in res.domain.omega_ids.tolist())
            S = op.step_matrix(ell)
            w_all = res.run.values[:, op.interior_ids]
            fi = op.restrict(f)
            for w_prev, w in zip(w_all, w_all[1:]):
                b = op.mass * (fi + w_prev / ell)
                r = S @ w - b
                scale = 1.0 + float(np.max(np.abs(b)))
                assert w.min() >= 0.0
                assert r.min() >= -tol * scale
                assert np.abs(r * w).max() \
                    <= tol * scale * (1.0 + float(np.max(w)))
                binding += int(np.count_nonzero((w == 0.0) & (r > 0.0)))
        assert binding > 0

    def test_zero_data_zero_levels(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 6)
        prob = VIProblem(exh, ConstantForcing(VertexField.zeros(g)),
                         VertexField.zeros(g))
        results = run_vi_exhaustion(prob, TimePartition(0.5, 5),
                                    levels=[5, 6])
        for res in results:
            assert np.all(res.run.values[-1] == 0.0)


# an SPD matrix with positive off-diagonal entries, and data on which the
# active sets cycle from u_start with the obstacle 0
CYCLING_SPD = sp.csr_matrix(np.array([[4.76, 4.73, -4.48],
                                      [4.73, 5.94, -4.05],
                                      [-4.48, -4.05, 4.72]]))
CYCLING_RHS = np.array([-1.31, -2.02, 0.18])
CYCLING_START = np.array([5.02, -2.97, 3.54])


class TestActiveSetBudget:
    def test_cycle_stopped_by_budget(self):
        # an SPD matrix that is no M-matrix, on which the active sets cycle
        # (as on P-matrices, Ben Gharbia and Gilbert, Math. Program. 134,
        # 2012): the inactive sets run {0, 2}, {1}, {0}, {0, 2}, ... in
        # exact arithmetic too, and the step stops after n + 1 iterations
        # instead of looping
        with pytest.raises(NonConvergence, match="did not settle in 4"):
            active_set_solve(PrincipalBlocks(CYCLING_SPD), CYCLING_RHS,
                             np.zeros(3), CYCLING_START)

    def test_kkt_target_unmet(self):
        rng = np.random.default_rng(61)
        g = random_connected_graph(rng, 10, 20)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        psi = field_on_interior(dom, np.zeros(len(dom.interior_ids)))
        with pytest.raises(NonConvergence, match="KKT tolerance 1e-30"):
            one_vi_step(dom, u_prev, f, 0.2, Obstacle(psi), kkt_tol=1e-30)


def _obstacle_rhs(stepper, u_prev, f):
    """(b, scale) of one obstacle step, as ``ViStepper.step`` forms them."""
    op = stepper.op
    b = op.mass * (op.restrict(f) + op.restrict(u_prev) / stepper.ell)
    return b, 1.0 + float(np.max(np.abs(b), initial=0.0))


def grid_graph(rng, side):
    """side x side grid, mu and omega uniform in [0.5, 1.5]."""
    ids = np.arange(side * side).reshape(side, side)
    pairs = [(int(a), int(b)) for a, b in
             zip(ids[:, :-1].ravel(), ids[:, 1:].ravel())]
    pairs += [(int(a), int(b)) for a, b in
              zip(ids[:-1, :].ravel(), ids[1:, :].ravel())]
    edges = [(a, b, float(rng.uniform(0.5, 1.5))) for a, b in pairs]
    measure = {i: float(rng.uniform(0.5, 1.5)) for i in range(side * side)}
    return build_finite_graph(edges, measure)


def grid_obstacle_problem():
    """grid-obstacle's kind of data: a bump, a sign-changing forcing and
    psi = 0 on a seeded 16 x 16 grid, over [0, 3]."""
    side = 16
    rng = np.random.default_rng(16)
    g = grid_graph(rng, side)
    dom = make_domain(g, range(g.num_vertices))
    ii, jj = np.divmod(np.arange(side * side), side)
    bump = np.maximum(0.0, 1.0 - ((ii - 7.5) ** 2 + (jj - 6.5) ** 2)
                      / (0.3 * side) ** 2)
    forcing = 0.2 * np.sin(2.0 * np.pi * ii / side + 1.0) \
        * np.cos(2.0 * np.pi * jj / side)
    return VIProblem(dom, ConstantForcing(VertexField(g, forcing)),
                     VertexField(g, bump),
                     constraint=Obstacle(VertexField.zeros(g)))


class TestActiveSetDifferential:
    """The active-set step against projected SOR on numpy arrays."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ell=st.floats(0.05, 2.0),
           relax=st.floats(1.0, 1.6),
           psi_kind=st.sampled_from(["zero", "random", "low"]),
           u_scale=st.floats(0.1, 10.0),
           f_scale=st.floats(0.1, 30.0))
    def test_step_matches_reference_psor(self, seed, ell, relax, psi_kind,
                                         u_scale, f_scale):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 30)
        dom = random_domain(rng, g)
        n = len(dom.interior_ids)
        lower = {"zero": np.zeros(n),
                 "random": rng.uniform(-0.5, 0.3, size=n),
                 "low": np.full(n, -1e3)}[psi_kind]
        psi = field_on_interior(dom, lower)
        u_prev = random_admissible(rng, dom, u_scale)
        f = VertexField(g, rng.normal(size=g.num_vertices) * f_scale)
        stepper = vi_stepper(dom, ell, f, Obstacle(psi))
        u, rep = stepper.step(1, stepper.op.restrict(u_prev), None)
        b, scale = _obstacle_rhs(stepper, u_prev, f)
        w, _ = reference_psor(stepper.S, lower, b,
                              stepper.op.restrict(u_prev), scale, relax,
                              1e-12)
        assert float(np.max(np.abs(u - w))) \
            <= 1e-9 * (1.0 + float(np.max(np.abs(u))))
        # entries the reference holds on the obstacle with a clear margin
        # of multiplier sit exactly on psi
        held = stepper.S @ w - b > 1e-6 * scale
        assert np.array_equal(u[held], lower[held])
        assert np.all(u >= lower)
        for residual in (rep.primal_residual, rep.dual_residual,
                         rep.complementarity, rep.variational_residual):
            assert residual <= 1e-12 * scale
        assert 1 <= rep.iterations <= n + 1

    def test_cg_path_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(63)
        g = random_connected_graph(rng, 20, 40)
        dom = random_domain(rng, g)
        psi = field_on_interior(dom, np.zeros(len(dom.interior_ids)))
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices) * 5.0)
        a, _ = one_vi_step(dom, u_prev, f, 0.5, Obstacle(psi))
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        b, _ = one_vi_step(dom, u_prev, f, 0.5, Obstacle(psi))
        assert 0 < np.count_nonzero(a.values[dom.interior_ids] == 0.0) \
            < len(dom.interior_ids)
        assert float(np.max(np.abs(a.values - b.values))) <= 1e-9

    def test_grid_iteration_count(self):
        prob = grid_obstacle_problem()
        dom = prob.domain
        run = run_vi(prob, TimePartition(3.0, 3))
        for rep, u in zip(run.reports, run.values[1:], strict=True):
            on = u[dom.interior_ids] == 0.0
            assert 0 < np.count_nonzero(on) < len(dom.interior_ids)
            assert 1 <= rep.iterations <= 6

    def test_exhaustion_levels(self):
        from graphrothe import LatticeZ2, exhaust_generative
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], 5)
        g = exh.graph
        forcing = VertexField(g, np.array(
            [1.0 if lab[0] > 0 else -2.0 for lab in g.labels]))
        psi = VertexField(g, np.array(
            [-0.25 if lab[1] > 0 else 0.0 for lab in g.labels]))
        prob = VIProblem(exh, ConstantForcing(forcing),
                         VertexField.from_mapping(g, {(0, 0): 1.0}),
                         constraint=Obstacle(psi))
        results = run_vi_exhaustion(prob, TimePartition(1.0, 4),
                                    levels=[3, 4, 5])
        assert results[1].delta_prev > 0.0 and results[2].delta_prev > 0.0
        for res in results:
            ids = res.domain.interior_ids
            lower = psi.values[ids]
            stepper = ViStepper(res.run.problem, res.run.partition)
            held = 0
            for rep, u_prev, u_next in zip(res.run.reports, res.run.values,
                                           res.run.values[1:]):
                b, scale = _obstacle_rhs(stepper, VertexField(g, u_prev),
                                         forcing)
                u = u_next[ids]
                r = stepper.S @ u - b
                assert np.all(u >= lower)
                assert float(np.max(-r)) <= 1e-12 * scale
                assert float(np.max(np.abs(r * (u - lower)))) \
                    <= 1e-12 * scale * (1.0 + float(np.max(np.abs(u))))
                assert 1 <= rep.iterations <= len(ids) + 1
                held += np.count_nonzero(u == lower)
            assert held > 0


def same_outcome(solve, reference):
    """Both calls give the same bits, returned, or raise the same error
    (None)."""
    try:
        expected = reference()
    except (NonConvergence, SolverBreakdown) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            solve()
        return None
    got = solve()
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return expected


class TestActiveSetBitIdentity:
    """The active-set method on mask-cut blocks, with a factor reused
    while the inactive set repeats, gives the same bits as slicing and
    factoring every block afresh (``reference_active_set_solve``)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ell=st.floats(0.05, 2.0),
           psi_kind=st.sampled_from(["zero", "random", "low"]),
           u_scale=st.floats(0.1, 10.0),
           f_scale=st.floats(0.1, 30.0),
           direct=st.booleans())
    def test_steps_and_runs_match_reference(self, seed, ell, psi_kind,
                                             u_scale, f_scale, direct):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 30)
        dom = random_domain(rng, g)
        op = dom.operator
        n = op.n
        lower = {"zero": np.zeros(n),
                 "random": rng.uniform(-0.5, 0.3, size=n),
                 "low": np.full(n, -1e3)}[psi_kind]
        psi = field_on_interior(dom, lower)
        S = op.step_matrix(ell)
        with pytest.MonkeyPatch.context() as mp:
            if not direct:
                mp.setattr(operators, "DIRECT_SOLVE_MAX", 0)
            # consecutive steps on one PrincipalBlocks, so a factor may
            # carry over from one step to the next
            blocks = PrincipalBlocks(S)
            w = rng.normal(0.0, u_scale, size=n)
            for _ in range(4):
                b = op.mass * (rng.normal(size=n) * f_scale + w / ell)
                w = same_outcome(
                    lambda: active_set_solve(blocks, b, lower, w),
                    lambda: reference_active_set_solve(S, b, lower, w))[0]
            field = VertexField(g, rng.normal(size=g.num_vertices) * f_scale)
            prob = VIProblem(dom, SeparableForcing(
                field, compile_time_expression("sin(3*t)")),
                random_admissible(rng, dom, u_scale),
                constraint=Obstacle(psi))
            part = TimePartition(6.0 * ell, 6)
            run = run_vi(prob, part)
            mp.setattr(vi, "active_set_solve",
                       lambda blocks, b, lower, u_start:
                       reference_active_set_solve(blocks.S, b, lower,
                                                  u_start))
            ref = run_vi(prob, part)
        assert run.values.tobytes() == ref.values.tobytes()
        assert run.reports == ref.reports

    @settings(max_examples=60, deadline=None)
    @given(b=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
           u_start=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           lower=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_cycling_spd_matrix(self, b, u_start, lower):
        # the matrix of TestActiveSetBudget, on which the sets may cycle;
        # three solves share one PrincipalBlocks
        S = CYCLING_SPD
        blocks = PrincipalBlocks(S)
        lower = np.array(lower)
        u = np.array(u_start)
        for rhs in np.reshape(b, (3, 3)):
            same_outcome(
                lambda: active_set_solve(blocks, rhs, lower, u),
                lambda: reference_active_set_solve(S, rhs, lower, u))

    def test_factor_reused_while_inactive_set_repeats(self, monkeypatch):
        builds = [0]

        class Counting(operators.CachedSPD):
            def __init__(self, *args, **kwargs):
                builds[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(operators, "CachedSPD", Counting)
        run = run_vi(grid_obstacle_problem(), TimePartition(3.0, 3))
        iterations = sum(rep.iterations for rep in run.reports)
        assert 0 < builds[0] < iterations


class TestStepperCaching:
    def test_cg_path_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(62)
        g = random_connected_graph(rng, 10, 30)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        a, _ = one_vi_step(dom, u_prev, f, 0.1)
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        b, _ = one_vi_step(dom, u_prev, f, 0.1)
        assert float(np.max(np.abs(a.values - b.values))) <= 1e-9

    def test_cached_stepper_matches_oneshot(self):
        rng = np.random.default_rng(55)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        stepper = vi_stepper(dom, 0.1, f)
        a, rep_a = stepper.step(1, stepper.op.restrict(u_prev), None)
        b, rep_b = one_vi_step(dom, u_prev, f, 0.1)
        assert np.array_equal(field_on_interior(dom, a).values, b.values)
        assert rep_a == rep_b
