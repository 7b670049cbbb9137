import math

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
    vi_step,
)
from graphrothe.errors import (
    InsufficientSamples,
    NonConvergence,
    TimeOutOfRange,
)
from graphrothe import operators
from graphrothe.operators import DirichletOperator
from graphrothe.timeexpr import compile_time_expression
from graphrothe.vi import ViStepper, active_set_solve, forcing_step_function
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_psor,
)


class TestViStep:
    def test_scalar_subspace(self):
        g, dom = five_path_domain()
        u_prev = VertexField.indicator(g, 2)
        u, rep = vi_step(dom, u_prev, VertexField.zeros(g), 0.1)
        assert u[2] == pytest.approx(5.0 / 6.0, abs=1e-14)
        assert rep.variational_residual <= 1e-10 * (1.0 + 10.0)
        assert rep.beta == pytest.approx(min(10.0, 1.0))

    def test_zero_rhs(self):
        g, dom = five_path_domain()
        u, _ = vi_step(dom, VertexField.zeros(g), VertexField.zeros(g), 0.1)
        assert np.all(u.values == 0.0)

    def test_scalar_obstacle_clamps(self):
        # unconstrained value (10 - 20)/12 < 0 clamps to the obstacle 0;
        # residual r = 12*0 - (-20 + 10) = 10 >= 0 and r (u - psi) = 0
        g, dom = five_path_domain()
        u_prev = VertexField.indicator(g, 2)
        f = VertexField.from_mapping(g, {2: -20.0})
        u, rep = vi_step(dom, u_prev, f, 0.1, Obstacle(VertexField.zeros(g)))
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
            u, _ = vi_step(dom, u_prev, f, ell)
            op = DirichletOperator(dom)
            S = op.stiffness.toarray() + np.diag(op.mass / ell)
            b = op.mass * (op.restrict(f) + op.restrict(u_prev) / ell)
            ref = np.linalg.solve(S, b)
            scale = 1.0 + float(np.max(np.abs(b)))
            assert float(np.max(np.abs(op.restrict(u) - ref))) \
                <= 1e-10 * scale

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
            u_new, _ = vi_step(dom, u_prev, f, ell, Obstacle(psi))
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
        stepper = ViStepper(dom, 0.2, Obstacle(psi))
        u, _ = stepper.step(1, stepper.op.restrict(u_prev),
                            stepper.op.restrict(f))
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
                         VertexField.zeros(g), 1.0)
        run = run_vi(prob, TimePartition(1.0, 10))
        for u in run.fields:
            assert np.all(u.values == 0.0)

    def test_linear_decay_endpoint(self):
        # pure subspace flow decays like e^{-2t}; backward-Euler endpoint
        # error floor at n=1000 is |1.002^-1000 - e^-2| = 2.706e-4
        g, dom = five_path_domain()
        prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                         VertexField.indicator(g, 2), 1.0)
        run = run_vi(prob, TimePartition(1.0, 1000))
        assert run.fields[-1][2] == pytest.approx(math.exp(-2.0), abs=3e-4)

    def test_constant_forcing_steady_state(self):
        g, dom = five_path_domain()
        f = VertexField.from_mapping(g, {2: 1.0})
        prob = VIProblem(dom, ConstantForcing(f),
                         VertexField.zeros(g), 50.0)
        run = run_vi(prob, TimePartition(50.0, 500))
        op = DirichletOperator(dom)
        steady = np.linalg.solve(op.stiffness.toarray(),
                                 op.mass * op.restrict(f))
        resid = float(np.max(np.abs(
            op.stiffness @ op.restrict(run.fields[-1])
            - op.mass * op.restrict(f))))
        assert resid <= 1e-6
        assert op.restrict(run.fields[-1])[0] == pytest.approx(steady[0],
                                                               abs=1e-6)

    def test_contraction_between_initials(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        f = ConstantForcing(VertexField(g, rng.normal(size=g.num_vertices)))
        g1 = random_admissible(rng, dom)
        g2 = random_admissible(rng, dom)
        part = TimePartition(1.0, 20)
        run1 = run_vi(VIProblem(dom, f, g1, 1.0), part)
        run2 = run_vi(VIProblem(dom, f, g2, 1.0), part)
        prev = math.inf
        scale = 1.0 + norms(g, g1, dom).l2_interior \
            + norms(g, g2, dom).l2_interior
        for u1, u2 in zip(run1.fields, run2.fields):
            diff = VertexField(g, u1.values - u2.values)
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
        prob = VIProblem(dom, forcing, init, 1.0)
        return g, dom, run_vi(prob, TimePartition(1.0, 15))

    def test_recurrence_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g, dom, run = self._random_run(rng)
            report = vi_monotonicity_monitor(run)
            bound_scale = 1.0 + report.max_quotient
            assert report.max_slack <= 1e-10 * bound_scale
            for row in report.rows:
                assert row.quotient_l2 <= report.cumulative_bound \
                    + 1e-10 * bound_scale

    def test_constant_forcing_nonincreasing_quotients(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        forcing = ConstantForcing(
            VertexField(g, rng.normal(size=g.num_vertices)))
        prob = VIProblem(dom, forcing, random_admissible(rng, dom), 1.0)
        run = run_vi(prob, TimePartition(1.0, 15))
        report = vi_monotonicity_monitor(run)
        qs = [row.quotient_l2 for row in report.rows]
        for a, b in zip(qs, qs[1:]):
            assert b <= a + 1e-10 * (1.0 + qs[0])

    def test_zero_run_zero_quotients(self):
        g, dom = five_path_domain()
        prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                         VertexField.zeros(g), 1.0)
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

    def test_insufficient_samples(self):
        g, dom = five_path_domain()
        with pytest.raises(InsufficientSamples):
            lipschitz_validate(ConstantForcing(VertexField.zeros(g)),
                               [0.5], dom)


class TestForcingProviders:
    def test_table_forcing_exact_times(self):
        g, dom = five_path_domain()
        fields = [VertexField.from_mapping(g, {2: float(k)})
                  for k in range(3)]
        forcing = TableForcing([0.0, 0.5, 1.0], fields)
        assert forcing.at(0.5)[2] == 1.0
        with pytest.raises(TimeOutOfRange):
            forcing.at(0.3)

    def test_step_function_reconstruction(self):
        g, dom = five_path_domain()
        chi = VertexField.indicator(g, 2)
        forcing = SeparableForcing(chi, compile_time_expression("t"))
        prob = VIProblem(dom, forcing, VertexField.zeros(g), 1.0)
        part = TimePartition(1.0, 4)
        ell = part.step_size
        assert forcing_step_function(prob, part, -0.1)[2] == 0.0
        assert forcing_step_function(prob, part, 0.1)[2] == 0.25
        assert forcing_step_function(prob, part, 0.25)[2] == 0.25
        assert forcing_step_function(prob, part, 0.26)[2] == 0.5
        with pytest.raises(TimeOutOfRange):
            forcing_step_function(prob, part, 1.2)


class TestViExhaustion:
    def test_finite_stabilizes(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 8)
        forcing = ConstantForcing(VertexField.indicator(g, 3))
        prob = VIProblem(exh, forcing, VertexField.indicator(g, 2), 0.5)
        results = run_vi_exhaustion(prob, TimePartition(0.5, 8),
                                    levels=[6, 7, 8])
        assert results[1].delta_prev == 0.0
        assert results[2].delta_prev == 0.0

    def test_lattice_deltas_decay(self):
        from graphrothe import LatticeZ, exhaust_generative
        exh = exhaust_generative(LatticeZ(), [0], 12)
        g = exh.graph
        forcing = ConstantForcing(VertexField.from_mapping(g, {0: 1.0}))
        prob = VIProblem(exh, forcing, VertexField.from_mapping(g, {0: 0.5}),
                         1.0)
        results = run_vi_exhaustion(prob, TimePartition(1.0, 25),
                                    levels=[4, 8, 12])
        deltas = [r.delta_prev for r in results[1:]]
        assert deltas[0] > deltas[1] > 0.0

    def test_zero_data_zero_levels(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        exh = exhaust(dom, [0], 6)
        prob = VIProblem(exh, ConstantForcing(VertexField.zeros(g)),
                         VertexField.zeros(g), 0.5)
        results = run_vi_exhaustion(prob, TimePartition(0.5, 5),
                                    levels=[5, 6])
        for res in results:
            assert np.all(res.run.fields[-1].values == 0.0)


class TestActiveSetBudget:
    def test_cycle_stopped_by_budget(self):
        # a P-matrix that is no M-matrix, on which the active sets cycle
        # (Ben Gharbia and Gilbert, Math. Program. 134, 2012): the step
        # stops after n + 1 iterations instead of looping
        S = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0],
                                    [2.0, 0.0, 1.0]]))
        with pytest.raises(NonConvergence, match="did not settle in 4"):
            active_set_solve(S, np.ones(3), np.zeros(3),
                             np.array([-1.0, -1.0, 1.0]))

    def test_kkt_target_unmet(self):
        rng = np.random.default_rng(61)
        g = random_connected_graph(rng, 10, 20)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        psi = field_on_interior(dom, np.zeros(len(dom.interior_ids)))
        with pytest.raises(NonConvergence, match="KKT tolerance 1e-30"):
            vi_step(dom, u_prev, f, 0.2, Obstacle(psi), kkt_tol=1e-30)


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
        stepper = ViStepper(dom, ell, Obstacle(psi))
        u, rep = stepper.step(1, stepper.op.restrict(u_prev),
                              stepper.op.restrict(f))
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
        a, _ = vi_step(dom, u_prev, f, 0.5, Obstacle(psi))
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        b, _ = vi_step(dom, u_prev, f, 0.5, Obstacle(psi))
        assert 0 < np.count_nonzero(a.values[dom.interior_ids] == 0.0) \
            < len(dom.interior_ids)
        assert float(np.max(np.abs(a.values - b.values))) <= 1e-9

    def test_grid_iteration_count(self):
        # grid-obstacle's kind of data: a bump, a sign-changing forcing,
        # psi = 0, step 1 on a 16 x 16 grid
        side = 16
        rng = np.random.default_rng(16)
        g = grid_graph(rng, side)
        dom = make_domain(g, range(g.num_vertices))
        ii, jj = np.divmod(np.arange(side * side), side)
        bump = np.maximum(0.0, 1.0 - ((ii - 7.5) ** 2 + (jj - 6.5) ** 2)
                          / (0.3 * side) ** 2)
        forcing = 0.2 * np.sin(2.0 * np.pi * ii / side + 1.0) \
            * np.cos(2.0 * np.pi * jj / side)
        prob = VIProblem(dom, ConstantForcing(VertexField(g, forcing)),
                         VertexField(g, bump), 3.0,
                         constraint=Obstacle(VertexField.zeros(g)))
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
                         VertexField.from_mapping(g, {(0, 0): 1.0}), 1.0,
                         constraint=Obstacle(psi))
        results = run_vi_exhaustion(prob, TimePartition(1.0, 4),
                                    levels=[3, 4, 5])
        assert results[1].delta_prev > 0.0 and results[2].delta_prev > 0.0
        for res in results:
            ids = res.domain.interior_ids
            lower = psi.values[ids]
            stepper = ViStepper(res.domain, 0.25, Obstacle(psi))
            held = 0
            for rep, u_prev, u_next in zip(res.run.reports, res.run.fields,
                                           res.run.values[1:]):
                b, scale = _obstacle_rhs(stepper, u_prev, forcing)
                u = u_next[ids]
                r = stepper.S @ u - b
                assert np.all(u >= lower)
                assert float(np.max(-r)) <= 1e-12 * scale
                assert float(np.max(np.abs(r * (u - lower)))) \
                    <= 1e-12 * scale * (1.0 + float(np.max(np.abs(u))))
                assert 1 <= rep.iterations <= len(ids) + 1
                held += np.count_nonzero(u == lower)
            assert held > 0


class TestStepperCaching:
    def test_cg_path_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(62)
        g = random_connected_graph(rng, 10, 30)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        a, _ = vi_step(dom, u_prev, f, 0.1)
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        b, _ = vi_step(dom, u_prev, f, 0.1)
        assert float(np.max(np.abs(a.values - b.values))) <= 1e-9

    def test_cached_stepper_matches_oneshot(self):
        rng = np.random.default_rng(55)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        stepper = ViStepper(dom, 0.1)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        a, rep_a = stepper.step(1, stepper.op.restrict(u_prev),
                                stepper.op.restrict(f))
        b, rep_b = vi_step(dom, u_prev, f, 0.1)
        assert np.array_equal(stepper.op.extend(a).values, b.values)
        assert rep_a == rep_b
