import math

import numpy as np
import pytest

from graphrothe import (
    HeatProblem,
    VertexField,
    build_finite_graph,
    dirichlet_eigenbasis,
    exact_p1_solution,
    inner_product,
    integrate,
    make_domain,
    norms,
    ode_oracle,
)
from graphrothe.errors import StiffnessFailure, TimeOutOfRange
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
)


class TestEigenbasis:
    def test_single_interior(self):
        g, dom = five_path_domain()
        basis = dirichlet_eigenbasis(dom)
        assert basis.size == 1
        assert basis.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
        # (lambda + 1) * phi^2 = 1  ->  phi = 1/sqrt(3), sign-fixed positive
        assert basis.fields[0][2] == pytest.approx(1.0 / math.sqrt(3.0),
                                                   abs=1e-14)

    def test_two_interior_path(self):
        g = path_graph(6)
        dom = make_domain(g, [1, 2, 3, 4])
        basis = dirichlet_eigenbasis(dom)
        assert sorted(dom.interior) == [2, 3]
        assert np.allclose(basis.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_degenerate_pair_invariants(self):
        # two decoupled interior vertices, each with two exterior contacts
        g = path_graph(9)
        dom = make_domain(g, [1, 2, 3, 5, 6, 7])
        assert sorted(dom.interior) == [2, 6]
        basis = dirichlet_eigenbasis(dom)
        assert np.allclose(basis.eigenvalues, [2.0, 2.0], atol=1e-12)
        self._check_invariants(g, dom, basis)

    def _check_invariants(self, g, dom, basis):
        for j, phi in enumerate(basis.fields):
            assert phi.is_admissible(dom)
            assert basis.residuals[j] <= 1e-10 * (1.0 + basis.eigenvalues[j])
        for a in range(basis.size):
            for b in range(basis.size):
                val = inner_product(g, basis.fields[a], basis.fields[b],
                                    dom, "W12")
                assert val == pytest.approx(1.0 if a == b else 0.0,
                                            abs=1e-10)

    def test_random_graph_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 25)
            dom = random_domain(rng, g)
            basis = dirichlet_eigenbasis(dom)
            self._check_invariants(g, dom, basis)

    def test_normalization_relation(self):
        # (h, phi_j) in W equals (1 + lambda_j) * integral of h phi_j
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        for j, phi in enumerate(basis.fields):
            w_ip = inner_product(g, h, phi, dom, "W12")
            l2_ip = inner_product(g, h, phi, dom, "L2")
            assert w_ip == pytest.approx(
                (1.0 + basis.eigenvalues[j]) * l2_ip, abs=1e-10)

    def test_full_domain_reports_zero_mode(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        basis = dirichlet_eigenbasis(dom)
        assert basis.has_nonpositive_modes


class TestExactP1:
    def test_reconstructs_initial(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        u0 = exact_p1_solution(basis, h, [0.0])[0]
        assert np.allclose(u0.values, h.values, rtol=0.0, atol=1e-10)

    def test_single_interior_decay(self):
        g, dom = five_path_domain()
        h = VertexField.indicator(g, 2)
        basis = dirichlet_eigenbasis(dom)
        for t in (0.25, 1.0, 2.0):
            u = exact_p1_solution(basis, h, [t])[0]
            assert u[2] == pytest.approx(math.exp(-3.0 * t), abs=1e-13)

    def test_eigenfield_single_mode(self):
        g = path_graph(6)
        dom = make_domain(g, [1, 2, 3, 4])
        basis = dirichlet_eigenbasis(dom)
        k = 1
        u = exact_p1_solution(basis, basis.fields[k], [0.7])[0]
        lam = basis.eigenvalues[k]
        expect = math.exp(-(lam + 1.0) * 0.7) * basis.fields[k].values
        assert np.allclose(u.values, expect, rtol=0.0, atol=1e-12)

    def test_l2_decay_monotone(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        prev = math.inf
        for t in np.linspace(0.0, 2.0, 9):
            cur = norms(g, exact_p1_solution(basis, h, [float(t)])[0],
                        dom).l2_interior
            assert cur <= prev + 1e-12
            prev = cur

    def test_negative_time_rejected(self):
        g, dom = five_path_domain()
        basis = dirichlet_eigenbasis(dom)
        with pytest.raises(TimeOutOfRange):
            exact_p1_solution(basis, VertexField.indicator(g, 2), [-0.1])


class TestOdeOracle:
    def test_matches_exact_p1(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(rng, 5, 15)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        prob = HeatProblem(dom, 1.0, h, 1.0)
        tol = 1e-10
        times = [0.2, 0.5, 1.0]
        fields = ode_oracle(prob, times, tol=tol)
        for t, u in zip(times, fields):
            ref = exact_p1_solution(basis, h, [t])[0]
            assert float(np.max(np.abs(u.values - ref.values))) <= 10.0 * tol

    def test_zero_data(self):
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 2.0, VertexField.zeros(g), 1.0)
        for u in ode_oracle(prob, [0.3, 0.9], tol=1e-10):
            assert np.all(u.values == 0.0)

    def test_p3_bernoulli_closed_form(self):
        # du/dt = -2u - u^3, u(0) = 1 has u(t) = (1.5 e^{4t} - 0.5)^{-1/2}
        t = 0.1
        expect = (1.5 * math.exp(4.0 * t) - 0.5) ** -0.5
        assert expect == pytest.approx(0.7585914964015493, abs=1e-15)
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 3.0, VertexField.indicator(g, 2), 1.0)
        u = ode_oracle(prob, [t], tol=1e-12)[0]
        assert u[2] == pytest.approx(expect, abs=1e-10)

    def test_tolerance_floor(self):
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 2), 1.0)
        with pytest.raises(ValueError):
            ode_oracle(prob, [0.5], tol=1e-14)

    def test_stiffness_failure(self):
        g = build_finite_graph([(0, 1, 1e9), (1, 2, 1e9)],
                               {i: 1.0 for i in range(3)})
        dom = make_domain(g, [0, 1, 2])
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 1), 1.0)
        with pytest.raises(StiffnessFailure):
            ode_oracle(prob, [1.0], tol=1e-10)

    def test_unsorted_times(self):
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 2), 1.0)
        a = ode_oracle(prob, [1.0, 0.25], tol=1e-11)
        b = ode_oracle(prob, [0.25, 1.0], tol=1e-11)
        assert np.array_equal(a[0].values, b[1].values)
        assert np.array_equal(a[1].values, b[0].values)
