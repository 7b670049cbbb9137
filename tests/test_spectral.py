import math

import numpy as np
import pytest

from graphrothe import (
    HeatProblem,
    LatticeZ2,
    VertexField,
    build_finite_graph,
    dirichlet_eigenbasis,
    exact_p1_solution,
    inner_product,
    integrate,
    make_domain,
    materialize_ball,
    norms,
    ode_oracle,
)
from graphrothe.calculus import w12_gram
from graphrothe.errors import StiffnessFailure, TimeOutOfRange
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_dirichlet_eigenbasis,
    reference_exact_p1_solution,
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
        fields = basis.fields
        for j, phi in enumerate(fields):
            assert phi.is_admissible(dom)
            assert basis.residuals[j] <= 1e-10 * (1.0 + basis.eigenvalues[j])
        for a in range(basis.size):
            for b in range(basis.size):
                val = inner_product(g, fields[a], fields[b], dom, "W12")
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


def _random_cases(seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = random_connected_graph(rng, 5, 40)
        dom = random_domain(rng, g)
        yield rng, g, dom


class TestAgainstPerModeReference:
    """The matrix form of the basis against the parent's per-mode loops."""

    def test_basis_bit_identical(self):
        for _, g, dom in _random_cases(21):
            basis = dirichlet_eigenbasis(dom)
            lam, fields, residuals = reference_dirichlet_eigenbasis(dom)
            assert basis.eigenvalues.tobytes() == lam.tobytes()
            ids = dom.interior_ids
            ref = np.column_stack([phi.values[ids] for phi in fields])
            assert basis.vectors.tobytes() == ref.tobytes()
            for phi, ref_phi in zip(basis.fields, fields):
                assert phi.values.tobytes() == ref_phi.values.tobytes()
            assert np.allclose(basis.residuals, residuals,
                               rtol=1e-12, atol=1e-30)
            assert not basis.vectors.flags.writeable

    def test_exact_p1_agrees(self):
        for rng, g, dom in _random_cases(22):
            h = random_admissible(rng, dom)
            basis = dirichlet_eigenbasis(dom)
            lam, fields, _ = reference_dirichlet_eigenbasis(dom)
            times = [0.0, 0.1, 0.75, 3.0]
            got = exact_p1_solution(basis, h, times)
            ref = reference_exact_p1_solution(dom, lam, fields, h, times)
            scale = max(float(np.max(np.abs(u.values))) for u in ref)
            assert got.shape == (len(times), g.num_vertices)
            for u, v in zip(got, ref):
                assert VertexField(g, u).is_admissible(dom)
                assert float(np.max(np.abs(u - v.values))) \
                    <= 1e-13 * scale

    def test_empty_times(self):
        g, dom = five_path_domain()
        basis = dirichlet_eigenbasis(dom)
        assert exact_p1_solution(basis, VertexField.indicator(g, 2),
                                 []).shape == (0, g.num_vertices)

    def test_gram_defect_matches_pairwise(self):
        for _, g, dom in _random_cases(23):
            basis = dirichlet_eigenbasis(dom)
            fields = basis.fields
            pairwise = max(
                abs(inner_product(g, fields[a], fields[b], dom, "W12")
                    - (1.0 if a == b else 0.0))
                for a in range(basis.size) for b in range(a, basis.size))
            gram = w12_gram(g, dom, basis.vectors)
            assert gram.shape == (basis.size, basis.size)
            defect = float(np.max(np.abs(gram - np.eye(basis.size))))
            assert abs(defect - pairwise) <= 1e-13

    def test_gram_of_arbitrary_fields(self):
        # not only of an orthonormal basis: any admissible fields
        rng = np.random.default_rng(24)
        g = random_connected_graph(rng, 10, 30)
        dom = random_domain(rng, g)
        fields = [random_admissible(rng, dom) for _ in range(4)]
        vectors = np.column_stack([f.values[dom.interior_ids]
                                   for f in fields])
        gram = w12_gram(g, dom, vectors)
        for a in range(4):
            for b in range(4):
                assert gram[a, b] == pytest.approx(
                    inner_product(g, fields[a], fields[b], dom, "W12"),
                    rel=1e-12, abs=1e-12)


    def test_gram_on_incomplete_boundary(self):
        # the rim of a lattice ball has unmaterialized neighbours; with one
        # more ring materialized the same domain has none
        rim = materialize_ball(LatticeZ2(), [(0, 0)], 3)
        dom = make_domain(rim, range(rim.num_vertices))
        big = materialize_ball(LatticeZ2(), [(0, 0)], 4)
        dom_big = make_domain(big, [big.vertex(lab) for lab in rim.labels])
        assert [big.labels[i] for i in dom_big.interior_ids] \
            == [rim.labels[i] for i in dom.interior_ids]
        rng = np.random.default_rng(25)
        vectors = rng.normal(size=(dom.num_interior, 3))
        assert np.allclose(w12_gram(rim, dom, vectors),
                           w12_gram(big, dom_big, vectors),
                           rtol=1e-14, atol=1e-14)


class TestExactP1:
    def test_reconstructs_initial(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        u0 = exact_p1_solution(basis, h, [0.0])[0]
        assert np.allclose(u0, h.values, rtol=0.0, atol=1e-10)

    def test_single_interior_decay(self):
        g, dom = five_path_domain()
        h = VertexField.indicator(g, 2)
        basis = dirichlet_eigenbasis(dom)
        for t in (0.25, 1.0, 2.0):
            u = exact_p1_solution(basis, h, [t])[0]
            assert u[g.vertex(2)] == pytest.approx(math.exp(-3.0 * t),
                                                   abs=1e-13)

    def test_eigenfield_single_mode(self):
        g = path_graph(6)
        dom = make_domain(g, [1, 2, 3, 4])
        basis = dirichlet_eigenbasis(dom)
        k = 1
        u = exact_p1_solution(basis, basis.fields[k], [0.7])[0]
        lam = basis.eigenvalues[k]
        expect = math.exp(-(lam + 1.0) * 0.7) * basis.fields[k].values
        assert np.allclose(u, expect, rtol=0.0, atol=1e-12)

    def test_l2_decay_monotone(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 5, 20)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        basis = dirichlet_eigenbasis(dom)
        prev = math.inf
        for t in np.linspace(0.0, 2.0, 9):
            u = exact_p1_solution(basis, h, [float(t)])[0]
            cur = norms(g, VertexField(g, u), dom).l2_interior
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
        values = ode_oracle(prob, times, tol=tol)
        assert values.shape == (len(times), g.num_vertices)
        for t, u in zip(times, values):
            ref = exact_p1_solution(basis, h, [t])[0]
            assert float(np.max(np.abs(u - ref))) <= 10.0 * tol

    def test_zero_data(self):
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 2.0, VertexField.zeros(g), 1.0)
        for u in ode_oracle(prob, [0.3, 0.9], tol=1e-10):
            assert np.all(u == 0.0)

    def test_p3_bernoulli_closed_form(self):
        # du/dt = -2u - u^3, u(0) = 1 has u(t) = (1.5 e^{4t} - 0.5)^{-1/2}
        t = 0.1
        expect = (1.5 * math.exp(4.0 * t) - 0.5) ** -0.5
        assert expect == pytest.approx(0.7585914964015493, abs=1e-15)
        g, dom = five_path_domain()
        prob = HeatProblem(dom, 3.0, VertexField.indicator(g, 2), 1.0)
        u = ode_oracle(prob, [t], tol=1e-12)[0]
        assert u[g.vertex(2)] == pytest.approx(expect, abs=1e-10)

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
        assert np.array_equal(a[0], b[1])
        assert np.array_equal(a[1], b[0])
