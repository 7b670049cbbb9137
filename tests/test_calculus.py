import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import (
    VertexField,
    build_finite_graph,
    compute_metrics,
    field_on_interior,
    gamma,
    green_identity_check,
    inner_product,
    integrate,
    laplacian,
    make_domain,
    materialize_ball,
    norms,
    LatticeZ,
    LatticeZ2,
)
from graphrothe.calculus import _gamma_integral, power_integral
from graphrothe.errors import (
    EmptyInteriorWarning,
    InvalidQ,
    NotDirichletAdmissible,
    UnmaterializedNeighbor,
)
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_gamma,
    reference_green_identity_check,
    reference_laplacian,
    reference_norms,
    reference_power_integral,
    stack_bundles,
)


def green_both_sides_bruteforce(g, dom, v1, v2):
    """Independent double-sum evaluation of both sides of the identity."""
    lhs = 0.0
    for x in dom.interior_ids.tolist():
        acc = 0.0
        nbrs, w = g.neighbors(x)
        for j, wj in zip(nbrs, w):
            acc += wj * (v1.values[int(j)] - v1.values[x])
        lhs -= acc * v2.values[x]
    rhs = 0.0
    for x in dom.omega_ids.tolist():
        nbrs, w = g.neighbors(x)
        for j, wj in zip(nbrs, w):
            rhs += 0.5 * wj * (v1.values[int(j)] - v1.values[x]) \
                * (v2.values[int(j)] - v2.values[x])
    return lhs, rhs


class TestLaplacianGamma:
    def test_indicator_center(self):
        g = path_graph(3)
        v = VertexField.indicator(g, 1)
        assert laplacian(g, v, 1) == -2.0
        assert laplacian(g, v, 0) == 1.0

    def test_constant_field(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_connected_graph(rng, 5, 20)
            c = VertexField(g, np.full(g.num_vertices, 3.75))
            for i in range(g.num_vertices):
                assert laplacian(g, c, i) == 0.0
                assert gamma(g, c, c, i) == 0.0

    def test_gamma_indicator(self):
        g = path_graph(3)
        v = VertexField.indicator(g, 1)
        assert gamma(g, v, v, 1) == 1.0
        assert gamma(g, v, v, 0) == 0.5

    def test_gamma_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 5, 25)
        w = VertexField(g, rng.normal(size=g.num_vertices))
        v = VertexField(g, rng.normal(size=g.num_vertices))
        for i in range(g.num_vertices):
            assert gamma(g, w, v, i) == gamma(g, v, w, i)
            assert gamma(g, v, v, i) >= 0.0

    def test_refuses_incomplete_vertex(self):
        g = materialize_ball(LatticeZ(), [0], 2)
        v = VertexField.zeros(g)
        with pytest.raises(UnmaterializedNeighbor):
            laplacian(g, v, g.vertex(2))


class TestIntegrate:
    def test_counting_measure(self):
        g = path_graph(3)
        one = VertexField(g, np.ones(3))
        assert integrate(g, one) == 3.0

    def test_weighted(self):
        g = build_finite_graph([(0, 1, 1.0), (1, 2, 1.0)],
                               {0: 2.0, 1: 3.0, 2: 4.0})
        one = VertexField(g, np.ones(3))
        assert integrate(g, one) == 9.0

    def test_empty_subset(self):
        g = path_graph(3)
        assert integrate(g, VertexField(g, np.ones(3)), over=[]) == 0.0


class TestNorms:
    def test_zero_field(self):
        g = path_graph(3)
        dom = make_domain(g, range(3))
        nb = norms(g, VertexField.zeros(g), dom)
        assert (nb.l2_interior, nb.l2_domain, nb.lq, nb.w12, nb.grad_l2) \
            == (0.0,) * 5

    def test_indicator_norms(self):
        g = path_graph(3)
        dom = make_domain(g, range(3))
        v = VertexField.indicator(g, 1)
        nb = norms(g, v, dom)
        assert nb.l2_domain == 1.0
        assert nb.grad_l2 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert nb.w12 == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_sup_norm(self):
        g = path_graph(3)
        dom = make_domain(g, range(3))
        v = VertexField.indicator(g, 1)
        assert norms(g, v, dom, q=math.inf).lq == 1.0

    def test_invalid_q(self):
        g = path_graph(3)
        dom = make_domain(g, range(3))
        with pytest.raises(InvalidQ):
            norms(g, VertexField.zeros(g), dom, q=0.5)


class TestInnerProduct:
    def test_disjoint_indicators(self):
        g = path_graph(5)
        dom = make_domain(g, range(5))
        a = VertexField.indicator(g, 0)
        b = VertexField.indicator(g, 3)
        assert inner_product(g, a, b, dom, "L2") == 0.0

    def test_w12_indicator(self):
        g = path_graph(3)
        dom = make_domain(g, range(3))
        v = VertexField.indicator(g, 1)
        assert inner_product(g, v, v, dom, "W12") == pytest.approx(3.0,
                                                                   abs=1e-15)

    def test_l2_matches_norm(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        v = random_admissible(rng, dom)
        ip = inner_product(g, v, v, dom, "L2")
        assert ip == pytest.approx(norms(g, v, dom).l2_interior ** 2,
                                   rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        w = VertexField(g, rng.normal(size=g.num_vertices))
        v = VertexField(g, rng.normal(size=g.num_vertices))
        for kind in ("L2", "W12"):
            assert inner_product(g, w, v, dom, kind) \
                == inner_product(g, v, w, dom, kind)


class TestGreenIdentity:
    def test_p5_hand_case(self):
        g, dom = five_path_domain()
        v = VertexField.indicator(g, 2)
        lhs, rhs = green_both_sides_bruteforce(g, dom, v, v)
        assert lhs == 2.0 and rhs == 2.0
        assert green_identity_check(g, dom, v, v) == 0.0

    def test_zero_field(self):
        g, dom = five_path_domain()
        z = VertexField.zeros(g)
        assert green_identity_check(g, dom, z, z) == 0.0

    def test_requires_admissible(self):
        g, dom = five_path_domain()
        v = VertexField.indicator(g, 0)
        with pytest.raises(NotDirichletAdmissible):
            green_identity_check(g, dom, v, v)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_fields_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 50)
        dom = random_domain(rng, g)
        v1 = random_admissible(rng, dom)
        v2 = random_admissible(rng, dom)
        lhs, rhs = green_both_sides_bruteforce(g, dom, v1, v2)
        assert green_identity_check(g, dom, v1, v2) \
            <= 1e-10 * (1.0 + abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_summation_by_parts_positivity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            v = random_admissible(rng, dom)
            lhs, _ = green_both_sides_bruteforce(g, dom, v, v)
            assert lhs >= -1e-12 * (1.0 + abs(lhs))


class TestLaplacianBound:
    def test_l2_operator_bound(self):
        # |Laplacian v|^2 over the interior <= 2 (D_mu M_d)^2 |v|^2 over Omega
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            v = random_admissible(rng, dom)
            m = compute_metrics(g)
            lap_sq = 0.0
            for i in dom.interior_ids.tolist():
                lap_sq += g.mu[i] * laplacian(g, v, i) ** 2
            bound = 2.0 * (m.dmu * m.max_degree) ** 2 \
                * norms(g, v, dom).l2_domain ** 2
            assert lap_sq <= bound * (1.0 + 1e-12)


def gamma_integral_loop(g, w, v, ids):
    """The per-vertex reference: mu-weighted ``reference_gamma`` added in
    id order."""
    total = 0.0
    for i in ids:
        total = total + g.mu[i] * reference_gamma(g, w, v, int(i))
    return total


def w12_loop(g, w, v, dom):
    total = 0.0
    for i in dom.omega_ids:
        i = int(i)
        total = total + g.mu[i] * (reference_gamma(g, w, v, i)
                                   + w.values[i] * v.values[i])
    return total


def dense_random_graph(rng):
    """20 to 40 vertices with edge probability 0.4 to 0.7, so that degrees
    exceed 8; weights and measures span several decades."""
    n = int(rng.integers(20, 41))
    prob = rng.uniform(0.4, 0.7)
    edges = [(i, i + 1, 10.0 ** rng.uniform(-3, 3)) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < prob:
                edges.append((i, j, 10.0 ** rng.uniform(-3, 3)))
    measure = {i: 10.0 ** rng.uniform(-3, 3) for i in range(n)}
    return build_finite_graph(edges, measure)


def wide_field(rng, g):
    """Signed magnitudes from 1e-300 to 1e300, exact zeros of both signs
    and repeated values, so that some differences vanish exactly."""
    n = g.num_vertices
    lo = rng.uniform(-300.0, 300.0)
    hi = min(300.0, lo + rng.uniform(0.0, 300.0))
    vals = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(lo, hi, n)
    kind = rng.integers(0, 4, size=n)
    vals[kind == 1] = 0.0
    vals[kind == 2] = -0.0
    vals[kind == 3] = vals[0]
    return VertexField(g, vals)


def bits(x):
    """Exact identity of a float; repr tells -0.0 from 0.0."""
    return repr(float(x))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestVectorizedGammaBitIdentity:
    """The vectorized gradient-form integrals against the per-vertex
    ``gamma`` loop, bit for bit; at the wide magnitudes some terms
    overflow, and both sides must overflow alike."""

    def test_random_dense_graphs(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(150):
            g = dense_random_graph(rng)
            assert max(g.degree(i) for i in range(g.num_vertices)) > 8
            dom = random_domain(rng, g, keep=rng.uniform(0.3, 1.0))
            w = wide_field(rng, g)
            v = wide_field(rng, g)
            for a, b in ((w, v), (v, v), (w, w)):
                assert bits(_gamma_integral(g, a, b, dom.omega_ids)) \
                    == bits(gamma_integral_loop(g, a, b, dom.omega_ids))
                assert bits(inner_product(g, a, b, dom, "W12")) \
                    == bits(w12_loop(g, a, b, dom))
            grad_sq = gamma_integral_loop(g, v, v, dom.omega_ids)
            assert bits(norms(g, v, dom).grad_l2) \
                == bits(math.sqrt(max(grad_sq, 0.0)))
            # arbitrary subsets, in arbitrary order, repeats allowed
            for _ in range(3):
                ids = rng.integers(0, g.num_vertices,
                                   size=int(rng.integers(0, 2 * g.num_vertices)))
                assert bits(_gamma_integral(g, w, v, ids)) \
                    == bits(gamma_integral_loop(g, w, v, ids))
            checked += math.isfinite(grad_sq)
        assert checked > 50

    def test_signed_zero_fields(self):
        g = dense_random_graph(np.random.default_rng(5))
        dom = make_domain(g, range(g.num_vertices))
        for vals in (np.zeros(g.num_vertices), np.full(g.num_vertices, -0.0)):
            z = VertexField(g, vals)
            assert bits(_gamma_integral(g, z, z, dom.omega_ids)) \
                == bits(gamma_integral_loop(g, z, z, dom.omega_ids))
            assert bits(inner_product(g, z, z, dom, "W12")) \
                == bits(w12_loop(g, z, z, dom))
        assert bits(_gamma_integral(g, z, z, [])) == bits(0.0)

    def test_lattice_rim_names_same_vertex(self):
        g = materialize_ball(LatticeZ2(), [(0, 0)], 3)
        rng = np.random.default_rng(8)
        v = VertexField(g, rng.normal(size=g.num_vertices))
        dom = make_domain(g, range(g.num_vertices))
        for _ in range(20):
            ids = rng.permutation(g.num_vertices)[:12]
            if all(g.complete[ids]):
                continue
            with pytest.raises(UnmaterializedNeighbor) as ref:
                gamma_integral_loop(g, v, v, ids)
            with pytest.raises(UnmaterializedNeighbor) as got:
                _gamma_integral(g, v, v, ids)
            assert str(got.value) == str(ref.value)
        with pytest.raises(UnmaterializedNeighbor) as ref:
            w12_loop(g, v, v, dom)
        for call in (lambda: norms(g, v, dom),
                     lambda: inner_product(g, v, v, dom, "W12")):
            with pytest.raises(UnmaterializedNeighbor) as got:
                call()
            assert str(got.value) == str(ref.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestOneSlotPath:
    """``laplacian``, ``gamma`` and ``green_identity_check`` take their
    neighbour sums from one ``seq_sum`` over the slot segments, and give
    the bits of their per-vertex forms: one neighbour slice and one
    ordered sum per vertex, and the identity's left side added by a loop
    over the interior."""

    def test_vertex_forms_match_per_vertex_references(self):
        rng = np.random.default_rng(2030)
        for _ in range(40):
            g = dense_random_graph(rng)
            w, v = wide_field(rng, g), wide_field(rng, g)
            for i in range(g.num_vertices):
                assert bits(laplacian(g, v, i)) \
                    == bits(reference_laplacian(g, v, i))
                for a, b in ((w, v), (v, w), (v, v)):
                    assert bits(gamma(g, a, b, i)) \
                        == bits(reference_gamma(g, a, b, i))

    def test_green_identity_matches_interior_loop(self):
        rng = np.random.default_rng(2031)
        for _ in range(60):
            g = dense_random_graph(rng) if rng.random() < 0.5 \
                else random_connected_graph(rng, 5, 50)
            dom = random_domain(rng, g, keep=rng.uniform(0.3, 1.0))
            fields = [field_on_interior(dom, wide_field(rng, g).values[
                dom.interior_ids]) for _ in range(2)]
            fields.append(random_admissible(rng, dom))
            for v1 in fields:
                for v2 in fields:
                    assert bits(green_identity_check(g, dom, v1, v2)) \
                        == bits(reference_green_identity_check(
                            g, dom, v1, v2))

    def test_green_identity_names_incomplete_vertex(self):
        g = materialize_ball(LatticeZ2(), [(0, 0)], 3)
        dom = make_domain(g, range(g.num_vertices))
        v = random_admissible(np.random.default_rng(3), dom)
        with pytest.raises(UnmaterializedNeighbor) as ref:
            reference_green_identity_check(g, dom, v, v)
        with pytest.raises(UnmaterializedNeighbor) as got:
            green_identity_check(g, dom, v, v)
        assert str(got.value) == str(ref.value)


NORM_FIELDS = ("l2_interior", "l2_domain", "lq", "w12", "grad_l2")


def bundle_bits(nb):
    """Each field of a bundle exactly: a float by ``bits``, an array by
    the ``bits`` of each entry."""
    return [bits(x) if isinstance(x, float) else [bits(e) for e in x.tolist()]
            for x in (getattr(nb, name) for name in NORM_FIELDS)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestStackedNorms:
    """``norms`` and ``power_integral`` on a stack of fields, one per row,
    against the per-field reference, bit for bit."""

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf])
    def test_rows_match_per_field_reference(self, q):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g = dense_random_graph(rng)
            dom = random_domain(rng, g, keep=rng.uniform(0.3, 1.0))
            fields = [wide_field(rng, g)
                      for _ in range(int(rng.integers(1, 6)))]
            stack = np.stack([v.values for v in fields])
            got = norms(g, stack, dom, q=q)
            for name in NORM_FIELDS:
                column = getattr(got, name)
                assert column.shape == (len(fields),)
                assert not column.flags.writeable
            assert bundle_bits(got) == bundle_bits(stack_bundles(
                [reference_norms(g, v, dom, q=q) for v in fields]))
            alone = [norms(g, v, dom, q=q) for v in fields]
            assert all(type(getattr(nb, name)) is float
                       for nb in alone for name in NORM_FIELDS)
            assert bundle_bits(got) == bundle_bits(stack_bundles(alone))
            for ids in (dom.interior_ids, dom.omega_ids, []):
                sums = power_integral(g, stack, ids, q)
                assert [bits(x) for x in sums] == [
                    bits(reference_power_integral(g, v, ids, q))
                    for v in fields]

    def test_signed_zero_rows(self):
        g = dense_random_graph(np.random.default_rng(6))
        dom = random_domain(np.random.default_rng(7), g, keep=0.6)
        stack = np.zeros((3, g.num_vertices))
        stack[1] = -0.0
        stack[2, ::2] = -0.0
        for q in (1.0, 2.0, 3.0, math.inf):
            got = bundle_bits(norms(g, stack, dom, q=q))
            assert got == bundle_bits(stack_bundles(
                [reference_norms(g, VertexField(g, row), dom, q=q)
                 for row in stack]))
            assert got == [[bits(0.0)] * 3] * 5

    def test_refuses_first_incomplete_omega_vertex(self):
        g = materialize_ball(LatticeZ2(), [(0, 0)], 3)
        dom = make_domain(g, range(g.num_vertices))
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(4, g.num_vertices))
        with pytest.raises(UnmaterializedNeighbor) as ref:
            reference_norms(g, VertexField(g, stack[0]), dom)
        with pytest.raises(UnmaterializedNeighbor) as got:
            norms(g, stack, dom)
        assert str(got.value) == str(ref.value)

    def test_refuses_q_below_one(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        with pytest.raises(InvalidQ):
            norms(g, np.zeros((2, 4)), dom, q=0.5)


class TestVertexField:
    def test_rejects_nonfinite(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            VertexField(g, [1.0, math.nan, 0.0])

    def test_values_imMutable(self):
        g = path_graph(3)
        v = VertexField.zeros(g)
        with pytest.raises(ValueError):
            v.values[0] = 1.0

    def test_admissibility(self):
        g = path_graph(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyInteriorWarning)
            dom = make_domain(g, [1, 2, 3])
        assert VertexField.indicator(g, 2).is_admissible(dom)
        assert not VertexField.indicator(g, 1).is_admissible(dom)
        assert field_on_interior(dom, [4.5]).is_admissible(dom)
