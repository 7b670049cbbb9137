"""The Dirichlet operator: CSR assembly against the per-vertex loop it
replaced, read-only sharing, the shifted and step matrices, one operator
per domain across every solver and monitor, the banded Cholesky factor
of ``CachedSPD`` and the block bands of ``PrincipalBlocks``, the edge
cases of the shared conjugate-gradient loop, and the CSR product
``spmv`` against ``@``."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import reverse_cuthill_mckee

from graphrothe import (
    ConstantForcing,
    Obstacle,
    HeatProblem,
    TimePartition,
    VertexField,
    LatticeZ2,
    Subspace,
    VIProblem,
    build_finite_graph,
    dirichlet_eigenbasis,
    errors,
    exhaust_generative,
    field_on_interior,
    heat,
    kernels,
    make_domain,
    ode_oracle,
    operators,
    run_exhaustion,
    run_rothe,
    run_vi,
    run_vi_exhaustion,
    step_functional,
    vi,
    vi_monotonicity_monitor,
)
from helpers import path_graph, random_connected_graph, random_domain, \
    reference_band, reference_shifted, star_graph


def hub_graph(rng, n_min=12, n_max=60):
    """Random spanning tree plus extra edges and a few hubs of degree 8 or
    more; weights span several binades so the order of a sum shows."""
    n = int(rng.integers(n_min, n_max + 1))
    weights = {}

    def add(u, v):
        if u != v:
            key = (min(u, v), max(u, v))
            scale = 10.0 ** rng.integers(-3, 4)
            weights.setdefault(key, float(rng.uniform(0.1, 3.0) * scale))

    for v in range(1, n):
        add(int(rng.integers(0, v)), v)
    for _ in range(int(rng.integers(0, n))):
        add(int(rng.integers(0, n)), int(rng.integers(0, n)))
    for hub in rng.choice(n, size=3, replace=False):
        for v in rng.choice(n, size=int(rng.integers(8, n)), replace=False):
            add(int(hub), int(v))
    measure = {i: float(rng.uniform(0.5, 2.0)) for i in range(n)}
    return build_finite_graph([(u, v, w) for (u, v), w in weights.items()],
                              measure)


def loop_stiffness(dom):
    """The per-vertex, per-edge assembly the operator used to run, with the
    diagonal added strictly in neighbor order: ``np.sum`` adds left to
    right below 8 terms, and ``kernels.seq_sum`` is that order at any
    length."""
    g = dom.graph
    ids = dom.interior_ids
    pos = {int(v): a for a, v in enumerate(ids)}
    rows, cols, vals = [], [], []
    for a, v in enumerate(ids):
        nbrs, w = g.neighbors(int(v))
        rows.append(a)
        cols.append(a)
        vals.append(float(np.sum(w)) if len(w) < 8 else kernels.seq_sum(w))
        for j, wj in zip(nbrs, w):
            b = pos.get(int(j))
            if b is not None:
                rows.append(a)
                cols.append(b)
                vals.append(-float(wj))
    n = len(ids)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=float)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAssembly:
    def test_matches_loop_reference_with_hubs(self):
        rng = np.random.default_rng(41)
        hubs = 0
        for _ in range(60):
            g = hub_graph(rng)
            dom = random_domain(rng, g, keep=float(rng.uniform(0.6, 1.0)))
            hubs += int(np.max(np.diff(g.indptr)[dom.interior_ids]) >= 8)
            A = operators.DirichletOperator(dom).stiffness
            ref = loop_stiffness(dom)
            assert same_bytes(A.indptr, ref.indptr)
            assert same_bytes(A.indices, ref.indices)
            assert same_bytes(A.data, ref.data)
        assert hubs >= 20

    def test_arrays_read_only(self):
        g = path_graph(6)
        op = make_domain(g, range(6)).operator
        for arr in (op.mass, op.stiffness.data, op.stiffness.indices,
                    op.stiffness.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_step_matrix_divides_the_mass(self):
        # and any shifted stiffness A + diag(d) is formed the same way
        rng = np.random.default_rng(3)
        g = hub_graph(rng)
        op = make_domain(g, range(g.num_vertices)).operator
        ell = 0.3
        d = rng.uniform(0.1, 5.0, size=op.n)
        for S, diag in ((op.shifted(d), d), (op.step_matrix(ell),
                                             op.mass / ell)):
            assert S.format == "csr" and S.has_sorted_indices
            ref = (op.stiffness + sp.diags(diag)).tocsr()
            ref.sort_indices()
            assert same_bytes(S.indptr, ref.indptr)
            assert same_bytes(S.indices, ref.indices)
            assert same_bytes(S.data, ref.data)
            assert same_bytes(S.diagonal(), op.stiffness.diagonal() + diag)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_lo=st.floats(-12.0, 6.0), span=st.floats(0.0, 12.0))
    def test_shifted_adds_on_the_stored_diagonal(self, seed, log_lo, span):
        """``shifted`` gives the bytes of the sparse sum A + diag(d)
        converted to CSR and sorted, for positive shifts over many
        decades, and a matrix of its own: the stiffness is untouched."""
        rng = np.random.default_rng(seed)
        g = hub_graph(rng, 12, 40)
        op = random_domain(rng, g, keep=float(rng.uniform(0.4, 1.0))) \
            .operator
        d = 10.0 ** rng.uniform(log_lo, log_lo + span, size=op.n)
        before = op.stiffness.data.copy()
        S, ref = op.shifted(d), reference_shifted(op, d)
        for got, want in ((S.indptr, ref.indptr), (S.indices, ref.indices),
                          (S.data, ref.data)):
            assert same_bytes(got, want)
        assert S.has_sorted_indices
        S.data[:] = 0.0
        assert same_bytes(op.stiffness.data, before)

def test_one_operator_per_domain(monkeypatch):
    built = [0]
    init = operators.DirichletOperator.__init__

    def counting(self, dom):
        built[0] += 1
        init(self, dom)

    monkeypatch.setattr(operators.DirichletOperator, "__init__", counting)
    g = path_graph(7)
    dom = make_domain(g, range(1, 6))
    h = VertexField.from_mapping(g, {2: 1.0, 3: -0.5, 4: 0.25})
    heat_prob = HeatProblem(dom, 2.0, h)
    for steps in (4, 8):
        traj = run_rothe(heat_prob, TimePartition(0.5, steps))
    step_functional(VertexField(g, traj.values[1]),
                    VertexField(g, traj.values[0]), heat_prob, 0.0625)
    dirichlet_eigenbasis(dom)
    ode_oracle(heat_prob, [0.25, 0.5])
    vi_prob = VIProblem(dom, ConstantForcing(h), h)
    vi_monotonicity_monitor(run_vi(vi_prob, TimePartition(0.5, 4)))
    assert built[0] == 1
    assert dom.operator is dom.operator


def test_exhaustion_frees_each_solved_level(monkeypatch):
    built = []
    init = operators.DirichletOperator.__init__

    def recording(self, dom):
        built.append(weakref.ref(self))
        init(self, dom)

    monkeypatch.setattr(operators.DirichletOperator, "__init__", recording)
    exh = exhaust_generative(LatticeZ2(), [(0, 0)], 6)
    h = VertexField.from_mapping(exh.graph, {(0, 0): 1.0, (1, 0): -0.5})
    part = TimePartition(0.5, 3)
    heat_levels = run_exhaustion(HeatProblem(exh, 2.0, h), part)
    vi_levels = run_vi_exhaustion(
        VIProblem(exh, ConstantForcing(h), h), part, levels=[2, 4])
    gc.collect()
    # one operator per level solved, none alive once its level is done
    assert len(built) == len(heat_levels) + len(vi_levels)
    assert all(ref() is None for ref in built)


def spd_system(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 20, 40)
    S = random_domain(rng, g).operator.step_matrix(0.5)
    return rng, S, 1.0 / S.diagonal()


class TestPcg:
    def test_zero_rhs_gives_exact_zeros(self):
        _, S, minv = spd_system(21)
        x = operators.pcg(lambda d: S @ d, np.zeros(S.shape[0]),
                          lambda r: minv * r, 1e-13, 10)
        assert same_bytes(x, np.zeros(S.shape[0]))

    def test_none_when_the_cap_is_too_small(self):
        rng, S, minv = spd_system(22)
        b = rng.normal(size=S.shape[0])
        x = operators.pcg(lambda d: S @ d, b, lambda r: minv * r, 1e-13,
                          50 * S.shape[0])
        assert float(np.linalg.norm(b - S @ x)) \
            <= 1e-13 * float(np.linalg.norm(b))
        assert operators.pcg(lambda d: S @ d, b, lambda r: minv * r, 1e-13,
                             1) is None

    @pytest.mark.parametrize("scale, curvature", [(0.0, "0"), (-1.0, "-3")])
    def test_nonpositive_curvature_breaks_down(self, scale, curvature):
        # a zero curvature d.Sd once raised a bare ZeroDivisionError
        with pytest.raises(errors.SolverBreakdown,
                           match=rf"^conjugate gradients broke down: the "
                                 rf"curvature d\.Sd = {curvature} of a search "
                                 rf"direction is not positive$"):
            operators.pcg(lambda d: scale * d, np.ones(3), lambda r: r,
                          1e-13, 5)

    def test_cached_spd_raises_when_pcg_gives_up(self, monkeypatch):
        rng, S, _ = spd_system(23)
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        solver = operators.CachedSPD(S)
        assert not solver.direct
        monkeypatch.setattr(operators, "pcg", lambda *args: None)
        with pytest.raises(errors.SolverBreakdown):
            solver.solve(rng.normal(size=S.shape[0]))

    def test_zero_data_stay_exactly_zero_on_the_iterative_path(
            self, monkeypatch):
        monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        rng = np.random.default_rng(24)
        g = random_connected_graph(rng, 10, 30)
        dom = random_domain(rng, g)
        zero = VertexField.zeros(g)
        part = TimePartition(0.5, 3)
        heat_run = run_rothe(HeatProblem(dom, 1.0, zero), part)
        vi_run = run_vi(VIProblem(dom, ConstantForcing(zero), zero,
                                  constraint=Subspace()), part)
        for row in np.concatenate((heat_run.values, vi_run.values)):
            assert same_bytes(row, np.zeros(g.num_vertices))


class TestBandedCholesky:
    """``CachedSPD`` factors every SPD system whose band fits by banded
    Cholesky in reverse Cuthill-McKee order, and ``PrincipalBlocks`` cuts
    each block's band from the matrix's by one mask."""

    def test_solves_match_dense(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            g = random_connected_graph(rng, 5, 80)
            op = random_domain(rng, g).operator
            S = op.shifted(rng.uniform(1e-3, 10.0, op.n))
            solver = operators.CachedSPD(S)
            assert solver.direct
            for _ in range(3):
                b = rng.normal(size=op.n)
                x = solver.solve(b)
                ref = np.linalg.solve(S.toarray(), b)
                assert float(np.linalg.norm(x - ref)) \
                    <= 1e-12 * float(np.linalg.norm(ref))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_shift=st.floats(-3.0, 1.0))
    def test_solves_match_dense_on_random_systems(self, seed, log_shift):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 3, 60)
        op = random_domain(rng, g).operator
        S = op.shifted(op.mass * 10.0 ** log_shift
                       * rng.uniform(0.5, 2.0, op.n))
        solver = operators.CachedSPD(S)
        assert solver.direct
        b = rng.normal(size=op.n)
        ref = np.linalg.solve(S.toarray(), b)
        assert float(np.linalg.norm(solver.solve(b) - ref)) \
            <= 1e-12 * float(np.linalg.norm(ref))

    def test_star_takes_the_iterative_path(self, monkeypatch):
        # reverse Cuthill-McKee leaves the hub's row 1,999 entries wide: a
        # band of 2,000 x 2,001 entries, over the budget
        def no_band(self):
            raise AssertionError("a band was allocated")

        monkeypatch.setattr(operators._Upper, "band", no_band)
        S = make_domain(star_graph(2000), range(2001)).operator \
            .step_matrix(1.0)
        solver = operators.CachedSPD(S)
        assert not solver.direct
        b = np.random.default_rng(27).normal(size=S.shape[0])
        x = solver.solve(b)
        assert float(np.linalg.norm(b - S @ x)) \
            <= operators.CG_RTOL * float(np.linalg.norm(b))

    @pytest.mark.parametrize("entries, reason", [
        ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
        ([[1.0, 0.0], [0.0, np.inf]], "not finite"),
        ([[np.inf, 1.0], [1.0, 2.0]], "not finite"),
    ])
    def test_breakdown(self, entries, reason):
        with pytest.raises(errors.SolverBreakdown,
                           match=f"^banded Cholesky failed: .*{reason}"):
            operators.CachedSPD(sp.csr_matrix(np.array(entries)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_block_band_matches_the_sliced_block(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 3, 60)
        S = random_domain(rng, g).operator.step_matrix(
            float(rng.uniform(0.05, 2.0)))
        blocks = operators.PrincipalBlocks(S)
        perm = reverse_cuthill_mckee(S, symmetric_mode=True)
        for _ in range(3):
            mask = rng.random(S.shape[0]) < rng.uniform(0.2, 1.0)
            mask[rng.integers(S.shape[0])] = True
            free = np.flatnonzero(mask)
            order = np.searchsorted(free, perm[mask[perm]])
            ref = reference_band(S[free][:, free], order)
            band = blocks._upper.block(mask).band()
            assert band.shape == ref.shape
            assert band.tobytes() == ref.tobytes()

    def test_level_18_band(self):
        # the level-18 step matrix of the lattice-newton benchmark:
        # reverse Cuthill-McKee keeps it within 35 diagonals of the main one
        dom = exhaust_generative(LatticeZ2(), [(0, 0)], 18).level(18)
        S = dom.operator.step_matrix(0.05)
        upper = operators._Upper.of(S)
        assert S.shape == (613, 613)
        assert upper.bandwidth == 35
        assert upper.band().shape == (36, 613)
        assert operators.CachedSPD(S).direct


class TestSpmv:
    """``spmv`` is ``S @ x`` bit for bit, and every product of the solvers
    goes through it with a CSR matrix."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           index=st.sampled_from([np.int32, np.int64]))
    def test_matches_matmul(self, seed, index):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 3, 60)
        dom = random_domain(rng, g)
        op = dom.operator
        ell = float(rng.uniform(0.01, 2.0))
        matrices = [op.stiffness, op.shifted(rng.uniform(1e-3, 10.0, op.n)),
                    op.step_matrix(ell)]
        X = rng.normal(size=(op.n, 3)) * 10.0 ** rng.integers(-3, 4)
        vectors = [X[:, 0].copy(), X[:, 1],
                   rng.integers(-5, 6, size=op.n)]
        for S in matrices:
            # the constructor would narrow int64 indices that fit int32
            S = S.copy()
            S.indices = S.indices.astype(index)
            S.indptr = S.indptr.astype(index)
            for x in vectors:
                assert same_bytes(operators.spmv(S, x), S @ x)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 3)])
    def test_shape_mismatch_refused(self, shape):
        # the kernel would read past the end of a short vector
        S = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError, match="spmv of a 3 x 3 matrix"):
            operators.spmv(S, np.ones(shape))

    @pytest.mark.parametrize("direct", [True, False])
    def test_every_product_is_csr(self, monkeypatch, direct):
        calls = []
        spmv = operators.spmv

        def checked_spmv(S, x):
            assert S.format == "csr"
            calls.append(S.shape)
            y = spmv(S, x)
            assert same_bytes(y, S @ x)
            return y

        if not direct:
            monkeypatch.setattr(operators, "DIRECT_SOLVE_MAX", 0)
        for module in (operators, heat, vi):
            monkeypatch.setattr(module, "spmv", checked_spmv)
        rng = np.random.default_rng(26)
        g = random_connected_graph(rng, 15, 30)
        dom = random_domain(rng, g)
        h = field_on_interior(dom, rng.uniform(-1.0, 1.0, dom.num_interior))
        part = TimePartition(0.5, 3)
        for p in (2.0, 1.0):
            calls.clear()
            run = run_rothe(HeatProblem(dom, p, h), part)
            step_functional(VertexField(g, run.values[1]), h,
                            HeatProblem(dom, p, h), part.step_size)
            assert calls
        forcing = ConstantForcing(VertexField(g, rng.normal(
            size=g.num_vertices)))
        for constraint in (Subspace(), Obstacle(VertexField.zeros(g))):
            calls.clear()
            run = run_vi(VIProblem(dom, forcing, VertexField(g, np.maximum(
                h.values, 0.0)), constraint=constraint), part)
            vi_monotonicity_monitor(run)
            assert calls
