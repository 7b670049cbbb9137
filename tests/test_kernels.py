import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import (
    ConstantForcing, Obstacle, TimePartition, VertexField, VIProblem,
    field_on_interior, kernels, run_vi,
)
from graphrothe.vi import ViStepper
from helpers import (
    csr_parts, random_admissible, random_connected_graph, random_domain,
    reference_psor, reference_sweep,
)


def _random_spd_csr(rng, n):
    m = sp.random(n, n, density=0.25, random_state=rng.integers(1 << 31))
    S = (m @ m.T + sp.identity(n) * n).tocsr()
    S.sort_indices()
    return S


def loop_sum(a):
    """Reference: add strictly left to right, starting from 0.0."""
    s = 0.0
    for x in a.tolist():
        s = s + x
    return s


def same_bits(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _mixed_magnitudes(rng, size):
    """Signed values over 1e-300..1e300 with exact and signed zeros."""
    a = rng.normal(size=size) * 10.0 ** rng.integers(-300, 301, size=size)
    a[rng.random(size) < 0.1] = 0.0
    a[rng.random(size) < 0.1] = -0.0
    return a


class TestLeftToRightReference:
    """The ordered sums equal a strict left-to-right loop bit for bit,
    including the sign of zero."""

    def test_seq_sum(self):
        rng = np.random.default_rng(1)
        cases = [np.array([]), np.array([-0.0]), np.array([-0.0, -0.0]),
                 np.array([0.0, -0.0]), np.array([1.0, -1.0]),
                 np.array([-1.0, 1.0, -0.0])]
        for size in (1, 2, 4, 7, 1000):
            cases.append(rng.normal(size=size))
            for _ in range(100):
                cases.append(_mixed_magnitudes(rng, size))
        for a in cases:
            assert same_bits(kernels.seq_sum(a), loop_sum(a))

    def test_row_sums(self):
        """Each segment of ``seq_sum(a, ptr)`` is the loop over its
        slots; segments may be empty and need not cover the axis."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            degree = rng.integers(0, 13, size=n)
            degree[rng.random(n) < 0.2] = 0
            lead = int(rng.integers(0, 3))
            ptr = lead + np.concatenate(([0], np.cumsum(degree)))
            values = _mixed_magnitudes(
                rng, int(ptr[-1]) + int(rng.integers(0, 3)))
            sums = kernels.seq_sum(values, ptr)
            assert sums.shape == (n,)
            for r in range(n):
                row = values[ptr[r]:ptr[r + 1]]
                assert same_bits(float(sums[r]), loop_sum(row))


class TestStacks:
    """A stack of rows is reduced along its last axis, each row bit for
    bit as the 1-D call on that row alone."""

    def test_seq_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(0, 6))
            a = _mixed_magnitudes(rng, (k, int(rng.integers(0, 30))))
            if k and rng.random() < 0.2:
                a[int(rng.integers(0, k))] = -0.0
            sums = kernels.seq_sum(a)
            assert sums.shape == (k,)
            for row, total in zip(a, sums.tolist()):
                assert same_bits(total, kernels.seq_sum(row))
        # more stack axes, and the 1-D case as a float
        a = _mixed_magnitudes(rng, (2, 3, 17))
        sums = kernels.seq_sum(a)
        assert sums.shape == (2, 3)
        assert same_bits(sums[1, 2], kernels.seq_sum(a[1, 2]))
        assert type(kernels.seq_sum(a[0, 0])) is float

    def test_row_sums(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 6))
            degree = rng.integers(0, 13, size=n)
            degree[rng.random(n) < 0.2] = 0
            ptr = np.concatenate(([0], np.cumsum(degree)))
            values = _mixed_magnitudes(rng, (k, int(degree.sum())))
            sums = kernels.seq_sum(values, ptr)
            assert sums.shape == (k, n)
            for row, stacked in zip(values, sums):
                alone = kernels.seq_sum(row, ptr)
                assert stacked.tobytes() == alone.tobytes()

    def test_row_sums_without_slots(self):
        for a in (np.zeros(0), np.zeros((2, 0))):
            sums = kernels.seq_sum(a, np.zeros(4, dtype=np.int64))
            assert sums.tobytes() == np.zeros(a.shape[:-1] + (3,)).tobytes()


def _bits(x):
    """The bytes of a float, with every NaN alike: the sums promise the
    loop's value, and a NaN's payload depends on which NaN operand the
    hardware passes on."""
    x = float(x)
    return b"nan" if math.isnan(x) else np.float64(x).tobytes()


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, math.inf, -math.inf, math.nan]))


@st.composite
def _segmented(draw):
    """A 1-D to 3-D array with its last axis cut into segments, some
    empty, laid out C-ordered, Fortran-ordered, strided or reversed, and
    the int32 or int64 segment pointer."""
    lead = draw(st.lists(st.integers(0, 3), max_size=2))
    n = draw(st.integers(0, 12))
    size = int(np.prod(lead, dtype=np.int64)) * n
    a = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size)),
                 dtype=float).reshape(lead + [n])
    layout = draw(st.sampled_from(["c", "f", "strided", "reversed"]))
    if layout == "f":
        a = np.asfortranarray(a)
    elif layout == "strided":
        wide = np.zeros(lead + [2 * n])
        wide[..., ::2] = a
        a = wide[..., ::2]
    elif layout == "reversed":
        a = np.ascontiguousarray(a[..., ::-1])[..., ::-1]
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=6)))
    ptr = np.array(cuts, dtype=draw(st.sampled_from([np.int32, np.int64])))
    return a, ptr


class TestSegmentsHypothesis:
    """``seq_sum(a, ptr)`` is the strict left-to-right loop over every
    segment of every row, bit for bit, whatever the entries, the number
    of axes, the memory layout and the pointer's integer type."""

    @settings(max_examples=300, deadline=None)
    @given(_segmented())
    def test_equals_loop(self, case):
        a, ptr = case
        sums = kernels.seq_sum(a, ptr)
        assert sums.shape == a.shape[:-1] + (ptr.size - 1,)
        for index in np.ndindex(a.shape[:-1]):
            row = a[index]
            for r in range(ptr.size - 1):
                assert _bits(sums[index + (r,)]) \
                    == _bits(loop_sum(row[ptr[r]:ptr[r + 1]]))
            if a.ndim == 1:
                assert _bits(kernels.seq_sum(row)) == _bits(loop_sum(row))
        whole = kernels.seq_sum(a)
        if a.ndim > 1:
            assert whole.shape == a.shape[:-1]
            for index in np.ndindex(a.shape[:-1]):
                assert _bits(whole[index]) == _bits(loop_sum(a[index]))

    @pytest.mark.parametrize("ptr", [[0, 4], [-1, 2], [2, 1, 3], []])
    def test_refuses_pointer_outside_axis(self, ptr):
        with pytest.raises(ValueError, match="does not split"):
            kernels.seq_sum(np.ones(3), np.array(ptr, dtype=np.int64))


class TestSeqSemantics:
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sums_of_any_length(self, sizes, seed):
        # lengths up and down: the kept column and ones arrays grow and are
        # sliced, and every sum is still the loop's
        rng = np.random.default_rng(seed)
        for size in sizes:
            a = _mixed_magnitudes(rng, size)
            assert _bits(kernels.seq_sum(a)) == _bits(loop_sum(a))
            lo = int(rng.integers(0, size + 1))
            ptr = np.array([lo, (lo + size) // 2, size])
            assert [_bits(s) for s in kernels.seq_sum(a, ptr)] == \
                [_bits(loop_sum(a[ptr[r]:ptr[r + 1]])) for r in range(2)]
        for kept in kernels._ones_columns(max(sizes)):
            assert kept.size >= max(sizes) and not kept.flags.writeable

    def test_strict_left_to_right(self):
        # a sum whose value depends on evaluation order
        a = np.array([1e16, 1.0, -1e16])
        expect = ((1e16 + 1.0) + -1e16)
        assert kernels.seq_sum(a) == expect

    def test_repeatable(self):
        rng = np.random.default_rng(4)
        a = np.ascontiguousarray(rng.normal(size=999))
        assert kernels.seq_sum(a) == kernels.seq_sum(a.copy())


class TestPsorSolves:
    def test_unconstrained_matches_direct(self):
        rng = np.random.default_rng(5)
        S = _random_spd_csr(rng, 30)
        indptr, indices, data, diag = csr_parts(S)
        b = rng.normal(size=30)
        lower = np.full(30, -1e30)
        u = np.zeros(30)
        for _ in range(2000):
            delta = kernels.psor_sweep(indptr, indices, data, diag, b,
                                       lower, u, 1.0)
            if delta < 1e-15:
                break
        ref = np.linalg.solve(S.toarray(), b)
        assert np.allclose(u, ref, rtol=0.0, atol=1e-10)

    def test_projection_feasible(self):
        rng = np.random.default_rng(6)
        S = _random_spd_csr(rng, 25)
        indptr, indices, data, diag = csr_parts(S)
        b = rng.normal(size=25)
        lower = rng.uniform(-0.1, 0.1, size=25)
        u = np.maximum(np.zeros(25), lower)
        for _ in range(500):
            kernels.psor_sweep(indptr, indices, data, diag, b, lower, u, 1.0)
        assert np.all(u >= lower)


def same_array_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == \
        np.asarray(b, dtype=float).tobytes()


class TestPsorListBitIdentity:
    """The sweep on Python lists gives the bits of the sweep on numpy
    arrays: every iterate, every returned change, every sweep count."""

    @pytest.mark.parametrize("relax", [1.0, 1.5])
    def test_lists_match_arrays(self, relax):
        rng = np.random.default_rng(71)
        for _ in range(8):
            n = int(rng.integers(5, 40))
            S = _random_spd_csr(rng, n)
            parts = csr_parts(S)
            b = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            lower = rng.uniform(-0.5, 0.5, size=n)
            lower[rng.random(n) < 0.3] = -1e30
            u_arr = np.maximum(rng.normal(size=n), lower)
            u_ref = u_arr.copy()
            u_list = u_arr.tolist()
            lists = [a.tolist() for a in (*parts, b, lower)]
            for _ in range(200):
                d_list = kernels.psor_sweep(*lists, u_list, relax)
                d_arr = kernels.psor_sweep(*parts, b, lower, u_arr, relax)
                d_ref = reference_sweep(*parts, b, lower, u_ref, relax)
                assert same_bits(d_list, d_arr) and same_bits(d_list, d_ref)
                assert same_array_bits(u_list, u_arr)
                assert same_array_bits(u_list, u_ref)

    @pytest.mark.parametrize("relax", [1.0, 1.5])
    def test_obstacle_step_matches_array_reference(self, relax):
        """The obstacle step is the projected-SOR solution on numpy arrays
        at this relaxation, up to the reference's own convergence; the
        quotient is formed from the step's own iterate bit for bit."""
        rng = np.random.default_rng(72)
        for _ in range(6):
            g = random_connected_graph(rng, 8, 30)
            dom = random_domain(rng, g)
            ids = dom.interior_ids
            psi = field_on_interior(dom, rng.uniform(-0.5, 0.3,
                                                     size=len(ids)))
            u_prev = random_admissible(rng, dom)
            f = VertexField(g, rng.normal(size=g.num_vertices))
            ell = float(rng.uniform(0.05, 2.0))
            prob = VIProblem(dom, ConstantForcing(f), u_prev,
                             constraint=Obstacle(psi))
            part = TimePartition(ell, 1)
            stepper = ViStepper(prob, part)
            op = stepper.op
            w_prev = op.restrict(u_prev)
            u, rep = stepper.step(1, w_prev, None)
            run = run_vi(prob, part)

            b = op.mass * (op.restrict(f) + w_prev / ell)
            scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
            lower = psi.values[ids]
            w, _ = reference_psor(stepper.S, lower, b, w_prev, scale, relax,
                                  1e-12)
            assert float(np.max(np.abs(u - w))) \
                <= 1e-9 * (1.0 + float(np.max(np.abs(u))))
            assert same_array_bits(run.values[1],
                                   field_on_interior(dom, u).values)
            assert same_array_bits(
                run.quotients[0],
                field_on_interior(dom, (u - w_prev) / ell).values)
            assert np.all(u >= lower)
            for residual in (rep.variational_residual, rep.primal_residual,
                             rep.dual_residual, rep.complementarity):
                assert residual <= stepper.tol * scale
            assert 1 <= rep.iterations <= len(ids) + 1
