import math

import numpy as np
import pytest
import scipy.sparse as sp

from graphrothe import kernels


def _random_spd_csr(rng, n):
    m = sp.random(n, n, density=0.25, random_state=rng.integers(1 << 31))
    S = (m @ m.T + sp.identity(n) * n).tocsr()
    S.sort_indices()
    return S


def _csr_parts(S):
    return (np.ascontiguousarray(S.indptr, dtype=np.int64),
            np.ascontiguousarray(S.indices, dtype=np.int64),
            np.ascontiguousarray(S.data),
            np.ascontiguousarray(S.diagonal()))


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

    def test_seq_dot(self):
        rng = np.random.default_rng(2)
        for size in (0, 1, 4, 513):
            for _ in range(50):
                a = _mixed_magnitudes(rng, size)
                b = rng.normal(size=size)
                assert same_bits(kernels.seq_dot(a, b), loop_sum(a * b))
        with pytest.raises(ValueError):
            kernels.seq_dot(np.zeros(1), np.zeros(3))  # would broadcast


class TestSeqSemantics:
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
        indptr, indices, data, diag = _csr_parts(S)
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
        indptr, indices, data, diag = _csr_parts(S)
        b = rng.normal(size=25)
        lower = rng.uniform(-0.1, 0.1, size=25)
        u = np.maximum(np.zeros(25), lower)
        for _ in range(500):
            kernels.psor_sweep(indptr, indices, data, diag, b, lower, u, 1.0)
        assert np.all(u >= lower)
