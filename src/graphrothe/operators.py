"""Interior (Dirichlet) operator assembly shared by the solvers.

For a domain with interior vertices x_1 < ... < x_N the stiffness matrix
A has A[a,a] = sum of all weights incident to x_a and A[a,b] = -omega for
interior neighbor pairs; with the diagonal mass mu this gives, for any
field u vanishing outside the interior,

    (A u)_a = mu(x_a) * (-Laplacian u)(x_a)   and   u^T A u = |grad u|^2
                                                    integrated over Omega,

so A is symmetric positive semidefinite (definite whenever the interior
has exterior contact).

This module holds all of the package's SPD linear algebra: every
assembled A + diag(d), the p = 1 matrix or the step matrix, comes from
``DirichletOperator.shifted``; ``CachedSPD`` solves by LAPACK's banded
Cholesky factorization in reverse Cuthill-McKee order or, when that band
would hold more than DIRECT_SOLVE_MAX entries, by Jacobi-preconditioned
CG; and ``pcg`` is the one conjugate-gradient loop, shared by
``CachedSPD`` and the Newton directions of ``heat``. The matrices are
graph Laplacians plus a diagonal, and on grids and lattice balls their
reverse Cuthill-McKee bandwidth is a few tens. ``PrincipalBlocks`` orders
the step matrix once and cuts the band of each active-set block of
``vi`` from its upper-triangle entries by one mask: a principal
submatrix in the restricted order is no wider than the matrix, so a
block needs no ordering of its own. A block's factor is reused while its
index set repeats.

Every product of an assembled CSR matrix with a vector, in this module,
``heat`` and ``vi``, is ``spmv``: scipy's ``csr_matvec`` kernel, the one
``S @ x`` ends in, called without the dispatch of ``@``, which costs
several times the kernel at these sizes; the result is ``S @ x`` bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import EmptyInterior, SolverBreakdown

# entries of the largest band factored directly, (bandwidth + 1) * n:
# 8 MB, which takes every 2-D grid up to 100 x 100 (bandwidth 100)
DIRECT_SOLVE_MAX = 1_010_000
CG_RTOL = 1e-13


class DirichletOperator:
    """Assembled mass vector and stiffness matrix on a domain's interior.

    Built once per domain through ``Domain.operator`` and shared by every
    solver and monitor on it, so its arrays are read-only. The stiffness
    is assembled from the graph's CSR arrays: the interior rows' slots,
    -omega for every interior neighbor, and on the diagonal each row's
    incident weights added in slot order (``WeightedGraph.weight_sums``).
    A Domain puts every incomplete vertex on its boundary, so every
    interior row is complete."""

    def __init__(self, dom):
        if not dom.num_interior:
            raise EmptyInterior("domain has no interior vertices")
        g = dom.graph
        ids = dom.interior_ids
        n = ids.size
        pos = np.full(g.num_vertices, -1, dtype=np.int64)
        pos[ids] = np.arange(n)
        slots, ptr = g.row_slots(ids)
        w = g.weights[slots]
        cols = pos[g.indices[slots]]
        inner = cols >= 0
        rows = np.repeat(np.arange(n), np.diff(ptr))[inner]
        self.dom = dom
        self.interior_ids = ids
        self.n = n
        self.mass = np.ascontiguousarray(g.mu[ids])
        S = self.stiffness = sp.csr_matrix(
            (np.concatenate((g.weight_sums(ids), -w[inner])),
             (np.concatenate((np.arange(n), rows)),
              np.concatenate((np.arange(n), cols[inner])))),
            shape=(n, n), dtype=float)
        for arr in (self.mass, S.data, S.indices, S.indptr):
            arr.setflags(write=False)
        self._diagonal_slots = np.flatnonzero(
            S.indices == np.repeat(np.arange(n), np.diff(S.indptr)))

    def shifted(self, d):
        """A + diag(d) for a positive ``d``, added on A's stored diagonal:
        a CSR matrix with A's sorted sparsity pattern."""
        S = self.stiffness.copy()
        S.data[self._diagonal_slots] += d
        return S

    def step_matrix(self, ell):
        """S0 = A + M/l, the matrix of one Rothe step of size ``ell``."""
        return self.shifted(self.mass / ell)

    def restrict(self, field):
        """Interior values of a field, in ascending id order."""
        return np.ascontiguousarray(field.values[self.interior_ids])

    def extend_rows(self, W):
        """The zero extensions of the interior vectors in the rows of
        ``W``, as a stack of field values with a row per field."""
        values = np.zeros((len(W), self.dom.graph.num_vertices))
        values[:, self.interior_ids] = W
        return values

    def neg_laplacian(self, w):
        """-Laplacian of the zero-extended interior vector, on the interior."""
        return spmv(self.stiffness, w) / self.mass


def spmv(S, x):
    """``S @ x`` for a CSR float matrix ``S`` and a 1-D vector ``x``, bit
    for bit, by scipy's ``csr_matvec`` kernel without ``@``'s dispatch.
    The kernel reads n entries of ``x`` unchecked, so its shape is checked
    here."""
    m, n = S.shape
    if x.shape != (n,):
        raise ValueError(f"spmv of a {m} x {n} matrix with a vector of "
                         f"shape {x.shape}")
    y = np.zeros(m)
    csr_matvec(m, n, S.indptr, S.indices, S.data, x, y)
    return y


def pcg(matvec, b, precondition, rtol, cap):
    """Preconditioned conjugate gradients for the SPD system S x = b from
    x = 0, where ``matvec`` applies S and ``precondition`` the inverse of
    an SPD approximation of S: the first iterate whose residual norm
    |b - S x| is at most ``rtol`` |b| (zeros when b = 0), or None when
    ``cap`` iterations do not reach it."""
    x = np.zeros_like(b)
    b_norm = math.sqrt(float(np.dot(b, b)))
    target = rtol * b_norm
    if b_norm <= target:
        return x
    r = b.copy()
    z = precondition(r)
    d = z
    rz = float(np.dot(r, z))
    for _ in range(cap):
        q = matvec(d)
        curvature = float(np.dot(d, q))
        if not curvature > 0.0:
            raise SolverBreakdown(
                f"conjugate gradients broke down: the curvature d.Sd = "
                f"{curvature:g} of a search direction is not positive")
        alpha = rz / curvature
        x += alpha * d
        r -= alpha * q
        if math.sqrt(float(np.dot(r, r))) <= target:
            return x
        z = precondition(r)
        rz_next = float(np.dot(r, z))
        d = z + (rz_next / rz) * d
        rz = rz_next
    return None


class _Upper:
    """A symmetric n x n matrix in the symmetric order ``order``: entry
    (rows[k], cols[k]) of the reordered matrix, rows[k] <= cols[k], is
    ``data[k]``, and row k of the reordered matrix is row ``order[k]`` of
    the matrix. Every stored upper-triangle entry of the reordered matrix
    appears once; the bandwidth is the largest cols[k] - rows[k]."""

    def __init__(self, order, rows, cols, data, n):
        self.order, self.rows, self.cols, self.data = order, rows, cols, data
        self.n = n
        self.bandwidth = int(np.max(cols - rows, initial=0))

    @classmethod
    def of(cls, S):
        """The entries of the symmetric CSR matrix ``S``, which holds no
        duplicate entries, in its reverse Cuthill-McKee order."""
        order = reverse_cuthill_mckee(S, symmetric_mode=True)
        n = S.shape[0]
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        rows = pos[np.repeat(np.arange(n), np.diff(S.indptr))]
        cols = pos[S.indices]
        up = rows <= cols
        return cls(order, rows[up], cols[up], S.data[up], n)

    def fits(self):
        """Whether the band of this matrix is factored directly: it holds
        at most DIRECT_SOLVE_MAX entries (read on each call)."""
        return (self.bandwidth + 1) * self.n <= DIRECT_SOLVE_MAX

    def band(self):
        """The upper band storage of LAPACK's ``dpbtrf``: entry (i, j),
        i <= j, of the reordered matrix at [bandwidth + i - j, j]."""
        bw = self.bandwidth
        ab = np.zeros((bw + 1, self.n), order="F")
        ab[bw + self.rows - self.cols, self.cols] = self.data
        return ab

    def block(self, mask):
        """The principal submatrix on the indices I of the boolean mask
        ``mask``, in this order restricted to I."""
        kept = mask[self.order]
        index = np.cumsum(kept) - 1
        keep = kept[self.rows] & kept[self.cols]
        return _Upper((np.cumsum(mask) - 1)[self.order[kept]],
                      index[self.rows[keep]], index[self.cols[keep]],
                      self.data[keep], int(index[-1]) + 1)


class CachedSPD:
    """Solver of the SPD system with the CSR matrix ``S``: a banded
    Cholesky factor in S's reverse Cuthill-McKee order when the band
    holds at most DIRECT_SOLVE_MAX entries (read when the solver is
    built), otherwise ``pcg`` on S with the Jacobi preconditioner to the
    relative residual CG_RTOL within 50 n iterations. The factor (or the
    inverse diagonal) is built once and reused across solves. In place of
    S, ``PrincipalBlocks`` passes a block's ``_Upper`` entries, which
    always fit; their order is kept."""

    def __init__(self, S):
        upper = S if isinstance(S, _Upper) else _Upper.of(S)
        self.n = upper.n
        self.direct = upper.fits()
        if self.direct:
            self._order = upper.order
            factor, info = dpbtrf(upper.band(), lower=0, overwrite_ab=1)
            if info > 0:
                raise SolverBreakdown(
                    f"banded Cholesky failed: the leading minor of order "
                    f"{info} is not positive definite")
            if not np.isfinite(factor).all():
                raise SolverBreakdown(
                    "banded Cholesky failed: the factor is not finite")
            self._factor = factor
        else:
            self._S = S
            d = S.diagonal()
            if np.any(d <= 0):
                raise SolverBreakdown("non-positive diagonal in SPD system")
            self._minv = 1.0 / d

    def solve(self, rhs):
        if self.direct:
            x = np.empty(self.n)
            x[self._order] = dpbtrs(self._factor, rhs[self._order],
                                    lower=0, overwrite_b=1)[0]
            return x
        x = pcg(lambda d: spmv(self._S, d), rhs, lambda r: self._minv * r,
                CG_RTOL, 50 * self.n)
        if x is None:
            raise SolverBreakdown(
                f"conjugate gradients missed the relative residual "
                f"{CG_RTOL:g} in {50 * self.n} iterations")
        return x


class PrincipalBlocks:
    """Solvers of the principal submatrices S[I][:, I] of one symmetric
    CSR matrix S, for the inactive sets I of the active-set method. S's
    reverse Cuthill-McKee order, its upper-triangle entries in that order
    and its diagonal are computed once. Each block takes that order
    restricted to I, and its entries are cut from S's by one mask. Only a
    block whose band in that order is over DIRECT_SOLVE_MAX is sliced as
    a matrix, which ``CachedSPD`` orders afresh and, if its own band is
    over too, solves by CG. A block's ``CachedSPD`` is kept and reused
    while I repeats, element by element."""

    def __init__(self, S):
        self.S = S
        self.diagonal = S.diagonal()
        self._upper = _Upper.of(S)
        self._mask = None
        self._solver = None

    def solver(self, mask):
        """The ``CachedSPD`` of S[I][:, I] for the boolean mask ``mask``
        of I, which must hold at least one True."""
        if self._mask is None or not np.array_equal(mask, self._mask):
            upper = self._upper.block(mask)
            self._solver = CachedSPD(
                upper if upper.fits() else self.S[mask][:, mask])
            self._mask = mask
        return self._solver
