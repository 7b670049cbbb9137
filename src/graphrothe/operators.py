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
``DirichletOperator.shifted``; ``CachedSPD`` solves by sparse LU or, above
DIRECT_SOLVE_MAX unknowns, by Jacobi-preconditioned CG; and ``pcg`` is
the one conjugate-gradient loop, shared by ``CachedSPD`` and the Newton
directions of ``heat``. Every matrix factored here is SPD, the active-set
blocks of ``vi`` as principal submatrices of one, so the LU orders by
minimum degree on the symmetric pattern and pivots on the diagonal.
``PrincipalBlocks`` cuts those blocks from the step matrix's CSC arrays
by one mask and reuses a block's factor while its index set repeats.

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
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .errors import EmptyInterior, SolverBreakdown

DIRECT_SOLVE_MAX = 10_000
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
        self.stiffness = sp.csr_matrix(
            (np.concatenate((g.weight_sums(ids), -w[inner])),
             (np.concatenate((np.arange(n), rows)),
              np.concatenate((np.arange(n), cols[inner])))),
            shape=(n, n), dtype=float)
        for arr in (self.mass, self.stiffness.data, self.stiffness.indices,
                    self.stiffness.indptr):
            arr.setflags(write=False)

    def shifted(self, d):
        """A + diag(d) in CSR with sorted indices."""
        S = (self.stiffness + sp.diags(d)).tocsr()
        S.sort_indices()
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


class CachedSPD:
    """Solver of the SPD system with the CSR or CSC matrix ``S``: sparse
    LU up to DIRECT_SOLVE_MAX unknowns (read when the solver is built),
    above it ``pcg`` on S's CSR form with the Jacobi preconditioner to the
    relative residual CG_RTOL within 50 n iterations. The factor (or the inverse
    diagonal) is built once and reused across solves. The LU takes one
    symmetric permutation, a minimum degree ordering of the pattern of
    S + S^T, and pivots on the diagonal, which SPD matrices allow: less
    fill than ``splu``'s COLAMD column ordering with partial pivoting.
    A CSC matrix, such as a block of ``PrincipalBlocks``, is factored as
    given; a CSR one is converted first."""

    def __init__(self, S):
        self.n = S.shape[0]
        self.direct = self.n <= DIRECT_SOLVE_MAX
        if self.direct:
            try:
                self._lu = spla.splu(
                    S if S.format == "csc" else S.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SolverBreakdown(f"sparse LU failed: {exc}") from None
        else:
            self._S = S.tocsr()
            d = S.diagonal()
            if np.any(d <= 0):
                raise SolverBreakdown("non-positive diagonal in SPD system")
            self._minv = 1.0 / d

    def solve(self, rhs):
        if self.direct:
            return self._lu.solve(rhs)
        x = pcg(lambda d: spmv(self._S, d), rhs, lambda r: self._minv * r,
                CG_RTOL, 50 * self.n)
        if x is None:
            raise SolverBreakdown(
                f"conjugate gradients missed the relative residual "
                f"{CG_RTOL:g} in {50 * self.n} iterations")
        return x


class PrincipalBlocks:
    """Solvers of the principal submatrices S[I][:, I] of one CSR matrix
    S, for the inactive sets I of the active-set method. S's CSC arrays and
    diagonal are built once; each block is cut from them by one boolean
    mask over the row and column of every entry, and its ``CachedSPD``
    is kept and reused while I repeats, element by element. Kept entries
    stay in their order, so a block's arrays are those of
    ``sp.csc_matrix(S[I][:, I])``; S need not be symmetric."""

    def __init__(self, S):
        self.S = S
        self.diagonal = S.diagonal()
        csc = S.tocsc()
        self._data, self._rows, self._ptr = csc.data, csc.indices, csc.indptr
        self._cols = np.repeat(np.arange(S.shape[1], dtype=self._rows.dtype),
                               np.diff(self._ptr))
        self._mask = None
        self._solver = None

    def solver(self, mask):
        """The ``CachedSPD`` of S[I][:, I] for the boolean mask ``mask``
        of I, which must hold at least one True."""
        if self._mask is None or not np.array_equal(mask, self._mask):
            keep = mask[self._rows] & mask[self._cols]
            index = np.cumsum(mask, dtype=self._rows.dtype) - 1
            kept = np.concatenate(([0], np.cumsum(keep)))
            ptr = kept[self._ptr[np.append(mask, True)]]
            k = int(index[-1]) + 1
            self._solver = CachedSPD(sp.csc_matrix(
                (self._data[keep], index[self._rows[keep]],
                 ptr.astype(self._ptr.dtype)), shape=(k, k)))
            self._mask = mask
        return self._solver
