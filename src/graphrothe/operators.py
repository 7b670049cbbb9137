"""Interior (Dirichlet) operator assembly shared by the solvers.

For a domain with interior vertices x_1 < ... < x_N the stiffness matrix
A has A[a,a] = sum of all weights incident to x_a and A[a,b] = -omega for
interior neighbor pairs; with the diagonal mass mu this gives, for any
field u vanishing outside the interior,

    (A u)_a = mu(x_a) * (-Laplacian u)(x_a)   and   u^T A u = |grad u|^2
                                                    integrated over Omega,

so A is symmetric positive semidefinite (definite whenever the interior
has exterior contact).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import VertexField
from .errors import EmptyInterior, SolverBreakdown, UnmaterializedNeighbor

DIRECT_SOLVE_MAX = 10_000
CG_RTOL = 1e-13


class DirichletOperator:
    """Assembled mass vector and stiffness matrix on a domain's interior."""

    def __init__(self, dom):
        if not dom.interior:
            raise EmptyInterior("domain has no interior vertices")
        g = dom.graph
        ids = dom.interior_ids
        for i in ids:
            if not g.complete[i]:
                raise UnmaterializedNeighbor(
                    f"interior vertex {g.label_of(int(i))!r} has "
                    f"unmaterialized neighbors")
        pos = {int(v): a for a, v in enumerate(ids)}
        n = len(ids)
        rows, cols, vals = [], [], []
        for a, v in enumerate(ids):
            nbrs, w = g.neighbors(int(v))
            rows.append(a)
            cols.append(a)
            vals.append(float(np.sum(w)))
            for j, wj in zip(nbrs, w):
                b = pos.get(int(j))
                if b is not None:
                    rows.append(a)
                    cols.append(b)
                    vals.append(-float(wj))
        self.dom = dom
        self.interior_ids = ids
        self.n = n
        self.mass = np.ascontiguousarray(g.mu[ids])
        self.stiffness = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=float)

    def restrict(self, field):
        """Interior values of a field, in ascending id order."""
        return np.ascontiguousarray(field.values[self.interior_ids])

    def extend(self, w):
        """Admissible field with interior values ``w`` and zeros elsewhere."""
        vals = np.zeros(self.dom.graph.num_vertices)
        vals[self.interior_ids] = w
        return VertexField(self.dom.graph, vals)

    def neg_laplacian(self, w):
        """-Laplacian of the zero-extended interior vector, on the interior."""
        return (self.stiffness @ w) / self.mass

    def l2(self, w):
        """Mass-weighted l2 norm of an interior vector."""
        return float(np.sqrt(np.dot(self.mass * w, w)))


class CachedSPD:
    """SPD solver: direct factorization at small size, Jacobi-preconditioned
    conjugate gradients above ``direct_threshold``. The factorization (or
    preconditioner) is built once and reused across solves."""

    def __init__(self, S, direct_threshold=DIRECT_SOLVE_MAX):
        self.n = S.shape[0]
        self.direct = self.n <= direct_threshold
        if self.direct:
            self._lu = spla.splu(sp.csc_matrix(S))
        else:
            self._S = S.tocsr()
            d = S.diagonal()
            if np.any(d <= 0):
                raise SolverBreakdown("non-positive diagonal in SPD system")
            self._minv = 1.0 / d

    def solve(self, rhs, x0=None):
        if self.direct:
            return self._lu.solve(rhs)
        pre = spla.LinearOperator(
            (self.n, self.n), matvec=lambda r: self._minv * r)
        x, info = spla.cg(self._S, rhs, x0=x0, rtol=CG_RTOL, atol=0.0,
                          maxiter=50 * self.n, M=pre)
        if info != 0:
            raise SolverBreakdown(f"conjugate gradient failed (info={info})")
        return x
