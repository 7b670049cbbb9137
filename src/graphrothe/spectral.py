"""Reference solutions on finite domains.

For p = 1 the flow du/dt + u = Laplacian u with zero exterior values has
the closed form

    u(x, t) = sum_j c_j exp(-(lambda_j + 1) t) phi_j(x),

where (lambda_j, phi_j) are the Dirichlet eigenpairs of -Laplacian and
the basis is orthonormal in the gradient+mass inner product, so the
coefficients are c_j = (h, phi_j) in that inner product. The basis is one
matrix with a column per mode (``SpectralBasis.vectors``), so both are
matrix products; mode j as a field is the zero extension
``field_on_interior(domain, vectors[:, j])``. For general p >= 1 the
interior system is a smooth ODE and a classical fourth-order explicit
integrator with Richardson step-halving serves as an oracle that shares
no machinery with the implicit Rothe solver. Both oracles return one
K x V array, a row per requested time in the order requested, in the
layout of a run's ``values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _l2_rows, require_admissible
from .errors import StiffnessFailure, TimeOutOfRange
from .graph import Domain

ODE_MAX_STEPS = 1 << 21

# Largest interior the CLI builds a dense eigenbasis of: a spectral run on
# 2,025 interior vertices took 11.5 s and 474 MB peak RSS on 2 CPUs.
MAX_DENSE_INTERIOR = 2048


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Dirichlet eigenpairs on a finite domain, ascending eigenvalues.

    ``vectors`` is one read-only matrix of the eigenfields' interior
    values: row a belongs to the interior vertex ``domain.interior_ids[a]``
    (ascending id order) and column j to mode j, with zeros implied on the
    rest of the graph. Eigenfields are orthonormal in the W^{1,2}_0 inner
    product, i.e. the mass normalization is (lambda_j + 1) * I(phi_j^2) = 1,
    and each phi_j has its first nonzero interior component positive.
    ``residuals`` holds the L2 residuals of -Laplacian phi_j = lambda_j phi_j.
    """

    domain: Domain
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def size(self):
        return self.eigenvalues.size

    @property
    def has_nonpositive_modes(self):
        top = max(1.0, float(self.eigenvalues[-1]))
        return bool(np.any(self.eigenvalues <= 1e-12 * top))


def dirichlet_eigenbasis(dom):
    """Eigenpairs of the generalized problem A phi = lambda M phi via the
    symmetric similarity M^{-1/2} A M^{-1/2} (dense; finite domains at
    desk scale), rescaled to unit W^{1,2}_0 norm."""
    op = dom.operator
    d = 1.0 / np.sqrt(op.mass)
    B = op.stiffness.toarray() * d[:, None] * d[None, :]
    B = 0.5 * (B + B.T)
    lam, psi = np.linalg.eigh(B)
    W = d[:, None] * psi / np.sqrt(1.0 + np.maximum(lam, 0.0))
    # flip every column whose first nonzero entry is negative
    first = W[np.argmax(W != 0.0, axis=0), np.arange(op.n)]
    W *= np.where(first < 0.0, -1.0, 1.0)
    W.setflags(write=False)
    R = (op.stiffness @ W) / op.mass[:, None] - W * lam
    return SpectralBasis(dom, lam, W, _l2_rows(
        dom.graph, op.extend_rows(R.T), dom.interior_ids))


def w12_coefficients(basis, h):
    """Expansion coefficients of ``h`` in the W^{1,2}_0-orthonormal basis:
    c_j = (1 + lambda_j) * I(h phi_j)."""
    op = basis.domain.operator
    return (1.0 + basis.eigenvalues) * (basis.vectors.T
                                        @ (op.mass * op.restrict(h)))


def exact_p1_solution(basis, h, times):
    """Closed-form solution of the p = 1 flow as a K x V array, row k the
    field values at the time t_k >= 0 of ``times``."""
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise TimeOutOfRange(f"t = {min(times)} must be >= 0")
    op = basis.domain.operator
    require_admissible(h, basis.domain, "initial field")
    coeff = w12_coefficients(basis, h)
    decay = np.exp(-np.outer(times, basis.eigenvalues + 1.0))
    return op.extend_rows((coeff * decay) @ basis.vectors.T)


def _rk4_segment(op, p, w, t0, t1, nsteps):
    def rhs(v):
        return -op.neg_laplacian(v) - (np.abs(v) ** (p - 1.0) * v
                                       if p != 1.0 else v)

    h = (t1 - t0) / nsteps
    # overflow of a diverging (unstable) run is the detection mechanism here
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsteps):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * h * k1)
            k3 = rhs(w + 0.5 * h * k2)
            k4 = rhs(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(w)):
                return None
    return w


def ode_oracle(prob, t_eval, tol=1e-10):
    """High-accuracy reference values at the requested times, as a K x V
    array with a row per time in the order given.

    Classical RK4 with a uniform base step, halved until the answers at
    every requested time move by less than ``tol`` in the sup norm; the
    exterior is pinned to zero throughout. Raises StiffnessFailure when
    the step budget is exhausted before the halving stabilizes (explicit
    stepping cannot resolve the problem; refine or use the p = 1 closed
    form).
    """
    if not isinstance(prob.domain, Domain):
        raise TypeError("ode_oracle needs a finite Domain")
    if tol < 1e-13:
        raise ValueError(f"tol must be >= 1e-13, got {tol}")
    times = [float(t) for t in t_eval]
    if any(t < 0.0 for t in times):
        raise TimeOutOfRange("evaluation times must be >= 0")
    order = np.argsort(times, kind="stable")
    sorted_times = [times[k] for k in order]
    op = prob.domain.operator
    w0 = op.restrict(prob.initial)
    t_max = sorted_times[-1] if sorted_times else 0.0

    def run(n_base):
        h_base = t_max / n_base if t_max > 0.0 else 1.0
        out = []
        w = w0
        t_prev = 0.0
        for t in sorted_times:
            if t > t_prev:
                nsteps = max(1, int(math.ceil((t - t_prev) / h_base - 1e-12)))
                w = _rk4_segment(op, prob.p, w, t_prev, t, nsteps)
                if w is None:
                    return None
                t_prev = t
            out.append(w)
        return out

    n_base = 16
    prev = run(n_base)
    while True:
        n_base *= 2
        if n_base > ODE_MAX_STEPS:
            raise StiffnessFailure(
                f"no stable step size above budget {ODE_MAX_STEPS}; "
                f"problem too stiff for explicit integration")
        cur = run(n_base)
        if cur is not None and prev is not None:
            defect = max((float(np.max(np.abs(a - b)))
                          for a, b in zip(cur, prev)), default=0.0)
            if defect < tol:
                break
        prev = cur
    # row k of ``cur`` is at the time order[k]
    W = np.empty((len(times), op.n))
    W[order] = np.reshape(cur, W.shape)
    return op.extend_rows(W)
