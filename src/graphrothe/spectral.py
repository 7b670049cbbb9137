"""Reference solutions on finite domains.

For p = 1 the flow du/dt + u = Laplacian u with zero exterior values has
the closed form

    u(x, t) = sum_j c_j exp(-(lambda_j + 1) t) phi_j(x),

where (lambda_j, phi_j) are the Dirichlet eigenpairs of -Laplacian and
the basis is orthonormal in the gradient+mass inner product, so the
coefficients are c_j = (h, phi_j) in that inner product. For general
p >= 1 the interior system is a smooth ODE and a classical fourth-order
explicit integrator with Richardson step-halving serves as an oracle that
shares no machinery with the implicit Rothe solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .calculus import field_on_interior, require_admissible
from .errors import StiffnessFailure, TimeOutOfRange
from .graph import Domain
from .operators import DirichletOperator

ODE_MAX_STEPS = 1 << 21


@dataclass(frozen=True)
class SpectralBasis:
    """Dirichlet eigenpairs on a finite domain, ascending eigenvalues.

    Eigenfields are orthonormal in the W^{1,2}_0 inner product, i.e.
    the mass normalization is (lambda_j + 1) * I(phi_j^2) = 1, and each
    phi_j has its first nonzero interior component positive. ``residuals``
    holds the L2 residuals of -Laplacian phi_j = lambda_j phi_j.
    """

    domain: Domain
    eigenvalues: np.ndarray
    fields: tuple
    residuals: np.ndarray

    @property
    def size(self):
        return len(self.fields)

    @property
    def has_nonpositive_modes(self):
        top = max(1.0, float(self.eigenvalues[-1]))
        return bool(np.any(self.eigenvalues <= 1e-12 * top))


def dirichlet_eigenbasis(dom):
    """Eigenpairs of the generalized problem A phi = lambda M phi via the
    symmetric similarity M^{-1/2} A M^{-1/2} (dense; finite domains at
    desk scale), rescaled to unit W^{1,2}_0 norm."""
    op = DirichletOperator(dom)
    d = 1.0 / np.sqrt(op.mass)
    B = op.stiffness.toarray() * d[:, None] * d[None, :]
    B = 0.5 * (B + B.T)
    lam, psi = np.linalg.eigh(B)
    fields = []
    residuals = np.empty(op.n)
    for j in range(op.n):
        w = d * psi[:, j] / math.sqrt(1.0 + max(lam[j], 0.0))
        nz = np.nonzero(w)[0]
        if nz.size and w[nz[0]] < 0.0:
            w = -w
        residuals[j] = op.l2(op.neg_laplacian(w) - lam[j] * w)
        fields.append(op.extend(w))
    return SpectralBasis(dom, lam, tuple(fields), residuals)


def w12_coefficients(basis, h):
    """Expansion coefficients of ``h`` in the W^{1,2}_0-orthonormal basis:
    c_j = (1 + lambda_j) * I(h phi_j)."""
    dom = basis.domain
    g = dom.graph
    ids = dom.interior_ids
    mu_h = np.ascontiguousarray(g.mu[ids] * h.values[ids])
    coeff = np.empty(basis.size)
    for j, phi in enumerate(basis.fields):
        coeff[j] = (1.0 + basis.eigenvalues[j]) * kernels.seq_dot(
            mu_h, np.ascontiguousarray(phi.values[ids]))
    return coeff


def exact_p1_solution(basis, h, times):
    """Closed-form solution of the p = 1 flow, one field per time t >= 0
    in ``times``."""
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise TimeOutOfRange(f"t = {min(times)} must be >= 0")
    dom = basis.domain
    require_admissible(h, dom, "initial field")
    coeff = w12_coefficients(basis, h)
    ids = dom.interior_ids
    w = np.zeros((len(times), len(ids)))
    for j, phi in enumerate(basis.fields):
        decay = [coeff[j] * math.exp(-(basis.eigenvalues[j] + 1.0) * t)
                 for t in times]
        w += np.array(decay)[:, None] * phi.values[ids]
    return [field_on_interior(dom, row) for row in w]


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
    """High-accuracy reference fields at the requested times.

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
    op = DirichletOperator(prob.domain)
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
    fields_sorted = [op.extend(w) for w in cur]
    fields = [None] * len(times)
    for pos, k in enumerate(order):
        fields[k] = fields_sorted[pos]
    return fields
