"""Discrete calculus on weighted graphs: mu-Laplacian, gradient form,
integrals, norms, inner products, and the integration-by-parts identity
used by every solver.

All reductions run in strict ascending-vertex-id order (and ascending
neighbor order inside a vertex) through the sequential-sum kernels, so
reported values are bit-reproducible across runs.

Integrals of the gradient form keep that order over the CSR arrays: one
accumulator per vertex starts at 0.0, and at neighbour slot k = 0, 1, ...
every vertex with a k-th neighbour adds its term omega * (dw * dv), so
each vertex sums exactly as ``gamma`` does; one ordered sum over the
vertices finishes the integral. ``laplacian`` and ``gamma`` stay as the
per-vertex reference definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    InvalidQ,
    NotDirichletAdmissible,
    UnmaterializedNeighbor,
)


class VertexField:
    """A real value per materialized vertex; immutable once built."""

    __slots__ = ("graph", "values")

    def __init__(self, graph, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (graph.num_vertices,):
            raise ValueError(
                f"expected {graph.num_vertices} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.graph = graph
        self.values = values

    @classmethod
    def zeros(cls, graph):
        return cls(graph, np.zeros(graph.num_vertices))

    @classmethod
    def from_mapping(cls, graph, mapping):
        """Field from {label: value}; unlisted vertices are 0."""
        vals = np.zeros(graph.num_vertices)
        for lab, v in mapping.items():
            vals[graph.vertex(lab)] = float(v)
        return cls(graph, vals)

    @classmethod
    def indicator(cls, graph, label):
        return cls.from_mapping(graph, {label: 1.0})

    def __getitem__(self, label):
        return float(self.values[self.graph.vertex(label)])

    def is_admissible(self, dom):
        """True iff the field vanishes exactly on V minus the interior."""
        if dom.graph is not self.graph:
            return False
        mask = np.ones(self.graph.num_vertices, dtype=bool)
        mask[dom.interior_ids] = False
        return bool(np.all(self.values[mask] == 0.0))

    def __repr__(self):
        return f"VertexField(n={self.graph.num_vertices})"


def field_on_interior(dom, interior_values):
    """Admissible field with the given values on dom.interior_ids
    (ascending id order) and exact zeros elsewhere."""
    vals = np.zeros(dom.graph.num_vertices)
    vals[dom.interior_ids] = interior_values
    return VertexField(dom.graph, vals)


def require_admissible(field, dom, what="field"):
    if not field.is_admissible(dom):
        raise NotDirichletAdmissible(
            f"{what} does not vanish outside the domain interior")


def _require_complete(graph, i):
    if not graph.complete[i]:
        raise UnmaterializedNeighbor(
            f"vertex {graph.label_of(i)!r} has unmaterialized neighbors")


def laplacian(g, v, at):
    """mu-Laplacian (1/mu(x)) * sum over y~x of omega_xy (v(y) - v(x))."""
    _require_complete(g, at)
    nbrs, w = g.neighbors(at)
    contrib = np.ascontiguousarray(w * (v.values[nbrs] - v.values[at]))
    return kernels.seq_sum(contrib) / g.mu[at]


def gamma(g, w_field, v_field, at):
    """Gradient form (1/(2 mu(x))) * sum of omega (w(y)-w(x)) (v(y)-v(x))."""
    _require_complete(g, at)
    nbrs, w = g.neighbors(at)
    dw = w_field.values[nbrs] - w_field.values[at]
    dv = v_field.values[nbrs] - v_field.values[at]
    # group (dw * dv) first so swapping the arguments is exactly neutral
    contrib = np.ascontiguousarray(w * (dw * dv))
    return kernels.seq_sum(contrib) / (2.0 * g.mu[at])


def integrate(g, v, over=None):
    """Integral sum of mu(x) v(x) over a finite vertex-id subset
    (default: all materialized vertices), in ascending id order."""
    if over is None:
        ids = np.arange(g.num_vertices)
    else:
        ids = np.asarray(sorted(int(i) for i in over), dtype=np.int64)
    if ids.size == 0:
        return 0.0
    return kernels.seq_sum(np.ascontiguousarray(g.mu[ids] * v.values[ids]))


def _power_integral(g, v, ids, q):
    vals = np.abs(v.values[ids]) ** q
    return kernels.seq_sum(np.ascontiguousarray(g.mu[ids] * vals))


def _gamma_values(g, w_field, v_field, ids):
    """``gamma`` at every vertex of ``ids``, bit for bit, in one pass over
    the neighbour slots; refuses the first incomplete vertex of ``ids``."""
    ids = np.asarray(ids, dtype=np.int64)
    incomplete = np.flatnonzero(~g.complete[ids])
    if incomplete.size:
        _require_complete(g, int(ids[incomplete[0]]))
    start = g.indptr[ids]
    degree = g.indptr[ids + 1] - start
    wv, vv = w_field.values, v_field.values
    acc = np.zeros(ids.size)
    for k in range(int(degree.max(initial=0))):
        rows = np.flatnonzero(degree > k)
        slot = start[rows] + k
        nbrs = g.indices[slot]
        at = ids[rows]
        acc[rows] = acc[rows] + g.weights[slot] * (
            (wv[nbrs] - wv[at]) * (vv[nbrs] - vv[at]))
    return acc / (2.0 * g.mu[ids])


def _gamma_integral(g, w_field, v_field, ids):
    """Integral of Gamma(w, v) over ``ids``, summed in the order given."""
    return kernels.seq_sum(g.mu[ids] * _gamma_values(g, w_field, v_field, ids))


@dataclass(frozen=True)
class NormBundle:
    l2_interior: float
    l2_domain: float
    lq: float
    w12: float
    grad_l2: float


def norms(g, v, dom, q=2.0):
    """L2 over the interior and over Omega, Lq over Omega (q in [1, inf]),
    the W^{1,2}(Omega) norm, and the gradient L2 norm over Omega."""
    if math.isnan(q) or q < 1.0:
        raise InvalidQ(f"q = {q}")
    grad_sq = _gamma_integral(g, v, v, dom.omega_ids)
    l2i = math.sqrt(_power_integral(g, v, dom.interior_ids, 2.0))
    l2d = math.sqrt(_power_integral(g, v, dom.omega_ids, 2.0))
    if math.isinf(q):
        lq = float(np.max(np.abs(v.values[dom.omega_ids]))) \
            if dom.omega_ids.size else 0.0
    else:
        lq = _power_integral(g, v, dom.omega_ids, q) ** (1.0 / q)
    grad = math.sqrt(max(grad_sq, 0.0))
    w12 = math.sqrt(max(grad_sq, 0.0) + l2d * l2d)
    return NormBundle(l2i, l2d, lq, w12, grad)


def inner_product(g, w_field, v_field, dom, kind="L2"):
    """L2 inner product over the interior, or the W^{1,2}_0-type inner
    product integral of (Gamma(w, v) + w v) over Omega."""
    if kind == "L2":
        ids = dom.interior_ids
        prods = g.mu[ids] * (w_field.values[ids] * v_field.values[ids])
        return kernels.seq_sum(np.ascontiguousarray(prods))
    if kind == "W12":
        ids = dom.omega_ids
        gam = _gamma_values(g, w_field, v_field, ids)
        return kernels.seq_sum(
            g.mu[ids] * (gam + w_field.values[ids] * v_field.values[ids]))
    raise ValueError(f"unknown inner product kind {kind!r}")


def green_identity_check(g, dom, v1, v2):
    """|LHS - RHS| for the admissible-field identity
    -integral over the interior of (Laplacian v1) v2 dmu
    = integral over Omega of Gamma(v1, v2) dmu."""
    require_admissible(v1, dom, "v1")
    require_admissible(v2, dom, "v2")
    for i in dom.omega_ids:
        _require_complete(g, int(i))
    lhs = 0.0
    for i in dom.interior_ids:
        i = int(i)
        lhs = lhs - g.mu[i] * laplacian(g, v1, i) * v2.values[i]
    rhs = _gamma_integral(g, v1, v2, dom.omega_ids)
    return abs(lhs - rhs)
