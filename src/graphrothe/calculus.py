"""Discrete calculus on weighted graphs: mu-Laplacian, gradient form,
integrals, norms, inner products, and the integration-by-parts identity
used by every solver.

All reductions run in strict ascending-vertex-id order (and ascending
neighbor order inside a vertex) through the sequential-sum kernels, so
reported values are bit-reproducible across runs.

Integrals of the gradient form keep that order over the CSR arrays: the
terms omega * (dw * dv) of every vertex's slots go through
``kernels.row_sums``, which adds each vertex's terms in ascending neighbour
order from 0.0 exactly as ``gamma`` does; one ordered sum over the
vertices finishes the integral. ``laplacian`` and ``gamma`` stay as the
per-vertex reference definitions.

``norms`` and ``power_integral`` also take a stack of fields, one per row
(the steps of a trajectory), and reduce every row in one pass: each row
is added in vertex order on its own, so its result is bit for bit that of
its field alone. A field alone is the one-row case of the same code.
Square roots and ``1/q`` powers are taken on Python floats, row by row,
because numpy's array power computes ``** 0.5`` as ``sqrt``, which can
differ from ``pow`` in the last bit.
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


def power_integral(g, values, ids, q):
    """Integral over ``ids`` of mu |v|^q, summed in the order given: a
    float for one field's values, one per row for a stack of them."""
    return kernels.seq_sum(g.mu[ids] * np.abs(values[..., ids]) ** q)


def _gamma_values(g, wv, vv, ids):
    """``gamma`` at every vertex of ``ids``, bit for bit, in one pass over
    the neighbour slots, for the field values ``wv`` and ``vv`` (one field
    each, or stacks with one field per row); refuses the first incomplete
    vertex of ``ids``."""
    ids = np.asarray(ids, dtype=np.int64)
    incomplete = np.flatnonzero(~g.complete[ids])
    if incomplete.size:
        _require_complete(g, int(ids[incomplete[0]]))

    def terms(slots, rows):
        nbrs = g.indices[slots]
        at = ids[rows]
        return g.weights[slots] * ((wv[..., nbrs] - wv[..., at])
                                   * (vv[..., nbrs] - vv[..., at]))

    start = g.indptr[ids]
    return (kernels.row_sums(start, g.indptr[ids + 1] - start, terms)
            / (2.0 * g.mu[ids]))


def _gamma_integral(g, w_field, v_field, ids):
    """Integral of Gamma(w, v) over ``ids``, summed in the order given."""
    return kernels.seq_sum(
        g.mu[ids] * _gamma_values(g, w_field.values, v_field.values, ids))


@dataclass(frozen=True)
class NormBundle:
    l2_interior: float
    l2_domain: float
    lq: float
    w12: float
    grad_l2: float


def norms(g, v, dom, q=2.0):
    """L2 over the interior and over Omega, Lq over Omega (q in [1, inf]),
    the W^{1,2}(Omega) norm, and the gradient L2 norm over Omega.

    ``v`` is a field, which gives one NormBundle, or a stack of field
    values with one field per row (K x V), which gives a tuple of K
    bundles in one pass. Each row is added in vertex order on its own, so
    a stacked bundle is bit for bit the bundle of its field alone. The
    roots are taken on Python floats: numpy's array power turns
    ``** 0.5`` into ``sqrt``, which can differ from ``pow`` in the last
    bit."""
    if math.isnan(q) or q < 1.0:
        raise InvalidQ(f"q = {q}")
    single = isinstance(v, VertexField)
    values = v.values[None] if single else np.asarray(v, dtype=float)
    omega = dom.omega_ids
    grad_sq = kernels.seq_sum(
        g.mu[omega] * _gamma_values(g, values, values, omega))
    int_sq = power_integral(g, values, dom.interior_ids, 2.0)
    dom_sq = power_integral(g, values, omega, 2.0)
    if math.isinf(q):
        lq = np.max(np.abs(values[:, omega]), axis=1, initial=0.0).tolist()
    else:
        lq_sums = dom_sq if q == 2.0 else power_integral(g, values, omega, q)
        lq = [s ** (1.0 / q) for s in lq_sums.tolist()]
    bundles = []
    for gs, si, sd, lq_k in zip(grad_sq.tolist(), int_sq.tolist(),
                                dom_sq.tolist(), lq):
        l2d = math.sqrt(sd)
        gs = max(gs, 0.0)
        bundles.append(NormBundle(math.sqrt(si), l2d, lq_k,
                                  math.sqrt(gs + l2d * l2d), math.sqrt(gs)))
    return bundles[0] if single else tuple(bundles)


def inner_product(g, w_field, v_field, dom, kind="L2"):
    """L2 inner product over the interior, or the W^{1,2}_0-type inner
    product integral of (Gamma(w, v) + w v) over Omega."""
    if kind == "L2":
        ids = dom.interior_ids
        prods = g.mu[ids] * (w_field.values[ids] * v_field.values[ids])
        return kernels.seq_sum(np.ascontiguousarray(prods))
    if kind == "W12":
        ids = dom.omega_ids
        gam = _gamma_values(g, w_field.values, v_field.values, ids)
        return kernels.seq_sum(
            g.mu[ids] * (gam + w_field.values[ids] * v_field.values[ids]))
    raise ValueError(f"unknown inner product kind {kind!r}")


def w12_gram(g, dom, vectors):
    """Gram matrix of ``inner_product(kind="W12")`` over the columns of
    ``vectors``, the interior values (ascending id order) of admissible
    fields, added by matrix products over the graph's CSR slots. A slot
    to an unmaterialized neighbour would join two zeros, so an incomplete
    boundary vertex is not refused here."""
    ids = dom.omega_ids
    phi = np.zeros((g.num_vertices, vectors.shape[1]))
    phi[dom.interior_ids] = vectors
    slots, ptr = g.row_slots(ids)
    dphi = phi[g.indices[slots]] - phi[np.repeat(ids, np.diff(ptr))]
    return (0.5 * (dphi.T * g.weights[slots]) @ dphi
            + (phi[ids].T * g.mu[ids]) @ phi[ids])


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
