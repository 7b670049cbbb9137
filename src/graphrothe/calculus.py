"""Discrete calculus on weighted graphs: mu-Laplacian, gradient form,
integrals, norms, inner products, and the integration-by-parts identity
used by every solver.

All reductions run in strict ascending-vertex-id order (and ascending
neighbor order inside a vertex) through the one ordered sum,
``kernels.seq_sum``, so reported values are bit-reproducible across runs.

The neighbour sums keep that order over the CSR arrays: the terms of the
Laplacian or the gradient form at every slot of the vertices asked for
are built at once, and one ``seq_sum`` over each vertex's slot segment
adds them in ascending neighbour order from 0.0. ``laplacian`` and
``gamma`` take one vertex through that path.

``norms`` and ``power_integral`` also take a stack of fields, one per row
(the steps of a trajectory), and reduce every row in one pass: each row
is added in vertex order on its own, whatever the stack's memory layout,
so its result is bit for bit that of its field alone. On a stack,
``norms`` gives one NormBundle whose fields are read-only arrays with
one entry per row. Every L2 norm the package reports is the square root
of ``power_integral(..., 2.0)``, taken by ``np.sqrt``, which rounds
correctly as ``math.sqrt`` does. The ``1/q`` powers are taken on Python
floats, row by row, because numpy's array power computes ``** 0.5`` as
``sqrt``, which can differ from ``pow`` in the last bit.
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
    """Refuse ``field`` unless it lives on ``dom``'s graph and vanishes
    outside its interior, naming the first vertex where it does not."""
    if field.graph is not dom.graph:
        raise NotDirichletAdmissible(
            f"{what} lives on a different graph than the domain")
    outside = np.ones(field.graph.num_vertices, dtype=bool)
    outside[dom.interior_ids] = False
    bad = np.flatnonzero(outside & (field.values != 0.0))
    if bad.size:
        label = field.graph.label_of(int(bad[0]))
        raise NotDirichletAdmissible(
            f"{what} must vanish outside the domain interior, but it is "
            f"{field[label]!r} at vertex {label!r}")


def _stencil(g, ids):
    """The neighbour, owning vertex and weight of each CSR slot of the
    vertices ``ids``, and the row pointer; refuses an incomplete vertex."""
    ids = np.asarray(ids, dtype=np.int64)
    incomplete = ids[~g.complete[ids]]
    if incomplete.size:
        label = g.label_of(int(incomplete[0]))
        raise UnmaterializedNeighbor(
            f"vertex {label!r} has unmaterialized neighbors")
    slots, ptr = g.row_slots(ids)
    return (g.indices[slots], np.repeat(ids, np.diff(ptr)), g.weights[slots],
            ptr)


def _laplacian_values(g, values, ids):
    """``laplacian`` at every vertex of ``ids``, bit for bit, for the
    field values ``values``."""
    nbrs, at, w, ptr = _stencil(g, ids)
    return kernels.seq_sum(w * (values[nbrs] - values[at]), ptr) / g.mu[ids]


def laplacian(g, v, at):
    """mu-Laplacian (1/mu(x)) * sum over y~x of omega_xy (v(y) - v(x))."""
    return _laplacian_values(g, v.values, [at])[0]


def gamma(g, w_field, v_field, at):
    """Gradient form (1/(2 mu(x))) * sum of omega (w(y)-w(x)) (v(y)-v(x))."""
    return _gamma_values(g, w_field.values, v_field.values, [at])[0]


def integrate(g, v, over=None):
    """Integral sum of mu(x) v(x) over a finite vertex-id subset
    (default: all materialized vertices), in ascending id order."""
    if over is None:
        ids = np.arange(g.num_vertices)
    else:
        ids = np.asarray(sorted(int(i) for i in over), dtype=np.int64)
    return kernels.seq_sum(g.mu[ids] * v.values[ids])


def power_integral(g, values, ids, q):
    """Integral over ``ids`` of mu |v|^q, summed in the order given: a
    float for one field's values, one per row for a stack of them."""
    return kernels.seq_sum(g.mu[ids] * np.abs(values[..., ids]) ** q)


def _l2_rows(g, values, ids):
    """The L2 norm over ``ids`` of each row of a stack of field values."""
    return np.sqrt(power_integral(g, values, ids, 2.0))


def _read_only(a):
    """``a`` as a float array that refuses writes."""
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _gamma_values(g, wv, vv, ids):
    """``gamma`` at every vertex of ``ids`` in one pass over the neighbour
    slots, for the field values ``wv`` and ``vv`` (one field each, or
    stacks with one field per row); refuses the first incomplete vertex
    of ``ids``."""
    nbrs, at, w, ptr = _stencil(g, ids)
    # (dw * dv) is grouped first so swapping the arguments is exactly
    # neutral; the products are formed in place to hold fewer temporaries
    terms = wv[..., nbrs] - wv[..., at]
    terms *= vv[..., nbrs] - vv[..., at]
    terms *= w
    return kernels.seq_sum(terms, ptr) / (2.0 * g.mu[ids])


def _gamma_integral(g, w_field, v_field, ids):
    """Integral of Gamma(w, v) over ``ids``, summed in the order given."""
    return kernels.seq_sum(
        g.mu[ids] * _gamma_values(g, w_field.values, v_field.values, ids))


@dataclass(frozen=True)
class NormBundle:
    """The norms of ``norms``: floats for one field, and read-only arrays
    with one entry per row for a stack of fields."""

    l2_interior: object
    l2_domain: object
    lq: object
    w12: object
    grad_l2: object


def norms(g, v, dom, q=2.0):
    """L2 over the interior and over Omega, Lq over Omega (q in [1, inf]),
    the W^{1,2}(Omega) norm, and the gradient L2 norm over Omega.

    ``v`` is a field, which gives a NormBundle of floats, or a stack of
    field values with one field per row (K x V), which gives one
    NormBundle of length-K arrays in one pass. Each row is added in
    vertex order on its own, so entry k of a stacked bundle is bit for
    bit the bundle of row k's field alone. The ``1/q`` roots are taken on
    Python floats: numpy's array power turns ``** 0.5`` into ``sqrt``,
    which can differ from ``pow`` in the last bit."""
    if math.isnan(q) or q < 1.0:
        raise InvalidQ(f"q = {q}")
    single = isinstance(v, VertexField)
    values = v.values[None] if single else np.asarray(v, dtype=float)
    omega = dom.omega_ids
    grad_sq = np.maximum(kernels.seq_sum(
        g.mu[omega] * _gamma_values(g, values, values, omega)), 0.0)
    int_sq = power_integral(g, values, dom.interior_ids, 2.0)
    dom_sq = power_integral(g, values, omega, 2.0)
    if math.isinf(q):
        lq = np.max(np.abs(values[:, omega]), axis=1, initial=0.0)
    else:
        lq_sums = dom_sq if q == 2.0 else power_integral(g, values, omega, q)
        lq = [s ** (1.0 / q) for s in lq_sums.tolist()]
    l2d = np.sqrt(dom_sq)
    columns = (np.sqrt(int_sq), l2d, lq, np.sqrt(grad_sq + l2d * l2d),
               np.sqrt(grad_sq))
    if single:
        return NormBundle(*(float(c[0]) for c in columns))
    return NormBundle(*map(_read_only, columns))


def inner_product(g, w_field, v_field, dom, kind="L2"):
    """L2 inner product over the interior, or the W^{1,2}_0-type inner
    product integral of (Gamma(w, v) + w v) over Omega."""
    if kind == "L2":
        ids = dom.interior_ids
        return kernels.seq_sum(
            g.mu[ids] * (w_field.values[ids] * v_field.values[ids]))
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
    ids = dom.interior_ids
    lap = _laplacian_values(g, v1.values, ids)
    # the terms are negated so that one ordered sum from 0.0 is the loop
    # lhs = lhs - mu(x) Lap v1(x) v2(x), bit for bit
    lhs = kernels.seq_sum(-(g.mu[ids] * lap * v2.values[ids]))
    rhs = _gamma_integral(g, v1, v2, dom.omega_ids)
    return abs(lhs - rhs)
