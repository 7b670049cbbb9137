"""Locally finite weighted graphs, subdomains, and exhaustion sequences.

A graph is the quadruple (V, E, mu, omega): a vertex measure mu > 0 and
symmetric positive edge weights. Finite graphs are materialized fully;
infinite graphs are represented by a neighbor oracle and materialized as
graph-distance balls, which is all an exhaustion ever touches.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyInteriorWarning,
    EmptyOmega,
    EmptyScope,
    InvalidGraphData,
    IsolatedVertex,
    NonPositiveMeasure,
    NonPositiveWeight,
    SeedOutsideDomain,
    SelfLoop,
)
from .operators import DirichletOperator

def _label_key(label):
    """Total order over the supported label kinds (int, int-tuple, str)."""
    if isinstance(label, bool):
        raise InvalidGraphData(f"bad vertex label {label!r}")
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, tuple):
        return (1, label)
    if isinstance(label, str):
        return (2, label)
    raise InvalidGraphData(f"bad vertex label {label!r}")


class WeightedGraph:
    """Immutable finite materialization of a weighted graph.

    Vertices carry dense integer ids 0..n-1 assigned in sorted label
    order; ``labels`` maps ids back to the external labels. Adjacency is
    stored CSR-style with every row sorted by neighbor id, and the
    symmetric weight is stored bit-identically in both directions.
    ``complete[i]`` is False when vertex i sits on the rim of a ball
    materialization and some of its true neighbors were left out; local
    operators refuse such vertices rather than silently truncating.
    """

    __slots__ = ("labels", "indptr", "indices", "weights", "mu", "complete",
                 "_index")

    def __init__(self, labels, indptr, indices, weights, mu, complete):
        self.labels = tuple(labels)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.mu = mu
        self.complete = complete
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        for arr in (indptr, indices, weights, mu, complete):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.labels)

    @property
    def num_edges(self):
        return int(self.indices.shape[0]) // 2

    def vertex(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InvalidGraphData(f"unknown vertex label {label!r}") from None

    def label_of(self, i):
        return self.labels[i]

    def degree(self, i):
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i):
        """(neighbor ids, weights) of vertex ``i``, ascending by id."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_slots(self, ids):
        """The CSR slots of the rows ``ids``, row after row, and the row
        pointer into them: row r of ``ids`` owns ``slots[ptr[r]:ptr[r+1]]``,
        ascending by neighbor id."""
        start = self.indptr[ids]
        degree = self.indptr[ids + 1] - start
        ptr = np.zeros(degree.size + 1, dtype=np.int64)
        np.cumsum(degree, out=ptr[1:])
        slots = np.arange(ptr[-1]) + np.repeat(start - ptr[:-1], degree)
        return slots, ptr

    def weight_sums(self, ids):
        """The incident weights of each vertex of ``ids``, added in
        ascending neighbor order from 0.0 (``kernels.row_sums``)."""
        start = self.indptr[ids]
        return kernels.row_sums(start, self.indptr[ids + 1] - start,
                                lambda slots, rows: self.weights[slots])

    def __repr__(self):
        return (f"WeightedGraph(n={self.num_vertices}, "
                f"edges={self.num_edges})")


def build_finite_graph(edges, measure):
    """Validate and build a finite graph from an edge list and measure map.

    ``edges`` is an iterable of (x, y, weight) with labels as keys of
    ``measure``. An edge may be listed once (it is symmetrized) or twice in
    opposite orientations with bit-identical weight; anything else raises
    DuplicateEdge. All weights and measures must be strictly positive, the
    graph must be connected, and every vertex needs at least one edge.
    Where several edges are bad, the error names the first in list order.
    """
    labels = sorted(measure.keys(), key=_label_key)
    if not labels:
        raise EmptyScope("no vertices")
    n = len(labels)
    mu = np.fromiter(map(measure.__getitem__, labels), dtype=float, count=n)
    bad = ~((mu > 0.0) & (mu < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPositiveMeasure(f"mu({labels[i]!r}) = {float(mu[i])}")

    edges = list(edges)
    m = len(edges)
    xs, ys, ws = zip(*edges, strict=True) if m else ((), (), ())
    index = {lab: i for i, lab in enumerate(labels)}
    ends = np.fromiter(map(index.get, xs + ys, itertools.repeat(-1)),
                       dtype=np.int64, count=2 * m)
    a, b = ends[:m], ends[m:]
    w = np.array(ws, dtype=float)
    # The listings of each vertex pair in list order: the first is kept, a
    # second must run the other way with the same weight, a third is bad.
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pos = np.arange(m)
    order = np.lexsort((pos, hi, lo))
    slo, shi = lo[order], hi[order]
    new_pair = np.ones(m, dtype=bool)
    new_pair[1:] = (slo[1:] != slo[:-1]) | (shi[1:] != shi[:-1])
    start = np.maximum.accumulate(np.where(new_pair, pos, 0))
    first = order[start]
    rank = pos - start
    repeated = np.empty(m, dtype=bool)
    repeated[order] = (rank >= 2) | ((rank == 1) & (
        (a[order] == a[first]) | (w[order] != w[first])))
    bad = ((a < 0) | (b < 0) | (a == b) | ~((w > 0.0) & (w < np.inf))
           | repeated)
    if bad.any():
        _refuse_edge(edges[int(np.argmax(bad))], index)

    kept = order[new_pair]
    rows = np.concatenate((a[kept], b[kept]))
    cols = np.concatenate((b[kept], a[kept]))
    degree = np.bincount(rows, minlength=n)
    if not degree.all():
        i = int(np.argmin(degree))
        raise IsolatedVertex(f"vertex {labels[i]!r} has no edges")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    csr = np.lexsort((cols, rows))
    g = WeightedGraph(labels, indptr, cols[csr],
                      np.concatenate((w[kept], w[kept]))[csr], mu,
                      np.ones(n, dtype=bool))
    unreachable = int(np.count_nonzero(_bfs_distances(g, (0,)) < 0))
    if unreachable:
        raise DisconnectedGraph(
            f"graph has {unreachable} vertices unreachable from "
            f"{labels[0]!r}")
    return g


def _refuse_edge(edge, index):
    """Raise the error of a bad edge: its first failed check, in the order
    endpoints, weight, self-loop, repeated listing."""
    x, y, w = edge
    if x not in index or y not in index:
        missing = x if x not in index else y
        raise InvalidGraphData(f"edge endpoint {missing!r} has no measure")
    w = float(w)
    if not (w > 0.0) or not math.isfinite(w):
        raise NonPositiveWeight(f"omega({x!r},{y!r}) = {w}")
    if index[x] == index[y]:
        raise SelfLoop(f"self-loop at {x!r}")
    raise DuplicateEdge(f"edge {x!r}--{y!r} listed inconsistently")


@dataclass(frozen=True)
class GraphMetrics:
    """The structural constants mu0 = inf mu, M_d = sup deg, and
    D_mu = sup (1/mu(x)) * sum of incident weights, over a vertex scope."""

    mu0: float
    max_degree: int
    dmu: float


def compute_metrics(g, scope=None):
    """Metrics over ``scope`` (vertex ids; default: every vertex).

    Uses the materialized adjacency, so on a sub-materialization the
    reported M_d and D_mu never exceed (and mu0 never undershoots) the
    values on any larger materialization. Each vertex's incident weights
    are added in ascending neighbor order (``WeightedGraph.weight_sums``).
    """
    if scope is None:
        ids = np.arange(g.num_vertices)
    else:
        ids = np.asarray(sorted(scope), dtype=np.int64)
    if not ids.size:
        raise EmptyScope("metrics over empty vertex set")
    mu = g.mu[ids]
    dmu = g.weight_sums(ids) / mu
    return GraphMetrics(float(np.min(mu)),
                        int(np.max(g.indptr[ids + 1] - g.indptr[ids])),
                        float(np.max(dmu)))


class Domain:
    """A vertex subset Omega with its boundary and interior.

    The boundary is {x in Omega : x has a neighbor outside Omega},
    computed against the ambient graph over the CSR slots of Omega's rows;
    a vertex whose neighborhood is incomplete in the materialization is
    boundary by definition (its missing neighbors are certainly outside
    Omega).
    """

    __slots__ = ("graph", "omega", "boundary", "interior",
                 "omega_ids", "interior_ids", "boundary_ids", "_operator")

    def __init__(self, graph, omega_ids):
        omega = frozenset(int(i) for i in omega_ids)
        if not omega:
            raise EmptyOmega("empty vertex subset")
        ids = np.asarray(sorted(omega), dtype=np.int64)
        if ids[0] < 0 or ids[-1] >= graph.num_vertices:
            raise InvalidGraphData(
                f"vertex id {ids[0] if ids[0] < 0 else ids[-1]} is not in "
                f"the graph")
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[ids] = True
        slots, ptr = graph.row_slots(ids)
        owner = np.repeat(np.arange(ids.size), np.diff(ptr))
        leaves = np.bincount(owner[~member[graph.indices[slots]]],
                             minlength=ids.size)
        on_boundary = ~graph.complete[ids] | (leaves > 0)
        self.graph = graph
        self.omega = omega
        self.omega_ids = ids
        self.boundary_ids = ids[on_boundary]
        self.interior_ids = ids[~on_boundary]
        self.boundary = frozenset(self.boundary_ids.tolist())
        # shares omega's ints (tolist() would make new ones): an exhaustion
        # keeps the domain of every level it has solved
        self.interior = omega - self.boundary
        self.omega_ids.setflags(write=False)
        self.boundary_ids.setflags(write=False)
        self.interior_ids.setflags(write=False)
        self._operator = None

    @property
    def num_interior(self):
        return len(self.interior)

    @property
    def operator(self):
        """The DirichletOperator of the interior, assembled on first use
        and shared by every solver and monitor on this domain: stiffness
        and mass do not depend on the step size."""
        if self._operator is None:
            self._operator = DirichletOperator(self)
        return self._operator

    def release_operator(self):
        """Drop the cached operator; the next use of ``operator`` assembles
        it again."""
        self._operator = None

    def __repr__(self):
        return (f"Domain(|omega|={len(self.omega)}, "
                f"|interior|={len(self.interior)})")


def make_domain(g, omega_ids):
    """Build a Domain from vertex ids; warns if the interior is empty."""
    dom = Domain(g, omega_ids)
    if not dom.interior:
        warnings.warn("domain has empty interior; it cannot pose a problem",
                      EmptyInteriorWarning, stacklevel=2)
    return dom


def domain_from_labels(g, labels):
    return make_domain(g, (g.vertex(lab) for lab in labels))


def _bfs_distances(g, seed_ids):
    """Hop distance of every vertex from the nearest seed, -1 where none
    reaches: one sweep over the CSR rows of each level's frontier."""
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    # a new vertex listed by several frontier rows is kept once, at the
    # position that the write to ``place`` left for it
    place = np.empty(g.num_vertices, dtype=np.int64)
    frontier = np.asarray(seed_ids, dtype=np.int64)
    level = 0
    while frontier.size:
        dist[frontier] = level
        level += 1
        nbrs = g.indices[g.row_slots(frontier)[0]]
        nbrs = nbrs[dist[nbrs] < 0]
        at = np.arange(nbrs.size)
        place[nbrs] = at
        frontier = nbrs[place[nbrs] == at]
    return dist


class ExhaustionSequence:
    """Nested finite domains Omega_1 <= Omega_2 <= ... inside one ambient
    materialization; level m is the graph-distance ball of radius m around
    the seed set, intersected with the target Omega.

    ``dist`` holds each vertex's distance to the seeds, -1 outside Omega.
    A level's Domain is built on first use and cached."""

    def __init__(self, graph, dist, radii, seeds):
        self.graph = graph
        self.dist = dist
        self.radii = tuple(radii)
        self.seeds = tuple(seeds)
        self._levels = {}
        dist.setflags(write=False)

    def level(self, m):
        """The domain at ball radius ``m``."""
        dom = self._levels.get(m)
        if dom is None:
            if m not in self.radii:
                raise ValueError(f"{m} is not a level radius")
            omega_m = np.flatnonzero((self.dist >= 0) & (self.dist <= m))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyInteriorWarning)
                dom = make_domain(self.graph, omega_m)
            self._levels[m] = dom
        return dom

    @property
    def levels(self):
        """Every level's domain, in radius order."""
        return tuple(self.level(m) for m in self.radii)


def exhaust(dom, seeds, max_level):
    """Exhaustion of a finite Domain by balls around ``seeds`` (vertex ids)."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    seeds = tuple(sorted(int(s) for s in seeds))
    if not seeds:
        raise SeedOutsideDomain("empty seed set")
    for s in seeds:
        if s not in dom.omega:
            raise SeedOutsideDomain(f"seed {dom.graph.label_of(s)!r} is not in omega")
    dist = np.full(dom.graph.num_vertices, -1, dtype=np.int64)
    dist[dom.omega_ids] = _bfs_distances(dom.graph, seeds)[dom.omega_ids]
    return ExhaustionSequence(dom.graph, dist, range(1, max_level + 1), seeds)


# -- generative (infinite) graphs -------------------------------------------

class LatticeZ:
    """The integer line: vertices are ints, neighbors x-1 and x+1."""

    def __init__(self, weight=1.0, mu=1.0):
        self.weight = float(weight)
        self.mu = float(mu)

    def neighbors(self, x):
        return ((x - 1, self.weight), (x + 1, self.weight))

    def measure(self, x):
        return self.mu


class LatticeZ2:
    """The square lattice: vertices are (i, j) int pairs, 4 neighbors."""

    def __init__(self, weight=1.0, mu=1.0):
        self.weight = float(weight)
        self.mu = float(mu)

    def neighbors(self, x):
        i, j = x
        w = self.weight
        return (((i - 1, j), w), ((i + 1, j), w),
                ((i, j - 1), w), ((i, j + 1), w))

    def measure(self, x):
        return self.mu


GENERATORS = {"lattice_z": LatticeZ, "lattice_z2": LatticeZ2}


def _materialize(oracle, seed_labels, radius):
    """BFS ball of ``radius`` around the seeds; returns (graph, distances).

    Every materialized vertex is queried once, so rim-to-rim edges are
    kept and the completeness mask is exact. Deterministic: vertex order
    is the sorted label order, independent of BFS traversal order.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    seed_labels = sorted(set(seed_labels), key=_label_key)
    dist = {lab: 0 for lab in seed_labels}
    frontier = list(seed_labels)
    for d in range(1, radius + 1):
        nxt = []
        for lab in frontier:
            for nbr, _ in oracle.neighbors(lab):
                if nbr not in dist:
                    dist[nbr] = d
                    nxt.append(nbr)
        frontier = nxt
    edges = []
    complete_by_label = {}
    for lab in dist:
        ok = True
        for nbr, w in oracle.neighbors(lab):
            if nbr in dist:
                if _label_key(lab) < _label_key(nbr):
                    edges.append((lab, nbr, w))
            else:
                ok = False
        complete_by_label[lab] = ok
    measure = {lab: oracle.measure(lab) for lab in dist}
    g = build_finite_graph(edges, measure)
    complete = np.array([complete_by_label[lab] for lab in g.labels])
    g2 = WeightedGraph(g.labels, g.indptr, g.indices, g.weights, g.mu, complete)
    return g2, dist


def materialize_ball(oracle, seed_labels, radius):
    """Finite materialization of the ball of ``radius`` around the seeds."""
    g, _ = _materialize(oracle, seed_labels, radius)
    return g


def exhaust_generative(oracle, seed_labels, max_level, membership=None):
    """Exhaustion of an unbounded Omega on a generative graph.

    ``membership`` is the indicator of Omega over labels (None means
    Omega = V). The ambient ball of radius max_level + 1 is materialized
    once, so every vertex of every level has a complete neighborhood.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    seed_labels = sorted(set(seed_labels), key=_label_key)
    if not seed_labels:
        raise SeedOutsideDomain("empty seed set")
    if membership is not None:
        for lab in seed_labels:
            if not membership(lab):
                raise SeedOutsideDomain(f"seed {lab!r} is not in omega")
    g, dist_by_label = _materialize(oracle, seed_labels, max_level + 1)
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    for lab, d in dist_by_label.items():
        if membership is None or membership(lab):
            dist[g.vertex(lab)] = d
    seeds = tuple(g.vertex(lab) for lab in seed_labels)
    return ExhaustionSequence(g, dist, range(1, max_level + 1), seeds)
