"""Locally finite weighted graphs, subdomains, and exhaustion sequences.

A graph is the quadruple (V, E, mu, omega): a vertex measure mu > 0 and
symmetric positive edge weights. Finite graphs are materialized fully;
infinite graphs are represented by a neighbor oracle and materialized as
graph-distance balls, which is all an exhaustion ever touches.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

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
    """
    labels = sorted(measure.keys(), key=_label_key)
    if not labels:
        raise EmptyScope("no vertices")
    index = {lab: i for i, lab in enumerate(labels)}
    mu = np.empty(len(labels))
    for lab, i in index.items():
        m = float(measure[lab])
        if not (m > 0.0) or not math.isfinite(m):
            raise NonPositiveMeasure(f"mu({lab!r}) = {m}")
        mu[i] = m

    adj = {i: {} for i in range(len(labels))}
    seen = {}
    for x, y, w in edges:
        if x not in index or y not in index:
            missing = x if x not in index else y
            raise InvalidGraphData(f"edge endpoint {missing!r} has no measure")
        w = float(w)
        if not (w > 0.0) or not math.isfinite(w):
            raise NonPositiveWeight(f"omega({x!r},{y!r}) = {w}")
        a, b = index[x], index[y]
        if a == b:
            raise SelfLoop(f"self-loop at {x!r}")
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            first, w0, count = seen[pair]
            if count >= 2 or first == (a, b) or w != w0:
                raise DuplicateEdge(f"edge {x!r}--{y!r} listed inconsistently")
            seen[pair] = (first, w0, 2)
        else:
            seen[pair] = ((a, b), w, 1)
            adj[a][b] = w
            adj[b][a] = w

    for i, row in adj.items():
        if not row:
            raise IsolatedVertex(f"vertex {labels[i]!r} has no edges")

    _check_connected(adj, labels)

    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    indices = []
    weights = []
    for i in range(len(labels)):
        nbrs = sorted(adj[i].items())
        indptr[i + 1] = indptr[i] + len(nbrs)
        indices.extend(k for k, _ in nbrs)
        weights.extend(w for _, w in nbrs)
    return WeightedGraph(labels, indptr,
                         np.asarray(indices, dtype=np.int64),
                         np.asarray(weights, dtype=float),
                         mu,
                         np.ones(len(labels), dtype=bool))


def _check_connected(adj, labels):
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if len(seen) != len(labels):
        raise DisconnectedGraph(
            f"graph has {len(labels) - len(seen)} vertices unreachable "
            f"from {labels[0]!r}")


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
    values on any larger materialization.
    """
    ids = range(g.num_vertices) if scope is None else sorted(scope)
    ids = list(ids)
    if not ids:
        raise EmptyScope("metrics over empty vertex set")
    mu0 = math.inf
    md = 0
    dmu = 0.0
    for i in ids:
        mu0 = min(mu0, g.mu[i])
        md = max(md, g.degree(i))
        _, w = g.neighbors(i)
        dmu = max(dmu, float(np.sum(w)) / g.mu[i])
    return GraphMetrics(float(mu0), int(md), float(dmu))


class Domain:
    """A vertex subset Omega with its boundary and interior.

    The boundary is {x in Omega : x has a neighbor outside Omega},
    computed against the ambient graph; a vertex whose neighborhood is
    incomplete in the materialization is boundary by definition (its
    missing neighbors are certainly outside Omega).
    """

    __slots__ = ("graph", "omega", "boundary", "interior",
                 "omega_ids", "interior_ids", "boundary_ids")

    def __init__(self, graph, omega_ids):
        omega = frozenset(int(i) for i in omega_ids)
        if not omega:
            raise EmptyOmega("empty vertex subset")
        boundary = set()
        for i in omega:
            if not graph.complete[i]:
                boundary.add(i)
                continue
            nbrs, _ = graph.neighbors(i)
            if any(int(j) not in omega for j in nbrs):
                boundary.add(i)
        self.graph = graph
        self.omega = omega
        self.boundary = frozenset(boundary)
        self.interior = omega - self.boundary
        self.omega_ids = np.asarray(sorted(omega), dtype=np.int64)
        self.boundary_ids = np.asarray(sorted(self.boundary), dtype=np.int64)
        self.interior_ids = np.asarray(sorted(self.interior), dtype=np.int64)
        self.omega_ids.setflags(write=False)
        self.boundary_ids.setflags(write=False)
        self.interior_ids.setflags(write=False)

    @property
    def num_interior(self):
        return len(self.interior)

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
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    queue = deque()
    for s in sorted(seed_ids):
        dist[s] = 0
        queue.append(s)
    while queue:
        i = queue.popleft()
        nbrs, _ = g.neighbors(i)
        for j in nbrs:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(int(j))
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
