"""Locally finite weighted graphs, subdomains, and exhaustion sequences.

A graph is the quadruple (V, E, mu, omega): a vertex measure mu > 0 and
symmetric positive edge weights. Finite graphs are materialized fully.
The infinite lattices Z and Z^2 are materialized as graph-distance
balls, which is all an exhaustion ever touches. A ball is built from
int64 coordinate arrays: the L1 diamond of offsets around each seed,
merged on an encoded key that sorts in label order, with the neighbors
of each vertex found by binary search on that key.

A Domain holds Omega, its boundary and its interior as sorted arrays of
vertex ids and nothing else; an ExhaustionSequence builds the Domain of
a level on first use (``level``).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

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


def format_label(label):
    """A label as the text files write it: ints in decimal, int tuples
    comma-joined, strings as they are."""
    if isinstance(label, tuple):
        return ",".join(map(str, label))
    return str(label)


def parse_label(token):
    """The label a text token names: an int, a tuple of ints for a
    comma-joined token, else the token itself (``format_label``'s
    inverse)."""
    if "," in token:
        try:
            return tuple(map(int, token.split(",")))
        except ValueError:
            return token
    try:
        return int(token)
    except ValueError:
        return token


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
                 "_index", "_names", "_token_ids")

    def __init__(self, labels, indptr, indices, weights, mu, complete):
        self.labels = tuple(labels)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.mu = mu
        self.complete = complete
        self._index = dict(zip(self.labels, range(len(self.labels))))
        self._names = None
        self._token_ids = {}
        for arr in (indptr, indices, weights, mu, complete):
            arr.setflags(write=False)

    @property
    def names(self):
        """Every label as text (``format_label``), in vertex order:
        formatted on first use and shared by every file written."""
        if self._names is None:
            self._names = tuple(map(format_label, self.labels))
        return self._names

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

    def vertex_named(self, token):
        """The vertex id that a label token of a text file names, the
        vertex of ``parse_label(token)``: each token is parsed once per
        graph and its id kept, so every file read on the graph shares
        the lookups."""
        i = self._token_ids.get(token)
        if i is None:
            i = self._token_ids[token] = self.vertex(parse_label(token))
        return i

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
    g = WeightedGraph(labels, *_csr(labels, a[kept], b[kept], w[kept]), mu,
                      np.ones(n, dtype=bool))
    _refuse_disconnected(g)
    return g


def _csr(labels, a, b, w):
    """(indptr, indices, weights) of the undirected edges a--b of weight
    w, each vertex pair given once, with every row sorted by neighbor id.
    A vertex on no edge raises IsolatedVertex, naming the first."""
    n = len(labels)
    rows = np.concatenate((a, b))
    cols = np.concatenate((b, a))
    degree = np.bincount(rows, minlength=n)
    if not degree.all():
        i = int(np.argmin(degree))
        raise IsolatedVertex(f"vertex {labels[i]!r} has no edges")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    csr = np.lexsort((cols, rows))
    return indptr, cols[csr], np.concatenate((w, w))[csr]


def _adjacency(g):
    """The weighted adjacency matrix of ``g``, for ``scipy.sparse.csgraph``."""
    n = g.num_vertices
    return csr_array((g.weights, g.indices, g.indptr), shape=(n, n))


def _refuse_disconnected(g):
    _, component = connected_components(_adjacency(g), directed=False)
    unreachable = int(np.count_nonzero(component != component[0]))
    if unreachable:
        raise DisconnectedGraph(
            f"graph has {unreachable} vertices unreachable from "
            f"{g.labels[0]!r}")


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
    """A vertex subset Omega with its boundary and interior, each held
    only as a read-only array of vertex ids in ascending order:
    ``omega_ids``, ``boundary_ids`` and ``interior_ids``.

    The ids given may come in any order and repeat. The boundary is
    {x in Omega : x has a neighbor outside Omega}, computed against the
    ambient graph over the CSR slots of Omega's rows; a vertex whose
    neighborhood is incomplete in the materialization is boundary by
    definition (its missing neighbors are certainly outside Omega).
    """

    __slots__ = ("graph", "omega_ids", "interior_ids", "boundary_ids",
                 "_operator")

    def __init__(self, graph, omega_ids):
        ids = np.unique(np.fromiter(omega_ids, np.int64))
        if not ids.size:
            raise EmptyOmega("empty vertex subset")
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
        self.omega_ids = ids
        self.boundary_ids = ids[on_boundary]
        self.interior_ids = ids[~on_boundary]
        self.omega_ids.setflags(write=False)
        self.boundary_ids.setflags(write=False)
        self.interior_ids.setflags(write=False)
        self._operator = None

    @property
    def num_interior(self):
        return self.interior_ids.size

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
        return (f"Domain(|omega|={self.omega_ids.size}, "
                f"|interior|={self.num_interior})")


def make_domain(g, omega_ids):
    """Build a Domain from vertex ids; warns if the interior is empty."""
    dom = Domain(g, omega_ids)
    if not dom.num_interior:
        warnings.warn("domain has empty interior; it cannot pose a problem",
                      EmptyInteriorWarning, stacklevel=2)
    return dom


def _bfs_distances(g, seed_ids):
    """Hop distance of every vertex from the nearest seed, -1 where none
    reaches."""
    dist = dijkstra(_adjacency(g), unweighted=True, indices=seed_ids,
                    min_only=True)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


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


def exhaust(dom, seeds, max_level):
    """Exhaustion of a finite Domain by balls around ``seeds`` (vertex ids)."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    seeds = tuple(sorted(int(s) for s in seeds))
    if not seeds:
        raise SeedOutsideDomain("empty seed set")
    outside = np.setdiff1d(seeds, dom.omega_ids)
    if outside.size:
        raise SeedOutsideDomain(
            f"seed {dom.graph.label_of(int(outside[0]))!r} is not in omega")
    dist = np.full(dom.graph.num_vertices, -1, dtype=np.int64)
    dist[dom.omega_ids] = _bfs_distances(dom.graph, seeds)[dom.omega_ids]
    return ExhaustionSequence(dom.graph, dist, range(1, max_level + 1), seeds)


# -- generative (infinite) graphs -------------------------------------------

class LatticeZ:
    """The integer line: vertices are ints, neighbors x-1 and x+1."""

    dim = 1

    def __init__(self, weight=1.0, mu=1.0):
        self.weight = float(weight)
        self.mu = float(mu)

    @staticmethod
    def is_vertex(label):
        return type(label) is int


class LatticeZ2:
    """The square lattice: vertices are (i, j) int pairs, 4 neighbors."""

    dim = 2

    def __init__(self, weight=1.0, mu=1.0):
        self.weight = float(weight)
        self.mu = float(mu)

    @staticmethod
    def is_vertex(label):
        return (type(label) is tuple and len(label) == 2
                and all(type(c) is int for c in label))


GENERATORS = {"lattice_z": LatticeZ, "lattice_z2": LatticeZ2}

# bound on the coordinates and on the key of a ball vertex, so that the
# int64 arithmetic on them cannot wrap
_KEY_LIMIT = 2 ** 62

# bound on the offsets and keys one lattice ball lays out (``ball_entries``).
# Building a ball peaks at about 170 bytes per entry (lattice_z2 at levels
# 300 and 600, lattice_z at level 300,000), so a ball keeps to about 2 GB.
MAX_BALL_ENTRIES = 12_000_000


def ball_entries(dim, num_seeds, radius):
    """Offsets and keys that ``_lattice_ball`` lays out for the ball of
    ``radius`` around ``num_seeds`` distinct seeds in dimension ``dim``:
    the (2r + 1)^dim offset grid and the L1 diamond of keys per seed,
    counted from their closed forms."""
    diamond = 2 * radius + 1 if dim == 1 else 2 * radius * (radius + 1) + 1
    return (2 * radius + 1) ** dim + num_seeds * diamond


def _seed_labels(oracle, seed_labels):
    """The distinct seeds in label order; a seed that is not a vertex of
    the lattice raises InvalidGraphData."""
    seed_labels = list(seed_labels)
    for lab in seed_labels:
        if not oracle.is_vertex(lab):
            raise InvalidGraphData(
                f"seed {lab!r} is not a vertex of {type(oracle).__name__}")
    return sorted(set(seed_labels))


def _lattice_ball(oracle, seeds, radius):
    """The ball of ``radius`` around ``seeds`` (distinct, ascending):
    (graph, hop distance of each vertex from the nearest seed, seed ids).

    Vertex order is the label order, and a vertex is complete when all
    its lattice neighbors lie in the ball. Measure, weight, isolation and
    connectivity are checked as ``build_finite_graph`` checks them, with
    the errors it raises on the edges of the ball listed seed by seed.
    A ball of more than MAX_BALL_ENTRIES entries is refused before any
    array is built.
    """
    dim = oracle.dim
    entries = ball_entries(dim, len(seeds), radius)
    if entries > MAX_BALL_ENTRIES:
        raise InvalidGraphData(
            f"the ball of radius {radius} around {len(seeds)} seed(s) needs "
            f"{entries} offsets and keys, more than the {MAX_BALL_ENTRIES} "
            f"(about 2 GB) a ball may hold; an exhaustion to level m "
            f"builds the ball of radius m + 1")
    columns = list(zip(*seeds)) if dim == 2 else [seeds]
    # one spare coordinate on each side, so that a neighbor key of a ball
    # vertex never aliases another vertex
    lo = [min(c) - radius - 1 for c in columns]
    span = [max(c) + radius + 2 - low for c, low in zip(columns, lo)]
    if (min(lo) < -_KEY_LIMIT or math.prod(span) > _KEY_LIMIT
            or max(low + s for low, s in zip(lo, span)) > _KEY_LIMIT):
        raise InvalidGraphData(
            f"the ball of radius {radius} around the seeds exceeds the "
            f"int64 coordinate range")
    strides = np.cumprod([1] + span[:0:-1])[::-1]
    axis = np.arange(-radius, radius + 1)
    offsets = np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"),
                       axis=-1).reshape(-1, dim)
    hops = np.abs(offsets).sum(axis=1)
    near = hops <= radius
    points = np.array(columns, dtype=np.int64).T
    seed_keys = (points - lo) @ strides
    keys = (seed_keys[:, None] + offsets[near] @ strides).ravel()
    hops = np.tile(hops[near], len(seeds))
    # keep each vertex once, at its smallest distance
    order = np.lexsort((hops, keys))
    keys, hops = keys[order], hops[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, dist = keys[first], hops[first]
    n = keys.size

    coords = [c + low for c, low in zip(np.unravel_index(keys, span), lo)]
    labels = (coords[0].tolist() if dim == 1
              else list(zip(*(c.tolist() for c in coords))))
    if not (oracle.mu > 0.0 and oracle.mu < math.inf):
        raise NonPositiveMeasure(f"mu({labels[0]!r}) = {oracle.mu}")

    # the edges to the next vertex along each axis, found by binary search
    a, b = [], []
    for stride in strides:
        at = np.searchsorted(keys, keys + stride)
        hit = keys[np.minimum(at, n - 1)] == keys + stride
        a.append(np.flatnonzero(hit))
        b.append(at[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    seed_ids = np.searchsorted(keys, seed_keys)
    w = oracle.weight
    if a.size and not (w > 0.0 and w < math.inf):
        # name the first edge of a BFS edge list, as build_finite_graph
        # would: the list starts at the seeds, each with its edges to
        # later vertices, the last in label order first
        x = a[np.isin(a, seed_ids)].min()
        raise NonPositiveWeight(
            f"omega({labels[x]!r},{labels[b[a == x].max()]!r}) = {w}")
    indptr, indices, weights = _csr(labels, a, b, np.full(a.size, w))
    g = WeightedGraph(labels, indptr, indices, weights, np.full(n, oracle.mu),
                      np.diff(indptr) == 2 * dim)
    # the diamonds of two seeds within 2 * radius + 1 of each other touch
    if np.abs(points - points[0]).sum(axis=1).max() > 2 * radius + 1:
        _refuse_disconnected(g)
    return g, dist, seed_ids


def materialize_ball(oracle, seed_labels, radius):
    """Finite materialization of the ball of ``radius`` around the seeds."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    seeds = _seed_labels(oracle, seed_labels)
    if not seeds:
        raise EmptyScope("no vertices")
    return _lattice_ball(oracle, seeds, radius)[0]


def exhaust_generative(oracle, seed_labels, max_level, membership=None):
    """Exhaustion of an unbounded Omega on a generative graph.

    ``membership`` is the indicator of Omega over labels (None means
    Omega = V). The ambient ball of radius max_level + 1 is materialized
    once, so every vertex of every level has a complete neighborhood.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    seeds = _seed_labels(oracle, seed_labels)
    if not seeds:
        raise SeedOutsideDomain("empty seed set")
    if membership is not None:
        for lab in seeds:
            if not membership(lab):
                raise SeedOutsideDomain(f"seed {lab!r} is not in omega")
    g, dist, seed_ids = _lattice_ball(oracle, seeds, max_level + 1)
    if membership is not None:
        inside = np.fromiter(map(membership, g.labels), dtype=bool,
                             count=g.num_vertices)
        dist[~inside] = -1
    return ExhaustionSequence(g, dist, range(1, max_level + 1),
                              seed_ids.tolist())
