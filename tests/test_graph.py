import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import (
    LatticeZ,
    LatticeZ2,
    build_finite_graph,
    compute_metrics,
    exhaust,
    exhaust_generative,
    kernels,
    make_domain,
    materialize_ball,
)
from graphrothe.errors import (
    DisconnectedGraph,
    GraphrotheError,
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
from graphrothe.graph import MAX_BALL_ENTRIES, Domain, _bfs_distances, \
    ball_entries
from helpers import (
    path_graph,
    random_connected_graph,
    reference_bfs_distances,
    reference_build_finite_graph,
    reference_exhaust_generative,
    reference_materialize,
    star_graph,
)


def loop_boundary(g, omega):
    """Per-vertex boundary: an Omega vertex that is incomplete or has a
    neighbor outside Omega."""
    boundary = set()
    for i in omega:
        nbrs, _ = g.neighbors(i)
        if not g.complete[i] or any(int(j) not in omega for j in nbrs):
            boundary.add(i)
    return boundary


def loop_metrics(g, ids):
    """Per-vertex metrics, each vertex's weights added in neighbor order."""
    mu0, md, dmu = np.inf, 0, 0.0
    for i in ids:
        _, w = g.neighbors(i)
        mu0 = min(mu0, g.mu[i])
        md = max(md, len(w))
        dmu = max(dmu, kernels.seq_sum(w) / g.mu[i])
    return float(mu0), md, dmu


class TestBuildFiniteGraph:
    def test_p3_degrees(self):
        g = path_graph(3)
        assert [g.degree(i) for i in range(3)] == [1, 2, 1]

    def test_single_direction_stored_symmetric(self):
        g = build_finite_graph([(0, 1, 2.5)], {0: 1.0, 1: 1.0})
        nbrs0, w0 = g.neighbors(0)
        nbrs1, w1 = g.neighbors(1)
        assert list(nbrs0) == [1] and list(nbrs1) == [0]
        assert w0[0] == w1[0] == 2.5

    def test_both_directions_accepted(self):
        g = build_finite_graph([(0, 1, 2.5), (1, 0, 2.5)], {0: 1.0, 1: 1.0})
        assert g.num_edges == 1

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build_finite_graph([(0, 1, 1.0), (2, 3, 1.0)],
                               {i: 1.0 for i in range(4)})
        # the count is of every vertex outside the first vertex's component
        with pytest.raises(DisconnectedGraph) as exc:
            build_finite_graph([(5, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                                (6, 7, 1.0)], {i: 1.0 for i in range(1, 8)})
        assert str(exc.value) == "graph has 5 vertices unreachable from 1"

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_finite_graph([(0, 0, 1.0)], {0: 1.0})

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            build_finite_graph([(0, 1, 0.0)], {0: 1.0, 1: 1.0})

    def test_nonpositive_measure(self):
        with pytest.raises(NonPositiveMeasure):
            build_finite_graph([(0, 1, 1.0)], {0: 1.0, 1: -2.0})

    def test_isolated_vertex(self):
        with pytest.raises(IsolatedVertex):
            build_finite_graph([(0, 1, 1.0)], {0: 1.0, 1: 1.0, 2: 1.0})

    def test_duplicate_same_direction(self):
        with pytest.raises(DuplicateEdge):
            build_finite_graph([(0, 1, 1.0), (0, 1, 1.0)], {0: 1.0, 1: 1.0})

    def test_conflicting_symmetric_weights(self):
        with pytest.raises(DuplicateEdge):
            build_finite_graph([(0, 1, 1.0), (1, 0, 2.0)], {0: 1.0, 1: 1.0})

    def test_adjacency_sorted(self):
        g = star_graph(4)
        nbrs, _ = g.neighbors(0)
        assert list(nbrs) == sorted(nbrs)


LABELS = (0, 1, 2, 3, 4, 5, (0, 1), (-2, 7), "a", "b")
GOOD = (0.5, 1.0, 2.5, 1.0 / 3.0, 2)
BAD = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)
SOUND_EDITS = ("flip", "chord", "drop", "component")
FAULTY_EDITS = ("again", "clash", "bad_weight", "loop", "missing", "isolated",
                "bad_measure")


@st.composite
def graph_inputs(draw):
    """(edges, measure) near a connected graph: a spanning path over up to
    six labels of mixed kinds, then edits that list an edge again (either
    way, with the same or another weight), add chords, self-loops, bad
    weights or measures and unknown endpoints, drop edges, or add an
    isolated vertex or a second component; the edge list comes out in a
    drawn order."""
    def pick(seq):
        return draw(st.sampled_from(seq))

    labels = draw(st.permutations(LABELS))[:draw(st.integers(1, 6))]
    measure = {lab: pick(GOOD) for lab in labels}
    edges = []
    for x, y in zip(labels, labels[1:]):
        edges.append((x, y, pick(GOOD)) if draw(st.booleans())
                     else (y, x, pick(GOOD)))
    edits = (draw(st.lists(st.sampled_from(SOUND_EDITS), max_size=3))
             + draw(st.lists(st.sampled_from(FAULTY_EDITS), max_size=3)))
    for edit in edits:
        x, y = pick(labels), pick(labels)
        if edit in ("flip", "again", "clash", "drop") and edges:
            k = draw(st.integers(0, len(edges) - 1))
            x, y, w = edges[k]
            if edit == "flip":
                edges.append((y, x, w))
            elif edit == "again":
                edges.append((x, y, w))
            elif edit == "clash":
                edges.append((y, x, pick([v for v in GOOD if v != w])))
            else:
                del edges[k]
        elif edit == "chord" and x != y:
            edges.append((x, y, pick(GOOD)))
        elif edit == "bad_weight":
            edges.append((x, y, pick(BAD)))
        elif edit == "loop":
            edges.append((x, x, pick(GOOD)))
        elif edit == "missing":
            edges.append((x, "zz", pick(GOOD)) if draw(st.booleans())
                         else ("zz", x, pick(GOOD)))
        elif edit == "isolated":
            measure[99] = pick(GOOD)
        elif edit == "component":
            measure[10] = measure[11] = pick(GOOD)
            edges.append((10, 11, pick(GOOD)))
        elif edit == "bad_measure":
            measure[x] = pick(BAD)
    return draw(st.permutations(edges)), measure


def _outcome(build, *args):
    try:
        return build(*args)
    except GraphrotheError as exc:
        return type(exc), str(exc)


def assert_same_graph(g, ref):
    assert g.labels == ref.labels
    for name in ("indptr", "indices", "weights", "mu", "complete"):
        new, old = getattr(g, name), getattr(ref, name)
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


class TestBuildMatchesLoopReference:
    """The array build gives the loop build's graph bit for bit, or its
    exception type and message: for several bad edges, the first listed."""

    @settings(max_examples=400, deadline=None)
    @given(inputs=graph_inputs(), data=st.data())
    def test_random_edge_lists(self, inputs, data):
        edges, measure = inputs
        ref = _outcome(reference_build_finite_graph, edges, measure)
        g = _outcome(build_finite_graph, iter(edges), measure)
        if isinstance(ref, tuple):
            assert g == ref
            return
        assert_same_graph(g, ref)
        n = g.num_vertices
        seeds = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        omega = data.draw(st.sets(st.integers(0, n - 1))) | seeds
        exh = exhaust(Domain(g, omega), seeds, 3)
        want = np.full(n, -1, dtype=np.int64)
        ids = sorted(omega)
        want[ids] = reference_bfs_distances(g, seeds)[ids]
        assert np.array_equal(exh.dist, want)

    def test_first_bad_edge_named(self):
        measure = {i: 1.0 for i in range(4)}
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 2.0), (3, 3, 1.0),
                 (2, 3, 0.0)]
        with pytest.raises(DuplicateEdge, match=r"^edge 2--1 listed"):
            build_finite_graph(edges, measure)
        with pytest.raises(SelfLoop, match="^self-loop at 3$"):
            build_finite_graph(edges[:2] + edges[3:], measure)

    def test_bfs_distances_match_deque(self):
        rng = np.random.default_rng(13)
        graphs = [random_connected_graph(rng) for _ in range(20)]
        graphs += [path_graph(300), materialize_ball(LatticeZ2(), [(0, 0)],
                                                     9)]
        for g in graphs:
            n = g.num_vertices
            for size in (1, 2, 5):
                seeds = rng.choice(n, size=min(size, n), replace=False)
                assert np.array_equal(_bfs_distances(g, seeds),
                                      reference_bfs_distances(g, seeds))


class TestMetrics:
    def test_p3(self):
        g = path_graph(3)
        m = compute_metrics(g)
        assert (m.mu0, m.max_degree, m.dmu) == (1.0, 2, 2.0)

    def test_singleton_scope(self):
        g = path_graph(3)
        m = compute_metrics(g, scope=[1])
        assert (m.mu0, m.max_degree, m.dmu) == (1.0, 2, 2.0)
        m0 = compute_metrics(g, scope=[0])
        assert (m0.mu0, m0.max_degree, m0.dmu) == (1.0, 1, 1.0)

    def test_star_k14(self):
        g = star_graph(4, mu=2.0)
        m = compute_metrics(g)
        assert (m.mu0, m.max_degree, m.dmu) == (2.0, 4, 2.0)

    def test_empty_scope(self):
        with pytest.raises(EmptyScope):
            compute_metrics(path_graph(3), scope=[])

    def test_subscope_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng)
            n = g.num_vertices
            sub = [i for i in range(n) if rng.random() < 0.5] or [0]
            m_sub = compute_metrics(g, scope=sub)
            m_all = compute_metrics(g)
            assert m_sub.mu0 >= m_all.mu0
            assert m_sub.max_degree <= m_all.max_degree
            assert m_sub.dmu <= m_all.dmu

    def test_matches_per_vertex_reference(self):
        rng = np.random.default_rng(12)
        for k in range(30):
            g = random_connected_graph(rng) if k % 2 else star_graph(
                int(rng.integers(1, 20)), mu=float(rng.uniform(0.5, 2.0)),
                w=float(rng.uniform(0.1, 3.0)))
            n = g.num_vertices
            for scope in (None, [i for i in range(n) if rng.random() < 0.5]
                          or [n - 1]):
                m = compute_metrics(g, scope=scope)
                ref = loop_metrics(g, range(n) if scope is None else scope)
                assert (m.mu0, m.max_degree, m.dmu) == ref


class TestDomain:
    def test_p3_full_domain_no_boundary(self):
        g = path_graph(3)
        dom = make_domain(g, [0, 1, 2])
        assert dom.boundary == frozenset()
        assert dom.interior == frozenset({0, 1, 2})

    def test_p5_interior(self):
        g = path_graph(5)
        dom = make_domain(g, [1, 2, 3])
        assert dom.boundary == frozenset({1, 3})
        assert dom.interior == frozenset({2})

    def test_single_vertex_empty_interior_warns(self):
        g = path_graph(5)
        with pytest.warns(EmptyInteriorWarning):
            dom = make_domain(g, [2])
        assert dom.boundary == frozenset({2})
        assert dom.interior == frozenset()

    def test_empty_omega(self):
        with pytest.raises(EmptyOmega):
            make_domain(path_graph(3), [])

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_connected_graph(rng)
            omega = [i for i in range(g.num_vertices) if rng.random() < 0.6]
            if not omega:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyInteriorWarning)
                dom = make_domain(g, omega)
            assert dom.boundary | dom.interior == dom.omega
            assert not (dom.boundary & dom.interior)
            for i in dom.interior:
                nbrs, _ = g.neighbors(i)
                assert all(int(j) in dom.omega for j in nbrs)

    def test_boundary_matches_per_vertex_reference(self):
        rng = np.random.default_rng(6)
        graphs = [random_connected_graph(rng) for _ in range(30)]
        # rim vertices of a ball are incomplete
        graphs += [materialize_ball(LatticeZ2(), [(0, 0)], r)
                   for r in (1, 2, 4)]
        graphs += [materialize_ball(LatticeZ(), [0, 5], 3)]
        for g in graphs:
            n = g.num_vertices
            for keep in (0.3, 0.7, 1.0):
                omega = {i for i in range(n) if rng.random() < keep} or {0}
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EmptyInteriorWarning)
                    dom = make_domain(g, omega)
                boundary = loop_boundary(g, omega)
                assert dom.omega == omega
                assert dom.boundary == boundary
                assert dom.interior == omega - boundary
                assert list(dom.omega_ids) == sorted(omega)
                assert list(dom.boundary_ids) == sorted(boundary)
                assert list(dom.interior_ids) == sorted(omega - boundary)

    def test_vertex_outside_graph(self):
        for ids in ([0, 3], [-1, 1]):
            with pytest.raises(InvalidGraphData):
                make_domain(path_graph(3), ids)


class TestExhaust:
    def test_lattice_z_balls(self):
        exh = exhaust_generative(LatticeZ(), [0], 3)
        for m in (1, 2, 3):
            dom = exh.level(m)
            omega = sorted(exh.graph.label_of(i) for i in dom.omega)
            interior = sorted(exh.graph.label_of(i) for i in dom.interior)
            assert omega == list(range(-m, m + 1))
            assert interior == list(range(-(m - 1), m))

    def test_nesting(self):
        exh = exhaust_generative(LatticeZ2(), [(0, 0)], 4)
        for a, b in zip(exh.levels, exh.levels[1:]):
            assert a.omega <= b.omega

    def test_finite_stabilizes(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        exh = exhaust(dom, [0], 10)
        assert exh.level(10).omega == dom.omega
        assert exh.level(4).omega == dom.omega

    def test_seed_outside(self):
        g = path_graph(5)
        dom = make_domain(g, [1, 2, 3])
        with pytest.raises(SeedOutsideDomain):
            exhaust(dom, [0], 2)
        with pytest.raises(SeedOutsideDomain):
            exhaust_generative(LatticeZ(), [3], 2,
                               membership=lambda x: x <= 0)

    def test_ball_materialization_deterministic(self):
        g1 = materialize_ball(LatticeZ2(weight=0.5, mu=2.0), [(0, 0)], 3)
        g2 = materialize_ball(LatticeZ2(weight=0.5, mu=2.0), [(0, 0)], 3)
        assert g1.labels == g2.labels
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.weights, g2.weights)
        assert np.array_equal(g1.mu, g2.mu)

    def test_rim_marked_incomplete(self):
        g = materialize_ball(LatticeZ(), [0], 2)
        rim = [g.vertex(-2), g.vertex(2)]
        inner = [g.vertex(-1), g.vertex(0), g.vertex(1)]
        assert not any(g.complete[i] for i in rim)
        assert all(g.complete[i] for i in inner)

    def test_generative_level_vertices_complete(self):
        exh = exhaust_generative(LatticeZ(), [0], 5)
        top = exh.level(5)
        assert all(exh.graph.complete[i] for i in top.omega)


LATTICES = {1: LatticeZ, 2: LatticeZ2}


class TestLatticeBallMatchesBfsReference:
    """The array ball gives the label BFS's graph, distances and seeds bit
    for bit, or its exception type and message."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_balls(self, data):
        dim = data.draw(st.sampled_from([1, 2]), label="dim")
        radius = data.draw(st.integers(0, 10), label="radius")
        # seeds near each other, or far apart
        spread = data.draw(st.sampled_from([2, 2 * radius + 2, 1000]))
        coord = st.integers(-spread, spread)
        point = coord if dim == 1 else st.tuples(coord, coord)
        seeds = data.draw(st.lists(point, min_size=1, max_size=4))
        seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=2))
        positive = st.floats(0.01, 100.0)
        oracle = LATTICES[dim](data.draw(positive), data.draw(positive))

        g = _outcome(materialize_ball, oracle, seeds, radius)
        ref = _outcome(lambda *a: reference_materialize(*a)[0],
                       oracle, seeds, radius)
        if isinstance(ref, tuple):
            assert g == ref
            return
        assert_same_graph(g, ref)
        if radius < 2:
            return
        # Omega a half-line or half-plane that holds every seed
        first = min(s if dim == 1 else s[0] for s in seeds)
        cut = first - data.draw(st.integers(0, radius))
        membership = data.draw(st.sampled_from(
            [None, lambda x: (x if dim == 1 else x[0]) >= cut]))
        exh = exhaust_generative(oracle, seeds, radius - 1, membership)
        want = reference_exhaust_generative(oracle, seeds, radius - 1,
                                            membership)
        assert_same_graph(exh.graph, want.graph)
        assert exh.dist.dtype == want.dist.dtype
        assert exh.dist.tobytes() == want.dist.tobytes()
        assert exh.seeds == want.seeds
        assert exh.radii == want.radii

    @pytest.mark.parametrize("oracle, seeds, radius", [
        (LatticeZ2(weight=0.0), [(0, 0)], 3),
        (LatticeZ2(weight=-1.0), [(2, 0), (0, 1), (0, 0)], 0),
        (LatticeZ(weight=math.inf), [4, 5], 0),
        (LatticeZ2(weight=math.nan, mu=0.0), [(0, 0)], 2),
        (LatticeZ2(mu=math.nan), [(1, 1)], 1),
        (LatticeZ(mu=-1.0), [7], 0),
        (LatticeZ(), [3], 0),
        (LatticeZ2(weight=-2.0), [(0, 0), (3, 0), (3, 1), (4, 0)], 0),
    ])
    def test_bad_data_raise_the_reference_error(self, oracle, seeds, radius):
        ref = _outcome(reference_materialize, oracle, seeds, radius)
        assert isinstance(ref, tuple)
        assert _outcome(materialize_ball, oracle, seeds, radius) == ref

    def test_argument_errors(self):
        with pytest.raises(ValueError, match="radius"):
            materialize_ball(LatticeZ(), [0], -1)
        with pytest.raises(EmptyScope):
            materialize_ball(LatticeZ2(), [], 2)
        with pytest.raises(SeedOutsideDomain, match="empty seed set"):
            exhaust_generative(LatticeZ2(), [], 2)
        with pytest.raises(SeedOutsideDomain, match=r"seed \(0, 1\) is not"):
            exhaust_generative(LatticeZ2(), [(0, 0), (0, 1)], 2,
                               membership=lambda x: x[1] <= 0)
        for oracle, seed in ((LatticeZ(), (0, 0)), (LatticeZ(), True),
                             (LatticeZ(), np.int64(0)), (LatticeZ2(), 0),
                             (LatticeZ2(), (1, 2, 3)), (LatticeZ2(), "a"),
                             (LatticeZ2(), (0, 1.0))):
            with pytest.raises(InvalidGraphData, match="is not a vertex"):
                exhaust_generative(oracle, [seed], 2)
        # coordinates whose ball would wrap int64
        for seeds in ([2 ** 62], [(0, 0), (2 ** 40, 2 ** 40)]):
            oracle = LatticeZ() if len(seeds) == 1 else LatticeZ2()
            with pytest.raises(InvalidGraphData, match="int64"):
                materialize_ball(oracle, seeds, 1)

    def test_ball_entries_closed_form(self):
        # the offset grid plus one diamond, of as many vertices as the
        # ball of one seed, per seed
        for oracle in (LatticeZ(), LatticeZ2()):
            dim = oracle.dim
            for radius in range(1, 7):
                g = materialize_ball(oracle, [(0, 0) if dim == 2 else 0],
                                     radius)
                grid = (2 * radius + 1) ** dim
                assert ball_entries(dim, 1, radius) == grid + g.num_vertices
                assert ball_entries(dim, 3, radius) \
                    == grid + 3 * g.num_vertices

    def test_oversized_ball_refused_before_it_is_built(self):
        # both asks fail at once without the bound: terabytes of offsets
        for oracle, seed, level in ((LatticeZ2(), (0, 0), 10 ** 6),
                                    (LatticeZ(), 0, 10 ** 12)):
            assert ball_entries(oracle.dim, 1, level + 1) > MAX_BALL_ENTRIES
            with pytest.raises(InvalidGraphData,
                               match=f"radius {level + 1} around 1 seed"):
                exhaust_generative(oracle, [seed], level)
            with pytest.raises(InvalidGraphData, match="offsets and keys"):
                materialize_ball(oracle, [seed], level)
