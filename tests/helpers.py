"""Shared builders for the test suite."""

import dataclasses
import math
from collections import deque

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from graphrothe import build_finite_graph, field_on_interior, make_domain, \
    operators
from graphrothe.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyScope,
    InvalidGraphData,
    IsolatedVertex,
    NonConvergence,
    NonPositiveMeasure,
    NonPositiveWeight,
    SeedOutsideDomain,
    SelfLoop,
)
from graphrothe.graph import ExhaustionSequence, WeightedGraph, _label_key
from graphrothe.operators import CachedSPD


def path_graph(k, mu=1.0, w=1.0):
    """Path 0-1-...-(k-1) with constant measure and weight."""
    edges = [(i, i + 1, w) for i in range(k - 1)]
    return build_finite_graph(edges, {i: mu for i in range(k)})


def star_graph(leaves, mu=1.0, w=1.0):
    """Center 0 joined to 1..leaves."""
    edges = [(0, i, w) for i in range(1, leaves + 1)]
    return build_finite_graph(edges, {i: mu for i in range(leaves + 1)})


def random_connected_graph(rng, n_min=5, n_max=50):
    """Random spanning tree plus extra edges; mu in [0.5, 2], w in [0.1, 3]."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.1, 3.0))))
        present.add((u, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], float(rng.uniform(0.1, 3.0))))
    measure = {i: float(rng.uniform(0.5, 2.0)) for i in range(n)}
    return build_finite_graph(edges, measure)


def random_domain(rng, g, keep=0.7):
    """A random domain with nonempty interior (falls back to all vertices)."""
    import warnings

    from graphrothe.errors import EmptyInteriorWarning, EmptyOmega

    n = g.num_vertices
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyInteriorWarning)
        for _ in range(50):
            omega = [i for i in range(n) if rng.random() < keep]
            try:
                dom = make_domain(g, omega)
            except EmptyOmega:
                continue
            if dom.num_interior:
                return dom
    return make_domain(g, range(n))


def reference_domain(g, omega_ids):
    """Reference for ``Domain``: Omega as a frozenset of ints, and the
    boundary test vertex by vertex over its neighbors. Returns the
    (omega, boundary, interior) id arrays in ascending order, or raises
    the error ``Domain`` raises."""
    from graphrothe.errors import EmptyOmega

    omega = frozenset(int(i) for i in omega_ids)
    if not omega:
        raise EmptyOmega("empty vertex subset")
    lo, hi = min(omega), max(omega)
    if lo < 0 or hi >= g.num_vertices:
        raise InvalidGraphData(
            f"vertex id {lo if lo < 0 else hi} is not in the graph")
    boundary = frozenset(
        i for i in omega if not g.complete[i]
        or any(int(j) not in omega for j in g.neighbors(i)[0]))
    return tuple(np.array(sorted(ids), dtype=np.int64)
                 for ids in (omega, boundary, omega - boundary))


def random_admissible(rng, dom, scale=1.0):
    vals = rng.normal(0.0, scale, size=len(dom.interior_ids))
    return field_on_interior(dom, vals)


def level_problem(prob, dom):
    """``prob`` on the exhaustion level ``dom``, with the initial field
    restricted to its interior, as an exhaustion run poses it."""
    return dataclasses.replace(prob, domain=dom, initial=field_on_interior(
        dom, prob.initial.values[dom.interior_ids]))


def five_path_domain():
    """P5 with omega {1,2,3}: boundary {1,3}, single interior vertex 2."""
    g = path_graph(5)
    return g, make_domain(g, [1, 2, 3])


def reference_build_finite_graph(edges, measure):
    """Reference for ``build_finite_graph``: the per-edge loop over dicts,
    checking each edge as it is read, then a deque BFS from vertex 0."""
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

    reached = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != len(labels):
        raise DisconnectedGraph(
            f"graph has {len(labels) - len(reached)} vertices unreachable "
            f"from {labels[0]!r}")

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


def reference_bfs_distances(g, seed_ids):
    """Reference hop distances from the nearest seed, -1 where none
    reaches: a deque BFS, one vertex at a time."""
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


def lattice_neighbors(oracle, x):
    """(label, weight) of each lattice neighbor of the vertex ``x`` of a
    ``LatticeZ`` or ``LatticeZ2``, read label by label."""
    w = oracle.weight
    if oracle.dim == 1:
        return ((x - 1, w), (x + 1, w))
    i, j = x
    return (((i - 1, j), w), ((i + 1, j), w), ((i, j - 1), w), ((i, j + 1), w))


def reference_materialize(oracle, seed_labels, radius):
    """Reference for the lattice ball: a BFS over labels with
    ``lattice_neighbors`` and the oracle's constant measure, every edge
    listed once from its smaller label, built by
    ``reference_build_finite_graph``. Returns (graph, {label: distance})."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    seed_labels = sorted(set(seed_labels), key=_label_key)
    dist = {lab: 0 for lab in seed_labels}
    frontier = list(seed_labels)
    for d in range(1, radius + 1):
        nxt = []
        for lab in frontier:
            for nbr, _ in lattice_neighbors(oracle, lab):
                if nbr not in dist:
                    dist[nbr] = d
                    nxt.append(nbr)
        frontier = nxt
    edges = []
    complete_by_label = {}
    for lab in dist:
        ok = True
        for nbr, w in lattice_neighbors(oracle, lab):
            if nbr in dist:
                if _label_key(lab) < _label_key(nbr):
                    edges.append((lab, nbr, w))
            else:
                ok = False
        complete_by_label[lab] = ok
    measure = {lab: oracle.mu for lab in dist}
    g = reference_build_finite_graph(edges, measure)
    complete = np.array([complete_by_label[lab] for lab in g.labels])
    return WeightedGraph(g.labels, g.indptr, g.indices, g.weights, g.mu,
                         complete), dist


def reference_exhaust_generative(oracle, seed_labels, max_level,
                                 membership=None):
    """Reference for ``exhaust_generative`` on ``reference_materialize``."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    seed_labels = sorted(set(seed_labels), key=_label_key)
    if not seed_labels:
        raise SeedOutsideDomain("empty seed set")
    if membership is not None:
        for lab in seed_labels:
            if not membership(lab):
                raise SeedOutsideDomain(f"seed {lab!r} is not in omega")
    g, dist_by_label = reference_materialize(oracle, seed_labels,
                                             max_level + 1)
    dist = np.full(g.num_vertices, -1, dtype=np.int64)
    for lab, d in dist_by_label.items():
        if membership is None or membership(lab):
            dist[g.vertex(lab)] = d
    seeds = tuple(g.vertex(lab) for lab in seed_labels)
    return ExhaustionSequence(g, dist, range(1, max_level + 1), seeds)


def csr_parts(S):
    """(indptr, indices, data, diagonal) of a CSR matrix as contiguous
    arrays."""
    return (np.ascontiguousarray(S.indptr, dtype=np.int64),
            np.ascontiguousarray(S.indices, dtype=np.int64),
            np.ascontiguousarray(S.data),
            np.ascontiguousarray(S.diagonal()))


def reference_sweep(indptr, indices, data, diag, b, lower, u, relax):
    """Reference: one sweep over numpy arrays in numpy float64 scalar
    arithmetic, each row sum added left to right from 0.0."""
    maxdelta = 0.0
    for row in range(len(diag)):
        acc = 0.0
        for k in range(indptr[row], indptr[row + 1]):
            acc = acc + data[k] * u[indices[k]]
        cand = u[row] + relax * (b[row] - acc) / diag[row]
        if cand < lower[row]:
            cand = lower[row]
        delta = abs(cand - u[row])
        if delta > maxdelta:
            maxdelta = delta
        u[row] = cand
    return maxdelta


def reference_psor(S, lower, b, w_start, scale, relax, tol):
    """Reference obstacle solve, apart from the active-set method of
    ``ViStepper``: projected SOR sweeps over numpy arrays, with the KKT
    test of ``ViStepper`` after every sweep."""
    indptr, indices, data, diag = csr_parts(S)
    u = np.maximum(w_start, lower)
    for sweep in range(1, 1000):
        reference_sweep(indptr, indices, data, diag, b, lower, u, relax)
        r = S @ u - b
        gap = u - lower
        primal = max(0.0, float(np.max(-gap, initial=0.0)))
        dual = max(0.0, float(np.max(-r, initial=0.0)))
        compl = float(np.max(np.abs(r * gap), initial=0.0))
        uscale = 1.0 + float(np.max(np.abs(gap), initial=0.0))
        if dual <= tol * scale and compl <= tol * scale * uscale:
            var = float(np.max(np.abs(np.minimum(r, gap)), initial=0.0))
            return u, (var, primal, dual, compl, sweep)
    raise AssertionError("reference PSOR did not converge")


def reference_band(M, order):
    """The upper band storage of LAPACK's ``dpbtrf`` for the symmetric
    sparse matrix M reordered by ``order``, built from the dense reordered
    matrix one superdiagonal at a time: row ``bw - d`` holds superdiagonal
    d, right-aligned, with ``bw`` the largest d that holds a nonzero."""
    D = M.toarray()[np.ix_(order, order)]
    rows, cols = np.nonzero(np.triu(D))
    bw = int(np.max(cols - rows, initial=0))
    ab = np.zeros((bw + 1, D.shape[0]))
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(D, offset=d)
    return ab


def reference_active_set_solve(S, b, lower, u_start):
    """Reference for ``vi.active_set_solve`` on the matrix S itself: the
    same primal-dual active set loop, slicing every inactive block as
    ``S[free][:, free]`` and factoring it afresh in each iteration, by
    ``scipy.linalg.cholesky_banded`` in S's reverse Cuthill-McKee order
    restricted to the block, or through ``CachedSPD`` when the band is
    over ``operators.DIRECT_SOLVE_MAX``."""
    c = S.diagonal()
    perm = reverse_cuthill_mckee(S, symmetric_mode=True)
    u = np.maximum(u_start, lower)
    lam = np.maximum(S @ u - b, 0.0)
    active = lam - c * (u - lower) > 0.0
    for iteration in range(1, lower.size + 2):
        u = np.where(active, lower, 0.0)
        free = np.flatnonzero(~active)
        if free.size:
            rhs = b[free] - (S @ u)[free]
            block = S[free][:, free]
            order = np.searchsorted(free, perm[~active[perm]])
            ab = reference_band(block, order)
            if ab.size <= operators.DIRECT_SOLVE_MAX:
                factor = cholesky_banded(ab, lower=False)
                x = np.empty(free.size)
                x[order] = cho_solve_banded((factor, False), rhs[order])
                u[free] = x
            else:
                u[free] = CachedSPD(block).solve(rhs)
        r = S @ u - b
        lam = np.where(active, r, 0.0)
        settled = lam - c * (u - lower) > 0.0
        if np.array_equal(settled, active):
            return u, r, iteration
        active = settled
    raise NonConvergence(
        f"primal-dual active set did not settle in {lower.size + 1} "
        f"iterations")


def reference_newton_solve(stepper, u_prev, x0=None, stats=None,
                           floor=True):
    """Reference for ``heat._HeatStepper.step`` at p > 1: its Newton loop
    before the stiffness product and F of an accepted Armijo trial were
    handed on, so each iteration computes A w three times (gradient, F at
    w, the first trial), and with the finiteness tests and the error
    state of each evaluation kept apart. Each direction is a ``pcg``
    solve of the Jacobian preconditioned with its diagonal, to the
    forcing term within 50 n iterations. ``x0`` is the first iterate
    (default ``u_prev``). With ``floor`` false the forcing terms
    have no floor at the stopping tolerance: the loop before that floor
    was added. ``stats``, a dict, counts ``gradients``, ``backtracks``
    and ``skipped`` (iterations whose slope is below the rounding noise
    of F)."""
    from graphrothe import heat, operators

    op, A, mass = stepper.op, stepper.A, stepper.mass
    diag = op.stiffness.diagonal()
    p, ell = stepper.p, stepper.ell
    stats = {} if stats is None else stats
    for key in ("gradients", "backtracks", "skipped"):
        stats.setdefault(key, 0)

    def grad_half(w):
        with np.errstate(over="ignore", invalid="ignore"):
            return mass * ((w - u_prev) / ell + heat._power(w, p)) + A @ w

    def functional(w):
        with np.errstate(over="ignore"):
            powr = float(np.dot(mass, np.abs(w) ** (p + 1.0)))
        return (float(np.dot(mass * w, w)) / ell
                - 2.0 * float(np.dot(mass * u_prev, w)) / ell
                + 2.0 / (p + 1.0) * powr + float(np.dot(w, A @ w)))

    top = float(np.max(np.abs(u_prev), initial=0.0))
    tol = max(stepper.tol_factor * (1.0 + top),
              heat.NEWTON_ROUNDING_FLOOR * top / ell)
    g_target = tol * float(mass.min()) if floor else 0.0
    w = u_prev.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    eta = g_norm = None
    for _ in range(heat.NEWTON_MAX_ITER):
        G = grad_half(w)
        stats["gradients"] += 1
        heat._require_finite(G, "gradient", p)
        if float(np.max(np.abs(G / mass), initial=0.0)) <= tol:
            return w
        g_norm_prev, g_norm = g_norm, float(np.linalg.norm(G))
        eta = heat._forcing(eta, g_norm, g_norm_prev, g_target)
        with np.errstate(over="ignore"):
            jd = mass * (1.0 / ell + p * np.maximum(
                np.abs(w), heat.POWER_DERIV_FLOOR) ** (p - 1.0))
        heat._require_finite(jd, "Jacobian", p)
        s = operators.pcg(lambda d: A @ d + jd * d, -G,
                          lambda r: r / (diag + jd), eta, 50 * op.n)
        assert s is not None, "reference Newton direction missed its eta"
        fw = functional(w)
        slope = 2.0 * float(np.dot(G, s))
        alpha = 1.0
        if abs(slope) > 1e-13 * (1.0 + abs(fw)):
            while (functional(w + alpha * s) > fw + 1e-4 * alpha * slope
                   and alpha > 1e-14):
                alpha *= 0.5
                stats["backtracks"] += 1
        else:
            stats["skipped"] += 1
        w = w + alpha * s
    raise AssertionError("reference Newton did not converge")


def reference_dirichlet_eigenbasis(dom):
    """Reference for ``spectral.dirichlet_eigenbasis``: the same ``eigh``,
    then each mode scaled, sign-fixed, checked and extended one at a time.
    Returns (eigenvalues, tuple of eigenfields, residuals)."""
    op = dom.operator
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
        residuals[j] = reference_l2(dom, op.neg_laplacian(w) - lam[j] * w)
        fields.append(field_on_interior(dom, w))
    return lam, tuple(fields), residuals


def reference_w12_coefficients(dom, lam, fields, h):
    """Reference for ``spectral.w12_coefficients``: one ordered dot
    product per mode."""
    from graphrothe import kernels

    ids = dom.interior_ids
    mu_h = dom.graph.mu[ids] * h.values[ids]
    return np.array([(1.0 + lam[j]) * kernels.seq_sum(mu_h * phi.values[ids])
                     for j, phi in enumerate(fields)])


def reference_exact_p1_solution(dom, lam, fields, h, times):
    """Reference for ``spectral.exact_p1_solution``: the modes added one
    at a time."""
    coeff = reference_w12_coefficients(dom, lam, fields, h)
    ids = dom.interior_ids
    w = np.zeros((len(times), len(ids)))
    for j, phi in enumerate(fields):
        decay = [coeff[j] * math.exp(-(lam[j] + 1.0) * t) for t in times]
        w += np.array(decay)[:, None] * phi.values[ids]
    return [field_on_interior(dom, row) for row in w]


def reference_power_integral(g, v, ids, q):
    """Reference for ``calculus.power_integral``: one field at a time."""
    from graphrothe import kernels

    vals = np.abs(v.values[ids]) ** q
    return kernels.seq_sum(np.ascontiguousarray(g.mu[ids] * vals))


def reference_l2(dom, w):
    """L2(interior) norm of the interior vector ``w`` (ascending id
    order), from its zero extension alone."""
    return math.sqrt(reference_power_integral(
        dom.graph, field_on_interior(dom, w), dom.interior_ids, 2.0))


def reference_norms(g, v, dom, q=2.0):
    """Reference for ``calculus.norms``: the bundle of one field, each
    integral reduced on its own."""
    from graphrothe.calculus import NormBundle, _gamma_integral

    grad_sq = _gamma_integral(g, v, v, dom.omega_ids)
    l2i = math.sqrt(reference_power_integral(g, v, dom.interior_ids, 2.0))
    l2d = math.sqrt(reference_power_integral(g, v, dom.omega_ids, 2.0))
    if math.isinf(q):
        lq = float(np.max(np.abs(v.values[dom.omega_ids]))) \
            if dom.omega_ids.size else 0.0
    else:
        lq = reference_power_integral(g, v, dom.omega_ids, q) ** (1.0 / q)
    grad = math.sqrt(max(grad_sq, 0.0))
    w12 = math.sqrt(max(grad_sq, 0.0) + l2d * l2d)
    return NormBundle(l2i, l2d, lq, w12, grad)


def stack_bundles(bundles):
    """The NormBundle of a stack from the bundles of its rows: one array
    per field."""
    from graphrothe.calculus import NormBundle

    return NormBundle(*(np.array([getattr(nb, f.name) for nb in bundles])
                        for f in dataclasses.fields(NormBundle)))


def exact_bits(obj):
    """Every number of a report, NormBundle, array or float as exact bits,
    for equality tests: arrays by dtype, shape and ``tobytes``, floats by
    repr (which tells -0.0 from 0.0 and shows NaN), dataclasses field by
    field."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                tuple((f.name, exact_bits(getattr(obj, f.name)))
                      for f in dataclasses.fields(obj)))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    return repr(obj)


def reference_monitor_estimates(traj):
    """Reference for ``heat.monitor_estimates``: one norm bundle and one
    power integral per field, in a loop over the steps, stacked into one
    array per quantity at the end."""
    from graphrothe import VertexField
    from graphrothe.heat import EstimateReport

    prob = traj.problem
    dom = prob.domain
    g = dom.graph
    ell = traj.partition.step_size
    p = prob.p
    bundles, energies, deltas, rs, ds = [], [], [], [], []
    prev_sq = None
    values = traj.values
    for i, row in enumerate(values):
        u = VertexField(g, row)
        nb = reference_norms(g, u, dom, q=2.0 * p)
        sq = nb.l2_interior ** 2
        powr = reference_power_integral(g, u, dom.interior_ids, p + 1.0)
        grad_sq = nb.grad_l2 ** 2
        energy = 0.5 * grad_sq + powr / (p + 1.0)
        if i == 0:
            delta_l2 = r = d = math.nan
        else:
            du = VertexField(g, (u.values - values[i - 1]) / ell)
            delta_l2 = math.sqrt(
                reference_power_integral(g, du, dom.omega_ids, 2.0))
            r = sq + ell * (powr + grad_sq) - 0.5 * (sq + prev_sq)
            d = (sq - prev_sq) / ell + 2.0 * powr + 2.0 * grad_sq
        bundles.append(nb)
        energies.append(energy)
        deltas.append(delta_l2)
        rs.append(r)
        ds.append(d)
        prev_sq = sq
    return EstimateReport(stack_bundles(bundles), np.array(energies),
                          np.array(deltas), np.array(rs), np.array(ds))


def reference_run_rothe(prob, part, **opts):
    """Reference for ``heat.run_rothe``: the per-step loop that extends
    each step's interior vector to a full-graph field. Returns the tuple
    of fields."""
    from graphrothe import heat

    stepper = heat._HeatStepper(prob, part, **opts)
    w = stepper.op.restrict(prob.initial)
    fields = [field_on_interior(prob.domain, w)]
    for i in range(1, part.steps + 1):
        w, _ = stepper.step(i, w, None)
        fields.append(field_on_interior(prob.domain, w))
    return tuple(fields)


def reference_quotients(fields, ell):
    """Reference for ``RotheTrajectory.quotients``: one field per step."""
    from graphrothe import VertexField

    return tuple(VertexField(u.graph, (u.values - prev.values) / ell)
                 for prev, u in zip(fields, fields[1:]))


def reference_run_vi(prob, part, **opts):
    """Reference for ``vi.run_vi``: the per-step loop over full-graph
    fields, step i a one-step stepper from the previous field with the
    constant forcing ``reference_forcing_at(t_i)``, with each quotient
    extended from its step's interior vectors. Returns (fields,
    quotients, reports)."""
    from graphrothe import ConstantForcing, TimePartition, VIProblem
    from graphrothe.vi import ViStepper

    dom = prob.domain
    ell = part.step_size
    fields = [field_on_interior(dom, dom.operator.restrict(prob.initial))]
    quotients = []
    reports = []
    for i in range(1, part.steps + 1):
        f = reference_forcing_at(prob.forcing, float(part.times[i]))
        stepper = ViStepper(VIProblem(dom, ConstantForcing(f), fields[-1],
                                      prob.constraint),
                            TimePartition(ell, 1), **opts)
        w_prev = stepper.op.restrict(fields[-1])
        w, report = stepper.step(1, w_prev, None)
        fields.append(field_on_interior(dom, w))
        quotients.append(field_on_interior(dom, (w - w_prev) / ell))
        reports.append(dataclasses.replace(report, index=i))
    return tuple(fields), tuple(quotients), tuple(reports)


def reference_vi_monotonicity_monitor(run, quotients):
    """Reference for ``vi.vi_monotonicity_monitor``: the norm of each
    quotient field (``reference_run_vi``), forcing increment, f(., 0) and
    -Laplacian g, each from its own field, stacked into one array per
    quantity at the end. The bound starts from the first quotient when an
    obstacle lies above g at some interior vertex."""
    from graphrothe.vi import MonotonicityReport, Obstacle

    prob = run.problem
    op = prob.domain.operator
    times = run.partition.times
    ell = run.partition.step_size
    f_vals = [op.restrict(reference_forcing_at(prob.forcing, float(t)))
              for t in times]
    dom = prob.domain
    q_norms = [reference_l2(dom, op.restrict(q)) for q in quotients]
    fincs, slacks = [], []
    for j in range(1, len(q_norms) + 1):
        finc = reference_l2(dom, f_vals[j] - f_vals[j - 1])
        fincs.append(finc)
        slacks.append(q_norms[j - 1] - q_norms[j - 2] - finc
                      if j >= 2 else math.nan)
    grid_rate = max((finc / ell for finc in fincs), default=0.0)
    lap_g = reference_l2(dom, op.neg_laplacian(op.restrict(prob.initial)))
    below_psi = isinstance(prob.constraint, Obstacle) and any(
        prob.initial.values[i] < prob.constraint.psi.values[i]
        for i in dom.interior_ids)
    if below_psi:
        bound = q_norms[0] + grid_rate * run.partition.horizon
    else:
        bound = lap_g + reference_l2(dom, f_vals[0]) \
            + grid_rate * run.partition.horizon
    return MonotonicityReport(np.array(q_norms), np.array(fincs),
                              np.array(slacks), bound, grid_rate)


def reference_forcing_at(forcing, t):
    """Reference for the providers' ``rows``: the field of ``forcing`` at
    the one time ``t``, as a full-graph VertexField. A table is scanned
    time by time with ``math.isclose`` and the first time within
    1e-9 max(1, |t_k|) of ``t`` wins."""
    from graphrothe import (ConstantForcing, SeparableForcing, TableForcing,
                            VertexField)
    from graphrothe.errors import TimeOutOfRange

    if isinstance(forcing, ConstantForcing):
        return forcing._field
    if isinstance(forcing, SeparableForcing):
        return VertexField(forcing.graph, forcing._field.values
                           * float(forcing._time_fn(t)))
    assert isinstance(forcing, TableForcing)
    for tk, values in zip(forcing._times.tolist(), forcing._values):
        if math.isclose(t, tk, rel_tol=0.0,
                        abs_tol=1e-9 * max(1.0, abs(tk))):
            return VertexField(forcing.graph, values)
    raise TimeOutOfRange(f"t = {t} is not a tabulated forcing time")


def _reference_finite(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def reference_read_trajectory_csv(path, graph):
    """Reference for ``fileio.read_trajectory_csv``: every row read into
    one ``{label: value}`` dict per step, each label parsed by
    ``parse_label``, then one array row per step built from the dicts in
    vertex order."""
    import csv

    from graphrothe.errors import GraphMismatch, IoError
    from graphrothe.fileio import parse_label

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise _reference_not_utf8(path) from None
    except csv.Error as exc:
        raise InvalidGraphData(f"{path}:{reader.line_num}: {exc}") from None
    if not rows or rows[0] != ["i", "t", "vertex", "value"]:
        raise InvalidGraphData(f"{path}: not a trajectory CSV")
    times = []
    steps = []
    step_of = {}
    for rowno, row in enumerate(rows[1:], 2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            i_s, t_s, lab_s, val_s = row
            i = step_of.get((i_s, t_s))
            if i is None:
                i = int(i_s)
                t = _reference_finite(t_s)
                if i < 0:
                    raise ValueError(f"negative step index {i}")
                if i > len(steps):
                    raise ValueError(f"step index {i} skips step "
                                     f"{len(steps)}")
                if i == len(steps):
                    steps.append({})
                    times.append(t)
                elif t != times[i]:
                    raise ValueError(f"step {i} at time {t_s}, read before "
                                     f"at {times[i]!r}")
                step_of[i_s, t_s] = i
            value = _reference_finite(val_s)
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{rowno}: {exc}") from None
        steps[i][parse_label(lab_s)] = value
    if sum(map(len, steps)) != len(rows) - 1:
        seen = set()
        for rowno, (i_s, t_s, lab_s, _) in enumerate(rows[1:], 2):
            key = (step_of[i_s, t_s], parse_label(lab_s))
            if key in seen:
                raise InvalidGraphData(f"{path}:{rowno}: vertex {key[1]!r} "
                                       f"listed twice in step {key[0]}")
            seen.add(key)
    labels = set(graph.labels)
    if any(step.keys() != labels for step in steps):
        raise GraphMismatch(
            f"{path}: trajectory vertices do not match the graph")
    values = [list(map(step.__getitem__, graph.labels)) for step in steps]
    return times, np.array(values, dtype=float).reshape(len(steps),
                                                       graph.num_vertices)



def reference_write_csv(path, header, rows):
    """Reference for ``fileio.write_csv``: the per-row writer it replaced.
    Each cell's type is worked out on its own: None as an empty cell, a
    bool by ``str``, an int in decimal, a float by ``fmt`` (NaN as
    ``nan``), anything else by ``str``; the rows go through
    ``csv.writer``."""
    import csv
    import io

    from graphrothe.fileio import atomic_write_text, fmt

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, (bool, np.bool_)):
                cells.append(str(cell))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(fmt(cell))
            else:
                cells.append(str(cell))
        writer.writerow(cells)
    atomic_write_text(path, buf.getvalue())


def _reference_require_complete(g, at):
    from graphrothe.errors import UnmaterializedNeighbor

    if not g.complete[at]:
        raise UnmaterializedNeighbor(
            f"vertex {g.label_of(at)!r} has unmaterialized neighbors")


def reference_laplacian(g, v, at):
    """Reference for ``calculus.laplacian``: one vertex's neighbour slice
    and one ordered sum."""
    from graphrothe import kernels

    _reference_require_complete(g, at)
    nbrs, w = g.neighbors(at)
    return kernels.seq_sum(w * (v.values[nbrs] - v.values[at])) / g.mu[at]


def reference_gamma(g, w_field, v_field, at):
    """Reference for ``calculus.gamma``: one vertex's neighbour slice and
    one ordered sum."""
    from graphrothe import kernels

    _reference_require_complete(g, at)
    nbrs, w = g.neighbors(at)
    dw = w_field.values[nbrs] - w_field.values[at]
    dv = v_field.values[nbrs] - v_field.values[at]
    return kernels.seq_sum(w * (dw * dv)) / (2.0 * g.mu[at])


def reference_green_identity_check(g, dom, v1, v2):
    """Reference for ``calculus.green_identity_check``: the left side
    added by a Python loop over the interior vertices, one
    ``reference_laplacian`` each, and the right side from
    ``reference_gamma`` at every vertex of Omega."""
    from graphrothe import kernels
    from graphrothe.calculus import require_admissible

    require_admissible(v1, dom, "v1")
    require_admissible(v2, dom, "v2")
    lhs = 0.0
    for i in dom.interior_ids.tolist():
        lhs = lhs - g.mu[i] * reference_laplacian(g, v1, i) * v2.values[i]
    ids = dom.omega_ids.tolist()
    rhs = kernels.seq_sum(np.array(
        [g.mu[i] * reference_gamma(g, v1, v2, i) for i in ids]))
    return abs(lhs - rhs)


def reference_shifted(op, d):
    """Reference for ``DirichletOperator.shifted``: the sparse sum
    A + diag(d), converted to CSR and sorted."""
    import scipy.sparse as sp

    S = (op.stiffness + sp.diags(d)).tocsr()
    S.sort_indices()
    return S


def reference_warm_levels(prob, part, levels):
    """Reference for the Rothe rows of ``heat.run_exhaustion``: one step
    loop per level, Newton step i of every level after the first started
    at the previous level's row i on this level's interior; the first
    level and p = 1 run cold. Returns the (steps + 1) x V array of each
    level."""
    from graphrothe import heat

    runs = []
    for m in levels:
        sub = level_problem(prob, prob.domain.level(m))
        stepper = heat._HeatStepper(sub, part)
        ids = stepper.op.interior_ids
        values = np.zeros((part.steps + 1, sub.domain.graph.num_vertices))
        w = values[0, ids] = stepper.op.restrict(sub.initial)
        for i in range(1, part.steps + 1):
            x0 = None if not runs or sub.p == 1.0 else runs[-1][i, ids]
            w, _ = stepper.step(i, w, x0)
            values[i, ids] = w
        runs.append(values)
    return runs


def one_step(u_prev, prob, ell, x0=None):
    """One Rothe step of the heat problem ``prob`` from the admissible
    field ``u_prev`` with step size ``ell``, as a field: row 1 of a
    one-step ``run_rothe`` from u_prev, with Newton started at the field
    ``x0`` (default u_prev)."""
    from graphrothe import TimePartition, VertexField, run_rothe

    start = None if x0 is None else np.vstack((x0.values, x0.values))
    run = run_rothe(dataclasses.replace(prob, initial=u_prev),
                    TimePartition(ell, 1), start)
    return VertexField(u_prev.graph, run.values[1])


def one_vi_step(dom, u_prev, f, ell, constraint=None, **opts):
    """One VI step on ``dom`` from the admissible field ``u_prev`` with
    the forcing field ``f`` and step size ``ell``: the field of row 1 of
    a one-step ``run_vi`` with constant forcing f, and its report."""
    from graphrothe import (ConstantForcing, Subspace, TimePartition,
                            VertexField, VIProblem, run_vi)

    prob = VIProblem(dom, ConstantForcing(f), u_prev,
                     Subspace() if constraint is None else constraint)
    run = run_vi(prob, TimePartition(ell, 1), **opts)
    return VertexField(dom.graph, run.values[1]), run.reports[0]


def vi_stepper(dom, ell, f, constraint=None):
    """The ``vi.ViStepper`` of a one-step VI run on ``dom`` with step size
    ``ell`` and the constant forcing field ``f``; its step 1 reads f."""
    from graphrothe import (ConstantForcing, Subspace, TimePartition,
                            VertexField, VIProblem)
    from graphrothe.vi import ViStepper

    prob = VIProblem(dom, ConstantForcing(f), VertexField.zeros(dom.graph),
                     Subspace() if constraint is None else constraint)
    return ViStepper(prob, TimePartition(ell, 1))


def _reference_not_utf8(path):
    """The error for a file that is not UTF-8 text, with the offset of its
    first bad byte found by decoding the whole file at once."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return InvalidGraphData(f"{path}: not UTF-8 text ({exc.reason} at "
                                f"byte {exc.start})")
    raise AssertionError(f"{path} is UTF-8 text")


def _reference_lines(path):
    """(line number, tokens) of each line of a text file with a token
    outside its ``#`` comment, the whole file read first."""
    from graphrothe.errors import IoError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise _reference_not_utf8(path) from None
    for lineno, line in enumerate(raw, 1):
        parts = line.partition("#")[0].split()
        if parts:
            yield lineno, parts


def reference_read_graph_file(path):
    """Reference for ``fileio.read_graph_file``: the line loop, each record
    checked as it is read and each distinct token parsed once by
    ``parse_label``, then ``build_finite_graph`` over the edge list and
    measure map."""
    from graphrothe.errors import GraphrotheError
    from graphrothe.graph import parse_label

    labels = {}

    def label_of(token):
        if token not in labels:
            labels[token] = parse_label(token)
        return labels[token]

    measures = {}
    edges = []
    saw_header = False
    for lineno, parts in _reference_lines(path):
        kind = parts[0]
        try:
            if kind == "e" and len(parts) == 4:
                edges.append((label_of(parts[1]), label_of(parts[2]),
                               float(parts[3])))
            elif kind == "v" and len(parts) == 3:
                label = label_of(parts[1])
                mu = float(parts[2])
                if label in measures:
                    raise ValueError(f"vertex {label!r} listed twice")
                measures[label] = mu
            elif kind == "graph" and len(parts) == 2:
                saw_header = True
            else:
                raise ValueError("unrecognized record")
        except ValueError as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    if not saw_header:
        raise InvalidGraphData(f"{path}: missing 'graph <n>' header")
    try:
        return build_finite_graph(edges, measures)
    except GraphrotheError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _reference_vertex(g, token):
    from graphrothe.graph import parse_label

    return g.vertex(parse_label(token))


def reference_read_domain_file(g, path):
    """Reference for ``fileio.read_domain_file``: the line loop."""
    ids = []
    for lineno, parts in _reference_lines(path):
        try:
            if parts[0] != "omega" or len(parts) != 2:
                raise ValueError("expected 'omega <label>'")
            ids.append(_reference_vertex(g, parts[1]))
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    return ids


def reference_read_field_file(g, path):
    """Reference for ``fileio.read_field_file``: the line loop, into a
    ``{vertex id: value}`` dict."""
    values = {}
    for lineno, parts in _reference_lines(path):
        try:
            if len(parts) != 2:
                raise ValueError("expected '<label> <value>'")
            value = _reference_finite(parts[1])
            i = _reference_vertex(g, parts[0])
            if i in values:
                raise ValueError(f"vertex {g.label_of(i)!r} listed twice")
            values[i] = value
        except (ValueError, InvalidGraphData) as exc:
            raise InvalidGraphData(f"{path}:{lineno}: {exc}") from None
    vals = np.zeros(g.num_vertices)
    for i, value in values.items():
        vals[i] = value
    return vals
