"""Shared builders for the test suite."""

import math
from collections import deque

import numpy as np

from graphrothe import build_finite_graph, field_on_interior, make_domain
from graphrothe.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyScope,
    InvalidGraphData,
    IsolatedVertex,
    NonPositiveMeasure,
    NonPositiveWeight,
    SeedOutsideDomain,
    SelfLoop,
)
from graphrothe.graph import ExhaustionSequence, WeightedGraph, _label_key


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
            if dom.interior:
                return dom
    return make_domain(g, range(n))


def random_admissible(rng, dom, scale=1.0):
    vals = rng.normal(0.0, scale, size=len(dom.interior_ids))
    return field_on_interior(dom, vals)


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


def reference_materialize(oracle, seed_labels, radius):
    """Reference for the lattice ball: a BFS over labels with the oracle's
    ``neighbors`` and ``measure``, every edge listed once from its smaller
    label, built by ``reference_build_finite_graph``. Returns (graph,
    {label: distance})."""
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


def reference_newton_solve(stepper, u_prev, x0=None, stats=None):
    """Reference for ``heat._HeatStepper.solve`` at p > 1: its Newton loop
    before the stiffness product and F of an accepted Armijo trial were
    handed on, so each iteration computes A w three times (gradient, F at
    w, the first trial). Directions come from the stepper's own
    ``_newton_direction`` (or a ``CachedSPD`` of the Jacobian without a
    preconditioner), so a run on a fresh stepper shares every
    factorization with the library. ``x0`` is the first iterate (default
    ``u_prev``). ``stats``, a dict, counts
    ``gradients``, ``backtracks`` and ``skipped`` (iterations whose slope
    is below the rounding noise of F)."""
    from graphrothe import heat

    op, A, mass = stepper.op, stepper.A, stepper.mass
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

    tol = stepper.tol_factor * (1.0 + float(np.max(np.abs(u_prev),
                                                   initial=0.0)))
    w = u_prev.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    eta = g_norm = None
    for _ in range(heat.NEWTON_MAX_ITER):
        G = grad_half(w)
        stats["gradients"] += 1
        heat._require_finite(G, "gradient", p)
        if float(np.max(np.abs(G / mass), initial=0.0)) <= tol:
            return w
        g_norm_prev, g_norm = g_norm, float(np.linalg.norm(G))
        eta = heat._forcing(eta, g_norm, g_norm_prev)
        with np.errstate(over="ignore"):
            jd = mass * (1.0 / ell + p * np.maximum(
                np.abs(w), heat.POWER_DERIV_FLOOR) ** (p - 1.0))
        heat._require_finite(jd, "Jacobian", p)
        if stepper._pre is None:
            s = heat.CachedSPD(op.shifted(jd)).solve(-G)
        else:
            s = stepper._newton_direction(jd, -G, eta)
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
        residuals[j] = op.l2(op.neg_laplacian(w) - lam[j] * w)
        fields.append(op.extend(w))
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


def reference_monitor_estimates(traj):
    """Reference for ``heat.monitor_estimates``: one norm bundle and one
    power integral per field, in a loop over the steps."""
    from graphrothe import VertexField
    from graphrothe.heat import EstimateReport, StepEstimate

    prob = traj.problem
    dom = prob.domain
    g = dom.graph
    ell = traj.partition.step_size
    p = prob.p
    rows = []
    prev_sq = None
    for i, u in enumerate(traj.fields):
        nb = reference_norms(g, u, dom, q=2.0 * p)
        sq = nb.l2_interior ** 2
        powr = reference_power_integral(g, u, dom.interior_ids, p + 1.0)
        grad_sq = nb.grad_l2 ** 2
        energy = 0.5 * grad_sq + powr / (p + 1.0)
        if i == 0:
            delta_l2 = r = d = math.nan
        else:
            du = VertexField(g, (u.values - traj.fields[i - 1].values) / ell)
            delta_l2 = math.sqrt(
                reference_power_integral(g, du, dom.omega_ids, 2.0))
            r = sq + ell * (powr + grad_sq) - 0.5 * (sq + prev_sq)
            d = (sq - prev_sq) / ell + 2.0 * powr + 2.0 * grad_sq
        rows.append(StepEstimate(i, nb.l2_domain, nb.l2_interior, nb.grad_l2,
                                 nb.lq, energy, delta_l2, r, d))
        prev_sq = sq
    return EstimateReport(tuple(rows))


def reference_run_rothe(prob, part, **opts):
    """Reference for ``heat.run_rothe``: the per-step loop that extends
    each step's interior vector to a full-graph field. Returns the tuple
    of fields."""
    from graphrothe import heat

    stepper = heat._HeatStepper(prob, part.step_size, **opts)
    w = stepper.op.restrict(prob.initial)
    fields = [stepper.op.extend(w)]
    for _ in range(part.steps):
        w = stepper.solve(w)
        fields.append(stepper.op.extend(w))
    return tuple(fields)


def reference_quotients(fields, ell):
    """Reference for ``RotheTrajectory.quotients``: one field per step."""
    from graphrothe import VertexField

    return tuple(VertexField(u.graph, (u.values - prev.values) / ell)
                 for prev, u in zip(fields, fields[1:]))


def reference_run_vi(prob, part, **opts):
    """Reference for ``vi.run_vi``: the per-step loop over full-graph
    fields, each step restricting the previous field and the forcing
    field, with each quotient extended from its step's interior vectors.
    Returns (fields, quotients, reports)."""
    from graphrothe.vi import ViStepper

    stepper = ViStepper(prob.domain, part.step_size, prob.constraint, **opts)
    op = stepper.op
    fields = [op.extend(op.restrict(prob.initial))]
    quotients = []
    reports = []
    for i in range(1, part.steps + 1):
        w_prev = op.restrict(fields[-1])
        f = op.restrict(prob.forcing.at(float(part.times[i])))
        w, report = stepper.step(i, w_prev, f)
        fields.append(op.extend(w))
        quotients.append(op.extend((w - w_prev) / stepper.ell))
        reports.append(report)
    return tuple(fields), tuple(quotients), tuple(reports)


def reference_vi_monotonicity_monitor(run, quotients):
    """Reference for ``vi.vi_monotonicity_monitor``: the norm of each
    quotient field (``reference_run_vi``) on its own contiguous interior
    restriction."""
    from graphrothe.vi import MonotonicityReport, QuotientRow

    prob = run.problem
    op = prob.domain.operator
    times = run.partition.times
    ell = run.partition.step_size
    f_vals = [op.restrict(prob.forcing.at(float(t))) for t in times]
    q_norms = [op.l2(op.restrict(q)) for q in quotients]
    rows = []
    for j in range(1, len(q_norms) + 1):
        finc = op.l2(f_vals[j] - f_vals[j - 1])
        slack = (q_norms[j - 1] - q_norms[j - 2] - finc
                 if j >= 2 else math.nan)
        rows.append(QuotientRow(j, q_norms[j - 1], finc, slack))
    grid_rate = max((r.forcing_increment_l2 / ell for r in rows), default=0.0)
    lap_g = op.l2(op.neg_laplacian(op.restrict(prob.initial)))
    bound = lap_g + op.l2(f_vals[0]) + grid_rate * run.partition.horizon
    return MonotonicityReport(tuple(rows), bound, grid_rate)
