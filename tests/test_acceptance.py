"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criteria 5 and the decay half of 8 assert tolerances that sit below the
attainable error floor of the backward-Euler step at n = 1000 (the
endpoint errors are exactly |(1+a/n)^-n - e^-a| = 2.241e-4 for a = 3 and
2.706e-4 for a = 2, and the max-over-grid error for a = 3 is 5.511e-4;
every spatial mode decays slower under the implicit step, so no initial
field escapes the floor). They are kept as stated and marked strict
expected failures rather than loosening the bounds.
"""

import json
import math
import os

import numpy as np
import pytest

from graphrothe import (
    ConstantForcing,
    HeatProblem,
    Obstacle,
    SeparableForcing,
    TimePartition,
    VertexField,
    VIProblem,
    dirichlet_eigenbasis,
    exact_p1_solution,
    exhaust_generative,
    field_on_interior,
    green_identity_check,
    laplacian,
    lipschitz_validate,
    make_domain,
    monitor_estimates,
    norms,
    ode_oracle,
    run_exhaustion,
    run_rothe,
    run_vi,
    solve_step,
    step_functional,
    vi_monotonicity_monitor,
    vi_step,
    LatticeZ,
)
from graphrothe.cli import main
from graphrothe.operators import DirichletOperator
from graphrothe.timeexpr import compile_time_expression
from graphrothe import fileio
from helpers import (
    five_path_domain,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
)


def report(num, name, ok, note=""):
    tail = f"  ({note})" if note else ""
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def random_heat_step(rng, p):
    g = random_connected_graph(rng, 5, 20)
    dom = random_domain(rng, g)
    u_prev = random_admissible(rng, dom)
    prob = HeatProblem(dom, p, u_prev, 1.0)
    ell = float(rng.uniform(0.05, 0.5))
    return g, dom, prob, u_prev, ell


def test_criterion_01_green_identity_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, 5, 50)
        dom = random_domain(rng, g)
        v1 = random_admissible(rng, dom)
        v2 = random_admissible(rng, dom)
        lhs = 0.0
        for x in sorted(dom.interior):
            lhs -= g.mu[x] * laplacian(g, v1, x) * v2.values[x]
        res = green_identity_check(g, dom, v1, v2)
        rel = res / (1.0 + abs(lhs))
        worst = max(worst, rel)
        assert res <= 1e-10 * (1.0 + abs(lhs))
    assert report(1, "green identity on 100 random graphs", True,
                  f"worst residual/(1+|LHS|) = {worst:.2e}")


def test_criterion_02_per_step_optimality():
    rng = np.random.default_rng(202)
    ps = [1.0, 1.5, 2.0, 3.0]
    worst_res = 0.0
    worst_grad = 0.0
    for k in range(50):
        p = ps[k % 4]
        g, dom, prob, u_prev, ell = random_heat_step(rng, p)
        u = solve_step(u_prev, prob, ell)
        scale = 1.0 + float(np.max(np.abs(u_prev.values)))
        for x in sorted(dom.interior):
            res = ((u.values[x] - u_prev.values[x]) / ell
                   + abs(u.values[x]) ** (p - 1.0) * u.values[x]
                   - laplacian(g, u, x))
            worst_res = max(worst_res, abs(res) / scale)
            assert abs(res) <= 1e-10 * scale
        # finite-difference gradient of the step functional at a random point
        w = random_admissible(rng, dom)
        h = 1e-6
        for x in dom.interior_ids:
            up = w.values.copy()
            up[x] += h
            dn = w.values.copy()
            dn[x] -= h
            fd = (step_functional(VertexField(g, up), u_prev, prob, ell)
                  - step_functional(VertexField(g, dn), u_prev, prob, ell)) \
                / (2.0 * h)
            an = 2.0 * g.mu[x] * (
                (w.values[x] - u_prev.values[x]) / ell
                + abs(w.values[x]) ** (p - 1.0) * w.values[x]
                - laplacian(g, w, int(x)))
            rel = abs(fd - an) / (1.0 + abs(an))
            worst_grad = max(worst_grad, rel)
            assert rel <= 1e-5
    assert report(2, "per-step optimality on 50 random steps", True,
                  f"worst EL residual {worst_res:.2e}, "
                  f"worst gradient mismatch {worst_grad:.2e}")


def test_criterion_03_initialization_independence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(50):
        p = [1.0, 1.5, 2.0, 3.0][k % 4]
        g, dom, prob, u_prev, ell = random_heat_step(rng, p)
        a = solve_step(u_prev, prob, ell)
        b = solve_step(u_prev, prob, ell, x0=VertexField.zeros(g))
        gap = float(np.max(np.abs(a.values - b.values)))
        worst = max(worst, gap)
        assert gap <= 1e-8
    assert report(3, "uniqueness across Newton initializations", True,
                  f"worst sup gap {worst:.2e}")


def test_criterion_04_l2_monotonicity():
    rng = np.random.default_rng(404)
    for k in range(12):
        p = [1.0, 1.5, 2.0, 3.0][k % 4]
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        prob = HeatProblem(dom, p, h, 0.5)
        traj = run_rothe(prob, TimePartition(0.5, 25))
        l2 = monitor_estimates(traj).l2_values()
        scale = 1.0 + l2[0]
        for a, b in zip(l2, l2[1:]):
            assert b <= a + 1e-12 * scale
    assert report(4, "L2 monotonicity along trajectories", True,
                  "12 random problems, p in {1, 1.5, 2, 3}")


@pytest.mark.xfail(
    strict=True,
    reason="tolerances sit below the backward-Euler error floor at n=1000: "
    "endpoint error is exactly 2.241e-4 (> 2e-4) and the max-over-grid "
    "error 5.511e-4 (> 3e-4.|h|); on the 2-interior path the floor is "
    ">= 3.29e-4.|h| for every h")
def test_criterion_05_spectral_oracle_agreement():
    part = TimePartition(1.0, 1000)

    g, dom = five_path_domain()
    h = VertexField.indicator(g, 2)
    basis = dirichlet_eigenbasis(dom)
    traj = run_rothe(HeatProblem(dom, 1.0, h, 1.0), part)
    errs = []
    for i, t in enumerate(part.times):
        ref = exact_p1_solution(basis, h, [float(t)])[0]
        diff = VertexField(g, traj.values[i] - ref)
        errs.append(norms(g, diff, dom).l2_interior)
    max_err_1 = max(errs)
    end_err = abs(traj.values[-1, g.vertex(2)] - math.exp(-3.0))
    h_norm_1 = norms(g, h, dom).l2_interior

    g6 = path_graph(6)
    dom6 = make_domain(g6, [1, 2, 3, 4])
    h6 = VertexField.from_mapping(g6, {2: 1.0, 3: 0.5})
    basis6 = dirichlet_eigenbasis(dom6)
    traj6 = run_rothe(HeatProblem(dom6, 1.0, h6, 1.0), part)
    errs6 = []
    for i, t in enumerate(part.times):
        ref = exact_p1_solution(basis6, h6, [float(t)])[0]
        diff = VertexField(g6, traj6.values[i] - ref)
        errs6.append(norms(g6, diff, dom6).l2_interior)
    max_err_2 = max(errs6)
    h_norm_2 = norms(g6, h6, dom6).l2_interior

    ok = (max_err_1 <= 3e-4 * h_norm_1 and end_err <= 2e-4
          and max_err_2 <= 3e-4 * h_norm_2)
    report(5, "spectral oracle agreement at n=1000", ok,
           f"max/|h| = {max_err_1 / h_norm_1:.3e} and "
           f"{max_err_2 / h_norm_2:.3e} vs 3e-4, endpoint {end_err:.3e} "
           f"vs 2e-4")
    assert max_err_1 <= 3e-4 * h_norm_1
    assert end_err <= 2e-4
    assert max_err_2 <= 3e-4 * h_norm_2


def test_criterion_06_time_convergence_order():
    g = path_graph(10)
    dom = make_domain(g, range(1, 10))
    assert len(dom.interior) == 8
    h = field_on_interior(dom, [1.0, 0.5, -0.25, 0.0, 0.75, -0.5, 0.25, 1.0])
    orders_all = {}
    for p in (1.0, 3.0):
        prob = HeatProblem(dom, p, h, 1.0)
        if p == 1.0:
            basis = dirichlet_eigenbasis(dom)
            ref = exact_p1_solution(basis, h, [1.0])[0]
        else:
            ref = ode_oracle(prob, [1.0], tol=1e-10)[0]
        errors = []
        for n in (125, 250, 500, 1000):
            traj = run_rothe(prob, TimePartition(1.0, n))
            diff = VertexField(g, traj.values[-1] - ref)
            errors.append(norms(g, diff, dom).l2_interior)
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        orders_all[p] = orders
        for o in orders:
            assert 0.8 <= o <= 1.2
    assert report(6, "first-order time convergence", True,
                  f"observed orders p=1: "
                  f"{[f'{o:.3f}' for o in orders_all[1.0]]}, p=3: "
                  f"{[f'{o:.3f}' for o in orders_all[3.0]]}")


def test_criterion_07_discrete_energy_production():
    rng = np.random.default_rng(707)
    worst = -math.inf
    for k in range(12):
        p = [1.0, 1.5, 2.0, 3.0][k % 4]
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        h = random_admissible(rng, dom)
        prob = HeatProblem(dom, p, h, 0.5)
        rep = monitor_estimates(run_rothe(prob, TimePartition(0.5, 25)))
        scale = (1.0 + rep.rows[0].l2) ** 2
        worst = max(worst, rep.max_d / scale)
        assert rep.max_d <= 1e-10 * scale
    g, dom = five_path_domain()
    prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 2), 1.0)
    rep = monitor_estimates(run_rothe(prob, TimePartition(1.0, 200)))
    assert rep.max_d <= 1e-10 * 4.0
    assert report(7, "discrete energy production non-positive", True,
                  f"worst d_i/scale = {worst:.2e}")


def test_criterion_08a_vi_subspace_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        g = random_connected_graph(rng, 5, 30)
        dom = random_domain(rng, g)
        u_prev = random_admissible(rng, dom)
        f = VertexField(g, rng.normal(size=g.num_vertices))
        ell = float(rng.uniform(0.05, 0.5))
        u, _ = vi_step(dom, u_prev, f, ell)
        op = DirichletOperator(dom)
        S = op.stiffness.toarray() + np.diag(op.mass / ell)
        b = op.mass * (op.restrict(f) + op.restrict(u_prev) / ell)
        ref = np.linalg.solve(S, b)
        scale = 1.0 + float(np.max(np.abs(b)))
        gap = float(np.max(np.abs(op.restrict(u) - ref))) / scale
        worst = max(worst, gap)
        assert gap <= 1e-10
    assert report(8, "VI subspace step equals direct SPD solve", True,
                  f"worst gap/scale = {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="backward-Euler endpoint error at n=1000 for decay rate 2 is "
    "exactly |1.002^-1000 - e^-2| = 2.706e-4, above the stated 2e-4")
def test_criterion_08b_vi_linear_decay():
    g, dom = five_path_domain()
    prob = VIProblem(dom, ConstantForcing(VertexField.zeros(g)),
                     VertexField.indicator(g, 2), 1.0)
    run = run_vi(prob, TimePartition(1.0, 1000))
    err = abs(run.values[-1, g.vertex(2)] - math.exp(-2.0))
    report(8, "VI linear decay endpoint at n=1000", err <= 2e-4,
           f"endpoint error {err:.3e} vs 2e-4")
    assert err <= 2e-4


def test_criterion_09_vi_quotient_recurrence():
    rng = np.random.default_rng(909)
    worst = -math.inf
    for _ in range(20):
        g = random_connected_graph(rng, 5, 25)
        dom = random_domain(rng, g)
        chi = VertexField(g, rng.normal(size=g.num_vertices))
        expr = ["1 + 0.5*t", "exp(-t)", "sin(3*t)", "2 - t"][
            int(rng.integers(0, 4))]
        forcing = SeparableForcing(chi, compile_time_expression(expr))
        prob = VIProblem(dom, forcing, random_admissible(rng, dom), 1.0)
        run = run_vi(prob, TimePartition(1.0, 20))
        mono = vi_monotonicity_monitor(run)
        scale = 1.0 + mono.max_quotient
        worst = max(worst, mono.max_slack / scale)
        assert mono.max_slack <= 1e-10 * scale
    assert report(9, "VI quotient recurrence per step triple", True,
                  f"worst slack/scale = {worst:.2e}")


def test_criterion_10_obstacle_kkt():
    rng = np.random.default_rng(1010)
    for _ in range(20):
        g = random_connected_graph(rng, 5, 32)
        dom = random_domain(rng, g)
        if len(dom.interior) > 30:
            dom = random_domain(rng, g, keep=0.5)
        u_prev = random_admissible(rng, dom)
        psi = field_on_interior(
            dom, rng.uniform(-0.4, 0.4, size=len(dom.interior_ids)))
        f = VertexField(g, rng.normal(size=g.num_vertices))
        ell = float(rng.uniform(0.05, 0.5))
        u_new, _ = vi_step(dom, u_prev, f, ell, Obstacle(psi))
        op = DirichletOperator(dom)
        S = op.stiffness.toarray() + np.diag(op.mass / ell)
        b = op.mass * (op.restrict(f) + op.restrict(u_prev) / ell)
        u = op.restrict(u_new)
        r = S @ u - b
        gap = u - op.restrict(psi)
        assert gap.min() >= -1e-8
        assert r.min() >= -1e-8 * (1.0 + np.abs(b).max())
        assert np.abs(r * gap).max() <= 1e-8 * (1.0 + np.abs(b).max())
    # one-variable hand case: clamp to the obstacle exactly
    g, dom = five_path_domain()
    u, rep = vi_step(dom, VertexField.indicator(g, 2),
                     VertexField.from_mapping(g, {2: -20.0}), 0.1,
                     Obstacle(VertexField.zeros(g)))
    assert u[2] == 0.0
    assert rep.complementarity == 0.0
    assert report(10, "obstacle KKT residuals", True,
                  "20 random problems plus exact hand case")


def test_criterion_11_exhaustion_decay():
    exh = exhaust_generative(LatticeZ(), [0], 25)
    h = VertexField.from_mapping(exh.graph, {0: 1.0})
    prob = HeatProblem(exh, 1.0, h, 1.0)
    results = run_exhaustion(prob, TimePartition(1.0, 200),
                             levels=[5, 10, 15, 20, 25])
    deltas = [r.delta_prev for r in results[1:]]
    for a, b in zip(deltas, deltas[1:]):
        assert b < a
    assert deltas[-1] <= 1e-8
    assert report(11, "exhaustion deltas decay on the integer lattice", True,
                  "deltas " + ", ".join(f"{d:.2e}" for d in deltas))


def test_criterion_12_lipschitz_validator():
    g, dom = five_path_domain()
    chi = VertexField.from_mapping(g, {2: 2.0})
    forcing = SeparableForcing(chi, compile_time_expression("t"))
    rep = lipschitz_validate(forcing, np.linspace(0.0, 1.0, 11), dom,
                             c_declared=2.0)
    assert abs(rep.estimate - 2.0) <= 0.01 * 2.0
    assert not rep.violated
    sqrt_forcing = SeparableForcing(VertexField.indicator(g, 2),
                                    compile_time_expression("t**0.5"))
    samples = [0.0] + [4.0 ** -k for k in range(8, -1, -1)]
    rep2 = lipschitz_validate(sqrt_forcing, samples, dom, c_declared=5.0)
    assert rep2.violated
    assert report(12, "Lipschitz validator", True,
                  f"linear estimate {rep.estimate:.6f}, sqrt estimate "
                  f"{rep2.estimate:.1f} flagged")


def test_criterion_13_cli_determinism(tmp_path):
    gpath = tmp_path / "p5.txt"
    fileio.write_graph_file(path_graph(5), str(gpath))
    cfg = {
        "graph": {"file": str(gpath)},
        "domain": {"omega": ["1", "2", "3"]},
        "problem": {"kind": "heat", "p": 1.0, "horizon": 1.0, "steps": 100,
                    "initial": {"values": {"2": 1.0}}},
        "output": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert main(["run", str(cfg_path)]) == 0
    second = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert first == second
    m1 = json.loads(first["manifest.json"])
    m2 = json.loads(second["manifest.json"])
    assert m1["outputs"] == m2["outputs"]
    assert report(13, "CLI reruns bit-identical", True,
                  f"{len(first)} files compared")
