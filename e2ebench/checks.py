"""Correctness checks made apart from the program.

Every reference here is rebuilt from the generated inputs with numpy and
scipy: operators from the edge list the benchmark generated, solutions by
scipy's sparse LU, a Newton loop of our own, and a dense matrix
exponential. The program's outputs are read back with the ``csv``
module, not with the program's readers. Tolerances sit far above
rounding and far below any real defect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Ledger:
    """Attempted and failed operations of one benchmark run: program
    invocations and checks. An operation that fails is recorded, never
    raised, so one failure does not end the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def _count(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def invocation(self, name, code):
        """A program invocation; it fails on a nonzero exit code."""
        return self._count(name, code == 0, f"exit code {code}")

    def verify(self, name, ok, detail):
        """A check that has already been evaluated."""
        if not ok:
            self.failed_checks.append(name)
        return self._count(name, ok, detail)

    def run(self, name, fn, *args):
        """A check that passes unless ``fn`` raises."""
        try:
            fn(*args)
        except Exception as exc:  # one bad check must not end the run
            return self.verify(name, False, f"{type(exc).__name__}: {exc}")
        return self.verify(name, True, "")


# -- reading the program's outputs ------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows, f"{path} is empty")
    return rows[0], rows[1:]


def read_trajectory(path, labels):
    """(times, values[step, vertex]) with columns in ``labels`` order."""
    header, rows = read_csv(path)
    require(header == ["i", "t", "vertex", "value"],
            f"{path}: unexpected header {header}")
    col = {lab: k for k, lab in enumerate(labels)}
    steps = 1 + max(int(r[0]) for r in rows)
    times = np.full(steps, np.nan)
    values = np.full((steps, len(labels)), np.nan)
    for i_s, t_s, lab, val in rows:
        i = int(i_s)
        times[i] = float(t_s)
        values[i, col[lab]] = float(val)
    require(not np.isnan(values).any(), f"{path}: missing vertices")
    return times, values


def read_field(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            lab, val = line.split()
            out[lab] = float(val)
    return out


def file_digests(outdir):
    """{file name: sha256} of every file in ``outdir``."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# -- independent references -------------------------------------------------

def stiffness(n, edges):
    """Graph Laplacian sum_y w_xy (u(x) - u(y)) as a sparse matrix."""
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=float)
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([b, a, a, b])
    vals = np.concatenate([-w, -w, w, w])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def heat_p1_reference(mu, A, h, ell, steps):
    """Backward Euler for du/dt + u = Lap u: (M(1/l + 1) + A) u_i = M u_{i-1}/l."""
    lu = spla.splu(sp.csc_matrix(A + sp.diags(mu * (1.0 / ell + 1.0))))
    out = [np.asarray(h, dtype=float)]
    for _ in range(steps):
        out.append(lu.solve(mu * out[-1] / ell))
    return out


def semilinear_reference(mu, A, h, ell, steps, p, tol=1e-13, max_iter=50):
    """Backward Euler for du/dt + |u|^(p-1) u = Lap u by damped Newton on
    F(u) = M (u - u_prev)/l + M |u|^(p-1) u + A u."""
    out = [np.asarray(h, dtype=float)]
    for _ in range(steps):
        prev = out[-1]

        def resid(u):
            return mu * ((u - prev) / ell + np.abs(u) ** (p - 1.0) * u) + A @ u

        u = prev.copy()
        target = tol * (1.0 + float(np.max(np.abs(prev))))
        for _ in range(max_iter):
            r = resid(u)
            if float(np.max(np.abs(r / mu))) <= target:
                break
            J = A + sp.diags(mu * (1.0 / ell
                                   + p * np.abs(u) ** (p - 1.0)))
            s = spla.spsolve(sp.csc_matrix(J), -r)
            alpha, norm = 1.0, np.linalg.norm(r)
            while (np.linalg.norm(resid(u + alpha * s))
                   > (1.0 - 1e-4 * alpha) * norm and alpha > 1e-8):
                alpha *= 0.5
            u = u + alpha * s
        else:
            raise CheckFailed("reference Newton did not converge")
        out.append(u)
    return out


def heat_p1_exact(mu, A, h, horizon, steps):
    """exp(-t (M^-1 A + I)) h at t = horizon * i / steps, i = 0..steps, from
    one dense matrix exponential over a grid step, applied i times."""
    K = A.toarray() / mu[:, None] + np.identity(len(mu))
    E = scipy.linalg.expm(-(horizon / steps) * K)
    out = [np.asarray(h, dtype=float)]
    for _ in range(steps):
        out.append(E @ out[-1])
    return np.array(out)


def lattice_ball(radius, weight):
    """Interior of the Z^2 ball {|i| + |j| <= radius} (the vertices whose
    four neighbours all lie in the ball) and its Dirichlet stiffness."""
    inner = radius - 1
    sites = [(i, j) for i in range(-inner, inner + 1)
             for j in range(-inner, inner + 1) if abs(i) + abs(j) <= inner]
    index = {s: k for k, s in enumerate(sites)}
    rows, cols, vals = [], [], []
    for k, (i, j) in enumerate(sites):
        rows.append(k)
        cols.append(k)
        vals.append(4.0 * weight)
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in index:
                rows.append(k)
                cols.append(index[nb])
                vals.append(-weight)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(sites),) * 2)
    return [f"{i},{j}" for i, j in sites], A


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))),
                                                  1e-300)


# -- per-workload checks ----------------------------------------------------

def check_manifest(outdir):
    """manifest.json lists every other file with its true SHA-256."""
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["outputs"]
    digests = file_digests(outdir)
    require(set(digests) == set(listed) | {"manifest.json"},
            f"files {sorted(digests)} vs manifest {sorted(listed)}")
    for name, digest in listed.items():
        require(digests[name] == digest, f"{name}: hash differs")


def check_grid_heat(w, outdir, ledger):
    steps, horizon = w.params["steps"], w.params["horizon"]
    ell = horizon / steps

    def trajectory():
        times, U = read_trajectory(os.path.join(outdir, "trajectory.csv"),
                                   w.labels)
        require(U.shape[0] == steps + 1, f"{U.shape[0]} rows of steps")
        require(np.allclose(times, horizon * np.arange(steps + 1) / steps,
                            rtol=0, atol=1e-15), "time grid")
        ref = heat_p1_reference(w.mu, stiffness(len(w.labels), w.edges),
                                w.arrays["initial"], ell, steps)
        for i in range(steps + 1):
            err = _rel_err(U[i], ref[i])
            require(err <= 1e-9, f"step {i}: relative error {err:.3g}")

    def estimates():
        _, rows = read_csv(os.path.join(outdir, "estimates.csv"))
        scale = max(float(r[1]) for r in rows) ** 2
        for r in rows[1:]:
            for name, cell in (("r_i", r[5]), ("d_i", r[6])):
                require(float(cell) <= 1e-10 * scale,
                        f"step {r[0]}: {name} = {cell}")

    def l2_decreasing():
        _, rows = read_csv(os.path.join(outdir, "norms.csv"))
        l2 = [float(r[1]) for r in rows]
        require(len(l2) == steps + 1, "norms.csv rows")
        require(all(b <= a for a, b in zip(l2, l2[1:])),
                f"l2_interior increases: {l2}")

    ledger.run("grid-heat.trajectory", trajectory)
    ledger.run("grid-heat.estimates", estimates)
    ledger.run("grid-heat.l2_decreasing", l2_decreasing)


def check_lattice_newton(w, outdir, ledger):
    prm = w.params
    levels, steps = prm["levels"], prm["steps"]
    ell = prm["horizon"] / steps
    h_map = dict(zip(w.labels, w.arrays["initial"]))
    h_l2 = math.sqrt(prm["mu"] * sum(v * v for v in h_map.values()))

    def deltas():
        _, rows = read_csv(os.path.join(outdir, "levels.csv"))
        require([int(r[0]) for r in rows] == levels, "levels.csv levels")
        sizes = [int(r[1]) for r in rows]
        require(sizes == [2 * m * m - 2 * m + 1 for m in levels],
                f"interior sizes {sizes}")
        require(rows[0][3] == "", "first level has a delta")
        d = [float(r[3]) for r in rows[1:]]
        require(all(x > 0 for x in d) and all(b < a for a, b in zip(d, d[1:])),
                f"delta_prev does not shrink: {d}")

    def newton():
        m = levels[0]
        labels, A = lattice_ball(m, prm["weight"])
        mu = np.full(len(labels), prm["mu"])
        h = np.array([h_map.get(lab, 0.0) for lab in labels])
        ref = semilinear_reference(mu, A, h, ell, steps, prm["p"])[-1]
        field = read_field(os.path.join(outdir, f"terminal_level_{m}.txt"))
        got = np.array([field[lab] for lab in labels])
        err = _rel_err(got, ref)
        require(err <= 1e-9, f"level {m}: relative error {err:.3g}")
        inside = set(labels)
        outside = [v for lab, v in field.items() if lab not in inside]
        require(all(v == 0.0 for v in outside), "nonzero outside interior")

    def sign_and_l2():
        for m in levels:
            field = read_field(os.path.join(outdir,
                                            f"terminal_level_{m}.txt"))
            vals = np.array(list(field.values()))
            require(float(vals.min()) >= 0.0,
                    f"level {m}: negative value {vals.min()}")
            l2 = math.sqrt(prm["mu"] * float(np.dot(vals, vals)))
            require(l2 <= h_l2, f"level {m}: |u_T| = {l2} > |h| = {h_l2}")

    ledger.run("lattice-newton.deltas", deltas)
    ledger.run("lattice-newton.newton", newton)
    ledger.run("lattice-newton.sign_and_l2", sign_and_l2)


def check_grid_obstacle(w, outdir, ledger):
    prm = w.params
    steps, ell = prm["steps"], prm["ell"]
    # 100x the program's own PSOR tolerance, for a residual recomputed here
    tol = 1e-8
    f = w.arrays["forcing"]
    mu = w.mu

    def kkt():
        _, U = read_trajectory(os.path.join(outdir, "trajectory.csv"),
                               w.labels)
        require(U.shape[0] == steps + 1, f"{U.shape[0]} rows of steps")
        require(np.array_equal(U[0], w.arrays["initial"]), "initial field")
        S = stiffness(len(w.labels), w.edges) + sp.diags(mu / ell)
        for i in range(1, steps + 1):
            u = U[i]
            b = mu * (f + U[i - 1] / ell)
            r = S @ u - b
            scale = 1.0 + float(np.max(np.abs(b)))
            uscale = 1.0 + float(np.max(u))
            require(float(u.min()) >= 0.0, f"step {i}: u < psi")
            require(float(r.min()) >= -tol * scale,
                    f"step {i}: dual residual {r.min():.3g}")
            compl = float(np.max(np.abs(r * u)))
            require(compl <= tol * scale * uscale,
                    f"step {i}: complementarity {compl:.3g}")
        active = int(np.sum(U[-1] == 0.0))
        require(0 < active < len(w.labels),
                f"{active} active vertices: the obstacle never binds")

    ledger.run("grid-obstacle.kkt", kkt)


def check_grid_oracle(w, outdir, ledger, compare_stdout):
    prm = w.params
    n = prm["steps_list"][-1]
    _, rows = read_csv(os.path.join(outdir, "oracle_error.csv"))

    def order():
        require([int(r[0]) for r in rows] == prm["steps_list"], "step counts")
        last = float(rows[-1][4])
        require(0.8 <= last <= 1.2, f"observed order {last}")

    def oracle():
        times, U = read_trajectory(
            os.path.join(outdir, "oracle_trajectory.csv"), w.labels)
        require(U.shape[0] == n + 1, f"{U.shape[0]} rows of steps")
        ref = heat_p1_exact(w.mu, stiffness(len(w.labels), w.edges),
                            w.arrays["initial"], prm["horizon"], n)
        err = _rel_err(U, ref)
        require(err <= 1e-9, f"closed form: relative error {err:.3g}")

    def compare():
        lines = [ln for ln in compare_stdout.splitlines()
                 if ln.startswith("max_l2_diff ")]
        require(len(lines) == 1, "compare printed no max_l2_diff")
        got = float(lines[0].split()[1])
        want = float(rows[-1][2])
        require(math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0),
                f"max_l2_diff {got} vs max_l2_error {want}")

    ledger.run("grid-oracle.order", order)
    ledger.run("grid-oracle.closed_form", oracle)
    ledger.run("grid-oracle.compare", compare)


def check_outputs(w, outdir, ledger, compare_stdout=""):
    """Every check of workload ``w`` on the outputs in ``outdir``."""
    ledger.run(f"{w.name}.manifest", check_manifest, outdir)
    if w.name == "grid-heat":
        check_grid_heat(w, outdir, ledger)
    elif w.name == "lattice-newton":
        check_lattice_newton(w, outdir, ledger)
    elif w.name == "grid-obstacle":
        check_grid_obstacle(w, outdir, ledger)
    else:
        check_grid_oracle(w, outdir, ledger, compare_stdout)
