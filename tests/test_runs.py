"""A run is one read-only (steps + 1) x V array: bit for bit the per-step
field loops it replaced, checked for finite values once, and read by the
monitors and the oracle study row by row in any memory layout."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrothe import (
    ConstantForcing,
    HeatProblem,
    Obstacle,
    SeparableForcing,
    Subspace,
    TimePartition,
    VertexField,
    VIProblem,
    build_finite_graph,
    dirichlet_eigenbasis,
    exact_p1_solution,
    field_on_interior,
    fileio,
    heat,
    kernels,
    make_domain,
    run_rothe,
    run_vi,
    vi,
    vi_monotonicity_monitor,
)
from graphrothe.calculus import power_integral
from graphrothe.cli import PreparedRun, load_config, main
from graphrothe.errors import SolverBreakdown
from helpers import (
    exact_bits,
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_l2,
    reference_quotients,
    reference_run_rothe,
    reference_run_vi,
    reference_vi_monotonicity_monitor,
    reference_write_csv,
)
from test_golden import CONFIGS, run_manifest


def stacked(fields):
    return np.stack([u.values for u in fields])


def random_vi_problem(rng, dom, constraint):
    g = dom.graph
    chi = VertexField(g, rng.normal(size=g.num_vertices))
    forcing = SeparableForcing(chi, lambda t: 1.0 + 0.5 * math.sin(3.0 * t))
    if constraint == "obstacle":
        psi = field_on_interior(
            dom, rng.uniform(-0.5, 0.3, size=len(dom.interior_ids)))
        constraint = Obstacle(psi)
    else:
        constraint = Subspace()
    return VIProblem(dom, forcing, random_admissible(rng, dom),
                     constraint=constraint)


class TestRunMatchesPerStepReference:
    """``run_rothe`` and ``run_vi`` against the per-step field loops of
    ``reference_run_rothe`` and ``reference_run_vi``."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           constraint=st.sampled_from(["subspace", "obstacle"]),
           steps=st.integers(1, 12))
    def test_bit_identical(self, seed, p, constraint, steps):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 30)
        dom = random_domain(rng, g)
        part = TimePartition(float(rng.uniform(0.1, 2.0)), steps)
        ell = part.step_size

        prob = HeatProblem(dom, p, random_admissible(rng, dom))
        traj = run_rothe(prob, part)
        fields = reference_run_rothe(prob, part)
        assert traj.values.tobytes() == stacked(fields).tobytes()
        assert traj.quotients.tobytes() == \
            stacked(reference_quotients(fields, ell)).tobytes()

        prob = random_vi_problem(rng, dom, constraint)
        run = run_vi(prob, part)
        fields, quotients, reports = reference_run_vi(prob, part)
        assert run.values.tobytes() == stacked(fields).tobytes()
        assert run.quotients.tobytes() == stacked(quotients).tobytes()
        assert run.quotients.tobytes() == \
            stacked(reference_quotients(fields, ell)).tobytes()
        assert [repr(dataclasses.astuple(r)) for r in run.reports] == \
            [repr(dataclasses.astuple(r)) for r in reports]


class TestStartRows:
    """``run_vi`` takes ``start`` as ``run_rothe`` does and ignores it:
    every VI step starts cold, so any start rows give the bytes of the
    run without them."""

    @pytest.mark.parametrize("constraint", ["subspace", "obstacle"])
    def test_vi_ignores_start(self, constraint):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_connected_graph(rng, 5, 30)
            dom = random_domain(rng, g)
            prob = random_vi_problem(rng, dom, constraint)
            part = TimePartition(float(rng.uniform(0.1, 2.0)), 6)
            start = rng.normal(size=(part.steps + 1, g.num_vertices))
            warm = run_vi(prob, part, start=start)
            cold = run_vi(prob, part)
            assert warm.values.tobytes() == cold.values.tobytes()
            assert [repr(dataclasses.astuple(r)) for r in warm.reports] \
                == [repr(dataclasses.astuple(r)) for r in cold.reports]

    @pytest.mark.parametrize("shape", [(4, 6), (5, 5), (5, 7), (30,)])
    def test_start_shape_checked(self, shape):
        # p = 1 and the VI ignore the rows, not a start of the wrong shape
        g = path_graph(6)
        dom = make_domain(g, range(6))
        h = VertexField.from_mapping(g, {2: 1.0, 3: -0.5})
        part = TimePartition(1.0, 4)
        message = (r"^expected \(5, 6\) start rows, got "
                   + re.escape(str(shape)) + "$")
        for run, prob in ((run_rothe, HeatProblem(dom, 1.0, h)),
                          (run_rothe, HeatProblem(dom, 2.0, h)),
                          (run_vi, VIProblem(dom, ConstantForcing(h), h))):
            with pytest.raises(ValueError, match=message):
                run(prob, part, np.zeros(shape))


class TestRunArray:
    def test_values_read_only(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        h = VertexField.from_mapping(g, {2: 1.0, 3: -0.5})
        part = TimePartition(1.0, 4)
        traj = run_rothe(HeatProblem(dom, 1.0, h), part)
        run = run_vi(VIProblem(dom, ConstantForcing(h), h), part)
        # runs compare and hash by identity, as when they held field tuples
        assert len({traj, run, traj}) == 2
        for r in (traj, run):
            assert r.values.shape == (5, 6)
            assert not r.values.flags.writeable
            with pytest.raises(ValueError):
                r.values[1, 2] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.values = np.zeros((5, 6))

    def test_built_from_copy(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 1))
        values = np.zeros((3, 4))
        traj = heat.RotheTrajectory(prob, TimePartition(1.0, 2), values)
        values[1, 1] = 5.0
        assert np.all(traj.values == 0.0)

    def test_overflow_refused(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        h = field_on_interior(dom, [1e308] * len(dom.interior_ids))
        part = TimePartition(1.0, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="^field contains non-finite values$"):
                run_rothe(HeatProblem(dom, 1.0, h), part)
            with pytest.raises(SolverBreakdown):
                run_rothe(HeatProblem(dom, 3.0, h), part)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_array_refused(self, bad):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        h = VertexField.indicator(g, 1)
        part = TimePartition(1.0, 2)
        values = np.zeros((3, 4))
        values[2, 1] = bad
        with pytest.raises(ValueError,
                           match="^field contains non-finite values$"):
            heat.RotheTrajectory(HeatProblem(dom, 1.0, h), part, values)
        with pytest.raises(ValueError,
                           match="^field contains non-finite values$"):
            vi.VIRun(VIProblem(dom, ConstantForcing(h), h), part,
                     values, ())

    def test_wrong_shape_refused(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 1))
        with pytest.raises(ValueError, match="expected"):
            heat.RotheTrajectory(prob, TimePartition(1.0, 2), np.zeros((2, 4)))


def grid_file(tmp_path, side):
    """A side x side grid with uneven measures and weights."""
    lines = [f"graph {side * side}"]
    for i in range(side):
        for j in range(side):
            lines.append(f"v {i},{j} {0.5 + 0.125 * ((3 * i + j) % 7)}")
    for i in range(side):
        for j in range(side):
            w = 0.5 + 0.25 * ((i * j + 2 * i + j) % 5)
            if j + 1 < side:
                lines.append(f"e {i},{j} {i},{j + 1} {w}")
            if i + 1 < side:
                lines.append(f"e {i},{j} {i + 1},{j} {w}")
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "graphrothe")
# the solver internals whose dot products are never written out
SOLVER_DOTS = {"heat._functional", "heat._HeatStepper.step",
               "operators.pcg"}


def dot_calls(path):
    """The enclosing ``module.Class.function`` and the line of every call
    of ``dot`` (``np.dot``, ``numpy.dot``, ``x.dot`` or a bare ``dot``)
    in the source file ``path``."""
    module = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name == "dot":
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, (module,))
    return found


def test_dot_only_in_solver_internals():
    """Every reported norm is an ordered ``power_integral``: a dot product,
    whose order of addition BLAS chooses, appears only inside the solver
    functions of SOLVER_DOTS, and each of them has one."""
    calls = [call for name in sorted(os.listdir(SRC)) if name.endswith(".py")
             for call in dot_calls(os.path.join(SRC, name))]
    assert calls, "the scan found no dot product at all"
    assert [call for call in calls if call[0] not in SOLVER_DOTS] == []
    # a renamed or emptied function leaves no stale allowance behind
    assert SOLVER_DOTS - {scope for scope, _ in calls} == set()


def layouts(a):
    """The values of the K x V array ``a`` as C-ordered, Fortran-ordered,
    strided and reversed (negative strides) stacks."""
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    big[::2, ::3] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": big[::2, ::3],
            "reversed": np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]}


class TestRowLayout:
    """``power_integral`` and ``kernels.seq_sum`` give each row of a stack
    the bits of that row alone, whatever the stack's memory layout, so the
    monitors and the oracle errors read a run's rows without copying them
    and give the bits of the per-field loops."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 7),
           q=st.sampled_from([1.0, 2.0, 3.0, 4.5]))
    def test_row_bits_any_layout(self, seed, rows, q):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 60)
        dom = random_domain(rng, g)
        a = rng.normal(size=(rows, g.num_vertices)) \
            * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
        for ids in (dom.interior_ids, dom.omega_ids, dom.omega_ids[::-1]):
            alone = [power_integral(g, row.copy(), ids, q) for row in a]
            for name, stack in layouts(a).items():
                assert stack.tobytes() == a.tobytes(), name
                got = power_integral(g, stack, ids, q)
                assert got.tobytes() == np.array(alone).tobytes(), name
        for name, stack in layouts(a).items():
            for row, total in zip(a, kernels.seq_sum(stack).tolist()):
                s = 0.0
                for x in row.tolist():
                    s = s + x
                assert repr(total) == repr(s), name

    def test_layouts_differ(self):
        stacks = layouts(np.arange(12.0).reshape(3, 4))
        assert stacks["C"].flags.c_contiguous
        assert stacks["F"].flags.f_contiguous
        assert not stacks["F"].flags.c_contiguous
        assert not stacks["strided"].flags.c_contiguous
        assert all(step < 0 for step in stacks["reversed"].strides)

    def test_vi_monitor_matches_per_quotient_l2(self):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(8):
            g = random_connected_graph(rng, 20, 60)
            cases.append(random_domain(rng, g))
        side = 12
        edges = [((i, j), (i, j + 1), 1.0 + 0.1 * ((i + j) % 3))
                 for i in range(side) for j in range(side - 1)]
        edges += [((i, j), (i + 1, j), 1.0 + 0.1 * ((i * j) % 4))
                  for i in range(side - 1) for j in range(side)]
        g = build_finite_graph(edges, {(i, j): 1.0 for i in range(side)
                                       for j in range(side)})
        cases.append(make_domain(g, range(g.num_vertices)))
        for dom in cases:
            for constraint in ("subspace", "obstacle"):
                prob = random_vi_problem(rng, dom, constraint)
                part = TimePartition(1.0, 12)
                run = run_vi(prob, part)
                _, quotients, _ = reference_run_vi(prob, part)
                assert exact_bits(vi_monotonicity_monitor(run)) == \
                    exact_bits(reference_vi_monotonicity_monitor(run,
                                                                 quotients))

    def test_p1_oracle_error_matches_per_field_loop(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"graph": {"file": grid_file(tmp_path, 8)},
               "domain": "all",
               "output": str(out),
               "problem": {"kind": "heat", "p": 1.0, "horizon": 1.0,
                           "steps_list": [5, 10, 20, 40],
                           "compare_oracle": True,
                           "initial": {"values": {"3,3": 1.0, "4,2": 0.5,
                                                  "1,5": -0.75}}}}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["run", str(cpath)]) == 0

        # the per-field error loop over field lists, in this process
        prep = PreparedRun(load_config(str(cpath)))
        dom = prep.domain
        op = dom.operator
        basis = dirichlet_eigenbasis(dom)
        rows = []
        prev = None
        for n in prep.steps_list:
            part = TimePartition(prep.horizon, n)
            prob = HeatProblem(dom, 1.0, prep.initial)
            fields = reference_run_rothe(prob, part)
            refs = [VertexField(prep.graph, row) for row in
                    exact_p1_solution(basis, prep.initial, part.times)]
            errs = [reference_l2(dom, op.restrict(u) - op.restrict(ref))
                    for u, ref in zip(fields, refs)]
            err = max(errs)
            order = None
            if prev is not None and err > 0 and prev[1] > 0:
                order = math.log(prev[1] / err) / math.log(n / prev[0])
            rows.append((n, part.step_size, err, errs[-1], order))
            prev = (n, err)
        ref_path = tmp_path / "reference_oracle_error.csv"
        reference_write_csv(str(ref_path),
                            ("n", "ell", "max_l2_error", "endpoint_l2_error",
                             "observed_order"), rows)
        assert (out / "oracle_error.csv").read_bytes() == \
            ref_path.read_bytes()


def _max_delta_and_manifest(out):
    """The largest ``delta_l2`` of a VI run's ``vi_reports.csv`` and the
    manifest's ``max_quotient_l2``."""
    with open(out / "vi_reports.csv", newline="") as fh:
        deltas = [float(row["delta_l2"]) for row in csv.DictReader(fh)]
    manifest = json.loads((out / "manifest.json").read_text())
    return max(deltas), manifest["diagnostics"]["max_quotient_l2"]


class TestOneNumberPerQuantity:
    """A quantity that a run reports in two places is one number: the
    largest ``delta_l2`` of ``vi_reports.csv`` is the manifest's
    ``max_quotient_l2``, and ``compare`` of a p = 1 trajectory against
    its oracle prints the finest ``max_l2_error`` of the oracle study."""

    @pytest.mark.parametrize("name", ["vi_obstacle", "vi_obstacle_overrelaxed",
                                      "vi_separable"])
    def test_golden_vi(self, tmp_path, name):
        run_manifest(tmp_path, CONFIGS[name])
        delta, reported = _max_delta_and_manifest(tmp_path / "out")
        assert delta.hex() == reported.hex()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           constraint=st.sampled_from(["subspace", "obstacle"]),
           steps=st.integers(1, 8))
    def test_random_vi(self, seed, constraint, steps):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 5, 40)
        dom = random_domain(rng, g)

        def values(ids, lo, hi):
            return {"values": {str(g.label_of(int(i))): float(v)
                               for i, v in zip(ids, rng.uniform(
                                   lo, hi, size=len(ids)))}}

        problem = {"kind": "vi", "horizon": float(rng.uniform(0.1, 2.0)),
                   "steps": steps, "lipschitz_bound": 100.0,
                   "initial": values(dom.interior_ids, -1.0, 1.0),
                   "forcing": {"kind": "separable",
                               "field": values(range(g.num_vertices),
                                               -2.0, 2.0),
                               "time": "1 + sin(3 * t) / 2"}}
        if constraint == "obstacle":
            problem["constraint"] = {
                "kind": "obstacle",
                "psi": values(dom.interior_ids, -0.5, 0.3)}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            fileio.write_graph_file(g, str(tmp / "graph.txt"))
            cfg = {"graph": {"file": str(tmp / "graph.txt")},
                   "domain": {"omega": [str(g.label_of(int(i)))
                                        for i in dom.omega_ids]},
                   "problem": problem, "output": str(tmp / "out")}
            (tmp / "config.json").write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", str(tmp / "config.json")]) == 0
            delta, reported = _max_delta_and_manifest(tmp / "out")
        assert delta.hex() == reported.hex()

    def test_compare_matches_oracle_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        gpath = grid_file(tmp_path, 6)
        cfg = {"graph": {"file": gpath}, "domain": "all",
               "output": str(out),
               "problem": {"kind": "heat", "p": 1.0, "horizon": 1.0,
                           "steps_list": [5, 20], "compare_oracle": True,
                           "initial": {"values": {"2,3": 1.0,
                                                  "4,1": -0.5}}}}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["run", str(cpath)]) == 0
        with open(out / "oracle_error.csv", newline="") as fh:
            finest = list(csv.DictReader(fh))[-1]
        assert finest["n"] == "20"
        capsys.readouterr()
        assert main(["compare", str(out / "trajectory.csv"),
                     str(out / "oracle_trajectory.csv"),
                     "--graph", gpath]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"max_l2_diff {finest['max_l2_error']}"
