"""A run is one read-only (steps + 1) x V array: bit for bit the per-step
field loops it replaced, checked for finite values once, and read by the
monitors and the oracle study in contiguous rows."""

import dataclasses
import json
import math

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
    make_domain,
    run_rothe,
    run_vi,
    vi,
    vi_monotonicity_monitor,
)
from graphrothe.cli import PreparedRun, load_config, main
from graphrothe.errors import SolverBreakdown
from helpers import (
    path_graph,
    random_admissible,
    random_connected_graph,
    random_domain,
    reference_quotients,
    reference_run_rothe,
    reference_run_vi,
    reference_vi_monotonicity_monitor,
)


def stacked(fields):
    return np.stack([u.values for u in fields])


def random_vi_problem(rng, dom, constraint, horizon):
    g = dom.graph
    chi = VertexField(g, rng.normal(size=g.num_vertices))
    forcing = SeparableForcing(chi, lambda t: 1.0 + 0.5 * math.sin(3.0 * t))
    if constraint == "obstacle":
        psi = field_on_interior(
            dom, rng.uniform(-0.5, 0.3, size=len(dom.interior_ids)))
        constraint = Obstacle(psi)
    else:
        constraint = Subspace()
    return VIProblem(dom, forcing, random_admissible(rng, dom), horizon,
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

        prob = HeatProblem(dom, p, random_admissible(rng, dom), part.horizon)
        traj = run_rothe(prob, part)
        fields = reference_run_rothe(prob, part)
        assert traj.values.tobytes() == stacked(fields).tobytes()
        assert traj.quotients.tobytes() == \
            stacked(reference_quotients(fields, ell)).tobytes()

        prob = random_vi_problem(rng, dom, constraint, part.horizon)
        run = run_vi(prob, part)
        fields, quotients, reports = reference_run_vi(prob, part)
        assert run.values.tobytes() == stacked(fields).tobytes()
        assert run.quotients.tobytes() == stacked(quotients).tobytes()
        assert run.quotients.tobytes() == \
            stacked(reference_quotients(fields, ell)).tobytes()
        assert [repr(dataclasses.astuple(r)) for r in run.reports] == \
            [repr(dataclasses.astuple(r)) for r in reports]


class TestRunArray:
    def test_values_read_only(self):
        g = path_graph(6)
        dom = make_domain(g, range(6))
        h = VertexField.from_mapping(g, {2: 1.0, 3: -0.5})
        part = TimePartition(1.0, 4)
        traj = run_rothe(HeatProblem(dom, 1.0, h, 1.0), part)
        run = run_vi(VIProblem(dom, ConstantForcing(h), h, 1.0), part)
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
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 1), 1.0)
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
                run_rothe(HeatProblem(dom, 1.0, h, 1.0), part)
            with pytest.raises(SolverBreakdown):
                run_rothe(HeatProblem(dom, 3.0, h, 1.0), part)

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
            heat.RotheTrajectory(HeatProblem(dom, 1.0, h, 1.0), part, values)
        with pytest.raises(ValueError,
                           match="^field contains non-finite values$"):
            vi.VIRun(VIProblem(dom, ConstantForcing(h), h, 1.0), part,
                     values, ())

    def test_wrong_shape_refused(self):
        g = path_graph(4)
        dom = make_domain(g, range(4))
        prob = HeatProblem(dom, 1.0, VertexField.indicator(g, 1), 1.0)
        with pytest.raises(ValueError, match="expected"):
            heat.RotheTrajectory(prob, TimePartition(1.0, 2), np.zeros((2, 4)))

    def test_fields_built_on_read(self):
        g = path_graph(5)
        dom = make_domain(g, range(5))
        traj = run_rothe(HeatProblem(dom, 2.0, VertexField.indicator(g, 2),
                                     1.0), TimePartition(1.0, 3))
        fields = traj.fields
        assert len(fields) == 4
        for u, row in zip(fields, traj.values, strict=True):
            assert u.graph is g
            assert u.values.tobytes() == row.tobytes()


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


class TestContiguousRows:
    """``x[:, ids]`` is column-major, and ``np.dot`` adds a strided row in
    another order than a contiguous one. The monitors and the oracle
    errors read the run's interior rows contiguously, so they give the
    bits of the per-field loops."""

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
                prob = random_vi_problem(rng, dom, constraint, 1.0)
                part = TimePartition(1.0, 12)
                run = run_vi(prob, part)
                _, quotients, _ = reference_run_vi(prob, part)
                assert repr(vi_monotonicity_monitor(run)) == \
                    repr(reference_vi_monotonicity_monitor(run, quotients))

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
            prob = HeatProblem(dom, 1.0, prep.initial, prep.horizon)
            fields = reference_run_rothe(prob, part)
            refs = [VertexField(prep.graph, row) for row in
                    exact_p1_solution(basis, prep.initial, part.times)]
            errs = [op.l2(op.restrict(u) - op.restrict(ref))
                    for u, ref in zip(fields, refs)]
            err = max(errs)
            order = None
            if prev is not None and err > 0 and prev[1] > 0:
                order = math.log(prev[1] / err) / math.log(n / prev[0])
            rows.append((n, part.step_size, err, errs[-1], order))
            prev = (n, err)
        ref_path = tmp_path / "reference_oracle_error.csv"
        fileio.write_csv(str(ref_path),
                         ("n", "ell", "max_l2_error", "endpoint_l2_error",
                          "observed_order"), rows)
        assert (out / "oracle_error.csv").read_bytes() == \
            ref_path.read_bytes()
