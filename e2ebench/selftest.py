#!/usr/bin/env python3
"""Fast self-test of the benchmark's own parts, at tiny sizes.

    python3 e2ebench/selftest.py

Covers the seeded input generator, the independent reference solvers,
the self-time arithmetic of nested and recursive spans, the span
installation into the program's namespaces, and the ledger's handling of
a failing check. It runs in seconds and writes only under
``e2ebench/_work``.
"""

import json
import os
import shutil
import unittest

import numpy as np

import checks
import run
import spans
import workloads

SCALE = 0.25
cli = run.import_program()


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(run.HERE, "_work",
                                f"selftest-{os.getpid()}-{self.id()}")
        os.makedirs(self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def generate(self, name, seed, sub=""):
        return workloads.generate(name, seed, os.path.join(self.dir, sub),
                                  SCALE)


def _read_inputs(w):
    folder = os.path.dirname(w.config)
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            out[name] = fh.read().replace(folder.encode(), b"DIR")
    return out


class GeneratorTest(WorkDir):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            a = _read_inputs(self.generate(name, 7, "a"))
            b = _read_inputs(self.generate(name, 7, "b"))
            self.assertEqual(a, b, name)

    def test_seed_changes_values_not_shape(self):
        for name in run.WORKLOADS:
            a = self.generate(name, 1, "a")
            b = self.generate(name, 2, "b")
            self.assertNotEqual(_read_inputs(a), _read_inputs(b), name)
            self.assertEqual(a.params.keys(), b.params.keys())
            self.assertEqual(len(a.labels), len(b.labels))
            self.assertEqual([e[:2] for e in a.edges],
                             [e[:2] for e in b.edges])


def path_graph(n):
    rng = np.random.default_rng(0)
    mu = rng.uniform(0.5, 1.5, n)
    edges = [(k, k + 1, float(w))
             for k, w in enumerate(rng.uniform(0.5, 1.5, n - 1))]
    return mu, checks.stiffness(n, edges)


class ReferenceTest(unittest.TestCase):
    def test_stiffness_is_a_laplacian(self):
        _, A = path_graph(6)
        dense = A.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-15)
        self.assertTrue(np.all(np.diag(dense) > 0))

    def test_backward_euler_converges_first_order_to_exact(self):
        mu, A = path_graph(6)
        h = np.linspace(0.0, 1.0, 6)
        exact = checks.heat_p1_exact(mu, A, h, 1.0, 1)[-1]
        errs = [np.max(np.abs(checks.heat_p1_reference(
            mu, A, h, 1.0 / n, n)[-1] - exact)) for n in (200, 400)]
        self.assertAlmostEqual(np.log2(errs[0] / errs[1]), 1.0, delta=0.05)

    def test_exact_matches_eigen_expansion(self):
        mu, A = path_graph(5)
        h = np.arange(5.0)
        got = checks.heat_p1_exact(mu, A, h, 0.7, 7)
        d = 1.0 / np.sqrt(mu)
        lam, Q = np.linalg.eigh(d[:, None] * A.toarray() * d[None, :])
        for i, t in enumerate(np.linspace(0.0, 0.7, 8)):
            want = d * (Q @ (np.exp(-(lam + 1.0) * t) * (Q.T @ (h / d))))
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)

    def test_newton_reference(self):
        mu, A = path_graph(7)
        h = np.abs(np.sin(np.arange(7.0)))
        linear = checks.semilinear_reference(mu, A, h, 0.1, 5, 1.0)
        np.testing.assert_allclose(
            linear, checks.heat_p1_reference(mu, A, h, 0.1, 5),
            rtol=1e-12, atol=1e-14)
        out = checks.semilinear_reference(mu, A, h, 0.1, 5, 2.0)
        for prev, u in zip(out, out[1:]):
            resid = mu * ((u - prev) / 0.1 + np.abs(u) * u) + A @ u
            self.assertLess(np.max(np.abs(resid / mu)), 1e-12)

    def test_lattice_ball(self):
        for m in (1, 3, 5):
            labels, A = checks.lattice_ball(m, 1.5)
            self.assertEqual(len(labels), 2 * m * m - 2 * m + 1)
            dense = A.toarray()
            np.testing.assert_array_equal(dense, dense.T)
            # each interior vertex leaks weight only to the ball's rim
            rim = dense.sum(axis=1)
            self.assertTrue(np.all(rim >= 0) and rim.max() > 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,10] > b [1,4] > c [2,3]; a > d [5,6]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 6.0]
        np.testing.assert_allclose(spans.self_times(parent, start, end),
                                   [6.0, 2.0, 1.0, 1.0])
        summary = spans.summarize(["a", "b", "c", "d"], np.arange(4),
                                  parent, start, end)
        self.assertEqual(summary["a"], (1, 6.0))

    def test_recursion_counts_each_interval_once(self):
        # f [0,10] > f [2,5] > g [3,4]
        summary = spans.summarize(["f", "g"], np.array([0, 0, 1]),
                                  [-1, 0, 1], [0.0, 2.0, 3.0],
                                  [10.0, 5.0, 4.0])
        self.assertEqual(summary, {"f": (2, 9.0), "g": (1, 1.0)})

    def test_recursive_wrapper(self):
        tracer = spans.Tracer()

        def fact(n):
            return 1 if n == 0 else n * traced(n - 1)

        traced = tracer.span("fact", fact)
        self.assertEqual(traced(5), 120)
        name, parent, start, end = tracer.arrays()
        self.assertEqual(list(parent), [-1, 0, 1, 2, 3, 4])
        selfs = spans.self_times(parent, start, end)
        self.assertAlmostEqual(selfs.sum(), end[0] - start[0], places=12)
        self.assertEqual(tracer.summary()["fact"][0], 6)


class InstallTest(WorkDir):
    def test_exhaustion_spans_and_uninstall(self):
        from graphrothe import graph, heat, operators
        original = (graph.make_domain, heat.run_rothe,
                    operators.CachedSPD.__init__)
        w = self.generate("lattice-newton", 3)
        session = run.Session(cli, w, checks.Ledger())
        tracer, seconds = run.traced_round(session)
        self.assertIsNotNone(seconds)
        self.assertIs(cli.make_domain, original[0])
        self.assertEqual((graph.make_domain, heat.run_rothe,
                          operators.CachedSPD.__init__), original)
        summary = tracer.summary()
        levels = len(w.params["levels"])
        self.assertEqual(summary["heat.run_exhaustion"][0], 1)
        self.assertEqual(summary["heat.run_rothe"][0], levels)
        self.assertEqual(summary["operators.DirichletOperator"][0], levels)
        # exhaust_generative builds one domain per radius up to the largest
        self.assertEqual(summary["graph.make_domain"][0],
                         w.params["levels"][-1])
        name, parent, start, end = tracer.arrays()
        selfs = spans.self_times(parent, start, end)
        roots = parent < 0
        self.assertAlmostEqual(float(selfs.sum()),
                               float((end - start)[roots].sum()), places=9)
        metrics = run.layer_metrics(tracer)
        self.assertEqual([k for k, _ in run.PER_LAYER], list(metrics))
        self.assertGreater(metrics["operators.CachedSPD.calls"][0], 0)
        self.assertEqual(metrics["kernels.psor_sweep.calls"][0], 0)
        self.assertGreater(metrics["fileio.bytes_written"][0], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"})


class PipelineTest(WorkDir):
    def test_every_workload_passes_its_checks(self):
        for name in run.WORKLOADS:
            ledger = checks.Ledger()
            w = self.generate(name, 5, name)
            session = run.Session(cli, w, ledger)
            self.assertIsNotNone(session.setup())
            self.assertIsNotNone(session.round())
            self.assertIsNotNone(session.round())
            session.check()
            self.assertEqual(ledger.failed, 0, name)
            self.assertEqual(ledger.failed_checks, [], name)

    def test_failing_check_is_counted_not_raised(self):
        ledger = checks.Ledger()
        self.assertFalse(ledger.run("boom", lambda: 1 / 0))
        self.assertTrue(ledger.run("fine", lambda: None))
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))
        self.assertEqual(ledger.failed_checks, ["boom"])

    def test_corrupt_and_missing_outputs_fail_checks(self):
        ledger = checks.Ledger()
        w = self.generate("grid-heat", 5)
        session = run.Session(cli, w, ledger)
        session.round()
        path = os.path.join(w.outdir, "trajectory.csv")
        with open(path) as fh:
            lines = fh.readlines()
        i, t, label, value = lines[-1].rsplit(",", 3)
        lines[-1] = f"{i},{t},{label},{float(value) + 1e-3}\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        os.remove(os.path.join(w.outdir, "norms.csv"))
        session.check()
        self.assertEqual(sorted(ledger.failed_checks),
                         ["grid-heat.l2_decreasing", "grid-heat.manifest",
                          "grid-heat.trajectory"])
        self.assertEqual(ledger.failed, 3)

    def test_failed_invocation_is_counted(self):
        ledger = checks.Ledger()
        w = self.generate("grid-oracle", 5)
        os.remove(w.graph_file)
        session = run.Session(cli, w, ledger)
        self.assertIsNone(session.setup())
        self.assertIsNone(session.round())
        self.assertEqual((ledger.attempted, ledger.failed), (2, 2))
        self.assertEqual(ledger.failed_checks, [])


if __name__ == "__main__":
    unittest.main()
