#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``graphrothe run``.

    python3 e2ebench/run.py --workload grid-heat --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and the run fails at once without it.
The inputs of the workload are generated from ``--seed`` into a work
directory under ``e2ebench/_work`` (removed at exit), and every command
goes through ``graphrothe.cli.main`` in this one process.

``--trace 0`` times whole rounds for ``--seconds``, one warm-up round
included, and prints the end-to-end metrics. ``--trace 1`` runs the workload
once untraced and twice traced, prints the per-layer metrics, reports the
tracing overhead on stderr and writes the spans to ``e2ebench/_out``.
Either way the outputs are checked apart from the program, and the last
line of stdout is one JSON object.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("grid-heat", "lattice-newton", "grid-obstacle", "grid-oracle")
# Each timed round runs the workload once, then validate-config until the
# set-ups have taken this share of the round's wall time, and at least
# SETUPS_PER_ROUND times: set-up is short, so it is sampled more often
# than the run, but most of the window goes to the run.
SETUP_SHARE = 0.15
SETUPS_PER_ROUND = 1
MIN_ROUNDS = 3
TRACED_ROUNDS = 3
# Timings are scaled to the machine speed at which calibrate() takes this
# long: about its fastest time on a quiet 2.1-GHz Xeon vCPU.
CALIBRATION_S = 0.0055

S, COUNT = "s", "count"
PER_LAYER = (
    ("calculus.norms.self_s", S),
    ("calculus.norms.calls", COUNT),
    ("calculus.gamma.calls", COUNT),
    ("calculus.integrate.self_s", S),
    ("kernels.seq_sum.calls", COUNT),
    ("kernels.seq_sum.self_s", S),
    ("heat.monitor_estimates.self_s", S),
    ("fileio.write_trajectory_csv.self_s", S),
    ("fileio.write_csv.self_s", S),
    ("fileio.write_field_file.self_s", S),
    ("fileio.write_manifest.self_s", S),
    ("fileio.bytes_written", "bytes"),
    ("operators.CachedSPD.calls", COUNT),
    ("operators.CachedSPD.self_s", S),
    ("operators.CachedSPD.solve.calls", COUNT),
    ("operators.CachedSPD.solve.self_s", S),
    ("heat.run_rothe.self_s", S),
    ("operators.DirichletOperator.calls", COUNT),
    ("operators.DirichletOperator.self_s", S),
    ("kernels.psor_sweep.calls", COUNT),
    ("kernels.psor_sweep.self_s", S),
    ("vi.run_vi.self_s", S),
    ("vi.lipschitz_validate.self_s", S),
    ("vi.vi_monotonicity_monitor.self_s", S),
    ("spectral.dirichlet_eigenbasis.self_s", S),
    ("spectral.exact_p1_solution.calls", COUNT),
    ("spectral.exact_p1_solution.self_s", S),
    ("spectral.w12_coefficients.calls", COUNT),
    ("fileio.read_trajectory_csv.self_s", S),
    ("cli.load_config.self_s", S),
    ("cli.PreparedRun.self_s", S),
    ("fileio.read_graph_file.self_s", S),
    ("fileio.read_field_file.self_s", S),
    ("graph.build_finite_graph.self_s", S),
    ("graph.make_domain.self_s", S),
    ("graph.exhaust_generative.self_s", S),
)


def import_program():
    """graphrothe.cli from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "graphrothe", "cli.py")):
        raise SystemExit(f"error: no graphrothe sources under {SRC}")
    sys.path.insert(0, SRC)
    from graphrothe import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: graphrothe imported from {cli.__file__}")
    return cli


def invoke(cli, argv):
    """One in-process CLI invocation: (exit code, wall seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


class Session:
    """One workload's generated inputs, ledger and reference outputs."""

    def __init__(self, cli, w, ledger):
        self.cli = cli
        self.w = w
        self.ledger = ledger
        self.reference = None
        self.compare_stdout = ""

    def setup(self):
        code, seconds, _ = invoke(self.cli, self.w.validate_argv())
        ok = self.ledger.invocation(f"{self.w.name}.validate-config", code)
        return seconds if ok else None

    def round(self):
        """The workload's ``run`` (and ``compare``) on a fresh output
        directory; returns the wall seconds of each invocation, or None
        if one failed. Every round must write the same bytes as the
        first."""
        w, ledger = self.w, self.ledger
        shutil.rmtree(w.outdir, ignore_errors=True)
        # Once a round, not before every set-up: a collection takes longer
        # than the shortest set-ups and would crowd runs out of the window.
        gc.collect()
        code, seconds, _ = invoke(self.cli, w.run_argv())
        if not ledger.invocation(f"{w.name}.run", code):
            return None
        times = [seconds]
        argv = w.compare_argv()
        if argv is not None:
            code, seconds, self.compare_stdout = invoke(self.cli, argv)
            if not ledger.invocation(f"{w.name}.compare", code):
                return None
            times.append(seconds)
        digests = checks.file_digests(w.outdir)
        if self.reference is None:
            self.reference = digests
        else:
            ledger.verify(f"{w.name}.byte_identical",
                          digests == self.reference,
                          "outputs differ from the first round")
        return times

    def check(self):
        checks.check_outputs(self.w, self.w.outdir, self.ledger,
                             self.compare_stdout)


def calibrate():
    """Wall seconds of a fixed pure-Python loop that never touches the
    program: a gauge of how fast the machine runs at the moment."""
    start = time.perf_counter()
    table = {}
    for i in range(40000):
        k = i % 997
        table[k] = table.get(k, 0.0) + i * 0.5
    return time.perf_counter() - start


def total(times):
    """The wall seconds of a round, or None if it failed."""
    return None if times is None else sum(times)


def measure(session, seconds):
    """End-to-end metrics: the fastest run and set-up over a window of
    ``seconds``. Interference only ever adds time, so the fastest
    repetition is the steadiest estimate of the work itself, and it is
    steadier the shorter the repetition. Where a round makes several
    invocations (grid-oracle's ``run`` and ``compare``), ``run_s`` sums
    the fastest time of each: they need not be fastest in the same round.

    The window holds a warm-up round and then as many timed rounds, each
    with its set-ups, as end within it (at least MIN_ROUNDS), so that a
    run takes ``seconds`` however long a round is. Successive rounds are
    pinned to the allowed CPUs in turn: on a shared host each virtual CPU
    slows down at its own times, so taking turns gives the window more
    chances to catch a quiet one.

    The whole machine also runs slower or faster for minutes at a time,
    longer than any window. Each cycle therefore ends with calibrate(),
    and both timings are scaled by CALIBRATION_S over its fastest time in
    the window: they read as seconds on the machine at a fixed speed."""
    deadline = time.perf_counter() + seconds
    session.round()
    session.setup()
    runs, setups, cycles, gauges = [], [], [], []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    while len(runs) < MIN_ROUNDS or (
            time.perf_counter() + statistics.median(cycles) < deadline):
        start = time.perf_counter()
        os.sched_setaffinity(0, {cpus[len(runs) % len(cpus)]})
        runs.append(session.round())
        middle = time.perf_counter()
        target = SETUP_SHARE * (middle - start)
        count = 0
        while (count < SETUPS_PER_ROUND
               or time.perf_counter() - middle < target):
            setup = session.setup()
            if setup is None:
                break
            setups.append(setup)
            count += 1
        gauges.append(calibrate())
        cycles.append(time.perf_counter() - start)
    os.sched_setaffinity(0, allowed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    session.check()
    runs = [t for t in runs if t is not None]
    if not runs or not setups:
        return {}
    run_s = sum(min(column) for column in zip(*runs))
    rounds = [sum(t) for t in runs]
    scale = CALIBRATION_S / min(gauges)
    print(f"{session.w.name}: {len(runs)} runs, fastest {run_s:.4f} s "
          f"(fastest whole round {min(rounds):.4f} s), median "
          f"{statistics.median(rounds):.4f} s; {len(setups)} set-ups, "
          f"fastest {min(setups):.4f} s, median "
          f"{statistics.median(setups):.4f} s; calibration fastest "
          f"{min(gauges):.5f} s, scale {scale:.4f}", file=sys.stderr)
    return {"run_s": (run_s * scale, "s"),
            "setup_s": (min(setups) * scale, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB")}


def traced_round(session):
    tracer = spans.Tracer()
    tracer.install()
    try:
        seconds = total(session.round())
    finally:
        tracer.uninstall()
    return tracer, seconds


def layer_metrics(tracer):
    summary = tracer.summary()
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "fileio.bytes_written":
            value = tracer.counts.get(name, 0)
        elif name.endswith(".self_s"):
            value = summary.get(name[:-len(".self_s")], (0, 0.0))[1]
        else:
            base = name[:-len(".calls")]
            value = (summary[base][0] if base in summary
                     else tracer.counts.get(base, 0))
        metrics[name] = (value, unit)
    return metrics


def trace(session, seed):
    """Per-layer metrics from the fastest of TRACED_ROUNDS traced rounds,
    each run right after an untraced one. The fastest round of each kind
    gives the tracing overhead; every traced round must repeat every count."""
    name = session.w.name
    session.round()
    untraced, traced = [], []
    for _ in range(TRACED_ROUNDS):
        untraced.append(total(session.round()))
        traced.append(traced_round(session))
    session.check()
    counts = [{k: v for k, (v, unit) in layer_metrics(tracer).items()
               if unit != S} for tracer, _ in traced]
    session.ledger.verify(f"{name}.counts_repeat",
                          all(c == counts[0] for c in counts),
                          "counts differ between traced rounds")
    if None in untraced or any(s is None for _, s in traced):
        return {}
    tracer, seconds = min(traced, key=lambda pair: pair[1])
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    tracer.save(os.path.join(HERE, "_out", f"trace-{name}-{seed}.npz"))
    base = min(untraced)
    print(f"{name}: fastest traced round {seconds:.4f} s, untraced "
          f"{base:.4f} s, tracing overhead {100.0 * (seconds / base - 1.0):.1f}%",
          file=sys.stderr)
    summary = tracer.summary()
    attributed = sum(self_s for _, self_s in summary.values())
    for span, (calls, self_s) in sorted(summary.items(),
                                        key=lambda kv: -kv[1][1]):
        if self_s >= 0.01 * seconds:
            print(f"  {span:36s} {100.0 * self_s / seconds:5.1f}%  "
                  f"{calls} calls", file=sys.stderr)
    print(f"  {'outside any span':36s} "
          f"{100.0 * (1.0 - attributed / seconds):5.1f}%", file=sys.stderr)
    return layer_metrics(tracer)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = import_program()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        w = workloads.generate(args.workload, args.seed, workdir)
        ledger = checks.Ledger()
        session = Session(cli, w, ledger)
        if args.trace:
            metrics = trace(session, args.seed)
        else:
            metrics = measure(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not ledger.failed_checks and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
