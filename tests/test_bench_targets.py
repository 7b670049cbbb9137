"""Every callable that the benchmark's tracer wraps resolves in the
package, so a rename cannot break ``e2ebench/run.py --trace 1`` while
the tests stay green. ``e2ebench/spans.py`` is only loaded, never
changed."""

import importlib
import importlib.util
import os

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "e2ebench",
                        "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
# BYTES is (target, count name): only its first entry names a callable
TARGETS = SPANS.SPANS + SPANS.COUNTS + SPANS.BYTES[:1]


def resolves(target):
    modname, _, rest = target.partition(".")
    obj = importlib.import_module(f"{SPANS.PACKAGE}.{modname}")
    for part in rest.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_target_resolves():
    assert len(TARGETS) > 20
    assert [t for t in TARGETS if not resolves(t)] == []
