"""The README's library example runs on the current API."""

import contextlib
import io
import math
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no library example block"
    return match.group(1)


def test_library_example_prints_exp_minus_3():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), "README.md", "exec"), {})
    numbers = [float(x) for x in out.getvalue().split()]
    assert len(numbers) == 2
    for x in numbers:
        assert abs(x - math.exp(-3.0)) <= 1e-3
