"""The README's Quick-start example runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    """The first fenced ``python`` block under the ``## Quick start`` heading."""
    text = README.read_text()
    section = text[text.index("\n## Quick start\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_example_prints_finite_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {})
    lines = [[float(token) for token in line.split()] for line in out.getvalue().splitlines()]
    # Two printed lines: the estimated delta (ppm) and epsilon, then the NMSE of the compensated window.
    assert [len(line) for line in lines] == [2, 1]
    assert all(math.isfinite(value) for line in lines for value in line)
