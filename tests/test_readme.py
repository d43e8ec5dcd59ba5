"""The README's "Library usage" example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block():
    section = README.read_text().split("\n## Library usage\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_usage_block(), str(README), "exec"), {})
    # the two printed values the example's comments state
    assert out.getvalue() == "['x3']\nTrue\n"
