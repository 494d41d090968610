"""The documentation against the code: README's Python example runs, and
every public name ``pstab`` exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import pstab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert lines[3] == "[]"  # no nonpositive exact value


def test_every_public_name_resolves_once():
    names = pstab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(pstab, name) is not None, name
