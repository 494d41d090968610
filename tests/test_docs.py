"""The documentation against the code: README's Python example runs,
every public name ``pstab`` exports resolves, every dotted ``pstab`` name
README's prose mentions resolves, and README's size-cap table holds every
cap with its value."""

import contextlib
import functools
import importlib
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
    assert lines[1] == "1 511/512 1021/1024 2041/2048"  # the stabilizer's eps
    assert lines[3] == "[]"  # no nonpositive exact value


def test_every_public_name_resolves_once():
    names = pstab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(pstab, name) is not None, name


def _readme_pstab_names():
    """{dotted name: whether it resolves} for each inline-code name in
    README's prose that starts with ``pstab``, a pstab module or a public
    pstab name, resolved in that module or on ``pstab``."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    modules = {path.stem for path in Path(pstab.__file__).parent.glob("*.py")}
    found = {}
    for name in set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", prose)):
        parts = name.split(".")
        if parts[0] == "pstab":
            parts = parts[1:]
        elif parts[0] not in modules and parts[0] not in pstab.__all__:
            continue  # a certificate key path or a standard-library name
        if parts and parts[0] in modules:
            parts[0] = importlib.import_module(f"pstab.{parts[0]}")
        else:
            parts.insert(0, pstab)
        try:
            functools.reduce(getattr, parts[1:], parts[0])
        except AttributeError:
            found[name] = False
        else:
            found[name] = True
    return found


def test_readme_dotted_pstab_names_resolve():
    # modules, module members and record fields alike: a field or function
    # that goes must leave the prose too
    found = _readme_pstab_names()
    assert [name for name, resolves in found.items() if not resolves] == []
    assert {
        "pstab.certificate.nonpositive_values",
        "exactmat.integer_minor_sums",
        "NestCertificate.levels",
    } <= set(found)


def _size_caps():
    """{name: value} of the README's size-cap table, each name resolved
    in the module its row names and compared with the value there."""
    section = README.read_text(encoding="utf-8").split("### Size caps\n", 1)[1]
    caps = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        names, where, values, past = line.strip("|").split(" | ")
        names = re.findall(r"`([\w.]+)`", names)
        values = [int(v) for v in values.split(" / ")]
        assert len(names) == len(values) and past, line
        module = importlib.import_module(where.strip("`"))
        for name, value in zip(names, values):
            assert functools.reduce(getattr, name.split("."), module) == value, name
            caps[name] = value
    return caps


def test_readme_lists_every_size_cap_with_its_value():
    # every module-level *MAX* constant of the package has a row, and so
    # does the interpreter's JSON integer limit that verify runs into
    source = Path(pstab.__file__).parent
    constants = {
        name
        for path in source.glob("*.py")
        for name in re.findall(r"^(\w*MAX\w*) = ", path.read_text("utf-8"), re.M)
    }
    assert set(_size_caps()) == constants | {"int_info.default_max_str_digits"}


def test_readme_trusted_base_counts_its_lines():
    # the paragraph names the files of the checker's import closure (whose
    # membership tests/test_compound.py checks) and their total line count
    paragraph = README.read_text(encoding="utf-8").split("**Trusted base.**", 1)[1]
    match = re.search(r"the files (.*?), ([\d,]+) lines in all", paragraph, re.S)
    files = re.findall(r"`src/pstab/(\w+\.py)`", match[1])
    assert set(files) == {"certificate.py", "classify.py", "exactmat.py", "errors.py"}
    source = Path(pstab.__file__).parent
    count = sum((source / name).read_bytes().count(b"\n") for name in files)
    assert int(match[2].replace(",", "")) == count
