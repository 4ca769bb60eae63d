"""The docstring examples of every module and the README's library tour."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import plcensus

MODULES = sorted(m.name for m in pkgutil.iter_modules(plcensus.__path__, "plcensus."))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_doctests():
    results = {n: doctest.testmod(importlib.import_module(n)) for n in MODULES}
    assert {n: r.failed for n, r in results.items() if r.failed} == {}
    # at least factorize, recurrence_eval and series_expand carry examples
    assert sum(r.attempted for r in results.values()) >= 3


def _quick_tour() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_readme_quick_tour():
    """Run the tour line by line; each commented line states its result,
    after an optional '->', as a repr (up to a ':') or as '== expr'."""
    ns = {}
    checked = 0
    for line in _quick_tour():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if not comment:
            exec(code, ns)
            continue
        if "=" in code.split("(")[0]:
            exec(code, ns)
            value = ns[code.split("=")[0].strip()]
        else:
            value = eval(code, ns)
        if comment.startswith("=="):
            assert value == eval(comment.split("==")[1].strip(), ns), line
        else:
            claim = comment.split("->")[-1].split(":")[0].strip()
            assert repr(value) == claim, line
        checked += 1
    assert checked == 7
    assert ns["counts"] == [1, 3, 4, 7, 11, 18]  # the Lucas numbers
