import ast
import doctest
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import limtower

MODULES = ["limtower"] + sorted(m.name for m in pkgutil.iter_modules(limtower.__path__, "limtower."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def readme_quick_start() -> str:
    """The README's Python quick start block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_prints_what_it_quotes():
    """Run the quick start; a line whose comment opens with a quoted value must evaluate to that text."""
    block = readme_quick_start()
    quoted = {}
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type == tokenize.COMMENT and (m := re.match(r'#\s*"([^"]*)"', tok.string)):
            quoted[tok.start[0]] = m.group(1)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            assert stmt.lineno not in quoted, f"quick start line {stmt.lineno} quotes a value but is not an expression"
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if stmt.lineno in quoted:
            assert value == quoted[stmt.lineno], f"quick start line {stmt.lineno}: {value!r}"
            checked += 1
    assert checked == len(quoted) >= 7
