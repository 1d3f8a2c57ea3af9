"""Internal invariants are explicit checks, so `python -O` keeps them."""

import ast
import pathlib

import pytest

import limtower
from limtower import suites, towers
from limtower.groups import fg_group
from limtower.towers import image_tower, multiplication_tower

SOURCES = sorted(pathlib.Path(limtower.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}; raise RuntimeError instead"


def test_broken_invariant_raises_runtime_error(monkeypatch):
    s = multiplication_tower(fg_group(8), 2)
    image_tower(s)
    monkeypatch.setattr(towers, "is_null_tower", lambda t: False)
    with pytest.raises(RuntimeError, match="null tower"):
        image_tower(s)


def test_every_criterion_is_a_row_the_gate_runs():
    # a criterion outside the table, or a row without an acceptance scale, is reachable only from tests
    defined = {name for name, obj in vars(suites).items() if name.startswith("criterion_") and callable(obj)}
    assert defined - {row.check.__name__ for row in suites.CRITERIA} == set()
    assert [row.name for row in suites.CRITERIA if "acceptance" not in row.trials] == []


def _cache_decorators(tree) -> list[int]:
    """Lines that name functools.cache or functools.lru_cache, imported or by attribute."""
    banned = {"cache", "lru_cache"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in banned]
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hidden_cache(path):
    # results are computed once and passed around; a memo lives inside one call
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _cache_decorators(tree)
    assert lines == [], f"{path.name} uses a functools cache at lines {lines}"


def test_cache_check_sees_both_spellings():
    text = "import functools\nfrom functools import lru_cache\n@functools.cache\ndef f(): pass\n"
    assert _cache_decorators(ast.parse(text)) == [2, 3]


def _unused_imports(tree) -> list[str]:
    """Names that module-level imports bind and the module never reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__ imports to re-export; every other module imports only what it uses
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_unused_import_check_sees_every_form():
    text = "from __future__ import annotations\nimport os.path, re as regex\nfrom .groups import mat_mul, abs_det\nabs_det(os)\n"
    assert _unused_imports(ast.parse(text)) == ["mat_mul", "regex"]


def _unread_private_definitions(tree) -> list[str]:
    """Module-level private functions and classes that the module never reads outside their own body.

    Dunder names such as a module `__getattr__` are read by the interpreter, not by name.
    """
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.endswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside for n in ast.walk(tree)):
            unread.append(node.name)
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_definitions(path):
    unread = _unread_private_definitions(ast.parse(path.read_text(), filename=str(path)))
    assert unread == [], f"{path.name} defines {unread} and never reads them"


def test_dead_code_check_sees_every_form():
    text = (
        "def _used(): pass\n"
        "def _dead(n): return _dead(n - 1)\n"
        "class _Gone: pass\n"
        "class _Kept: pass\n"
        "def public(): return _used(), _Kept\n"
        "def __getattr__(name): pass\n"
    )
    assert _unread_private_definitions(ast.parse(text)) == ["_dead", "_Gone"]


def _trusted_uses(tree) -> list[int]:
    """Lines that reach a `_of_valid` constructor: a call, an alias or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_of_valid":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_of_valid":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "_of_valid" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "ordinals.py"], ids=lambda p: p.name)
def test_trusted_constructors_stay_in_ordinals(path):
    # `_of_valid` skips every check, so only the module whose invariants it relies on may call it
    lines = _trusted_uses(ast.parse(path.read_text(), filename=str(path)))
    assert lines == [], f"{path.name} reaches a trusted `_of_valid` constructor at lines {lines}"


def test_trusted_constructor_check_sees_every_form():
    text = (
        "from .ordinals import OrdinalCNF, _of_valid\n"
        "OrdinalCNF._of_valid(terms, key)\n"
        "_of_valid(terms)\n"
        "make = DegLexIndex._of_valid\n"
        "DegLexIndex(entries).tail()\n"
    )
    assert _trusted_uses(ast.parse(text)) == [1, 2, 3, 4]
