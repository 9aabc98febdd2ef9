"""`src/` imports only the standard library and the declared dependencies,
raises on a broken invariant instead of asserting it (`python -O` strips
every `assert`), and forms log((1-lam)/lam) in `series.log_odds` alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "magrad"
#: the [project] dependencies of pyproject.toml, and the package itself
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "magrad"}


def imported_roots(tree: ast.AST):
    """Top-level module names of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_declared(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    undeclared = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not undeclared, f"{path.name} imports {undeclared}"


def assert_lines(tree: ast.AST) -> list:
    """Line numbers of every `assert` statement in the tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not assert_lines(tree), f"{path.name} asserts on lines {assert_lines(tree)}"


def test_assert_statement_is_caught():
    tree = ast.parse("def f(x):\n    assert x > 0\n    raise AssertionError(x)\n")
    assert assert_lines(tree) == [2]


def test_undeclared_import_is_caught():
    tree = ast.parse("import sympy\nfrom mpmath import mp\nfrom . import kernels\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["mpmath", "sympy"]


def math_calls(tree: ast.AST, name: str) -> list:
    """Line numbers of every call to math.<name>, or to a <name> imported
    from math."""
    bare = any(isinstance(node, ast.ImportFrom) and node.module == "math"
               and any(alias.name == name for alias in node.names)
               for node in ast.walk(tree))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr == name
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
                 or bare and isinstance(node.func, ast.Name) and node.func.id == name)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_log_odds_has_one_owner(path):
    # log1p(-g) - log(g) is series.log_odds' alone; the closed forms and the
    # Lipschitz check in magnus read it and take no log of their own
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name != "series.py":
        assert not math_calls(tree, "log1p"), f"{path.name} calls math.log1p"
    if path.name == "magnus.py":
        assert not math_calls(tree, "log"), "magnus.py calls math.log"


def test_math_call_is_caught():
    tree = ast.parse("import math\nfrom math import log1p\nmath.log1p(x)\n"
                     "log1p(y)\nmath.log(z)\nlog(w)\nnp.log1p(v)\n")
    assert math_calls(tree, "log1p") == [3, 4]
    assert math_calls(tree, "log") == [5]


def test_cli_stack_leaves_scipy_integrate_out():
    # a fresh interpreter, so no other test module's imports count
    child = ("import sys\n"
             "import magrad.magnus, magrad.cli, magrad.verify\n"
             "raise SystemExit('scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr or "scipy.integrate was imported"
