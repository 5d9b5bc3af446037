"""Guards on the package source itself."""

import ast
import pathlib

import pytest

import macflow

SOURCES = sorted(pathlib.Path(macflow.__file__).parent.glob("*.py"))

# Calls that turn a sparse matrix dense or run a dense factorization.
DENSE_CALLS = {"toarray", "todense", "eigh", "svd"}


def _dense_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in DENSE_CALLS):
            yield f"line {node.lineno}: .{node.func.attr}()"
            continue
        else:
            continue
        for name in names:
            if name == "scipy.linalg" or name.startswith("scipy.linalg."):
                yield f"line {node.lineno}: import {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_linear_algebra(path):
    # every matrix of the package stays sparse; dense references belong
    # in the tests
    found = list(_dense_uses(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name}: {found}"


def test_guard_sees_dense_code():
    code = ("import scipy.linalg as la\nfrom scipy.linalg import svd\n"
            "w = la.eigh(m.toarray())\n")
    found = list(_dense_uses(ast.parse(code)))
    assert len(found) == 4


def _report_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SolveReport"]


def test_one_home_per_solve_decision():
    # linsolve._accept builds every solve report, so one routine decides
    # each fallback of both step solves; the block preconditioner lives in
    # SaddleSolver, not in a free function beside it
    homes = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        accept = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_accept"]
        inside = sum(len(_report_calls(node)) for node in accept)
        assert len(_report_calls(tree)) == inside, path.name
        homes += [path.name] * inside
        assert "_block_preconditioner" not in path.read_text(), path.name
    assert homes == ["linsolve.py", "linsolve.py"]
