"""Guards on the package source itself."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

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


def _call_lines(tree, name):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def test_kept_iterate_measured_once():
    # gmres and jacobi_sweeps hand _accept the residual they stopped on;
    # in linsolve only _accept calls checked_residual, and only on the LU
    # solution, after direct
    path = pathlib.Path(macflow.__file__).parent / "linsolve.py"
    tree = ast.parse(path.read_text(), str(path))
    [accept] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_accept"]
    checks = _call_lines(accept, "checked_residual")
    assert len(checks) == 1
    assert min(_call_lines(accept, "direct")) < checks[0]
    assert len(_call_lines(tree, "checked_residual")) == 1


def test_one_warm_start_path():
    # linsolve calls gmres once, from the start SaddleSolver.start fits to
    # the history; no module keeps a last solution beside it
    path = pathlib.Path(macflow.__file__).parent / "linsolve.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "gmres"]
    assert len(calls) == 1
    start = calls[0].args[2]
    assert (isinstance(start, ast.Call)
            and isinstance(start.func, ast.Attribute)
            and start.func.attr == "start")
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "solution"], path.name


# The history of the GMRES start: SaddleSolver.remember stores solutions
# as they are, with no product, and SaddleSolver.start fits them by one
# least-squares solve; no QR or second fit keeps a basis beside them.
HISTORY_CALLS = {"qr", "lstsq"}


def _history_algebra(tree):
    """``(class, function, what)`` of every ``qr`` or ``lstsq`` call, and
    of every ``@`` product in ``SaddleSolver.remember``."""
    for stmt in tree.body:
        members = ([(stmt.name, node) for node in stmt.body]
                   if isinstance(stmt, ast.ClassDef) else [(None, stmt)])
        for cls, top in members:
            home = getattr(top, "name", None)
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                if isinstance(node, ast.Call) and name in HISTORY_CALLS:
                    yield cls, home, name
                elif ((cls, home) == ("SaddleSolver", "remember")
                      and isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.MatMult)):
                    yield cls, home, "@"


def test_history_is_stored_and_fit_once():
    path = pathlib.Path(macflow.__file__).parent / "linsolve.py"
    tree = ast.parse(path.read_text(), str(path))
    assert list(_history_algebra(tree)) == [
        ("SaddleSolver", "start", "lstsq")]


def test_history_guard_sees_basis_algebra():
    code = ("class SaddleSolver:\n"
            "    def start(self, a, b):\n"
            "        return np.linalg.lstsq(a, b)[0]\n"
            "    def remember(self, x):\n"
            "        q, r = np.linalg.qr(x)\n"
            "        self.basis @= q\n"
            "        return q.T @ x\n"
            "def fit(a, b):\n"
            "    return lstsq(a @ a.T, b)\n")
    assert sorted(_history_algebra(ast.parse(code)), key=str) == sorted([
        ("SaddleSolver", "start", "lstsq"),
        ("SaddleSolver", "remember", "qr"),
        ("SaddleSolver", "remember", "@"),
        ("SaddleSolver", "remember", "@"),
        (None, "fit", "lstsq")], key=str)


# Where each output name may appear: format_float spells floats inside
# free text (summary lines, ``#`` header values) and csv.writer every
# other artifact float; no StringIO buffers a file that atomic_write can
# take directly; and one function creates directories, once a command's
# inputs are validated.
FORMATTER_HOMES = {"ioutil.py", "cli.py"}
MKDIR_HOME = ("cli.py", "_create_output_directory")
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
               ast.FunctionDef: "name"}


def _misplaced_output_names(filename, tree):
    for stmt in tree.body:
        home = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            field = NAME_FIELDS.get(type(node))
            name = getattr(node, field, "").rpartition(".")[2] if field else ""
            if (name == "format_float" and filename not in FORMATTER_HOMES
                    or name == "StringIO"
                    or name in ("makedirs", "mkdir")
                    and (filename, home) != MKDIR_HOME):
                yield f"line {node.lineno}: {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_float_formatter_and_one_mkdir(path):
    tree = ast.parse(path.read_text(), str(path))
    found = list(_misplaced_output_names(path.name, tree))
    assert not found, f"{path.name}: {found}"


def test_output_guard_sees_misplaced_names():
    code = ("import io\nfrom .ioutil import format_float\n"
            "def write(path):\n    buf = io.StringIO()\n"
            "    os.makedirs(path)\n    path.parent.mkdir()\n"
            "def _create_output_directory(path):\n    os.makedirs(path)\n")
    tree = ast.parse(code)
    assert len(list(_misplaced_output_names("fields.py", tree))) == 5
    assert list(_misplaced_output_names("cli.py", tree)) == [
        "line 4: StringIO", "line 5: makedirs", "line 6: mkdir"]


# The dual interfaces of a component live in one table,
# MacMesh.dual_interfaces[i], with a row range per family; no per-family
# copy of it comes back, by name or in prose.
FAMILY_TABLE = re.compile(r"\b(dual_case[12]|dual_walls|DualFace\w*)")


def _family_tables(text):
    return [f"line {text.count(chr(10), 0, m.start()) + 1}: {m.group()}"
            for m in FAMILY_TABLE.finditer(text)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_dual_table(path):
    found = _family_tables(path.read_text())
    assert not found, f"{path.name}: {found}"


def test_dual_table_guard_sees_family_tables():
    code = ("class DualFaceWall:\n    pass\n"
            "c1 = mesh.dual_case1[i]\n"
            "# the dual_case2 and dual_walls lists\n")
    assert _family_tables(code) == [
        "line 1: DualFaceWall", "line 3: dual_case1", "line 4: dual_case2",
        "line 4: dual_walls"]


# The run's gates: one table, SchemeConfig.gates, pairs each summary label
# with its StepDiagnostics field and its tolerance; the step guards, the
# run record and the summary read it, so no label or tenfold tolerance is
# spelled anywhere else.
GATE_LABELS = {"density bounds", "velocity divergence", "dual mass balance",
               "kinetic energy balance"}
GATE_HOMES = {("timestepper.py", "SchemeConfig", "gates")}


def _tenfold_tolerance(node):
    sides = (getattr(node, "left", None), getattr(node, "right", None))
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == 10
                    for side in sides)
            and any(isinstance(side, ast.Attribute)
                    and side.attr.endswith("_tol") for side in sides))


def _gate_spellings(filename, tree):
    """``(file, class, function, what)`` of every gate label and every
    tenfold tolerance ``10 * x.<name>_tol`` in ``tree``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            homes = [(stmt.name, node.name if isinstance(
                node, ast.FunctionDef) else None, node) for node in stmt.body]
        else:
            homes = [(None, stmt.name if isinstance(
                stmt, ast.FunctionDef) else None, stmt)]
        for cls, func, top in homes:
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant)
                        and node.value in GATE_LABELS):
                    yield filename, cls, func, node.value
                elif _tenfold_tolerance(node):
                    yield filename, cls, func, "10 *"


def test_one_table_of_gates():
    found = [use for path in SOURCES
             for use in _gate_spellings(path.name,
                                        ast.parse(path.read_text()))]
    assert {use[:3] for use in found} == GATE_HOMES
    table = [use[3] for use in found if use[:3] == ("timestepper.py",
                                                    "SchemeConfig", "gates")]
    assert sorted(table) == sorted([*GATE_LABELS, "10 *", "10 *"])


def test_gate_guard_sees_misplaced_spellings():
    code = ("class SchemeConfig:\n"
            "    def gates(self):\n"
            "        return [('density bounds', 10 * self.oseen_tol)]\n"
            "def summary(cfg):\n"
            "    return [('dual mass balance', cfg.transport_tol * 10),\n"
            "            10 * cfg.dt, 2 * cfg.oseen_tol]\n"
            "LABEL = 'velocity divergence'\n")
    assert list(_gate_spellings("cli.py", ast.parse(code))) == [
        ("cli.py", "SchemeConfig", "gates", "density bounds"),
        ("cli.py", "SchemeConfig", "gates", "10 *"),
        ("cli.py", None, "summary", "dual mass balance"),
        ("cli.py", None, "summary", "10 *"),
        ("cli.py", None, None, "velocity divergence")]


# Bad problem data is a ValueError of timestepper.initialize, so an
# InvariantViolation only stops a step: every one that leaves run carries
# its partial record, and the command line probes none for it.  The three
# evaluators of problem callables are the one home of their
# floating-point policy.
FAILURE_HOMES = {("timestepper.py", "step", "InvariantViolation"),
                 ("timestepper.py", "_guard", "InvariantViolation"),
                 ("fields.py", "cell_average", "errstate"),
                 ("fields.py", "fortin_interpolate", "errstate"),
                 ("fields.py", "sample_at_faces", "errstate")}


def _failure_calls(filename, tree):
    """``(file, top-level function, name)`` of every call of
    ``InvariantViolation`` or ``errstate`` in ``tree``, and in ``cli.py``
    of every call of ``hasattr``."""
    names = {"InvariantViolation", "errstate"}
    if filename == "cli.py":
        names.add("hasattr")
    for stmt in tree.body:
        home = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in names:
                    yield filename, home, name


def test_one_way_to_fail_on_bad_data():
    found = {use for path in SOURCES
             for use in _failure_calls(path.name,
                                       ast.parse(path.read_text()))}
    assert found == FAILURE_HOMES


def test_failure_guard_sees_misplaced_calls():
    code = ("def initialize(mesh, problem):\n"
            "    with np.errstate(over='ignore'):\n"
            "        raise InvariantViolation('initial density')\n"
            "def cmd_study(cfg):\n"
            "    if not hasattr(exc, 'partial'):\n"
            "        raise ConfigError(str(exc))\n")
    tree = ast.parse(code)
    assert sorted(_failure_calls("cli.py", tree)) == [
        ("cli.py", "cmd_study", "hasattr"),
        ("cli.py", "initialize", "InvariantViolation"),
        ("cli.py", "initialize", "errstate")]
    assert sorted(_failure_calls("timestepper.py", tree)) == [
        ("timestepper.py", "initialize", "InvariantViolation"),
        ("timestepper.py", "initialize", "errstate")]


# SciPy names that would run a second Krylov loop beside linsolve.gmres.
SCIPY_KRYLOV = {"gmres", "LinearOperator"}

# SciPy's sparse LU and incomplete LU, and the functions of linsolve that
# may call each: the exact factors of factor and the pivoted saddle
# fallback, and the incomplete factors of the 3D preconditioner.
LU_CALLS = {"splu", "spilu"}
LU_HOMES = {("linsolve.py", "factor", "splu"),
            ("linsolve.py", "solve_oseen", "splu"),
            ("linsolve.py", "incomplete_factor", "spilu")}


def _scipy_krylov_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SCIPY_KRYLOV:
            yield f"line {node.lineno}: .{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in SCIPY_KRYLOV | LU_CALLS:
                    yield f"line {node.lineno}: import {alias.name}"


def test_one_krylov_implementation():
    # the saddle GMRES is linsolve.gmres, with no SciPy solver or operator
    # wrapper beside it; the LUs go through the module attributes
    # spla.splu and spla.spilu, where a benchmark tracer can count them
    path = pathlib.Path(macflow.__file__).parent / "linsolve.py"
    tree = ast.parse(path.read_text(), str(path))
    assert not list(_scipy_krylov_uses(tree))
    assert LU_CALLS == {node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and node.attr in LU_CALLS
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "spla"}
    code = ("from scipy.sparse.linalg import splu, spilu\n"
            "x, info = spla.gmres(a, b, M=spla.LinearOperator(s, f))\n")
    assert len(list(_scipy_krylov_uses(ast.parse(code)))) == 4


def _lu_uses(filename, tree):
    """``(file, enclosing function or method, name)`` of every use of
    ``splu`` or ``spilu`` (``None`` for module level)."""
    for stmt in tree.body:
        home = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        if isinstance(stmt, ast.ClassDef):
            methods = [(node.name, node) for node in stmt.body
                       if isinstance(node, ast.FunctionDef)]
        else:
            methods = [(home, stmt)]
        for name, node in methods:
            for sub in ast.walk(node):
                attr = (sub.attr if isinstance(sub, ast.Attribute)
                        else sub.id if isinstance(sub, ast.Name) else None)
                if attr in LU_CALLS:
                    yield filename, name, attr


def test_exact_inverses_stay_exact():
    # incomplete factors serve only the 3D preconditioner: the
    # projection, the transport fallback and the inf-sup monitor's A^-1
    # go through factor, and the saddle fallback through spla.splu
    uses = {use for path in SOURCES
            for use in _lu_uses(path.name, ast.parse(path.read_text()))}
    assert uses == LU_HOMES
    path = pathlib.Path(macflow.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "component_solver"]
    assert calls and all(
        isinstance(call.args[-1], ast.Name) and call.args[-1].id == "factor"
        for call in calls)


def test_lu_guard_sees_misplaced_factors():
    code = ("def factor(mat):\n    return spla.spilu(mat)\n"
            "def incomplete_factor(mat):\n    return spla.spilu(mat)\n"
            "class SaddleSolver:\n"
            "    def preconditioner(self, mat):\n"
            "        return spla.splu(mat)\n")
    found = set(_lu_uses("linsolve.py", ast.parse(code)))
    assert found - LU_HOMES == {("linsolve.py", "factor", "spilu"),
                                ("linsolve.py", "preconditioner", "splu")}


# The functions that fill a step's matrices, as (class, function), and the
# calls that would rebuild a sparse structure there: each step fills
# values on a structure known in advance (the transport's bands, the
# saddle's SaddlePattern), with no format conversion or block assembly.
STEP_FILLS = {(None, "assemble_transport"), (None, "assemble_oseen"),
              ("SaddlePattern", "fill")}
CONVERSIONS = {"coo_matrix", "tocsr", "tocoo", "tocsc", "asformat", "bmat",
               "block_diag"}


def _step_conversions(tree):
    """The sorted conversion calls of each function of ``STEP_FILLS``
    that ``tree`` defines, by function name."""
    found = {}
    for stmt in tree.body:
        members = ([(stmt.name, node) for node in stmt.body]
                   if isinstance(stmt, ast.ClassDef) else [(None, stmt)])
        for cls, node in members:
            if (isinstance(node, ast.FunctionDef)
                    and (cls, node.name) in STEP_FILLS):
                calls = [getattr(sub.func, "attr",
                                 getattr(sub.func, "id", None))
                         for sub in ast.walk(node)
                         if isinstance(sub, ast.Call)]
                found[node.name] = sorted(CONVERSIONS.intersection(calls))
    return found


def test_step_fills_convert_nothing():
    path = pathlib.Path(macflow.__file__).parent / "linsolve.py"
    assert _step_conversions(ast.parse(path.read_text(), str(path))) == {
        "assemble_transport": [], "assemble_oseen": [], "fill": []}


def test_fill_guard_sees_misplaced_conversions():
    code = ("def assemble_transport(mesh):\n"
            "    return sp.coo_matrix(m).tocsr()\n"
            "class SaddlePattern:\n"
            "    def fill(self):\n"
            "        return bmat([[a.asformat('csr'), None]])\n"
            "    def __init__(self):\n"
            "        self.template = sp.block_diag(blocks).tocsc()\n"
            "def factor(mat):\n    return mat.tocsc()\n")
    assert _step_conversions(ast.parse(code)) == {
        "assemble_transport": ["coo_matrix", "tocsr"],
        "fill": ["asformat", "bmat"]}


def _tie_rules(tree):
    """``(function, line)`` of every comparison ``vel >= 0``: the upwind
    choice of a face whose velocity is zero."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Name)
                    and node.left.id == "vel"
                    and isinstance(node.ops[0], ast.GtE)
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value == 0):
                yield getattr(stmt, "name", None), node.lineno


def test_one_upwind_tie_rule():
    # a zero velocity goes with the low side in operators.upwind_face_flux
    # alone; the transport matrix needs no rule, since a still face adds
    # nothing to it
    found = {path.name: [home for home, _ in
                         _tie_rules(ast.parse(path.read_text()))]
             for path in SOURCES}
    assert {name: homes for name, homes in found.items() if homes} == {
        "operators.py": ["upwind_face_flux"]}
    code = ("def assemble_transport(vel, lo, hi, dof):\n"
            "    upw = np.where(vel >= 0.0, lo, hi)\n"
            "    return upw[dof >= 0], vel >= 0\n")
    assert list(_tie_rules(ast.parse(code))) == [
        ("assemble_transport", 2), ("assemble_transport", 3)]


def _sympy_uses(tree):
    """Lines that reach sympy: an import of it, a mention of its name in
    code, or an attribute of a name bound to it.  The one allowed
    reference is the bare registration ``_lazy_module("sympy")``, whose
    module nobody keeps."""
    allowed = {id(node.value.args[0]) for node in ast.walk(tree)
               if isinstance(node, ast.Expr)
               and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "_lazy_module"
               and node.value.args}
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name.split(".")[0] == "sympy"}
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and any(isinstance(arg, ast.Constant) and arg.value == "sympy"
                      for arg in node.value.args)):
            bound |= {target.id for target in node.targets
                      if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Constant) and node.value == "sympy"
              and id(node) not in allowed):
            yield f"line {node.lineno}: 'sympy'"
            continue
        elif (isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in bound):
            yield f"line {node.lineno}: {node.value.id}.{node.attr}"
            continue
        else:
            continue
        for name in names:
            if name.split(".")[0] == "sympy":
                yield f"line {node.lineno}: import {name}"


def test_package_does_no_symbolic_algebra():
    # every preset is a closed form and the tests own the sympy oracle;
    # presets registers sympy, unexecuted, only for the version record
    found = {path.name: list(_sympy_uses(ast.parse(path.read_text())))
             for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert sum(path.read_text().count('_lazy_module("sympy")')
               for path in SOURCES) == 1


def test_sympy_guard_sees_symbolic_code():
    code = ('import sympy\nfrom sympy.core import Symbol\n'
            'sym = _lazy_module("sympy")\n'
            'f = sym.diff(rho, t)\n'
            '_lazy_module("sympy")\n')
    assert list(_sympy_uses(ast.parse(code))) == [
        "line 1: import sympy", "line 2: import sympy.core",
        "line 3: 'sympy'", "line 4: sym.diff"]


COLD_IMPORT = """
import importlib.metadata, json, sys
import macflow, macflow.cli
cold = "sympy.core" not in sys.modules
print(json.dumps({
    "cold": cold, "version": sys.modules["sympy"].__version__,
    "installed": importlib.metadata.version("sympy")}))
"""


def test_one_entry_point_per_capability():
    # presets come from get_preset, zero and copied fields from the
    # constructors, the step count from time_steps and a run's step from
    # its config; step checks against the bounds its caller gives
    from macflow import ScalarField, RunResult, VelocityField, timestepper
    assert [name for name in dir(macflow) if name.startswith("make_")] == []
    for cls in (ScalarField, VelocityField):
        assert not hasattr(cls, "zeros") and not hasattr(cls, "copy")
    assert not hasattr(timestepper, "step_count")
    assert "dt" not in {f.name for f in dataclasses.fields(RunResult)}
    bounds = inspect.signature(timestepper.step).parameters["bounds"]
    assert bounds.default is inspect.Parameter.empty


def test_each_fact_stored_once():
    # no record field or option restates another value: the solve method
    # is the fallback flag, u_h1 is sqrt(ke_dissipation / dt), a run's dt
    # and mesh live on the RunResult, the two tolerances are constants,
    # and a run's estimates are properties of its one record
    from macflow import (RunResult, SolveReport, StepDiagnostics, Trajectory,
                         TranslateReport, build_uniform_mesh, verify)

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert not {"u_h1", "oseen_method"} & names(StepDiagnostics)
    assert "method" not in names(SolveReport)
    assert not {"dt", "slope_floor"} & names(TranslateReport)
    mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
    assert not hasattr(mesh, "cell_center")
    for fn, name in ((verify.check_coercivity, "symmetry_tol"),
                     (verify.measure_translates, "slope_floor")):
        assert name not in inspect.signature(fn).parameters
    assert not inspect.signature(Trajectory).parameters
    assert not hasattr(verify, "DiagnosticsRecord")
    assert not hasattr(verify, "collect_diagnostics")
    for name in ("worst", "l2h1", "linf_l2", "rho_l2_monotone"):
        assert isinstance(getattr(RunResult, name), property)
        assert name not in names(RunResult)


def test_import_leaves_sympy_unloaded():
    # a fresh interpreter: import macflow registers sympy without running
    # it, and reading its version loads the one real module
    src = str(pathlib.Path(macflow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["cold"], "import macflow loaded sympy.core"
    assert out["version"] == out["installed"]
