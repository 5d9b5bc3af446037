"""Spans recorded from outside macflow, around the public calls of each layer.

Nothing inside the program is changed on disk: :func:`install` replaces a
function's name wherever macflow modules look it up (``timestepper`` and
``cli`` import functions by name, so patching only the defining module
would miss those calls) and returns a function that puts every original
back.  Spans stay in memory; the caller writes them out when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  Every span maps to exactly one metric, so the self times of a run
add up to its root span.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name).  Span names are ``layer.function``.  A
# name missing from the program, or from a module not imported before
# install(), is skipped, and its time then shows in the caller's self time.
WRAPPED = [
    ("macflow.cli", "main", "cli.main"),
    ("macflow.grid", "build_mesh", "grid.build_mesh"),
    ("macflow.grid", "build_uniform_mesh", "grid.build_uniform_mesh"),
    ("macflow.grid", "dump_mesh_tables", "grid.dump_mesh_tables"),
    ("macflow.presets", "get_preset", "presets.get_preset"),
    ("macflow.fields", "cell_average", "fields.cell_average"),
    ("macflow.fields", "fortin_interpolate", "fields.fortin_interpolate"),
    ("macflow.fields", "scalar_to_csv", "fields.scalar_to_csv"),
    ("macflow.fields", "velocity_to_csv", "fields.velocity_to_csv"),
    ("macflow.fields", "write_vtk", "fields.write_vtk"),
    ("macflow.linsolve", "solve_transport", "linsolve.solve_transport"),
    ("macflow.linsolve", "assemble_oseen", "linsolve.assemble_oseen"),
    ("macflow.linsolve", "solve_oseen", "linsolve.solve_oseen"),
    ("macflow.timestepper", "run", "timestepper.run"),
    ("macflow.timestepper", "initialize", "timestepper.initialize"),
    ("macflow.timestepper", "step", "timestepper.step"),
    ("macflow.verify", "collect_diagnostics", "verify.collect_diagnostics"),
    ("macflow.verify", "write_diagnostics_csv",
     "verify.write_diagnostics_csv"),
]

# Span name -> metric stem; operators and ``linsolve.splu`` are mapped by
# :func:`metric_of`.
METRIC_OF = {
    "bench.root": "bench.self",
    "macflow.import": "macflow.import",
    "cli.main": "cli.self",
    "grid.build_mesh": "grid.build",
    "grid.build_uniform_mesh": "grid.build",
    "grid.dump_mesh_tables": "fields.output",
    "presets.get_preset": "presets.build",
    "presets.forcing": "presets.forcing",
    "fields.cell_average": "fields.project",
    "fields.fortin_interpolate": "fields.project",
    "fields.scalar_to_csv": "fields.output",
    "fields.velocity_to_csv": "fields.output",
    "fields.write_vtk": "fields.output",
    "linsolve.solve_transport": "linsolve.transport",
    "linsolve.assemble_oseen": "linsolve.oseen_assemble",
    "linsolve.solve_oseen": "linsolve.oseen_solve",
    "linsolve.SaddleSystem.full_matrix": "linsolve.pin",
    "timestepper.run": "timestepper.run_self",
    "timestepper.initialize": "timestepper.init",
    "timestepper.step": "timestepper.step_self",
    "verify.collect_diagnostics": "verify.report",
    "verify.write_diagnostics_csv": "verify.report",
}
SPLU_PARENT_METRIC = {
    "linsolve.solve_oseen": "linsolve.factor",
    "linsolve.solve_transport": "linsolve.transport",
}

# Metric stems reported as ``<stem>_s`` (self time) and ``<stem>_calls``.
TIMED = [
    "grid.build", "presets.build", "presets.forcing", "fields.project",
    "fields.output", "timestepper.init", "timestepper.step_self",
    "linsolve.transport", "linsolve.oseen_assemble", "linsolve.pin",
    "linsolve.factor", "linsolve.oseen_solve", "operators.assemble",
    "operators.apply", "verify.report",
]
# Stems entered at most once per run, reported without a call count.
ONCE = ["macflow.import", "cli.self", "timestepper.run_self", "bench.self"]

# LU factor storage computed from nnz, not measured: a float64 value and
# an int32 row index per stored entry.
LU_BYTES_PER_NNZ = 12


class Tracer:
    """In-memory span recorder plus the counters kept at span boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.counts = {
            "linsolve.lu_fill_nnz": 0, "linsolve.saddle_unknowns": 0,
            "linsolve.saddle_nnz": 0, "linsolve.oseen_iterations": 0,
            "linsolve.fallbacks": 0, "grid.n_cells": 0,
            "fields.output_bytes": 0, "fields.output_files": 0,
        }

    def open(self, name, start=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None
                           else start, None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out, args)
            return out
        return traced

    # -- counters ------------------------------------------------------------

    def _count_mesh(self, mesh, args):
        self.counts["grid.n_cells"] = int(mesh.n_cells)

    def _count_output(self, out, args):
        path = next(a for a in args if isinstance(a, (str, os.PathLike)))
        self.counts["fields.output_files"] += 1
        self.counts["fields.output_bytes"] += os.path.getsize(path)

    def _count_pin(self, mat, args):
        c = self.counts
        c["linsolve.saddle_unknowns"] = max(c["linsolve.saddle_unknowns"],
                                            int(mat.shape[0]))
        c["linsolve.saddle_nnz"] = max(c["linsolve.saddle_nnz"],
                                       int(mat.nnz))

    def _count_oseen(self, out, args):
        report = out[2]
        self.counts["linsolve.oseen_iterations"] += int(report.iterations)
        self.counts["linsolve.fallbacks"] += int(bool(report.fallback))

    def _wrap_forcing(self, problem, args):
        if getattr(problem, "forcing", None) is not None:
            problem.forcing = self.wrap("presets.forcing", problem.forcing)

    def _count_lu(self, lu, args):
        # runs after the splu span closed, so the top of the stack is the
        # solve that asked for the factorization
        if self.parent_name() == "linsolve.solve_oseen":
            self.counts["linsolve.lu_fill_nnz"] = max(
                self.counts["linsolve.lu_fill_nnz"], int(lu.nnz))


class _SplaView:
    """``scipy.sparse.linalg`` as ``linsolve`` sees it, with ``splu`` traced."""

    def __init__(self, spla, splu):
        self._spla = spla
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._spla, name)


def _replace_everywhere(original, replacement, restore):
    """Rebind every macflow module attribute that names ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "macflow"
                               or mod_name.startswith("macflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                restore.append((mod, attr, original))


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that undoes it."""
    restore = []
    hooks = {
        "grid.build_mesh": tracer._count_mesh,
        "grid.build_uniform_mesh": tracer._count_mesh,
        "grid.dump_mesh_tables": tracer._count_output,
        "fields.scalar_to_csv": tracer._count_output,
        "fields.velocity_to_csv": tracer._count_output,
        "fields.write_vtk": tracer._count_output,
        "linsolve.solve_oseen": tracer._count_oseen,
        "presets.get_preset": tracer._wrap_forcing,
    }
    targets = list(WRAPPED)
    ops = sys.modules["macflow.operators"]
    for attr, value in sorted(vars(ops).items()):
        if (callable(value) and not attr.startswith(("_", "dump_"))
                and getattr(value, "__module__", None) == ops.__name__
                and not isinstance(value, type)):
            targets.append(("macflow.operators", attr, f"operators.{attr}"))

    for mod_name, attr, span in targets:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            continue
        _replace_everywhere(original,
                            tracer.wrap(span, original, hooks.get(span)),
                            restore)

    linsolve = sys.modules["macflow.linsolve"]
    saddle = getattr(linsolve, "SaddleSystem", None)
    if saddle is not None and hasattr(saddle, "full_matrix"):
        original = saddle.full_matrix
        saddle.full_matrix = tracer.wrap("linsolve.SaddleSystem.full_matrix",
                                         original, tracer._count_pin)
        restore.append((saddle, "full_matrix", original))
    spla = getattr(linsolve, "spla", None)
    if spla is not None:
        linsolve.spla = _SplaView(spla, tracer.wrap(
            "linsolve.splu", spla.splu, tracer._count_lu))
        restore.append((linsolve, "spla", spla))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


def metric_of(name, parent_name):
    """Metric stem of a span.  ``*_matrix`` operators build matrices, every
    other public operator applies one; a ``splu`` call belongs to the solve
    that made it."""
    if name.startswith("operators."):
        return ("operators.assemble" if name.endswith("_matrix")
                else "operators.apply")
    if name == "linsolve.splu":
        return SPLU_PARENT_METRIC.get(parent_name, "linsolve.factor")
    return METRIC_OF[name]


def self_times(spans):
    """Per-span self time: duration minus the duration of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans and counters of one run to per-layer values."""
    spans = tracer.spans
    own = self_times(spans)
    totals = {stem: 0.0 for stem in TIMED + ONCE}
    calls = {stem: 0 for stem in TIMED}
    for (name, _, _, parent), t in zip(spans, own):
        stem = metric_of(name, spans[parent][0] if parent >= 0 else None)
        totals[stem] += t
        # a transport solve's own splu is part of that one call
        if stem in calls and not (name == "linsolve.splu"
                                  and stem == "linsolve.transport"):
            calls[stem] += 1
    out = {f"{stem}_s": totals[stem] for stem in TIMED + ONCE}
    out.update({f"{stem}_calls": calls[stem] for stem in TIMED})
    out.update(tracer.counts)
    out["operators.calls"] = (calls["operators.assemble"]
                              + calls["operators.apply"])
    out["linsolve.lu_bytes_computed"] = (
        LU_BYTES_PER_NNZ * tracer.counts["linsolve.lu_fill_nnz"])
    root = [i for i, span in enumerate(spans) if span[3] < 0]
    out["trace.root_s"] = sum(spans[i][2] - spans[i][1] for i in root)
    out["trace.self_sum_s"] = sum(own)
    out["trace.spans"] = len(spans)
    return out
