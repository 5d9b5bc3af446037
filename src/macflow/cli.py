"""Command-line front end.

Three subcommands, all driven by a YAML configuration file:

* ``run``    -- integrate a preset problem and write diagnostics plus
  field snapshots;
* ``verify`` -- execute the operator identity batteries and solver
  cross-checks, writing a machine-readable report;
* ``study``  -- refinement study (space and time together) against a
  preset's exact solution.

Each command writes into the directory named by ``--out`` (default
``out``) and ends the same way: it writes ``summary.txt``, prints the
same lines and the ``overall:`` verdict to stdout, and exits with that
verdict.  Every output file is written atomically, floats are serialized
with the shortest round-trip representation, and headers carry the
configuration hash and seed, so identical invocations with the same
number of BLAS threads produce bit-identical artifacts.  Another thread
count may sum dot products in another order, and a solve near its
tolerance can then take another iteration: the 64x64 row of ``study`` on
``demos/configs/gyre_study.yaml`` differs in its last digits between one
and two OpenBLAS threads, while the ``run`` of
``demos/configs/patch_run.yaml`` does not.

Exit status is 0 when every requested check passes, 1 when a check fails
or a run is interrupted by a guard, and 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np
import yaml

from .grid import (MeshValidationError, build_mesh, build_uniform_mesh,
                   dump_mesh_tables, graded_coords)
from .fields import scalar_to_csv, velocity_to_csv, write_vtk
from .presets import available_presets, get_preset
from .timestepper import (InvariantViolation, SchemeConfig, initialize, run,
                          time_steps)
from .linsolve import SolverFailure
from . import verify
from .ioutil import config_hash, format_float, write_summary


class ConfigError(ValueError):
    """Invalid or unknown configuration content (reported with key path)."""


_SCHEMA = {
    "mesh": {"domain", "cells", "coordinates"},
    "time": {"t_end", "dt"},
    "problem": {"preset", "params"},
    "solver": {"transport_tol", "oseen_tol", "bounds_margin", "div_guard"},
    "output": {"formats", "snapshots", "mesh_tables"},
    "verify": {"trials", "tolerance"},
    "study": {"levels", "base_cells", "t_end", "base_dt", "threshold"},
}


# The blocks each command reads; any other block is a configuration error.
_READS = {"run": {"mesh", "time", "problem", "solver", "output"},
          "verify": {"verify"},
          "study": {"study", "problem"}}


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """YAML's safe loader, on libyaml's parser where PyYAML has it (about
    six times faster on a large file), except that a key repeated within
    one mapping is an error, where the safe loader keeps its last value,
    and so is a value its tag cannot construct (``!!int x``)."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, TypeError) as exc:
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"invalid {tag} value: {exc}",
                node.start_mark) from None

    def construct_mapping(self, node, deep=False):
        keys = []
        for key_node, _ in (node.value if isinstance(node, yaml.MappingNode)
                            else ()):
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r}",
                        key_node.start_mark)
                keys.append(key)
        return super().construct_mapping(node, deep)


def load_config(path) -> dict:
    """Parse and validate a YAML configuration against the whitelist."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark else ""
        raise ConfigError(f"malformed YAML{where}: "
                          f"{getattr(exc, 'problem', exc)}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level of the configuration must be a mapping")
    for block, content in data.items():
        if block not in _SCHEMA:
            raise ConfigError(f"unknown configuration block {block!r}; "
                              f"expected one of {sorted(_SCHEMA)}")
        if content is None:
            data[block] = {}
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"block {block!r} must be a mapping")
        for key in content:
            if key not in _SCHEMA[block]:
                raise ConfigError(
                    f"unknown configuration key {f'{block}.{key}'!r}; "
                    f"expected one of {sorted(_SCHEMA[block])}")
    return data


def _require(cfg, block, key=None):
    if block not in cfg:
        raise ConfigError(f"missing configuration block {block!r}")
    if key is not None and key not in cfg[block]:
        raise ConfigError(f"missing configuration key {block + '.' + key!r}")
    return cfg[block] if key is None else cfg[block][key]


def _per_direction(raw, name, what, size=None):
    """Key ``name`` as one float array per direction, each a non-empty
    list of numbers (of ``size`` entries when given)."""
    try:
        arrays = [np.asarray(c, dtype=float) for c in raw]
    except (TypeError, ValueError, OverflowError):
        arrays = []
    if not arrays or any(a.ndim != 1 or a.size == 0
                         or (size is not None and a.size != size)
                         for a in arrays):
        raise ConfigError(f"{name!r} must be one {what} per direction, "
                          f"got {raw!r}")
    return arrays


def build_mesh_from_config(cfg) -> "MacMesh":
    mesh_cfg = _require(cfg, "mesh")
    if "cells" in mesh_cfg and "coordinates" in mesh_cfg:
        raise ConfigError("give 'mesh.cells' or 'mesh.coordinates', not both")
    if "domain" in mesh_cfg:
        domain = _per_direction(mesh_cfg["domain"], "mesh.domain",
                                "[lo, hi] pair of numbers", size=2)
    if "coordinates" in mesh_cfg:
        coords = _per_direction(mesh_cfg["coordinates"], "mesh.coordinates",
                                "list of numbers")
        if "domain" not in mesh_cfg:
            domain = [[c[0], c[-1]] for c in coords]
        given = f"'mesh.coordinates' of {[c.size for c in coords]} points"
    else:
        _require(cfg, "mesh", "domain")  # a uniform mesh needs its box
        cells = _require(cfg, "mesh", "cells")
        if not isinstance(cells, list):
            raise ConfigError("'mesh.cells' must be a list of cell counts, "
                              f"got {cells!r}")
        cells = [_number(n, "mesh.cells", integer=True, least=1)
                 for n in cells]
        if len(domain) != len(cells):
            raise ConfigError("mesh.domain and mesh.cells disagree on the "
                              "number of directions")
        given = f"'mesh.cells' {mesh_cfg['cells']}"
    try:
        if "coordinates" in mesh_cfg:
            return build_mesh(domain, coords)
        return build_uniform_mesh(domain, cells)
    except MeshValidationError as exc:
        raise ConfigError(f"invalid mesh: {exc}") from None
    except (ValueError, IndexError, MemoryError) as exc:
        # numpy refuses a size it cannot allocate (its linspace fails with
        # an IndexError for counts near 2**63)
        raise ConfigError(f"{given} is too large: {exc}") from None


def build_problem_from_config(cfg):
    prob_cfg = _require(cfg, "problem")
    preset = prob_cfg.get("preset")
    if preset is None:
        raise ConfigError("missing configuration key 'problem.preset'")
    if not isinstance(preset, str):
        raise ConfigError("'problem.preset' must be a preset name, "
                          f"got {preset!r}")
    params = prob_cfg.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("'problem.params' must be a mapping")
    try:
        return get_preset(preset, **params)
    except KeyError:
        raise ConfigError(f"unknown preset {preset!r}; available: "
                          f"{available_presets()}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for preset {preset!r}: {exc}")


def _number(raw, name, integer=False, least=None):
    """Configuration value ``raw`` of key ``name`` as a number.

    Without ``integer`` it must be a finite float, positive or, when
    ``least`` is given, at least ``least``; with ``integer`` it must be a
    whole number of at least ``least``.
    """
    try:
        # YAML booleans would otherwise read as 0 and 1
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if integer:
        ok, kind = value.is_integer() and value >= least, \
            f"an integer >= {least}"
    elif least is None:
        ok, kind = math.isfinite(value) and value > 0, \
            "a finite positive number"
    else:
        ok, kind = math.isfinite(value) and value >= least, \
            f"a finite number >= {least}"
    if not ok:
        raise ConfigError(f"{name!r} must be {kind}, got {raw!r}")
    return int(value) if integer else value


def build_scheme_config(cfg) -> SchemeConfig:
    """Scheme parameters from the ``time``, ``solver`` and ``output``
    blocks; ``solver`` keys the config leaves out keep the defaults of
    :class:`SchemeConfig`."""
    solver = {key: _number(raw, f"solver.{key}",
                           least=0 if key == "bounds_margin" else None)
              for key, raw in cfg.get("solver", {}).items()}
    # the command line stores only the first and last states by default
    snapshots = cfg.get("output", {}).get("snapshots", 0)
    return SchemeConfig(
        dt=_number(_require(cfg, "time", "dt"), "time.dt"),
        t_end=_number(_require(cfg, "time", "t_end"), "time.t_end"),
        store_every=_number(snapshots, "output.snapshots", integer=True,
                            least=0),
        **solver)


def _write_snapshots(result, out_dir, formats, cfg_hash_value):
    mesh = result.mesh
    traj = result.trajectory
    for k in range(len(traj)):
        tag = f"{k:04d}"
        extra = {"t": traj.times[k], "snapshot": k}
        if "csv" in formats:
            scalar_to_csv(traj.rho[k],
                          os.path.join(out_dir, f"density_{tag}.csv"),
                          cfg_hash=cfg_hash_value, extra=extra)
            velocity_to_csv(traj.u[k],
                            os.path.join(out_dir, f"velocity_{tag}.csv"),
                            cfg_hash=cfg_hash_value, extra=extra)
            if traj.p[k] is not None:
                scalar_to_csv(traj.p[k],
                              os.path.join(out_dir, f"pressure_{tag}.csv"),
                              cfg_hash=cfg_hash_value, extra=extra)
        if "vtk" in formats:
            write_vtk(os.path.join(out_dir, f"fields_{tag}.vtk"), mesh,
                      rho=traj.rho[k], p=traj.p[k], u=traj.u[k])


def _run_summary(result):
    """The summary lines of a run that measured its steps, from the gate
    lines on, and whether every gate passed."""
    worst = result.worst
    checks = [(label, worst[name], tol)
              for label, name, tol in result.config.gates()]
    passed = [value <= tol for _, value, tol in checks]
    diags = result.diagnostics
    steps = len(diags)
    sweeps = [d.transport_sweeps for d in diags]
    iterations = [d.oseen_iterations for d in diags]
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: worst "
             f"{format_float(value)} (tolerance {format_float(tol)})"
             for (name, value, tol), ok in zip(checks, passed)]
    lines += [
        f"velocity L2(H1) tracker: {format_float(result.l2h1)}",
        f"velocity Linf(L2) tracker: {format_float(result.linf_l2)}",
        f"density L2 monotone: {'yes' if result.rho_l2_monotone else 'no'}",
        "transport solves that fell back to LU: "
        f"{sum(d.transport_fallback for d in diags)} of {steps}",
        f"transport sweeps: {sum(sweeps)} in {steps} steps, largest "
        f"{max(sweeps, default=0)}",
        "saddle solves that fell back to direct: "
        f"{sum(d.oseen_fallback for d in diags)} of {steps}",
        f"Krylov iterations: {sum(iterations)} in {steps} steps, largest "
        f"{max(iterations, default=0)}",
        "preconditioner factorizations: "
        f"{sum(d.precond_refresh for d in diags)} of {steps} steps",
    ]
    return lines, all(passed)


def _report(out_dir, kind, cfg_hash_value, seed, lines, passed) -> int:
    """Write ``summary.txt``, print its lines and verdict to stdout, and
    return the exit status."""
    write_summary(os.path.join(out_dir, "summary.txt"), kind,
                  cfg_hash_value, seed, lines, passed)
    for line in lines:
        print(line)
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _create_output_directory(out_dir):
    """Create ``out_dir``, once a command's inputs (``study``: its report)
    are built, so a rejected configuration leaves nothing behind."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror}") from None


def cmd_run(cfg, out_dir, seed) -> int:
    scheme = build_scheme_config(cfg)
    mesh = build_mesh_from_config(cfg)
    formats = cfg.get("output", {}).get("formats", ["csv"])
    if not (isinstance(formats, list)
            and all(f in ("csv", "vtk") for f in formats)):
        raise ConfigError("'output.formats' must be a list of 'csv' and/or "
                          f"'vtk', got {formats!r}")
    mesh_tables = cfg.get("output", {}).get("mesh_tables", False)
    if not isinstance(mesh_tables, bool):
        raise ConfigError("'output.mesh_tables' must be true or false, "
                          f"got {mesh_tables!r}")
    problem = build_problem_from_config(cfg)
    try:
        n_steps = time_steps(mesh, problem, scheme)[0]
    except ValueError as exc:
        raise ConfigError(f"'time': {exc}") from None
    try:  # the run starts from this state
        state = initialize(mesh, problem)
    except ValueError as exc:
        raise ConfigError(f"'problem': {exc}") from None
    hash_value = config_hash(cfg)
    _create_output_directory(out_dir)

    try:
        result = run(mesh, problem, scheme, state)
    except (InvariantViolation, SolverFailure) as exc:
        result = exc.partial
        print(f"run interrupted: {exc}", file=sys.stderr)
    head = [f"steps completed: {len(result.diagnostics)} of {n_steps}"]
    if result.stopped is not None:
        head.append(f"INTERRUPTED: {result.stopped}")

    verify.write_diagnostics_csv(result,
                                 os.path.join(out_dir, "diagnostics.csv"),
                                 cfg_hash=hash_value, seed=seed)
    _write_snapshots(result, out_dir, formats, hash_value)
    if mesh_tables:
        dump_mesh_tables(mesh, os.path.join(out_dir, "mesh_tables.csv"),
                         cfg_hash=hash_value)
    lines, passed = _run_summary(result)
    return _report(out_dir, "run-summary", hash_value, seed, head + lines,
                   passed and result.stopped is None)


def _verification_meshes(seed):
    """The standard identity-battery meshes: uniform and graded-random
    spacing, in two and three dimensions."""
    rng = np.random.default_rng(seed)
    return [
        ("uniform-2d", build_uniform_mesh([[0, 1], [0, 1]], (5, 4))),
        ("graded-2d", build_mesh([[0, 1], [0, 1]],
                                 [graded_coords(n, rng) for n in (5, 4)])),
        ("uniform-3d", build_uniform_mesh([[0, 1]] * 3, (3, 3, 3))),
        ("graded-3d", build_mesh([[0, 1]] * 3,
                                 [graded_coords(3, rng) for _ in range(3)])),
    ]


def cmd_verify(cfg, out_dir, seed) -> int:
    # keys the config leaves out keep the batteries' defaults
    options = {("tol" if key == "tolerance" else key):
               _number(raw, f"verify.{key}", integer=key == "trials",
                       least=1 if key == "trials" else None)
               for key, raw in cfg.get("verify", {}).items()}
    hash_value = config_hash(cfg)
    _create_output_directory(out_dir)

    meshes = _verification_meshes(seed)
    reports = []
    for tag, mesh in meshes:
        for check in (verify.check_duality, verify.check_adjointness,
                      verify.check_coercivity):
            rep = check(mesh, seed=seed, **options)
            rep.name = f"{rep.name} [{tag}]"
            reports.append(rep)

    monitors = []
    for tag, mesh in meshes[:2]:
        bound = verify.measure_convection_bound(mesh, samples=10, seed=seed)
        monitors.append(f"convection trilinear ratio [{tag}]: "
                        f"max {format_float(bound['max'])} over "
                        f"{bound['samples']} samples")
        health = verify.infsup_health(mesh)
        monitors.append(f"inf-sup constant [{tag}]: "
                        f"{format_float(health['beta'])} "
                        f"({health['iterations']} LOBPCG iterations)")

    verify.write_identity_reports(
        reports, os.path.join(out_dir, "identity_reports.csv"),
        cfg_hash=hash_value, seed=seed)
    return _report(out_dir, "verify-summary", hash_value, seed,
                   [r.line() for r in reports] + monitors,
                   all(r.passed for r in reports))


# Smallest values of the integer ``study`` keys.
_STUDY_LEAST = {"levels": 3, "base_cells": 2}


def cmd_study(cfg, out_dir, seed) -> int:
    # keys the config leaves out keep the defaults of convergence_study
    study = {key: _number(raw, f"study.{key}", integer=key in _STUDY_LEAST,
                          least=_STUDY_LEAST.get(key))
             for key, raw in cfg.get("study", {}).items()}
    problem = build_problem_from_config(cfg)
    hash_value = config_hash(cfg)
    try:
        report = verify.convergence_study(problem, **study)
    except MeshValidationError as exc:
        raise ConfigError(f"invalid mesh: {exc}") from None
    except (ValueError, MemoryError) as exc:
        # a level whose step count overflows, whose initial data is
        # rejected, or whose mesh numpy cannot allocate
        raise ConfigError(f"'study': {exc}") from None
    except (InvariantViolation, SolverFailure) as exc:
        print(f"study interrupted: {exc}", file=sys.stderr)
        _create_output_directory(out_dir)
        return _report(out_dir, "study-summary", hash_value, seed,
                       [f"INTERRUPTED: {exc}"], False)
    _create_output_directory(out_dir)

    verify.write_convergence_csv(report,
                                 os.path.join(out_dir, "convergence.csv"),
                                 cfg_hash=hash_value)
    lines = [f"cells {'x'.join(map(str, lv.cells))}: "
             f"err_u {format_float(lv.err_u)} "
             f"err_rho {format_float(lv.err_rho)} "
             f"err_p {format_float(lv.err_p)}" for lv in report.levels]
    lines += [f"{name} reduction factors: "
              + ", ".join(format_float(f) for f in factors)
              for name, factors in (("velocity", report.factors_u),
                                    ("density", report.factors_rho))]
    lines.append(f"threshold: {format_float(report.threshold)}")
    return _report(out_dir, "study-summary", hash_value, seed, lines,
                   report.passed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="macflow",
        description="Staggered-grid variable-density incompressible flow "
                    "solver and verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("run", "integrate a configured problem and write diagnostics"),
            ("verify", "run the discrete-identity verification battery"),
            ("study", "run a space-time refinement study")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="YAML configuration file")
        p.add_argument("--out", default="out",
                       help="output directory, created if missing "
                            "(default: out)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks (default 0)")

    args = parser.parse_args(argv)
    try:
        _number(args.seed, "--seed", integer=True, least=0)
        cfg = load_config(args.config)
        unread = sorted(set(cfg) - _READS[args.command])
        if unread:
            raise ConfigError(f"{args.command!r} does not read block "
                              f"{unread[0]!r}; it reads "
                              f"{sorted(_READS[args.command])}")
        command = {"run": cmd_run, "verify": cmd_verify,
                   "study": cmd_study}[args.command]
        return command(cfg, args.out, args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
