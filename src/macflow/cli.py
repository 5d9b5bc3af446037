"""Command-line front end.

Three subcommands, all driven by a YAML configuration file:

* ``run``    -- integrate a preset problem and write diagnostics plus
  field snapshots;
* ``verify`` -- execute the operator identity batteries and solver
  cross-checks, writing a machine-readable report;
* ``study``  -- refinement study (space and time together) against a
  preset's exact solution.

Every output file is written atomically, floats are serialized with the
shortest round-trip representation, and headers carry the configuration
hash and seed, so identical invocations produce bit-identical artifacts.
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
                   dump_mesh_tables)
from .fields import scalar_to_csv, velocity_to_csv, write_vtk
from .presets import available_presets, get_preset
from .timestepper import InvariantViolation, SchemeConfig, run
from .linsolve import SolverFailure
from . import verify
from .ioutil import atomic_write, config_hash, format_float


class ConfigError(ValueError):
    """Invalid or unknown configuration content (reported with key path)."""


_SCHEMA = {
    "mesh": {"domain", "cells", "coordinates"},
    "time": {"t_end", "dt"},
    "problem": {"preset", "params"},
    "solver": {"transport_tol", "oseen_tol", "bounds_margin", "div_guard"},
    "output": {"directory", "formats", "snapshots", "mesh_tables"},
    "verify": {"trials", "tolerance"},
    "study": {"levels", "base_cells", "t_end", "base_dt", "threshold"},
}


def load_config(path) -> dict:
    """Parse and validate a YAML configuration against the whitelist."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
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
                    f"unknown configuration key {block + '.' + key!r}; "
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
    except (TypeError, ValueError):
        arrays = []
    if not arrays or any(a.ndim != 1 or a.size == 0
                         or (size is not None and a.size != size)
                         for a in arrays):
        raise ConfigError(f"{name!r} must be one {what} per direction, "
                          f"got {raw!r}")
    return arrays


def build_mesh_from_config(cfg) -> "MacMesh":
    mesh_cfg = _require(cfg, "mesh")
    if "domain" in mesh_cfg:
        domain = _per_direction(mesh_cfg["domain"], "mesh.domain",
                                "[lo, hi] pair of numbers", size=2)
    try:
        if "coordinates" in mesh_cfg:
            coords = _per_direction(mesh_cfg["coordinates"],
                                    "mesh.coordinates", "list of numbers")
            if "domain" not in mesh_cfg:
                domain = [[c[0], c[-1]] for c in coords]
            return build_mesh(domain, coords)
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
        return build_uniform_mesh(domain, cells)
    except MeshValidationError as exc:
        raise ConfigError(f"invalid mesh: {exc}") from None


def build_problem_from_config(cfg):
    prob_cfg = _require(cfg, "problem")
    preset = prob_cfg.get("preset")
    if preset is None:
        raise ConfigError("missing configuration key 'problem.preset'")
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
    except (TypeError, ValueError):
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
        extra = {"t": format_float(traj.times[k]), "snapshot": k}
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


def _write_run_summary(path, result, record, interrupted, cfg_hash_value,
                       seed):
    cfg = result.config
    checks = [
        ("density bounds", record.worst_bound_violation,
         cfg.bounds_margin,
         record.worst_bound_violation <= cfg.bounds_margin),
        ("velocity divergence", record.worst_div, cfg.div_guard,
         record.worst_div <= cfg.div_guard),
        ("dual mass balance", record.worst_mass_dual,
         10 * cfg.transport_tol,
         record.worst_mass_dual <= 10 * cfg.transport_tol),
        ("kinetic energy balance", record.worst_kinetic,
         10 * cfg.oseen_tol, record.worst_kinetic <= 10 * cfg.oseen_tol),
    ]
    all_pass = all(ok for *_, ok in checks) and not interrupted
    with atomic_write(path) as fh:
        fh.write(f"# kind: run-summary\n# config_hash: {cfg_hash_value}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(f"steps completed: {len(result.diagnostics)} of "
                 f"{result.n_steps}\n")
        if interrupted:
            fh.write(f"INTERRUPTED: {interrupted}\n")
        for name, value, tol, ok in checks:
            status = "PASS" if ok else "FAIL"
            fh.write(f"[{status}] {name}: worst "
                     f"{format_float(value)} (tolerance "
                     f"{format_float(tol)})\n")
        fh.write(f"velocity L2(H1) tracker: {format_float(record.l2h1)}\n")
        fh.write("velocity Linf(L2) tracker: "
                 f"{format_float(record.linf_l2)}\n")
        fh.write("density L2 monotone: "
                 f"{'yes' if record.rho_l2_monotone else 'no'}\n")
        fh.write("saddle solves that fell back to direct: "
                 f"{record.oseen_fallbacks} of {len(result.diagnostics)}\n")
        fh.write(f"Krylov iterations: {record.total_oseen_iterations} in "
                 f"{len(result.diagnostics)} steps, largest "
                 f"{record.max_oseen_iterations}\n")
        fh.write("preconditioner factorizations: "
                 f"{record.precond_refreshes} of "
                 f"{len(result.diagnostics)} steps\n")
        fh.write(f"overall: {'PASS' if all_pass else 'FAIL'}\n")
    return all_pass


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
    if problem.dim != mesh.dim:
        raise ConfigError(f"'problem.preset' {problem.name!r} is "
                          f"{problem.dim}D but the mesh is {mesh.dim}D")
    hash_value = config_hash(cfg)

    interrupted = None
    try:
        result = run(mesh, problem, scheme)
    except (InvariantViolation, SolverFailure) as exc:
        result = getattr(exc, "partial", None)
        interrupted = str(exc)
        if result is None:
            print(f"run failed before the first step: {exc}",
                  file=sys.stderr)
            return 1

    record = verify.collect_diagnostics(result)
    verify.write_diagnostics_csv(record,
                                 os.path.join(out_dir, "diagnostics.csv"),
                                 cfg_hash=hash_value, seed=seed)
    _write_snapshots(result, out_dir, formats, hash_value)
    if mesh_tables:
        dump_mesh_tables(mesh, os.path.join(out_dir, "mesh_tables.csv"),
                         cfg_hash=hash_value)
    ok = _write_run_summary(os.path.join(out_dir, "summary.txt"), result,
                            record, interrupted, hash_value, seed)
    if interrupted:
        print(f"run interrupted: {interrupted}", file=sys.stderr)
    print(f"wrote {out_dir}/diagnostics.csv and summary.txt "
          f"({len(result.diagnostics)} steps)")
    return 0 if ok else 1


def _verification_meshes(seed):
    """The standard identity-battery meshes: uniform and graded-random
    spacing, in two and three dimensions."""
    rng = np.random.default_rng(seed)

    def random_coords(n):
        steps = rng.uniform(0.5, 1.5, n)
        coords = np.concatenate([[0.0], np.cumsum(steps)])
        return coords / coords[-1]

    return [
        ("uniform-2d", build_uniform_mesh([[0, 1], [0, 1]], (5, 4))),
        ("graded-2d", build_mesh([[0, 1], [0, 1]],
                                 [random_coords(5), random_coords(4)])),
        ("uniform-3d", build_uniform_mesh([[0, 1]] * 3, (3, 3, 3))),
        ("graded-3d", build_mesh([[0, 1]] * 3,
                                 [random_coords(3) for _ in range(3)])),
    ]


def cmd_verify(cfg, out_dir, seed) -> int:
    ver = cfg.get("verify", {})
    trials = _number(ver.get("trials", 100), "verify.trials", integer=True,
                     least=1)
    tol = _number(ver.get("tolerance", 1e-12), "verify.tolerance")
    hash_value = config_hash(cfg)

    meshes = _verification_meshes(seed)
    reports = []
    for tag, mesh in meshes:
        for check in (verify.check_duality, verify.check_adjointness,
                      verify.check_coercivity):
            rep = check(mesh, trials=trials, seed=seed, tol=tol)
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
                        f"(nullspace dimension {health['nullspace_dim']})")

    verify.write_identity_reports(
        reports, os.path.join(out_dir, "identity_reports.csv"),
        cfg_hash=hash_value, seed=seed)
    all_pass = all(r.passed for r in reports)
    with atomic_write(os.path.join(out_dir, "summary.txt")) as fh:
        fh.write(f"# kind: verify-summary\n# config_hash: {hash_value}\n")
        fh.write(f"# seed: {seed}\n")
        for r in reports:
            fh.write(r.line() + "\n")
        for line in monitors:
            fh.write(line + "\n")
        fh.write(f"overall: {'PASS' if all_pass else 'FAIL'}\n")
    for r in reports:
        print(r.line())
    print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# Smallest values of the integer ``study`` keys.
_STUDY_LEAST = {"levels": 3, "base_cells": 2}


def cmd_study(cfg, out_dir, seed, levels_override=None) -> int:
    # keys the config leaves out keep the defaults of convergence_study
    study = {key: _number(raw, f"study.{key}", integer=key in _STUDY_LEAST,
                          least=_STUDY_LEAST.get(key))
             for key, raw in cfg.get("study", {}).items()}
    if levels_override is not None:
        study["levels"] = _number(levels_override, "--levels", integer=True,
                                  least=_STUDY_LEAST["levels"])
    problem = build_problem_from_config(cfg)
    hash_value = config_hash(cfg)

    try:
        report = verify.convergence_study(problem, **study)
    except MeshValidationError as exc:
        raise ConfigError(f"invalid mesh: {exc}") from None

    verify.write_convergence_csv(report,
                                 os.path.join(out_dir, "convergence.csv"),
                                 cfg_hash=hash_value)
    with atomic_write(os.path.join(out_dir, "summary.txt")) as fh:
        fh.write(f"# kind: study-summary\n# config_hash: {hash_value}\n")
        fh.write(f"# seed: {seed}\n")
        for lv in report.levels:
            fh.write(f"cells {'x'.join(map(str, lv.cells))}: "
                     f"err_u {format_float(lv.err_u)} "
                     f"err_rho {format_float(lv.err_rho)} "
                     f"err_p {format_float(lv.err_p)}\n")
        fh.write("velocity reduction factors: "
                 + ", ".join(format_float(f) for f in report.factors_u)
                 + "\n")
        fh.write("density reduction factors: "
                 + ", ".join(format_float(f) for f in report.factors_rho)
                 + "\n")
        fh.write(f"threshold: {format_float(report.threshold)}\n")
        fh.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    for lv in report.levels:
        print(f"cells {'x'.join(map(str, lv.cells))}: "
              f"err_u {lv.err_u:.6e} err_rho {lv.err_rho:.6e}")
    print(f"velocity factors: {report.factors_u}")
    print(f"density factors: {report.factors_rho}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


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
        p.add_argument("--out", default=None,
                       help="output directory (default: output.directory "
                            "from the configuration, or './out')")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks (default 0)")
        if name == "study":
            p.add_argument("--levels", type=int, default=None,
                           help="number of refinement levels (overrides "
                                "study.levels)")

    args = parser.parse_args(argv)
    try:
        _number(args.seed, "--seed", integer=True, least=0)
        cfg = load_config(args.config)
        directory = cfg.get("output", {}).get("directory", "out")
        if not isinstance(directory, str):
            raise ConfigError("'output.directory' must be a string, "
                              f"got {directory!r}")
        out_dir = args.out or directory
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror}") from None
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.seed)
        return cmd_study(cfg, out_dir, args.seed,
                         levels_override=args.levels)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
