"""Command-line interface: config validation, artifacts, determinism."""

import csv
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import macflow
from macflow import linsolve, timestepper, verify
from macflow.cli import (ConfigError, build_mesh_from_config,
                         build_scheme_config, load_config, main)
from macflow.fields import scalar_from_csv
from macflow.grid import MeshValidationError, build_uniform_mesh
from macflow.ioutil import format_float
from macflow.linsolve import solve_oseen


def write_config(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def diagnostics_rows(out):
    lines = [ln for ln in (out / "diagnostics.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def run_config(tmp_path, **overrides):
    data = {
        "mesh": {"domain": [[0.0, 1.0], [0.0, 1.0]], "cells": [16, 16]},
        "time": {"t_end": 0.05, "dt": 0.01},
        "problem": {"preset": "rotating-patch"},
        "output": {"formats": ["csv"]},
    }
    data.update(overrides)
    return write_config(tmp_path / "config.yaml", data)


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")


def assert_config_error(code, capsys, message):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1  # one line, no traceback
    assert message in err


def assert_stdout_is_summary(capsys, out):
    summary = (out / "summary.txt").read_text()
    assert capsys.readouterr().out == "".join(
        line for line in summary.splitlines(keepends=True)
        if not line.startswith("#"))


# A runnable config without its time block, for the bad-value cases.
_RUNNABLE = ("mesh: {domain: [[0, 1], [0, 1]], cells: [8, 8]}\n"
             "problem: {preset: gyre}\n")


class TestConfigValidation:
    def test_unknown_block(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"meshes": {}})
        with pytest.raises(ConfigError, match="unknown configuration block"):
            load_config(path)

    def test_unknown_key_reports_path(self, tmp_path):
        path = write_config(tmp_path / "c.yaml",
                            {"mesh": {"cellz": [4, 4]}})
        with pytest.raises(ConfigError, match="mesh.cellz"):
            load_config(path)

    def test_non_mapping_block(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"mesh": [1, 2]})
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(path)

    def test_empty_config_ok(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {})
        assert load_config(path) == {}

    @pytest.mark.parametrize("text, message", [
        ("mesh: {cellz: [4, 4]}\n", "mesh.cellz"),
        ("mesh: {cells: [4, 4]\ntime: [\n", "malformed YAML"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: -0.01}\n", "time.dt"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: .nan}\n", "time.dt"),
        (_RUNNABLE + "time: {t_end: .inf, dt: 0.01}\n", "time.t_end"),
        (_RUNNABLE + "time: {t_end: 1.0e+10, dt: 1.0e-310}\n",
         "step count t_end / dt"),
        (_RUNNABLE.replace("[8, 8]", "[0, 8]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.cells'"),
        ("mesh: {coordinates: [[0, 0.6, 0.5, 1], [0, 1]]}\n"
         "problem: {preset: gyre}\ntime: {t_end: 0.02, dt: 0.01}\n",
         "invalid mesh"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {method: direct}\n", "solver.method"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {enforce_invariants: false}\n", "solver.enforce_invariants"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: gyre, params: {amplitude: .nan}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'amplitude' must be finite"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {oseen_tol: abc}\n", "'solver.oseen_tol'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {oseen_tol: .nan}\n", "'solver.oseen_tol'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {transport_tol: -1}\n", "'solver.transport_tol'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "solver: {bounds_margin: -1.0e-9}\n", "'solver.bounds_margin'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {snapshots: -3}\n", "'output.snapshots'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {snapshots: 2.5}\n", "'output.snapshots'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {formats: csv}\n", "'output.formats'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {formats: 3}\n", "'output.formats'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {formats: null}\n", "'output.formats'"),
        (_RUNNABLE.replace("[8, 8]", "[4.7, 4]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.cells'"),
        (_RUNNABLE.replace("[8, 8]", "4")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.cells'"),
        (_RUNNABLE.replace("[8, 8]", "[a, 4]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.cells'"),
        ("mesh: {coordinates: [[0, a, 1], [0, 1]]}\n"
         "problem: {preset: gyre}\ntime: {t_end: 0.02, dt: 0.01}\n",
         "'mesh.coordinates'"),
        (_RUNNABLE.replace("[[0, 1], [0, 1]]", "[[0, 1], [0, a]]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.domain'"),
        (_RUNNABLE.replace("[[0, 1], [0, 1]]", "3")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.domain'"),
        ("mesh: {domain: [[0, 1], [0, 1], [0, 1]], cells: [4, 4, 4]}\n"
         "problem: {preset: gyre}\ntime: {t_end: 0.02, dt: 0.01}\n",
         "'problem.preset'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: true}\n", "'time.dt'"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: rotating-patch, "
                           "params: {amplitude: -1}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "amplitude must be > -1"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: rotating-patch, "
                           "params: {width: 0}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "width must be positive"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: gyre, params: {amplitude: true}}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'amplitude' must be a real number"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: gyre, params: {amplitude: 1e-1}}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'amplitude' must be a real number"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: rotating-patch, "
                           "params: {foo: 1}}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "preset 'rotating-patch' has no parameter 'foo'; it accepts "
         "strength, amplitude, width"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: rest, params: {density: -1.0}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "density must be positive"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: rest, params: {density: 0}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "density must be positive"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: rest, params: {dim: 2.5}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "dim must be 2 or 3, got 2.5"),
        ("mesh: {cells: [40, 40], coordinates: [[0, 0.5, 1], [0, 0.5, 1]]}\n"
         "problem: {preset: gyre}\ntime: {t_end: 0.02, dt: 0.01}\n",
         "give 'mesh.cells' or 'mesh.coordinates', not both"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {directory: 3}\n",
         "unknown configuration key 'output.directory'"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: [gyre]}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'problem.preset' must be a preset name, got ['gyre']"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: {name: gyre}}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'problem.preset' must be a preset name, got {'name': 'gyre'}"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {mesh_tables: maybe}\n", "'output.mesh_tables'"),
        ("mesh: {domain: [[0, 1], [0, 1]], cells: [4, 4]}\n"
         "problem: {preset: rotating-patch}\n"
         "time: {t_end: 1.0, dt: 1.0e-300}\n", "'time': dt = 1e-300"),
        ("mesh: {1: 2}\n", "unknown configuration key 'mesh.1'"),
        (_RUNNABLE.replace("[[0, 1], [0, 1]]", "[[0, 2], [0, 1]]")
         .replace("gyre", "rotating-patch")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "mesh box [[0.0, 2.0], [0.0, 1.0]] is not the domain "
         "[[0.0, 1.0], [0.0, 1.0]] of 'problem.preset' 'rotating-patch'"),
        (_RUNNABLE.replace("[[0, 1], [0, 1]]", "[[0, 2], [0, 1]]")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "mesh box [[0.0, 2.0], [0.0, 1.0]] is not the domain "
         "[[0.0, 1.0], [0.0, 1.0]] of 'problem.preset' 'gyre'"),
        (None, "cannot read"),
        (b"problem: {preset: gyre}\n# caf\xe9\n", "cannot read"),
        (_RUNNABLE.replace("[8, 8]", "[1.0e+30, 4]")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'mesh.cells' [1e+30, 4] is too large"),
        (_RUNNABLE.replace("[8, 8]", "[9223372036854775808, 4]")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'mesh.cells' [9223372036854775808, 4] is too large"),
        ("", "missing configuration block"),
        ("- 1\n- 2\n", "top level of the configuration must be a mapping"),
        (_RUNNABLE + "time: {t_end: 0.02}\n",
         "missing configuration key 'time.dt'"),
        ("mesh: {domain: [[0, 1], [0, 1], [0, 1]], cells: [4, 4]}\n"
         "problem: {preset: gyre}\ntime: {t_end: 0.02, dt: 0.01}\n",
         "disagree on the number of directions"),
        (_RUNNABLE.replace("{preset: gyre}", "{params: {amplitude: 0.1}}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "missing configuration key 'problem.preset'"),
        (_RUNNABLE.replace("{preset: gyre}", "{preset: gyre, params: [1]}")
         + "time: {t_end: 0.02, dt: 0.01}\n",
         "'problem.params' must be a mapping"),
    ], ids=["unknown-key", "malformed-yaml", "negative-dt", "nan-dt",
            "inf-t-end", "overflowing-step-count", "empty-mesh-axis", "non-increasing-coordinates",
            "unknown-solver", "unknown-solver-enforce", "nan-preset-param",
            "text-oseen-tol", "nan-oseen-tol", "negative-transport-tol",
            "negative-bounds-margin", "negative-snapshots",
            "fractional-snapshots", "text-formats", "number-formats",
            "null-formats", "fractional-cells", "scalar-cells",
            "text-cells", "text-coordinates", "text-domain",
            "scalar-domain", "3d-mesh-2d-preset",
            "boolean-dt", "nonpositive-density-amplitude", "zero-width",
            "boolean-preset-param", "text-preset-param",
            "unknown-preset-param",
            "rest-negative-density", "rest-zero-density",
            "rest-fractional-dim", "cells-and-coordinates",
            "directory-key", "list-preset", "mapping-preset",
            "text-mesh-tables", "overflowing-transport-scale",
            "integer-key", "patch-off-its-box", "gyre-off-its-box",
            "directory-config", "latin1-config", "unallocatable-cells",
            "cells-near-2-to-63", "empty-file", "top-level-list",
            "time-without-dt", "three-domain-pairs-two-cells",
            "params-without-preset", "list-params"])
    def test_exit_code_2_on_bad_config(self, tmp_path, capsys, text,
                                       message):
        path = tmp_path / "c.yaml"
        if text is None:  # a directory where the file should be
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert_config_error(code, capsys, message)

    @pytest.mark.parametrize("command, text, extra, message", [
        ("study", "study: {threshold: abc}\n", [], "'study.threshold'"),
        ("study", "study: {levels: 2}\n", [], "'study.levels'"),
        ("study", "study: {base_cells: 1}\n", [], "'study.base_cells'"),
        ("study", "study: {t_end: -0.25}\n", [], "'study.t_end'"),
        ("study", "study: {base_dt: .inf}\n", [], "'study.base_dt'"),
        ("verify", "verify: {trials: abc}\n", [], "'verify.trials'"),
        ("verify", "verify: {trials: 0}\n", [], "'verify.trials'"),
        ("verify", "verify: {tolerance: .nan}\n", [], "'verify.tolerance'"),
        ("study", "problem: {preset: rest, params: {dim: 4}}\n"
         "study: {levels: 3, base_cells: 2}\n", [], "dim must be 2 or 3"),
        ("study", "output: {directory: [a]}\n", [],
         "unknown configuration key 'output.directory'"),
        ("study", "problem: {preset: [gyre]}\n", [],
         "'problem.preset' must be a preset name, got ['gyre']"),
        ("study", "problem: {preset: {name: gyre}}\n", [],
         "'problem.preset' must be a preset name, got {'name': 'gyre'}"),
        ("study", "study: {t_end: 1.0e+10, base_dt: 1.0e-310}\n", [],
         "'study': the step count"),
        ("verify", "", ["--seed", "-1"], "'--seed'"),
        ("study", "", ["--seed", "-1"], "'--seed'"),
        ("run", "", ["--seed", "-1"], "'--seed'"),
        ("verify", "mesh: {cells: [4, 4]}\n", [],
         "'verify' does not read block 'mesh'; it reads ['verify']"),
        ("verify", "problem: {preset: gyre}\n", [],
         "'verify' does not read block 'problem'"),
        ("verify", "time: {t_end: 1, dt: 0.1}\n", [],
         "'verify' does not read block 'time'"),
        ("verify", "solver: {oseen_tol: 1.0e-10}\n", [],
         "'verify' does not read block 'solver'"),
        ("verify", "study: {levels: 3}\n", [],
         "'verify' does not read block 'study'"),
        ("study", "mesh: {cells: [4, 4]}\n", [],
         "'study' does not read block 'mesh'; it reads ['problem', "
         "'study']"),
        ("study", "time: {t_end: 1, dt: 0.1}\n", [],
         "'study' does not read block 'time'"),
        ("study", "solver: {oseen_tol: 1.0e-10}\n", [],
         "'study' does not read block 'solver'"),
        ("study", "verify: {trials: 3}\n", [],
         "'study' does not read block 'verify'"),
        ("run", _RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "verify: {trials: 3}\n", [], "'run' does not read block 'verify'"),
        ("run", _RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "study: {levels: 3}\n", [], "'run' does not read block 'study'"),
    ], ids=["text-threshold", "two-levels",
            "one-base-cell", "negative-t-end", "inf-base-dt", "text-trials",
            "zero-trials", "nan-tolerance", "rest-in-4d",
            "study-dir-key", "study-list-preset",
            "study-mapping-preset", "overflowing-step-count",
            "negative-seed-verify", "negative-seed-study",
            "negative-seed-run", "verify-mesh-block",
            "verify-problem-block", "verify-time-block",
            "verify-solver-block", "verify-study-block", "study-mesh-block",
            "study-time-block", "study-solver-block", "study-verify-block",
            "run-verify-block", "run-study-block"])
    def test_exit_code_2_on_bad_study_or_verify_config(
            self, tmp_path, capsys, command, text, extra, message):
        path = tmp_path / "c.yaml"
        if command == "study" and not text.startswith("problem:"):
            text = "problem: {preset: gyre}\n" + text
        path.write_text(text)
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "out"), *extra])
        assert_config_error(code, capsys, message)

    @pytest.mark.parametrize("command, text, message", [
        ("run", _RUNNABLE + "time: {t_end: 1.0e+10, dt: 1.0e-310}\n",
         "'time': the step count"),
        ("verify", "verify: {trials: 0}\n", "'verify.trials'"),
        ("study", "problem: {preset: gyre}\nstudy: {levels: 2}\n",
         "'study.levels'"),
        ("study", "problem: {preset: gyre}\n"
         "study: {t_end: 1.0e+10, base_dt: 1.0e-310}\n",
         "'study': the step count"),
        ("run", "mesh: {domain: [[0, 1], [0, 1]], cells: [4, 4]}\n"
         "problem: {preset: rotating-patch}\n"
         "time: {t_end: 1.0, dt: 1.0e-300}\n", "is too small for this mesh"),
        ("run", _RUNNABLE.replace("[[0, 1], [0, 1]]", "[[0, 2], [0, 1]]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "is not the domain"),
        ("verify", "mesh: {cells: [4, 4]}\nverify: {trials: 3}\n",
         "'verify' does not read block 'mesh'"),
        ("study", "problem: {preset: gyre}\ntime: {t_end: 1, dt: 0.1}\n",
         "'study' does not read block 'time'"),
        ("verify", "output: {formats: [csv]}\n",
         "'verify' does not read block 'output'"),
        ("verify", "output: {snapshots: 2}\n",
         "'verify' does not read block 'output'"),
        ("verify", "output: {mesh_tables: true}\n",
         "'verify' does not read block 'output'"),
        ("study", "problem: {preset: gyre}\noutput: {formats: [csv]}\n",
         "'study' does not read block 'output'"),
        ("study", "problem: {preset: gyre}\noutput: {snapshots: 2}\n",
         "'study' does not read block 'output'"),
        ("study", "problem: {preset: gyre}\noutput: {mesh_tables: true}\n",
         "'study' does not read block 'output'"),
        ("run", _RUNNABLE.replace("[8, 8]", "[1.0e+30, 4]")
         + "time: {t_end: 0.02, dt: 0.01}\n", "'mesh.cells'"),
    ], ids=["run", "verify", "study", "study-step-count",
            "run-transport-scale", "run-off-the-preset-box",
            "verify-unread-block", "study-unread-block",
            "verify-output-formats", "verify-output-snapshots",
            "verify-output-mesh-tables", "study-output-formats",
            "study-output-snapshots", "study-output-mesh-tables",
            "run-unallocatable-cells"])
    def test_rejected_config_leaves_no_output_directory(
            self, tmp_path, capsys, command, text, message):
        # every input is built before the output directory is created
        path = tmp_path / "c.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert_config_error(code, capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("where", ["out", "out-below"])
    def test_exit_code_2_on_uncreatable_output_directory(
            self, tmp_path, capsys, where):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = tmp_path / "c.yaml"
        path.write_text(_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n")
        out = {"out": blocker, "out-below": blocker / "sub"}[where]
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert_config_error(code, capsys, "cannot create output directory")

    def test_levels_flag_is_unknown(self, tmp_path, capsys):
        # study.levels is the one way to set the depth of a study
        path = tmp_path / "c.yaml"
        path.write_text("problem: {preset: gyre}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["study", "--config", str(path), "--out", str(out),
                  "--levels", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --levels 3" in capsys.readouterr().err
        assert not out.exists()

    def test_study_mesh_error_is_config_error(self, tmp_path, capsys,
                                              monkeypatch):
        def bad_study(problem, **kwargs):
            raise MeshValidationError("cells must be positive")

        monkeypatch.setattr(verify, "convergence_study", bad_study)
        path = tmp_path / "c.yaml"
        path.write_text("problem: {preset: gyre}\n")
        code = main(["study", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert_config_error(code, capsys, "invalid mesh: cells must be")
        assert not (tmp_path / "out").exists()

    def test_solver_keys_override_scheme_defaults(self, tmp_path):
        path = run_config(tmp_path, solver={"bounds_margin": 0,
                                            "oseen_tol": 1e-11})
        scheme = build_scheme_config(load_config(path))
        assert scheme.bounds_margin == 0.0 and scheme.oseen_tol == 1e-11
        assert scheme.transport_tol == timestepper.SchemeConfig.transport_tol
        assert scheme.div_guard == timestepper.SchemeConfig.div_guard
        assert scheme.store_every == 0
        # an empty block keeps every default, and the run goes through
        path = run_config(tmp_path, solver=None)
        assert build_scheme_config(load_config(path)) == (
            timestepper.SchemeConfig(dt=0.01, t_end=0.05, store_every=0))
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(DEMO_CONFIGS) if n.endswith(".yaml")))
    def test_demo_config_validates(self, name):
        cfg = load_config(os.path.join(DEMO_CONFIGS, name))
        if "mesh" in cfg:  # a `run` config
            assert build_mesh_from_config(cfg).n_cells > 0
            build_scheme_config(cfg)

    def test_exit_code_2_on_missing_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2

    def test_missing_required_block(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.yaml",
                            {"time": {"t_end": 1.0, "dt": 0.1}})
        code = main(["run", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mesh" in capsys.readouterr().err

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        path = run_config(tmp_path, problem={"preset": "vortex-nope"})
        code = main(["run", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "vortex-nope" in capsys.readouterr().err

    def test_unknown_output_format_rejected(self, tmp_path, capsys):
        path = run_config(tmp_path, output={"formats": ["hdf5"]})
        code = main(["run", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestRunCommand:
    def test_rest_constant_trajectory(self, tmp_path, capsys):
        path = run_config(tmp_path, problem={"preset": "rest"})
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 0
        mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))
        rho0 = scalar_from_csv(mesh, out / "density_0000.csv")
        rho1 = scalar_from_csv(mesh, out / "density_0001.csv")
        np.testing.assert_allclose(rho0.values, 1.0, rtol=1e-13)
        np.testing.assert_array_equal(rho0.values, rho1.values)
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary

    def test_rest_dim_as_integral_float(self, tmp_path, capsys):
        # dim 2.0 names the dimension 2, as YAML writes it with a point
        path = run_config(tmp_path, problem={"preset": "rest",
                                             "params": {"dim": 2.0}})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert "overall: PASS" in (out / "summary.txt").read_text()

    def test_rotating_patch_diagnostics(self, tmp_path, capsys):
        path = run_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 0
        assert_stdout_is_summary(capsys, out)
        rows = diagnostics_rows(out)
        assert len(rows) == 5  # one row per step
        assert all(r["oseen_method"] == "gmres"
                   and r["oseen_fallback"] == "False" for r in rows)
        # the first step factors the preconditioner, the next reuse it
        assert [r["precond_refresh"] for r in rows] == \
            ["True"] + ["False"] * 4
        summary = (out / "summary.txt").read_text()
        assert summary.count("[PASS]") == 4
        assert "[FAIL]" not in summary
        assert all(r["transport_fallback"] == "False" for r in rows)
        sweeps = [int(r["transport_sweeps"]) for r in rows]
        assert "transport solves that fell back to LU: 0 of 5" in summary
        assert (f"transport sweeps: {sum(sweeps)} in 5 steps, largest "
                f"{max(sweeps)}\n") in summary
        assert "saddle solves that fell back to direct: 0 of 5" in summary
        counts = [int(r["oseen_iterations"]) for r in rows]
        assert (f"Krylov iterations: {sum(counts)} in 5 steps, largest "
                f"{max(counts)}\n") in summary
        assert "preconditioner factorizations: 1 of 5 steps" in summary

    def test_solver_fallback_reported(self, tmp_path, monkeypatch):
        # a Krylov solve capped at one iteration cannot converge: every
        # step falls back to LU, and the outputs must say so
        reports = []

        def recorded(system, **kwargs):
            out = solve_oseen(system, **kwargs)
            reports.append(out[2])
            return out

        monkeypatch.setattr(linsolve, "GMRES_RESTART", 1)
        monkeypatch.setattr(linsolve, "GMRES_CYCLES", 1)
        monkeypatch.setattr(timestepper, "solve_oseen", recorded)
        path = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert len(reports) == 5
        for rep in reports:
            assert rep.fallback and rep.method == "direct"
            assert rep.residual <= 1e-10  # the run's oseen_tol
        # a fallback drops the factors: the next step factors again
        assert all(rep.precond_refresh for rep in reports)
        rows = diagnostics_rows(out)
        assert all(r["oseen_method"] == "direct"
                   and r["oseen_fallback"] == "True"
                   and r["precond_refresh"] == "True" for r in rows)
        summary = (out / "summary.txt").read_text()
        assert "saddle solves that fell back to direct: 5 of 5" in summary
        assert "Krylov iterations: 5 in 5 steps, largest 1" in summary
        assert "preconditioner factorizations: 5 of 5 steps" in summary

    def test_transport_fallback_reported(self, tmp_path, monkeypatch):
        # one sweep cannot converge: every transport solve falls back to
        # LU, and the outputs must say so
        monkeypatch.setattr(linsolve, "JACOBI_MAXITER", 1)
        path = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        rows = diagnostics_rows(out)
        assert all(r["transport_fallback"] == "True"
                   and r["transport_sweeps"] == "1" for r in rows)
        summary = (out / "summary.txt").read_text()
        assert "transport solves that fell back to LU: 5 of 5" in summary
        assert "transport sweeps: 5 in 5 steps, largest 1" in summary
        assert "overall: PASS" in summary

    def test_vtk_output(self, tmp_path):
        path = run_config(tmp_path, output={"formats": ["csv", "vtk"]})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert (out / "fields_0000.vtk").exists()
        assert (out / "fields_0001.vtk").exists()

    def test_determinism_bit_identical(self, tmp_path):
        # two runs in one process, so with one BLAS thread count: another
        # count may change the last digits (see the macflow.cli docstring)
        path = run_config(tmp_path, output={"formats": ["csv"],
                                            "mesh_tables": True})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--out", str(out_a),
                     "--seed", "5"]) == 0
        assert main(["run", "--config", path, "--out", str(out_b),
                     "--seed", "5"]) == 0
        assert (out_a / "mesh_tables.csv").exists()
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == \
                (out_b / name).read_bytes(), name

    def test_blas_threads_bit_identical(self, tmp_path):
        # the patch demo writes the same bytes under one and two OpenBLAS
        # threads; a thread count is read when BLAS loads, so each run is
        # its own process
        with open(os.path.join(DEMO_CONFIGS, "patch_run.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["time"]["t_end"] = 0.2  # 20 steps, three snapshots
        path = write_config(tmp_path / "patch.yaml", data)
        src = str(pathlib.Path(macflow.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            outs.append(tmp_path / f"threads-{threads}")
            subprocess.run([sys.executable, "-m", "macflow.cli", "run",
                            "--config", path, "--out", str(outs[-1])],
                           env=env, check=True, capture_output=True,
                           timeout=300)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert "mesh_tables.csv" in names and "fields_0002.vtk" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_snapshot_cadence(self, tmp_path):
        path = run_config(tmp_path, output={"formats": ["csv"],
                                            "snapshots": 2})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        files = sorted(f for f in os.listdir(out)
                       if f.startswith("density_"))
        # initial, steps 2 and 4, final step 5
        assert files == ["density_0000.csv", "density_0001.csv",
                         "density_0002.csv", "density_0003.csv"]

    def test_interrupted_run_preserves_partial(self, tmp_path, capsys):
        path = run_config(tmp_path, solver={"div_guard": 1e-30})
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 1
        assert (out / "summary.txt").exists()
        summary = (out / "summary.txt").read_text()
        assert "INTERRUPTED" in summary
        assert (out / "density_0000.csv").exists()
        # the guard that stopped the run fails in the summary, with the
        # divergence it measured on the step that left no diagnostics
        measured = re.search(r"velocity divergence (\S+) exceeds guard",
                             capsys.readouterr().err).group(1)
        line = re.search(r"\[(\w+)\] velocity divergence: worst (\S+) "
                         r"\(tolerance 1e-30\)", summary)
        assert line.group(1) == "FAIL"
        assert f"{float(line.group(2)):.3e}" == measured
        assert float(measured) > 1e-30

    def test_singular_lu_interrupts_run(self, tmp_path, capsys):
        # at gyre amplitude 1e30 the transport sweeps fail and their LU
        # fallback meets an exactly zero pivot: the run stops as
        # interrupted, with a summary and one line on stderr
        path = run_config(
            tmp_path, mesh={"domain": [[0, 1], [0, 1]], "cells": [4, 4]},
            time={"t_end": 0.02, "dt": 0.01},
            problem={"preset": "gyre", "params": {"amplitude": 1.0e+30}})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text()
        assert "INTERRUPTED: transport solve: LU failed: " in summary
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "LU failed" in err

    def test_non_finite_initial_data_is_config_error(self, tmp_path,
                                                     capsys):
        # an amplitude of 1e308 overflows the projected initial velocity:
        # the run is rejected before --out is created, with no warning
        # from the overflow (the suite turns warnings into errors)
        path = run_config(
            tmp_path, mesh={"domain": [[0, 1], [0, 1]], "cells": [4, 4]},
            time={"t_end": 0.01, "dt": 0.005},
            problem={"preset": "gyre", "params": {"amplitude": 1.0e+308}})
        out = tmp_path / "out"
        assert_config_error(
            main(["run", "--config", path, "--out", str(out)]), capsys,
            "'problem': initial velocity is not finite")
        assert not out.exists()

    def test_initial_data_projected_once(self, tmp_path, monkeypatch):
        # the state that passed the check before --out is created is the
        # one the run starts from
        calls, project = [], timestepper.initialize

        def counted(mesh, problem):
            calls.append(problem.name)
            return project(mesh, problem)

        monkeypatch.setattr(timestepper, "initialize", counted)
        monkeypatch.setattr(macflow.cli, "initialize", counted)
        assert main(["run", "--config", run_config(tmp_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == ["rotating-patch"]

    def test_interrupted_density_guard_fails(self, tmp_path, monkeypatch):
        # a step that breaks the density bounds leaves no diagnostics: its
        # violation goes into the summary's worst
        def broken(*args, **kwargs):
            raise timestepper.InvariantViolation(
                "density bounds violated by 2.500e-01 at t=0.01",
                "bound_violation", 0.25)

        monkeypatch.setattr(timestepper, "step", broken)
        out = tmp_path / "out"
        assert main(["run", "--config", run_config(tmp_path),
                     "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text()
        assert "steps completed: 0 of 5" in summary
        assert "[FAIL] density bounds: worst 0.25 (tolerance 1e-09)" in summary
        assert "[PASS] velocity divergence" in summary

    def test_summary_gates_are_the_table(self, tmp_path, monkeypatch):
        # one [PASS]/[FAIL] line per row of SchemeConfig.gates, in order,
        # with its tolerance: a row added to the table is one line more,
        # and its FAIL fails the run
        def gate_lines(out):
            return re.findall(r"^\[(PASS|FAIL)\] (.+): worst \S+ "
                              r"\(tolerance (\S+)\)$",
                              (out / "summary.txt").read_text(), re.M)

        path = run_config(tmp_path)
        rows = [("PASS", label, format_float(tol)) for label, _, tol
                in build_scheme_config(load_config(path)).gates()]
        assert len(rows) == 4
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "a")]) == 0
        assert gate_lines(tmp_path / "a") == rows
        gates = timestepper.SchemeConfig.gates
        monkeypatch.setattr(
            timestepper.SchemeConfig, "gates",
            lambda cfg: gates(cfg) + [("velocity L2 norm", "u_l2", 0.0)])
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "b")]) == 1
        assert gate_lines(tmp_path / "b") == rows + [
            ("FAIL", "velocity L2 norm", "0.0")]
        assert "overall: FAIL" in (tmp_path / "b" / "summary.txt").read_text()

    def test_nan_gate_value_fails(self, tmp_path, monkeypatch):
        # a NaN kinetic energy residual on step 2, after a finite one on
        # step 1, is the run's worst value and fails its gate
        calls, face_balances = [], timestepper.face_balances

        def nan_on_step_2(*args):
            calls.append(None)
            balances = face_balances(*args)
            if len(calls) == 2:
                balances["kinetic_resid"] = math.nan
            return balances

        monkeypatch.setattr(timestepper, "face_balances", nan_on_step_2)
        out = tmp_path / "out"
        assert main(["run", "--config", run_config(tmp_path),
                     "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text()
        assert "steps completed: 5 of 5" in summary
        assert ("[FAIL] kinetic energy balance: worst nan (tolerance 1e-09)"
                in summary)
        assert "overall: FAIL" in summary


class TestVerifyCommand:
    def test_passes_and_writes_reports(self, tmp_path, capsys):
        path = write_config(tmp_path / "v.yaml",
                            {"verify": {"trials": 10,
                                        "tolerance": 1e-12}})
        out = tmp_path / "out"
        code = main(["verify", "--config", path, "--out", str(out),
                     "--seed", "9"])
        assert code == 0
        report = (out / "identity_reports.csv").read_text()
        assert "# seed: 9" in report
        # 4 meshes x 3 identity batteries
        rows = [ln for ln in report.splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 12
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary
        assert "inf-sup constant" in summary
        assert_stdout_is_summary(capsys, out)

    def test_deterministic_across_invocations(self, tmp_path):
        path = write_config(tmp_path / "v.yaml",
                            {"verify": {"trials": 5}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(a)]) == 0
        assert main(["verify", "--config", path, "--out", str(b)]) == 0
        for name in ("identity_reports.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestStudyCommand:
    def test_study_passes(self, tmp_path, capsys):
        path = write_config(tmp_path / "s.yaml", {
            "problem": {"preset": "gyre"},
            "study": {"levels": 3, "base_cells": 8, "t_end": 0.05,
                      "base_dt": 0.0125},
        })
        out = tmp_path / "out"
        code = main(["study", "--config", path, "--out", str(out)])
        assert code == 0
        text = (out / "convergence.csv").read_text()
        assert "# passed: True" in text
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary
        assert_stdout_is_summary(capsys, out)

    def test_exact_levels_report_inf_factors(self, tmp_path):
        # the rest preset is reproduced exactly: every error is 0, so
        # nothing is left to reduce and each factor is inf
        path = write_config(tmp_path / "s.yaml", {
            "problem": {"preset": "rest"},
            "study": {"levels": 3, "base_cells": 4},
        })
        out = tmp_path / "out"
        assert main(["study", "--config", path, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "velocity reduction factors: inf, inf\n" in summary
        assert "density reduction factors: inf, inf\n" in summary
        assert "overall: PASS" in summary
