"""Command-line interface: config validation, artifacts, determinism."""

import csv
import os

import numpy as np
import pytest
import yaml

from macflow import linsolve, timestepper, verify
from macflow.cli import (ConfigError, build_mesh_from_config,
                         build_scheme_config, load_config, main)
from macflow.fields import scalar_from_csv
from macflow.grid import MeshValidationError, build_uniform_mesh
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
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: rest, params: {density: -1.0}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "density must be positive"),
        (_RUNNABLE.replace("{preset: gyre}",
                           "{preset: rest, params: {density: 0}}")
         + "time: {t_end: 0.02, dt: 0.01}\n", "density must be positive"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {directory: 3}\n", "'output.directory'"),
        (_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
         "output: {mesh_tables: maybe}\n", "'output.mesh_tables'"),
        (None, "cannot read"),
        (b"problem: {preset: gyre}\n# caf\xe9\n", "cannot read"),
    ], ids=["unknown-key", "malformed-yaml", "negative-dt", "nan-dt",
            "inf-t-end", "empty-mesh-axis", "non-increasing-coordinates",
            "unknown-solver", "unknown-solver-enforce", "nan-preset-param",
            "text-oseen-tol", "nan-oseen-tol", "negative-transport-tol",
            "negative-bounds-margin", "negative-snapshots",
            "fractional-snapshots", "text-formats", "number-formats",
            "null-formats", "fractional-cells", "scalar-cells",
            "text-cells", "text-coordinates", "text-domain",
            "scalar-domain", "3d-mesh-2d-preset",
            "boolean-dt", "nonpositive-density-amplitude", "zero-width",
            "boolean-preset-param", "text-preset-param",
            "rest-negative-density", "rest-zero-density", "number-directory",
            "text-mesh-tables", "directory-config", "latin1-config"])
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
        ("study", "", ["--levels", "2"], "'--levels'"),
        ("study", "study: {base_cells: 1}\n", [], "'study.base_cells'"),
        ("study", "study: {t_end: -0.25}\n", [], "'study.t_end'"),
        ("study", "study: {base_dt: .inf}\n", [], "'study.base_dt'"),
        ("verify", "verify: {trials: abc}\n", [], "'verify.trials'"),
        ("verify", "verify: {trials: 0}\n", [], "'verify.trials'"),
        ("verify", "verify: {tolerance: .nan}\n", [], "'verify.tolerance'"),
        ("study", "problem: {preset: rest, params: {dim: 4}}\n"
         "study: {levels: 3, base_cells: 2}\n", [], "dim must be 2 or 3"),
        ("study", "output: {directory: [a]}\n", [], "'output.directory'"),
        ("verify", "", ["--seed", "-1"], "'--seed'"),
        ("study", "", ["--seed", "-1"], "'--seed'"),
        ("run", "", ["--seed", "-1"], "'--seed'"),
    ], ids=["text-threshold", "two-levels", "two-levels-flag",
            "one-base-cell", "negative-t-end", "inf-base-dt", "text-trials",
            "zero-trials", "nan-tolerance", "rest-in-4d", "list-directory",
            "negative-seed-verify", "negative-seed-study",
            "negative-seed-run"])
    def test_exit_code_2_on_bad_study_or_verify_config(
            self, tmp_path, capsys, command, text, extra, message):
        path = tmp_path / "c.yaml"
        if not text.startswith("problem:"):
            text = "problem: {preset: gyre}\n" + text
        path.write_text(text)
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "out"), *extra])
        assert_config_error(code, capsys, message)

    @pytest.mark.parametrize("where", ["out", "out-below", "directory"])
    def test_exit_code_2_on_uncreatable_output_directory(
            self, tmp_path, capsys, where):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = tmp_path / "c.yaml"
        path.write_text(_RUNNABLE + "time: {t_end: 0.02, dt: 0.01}\n"
                        f"output: {{directory: {blocker}}}\n")
        extra = {"out": ["--out", str(blocker)],
                 "out-below": ["--out", str(blocker / "sub")],
                 "directory": []}[where]
        code = main(["run", "--config", str(path), *extra])
        assert_config_error(code, capsys, "cannot create output directory")

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

    def test_solver_keys_override_scheme_defaults(self, tmp_path):
        path = run_config(tmp_path, solver={"bounds_margin": 0,
                                            "oseen_tol": 1e-11})
        scheme = build_scheme_config(load_config(path))
        assert scheme.bounds_margin == 0.0 and scheme.oseen_tol == 1e-11
        assert scheme.transport_tol == timestepper.SchemeConfig.transport_tol
        assert scheme.div_guard == timestepper.SchemeConfig.div_guard
        assert scheme.store_every == 0

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

    def test_rotating_patch_diagnostics(self, tmp_path):
        path = run_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 0
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
        monkeypatch.setattr(linsolve, "GMRES_MAXITER", 1)
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

    def test_vtk_output(self, tmp_path):
        path = run_config(tmp_path, output={"formats": ["csv", "vtk"]})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert (out / "fields_0000.vtk").exists()
        assert (out / "fields_0001.vtk").exists()

    def test_determinism_bit_identical(self, tmp_path):
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
        assert "INTERRUPTED" in (out / "summary.txt").read_text()
        assert (out / "density_0000.csv").exists()


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

    def test_deterministic_across_invocations(self, tmp_path):
        path = write_config(tmp_path / "v.yaml",
                            {"verify": {"trials": 5}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(a)]) == 0
        assert main(["verify", "--config", path, "--out", str(b)]) == 0
        assert (a / "identity_reports.csv").read_bytes() == \
            (b / "identity_reports.csv").read_bytes()


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

    def test_levels_flag_overrides(self, tmp_path):
        path = write_config(tmp_path / "s.yaml", {
            "problem": {"preset": "gyre"},
            "study": {"levels": 4, "base_cells": 8, "t_end": 0.04,
                      "base_dt": 0.01},
        })
        out = tmp_path / "out"
        code = main(["study", "--config", path, "--out", str(out),
                     "--levels", "3"])
        assert code == 0
        rows = [ln for ln in (out / "convergence.csv").read_text()
                .splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 3
