"""The verification harness itself: oracles for its measurements."""

import csv
import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from macflow.grid import build_uniform_mesh
from macflow.fields import VelocityField, norm_lp_dual
from macflow.linsolve import factor
from macflow.presets import get_preset
from macflow.timestepper import (SchemeConfig, SchemeState,
                                 StepDiagnostics, initialize, run, step)
from macflow import verify

from conftest import graded_mesh


def gyre_run(n=16, dt=0.005, t_end=0.1):
    problem = get_preset("gyre")
    mesh = build_uniform_mesh(problem.domain, (n, n))
    return run(mesh, problem,
               SchemeConfig(dt=dt, t_end=t_end, store_every=1)), problem


class TestIdentityBatteries:
    def test_all_pass_on_any_mesh(self, any_mesh):
        assert verify.check_duality(any_mesh, trials=10, seed=0).passed
        assert verify.check_adjointness(any_mesh, trials=10, seed=0).passed
        assert verify.check_coercivity(any_mesh, trials=10, seed=0).passed

    def test_report_line_format(self, mesh2_uniform):
        rep = verify.check_duality(mesh2_uniform, trials=5, seed=1)
        line = rep.line()
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "max residual" in line

    def test_detects_broken_identity(self, mesh2_uniform):
        # sanity: the checker fails when handed an absurd tolerance
        rep = verify.check_duality(mesh2_uniform, trials=5, seed=2,
                                   tol=1e-30)
        if rep.max_residual > 0:
            assert not rep.passed


class TestKineticCheck:
    def test_consecutive_states(self):
        result, problem = gyre_run(t_end=0.02)
        mesh = result.mesh
        traj = result.trajectory
        before = SchemeState(t=traj.times[0], index=0, rho=traj.rho[0],
                             u=traj.u[0])
        after = SchemeState(t=traj.times[1], index=1, rho=traj.rho[1],
                            u=traj.u[1], p=traj.p[1])
        f = problem.forcing(mesh, traj.times[1])
        rep = verify.check_kinetic(mesh, before, after, result.dt,
                                   forcing_arrays=f)
        assert rep.passed
        assert rep.extras["remainder_nonpositive"]
        assert rep.max_residual < 1e-12

    def test_detects_perturbed_velocity(self):
        result, problem = gyre_run(t_end=0.02)
        mesh = result.mesh
        traj = result.trajectory
        before = SchemeState(t=traj.times[0], index=0, rho=traj.rho[0],
                             u=traj.u[0])
        u = traj.u[1].copy()
        fs = mesh.faces[0]
        u.components[0][fs.interior_idx[fs.n_interior // 2]] += 1e-6
        after = SchemeState(t=traj.times[1], index=1, rho=traj.rho[1],
                            u=u, p=traj.p[1])
        f = problem.forcing(mesh, traj.times[1])
        rep = verify.check_kinetic(mesh, before, after, result.dt,
                                   forcing_arrays=f)
        assert not rep.passed
        assert rep.max_residual > rep.tolerance

    @pytest.mark.parametrize("preset, mesh", [
        ("gyre", build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))),
        ("rotating-patch",
         build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))),
        ("gyre", graded_mesh((16, 16), seed=7)),
    ], ids=["gyre-16", "rotating-patch-16", "gyre-graded-16"])
    def test_matches_step_diagnostics(self, preset, mesh):
        # the run diagnostics and the standalone check share one balance,
        # so they agree to the last bit after every step
        problem = get_preset(preset)
        cfg = SchemeConfig(dt=0.01, t_end=0.03)
        state = initialize(mesh, problem)
        for _ in range(3):
            new, diag = step(mesh, state, cfg, forcing=problem.forcing)
            rep = verify.check_kinetic(
                mesh, state, new, cfg.dt,
                forcing_arrays=problem.forcing(mesh, new.t))
            assert rep.max_residual == diag.kinetic_resid
            assert rep.extras["remainder_max"] == diag.kinetic_remainder_max
            assert rep.passed
            state = new


class TestTranslates:
    def test_direct_summation_oracle(self):
        # recompute one translate integral with an explicit double loop
        result, _ = gyre_run(t_end=0.06, dt=0.005)
        report = verify.measure_translates(result, shifts=(1, 2, 4))
        mesh = result.mesh
        traj = result.trajectory
        k = 2
        total = 0.0
        for n in range(result.n_steps - k):
            ua, ub = traj.u[n + 1], traj.u[n + 1 + k]
            diff = VelocityField(mesh, [b - a for a, b in
                                        zip(ua.components, ub.components)])
            total += result.dt * norm_lp_dual(diff, 2) ** 2
        idx = report.taus.index(k * result.dt)
        assert report.integrals[idx] == pytest.approx(total, rel=1e-13)

    def test_zero_shift_of_steady_state(self):
        # at rest every translate integral vanishes; slope fitting still
        # operates on the floored values without errors
        problem = get_preset("rest")
        mesh = build_uniform_mesh(problem.domain, (8, 8))
        result = run(mesh, problem,
                     SchemeConfig(dt=0.01, t_end=0.1, store_every=1))
        report = verify.measure_translates(result, shifts=(1, 2, 4))
        assert all(v <= 1e-24 for v in report.integrals)

    def test_smooth_evolution_passes_floor(self):
        result, _ = gyre_run(t_end=0.1, dt=0.005)
        report = verify.measure_translates(result)
        assert report.passed
        assert report.slope >= 0.4
        assert report.scale_factor >= 1.0

    def test_needs_three_shifts(self):
        result, _ = gyre_run(t_end=0.02, dt=0.005)  # only 4 steps
        with pytest.raises(ValueError):
            verify.measure_translates(result, shifts=(1, 2, 8))

    def test_needs_every_step_stored(self):
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (8, 8))
        result = run(mesh, problem,
                     SchemeConfig(dt=0.01, t_end=0.1, store_every=2))
        with pytest.raises(ValueError):
            verify.measure_translates(result)


class TestConvergence:
    def test_gyre_three_levels(self):
        problem = get_preset("gyre")
        report = verify.convergence_study(problem, levels=3, base_cells=8,
                                          t_end=0.05, base_dt=0.0125)
        assert report.passed
        assert len(report.levels) == 3
        # errors strictly decrease and mesh data is recorded
        errs = [lv.err_u for lv in report.levels]
        assert errs[0] > errs[1] > errs[2]
        assert report.levels[0].cells == (8, 8)
        assert report.levels[1].h == pytest.approx(report.levels[0].h / 2)
        assert report.levels[1].dt == pytest.approx(report.levels[0].dt / 2)
        # uniform refinement keeps the regularity measure constant
        etas = {round(lv.eta, 12) for lv in report.levels}
        assert len(etas) == 1

    def test_requires_three_levels(self):
        problem = get_preset("gyre")
        with pytest.raises(ValueError):
            verify.convergence_study(problem, levels=2)

    def test_requires_exact_solution(self):
        problem = get_preset("rest")
        object.__setattr__(problem, "u_exact", None)
        with pytest.raises(ValueError):
            verify.convergence_study(problem, levels=3)


class TestMonitors:
    def test_convection_ratio_bounded_sample(self, mesh2_uniform):
        stats = verify.measure_convection_bound(mesh2_uniform, samples=5,
                                                seed=3)
        assert stats["samples"] == 5
        assert 0 <= stats["mean"] <= stats["max"]
        assert math.isfinite(stats["max"])

    def test_convection_bound_factors_once(self, monkeypatch):
        # every sample lives on one mesh, so one Poisson LU serves the
        # projections of all of them
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (16, 16))
        calls = []

        def counted(mat):
            calls.append(mat.shape)
            return factor(mat)

        monkeypatch.setattr(verify, "factor", counted)
        stats = verify.measure_convection_bound(mesh, samples=10)
        assert stats["samples"] == 10
        assert calls == [(mesh.n_cells, mesh.n_cells)]

    def test_infsup_positive_with_single_nullvector(self, mesh2_uniform):
        health = verify.infsup_health(mesh2_uniform)
        assert health["beta"] > 0
        assert health["nullspace_dim"] == 1

    def test_infsup_rejects_large_mesh(self):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (80, 80))
        with pytest.raises(ValueError):
            verify.infsup_health(mesh)


class TestCollectDiagnostics:
    def test_trackers_match_direct_sums(self):
        result, _ = gyre_run(t_end=0.05, dt=0.01)
        rec = verify.collect_diagnostics(result)
        # L2(H1): direct sum over steps
        direct = math.sqrt(sum(d.ke_dissipation
                               for d in result.diagnostics))
        assert rec.l2h1 == pytest.approx(direct, rel=1e-13)
        # Linf(L2) includes the initial state
        u0 = result.trajectory.u[0]
        candidates = [norm_lp_dual(u0, 2)] + [d.u_l2
                                              for d in result.diagnostics]
        assert rec.linf_l2 == pytest.approx(max(candidates), rel=1e-13)

    def test_worst_case_aggregates(self):
        result, _ = gyre_run(t_end=0.05, dt=0.01)
        rec = verify.collect_diagnostics(result)
        assert rec.worst_div == max(d.div_l2 for d in result.diagnostics)
        assert rec.worst_mass_dual == max(d.mass_dual_resid
                                          for d in result.diagnostics)


class TestReportWriters:
    def test_identity_reports_csv(self, tmp_path, mesh2_uniform):
        reps = [verify.check_duality(mesh2_uniform, trials=3, seed=0)]
        path = tmp_path / "idreports.csv"
        verify.write_identity_reports(reps, path, cfg_hash="cafe", seed=7)
        text = path.read_text()
        assert "# config_hash: cafe" in text
        assert "# seed: 7" in text
        assert "duality identity" in text
        assert "True" in text

    def test_diagnostics_csv_row_count(self, tmp_path):
        result, _ = gyre_run(t_end=0.03, dt=0.01)
        path = tmp_path / "diag.csv"
        verify.write_diagnostics_csv(verify.collect_diagnostics(result), path)
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + result.n_steps  # header + one per step
        rows = list(csv.reader(rows))
        assert rows[0] == [f.name for f in fields(StepDiagnostics)]
        # every float cell reads back to the diagnostics value bit for bit
        for row, diag in zip(rows[1:], result.diagnostics):
            for cell, value in zip(row, astuple(diag), strict=True):
                if isinstance(value, float):
                    assert float(cell).hex() == value.hex()

    def test_translate_csv(self, tmp_path):
        result, _ = gyre_run(t_end=0.1, dt=0.005)
        report = verify.measure_translates(result)
        path = tmp_path / "translates.csv"
        verify.write_translate_csv(report, path)
        text = path.read_text()
        assert "# slope: " in text
        assert "tau,integral" in text

    def test_convergence_csv(self, tmp_path):
        problem = get_preset("gyre")
        report = verify.convergence_study(problem, levels=3, base_cells=8,
                                          t_end=0.04, base_dt=0.01)
        path = tmp_path / "conv.csv"
        verify.write_convergence_csv(report, path)
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "cells,h,dt,eta,err_u,err_rho,err_p,l2h1,linf_l2"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("8x8,")
