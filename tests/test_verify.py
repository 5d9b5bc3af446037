"""The verification harness itself: oracles for its measurements."""

import csv
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
import scipy.linalg as la

from macflow import operators as ops
from macflow.grid import build_uniform_mesh
from macflow.fields import VelocityField, norm_lp_dual
from macflow.linsolve import (SaddleSolver, SolverFailure,
                              assemble_divergence, factor)
from macflow.presets import get_preset
from macflow.timestepper import (SchemeConfig, StepDiagnostics, initialize,
                                 run, step)
from macflow import timestepper, verify

from conftest import graded_mesh


def dense_infsup(mesh):
    """Dense oracle of the inf-sup monitor: the singular values, in
    ascending order, and left singular vectors of the divergence block
    scaled by the inverse square roots of the cell volumes (rows) and of
    the component diffusion blocks (columns)."""
    cols = []
    for i in range(mesh.dim):
        blk = ops.diffusion_matrix(mesh, i).toarray()
        if blk.shape[0]:
            w, q = la.eigh(blk)
            cols.append(q @ np.diag(1.0 / np.sqrt(w)) @ q.T)
    scaled = (assemble_divergence(mesh).toarray() @ la.block_diag(*cols)
              / np.sqrt(mesh.cell_volume)[:, None])
    left, svals, _ = la.svd(scaled)
    return svals[::-1], left[:, ::-1]


def gyre_run(n=16, dt=0.005, t_end=0.1):
    problem = get_preset("gyre")
    mesh = build_uniform_mesh(problem.domain, (n, n))
    return run(mesh, problem,
               SchemeConfig(dt=dt, t_end=t_end, store_every=1)), problem


def kinetic_gate(cfg):
    """Tolerance of the kinetic energy balance gate of ``cfg``."""
    [tol] = [tol for _, name, tol in cfg.gates() if name == "kinetic_resid"]
    return tol


class TestIdentityBatteries:
    def test_all_pass_on_any_mesh(self, any_mesh):
        assert verify.check_duality(any_mesh, trials=10, seed=0).passed
        assert verify.check_adjointness(any_mesh, trials=10, seed=0).passed
        assert verify.check_coercivity(any_mesh, trials=10, seed=0).passed

    @pytest.mark.parametrize("mesh", [
        build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4)),
        graded_mesh((1, 2, 3), seed=7),
    ], ids=["1x4", "graded-1x2x3"])
    def test_coercivity_on_thin_meshes(self, mesh):
        # one cell across an axis leaves that component's diffusion block
        # empty; the battery judges the other components
        assert ops.diffusion_matrix(mesh, 0).shape[0] == 0
        rep = verify.check_coercivity(mesh, trials=5, seed=0)
        assert rep.passed and rep.extras["positive_definite"]

    def test_report_line_format(self, mesh2_uniform):
        rep = verify.check_duality(mesh2_uniform, trials=5, seed=1)
        line = rep.line()
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "max residual" in line

    # each battery with a NaN from one operator call in one trial, and
    # the NaN spelled in the operator's return type
    @pytest.mark.parametrize("check, operator, poison", [
        (verify.check_duality, "dual_pairing", lambda out: math.nan),
        (verify.check_adjointness, "div_velocity",
         lambda out: out * math.nan),
        (verify.check_coercivity, "laplacian_apply",
         lambda out: [c * math.nan for c in out]),
    ], ids=["duality", "adjointness", "coercivity"])
    def test_nan_residual_fails(self, mesh2_graded, monkeypatch, check,
                                operator, poison):
        # the third call is in the second trial of duality (two calls a
        # trial in 2D) and in the third of the others; Python's max would
        # keep the finite worst of the other trials and pass
        calls, real = [], getattr(ops, operator)

        def nan_on_third_call(*args):
            calls.append(None)
            out = real(*args)
            return poison(out) if len(calls) == 3 else out

        monkeypatch.setattr(ops, operator, nan_on_third_call)
        rep = check(mesh2_graded, trials=5, seed=0)
        assert len(calls) >= 5
        assert math.isnan(rep.max_residual)
        assert not rep.passed
        assert rep.line().startswith("[FAIL]")

    @pytest.mark.parametrize("check", [
        verify.check_duality, verify.check_adjointness,
        verify.check_coercivity], ids=["duality", "adjointness",
                                       "coercivity"])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_a_value_error(self, mesh2_uniform, check, trials):
        # a battery that tried nothing has no worst residual to pass on
        with pytest.raises(ValueError, match="at least 1 trial"):
            check(mesh2_uniform, trials=trials, seed=0)

    def test_detects_broken_identity(self, mesh2_uniform):
        # sanity: the checker fails when handed an absurd tolerance
        rep = verify.check_duality(mesh2_uniform, trials=5, seed=2,
                                   tol=1e-30)
        if rep.max_residual > 0:
            assert not rep.passed


class TestKineticCheck:
    """The kinetic energy balance has one evaluation, in the step, and one
    judge, the kinetic gate of SchemeConfig.gates."""

    def test_consecutive_states(self):
        result, _ = gyre_run(t_end=0.02)
        first = result.diagnostics[0]
        assert first.step == 1
        assert first.kinetic_resid < 1e-12
        assert first.kinetic_remainder_max <= 0.0

    def test_detects_perturbed_velocity(self):
        # the step's balance rebuilt from its first two states reads the
        # step's own residual; with one interior face of the new velocity
        # moved by 1e-6 it is far outside the kinetic gate
        result, problem = gyre_run(t_end=0.02)
        mesh = result.mesh
        traj = result.trajectory
        fluxes = ops.upwind_face_flux(mesh, traj.rho[1], traj.u[0])

        def kinetic_resid(u_new):
            return timestepper.face_balances(
                mesh, result.config.dt, fluxes,
                ops.dual_density(mesh, traj.rho[0]),
                ops.dual_density(mesh, traj.rho[1]), traj.u[0], u_new,
                traj.p[1], problem.forcing(mesh, traj.times[1])
            )["kinetic_resid"]

        assert kinetic_resid(traj.u[1]) == result.diagnostics[0].kinetic_resid
        u = VelocityField(mesh, traj.u[1].components)
        fs = mesh.faces[0]
        u.components[0][fs.interior_idx[fs.n_interior // 2]] += 1e-6
        assert kinetic_resid(u) > kinetic_gate(result.config)

    @pytest.mark.parametrize("preset, mesh", [
        ("gyre", build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))),
        ("rotating-patch",
         build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))),
        ("gyre", graded_mesh((16, 16), seed=7)),
    ], ids=["gyre-16", "rotating-patch-16", "gyre-graded-16"])
    def test_matches_step_diagnostics(self, preset, mesh):
        # every step's diagnostics pass the kinetic gate, with a
        # nonpositive remainder, on uniform and graded meshes
        problem = get_preset(preset)
        cfg = SchemeConfig(dt=0.01, t_end=0.03)
        tol = kinetic_gate(cfg)
        state = initialize(mesh, problem)
        saddle = SaddleSolver(mesh)
        for _ in range(3):
            state, diag = step(saddle, state, cfg,
                               (state.rho.min(), state.rho.max()),
                               forcing=problem.forcing)
            assert diag.kinetic_resid <= tol
            assert diag.kinetic_remainder_max <= 0.0


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
            total += result.config.dt * norm_lp_dual(diff, 2) ** 2
        idx = report.taus.index(k * result.config.dt)
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

    def test_late_time_stamps_give_the_same_report(self):
        # stamps accumulated as run accumulates them (t += dt), from
        # t0 = 1023.95 across t = 1024 where the ulp doubles: the gaps
        # differ by ulps, and the report is the original run's
        result, _ = gyre_run(t_end=0.1, dt=0.005)
        assert result.n_steps == 20
        want = verify.measure_translates(result)
        t, times = 1023.95, [1023.95]
        for _ in range(result.n_steps):
            t += result.config.dt
            times.append(t)
        assert np.ptp(np.diff(times)) > 0
        result.trajectory.times[:] = times
        assert verify.measure_translates(result) == want

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

    @pytest.mark.parametrize("base_cells", [0, 1])
    def test_requires_two_base_cells(self, base_cells):
        problem = get_preset("rest")
        with pytest.raises(ValueError, match="base cells"):
            verify.convergence_study(problem, base_cells=base_cells)

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
        assert verify.infsup_health(mesh2_uniform)["beta"] > 0
        # the oracle's only pressure null vector is the constant
        svals, left = dense_infsup(mesh2_uniform)
        assert svals[0] < 1e-12 * svals[-1] < svals[1]
        null = left[:, 0] / np.sqrt(mesh2_uniform.cell_volume)
        np.testing.assert_allclose(null / null[0], 1.0, rtol=1e-10)

    @pytest.mark.parametrize("cells,graded", [
        ((5, 4), False), ((5, 4), True), ((3, 3, 3), False),
        ((3, 3, 3), True), ((16, 16), False), ((16, 16), True),
        ((8, 8, 8), False)], ids=lambda v: (
            "x".join(map(str, v)) if isinstance(v, tuple)
            else "graded" if v else "uniform"))
    def test_infsup_matches_dense_oracle(self, cells, graded):
        mesh = (graded_mesh(cells, seed=7) if graded else
                build_uniform_mesh([[0, 1]] * len(cells), cells))
        svals, _ = dense_infsup(mesh)
        assert svals[0] < 1e-12 * svals[-1] < svals[1]
        health = verify.infsup_health(mesh)
        assert health["n_cells"] == mesh.n_cells
        assert 0 < health["iterations"] < verify.INFSUP_MAXITER
        assert abs(health["beta"] - svals[1]) <= 1e-12 * svals[1]

    def test_infsup_on_large_mesh(self):
        # beta falls with refinement and flattens: 0.4763 at 64^2, 0.4659
        # at 128^2
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (80, 80))
        assert 0.4659 < verify.infsup_health(mesh)["beta"] < 0.4763

    @pytest.mark.parametrize("cells", [(1, 1), (2, 1)], ids=["1x1", "2x1"])
    def test_infsup_rejects_mesh_below_floor(self, cells):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], cells)
        with pytest.raises(ValueError, match="LOBPCG floor"):
            verify.infsup_health(mesh)

    def test_infsup_raises_without_convergence(self, mesh2_uniform,
                                               monkeypatch):
        monkeypatch.setattr(verify, "INFSUP_MAXITER", 1)
        with pytest.raises(SolverFailure, match="inf-sup"):
            verify.infsup_health(mesh2_uniform)


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
        assert list(rec.worst) == [name for _, name, _
                                   in result.config.gates()]
        for name, value in rec.worst.items():
            assert value == max(getattr(d, name) for d in result.diagnostics)

    def test_nan_carried_through(self):
        # a NaN after a finite value is the worst value, and a NaN
        # density norm ends the monotone decay
        result, _ = gyre_run(t_end=0.03, dt=0.01)
        steps = result.diagnostics
        steps[1] = replace(steps[1], div_l2=math.nan, rho_l2=math.nan)
        rec = verify.collect_diagnostics(result)
        assert math.isnan(rec.worst["div_l2"])
        assert not math.isnan(rec.worst["mass_dual_resid"])
        assert not rec.rho_l2_monotone

    def test_nan_velocity_norm_carried_through(self):
        # the Linf(L2) tracker keeps a NaN that follows a finite norm
        result, _ = gyre_run(t_end=0.03, dt=0.01)
        steps = result.diagnostics
        steps[1] = replace(steps[1], u_l2=math.nan)
        assert math.isnan(verify.collect_diagnostics(result).linf_l2)


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
