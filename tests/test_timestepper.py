"""Time loop: fixed points, equation re-substitution, guards, bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

from macflow.grid import build_uniform_mesh
from macflow.fields import ScalarField, VelocityField, norm_l2_cells
from macflow import operators as ops, timestepper
from macflow.linsolve import SaddleSolver
from macflow.presets import get_preset
from macflow.timestepper import (InvariantViolation, SchemeConfig,
                                 SchemeState, StepDiagnostics, initialize,
                                 kinetic_energy, run, step, time_steps)


DIAGNOSTICS_FIELDS = {f.name for f in dataclasses.fields(StepDiagnostics)}


def mesh16():
    return build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (16, 16))


class TestRestFixedPoint:
    def test_stays_at_rest(self):
        problem = get_preset("rest")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.05, t_end=0.25, store_every=1)
        result = run(mesh, problem, cfg)
        assert result.n_steps == 5
        for k in range(len(result.trajectory)):
            u = result.trajectory.u[k]
            for c in u.components:
                assert np.abs(c).max() < 1e-13
            np.testing.assert_allclose(result.trajectory.rho[k].values,
                                       1.0, rtol=1e-13)
        for d in result.diagnostics:
            assert d.kinetic_energy < 1e-26
            assert d.bound_violation == 0.0


class TestEmptyVelocityComponents:
    # one cell across an axis leaves that velocity component without
    # interior faces: an empty slice of the unknown layout, and on 1x1
    # no velocity unknown at all
    @pytest.mark.parametrize("preset, params, cells", [
        ("rest", {}, (1, 1)), ("rest", {}, (1, 4)),
        ("rest", {"dim": 3}, (1, 1, 3)), ("gyre", {}, (1, 8))])
    def test_run_completes_without_fallback(self, preset, params, cells):
        problem = get_preset(preset, **params)
        mesh = build_uniform_mesh(problem.domain, cells)
        result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.03))
        assert result.n_steps == len(result.diagnostics) == 3
        assert not any(d.oseen_fallback for d in result.diagnostics)


class TestRunIsHandLoop:
    def test_run_matches_hand_loop(self):
        # run is initialize plus step with one shared solver and the
        # initial density bounds, to the last bit of every field
        problem = get_preset("rotating-patch")
        mesh = mesh16()
        result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.04))
        state = initialize(mesh, problem)
        bounds = (state.rho.min(), state.rho.max())
        saddle = SaddleSolver(mesh)
        traj = result.trajectory
        assert len(traj) == 5
        for k in range(1, 5):
            state, diag = step(saddle, state, result.config,
                               forcing=problem.forcing, bounds=bounds)
            assert diag == result.diagnostics[k - 1]
            assert state.rho.values.tobytes() == traj.rho[k].values.tobytes()
            assert state.p.values.tobytes() == traj.p[k].values.tobytes()
            for a, b in zip(state.u.components, traj.u[k].components):
                assert a.tobytes() == b.tobytes()


class TestOneStepResidual:
    def test_momentum_resubstitution(self):
        # recompute every term of the momentum equation from the returned
        # fields; the residual must sit at the saddle solver's tolerance
        problem = get_preset("gyre")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.01, t_end=0.05)
        state = initialize(mesh, problem)
        new, diag = step(SaddleSolver(mesh), state, cfg,
                         (state.rho.min(), state.rho.max()),
                         forcing=problem.forcing)

        f = problem.forcing(mesh, new.t)
        fluxes = ops.upwind_face_flux(mesh, new.rho, state.u)
        rho_d_new = ops.dual_density(mesh, new.rho)
        rho_d_old = ops.dual_density(mesh, state.rho)
        conv = ops.convection_apply(mesh, fluxes, new.u)
        lap = ops.laplacian_apply(mesh, new.u)
        grad = ops.grad_pressure(mesh, new.p)
        worst = 0.0
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            idx = fs.interior_idx
            r = (rho_d_new[i][idx] * new.u.components[i][idx]
                 - rho_d_old[i][idx] * state.u.components[i][idx]) / cfg.dt
            r += conv[i][idx] - lap[i][idx] + grad[i][idx]
            r -= np.asarray(f[i])[idx]
            scale = np.abs(rho_d_old[i][idx]
                           * state.u.components[i][idx] / cfg.dt) \
                + np.abs(np.asarray(f[i])[idx]) + 1.0
            worst = max(worst, float(np.max(np.abs(r) / scale)))
        assert worst < 1e-9

    def test_divergence_free_after_step(self):
        problem = get_preset("gyre")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.01, t_end=0.05)
        state = initialize(mesh, problem)
        new, diag = step(SaddleSolver(mesh), state, cfg,
                         (state.rho.min(), state.rho.max()),
                         forcing=problem.forcing)
        div = ops.div_velocity(mesh, new.u)
        assert norm_l2_cells(ScalarField(mesh, div)) < 1e-9
        assert diag.div_l2 < 1e-9


class TestForcingGuard:
    @staticmethod
    def step_with_nan_forcing(wall):
        # one NaN on an interior face, or on a wall face, of the x-forcing
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (8, 8))
        fs = mesh.faces[0]
        face = np.setdiff1d(np.arange(fs.count), fs.interior_idx)[0] \
            if wall else fs.interior_idx[0]

        def forcing(mesh, t):
            arrays = [np.array(a, dtype=float)
                      for a in problem.forcing(mesh, t)]
            arrays[0][face] = np.nan
            return arrays

        cfg = SchemeConfig(dt=0.01, t_end=0.01)
        state = initialize(mesh, problem)
        return step(SaddleSolver(mesh), state, cfg,
                    (state.rho.min(), state.rho.max()), forcing=forcing)

    def test_non_finite_interior_forcing_rejected(self):
        with pytest.raises(InvariantViolation,
                           match="forcing is not finite at t=0.01"):
            self.step_with_nan_forcing(wall=False)

    def test_wall_forcing_ignored(self):
        _, diag = self.step_with_nan_forcing(wall=True)
        assert diag.div_l2 < 1e-9
        assert math.isfinite(diag.ke_work)


class TestMassBalances:
    def test_dual_mass_balance_over_steps(self):
        problem = get_preset("gyre")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.01, t_end=0.03)
        result = run(mesh, problem, cfg)
        for d in result.diagnostics:
            assert d.mass_dual_resid < 1e-11
            assert d.kinetic_resid < 1e-9
            assert d.kinetic_remainder_max <= 0.0

    def test_total_mass_constant(self):
        problem = get_preset("rotating-patch")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.01, t_end=0.05)
        result = run(mesh, problem, cfg)
        masses = [d.mass for d in result.diagnostics]
        for m in masses:
            assert m == pytest.approx(masses[0], rel=1e-12)


class TestInitialize:
    def test_rejects_out_of_bounds_density(self):
        problem = get_preset("gyre")
        # tamper with the declared admissible interval
        object.__setattr__(problem, "rho_bounds", (1.2, 1.3))
        with pytest.raises(ValueError, match="violates declared bounds"):
            initialize(mesh16(), problem)

    @pytest.mark.parametrize("field", ["density", "velocity"])
    def test_rejects_non_finite_fields(self, field):
        problem = get_preset("rest")
        nan = lambda x, y: np.full_like(x, np.nan)  # noqa: E731
        if field == "density":
            problem = dataclasses.replace(problem, rho0=nan)
        else:
            problem = dataclasses.replace(problem,
                                          u0=[problem.u0[0], nan])
        with pytest.raises(ValueError, match=f"initial {field} is not finite"):
            initialize(mesh16(), problem)

    @pytest.mark.parametrize("box, cells, name, message", [
        ([[0, 2], [0, 1]], (16, 8), "rotating-patch",
         "mesh box [[0.0, 2.0], [0.0, 1.0]] is not the domain "
         "[[0.0, 1.0], [0.0, 1.0]] of problem 'rotating-patch'"),
        ([[0, 1]] * 3, (3, 3, 3), "gyre",
         "mesh box [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]] is not the domain "
         "[[0.0, 1.0], [0.0, 1.0]] of problem 'gyre'"),
    ], ids=["patch-on-2x1", "gyre-on-3d-mesh"])
    def test_rejects_mesh_off_the_problem_domain(self, monkeypatch, box,
                                                 cells, name, message):
        # the scheme's guarantees hold only on the problem's own box: the
        # run fails as bad input before its first step, not later in a
        # guard or inside the preset
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran on a mesh off the domain")

        monkeypatch.setattr(timestepper, "step", no_step)
        mesh, problem = build_uniform_mesh(box, cells), get_preset(name)
        for start in (initialize, lambda mesh, problem: run(
                mesh, problem, SchemeConfig(dt=0.01, t_end=0.02))):
            with pytest.raises(ValueError) as err:
                start(mesh, problem)
            assert str(err.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_preset_rejects_non_finite_parameter(self, value):
        with pytest.raises(ValueError, match="amplitude"):
            get_preset("gyre", amplitude=value)

    def test_initial_velocity_projected(self):
        problem = get_preset("rotating-patch")
        state = initialize(mesh16(), problem)
        assert state.t == 0.0 and state.index == 0
        div = ops.div_velocity(mesh16(), state.u)
        assert np.abs(div).max() < 1e-12


class TestRunBookkeeping:
    def test_dt_adjusted_to_divide_t_end(self):
        problem = get_preset("rest")
        cfg = SchemeConfig(dt=0.03, t_end=0.1)
        result = run(mesh16(), problem, cfg)
        assert result.n_steps == 4
        assert result.config.dt == pytest.approx(0.025)
        assert result.trajectory.times[-1] == pytest.approx(0.1)

    def test_exact_divisor_unchanged(self):
        problem = get_preset("rest")
        cfg = SchemeConfig(dt=0.05, t_end=0.2)
        result = run(mesh16(), problem, cfg)
        assert result.n_steps == 4
        assert result.config.dt == pytest.approx(0.05)

    def test_store_every_pattern(self):
        problem = get_preset("rest")
        cfg = SchemeConfig(dt=0.02, t_end=0.1, store_every=2)
        result = run(mesh16(), problem, cfg)
        # snapshots: initial, steps 2 and 4 (the last step coincides)
        times = result.trajectory.times
        assert times == pytest.approx([0.0, 0.04, 0.08, 0.1])

    def test_bad_time_parameters_rejected(self):
        problem = get_preset("rest")
        with pytest.raises(ValueError):
            run(mesh16(), problem, SchemeConfig(dt=0.0, t_end=1.0))
        with pytest.raises(ValueError):
            run(mesh16(), problem, SchemeConfig(dt=0.1, t_end=-1.0))

    @pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (0.1, math.nan),
                                           (math.inf, 1.0), (0.1, math.inf)])
    def test_non_finite_time_parameters_rejected(self, dt, t_end):
        with pytest.raises(ValueError, match="finite"):
            run(mesh16(), get_preset("rest"), SchemeConfig(dt=dt, t_end=t_end))

    def test_overflowing_step_count_rejected(self):
        # each value is finite and positive, but t_end / dt is not
        with pytest.raises(ValueError, match="step count"):
            run(mesh16(), get_preset("rest"),
                SchemeConfig(dt=1e-310, t_end=1e10))

    def test_overflowing_transport_scale_rejected(self):
        # the step count is finite, but |K| rho / dt overflows: the run
        # stops before its first solve, whose residual would read NaN
        with pytest.raises(ValueError, match="too small for this mesh"):
            run(mesh16(), get_preset("rotating-patch"),
                SchemeConfig(dt=1e-300, t_end=1.0))
        # the density bounds enter the scale
        assert time_steps(mesh16(), get_preset("rest"),
                          SchemeConfig(dt=1e-150, t_end=2e-150)) == (
                              2, 1e-150)
        with pytest.raises(ValueError, match="too small for this mesh"):
            time_steps(mesh16(), get_preset("rest", density=1e10),
                       SchemeConfig(dt=1e-150, t_end=2e-150))

    @pytest.mark.parametrize("dt", [1e-30, 1e-50, 1e-100, 1e-150])
    def test_tiny_step_runs(self, dt):
        # the smallest steps the transport scale admits: GMRES converges
        # with no LU fallback, whose residual misses the tolerance here,
        # although an Arnoldi direction can come out below eps times its
        # length before orthogonalization
        problem = get_preset("rotating-patch")
        mesh = build_uniform_mesh(problem.domain, (4, 4))
        result = run(mesh, problem, SchemeConfig(dt=dt, t_end=2 * dt))
        assert len(result.diagnostics) == 2
        for d in result.diagnostics:
            assert not d.oseen_fallback
            assert d.div_l2 <= 1e-15

    def test_guard_failure_attaches_partial_result(self):
        problem = get_preset("gyre")
        # an impossible divergence guard trips on the first step
        cfg = SchemeConfig(dt=0.01, t_end=0.05, div_guard=1e-30)
        with pytest.raises(InvariantViolation) as err:
            run(mesh16(), problem, cfg)
        partial = err.value.partial
        assert partial.n_steps == 5
        assert len(partial.diagnostics) == 0
        assert len(partial.trajectory) == 1  # the initial snapshot
        # the guard names the diagnostics column it measured, to which a
        # run's record adds the value, since the step left no diagnostics
        assert err.value.field == "div_l2" in DIAGNOSTICS_FIELDS
        assert err.value.value > 1e-30

    def test_density_guard_names_its_field(self):
        state = initialize(mesh16(), get_preset("rotating-patch"))
        low = state.rho.min()
        with pytest.raises(InvariantViolation) as err:
            step(SaddleSolver(state.rho.mesh), state,
                 SchemeConfig(dt=0.01, t_end=0.01), bounds=(low, low))
        assert err.value.field == "bound_violation" in DIAGNOSTICS_FIELDS
        assert 0.0 < err.value.value <= state.rho.max() - low

    def test_nan_divergence_stops_the_run(self, monkeypatch):
        # a NaN is never within a guard: the NaN divergence of step 2
        # stops the run there, as a value above the guard would
        calls, div_velocity = [], ops.div_velocity

        def nan_on_step_2(mesh, u):
            calls.append(None)  # the initial state's, then one per step
            div = div_velocity(mesh, u)
            return div * math.nan if len(calls) == 3 else div

        monkeypatch.setattr(ops, "div_velocity", nan_on_step_2)
        problem = get_preset("rotating-patch")
        mesh = build_uniform_mesh(problem.domain, (8, 8))
        with pytest.raises(InvariantViolation,
                           match="velocity divergence nan exceeds guard "
                                 "at t=0.02") as err:
            run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.03))
        assert err.value.field == "div_l2"
        assert math.isnan(err.value.value)
        assert len(err.value.partial.diagnostics) == 1


class TestEnergy:
    def test_kinetic_energy_hand_value(self):
        # single interior x-face (control volume 1) on a 2x1 mesh of unit
        # cells: KE = 0.5 * dvol * rho_dual * u^2
        from macflow.grid import build_mesh
        mesh = build_mesh([[0.0, 2.0], [0.0, 1.0]],
                          [[0.0, 1.0, 2.0], [0.0, 1.0]])
        rho = ScalarField(mesh, np.array([2.0, 4.0]))
        comps = [np.zeros(3), np.zeros(4)]
        comps[0][1] = 3.0
        u = VelocityField(mesh, comps)
        # dual density at the face: (2 + 4)/2 = 3; KE = .5 * 1 * 3 * 9
        assert kinetic_energy(mesh, ops.dual_density(mesh, rho), u) == \
            pytest.approx(13.5)

    def test_energy_ledger_finite_and_consistent(self):
        problem = get_preset("gyre")
        mesh = mesh16()
        cfg = SchemeConfig(dt=0.01, t_end=0.05)
        result = run(mesh, problem, cfg)
        ke_prev = kinetic_energy(
            mesh, ops.dual_density(mesh, result.trajectory.rho[0]),
            result.trajectory.u[0])
        for d in result.diagnostics:
            assert math.isfinite(d.kinetic_energy)
            assert d.kinetic_energy >= 0.0
            assert d.ke_dissipation >= 0.0
            assert d.ke_numerical >= 0.0
            # per-step ledger: KE_new - KE_old + dissipation + numerical
            # loss equals the forcing work, up to solver tolerance
            balance = (d.kinetic_energy - ke_prev + d.ke_dissipation
                       + d.ke_numerical - d.ke_work)
            scale = max(1.0, abs(d.kinetic_energy), abs(d.ke_work))
            assert abs(balance) < 1e-8 * scale
            ke_prev = d.kinetic_energy


class TestRefinementSanity:
    def test_error_decreases_16_to_32(self):
        problem = get_preset("gyre")
        errs = []
        for n, dtv in ((16, 0.02), (32, 0.01)):
            mesh = build_uniform_mesh(problem.domain, (n, n))
            result = run(mesh, problem,
                         SchemeConfig(dt=dtv, t_end=0.1))
            t = result.trajectory.times[-1]
            from macflow.fields import fortin_interpolate, norm_lp_dual
            u_ref = fortin_interpolate(mesh, problem.u_exact(t))
            diff = VelocityField(mesh, [
                a - b for a, b in zip(result.trajectory.u[-1].components,
                                      u_ref.components)])
            errs.append(norm_lp_dual(diff, 2))
        assert errs[1] < 0.6 * errs[0]
