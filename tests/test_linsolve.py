"""Transport and saddle solvers against dense oracles and structure checks."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from macflow.grid import build_mesh, build_uniform_mesh
from macflow.fields import ScalarField, VelocityField, norm_l2_cells
from macflow import linsolve, operators as ops
from macflow.linsolve import (PINNED_CELL, SaddleSolver, SolverFailure,
                              assemble_divergence, assemble_gradient,
                              assemble_oseen, assemble_transport,
                              checked_residual, pin_row, solve_oseen,
                              solve_transport)
from macflow.presets import get_preset
from macflow.timestepper import SchemeConfig, initialize, run, step
from macflow.verify import collect_diagnostics, project_divergence_free

from conftest import graded_mesh


def random_velocity(mesh, rng):
    return VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                for i in range(mesh.dim)])


def random_saddle(mesh, seed, dt=0.05):
    """One-step saddle system from random density, velocity and forcing."""
    rng = np.random.default_rng(seed)
    rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
    u_old = random_velocity(mesh, rng)
    rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
    forcing = [rng.standard_normal(mesh.faces[i].count)
               for i in range(mesh.dim)]
    return assemble_oseen(mesh, dt, rho_new, rho_old, u_old,
                          forcing=forcing)


def stream_function_velocity(mesh, seed=0):
    """Exactly divergence-free velocity from a random vertex stream
    function vanishing on the boundary (2D only)."""
    rng = np.random.default_rng(seed)
    nx, ny = mesh.cells
    psi = np.zeros((nx + 1, ny + 1))
    psi[1:nx, 1:ny] = rng.standard_normal((nx - 1, ny - 1))
    dx, dy = mesh.spacings
    ux = (psi[:, 1:] - psi[:, :-1]) / dy
    uy = -(psi[1:, :] - psi[:-1, :]) / dx[:, None]
    return VelocityField(mesh, [ux.ravel(), uy.ravel()])


# -- transport ------------------------------------------------------------------

class TestTransport:
    def test_zero_velocity_is_identity(self, any_mesh):
        rng = np.random.default_rng(0)
        rho = ScalarField(any_mesh, rng.uniform(1, 2, any_mesh.n_cells))
        rho_new, _ = solve_transport(any_mesh, 0.1, rho,
                                     VelocityField.zeros(any_mesh))
        np.testing.assert_allclose(rho_new.values, rho.values, rtol=1e-13)

    def test_constant_density_preserved_divfree(self, mesh2_graded):
        # divergence-free advection leaves constants exactly invariant
        u = stream_function_velocity(mesh2_graded, seed=1)
        assert np.abs(ops.div_velocity(mesh2_graded, u)).max() < 1e-12
        rho = ScalarField.constant(mesh2_graded, 1.7)
        rho_new, _ = solve_transport(mesh2_graded, 0.05, rho, u)
        np.testing.assert_allclose(rho_new.values, 1.7, rtol=1e-12)

    def test_column_advection_dense_oracle(self):
        # 8 cells in a row, constant rightward velocity: the matrix is
        # lower bidiagonal; build it densely by hand and compare solves
        n = 8
        mesh = build_mesh([[0.0, float(n)], [0.0, 1.0]],
                          [np.arange(n + 1, dtype=float), [0.0, 1.0]])
        dt = 0.3
        vel = 1.25
        comps = [np.full(mesh.faces[0].count, vel), np.zeros(2 * n)]
        u = VelocityField(mesh, comps)  # walls zeroed automatically
        rng = np.random.default_rng(2)
        rho = ScalarField(mesh, rng.uniform(1.0, 2.0, n))

        dense = np.zeros((n, n))
        for k in range(n):
            dense[k, k] = 1.0 / dt  # |K| = 1
            # outflow through the right face (upwind = this cell),
            # except the last cell whose right face is a wall
            if k < n - 1:
                dense[k, k] += vel
            # inflow through the left face (upwind = left neighbour)
            if k > 0:
                dense[k, k - 1] -= vel
        expected = np.linalg.solve(dense, rho.values / dt)

        rho_new, _ = solve_transport(mesh, dt, rho, u)
        np.testing.assert_allclose(rho_new.values, expected, rtol=1e-12)

    def test_matrix_sign_pattern(self, mesh2_graded):
        # M-matrix shape: positive diagonal, nonpositive off-diagonal
        u = stream_function_velocity(mesh2_graded, seed=3)
        mat, _ = assemble_transport(mesh2_graded, 0.1,
                                    ScalarField.constant(mesh2_graded, 1.0),
                                    u)
        dense = mat.toarray()
        assert np.all(np.diag(dense) > 0)
        off = dense - np.diag(np.diag(dense))
        assert np.all(off <= 1e-15)

    def test_row_and_column_sums_divfree(self, mesh2_graded):
        # for divergence-free u the flux part has zero row and column
        # sums: rows sum to |K|/dt and so do columns
        mesh = mesh2_graded
        dt = 0.07
        u = stream_function_velocity(mesh, seed=4)
        mat, _ = assemble_transport(mesh, dt,
                                    ScalarField.constant(mesh, 1.0), u)
        dense = mat.toarray()
        np.testing.assert_allclose(dense.sum(axis=1),
                                   mesh.cell_volume / dt, rtol=1e-10)
        np.testing.assert_allclose(dense.sum(axis=0),
                                   mesh.cell_volume / dt, rtol=1e-10)

    def test_columns_diagonally_dominant_any_velocity(self, any_mesh):
        # what linsolve.factor relies on to factor the transport without
        # pivoting: for any velocity, divergence-free or not, the
        # off-diagonal entries are nonpositive and every column sums to
        # |K|/dt
        mesh = any_mesh
        dt = 0.07
        rng = np.random.default_rng(11)
        u = VelocityField(mesh, [rng.standard_normal(fs.count)
                                 for fs in mesh.faces])
        mat, _ = assemble_transport(mesh, dt,
                                    ScalarField.constant(mesh, 1.0), u)
        dense = mat.toarray()
        assert not np.allclose(dense.sum(axis=1), mesh.cell_volume / dt)
        assert np.all(dense - np.diag(np.diag(dense)) <= 0.0)
        np.testing.assert_allclose(dense.sum(axis=0),
                                   mesh.cell_volume / dt, rtol=1e-12)

    def test_max_principle_divfree(self, mesh2_graded):
        mesh = mesh2_graded
        u = stream_function_velocity(mesh, seed=5)
        rng = np.random.default_rng(6)
        rho = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        cur = rho
        for _ in range(5):
            cur, _ = solve_transport(mesh, 0.05, cur, u)
            assert cur.min() >= rho.min() - 1e-12
            assert cur.max() <= rho.max() + 1e-12

    def test_l2_contraction_divfree(self, mesh2_graded):
        mesh = mesh2_graded
        u = stream_function_velocity(mesh, seed=7)
        rng = np.random.default_rng(8)
        rho = ScalarField(mesh, rng.standard_normal(mesh.n_cells))
        prev = norm_l2_cells(rho)
        cur = rho
        for _ in range(5):
            cur, _ = solve_transport(mesh, 0.05, cur, u)
            now = norm_l2_cells(cur)
            assert now <= prev * (1 + 1e-12)
            prev = now

    def test_no_bound_enforcement_in_solver(self):
        # one row of cells with uniform rightward velocity: the leftmost
        # cell drains and falls below the initial minimum.  The solver
        # must return that solution rather than clip it; bound guarding
        # belongs to the time loop, which knows the problem's invariants.
        n = 8
        mesh = build_mesh([[0.0, float(n)], [0.0, 1.0]],
                          [np.arange(n + 1, dtype=float), [0.0, 1.0]])
        comps = [np.full(mesh.faces[0].count, 1.0), np.zeros(2 * n)]
        u = VelocityField(mesh, comps)
        rho = ScalarField.constant(mesh, 1.0)
        rho_new, _ = solve_transport(mesh, 0.5, rho, u)
        assert rho_new.min() < 1.0 - 1e-3  # genuinely below the old min
        assert rho_new.integral() == pytest.approx(rho.integral(),
                                                   rel=1e-12)

    def test_mass_conserved_any_velocity(self, any_mesh):
        # impervious walls conserve total mass even for non-solenoidal u
        rng = np.random.default_rng(9)
        rho = ScalarField(any_mesh, rng.uniform(1, 2, any_mesh.n_cells))
        u = random_velocity(any_mesh, rng)
        rho_new, _ = solve_transport(any_mesh, 0.02, rho, u)
        assert rho_new.integral() == pytest.approx(rho.integral(),
                                                   rel=1e-12)


def test_checked_residual():
    # one residual check for every solve: relative to the right-hand
    # side, absolute when that vanishes, and a NaN never passes
    mat = sp.identity(3, format="csr")
    rhs = np.array([3.0, 0.0, 4.0])
    off = rhs + np.array([0.0, 5e-3, 0.0])
    assert checked_residual(mat, rhs, rhs, 0.0, "solve") == 0.0
    assert checked_residual(mat, off, rhs, 1e-3, "solve") == pytest.approx(
        1e-3, rel=1e-12)
    with pytest.raises(SolverFailure,
                       match="transport solve residual 1.000e-03 exceeds"):
        checked_residual(mat, off, rhs, 1e-4, "transport solve")
    assert checked_residual(mat, np.full(3, 1e-20), np.zeros(3), 1e-12,
                            "solve") == pytest.approx(np.sqrt(3) * 1e-20)
    with pytest.raises(SolverFailure):
        checked_residual(mat, np.full(3, np.nan), rhs, 1.0, "solve")


# -- saddle blocks ----------------------------------------------------------------

class TestSaddleBlocks:
    def test_gradient_is_minus_divergence_transpose(self, any_mesh):
        grad = assemble_gradient(any_mesh)
        div = assemble_divergence(any_mesh)
        diff = (grad + div.T).tocoo()
        scale = max(abs(grad).max(), 1.0)
        worst = np.abs(diff.data).max() if diff.nnz else 0.0
        assert worst <= 1e-13 * scale

    def test_divergence_block_matches_operator(self, any_mesh):
        rng = np.random.default_rng(10)
        u = random_velocity(any_mesh, rng)
        div_vec = assemble_divergence(any_mesh) @ u.pack_interior()
        expect = any_mesh.cell_volume * ops.div_velocity(any_mesh, u)
        np.testing.assert_allclose(div_vec, expect, rtol=1e-12, atol=1e-13)

    def test_divergence_columns_sum_to_zero(self, any_mesh):
        # each interior face appears in exactly two cells with opposite
        # signs, so the constant pressure is always in the left nullspace
        div = assemble_divergence(any_mesh)
        col_sums = np.asarray(div.sum(axis=0)).ravel()
        assert np.abs(col_sums).max() < 1e-12

    def test_symmetric_part_positive_definite(self, mesh2_graded):
        # momentum block = mass/dt + diffusion + convection, where the
        # convection's symmetric part is the dual mass divergence; the
        # whole symmetric part equals mass-dual/dt-average + diffusion
        mesh = mesh2_graded
        rng = np.random.default_rng(11)
        dt = 0.05
        rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u_old = random_velocity(mesh, rng)
        rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
        system = assemble_oseen(mesh, dt, rho_new, rho_old, u_old)
        a = system.matrix[:system.n_u, :system.n_u].toarray()
        sym = 0.5 * (a + a.T)
        eigs = np.linalg.eigvalsh(sym)
        assert eigs.min() > 0

        # identity: sym(A) = diag(dvol*(rho_new+rho_old)/(2 dt)) + L
        rho_d_new = ops.dual_density(mesh, rho_new)
        rho_d_old = ops.dual_density(mesh, rho_old)
        blocks = []
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            idx = fs.interior_idx
            d = fs.dvol[idx] * (rho_d_new[i][idx]
                                + rho_d_old[i][idx]) / (2 * dt)
            blocks.append(sp.diags(d) + ops.diffusion_matrix(mesh, i))
        expected = sp.block_diag(blocks).toarray()
        np.testing.assert_allclose(sym, expected, rtol=1e-10, atol=1e-12)

    @staticmethod
    def check_pinned_matrix_matches_twins(mesh, seed):
        # the pinned matrix filled on the once-per-mesh pattern equals,
        # bit for bit, one built from the assembled operator twins with
        # the blocks, stacking and pin of the direct construction
        rng = np.random.default_rng(seed)
        dt = 0.05
        rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u_old = random_velocity(mesh, rng)
        rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
        mat = assemble_oseen(mesh, dt, rho_new, rho_old,
                             u_old).full_matrix()

        fluxes = ops.upwind_face_flux(mesh, rho_new, u_old)
        assert min(f.min() for f in fluxes) < 0 < max(f.max() for f in fluxes)
        rho_d = ops.dual_density(mesh, rho_new)
        blocks = []
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            idx = fs.interior_idx
            blocks.append((sp.diags(fs.dvol[idx] * rho_d[i][idx] / dt)
                           + ops.diffusion_matrix(mesh, i)
                           + ops.convection_matrix(mesh, fluxes, i)).tocsr())
        saddle = sp.bmat([[sp.block_diag(blocks, format="csr"),
                           assemble_gradient(mesh)],
                          [assemble_divergence(mesh), None]], format="csr")
        expected = pin_row(saddle, saddle.shape[0] - mesh.n_cells
                           + PINNED_CELL)
        assert mat.shape == expected.shape
        np.testing.assert_array_equal(mat.indptr, expected.indptr)
        np.testing.assert_array_equal(mat.indices, expected.indices)
        assert mat.data.tobytes() == expected.data.tobytes()

    def test_pinned_matrix_matches_twins(self, any_mesh):
        self.check_pinned_matrix_matches_twins(any_mesh, seed=18)

    @pytest.mark.parametrize("mesh", [
        build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4)),
        graded_mesh((1, 2, 3), seed=7),
        build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (32, 32)),
    ], ids=["1x4", "graded-1x2x3", "32x32"])
    def test_pinned_matrix_matches_twins_more_meshes(self, mesh):
        self.check_pinned_matrix_matches_twins(mesh, seed=19)


# -- saddle solves ----------------------------------------------------------------

class TestOseenSolve:
    def test_zero_data_zero_solution(self, mesh2_uniform):
        mesh = mesh2_uniform
        rho = ScalarField.constant(mesh, 1.0)
        system = assemble_oseen(mesh, 0.1, rho, rho,
                                VelocityField.zeros(mesh))
        u, p, _ = solve_oseen(system)
        for c in u.components:
            assert np.abs(c).max() < 1e-14
        assert np.abs(p.values).max() < 1e-14

    @staticmethod
    def dense_solution(system):
        """Velocity unknowns and zero-mean pressure from a dense numpy
        solve with the same pin and the same zero-mean shift."""
        mesh = system.mesh
        sol = np.linalg.solve(system.full_matrix().toarray(),
                              system.full_rhs())
        p = sol[system.n_u:]
        return sol[:system.n_u], p - (mesh.cell_volume @ p) / mesh.volume

    def test_matches_dense_solve(self):
        # full pipeline vs a dense numpy solve, on a mesh small enough to
        # invert densely
        mesh = graded_mesh((6, 5), seed=12)
        rng = np.random.default_rng(13)
        dt = 0.04
        rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u_old = random_velocity(mesh, rng)
        rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
        forcing = [rng.standard_normal(mesh.faces[i].count)
                   for i in range(mesh.dim)]
        system = assemble_oseen(mesh, dt, rho_new, rho_old, u_old,
                                forcing=forcing)
        u_dense, p_dense = self.dense_solution(system)

        u, p, _ = solve_oseen(system)
        np.testing.assert_allclose(u.pack_interior(), u_dense,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p.values, p_dense, rtol=1e-10,
                                   atol=1e-12)

    @staticmethod
    def check_fallback_matches_dense(mesh, monkeypatch):
        # a Krylov solve capped at one iteration cannot converge: the
        # pivoting LU produces the solution, reported as the fallback
        monkeypatch.setattr(linsolve, "GMRES_RESTART", 1)
        monkeypatch.setattr(linsolve, "GMRES_MAXITER", 1)
        system = random_saddle(mesh, seed=25)
        u_dense, p_dense = TestOseenSolve.dense_solution(system)
        u, p, rep = solve_oseen(system)
        assert rep.fallback and rep.method == "direct"
        np.testing.assert_allclose(u.pack_interior(), u_dense,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p.values, p_dense, rtol=1e-10,
                                   atol=1e-12)

    def test_fallback_matches_dense(self, any_mesh, monkeypatch):
        self.check_fallback_matches_dense(any_mesh, monkeypatch)

    def test_fallback_matches_dense_single_column(self, monkeypatch):
        mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4))
        self.check_fallback_matches_dense(mesh, monkeypatch)

    def test_solution_is_divergence_free(self, any_mesh):
        rng = np.random.default_rng(14)
        dt = 0.05
        rho_old = ScalarField(any_mesh,
                              rng.uniform(1.0, 2.0, any_mesh.n_cells))
        u_old = random_velocity(any_mesh, rng)
        rho_new, _ = solve_transport(any_mesh, dt, rho_old, u_old)
        system = assemble_oseen(any_mesh, dt, rho_new, rho_old, u_old)
        u, _, _ = solve_oseen(system)
        div = ops.div_velocity(any_mesh, u)
        assert norm_l2_cells(ScalarField(any_mesh, div)) < 1e-10

    @staticmethod
    def check_gmres_matches_direct(mesh):
        system = random_saddle(mesh, seed=15)
        sol = spla.splu(system.full_matrix().tocsc()).solve(
            system.full_rhs())
        p_d = sol[system.n_u:]
        p_d = p_d - (mesh.cell_volume @ p_d) / mesh.volume
        u_g, p_g, rep = solve_oseen(system, tol=1e-10)
        assert rep.method == "gmres"
        assert not rep.fallback
        np.testing.assert_allclose(u_g.pack_interior(), sol[:system.n_u],
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(p_g.values, p_d, rtol=1e-8, atol=1e-10)

    def test_gmres_matches_direct(self, any_mesh):
        self.check_gmres_matches_direct(any_mesh)

    def test_gmres_matches_direct_single_column(self):
        # one cell across: the x-velocity has no interior unknowns
        mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4))
        assert mesh.faces[0].n_interior == 0
        self.check_gmres_matches_direct(mesh)

    @pytest.mark.parametrize("cells", [16, 32])
    def test_gmres_iterations_bounded(self, cells):
        # the block preconditioner keeps the count flat under refinement;
        # a degraded preconditioner shows up here as a slow path
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (cells, cells))
        cfg = SchemeConfig(dt=0.005, t_end=0.005)
        _, diag = step(mesh, initialize(mesh, problem), cfg,
                       forcing=problem.forcing)
        assert diag.oseen_method == "gmres" and not diag.oseen_fallback
        assert 0 < diag.oseen_iterations <= 25

    def test_pressure_mean_shift_recorded(self, mesh2_graded):
        mesh = mesh2_graded
        rng = np.random.default_rng(16)
        dt = 0.05
        rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u_old = random_velocity(mesh, rng)
        rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
        forcing = [rng.standard_normal(mesh.faces[i].count)
                   for i in range(mesh.dim)]
        system = assemble_oseen(mesh, dt, rho_new, rho_old, u_old,
                                forcing=forcing)
        _, p, _ = solve_oseen(system)
        assert abs(mesh.cell_volume @ p.values) < 1e-10
        assert p.zero_mean


class TestSaddleSolver:
    def test_refresh_rule(self, mesh2_uniform):
        saddle = SaddleSolver(mesh2_uniform)
        system = random_saddle(mesh2_uniform, seed=18)

        def factored(system):
            return saddle.preconditioner(system)[1]

        assert factored(system)      # first use
        saddle.record(10, False)     # the base count
        assert not factored(system)
        saddle.record(15, False)     # 1.5 times the base: kept
        assert not factored(system)
        saddle.record(16, False)     # above it: factored again
        assert factored(system)
        saddle.record(16, False)     # the new base
        saddle.record(24, False)
        assert not factored(system)
        saddle.record(3, True)       # a fallback: factored again
        assert factored(system)
        saddle.record(3, False)
        assert not factored(system)
        assert factored(random_saddle(mesh2_uniform, seed=18, dt=0.1))

    def test_zero_iterations_set_no_base(self, mesh2_uniform):
        # a warm-started solve that needs no iteration must not become the
        # base count, or every later solve would factor again
        saddle = SaddleSolver(mesh2_uniform)
        system = random_saddle(mesh2_uniform, seed=18)
        assert saddle.preconditioner(system)[1]
        saddle.record(0, False)
        assert not saddle.preconditioner(system)[1]
        saddle.record(10, False)     # the first nonzero count is the base
        assert not saddle.preconditioner(system)[1]
        saddle.record(15, False)
        assert not saddle.preconditioner(system)[1]
        saddle.record(16, False)
        assert saddle.preconditioner(system)[1]

    def test_warm_start_from_last_solution(self, any_mesh):
        # the second solve of one system starts from the first one's
        # solution: at most 2 iterations, and the same solution within tol
        system = random_saddle(any_mesh, seed=20)
        saddle = system.saddle
        tol = 1e-10
        u1, p1, rep1 = solve_oseen(system, tol=tol)
        first = saddle.solution.copy()
        u2, p2, rep2 = solve_oseen(system, tol=tol)
        assert rep1.iterations > 2 and not rep1.fallback
        assert rep2.iterations <= 2 and not rep2.fallback
        assert not rep2.precond_refresh
        assert (np.linalg.norm(saddle.solution - first)
                <= tol * np.linalg.norm(first))
        np.testing.assert_allclose(u2.pack_interior(), u1.pack_interior(),
                                   rtol=0, atol=tol * np.abs(first).max())
        np.testing.assert_allclose(p2.values, p1.values, rtol=0,
                                   atol=tol * np.abs(first).max())

    def test_fresh_solver_starts_from_zero(self, mesh2_uniform):
        # a system assembled without a solver gets a fresh one, whose
        # first solve starts from zero and factors
        fresh = random_saddle(mesh2_uniform, seed=21)
        assert fresh.saddle.solution is None
        _, _, first = solve_oseen(fresh)
        assert fresh.saddle.solution is not None
        zero = random_saddle(mesh2_uniform, seed=21)
        zero.saddle.solution = np.zeros(zero.n_u + zero.n_p)
        _, _, from_zero = solve_oseen(zero)
        assert first.precond_refresh and from_zero.precond_refresh
        assert first.iterations == from_zero.iterations > 2

    def test_mesh_constant_blocks_shared(self, mesh2_graded):
        saddle = SaddleSolver(mesh2_graded)
        rho = ScalarField.constant(mesh2_graded, 1.0)
        u = VelocityField.zeros(mesh2_graded)
        a = assemble_oseen(mesh2_graded, 0.1, rho, rho, u, saddle=saddle)
        b = assemble_oseen(mesh2_graded, 0.2, rho, rho, u, saddle=saddle)
        assert a.saddle is b.saddle is saddle
        assert a.grad is b.grad is saddle.grad
        pattern = saddle.pattern
        for system in (a, b):
            assert np.shares_memory(system.matrix.indptr, pattern.indptr)
            assert np.shares_memory(system.matrix.indices, pattern.indices)
        fresh = assemble_oseen(mesh2_graded, 0.2, rho, rho, u)
        assert fresh.saddle is not saddle
        n_u = b.n_u
        assert (fresh.matrix[:n_u, :n_u] != b.matrix[:n_u, :n_u]).nnz == 0

    def test_other_mesh_rejected(self, mesh2_uniform, mesh2_graded):
        saddle = SaddleSolver(mesh2_uniform)
        rho = ScalarField.constant(mesh2_graded, 1.0)
        with pytest.raises(ValueError, match="another mesh"):
            assemble_oseen(mesh2_graded, 0.1, rho, rho,
                           VelocityField.zeros(mesh2_graded), saddle=saddle)

    def test_preconditioner_factors_reused(self):
        # a run keeps its factors while the iteration count holds, and
        # every step stays as tight as with fresh factors
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (32, 32))
        result = run(mesh, problem, SchemeConfig(dt=0.005, t_end=0.1))
        diags = result.diagnostics
        assert len(diags) == 20
        assert diags[0].precond_refresh
        assert sum(d.precond_refresh for d in diags) == 1
        for d in diags:
            assert d.oseen_method == "gmres" and not d.oseen_fallback
            assert 0 < d.oseen_iterations <= 25
            assert d.div_l2 <= 1e-13
            assert d.mass_dual_resid <= 1e-13
            assert d.kinetic_resid <= 1e-13


def patch_run(ratio, dt, steps=5):
    """``rotating-patch`` at 32^2 with density ratio ``ratio``."""
    problem = get_preset("rotating-patch", amplitude=ratio - 1.0)
    mesh = build_uniform_mesh(problem.domain, (32, 32))
    return run(mesh, problem, SchemeConfig(dt=dt, t_end=steps * dt))


class TestDensityRatioSweep:
    # the step's identities must hold at a large density ratio and a
    # large time step too, not only at the ratio 1.5 and small dt of the
    # other gates
    @pytest.mark.parametrize("dt", [0.01, 1.0])
    @pytest.mark.parametrize("ratio", [1.5, 10, 100, 1000])
    def test_sweep_point(self, ratio, dt):
        result = patch_run(ratio, dt)
        record = collect_diagnostics(result)
        counts = [d.oseen_iterations for d in result.diagnostics]
        print(f"ratio {ratio:g}, dt {dt:g}: Krylov iterations "
              f"{sum(counts)} {counts}, worst divergence "
              f"{record.worst_div:.3e}")
        assert not any(d.oseen_fallback for d in result.diagnostics)
        assert record.worst_bound_violation == 0.0
        assert record.rho_l2_monotone
        assert record.worst_div <= 1e-9

    def test_refresh_rule_saves_iterations(self, monkeypatch):
        # at ratio 1000 and dt = 1 the factors go stale within 5 steps:
        # the rule factors again and the run takes fewer iterations than
        # with the first step's factors kept throughout
        def totals():
            diags = patch_run(1000, 1.0).diagnostics
            return (sum(d.oseen_iterations for d in diags),
                    sum(d.precond_refresh for d in diags))

        with_rule, factored = totals()
        monkeypatch.setattr(linsolve, "REFRESH_GROWTH", math.inf)
        without_rule, factored_once = totals()
        print(f"Krylov iterations {with_rule} with the refresh rule, "
              f"{without_rule} without")
        assert factored == 2 and factored_once == 1
        assert with_rule < without_rule


class TestProjection:
    def test_projection_is_divergence_free_and_idempotent(self,
                                                          mesh2_graded):
        mesh = mesh2_graded
        rng = np.random.default_rng(17)
        u = random_velocity(mesh, rng)
        [pu] = project_divergence_free(mesh, [u])
        assert np.abs(ops.div_velocity(mesh, pu)).max() < 1e-9
        [ppu] = project_divergence_free(mesh, [pu])
        np.testing.assert_allclose(ppu.pack_interior(), pu.pack_interior(),
                                   rtol=1e-9, atol=1e-11)

    def test_projection_of_a_sequence_is_per_entry(self, mesh3_graded):
        # one factor serves every entry; each entry projects as on its own
        rng = np.random.default_rng(26)
        u = [random_velocity(mesh3_graded, rng) for _ in range(3)]
        together = project_divergence_free(mesh3_graded, u)
        assert len(together) == 3
        for a, b in zip(u, together):
            [alone] = project_divergence_free(mesh3_graded, [a])
            for x, y in zip(alone.components, b.components):
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("cells", [(7, 5), (3, 4, 2)],
                             ids=["graded-7x5", "graded-3x4x2"])
    def test_projection_matches_dense_kkt(self, cells):
        # the closest divergence-free field in the dual-volume metric
        # solves [[diag(dvol), G], [D, 0]] [v, p] = [dvol u, 0], pinned
        # like the step; a projection in another metric fails here
        mesh = graded_mesh(cells, seed=23)
        u = random_velocity(mesh, np.random.default_rng(24))
        dvol = mesh.pack_interior([fs.dvol for fs in mesh.faces])
        n_u, n_p = dvol.size, mesh.n_cells
        kkt = np.block([[np.diag(dvol), assemble_gradient(mesh).toarray()],
                        [assemble_divergence(mesh).toarray(),
                         np.zeros((n_p, n_p))]])
        kkt[n_u + PINNED_CELL] = 0.0
        kkt[n_u + PINNED_CELL, n_u + PINNED_CELL] = 1.0
        rhs = np.concatenate([dvol * u.pack_interior(), np.zeros(n_p)])
        expected = np.linalg.solve(kkt, rhs)[:n_u]
        [got] = project_divergence_free(mesh, [u])
        np.testing.assert_allclose(got.pack_interior(), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
