"""Transport and saddle solvers against dense oracles and structure checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from macflow.grid import build_mesh, build_uniform_mesh
from macflow.fields import ScalarField, VelocityField, norm_l2_cells
from macflow import operators as ops
from macflow.linsolve import (PINNED_CELL, SaddleSolver, SolverFailure,
                              assemble_divergence, assemble_gradient,
                              assemble_oseen, assemble_transport, pin_row,
                              solve_oseen, solve_transport)
from macflow.presets import get_preset
from macflow.timestepper import SchemeConfig, initialize, run, step
from macflow.verify import project_divergence_free

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
        a = system.momentum.toarray()
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

    def test_matches_dense_solve(self):
        # full pipeline vs a dense numpy solve with the same pin and the
        # same zero-mean shift, on a mesh small enough to invert densely
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

        dense = system.full_matrix().toarray()
        rhs = system.full_rhs()
        sol = np.linalg.solve(dense, rhs)
        p_dense = sol[system.n_u:]
        p_dense = p_dense - (mesh.cell_volume @ p_dense) / mesh.volume

        u, p, _ = solve_oseen(system, method="direct")
        np.testing.assert_allclose(u.pack_interior(), sol[:system.n_u],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p.values, p_dense, rtol=1e-10,
                                   atol=1e-12)

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
        u_d, p_d, _ = solve_oseen(system, method="direct")
        u_g, p_g, rep = solve_oseen(system, method="gmres", tol=1e-10)
        assert rep.method == "gmres"
        assert not rep.fallback
        np.testing.assert_allclose(u_g.pack_interior(), u_d.pack_interior(),
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(p_g.values, p_d.values, rtol=1e-8,
                                   atol=1e-10)

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

    def test_unknown_method_rejected(self, mesh2_uniform):
        rho = ScalarField.constant(mesh2_uniform, 1.0)
        system = assemble_oseen(mesh2_uniform, 0.1, rho, rho,
                                VelocityField.zeros(mesh2_uniform))
        with pytest.raises(ValueError):
            solve_oseen(system, method="bogus")

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
        saddle = SaddleSolver(any_mesh)
        system = random_saddle(any_mesh, seed=20)
        tol = 1e-10
        u1, p1, rep1 = solve_oseen(system, tol=tol, saddle=saddle)
        first = saddle.solution.copy()
        u2, p2, rep2 = solve_oseen(system, tol=tol, saddle=saddle)
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
        system = random_saddle(mesh2_uniform, seed=21)
        assert SaddleSolver(mesh2_uniform).solution is None
        _, _, fresh = solve_oseen(system)
        saddle = SaddleSolver(mesh2_uniform)
        _, _, first = solve_oseen(system, saddle=saddle)
        assert first.iterations == fresh.iterations > 2

    def test_mesh_constant_blocks_shared(self, mesh2_graded):
        saddle = SaddleSolver(mesh2_graded)
        rho = ScalarField.constant(mesh2_graded, 1.0)
        u = VelocityField.zeros(mesh2_graded)
        a = assemble_oseen(mesh2_graded, 0.1, rho, rho, u, saddle=saddle)
        b = assemble_oseen(mesh2_graded, 0.2, rho, rho, u, saddle=saddle)
        assert a.grad is b.grad is saddle.grad
        pattern = saddle.pattern
        for system in (a, b):
            assert np.shares_memory(system.matrix.indptr, pattern.indptr)
            assert np.shares_memory(system.matrix.indices, pattern.indices)
        fresh = assemble_oseen(mesh2_graded, 0.2, rho, rho, u)
        assert (fresh.momentum != b.momentum).nnz == 0

    def test_other_mesh_rejected(self, mesh2_uniform, mesh2_graded):
        saddle = SaddleSolver(mesh2_uniform)
        system = random_saddle(mesh2_graded, seed=19)
        with pytest.raises(ValueError, match="another mesh"):
            solve_oseen(system, saddle=saddle)
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


class TestProjection:
    def test_projection_is_divergence_free_and_idempotent(self,
                                                          mesh2_graded):
        mesh = mesh2_graded
        rng = np.random.default_rng(17)
        u = random_velocity(mesh, rng)
        pu = project_divergence_free(mesh, u)
        assert np.abs(ops.div_velocity(mesh, pu)).max() < 1e-9
        ppu = project_divergence_free(mesh, pu)
        np.testing.assert_allclose(ppu.pack_interior(), pu.pack_interior(),
                                   rtol=1e-9, atol=1e-11)
