"""Transport and saddle solvers against dense oracles and structure checks."""

import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from macflow.cli import (build_mesh_from_config, build_problem_from_config,
                         build_scheme_config, load_config)
from macflow.grid import build_mesh, build_uniform_mesh
from macflow.fields import ScalarField, VelocityField, norm_l2_cells
from macflow import linsolve, operators as ops
from macflow.linsolve import (GMRES_CYCLES, GMRES_RESTART, JACOBI_MAXITER,
                              PINNED_CELL, SaddleSolver,
                              SolverFailure, assemble_divergence,
                              assemble_gradient, assemble_oseen,
                              assemble_transport, checked_residual,
                              component_solver, factor, gmres,
                              jacobi_sweeps, pin_row, solve_oseen,
                              solve_transport)
from macflow.presets import ProblemSetup, get_preset
from macflow.timestepper import SchemeConfig, initialize, run, step
from macflow.verify import project_divergence_free

from conftest import graded_mesh

DEMO_CONFIGS = pathlib.Path(__file__).parents[1] / "demos" / "configs"


def random_velocity(mesh, rng):
    return VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                for i in range(mesh.dim)])


def random_saddle(mesh, seed, dt=0.05, saddle=None):
    """One-step saddle system, on ``saddle`` or a new solver, from random
    density, velocity and forcing."""
    rng = np.random.default_rng(seed)
    rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
    u_old = random_velocity(mesh, rng)
    rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
    forcing = [rng.standard_normal(mesh.faces[i].count)
               for i in range(mesh.dim)]
    return assemble_oseen(saddle or SaddleSolver(mesh), dt, rho_new,
                          rho_old, u_old, forcing=forcing)


def pinned(u, p):
    """The pinned saddle unknowns of a solved velocity and pressure."""
    return np.concatenate([u.pack_interior(),
                           p.values - p.values[PINNED_CELL]])


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
                                     VelocityField(any_mesh))
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
        # what the Jacobi sweeps rely on to converge, and linsolve.factor
        # to factor the transport without pivoting: for any velocity,
        # divergence-free or not, the off-diagonal entries are
        # nonpositive and every column sums to |K|/dt
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

    @pytest.mark.parametrize("mesh_name", ["mesh2_graded", "mesh3_graded"])
    def test_every_sweep_keeps_bounds(self, mesh_name, request):
        # from the old density, each Jacobi sweep is a convex combination
        # of the old density and upwind neighbours, so every iterate stays
        # in the old bounds, not only the converged solution
        mesh = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(31)
        raw = random_velocity(mesh, rng)
        u = project_divergence_free(mesh, [raw])[0]
        rho = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        lo, hi = rho.min(), rho.max()
        mat, rhs = assemble_transport(mesh, 0.5, rho, u)
        iterates = []
        for k in range(1, 9):
            x, sweeps, residual = jacobi_sweeps(mat, rhs, rho.values, 0.0, k)
            # the cap, not the target, stopped it
            assert sweeps == k and residual is None
            assert x.min() >= lo - 1e-12 and x.max() <= hi + 1e-12
            iterates.append(x)
        assert all(np.any(a != b) for a, b in zip(iterates, iterates[1:]))
        # the divergence-free velocity is what keeps the bounds: with the
        # raw velocity some iterate leaves them
        mat, rhs = assemble_transport(mesh, 0.5, rho, raw)
        escaped = [jacobi_sweeps(mat, rhs, rho.values, 0.0, k)[0]
                   for k in range(1, 9)]
        assert any(x.min() < lo - 1e-3 or x.max() > hi + 1e-3
                   for x in escaped)

    def test_jacobi_matches_lu(self, any_mesh):
        rng = np.random.default_rng(32)
        rho = ScalarField(any_mesh, rng.uniform(1, 2, any_mesh.n_cells))
        u = random_velocity(any_mesh, rng)
        rho_new, rep = solve_transport(any_mesh, 0.05, rho, u)
        assert not rep.fallback
        assert 0 < rep.iterations < JACOBI_MAXITER
        mat, rhs = assemble_transport(any_mesh, 0.05, rho, u)
        lu = factor(mat).solve(rhs)
        assert (np.linalg.norm(rho_new.values - lu)
                <= 1e-12 * np.linalg.norm(lu))

    def test_fallback_reported_and_exact(self, any_mesh, monkeypatch):
        # one sweep cannot reach the target: LU produces the density,
        # reported as the fallback
        monkeypatch.setattr(linsolve, "JACOBI_MAXITER", 1)
        rng = np.random.default_rng(33)
        rho = ScalarField(any_mesh, rng.uniform(1, 2, any_mesh.n_cells))
        u = random_velocity(any_mesh, rng)
        rho_new, rep = solve_transport(any_mesh, 0.05, rho, u)
        assert rep.fallback
        assert rep.iterations == 1
        mat, rhs = assemble_transport(any_mesh, 0.05, rho, u)
        np.testing.assert_allclose(rho_new.values, factor(mat).solve(rhs),
                                   rtol=1e-13)

    def test_sweeps_stop_at_rounding(self):
        # a tolerance of 1e-14 puts the sweep target at 1e-17, below
        # double rounding: the sweeps stop once a sweep no longer lowers
        # the residual, and the iterate meets the tolerance without LU
        problem = get_preset("rotating-patch")
        mesh = build_uniform_mesh(problem.domain, (32, 32))
        result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.05,
                                                 transport_tol=1e-14))
        assert len(result.diagnostics) == 5
        for d in result.diagnostics:
            assert not d.transport_fallback
            assert 0 < d.transport_sweeps < JACOBI_MAXITER
            assert d.transport_residual <= 1e-14

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


@pytest.mark.parametrize("direct", [factor, spla.splu],
                         ids=["factor", "splu"])
def test_singular_lu_is_a_solver_failure(direct):
    # SuperLU's zero pivot stops the run as a failed solve, named, not as
    # a RuntimeError of its own
    mat = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(SolverFailure,
                       match="^transport solve: LU failed: .*singular"):
        linsolve._accept(mat, np.array([1.0, 2.0]), None, None, 1e-10,
                         "transport solve", direct)


def coo_transport(mesh, dt, rho_old, u):
    """The transport system as it was assembled before the banded form:
    each face's upwind entries gathered into COO lists and summed by the
    CSR conversion.  The reference that the banded matrix must match."""
    cells = np.arange(mesh.n_cells)
    rows, cols, vals = [cells], [cells], [mesh.cell_volume / dt]
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        idx = fs.interior_idx
        vel = u.components[i][idx]
        rate = fs.measure[idx] * vel
        lo = fs.cell_lo[idx]
        hi = fs.cell_hi[idx]
        upw = np.where(vel >= 0.0, lo, hi)
        rows += [lo, hi]
        cols += [upw, upw]
        vals += [rate, -rate]
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_cells, mesh.n_cells)).tocsr()
    return mat, mesh.cell_volume * rho_old.values / dt


def bits(a):
    """The bit patterns of a float array, with -0.0 read as 0.0."""
    return (np.asarray(a, dtype=float) + 0.0).view(np.uint64)


# Uniform and graded meshes in 2D and 3D, and meshes with an axis of one
# cell, which has no interior faces and so no band.
BANDED_MESHES = {
    "2d-uniform": lambda: build_uniform_mesh([[0.0, 1.0]] * 2, (6, 5)),
    "2d-graded": lambda: graded_mesh((6, 5), seed=42),
    "3d-uniform": lambda: build_uniform_mesh([[0.0, 1.0]] * 3, (4, 3, 5)),
    "3d-graded": lambda: graded_mesh((4, 3, 5), seed=43),
    "1xn": lambda: graded_mesh((1, 7), seed=44),
    "nx1": lambda: graded_mesh((7, 1), seed=45),
    "nx1xm": lambda: graded_mesh((4, 1, 5), seed=46),
}


def banded_velocity(mesh, kind, seed):
    """Zero, random (not divergence-free), or random with every third
    face at rest."""
    rng = np.random.default_rng(seed)
    comps = [rng.standard_normal(fs.count) for fs in mesh.faces]
    if kind == "zero":
        comps = [0.0 * c for c in comps]
    elif kind == "still-faces":
        for c in comps:
            c[::3] = 0.0
    return VelocityField(mesh, comps)


@pytest.mark.parametrize("kind", ["zero", "random", "still-faces"])
@pytest.mark.parametrize("name", BANDED_MESHES)
class TestBandedTransport:
    # the banded matrix equals the COO assembly bit for bit, so the
    # sweeps, the LU fallback and every artifact keep their bits

    def test_matrix_and_products_match_coo(self, name, kind):
        mesh = BANDED_MESHES[name]()
        rng = np.random.default_rng(7)
        rho = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u = banded_velocity(mesh, kind, seed=8)
        mat, rhs = assemble_transport(mesh, 0.05, rho, u)
        ref, ref_rhs = coo_transport(mesh, 0.05, rho, u)
        assert isinstance(mat, sp.dia_matrix)
        assert list(mat.offsets) == sorted(set(mat.offsets))
        assert len(mat.offsets) == 1 + 2 * sum(n > 1 for n in mesh.cells)
        assert (ref.data == 0).any() == (kind != "random")
        # a zero the COO matrix does not store may read -0.0 in a band
        np.testing.assert_array_equal(bits(mat.toarray()),
                                      bits(ref.toarray()))
        np.testing.assert_array_equal(bits(mat.diagonal()),
                                      bits(ref.diagonal()))
        np.testing.assert_array_equal(bits(rhs), bits(ref_rhs))
        for x in (rho.values, rng.standard_normal(mesh.n_cells)):
            np.testing.assert_array_equal((mat @ x).view(np.uint64),
                                          (ref @ x).view(np.uint64))

    @pytest.mark.parametrize("dt", [0.05, 1e8])
    def test_solve_matches_coo(self, name, kind, dt, monkeypatch):
        # at dt 1e8, with one sweep allowed, the solve falls back to LU of
        # a matrix that is nearly all flux: the LU keeps its bits too
        if dt > 1:
            monkeypatch.setattr(linsolve, "JACOBI_MAXITER", 1)
        mesh = BANDED_MESHES[name]()
        rng = np.random.default_rng(9)
        rho = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u = banded_velocity(mesh, kind, seed=10)
        new, report = solve_transport(mesh, dt, rho, u)
        # the COO matrix stores a zero for each still face, which the LU
        # fallback's ordering sees and the banded matrix never stores
        def pruned(*args):
            mat, rhs = coo_transport(*args)
            mat.eliminate_zeros()
            return mat, rhs
        monkeypatch.setattr(linsolve, "assemble_transport", pruned)
        ref, ref_report = solve_transport(mesh, dt, rho, u)
        assert report == ref_report
        assert report.fallback == (dt > 1 and kind != "zero")
        np.testing.assert_array_equal(new.values.view(np.uint64),
                                      ref.values.view(np.uint64))


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
        system = assemble_oseen(SaddleSolver(mesh), dt, rho_new, rho_old,
                                u_old)
        n_u = mesh.n_unknowns
        a = system.matrix[:n_u, :n_u].toarray()
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
        mat = assemble_oseen(SaddleSolver(mesh), dt, rho_new, rho_old,
                             u_old).matrix

        fluxes = ops.upwind_face_flux(mesh, rho_new, u_old)
        assert min(f.min() for f in fluxes) < 0 < max(f.max() for f in fluxes)
        rho_d = ops.dual_density(mesh, rho_new)
        duals = ops.dual_fluxes(mesh, fluxes)
        blocks = []
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            idx = fs.interior_idx
            blocks.append((sp.diags(fs.dvol[idx] * rho_d[i][idx] / dt)
                           + ops.diffusion_matrix(mesh, i)
                           + ops.convection_matrix(mesh, duals, i)).tocsr())
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
        system = assemble_oseen(SaddleSolver(mesh), 0.1, rho, rho,
                                VelocityField(mesh))
        u, p, _ = solve_oseen(system)
        for c in u.components:
            assert np.abs(c).max() < 1e-14
        assert np.abs(p.values).max() < 1e-14

    @staticmethod
    def dense_solution(system):
        """Velocity unknowns and zero-mean pressure from a dense numpy
        solve with the same pin and the same zero-mean shift."""
        mesh = system.saddle.mesh
        sol = np.linalg.solve(system.matrix.toarray(), system.rhs)
        n_u = mesh.n_unknowns
        p = sol[n_u:]
        return sol[:n_u], p - (mesh.cell_volume @ p) / mesh.volume

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
        system = assemble_oseen(SaddleSolver(mesh), dt, rho_new, rho_old,
                                u_old, forcing=forcing)
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
        monkeypatch.setattr(linsolve, "GMRES_CYCLES", 1)
        system = random_saddle(mesh, seed=25)
        u_dense, p_dense = TestOseenSolve.dense_solution(system)
        u, p, rep = solve_oseen(system)
        assert rep.fallback
        np.testing.assert_allclose(u.pack_interior(), u_dense,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p.values, p_dense, rtol=1e-10,
                                   atol=1e-12)

    def test_fallback_matches_dense(self, any_mesh, monkeypatch):
        self.check_fallback_matches_dense(any_mesh, monkeypatch)

    def test_fallback_matches_dense_single_column(self, monkeypatch):
        mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4))
        self.check_fallback_matches_dense(mesh, monkeypatch)

    def test_rejected_iterate_falls_back(self, mesh2_uniform, monkeypatch):
        # a GMRES that stops on a residual above the tolerance: _accept
        # rejects its iterate and the pivoting LU solves, as for the
        # transport, instead of the solve raising; the preconditioner
        # failed, so the next solve factors again
        gmres = linsolve.gmres

        def above_tol(*args, **kwargs):
            x, iterations, _ = gmres(*args, **kwargs)
            return x + 1e-6, iterations, 1e-9

        monkeypatch.setattr(linsolve, "gmres", above_tol)
        system = random_saddle(mesh2_uniform, seed=26)
        u_dense, p_dense = self.dense_solution(system)
        u, p, rep = solve_oseen(system)
        assert rep.fallback
        assert rep.precond_refresh and rep.iterations > 0
        assert rep.residual <= 1e-10
        np.testing.assert_allclose(u.pack_interior(), u_dense,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p.values, p_dense, rtol=1e-10,
                                   atol=1e-12)
        _, _, again = solve_oseen(system)
        assert again.precond_refresh and again.fallback

    def test_solution_is_divergence_free(self, any_mesh):
        rng = np.random.default_rng(14)
        dt = 0.05
        rho_old = ScalarField(any_mesh,
                              rng.uniform(1.0, 2.0, any_mesh.n_cells))
        u_old = random_velocity(any_mesh, rng)
        rho_new, _ = solve_transport(any_mesh, dt, rho_old, u_old)
        system = assemble_oseen(SaddleSolver(any_mesh), dt, rho_new, rho_old,
                                u_old)
        u, _, _ = solve_oseen(system)
        div = ops.div_velocity(any_mesh, u)
        assert norm_l2_cells(ScalarField(any_mesh, div)) < 1e-10

    @staticmethod
    def check_gmres_matches_direct(mesh):
        system = random_saddle(mesh, seed=15)
        sol = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        n_u = mesh.n_unknowns
        p_d = sol[n_u:]
        p_d = p_d - (mesh.cell_volume @ p_d) / mesh.volume
        u_g, p_g, rep = solve_oseen(system, tol=1e-10)
        assert not rep.fallback
        np.testing.assert_allclose(u_g.pack_interior(), sol[:n_u],
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
        state = initialize(mesh, problem)
        _, diag = step(SaddleSolver(mesh), state, cfg,
                       (state.rho.min(), state.rho.max()),
                       forcing=problem.forcing)
        assert not diag.oseen_fallback
        assert 0 < diag.oseen_iterations <= 25

    def test_iteration_cap_counts_cycles(self):
        # at oseen_tol = 1e-13 GMRES cannot reach its target: it gives up
        # after GMRES_CYCLES restart cycles, or once a cycle is solved to
        # rounding, and LU produces the solution.  Once rounding stalls
        # the true residual, each cycle ends within a few iterations on
        # its goal, so the cap costs 15-25 iterations here, not 300
        problem = get_preset("rotating-patch")
        mesh = build_uniform_mesh(problem.domain, (16, 16))
        result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.02,
                                                 oseen_tol=1e-13))
        assert len(result.diagnostics) == 2
        for d in result.diagnostics:
            assert d.oseen_fallback
            assert 0 < d.oseen_iterations <= 45
        assert GMRES_CYCLES * GMRES_RESTART == 300

    def test_pressure_mean_shift_recorded(self, mesh2_graded):
        mesh = mesh2_graded
        rng = np.random.default_rng(16)
        dt = 0.05
        rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        u_old = random_velocity(mesh, rng)
        rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
        forcing = [rng.standard_normal(mesh.faces[i].count)
                   for i in range(mesh.dim)]
        system = assemble_oseen(SaddleSolver(mesh), dt, rho_new, rho_old,
                                u_old, forcing=forcing)
        _, p, _ = solve_oseen(system)
        assert abs(mesh.cell_volume @ p.values) < 1e-10
        assert p.zero_mean


def scipy_gmres(system, x0, target):
    """``scipy.sparse.linalg.gmres`` on ``system`` with macflow's
    preconditioner and restart settings: the oracle of :func:`gmres`.
    Returns the iterate, the iteration count and whether it converged."""
    precond, _ = system.saddle.preconditioner(system)
    n = system.rhs.size

    def apply(r):
        out = np.empty(n)
        precond(r, out)
        return out

    residuals = []
    x, info = spla.gmres(
        system.matrix, system.rhs, x0=x0, rtol=target, atol=0.0,
        M=spla.LinearOperator((n, n), matvec=apply, dtype=float),
        restart=linsolve.GMRES_RESTART, maxiter=linsolve.GMRES_CYCLES,
        callback=residuals.append, callback_type="pr_norm")
    return x, len(residuals), info == 0


class TestGmres:
    @staticmethod
    def solve(system, x0, target):
        precond, _ = system.saddle.preconditioner(system)
        return gmres(system.matrix, system.rhs, x0, precond, target)

    @staticmethod
    def warm_start(system, seed):
        """The solution of a neighbouring system on the same mesh, as a
        run's next step starts from."""
        other = random_saddle(system.saddle.mesh, seed=seed)
        return spla.splu(other.matrix.tocsc()).solve(other.rhs)

    @pytest.mark.parametrize("target", [1e-16, 1e-13, 1e-8])
    @pytest.mark.parametrize("start", ["zero", "warm"])
    def test_matches_scipy(self, any_mesh, start, target):
        # above rounding both loops take the same iterations to the same
        # iterate up to rounding.  1e-16 is below rounding: gmres keeps its
        # residual contract in no more iterations than SciPy
        for seed in (30, 31):
            system = random_saddle(any_mesh, seed=seed)
            x0 = None if start == "zero" else self.warm_start(system, 40)
            x, iterations, residual = self.solve(system, x0, target)
            ref, ref_iterations, ref_converged = scipy_gmres(system, x0,
                                                             target)
            if target < 1e-15:
                assert 0 < iterations <= ref_iterations
                assert residual is None or residual == checked_residual(
                    system.matrix, x, system.rhs, target, "solve")
                continue
            assert iterations == ref_iterations > 0
            assert (residual is not None) == ref_converged
            assert (np.linalg.norm(x - ref)
                    <= 1e-12 * np.linalg.norm(ref))

    def test_zero_rhs_gives_zero(self, mesh2_uniform):
        system = random_saddle(mesh2_uniform, seed=32)
        precond, _ = system.saddle.preconditioner(system)
        rhs = np.zeros(system.rhs.size)
        x0 = np.ones(rhs.size)
        x, iterations, residual = gmres(system.matrix, rhs, x0, precond,
                                        1e-13)
        assert iterations == 0 and residual == 0.0
        assert not x.any()

    def test_start_meeting_target_takes_no_iteration(self, any_mesh):
        system = random_saddle(any_mesh, seed=33)
        x0 = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        x, iterations, residual = self.solve(system, x0, 1e-10)
        assert iterations == 0 and residual <= 1e-10
        assert x.tobytes() == x0.tobytes() and x is not x0

    def test_preconditioner_applies(self, any_mesh, monkeypatch):
        # one apply per iteration and one to start each cycle, none more
        system = random_saddle(any_mesh, seed=36)
        precond, _ = system.saddle.preconditioner(system)
        applies = []

        def counting(r, out):
            applies.append(r)
            precond(r, out)

        def solve(target):
            applies.clear()
            return gmres(system.matrix, system.rhs, None, counting, target)

        # a single cycle
        _, iterations, residual = solve(1e-10)
        assert residual is not None and 0 < iterations < GMRES_RESTART
        assert len(applies) == iterations + 1
        # below rounding the first cycle is solved to rounding and ends
        # the solve
        _, iterations, residual = solve(1e-16)
        assert residual is None and 0 < iterations < GMRES_RESTART
        assert len(applies) == iterations + 1
        # two capped cycles of two iterations
        monkeypatch.setattr(linsolve, "GMRES_RESTART", 2)
        monkeypatch.setattr(linsolve, "GMRES_CYCLES", 2)
        _, iterations, residual = solve(1e-13)
        assert iterations == 4 and residual is None
        assert len(applies) == 4 + 2

    def test_residual_hidden_by_preconditioner(self):
        # M^-1 scales the last unknown by 1e-4 and M^-1 A has an outlier
        # at 1e-2 there, and the start leaves twice the target on it.  A
        # goal of only the factor the true residual needs is met in one
        # iteration on the other unknowns, whose share of |M^-1 r| is far
        # above their share of |r|, cycle after cycle with the true
        # residual unchanged; carrying each failed cycle's shortfall aims
        # the next one deeper
        n, target = 40, 1e-8
        spectrum = np.append(np.linspace(1.0, 3.0, n - 1), 1e-2)
        weight = np.append(np.ones(n - 1), 1e-4)
        mat = sp.diags(spectrum / weight, format="csr")
        rng = np.random.default_rng(37)
        exact = rng.standard_normal(n)
        rhs = mat @ exact
        r0 = rng.standard_normal(n)
        r0[:-1] /= np.linalg.norm(r0[:-1])
        r0[-1] = 2.0
        r0 *= target * np.linalg.norm(rhs)
        x0 = exact - r0 / mat.diagonal()

        def precond(r, out):
            np.multiply(weight, r, out=out)

        x, iterations, residual = gmres(mat, rhs, x0, precond, target)
        assert residual is not None and 0 < iterations < GMRES_RESTART
        assert residual == checked_residual(mat, x, rhs, target, "solve")

    def test_cap_reports_no_convergence(self, mesh2_uniform, monkeypatch):
        # GMRES_CYCLES cycles of GMRES_RESTART iterations cannot reach the
        # target: the solve says so, and _accept falls back to LU
        monkeypatch.setattr(linsolve, "GMRES_RESTART", 2)
        monkeypatch.setattr(linsolve, "GMRES_CYCLES", 2)
        system = random_saddle(mesh2_uniform, seed=34)
        x, iterations, residual = self.solve(system, None, 1e-13)
        ref, ref_iterations, ref_converged = scipy_gmres(system, None,
                                                         1e-13)
        assert iterations == ref_iterations == 4
        assert residual is None and not ref_converged
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        _, report = linsolve._accept(system.matrix, system.rhs, x, residual,
                                     1e-10, "saddle solve", spla.splu,
                                     iterations=iterations)
        assert report.fallback
        assert report.iterations == 4 and report.residual <= 1e-10


class TestHandedResidual:
    # each iteration hands _accept the relative true residual on which it
    # stopped, the very number checked_residual reads off the returned
    # iterate, so a kept iterate is measured once
    @staticmethod
    def measured(mat, x, rhs):
        return checked_residual(mat, x, rhs, math.inf, "solve")

    def test_jacobi(self, any_mesh):
        rng = np.random.default_rng(34)
        rho = ScalarField(any_mesh, rng.uniform(1, 2, any_mesh.n_cells))
        u = random_velocity(any_mesh, rng)
        mat, rhs = assemble_transport(any_mesh, 0.05, rho, u)
        zero = np.zeros(rhs.size)
        cases = {"target": (rhs, rho.values, 1e-15),
                 "warm": (rhs, factor(mat).solve(rhs), 1e-10),
                 "stall": (rhs, rho.values, 0.0),
                 "zero-rhs": (zero, zero, 1e-15)}
        for name, (b, x0, target) in cases.items():
            x, sweeps, residual = jacobi_sweeps(mat, b, x0, target,
                                                JACOBI_MAXITER)
            assert residual == self.measured(mat, x, b), name
            assert (sweeps == 0) == (name in ("warm", "zero-rhs")), name
        assert residual == 0.0
        # the stall stop: a zero target is never met, the residual stopped
        # falling at rounding
        x, sweeps, residual = jacobi_sweeps(mat, rhs, rho.values, 0.0,
                                            JACOBI_MAXITER)
        assert 0 < sweeps < JACOBI_MAXITER and residual > 0.0
        x, sweeps, residual = jacobi_sweeps(mat, rhs, rho.values, 0.0, 2)
        assert sweeps == 2 and residual is None

    def test_gmres(self, any_mesh, monkeypatch):
        system = random_saddle(any_mesh, seed=35)
        precond, _ = system.saddle.preconditioner(system)
        mat, rhs = system.matrix, system.rhs
        zero = np.zeros(rhs.size)
        cases = {"cold": (rhs, None, 1e-13),
                 "warm": (rhs, TestGmres.warm_start(system, 40), 1e-13),
                 "meets-target": (rhs, spla.splu(mat.tocsc()).solve(rhs),
                                  1e-10),
                 "zero-rhs": (zero, np.ones(rhs.size), 1e-13)}
        for name, (b, x0, target) in cases.items():
            x, iterations, residual = gmres(mat, b, x0, precond, target)
            assert residual == self.measured(mat, x, b), name
            assert residual <= target, name
            assert (iterations == 0) == (name in ("meets-target",
                                                  "zero-rhs")), name
        assert residual == 0.0
        monkeypatch.setattr(linsolve, "GMRES_RESTART", 2)
        monkeypatch.setattr(linsolve, "GMRES_CYCLES", 2)
        x, iterations, residual = gmres(mat, rhs, None, precond, 1e-13)
        assert iterations == 4 and residual is None


class TestSaddleSolver:
    @pytest.mark.parametrize("cells", [(5, 4), (1, 6), (3, 2, 4)],
                             ids=["5x4", "1x6", "3x2x4"])
    def test_component_solver_solves_each_block(self, cells):
        # a one-cell axis leaves its component without unknowns
        mesh = graded_mesh(cells, seed=3)
        matrix = sp.block_diag([ops.diffusion_matrix(mesh, i)
                                for i in range(mesh.dim)], format="csr")
        rhs = np.random.default_rng(4).standard_normal((mesh.n_unknowns, 3))
        solve = component_solver(mesh, matrix, factor)
        np.testing.assert_allclose(matrix @ solve(rhs), rhs, atol=1e-12)
        np.testing.assert_allclose(matrix @ solve(rhs[:, 0]), rhs[:, 0],
                                   atol=1e-12)

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

    def test_schur_apply_matches_the_pin(self, mesh2_graded):
        # the pressure output is the unpinned K^-1/dt + M_p^-1 of the
        # continuity residual, the pinned cell's restored as minus the sum
        # of the others', shifted to the pin row's residual; the velocity
        # output solves the momentum blocks against it
        mesh = mesh2_graded
        n_u, pin = mesh.n_unknowns, mesh.n_unknowns + PINNED_CELL
        system = random_saddle(mesh, seed=22)
        apply, _ = system.saddle.preconditioner(system)
        grad = system.saddle.grad
        poisson = (grad.T @ sp.diags(1.0 / system.face_mass) @ grad).toarray()
        eps = np.finfo(float).eps
        r = np.random.default_rng(23).standard_normal(system.rhs.size)
        for pin_residual in (r[pin], 0.0):
            r[pin] = pin_residual
            given, z = r.copy(), np.full(r.size, np.nan)
            apply(r, z)
            assert r.tobytes() == given.tobytes()
            # the pin row is inverted exactly: z[pin] is 0 for a zero pin
            # residual, which keeps GMRES iterates on the pin
            assert (abs(z[pin] - r[pin])
                    <= 2 * eps * np.abs(z[n_u:]).max())
            assert pin_residual or z[pin] == 0.0
            c = r[n_u:].copy()
            c[PINNED_CELL] = -(c.sum() - c[PINNED_CELL])
            want = (np.linalg.lstsq(poisson, c, rcond=None)[0] / system.dt
                    + c / mesh.cell_volume)
            assert np.ptp(z[n_u:] - want) <= 1e-10 * np.abs(want).max()
            rest = r[:n_u] - grad @ z[n_u:]
            for part in mesh.interior_slices:
                np.testing.assert_allclose(
                    system.matrix[part, part] @ z[part], rest[part],
                    rtol=0, atol=1e-10 * np.abs(rest).max())

    def test_preconditioned_spectrum_has_no_outlier(self):
        # first step of the 16^2 gyre at dt 0.005: every eigenvalue of
        # P^-1 A lies in [0.3, 1.5] (0.55 to 1.0).  A Schur inverse pinned
        # like the saddle put one at 0.22, falling with the mesh width,
        # and one at 1/dt = 200
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (16, 16))
        dt = 0.005
        state = initialize(mesh, problem)
        rho_new, _ = solve_transport(mesh, dt, state.rho, state.u)
        system = assemble_oseen(SaddleSolver(mesh), dt, rho_new, state.rho,
                                state.u)
        apply, _ = system.saddle.preconditioner(system)
        a = system.matrix.toarray()
        pa = np.empty_like(a)
        for j in range(a.shape[1]):
            apply(a[:, j], pa[:, j])
        eigenvalues = np.linalg.eigvals(pa)
        print(f"eigenvalues of P^-1 A: real part in "
              f"[{eigenvalues.real.min():.4f}, {eigenvalues.real.max():.4f}],"
              f" imaginary part up to {np.abs(eigenvalues.imag).max():.4f}")
        assert 0.3 <= eigenvalues.real.min()
        assert eigenvalues.real.max() <= 1.5
        assert np.abs(eigenvalues.imag).max() <= 0.1

    def test_warm_start_from_last_solution(self, any_mesh):
        # the second solve of one system starts from the fit over a
        # history that holds the first one's solution: at most 2
        # iterations, and the same solution within tol
        system = random_saddle(any_mesh, seed=20)
        saddle = system.saddle
        tol = 1e-10
        u1, p1, rep1 = solve_oseen(system, tol=tol)
        assert saddle.history.shape[0] == 1
        first = pinned(u1, p1)
        u2, p2, rep2 = solve_oseen(system, tol=tol)
        assert rep1.iterations > 2 and not rep1.fallback
        assert rep2.iterations <= 2 and not rep2.fallback
        assert not rep2.precond_refresh
        assert (np.linalg.norm(pinned(u2, p2) - first)
                <= tol * np.linalg.norm(first))
        np.testing.assert_allclose(u2.pack_interior(), u1.pack_interior(),
                                   rtol=0, atol=tol * np.abs(first).max())
        np.testing.assert_allclose(p2.values, p1.values, rtol=0,
                                   atol=tol * np.abs(first).max())

    def test_fresh_solver_starts_from_zero(self, mesh2_uniform):
        # a new solver has no history yet: its first solve starts from
        # zero and factors; a zero solution is not kept
        fresh = random_saddle(mesh2_uniform, seed=21)
        assert fresh.saddle.history.shape[0] == 0
        assert fresh.saddle.start(fresh) is None
        _, _, first = solve_oseen(fresh)
        assert fresh.saddle.history.shape[0] == 1
        zero = random_saddle(mesh2_uniform, seed=21)
        zero.saddle.remember(np.zeros(zero.rhs.size))
        assert zero.saddle.history.shape[0] == 0
        _, _, from_zero = solve_oseen(zero)
        assert first.precond_refresh and from_zero.precond_refresh
        assert first.iterations == from_zero.iterations > 2

    def test_mesh_constant_blocks_shared(self, mesh2_graded):
        saddle = SaddleSolver(mesh2_graded)
        rho = ScalarField.constant(mesh2_graded, 1.0)
        u = VelocityField(mesh2_graded)
        a = assemble_oseen(saddle, 0.1, rho, rho, u)
        b = assemble_oseen(saddle, 0.2, rho, rho, u)
        assert a.saddle is b.saddle is saddle
        pattern = saddle.pattern
        for system in (a, b):
            assert np.shares_memory(system.matrix.indptr, pattern.indptr)
            assert np.shares_memory(system.matrix.indices, pattern.indices)
        # a new solver on the same mesh builds its own pattern, and the
        # same matrix on it
        fresh = assemble_oseen(SaddleSolver(mesh2_graded), 0.2, rho, rho, u)
        assert fresh.saddle is not saddle
        assert not np.shares_memory(fresh.matrix.indptr, pattern.indptr)
        assert fresh.matrix.data.tobytes() == b.matrix.data.tobytes()

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
            assert not d.oseen_fallback
            assert 0 < d.oseen_iterations <= 25
            assert d.div_l2 <= 1e-13
            assert d.mass_dual_resid <= 1e-13
            assert d.kinetic_resid <= 1e-13

    def test_no_transport_factorization(self, monkeypatch):
        # on a benchmark-like flow the transport converges by sweeps: the
        # only factorizations of the run are the preconditioner's, one
        # per velocity component and one of K
        calls = []

        def counted(mat):
            calls.append(mat.shape)
            return factor(mat)

        monkeypatch.setattr(linsolve, "factor", counted)
        problem = get_preset("gyre")
        mesh = build_uniform_mesh(problem.domain, (32, 32))
        result = run(mesh, problem, SchemeConfig(dt=0.005, t_end=0.1))
        assert len(result.diagnostics) == 20
        for d in result.diagnostics:
            assert not d.transport_fallback and d.transport_sweeps > 0
        assert len(calls) == 3
        assert calls[-1] == (mesh.n_cells, mesh.n_cells)


class TestProjectedStart:
    # each GMRES solve starts from the weighted least-squares fit of its
    # system over the span of the last HISTORY accepted solutions, which
    # the solver keeps as they are
    @staticmethod
    def weight(system):
        """The weight of the fit, computed here: ``1/diag(A)`` on the
        momentum rows, ``1/|K|`` on the pressure rows."""
        mesh = system.saddle.mesh
        return np.concatenate([
            1.0 / system.matrix.diagonal()[:mesh.n_unknowns],
            1.0 / mesh.cell_volume])

    def test_start_beats_newest_solution(self, any_mesh):
        saddle = SaddleSolver(any_mesh)
        solutions = []
        for seed in range(40, 44):
            system = random_saddle(any_mesh, seed, saddle=saddle)
            solutions.append(spla.splu(system.matrix.tocsc()).solve(
                system.rhs))
            saddle.remember(solutions[-1])
        system = random_saddle(any_mesh, 44, saddle=saddle)
        guess = saddle.start(system)
        w = self.weight(system)
        fit = w * (system.rhs - system.matrix @ guess)
        newest = w * (system.rhs - system.matrix @ solutions[-1])
        assert np.linalg.norm(fit) < np.linalg.norm(newest)
        # the fit's weighted residual is orthogonal to w A S^T
        wa = w[:, None] * (system.matrix @ np.array(solutions).T)
        assert (np.abs(fit @ wa).max()
                <= 1e-10 * np.linalg.norm(wa) * np.linalg.norm(fit))

    def test_history_keeps_the_last_solutions(self, any_mesh):
        # a full history drops exactly its oldest solution, and keeps
        # the others bit for bit
        saddle = SaddleSolver(any_mesh)
        xs = np.random.default_rng(45).standard_normal(
            (linsolve.HISTORY + 4, any_mesh.n_unknowns + any_mesh.n_cells))
        for k, x in enumerate(xs):
            saddle.remember(x)
            kept = xs[max(k + 1 - linsolve.HISTORY, 0):k + 1]
            assert saddle.history.shape == kept.shape
            assert ({row.tobytes() for row in saddle.history}
                    == {row.tobytes() for row in kept})

    def test_repeated_solution_gives_finite_start(self, mesh2_uniform):
        # identical and parallel solutions span one direction, and the fit
        # on the system they solve returns that solution
        saddle = SaddleSolver(mesh2_uniform)
        system = random_saddle(mesh2_uniform, 46, saddle=saddle)
        x = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        for scale in (1.0, 1.0, 1.0, -2.0):
            saddle.remember(scale * x)
        guess = saddle.start(system)
        assert np.isfinite(guess).all()
        np.testing.assert_allclose(guess, x, rtol=0,
                                   atol=1e-12 * np.abs(x).max())

    def test_rest_run_keeps_no_history(self):
        # a fluid at rest solves zero systems: the zero solutions add no
        # direction, and every solve starts from zero with no warning
        problem = get_preset("rest")
        mesh = build_uniform_mesh(problem.domain, (6, 6))
        saddle = SaddleSolver(mesh)
        state = initialize(mesh, problem)
        cfg = SchemeConfig(dt=0.1, t_end=0.3)
        for _ in range(3):
            state, diag = step(saddle, state, cfg,
                               (state.rho.min(), state.rho.max()))
            assert diag.oseen_iterations == 0 and not diag.oseen_fallback
        assert saddle.history.shape[0] == 0
        system = assemble_oseen(saddle, 0.1, state.rho, state.rho, state.u)
        assert saddle.start(system) is None

    def test_patch_run_iterations(self):
        # demos/configs/patch_run.yaml (32^2, 100 steps): 454 Krylov
        # iterations, against 1215 when each solve starts from the last
        # solution alone
        cfg = load_config(DEMO_CONFIGS / "patch_run.yaml")
        result = run(build_mesh_from_config(cfg),
                     build_problem_from_config(cfg), build_scheme_config(cfg))
        diags = result.diagnostics
        total = sum(d.oseen_iterations for d in diags)
        print(f"patch_run.yaml: Krylov iterations {total} in {len(diags)} "
              "steps")
        assert len(diags) == 100 and total <= 500
        assert not any(d.oseen_fallback for d in diags)
        assert sum(d.precond_refresh for d in diags) == 1


def patch_run(ratio, dt, steps=5, oseen_tol=1e-10):
    """``rotating-patch`` at 32^2 with density ratio ``ratio``."""
    problem = get_preset("rotating-patch", amplitude=ratio - 1.0)
    mesh = build_uniform_mesh(problem.domain, (32, 32))
    return run(mesh, problem, SchemeConfig(dt=dt, t_end=steps * dt,
                                           oseen_tol=oseen_tol))


class TestDensityRatioSweep:
    # the step's identities must hold at a large density ratio and a
    # large time step too, not only at the ratio 1.5 and small dt of the
    # other gates
    @pytest.mark.parametrize("dt", [0.01, 1.0])
    @pytest.mark.parametrize("ratio", [1.5, 10, 100, 1000])
    def test_sweep_point(self, ratio, dt):
        result = patch_run(ratio, dt)
        diags = result.diagnostics
        counts = [d.oseen_iterations for d in diags]
        print(f"ratio {ratio:g}, dt {dt:g}: Krylov iterations "
              f"{sum(counts)} {counts}, transport sweeps "
              f"{sum(d.transport_sweeps for d in diags)}, worst divergence "
              f"{result.worst['div_l2']:.3e}")
        assert not any(d.oseen_fallback for d in diags)
        # the first step's factors serve the whole run
        assert sum(d.precond_refresh for d in diags) == 1
        assert not any(d.transport_fallback for d in diags)
        assert result.worst["bound_violation"] == 0.0
        assert result.rho_l2_monotone
        # within 10 times the 2.2e-13 of LU at (1000, 1), the hardest point
        assert result.worst["div_l2"] <= 2.2e-12

    def test_unavoidable_fallback_spends_few_iterations(self):
        # at ratio 100 and dt = 1 an oseen_tol of 1e-12 asks GMRES for a
        # relative residual of 1e-15, at rounding for this matrix: every
        # step falls back to LU, and says so.  The cycles end on their
        # goal within a few iterations once rounding stalls the true
        # residual: 160 iterations in all
        diags = patch_run(100, 1.0, oseen_tol=1e-12).diagnostics
        total = sum(d.oseen_iterations for d in diags)
        print(f"Krylov iterations {total} before 5 fallbacks")
        assert [d.oseen_fallback for d in diags] == [True] * 5
        assert total <= 200

    def test_refresh_rule_saves_iterations(self, monkeypatch):
        # at ratio 1000 and dt = 1 the incomplete factors of the graded
        # 12^3 swirl go stale within 5 steps: the rule factors again for
        # the last step, which takes 39 iterations against 89 with the
        # first step's factors kept throughout (the 32^2 patch keeps its
        # first factors at every point of this sweep)
        mesh = graded_mesh((12, 12, 12), seed=1)
        cfg = SchemeConfig(dt=1.0, t_end=5.0)

        def totals():
            diags = run(mesh, swirl_problem(1000.0), cfg).diagnostics
            return (sum(d.oseen_iterations for d in diags),
                    sum(d.precond_refresh for d in diags))

        with_rule, factored = totals()
        monkeypatch.setattr(linsolve, "REFRESH_GROWTH", math.inf)
        without_rule, factored_once = totals()
        print(f"Krylov iterations {with_rule} with the refresh rule, "
              f"{without_rule} without")
        assert factored == 2 and factored_once == 1
        assert with_rule < without_rule


def swirl_problem(ratio):
    """No-slip swirl in the unit cube, ``u = curl (0, 0, psi)`` with
    ``psi = q(x)^2 q(y)^2 q(z)^2 / 16`` and ``q(s) = 4 s (1 - s)``,
    carrying the density ``1 + (ratio - 1) exp(-((qqq)^2 - 1)^2 / 0.35^2)``
    of ``qqq = q(x) q(y) q(z)``, which the flow leaves constant: the
    density stays in ``[1, ratio]``."""
    def q(s):
        return 4.0 * s * (1.0 - s)

    def dq(s):
        return 4.0 - 8.0 * s

    def u_x(x, y, z):
        return q(x) ** 2 * q(y) * dq(y) * q(z) ** 2 / 8.0

    def u_y(x, y, z):
        return -q(x) * dq(x) * q(y) ** 2 * q(z) ** 2 / 8.0

    def u_z(x, y, z):
        return np.zeros_like(np.asarray(x, dtype=float))

    def rho(x, y, z):
        shape = (q(x) * q(y) * q(z)) ** 2
        return 1.0 + (ratio - 1.0) * np.exp(-((shape - 1.0) / 0.35) ** 2)

    return ProblemSetup(name="swirl", dim=3, domain=((0.0, 1.0),) * 3,
                        rho0=rho, u0=[u_x, u_y, u_z],
                        rho_bounds=(1.0, float(ratio)))


class TestIncompleteFactors3D:
    # a 3D preconditioner is factored by incomplete LU; the true-residual
    # stop keeps every step as tight as with exact factors, even where
    # the preconditioner is at its weakest
    @pytest.mark.parametrize("dt", [0.01, 1.0])
    def test_large_density_ratio(self, dt, monkeypatch):
        mesh = graded_mesh((12, 12, 12), seed=1)
        problem = swirl_problem(1000.0)
        cfg = SchemeConfig(dt=dt, t_end=5 * dt)
        incomplete = run(mesh, problem, cfg)
        monkeypatch.setattr(linsolve, "incomplete_factor", factor)
        exact = run(mesh, problem, cfg)

        def iterations(result):
            return sum(d.oseen_iterations for d in result.diagnostics)

        print(f"dt {dt:g}: Krylov iterations {iterations(incomplete)} "
              f"(exact factors {iterations(exact)}), worst divergence "
              f"{incomplete.worst['div_l2']:.3e} "
              f"(exact {exact.worst['div_l2']:.3e})")
        for result in (incomplete, exact):
            assert len(result.diagnostics) == 5
            assert not any(d.oseen_fallback or d.transport_fallback
                           for d in result.diagnostics)
            assert result.worst["bound_violation"] == 0.0
        assert incomplete.worst["div_l2"] <= 10 * exact.worst["div_l2"]

    @pytest.mark.parametrize("mesh_name, kind", [
        ("mesh2_graded", "factor"), ("mesh3_graded", "incomplete_factor")])
    def test_factors_by_dimension(self, mesh_name, kind, request,
                                  monkeypatch):
        # one factor per velocity component and one of K: exact in 2D,
        # incomplete in 3D
        mesh = request.getfixturevalue(mesh_name)
        system = random_saddle(mesh, seed=19)
        calls = []
        for name in ("factor", "incomplete_factor"):
            def counted(mat, name=name, fn=getattr(linsolve, name)):
                calls.append(name)
                return fn(mat)
            monkeypatch.setattr(linsolve, name, counted)
        assert system.saddle.preconditioner(system)[1]
        assert calls == [kind] * (mesh.dim + 1)


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
