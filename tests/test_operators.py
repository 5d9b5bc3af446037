"""Discrete operators against brute-force oracles and exact identities.

The oracles recompute every quantity with plain Python loops over the
mesh tables, independently of the vectorized production code.
"""

import numpy as np
import pytest

from macflow.grid import build_mesh, build_uniform_mesh
from macflow.fields import (ScalarField, VelocityField, fortin_interpolate,
                            norm_h1_squared)
from macflow import operators as ops

from conftest import graded_mesh


def hand_mesh():
    return build_mesh([[0.0, 2.0], [0.0, 1.0]],
                      [[0.0, 1.0, 2.0], [0.0, 1.0]])


def random_scalar(mesh, rng, lo=0.5, hi=2.0):
    return ScalarField(mesh, rng.uniform(lo, hi, mesh.n_cells))


def random_velocity(mesh, rng):
    return VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                for i in range(mesh.dim)])


# -- loop oracles -------------------------------------------------------------

def oracle_upwind_fluxes(mesh, rho, u):
    """Per-face signed mass flux by scalar upwind selection."""
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        flux = np.zeros(fs.count)
        for k in fs.interior_idx:
            vel = u.components[i][k]
            up = fs.cell_lo[k] if vel >= 0 else fs.cell_hi[k]
            flux[k] = fs.measure[k] * rho.values[up] * vel
        out.append(flux)
    return out


def oracle_div_cells(mesh, fluxes):
    """Outflow sum per cell divided by the cell volume, via face tables."""
    out = np.zeros(mesh.n_cells)
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        for k in range(fs.count):
            if fs.cell_lo[k] >= 0:  # face is on the high side of cell_lo
                out[fs.cell_lo[k]] += fluxes[i][k]
            if fs.cell_hi[k] >= 0:  # and on the low side of cell_hi
                out[fs.cell_hi[k]] -= fluxes[i][k]
    return out / mesh.cell_volume


def oracle_div_dual(mesh, fluxes):
    """Outflow sum per face control volume via the dual tables."""
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        acc = np.zeros(fs.count)
        c1 = mesh.dual_case1[i]
        for k in range(c1.count):
            f = 0.5 * (fluxes[i][c1.face_lo[k]] + fluxes[i][c1.face_hi[k]])
            acc[c1.face_lo[k]] += f
            acc[c1.face_hi[k]] -= f
        for c2 in mesh.dual_case2[i]:
            j = c2.ortho_axis
            for k in range(c2.count):
                f = 0.5 * (fluxes[j][c2.tau_lo[k]] + fluxes[j][c2.tau_hi[k]])
                acc[c2.face_lo[k]] += f
                acc[c2.face_hi[k]] -= f
        res = np.zeros(fs.count)
        idx = fs.interior_idx
        res[idx] = acc[idx] / fs.dvol[idx]
        out.append(res)
    return out


def oracle_convection(mesh, fluxes, v):
    """Dual-interface flux times centered average, per face volume."""
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        acc = np.zeros(fs.count)
        vi = v.components[i]
        c1 = mesh.dual_case1[i]
        for k in range(c1.count):
            f = 0.5 * (fluxes[i][c1.face_lo[k]] + fluxes[i][c1.face_hi[k]])
            avg = 0.5 * (vi[c1.face_lo[k]] + vi[c1.face_hi[k]])
            acc[c1.face_lo[k]] += f * avg
            acc[c1.face_hi[k]] -= f * avg
        for c2 in mesh.dual_case2[i]:
            j = c2.ortho_axis
            for k in range(c2.count):
                f = 0.5 * (fluxes[j][c2.tau_lo[k]] + fluxes[j][c2.tau_hi[k]])
                avg = 0.5 * (vi[c2.face_lo[k]] + vi[c2.face_hi[k]])
                acc[c2.face_lo[k]] += f * avg
                acc[c2.face_hi[k]] -= f * avg
        res = np.zeros(fs.count)
        idx = fs.interior_idx
        res[idx] = acc[idx] / fs.dvol[idx]
        out.append(res)
    return out


def oracle_laplacian(mesh, u):
    """Jump sums over dual interfaces plus wall penalties, per face."""
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        acc = np.zeros(fs.count)
        vi = u.components[i]
        c1 = mesh.dual_case1[i]
        for k in range(c1.count):
            w = c1.measure[k] / c1.dist[k]
            jump = vi[c1.face_lo[k]] - vi[c1.face_hi[k]]
            acc[c1.face_lo[k]] += w * jump
            acc[c1.face_hi[k]] -= w * jump
        for c2 in mesh.dual_case2[i]:
            for k in range(c2.count):
                w = c2.measure[k] / c2.dist[k]
                jump = vi[c2.face_lo[k]] - vi[c2.face_hi[k]]
                acc[c2.face_lo[k]] += w * jump
                acc[c2.face_hi[k]] -= w * jump
        for wall in mesh.dual_walls[i]:
            for k in range(wall.count):
                acc[wall.face[k]] += (wall.measure[k] / wall.dist[k]
                                      * vi[wall.face[k]])
        res = np.zeros(fs.count)
        idx = fs.interior_idx
        res[idx] = -acc[idx] / fs.dvol[idx]
        out.append(res)
    return out


# -- upwind fluxes ---------------------------------------------------------------

class TestUpwindFlux:
    def test_hand_values(self):
        # 2x1 mesh, rho = (2, 3); interior x-face measure 1
        mesh = hand_mesh()
        rho = ScalarField(mesh, np.array([2.0, 3.0]))
        comps = [np.zeros(3), np.zeros(4)]
        comps[0][1] = 1.0
        u = VelocityField(mesh, comps)
        flux = ops.upwind_face_flux(mesh, rho, u)
        assert flux[0][1] == pytest.approx(2.0)  # upstream cell 0
        comps[0][1] = -1.0
        u = VelocityField(mesh, comps)
        flux = ops.upwind_face_flux(mesh, rho, u)
        assert flux[0][1] == pytest.approx(-3.0)  # upstream cell 1

    def test_zero_velocity_zero_flux(self, any_mesh):
        rho = ScalarField.constant(any_mesh, 2.0)
        flux = ops.upwind_face_flux(any_mesh, rho,
                                    VelocityField.zeros(any_mesh))
        for f in flux:
            assert np.all(f == 0.0)

    def test_exterior_faces_zero(self, any_mesh):
        rng = np.random.default_rng(0)
        flux = ops.upwind_face_flux(any_mesh, random_scalar(any_mesh, rng),
                                    random_velocity(any_mesh, rng))
        for i in range(any_mesh.dim):
            assert np.all(flux[i][any_mesh.faces[i].exterior_idx] == 0.0)

    def test_matches_loop_oracle(self, any_mesh):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_scalar(any_mesh, rng)
            u = random_velocity(any_mesh, rng)
            flux = ops.upwind_face_flux(any_mesh, rho, u)
            expect = oracle_upwind_fluxes(any_mesh, rho, u)
            for a, b in zip(flux, expect):
                np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)


# -- primal divergence -----------------------------------------------------------

class TestPrimalDivergence:
    def test_hand_values(self):
        # single unit flux through the middle face of the 2x1 mesh
        mesh = hand_mesh()
        rho = ScalarField.constant(mesh, 2.0)
        comps = [np.zeros(3), np.zeros(4)]
        comps[0][1] = 1.0
        u = VelocityField(mesh, comps)
        div = ops.div_primal(mesh, rho, u)
        np.testing.assert_allclose(div, [2.0, -2.0])
        np.testing.assert_allclose(ops.div_velocity(mesh, u), [1.0, -1.0])

    def test_matches_loop_oracle(self, any_mesh):
        rng = np.random.default_rng(2)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        fluxes = ops.upwind_face_flux(any_mesh, rho, u)
        np.testing.assert_allclose(ops.div_from_fluxes(any_mesh, fluxes),
                                   oracle_div_cells(any_mesh, fluxes),
                                   rtol=1e-13, atol=1e-14)

    def test_total_mass_flux_is_zero(self, any_mesh):
        # impervious walls: the volume-weighted divergence sums to zero
        rng = np.random.default_rng(3)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        div = ops.div_primal(any_mesh, rho, u)
        assert abs(any_mesh.cell_volume @ div) < 1e-12


# -- pressure gradient and adjointness -------------------------------------------

class TestGradient:
    def test_hand_values(self):
        mesh = hand_mesh()
        p = ScalarField(mesh, np.array([0.0, 1.0]))
        g = ops.grad_pressure(mesh, p)
        # interior x-face: (1 - 0) / dist with dist = 1
        assert g[0][1] == pytest.approx(1.0)
        assert g[0][0] == 0.0 and g[0][2] == 0.0

    def test_constant_pressure_zero_gradient(self, any_mesh):
        g = ops.grad_pressure(any_mesh, ScalarField.constant(any_mesh, 4.2))
        for gi in g:
            assert np.all(gi == 0.0)

    def test_adjoint_to_divergence(self, any_mesh):
        # volume-weighted <p, div u> = -sum dvol grad(p) . u
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = ScalarField(any_mesh,
                            rng.standard_normal(any_mesh.n_cells))
            u = random_velocity(any_mesh, rng)
            a = float((any_mesh.cell_volume * p.values)
                      @ ops.div_velocity(any_mesh, u))
            g = ops.grad_pressure(any_mesh, p)
            b = sum(float((any_mesh.faces[i].dvol * g[i])
                          @ u.components[i])
                    for i in range(any_mesh.dim))
            assert abs(a + b) < 1e-12 * max(1.0, abs(a), abs(b))


# -- diffusion --------------------------------------------------------------------

class TestLaplacian:
    def test_matches_loop_oracle(self, any_mesh):
        rng = np.random.default_rng(5)
        u = random_velocity(any_mesh, rng)
        lap = ops.laplacian_apply(any_mesh, u)
        expect = oracle_laplacian(any_mesh, u)
        for a, b in zip(lap, expect):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_single_face_stencil(self):
        # one unit value on the interior x-face of the hand mesh:
        # two case-1 interfaces (w = 1) plus two wall strips (w = 2),
        # control volume 1  =>  Laplacian = -(1 + 1 + 2 + 2) = -6
        mesh = hand_mesh()
        comps = [np.zeros(3), np.zeros(4)]
        comps[0][1] = 1.0
        u = VelocityField(mesh, comps)
        lap = ops.laplacian_apply(mesh, u)
        assert lap[0][1] == pytest.approx(-6.0)

    def test_matrix_symmetry(self, any_mesh):
        for i in range(any_mesh.dim):
            mat = ops.diffusion_matrix(any_mesh, i)
            if mat.shape[0] == 0:
                continue
            asym = abs(mat - mat.T)
            scale = abs(mat).max()
            assert (asym.max() if asym.nnz else 0.0) <= 1e-13 * scale

    def test_matrix_matches_apply(self, any_mesh):
        rng = np.random.default_rng(6)
        u = random_velocity(any_mesh, rng)
        lap = ops.laplacian_apply(any_mesh, u)
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            if fs.n_interior == 0:
                continue
            mat = ops.diffusion_matrix(any_mesh, i)
            vec = u.components[i][fs.interior_idx]
            # matrix rows are volume-scaled: L v = -dvol * laplacian
            np.testing.assert_allclose(
                mat @ vec, -fs.dvol[fs.interior_idx] * lap[i][fs.interior_idx],
                rtol=1e-12, atol=1e-12)

    def test_coercivity_equals_h1(self, any_mesh):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = random_velocity(any_mesh, rng)
            lap = ops.laplacian_apply(any_mesh, u)
            a = -sum(float((any_mesh.faces[i].dvol * lap[i])
                           @ u.components[i])
                     for i in range(any_mesh.dim))
            b = norm_h1_squared(u)
            assert abs(a - b) <= 1e-12 * max(1.0, a, b)


# -- dual quantities ---------------------------------------------------------------

class TestDualDensity:
    def test_hand_values(self):
        mesh = hand_mesh()
        rho = ScalarField(mesh, np.array([2.0, 5.0]))
        rho_d = ops.dual_density(mesh, rho)
        # interior x-face: halves 0.5/0.5 of cells 2 and 5 -> 3.5
        assert rho_d[0][1] == pytest.approx(3.5)
        # wall x-faces inherit the adjacent cell
        assert rho_d[0][0] == pytest.approx(2.0)
        assert rho_d[0][2] == pytest.approx(5.0)

    def test_constant_preserved(self, any_mesh):
        rho_d = ops.dual_density(any_mesh,
                                 ScalarField.constant(any_mesh, 3.0))
        for arr in rho_d:
            np.testing.assert_allclose(arr, 3.0, rtol=1e-15)

    def test_convex_combination(self, any_mesh):
        rng = np.random.default_rng(8)
        rho = random_scalar(any_mesh, rng)
        rho_d = ops.dual_density(any_mesh, rho)
        for arr in rho_d:
            assert arr.min() >= rho.min() - 1e-14
            assert arr.max() <= rho.max() + 1e-14

    def test_mass_partition(self, any_mesh):
        # dual-volume-weighted dual densities recover the total mass
        rng = np.random.default_rng(9)
        rho = random_scalar(any_mesh, rng)
        total = rho.integral()
        rho_d = ops.dual_density(any_mesh, rho)
        for i in range(any_mesh.dim):
            assert float(any_mesh.faces[i].dvol @ rho_d[i]) == \
                pytest.approx(total, rel=1e-13)


class TestDualFluxes:
    def test_half_split_single_flux(self):
        # a single primal flux bisected by its cell's dual interface
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (3, 3))
        rho = ScalarField.constant(mesh, 1.0)
        comps = [np.zeros(mesh.faces[0].count),
                 np.zeros(mesh.faces[1].count)]
        # face (1, 1) in the (4, 3) x-face grid, flat id 4
        comps[0][4] = 1.0
        u = VelocityField(mesh, comps)
        fluxes = ops.upwind_face_flux(mesh, rho, u)
        duals = ops.dual_fluxes(mesh, fluxes, 0)
        measure = mesh.faces[0].measure[4]
        # the two case-1 interfaces of the host cells see half the flux;
        # case 1 is the first c1.count entries of the stacked table
        c1 = mesh.dual_case1[0]
        for k in range(c1.count):
            expected = 0.0
            if c1.face_lo[k] == 4 or c1.face_hi[k] == 4:
                expected = 0.5 * measure * 1.0
            assert duals[k] == pytest.approx(expected)

    def test_matches_loop_oracle(self, any_mesh):
        rng = np.random.default_rng(10)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        fluxes = ops.upwind_face_flux(any_mesh, rho, u)
        dd = ops.div_dual_from_fluxes(any_mesh, fluxes)
        expect = oracle_div_dual(any_mesh, fluxes)
        for a, b in zip(dd, expect):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


class TestDualDivergence:
    def test_zero_velocity(self, any_mesh):
        rng = np.random.default_rng(11)
        dd = ops.div_dual(any_mesh, random_scalar(any_mesh, rng),
                          VelocityField.zeros(any_mesh))
        for arr in dd:
            assert np.all(arr == 0.0)

    def test_unit_density_divfree_velocity(self, mesh2_graded):
        # with rho = 1 every cell divergence vanishes for a discretely
        # divergence-free velocity, so the dual divergence vanishes too.
        # Build the velocity from a vertex stream function vanishing on
        # the boundary: the cell divergence telescopes exactly.
        mesh = mesh2_graded
        xs, ys = mesh.axis_coords
        psi = np.outer(xs * (1 - xs), ys * (1 - ys)) ** 2  # vertices
        dx, dy = mesh.spacings
        ux = (psi[:, 1:] - psi[:, :-1]) / dy  # (nx+1, ny) x-face grid
        uy = -(psi[1:, :] - psi[:-1, :]) / dx[:, None]  # (nx, ny+1)
        u = VelocityField(mesh, [ux.ravel(), uy.ravel()])
        div = ops.div_velocity(mesh, u)
        assert np.abs(div).max() < 1e-13  # exact telescoping
        rho = ScalarField.constant(mesh, 1.0)
        dd = ops.div_dual(mesh, rho, u)
        for i in range(mesh.dim):
            assert np.abs(dd[i]).max() < 1e-12

    def test_balance_with_primal(self, any_mesh):
        # |D| * div_dual at a face = half the volume-weighted cell
        # divergences of its two neighbours
        rng = np.random.default_rng(12)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        fluxes = ops.upwind_face_flux(any_mesh, rho, u)
        div_c = ops.div_from_fluxes(any_mesh, fluxes)
        dd = ops.div_dual_from_fluxes(any_mesh, fluxes)
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            for k in fs.interior_idx:
                lhs = fs.dvol[k] * dd[i][k]
                klo, khi = fs.cell_lo[k], fs.cell_hi[k]
                rhs = 0.5 * (any_mesh.cell_volume[klo] * div_c[klo]
                             + any_mesh.cell_volume[khi] * div_c[khi])
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))


# -- convection ---------------------------------------------------------------------

class TestConvection:
    def test_matches_loop_oracle(self, any_mesh):
        rng = np.random.default_rng(13)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        v = random_velocity(any_mesh, rng)
        fluxes = ops.upwind_face_flux(any_mesh, rho, u)
        conv = ops.convection_apply(any_mesh, fluxes, v)
        expect = oracle_convection(any_mesh, fluxes, v)
        for a, b in zip(conv, expect):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)

    def test_skew_identity(self, any_mesh):
        # testing convection against its own transported field leaves
        # exactly half the dual mass divergence weighted by the square
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = random_scalar(any_mesh, rng)
            u = random_velocity(any_mesh, rng)
            v = random_velocity(any_mesh, rng)
            fluxes = ops.upwind_face_flux(any_mesh, rho, u)
            conv = ops.convection_apply(any_mesh, fluxes, v)
            dd = ops.div_dual_from_fluxes(any_mesh, fluxes)
            lhs = sum(float((any_mesh.faces[i].dvol * conv[i])
                            @ v.components[i])
                      for i in range(any_mesh.dim))
            rhs = 0.5 * sum(
                float((any_mesh.faces[i].dvol * dd[i])
                      @ v.components[i] ** 2)
                for i in range(any_mesh.dim))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_zero_for_constant_density_divfree(self, mesh2_uniform):
        # constant rho + discretely divergence-free u: the quadratic form
        # vanishes for every v (skew symmetry of the convection operator)
        mesh = mesh2_uniform
        rng = np.random.default_rng(15)
        from macflow.verify import project_divergence_free
        [u] = project_divergence_free(mesh, [random_velocity(mesh, rng)])
        div = ops.div_velocity(mesh, u)
        assert np.abs(div).max() < 1e-10
        rho = ScalarField.constant(mesh, 1.3)
        fluxes = ops.upwind_face_flux(mesh, rho, u)
        for _ in range(5):
            v = random_velocity(mesh, rng)
            conv = ops.convection_apply(mesh, fluxes, v)
            q = sum(float((mesh.faces[i].dvol * conv[i]) @ v.components[i])
                    for i in range(mesh.dim))
            assert abs(q) < 1e-9

    def test_matrix_matches_apply(self, any_mesh):
        rng = np.random.default_rng(16)
        rho = random_scalar(any_mesh, rng)
        u = random_velocity(any_mesh, rng)
        v = random_velocity(any_mesh, rng)
        fluxes = ops.upwind_face_flux(any_mesh, rho, u)
        conv = ops.convection_apply(any_mesh, fluxes, v)
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            if fs.n_interior == 0:
                continue
            mat = ops.convection_matrix(any_mesh, fluxes, i)
            vec = v.components[i][fs.interior_idx]
            # volume-scaled rows: C v = dvol * convection
            np.testing.assert_allclose(
                mat @ vec,
                fs.dvol[fs.interior_idx] * conv[i][fs.interior_idx],
                rtol=1e-12, atol=1e-12)


# -- duality identity ---------------------------------------------------------------

class TestDualityIdentity:
    def test_single_nonzero_hand_case(self):
        # one unit x-flux on a 3x3 grid; both sides computed by hand from
        # the half-split rule: each side reduces to a sum over the dual
        # interfaces bisecting that flux
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (3, 3))
        fluxes = [np.zeros(mesh.faces[0].count),
                  np.zeros(mesh.faces[1].count)]
        fluxes[0][4] = 1.0  # interior face (1,1) of the x-face grid
        rng = np.random.default_rng(17)
        w = random_velocity(mesh, rng)
        dd = ops.div_dual_from_fluxes(mesh, fluxes)
        lhs = float((mesh.faces[0].dvol * dd[0]) @ w.components[0])
        rhs = ops.dual_pairing(
            mesh, 0, ops.flux_reconstruction(mesh, fluxes, 0),
            ops.dual_gradient(mesh, 0, w))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_brute_force_both_sides(self, any_mesh):
        # both sides recomputed with explicit loops over the dual tables
        mesh = any_mesh
        rng = np.random.default_rng(18)
        rho = random_scalar(mesh, rng)
        v = random_velocity(mesh, rng)
        w = random_velocity(mesh, rng)
        fluxes = ops.upwind_face_flux(mesh, rho, v)
        dd = oracle_div_dual(mesh, fluxes)
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            wi = w.components[i]
            lhs = sum(fs.dvol[k] * dd[i][k] * wi[k]
                      for k in range(fs.count))
            rhs = 0.0
            c1 = mesh.dual_case1[i]
            for k in range(c1.count):
                f = 0.5 * (fluxes[i][c1.face_lo[k]]
                           + fluxes[i][c1.face_hi[k]])
                rhs += f * (wi[c1.face_lo[k]] - wi[c1.face_hi[k]])
            for c2 in mesh.dual_case2[i]:
                j = c2.ortho_axis
                for k in range(c2.count):
                    f = 0.5 * (fluxes[j][c2.tau_lo[k]]
                               + fluxes[j][c2.tau_hi[k]])
                    rhs += f * (wi[c2.face_lo[k]] - wi[c2.face_hi[k]])
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_pairing_form_matches(self, any_mesh):
        mesh = any_mesh
        rng = np.random.default_rng(19)
        for _ in range(5):
            rho = random_scalar(mesh, rng)
            v = random_velocity(mesh, rng)
            w = random_velocity(mesh, rng)
            fluxes = ops.upwind_face_flux(mesh, rho, v)
            dd = ops.div_dual_from_fluxes(mesh, fluxes)
            for i in range(mesh.dim):
                lhs = float((mesh.faces[i].dvol * dd[i]) @ w.components[i])
                rhs = ops.dual_pairing(
                    mesh, i, ops.flux_reconstruction(mesh, fluxes, i),
                    ops.dual_gradient(mesh, i, w))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_constant_test_velocity(self, any_mesh):
        # w constant on interior faces: the pairing telescopes to the wall
        # jumps only; both sides must still agree
        mesh = any_mesh
        rng = np.random.default_rng(20)
        rho = random_scalar(mesh, rng)
        v = random_velocity(mesh, rng)
        w = VelocityField(mesh, [np.ones(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        fluxes = ops.upwind_face_flux(mesh, rho, v)
        dd = ops.div_dual_from_fluxes(mesh, fluxes)
        for i in range(mesh.dim):
            lhs = float((mesh.faces[i].dvol * dd[i]) @ w.components[i])
            rhs = ops.dual_pairing(
                mesh, i, ops.flux_reconstruction(mesh, fluxes, i),
                ops.dual_gradient(mesh, i, w))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))

