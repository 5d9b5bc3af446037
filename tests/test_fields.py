"""Field containers, projections, norms, and file round-trips."""

import math
import re

import numpy as np
import pytest

from macflow.grid import build_mesh, build_uniform_mesh
from macflow.fields import (ScalarField, Trajectory, VelocityField,
                            cell_average, cell_centered_velocity,
                            fortin_interpolate, norm_h1, norm_h1_squared,
                            norm_l2_cells, norm_lp_dual, sample_at_faces,
                            scalar_from_csv, scalar_to_csv,
                            velocity_from_csv, velocity_to_csv, write_vtk)

from conftest import graded_mesh


def hand_mesh():
    return build_mesh([[0.0, 2.0], [0.0, 1.0]],
                      [[0.0, 1.0, 2.0], [0.0, 1.0]])


class TestScalarField:
    def test_shape_checked(self, mesh2_uniform):
        with pytest.raises(ValueError):
            ScalarField(mesh2_uniform, np.zeros(3))

    def test_constant_and_reductions(self, mesh2_uniform):
        f = ScalarField.constant(mesh2_uniform, 2.5)
        assert f.min() == 2.5 and f.max() == 2.5
        assert f.integral() == pytest.approx(2.5 * mesh2_uniform.volume)
        assert f.mean() == pytest.approx(2.5)

    def test_zero_mean_tag_rejects(self, mesh2_uniform):
        with pytest.raises(ValueError):
            ScalarField(mesh2_uniform, np.ones(mesh2_uniform.n_cells),
                        zero_mean=True)

    def test_zero_mean_tag_accepts_shifted(self, mesh2_graded):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(mesh2_graded.n_cells)
        vals -= (mesh2_graded.cell_volume @ vals) / mesh2_graded.volume
        f = ScalarField(mesh2_graded, vals, zero_mean=True)
        assert f.zero_mean

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_zero_mean_tag_rejects_non_finite(self, mesh2_graded, bad):
        # a NaN or infinite sum fails the zero-mean test, whatever else
        # the values hold
        vals = np.zeros(mesh2_graded.n_cells)
        vals[3] = bad
        with pytest.raises(ValueError):
            ScalarField(mesh2_graded, vals, zero_mean=True)


class TestVelocityField:
    def test_exterior_faces_zeroed(self, any_mesh):
        mesh = any_mesh
        u = VelocityField(mesh, [np.ones(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        for i in range(mesh.dim):
            ext = mesh.faces[i].exterior_idx
            assert np.all(u.components[i][ext] == 0.0)
            assert np.all(u.components[i][mesh.faces[i].interior_idx] == 1.0)

    def test_pack_round_trip(self, any_mesh):
        mesh = any_mesh
        rng = np.random.default_rng(5)
        u = VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        vec = u.pack_interior()
        v = VelocityField.from_interior(mesh, vec)
        for i in range(mesh.dim):
            np.testing.assert_array_equal(u.components[i], v.components[i])

    @staticmethod
    def check_mesh_pack_round_trip(mesh):
        # the mesh packs per-direction face arrays in the unknown order of
        # the saddle system, which from_interior reads back
        rng = np.random.default_rng(6)
        arrays = [rng.standard_normal(fs.count) for fs in mesh.faces]
        vec = mesh.pack_interior(arrays)
        assert vec.size == sum(fs.n_interior for fs in mesh.faces)
        u = VelocityField.from_interior(mesh, vec)
        for a, c, fs in zip(arrays, u.components, mesh.faces):
            np.testing.assert_array_equal(c[fs.interior_idx],
                                          a[fs.interior_idx])
            assert not c[fs.exterior_idx].any()
        np.testing.assert_array_equal(u.pack_interior(), vec)

    def test_mesh_pack_round_trip(self, any_mesh):
        self.check_mesh_pack_round_trip(any_mesh)

    @pytest.mark.parametrize("mesh", [
        build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (1, 4)),
        graded_mesh((1, 2, 3), seed=7),
    ], ids=["1x4", "graded-1x2x3"])
    def test_mesh_pack_round_trip_thin_meshes(self, mesh):
        # one cell across an axis leaves that component no unknowns
        assert mesh.faces[0].n_interior == 0
        self.check_mesh_pack_round_trip(mesh)

    def test_from_interior_length_checked(self, mesh2_uniform):
        with pytest.raises(ValueError):
            VelocityField.from_interior(mesh2_uniform, np.zeros(3))

    def test_component_length_checked(self, mesh2_uniform):
        comps = [np.zeros(fs.count) for fs in mesh2_uniform.faces]
        comps[1] = comps[1][1:]
        with pytest.raises(ValueError, match="component 1: expected"):
            VelocityField(mesh2_uniform, comps)


class TestCellAverage:
    def test_constant(self, any_mesh):
        f = cell_average(any_mesh, lambda *xs: np.full_like(xs[0], 3.0))
        np.testing.assert_allclose(f.values, 3.0, rtol=1e-15)

    def test_linear_hand_values(self):
        # mean of x over [0,1]x[0,1] is 0.5, over [1,2]x[0,1] is 1.5
        mesh = hand_mesh()
        f = cell_average(mesh, lambda x, y: x)
        np.testing.assert_allclose(f.values, [0.5, 1.5], rtol=1e-14)

    def test_quintic_exact(self):
        # 3-point Gauss rules integrate degree-5 polynomials exactly:
        # mean of x^5 over [0,2] is 2^5/6
        mesh = hand_mesh()
        f = cell_average(mesh, lambda x, y: x ** 5)
        np.testing.assert_allclose(f.values, [1.0 / 6.0, 21.0 / 2.0],
                                   rtol=1e-13)

    def test_respects_bounds(self, mesh2_graded):
        fn = lambda x, y: 1.0 + 0.5 * np.sin(7 * x) * np.cos(3 * y)
        f = cell_average(mesh2_graded, fn)
        assert f.min() >= 0.5 - 1e-12
        assert f.max() <= 1.5 + 1e-12


class TestFortin:
    def test_constant_axis_field(self, mesh2_graded):
        # face means of (1, 0): one on interior x-faces, zero on walls
        u = fortin_interpolate(mesh2_graded,
                               [lambda x, y: np.ones_like(x),
                                lambda x, y: np.zeros_like(x)])
        fs = mesh2_graded.faces[0]
        np.testing.assert_allclose(u.components[0][fs.interior_idx], 1.0,
                                   rtol=1e-14)
        assert np.all(u.components[0][fs.exterior_idx] == 0.0)
        assert np.all(u.components[1] == 0.0)

    def test_matches_mean_of_linear(self):
        # mean of u = x over the face x = 1 of the hand mesh is exactly 1
        mesh = hand_mesh()
        u = fortin_interpolate(mesh, [lambda x, y: x,
                                      lambda x, y: np.zeros_like(x)])
        assert u.components[0][1] == pytest.approx(1.0, rel=1e-14)

    def test_sample_at_faces_points(self):
        mesh = hand_mesh()
        u = sample_at_faces(mesh, [lambda x, y: x + 10 * y,
                                   lambda x, y: np.zeros_like(x)])
        # interior x-face center is (1.0, 0.5)
        assert u.components[0][1] == pytest.approx(6.0)


class TestNorms:
    def test_single_face_oracle(self):
        # one interior x-face with control volume 1.0 on the hand mesh
        mesh = hand_mesh()
        comps = [np.zeros(mesh.faces[0].count),
                 np.zeros(mesh.faces[1].count)]
        comps[0][1] = 3.0
        u = VelocityField(mesh, comps)
        assert norm_lp_dual(u, 2) == pytest.approx(3.0)
        assert norm_lp_dual(u, 4) == pytest.approx(3.0)
        assert norm_lp_dual(u, np.inf) == pytest.approx(3.0)
        # dual interfaces around that face: two case-1 (measure 1, dist 1)
        # and two wall strips (measure 1, dist 1/2)
        expected = 2 * 9.0 + 2 * 2.0 * 9.0
        assert norm_h1_squared(u) == pytest.approx(expected)

    def test_homogeneity_and_triangle(self, mesh2_graded):
        rng = np.random.default_rng(11)
        mesh = mesh2_graded
        mk = lambda: VelocityField(
            mesh, [rng.standard_normal(mesh.faces[i].count)
                   for i in range(mesh.dim)])
        u, v = mk(), mk()
        s = VelocityField(mesh, [a + b for a, b in
                                 zip(u.components, v.components)])
        for p in (2, 4, 6, np.inf):
            assert norm_lp_dual(s, p) <= (norm_lp_dual(u, p)
                                          + norm_lp_dual(v, p) + 1e-12)
        scaled = VelocityField(mesh, [-2.0 * c for c in u.components])
        assert norm_lp_dual(scaled, 2) == pytest.approx(
            2.0 * norm_lp_dual(u, 2), rel=1e-13)
        assert norm_h1(scaled) == pytest.approx(2.0 * norm_h1(u), rel=1e-13)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_component_gives_nan(self, axis):
        # every norm carries a NaN of either component, whichever comes
        # first
        mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (4, 4))
        comps = [np.ones(fs.count) for fs in mesh.faces]
        comps[axis][mesh.faces[axis].interior_idx[0]] = np.nan
        u = VelocityField(mesh, comps)
        for p in (2, 4, 6, np.inf):
            assert math.isnan(norm_lp_dual(u, p)), p

    def test_unsupported_exponent_rejected(self, mesh2_uniform):
        u = VelocityField.zeros(mesh2_uniform)
        for bad in (1, 3, 5, 2.5, "2"):
            with pytest.raises(ValueError):
                norm_lp_dual(u, bad)

    def test_h1_zero_only_for_zero(self, mesh2_graded):
        rng = np.random.default_rng(3)
        mesh = mesh2_graded
        u = VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        assert norm_h1(u) > 0
        assert norm_h1(VelocityField.zeros(mesh)) == 0.0

    def test_l2_cells_oracle(self):
        mesh = hand_mesh()
        f = ScalarField(mesh, np.array([3.0, 4.0]))
        assert norm_l2_cells(f) == pytest.approx(5.0)


class TestSerialization:
    def test_scalar_round_trip_bit_exact(self, tmp_path, any_mesh):
        rng = np.random.default_rng(17)
        f = ScalarField(any_mesh, rng.standard_normal(any_mesh.n_cells))
        path = tmp_path / "f.csv"
        scalar_to_csv(f, path)
        g = scalar_from_csv(any_mesh, path)
        np.testing.assert_array_equal(f.values, g.values)

    def test_velocity_round_trip_bit_exact(self, tmp_path, any_mesh):
        rng = np.random.default_rng(18)
        mesh = any_mesh
        u = VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        path = tmp_path / "u.csv"
        velocity_to_csv(u, path)
        v = velocity_from_csv(mesh, path)
        for i in range(mesh.dim):
            np.testing.assert_array_equal(u.components[i], v.components[i])

    def test_readers_check_the_header(self, tmp_path, mesh2_uniform):
        # each reader refuses the other's file by its header
        u = VelocityField(mesh2_uniform)
        velocity_to_csv(u, tmp_path / "u.csv")
        scalar_to_csv(ScalarField.constant(mesh2_uniform, 1.0),
                      tmp_path / "f.csv")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            scalar_from_csv(mesh2_uniform, tmp_path / "u.csv")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            velocity_from_csv(mesh2_uniform, tmp_path / "f.csv")

    def test_scalar_row_count_checked(self, tmp_path, mesh2_uniform):
        path = tmp_path / "short.csv"
        path.write_text("id,value\n0,1.0\n")
        with pytest.raises(ValueError):
            scalar_from_csv(mesh2_uniform, path)

    # a 2x2 mesh has 4 cells and 6 faces per direction; each bad file
    # differs from a good one in one row
    @pytest.mark.parametrize("ids", [[0, 0, 2, 3], [0, 1, 2, -1],
                                     [0, 1, 2, 4]],
                             ids=["duplicate", "negative", "past-end"])
    def test_scalar_ids_checked(self, tmp_path, ids):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
        path = tmp_path / "bad.csv"
        path.write_text("id,value\n" + "".join(
            f"{k},{n + 1}.0\n" for n, k in enumerate(ids)))
        with pytest.raises(ValueError, match="ids 0..3, each once"):
            scalar_from_csv(mesh, path)

    @pytest.mark.parametrize("row", ["0,0", "0,-1", "0,6"],
                             ids=["duplicate", "negative", "past-end"])
    def test_velocity_ids_checked(self, tmp_path, row):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
        rows = [f"{i},{k},1.0" for i in range(2) for k in range(6)]
        rows[1] = f"{row},1.0"
        path = tmp_path / "bad.csv"
        path.write_text("direction,id,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="component 0 needs ids 0..5"):
            velocity_from_csv(mesh, path)

    # files from outside the program: each differs from a good 2x2 file
    # in one row, and the error names the file
    @pytest.mark.parametrize("tail", ["3", "3,4.0\n", "3,4.0,5.0",
                                      "x,4.0", "3,four",
                                      "99999999999999999999,4.0"],
                             ids=["short-row", "blank-line", "extra-cell",
                                  "bad-id", "bad-value", "huge-id"])
    def test_scalar_malformed_row(self, tmp_path, tail):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
        path = tmp_path / "bad.csv"
        path.write_text(f"id,value\n0,1.0\n1,2.0\n2,3.0\n{tail}\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            scalar_from_csv(mesh, path)

    @pytest.mark.parametrize("row", ["x,0,0.0", "0,1", "0,1,1.0,2.0", ""],
                             ids=["bad-direction", "short-row", "extra-cell",
                                  "blank-line"])
    def test_velocity_malformed_row(self, tmp_path, row):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
        rows = [f"{i},{k},1.0" for i in range(2) for k in range(6)]
        rows[1] = row
        path = tmp_path / "bad.csv"
        path.write_text("direction,id,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            velocity_from_csv(mesh, path)

    def test_velocity_direction_checked(self, tmp_path):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (2, 2))
        rows = [f"{i},{k},1.0" for i in range(2) for k in range(6)]
        rows[1] = "2,1,1.0"
        path = tmp_path / "bad.csv"
        path.write_text("direction,id,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="direction 2 outside 0..1"):
            velocity_from_csv(mesh, path)

    def test_header_content(self, tmp_path, mesh2_uniform):
        f = ScalarField.constant(mesh2_uniform, 1.0)
        path = tmp_path / "f.csv"
        scalar_to_csv(f, path, cfg_hash="abcd1234")
        text = path.read_text()
        assert "# kind: scalar-field" in text
        assert "# config_hash: abcd1234" in text
        assert "# units: nondimensional" in text


class TestVtk:
    def test_2d_snapshot(self, tmp_path):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (4, 3))
        rng = np.random.default_rng(2)
        rho = ScalarField(mesh, rng.uniform(1, 2, mesh.n_cells))
        u = VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
        path = tmp_path / "snap.vtk"
        write_vtk(path, mesh, rho=rho, u=u)
        text = path.read_text()
        assert "DATASET RECTILINEAR_GRID" in text
        assert "DIMENSIONS 5 4 1" in text
        assert f"CELL_DATA {mesh.n_cells}" in text
        assert "SCALARS density" in text
        assert "VECTORS velocity" in text

    def test_vtk_cell_order_x_fastest(self, tmp_path):
        # cell values must appear x-fastest; encode the x-index in the value
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (3, 2))
        idx = np.indices(mesh.cells).reshape(2, -1)
        rho = ScalarField(mesh, idx[0].astype(float))
        path = tmp_path / "order.vtk"
        write_vtk(path, mesh, rho=rho)
        lines = path.read_text().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        vals = [float(v) for v in lines[start:start + mesh.n_cells]]
        assert vals == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]

    def test_3d_snapshot(self, tmp_path, mesh3_uniform):
        path = tmp_path / "snap3.vtk"
        write_vtk(path, mesh3_uniform,
                  rho=ScalarField.constant(mesh3_uniform, 1.0),
                  p=ScalarField.zeros(mesh3_uniform))
        text = path.read_text()
        assert "DIMENSIONS 4 4 4" in text
        assert "SCALARS pressure" in text


def test_cell_centered_velocity_hand_values():
    mesh = hand_mesh()
    comps = [np.array([9.0, 4.0, 9.0]), np.zeros(4)]
    u = VelocityField(mesh, comps)  # exterior entries zeroed to 0
    cc = cell_centered_velocity(u)
    np.testing.assert_allclose(cc[:, 0], [2.0, 2.0])
    np.testing.assert_allclose(cc[:, 1], [0.0, 0.0])
    assert cc.shape == (2, 3)


def test_trajectory_append(mesh2_uniform):
    traj = Trajectory(mesh2_uniform)
    assert len(traj) == 0
    traj.append(0.0, ScalarField.zeros(mesh2_uniform),
                VelocityField.zeros(mesh2_uniform))
    traj.append(0.1, ScalarField.zeros(mesh2_uniform),
                VelocityField.zeros(mesh2_uniform),
                ScalarField.zeros(mesh2_uniform))
    assert len(traj) == 2
    assert traj.p[0] is None and traj.p[1] is not None
