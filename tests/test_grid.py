"""Mesh geometry against hand-computed oracles and validation rules."""

import csv

import numpy as np
import pytest

from macflow.grid import (MeshValidationError, build_mesh,
                          build_uniform_mesh, dump_mesh_tables, mesh_step,
                          regularity)

from conftest import graded_mesh


class TestHandGeometry:
    """Every number on a 2x1 mesh over [0,2]x[0,1], worked out by hand."""

    def setup_method(self):
        self.mesh = build_mesh([[0.0, 2.0], [0.0, 1.0]],
                               [[0.0, 1.0, 2.0], [0.0, 1.0]])

    def test_cells(self):
        m = self.mesh
        assert m.dim == 2
        assert m.cells == (2, 1)
        assert m.n_cells == 2
        assert m.volume == 2.0
        np.testing.assert_allclose(m.cell_volume, [1.0, 1.0])
        np.testing.assert_allclose(m.cell_center,
                                   [[0.5, 0.5], [1.5, 0.5]])

    def test_x_faces(self):
        fs = self.mesh.faces[0]
        assert fs.shape == (3, 1)
        assert fs.count == 3
        np.testing.assert_allclose(fs.measure, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(fs.cell_lo, [-1, 0, 1])
        np.testing.assert_array_equal(fs.cell_hi, [0, 1, -1])
        np.testing.assert_allclose(fs.dist, [0.5, 1.0, 0.5])
        np.testing.assert_allclose(fs.dvol, [0.5, 1.0, 0.5])
        np.testing.assert_array_equal(fs.interior_idx, [1])
        np.testing.assert_array_equal(fs.exterior_idx, [0, 2])
        # half-cell volumes on each side of the face
        np.testing.assert_allclose(fs.half_lo, [0.0, 0.5, 0.5])
        np.testing.assert_allclose(fs.half_hi, [0.5, 0.5, 0.0])

    def test_y_faces_all_walls(self):
        fs = self.mesh.faces[1]
        assert fs.shape == (2, 2)
        assert fs.count == 4
        assert fs.n_interior == 0
        np.testing.assert_allclose(fs.dist, [0.5, 0.5, 0.5, 0.5])

    def test_dual_case1_x(self):
        c1 = self.mesh.dual_case1[0]
        np.testing.assert_array_equal(c1.cell, [0, 1])
        np.testing.assert_array_equal(c1.face_lo, [0, 1])
        np.testing.assert_array_equal(c1.face_hi, [1, 2])
        np.testing.assert_allclose(c1.measure, [1.0, 1.0])
        np.testing.assert_allclose(c1.dist, [1.0, 1.0])

    def test_dual_case2_x_empty(self):
        # a single cell across y leaves no interface between face columns
        (c2,) = self.mesh.dual_case2[0]
        assert c2.count == 0

    def test_walls_x(self):
        walls = self.mesh.dual_walls[0]
        assert len(walls) == 2
        for w in walls:
            np.testing.assert_array_equal(w.face, [1])
            np.testing.assert_allclose(w.measure, [1.0])
            np.testing.assert_allclose(w.dist, [0.5])


class TestRegularity:
    def test_uniform_square_is_one(self):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (4, 4))
        assert regularity(mesh) == pytest.approx(1.0)

    def test_anisotropic_spacings(self):
        # spacings 1 and 2: the x-face measure is 2, the y-face measure 1
        mesh = build_mesh([[0, 1], [0, 2]], [[0.0, 1.0], [0.0, 2.0]])
        assert regularity(mesh) == pytest.approx(2.0)

    def test_stretched_ratio(self):
        r = 3.5
        mesh = build_mesh([[0, 1 + r], [0, 1]],
                          [[0.0, 1.0, 1.0 + r], [0.0, 1.0]])
        assert regularity(mesh) == pytest.approx(r)

    def test_uniform_cube_is_one(self):
        mesh = build_uniform_mesh([[0, 1]] * 3, (3, 3, 3))
        assert regularity(mesh) == pytest.approx(1.0)


class TestMeshStep:
    def test_square_cells(self):
        mesh = build_uniform_mesh([[0, 1], [0, 1]], (4, 4))
        assert mesh_step(mesh) == pytest.approx(0.25 * np.sqrt(2.0))

    def test_cubic_cells(self):
        mesh = build_uniform_mesh([[0, 1]] * 3, (2, 2, 2))
        assert mesh_step(mesh) == pytest.approx(0.5 * np.sqrt(3.0))

    def test_rectangular_cells(self):
        # a single 1 x 2 cell has diameter sqrt(5)
        mesh = build_mesh([[0, 1], [0, 2]], [[0.0, 1.0], [0.0, 2.0]])
        assert mesh_step(mesh) == pytest.approx(np.sqrt(5.0))

    def test_takes_largest_cell(self):
        mesh = build_mesh([[0, 3], [0, 1]], [[0.0, 1.0, 3.0], [0.0, 1.0]])
        assert mesh_step(mesh) == pytest.approx(np.sqrt(4.0 + 1.0))


class TestDualVolumePartition:
    """Per component, the face-centered control volumes tile the box."""

    def test_partition(self, any_mesh):
        for i in range(any_mesh.dim):
            total = any_mesh.faces[i].dvol.sum()
            assert total == pytest.approx(any_mesh.volume, abs=1e-13)

    def test_dvol_is_measure_times_dist(self, any_mesh):
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            np.testing.assert_allclose(fs.dvol, fs.measure * fs.dist,
                                       rtol=1e-15)

    def test_half_cells_sum_to_dvol(self, any_mesh):
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            np.testing.assert_allclose(fs.half_lo + fs.half_hi, fs.dvol,
                                       rtol=1e-14)


class TestTableClosure:
    """Index ranges, adjacency consistency, and entry counts."""

    def test_face_cell_adjacency(self, any_mesh):
        mesh = any_mesh
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            assert fs.cell_lo.min() >= -1 and fs.cell_lo.max() < mesh.n_cells
            assert fs.cell_hi.min() >= -1 and fs.cell_hi.max() < mesh.n_cells
            interior = (fs.cell_lo >= 0) & (fs.cell_hi >= 0)
            np.testing.assert_array_equal(interior, fs.is_interior)
            # each interior face separates two distinct cells
            assert np.all(fs.cell_lo[fs.interior_idx]
                          != fs.cell_hi[fs.interior_idx])

    def test_case1_counts_and_ranges(self, any_mesh):
        mesh = any_mesh
        for i in range(mesh.dim):
            c1 = mesh.dual_case1[i]
            assert c1.count == mesh.n_cells
            assert c1.face_lo.min() >= 0
            assert c1.face_hi.max() < mesh.faces[i].count
            # the two faces of a cell differ by one step along the axis
            assert np.all(c1.face_hi > c1.face_lo)
            # interface measure times extent equals the cell volume
            np.testing.assert_allclose(c1.measure * c1.dist,
                                       mesh.cell_volume[c1.cell],
                                       rtol=1e-14)

    def test_case2_counts(self):
        mesh = graded_mesh((5, 4), seed=1)
        nx, ny = mesh.cells
        (c2x,) = mesh.dual_case2[0]
        assert c2x.count == (nx - 1) * (ny - 1)
        (c2y,) = mesh.dual_case2[1]
        assert c2y.count == (ny - 1) * (nx - 1)

    def test_case2_separates_interior_faces(self, any_mesh):
        mesh = any_mesh
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            for c2 in mesh.dual_case2[i]:
                if c2.count == 0:
                    continue
                assert np.all(fs.is_interior[c2.face_lo])
                assert np.all(fs.is_interior[c2.face_hi])
                tfs = mesh.faces[c2.ortho_axis]
                assert c2.tau_lo.min() >= 0
                assert c2.tau_hi.max() < tfs.count
                np.testing.assert_allclose(
                    c2.measure,
                    0.5 * (tfs.measure[c2.tau_lo] + tfs.measure[c2.tau_hi]),
                    rtol=1e-14)

    def test_wall_counts_2d(self):
        mesh = graded_mesh((5, 4), seed=2)
        nx, ny = mesh.cells
        walls_x = mesh.dual_walls[0]
        assert len(walls_x) == 2
        assert sum(w.count for w in walls_x) == 2 * (nx - 1)

    def test_wall_faces_are_interior(self, any_mesh):
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            for w in any_mesh.dual_walls[i]:
                if w.count:
                    assert np.all(fs.is_interior[w.face])
                    assert np.all(w.dist > 0)

    def test_3d_table_families(self, mesh3_uniform):
        mesh = mesh3_uniform
        for i in range(3):
            assert len(mesh.dual_case2[i]) == 2
            assert len(mesh.dual_walls[i]) == 4  # 2 axes x 2 sides

    def test_dual_interfaces_stack_families(self, any_mesh):
        mesh = any_mesh
        # where each direction's faces start in the concatenated fluxes
        start = [sum(fs.count for fs in mesh.faces[:j])
                 for j in range(mesh.dim)]
        for i in range(mesh.dim):
            t = mesh.dual_interfaces[i]
            c1, c2s = mesh.dual_case1[i], mesh.dual_case2[i]
            assert t.count == c1.count + sum(c2.count for c2 in c2s)
            rows = [(c1, np.s_[:c1.count])]
            pos = c1.count
            for c2 in c2s:
                rows.append((c2, np.s_[pos:pos + c2.count]))
                pos += c2.count
            for fam, sl in rows:
                for name in ("face_lo", "face_hi", "measure", "dist"):
                    np.testing.assert_array_equal(getattr(t, name)[sl],
                                                  getattr(fam, name))
            np.testing.assert_array_equal(t.flux_lo[:c1.count],
                                          start[i] + c1.face_lo)
            np.testing.assert_array_equal(t.flux_hi[:c1.count],
                                          start[i] + c1.face_hi)
            for c2, sl in rows[1:]:
                np.testing.assert_array_equal(t.flux_lo[sl],
                                              start[c2.ortho_axis] + c2.tau_lo)
                np.testing.assert_array_equal(t.flux_hi[sl],
                                              start[c2.ortho_axis] + c2.tau_hi)
            walls = mesh.dual_walls[i]
            np.testing.assert_array_equal(
                t.wall_face, [k for w in walls for k in w.face])
            np.testing.assert_array_equal(
                t.wall_weight,
                [m / d for w in walls for m, d in zip(w.measure, w.dist)])
            for name in ("face_lo", "face_hi", "measure", "dist", "flux_lo",
                         "flux_hi", "wall_face", "wall_weight"):
                with pytest.raises(ValueError):
                    getattr(t, name)[:1] = 0


def check_strip_geometry(mesh):
    """Case-2 and wall strip families against closed forms that share no
    code with the mesh construction: along component i, the strips on one
    grid plane orthogonal to j measure (L_i - (h_i[0] + h_i[-1])/2) times
    the lengths of the remaining axes, and n_j - 1 such planes are
    interior."""
    lengths = mesh.domain_box[:, 1] - mesh.domain_box[:, 0]
    for i in range(mesh.dim):
        h = mesh.spacings[i]
        c2s, walls = iter(mesh.dual_case2[i]), iter(mesh.dual_walls[i])
        for j in range(mesh.dim):
            if j == i:
                continue
            plane = (lengths[i] - 0.5 * (h[0] + h[-1])) * np.prod(
                [lengths[k] for k in range(mesh.dim) if k not in (i, j)])
            c2 = next(c2s)
            assert c2.ortho_axis == j
            assert c2.measure.sum() == pytest.approx(
                (mesh.cells[j] - 1) * plane, rel=1e-13)
            for arr in (c2.face_lo, c2.face_hi, c2.tau_lo, c2.tau_hi):
                assert arr.dtype == np.int64
            for side, h_wall in enumerate((mesh.spacings[j][0],
                                           mesh.spacings[j][-1])):
                w = next(walls)
                assert (w.ortho_axis, w.side) == (j, side)
                assert w.measure.sum() == pytest.approx(plane, rel=1e-13)
                np.testing.assert_allclose(w.dist, 0.5 * h_wall, rtol=1e-15)
                assert w.face.dtype == np.int64


class TestStripGeometry:
    def test_meshes(self, any_mesh):
        check_strip_geometry(any_mesh)

    @pytest.mark.parametrize("mesh", [
        build_uniform_mesh([[0.0, 2.0], [0.0, 1.0]], (1, 4)),
        graded_mesh((1, 2, 3), seed=44),
    ], ids=["2d-1x4", "3d-graded-1x2x3"])
    def test_one_cell_axis(self, mesh):
        check_strip_geometry(mesh)


class TestImmutability:
    def test_arrays_frozen(self, mesh2_uniform):
        with pytest.raises(ValueError):
            mesh2_uniform.cell_volume[0] = 7.0
        with pytest.raises(ValueError):
            mesh2_uniform.faces[0].measure[0] = 7.0


class TestValidation:
    def test_bad_domain_shape(self):
        with pytest.raises(MeshValidationError):
            build_mesh([0.0, 1.0], [[0.0, 1.0]])

    def test_dimension_out_of_range(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1]], [[0.0, 0.5, 1.0]])
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1]] * 4, [[0.0, 1.0]] * 4)

    def test_wrong_number_of_coordinate_arrays(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1], [0, 1]], [[0.0, 1.0]])

    def test_too_few_coordinates(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1], [0, 1]], [[0.0], [0.0, 1.0]])

    def test_non_increasing(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1], [0, 1]],
                       [[0.0, 0.6, 0.5, 1.0], [0.0, 1.0]])

    def test_non_finite(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1], [0, 1]], [[0.0, np.nan, 1.0], [0.0, 1.0]])

    def test_span_mismatch(self):
        with pytest.raises(MeshValidationError):
            build_mesh([[0, 1], [0, 1]], [[0.0, 0.9], [0.0, 1.0]])


def test_dump_mesh_tables(tmp_path, mesh2_uniform):
    path = tmp_path / "tables.csv"
    dump_mesh_tables(mesh2_uniform, path, cfg_hash="0123abcd")
    text = path.read_text()
    assert "# config_hash: 0123abcd\n" in text
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "id,direction,case,measure,neighbors"
    mesh = mesh2_uniform
    measures = []
    for i in range(mesh.dim):
        measures.extend(mesh.faces[i].measure)
        measures.extend(mesh.dual_case1[i].measure)
        for c2 in mesh.dual_case2[i]:
            measures.extend(c2.measure)
        for w in mesh.dual_walls[i]:
            measures.extend(w.measure)
    assert len(lines) == 1 + len(measures)
    # every measure cell is a plain float literal equal to the table entry
    assert [float(row[3]) for row in csv.reader(lines[1:])] == measures
    assert any("dual-case2" in line for line in lines)
    assert any("dual-wall" in line for line in lines)
