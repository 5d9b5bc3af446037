"""Mesh geometry against hand-computed oracles and validation rules."""

import csv

import numpy as np
import pytest

from macflow.grid import (MeshValidationError, build_mesh,
                          build_uniform_mesh, dump_mesh_tables, mesh_step,
                          regularity)

from conftest import graded_mesh
from dual_oracle import dual_families


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
        t = self.mesh.dual_interfaces[0]
        # one case-1 row per cell, row K for cell K
        assert t.families[0] == (0, slice(0, 2))
        np.testing.assert_array_equal(t.face_lo[:2], [0, 1])
        np.testing.assert_array_equal(t.face_hi[:2], [1, 2])
        np.testing.assert_allclose(t.measure[:2], [1.0, 1.0])
        np.testing.assert_allclose(t.dist[:2], [1.0, 1.0])
        np.testing.assert_array_equal(t.flux_lo[:2], [0, 1])
        np.testing.assert_array_equal(t.flux_hi[:2], [1, 2])

    def test_dual_case2_x_empty(self):
        # a single cell across y leaves no interface between face columns
        t = self.mesh.dual_interfaces[0]
        assert t.families[1] == (1, slice(2, 2))
        assert t.count == 2

    def test_walls_x(self):
        t = self.mesh.dual_interfaces[0]
        assert t.wall_families == ((1, 0, slice(0, 1)), (1, 1, slice(1, 2)))
        np.testing.assert_array_equal(t.wall_face, [1, 1])
        np.testing.assert_allclose(t.wall_measure, [1.0, 1.0])
        np.testing.assert_allclose(t.wall_dist, [0.5, 0.5])
        np.testing.assert_allclose(t.wall_weight, [2.0, 2.0])


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
            t = mesh.dual_interfaces[i]
            ortho, rows = t.families[0]
            assert (ortho, rows) == (i, slice(0, mesh.n_cells))
            assert t.face_lo[rows].min() >= 0
            assert t.face_hi[rows].max() < mesh.faces[i].count
            # the two faces of a cell differ by one step along the axis
            assert np.all(t.face_hi[rows] > t.face_lo[rows])
            # interface measure times extent equals the cell volume
            np.testing.assert_allclose(t.measure[rows] * t.dist[rows],
                                       mesh.cell_volume, rtol=1e-14)

    def test_case2_counts(self):
        mesh = graded_mesh((5, 4), seed=1)
        nx, ny = mesh.cells
        for i in range(2):
            t = mesh.dual_interfaces[i]
            (ortho, rows), = t.families[1:]
            assert ortho == 1 - i
            assert rows.stop - rows.start == (nx - 1) * (ny - 1)
            assert t.count == rows.stop

    def test_case2_separates_interior_faces(self, any_mesh):
        mesh = any_mesh
        # where each direction's faces start in the concatenated fluxes
        start = np.cumsum([0] + [fs.count for fs in mesh.faces])
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            t = mesh.dual_interfaces[i]
            for ortho, rows in t.families[1:]:
                assert np.all(fs.is_interior[t.face_lo[rows]])
                assert np.all(fs.is_interior[t.face_hi[rows]])
                tfs = mesh.faces[ortho]
                tau_lo = t.flux_lo[rows] - start[ortho]
                tau_hi = t.flux_hi[rows] - start[ortho]
                assert np.all(tau_lo >= 0)
                assert np.all(tau_hi < tfs.count)
                np.testing.assert_allclose(
                    t.measure[rows],
                    0.5 * (tfs.measure[tau_lo] + tfs.measure[tau_hi]),
                    rtol=1e-14)

    def test_wall_counts_2d(self):
        mesh = graded_mesh((5, 4), seed=2)
        nx, ny = mesh.cells
        t = mesh.dual_interfaces[0]
        assert [w[:2] for w in t.wall_families] == [(1, 0), (1, 1)]
        assert t.wall_face.size == 2 * (nx - 1)

    def test_wall_faces_are_interior(self, any_mesh):
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            t = any_mesh.dual_interfaces[i]
            assert np.all(fs.is_interior[t.wall_face])
            assert np.all(t.wall_dist > 0)

    def test_3d_table_families(self, mesh3_uniform):
        mesh = mesh3_uniform
        for i in range(3):
            t = mesh.dual_interfaces[i]
            others = [j for j in range(3) if j != i]
            assert [f[0] for f in t.families] == [i] + others
            # 2 axes x 2 sides
            assert [w[:2] for w in t.wall_families] == [
                (j, side) for j in others for side in (0, 1)]


def check_strip_geometry(mesh):
    """Case-2 and wall strip families against closed forms that share no
    code with the mesh construction: along component i, the strips on one
    grid plane orthogonal to j measure (L_i - (h_i[0] + h_i[-1])/2) times
    the lengths of the remaining axes, and n_j - 1 such planes are
    interior."""
    lengths = mesh.domain_box[:, 1] - mesh.domain_box[:, 0]
    for i in range(mesh.dim):
        h = mesh.spacings[i]
        t = mesh.dual_interfaces[i]
        c2s, walls = iter(t.families[1:]), iter(t.wall_families)
        for j in range(mesh.dim):
            if j == i:
                continue
            plane = (lengths[i] - 0.5 * (h[0] + h[-1])) * np.prod(
                [lengths[k] for k in range(mesh.dim) if k not in (i, j)])
            ortho, rows = next(c2s)
            assert ortho == j
            assert t.measure[rows].sum() == pytest.approx(
                (mesh.cells[j] - 1) * plane, rel=1e-13)
            for side, h_wall in enumerate((mesh.spacings[j][0],
                                           mesh.spacings[j][-1])):
                ortho, wall_side, rows = next(walls)
                assert (ortho, wall_side) == (j, side)
                assert t.wall_measure[rows].sum() == pytest.approx(
                    plane, rel=1e-13)
                np.testing.assert_allclose(t.wall_dist[rows], 0.5 * h_wall,
                                           rtol=1e-15)
        for arr in (t.face_lo, t.face_hi, t.flux_lo, t.flux_hi, t.wall_face):
            assert arr.dtype == np.int64


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

    def test_dual_table_frozen(self, any_mesh):
        for t in any_mesh.dual_interfaces:
            for name in ("face_lo", "face_hi", "measure", "dist", "flux_lo",
                         "flux_hi", "wall_face", "wall_measure", "wall_dist",
                         "wall_weight"):
                with pytest.raises(ValueError):
                    getattr(t, name)[:1] = 0


def check_against_oracle(mesh):
    """The production dual table, row by row, against the loop-built
    families of ``dual_oracle``: indices exactly, floats to 1e-14."""
    # where each direction's faces start in the concatenated fluxes
    start = np.cumsum([0] + [fs.count for fs in mesh.faces])
    for i in range(mesh.dim):
        t = mesh.dual_interfaces[i]
        families, walls = dual_families(mesh, i)
        assert [f[0] for f in t.families] == [f[0] for f in families]
        assert [rows.stop - rows.start for _, rows in t.families] == [
            len(rows) for _, rows in families]
        rows = [r for _, family in families for r in family]
        assert t.count == len(rows)
        for name in ("face_lo", "face_hi"):
            np.testing.assert_array_equal(getattr(t, name),
                                          [getattr(r, name) for r in rows])
        for name in ("measure", "dist"):
            np.testing.assert_allclose(getattr(t, name),
                                       [getattr(r, name) for r in rows],
                                       rtol=1e-14, atol=0)
        np.testing.assert_array_equal(
            t.flux_lo, [start[r.flux_axis] + r.flux_lo for r in rows])
        np.testing.assert_array_equal(
            t.flux_hi, [start[r.flux_axis] + r.flux_hi for r in rows])
        assert [w[:2] for w in t.wall_families] == [(1, 0), (1, 1)]
        assert t.wall_face.size == 2 * (nx - 1)

    def test_wall_faces_are_interior(self, any_mesh):
        for i in range(any_mesh.dim):
            fs = any_mesh.faces[i]
            t = any_mesh.dual_interfaces[i]
            assert np.all(fs.is_interior[t.wall_face])
            assert np.all(t.wall_dist > 0)

    def test_3d_table_families(self, mesh3_uniform):
        mesh = mesh3_uniform
        for i in range(3):
            t = mesh.dual_interfaces[i]
            others = [j for j in range(3) if j != i]
            assert [f[0] for f in t.families] == [i] + others
            # 2 axes x 2 sides
            assert [w[:2] for w in t.wall_families] == [
                (j, side) for j in others for side in (0, 1)]


def check_strip_geometry(mesh):
    """Case-2 and wall strip families against closed forms that share no
    code with the mesh construction: along component i, the strips on one
    grid plane orthogonal to j measure (L_i - (h_i[0] + h_i[-1])/2) times
    the lengths of the remaining axes, and n_j - 1 such planes are
    interior."""
    lengths = mesh.domain_box[:, 1] - mesh.domain_box[:, 0]
    for i in range(mesh.dim):
        h = mesh.spacings[i]
        t = mesh.dual_interfaces[i]
        c2s, walls = iter(t.families[1:]), iter(t.wall_families)
        for j in range(mesh.dim):
            if j == i:
                continue
            plane = (lengths[i] - 0.5 * (h[0] + h[-1])) * np.prod(
                [lengths[k] for k in range(mesh.dim) if k not in (i, j)])
            ortho, rows = next(c2s)
            assert ortho == j
            assert t.measure[rows].sum() == pytest.approx(
                (mesh.cells[j] - 1) * plane, rel=1e-13)
            for side, h_wall in enumerate((mesh.spacings[j][0],
                                           mesh.spacings[j][-1])):
                ortho, wall_side, rows = next(walls)
                assert (ortho, wall_side) == (j, side)
                assert t.wall_measure[rows].sum() == pytest.approx(
                    plane, rel=1e-13)
                np.testing.assert_allclose(t.wall_dist[rows], 0.5 * h_wall,
                                           rtol=1e-15)
        for arr in (t.face_lo, t.face_hi, t.flux_lo, t.flux_hi, t.wall_face):
            assert arr.dtype == np.int64


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

    def test_dual_table_frozen(self, any_mesh):
        for t in any_mesh.dual_interfaces:
            for name in ("face_lo", "face_hi", "measure", "dist", "flux_lo",
                         "flux_hi", "wall_face", "wall_measure", "wall_dist",
                         "wall_weight"):
                with pytest.raises(ValueError):
                    getattr(t, name)[:1] = 0


def check_against_oracle(mesh):
    """The production dual table, row by row, against the loop-built
    families of ``dual_oracle``: indices exactly, floats to 1e-14."""
    # where each direction's faces start in the concatenated fluxes
    start = np.cumsum([0] + [fs.count for fs in mesh.faces])
    for i in range(mesh.dim):
        t = mesh.dual_interfaces[i]
        families, walls = dual_families(mesh, i)
        assert [f[0] for f in t.families] == [f[0] for f in families]
        assert [rows.stop - rows.start for _, rows in t.families] == [
            len(rows) for _, rows in families]
        expect = [row for _, rows in families for row in rows]
        assert t.count == len(expect)
        if expect:
            e = np.array(expect, dtype=object)
            for col, name in enumerate(("face_lo", "face_hi")):
                np.testing.assert_array_equal(getattr(t, name),
                                              e[:, col].astype(np.int64))
            for col, name in ((2, "measure"), (3, "dist")):
                np.testing.assert_allclose(getattr(t, name),
                                           e[:, col].astype(float),
                                           rtol=1e-14, atol=0)
            axis = e[:, 4].astype(int)
            np.testing.assert_array_equal(
                t.flux_lo, start[axis] + e[:, 5].astype(np.int64))
            np.testing.assert_array_equal(
                t.flux_hi, start[axis] + e[:, 6].astype(np.int64))
        assert [w[:2] for w in t.wall_families] == [w[:2] for w in walls]
        assert [r.stop - r.start for _, _, r in t.wall_families] == [
            len(strips) for _, _, strips in walls]
        strips = [s for _, _, family in walls for s in family]
        np.testing.assert_array_equal(t.wall_face,
                                      [s.face for s in strips])
        np.testing.assert_allclose(t.wall_measure,
                                   [s.measure for s in strips],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(t.wall_dist, [s.dist for s in strips],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            t.wall_weight, [s.measure / s.dist for s in strips],
            rtol=1e-14, atol=0)


class TestDualTableOracle:
    def test_meshes(self, any_mesh):
        check_against_oracle(any_mesh)

    @pytest.mark.parametrize("mesh", [
        build_uniform_mesh([[0.0, 2.0], [0.0, 1.0]], (1, 4)),
        build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (7, 1)),
        graded_mesh((1, 2, 3), seed=44),
    ], ids=["2d-1x4", "2d-7x1", "3d-graded-1x2x3"])
    def test_thin_meshes(self, mesh):
        check_against_oracle(mesh)


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
    labels = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        measures.extend(fs.measure)
        labels += [f"primal-{'interior' if k else 'exterior'}"
                   for k in fs.is_interior]
        t = mesh.dual_interfaces[i]
        for ortho, rows in t.families:
            measures.extend(t.measure[rows])
            case = "dual-case1" if ortho == i else f"dual-case2-ortho{ortho}"
            labels += [case] * (rows.stop - rows.start)
        for ortho, side, rows in t.wall_families:
            measures.extend(t.wall_measure[rows])
            labels += [f"dual-wall-ortho{ortho}-side{side}"] * (
                rows.stop - rows.start)
    table = list(csv.reader(lines[1:]))
    assert len(table) == len(measures)
    # every measure cell is a plain float literal equal to the table entry
    assert [float(row[3]) for row in table] == measures
    assert [row[2] for row in table] == labels
    # each family numbers its own rows from 0; on the 5x4 unit square the
    # x faces (i, j) have flat id 4 i + j
    first = {}
    for row in table:
        first.setdefault((row[1], row[2]), row)
    assert first["0", "dual-case1"] == ["0", "0", "dual-case1", "0.25",
                                        "0|4"]
    assert first["0", "dual-case2-ortho1"] == [
        "0", "0", "dual-case2-ortho1", "0.2", "4|5"]
    assert first["0", "dual-wall-ortho1-side1"] == [
        "0", "0", "dual-wall-ortho1-side1", "0.2", "7|wall"]
