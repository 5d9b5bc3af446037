"""Artifact writers: float spelling, file modes, and atomic replacement."""

import os
import stat

import numpy as np
import pytest

import macflow.fields as fields
from macflow.fields import ScalarField, VelocityField, write_vtk
from macflow.grid import build_uniform_mesh
from macflow.ioutil import format_float, write_summary, write_table

# Floats whose spelling is easy to get wrong: non-terminating binary
# fractions, the exponent switch on both sides, the subnormal and largest
# finite values, the signed zero and the non-finite values.
FLOATS = [0.1, 1 / 3, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, -0.0,
          float("nan"), float("inf"), float("-inf")]
OTHERS = [3, np.int64(-7), True, False, np.bool_(True), np.bool_(False),
          "density"]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _data_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def _block(lines, header, n):
    start = lines.index(header) + 1
    return lines[start:start + n]


def test_table_cells_spelled_as_format_float(tmp_path):
    path = tmp_path / "t.csv"
    columns = [f"c{k}" for k in range(len(FLOATS))]
    write_table(path, "test", columns,
                [FLOATS, [np.float64(v) for v in FLOATS], OTHERS],
                extra={"t": 0.1, "snapshot": 3})
    assert _data_lines(path) == [
        ",".join(columns),
        ",".join(map(format_float, FLOATS)),
        ",".join(map(format_float, FLOATS)),
        ",".join(map(str, OTHERS))]
    text = path.read_text()
    assert "# t: 0.1\n# snapshot: 3\n" in text


def test_vtk_blocks_spelled_as_format_float(tmp_path, monkeypatch):
    # one row of cells, so the x-fastest VTK order is the flat order
    mesh = build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (len(FLOATS), 1))
    values = np.array(FLOATS)
    vec = np.column_stack([values, values[::-1], np.roll(values, 3)])
    # the vector block's values come from cell_centered_velocity, whose
    # face average cannot produce every test value
    monkeypatch.setattr(fields, "cell_centered_velocity", lambda u: vec)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, rho=ScalarField(mesh, values),
              p=ScalarField(mesh, values[::-1]), u=VelocityField(mesh))
    lines = path.read_text().splitlines()
    n = len(FLOATS)
    density = _block(lines, "SCALARS density double 1", n + 1)[1:]
    pressure = _block(lines, "SCALARS pressure double 1", n + 1)[1:]
    velocity = _block(lines, "VECTORS velocity double", n)
    assert density == [format_float(v) for v in values]
    assert pressure == [format_float(v) for v in values[::-1]]
    assert velocity == [" ".join(map(format_float, row)) for row in vec]
    assert _block(lines, f"X_COORDINATES {n + 1} double", 1) == [
        " ".join(map(format_float, mesh.axis_coords[0]))]
    # every block reads back bit for bit
    np.testing.assert_array_equal(_bits([float(v) for v in density]),
                                  _bits(values))
    np.testing.assert_array_equal(_bits([float(v) for v in pressure]),
                                  _bits(values[::-1]))
    np.testing.assert_array_equal(
        _bits([[float(v) for v in row.split(" ")] for row in velocity]),
        _bits(vec))


def _mesh():
    return build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (2, 2))


WRITERS = {
    "table": lambda path: write_table(path, "test", ["a"], [(1.0,)]),
    "vtk": lambda path: write_vtk(path, _mesh(),
                                  rho=ScalarField.constant(_mesh(), 1.0)),
    "summary": lambda path: write_summary(path, "test", "cafe", 0,
                                          ["line"], True),
}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        for name, write in WRITERS.items():
            write(tmp_path / name)
    finally:
        os.umask(old)
    assert {path.name: stat.S_IMODE(path.stat().st_mode)
            for path in tmp_path.iterdir()} == dict.fromkeys(WRITERS, mode)


def test_writes_never_set_the_umask(tmp_path, monkeypatch):
    # setting the umask, even for a moment, would leave files that other
    # threads create meanwhile world-writable: the writers create their
    # temporary files with mode 0666 and let the kernel apply the umask
    def umask(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", umask)
        for name, write in WRITERS.items():
            write(tmp_path / name)
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert {path.name: stat.S_IMODE(path.stat().st_mode)
            for path in tmp_path.iterdir()} == dict.fromkeys(WRITERS, 0o640)


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "test", ["a"], [(1.0,)])
    before = path.read_bytes()

    def rows():
        yield (2.0,)
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        write_table(path, "test", ["a"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("writer", WRITERS)
def test_missing_directory_is_not_created(tmp_path, writer):
    with pytest.raises(FileNotFoundError):
        WRITERS[writer](tmp_path / "missing" / "out")
    assert list(tmp_path.iterdir()) == []
