"""Shared fixtures: small uniform and graded-random meshes in 2D and 3D."""

import numpy as np
import pytest

from macflow.grid import build_mesh, build_uniform_mesh, graded_coords

# One line per acceptance criterion, filled by tests/test_acceptance.py
# and echoed after the run so the verdicts are visible without -s/-rA.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def graded_mesh(cells, seed=0):
    rng = np.random.default_rng(seed)
    coords = [graded_coords(n, rng) for n in cells]
    return build_mesh([[0.0, 1.0]] * len(cells), coords)


@pytest.fixture
def mesh2_uniform():
    return build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (5, 4))


@pytest.fixture
def mesh2_graded():
    return graded_mesh((5, 4), seed=42)


@pytest.fixture
def mesh3_uniform():
    return build_uniform_mesh([[0.0, 1.0]] * 3, (3, 3, 3))


@pytest.fixture
def mesh3_graded():
    return graded_mesh((3, 3, 3), seed=43)


@pytest.fixture(params=["2d-uniform", "2d-graded", "3d-uniform", "3d-graded"])
def any_mesh(request):
    return {
        "2d-uniform": build_uniform_mesh([[0.0, 1.0], [0.0, 1.0]], (5, 4)),
        "2d-graded": graded_mesh((5, 4), seed=42),
        "3d-uniform": build_uniform_mesh([[0.0, 1.0]] * 3, (3, 3, 3)),
        "3d-graded": graded_mesh((3, 3, 3), seed=43),
    }[request.param]
