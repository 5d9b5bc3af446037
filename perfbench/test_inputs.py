"""Checks of the benchmark's own pieces: the seeded swirl input and the
span arithmetic.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macflow import (ProblemSetup, ScalarField, build_mesh, cell_average,  # noqa: E402
                     fortin_interpolate, norm_l2_cells, norm_lp_dual)
from macflow.operators import div_velocity  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_swirl_initial_data(seed):
    mesh = build_mesh([[0.0, 1.0]] * 3, inputs.swirl_coords(seed))
    problem = inputs.swirl_problem(ProblemSetup)
    u = fortin_interpolate(mesh, problem.u0)
    div = norm_l2_cells(ScalarField(mesh, div_velocity(mesh, u)))
    assert norm_lp_dual(u, 2) > 1e-3
    assert div <= 1e-13 * norm_lp_dual(u, 2)
    rho = cell_average(mesh, problem.rho0)
    lo, hi = problem.rho_bounds
    assert lo <= rho.min() and rho.max() <= hi
    assert rho.max() - rho.min() > 0.1


def test_swirl_mesh_is_seeded_and_graded():
    a, b = inputs.swirl_coords(3), inputs.swirl_coords(3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], inputs.swirl_coords(4)[0])
    for coords in a:
        steps = np.diff(coords)
        assert coords[0] == 0.0 and coords[-1] == 1.0
        assert len(steps) == inputs.CELLS and steps.max() > 1.2 * steps.min()


def test_self_times_add_up_to_root():
    tracer = layers.Tracer()
    opened = [tracer.open(name) for name in (
        "bench.root", "timestepper.step", "linsolve.solve_oseen",
        "linsolve.splu")]
    for idx in reversed(opened):
        tracer.close(idx)
    own = layers.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    metrics = layers.layer_metrics(tracer)
    assert metrics["trace.self_sum_s"] == pytest.approx(
        metrics["trace.root_s"], rel=1e-12)
    assert metrics["linsolve.factor_calls"] == 1
    assert metrics["timestepper.step_self_calls"] == 1
