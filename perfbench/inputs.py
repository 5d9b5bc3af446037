"""Seeded input of the ``swirl3d-12-graded`` workload.

The program receives only what this module builds: per-axis grid
coordinates and a ``ProblemSetup``.  The seed draws the mesh; the flow is
fixed, so every seed asks the same question on a differently graded mesh.

Flow: stream function ``psi = (A/8) q(x)^2 q(y)^2 q(z)^2`` with
``q(s) = 4 s (1 - s)`` and ``u = (d psi/dy, -d psi/dx, 0)``, which is
no-slip on all six walls.  Each face-normal component is a polynomial of
degree at most 4 along every face direction, so the 3-point Gauss face
means of the initial projection are exact and the projected velocity is
discretely divergence-free to roundoff.  The density ``1 + a exp(-((q(x)
q(y) q(z))^2 - 1)^2 / w^2)`` is a function of ``q(x) q(y) q(z)``, which
``u`` leaves constant, so it lies in ``[1, 1 + a]``.  There is no forcing
and no exact solution; the run is checked by its identity gates.
"""

from __future__ import annotations

import numpy as np

CELLS = 12
STRENGTH = 0.5      # A
AMPLITUDE = 0.5     # a
WIDTH = 0.35        # w


def graded_coords(rng, n):
    """Coordinates on [0, 1] with spacings drawn uniform(0.5, 1.5) and
    normalised, as the CLI's graded verification meshes are drawn."""
    steps = rng.uniform(0.5, 1.5, n)
    coords = np.concatenate([[0.0], np.cumsum(steps)])
    return coords / coords[-1]


def swirl_coords(seed, cells=CELLS):
    """Per-axis coordinates of the graded 3D mesh for ``seed``."""
    rng = np.random.default_rng(seed)
    return [graded_coords(rng, cells) for _ in range(3)]


def _q(s):
    return 4.0 * s * (1.0 - s)


def _dq(s):
    return 4.0 - 8.0 * s


def _u_x(x, y, z):
    return (STRENGTH / 4.0) * _q(x) ** 2 * _q(y) * _dq(y) * _q(z) ** 2


def _u_y(x, y, z):
    return -(STRENGTH / 4.0) * _q(x) * _dq(x) * _q(y) ** 2 * _q(z) ** 2


def _u_z(x, y, z):
    return np.zeros_like(np.asarray(x, dtype=float))


def _rho(x, y, z):
    shape = (_q(x) * _q(y) * _q(z)) ** 2
    return 1.0 + AMPLITUDE * np.exp(-((shape - 1.0) / WIDTH) ** 2)


def swirl_problem(problem_setup):
    """The swirl as an instance of macflow's ``ProblemSetup`` class."""
    return problem_setup(
        name="swirl3d", dim=3, domain=((0.0, 1.0),) * 3,
        rho0=_rho, u0=[_u_x, _u_y, _u_z], forcing=None,
        rho_bounds=(1.0, 1.0 + AMPLITUDE))
