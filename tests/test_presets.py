"""Manufactured presets: the transport guard and the momentum source."""

import numpy as np
import pytest
import sympy as sym

from conftest import graded_mesh
from macflow.grid import build_uniform_mesh
from macflow.presets import _vanishes, get_preset, manufactured_forcing
from macflow.timestepper import SchemeConfig, run

x, y, t = sym.symbols("x y t", real=True)
GYRE_SHAPE = (sym.sin(sym.pi * x) * sym.sin(sym.pi * y)) ** 2
PATCH_SHAPE = (16 * x * (1 - x) * y * (1 - y)) ** 2


def conservative_source(psi, rho, p):
    """``d_t(rho u) + div(rho u (x) u) - lap u + grad p`` for the velocity
    ``(d psi/dy, -d psi/dx)``, one callable of ``(x, y, t)`` per
    component."""
    u = (sym.diff(psi, y), -sym.diff(psi, x))
    fns = []
    for i, xi in enumerate((x, y)):
        expr = sym.diff(rho * u[i], t) + sym.diff(p, xi)
        for j, xj in enumerate((x, y)):
            expr += sym.diff(rho * u[j] * u[i], xj) - sym.diff(u[i], xj, 2)
        fns.append(sym.lambdify((x, y, t), expr, modules="numpy"))
    return fns


@pytest.mark.parametrize("expr, zero, simplified", [
    (x * (x + 1) - x ** 2 - x, True, False),
    (sym.sin(x) ** 2 + sym.cos(x) ** 2 - 1, True, True),
    (x, False, True),
], ids=["polynomial", "trigonometric", "nonzero"])
def test_vanishes_simplifies_only_when_expansion_fails(monkeypatch, expr,
                                                       zero, simplified):
    # expanding the products settles a polynomial cancellation; the full
    # simplify runs only when that does not reach zero
    calls = []
    original = sym.simplify

    def spy(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(sym, "simplify", spy)
    assert _vanishes(expr) is zero
    assert bool(calls) is simplified


def test_transport_guard_rejects_untransported_density():
    psi = 0.15 * sym.cos(2 * sym.pi * t) * GYRE_SHAPE
    u = (sym.diff(psi, y), -sym.diff(psi, x))
    with pytest.raises(ValueError, match="transport equation"):
        manufactured_forcing((x, y), t, 1 + x / 2, u, sym.Integer(0))


# The stream function, density and pressure as the preset docstrings state
# them, for parameters away from the defaults.
ORACLE_CASES = {
    "gyre": (
        dict(amplitude=0.2, pressure_amplitude=0.3),
        0.2 * sym.cos(2 * sym.pi * t) * GYRE_SHAPE,
        1 + GYRE_SHAPE / 2,
        0.3 * sym.cos(2 * sym.pi * t) * sym.cos(sym.pi * x)
        * sym.cos(sym.pi * y)),
    "rotating-patch": (
        dict(strength=0.7, amplitude=-0.5, width=0.3),
        0.7 / 8 * PATCH_SHAPE,
        1 - 0.5 * sym.exp(-((PATCH_SHAPE - 1) / 0.3) ** 2),
        sym.Integer(0)),
}


@pytest.mark.parametrize("name, tv", [("gyre", 0.0), ("gyre", 0.3),
                                      ("rotating-patch", 0.0)])
def test_forcing_matches_conservative_source(name, tv):
    params, psi, rho, p = ORACLE_CASES[name]
    problem = get_preset(name, **params)
    mesh = graded_mesh((11, 9), seed=5)
    forcing = problem.forcing(mesh, tv)
    oracle = conservative_source(psi, rho, p)
    got, want = [], []
    for i in range(2):
        faces = mesh.faces[i]
        c = faces.center[faces.interior_idx]
        got.append(forcing[i][faces.interior_idx])
        want.append(np.broadcast_to(oracle[i](c[:, 0], c[:, 1], tv),
                                    (faces.n_interior,)))
    got, want = np.concatenate(got), np.concatenate(want)
    scale = np.abs(want).max()
    assert scale > 0.1
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_light_patch_keeps_density_in_bounds():
    problem = get_preset("rotating-patch", amplitude=-0.5)
    assert problem.rho_bounds == (0.5, 1.0)
    mesh = build_uniform_mesh(problem.domain, (16, 16))
    result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.2))
    assert result.n_steps == 20
    for d in result.diagnostics:
        assert 0.5 <= d.rho_min and d.rho_max <= 1.0
        assert d.bound_violation == 0.0
