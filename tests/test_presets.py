"""Manufactured presets: the transported density and the momentum source,
against a sympy oracle of the preset docstrings."""

import numpy as np
import pytest
import sympy as sym

from conftest import graded_mesh
from macflow.grid import build_uniform_mesh
from macflow.presets import get_preset
from macflow.timestepper import SchemeConfig, initialize, run

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


def transport_residual(psi, rho):
    """``d_t rho + div(rho u)`` for the velocity ``(d psi/dy, -d psi/dx)``."""
    return (sym.diff(rho, t) + sym.diff(rho * sym.diff(psi, y), x)
            - sym.diff(rho * sym.diff(psi, x), y))


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_density_is_transported(name):
    # the built-in presets run no symbolic transport check; this is it
    _, psi, rho, _ = ORACLE_CASES[name]
    assert sym.expand_mul(transport_residual(psi, rho)) == 0


def assert_matches(got, want, least=0.0):
    scale = np.abs(want).max()
    assert scale >= least
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("name, tv", [(name, tv) for name in ORACLE_CASES
                                      for tv in (0.0, 0.3, 0.55)])
def test_forcing_matches_conservative_source(name, tv):
    # every callable of the preset against its symbolic oracle: the
    # forcing at interior faces, the velocity at all faces, the density
    # and the pressure at cell centers
    params, psi, rho, p = ORACLE_CASES[name]
    problem = get_preset(name, **params)
    mesh = graded_mesh((11, 9), seed=5)
    forcing = problem.forcing(mesh, tv)
    oracle = conservative_source(psi, rho, p)
    u_oracle = [sym.lambdify((x, y, t), e, modules="numpy")
                for e in (sym.diff(psi, y), -sym.diff(psi, x))]
    got, want = [], []
    for i in range(2):
        faces = mesh.faces[i]
        c = faces.center[faces.interior_idx]
        got.append(forcing[i][faces.interior_idx])
        want.append(np.broadcast_to(oracle[i](c[:, 0], c[:, 1], tv),
                                    (faces.n_interior,)))
        xf, yf = faces.center.T
        assert_matches(problem.u_exact(tv)[i](xf, yf),
                       u_oracle[i](xf, yf, tv), least=1e-3)
    assert_matches(np.concatenate(got), np.concatenate(want), least=0.1)
    xc, yc = np.meshgrid(*mesh.centers, indexing="ij")
    for exact, expr in ((problem.rho_exact, rho), (problem.p_exact, p)):
        fn = sym.lambdify((x, y, t), expr, modules="numpy")
        assert_matches(exact(tv)(xc, yc),
                       np.broadcast_to(fn(xc, yc, tv), xc.shape))


def test_presets_run_without_symbolic_tooling(monkeypatch):
    # the built-in presets are closed forms: building, forcing and
    # initializing them must not differentiate, lambdify or simplify
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic tooling on the run path")

    for tool in ("diff", "lambdify", "simplify", "expand_mul"):
        monkeypatch.setattr(sym, tool, refuse)
    mesh = build_uniform_mesh(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    for name in ("gyre", "rotating-patch"):
        problem = get_preset(name)
        assert all(np.isfinite(f).all() for f in problem.forcing(mesh, 0.3))
        initialize(mesh, problem)


@pytest.mark.parametrize("dim", [2.0, 3.0])
def test_rest_takes_integral_dimension(dim):
    # an integral float names its dimension, as YAML writes it with a point
    problem = get_preset("rest", dim=dim)
    assert problem.dim == int(dim) and type(problem.dim) is int
    assert len(problem.domain) == len(problem.u0) == int(dim)


def test_parameter_beyond_float_range_is_a_value_error():
    # math.isfinite raises OverflowError on such an integer
    with pytest.raises(ValueError, match="'density' must be finite"):
        get_preset("rest", density=10 ** 400)


def test_light_patch_keeps_density_in_bounds():
    problem = get_preset("rotating-patch", amplitude=-0.5)
    assert problem.rho_bounds == (0.5, 1.0)
    mesh = build_uniform_mesh(problem.domain, (16, 16))
    result = run(mesh, problem, SchemeConfig(dt=0.01, t_end=0.2))
    assert result.n_steps == 20
    for d in result.diagnostics:
        assert 0.5 <= d.rho_min and d.rho_max <= 1.0
        assert d.bound_violation == 0.0
