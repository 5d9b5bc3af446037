"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test records exactly one ``[PASS]``/``[FAIL]`` line for its
criterion; the lines are echoed in a terminal section after the run
(see conftest) and the pytest verdict of each test is the
machine-readable version of the same line.  Long runs are shared
through module-scoped fixtures:

* a 200-step swirling-patch run at 32^2 backs criteria 4-7;
* a three-level refinement study of the time-modulated gyre (16 -> 32 ->
  64, time step proportional to the mesh) backs criteria 8 and 10;
* a store-every-step gyre run backs criterion 9.
"""

import sys
import time

import numpy as np
import pytest

import conftest
from conftest import graded_mesh
from macflow.grid import build_uniform_mesh
from macflow.fields import ScalarField, VelocityField
from macflow.linsolve import (SaddleSolver, assemble_oseen, solve_oseen,
                              solve_transport)
from macflow.presets import get_preset
from macflow.timestepper import SchemeConfig, run
from macflow import verify


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num:02d} ({name}): {detail}"
    print(line)
    sys.stdout.flush()
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def worst_of(values):
    """Largest of ``values``; unlike Python's ``max``, a NaN among them is
    the result, so it fails every criterion."""
    return float(np.max(list(values)))


def battery_meshes():
    return [
        ("uniform-2d", build_uniform_mesh([[0, 1], [0, 1]], (5, 4))),
        ("graded-2d", graded_mesh((5, 4), seed=101)),
        ("uniform-3d", build_uniform_mesh([[0, 1]] * 3, (3, 3, 3))),
        ("graded-3d", graded_mesh((3, 3, 3), seed=102)),
    ]


# -- shared long runs ---------------------------------------------------------

@pytest.fixture(scope="module")
def patch_run():
    """200 steps of the swirling-patch problem on a 32^2 mesh."""
    problem = get_preset("rotating-patch")
    mesh = build_uniform_mesh(problem.domain, (32, 32))
    cfg = SchemeConfig(dt=0.005, t_end=1.0, store_every=0)
    result = run(mesh, problem, cfg)
    assert result.n_steps == 200
    return result


@pytest.fixture(scope="module")
def gyre_study():
    """Three-level space-time refinement study of the gyre problem.

    The time step is kept at dt = 0.04*h so the second-order spatial
    error dominates the first-order time error on every level; the two
    components carry opposite signs, and at larger dt/h ratios they can
    cancel on one level and wreck the measured reduction factors.
    """
    problem = get_preset("gyre")
    start = time.perf_counter()
    report = verify.convergence_study(problem, levels=3, base_cells=16,
                                      t_end=0.2, base_dt=0.0025,
                                      threshold=1.5)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def translate_run():
    """Gyre run with every step stored, for the translate measurement."""
    problem = get_preset("gyre")
    mesh = build_uniform_mesh(problem.domain, (16, 16))
    cfg = SchemeConfig(dt=0.005, t_end=0.1, store_every=1)
    return run(mesh, problem, cfg)


# -- identity batteries (criteria 1-3) ----------------------------------------

def test_criterion_01_duality_identity():
    start = time.perf_counter()
    worst = worst_of(verify.check_duality(mesh, trials=100, seed=7,
                                          tol=1e-12).max_residual
                     for _, mesh in battery_meshes())
    elapsed = time.perf_counter() - start
    report(1, "duality identity, 100 random triples x 4 meshes",
           worst <= 1e-12 and elapsed < 5.0,
           f"worst residual {worst:.3e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_02_adjointness():
    start = time.perf_counter()
    worst = worst_of(verify.check_adjointness(mesh, trials=100, seed=8,
                                              tol=1e-12).max_residual
                     for _, mesh in battery_meshes())
    elapsed = time.perf_counter() - start
    report(2, "gradient/divergence adjointness, 100 random pairs x 4 meshes",
           worst <= 1e-12 and elapsed < 2.0,
           f"worst residual {worst:.3e} <= 1e-12, {elapsed:.2f}s < 2s")


def test_criterion_03_coercivity_and_symmetry():
    reps = [verify.check_coercivity(mesh, trials=100, seed=9, tol=1e-12)
            for _, mesh in battery_meshes()]
    worst = worst_of(rep.max_residual for rep in reps)
    worst_asym = worst_of(rep.extras["matrix_asymmetry"] for rep in reps)
    definite = all(rep.extras["positive_definite"] for rep in reps)
    report(3, "diffusion coercivity equals H1 norm; matrix symmetric",
           worst <= 1e-12 and worst_asym <= 1e-13 and definite,
           f"worst residual {worst:.3e} <= 1e-12, "
           f"asymmetry {worst_asym:.3e} <= 1e-13")


# -- long-run invariants (criteria 4-7) ----------------------------------------

def test_criterion_04_density_bounds_and_decay(patch_run):
    worst = worst_of(d.bound_violation for d in patch_run.diagnostics)
    l2 = [d.rho_l2 for d in patch_run.diagnostics]
    monotone = all(l2[k + 1] <= l2[k] * (1 + 1e-12)
                   for k in range(len(l2) - 1))
    report(4, "200-step density bounds and L2 decay",
           worst <= 1e-12 and monotone,
           f"worst bound violation {worst:.3e} <= 1e-12, "
           f"L2 monotone over {len(l2)} steps: {monotone}")


def test_criterion_05_dual_mass_balance(patch_run):
    tol = 10 * patch_run.config.transport_tol
    worst = worst_of(d.mass_dual_resid for d in patch_run.diagnostics)
    report(5, "face control-volume mass balance each step",
           worst <= tol, f"worst residual {worst:.3e} <= {tol:.1e}")


def test_criterion_06_kinetic_identity(patch_run):
    tol = 10 * patch_run.config.oseen_tol
    worst = worst_of(d.kinetic_resid for d in patch_run.diagnostics)
    worst_remainder = worst_of(d.kinetic_remainder_max
                               for d in patch_run.diagnostics)
    report(6, "kinetic energy identity each step, nonpositive remainder",
           worst <= tol and worst_remainder <= 0.0,
           f"worst residual {worst:.3e} <= {tol:.1e}, "
           f"max remainder {worst_remainder:.3e} <= 0")


def test_criterion_07_divergence_free(patch_run):
    worst = worst_of(d.div_l2 for d in patch_run.diagnostics)
    report(7, "velocity divergence each step",
           worst <= 1e-9, f"worst L2 divergence {worst:.3e} <= 1e-9")


# -- refinement behavior (criteria 8-10) ----------------------------------------

def test_criterion_08_energy_trackers_stable(gyre_study):
    study, _ = gyre_study
    lv32, lv64 = study.levels[1], study.levels[2]
    rel_a = abs(lv64.l2h1 - lv32.l2h1) / lv32.l2h1
    rel_b = abs(lv64.linf_l2 - lv32.linf_l2) / lv32.linf_l2
    report(8, "velocity energy norms stable from 32^2 to 64^2",
           rel_a < 0.2 and rel_b < 0.2,
           f"L2(H1) varies {100 * rel_a:.2f}% and Linf(L2) "
           f"{100 * rel_b:.2f}% (< 20%)")


def test_criterion_09_time_translates(translate_run):
    start = time.perf_counter()
    rep = verify.measure_translates(translate_run, shifts=(1, 2, 4, 8))
    elapsed = time.perf_counter() - start
    report(9, "translate integrals scale with the shift",
           rep.passed and rep.slope >= 0.4 and elapsed < 120.0,
           f"log-log slope {rep.slope:.3f} >= 0.4 over taus "
           f"{[f'{t:.3f}' for t in rep.taus]}, {elapsed:.2f}s < 2min")


def test_criterion_10_convergence(gyre_study):
    study, elapsed = gyre_study
    fu = min(study.factors_u)
    fr = min(study.factors_rho)
    report(10, "space-time errors reduce by >= 1.5 per refinement",
           study.passed and elapsed < 600.0,
           f"min velocity factor {fu:.2f}, min density factor {fr:.2f} "
           f"(>= 1.5), levels 16/32/64 with dt halved per level, "
           f"{elapsed:.0f}s < 10min")


# -- solver cross-check (criterion 11) -------------------------------------------

def test_criterion_11_saddle_matches_dense():
    mesh = build_uniform_mesh([[0, 1], [0, 1]], (8, 8))
    rng = np.random.default_rng(55)
    dt = 0.05
    rho_old = ScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
    u_old = VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                 for i in range(mesh.dim)])
    rho_new, _ = solve_transport(mesh, dt, rho_old, u_old)
    forcing = [rng.standard_normal(mesh.faces[i].count)
               for i in range(mesh.dim)]
    system = assemble_oseen(SaddleSolver(mesh), dt, rho_new, rho_old, u_old,
                            forcing=forcing)

    dense = system.matrix.toarray()
    sol = np.linalg.solve(dense, system.rhs)
    n_u = mesh.n_unknowns
    p_ref = sol[n_u:]
    p_ref = p_ref - (mesh.cell_volume @ p_ref) / mesh.volume

    u, p, _ = solve_oseen(system)
    worst = worst_of([np.abs(u.pack_interior() - sol[:n_u]).max(),
                      np.abs(p.values - p_ref).max()])
    report(11, "one-step saddle solve matches dense reference on 8x8",
           worst <= 1e-10, f"max |difference| {worst:.3e} <= 1e-10")
