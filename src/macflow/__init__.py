"""Staggered-grid finite-volume solver for variable-density incompressible
flow on boxes, with a verification harness for its discrete structure.

The pieces compose bottom-up:

* :mod:`macflow.grid` -- tensor-product staggered meshes and the dual
  (face-centered) control-volume tables;
* :mod:`macflow.fields` -- cell and face fields, projections of smooth
  data, norms, and file formats;
* :mod:`macflow.operators` -- upwind mass fluxes, divergences on both
  grids, diffusion, convection, and the pressure gradient;
* :mod:`macflow.linsolve` -- the transport matrix and the one-step
  momentum/pressure saddle system with direct and Krylov solvers;
* :mod:`macflow.timestepper` -- the two-stage time loop (mass transport,
  then velocity/pressure update) with invariant guards and diagnostics;
* :mod:`macflow.presets` -- manufactured problems with closed-form
  solutions and forcing;
* :mod:`macflow.verify` -- identity batteries, estimate trackers, and
  refinement studies;
* :mod:`macflow.cli` -- the ``macflow`` command (run / verify / study).
"""

from .grid import (MacMesh, MeshValidationError, build_mesh,
                   build_uniform_mesh, dump_mesh_tables, graded_coords,
                   mesh_step, regularity)
from .fields import (ScalarField, Trajectory, VelocityField, cell_average,
                     cell_centered_velocity, fortin_interpolate,
                     norm_h1, norm_h1_squared, norm_l2_cells, norm_lp_dual,
                     sample_at_faces, scalar_from_csv, scalar_to_csv,
                     velocity_from_csv, velocity_to_csv, write_vtk)
from .linsolve import (SaddleSolver, SaddleSystem, SolveReport, SolverFailure,
                       assemble_divergence, assemble_gradient,
                       assemble_oseen, assemble_transport, solve_oseen,
                       solve_transport)
from .timestepper import (InvariantViolation, RunResult, SchemeConfig,
                          SchemeState, StepDiagnostics, initialize,
                          kinetic_energy, run, step)
from .presets import ProblemSetup, available_presets, get_preset
from .verify import (ConvergenceReport, IdentityReport, TranslateReport,
                     check_adjointness, check_coercivity, check_duality,
                     collect_diagnostics, convergence_study, infsup_health,
                     measure_convection_bound, measure_translates,
                     project_divergence_free, write_convergence_csv,
                     write_diagnostics_csv, write_identity_reports,
                     write_translate_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
