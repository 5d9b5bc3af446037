"""One cold run of one benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \\
        [--spans FILE]

The clock starts before ``import macflow``, so ``setup_s`` (everything
before the first ``timestepper.step``) includes what a user pays on every
run: imports, configuration, mesh, preset and the initial projection.
``total_s`` ends when the last result is written.  Every step is checked
against the identity gates the run summary uses, and each workload's
result against its reference; failures are counted, never raised.  The
last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PATCH_CONFIG = ROOT / "demos" / "configs" / "patch_run.yaml"
PATCH_STEPS = 100

GYRE_CELLS = 128
GYRE_DT = 0.005
GYRE_STEPS = 4
SWIRL_DT = 0.01
SWIRL_STEPS = 6

# Errors against the exact solution at the final time, measured with the
# direct solver at the commit that defined this benchmark.  A result more
# than ERR_RTOL (relative) away from them counts as a failed run; the
# saddle solve's own tolerance (1e-10) moves them by far less.
ERR_RTOL = 1e-6
REFERENCE_ERRORS = {
    "patch-cli": {"err_u": 0.0010297908529047326,
                  "err_rho": 0.012464230949777505},
    "gyre2d-128": {"err_u": 0.00030656336062641446,
                   "err_rho": 0.00010105023677258945},
}


class StepProbe:
    """Stands in for ``timestepper.step``: times each call, keeps the time
    of the first one, and checks every step's diagnostics against the
    gates of the run summary."""

    def __init__(self, step, errors):
        self._step = step
        self._errors = errors
        self.first_start = None
        self.times = []
        self.raised = []
        self.gate_failures = []

    def __call__(self, mesh, state, cfg, *args, **kwargs):
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
        try:
            new_state, diag = self._step(mesh, state, cfg, *args, **kwargs)
        except self._errors as exc:
            self.raised.append(f"step {state.index + 1}: {exc}")
            raise
        finally:
            self.times.append(time.perf_counter() - start)
        broken = gates_broken(diag, cfg)
        if broken:
            self.gate_failures.append(f"step {diag.step}: {broken}")
        return new_state, diag


def gates_broken(d, cfg):
    """Names of the run-summary gates a step breaks (NaN breaks all)."""
    gates = [
        ("density bounds", d.bound_violation, cfg.bounds_margin),
        ("divergence", d.div_l2, cfg.div_guard),
        ("dual mass", d.mass_dual_resid, 10 * cfg.transport_tol),
        ("kinetic", d.kinetic_resid, 10 * cfg.oseen_tol),
    ]
    return [f"{name} {value:.3e} > {limit:.1e}"
            for name, value, limit in gates if not value <= limit]


# -- workloads: each runs the program and returns the check that runs after
# the clock stops, giving (failures, errors against the exact solution) --

def run_patch_cli(mf, seed, work):
    cli = mf.cli
    code = cli.main(["run", "--config", str(PATCH_CONFIG),
                     "--out", str(work), "--seed", str(seed)])

    def check():
        failures = [f"cli exit code {code}"] if code != 0 else []
        try:
            summary = (work / "summary.txt").read_text()
            # rotating-patch is steady, so its projected exact solution at
            # any time is the projected initial data: snapshot 0000
            mesh = cli.build_mesh_from_config(cli.load_config(PATCH_CONFIG))
            rho = sorted(work.glob("density_*.csv"))
            vel = sorted(work.glob("velocity_*.csv"))
            errors = _errors(mf, mesh,
                             mf.velocity_from_csv(mesh, vel[-1]),
                             mf.velocity_from_csv(mesh, vel[0]),
                             mf.scalar_from_csv(mesh, rho[-1]),
                             mf.scalar_from_csv(mesh, rho[0]))
        except (OSError, ValueError, IndexError) as exc:
            return failures + [f"outputs unreadable: {exc}"], {}
        if "overall: PASS" not in summary:
            failures.append("summary.txt does not say overall: PASS")
        if f"steps completed: {PATCH_STEPS} of {PATCH_STEPS}" not in summary:
            failures.append("summary.txt does not report every step")
        return failures, errors
    return check


def run_gyre(mf, seed, work):
    problem = mf.get_preset("gyre")
    mesh = mf.build_uniform_mesh(problem.domain, (GYRE_CELLS, GYRE_CELLS))
    cfg = mf.SchemeConfig(dt=GYRE_DT, t_end=GYRE_STEPS * GYRE_DT,
                          store_every=0)
    result, failures = _library_run(mf, mesh, problem, cfg, GYRE_STEPS)

    def check():
        if result is None:
            return failures, {}
        traj = result.trajectory
        tv = traj.times[-1]
        u_ref = mf.fortin_interpolate(mesh, problem.u_exact(tv))
        rho_ref = mf.cell_average(mesh, problem.rho_exact(tv))
        return failures, _errors(mf, mesh, traj.u[-1], u_ref,
                                 traj.rho[-1], rho_ref)
    return check


def run_swirl(mf, seed, work):
    import inputs
    mesh = mf.build_mesh([[0.0, 1.0]] * 3, inputs.swirl_coords(seed))
    problem = inputs.swirl_problem(mf.ProblemSetup)
    cfg = mf.SchemeConfig(dt=SWIRL_DT, t_end=SWIRL_STEPS * SWIRL_DT,
                          store_every=0)
    result, failures = _library_run(mf, mesh, problem, cfg, SWIRL_STEPS)

    def check():
        if result is not None and not result.initial_div_l2 <= cfg.div_guard:
            failures.append(f"initial divergence {result.initial_div_l2:.3e}")
        return failures, {}
    return check


def _library_run(mf, mesh, problem, cfg, n_steps):
    try:
        result = mf.run(mesh, problem, cfg)
    except (mf.InvariantViolation, mf.SolverFailure) as exc:
        return None, [f"run interrupted: {exc}"]
    if len(result.diagnostics) != n_steps:
        return result, [f"{len(result.diagnostics)} of {n_steps} steps"]
    return result, []


def _errors(mf, mesh, u, u_ref, rho, rho_ref):
    du = mf.VelocityField(mesh, [a - b for a, b in zip(u.components,
                                                       u_ref.components)])
    drho = mf.ScalarField(mesh, rho.values - rho_ref.values)
    return {"err_u": mf.norm_lp_dual(du, 2),
            "err_rho": mf.norm_l2_cells(drho)}


WORKLOADS = {
    "patch-cli": run_patch_cli,
    "gyre2d-128": run_gyre,
    "swirl3d-12-graded": run_swirl,
}


def error_failures(workload, errors):
    failures = []
    for key, ref in REFERENCE_ERRORS.get(workload, {}).items():
        value = errors.get(key)
        if value is None:
            failures.append(f"{key} was not computed")
        elif not abs(value - ref) <= ERR_RTOL * abs(ref):
            failures.append(f"{key} {value!r} is not within {ERR_RTOL:g} "
                            f"of the reference {ref!r}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="file for the recorded spans (traced runs)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        import layers as tracing
        tracer = tracing.Tracer()
        root = tracer.open("bench.root", start=t0)
        span = tracer.open("macflow.import")
    sys.path.insert(0, str(ROOT / "src"))
    import macflow as mf
    from macflow import timestepper
    if args.workload == "patch-cli":
        import macflow.cli  # before install(), so that cli.main is traced
    if tracer is not None:
        tracer.close(span)

    uninstall = tracing.install(tracer) if tracer is not None else None
    probe = StepProbe(timestepper.step,
                      (mf.InvariantViolation, mf.SolverFailure))
    timestepper.step = probe
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=HERE / "out"))
    try:
        check = WORKLOADS[args.workload](mf, args.seed, work)
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timestepper.step = probe._step
        if uninstall is not None:
            uninstall()
        failures, errors = check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures += probe.raised + probe.gate_failures
    failures += error_failures(args.workload, errors)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "total_s": t_end - t0,
        "setup_s": (probe.first_start if probe.first_start is not None
                    else t_end) - t0,
        "step_s": probe.times,
        "peak_rss_mib": peak_rss_mib,
        # a run is attempted once, and so is each of its steps
        "attempted": 1 + len(probe.times),
        "failed": (len(probe.raised) + len(probe.gate_failures)
                   + (1 if failures else 0)),
        "failures": failures,
        "errors": errors,
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "sympy": sys.modules["sympy"].__version__},
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        if args.spans is not None:
            args.spans.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "fields": ["name", "start", "end", "parent"],
                 "spans": tracer.spans}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
