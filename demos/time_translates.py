"""Quantify how fast the discrete velocity decorrelates in time.

For each shift tau = k*dt, integrate the squared L2 distance between
the velocity trajectory and its time translate.  On a smooth flow these
integrals shrink like a power of (tau + dt); the fitted log-log slope
is a compactness indicator: a positive slope bounded away from zero
means the discrete trajectory cannot oscillate arbitrarily fast in
time, no matter the mesh.  The companion scale factor records the
density contrast and the cubed energy norm that bound the integrals.

Run with:  python3 demos/time_translates.py
"""

from pathlib import Path

from macflow import (SchemeConfig, build_uniform_mesh, get_preset,
                     measure_translates, run, write_translate_csv)
from macflow.verify import SLOPE_FLOOR


def main():
    out = Path(__file__).parent / "out"
    out.mkdir(parents=True, exist_ok=True)

    problem = get_preset("gyre")
    mesh = build_uniform_mesh(problem.domain, (24, 24))
    cfg = SchemeConfig(dt=0.004, t_end=0.2, store_every=1)
    result = run(mesh, problem, cfg)

    report = measure_translates(result, shifts=(1, 2, 4, 8, 16))
    print(f"{'tau':>8} {'integral':>14}")
    for tau, integral in zip(report.taus, report.integrals):
        print(f"{tau:>8.3f} {integral:>14.5e}")
    print(f"log-log slope vs (tau + dt): {report.slope:.3f} "
          f"(floor {SLOPE_FLOOR})")
    print(f"scale factor (density contrast x energy bound): "
          f"{report.scale_factor:.3f}")
    print(f"slope above floor: {report.passed}")

    write_translate_csv(report, out / "time_translates.csv",
                        cfg_hash="demo")
    print(f"wrote {out / 'time_translates.csv'}")


if __name__ == "__main__":
    main()
