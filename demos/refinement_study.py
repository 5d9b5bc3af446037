"""Measure convergence rates against an exact unsteady solution.

The time-modulated gyre has closed-form density, velocity, and pressure;
a closed-form momentum source makes them an exact solution of
the continuous equations.  Halving the mesh width and the time step
together should roughly quarter the velocity error (the staggered
layout is second-order accurate in space on uniform meshes) and halve
the density error (first-order upwind transport).  The time step is
kept small relative to the mesh so the spatial error dominates.

Run with:  python3 demos/refinement_study.py
"""

from pathlib import Path

from macflow import convergence_study, get_preset, write_convergence_csv


def main():
    out = Path(__file__).parent / "out"
    out.mkdir(parents=True, exist_ok=True)

    report = convergence_study(get_preset("gyre"), levels=3, base_cells=8,
                               t_end=0.2, base_dt=0.005)
    print(f"{'cells':>10} {'dt':>10} {'err_u':>12} {'err_rho':>12} "
          f"{'err_p':>12}")
    for lv in report.levels:
        print(f"{str(lv.cells):>10} {lv.dt:>10.5f} {lv.err_u:>12.4e} "
              f"{lv.err_rho:>12.4e} {lv.err_p:>12.4e}")
    print(f"velocity reduction factors: "
          f"{[f'{f:.2f}' for f in report.factors_u]}")
    print(f"density reduction factors:  "
          f"{[f'{f:.2f}' for f in report.factors_rho]}")
    print(f"all factors >= {report.threshold}: {report.passed}")

    write_convergence_csv(report, out / "refinement_study.csv",
                          cfg_hash="demo")
    print(f"wrote {out / 'refinement_study.csv'}")


if __name__ == "__main__":
    main()
