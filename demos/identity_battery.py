"""Exercise the structural identities of the discrete operators.

The three identities below hold to machine precision on any admissible
mesh, uniform or graded, in 2D and 3D.  They are the backbone of the
scheme's stability: the duality identity is what turns the convection
term into a skew form, the adjointness is what makes the pressure a
Lagrange multiplier, and the coercivity ties the diffusion matrix to the
discrete H1 norm.

Run with:  python3 demos/identity_battery.py
"""

import numpy as np

from macflow import (build_mesh, build_uniform_mesh, check_adjointness,
                     check_coercivity, check_duality, graded_coords,
                     infsup_health, measure_convection_bound)


def main():
    rng = np.random.default_rng(3)
    meshes = [
        ("uniform 2D, 12 x 10", build_uniform_mesh([[0, 2], [0, 1]], (12, 10))),
        ("graded 2D, 12 x 10", build_mesh([[0, 1], [0, 1]],
                                          [graded_coords(12, rng),
                                           graded_coords(10, rng)])),
        ("uniform 3D, 5^3", build_uniform_mesh([[0, 1]] * 3, (5, 5, 5))),
        ("graded 3D, 5^3", build_mesh([[0, 1]] * 3,
                                      [graded_coords(5, rng)
                                       for _ in range(3)])),
    ]

    for label, mesh in meshes:
        print(f"-- {label} --")
        for check in (check_duality, check_adjointness, check_coercivity):
            print("  " + check(mesh, trials=100, seed=11).line())

    # Two mesh-quality monitors, useful when judging how far a graded
    # mesh can be pushed: the convection bound ratio and the inf-sup
    # constant of the velocity/pressure coupling.
    mesh = meshes[1][1]
    mon = measure_convection_bound(mesh, samples=50, seed=11)
    print(f"convection bound ratio on the graded 2D mesh: "
          f"max {mon['max']:.3e} (mesh regularity eta = {mon['eta']:.3f})")
    health = infsup_health(mesh)
    print(f"inf-sup constant: {health['beta']:.4f} "
          f"({health['iterations']} LOBPCG iterations)")


if __name__ == "__main__":
    main()
