"""Dual-interface families rebuilt from the grid coordinates alone.

An independent oracle for ``MacMesh.dual_interfaces``: explicit loops over
index tuples, with every measure and distance taken from the grid planes,
sharing no code with the mesh construction.  Rows come in the mesh's
order (C-order over index tuples), so the two can be compared row by row.
"""

import itertools
from collections import namedtuple

import numpy as np

# One dual interface: the component faces on its two sides, its measure,
# the distance between the two face centers, and the two primal faces of
# direction ``flux_axis`` whose fluxes it bisects.
Interface = namedtuple(
    "Interface", "face_lo face_hi measure dist flux_axis flux_lo flux_hi")
# One wall strip: the interior component face whose volume touches the
# wall, the strip's measure and the distance from the face center to it.
Strip = namedtuple("Strip", "face measure dist")


def _flat(index, shape):
    """C-order position of an index tuple."""
    k = 0
    for g, n in zip(index, shape):
        k = k * n + g
    return k


def dual_families(mesh, i):
    """Component ``i``'s interface families as ``[(ortho, [Interface])]``
    (case 1, then case 2 for each other axis ascending) and its wall
    strips as ``[(ortho, side, [Strip])]``."""
    x = [np.asarray(c, dtype=float) for c in mesh.axis_coords]
    dim = len(x)
    cells = [c.size - 1 for c in x]
    h = [c[1:] - c[:-1] for c in x]

    def face_shape(a):
        return [n + (b == a) for b, n in enumerate(cells)]

    def shift(index, a, by):
        out = list(index)
        out[a] += by
        return tuple(out)

    def width(index, skip):
        # product of the cell widths of ``index`` across the axes not
        # in ``skip``
        w = 1.0
        for b in range(dim):
            if b not in skip:
                w *= h[b][index[b]]
        return w

    shape_i = face_shape(i)
    case1 = []
    for cell in itertools.product(*(range(n) for n in cells)):
        lo = _flat(cell, shape_i)
        hi = _flat(shift(cell, i, 1), shape_i)
        case1.append(Interface(lo, hi, width(cell, {i}), h[i][cell[i]],
                               i, lo, hi))
    families = [(i, case1)]
    walls = []
    for j in range(dim):
        if j == i:
            continue
        shape_j = face_shape(j)

        def strip_rows(js):
            # component faces off the i walls, ortho index in ``js``
            ranges = [range(n) for n in cells]
            ranges[i] = range(1, cells[i])
            ranges[j] = js
            for face in itertools.product(*ranges):
                g = face[i]
                # half of each of the two cells the face separates
                measure = (0.5 * (h[i][g - 1] + h[i][g])
                           * width(face, {i, j}))
                yield face, measure

        case2 = []
        for face, measure in strip_rows(range(cells[j] - 1)):
            m = face[j]
            # the primal j-faces on grid plane m + 1, either side of the
            # component face's grid line
            tau = shift(face, j, 1)
            case2.append(Interface(
                _flat(face, shape_i), _flat(shift(face, j, 1), shape_i),
                measure, 0.5 * (x[j][m + 2] - x[j][m]), j,
                _flat(shift(tau, i, -1), shape_j), _flat(tau, shape_j)))
        families.append((j, case2))
        for side, m in ((0, 0), (1, cells[j] - 1)):
            walls.append((j, side, [
                Strip(_flat(face, shape_i), measure, 0.5 * h[j][m])
                for face, measure in strip_rows([m])]))
    return families, walls
