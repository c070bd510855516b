"""Reference oracle for meshes and the mesh writers.

The writers are the OBJ and curvature-sidecar writers the package used
before each block became one write, kept here unchanged in substance: one
`write` call per vertex, face and curvature line.  `reference_build_mesh`
is a mesh built node by node: one `solve_height` per grid node, one
`sectional_special` per vertex and the faces of `replicate_faces`.  Tests
require the package's mesh and writers to produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from sepcurv import SepcurvError, sectional_special, solve_height
from sepcurv.meshing import MeshResult


def replicate_faces(nx, ny, alive):
    """Expected vertex ids and faces for a given grid occupancy pattern."""
    ids = {}
    for r in range(nx):
        for c in range(ny):
            if alive[r][c]:
                ids[(r, c)] = len(ids)
    faces = []
    tri_cells = 0
    for r in range(nx - 1):
        for c in range(ny - 1):
            quad = [
                ids.get((r, c)),
                ids.get((r + 1, c)),
                ids.get((r + 1, c + 1)),
                ids.get((r, c + 1)),
            ]
            live = [v for v in quad if v is not None]
            if len(live) == 4:
                faces.append((quad[0], quad[1], quad[2]))
                faces.append((quad[0], quad[2], quad[3]))
            elif len(live) == 3:
                faces.append(tuple(live))
                tri_cells += 1
    return ids, faces, tri_cells


def reference_build_mesh(surface, ranges, grid, bracket) -> MeshResult:
    """The mesh of an (nx, ny) grid lifted one node at a time, row-major."""
    nx, ny = grid
    a_vals, b_vals = (np.linspace(lo, hi, k).tolist() for (lo, hi), k in zip(ranges, grid))
    i, j = surface.non_height
    alive, points = [], []
    for x in a_vals:
        alive.append([])
        for y in b_vals:
            try:
                points.append(solve_height(surface, [x, y], bracket))
            except SepcurvError:
                alive[-1].append(False)
            else:
                alive[-1].append(True)
    _, faces, _ = replicate_faces(nx, ny, alive)
    curvatures = tuple(sectional_special(surface, p, i, j) for p in points)
    return MeshResult(tuple(p.coords for p in points), tuple(faces), curvatures, nx * ny - len(points))


def reference_write_obj(path: str, mesh: MeshResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for x, y, z in mesh.vertices.tolist():
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for a, b, c in mesh.faces.tolist():
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def reference_write_curvature_csv(path: str, mesh: MeshResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,k\n")
        for idx, k in enumerate(mesh.curvatures.tolist(), start=1):
            fh.write(f"{idx},{k!r}\n")
