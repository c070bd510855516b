"""Triangulated height-graph meshes for three-dimensional surfaces.

The two non-height coordinates run over a rectangular grid; every node that
lifts onto the surface (and passes the regularity gates) becomes a vertex,
nodes that fail are dropped.  Grid cells triangulate when all four corners
survive; cells with exactly three surviving corners emit the single
triangle, sparser cells emit nothing.  Vertex order is row-major over the
grid, so output is deterministic.

Exports are Wavefront OBJ ('v'/'f' lines, 1-based indices) plus a CSV
sidecar mapping each vertex to the coordinate-pair sectional curvature at
that point.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from typing import Sequence

from .curvature import pair_table
from .errors import MeshError
from .geometry import SeparableSurface, _lift


@dataclass(frozen=True)
class MeshResult:
    """Vertices with per-vertex curvature, triangle faces, drop count."""

    vertices: tuple[tuple[float, float, float], ...]
    faces: tuple[tuple[int, int, int], ...]   # 0-based; OBJ output is 1-based
    curvatures: tuple[float, ...]
    dropped: int


def build_mesh(
    surface: SeparableSurface,
    ranges: Sequence[tuple[float, float]],
    grid: tuple[int, int],
    bracket: tuple[float, float],
) -> MeshResult:
    """Lift an (nx, ny) grid over the two non-height coordinates.

    Raises `MeshError` when fewer than 3 vertices survive.
    """
    if surface.n != 3:
        raise ValueError(f"mesh export needs a 3-coordinate surface, got n = {surface.n}")
    if len(ranges) != 2:
        raise ValueError(f"expected 2 ranges, got {len(ranges)}")
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError(f"grid must be at least 2x2, got {nx}x{ny}")
    i, j = surface.non_height
    a_vals = np.linspace(float(ranges[0][0]), float(ranges[0][1]), nx)
    b_vals = np.linspace(float(ranges[1][0]), float(ranges[1][1]), ny)

    # one lift (solve, table and gates) for every node, row-major
    lift = _lift(surface, ([a, b] for a in a_vals.tolist() for b in b_vals.tolist()), bracket)
    vertices = [p.coords for p in lift.points]
    curvatures = pair_table(surface, lift.table, [(i, j)]).curvature()[:, 0].tolist()
    vertex_id = np.full((nx, ny), -1, dtype=int)
    vertex_id.flat[lift.index] = np.arange(len(vertices))
    dropped = nx * ny - len(vertices)

    faces: list[tuple[int, int, int]] = []
    for r in range(nx - 1):
        for c in range(ny - 1):
            # cell corners in consistent winding order
            quad = [
                vertex_id[r, c],
                vertex_id[r + 1, c],
                vertex_id[r + 1, c + 1],
                vertex_id[r, c + 1],
            ]
            alive = [v for v in quad if v >= 0]
            if len(alive) == 4:
                faces.append((quad[0], quad[1], quad[2]))
                faces.append((quad[0], quad[2], quad[3]))
            elif len(alive) == 3:
                faces.append((alive[0], alive[1], alive[2]))

    if len(vertices) < 3:
        raise MeshError(
            f"only {len(vertices)} grid nodes lifted onto the surface; need at least 3"
        )
    return MeshResult(tuple(vertices), tuple(faces), tuple(curvatures), dropped)


def write_obj(path: str, mesh: MeshResult) -> None:
    """Wavefront OBJ: 'v x y z' per vertex, 'f a b c' per triangle (1-based)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def write_curvature_csv(path: str, mesh: MeshResult) -> None:
    """Sidecar CSV mapping 1-based vertex ids to sectional curvature."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,k\n")
        for idx, k in enumerate(mesh.curvatures, start=1):
            fh.write(f"{idx},{k!r}\n")
