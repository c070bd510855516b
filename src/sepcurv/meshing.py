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
from .errors import MeshError, SpecFileError, _pair, integer, interval
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

    An n other than 3, a ranges count other than 2, a range that is not an
    `errors.interval` or a grid side that is not an integer >= 2 raises
    `SpecFileError`; fewer than 3 surviving vertices raise `MeshError`.
    """
    if surface.n != 3:
        raise SpecFileError(f"mesh export needs n = 3, got n = {surface.n}")
    if len(ranges) != 2:
        raise SpecFileError(f"expected 2 ranges, got {len(ranges)}")
    (a_lo, a_hi), (b_lo, b_hi) = (interval(r, f"ranges[{k}]") for k, r in enumerate(ranges))
    nx, ny = (integer(side, "grid", lo=2) for side in _pair(grid, "grid", "[nx, ny]"))
    i, j = surface.non_height
    a_vals, b_vals = np.linspace(a_lo, a_hi, nx), np.linspace(b_lo, b_hi, ny)

    # one lift (solve, table and gates) for every node, row-major, with
    # f_i walked over the nx grid values and f_j over the ny
    axes = ((a_vals, np.repeat(np.arange(nx), ny)), (b_vals, np.tile(np.arange(ny), nx)))
    lift = _lift(surface, None, bracket, axes)
    vertices = list(map(tuple, lift.coords.tolist()))
    curvatures = pair_table(surface, lift.table, [(i, j)]).curvature()[:, 0].tolist()
    vertex_id = np.full((nx, ny), -1, dtype=int)
    vertex_id.flat[lift.index] = np.arange(len(vertices))
    dropped = nx * ny - len(vertices)

    if len(vertices) < 3:
        raise MeshError(
            f"only {len(vertices)} grid nodes lifted onto the surface; need at least 3"
        )
    return MeshResult(tuple(vertices), _faces(vertex_id), tuple(curvatures), dropped)


def _faces(vertex_id: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """Triangles of every grid cell of an (nx, ny) array of vertex ids (-1
    for a dropped node), cells row-major.

    A cell's corners q0..q3 are (r, c), (r + 1, c), (r + 1, c + 1),
    (r, c + 1).  Four live corners give (q0, q1, q2) and (q0, q2, q3); three
    give the live ones in that order; fewer give none.
    """
    quad = np.stack(
        (vertex_id[:-1, :-1], vertex_id[1:, :-1], vertex_id[1:, 1:], vertex_id[:-1, 1:]), axis=-1
    ).reshape(-1, 4)
    live = np.take_along_axis(quad, np.argsort(quad < 0, axis=1, kind="stable"), axis=1)
    count = (quad >= 0).sum(axis=1)
    tris = np.stack((live[:, :3], quad[:, [0, 2, 3]]), axis=1)
    return tuple(zip(*tris[np.stack((count >= 3, count == 4), axis=1)].T.tolist()))


def _reprs(values) -> list[str]:
    """`repr` of each float, each distinct bit pattern rendered once: 0.0 and
    -0.0 keep their own texts, and no NaN is looked up by equality."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def write_obj(path: str, mesh: MeshResult) -> None:
    """Wavefront OBJ: 'v x y z' per vertex, 'f a b c' per triangle (1-based)."""
    # x and y (with the height in its default last slot) repeat along grid
    # rows and columns; heights rarely repeat
    xs, ys, zs = list(zip(*mesh.vertices)) or ((), (), ())
    ids = list(map(str, range(1, len(mesh.vertices) + 1)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([f"v {x} {y} {z!r}\n" for x, y, z in zip(_reprs(xs), _reprs(ys), zs)]))
        fh.write("".join([f"f {ids[a]} {ids[b]} {ids[c]}\n" for a, b, c in mesh.faces]))


def write_curvature_csv(path: str, mesh: MeshResult) -> None:
    """Sidecar CSV mapping 1-based vertex ids to sectional curvature."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,k\n")
        fh.write("".join([f"{idx},{k!r}\n" for idx, k in enumerate(mesh.curvatures, start=1)]))
