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


@dataclass(frozen=True, eq=False)
class MeshResult:
    """Vertices with per-vertex curvature, triangle faces, drop count.

    `vertices` is a V x 3 float64 array (row v the coordinates of vertex v),
    `faces` an F x 3 int array of 0-based vertex ids (OBJ output is 1-based)
    and `curvatures` a length-V float64 array; all three are read-only, and
    any sequence given for them is turned into such an array.  `dropped`
    counts the grid nodes that did not lift.  Meshes compare by identity.
    """

    vertices: np.ndarray
    faces: np.ndarray
    curvatures: np.ndarray
    dropped: int

    def __post_init__(self):
        for name, dtype, shape in (("vertices", float, (-1, 3)), ("faces", int, (-1, 3)),
                                   ("curvatures", float, (-1,))):
            value = np.array(getattr(self, name), dtype=dtype)
            if value.size == 0:
                value = value.reshape(shape)
            if value.shape[1:] != shape[1:]:
                raise ValueError(f"{name}: expected shape {shape}, got {value.shape}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def build_mesh(
    surface: SeparableSurface,
    ranges: Sequence[tuple[float, float]],
    grid: tuple[int, int],
    bracket: tuple[float, float],
) -> MeshResult:
    """Lift an (nx, ny) grid over the two non-height coordinates.

    The result's `vertices` are the lifted nodes' coordinates, row-major
    over the grid, its `faces` the triangles of `_faces` and its
    `curvatures` the closed-form K of the (i, j) coordinate pair at each
    vertex, all as read-only arrays.

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

    # one lift (solve, table and gates) for every node, row-major
    lift = _lift(surface, np.column_stack((np.repeat(a_vals, ny), np.tile(b_vals, nx))), bracket)
    if len(lift.index) < 3:
        raise MeshError(
            f"only {len(lift.index)} grid nodes lifted onto the surface; need at least 3"
        )
    vertex_id = np.full((nx, ny), -1, dtype=int)
    vertex_id.flat[lift.index] = np.arange(len(lift.index))
    curvatures = pair_table(surface, lift.table, [(i, j)]).curvature()[:, 0]
    return MeshResult(lift.coords, _faces(vertex_id), curvatures, nx * ny - len(lift.index))


def _faces(vertex_id: np.ndarray) -> np.ndarray:
    """Triangles of every grid cell of an (nx, ny) array of vertex ids (-1
    for a dropped node), cells row-major, as an F x 3 array.

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
    return tris[np.stack((count >= 3, count == 4), axis=1)]


def _reprs(values) -> list[str]:
    """`repr` of each float, each distinct bit pattern rendered once: 0.0 and
    -0.0 keep their own texts, and no NaN is looked up by equality."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def write_obj(path: str, mesh: MeshResult) -> None:
    """Wavefront OBJ: 'v x y z' per row of `mesh.vertices`, 'f a b c' per row
    of `mesh.faces` (1-based)."""
    # x and y (with the height in its default last slot) repeat along grid
    # rows and columns; heights rarely repeat
    xs, ys, zs = mesh.vertices.T.tolist()
    ids = list(map(str, range(1, len(zs) + 1)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([f"v {x} {y} {z!r}\n" for x, y, z in zip(_reprs(xs), _reprs(ys), zs)]))
        fh.write("".join([f"f {ids[a]} {ids[b]} {ids[c]}\n" for a, b, c in mesh.faces.tolist()]))


def write_curvature_csv(path: str, mesh: MeshResult) -> None:
    """Sidecar CSV mapping 1-based vertex ids to sectional curvature."""
    ks = mesh.curvatures.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,k\n")
        fh.write("".join([f"{idx},{k!r}\n" for idx, k in enumerate(ks, start=1)]))
