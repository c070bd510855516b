"""Reference oracle for the mesh writers.

These are the OBJ and curvature-sidecar writers the package used before
each block became one write, kept here unchanged in substance: one
`write` call per vertex, face and curvature line.  Tests require the
package's writers to produce the same bytes.
"""

from __future__ import annotations

from sepcurv.meshing import MeshResult


def reference_write_obj(path: str, mesh: MeshResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def reference_write_curvature_csv(path: str, mesh: MeshResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,k\n")
        for idx, k in enumerate(mesh.curvatures, start=1):
            fh.write(f"{idx},{k!r}\n")
