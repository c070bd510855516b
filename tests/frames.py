"""Coordinate frame vectors of a separable hypersurface, built apart from
the package's pair planes, so the dense Gauss engine on them is a check of
the pair engine that shares no plane with it."""

from __future__ import annotations

import numpy as np

from sepcurv.geometry import point_jets


def frame_vectors(surface, point, *ks: int) -> np.ndarray:
    """The frame vectors X_k = e_k - (f_k'/f_h') e_h (h the height) of the
    1-based coordinates `ks` at a point, as the rows of a float array.
    Raises the point's first failure of the gates, as a pair plane does."""
    d1, h = point_jets(surface, point, surface.height).d1[0], surface.height - 1
    rows = np.zeros((len(ks), surface.n))
    for row, k in zip(rows, ks):
        row[k - 1], row[h] = 1.0, -d1[k - 1] / d1[h]
    return rows
