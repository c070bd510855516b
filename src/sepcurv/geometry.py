"""Separable hypersurfaces: points, normals, tangent frames, height solves.

A surface is the zero set of F(x) = f_1(x_1) + ... + f_n(x_n) with each f_k
a single-variable function on an open interval.  One coordinate (the
"height", 1-based index, last by default) is the one solved for when lifting
partial coordinates onto the surface, and all frame formulas assume its
slope is bounded away from zero.

grad F = (f_1'(x_1), ..., f_n'(x_n)) and the ambient Hessian of F is
diagonal, so every geometric quantity here reduces to the 2-jets of the f_k
and is exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NonFiniteError,
    OffSurfaceError,
    RegularityError,
    SepcurvError,
    SolveError,
    describe,
)
from .expr import Function1D
from .jets import Jet2

REGULARITY_EPS = 1e-8      # lower bound for both ||grad F|| and |f'_height|
ON_SURFACE_RTOL = 1e-12    # residual tolerance relative to max(1, sum |f_k|)
MAX_SOLVE_ITERATIONS = 200


@dataclass(frozen=True)
class SurfacePoint:
    """Coordinates certified to satisfy |sum f_k| <= tolerance."""

    coords: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class TangentFrame:
    """Tangent basis, unit normal and fundamental forms at a surface point.

    Row r of `basis` is the tangent vector with 1 in the r-th non-height
    slot and -f'_k/f'_h in the height slot.  `gram` holds the pairwise inner
    products of those rows.  `second_form` holds II(X_r, X_s) for the
    gradient-directed unit normal N with the convention
    II(X, Y) = <-dN(X), Y>, i.e. minus the ambient Hessian pairing of F
    divided by ||grad F||.
    """

    basis: np.ndarray        # shape (n-1, n)
    normal: np.ndarray       # shape (n,)
    gram: np.ndarray         # shape (n-1, n-1)
    second_form: np.ndarray  # shape (n-1, n-1)


@dataclass(frozen=True)
class SeparableSurface:
    """Zero set of f_1(x_1) + ... + f_n(x_n) with a designated height index.

    `height` is 1-based and defaults to n.  Immutable; all evaluation state
    lives in the per-call jets, so instances are safe to share across
    threads.
    """

    funcs: tuple[Function1D, ...]
    height: int | None = None

    def __post_init__(self):
        funcs = tuple(self.funcs)
        object.__setattr__(self, "funcs", funcs)
        if len(funcs) < 3:
            raise ValueError(f"need at least 3 coordinate functions, got {len(funcs)}")
        h = self.height if self.height is not None else len(funcs)
        if not isinstance(h, int) or not 1 <= h <= len(funcs):
            raise ValueError(f"height index {self.height!r} outside 1..{len(funcs)}")
        object.__setattr__(self, "height", h)

    @property
    def n(self) -> int:
        return len(self.funcs)

    @property
    def non_height(self) -> tuple[int, ...]:
        """1-based coordinate indices excluding the height, ascending."""
        return tuple(k for k in range(1, self.n + 1) if k != self.height)

    def jets(self, coords: Sequence[float]) -> tuple[Jet2, ...]:
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return tuple(f.jet(x) for f, x in zip(self.funcs, coords))

    def values(self, coords: Sequence[float]) -> list[float]:
        return [j.v for j in self.jets(coords)]

    def on_surface_tol(self, values: Iterable[float]) -> float:
        return ON_SURFACE_RTOL * max(1.0, fsum(abs(v) for v in values))

    def point(self, coords: Sequence[float]) -> SurfacePoint:
        """Certify explicit coordinates as a surface point.

        Raises `OffSurfaceError` if the residual exceeds the scale-relative
        tolerance; use `solve_height` to produce points from partial
        coordinates instead.
        """
        coords = tuple(float(c) for c in coords)
        values = self.values(coords)
        residual = abs(fsum(values))
        tol = self.on_surface_tol(values)
        if residual > tol:
            raise OffSurfaceError(
                f"|sum f_k| = {residual:.6e} exceeds tolerance {tol:.6e} at {coords!r}"
            )
        return SurfacePoint(coords, residual)

    def insert_height(self, partial: Sequence[float], height_value: float) -> tuple[float, ...]:
        """Merge partial non-height coordinates with a height value."""
        if len(partial) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} partial coordinates, got {len(partial)}")
        coords = list(partial)
        coords.insert(self.height - 1, height_value)
        return tuple(float(c) for c in coords)


@dataclass(frozen=True)
class JetTable:
    """f_k' and f_k'' of every coordinate at P points, as P x n arrays.

    `sq_norm` is ||grad F||^2 per point, summed exactly (`math.fsum`).  A
    point whose jets fail keeps zero rows and its `DomainError` or
    `NonFiniteError` in `jet_errors`.  A point whose `sq_norm` overflows
    reads inf there and gets a `NonFiniteError` too.
    """

    d1: np.ndarray
    d2: np.ndarray
    sq_norm: np.ndarray
    jet_errors: tuple[SepcurvError | None, ...]

    @property
    def gradnorm(self) -> np.ndarray:
        return np.sqrt(self.sq_norm)

    @property
    def normal(self) -> np.ndarray:
        """grad F / ||grad F|| per point."""
        with np.errstate(all="ignore"):
            return self.d1 / self.gradnorm[:, None]

    def frames(self, height: int, coords: Sequence[int]) -> np.ndarray:
        """Tangent vectors e_k - (f'_k/f'_h) e_h for the 1-based coordinates
        `coords` (h the 1-based `height`), shape (P, len(coords), n)."""
        h0, idx = height - 1, [k - 1 for k in coords]
        vec = np.zeros((self.d1.shape[0], len(idx), self.d1.shape[1]))
        vec[:, np.arange(len(idx)), idx] = 1.0
        with np.errstate(all="ignore"):
            vec[:, :, h0] = -self.d1[:, idx] / self.d1[:, h0:h0 + 1]
        return vec

    def errors(self, height: int | None = None) -> list[SepcurvError | None]:
        """Each point's first failure: its jet error, then the gradient-norm
        gate, then (given the 1-based `height`) the height-slope gate."""
        out = list(self.jet_errors)
        gradnorm = self.gradnorm
        slope = gradnorm if height is None else np.abs(self.d1[:, height - 1])
        for p in np.flatnonzero((gradnorm < REGULARITY_EPS) | (slope < REGULARITY_EPS)):
            if out[p] is None and gradnorm[p] < REGULARITY_EPS:
                out[p] = RegularityError(
                    f"gradient norm {gradnorm[p]:.3e} below regularity threshold "
                    f"{REGULARITY_EPS:g}"
                )
            elif out[p] is None:
                out[p] = RegularityError(
                    f"height slope |f'_{height}| = {slope[p]:.3e} below regularity "
                    f"threshold {REGULARITY_EPS:g}"
                )
        return out


def _stack(n: int, rows: Iterable[tuple]) -> JetTable:
    """Table of (coords, the point's n jets or the error that stopped them)
    rows, read once."""
    d1, d2, sq_norm, errors = [], [], [], []
    for coords, jets in rows:
        error = jets if isinstance(jets, SepcurvError) else None
        if error is not None:
            jets = (Jet2(0.0),) * n   # a failed point keeps zero rows
        d1.append([j.d1 for j in jets])
        d2.append([j.d2 for j in jets])
        try:
            sq_norm.append(fsum(j.d1 * j.d1 for j in jets))
        except OverflowError:
            sq_norm.append(math.inf)
        if sq_norm[-1] == math.inf:
            error = NonFiniteError(f"||grad F||^2 overflows at {coords!r}")
        errors.append(error)
    shape = (len(sq_norm), n)
    return JetTable(np.reshape(d1, shape), np.reshape(d2, shape), np.array(sq_norm), tuple(errors))


def jet_table(surface: SeparableSurface, points: Sequence[SurfacePoint]) -> JetTable:
    """Evaluate every f_k's 2-jet once per point with the scalar `Jet2` (so
    values match `surface.jets` bit for bit) and stack them into a table."""

    def row(point: SurfacePoint) -> tuple:
        try:
            return point.coords, surface.jets(point.coords)
        except (DomainError, NonFiniteError) as exc:
            return point.coords, exc.with_traceback(None)

    return _stack(surface.n, map(row, points))


def point_jets(
    surface: SeparableSurface, point: SurfacePoint, height: int | None = None
) -> JetTable:
    """The one-row table at a point; raises the point's first failure."""
    table = jet_table(surface, [point])
    error = table.errors(height)[0]
    if error is not None:
        raise error
    return table


def ensure_regular(surface: SeparableSurface, point: SurfacePoint) -> float:
    """Check both regularity gates at a point; returns ||grad F||."""
    return float(point_jets(surface, point, surface.height).gradnorm[0])


def unit_normal(surface: SeparableSurface, point: SurfacePoint) -> np.ndarray:
    """Gradient-directed unit normal grad F / ||grad F|| at a surface point."""
    return point_jets(surface, point).normal[0]


def tangent_frame(surface: SeparableSurface, point: SurfacePoint) -> TangentFrame:
    """Coordinate tangent basis with Gram matrix and second fundamental form.

    For non-height coordinates k the basis vector is X_k = e_k - (f'_k/f'_h) e_h,
    so the Gram matrix is I + t t^T with t_k = f'_k/f'_h, and the second
    fundamental form is -(diag(f''_k) + (f''_h/f'_h^2) g g^T)/||grad F|| with
    g the non-height gradient entries.
    """
    table = point_jets(surface, point, surface.height)
    d1, d2, gradnorm = table.d1[0], table.d2[0], table.gradnorm[0]
    h0 = surface.height - 1
    others = [k - 1 for k in surface.non_height]
    basis = table.frames(surface.height, surface.non_height)[0]
    gram = np.eye(surface.n - 1) + np.outer(basis[:, h0], basis[:, h0])
    second = -(
        np.diag(d2[others]) + np.outer(d1[others], d1[others]) * (d2[h0] / d1[h0] ** 2)
    ) / gradnorm
    return TangentFrame(basis, d1 / gradnorm, gram, second)


def _root(
    surface: SeparableSurface, partial: Sequence[float], bracket: tuple[float, float]
) -> tuple[SurfacePoint, tuple[Jet2, ...]]:
    """Solve one partial's height: Newton steps on g(t) = f_h(t) + sum of the
    other f_k, with a bisection step whenever Newton would leave the
    sign-change bracket or stall, until |g| meets the scale-relative
    on-surface tolerance.  Returns the point and the 2-jets the solve
    evaluated there (the other coordinates' from its start, the height's at
    the root), in coordinate order."""
    n = surface.n
    h0 = surface.height - 1
    partial = [float(v) for v in partial]
    if len(partial) != n - 1:
        raise ValueError(f"expected {n - 1} partial coordinates, got {len(partial)}")
    fh = surface.funcs[h0]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket ends must be increasing, got ({lo!r}, {hi!r})")
    dlo, dhi = fh.domain
    if not (dlo < lo and hi < dhi):
        raise DomainError(
            f"bracket ({lo!r}, {hi!r}) not inside height domain ({dlo!r}, {dhi!r})"
        )

    other_funcs = [surface.funcs[k] for k in range(n) if k != h0]
    others = [f.jet(x) for f, x in zip(other_funcs, partial)]
    rest = fsum(j.v for j in others)
    abs_rest = fsum(abs(j.v) for j in others)

    def residual_tol(height_value: float) -> float:
        return ON_SURFACE_RTOL * max(1.0, abs_rest + abs(height_value))

    def root(t: float, jet: Jet2) -> tuple[SurfacePoint, tuple[Jet2, ...]]:
        point = SurfacePoint(surface.insert_height(partial, t), abs(jet.v + rest))
        return point, (*others[:h0], jet, *others[h0:])

    jlo = fh.jet(lo)
    glo = jlo.v + rest
    if abs(glo) <= residual_tol(jlo.v):
        return root(lo, jlo)
    jhi = fh.jet(hi)
    ghi = jhi.v + rest
    if abs(ghi) <= residual_tol(jhi.v):
        return root(hi, jhi)
    if (glo < 0.0) == (ghi < 0.0):
        raise BracketError(
            f"no sign change in bracket ({lo!r}, {hi!r}): "
            f"g(lo) = {glo:.6e}, g(hi) = {ghi:.6e}"
        )

    # orient so g(a) < 0 < g(b); a, b need not be ordered
    a, b = (lo, hi) if glo < 0.0 else (hi, lo)
    t = 0.5 * (lo + hi)
    step_prev = abs(hi - lo)
    gx = math.inf
    for _ in range(MAX_SOLVE_ITERATIONS):
        jet = fh.jet(t)
        gx = jet.v + rest
        if abs(gx) <= residual_tol(jet.v):
            return root(t, jet)
        if gx < 0.0:
            a = t
        else:
            b = t
        lo_c, hi_c = (a, b) if a < b else (b, a)
        trial = t - gx / jet.d1 if jet.d1 != 0.0 else math.nan
        if lo_c < trial < hi_c and abs(2.0 * gx) <= abs(step_prev * jet.d1):
            step_prev = abs(trial - t)
            nxt = trial
        else:
            nxt = 0.5 * (a + b)
            step_prev = abs(nxt - t)
        if nxt == a or nxt == b:
            raise ConvergenceError(
                f"bracket collapsed at t = {t!r} with residual {gx:.3e} still above "
                f"tolerance {residual_tol(jet.v):.3e}"
            )
        t = nxt
    raise ConvergenceError(
        f"no convergence after {MAX_SOLVE_ITERATIONS} iterations; last residual {gx:.3e}"
    )


class _Lift(NamedTuple):
    """The draws that lifted (draw indices, points, their jet table) and each
    other draw's failure by draw index."""

    index: list[int]
    points: list[SurfacePoint]
    table: JetTable
    failures: dict[int, SepcurvError]


def _lift(
    surface: SeparableSurface,
    partials: Iterable[Sequence[float]],
    bracket: tuple[float, float],
) -> _Lift:
    """Solve each partial's height (`_root`), table the jets each solve
    evaluated at its root and gate the table once (`JetTable.errors`)."""
    index, points, failures = [], [], {}

    def solved():
        for i, partial in enumerate(partials):
            try:
                point, jets = _root(surface, partial, bracket)
            except (SolveError, DomainError, NonFiniteError) as exc:
                failures[i] = exc.with_traceback(None)   # frees the solve's frames
            else:
                index.append(i)
                points.append(point)
                yield point.coords, jets

    table = _stack(surface.n, solved())
    gate = table.errors(surface.height)
    failures.update((index[p], exc) for p, exc in enumerate(gate) if exc is not None)
    keep = [p for p, exc in enumerate(gate) if exc is None]
    survivors = JetTable(table.d1[keep], table.d2[keep], table.sq_norm[keep], (None,) * len(keep))
    return _Lift([index[p] for p in keep], [points[p] for p in keep], survivors, failures)


def solve_height(
    surface: SeparableSurface,
    partial: Sequence[float],
    bracket: tuple[float, float],
) -> SurfacePoint:
    """Lift partial coordinates onto the surface by solving for the height.

    The one-partial case of the lift shared with `sample_points`,
    `build_mesh` and `sepcurv eval`: a safeguarded Newton/bisection solve in
    the bracket, then the regularity gates on the jets at the root.  Raises
    the first failure: a `SolveError`, a jet's `DomainError` or
    `NonFiniteError`, a `RegularityError`, or a `NonFiniteError` when
    ||grad F||^2 overflows at the root.
    """
    lift = _lift(surface, [partial], bracket)
    if lift.failures:
        raise lift.failures[0]
    return lift.points[0]


def sample_points(
    surface: SeparableSurface,
    ranges: Sequence[tuple[float, float]],
    count: int,
    seed,
    bracket: tuple[float, float],
) -> tuple[list[SurfacePoint], list[tuple[int, str]]]:
    """Draw seeded uniform partial coordinates and lift each onto the surface.

    `ranges` gives one (lo, hi) box per non-height coordinate, ascending by
    coordinate index.  The draws share one lift (`solve_height`'s solve and
    gates; no point's jets are evaluated twice).  Returns surviving points
    in draw order plus (draw_index, reason) entries for the draws that
    failed; failures are recorded, never fatal.  The same seed always
    produces the same draws.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if len(ranges) != surface.n - 1:
        raise ValueError(
            f"expected {surface.n - 1} sampling ranges, got {len(ranges)}"
        )
    lows = np.array([float(r[0]) for r in ranges])
    highs = np.array([float(r[1]) for r in ranges])
    if not np.all(lows < highs):
        raise ValueError("every sampling range needs lo < hi")
    rng = np.random.default_rng(seed)
    partials = rng.uniform(lows, highs, size=(count, surface.n - 1))
    lift = _lift(surface, partials.tolist(), bracket)
    return lift.points, sorted((i, describe(exc)) for i, exc in lift.failures.items())
