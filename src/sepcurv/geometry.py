"""Separable hypersurfaces: points, jet tables, regularity gates, height solves.

A surface is the zero set of F(x) = f_1(x_1) + ... + f_n(x_n) with each f_k
a single-variable function on an open interval.  One coordinate (the
"height", 1-based index, last by default) is the one solved for when lifting
partial coordinates onto the surface, and all frame formulas assume its
slope is bounded away from zero.

grad F = (f_1'(x_1), ..., f_n'(x_n)) and the ambient Hessian of F is
diagonal, so every geometric quantity here reduces to the 2-jets of the f_k
and is exact up to rounding.  Every jet comes from one `expr.eval_jets`
walk per coordinate over all the points at hand.
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
    RegularityError,
    SepcurvError,
    SpecFileError,
    describe,
    integer,
    interval,
)
from .expr import Function1D, eval_jets

REGULARITY_EPS = 1e-8      # lower bound for both ||grad F|| and |f'_height|
ON_SURFACE_RTOL = 1e-12    # |g| tolerance relative to max(1, sum |f_k|)
MAX_SOLVE_ITERATIONS = 200


class SurfacePoint(NamedTuple):
    """A point as the height lift returns it (`solve_height`,
    `sample_points`): `coords` with the solved height, and `residual` the
    |g| that met the on-surface tolerance there."""

    coords: tuple[float, ...]
    residual: float


def resolve_height(n: int, height: int | None) -> int:
    """The 1-based height index of a surface in R^n: `height`, or n when it
    is None.  The one check of both."""
    n = integer(n, "n", 3)
    return integer(n if height is None else height, "height index", 1, n)


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
        object.__setattr__(self, "funcs", tuple(self.funcs))
        object.__setattr__(self, "height", resolve_height(len(self.funcs), self.height))

    @property
    def n(self) -> int:
        return len(self.funcs)

    @property
    def non_height(self) -> tuple[int, ...]:
        """1-based coordinate indices excluding the height, ascending."""
        return tuple(k for k in range(1, self.n + 1) if k != self.height)


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


def _fsum(row: Iterable[float]) -> float:
    """`math.fsum` of finite terms, or inf where their exact sum overflows."""
    try:
        return fsum(row)
    except OverflowError:
        return math.inf


def _row_sums(a: np.ndarray) -> list[float]:
    """`_fsum` of each row of a 2-D array: one C-level `map` of `fsum`, and
    the per-row fallback only when some row's sum overflows."""
    rows = a.tolist()
    try:
        return list(map(fsum, rows))
    except OverflowError:
        return [_fsum(row) for row in rows]


def _table(coords: np.ndarray, d1: np.ndarray, d2: np.ndarray, jet_errors: dict) -> JetTable:
    """Table of P x n jet columns at P x n `coords`, given each failed
    point's jet error by index: a failed point keeps zero rows, and a point
    whose ||grad F||^2 (`_fsum` of its row) overflows gets a
    `NonFiniteError`."""
    errors = [jet_errors.get(p) for p in range(len(coords))]
    d1[list(jet_errors)] = d2[list(jet_errors)] = 0.0
    with np.errstate(over="ignore"):
        sq_norm = np.array(_row_sums(d1 * d1), dtype=float)
    for p in np.flatnonzero(sq_norm == math.inf).tolist():
        errors[p] = NonFiniteError(f"||grad F||^2 overflows at {tuple(coords[p].tolist())!r}")
    return JetTable(d1, d2, sq_norm, tuple(errors))


def _columns(funcs: Sequence[Function1D], x: np.ndarray):
    """Each function's jets over its column of the P x m array x, one array
    walk each, as P x m arrays of values, f' and f'', and each point's first
    failure in column order."""
    jets, failed = zip(*(eval_jets(f, column) for f, column in zip(funcs, x.T)))
    errors = {p: exc for errs in reversed(failed) for p, exc in errs.items()}
    return (*(np.array([getattr(j, c) for j in jets]).T for c in ("v", "d1", "d2")), errors)


def jet_table(surface: SeparableSurface, points: Sequence[SurfacePoint]) -> JetTable:
    """Evaluate each f_k's 2-jets once over all points (one `expr.eval_jets`
    walk per coordinate, so values match `eval_jet2` bit for bit) and stack
    them into a table."""
    coords = np.array([p.coords for p in points], dtype=float).reshape(len(points), surface.n)
    return _table(coords, *_columns(surface.funcs, coords)[1:])


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


class _Lift(NamedTuple):
    """The draws that lifted (draw indices, points, their jet table) and each
    other draw's failure by draw index."""

    index: list[int]
    points: list[SurfacePoint]
    table: JetTable
    failures: dict[int, SepcurvError]


def _lift(
    surface: SeparableSurface,
    partials: np.ndarray | Sequence[Sequence[float]],
    bracket: tuple[float, float],
) -> _Lift:
    """Solve every partial's height, table the jets the solve evaluated (the
    other coordinates' at its start, the height's at the root) and gate the
    table once (`JetTable.errors`).

    `partials` is a (P, n - 1) float array, one row of non-height
    coordinates per point (anything `np.array` turns into one, P = 0
    included); another shape is a `ValueError`.  The bracket is read with
    `errors.interval`.

    Per partial, the solve is Newton's method on g(t) = f_h(t) + the sum of
    the other f_k, with a bisection step whenever Newton would leave the
    sign-change bracket or stall, until |g| meets the scale-relative
    on-surface tolerance.  The partials step together: each step walks f_h
    once over the partials still unsolved, and a partial leaves when it is
    accepted or fails, so its root, jets and failure are its own solve's.
    """
    n, h0 = surface.n, surface.height - 1
    try:
        given = np.array(partials, dtype=float)
    except ValueError as exc:   # ragged rows
        raise ValueError(f"expected {n - 1} partial coordinates per row: {exc}") from None
    if given.size == 0:
        given = given.reshape(0, n - 1)
    if given.ndim != 2 or given.shape[1] != n - 1:
        raise ValueError(f"expected {n - 1} partial coordinates, got shape {given.shape}")
    lo, hi = interval(bracket, "bracket")
    fh = surface.funcs[h0]
    values, d1, d2, failures = _columns([f for k, f in enumerate(surface.funcs) if k != h0], given)
    dlo, dhi = fh.domain
    if not (dlo < lo and hi < dhi):   # every partial fails, before its jets are read
        message = f"bracket ({lo!r}, {hi!r}) not inside height domain ({dlo!r}, {dhi!r})"
        failures = {p: DomainError(message) for p in range(len(given))}
    active = np.array([p for p in range(len(given)) if p not in failures], dtype=int)
    rest, abs_rest = np.zeros(len(given)), np.zeros(len(given))
    rest[active], abs_rest[active] = _row_sums(values[active]), _row_sums(np.abs(values[active]))
    root = np.full((4, len(given)), math.nan)   # t, |g|, f_h' and f_h'' at each root

    def step(t):
        """Walk f_h at the active partials' t: fail each partial whose jet
        fails or whose sum of |f_k| overflows, settle each whose |g| meets
        its tolerance, and return the jet, g, the tolerance and the going mask."""
        jet, errors = eval_jets(fh, t)
        with np.errstate(over="ignore"):
            g = jet.v + rest[active]
            tol = ON_SURFACE_RTOL * np.fmax(1.0, abs_rest[active] + np.abs(jet.v))
        for q in np.flatnonzero(tol == math.inf).tolist():   # it would accept any t
            row = given[active[q]].tolist()
            at = (*row[:h0], float(t[q]), *row[h0:])
            errors.setdefault(q, NonFiniteError(f"sum of |f_k| overflows at {at!r}"))
        failures.update((int(active[q]), exc) for q, exc in errors.items())
        done = np.abs(g) <= tol
        done[list(errors)] = False
        root[:, active[done]] = t[done], np.abs(g[done]), jet.d1[done], jet.d2[done]
        going = ~done
        going[list(errors)] = False
        return jet, g, tol, going

    # the bracket ends, where a partial may be accepted as well
    g_end = np.zeros((2, len(given)))
    for k, end in enumerate((lo, hi)):
        _, g, _, going = step(np.full(active.size, end))
        g_end[k, active] = g
        active = active[going]
    glo, ghi = g_end[:, active]
    same = (glo < 0.0) == (ghi < 0.0)
    for p, gl, gh in zip(active[same].tolist(), glo[same].tolist(), ghi[same].tolist()):
        failures[p] = BracketError(
            f"no sign change in bracket ({lo!r}, {hi!r}): g(lo) = {gl:.6e}, g(hi) = {gh:.6e}"
        )
    active, glo = active[~same], glo[~same]

    # orient so g(a) < 0 < g(b); a, b need not be ordered
    a, b = np.where(glo < 0.0, lo, hi), np.where(glo < 0.0, hi, lo)
    t = np.full(active.size, 0.5 * (lo + hi))
    step_prev = np.full(active.size, abs(hi - lo))
    gx = np.full(active.size, math.inf)
    for _ in range(MAX_SOLVE_ITERATIONS):
        if not active.size:
            break
        jet, g, tol, going = step(t)
        a, b = np.where(g < 0.0, t, a), np.where(g < 0.0, b, t)
        lo_c, hi_c = np.where(a < b, a, b), np.where(a < b, b, a)
        with np.errstate(all="ignore"):
            trial = np.where(jet.d1 != 0.0, t - g / jet.d1, math.nan)
        newton = (lo_c < trial) & (trial < hi_c) & (np.abs(2.0 * g) <= np.abs(step_prev * jet.d1))
        nxt = np.where(newton, trial, 0.5 * (a + b))
        collapsed = going & ((nxt == a) | (nxt == b))
        for p, tc, gc, tolc in zip(*(v[collapsed].tolist() for v in (active, t, g, tol))):
            failures[p] = ConvergenceError(
                f"bracket collapsed at t = {tc!r} with residual {gc:.3e} still above "
                f"tolerance {tolc:.3e}"
            )
        going &= ~collapsed
        active, a, b, gx = active[going], a[going], b[going], g[going]
        t, step_prev = nxt[going], np.abs(nxt - t)[going]
    for p, g in zip(active.tolist(), gx.tolist()):
        failures[p] = ConvergenceError(
            f"no convergence after {MAX_SOLVE_ITERATIONS} iterations; last residual {g:.3e}"
        )

    solved = np.flatnonzero(~np.isnan(root[0]))
    coords = np.insert(given[solved], h0, root[0, solved], axis=1)
    d1, d2 = (np.insert(d[solved], h0, root[k, solved], axis=1) for d, k in ((d1, 2), (d2, 3)))
    table = _table(coords, d1, d2, {})
    index = solved.tolist()
    failures = dict(sorted(failures.items()))
    gate = table.errors(surface.height)
    failures.update((index[p], exc) for p, exc in enumerate(gate) if exc is not None)
    keep = [p for p, exc in enumerate(gate) if exc is None]
    residuals = root[1, solved][keep].tolist()
    points = list(map(SurfacePoint._make, zip(map(tuple, coords[keep].tolist()), residuals)))
    survivors = JetTable(table.d1[keep], table.d2[keep], table.sq_norm[keep], (None,) * len(keep))
    return _Lift([index[p] for p in keep], points, survivors, failures)


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
    coordinate index, each read with `errors.interval`; `count` is an
    integer >= 1 and `seed` an integer >= 0 or a list or tuple of them.  The
    draws share one lift (`solve_height`'s solve and gates; no point's jets
    are evaluated twice).  Returns surviving points in draw order plus
    (draw_index, reason) entries for the draws that failed; failures are
    recorded, never fatal.  The same seed always produces the same draws.
    """
    count = integer(count, "count")
    if len(ranges) != surface.n - 1:
        raise SpecFileError(f"expected {surface.n - 1} sampling ranges, got {len(ranges)}")
    lows, highs = np.array([interval(r, f"ranges[{k}]") for k, r in enumerate(ranges)]).T
    if isinstance(seed, (list, tuple)):
        seed = [integer(s, f"seed[{k}]", 0) for k, s in enumerate(seed)]
    else:
        seed = integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    partials = rng.uniform(lows, highs, size=(count, surface.n - 1))
    lift = _lift(surface, partials, bracket)
    return lift.points, sorted((i, describe(exc)) for i, exc in lift.failures.items())
