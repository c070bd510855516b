"""Separable hypersurfaces: points, jet tables, regularity gates, height solves.

A surface is the zero set of F(x) = f_1(x_1) + ... + f_n(x_n) with each f_k
a single-variable function on an open interval.  One coordinate (the
"height", 1-based index, last by default) is the one solved for when lifting
partial coordinates onto the surface, and all frame formulas assume its
slope is bounded away from zero.

grad F = (f_1'(x_1), ..., f_n'(x_n)) and the ambient Hessian of F is
diagonal, so every geometric quantity here reduces to the 2-jets of the f_k
and is exact up to rounding.  Every jet comes from one `expr.eval_jets`
walk per coordinate over all the points at hand, or over the values of a
mesh's grid axis; the gates read them as they are, curvature scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
from .jets import Jet2

REGULARITY_EPS = 1e-8      # lower bound for both ||grad F|| and |f'_height|
ON_SURFACE_RTOL = 1e-12    # |g| tolerance relative to max(1, sum |f_k|)
MAX_SOLVE_ITERATIONS = 200
# from about this many rows of three terms, `_sum3`'s fixed numpy cost is
# below one `math.fsum` per row
_SUM3_ROWS = 128
_SUM3_LIMIT = 2.0 ** 1020   # three terms below it sum with no overflow


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, accumulated left to right."""
    prod = a * b
    out = prod[..., 0]
    for k in range(1, prod.shape[-1]):
        out = out + prod[..., k]
    return out


def householder(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, beta, p) of unit vectors x (last axis): H = I - beta v v^T, with
    v = x + sign(x_p) e_p and beta = 2 / (v . v), is the Householder
    reflector (Golub and Van Loan, Matrix Computations, sec. 5.1) of x onto
    -sign(x_p) e_p, p (a last axis of length 1) the first index of the
    largest |x_k|.  H's columns other than p span x's complement orthonormally."""
    pivot = np.abs(x).argmax(axis=-1)[..., None]
    with np.errstate(all="ignore"):
        # +-0.0 off the pivot leaves x's bits
        v = x + np.copysign(np.arange(x.shape[-1]) == pivot, x)
        return v, 2.0 / _dot(v, v), pivot


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

    @cached_property
    def scaled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(e, f' / 2^e, f'' / 2^e, sq_norm / 4^e) per point, 2^e the power of two
        of its largest |f_k'|, or 1 where that is below 1/2: never scaled up, so
        nothing overflows that did not, and K (degree 0) keeps the unscaled bits
        while the scaled products stay normal.  An f'' below 2^(e - 1022) turns
        subnormal (at max |f'| = 1e150, 1e-160 keeps 44 of 53 bits), and one of
        2^(e - 1075) or below reads 0."""
        e = np.maximum(np.frexp(np.abs(self.d1).max(axis=1))[1], 0)
        col = -e[:, None]
        return e, np.ldexp(self.d1, col), np.ldexp(self.d2, col), np.ldexp(self.sq_norm, -2 * e)

    @cached_property
    def normal(self) -> np.ndarray:
        """grad F / ||grad F|| per point."""
        with np.errstate(all="ignore"):
            return self.scaled[1] / np.sqrt(self.scaled[3])[:, None]

    @cached_property
    def reflector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(v, beta, cols, off) per point: the `householder` reflector
        H = I - beta v v^T of the unit normal N, whose columns other than the
        pivot p are an orthonormal tangent basis (`tangents`): column k takes
        coefficient cols[k], and `off` is 0.0 at the pivot, else 1.0."""
        v, beta, pivot = householder(self.normal)
        k = np.arange(v.shape[1])
        return v, beta, np.minimum(k - (k > pivot), k[-1] - 1), (k != pivot) * 1.0

    def tangents(self, coef: np.ndarray) -> np.ndarray:
        """The tangent vectors H [0; c] = [0; c] - beta v (v . [0; c]) of
        coefficients c = coef[p, ...] (last axis n - 1) in point p's basis,
        [0; c] spreading c over the non-pivot entries: O(n) each.  The pivot
        entry, -beta v_p (v . [0; c]), has no cancellation, so it keeps its
        relative precision where it is tiny (a normal near e_p)."""
        v, beta, cols, off = self.reflector
        lead, dim = (slice(None),) + (None,) * (coef.ndim - 2), coef.shape[-1]
        rows = np.arange(0, coef.size, dim).reshape(coef.shape[:-1] + (1,))
        x, v = coef.reshape(-1).take(rows + cols[lead]) * off[lead], v[lead]
        with np.errstate(all="ignore"):
            return x - (beta[lead] * _dot(v, x))[..., None] * v

    def errors(self, height: int | None = None) -> list[SepcurvError | None]:
        """Each point's first failure: its jet error, then the gradient-norm
        gate, then (given the 1-based `height`) the height-slope gate."""
        out = list(self.jet_errors)
        gradnorm = np.sqrt(self.sq_norm)
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """`_fsum` of each row of a 2-D array of finite terms.

    Rows of two terms (the n = 3 lift's `rest` and `abs_rest`) are one IEEE
    addition, which rounds once and so already equals `fsum`: numpy adds the
    columns, and the sum reads +0.0 for -0.0 and +inf where it overflows, as
    `_fsum` returns.  At least `_SUM3_ROWS` rows of three terms take
    `_sum3`.  Other rows take one C-level `map` of `fsum`, and the per-row
    fallback only when some row's sum overflows.
    """
    if a.shape[1] == 2:
        with np.errstate(over="ignore"):
            sums = sum(a.T, 0.0)   # the 0.0 start turns -0.0 into +0.0
        sums[np.isinf(sums)] = math.inf
        return sums
    if a.shape[1] == 3 and len(a) >= _SUM3_ROWS:
        return _sum3(a)
    rows = a.tolist()
    try:
        return np.array(list(map(fsum, rows)), dtype=float)
    except OverflowError:
        return np.array([_fsum(row) for row in rows], dtype=float)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _sum3(a: np.ndarray) -> np.ndarray:
    """`_fsum` of each row of a P x 3 array, bit for bit, in numpy passes.

    The correctly rounded sum of three floats of Boldo and Melquiond
    ("Emulation of FMA and correctly rounded sums: proved algorithms using
    rounding to odd", IEEE Trans. Computers 57(4), 2008): two TwoSums, the
    low parts added with rounding to odd, then one rounded addition.  It
    needs no intermediate overflow, so a row with a term of magnitude 2^1020
    or more (or not finite) takes `_fsum`, which also keeps fsum's
    order-dependent overflow: [1e308, 1e308, -1.797e308] reads inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        uh, ul = _two_sum(a[:, 1], a[:, 2])
        th, tl = _two_sum(a[:, 0], uh)
        v, err = _two_sum(tl, ul)
        # round to odd: an inexact v with an even significand moves one ulp
        # toward the exact sum
        even = (err != 0.0) & (v.view(np.int64) & 1 == 0)
        v[even] = np.nextafter(v[even], np.copysign(math.inf, err[even]))
        sums = th + v   # never -0.0, as fsum: where th is -0.0, tl is +0.0
        wide = ~(np.abs(a) < _SUM3_LIMIT).all(axis=1)
    if wide.any():
        sums[wide] = [_fsum(row) for row in a[wide].tolist()]
    return sums


def _table(coords: np.ndarray, d1: np.ndarray, d2: np.ndarray, jet_errors: dict) -> JetTable:
    """Table of P x n jet columns at P x n `coords`, given each failed
    point's jet error by index: a failed point keeps zero rows, and a point
    whose ||grad F||^2 (`_fsum` of its row) overflows gets a
    `NonFiniteError`."""
    errors = [None] * len(coords)
    for p, exc in jet_errors.items():
        errors[p] = exc
    d1[list(jet_errors)] = d2[list(jet_errors)] = 0.0
    with np.errstate(over="ignore"):
        sq_norm = _row_sums(d1 * d1)
    for p in np.flatnonzero(sq_norm == math.inf).tolist():
        errors[p] = NonFiniteError(f"||grad F||^2 overflows at {tuple(coords[p].tolist())!r}")
    return JetTable(d1, d2, sq_norm, tuple(errors))


def _columns(funcs: Sequence[Function1D], columns: Sequence[tuple[np.ndarray, np.ndarray | None]]):
    """Each function's jets over its column, one array walk each, as P x m
    arrays of values, f' and f'', and each point's first failure in column
    order.

    A column is (values, index): the P points' coordinates are
    values[index], or `values` itself when index is None.  The walk covers
    `values` alone and the points gather their jets and failures from it, so
    a grid axis is walked once per axis value, not once per node.
    """
    channels, failed = [], []
    for f, (values, index) in zip(funcs, columns):
        jet, errors = eval_jets(f, values)
        if index is None:
            channels.append((jet.v, jet.d1, jet.d2))
        else:
            channels.append((jet.v[index], jet.d1[index], jet.d2[index]))
            # the nodes on a failed axis value share its failure
            bad = np.zeros(len(values), dtype=bool)
            bad[list(errors)] = True
            nodes = np.flatnonzero(bad[index])
            errors = dict(zip(nodes.tolist(), map(errors.__getitem__, index[nodes].tolist())))
        failed.append(errors)
    errors = {p: exc for errs in reversed(failed) for p, exc in errs.items()}
    return (*np.array(channels).transpose(1, 2, 0), errors)


def _with_height(partials: np.ndarray, h0: int, height: np.ndarray) -> np.ndarray:
    """P x n rows of the P x (n - 1) `partials` with the `height` column
    put in at the 0-based index h0."""
    out = np.empty((partials.shape[0], partials.shape[1] + 1))
    out[:, :h0], out[:, h0], out[:, h0 + 1:] = partials[:, :h0], height, partials[:, h0:]
    return out


def jet_table(surface: SeparableSurface, points: Sequence[SurfacePoint]) -> JetTable:
    """Evaluate each f_k's 2-jets once over all points (one `expr.eval_jets`
    walk per coordinate, so values match `eval_jet2` bit for bit) and stack
    them into a table."""
    coords = np.array([p.coords for p in points], dtype=float).reshape(len(points), surface.n)
    return _table(coords, *_columns(surface.funcs, [(c, None) for c in coords.T])[1:])


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
    return float(np.sqrt(point_jets(surface, point, surface.height).sq_norm[0]))


class _Lift(NamedTuple):
    """The draws that lifted (draw indices, their coordinates as a K x n
    array, their residuals and their jet table) and each other draw's
    failure by draw index.  `points` builds the lifted draws'
    `SurfacePoint`s, for the callers that read them."""

    index: list[int]
    coords: np.ndarray
    residuals: np.ndarray
    table: JetTable
    failures: dict[int, SepcurvError]

    @property
    def points(self) -> list[SurfacePoint]:
        rows = map(tuple, self.coords.tolist())
        return list(map(SurfacePoint._make, zip(rows, self.residuals.tolist())))


def _lift(
    surface: SeparableSurface,
    partials: np.ndarray | Sequence[Sequence[float]] | None,
    bracket: tuple[float, float],
    axes: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> _Lift:
    """Solve every partial's height, table the jets the solve evaluated (the
    other coordinates' at its start, the height's at the root) and gate the
    table once (`JetTable.errors`).

    `partials` is a (P, n - 1) float array, one row of non-height
    coordinates per point (anything `np.array` turns into one, P = 0
    included); another shape is a `ValueError`.  The bracket is read with
    `errors.interval`.  A grid of partials comes instead as `axes`, with
    `partials` None: one (values, index) pair per non-height coordinate,
    the partials' column being values[index].  Each non-height f_k is then
    walked once per grid value (`_columns`), and otherwise once per partial.

    Per partial, the solve is Newton's method on g(t) = f_h(t) + the sum of
    the other f_k, with a bisection step whenever Newton would leave the
    sign-change bracket or stall, until |g| meets the scale-relative
    on-surface tolerance.  The partials step together: one walk of f_h over
    both bracket ends serves every partial, the lo end settling before the
    hi end; one walk at the midpoint serves every first Newton step; and
    each later step walks f_h once over the partials still unsolved.  A
    partial leaves when it is accepted or fails, so its root, jets and
    failure text are its own solve's.  The solve runs under one numpy error
    state, and writes failures, roots and collapses only for set masks.
    Only the failure texts are part of
    the contract: the partials that fail at one bracket end or at the
    midpoint share one exception object, and so do the grid nodes on one
    failed axis value.  A bracket miss keeps its numbers, and its
    `BracketError` formats the text only when read.
    """
    n, h0 = surface.n, surface.height - 1
    if axes is not None:
        partials = np.column_stack([values[index] for values, index in axes])
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
    others = [f for k, f in enumerate(surface.funcs) if k != h0]
    values, d1, d2, failures = _columns(others, axes or [(column, None) for column in given.T])
    dlo, dhi = fh.domain
    if not (dlo < lo and hi < dhi):   # every partial fails, before its jets are read
        message = f"bracket ({lo!r}, {hi!r}) not inside height domain ({dlo!r}, {dhi!r})"
        failures = {p: DomainError(message) for p in range(len(given))}
    live = np.ones(len(given), dtype=bool)
    live[list(failures)] = False
    active = np.flatnonzero(live)
    sums = np.array([_row_sums(values), _row_sums(np.abs(values))])[:, active]   # sum f_k, sum |f_k|
    root = np.full((4, len(given)), math.nan)   # t, |g|, f_h' and f_h'' at each root

    def step(t, jet, errors):
        """Settle the active partials at t, given f_h's jets there and each
        failed one's error by position: fail each partial whose jet fails or
        whose sum of |f_k| overflows, accept each whose |g| meets its
        tolerance, and return g, the tolerance and the going mask."""
        g = jet.v + sums[0]
        tol = ON_SURFACE_RTOL * np.fmax(1.0, sums[1] + np.abs(jet.v))
        if not math.isfinite(tol.sum()):
            for q in np.flatnonzero(tol == math.inf).tolist():   # it would accept any t
                row = given[active[q]].tolist()
                at = (*row[:h0], float(t[q]), *row[h0:])
                errors.setdefault(q, NonFiniteError(f"sum of |f_k| overflows at {at!r}"))
        done = np.abs(g) <= tol
        going = ~done
        if errors:
            failures.update((int(active[q]), exc) for q, exc in errors.items())
            done[list(errors)] = going[list(errors)] = False
        if done.any():
            root[:, active[done]] = t[done], np.abs(g[done]), jet.d1[done], jet.d2[done]
        return g, tol, going

    def broadcast(jets, errs, k):
        """Value k of a walk of f_h: its jet and failure, shared by every
        active partial."""
        jet = Jet2(*(np.full(active.size, c[k]) for c in (jets.v, jets.d1, jets.d2)))
        return jet, dict.fromkeys(range(active.size), errs[k]) if k in errs else {}

    with np.errstate(all="ignore"):
        # the bracket ends, where a partial may be accepted as well: one walk
        # of f_h over (lo, hi)
        ends = eval_jets(fh, np.array([lo, hi]))
        g_end = np.zeros((2, len(given)))
        for k, end in enumerate((lo, hi)):
            g, _, going = step(np.full(active.size, end), *broadcast(*ends, k))
            g_end[k, active] = g
            active, sums = active[going], sums.compress(going, axis=1)
        glo, ghi = g_end[:, active]
        same = (glo < 0.0) == (ghi < 0.0)
        failures.update(zip(active[same].tolist(), map(
            BracketError, repeat(lo), repeat(hi), glo[same].tolist(), ghi[same].tolist()
        )))
        active, glo, sums = active[~same], glo[~same], sums.compress(~same, axis=1)

        # orient so g(a) < 0 < g(b); a, b need not be ordered
        a, b = np.where(glo < 0.0, lo, hi), np.where(glo < 0.0, hi, lo)
        t = np.full(active.size, 0.5 * (lo + hi))
        step_prev = np.full(active.size, abs(hi - lo))
        gx = np.full(active.size, math.inf)
        for it in range(MAX_SOLVE_ITERATIONS):
            if not active.size:
                break
            # every partial starts at the midpoint, so the first step walks it once
            jet, errors = broadcast(*eval_jets(fh, t[:1]), 0) if it == 0 else eval_jets(fh, t)
            g, tol, going = step(t, jet, errors)
            a, b = np.where(g < 0.0, t, a), np.where(g < 0.0, b, t)
            lo_c, hi_c = np.where(a < b, a, b), np.where(a < b, b, a)
            trial = np.where(jet.d1 != 0.0, t - g / jet.d1, math.nan)
            newton = (lo_c < trial) & (trial < hi_c) & (np.abs(2.0 * g) <= np.abs(step_prev * jet.d1))
            nxt = np.where(newton, trial, 0.5 * (a + b))
            collapsed = going & ((nxt == a) | (nxt == b))
            if collapsed.any():
                for p, tc, gc, tolc in zip(*(v[collapsed].tolist() for v in (active, t, g, tol))):
                    failures[p] = ConvergenceError(
                        f"bracket collapsed at t = {tc!r} with residual {gc:.3e} still above "
                        f"tolerance {tolc:.3e}"
                    )
                going &= ~collapsed
            active, a, b, gx = active[going], a[going], b[going], g[going]
            t, step_prev, sums = nxt[going], np.abs(nxt - t)[going], sums.compress(going, axis=1)
    for p, g in zip(active.tolist(), gx.tolist()):
        failures[p] = ConvergenceError(
            f"no convergence after {MAX_SOLVE_ITERATIONS} iterations; last residual {g:.3e}"
        )

    solved = np.flatnonzero(~np.isnan(root[0]))
    coords, d1, d2 = (_with_height(d[solved], h0, root[k, solved])
                      for d, k in ((given, 0), (d1, 2), (d2, 3)))
    table = _table(coords, d1, d2, {})
    index = solved.tolist()
    failures = dict(sorted(failures.items()))
    gate = table.errors(surface.height)
    failures.update((index[p], exc) for p, exc in enumerate(gate) if exc is not None)
    keep = np.array([exc is None for exc in gate], dtype=bool)
    survivors = JetTable(table.d1[keep], table.d2[keep], table.sq_norm[keep], (None,) * int(keep.sum()))
    return _Lift(solved[keep].tolist(), coords[keep], root[1, solved][keep], survivors, failures)


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


class Samples(NamedTuple):
    """What `sample_points` returns: the lifted points in draw order, each
    failed draw's (draw index, reason), and the lifted points' gated jet
    table, row p for points[p], which `scan_constancy` takes as its jets."""

    points: list[SurfacePoint]
    failures: list[tuple[int, str]]
    table: JetTable


def sample_points(
    surface: SeparableSurface,
    ranges: Sequence[tuple[float, float]],
    count: int,
    seed,
    bracket: tuple[float, float],
) -> Samples:
    """Draw seeded uniform partial coordinates and lift each onto the surface.

    `ranges` gives one (lo, hi) box per non-height coordinate, ascending by
    coordinate index, each read with `errors.interval`; `count` is an
    integer >= 1 and `seed` an integer >= 0 or a list or tuple of them.  The
    draws share one lift (`solve_height`'s solve and gates), and the jets it
    evaluated come back as the samples' table, so a scan of the points
    walks no f_k again.  Failures are recorded, never fatal.  The same seed
    always produces the same draws.
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
    failures = sorted((i, describe(exc)) for i, exc in lift.failures.items())
    return Samples(lift.points, failures, lift.table)
