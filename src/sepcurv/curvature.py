"""Sectional curvature engines and curvature-constancy scans.

Two independent engines are provided.  `sectional_special` is a closed form
for the tangent plane picked out by a pair of non-height coordinates:

    K(i, j) = (f_i'^2 f_j'' f_h'' + f_j'^2 f_i'' f_h'' + f_h'^2 f_i'' f_j'')
              / ((sum_k f_k'^2) * (f_i'^2 + f_j'^2 + f_h'^2))

with h the height coordinate.  `sectional_oracle` is a general implicit-
hypersurface engine built from the Gauss equation

    K = (H(X, X) H(Y, Y) - H(X, Y)^2) / ||grad F||^2

for an orthonormalized tangent pair (X, Y), where H is the ambient Hessian
pairing of F (diagonal here, entries f_k'').  Agreement of the two engines
on coordinate planes is the package's primary cross-check; `scan_constancy`
sweeps both over sampled points and reports whether K is constant, and
`sample_and_scan` draws and lifts those points first.

`flatness_residual` is the numerator of the closed form: identically zero
along a surface exactly when every coordinate-pair curvature vanishes.
`constk_residual(..., k0)` vanishes exactly when K(i, j) = k0/4; the factor
4 is internal to the residual's normalization, public curvature values are
always K itself.

Every engine runs on a jet table (`geometry.jet_table`): each f_k's 2-jets
from one array walk over all points (`expr.eval_jets`, the bits of
`eval_jet2`); a scan reuses the lift's table (`Samples.table`).  The engines
and the tangent draws read its rows scaled by a power of two
(`JetTable.scaled`): jet products overflow only where (f'' / max |f'|)^2,
K's scale, nears the float range, and K keeps the unscaled formula's bits
wherever that stays in range.  The residuals (degree 4) read the unscaled
jets, and the scaled ones times 2^(4 e) only where those overflow.  All
are array expressions over all points and planes at once.  Sums over
coordinates run in a fixed order, so a row's result does not depend on how
many rows share the table: the point-wise functions are the same kernels at
P = 1 and agree with a scan bit for bit, and a scan whose Gauss engine runs
in point chunks writes the same records and summary (an exact `fsum` mean
computed once over every point, see `scan_constancy`).

Random oblique planes map standard-normal coefficient pairs in R^(n-1)
through each point's orthonormal tangent basis (`JetTable.reflector`), so
they are tangent up to rounding however small the normal's components.  A
scan draws every point's pairs, in point order, from one generator keyed by
`SeedSequence(seed, spawn_key=PLANE_STREAM)`, and redraws a rejected pair
(too short or nearly dependent) from default_rng([seed, position]).

A scan's report keeps its engines' arrays as its records, in one
`RecordColumns` block: the pair K of both engines, the flags, the plane K
and u, w, the coords and each failure's text.  The report writers read
them; the flatness residual and the `ScanRecord`s are computed from them
only when first read, which the certify suites never do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations, repeat
from math import fsum
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePlaneError, SolveError, SpecFileError, describe, finite, integer, positive,
)
from .geometry import (
    JetTable, SeparableSurface, SurfacePoint, _dot, jet_table, point_jets, sample_points,
)

EQUIVALENCE_RTOL = 1e-9        # |k_special - k_oracle| <= rtol * max(1, |k_oracle|)
DEFAULT_CONSTANCY_TOL = 1e-7
PLANE_EPS = 1e-10              # tangency and independence thresholds
PLANE_RETRIES = 100
CHUNK_PLANES = 1 << 14         # planes per scan chunk, bounding its arrays' memory
# spawn key of a scan's plane stream, which differs from default_rng(seed) and
# every default_rng([seed, position]) (a one-word key equals [seed, 0] from 2^96)
PLANE_STREAM = (0, 0)


def _pair_sorted(surface: SeparableSurface, i: int, j: int) -> tuple[int, int]:
    """Validate a 1-based non-height coordinate pair; returns it sorted."""
    for idx in (i, j):
        if integer(idx, "pair index", 1, surface.n) == surface.height:
            raise SpecFileError(f"pair index {idx} is the height coordinate")
    if i == j:
        raise SpecFileError(f"pair indices must differ, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class PairTable:
    """Closed-form terms of Q coordinate pairs at P points, as (P, Q) arrays.

    `flat` is the closed-form numerator and `s` the pair's f_i'^2 + f_j'^2 +
    f_h'^2 (h the `height`), over the scaled jets (`JetTable.scaled`).  Rows
    of points that fail the table's gates (`jets.errors`) are meaningless.
    """

    pairs: tuple[tuple[int, int], ...]
    height: int
    jets: JetTable
    flat: np.ndarray
    s: np.ndarray

    def curvature(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.flat / (self.jets.scaled[3][:, None] * self.s)

    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame vectors of each pair's two coordinates, (P, Q, n) each."""
        lo, hi = zip(*self.pairs)
        return self.jets.frames(self.height, lo), self.jets.frames(self.height, hi)

    def residual(self, k0: float | None = None) -> np.ndarray:
        """The flatness residual, or given k0 the constant-K one, over the
        unscaled jets; where that is not finite, the scaled terms' residual
        times 2^(4 e), as it has degree 4 (0 where its terms underflow)."""
        k0, jets = None if k0 is None else finite(k0, "k0"), self.jets

        def value(flat, s, sq_norm):
            return flat if k0 is None else k0 * s * sq_norm[:, None] - 4.0 * flat

        with np.errstate(all="ignore"):
            out = value(*_terms(jets.d1, jets.d2, self.pairs, self.height), jets.sq_norm)
            bad = ~np.isfinite(out)
            if bad.any():
                e, _, _, sq_norm = jets.scaled
                out[bad] = np.ldexp(value(self.flat, self.s, sq_norm), 4 * e[:, None])[bad]
        return out


def _terms(d1: np.ndarray, d2: np.ndarray, pairs, height: int) -> tuple[np.ndarray, np.ndarray]:
    """`flat` and `s` (see `PairTable`) of the given jets."""
    lo, hi = ([k - 1 for k in col] for col in zip(*pairs))
    h = [height - 1]
    p, q, r = d1[:, lo], d1[:, hi], d1[:, h]
    pp, qq, rr = d2[:, lo], d2[:, hi], d2[:, h]
    # with X = f'^2 and X' = 2 f'', the constant-K residual's quadratic term
    # X_i X_j' X_h' + ... is exactly 4 * flat, so both share these terms
    with np.errstate(all="ignore"):
        return p * p * qq * rr + q * q * pp * rr + r * r * pp * qq, p * p + q * q + r * r


def pair_table(
    surface: SeparableSurface,
    table: JetTable,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> PairTable:
    """The closed-form terms of a jet table's points for the given 1-based
    ascending pairs, by default every non-height pair."""
    pairs = tuple(combinations(surface.non_height, 2) if pairs is None else pairs)
    _, d1, d2, _ = table.scaled
    return PairTable(pairs, surface.height, table, *_terms(d1, d2, pairs, surface.height))


def _one_pair(surface: SeparableSurface, point: SurfacePoint, i: int, j: int) -> PairTable:
    pair = _pair_sorted(surface, i, j)
    return pair_table(surface, point_jets(surface, point, surface.height), [pair])


def _unit_pair(u: np.ndarray, w: np.ndarray):
    """The norms of u and w, the unit vectors, and y = w - <w, u> u for the
    unit pair with its norm, the wedge norm: unlike sqrt(1 - cos^2) this
    keeps full precision when the vectors are nearly dependent."""
    nu, nw = np.sqrt(_dot(u, u)), np.sqrt(_dot(w, w))
    u, w = u / nu[..., None], w / nw[..., None]
    y = w - _dot(u, w)[..., None] * u
    return nu, nw, u, w, y, np.sqrt(_dot(y, y))


def _gauss(table: JetTable, u: np.ndarray, w: np.ndarray):
    """Gauss-equation K of the planes spanned by u[p, r] and w[p, r] (shape
    (P, R, n)) at table point p, plus the `DegeneratePlaneError` of each
    plane that fails a check, by (p, r): a dict that holds only the failing
    planes, so a clean call builds no error."""
    _, _, hess, sq_norm = table.scaled
    gradnorm, normal, hess = np.sqrt(sq_norm)[:, None], table.normal[:, None], hess[:, None]
    with np.errstate(all="ignore"):
        nu, nw, u, w, y, wedge = _unit_pair(u, w)
        drift_u, drift_w = np.abs(_dot(u, normal)), np.abs(_dot(w, normal))
        y = y / wedge[..., None]
        hxx, hyy, hxy = _dot(hess * u, u), _dot(hess * y, y), _dot(hess * u, y)
        k = (hxx * hyy - hxy * hxy) / (gradnorm * gradnorm)
    zero = (nu == 0.0) | (nw == 0.0)
    off_u, off_w = drift_u > PLANE_EPS, drift_w > PLANE_EPS
    bad = zero | off_u | off_w | (wedge <= PLANE_EPS)
    errors = {}
    for idx in zip(*(i.tolist() for i in np.nonzero(bad))) if bad.any() else ():
        if zero[idx]:
            msg = "plane spanning vector is zero"
        elif off_u[idx] or off_w[idx]:
            name, drift = ("u", drift_u[idx]) if off_u[idx] else ("w", drift_w[idx])
            msg = (
                f"plane vector {name} is not tangent: |<{name}, N>| = {drift:.3e} "
                f"exceeds {PLANE_EPS:g}"
            )
        else:
            msg = (
                f"plane spanning vectors nearly dependent: wedge norm {wedge[idx]:.3e} "
                f"at or below {PLANE_EPS:g}"
            )
        errors[idx] = DegeneratePlaneError(msg)
    return k, errors


def _draw_planes(jets: JetTable, coef: np.ndarray):
    """Unit tangent pairs u, w from coefficient pairs coef[p, ..., 2, n - 1]
    in point p's tangent basis (`JetTable.tangents`); `ok` marks the draws
    that are kept."""
    t = jets.tangents(coef)
    with np.errstate(all="ignore"):
        nu, nw, u, w, _, wedge = _unit_pair(t[..., 0, :], t[..., 1, :])
    return u, w, (nu >= 1e-6) & (nw >= 1e-6) & (wedge > PLANE_EPS)


def sectional_special(surface: SeparableSurface, point: SurfacePoint, i: int, j: int) -> float:
    """Closed-form curvature of the coordinate-pair tangent plane (i, j).

    Indices are 1-based, must differ, and must avoid the height coordinate.
    The result is symmetric in (i, j) and bit-identical for both orders.
    """
    return float(_one_pair(surface, point, i, j).curvature()[0, 0])


def flatness_residual(surface: SeparableSurface, point: SurfacePoint, i: int, j: int) -> float:
    """Numerator of the closed form: zero iff the (i, j)-plane curvature is.

    Involves no division, so it stays defined where regularity fails.
    """
    pair = _pair_sorted(surface, i, j)
    table = jet_table(surface, [point])
    if table.jet_errors[0] is not None:
        raise table.jet_errors[0]
    return float(pair_table(surface, table, [pair]).residual()[0, 0])


def constk_residual(
    surface: SeparableSurface, point: SurfacePoint, i: int, j: int, k0: float
) -> float:
    """Residual that vanishes exactly when K(i, j) equals k0/4.

    With X_k = f_k'^2 and X_k' = 2 f_k'' the residual is
    k0 * (X_i + X_j + X_h) * (sum_k X_k) - (X_i X_j' X_h' + X_j X_i' X_h'
    + X_h X_i' X_j'); it equals 4 * (X_i + X_j + X_h) * (sum_k X_k) * (k0/4 - K).
    """
    return float(_one_pair(surface, point, i, j).residual(k0)[0, 0])


def coordinate_plane(surface: SeparableSurface, point: SurfacePoint, i: int, j: int) -> np.ndarray:
    """The tangent plane spanned by the frame vectors of coordinates i and j,
    as a (2, n) array whose rows are those vectors."""
    u, w = _one_pair(surface, point, i, j).frames()
    return np.concatenate([u[0], w[0]])


def sectional_oracle(surface: SeparableSurface, point: SurfacePoint, plane) -> float:
    """Gauss-equation curvature of an arbitrary tangent 2-plane.

    `plane` is any (2, n) array-like whose rows u and w span the plane;
    another shape is a `ValueError`.  Both rows must be finite, tangent at
    the point (normal component within `PLANE_EPS` after normalization) and
    independent (the wedge norm of the normalized pair above `PLANE_EPS`),
    else a `DegeneratePlaneError`.  Orthonormalizes the pair, pairs it with
    the diagonal ambient Hessian of F, and divides by ||grad F||^2.
    Independent of the closed form: no height coordinate, no coordinate-pair
    structure.
    """
    plane = np.asarray(plane, dtype=float)
    if plane.shape != (2, surface.n):
        raise ValueError(f"plane must have shape (2, {surface.n}), got {plane.shape}")
    for name, row in zip("uw", plane):
        if not np.isfinite(row).all():
            raise DegeneratePlaneError(f"plane vector {name} has a non-finite entry")
    k, errors = _gauss(point_jets(surface, point), *plane[:, None, None])
    if errors:
        raise errors[0, 0]
    return float(k[0, 0])


def random_tangent_plane(
    surface: SeparableSurface, point: SurfacePoint, rng: np.random.Generator
) -> np.ndarray:
    """Draw a uniformly random tangent 2-plane at a regular point, as a
    (2, n) array of unit spanning rows.

    Maps a pair of standard-normal coefficient vectors in R^(n-1) through
    the point's orthonormal tangent basis (`JetTable.reflector`) and
    normalizes them; nearly dependent draws are rejected and retried (at
    most `PLANE_RETRIES` times).
    """
    jets = point_jets(surface, point)
    for _ in range(PLANE_RETRIES):
        u, w, ok = _draw_planes(jets, rng.standard_normal((1, 2, surface.n - 1)))
        if ok[0]:
            return np.array([u[0], w[0]])
    raise DegeneratePlaneError(
        f"no independent tangent plane found after {PLANE_RETRIES} draws"
    )


@dataclass(frozen=True)
class ScanPolicy:
    """Plane and tolerance policy for constancy scans.

    `oblique_per_point` adds that many random tangent planes per point on
    top of all coordinate pairs; their curvatures enter the summary
    statistics.  Both counts are integers >= 0 and the tolerance is positive
    and finite, checked when the policy is built.  A scan draws every
    point's planes in one call, in point order, from one stream keyed by
    (seed, `PLANE_STREAM`) and redraws a rejected pair from the stream
    [seed, position in the scan], so results are independent of how the
    Gauss engine is chunked.
    """

    oblique_per_point: int = 0
    seed: int = 0
    constancy_tol: float = DEFAULT_CONSTANCY_TOL

    def __post_init__(self):
        integer(self.oblique_per_point, "oblique_per_point", lo=0)
        integer(self.seed, "seed", lo=0)
        positive(self.constancy_tol, "constancy_tol")


class ScanRecord(NamedTuple):
    """One curvature evaluation: a coordinate pair, an oblique plane, or an error."""

    sample: int
    coords: tuple[float, ...]
    kind: str                              # "pair" | "plane" | "error"
    i: int | None = None
    j: int | None = None
    u: tuple[float, ...] | None = None
    w: tuple[float, ...] | None = None
    k_special: float | None = None
    k_oracle: float | None = None
    residual_flat: float | None = None
    flagged: bool = False
    error: str | None = None


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """The records of a scan's P sample points, kept as its engines' arrays
    in one block, however its Gauss engine is chunked.

    Row p is sample p, at `coords[p]`.  A row with a `point_errors[p]` text
    holds that one error record.  Any other row holds a pair record per
    entry q of `pairs`, from column q of `k_special`, `k_oracle`,
    `residual_flat` and `flagged` (shape (P, Q)), and then one record per
    oblique plane r: a plane record of `k_oracle[p, Q + r]`, `u[p, r]` and
    `w[p, r]` ((P, m, n)), or an error record where (p, r) has a
    `plane_errors` text.  `residuals` is the `residual_flat` array, or a
    scan's `PairTable`, from which it is computed on first read.  Error
    rows' array entries mean nothing.
    """

    coords: Sequence[tuple[float, ...]]
    pairs: Sequence[tuple[int, int]]
    k_special: np.ndarray
    k_oracle: np.ndarray
    flagged: np.ndarray
    u: np.ndarray
    w: np.ndarray
    point_errors: dict[int, str]
    plane_errors: dict[tuple[int, int], str]
    residuals: PairTable | np.ndarray

    @cached_property
    def residual_flat(self) -> np.ndarray:
        if isinstance(self.residuals, PairTable):
            return self.residuals.residual()
        return self.residuals

    def records(self) -> list[ScanRecord]:
        """The block's records, in row order."""
        nq, m = len(self.pairs), self.u.shape[1]
        lo, hi = [i for i, _ in self.pairs], [j for _, j in self.pairs]
        special, gauss, flat, flags, us, ws = (
            a.tolist() for a in (self.k_special, self.k_oracle, self.residual_flat,
                                 self.flagged, self.u, self.w)
        )
        out: list[ScanRecord] = []
        for p, coords in enumerate(self.coords):
            if p in self.point_errors:
                out.append(ScanRecord(p, coords, "error", error=self.point_errors[p]))
                continue
            # repeat(p, nq) stops the zip after the pairs: gauss[p] holds the planes too
            out.extend(map(ScanRecord._make, zip(
                repeat(p, nq), repeat(coords), repeat("pair"), lo, hi, repeat(None),
                repeat(None), special[p], gauss[p], flat[p], flags[p], repeat(None),
            )))
            for r in range(m):
                failed = (p, r) in self.plane_errors
                out.append(
                    ScanRecord(p, coords, "error", error=self.plane_errors[p, r]) if failed
                    else ScanRecord(p, coords, "plane", None, None, tuple(us[p][r]),
                                    tuple(ws[p][r]), None, gauss[p][nq + r])
                )
        return out


@dataclass(frozen=True)
class CurvatureReport:
    """Scan outcome: per-plane records plus summary statistics.

    The records are kept in `columns`: the scan's engine arrays, as one
    `RecordColumns` block for any chunking.  The report writers read the
    columns.  `records` builds the `ScanRecord`s from them the first time it
    is read, so a scan whose records nobody reads never builds them, and
    every read returns the same tuple.  Two reports are equal when their
    records and other fields are.

    `k_min`, `k_max`, `k_mean` and `spread` (max - min) range over the
    finite curvature values.  `verdict` is "non-constant" if the spread
    exceeds the constancy tolerance, "constant" if it does not, every value
    is finite and no pair record is flagged, and "undetermined" otherwise
    (also when no value is finite).  `constant_estimate` is the mean,
    reported only for a "constant" verdict.  `max_engine_rel_dev` is the
    largest finite |k_special - k_oracle| / max(1, |k_oracle|) over pair
    records.
    """

    n: int
    seed: int
    constancy_tol: float
    oblique_per_point: int
    columns: RecordColumns = field(compare=False)
    point_count: int
    value_count: int
    failure_count: int
    k_min: float | None
    k_max: float | None
    k_mean: float | None
    spread: float | None
    verdict: str
    constant_estimate: float | None
    flagged_count: int = 0
    max_engine_rel_dev: float | None = None

    @cached_property
    def records(self) -> tuple[ScanRecord, ...]:
        return tuple(self.columns.records())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the columns compare as the records they hold, however they are kept
        key = attrgetter("records", *(f.name for f in fields(self) if f.compare))
        return key(self) == key(other)


def scan_constancy(
    surface: SeparableSurface,
    samples: Sequence[SurfacePoint],
    policy: ScanPolicy = ScanPolicy(),
    threads: int = 1,
    jets: JetTable | None = None,
) -> CurvatureReport:
    """Evaluate curvature over every coordinate pair (and optional random
    planes) at every sample point and judge constancy.

    `jets` is the points' jet table, row p for samples[p]: the `table` of
    the `Samples` the points came from, so that no f_k is walked again.
    Without it the scan evaluates one (`geometry.jet_table`); a table of
    another shape is a `ValueError`.  Per-point failures become error
    records, never abort the scan.  Every step runs once over all points'
    arrays, except the Gauss engine, whose (points, planes, n) frames are
    the large arrays: it runs in `threads` sequential point chunks, at most
    one per point and at least enough that they average no more than
    `CHUNK_PLANES` planes, each filling its rows of one K array.  The
    summary is computed once from the engine arrays, never from the
    records, and the report keeps those arrays, as one `RecordColumns`
    block, as its records: the writers read them, and `ScanRecord`s are
    built from them only when `records` is first read.  Records are ordered
    by (sample position, pairs ascending, then planes in draw order), and
    the Gauss sums run in a fixed order per row, so output is identical for
    any chunk count.
    """
    threads = integer(threads, "threads")
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError(f"constancy scan needs at least 2 sample points, got {len(samples)}")
    if jets is None:
        jets = jet_table(surface, samples)
    elif jets.d1.shape != (len(samples), surface.n):
        raise ValueError(
            f"jet table of shape {jets.d1.shape} does not fit {len(samples)} points "
            f"in R^{surface.n}"
        )
    errors = jets.errors(surface.height)
    regular = np.array([exc is None for exc in errors], dtype=bool)
    table = pair_table(surface, jets)
    count, nq, m = len(samples), len(table.pairs), policy.oblique_per_point
    pu = pw = np.zeros((count, 0, surface.n))
    draw_errors: dict[tuple[int, int], DegeneratePlaneError] = {}
    if m:
        rng = np.random.default_rng(np.random.SeedSequence(policy.seed, spawn_key=PLANE_STREAM))
        pu, pw, ok = _draw_planes(jets, rng.standard_normal((count, m, 2, surface.n - 1)))
        for p in np.flatnonzero(regular & ~ok.all(axis=1)).tolist():
            # the point's rejected pairs are redrawn, in order, from its own stream
            redraw = np.random.default_rng([policy.seed, p])
            for r in np.flatnonzero(~ok[p]).tolist():
                try:
                    pu[p, r], pw[p, r] = random_tangent_plane(surface, samples[p], redraw)
                except DegeneratePlaneError as exc:
                    draw_errors[p, nq + r] = exc
    chunks = min(max(threads, -(-count * (nq + m) // CHUNK_PLANES)), count)
    edges = [count * c // chunks for c in range(chunks + 1)]
    lo, hi = zip(*table.pairs)
    k, plane_errors = np.empty((count, nq + m)), {}
    for a, b in zip(edges, edges[1:]):
        # a chunk's planes are its points' pair frames, then their oblique planes
        rows = jets.rows(a, b)
        u, w = rows.frames(surface.height, lo), rows.frames(surface.height, hi)
        if m:
            u, w = np.concatenate([u, pu[a:b]], axis=1), np.concatenate([w, pw[a:b]], axis=1)
        k[a:b], found = _gauss(rows, u, w)
        plane_errors.update(((a + p, r), exc) for (p, r), exc in found.items())
    plane_errors.update(draw_errors)
    bad = np.zeros(k.shape, dtype=bool)
    if plane_errors:
        bad[tuple(zip(*plane_errors))] = True
    # a point fails on its jets' error, else on its first failing pair plane
    good = regular & ~bad[:, :nq].any(axis=1)
    kept = ~bad[good]

    ks, ko = table.curvature(), k[:, :nq]
    with np.errstate(all="ignore"):
        gap, scale = np.abs(ks - ko), np.maximum(1.0, np.abs(ko))
        # a non-finite value in either engine fails the comparison, so it is flagged
        flagged = ~(gap <= EQUIVALENCE_RTOL * scale)
        devs = gap[good] / scale[good]
    values = np.concatenate([ks, k[:, nq:]], axis=1)[good][kept]
    finite = values[np.isfinite(values)]
    flagged_count = int(flagged[good].sum())
    devs = devs[np.isfinite(devs)]
    max_dev = float(devs.max()) if devs.size else None
    if finite.size:
        # argmin and argmax take the first of equal values, as min and max
        # do over the records, so a signed zero keeps its sign
        k_min, k_max = float(finite[finite.argmin()]), float(finite[finite.argmax()])
        finite = finite.tolist()
        try:
            k_mean = fsum(finite) / len(finite)
        except OverflowError:   # finite values whose sum passes the largest float
            k_mean = fsum(v / len(finite) for v in finite)
        spread = k_max - k_min
        if spread > policy.constancy_tol:
            verdict = "non-constant"
        elif flagged_count or len(finite) < len(values):
            verdict = "undetermined"
        else:
            verdict = "constant"
        estimate = k_mean if verdict == "constant" else None
    else:
        k_min = k_max = k_mean = spread = estimate = None
        verdict = "undetermined"
    # an error point's one record names the failure that made it one
    point_errors = {
        p: describe(errors[p] or plane_errors[p, int(bad[p].argmax())])
        for p in np.flatnonzero(~good).tolist()
    }
    oblique_errors = {
        (p, r - nq): describe(exc) for (p, r), exc in plane_errors.items() if r >= nq and good[p]
    }
    columns = RecordColumns(
        [point.coords for point in samples], table.pairs, ks, k, flagged, pu, pw,
        point_errors, oblique_errors, table,
    )
    return CurvatureReport(
        n=surface.n,
        seed=policy.seed,
        constancy_tol=policy.constancy_tol,
        oblique_per_point=policy.oblique_per_point,
        columns=columns,
        point_count=count,
        value_count=len(values),
        failure_count=int((~good).sum() + (~kept).sum()),
        k_min=k_min,
        k_max=k_max,
        k_mean=k_mean,
        spread=spread,
        verdict=verdict,
        constant_estimate=estimate,
        flagged_count=flagged_count,
        max_engine_rel_dev=max_dev,
    )


def sample_and_scan(
    surface: SeparableSurface, ranges: Sequence[tuple[float, float]], count: int, seed,
    bracket: tuple[float, float], policy: ScanPolicy, threads: int = 1,
) -> tuple[CurvatureReport, list[tuple[int, str]]]:
    """Lift `count` draws onto the surface (`sample_points`, `seed` seeding
    the draws) and scan the lifted points (`scan_constancy`).  Returns the
    report and the sampling failures as (draw index, text) pairs; fewer than
    2 lifted draws raise a `SolveError` naming the first failure."""
    integer(threads, "threads")
    points, failures, table = sample_points(surface, ranges, count, seed, bracket)
    if len(points) < 2:
        raise SolveError(
            f"only {len(points)} of {count} draws lifted onto the surface; "
            f"first failure: {failures[0][1] if failures else 'n/a'}"
        )
    return scan_constancy(surface, points, policy, threads=threads, jets=table), failures
