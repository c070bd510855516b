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
P = 1 and agree with a scan bit for bit, and a scan split into point chunks
writes the same records and summary (an exact `fsum` mean, see
`scan_constancy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from math import fsum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePlaneError, SolveError, SpecFileError, describe, finite, integer, positive,
)
from .geometry import JetTable, SeparableSurface, SurfacePoint, jet_table, point_jets, sample_points

EQUIVALENCE_RTOL = 1e-9        # |k_special - k_oracle| <= rtol * max(1, |k_oracle|)
DEFAULT_CONSTANCY_TOL = 1e-7
PLANE_EPS = 1e-10              # tangency and independence thresholds
PLANE_RETRIES = 100
CHUNK_PLANES = 1 << 14         # planes per scan chunk, bounding its arrays' memory


def _pair_sorted(surface: SeparableSurface, i: int, j: int) -> tuple[int, int]:
    """Validate a 1-based non-height coordinate pair; returns it sorted."""
    for idx in (i, j):
        if integer(idx, "pair index", 1, surface.n) == surface.height:
            raise SpecFileError(f"pair index {idx} is the height coordinate")
    if i == j:
        raise SpecFileError(f"pair indices must differ, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, accumulated left to right."""
    prod = a * b
    out = prod[..., 0]
    for k in range(1, prod.shape[-1]):
        out = out + prod[..., k]
    return out


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


def _tangent_pairs(raw: np.ndarray, normal: np.ndarray):
    """Project standard-normal draws raw[..., 2, n] onto the tangent space
    of `normal` and normalize them; `ok` marks the draws that are kept."""
    normal = normal[..., None, :]
    with np.errstate(all="ignore"):
        vecs = raw - _dot(raw, normal)[..., None] * normal
        nu, nw, u, w, _, wedge = _unit_pair(vecs[..., 0, :], vecs[..., 1, :])
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
    another shape is a `ValueError`.  Both rows must be tangent at the point
    (normal component within `PLANE_EPS` after normalization) and
    independent (the wedge norm of the normalized pair above `PLANE_EPS`),
    else a `DegeneratePlaneError`.  Orthonormalizes the pair, pairs it with
    the diagonal ambient Hessian of F, and divides by ||grad F||^2.
    Independent of the closed form: no height coordinate, no coordinate-pair
    structure.
    """
    plane = np.asarray(plane, dtype=float)
    if plane.shape != (2, surface.n):
        raise ValueError(f"plane must have shape (2, {surface.n}), got {plane.shape}")
    k, errors = _gauss(point_jets(surface, point), *plane[:, None, None])
    if errors:
        raise errors[0, 0]
    return float(k[0, 0])


def random_tangent_plane(
    surface: SeparableSurface, point: SurfacePoint, rng: np.random.Generator
) -> np.ndarray:
    """Draw a uniformly random tangent 2-plane at a regular point, as a
    (2, n) array of unit spanning rows.

    Projects a pair of standard-normal ambient vectors onto the tangent
    space and normalizes them; nearly dependent draws are rejected and
    retried (at most `PLANE_RETRIES` times).
    """
    normal = point_jets(surface, point).normal[0]
    for _ in range(PLANE_RETRIES):
        u, w, ok = _tangent_pairs(rng.standard_normal((2, surface.n)), normal)
        if ok:
            return np.array([u, w])
    raise DegeneratePlaneError(
        f"no independent tangent plane found after {PLANE_RETRIES} draws"
    )


@dataclass(frozen=True)
class ScanPolicy:
    """Plane and tolerance policy for constancy scans.

    `oblique_per_point` adds that many random tangent planes per point on
    top of all coordinate pairs; their curvatures enter the summary
    statistics.  Both counts are integers >= 0 and the tolerance is positive
    and finite, checked when the policy is built; per-point substreams are
    derived from (seed, point position), so results are independent of
    chunking.
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

    def k_value(self) -> float | None:
        return self.k_special if self.k_special is not None else self.k_oracle


class _BuiltOnRead:
    """A dataclass field holding a value, or a zero-argument function that
    builds it: the function runs when the field is first read, and its
    value is kept and read from then on."""

    def __set_name__(self, owner, name):
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:   # no class-level default, so the field stays required
            raise AttributeError(self.slot)
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class CurvatureReport:
    """Scan outcome: per-plane records plus summary statistics.

    `records` may be given as a function that returns their tuple; it runs
    the first time `records` is read, so a scan whose records nobody reads
    never builds them, and every read returns the same tuple.

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
    records: tuple[ScanRecord, ...] = _BuiltOnRead()
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


class _Chunk(NamedTuple):
    """A scan chunk's summary inputs over its points without an error (the
    curvature values in record order, the pair records' flags and engine
    deviations), its error-record count, and the function that builds its
    records."""

    values: np.ndarray
    flagged: np.ndarray
    devs: np.ndarray
    failures: int
    records: Callable[[], list[ScanRecord]]


def _scan_chunk(
    surface: SeparableSurface,
    points: Sequence[SurfacePoint],
    jets: JetTable,
    start: int,
    pairs: Sequence[tuple[int, int]],
    policy: ScanPolicy,
) -> _Chunk:
    """Both pair engines and every oblique plane of the points at positions
    start, start + 1, ..., evaluated as arrays over their jet table, with
    the summary's inputs taken from those arrays.  The record builder keeps
    the arrays it reads and not the pair frames."""
    errors = jets.errors(surface.height)
    table = pair_table(surface, jets, pairs)
    nq, m = len(pairs), policy.oblique_per_point
    u, w = table.frames()
    pu = pw = np.zeros((len(points), 0, surface.n))
    draw_errors: dict[tuple[int, int], DegeneratePlaneError] = {}
    regular = np.array([exc is None for exc in errors], dtype=bool)
    if m:
        raw = np.zeros((len(points), m, 2, surface.n))
        for p in np.flatnonzero(regular).tolist():
            raw[p] = np.random.default_rng([policy.seed, start + p]).standard_normal(raw.shape[1:])
        pu, pw, ok = _tangent_pairs(raw, jets.normal[:, None])
        for p in np.flatnonzero(regular & ~ok.all(axis=1)).tolist():
            # a rejected draw shifts the stream: redraw this point's planes in order
            rng = np.random.default_rng([policy.seed, start + p])
            for r in range(m):
                try:
                    pu[p, r], pw[p, r] = random_tangent_plane(surface, points[p], rng)
                except DegeneratePlaneError as exc:
                    draw_errors[p, r] = exc
        u, w = np.concatenate([u, pu], axis=1), np.concatenate([w, pw], axis=1)
    k, plane_errors = _gauss(jets, u, w)
    plane_errors.update(((p, nq + r), exc) for (p, r), exc in draw_errors.items())
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

    def records() -> list[ScanRecord]:
        """The records, from the engine arrays: one error record for a point
        with an error, else its pair records and then its oblique planes',
        where a plane that failed is an error record."""
        lo, hi = zip(*pairs)
        special, gauss, flat, flags, us, ws, fine, fails = (
            a.tolist() for a in (ks, k, table.residual(), flagged, pu, pw, good, bad)
        )
        out: list[ScanRecord] = []
        for p, point in enumerate(points):
            sample, coords = start + p, point.coords
            if not fine[p]:
                exc = errors[p] or plane_errors[p, fails[p].index(True)]
                out.append(ScanRecord(sample, coords, "error", error=describe(exc)))
                continue
            # repeat(sample, nq) stops the zip after the pairs: gauss[p] holds the planes too
            out.extend(map(ScanRecord._make, zip(
                repeat(sample, nq), repeat(coords), repeat("pair"), lo, hi, repeat(None),
                repeat(None), special[p], gauss[p], flat[p], flags[p], repeat(None),
            )))
            for r in range(m):
                exc = plane_errors.get((p, nq + r))
                out.append(
                    ScanRecord(sample, coords, "error", error=describe(exc)) if exc is not None
                    else ScanRecord(sample, coords, "plane", None, None, tuple(us[p][r]),
                                    tuple(ws[p][r]), None, gauss[p][nq + r])
                )
        return out

    return _Chunk(values, flagged[good], devs, int((~good).sum() + (~kept).sum()), records)


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
    records, never abort the scan.  The points are evaluated in `threads`
    sequential chunks: at most one chunk per point, and at least enough
    chunks that they average no more than `CHUNK_PLANES` planes.  The
    summary is combined from the chunks' engine arrays, never from the
    records, and the records are built from those arrays only when
    `records` is first read.  They are ordered by (sample position, pairs
    ascending, then planes in draw order), so output is identical for any
    chunk count.
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
    pairs = list(combinations(surface.non_height, 2))
    planes = len(samples) * (len(pairs) + policy.oblique_per_point)
    chunks = min(max(threads, -(-planes // CHUNK_PLANES)), len(samples))
    edges = [len(samples) * c // chunks for c in range(chunks + 1)]
    parts = [
        _scan_chunk(surface, samples[a:b], jets.rows(a, b), a, pairs, policy)
        for a, b in zip(edges, edges[1:])
    ]

    builders = [part.records for part in parts]
    values = np.concatenate([part.values for part in parts])
    finite = values[np.isfinite(values)]
    flagged_count = sum(int(part.flagged.sum()) for part in parts)
    devs = np.concatenate([part.devs for part in parts])
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
    return CurvatureReport(
        n=surface.n,
        seed=policy.seed,
        constancy_tol=policy.constancy_tol,
        oblique_per_point=policy.oblique_per_point,
        records=lambda: tuple(chain.from_iterable(build() for build in builders)),
        point_count=len(samples),
        value_count=len(values),
        failure_count=sum(part.failures for part in parts),
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
