"""Built-in certification suites over the generated families.

The flat suite scans the hyperplane, the parabolic cylinder and the
Cobb-Douglas square-root graph across a dimension sweep on coordinate-pair
planes and expects curvature constant at zero there (for n >= 4 the
Cobb-Douglas graph is flat on those planes only), then runs two engineered
controls that must come out non-constant.  The constant suite scans
hyperspheres across radii and dimensions, expecting curvature constant at
1/r^2, and verifies that a flat family fails every nonzero constant-curvature
residual while the same controls again come out non-constant.

Suites are pure functions of their arguments: sampling seeds derive from
(base seed, row ordinal, n), so repeat runs reproduce row for row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .curvature import ScanPolicy, pair_table, sample_and_scan
from .families import FamilySpec, exp_control_box, make_cobb_douglas_perturbed, make_exp_control
from .geometry import SeparableSurface, sample_points

FLAT_TOL = 1e-9           # max |K| accepted as flat
SPHERE_TOL = 1e-9         # max |K - 1/r^2| and spread accepted as constant
CONTROL_MIN_SPREAD = 1e-3  # engineered non-examples must spread at least this
DEFAULT_SEED = 20260819
NONZERO_K0S = (-1.0, 0.5, 1.0, 4.0)


@dataclass(frozen=True)
class SuiteRow:
    """One suite check: what ran, what was expected, what came out."""

    name: str
    n: int
    expected: str
    observed: str
    ok: bool


def _scan(
    surface: SeparableSurface,
    ranges: Sequence[tuple[float, float]],
    bracket: tuple[float, float],
    count: int,
    seed_entropy: Sequence[int],
    oblique: int = 0,
):
    policy = ScanPolicy(oblique_per_point=oblique, seed=int(seed_entropy[0]))
    return sample_and_scan(surface, ranges, count, list(seed_entropy), bracket, policy)[0]


def _control_flat(dims: Sequence[int]):
    """The controls' dimension and the Cobb-Douglas graph (A = 1) there, with
    its family default boxes and bracket, which the controls sample with."""
    n = 4 if 4 in dims else dims[0]
    return n, FamilySpec("cobb_douglas_sqrt", n, {"a": 1.0}).defaults()


def _flat_row(name: str, n: int, report) -> SuiteRow:
    peak = max(abs(report.k_min), abs(report.k_max)) if report.k_min is not None else math.inf
    ok = report.verdict == "constant" and peak <= FLAT_TOL
    return SuiteRow(
        name,
        n,
        f"constant 0 (max |K| <= {FLAT_TOL:g})",
        f"{report.verdict}, max |K| = {peak:.3e}",
        ok,
    )


def _control_row(name: str, n: int, report) -> SuiteRow:
    spread = report.spread if report.spread is not None else 0.0
    ok = report.verdict == "non-constant" and spread > CONTROL_MIN_SPREAD
    return SuiteRow(
        name,
        n,
        f"non-constant (spread > {CONTROL_MIN_SPREAD:g})",
        f"{report.verdict}, spread = {spread:.3e}",
        ok,
    )


def _control_rows(dims: Sequence[int], count: int, seed: int, base_ordinal: int) -> list[SuiteRow]:
    # moving one log coefficient by 2 eps scales the graph's height by
    # x_1^eps, inside the flat member's bracket margins over its boxes
    n, (_, ranges, bracket) = _control_flat(dims)
    perturbed = make_cobb_douglas_perturbed(1.0, n, 0.05)
    report = _scan(perturbed, ranges, bracket, count, (seed, base_ordinal, n))
    rows = [_control_row("cobb_douglas_perturbed(eps=0.05)", n, report)]
    control = make_exp_control(n)
    report = _scan(control, *exp_control_box(n), count, (seed, base_ordinal + 1, n))
    rows.append(_control_row("exp_control", n, report))
    return rows


def run_flat_suite(
    dims: Sequence[int] = (4, 5, 6),
    count: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[SuiteRow]:
    """Flat families scan to K = 0 on coordinate pairs; the controls refuse to."""
    rows: list[SuiteRow] = []
    for n in dims:
        families = (
            ("hyperplane(1,...,1)",
             FamilySpec("hyperplane", n, {"coeffs": [1.0] * n, "offset": 0.5})),
            ("cylinder(x^2)", FamilySpec("cylinder", n, {"profile_expr": "x^2"})),
            ("cobb_douglas_sqrt(A=1)", FamilySpec("cobb_douglas_sqrt", n, {"a": 1.0})),
        )
        for ordinal, (name, family) in enumerate(families):
            report = _scan(*family.defaults(), count, (seed, ordinal, n))
            rows.append(_flat_row(name, n, report))
    rows.extend(_control_rows(dims, count, seed, 3))
    return rows


def run_constant_suite(
    radii: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    dims: Sequence[int] = (4, 5),
    count: int = 100,
    oblique: int = 20,
    seed: int = DEFAULT_SEED,
) -> list[SuiteRow]:
    """Hyperspheres scan to K = 1/r^2 on coordinate pairs and random oblique
    planes; a flat family fails every nonzero constant-curvature residual;
    the engineered controls stay non-constant."""
    rows: list[SuiteRow] = []
    for n in dims:
        for r in radii:
            family = FamilySpec("hypersphere", n, {"radius": r})
            report = _scan(*family.defaults(), count, (seed, 10, n, int(r * 1000)), oblique)
            target = 1.0 / (r * r)
            if report.k_min is None:
                ok, observed = False, "no values"
            else:
                peak_err = max(abs(report.k_min - target), abs(report.k_max - target))
                spread = report.spread
                ok = report.verdict == "constant" and peak_err <= SPHERE_TOL and spread <= SPHERE_TOL
                observed = (
                    f"{report.verdict}, max |K - 1/r^2| = {peak_err:.3e}, spread = {spread:.3e}"
                )
            rows.append(
                SuiteRow(
                    f"hypersphere(r={r:g})",
                    n,
                    f"constant 1/r^2 = {target:.6g} (err and spread <= {SPHERE_TOL:g})",
                    observed,
                    ok,
                )
            )

    # a flat family must fail every nonzero constant-curvature residual
    n, (flat, ranges, bracket) = _control_flat(dims)
    table = pair_table(flat, sample_points(flat, ranges, 25, [seed, 20, n], bracket).table)
    worst_min = min(float(abs(table.constk(k0)).min()) for k0 in NONZERO_K0S)
    ok = worst_min > CONTROL_MIN_SPREAD
    rows.append(
        SuiteRow(
            f"cobb_douglas_sqrt vs k0 in {NONZERO_K0S}",
            n,
            f"every nonzero-k0 residual magnitude > {CONTROL_MIN_SPREAD:g}",
            f"min |residual| = {worst_min:.3e}",
            ok,
        )
    )
    rows.extend(_control_rows(dims, count, seed, 21))
    return rows


def format_rows(rows: Sequence[SuiteRow]) -> str:
    """Fixed-width table, one row per check, PASS/FAIL column first."""
    name_w = max(len(r.name) for r in rows)
    exp_w = max(len(r.expected) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(
            f"{status}  {r.name:<{name_w}}  n={r.n}  {r.expected:<{exp_w}}  {r.observed}"
        )
    passed = sum(1 for r in rows if r.ok)
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines)
