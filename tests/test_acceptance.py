"""End-to-end acceptance criteria, one test and one verdict line per criterion.

Each test measures first and judges second, so a crash inside the
measurement still emits its FAIL line before the assertion fires.
"""

import json
import math
import re
import time
from itertools import combinations

import numpy as np

from sepcurv import (
    ScanPolicy,
    SeparableSurface,
    constk_residual,
    coordinate_plane,
    eval_jet2,
    log_family_lambdas,
    make_cobb_douglas_perturbed,
    make_cobb_douglas_sqrt,
    make_cylinder,
    make_exp_control,
    make_hyperplane,
    make_hypersphere,
    make_log_ode,
    ode_residual_subcase21,
    parse_function,
    read_report_body,
    sample_points,
    scan_constancy,
    sectional_oracle,
    sectional_special,
)
from sepcurv.cli import main
from sepcurv.expr import BinOp, Const, Function1D
from sepcurv.suites import run_flat_suite

from conftest import record_acceptance
from corpus import EXPRESSIONS
from oracles import fd_jet, surface_point


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def crashed(exc: Exception) -> str:
    return f"crashed before judging: {type(exc).__name__}: {exc}"


# criterion 1: every flat family scans to K = 0 within 1e-9 across the
# dimension sweep, and the whole sweep stays inside the time budget


def test_acceptance_1_flat_families_scan_to_zero():
    try:
        t0 = time.perf_counter()
        rows = run_flat_suite(dims=(4, 5, 6), count=100)
        elapsed = time.perf_counter() - t0
        flat_rows = rows[:9]
        peaks = [
            float(re.search(r"max \|K\| = ([0-9.e+-]+)", r.observed).group(1))
            for r in flat_rows
        ]
        ok = all(r.ok for r in flat_rows) and elapsed <= 5.0
        detail = (
            f"9 flat-family scans (hyperplane, cylinder, cobb_douglas_sqrt; "
            f"n=4,5,6; 100 points, every coordinate pair): worst |K| = "
            f"{max(peaks):.3e} (tol 1e-9), {elapsed:.2f}s (budget 5s)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(1, ok, detail)


# criterion 2: hyperspheres scan constant at 1/r^2 within 1e-9, coordinate
# pairs and random oblique planes alike


def test_acceptance_2_hyperspheres_constant_at_inverse_radius_squared():
    try:
        worst_err = 0.0
        worst_spread = 0.0
        combos = 0
        for n in (4, 5):
            for r in (0.5, 1.0, 2.0, 3.0):
                surface = make_hypersphere([0.0] * n, r)
                half = r / (2.0 * math.sqrt(n - 1))
                pts, fails, _ = sample_points(
                    surface,
                    [(-half, half)] * (n - 1),
                    100,
                    [417, n, int(r * 10)],
                    (0.1 * r, 1.01 * r),
                )
                assert not fails and len(pts) == 100
                policy = ScanPolicy(oblique_per_point=20, seed=1000 * n + int(r * 10))
                report = scan_constancy(surface, pts, policy)
                pair_count = (n - 1) * (n - 2) // 2
                assert report.value_count == 100 * (pair_count + 20)
                assert report.failure_count == 0
                target = 1.0 / (r * r)
                err = max(abs(report.k_min - target), abs(report.k_max - target))
                worst_err = max(worst_err, err)
                worst_spread = max(worst_spread, report.spread)
                combos += 1
        ok = combos == 8 and worst_err <= 1e-9 and worst_spread <= 1e-9
        detail = (
            f"8 hypersphere scans (r=0.5,1,2,3; n=4,5; 100 points with 20 "
            f"oblique planes each): worst |K - 1/r^2| = {worst_err:.3e}, "
            f"worst spread = {worst_spread:.3e} (tol 1e-9)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(2, ok, detail)


# criterion 3: the closed form and the Gauss-equation oracle agree on random
# surfaces, points, and coordinate pairs to 1e-9 relative

NON_HEIGHT_POOL = [
    ("x^2", (-math.inf, math.inf), (-1.5, 1.5)),
    ("exp(x)", (-math.inf, math.inf), (-1.5, 1.5)),
    ("sin(x)", (-math.inf, math.inf), (-1.5, 1.5)),
    ("x^3 - x", (-math.inf, math.inf), (-1.2, 1.2)),
    ("2*log(x)", (0.0, math.inf), (0.3, 2.0)),
    ("x^2 - 3*x", (-math.inf, math.inf), (-1.5, 1.5)),
    ("exp(-x)", (-math.inf, math.inf), (-1.0, 1.5)),
    ("0.5*x^4", (-math.inf, math.inf), (-1.3, 1.3)),
]
# height slots need a derivative bounded away from zero on their window
HEIGHT_POOL = [
    ("2*x", (-math.inf, math.inf), (-2.0, 2.0)),
    ("exp(x)", (-math.inf, math.inf), (-1.5, 1.5)),
    ("x^3 + 4*x", (-math.inf, math.inf), (-1.5, 1.5)),
    ("x - 0.5*sin(x)", (-math.inf, math.inf), (-2.0, 2.0)),
]


def test_acceptance_3_engines_agree_on_random_sections():
    try:
        rng = np.random.default_rng(20260819)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            h = int(rng.integers(1, n + 1))
            funcs = []
            coords = []
            for slot in range(1, n + 1):
                pool = HEIGHT_POOL if slot == h else NON_HEIGHT_POOL
                src, domain, window = pool[int(rng.integers(len(pool)))]
                funcs.append(parse_function(src, domain))
                coords.append(float(rng.uniform(*window)))
            # fold the value sum into the height term so the drawn
            # coordinates land on the surface
            shift = math.fsum(eval_jet2(f, x).v for f, x in zip(funcs, coords))
            fh = funcs[h - 1]
            funcs[h - 1] = Function1D(BinOp("-", fh.ast, Const(shift)), fh.domain)
            surface = SeparableSurface(tuple(funcs), h)
            point = surface_point(surface, coords)
            others = surface.non_height
            pick = rng.choice(len(others), size=2, replace=False)
            a, b = others[int(pick[0])], others[int(pick[1])]
            i, j = min(a, b), max(a, b)
            k_s = sectional_special(surface, point, i, j)
            k_o = sectional_oracle(surface, point, coordinate_plane(surface, point, i, j))
            worst = max(worst, abs(k_s - k_o) / max(1.0, abs(k_o)))
        ok = worst <= 1e-9
        detail = (
            f"1000 random surface/point/pair triples (n=3..6, mixed function "
            f"pools, random height slot): worst relative engine deviation = "
            f"{worst:.3e} (tol 1e-9)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(3, ok, detail)


# criterion 4: engineered non-examples are rejected: both controls scan
# clearly non-constant, and the flat family fails every nonzero k0


def test_acceptance_4_negative_controls_rejected():
    try:
        scans = []
        perturbed = make_cobb_douglas_perturbed(1.0, 4, 0.05)
        pts, fails, _ = sample_points(perturbed, [(0.5, 2.0)] * 3, 100, 41, (0.05, 8.0))
        assert not fails
        scans.append(scan_constancy(perturbed, pts, ScanPolicy(seed=41)))

        for n, hi, seed in ((4, 0.2, 42), (6, 0.0, 43)):
            control = make_exp_control(n)
            pts, fails, _ = sample_points(
                control, [(-0.5, hi)] * (n - 1), 100, seed, (-6.0, 2.0)
            )
            assert not fails
            scans.append(scan_constancy(control, pts, ScanPolicy(seed=seed)))

        min_spread = min(report.spread for report in scans)
        all_rejected = all(report.verdict == "non-constant" for report in scans)

        flat = make_cobb_douglas_sqrt(1.0, 4)
        fpts, fails, _ = sample_points(flat, [(0.5, 2.0)] * 3, 100, 44, (0.05, 8.0))
        assert not fails
        pairs = list(combinations(flat.non_height, 2))
        min_resid = min(
            abs(constk_residual(flat, p, i, j, k0))
            for k0 in (-1.0, 0.5, 1.0, 4.0)
            for p in fpts
            for i, j in pairs
        )

        ok = all_rejected and min_spread > 1e-3 and min_resid > 1e-3
        detail = (
            f"perturbed cobb_douglas (eps=0.05) and exp controls (n=4,6) all "
            f"non-constant with min spread = {min_spread:.3e} (must exceed "
            f"1e-3); flat family vs k0 in (-1,0.5,1,4): min |residual| = "
            f"{min_resid:.3e} (must exceed 1e-3)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(4, ok, detail)


# criterion 5: the logarithmic families satisfy their characterizing ODE to
# 1e-12 per coordinate, with the coefficient identities exact in floats


def test_acceptance_5_ode_residuals_vanish():
    try:
        cases = [
            (make_cobb_douglas_sqrt(1.0, 4), log_family_lambdas(4, 1.0), (0.4, 2.5)),
            (
                make_log_ode(0.7, 5, shifts=[0.1] * 5, betas=[0.2] * 5),
                log_family_lambdas(5, 0.7),
                (0.3, 2.5),
            ),
            (make_log_ode(-0.8, 4), log_family_lambdas(4, -0.8), (0.4, 2.5)),
        ]
        rng = np.random.default_rng(5)
        worst = 0.0
        sums_exact = True
        for surface, lambdas, window in cases:
            h = surface.height
            for i, j in combinations(surface.non_height, 2):
                total = lambdas[i - 1] + lambdas[j - 1] + lambdas[h - 1]
                sums_exact = sums_exact and total == 0.0
            xs = rng.uniform(window[0], window[1], size=100)
            for k, f in enumerate(surface.funcs, start=1):
                for x in xs:
                    resid = ode_residual_subcase21(f, lambdas[k - 1], float(x))
                    worst = max(worst, abs(resid))
        ok = worst <= 1e-12 and sums_exact
        detail = (
            f"3 family members x 100 points x all coordinates: worst "
            f"|f'' - f'^2/lam_k| = {worst:.3e} (tol 1e-12); every "
            f"lam_i + lam_j + lam_h == 0.0 exactly: {sums_exact}"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(5, ok, detail)


# criterion 6: automatic 2-jets match 50-digit central differences at the
# mandated step h = 1e-5 * max(1, |x|) to 1e-6 relative


def test_acceptance_6_jets_match_high_precision_finite_differences():
    try:
        rng = np.random.default_rng(99)
        worst = 0.0
        checked = 0
        idx = 0
        while checked < 100:
            src, domain, window = EXPRESSIONS[idx % len(EXPRESSIONS)]
            idx += 1
            f = parse_function(src, domain)
            x = float(rng.uniform(window[0], window[1]))
            jet = eval_jet2(f, x)
            fd = fd_jet(f, x)
            for got, want in zip((jet.v, jet.d1, jet.d2), fd):
                worst = max(worst, abs(got - want) / max(1.0, abs(got)))
            checked += 1
        ok = checked == 100 and worst <= 1e-6
        detail = (
            f"100 expression/point pairs, all three jet channels vs 50-digit "
            f"central differences at h = 1e-5*max(1,|x|): worst relative "
            f"deviation = {worst:.3e} (tol 1e-6)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(6, ok, detail)


# criterion 7: scan reports are byte-identical across thread counts and
# repeat runs, in both body formats


def test_acceptance_7_reports_deterministic(tmp_path):
    try:
        doc = {
            "format_version": 1,
            "family": {"kind": "hypersphere", "n": 4, "radius": 2.0},
            "sampling": {"count": 40, "seed": 11, "oblique_planes": 5},
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        mismatches = []
        for fmt in ("json", "csv"):
            bodies = []
            for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
                out = str(tmp_path / f"{tag}.{fmt}")
                rc = main(
                    ["scan", str(spec), "--out", out, "--threads", threads,
                     "--format", fmt]
                )
                assert rc == 0
                bodies.append(read_report_body(out))
            if not bodies[0] == bodies[1] == bodies[2]:
                mismatches.append(fmt)
        ok = not mismatches
        detail = (
            "scan bodies byte-identical across --threads 1/4 and repeat runs "
            f"for both formats: {'yes' if ok else 'MISMATCH in ' + ','.join(mismatches)} "
            "(40 points, 5 oblique planes, seed 11)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(7, ok, detail)


# criterion 8: the three-dimensional boundary case behaves: flat families at
# K = 0 and spheres at 1/r^2, on the single non-height pair


def test_acceptance_8_three_dimensional_boundary():
    try:
        worst_flat = 0.0
        flats = [
            (make_hyperplane([1.0, 1.0, 1.0], offset=0.5), [(-2.0, 2.0)] * 2, (-12.0, 12.0)),
            (make_cylinder(parse_function("x^2"), 3), [(-2.0, 2.0)] * 2, (-16.0, 16.0)),
            (make_cobb_douglas_sqrt(1.0, 3), [(0.5, 2.0)] * 2, (0.05, 8.0)),
        ]
        for surface, ranges, bracket in flats:
            pts, fails, _ = sample_points(surface, ranges, 100, 81, bracket)
            assert not fails
            i, j = surface.non_height
            for p in pts:
                plane = coordinate_plane(surface, p, i, j)
                worst_flat = max(
                    worst_flat,
                    abs(sectional_special(surface, p, i, j)),
                    abs(sectional_oracle(surface, p, plane)),
                )

        worst_sphere = 0.0
        for r in (0.5, 1.0, 2.0, 3.0):
            surface = make_hypersphere([0.0] * 3, r)
            half = r / (2.0 * math.sqrt(2.0))
            pts, fails, _ = sample_points(
                surface, [(-half, half)] * 2, 100, 82, (0.1 * r, 1.01 * r)
            )
            assert not fails
            target = 1.0 / (r * r)
            for p in pts:
                k = sectional_special(surface, p, 1, 2)
                worst_sphere = max(worst_sphere, abs(k - target))

        ok = worst_flat <= 1e-9 and worst_sphere <= 1e-9
        detail = (
            f"n=3 boundary: worst flat |K| = {worst_flat:.3e} over 3 families "
            f"x 100 points (both engines), worst sphere |K - 1/r^2| = "
            f"{worst_sphere:.3e} over r=0.5,1,2,3 (tol 1e-9)"
        )
    except Exception as exc:
        ok, detail = False, crashed(exc)
    verdict(8, ok, detail)
