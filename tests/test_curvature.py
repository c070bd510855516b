import math
from itertools import combinations

import numpy as np
import pytest

from sepcurv import (
    DegeneratePlaneError,
    RegularityError,
    ScanPolicy,
    ScanRecord,
    SepcurvError,
    SeparableSurface,
    SpecFileError,
    SurfacePoint,
    build_mesh,
    constk_residual,
    coordinate_plane,
    eval_jet2,
    flatness_residual,
    make_cobb_douglas_perturbed,
    make_cobb_douglas_sqrt,
    make_cylinder,
    make_exp_control,
    make_hyperplane,
    make_hypersphere,
    make_log_ode,
    parse_function,
    random_tangent_plane,
    sample_points,
    scan_constancy,
    sectional_oracle,
    sectional_special,
    solve_height,
)

from sepcurv import curvature
from sepcurv.errors import describe
from oracles import brute_coordinate_k, brute_sectional, surface_point
from reference_summary import reference_summary

INF = math.inf


def sphere(n: int, radius: float) -> SeparableSurface:
    fs = [parse_function("x^2") for _ in range(n - 1)]
    fs.append(parse_function(f"x^2 - {radius * radius!r}"))
    return SeparableSurface(tuple(fs))


def log_surface(n: int = 4) -> SeparableSurface:
    fs = [parse_function("-log(x)", (0.0, INF)) for _ in range(n - 1)]
    fs.append(parse_function("2*log(x)", (0.0, INF)))
    return SeparableSurface(tuple(fs))


def mixed_surface() -> SeparableSurface:
    return SeparableSurface(
        (
            parse_function("exp(x)"),
            parse_function("x^2"),
            parse_function("sin(x)"),
            parse_function("2*x + 5"),
        )
    )


def sphere_points(n: int, radius: float, count: int, seed: int):
    s = sphere(n, radius)
    half = radius / (2.0 * math.sqrt(n - 1))
    pts, fails, _ = sample_points(
        s, [(-half, half)] * (n - 1), count, seed, (0.1 * radius, 1.01 * radius)
    )
    assert not fails
    return s, pts


def log_points(n: int, count: int, seed: int):
    s = log_surface(n)
    pts, fails, _ = sample_points(s, [(0.5, 2.0)] * (n - 1), count, seed, (0.05, 8.0))
    assert not fails
    return s, pts


def mixed_points(count: int, seed: int):
    s = mixed_surface()
    pts, fails, _ = sample_points(
        s, [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)], count, seed, (-30.0, 30.0)
    )
    assert not fails
    return s, pts


# ------------------------------------------------------------- pair checks


def test_pair_validation():
    s, pts = sphere_points(4, 2.0, 2, 1)
    p = pts[0]
    with pytest.raises(ValueError, match="must differ"):
        sectional_special(s, p, 1, 1)
    with pytest.raises(ValueError, match="pair index must be an integer >= 1 and <= 4, got 0"):
        sectional_special(s, p, 0, 2)
    with pytest.raises(ValueError, match="pair index must be an integer >= 1 and <= 4, got 5"):
        sectional_special(s, p, 1, 5)
    with pytest.raises(ValueError, match="height"):
        sectional_special(s, p, 1, 4)


def test_pair_symmetry_is_bitwise():
    s, pts = mixed_points(10, 3)
    for p in pts:
        for i, j in combinations(s.non_height, 2):
            assert sectional_special(s, p, i, j) == sectional_special(s, p, j, i)
            assert flatness_residual(s, p, i, j) == flatness_residual(s, p, j, i)
            assert constk_residual(s, p, i, j, 2.0) == constk_residual(s, p, j, i, 2.0)


# --------------------------------------------------------------- flat cases


def test_hyperplane_curvature_exactly_zero():
    s = SeparableSurface(tuple(parse_function("x") for _ in range(4)))
    p = solve_height(s, (1.0, 2.0, 3.0), (-12.0, 12.0))
    for i, j in combinations((1, 2, 3), 2):
        assert sectional_special(s, p, i, j) == 0.0
        assert flatness_residual(s, p, i, j) == 0.0
        assert sectional_oracle(s, p, coordinate_plane(s, p, i, j)) == 0.0


def test_cylinder_curvature_exactly_zero():
    # one curved profile, all other slots affine: every numerator term
    # carries second derivatives of two distinct coordinates
    s = SeparableSurface(
        (
            parse_function("x^2"),
            parse_function("x"),
            parse_function("x"),
            parse_function("x"),
        )
    )
    p = solve_height(s, (0.7, -1.0, 2.0), (-12.0, 12.0))
    for i, j in combinations((1, 2, 3), 2):
        assert sectional_special(s, p, i, j) == 0.0
        assert flatness_residual(s, p, i, j) == 0.0


def test_log_surface_flat_everywhere():
    s, pts = log_points(4, 50, 7)
    for p in pts:
        for i, j in combinations(s.non_height, 2):
            assert abs(sectional_special(s, p, i, j)) <= 1e-12
            assert abs(flatness_residual(s, p, i, j)) <= 1e-12


# ------------------------------------------------------------ sphere cases


def test_sphere_frozen_point():
    s = sphere(4, 2.0)
    p = surface_point(s, (0.3, -0.2, 0.5, math.sqrt(3.62)))
    ks = sectional_special(s, p, 1, 2)
    ko = sectional_oracle(s, p, coordinate_plane(s, p, 1, 2))
    assert abs(ks - 0.25) <= 1e-15
    assert abs(ko - 0.25) <= 1e-14
    assert abs(ks - ko) <= 1e-9 * max(1.0, abs(ko))


@pytest.mark.parametrize("n, radius", [(4, 0.5), (4, 2.0), (5, 1.0), (6, 3.0)])
def test_sphere_curvature_all_pairs(n, radius):
    # solved points satisfy the surface equation to an absolute ~1e-12, which
    # for small radii is a few 1e-12 relative on K; 1e-10 covers that with
    # margin while staying far below the 1e-9 working tolerance
    s, pts = sphere_points(n, radius, 20, 13)
    want = 1.0 / (radius * radius)
    for p in pts:
        for i, j in combinations(s.non_height, 2):
            ks = sectional_special(s, p, i, j)
            assert abs(ks - want) <= 1e-10 * max(1.0, want)
            ko = sectional_oracle(s, p, coordinate_plane(s, p, i, j))
            assert abs(ko - want) <= 1e-9 * max(1.0, want)


def test_sphere_oblique_planes():
    s, pts = sphere_points(4, 2.0, 5, 21)
    rng = np.random.default_rng(2)
    for p in pts:
        for _ in range(8):
            section = random_tangent_plane(s, p, rng)
            ko = sectional_oracle(s, p, section)
            assert abs(ko - 0.25) <= 1e-9


def test_sphere_matches_brute_force():
    s = sphere(4, 2.0)
    p = surface_point(s, (0.3, -0.2, 0.5, math.sqrt(3.62)))
    assert abs(brute_coordinate_k(s, p.coords, 1, 2) - 0.25) <= 1e-9
    plane = random_tangent_plane(s, p, np.random.default_rng(6))
    got = sectional_oracle(s, p, plane)
    want = brute_sectional(s, p.coords, *plane)
    assert abs(got - want) <= 1e-9


def test_cobb_douglas_n4_is_flat_on_coordinate_pairs_only():
    # x_4 = sqrt(x_1 x_2 x_3) at (1, 1, 1, 1): every 2x2 principal minor of
    # its shape operator is 0, but the operator has rank 3, so an oblique
    # plane such as span{X_1 + X_2, X_3} has K = -2/49
    s = make_cobb_douglas_sqrt(1.0, 4)
    p = surface_point(s, (1.0, 1.0, 1.0, 1.0))
    for i, j in combinations(s.non_height, 2):
        assert abs(sectional_special(s, p, i, j)) <= 1e-15
        assert abs(sectional_oracle(s, p, coordinate_plane(s, p, i, j))) <= 1e-15
    x1, x2 = coordinate_plane(s, p, 1, 2)
    x3 = coordinate_plane(s, p, 1, 3)[1]
    assert abs(sectional_oracle(s, p, [x1 + x2, x3]) + 2.0 / 49.0) <= 1e-12
    assert abs(brute_sectional(s, p.coords, x1 + x2, x3) + 2.0 / 49.0) <= 1e-12


# ------------------------------------------------- engine cross-validation


def test_engines_agree_on_generic_surface():
    s, pts = mixed_points(20, 5)
    for p in pts:
        for i, j in combinations(s.non_height, 2):
            ks = sectional_special(s, p, i, j)
            ko = sectional_oracle(s, p, coordinate_plane(s, p, i, j))
            assert abs(ks - ko) <= 1e-9 * max(1.0, abs(ko))


def test_closed_form_matches_brute_force_generic():
    s, pts = mixed_points(4, 9)
    for p in pts:
        ks = sectional_special(s, p, 1, 3)
        want = brute_coordinate_k(s, p.coords, 1, 3)
        assert abs(ks - want) <= 1e-8 * max(1.0, abs(want))


def test_oracle_invariant_under_plane_reparametrization():
    s, pts = mixed_points(6, 8)
    rng = np.random.default_rng(3)
    for p in pts:
        plane = coordinate_plane(s, p, 1, 2)
        k_ref = sectional_oracle(s, p, plane)
        for _ in range(4):
            a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
            if abs(a * d - b * c) < 0.1:
                continue
            other = np.array([[a, b], [c, d]]) @ plane
            assert abs(sectional_oracle(s, p, other) - k_ref) <= 1e-9 * max(
                1.0, abs(k_ref)
            )


# ------------------------------------------------------------ residuals


def gradient(s, p) -> list[float]:
    """f_k'(x_k) of every coordinate at a point."""
    return [eval_jet2(f, x).d1 for f, x in zip(s.funcs, p.coords)]


def test_flatness_matches_curvature_times_denominator():
    s, pts = mixed_points(10, 14)
    for p in pts:
        d1 = gradient(s, p)
        total = math.fsum(d * d for d in d1)
        for i, j in combinations(s.non_height, 2):
            ks = sectional_special(s, p, i, j)
            den = total * (d1[i - 1] ** 2 + d1[j - 1] ** 2 + d1[s.height - 1] ** 2)
            flat = flatness_residual(s, p, i, j)
            assert abs(flat - ks * den) <= 1e-12 * max(1.0, abs(flat))


def test_flatness_survives_singular_points():
    # no division inside: defined even where the gradient vanishes
    s = SeparableSurface(tuple(parse_function("x^2") for _ in range(4)))
    p = surface_point(s, (0.0, 0.0, 0.0, 0.0))
    assert flatness_residual(s, p, 1, 2) == 0.0
    with pytest.raises(RegularityError):
        sectional_special(s, p, 1, 2)


def test_constk_frozen_log_surface_value():
    s = log_surface()
    p = surface_point(s, (1.0, 1.0, 1.0, 1.0))
    assert constk_residual(s, p, 1, 2, 1.0) == 42.0


def test_constk_vanishes_on_matching_sphere():
    radius = 2.0
    s, pts = sphere_points(4, radius, 10, 31)
    k0 = 4.0 / (radius * radius)
    for p in pts:
        X = [d * d for d in gradient(s, p)]
        scale = 4.0 * (X[0] + X[1] + X[3]) * math.fsum(X)
        assert abs(constk_residual(s, p, 1, 2, k0)) <= 1e-12 * scale


def test_constk_identity_links_residual_to_curvature():
    s, pts = mixed_points(8, 25)
    for p in pts:
        X = [d * d for d in gradient(s, p)]
        for i, j in combinations(s.non_height, 2):
            ks = sectional_special(s, p, i, j)
            big_s = X[i - 1] + X[j - 1] + X[s.height - 1]
            total = math.fsum(X)
            for k0 in (-1.0, 0.0, 0.5, 1.0, 4.0):
                got = constk_residual(s, p, i, j, k0)
                want = 4.0 * big_s * total * (k0 / 4.0 - ks)
                scale = max(1.0, abs(k0) * big_s * total, abs(4.0 * big_s * total * ks))
                assert abs(got - want) <= 1e-10 * scale


def test_constk_rejects_log_surface_for_every_nonzero_k0():
    s, pts = log_points(4, 25, 40)
    for k0 in (-1.0, 0.5, 1.0, 4.0):
        worst = min(
            abs(constk_residual(s, p, i, j, k0))
            for p in pts
            for i, j in combinations(s.non_height, 2)
        )
        assert worst > 1e-3


def test_constk_validates_k0():
    s, pts = sphere_points(4, 1.0, 2, 2)
    with pytest.raises(ValueError, match="k0"):
        constk_residual(s, pts[0], 1, 2, math.inf)
    with pytest.raises(ValueError, match="k0"):
        constk_residual(s, pts[0], 1, 2, math.nan)


# ------------------------------------------------------------ plane input


def test_oracle_accepts_any_two_row_array_like():
    s, pts = sphere_points(4, 2.0, 2, 4)
    p = pts[0]
    plane = coordinate_plane(s, p, 1, 2)
    drawn = random_tangent_plane(s, p, np.random.default_rng(9))
    for array in (plane, drawn):
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.float64 and array.shape == (2, 4)
    k = sectional_oracle(s, p, plane)
    assert sectional_oracle(s, p, [plane[0], plane[1]]) == k
    assert sectional_oracle(s, p, plane.tolist()) == k
    assert sectional_oracle(s, p, tuple(map(tuple, plane))) == k
    assert abs(sectional_oracle(s, p, drawn.tolist()) - 0.25) <= 1e-9


@pytest.mark.parametrize(
    "shape_of",
    [
        lambda u, w: [u, w, u + w],                 # three rows: shape (3, n)
        lambda u, w: [u[:-1], w[:-1]],              # rows one too short: (2, n - 1)
        lambda u, w: [u, w[:-1]],                   # ragged pair
        lambda u, w: [u],                           # one row
        lambda u, w: np.concatenate([u, w]),        # flat vector
    ],
    ids=["three-rows", "short-rows", "ragged", "one-row", "flat"],
)
def test_oracle_rejects_plane_shapes(shape_of):
    s, pts = sphere_points(4, 2.0, 2, 4)
    p = pts[0]
    u, w = coordinate_plane(s, p, 1, 2)
    with pytest.raises(ValueError, match="shape") as info:
        sectional_oracle(s, p, shape_of(u, w))
    assert not isinstance(info.value, SepcurvError)


def test_oracle_rejects_bad_planes():
    s, pts = sphere_points(4, 2.0, 2, 4)
    p = pts[0]
    u, w = coordinate_plane(s, p, 1, 2)
    with pytest.raises(DegeneratePlaneError, match="zero"):
        sectional_oracle(s, p, [np.zeros(4), w])
    with pytest.raises(DegeneratePlaneError, match="dependent"):
        sectional_oracle(s, p, [u, 2.0 * u])
    with pytest.raises(DegeneratePlaneError, match="not tangent"):
        sectional_oracle(s, p, [gradient(s, p), w])


def test_oracle_rejects_nearly_dependent_pair():
    # a 1e-12 sliver must trip the independence gate, not feed noise into
    # the orthonormalization
    s, pts = sphere_points(4, 2.0, 2, 4)
    p = pts[0]
    good = coordinate_plane(s, p, 1, 2)
    u, w = good / np.linalg.norm(good, axis=1, keepdims=True)
    w_perp = w - float(w @ u) * u
    w_perp /= np.linalg.norm(w_perp)
    sliver = u + 1e-12 * w_perp
    with pytest.raises(DegeneratePlaneError, match="dependent"):
        sectional_oracle(s, p, [good[0], sliver])


def test_oracle_tolerates_small_angles_above_gate():
    # barely independent (angle ~1e-6) still evaluates accurately
    s, pts = sphere_points(4, 2.0, 2, 4)
    p = pts[0]
    good = coordinate_plane(s, p, 1, 2)
    u, w = good / np.linalg.norm(good, axis=1, keepdims=True)
    w_perp = w - float(w @ u) * u
    w_perp /= np.linalg.norm(w_perp)
    narrow = [good[0], u + 1e-6 * w_perp]
    assert abs(sectional_oracle(s, p, narrow) - 0.25) <= 1e-8


def test_a_clean_scan_builds_no_plane_error(monkeypatch):
    built = []
    real_init = DegeneratePlaneError.__init__

    def counted(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(DegeneratePlaneError, "__init__", counted)
    s, pts = sphere_points(6, 2.0, 25, 9)
    policy = ScanPolicy(oblique_per_point=20, seed=9)
    report = scan_constancy(s, pts, policy)
    assert report.failure_count == 0 and report.value_count == 25 * (10 + 20)
    assert built == []

    # one oblique plane of point 0 forced off the tangent space: its record
    # is the text the point-wise engine raises for that plane
    nq, real_gauss = 10, curvature._gauss

    def non_tangent(table, u, w):
        u = u.copy()
        u[0, nq] = table.normal[0]
        return real_gauss(table, u, w)

    monkeypatch.setattr(curvature, "_gauss", non_tangent)
    records = scan_constancy(s, pts, policy).records
    monkeypatch.setattr(curvature, "_gauss", real_gauss)
    _, w = random_tangent_plane(s, pts[0], np.random.default_rng([9, 0]))
    with pytest.raises(DegeneratePlaneError, match="not tangent") as info:
        sectional_oracle(s, pts[0], [gradient(s, pts[0]), w])
    assert records[nq] == ScanRecord(0, pts[0].coords, "error", error=describe(info.value))
    assert [r.kind for r in records].count("error") == 1
    assert len(built) == 2   # the scan's plane and the point-wise engine's


def test_random_planes_are_tangent_unit_pairs():
    s, pts = mixed_points(3, 6)
    rng = np.random.default_rng(123)
    for p in pts:
        grad = np.array(gradient(s, p))
        normal = grad / np.linalg.norm(grad)
        for _ in range(5):
            for v in random_tangent_plane(s, p, rng):
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
                assert abs(v @ normal) <= 1e-12


def test_random_planes_deterministic_per_seed():
    s, pts = sphere_points(4, 1.0, 2, 8)
    a = random_tangent_plane(s, pts[0], np.random.default_rng(55))
    b = random_tangent_plane(s, pts[0], np.random.default_rng(55))
    assert np.array_equal(a, b)
    c = random_tangent_plane(s, pts[0], np.random.default_rng(56))
    assert not np.array_equal(a, c)


# ------------------------------------------------------------------ scans


def test_scan_log_surface_constant_zero():
    s, pts = log_points(5, 50, 60)
    report = scan_constancy(s, pts, ScanPolicy(seed=60))
    assert report.verdict == "constant"
    assert report.point_count == 50
    assert report.value_count == 50 * 6
    assert report.failure_count == 0
    assert abs(report.constant_estimate) <= 1e-12
    assert report.spread <= 1e-12
    assert not any(rec.flagged for rec in report.records)
    assert report.n == 5
    assert report.seed == 60


def test_scan_sphere_with_oblique_planes():
    s, pts = sphere_points(4, 3.0, 30, 61)
    policy = ScanPolicy(oblique_per_point=10, seed=61)
    report = scan_constancy(s, pts, policy)
    assert report.verdict == "constant"
    assert report.value_count == 30 * (3 + 10)
    assert abs(report.constant_estimate - 1.0 / 9.0) <= 1e-9
    assert report.spread <= 1e-9
    kinds = {rec.kind for rec in report.records}
    assert kinds == {"pair", "plane"}
    plane_records = [r for r in report.records if r.kind == "plane"]
    assert all(r.u is not None and r.w is not None and r.k_oracle is not None
               for r in plane_records)
    assert all(r.k_special is None for r in plane_records)


def test_scan_detects_non_constant():
    s, pts = mixed_points(40, 62)
    report = scan_constancy(s, pts, ScanPolicy(seed=62))
    assert report.verdict == "non-constant"
    assert report.constant_estimate is None
    assert report.spread > 1e-3


def test_scan_records_regularity_failures():
    s = sphere(4, 2.0)
    good = solve_height(s, (0.3, -0.2, 0.5), (0.2, 2.02))
    good2 = solve_height(s, (0.1, 0.4, -0.2), (0.2, 2.02))
    # on the surface to 1e-20, but the height slope is 2e-10
    equator = surface_point(s, (1.0, 1.0, math.sqrt(2.0), 1e-10))
    report = scan_constancy(s, [good, equator, good2], ScanPolicy())
    errors = [rec for rec in report.records if rec.kind == "error"]
    assert len(errors) == 1
    assert errors[0].sample == 1
    assert errors[0].error.startswith("RegularityError")
    assert report.failure_count == 1
    assert report.value_count == 6
    assert report.verdict == "constant"
    assert abs(report.constant_estimate - 0.25) <= 1e-9


def mixed_failure_points():
    """Hand-built points on a log/exp/sin/x^2 surface: regular points mixed
    with a domain error, an overflow inside a jet, a near-zero height slope
    and a coordinate frame too steep to span a plane (the engines need no
    on-surface certificate)."""
    s = SeparableSurface(
        (
            parse_function("log(x)", (0.0, INF)),
            parse_function("exp(x)"),
            parse_function("sin(x)"),
            parse_function("x^2 - 4"),
        )
    )
    coords = [
        (0.5, 0.3, 0.2, 1.5),
        (-1.0, 0.2, 0.1, 1.0),      # DomainError: log outside (0, inf)
        (1.2, -0.4, 0.9, -1.1),
        (1.0, 800.0, 0.1, 1.0),     # NonFiniteError: exp overflows
        (2.0, 0.1, -0.3, 0.8),
        (1.0, 0.2, 0.1, 1e-10),     # RegularityError: height slope 2e-10
        (0.9, 0.6, 1.1, 1.9),
        (1e-3, 7.0, 0.1, 1e-8),     # DegeneratePlaneError: frames of (1, 2) nearly dependent
    ]
    return s, [SurfacePoint(c, 0.0) for c in coords]


def point_error(s, p):
    """The first error the point-wise engines raise at p, as a scan records it."""
    try:
        for i, j in combinations(s.non_height, 2):
            sectional_special(s, p, i, j)
            sectional_oracle(s, p, coordinate_plane(s, p, i, j))
    except SepcurvError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def assert_rel(got, want):
    assert abs(got - want) <= 1e-12 * abs(want)


def test_scan_matches_point_wise_engines():
    s, pts = mixed_failure_points()
    policy = ScanPolicy(oblique_per_point=3, seed=5)
    report = scan_constancy(s, pts, policy)
    messages = [point_error(s, p) for p in pts]
    kinds = [m and m.split(":")[0] for m in messages]
    assert kinds == [
        None, "DomainError", None, "NonFiniteError", None, "RegularityError", None,
        "DegeneratePlaneError",
    ]
    by_sample = {}
    for rec in report.records:
        by_sample.setdefault(rec.sample, []).append(rec)
    assert sorted(by_sample) == list(range(len(pts)))
    for pos, (p, message) in enumerate(zip(pts, messages)):
        recs = by_sample[pos]
        if message is not None:
            assert [(r.kind, r.error) for r in recs] == [("error", message)]
            continue
        pairs = [r for r in recs if r.kind == "pair"]
        assert [(r.i, r.j) for r in pairs] == list(combinations(s.non_height, 2))
        for r in pairs:
            assert_rel(r.k_special, sectional_special(s, p, r.i, r.j))
            assert_rel(r.k_oracle, sectional_oracle(s, p, coordinate_plane(s, p, r.i, r.j)))
            assert_rel(r.residual_flat, flatness_residual(s, p, r.i, r.j))
        rng = np.random.default_rng([5, pos])
        planes = [r for r in recs if r.kind == "plane"]
        assert len(planes) == 3
        for r in planes:
            assert np.array_equal([r.u, r.w], random_tangent_plane(s, p, rng))
            assert_rel(r.k_oracle, sectional_oracle(s, p, [r.u, r.w]))
    assert report.failure_count == 4


REAL_DEFAULT_RNG = np.random.default_rng


class RejectFirstDraw:
    """Generator stub whose first draw pairs a vector with itself, which the
    plane draw must reject; later draws come from the real stream."""

    def __init__(self, seed):
        self.gen = REAL_DEFAULT_RNG(seed)
        self.first = True

    def standard_normal(self, shape):
        out = self.gen.standard_normal(shape)
        if self.first:
            self.first = False
            draws = out.reshape(-1, 2, shape[-1])
            draws[0, 1] = draws[0, 0]
        return out


def planes_at(report, pos):
    return np.array([[r.u, r.w] for r in report.records if r.sample == pos and r.kind == "plane"])


def test_scan_rejected_draw_falls_back_to_sequential_planes(monkeypatch):
    s, pts = sphere_points(4, 2.0, 3, 67)
    policy = ScanPolicy(oblique_per_point=4, seed=67)
    plain = scan_constancy(s, pts, policy)
    monkeypatch.setattr(np.random, "default_rng", RejectFirstDraw)
    report = scan_constancy(s, pts, policy)
    for pos, p in enumerate(pts):
        rng = RejectFirstDraw([67, pos])
        want = [random_tangent_plane(s, p, rng) for _ in range(4)]
        got = planes_at(report, pos)
        assert np.array_equal(got, want)
        assert not np.array_equal(got[0], planes_at(plain, pos)[0])
    assert report.verdict == "constant"


def overflow_surface():
    """exp(x_1) + x_2^2 - x_3^2 = 0 sampled at x_1 in [352, 354.5]: x_3 is
    about 1e76, so on some points the closed form's numerator overflows and
    k_special is nan while the Gauss engine gives a finite value."""
    s = SeparableSurface(
        (parse_function("exp(x)"), parse_function("x^2"), parse_function("-(x^2)"))
    )
    return s, [(352.0, 354.5), (-1.0, 1.0)], (1e70, 1e80)


SUMMARY_FIELDS = (
    "point_count", "value_count", "failure_count", "k_min", "k_max", "k_mean", "spread",
    "verdict", "constant_estimate", "flagged_count", "max_engine_rel_dev",
)


@pytest.mark.parametrize("seed", range(1, 9))
def test_non_finite_value_leaves_scan_undetermined(seed):
    s, ranges, bracket = overflow_surface()
    points, failures, _ = sample_points(s, ranges, 6, seed, bracket)
    assert len(points) == 6 and failures == []
    policy = ScanPolicy(seed=seed)
    report = scan_constancy(s, points, policy)
    pairs = [r for r in report.records if r.kind == "pair"]
    bad = [r for r in pairs if not (math.isfinite(r.k_special) and math.isfinite(r.k_oracle))]
    assert bad and all(r.flagged for r in bad)
    finite = [r.k_value() for r in pairs if math.isfinite(r.k_value())]
    assert len(finite) < len(pairs) == report.value_count
    assert report.verdict == "undetermined" and report.constant_estimate is None
    assert (report.k_min, report.k_max) == (min(finite), max(finite))
    assert math.isfinite(report.max_engine_rel_dev)
    backward = scan_constancy(s, points[::-1], policy)
    assert {f: getattr(backward, f) for f in SUMMARY_FIELDS} == {
        f: getattr(report, f) for f in SUMMARY_FIELDS
    }


def test_scan_mean_of_values_whose_sum_overflows():
    # a sphere of radius about 3e-154 scaled by 1e150: K is near the largest
    # float, so the sum of the finite values overflows
    fs = [parse_function("1e150*x^2") for _ in range(2)]
    s = SeparableSurface((*fs, parse_function("1e150*x^2 - 1e-157")))
    points, _, _ = sample_points(s, [(-1e-154, 1e-154)] * 2, 20, 1, (1e-155, 1e-153))
    report = scan_constancy(s, points)
    values = [r.k_value() for r in report.records if math.isfinite(r.k_value())]
    with pytest.raises(OverflowError):
        math.fsum(values)
    assert report.k_mean == math.fsum(v / len(values) for v in values)
    assert report.k_min <= report.k_mean <= report.k_max
    assert report.verdict == "non-constant"


def test_scan_thread_count_does_not_change_records():
    s, pts = sphere_points(4, 2.0, 20, 64)
    s_err, pts_err = mixed_failure_points()
    for surface, points in ((s, pts), (s_err, pts_err)):
        policy = ScanPolicy(oblique_per_point=6, seed=64)
        solo = scan_constancy(surface, points, policy, threads=1)
        assert {r.kind for r in solo.records} >= {"pair", "plane"}
        for threads in (2, 3, len(points), len(points) + 5):
            assert scan_constancy(surface, points, policy, threads=threads) == solo
    assert solo.failure_count == 4


def test_scan_bounds_planes_per_chunk(monkeypatch):
    s, pts = sphere_points(4, 2.0, 20, 64)
    policy = ScanPolicy(oblique_per_point=6, seed=64)
    whole = scan_constancy(s, pts, policy)
    sizes = []
    real_chunk = curvature._scan_chunk

    def spy(surface, points, *rest):
        sizes.append(len(points))
        return real_chunk(surface, points, *rest)

    monkeypatch.setattr(curvature, "_scan_chunk", spy)
    monkeypatch.setattr(curvature, "CHUNK_PLANES", 30)
    # 20 points x (3 pairs + 6 planes) = 180 planes: at least 6 chunks
    assert scan_constancy(s, pts, policy) == whole
    assert sorted(sizes) == [3, 3, 3, 3, 4, 4]


def test_scan_flagged_record_blocks_constant_verdict(monkeypatch):
    s, pts = sphere_points(4, 2.0, 6, 68)
    policy = ScanPolicy(seed=68)
    clean = scan_constancy(s, pts, policy)
    assert clean.verdict == "constant"
    assert clean.flagged_count == 0
    assert clean.max_engine_rel_dev <= 1e-12

    real_gauss = curvature._gauss

    def one_disagreement(table, u, w):
        k, errors = real_gauss(table, u, w)
        k[0, 0] *= 1.0 + 1e-6
        return k, errors

    monkeypatch.setattr(curvature, "_gauss", one_disagreement)
    report = scan_constancy(s, pts, policy)
    assert report.flagged_count == 1
    assert [r.flagged for r in report.records].count(True) == 1
    assert report.records[0].flagged
    assert report.spread <= policy.constancy_tol
    assert report.verdict == "undetermined"
    assert report.constant_estimate is None
    assert abs(report.max_engine_rel_dev - 0.25e-6) <= 1e-12


def test_scan_needs_two_samples():
    s, pts = sphere_points(4, 1.0, 2, 65)
    with pytest.raises(ValueError, match="at least 2"):
        scan_constancy(s, pts[:1], ScanPolicy())


# (argument, call, bad values, message): each library entry point refuses a
# boolean, a float, a negative, an out-of-range or a non-finite value, or a
# malformed interval, when it is called
TOP = SurfacePoint((0.0, 0.0, 1.0), 0.0)   # on sphere(3, 1.0)
BAD_ARGUMENTS = [
    ("ScanPolicy.oblique_per_point", lambda v: ScanPolicy(oblique_per_point=v),
     (True, 1.5, -1), "oblique_per_point must be an integer >= 0"),
    ("ScanPolicy.seed", lambda v: ScanPolicy(seed=v), (True, 1.5, -2), "seed must be an integer >= 0"),
    ("ScanPolicy.constancy_tol", lambda v: ScanPolicy(constancy_tol=v),
     (True, -1e-7, 0.0, math.nan, INF), "constancy_tol must be (a finite number|positive)"),
    ("SeparableSurface.height", lambda v: SeparableSurface(sphere(3, 1.0).funcs, v),
     (True, 1.5, -1, 4), "height index must be an integer >= 1 and <= 3"),
    ("SeparableSurface.n", lambda v: SeparableSurface(sphere(3, 1.0).funcs[:v]),
     (2,), "n must be an integer >= 3, got 2"),
    ("make_exp_control.n", make_exp_control, (True, 3.5, -1, 2), "n must be an integer >= 3"),
    ("make_log_ode.height", lambda v: make_log_ode(1.0, 4, height=v),
     (True, 1.5, -1, 5), "height index must be an integer >= 1 and <= 4"),
    ("build_mesh.grid", lambda v: build_mesh(sphere(3, 1.0), [(-0.4, 0.4)] * 2, (v, 3), (0.1, 1.01)),
     (True, 2.5, -1, 1), "grid must be an integer >= 2"),
    ("build_mesh.ranges", lambda v: build_mesh(sphere(3, 1.0), [v, (-0.4, 0.4)], (3, 3), (0.1, 1.01)),
     ((0.0,),), r"^ranges\[0\] must be \[lo, hi\]$"),
    ("sample_points.count", lambda v: sample_points(sphere(3, 1.0), [(-0.4, 0.4)] * 2, v, 0, (0.1, 1.01)),
     (True, 2.5), r"^count must be an integer >= 1, got (True|2\.5)$"),
    ("sample_points.seed", lambda v: sample_points(sphere(3, 1.0), [(-0.4, 0.4)] * 2, 2, v, (0.1, 1.01)),
     (True, 1.5), r"^seed must be an integer >= 0, got (True|1\.5)$"),
    ("sample_points.seed[k]", lambda v: sample_points(sphere(3, 1.0), [(-0.4, 0.4)] * 2, 2, v, (0.1, 1.01)),
     ([1, -1], [1, 2.5]), r"^seed\[1\] must be an integer >= 0, got (-1|2\.5)$"),
    ("sample_points.ranges", lambda v: sample_points(sphere(3, 1.0), [v, (-0.4, 0.4)], 2, 0, (0.1, 1.01)),
     ((0.5,),), r"^ranges\[0\] must be \[lo, hi\]$"),
    ("solve_height.bracket", lambda v: solve_height(sphere(3, 1.0), (0.0, 0.0), v),
     ((math.nan, 1.01), (0.1, INF)), r"^bracket must be a finite number, got (nan|inf)$"),
    ("sectional_special.i", lambda v: sectional_special(sphere(3, 1.0), TOP, v, 2),
     (True, 1.5), r"^pair index must be an integer >= 1 and <= 3, got (True|1\.5)$"),
    ("constk_residual.k0", lambda v: constk_residual(sphere(3, 1.0), TOP, 1, 2, v),
     (True, INF), r"^k0 must be a finite number, got (True|inf)$"),
    ("scan_constancy.threads", lambda v: scan_constancy(*sphere_points(3, 1.0, 3, 1), threads=v),
     (2.5, 0, -3, True), r"^threads must be an integer >= 1, got (2\.5|0|-3|True)$"),
    ("sample_and_scan.threads", lambda v: curvature.sample_and_scan(
        sphere(3, 1.0), [(-0.4, 0.4)] * 2, 3, 0, (0.1, 1.01), ScanPolicy(), v),
     (2.5, 0, -3, True), r"^threads must be an integer >= 1, got (2\.5|0|-3|True)$"),
    ("make_cylinder.profile_slot", lambda v: make_cylinder(parse_function("x^2"), 4, profile_slot=v),
     (True, 1.5), r"^profile_slot must be an integer >= 1 and <= 4, got (True|1\.5)$"),
    ("make_cobb_douglas_perturbed.slot", lambda v: make_cobb_douglas_perturbed(1.0, 4, 0.05, slot=v),
     (True, 1.5), r"^slot must be an integer >= 1 and <= 4, got (True|1\.5)$"),
    ("make_cobb_douglas_perturbed.epsilon", lambda v: make_cobb_douglas_perturbed(1.0, 4, v),
     (math.nan,), r"^epsilon must be a finite number, got nan$"),
    ("make_hypersphere.radius", lambda v: make_hypersphere([0.0] * 3, v),
     (INF,), r"^radius must be a finite number, got inf$"),
    ("make_hypersphere.radius^2", lambda v: make_hypersphere([0.0] * 3, v),
     (2e154, 1e300), r"^radius (2e\+154|1e\+300) is too large: its square overflows$"),
    ("Function1D.domain", lambda v: parse_function("x", v),
     ((0.0,), (0.0, 1.0, 2.0), 0.5), r"^domain must be \[lo, hi\]$"),
    ("Function1D.domain end", lambda v: parse_function("x", v),
     ((True, 2.0), ("a", 1), (0.0, math.nan), (0.0, 10**400)),
     r"^domain must be a number, got (True|'a'|nan|1000.*)$"),
    ("Function1D.domain order", lambda v: parse_function("x", v),
     ((2.0, 1.0), (1.0, 1.0), (INF, INF)),
     r"^domain ends must satisfy lo < hi, got \((2\.0, 1\.0|1\.0, 1\.0|inf, inf)\)$"),
    ("make_hypersphere.center", lambda v: make_hypersphere(v, 1.0),
     ([0.0, INF, 0.0],), r"^center must be a list of 3 finite numbers, got \[0.0, inf, 0.0\]$"),
    ("make_cobb_douglas_sqrt.a", lambda v: make_cobb_douglas_sqrt(v, 4),
     (INF,), r"^scale constant A must be a finite number, got inf$"),
    ("make_log_ode.lam", lambda v: make_log_ode(v, 4), (math.nan,), r"^lam must be a finite number, got nan$"),
    ("make_log_ode.shifts", lambda v: make_log_ode(1.0, 4, shifts=v),
     ([0.0, 0.0, math.nan, 0.0],), r"^shifts must be a list of 4 finite numbers, got \[0.0, 0.0, nan, 0.0\]$"),
    ("make_hyperplane.coeffs", make_hyperplane,
     ([1.0, math.nan, 1.0],), r"^coeffs must be a list of 3 finite numbers, got \[1.0, nan, 1.0\]$"),
]


@pytest.mark.parametrize(
    "call, value, match",
    [
        pytest.param(call, value, match, id=f"{name}={value!r}")
        for name, call, values, match in BAD_ARGUMENTS
        for value in values
    ],
)
def test_library_argument_validation(call, value, match):
    with pytest.raises(SpecFileError, match=match):
        call(value)


def test_scan_summary_statistics_consistent():
    s, pts = mixed_points(10, 66)
    report = scan_constancy(s, pts, ScanPolicy(seed=66))
    values = [rec.k_value() for rec in report.records if rec.kind != "error"]
    assert report.k_min == min(values)
    assert report.k_max == max(values)
    assert report.spread == report.k_max - report.k_min
    assert report.k_mean == math.fsum(values) / len(values)


# ------------------------------------------------------- records and summary


def test_scan_record_is_an_immutable_named_record():
    rec = ScanRecord(sample=3, coords=(1.0, 2.0), kind="plane", k_oracle=0.5)
    assert ScanRecord._fields == (
        "sample", "coords", "kind", "i", "j", "u", "w", "k_special", "k_oracle",
        "residual_flat", "flagged", "error",
    )
    assert (rec.i, rec.j, rec.u, rec.w, rec.k_special, rec.residual_flat, rec.error) == (
        (None,) * 7
    )
    assert rec.flagged is False
    assert rec.k_value() == 0.5
    assert rec._replace(kind="pair", k_special=0.25).k_value() == 0.25
    assert ScanRecord(0, (), "error", error="x").k_value() is None
    with pytest.raises(AttributeError):
        rec.k_oracle = 1.0
    with pytest.raises(AttributeError):
        rec.extra = 1.0


def test_scan_records_follow_sample_pair_plane_order():
    s, pts = mixed_failure_points()
    report = scan_constancy(s, pts, ScanPolicy(oblique_per_point=3, seed=5))
    want = []
    for pos, p in enumerate(pts):
        if point_error(s, p) is not None:
            want.append((pos, "error", None, None))
            continue
        want.extend((pos, "pair", i, j) for i, j in combinations(s.non_height, 2))
        want.extend([(pos, "plane", None, None)] * 3)
    assert all(type(r) is ScanRecord for r in report.records)
    assert [(r.sample, r.kind, r.i, r.j) for r in report.records] == want
    # the report writers format a sample's coords once, keyed on identity
    assert all(r.coords is pts[r.sample].coords for r in report.records)
    for pos, p in enumerate(pts):
        rng = np.random.default_rng([5, pos])
        for r in (r for r in report.records if r.sample == pos and r.kind == "plane"):
            assert np.array_equal([r.u, r.w], random_tangent_plane(s, p, rng))


class RejectDraws:
    """Generator stub whose first `count` draws pair each vector with
    itself; one batch draw and 100 retries make a point's first plane fail."""

    def __init__(self, seed, count=1 + curvature.PLANE_RETRIES):
        self.gen = REAL_DEFAULT_RNG(seed)
        self.count = count

    def standard_normal(self, shape):
        out = self.gen.standard_normal(shape)
        if self.count:
            self.count -= 1
            draws = out.reshape(-1, 2, shape[-1])
            draws[:, 1] = draws[:, 0]
        return out


def summary_case(name, monkeypatch):
    """A scan whose summary exercises one of the summary's rules."""
    if name == "sphere-oblique":
        s, pts = sphere_points(4, 3.0, 30, 61)
        return scan_constancy(s, pts, ScanPolicy(oblique_per_point=10, seed=61))
    if name == "mixed-failures":
        s, pts = mixed_failure_points()
        return scan_constancy(s, pts, ScanPolicy(oblique_per_point=3, seed=5))
    if name == "failed-plane-draws":
        s, pts = mixed_failure_points()
        monkeypatch.setattr(np.random, "default_rng", RejectDraws)
        return scan_constancy(s, pts, ScanPolicy(oblique_per_point=3, seed=5))
    if name.startswith("overflow-"):
        seed = int(name.split("-")[1])
        s, ranges, bracket = overflow_surface()
        points, _, _ = sample_points(s, ranges, 6, seed, bracket)
        return scan_constancy(s, points, ScanPolicy(oblique_per_point=2, seed=seed))
    if name == "sum-overflow":
        fs = [parse_function("1e150*x^2") for _ in range(2)]
        s = SeparableSurface((*fs, parse_function("1e150*x^2 - 1e-157")))
        points, _, _ = sample_points(s, [(-1e-154, 1e-154)] * 2, 20, 1, (1e-155, 1e-153))
        return scan_constancy(s, points)
    if name == "one-disagreement":
        s, pts = sphere_points(4, 2.0, 6, 68)
        real_gauss = curvature._gauss

        def one_disagreement(table, u, w):
            k, errors = real_gauss(table, u, w)
            k[0, 0] *= 1.0 + 1e-6
            return k, errors

        monkeypatch.setattr(curvature, "_gauss", one_disagreement)
        return scan_constancy(s, pts, ScanPolicy(seed=68))
    if name == "chunked":
        s, pts = sphere_points(4, 2.0, 20, 64)
        monkeypatch.setattr(curvature, "CHUNK_PLANES", 30)
        return scan_constancy(s, pts, ScanPolicy(oblique_per_point=6, seed=64))
    if name == "signed-zeros":
        # pair values +0.0, every oblique value -0.0: the minimum and the
        # maximum are the first zero in record order, as min and max give
        s = SeparableSurface(tuple(parse_function(f) for f in ("x^2", "x", "-x", "x")))
        pts, _, _ = sample_points(s, [(-1.0, 1.0)] * 3, 10, 1, (-50.0, 50.0))
        real_gauss = curvature._gauss

        def negative_zero_planes(table, u, w):
            k, errors = real_gauss(table, u, w)
            k[:, 3:] = -0.0
            return k, errors

        monkeypatch.setattr(curvature, "_gauss", negative_zero_planes)
        return scan_constancy(s, pts, ScanPolicy(oblique_per_point=40, seed=1))
    raise AssertionError(name)


SUMMARY_CASES = (
    "sphere-oblique", "mixed-failures", "failed-plane-draws",
    *(f"overflow-{seed}" for seed in range(1, 9)),
    "sum-overflow", "one-disagreement", "chunked", "signed-zeros",
)


@pytest.mark.parametrize("name", SUMMARY_CASES)
def test_summary_matches_record_pass_oracle(monkeypatch, name):
    report = summary_case(name, monkeypatch)
    # repr compares NaN as NaN, tells -0.0 from 0.0 and a Python float from
    # a numpy scalar
    assert {f: repr(getattr(report, f)) for f in SUMMARY_FIELDS} == {
        f: repr(v) for f, v in reference_summary(report).items()
    }
    if name == "failed-plane-draws":
        planes = [r for r in report.records if r.kind == "plane"]
        assert report.failure_count == 4 + 4 and len(planes) == 4 * 2
    if name == "signed-zeros":
        assert math.copysign(1.0, report.k_min) == math.copysign(1.0, report.k_max) == 1.0
        assert any(math.copysign(1.0, r.k_oracle) < 0 for r in report.records if r.kind == "plane")
