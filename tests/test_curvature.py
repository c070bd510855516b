import math
import sys
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from sepcurv.geometry import JetTable
from corpus import EXPRESSIONS
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


def unscaled_table(d1, d2) -> JetTable:
    """A gate-free jet table of the given rows, ||grad F||^2 summed as the
    package sums it (inf where the sum overflows)."""
    d1, d2 = np.array(d1, dtype=float), np.array(d2, dtype=float)
    with np.errstate(over="ignore"):
        squares = (d1 * d1).tolist()
    sq_norm = [math.inf if math.isinf(max(row)) else math.fsum(row) for row in squares]
    return JetTable(d1, d2, np.array(sq_norm), (None,) * len(d1))


def test_scaled_jets_keep_the_unscaled_formulas_bits():
    # rows of 5 jets around a common size 10^c, c in [-60, 60], spread over
    # 8 decades with random signs: every product below stays in the normal
    # range whether the row is scaled or not
    rng = np.random.default_rng(24)
    size = 10.0 ** rng.uniform(-60.0, 60.0, (2000, 1))
    d1, d2 = (size * 10.0 ** rng.uniform(-4.0, 4.0, (2000, 5)) * rng.choice([-1.0, 1.0], (2000, 5))
              for _ in range(2))
    table = unscaled_table(d1, d2)
    s = SeparableSurface(tuple(parse_function("x") for _ in range(5)))
    got = curvature.pair_table(s, table)
    # the closed form, both residuals and the Gauss engine over the unscaled jets
    lo, hi = ([k - 1 for k in col] for col in zip(*got.pairs))
    p, q, r = d1[:, lo], d1[:, hi], d1[:, [4]]
    pp, qq, rr = d2[:, lo], d2[:, hi], d2[:, [4]]
    flat = p * p * qq * rr + q * q * pp * rr + r * r * pp * qq
    sum3 = p * p + q * q + r * r
    sq_norm = table.sq_norm[:, None]
    assert np.array_equal(got.curvature(), flat / (sq_norm * sum3))
    assert np.array_equal(got.residual(), flat)
    assert np.array_equal(got.residual(0.5), 0.5 * sum3 * sq_norm - 4.0 * flat)
    gradnorm = np.sqrt(table.sq_norm)[:, None]
    assert np.array_equal(table.normal, d1 / gradnorm)
    u, w = got.frames()
    k, errors = curvature._gauss(table, u, w)
    _, _, u, _, y, wedge = curvature._unit_pair(u, w)
    y, hess, dot = y / wedge[..., None], d2[:, None], curvature._dot
    hxx, hyy, hxy = dot(hess * u, u), dot(hess * y, y), dot(hess * u, y)
    assert np.array_equal(k, (hxx * hyy - hxy * hxy) / (gradnorm * gradnorm))
    assert np.isfinite(k).all() and not errors


def test_a_subnormal_scaled_f2_keeps_fewer_bits():
    # max |f'| = 1e150 (e = 499) scales f_1'' = 1e-160 below 2^-1022, and K
    # (about 1e-302) hangs on it; the unscaled formula's denominator
    # overflows, so it reads 0
    d1, d2 = [1.0, 1e150, 1.0], [1e-160, 0.0, 1e158]
    table = unscaled_table([d1], [d2])
    e, _, scaled_d2, _ = table.scaled
    assert e.tolist() == [499]
    tiny = scaled_d2[0, 0]
    assert 0.0 < tiny < sys.float_info.min
    assert (Fraction(tiny) / Fraction(2) ** -1074).numerator.bit_length() == 44
    s = SeparableSurface(tuple(parse_function("x") for _ in range(3)))
    k = curvature.pair_table(s, table).curvature()[0, 0]
    (p, q, r), (pp, qq, rr) = map(Fraction, d1), map(Fraction, d2)
    exact = (p * p * qq * rr + q * q * pp * rr + r * r * pp * qq) / (p * p + q * q + r * r) ** 2
    assert abs(Fraction(k) / exact - 1) <= Fraction(2) ** -43
    (p, q, r), (pp, qq, rr) = d1, d2
    flat = p * p * qq * rr + q * q * pp * rr + r * r * pp * qq
    assert flat / (float(table.sq_norm[0]) * (p * p + q * q + r * r)) == 0.0
    # an f'' of 2^(e - 1075) or below scales to 0
    assert unscaled_table([d1], [[2.0 ** -576, 0.0, 1e158]]).scaled[2][0, 0] == 0.0


def test_scaling_never_scales_up():
    # max |f'| = 1.4e-7 would scale f_1'' = 2e305 up by 2^23 past the float
    # range, and inf * 0 reads nan; unscaled, K is 0 since f_2'' = f_3'' = 0
    table = unscaled_table([[0.0, 1e-7, 1e-7]], [[2e305, 0.0, 0.0]])
    e, d1, d2, sq_norm = table.scaled
    assert e.tolist() == [0] and d2[0, 0] == 2e305 and sq_norm[0] == table.sq_norm[0]
    s = SeparableSurface(tuple(parse_function("x") for _ in range(3)))
    with np.errstate(all="raise"):
        got = curvature.pair_table(s, table)
        k = got.curvature()
    u, w = got.frames()
    assert k.tolist() == curvature._gauss(table, u, w)[0].tolist() == [[0.0]]
    assert got.residual().tolist() == [[0.0]]


def test_residuals_keep_the_unscaled_bits():
    # e = 499 scales f_2'' and f_3'' to about 1e-180 each, whose product
    # reads 0; the unscaled flatness residual is 1e300 * 2e-30 * 2e-30
    d1, d2 = [1e150, 4e-30, 1.0], [0.0, 2e-30, 2e-30]
    table = unscaled_table([d1], [d2])
    s = SeparableSurface(tuple(parse_function("x") for _ in range(3)))
    got = curvature.pair_table(s, table)
    assert got.flat.tolist() == [[0.0]]
    (p, q, r), (pp, qq, rr) = d1, d2
    flat = p * p * qq * rr + q * q * pp * rr + r * r * pp * qq
    assert got.residual().tolist() == [[flat]] and flat == pytest.approx(4e240, rel=1e-15)
    sum3 = p * p + q * q + r * r
    assert got.residual(1e-300).tolist() == [[1e-300 * sum3 * table.sq_norm[0] - 4.0 * flat]]
    # where the unscaled residual is not finite (f_1'^2 f_2'' f_3'' reads
    # inf * 0) the scaled one is scaled back; its terms stay normal here
    table = unscaled_table([[1e153, 1e153, 1.0]], [[1e153, 1e153, 0.0]])
    with np.errstate(all="ignore"):
        assert math.isnan(curvature._terms(table.d1, table.d2, [(1, 2)], 3)[0][0, 0])
    assert curvature.pair_table(s, table).residual().tolist() == [[1e153 * 1e153]]
    # and reads 0 where the scaled terms fall below 2^-1074: here the true
    # value 1e200 is 2^-2660 times 16^e (e = 665), the unscaled p * p overflows
    table = unscaled_table([[1e200, 1.0, 1.0]], [[0.0, 1e-100, 1e-100]])
    assert curvature.pair_table(s, table).residual().tolist() == [[0.0]]


PROPERTY_EXPRESSIONS = [
    entry for entry in EXPRESSIONS if entry[0] not in ("2.5", "cos(x)^2 + sin(x)^2")
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engines_match_oracle_on_scaled_corpus_surfaces(data):
    """Corpus functions times one constant c (whose f'^2 f'' f'' products
    pass the float range for c above about 1e77) at points drawn from their
    sampling windows: both engines match the 50-digit oracles wherever the
    gates pass.  The engines and the oracles all read the level set of F
    through the point, so the point need not lie on F = 0."""
    n = data.draw(st.integers(3, 4), label="n")
    picks = [data.draw(st.sampled_from(PROPERTY_EXPRESSIONS)) for _ in range(n)]
    c = data.draw(st.floats(1.0, 10.0)) * 10.0 ** data.draw(st.integers(0, 150), label="exponent")
    s = SeparableSurface(tuple(parse_function(f"{c!r}*({src})", domain) for src, domain, _ in picks))
    coords = tuple(data.draw(st.floats(*window)) for _, _, window in picks)
    point = SurfacePoint(coords, 0.0)
    try:
        ks = sectional_special(s, point, 1, 2)
    except SepcurvError:   # a gate failed: no curvature to compare
        assume(False)
    # the oracles' difference steps assume slopes not far below the values' scale
    assume(abs(eval_jet2(s.funcs[-1], coords[-1]).d1) >= 1e-2 * c)
    plane = coordinate_plane(s, point, 1, 2)
    oblique = random_tangent_plane(s, point, np.random.default_rng(7))
    want = brute_coordinate_k(s, coords, 1, 2)
    want_oblique = brute_sectional(s, coords, *oblique)
    for got, expected in ((ks, want), (sectional_oracle(s, point, plane), want),
                          (sectional_oracle(s, point, oblique), want_oblique)):
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (got, expected)


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


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
@pytest.mark.parametrize("row", [0, 1])
def test_oracle_rejects_non_finite_planes(row, bad):
    # a plane whose spanning vector holds NaN or +-inf is not tangent: the
    # Gauss sums alone would read nan and raise nothing
    s, pts = sphere_points(4, 2.0, 2, 4)
    plane = coordinate_plane(s, pts[0], 1, 2)
    plane[row, 2] = bad
    with pytest.raises(DegeneratePlaneError, match=f"plane vector {'uw'[row]} has a non-finite"):
        sectional_oracle(s, pts[0], plane)


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
        grad = np.array(gradient(s, p))
        normal = grad / np.linalg.norm(grad)
        planes = [r for r in recs if r.kind == "plane"]
        assert len(planes) == 3
        for r in planes:
            for v in (r.u, r.w):
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
                assert abs(np.dot(v, normal)) <= 1e-12
            assert_rel(r.k_oracle, sectional_oracle(s, p, [r.u, r.w]))
    assert report.failure_count == 4


REAL_DEFAULT_RNG = np.random.default_rng


class DependentPair:
    """`np.random.default_rng` stub that logs each seed it is given; the
    first draw of the first generator it builds (a scan's plane stream)
    pairs one coefficient vector, point 1's plane 2, with itself."""

    def __init__(self, seed, log):
        self.gen = REAL_DEFAULT_RNG(seed)
        self.first = not log
        log.append(seed)

    def standard_normal(self, shape):
        out = self.gen.standard_normal(shape)
        if self.first:
            self.first = False
            out[1, 2, 1] = out[1, 2, 0]
        return out


def planes_at(report, pos):
    return np.array([[r.u, r.w] for r in report.records if r.sample == pos and r.kind == "plane"])


def test_scan_rejected_draw_falls_back_to_sequential_planes(monkeypatch):
    # only the dependent pair is redrawn, from point 1's own stream, as
    # random_tangent_plane draws from it; every other plane keeps its draw.
    # At 3 threads each point is its own Gauss chunk: the draws are still
    # one call over every point, and the redraw stream is keyed by the
    # point's position in the whole scan
    s, pts = sphere_points(4, 2.0, 3, 67)
    policy = ScanPolicy(oblique_per_point=4, seed=67)
    plain = scan_constancy(s, pts, policy)
    redrawn = random_tangent_plane(s, pts[1], REAL_DEFAULT_RNG([67, 1]))
    for threads in (1, 3):
        log = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: DependentPair(seed, log))
        report = scan_constancy(s, pts, policy, threads=threads)
        assert len(log) == 2 and log[1] == [67, 1]
        for pos in range(len(pts)):
            want = planes_at(plain, pos)
            if pos == 1:
                assert not np.array_equal(want[2], redrawn)
                want[2] = redrawn
            assert np.array_equal(planes_at(report, pos), want)
        assert report.verdict == "constant" and report.failure_count == 0


def overflow_surface():
    """exp(x_1) + x_2^2 - x_3^2 = 0 sampled at x_1 in [352, 354.5]: x_3 is
    about 1e76, so on some points a term of the closed form's numerator
    over the unscaled jets (f_3'^2 f_1'' f_2'') passes the float range,
    while K there is about 1e-306."""
    s = SeparableSurface(
        (parse_function("exp(x)"), parse_function("x^2"), parse_function("-(x^2)"))
    )
    return s, [(352.0, 354.5), (-1.0, 1.0)], (1e70, 1e80)


def k_overflow_surface():
    """A sphere of radius about 3e-155 scaled by 1e150, sampled near its
    center: every draw lifts within the lift's absolute tolerance, and the
    level set through each point is a sphere of radius below 5e-155, so
    K = 1/|x|^2 itself passes the float range."""
    fs = [parse_function("1e150*x^2") for _ in range(2)]
    s = SeparableSurface((*fs, parse_function("1e150*x^2 - 1e-159")))
    return s, [(-1e-155, 1e-155)] * 2, (1e-156, 4e-155)


def oracle_close(got, want):
    """got within 1e-9 of the oracle's want, relative to |want|."""
    return abs(got - want) <= 1e-9 * abs(want)


SUMMARY_FIELDS = (
    "point_count", "value_count", "failure_count", "k_min", "k_max", "k_mean", "spread",
    "verdict", "constant_estimate", "flagged_count", "max_engine_rel_dev",
)


@pytest.mark.parametrize("seed", range(1, 9))
def test_non_finite_value_leaves_scan_undetermined(seed):
    s, ranges, bracket = k_overflow_surface()
    points, failures, _ = sample_points(s, ranges, 6, seed, bracket)
    assert len(points) == 6 and failures == []
    policy = ScanPolicy(oblique_per_point=2, seed=seed)
    report = scan_constancy(s, points, policy)
    pairs = [r for r in report.records if r.kind == "pair"]
    assert pairs and all(r.k_special == r.k_oracle == INF and r.flagged for r in pairs)
    values = [r.k_special if r.kind == "pair" else r.k_oracle for r in report.records]
    assert values == [INF] * report.value_count
    assert report.value_count == 6 * 3 and report.flagged_count == len(pairs)
    assert report.verdict == "undetermined" and report.constant_estimate is None
    assert report.k_min is report.k_max is report.max_engine_rel_dev is None
    backward = scan_constancy(s, points[::-1], policy)
    assert {f: getattr(backward, f) for f in SUMMARY_FIELDS} == {
        f: getattr(report, f) for f in SUMMARY_FIELDS
    }


@pytest.mark.parametrize("seed", range(1, 9))
def test_overflowing_jet_products_give_finite_curvature(seed):
    s, ranges, bracket = overflow_surface()
    points, failures, _ = sample_points(s, ranges, 6, seed, bracket)
    assert len(points) == 6 and failures == []
    report = scan_constancy(s, points, ScanPolicy(seed=seed))
    assert report.flagged_count == report.failure_count == 0
    assert report.verdict == "constant"
    for r in report.records:
        # the oracles' difference steps are absolute, so x_3 ~ 1e76 needs
        # more than 50 digits
        with mpmath.workdps(150):
            want = brute_coordinate_k(s, r.coords, r.i, r.j)
        assert oracle_close(r.k_special, want) and oracle_close(r.k_oracle, want)
        assert r.residual_flat > 0.0   # about 4 exp(2 x_1), or inf past the float range


def test_oblique_planes_keep_the_pair_sign_at_extreme_normals():
    # n = 3, so every oblique plane is the pair's plane; the unit normal is
    # about (1, 1e-153, -1e-76), so a tangent vector's first entry is about
    # 1e-76 of its last, which projecting ambient draws onto the tangent
    # space rounded away (every plane read -K)
    s, ranges, bracket = overflow_surface()
    for seed in (1, 2, 3):
        points, failures, table = sample_points(s, ranges, 20, seed, bracket)
        assert len(points) == 20 and failures == []
        policy = ScanPolicy(oblique_per_point=2, seed=seed)
        records = scan_constancy(s, points, policy, jets=table).records
        pair = {r.sample: r.k_special for r in records if r.kind == "pair"}
        planes = [r for r in records if r.kind == "plane"]
        assert len(pair) == 20 and len(planes) == 40
        assert all(oracle_close(r.k_oracle, pair[r.sample]) for r in planes)
    # the oracle differences the normal along the unit oblique vectors,
    # whose x_3 step changes x_3 by 1e-87 of itself, while its gradient
    # difference of -x^2 at x_3 ~ 3e76 keeps about 62 of 150 digits: at 150
    # digits it reads twice this K, so it runs at 300
    with mpmath.workdps(300):
        want = brute_sectional(s, planes[0].coords, planes[0].u, planes[0].w)
    assert oracle_close(planes[0].k_oracle, want) and want > 0.0


def unit_normal_table(normal) -> JetTable:
    """A one-point table whose gradient is `normal` over its largest |entry|
    (||grad F||^2 summed as the package sums it)."""
    d1 = np.array([normal], dtype=float)
    d1 /= np.abs(d1).max()
    return JetTable(d1, np.zeros_like(d1), np.array([math.fsum(d1[0] ** 2)]), (None,))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 12).flatmap(lambda n: st.lists(
        st.tuples(st.floats(-300.0, 0.0), st.booleans()), min_size=n, max_size=n,
    )),
    st.integers(0, 2**32 - 1),
)
def test_reflector_basis_is_tangent_and_orthonormal(parts, seed):
    normal = [(-1.0 if neg else 1.0) * 10.0 ** e for e, neg in parts]
    table = unit_normal_table(normal)
    n, unit = len(normal), table.normal[0]
    basis = table.tangents(np.eye(n - 1)[None])[0]
    drawn = table.tangents(np.random.default_rng(seed).standard_normal((1, 8, n - 1)))[0]
    assert np.abs(basis @ basis.T - np.eye(n - 1)).max() <= 1e-14
    for t in (*basis, *drawn):
        # <t, N> summed exactly, products and all, against 4 eps ||t||
        dot = abs(sum(Fraction(a) * Fraction(b) for a, b in zip(t.tolist(), unit.tolist())))
        assert dot <= Fraction(2) ** -50 * Fraction(np.linalg.norm(t))


def test_scan_mean_of_values_whose_sum_overflows():
    # a sphere of radius about 3e-154 scaled by 1e150: K is near the largest
    # float, so the sum of the finite values overflows
    fs = [parse_function("1e150*x^2") for _ in range(2)]
    s = SeparableSurface((*fs, parse_function("1e150*x^2 - 1e-157")))
    points, _, _ = sample_points(s, [(-1e-154, 1e-154)] * 2, 20, 1, (1e-155, 1e-153))
    report = scan_constancy(s, points)
    values = [r.k_special if r.kind == "pair" else r.k_oracle for r in report.records]
    values = [v for v in values if math.isfinite(v)]
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


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_scan_report_keeps_one_record_block(threads):
    # however the Gauss engine is chunked, the records are the scan's one
    # block, whose row p is sample p, error points included
    surface, points = mixed_failure_points()
    report = scan_constancy(surface, points, ScanPolicy(oblique_per_point=2, seed=3), threads)
    block = report.columns
    assert isinstance(block, curvature.RecordColumns)
    assert len(block.coords) == report.point_count == len(points)
    for p, point in enumerate(points):
        assert block.coords[p] == point.coords
    assert block.point_errors and {r.sample for r in report.records} == set(range(len(points)))


def test_scan_bounds_planes_per_chunk(monkeypatch):
    s, pts = sphere_points(4, 2.0, 20, 64)
    policy = ScanPolicy(oblique_per_point=6, seed=64)
    whole = scan_constancy(s, pts, policy)
    sizes = []
    real_gauss = curvature._gauss

    def spy(table, u, w):
        sizes.append(len(table.d1))
        return real_gauss(table, u, w)

    monkeypatch.setattr(curvature, "_gauss", spy)
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
    values = [
        rec.k_special if rec.kind == "pair" else rec.k_oracle
        for rec in report.records if rec.kind != "error"
    ]
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
    with pytest.raises(AttributeError):
        rec.k_oracle = 1.0
    with pytest.raises(AttributeError):
        rec.extra = 1.0


def test_scan_records_follow_sample_pair_plane_order(monkeypatch):
    s, pts = mixed_failure_points()
    policy = ScanPolicy(oblique_per_point=3, seed=5)
    report = scan_constancy(s, pts, policy)
    want = []
    for pos, p in enumerate(pts):
        if point_error(s, p) is not None:
            want.append((pos, "error", None, None))
            continue
        want.extend((pos, "pair", i, j) for i, j in combinations(s.non_height, 2))
        want.extend([(pos, "plane", None, None)] * 3)
    assert all(type(r) is ScanRecord for r in report.records)
    assert [(r.sample, r.kind, r.i, r.j) for r in report.records] == want
    # a sample's records share its point's coords tuple
    assert all(r.coords is pts[r.sample].coords for r in report.records)
    # a scan builds one generator, keyed off (seed, PLANE_STREAM), whose
    # draws its chunks take in point order, so any chunking gives the same
    # planes: 4 to 8 chunks below, one above
    seeds = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or
                        REAL_DEFAULT_RNG(seed))
    monkeypatch.setattr(curvature, "CHUNK_PLANES", 15)
    for threads in (1, 2, 3, len(pts)):
        seeds.clear()
        assert scan_constancy(s, pts, policy, threads=threads).records == report.records
        assert len(seeds) == 1 and isinstance(seeds[0], np.random.SeedSequence)
        assert (seeds[0].entropy, seeds[0].spawn_key) == (5, curvature.PLANE_STREAM)


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**96, 2**100, 2**130])
def test_plane_stream_differs_from_the_sampling_and_redraw_streams(seed):
    # default_rng(seed) and default_rng([seed]) are one stream; a one-word
    # spawn key would equal [seed, 0] from seed 2^96
    plane = np.random.SeedSequence(seed, spawn_key=curvature.PLANE_STREAM)
    first = REAL_DEFAULT_RNG(plane).standard_normal(4)
    others = [seed, [seed], *([seed, pos] for pos in (0, 1, 2, 2**32, 2**40))]
    for key in others:
        assert not np.array_equal(REAL_DEFAULT_RNG(key).standard_normal(4), first), key


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
    if name == "k-overflow":
        s, ranges, bracket = k_overflow_surface()
        points, _, _ = sample_points(s, ranges, 6, 1, bracket)
        return scan_constancy(s, points, ScanPolicy(oblique_per_point=2, seed=1))
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
    "k-overflow", "sum-overflow", "one-disagreement", "chunked", "signed-zeros",
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
