import csv
import io
import json
import math

import numpy as np
import pytest

from sepcurv import geometry
from sepcurv import (
    BracketError,
    ConvergenceError,
    DomainError,
    NonFiniteError,
    RegularityError,
    ScanPolicy,
    SeparableSurface,
    build_mesh,
    ensure_regular,
    parse_function,
    random_tangent_plane,
    report_body_csv,
    report_body_json,
    sample_points,
    solve_height,
)
from sepcurv.curvature import sample_and_scan
from sepcurv.errors import describe

from lifts import MIXED_BRACKET, MIXED_RANGES, mixed_surface, solve_verdicts, spy_second_evaluations
from oracles import fd_unit_normal, surface_point

INF = math.inf


def sphere(n: int, radius: float) -> SeparableSurface:
    fs = [parse_function("x^2") for _ in range(n - 1)]
    fs.append(parse_function(f"x^2 - {radius * radius!r}"))
    return SeparableSurface(tuple(fs))


def log_surface(n: int = 4) -> SeparableSurface:
    # -log(x_1) - ... - log(x_{n-1}) + 2 log(x_n) = 0
    fs = [parse_function("-log(x)", (0.0, INF)) for _ in range(n - 1)]
    fs.append(parse_function("2*log(x)", (0.0, INF)))
    return SeparableSurface(tuple(fs))


def linear_surface(n: int = 4) -> SeparableSurface:
    return SeparableSurface(tuple(parse_function("x") for _ in range(n)))


# ------------------------------------------------------------ construction


def test_needs_three_functions():
    with pytest.raises(ValueError):
        SeparableSurface((parse_function("x"), parse_function("x")))


def test_height_defaults_to_last():
    s = sphere(4, 1.0)
    assert s.height == 4
    assert s.non_height == (1, 2, 3)


def test_height_validation():
    fs = tuple(parse_function("x") for _ in range(4))
    assert SeparableSurface(fs, height=2).non_height == (1, 3, 4)
    with pytest.raises(ValueError):
        SeparableSurface(fs, height=0)
    with pytest.raises(ValueError):
        SeparableSurface(fs, height=5)
    with pytest.raises(ValueError):
        SeparableSurface(fs, height=2.0)


def test_lift_puts_height_in_its_slot():
    fs = tuple(parse_function("x") for _ in range(4))
    s = SeparableSurface(fs, height=2)
    assert solve_height(s, (9.0, 8.0, 7.0), (-30.0, 30.0)).coords == (9.0, -24.0, 8.0, 7.0)
    with pytest.raises(ValueError):
        solve_height(s, (9.0, 8.0), (-30.0, 30.0))


# ------------------------------------------------------------------ points
# the on-surface oracle `oracles.surface_point`, which the checks below that
# lifted points lie on the surface use


def test_point_accepts_exact_coordinates():
    p = surface_point(log_surface(), (1.0, 1.0, 1.0, 1.0))
    assert p.residual == 0.0
    assert p.coords == (1.0, 1.0, 1.0, 1.0)


def test_point_rejects_off_surface():
    with pytest.raises(AssertionError, match="exceeds"):
        surface_point(log_surface(), (1.1, 1.0, 1.0, 1.0))
    with pytest.raises(AssertionError, match="outside the domain"):
        surface_point(log_surface(), (-1.0, 1.0, 1.0, 1.0))


def test_point_tolerance_is_scale_relative():
    # residual 5e-13 on O(1) values is accepted, surface sum ~ 1e-13 scale
    s = linear_surface()
    p = surface_point(s, (1.0, 2.0, -3.0, 5e-13))
    assert p.residual == 5e-13
    with pytest.raises(AssertionError, match="exceeds"):
        surface_point(s, (1.0, 2.0, -3.0, 1e-11))


# ------------------------------------------------------------ height solve


def test_solve_linear_exact():
    s = linear_surface()
    p = solve_height(s, (1.0, 2.0, 3.0), (-12.0, 12.0))
    assert p.coords == (1.0, 2.0, 3.0, -6.0)
    assert p.residual == 0.0


def test_solve_sphere_frozen_height():
    s = sphere(4, 2.0)
    p = solve_height(s, (0.3, -0.2, 0.5), (0.2, 2.02))
    assert p.coords[3] == pytest.approx(math.sqrt(3.62), abs=1e-12)
    assert p.coords[3] == pytest.approx(1.9026297590440449, abs=1e-12)
    surface_point(s, p.coords)


def test_solve_is_deterministic():
    s = sphere(4, 2.0)
    a = solve_height(s, (0.3, -0.2, 0.5), (0.2, 2.02))
    b = solve_height(s, (0.3, -0.2, 0.5), (0.2, 2.02))
    assert a.coords == b.coords
    assert a.residual == b.residual


def test_solve_log_height():
    s = log_surface()
    p = solve_height(s, (2.0, 1.0, 0.5), (0.25, 4.0))
    # 2 log t = log 2 + log 0.5 = 0, so t = 1
    assert p.coords[3] == pytest.approx(1.0, abs=1e-12)


def test_solve_respects_height_index():
    fs = (
        parse_function("2*log(x)", (0.0, INF)),
        parse_function("-log(x)", (0.0, INF)),
        parse_function("-log(x)", (0.0, INF)),
        parse_function("-log(x)", (0.0, INF)),
    )
    s = SeparableSurface(fs, height=1)
    p = solve_height(s, (2.0, 1.0, 2.0), (0.5, 8.0))
    assert p.coords[0] == pytest.approx(2.0, abs=1e-12)
    assert p.coords[1:] == (2.0, 1.0, 2.0)


def test_solve_accepts_bracket_endpoint_root():
    s = linear_surface()
    p = solve_height(s, (1.0, 2.0, 3.0), (-6.0, 6.0))
    assert p.coords[3] == -6.0


def test_solve_no_sign_change():
    with pytest.raises(BracketError, match="no sign change"):
        solve_height(sphere(4, 2.0), (0.1, 0.1, 0.1), (0.2, 0.5))


def test_solve_bracket_order_check():
    with pytest.raises(
        ValueError, match=r"bracket needs lo < hi a finite distance apart, got \[2.0, 0.2\]"
    ):
        solve_height(sphere(4, 2.0), (0.1, 0.1, 0.1), (2.0, 0.2))


def test_solve_bracket_outside_domain():
    with pytest.raises(DomainError, match="not inside height domain"):
        solve_height(log_surface(), (1.0, 1.0, 1.0), (-1.0, 5.0))


def test_solve_partial_outside_domain():
    with pytest.raises(DomainError):
        solve_height(log_surface(), (-0.5, 1.0, 1.0), (0.25, 4.0))


def test_solve_partial_length_check():
    with pytest.raises(ValueError, match="partial coordinates"):
        solve_height(sphere(4, 2.0), (0.1, 0.1), (0.2, 2.02))


def test_solve_flags_singular_root():
    fs = (parse_function("x"), parse_function("x"), parse_function("x^3"))
    s = SeparableSurface(fs)
    with pytest.raises(RegularityError, match="height slope"):
        solve_height(s, (0.5, -0.5), (-5.0, 5.0))


def test_solve_flags_gradient_norm_overflow():
    # each square is finite, their sum is not; the root itself is regular
    fs = (parse_function("1e154*x"), parse_function("1e154*x"), parse_function("x"))
    s = SeparableSurface(fs)
    with pytest.raises(NonFiniteError, match="overflows"):
        solve_height(s, (1e-154, -1e-154), (-1.0, 1.0))


@pytest.mark.parametrize(
    "first, second, height",
    [
        ("1e308 + 0*x", "1e308 + 0*x", "x"),
        ("1e308 + 0*x", "-1e308 + 0*x", "x"),     # sums to 0, its magnitudes overflow
        ("1.5e308 + 0*x", "x", "1e308 + x"),     # overflows only with the height's value
    ],
)
def test_value_sum_overflow_is_non_finite(first, second, height):
    # finite values whose sum of magnitudes overflows fail at the first
    # bracket end: an infinite tolerance would accept any root
    s = SeparableSurface(tuple(parse_function(e) for e in (first, second, height)))
    message = r"sum of \|f_k\| overflows at \(0.1, 0.2, -1.0\)$"
    with pytest.raises(NonFiniteError, match=message):
        solve_height(s, (0.1, 0.2), (-1.0, 1.0))
    points, failures, _ = sample_points(s, [(0.0, 1.0)] * 2, 3, 0, (-1.0, 1.0))
    assert points == [] and len(failures) == 3
    assert all("NonFiniteError: sum of |f_k|" in f for _, f in failures)


def test_solve_iteration_cap(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_SOLVE_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations"):
        solve_height(sphere(4, 2.0), (0.3, -0.2, 0.5), (0.2, 2.02))


# ------------------------------------------------------------------ normals


def test_unit_normal_log_surface():
    s = log_surface()
    p = surface_point(s, (1.0, 1.0, 1.0, 1.0))
    normal = geometry.point_jets(s, p).normal[0]
    root7 = math.sqrt(7.0)
    expected = np.array([-1.0, -1.0, -1.0, 2.0]) / root7
    assert np.allclose(normal, expected, atol=1e-15, rtol=0.0)
    assert np.allclose(normal, fd_unit_normal(s, p.coords), atol=1e-9, rtol=0.0)


def test_unit_normal_rejects_singular_gradient():
    # all slopes vanish at the common vertex of the squares
    bogus = SeparableSurface(tuple(parse_function("x^2") for _ in range(4)))
    p = surface_point(bogus, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(RegularityError, match="gradient norm"):
        random_tangent_plane(bogus, p, np.random.default_rng(0))
    with pytest.raises(RegularityError, match="gradient norm"):
        ensure_regular(bogus, p)


def test_ensure_regular_checks_height_slope():
    # gradient is fine but the height slope vanishes
    fs = (parse_function("x"), parse_function("x"), parse_function("x^2 - 2"))
    s = SeparableSurface(fs)
    p = surface_point(s, (1.0, 1.0, 0.0))

    with pytest.raises(RegularityError, match="height slope"):
        ensure_regular(s, p)


# ---------------------------------------------------------------- sampling


def test_sample_points_deterministic():
    s = sphere(4, 2.0)
    ranges = [(-0.9, 0.9)] * 3
    a_pts, a_fail, _ = sample_points(s, ranges, 40, 11, (0.05, 2.02))
    b_pts, b_fail, _ = sample_points(s, ranges, 40, 11, (0.05, 2.02))
    assert [p.coords for p in a_pts] == [p.coords for p in b_pts]
    assert a_fail == b_fail
    c_pts, _, _ = sample_points(s, ranges, 40, 12, (0.05, 2.02))
    assert [p.coords for p in a_pts] != [p.coords for p in c_pts]


def test_sample_points_draws_match_numpy():
    s = linear_surface()
    ranges = [(-2.0, 2.0), (0.0, 1.0), (5.0, 6.0)]
    pts, fails, _ = sample_points(s, ranges, 25, 99, (-40.0, 40.0))
    assert fails == []
    rng = np.random.default_rng(99)
    draws = rng.uniform(
        np.array([-2.0, 0.0, 5.0]), np.array([2.0, 1.0, 6.0]), size=(25, 3)
    )
    got = np.array([p.coords[:3] for p in pts])
    assert np.array_equal(got, draws)


def test_sample_points_records_failures():
    s = sphere(4, 1.0)
    pts, fails, _ = sample_points(s, [(-0.9, 0.9)] * 3, 60, 5, (0.05, 1.01))
    assert len(pts) + len(fails) == 60
    assert fails, "expected some draws outside the unit ball"
    assert all(reason.startswith("BracketError") for _, reason in fails)
    for p in pts:
        surface_point(s, p.coords)
        ensure_regular(s, p)


def test_sample_points_records_domain_failures():
    fs = (
        parse_function("log(x)", (0.0, INF)),
        parse_function("x"),
        parse_function("x"),
    )
    s = SeparableSurface(fs)
    count = 50
    pts, fails, _ = sample_points(s, [(-1.0, 2.0), (-1.0, 1.0)], count, 17, (-40.0, 40.0))
    rng = np.random.default_rng(17)
    draws = rng.uniform(np.array([-1.0, -1.0]), np.array([2.0, 1.0]), size=(count, 2))
    bad = {i for i in range(count) if draws[i, 0] <= 0.0}
    assert {i for i, _ in fails} == bad
    assert all(reason.startswith("DomainError") for _, reason in fails)
    assert len(pts) == count - len(bad)


def test_sample_points_validation():
    s = sphere(4, 1.0)
    with pytest.raises(ValueError, match="count"):
        sample_points(s, [(-1.0, 1.0)] * 3, 0, 1, (0.05, 1.01))
    with pytest.raises(ValueError, match="ranges"):
        sample_points(s, [(-1.0, 1.0)] * 2, 5, 1, (0.05, 1.01))
    with pytest.raises(ValueError, match="lo < hi"):
        sample_points(s, [(-1.0, 1.0), (1.0, 1.0), (-1.0, 1.0)], 5, 1, (0.05, 1.01))
    with pytest.raises(ValueError):
        sample_points(s, [(-1.0, 1.0)] * 3, 5, -1, (0.05, 1.01))


def test_sample_points_drops_what_solve_height_rejects():
    s = mixed_surface()
    pts, fails, _ = sample_points(s, MIXED_RANGES, 80, 5, MIXED_BRACKET)
    lows, highs = zip(*MIXED_RANGES)
    draws = np.random.default_rng(5).uniform(lows, highs, size=(80, 2)).tolist()
    verdicts = solve_verdicts(s, draws, MIXED_BRACKET)
    kinds = {v.split(":")[0] for v in verdicts if v}
    assert kinds == {"BracketError", "DomainError", "RegularityError"}
    assert fails == [(i, v) for i, v in enumerate(verdicts) if v]
    kept = [d for d, v in zip(draws, verdicts) if v is None]
    assert [p.coords for p in pts] == [solve_height(s, d, MIXED_BRACKET).coords for d in kept]


def test_sample_points_evaluates_lifted_jets_once(monkeypatch):
    calls = spy_second_evaluations(monkeypatch)
    pts, fails, _ = sample_points(mixed_surface(), MIXED_RANGES, 40, 5, MIXED_BRACKET)
    assert pts and fails
    assert calls == []


# ------------------------------------------------------- bracket-miss texts

# x_1 + exp(x_2) + x_3 = 0 over these ranges: a draw lifts where
# x_1 + exp(x_2) lies in [-3.25, -2], and otherwise misses the bracket with
# g of either sign, past 1e100 where x_2 > 230
MISS_RANGES = [(-4.0, -1.0), (-40.0, 260.0)]
MISS_BRACKET = (2.0, 3.25)
# two draws of `sample_points(miss_surface(), MISS_RANGES, 32, 1, ...)`,
# with the texts the lift wrote when it formatted every miss as it found it
PINNED_MISSES = {
    11: "BracketError: no sign change in bracket (2.0, 3.25): "
        "g(lo) = 2.551802e+110, g(hi) = 2.551802e+110",
    27: "BracketError: no sign change in bracket (2.0, 3.25): "
        "g(lo) = -1.426028e+00, g(hi) = -1.760280e-01",
}


def miss_surface() -> SeparableSurface:
    return SeparableSurface(tuple(map(parse_function, ("x", "exp(x)", "x"))))


def test_bracket_miss_texts_match_on_every_path():
    s = miss_surface()
    samples = sample_points(s, MISS_RANGES, 32, 1, MISS_BRACKET)
    assert len(samples.points) >= 2
    lows, highs = zip(*MISS_RANGES)
    draws = np.random.default_rng(1).uniform(lows, highs, size=(32, 2))
    report, failures = sample_and_scan(s, MISS_RANGES, 32, 1, MISS_BRACKET, ScanPolicy())
    assert failures == samples.failures
    body = report_body_json(report, input_digest="sha256:abc", tool_version="1.0.0",
                            sampling_failures=failures)
    in_json = {e["draw_index"]: e["error"] for e in json.loads(body)["sampling_failures"]}
    in_csv = {int(row[0]): row[9] for row in csv.reader(io.StringIO(report_body_csv(report, failures)))
              if row[1] == "sample_error"}
    for draw, text in PINNED_MISSES.items():
        assert dict(samples.failures)[draw] == text
        with pytest.raises(BracketError) as info:
            solve_height(s, draws[draw], MISS_BRACKET)
        assert describe(info.value) == text
        assert repr(info.value) == f"BracketError({text.split(': ', 1)[1]!r})"
        # built from one message, it reads as that message
        assert repr(BracketError(str(info.value))) == repr(info.value)
        assert in_json[draw] == in_csv[draw] == text


def test_bracket_misses_are_formatted_only_when_read(monkeypatch):
    made, formatted, text = [], [], BracketError.__str__

    class Recorded(BracketError):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def spy(exc):
        formatted.append(exc)
        return text(exc)

    monkeypatch.setattr(geometry, "BracketError", Recorded)
    monkeypatch.setattr(BracketError, "__str__", spy)
    mesh = build_mesh(miss_surface(), MISS_RANGES, (12, 12), MISS_BRACKET)
    assert mesh.dropped and len(made) <= mesh.dropped
    assert formatted == []   # a mesh counts its misses and reads none
    # each miss keeps its numbers: the bracket and both ends' g
    assert made and all(exc.args[:2] == MISS_BRACKET and len(exc.args) == 4 for exc in made)
    assert str(made[0]).startswith("no sign change in bracket (2.0, 3.25): g(lo) = ")
    assert formatted == made[:1]
