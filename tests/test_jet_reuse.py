"""The lift's jet table feeds the scan, and scan records are built on read.

`sample_points` returns the gated jet table its lift evaluated, and
`scan_constancy(..., jets=table)` scans from it: no f_k is walked twice, and
every record, summary field and report body is the same as a scan that
evaluates its own table.  A report keeps the engines' arrays, and its
`ScanRecord`s are built the first time `.records` is read, never by the
suites or the report writers.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from sepcurv import (
    ScanPolicy,
    load_spec,
    make_hypersphere,
    report_body_csv,
    report_body_json,
    run_constant_suite,
    run_flat_suite,
    sample_points,
    scan_constancy,
)
from sepcurv import curvature, geometry, suites
from sepcurv.geometry import jet_table

from lifts import MIXED_BRACKET, MIXED_RANGES, mixed_surface

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
KW = {"input_digest": "sha256:abc", "tool_version": "1.0.0"}


def _walks(monkeypatch) -> list[tuple[object, int, bool]]:
    """Record every `eval_jets` call made through `sepcurv.geometry` as
    (function, number of points, whether a `sample_points` call is running),
    with `sample_points` spied on in each module that calls it."""
    calls: list[tuple[object, int, bool]] = []
    lifting = []
    real_eval, real_sample = geometry.eval_jets, geometry.sample_points

    def eval_jets(f, xs):
        calls.append((f, len(xs), bool(lifting)))
        return real_eval(f, xs)

    def sample(*args, **kwargs):
        lifting.append(True)
        try:
            return real_sample(*args, **kwargs)
        finally:
            lifting.pop()

    monkeypatch.setattr(geometry, "eval_jets", eval_jets)
    for module in (geometry, curvature, suites):
        monkeypatch.setattr(module, "sample_points", sample)
    return calls


def test_sample_and_scan_walks_each_function_once_per_lift_step(monkeypatch):
    n, count = 5, 12
    surface = make_hypersphere([0.0] * n, 2.0)
    half = 2.0 / (2.0 * np.sqrt(n - 1))
    calls = _walks(monkeypatch)
    report, failures = curvature.sample_and_scan(
        surface, [(-half, half)] * (n - 1), count, 3, (0.2, 2.02), ScanPolicy(oblique_per_point=2)
    )
    assert not failures and report.point_count == count
    assert all(lifting for _, _, lifting in calls)   # the scan itself walks nothing
    fh = surface.funcs[surface.height - 1]
    # the n - 1 column walks over every draw, in coordinate order ...
    columns = [(f, size) for f, size, _ in calls[:n - 1]]
    assert columns == [(f, count) for f in surface.funcs if f is not fh]
    # ... then one walk of f_h per lift step: one two-point walk over both
    # bracket ends, one one-point walk at the midpoint every partial starts
    # from, and each later step over the partials still unsolved (no draw
    # here settles at a bracket end)
    steps = [size for f, size, _ in calls[n - 1:]]
    assert all(f is fh for f, _, _ in calls[n - 1:])
    assert steps[:2] == [2, 1] and len(steps) > 2 and steps[2] <= count
    assert steps[2:] == sorted(steps[2:], reverse=True) and steps[-1] >= 1


def test_suite_control_row_makes_no_second_walk(monkeypatch):
    calls = _walks(monkeypatch)
    rows = run_constant_suite(radii=(1.0,), dims=(4,), count=6, oblique=1)
    assert all(row.ok for row in rows)
    assert calls and all(lifting for _, _, lifting in calls)


def _same_reports(a, b) -> None:
    """Every record and summary field the same bits (`repr` tells NaNs and
    signed zeros apart), and both bodies byte for byte."""
    assert repr(a.records) == repr(b.records)
    for field in dataclasses.fields(a):
        assert repr(getattr(a, field.name)) == repr(getattr(b, field.name)), field.name
    assert report_body_json(a, **KW) == report_body_json(b, **KW)
    assert report_body_csv(a) == report_body_csv(b)


def _scans(surface, ranges, count, seed, bracket, policy):
    samples = sample_points(surface, ranges, count, seed, bracket)
    # the lift's table holds the bits a second walk would give
    again = jet_table(surface, samples.points)
    for name in ("d1", "d2", "sq_norm"):
        assert getattr(samples.table, name).tobytes() == getattr(again, name).tobytes()
    assert samples.table.jet_errors == again.jet_errors
    given = scan_constancy(surface, samples.points, policy, jets=samples.table)
    own = scan_constancy(surface, samples.points, policy)
    return samples, given, own


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.name)
def test_scan_with_the_lift_table_matches_a_scan_without(path):
    spec = load_spec(str(path))
    policy = ScanPolicy(oblique_per_point=spec.oblique, seed=spec.seed)
    _, given, own = _scans(spec.surface, spec.ranges, spec.count, spec.seed, spec.bracket, policy)
    _same_reports(given, own)


def test_scan_with_failing_draws_matches_a_scan_without():
    surface = mixed_surface()
    policy = ScanPolicy(oblique_per_point=3, seed=5)
    samples, given, own = _scans(surface, MIXED_RANGES, 80, 5, MIXED_BRACKET, policy)
    assert samples.failures and len(samples.points) >= 2
    _same_reports(given, own)


@pytest.mark.parametrize("reject", [False, True])
def test_a_scan_with_the_lift_table_redraws_from_it(monkeypatch, reject):
    # with `reject`, point 0's first oblique pair is redrawn: on the lift's
    # table, no f_k is walked again, and the plane is the one a scan of its
    # own table draws
    surface = make_hypersphere([0.0] * 4, 2.0)
    policy = ScanPolicy(oblique_per_point=4, seed=7)
    samples = sample_points(surface, [(-0.5, 0.5)] * 3, 25, 7, (0.2, 2.02))
    plain = scan_constancy(surface, samples.points, policy, jets=samples.table)
    real_draw = curvature._draw_planes

    def reject_first(jets, coef):
        u, w, ok = real_draw(jets, coef)
        if coef.ndim == 4:   # the scan's one draw of every point's pairs
            ok[0, 0] = False
        return u, w, ok

    if reject:
        monkeypatch.setattr(curvature, "_draw_planes", reject_first)
    calls = _walks(monkeypatch)
    given = scan_constancy(surface, samples.points, policy, jets=samples.table)
    assert calls == []
    _same_reports(given, scan_constancy(surface, samples.points, policy))
    moved = given.columns.u[:, 0] != plain.columns.u[:, 0]
    assert moved.any(axis=1).tolist() == [reject] + [False] * 24


def test_a_table_of_another_shape_is_refused():
    surface = make_hypersphere([0.0] * 4, 2.0)
    samples = sample_points(surface, [(-0.5, 0.5)] * 3, 6, 1, (0.2, 2.02))
    with pytest.raises(ValueError, match=r"jet table of shape \(5, 4\) does not fit 6 points"):
        scan_constancy(surface, samples.points, jets=jet_table(surface, samples.points[1:]))
    with pytest.raises(ValueError, match=r"does not fit 5 points"):
        scan_constancy(surface, samples.points[1:], jets=samples.table)


def _count_record_builds(monkeypatch) -> list:
    """A list that gains one entry per `ScanRecord` built through the name
    in any `sepcurv` module, by call or by `_make`."""
    built = []
    real = curvature.ScanRecord

    class Counted:
        def __call__(self, *args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        def _make(self, fields):
            built.append(1)
            return real._make(fields)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("sepcurv") and \
                getattr(module, "ScanRecord", None) is real:
            monkeypatch.setattr(module, "ScanRecord", Counted())
    return built


def test_records_are_built_once_on_first_read(monkeypatch):
    built = _count_record_builds(monkeypatch)
    surface = make_hypersphere([0.0] * 4, 2.0)
    points, _, table = sample_points(surface, [(-0.5, 0.5)] * 3, 12, 2, (0.2, 2.02))
    report = scan_constancy(surface, points, ScanPolicy(oblique_per_point=2), jets=table)
    assert report.failure_count == 0 and report.value_count == 12 * (3 + 2)
    # the writers read the engines' arrays, not records
    report_body_json(report, **KW), report_body_csv(report)
    assert built == []
    first = report.records
    assert len(first) == 12 * (3 + 2) and len(built) == len(first)
    assert report.records is first
    assert len(built) == len(first)


def test_suites_never_build_records(monkeypatch):
    built = _count_record_builds(monkeypatch)
    assert all(row.ok for row in run_flat_suite(dims=(4,), count=5))
    assert all(row.ok for row in run_constant_suite(radii=(1.0,), dims=(4,), count=5, oblique=1))
    assert built == []
    # the spy sees the records a read builds
    surface = make_hypersphere([0.0] * 4, 2.0)
    points, _, table = sample_points(surface, [(-0.5, 0.5)] * 3, 3, 1, (0.2, 2.02))
    records = scan_constancy(surface, points, jets=table).records
    assert len(built) == len(records) == 9
