import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcurv.cli
from sepcurv import curvature
from sepcurv import (
    CurvatureReport,
    ScanPolicy,
    SeparableSurface,
    parse_function,
    read_report_body,
    report_body_csv,
    report_body_json,
    sample_points,
    scan_constancy,
    write_report,
)
from sepcurv.cli import main
from sepcurv.curvature import RecordColumns

from reference_report import reference_body_csv, reference_body_json

CSV_COLUMNS = [
    "sample", "kind", "i", "j", "k_special", "k_oracle",
    "residual_flat", "residual_constk", "flagged", "error", "coords", "u", "w",
]


def sphere_report(oblique=2, count=3, threads=1):
    fs = [parse_function("x^2") for _ in range(3)]
    fs.append(parse_function("x^2 - 4.0"))
    surface = SeparableSurface(tuple(fs))
    pts, fails, _ = sample_points(surface, [(-0.5, 0.5)] * 3, count, 5, (0.2, 2.02))
    assert not fails
    policy = ScanPolicy(oblique_per_point=oblique, seed=9)
    return scan_constancy(surface, pts, policy, threads=threads)


REAL_GAUSS = curvature._gauss


def off_tangent(table, u, w):
    """`_gauss` with a plane forced off the tangent space at points whose
    normal's first entry is far from 0: the first pair plane where it is
    above 0.1, which fails the point, and the last oblique plane where it
    is below -0.1, which fails that plane alone."""
    u, normal = u.copy(), table.normal
    for rows, plane in ((normal[:, 0] > 0.1, 0), (normal[:, 0] < -0.1, -1)):
        u[rows, plane] = normal[rows]
    return REAL_GAUSS(table, u, w)


def synthetic_columns(errors=()):
    """A hand-built block exercising every record kind and both flag
    values: sample 0 holds both pairs and the one plane, sample 1 is an
    error, and each text in `errors` adds one more error row."""
    rows = 2 + len(errors)
    k_special, k_oracle, flat = np.zeros((rows, 2)), np.zeros((rows, 3)), np.zeros((rows, 2))
    flagged, u, w = np.zeros((rows, 2), dtype=bool), np.zeros((rows, 1, 3)), np.zeros((rows, 1, 3))
    k_special[0], k_oracle[0], flat[0] = [0.25, 0.5], [0.1 + 0.2, 0.5, 0.25], [-1.5e-17, 0.0]
    flagged[0], u[0, 0], w[0, 0] = [False, True], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]
    texts = ["RegularityError: gradient too small", *errors]
    return RecordColumns(
        coords=[(1.0, 2.0, 3.0), (0.0, 0.0, 0.0)] + [(0.5, -0.0, 1e-300)] * len(errors),
        pairs=[(1, 2), (1, 3)], k_special=k_special, k_oracle=k_oracle, flagged=flagged,
        u=u, w=w, point_errors=dict(enumerate(texts, start=1)), plane_errors={}, residuals=flat,
    )


def synthetic_report():
    """Hand-built report of the `synthetic_columns` block."""
    return CurvatureReport(
        n=3,
        seed=7,
        constancy_tol=1e-7,
        oblique_per_point=1,
        columns=synthetic_columns(),
        point_count=2,
        value_count=3,
        failure_count=1,
        k_min=0.25,
        k_max=0.5,
        k_mean=1.0 / 3.0,
        spread=0.25,
        verdict="not constant",
        constant_estimate=None,
        flagged_count=1,
        max_engine_rel_dev=0.05,
    )


# ------------------------------------------------------------------- JSON


def test_json_body_is_canonical():
    report = synthetic_report()
    body = report_body_json(report, input_digest="sha256:abc", tool_version="1.0.0")
    assert body.endswith("\n")
    doc = json.loads(body)
    assert body == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    again = report_body_json(report, input_digest="sha256:abc", tool_version="1.0.0")
    assert body == again


def test_json_top_level_fields():
    report = synthetic_report()
    body = report_body_json(
        report,
        input_digest="sha256:abc",
        tool_version="1.0.0",
        sampling_failures=[(4, "DomainError: log(x) needs x > 0, got x = 0.0")],
    )
    doc = json.loads(body)
    assert set(doc) == {
        "format_version", "tool", "tool_version", "input_digest", "seed", "n",
        "constancy_tol", "oblique_planes_per_point", "sampling_failures",
        "records", "summary",
    }
    assert doc["format_version"] == 1
    assert doc["tool"] == "sepcurv"
    assert doc["tool_version"] == "1.0.0"
    assert doc["input_digest"] == "sha256:abc"
    assert doc["seed"] == 7
    assert doc["n"] == 3
    assert doc["constancy_tol"] == 1e-7
    assert doc["oblique_planes_per_point"] == 1
    assert doc["sampling_failures"] == [
        {"draw_index": 4, "error": "DomainError: log(x) needs x > 0, got x = 0.0"}
    ]
    assert doc["summary"] == {
        "points": 2,
        "values": 3,
        "failures": 1,
        "k_min": 0.25,
        "k_max": 0.5,
        "k_mean": 1.0 / 3.0,
        "spread": 0.25,
        "verdict": "not constant",
        "constant_estimate": None,
        "flagged": 1,
        "max_engine_rel_dev": 0.05,
    }


def test_json_record_shapes():
    body = report_body_json(
        synthetic_report(), input_digest="sha256:abc", tool_version="1.0.0"
    )
    plain_pair, flagged_pair, plane, error = json.loads(body)["records"]

    assert set(plain_pair) == {
        "sample", "kind", "coords", "i", "j",
        "k_special", "k_oracle", "residual_flat", "flagged",
    }
    assert plain_pair["kind"] == "pair"
    assert plain_pair["coords"] == [1.0, 2.0, 3.0]
    assert plain_pair["k_oracle"] == 0.1 + 0.2
    assert plain_pair["flagged"] is False

    assert set(flagged_pair) == set(plain_pair)
    assert flagged_pair["flagged"] is True

    assert set(plane) == {"sample", "kind", "coords", "u", "w", "k_oracle"}
    assert plane["u"] == [1.0, 0.0, 0.0]
    assert plane["w"] == [0.0, 0.6, 0.8]

    assert set(error) == {"sample", "kind", "coords", "error"}
    assert error["error"].startswith("RegularityError:")


def test_json_floats_survive_round_trip():
    surface_report = sphere_report()
    body = report_body_json(
        surface_report, input_digest="sha256:x", tool_version="1.0.0"
    )
    doc = json.loads(body)
    for rec, parsed in zip(surface_report.records, doc["records"]):
        if rec.kind == "pair":
            assert parsed["k_special"] == rec.k_special
            assert parsed["residual_flat"] == rec.residual_flat
        else:
            assert parsed["k_oracle"] == rec.k_oracle
            assert parsed["u"] == list(rec.u)
    assert doc["summary"]["k_mean"] == surface_report.k_mean
    assert doc["summary"]["constant_estimate"] == surface_report.constant_estimate


def test_json_omits_constk_without_k0():
    # a scan fills no constant-curvature residual: `eval --k0` reports it
    body = report_body_json(sphere_report(), input_digest="sha256:x", tool_version="1.0.0")
    for rec in json.loads(body)["records"]:
        assert "residual_constk" not in rec


# -------------------------------------------------------------------- CSV


def test_csv_layout():
    report = synthetic_report()
    body = report_body_csv(report, sampling_failures=[(4, "DomainError: boom")])
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + len(report.records) + 1

    plain_pair = dict(zip(CSV_COLUMNS, rows[1]))
    assert plain_pair["kind"] == "pair"
    assert plain_pair["i"] == "1" and plain_pair["j"] == "2"
    assert plain_pair["k_oracle"] == repr(0.1 + 0.2)
    assert plain_pair["residual_flat"] == repr(-1.5e-17)
    assert plain_pair["residual_constk"] == ""
    assert plain_pair["flagged"] == "False"
    assert plain_pair["coords"] == "1.0;2.0;3.0"
    assert plain_pair["u"] == "" and plain_pair["w"] == ""

    flagged_pair = dict(zip(CSV_COLUMNS, rows[2]))
    assert flagged_pair["residual_constk"] == ""
    assert flagged_pair["flagged"] == "True"

    plane = dict(zip(CSV_COLUMNS, rows[3]))
    assert plane["kind"] == "plane"
    assert plane["i"] == "" and plane["flagged"] == ""
    assert plane["u"] == "1.0;0.0;0.0"
    assert plane["w"] == "0.0;0.6;0.8"

    error = dict(zip(CSV_COLUMNS, rows[4]))
    assert error["kind"] == "error"
    assert error["error"] == "RegularityError: gradient too small"
    assert error["k_special"] == "" and error["u"] == ""

    failure = dict(zip(CSV_COLUMNS, rows[5]))
    assert failure["sample"] == "4"
    assert failure["kind"] == "sample_error"
    assert failure["error"] == "DomainError: boom"
    assert failure["coords"] == ""


def test_csv_cells_restore_exact_floats():
    report = sphere_report()
    rows = list(csv.reader(io.StringIO(report_body_csv(report))))
    assert len(rows) == 1 + len(report.records)
    for rec, row in zip(report.records, rows[1:]):
        cells = dict(zip(CSV_COLUMNS, row))
        assert [float(c) for c in cells["coords"].split(";")] == list(rec.coords)
        if rec.kind == "pair":
            assert float(cells["k_special"]) == rec.k_special
            assert float(cells["residual_flat"]) == rec.residual_flat
        else:
            assert float(cells["k_oracle"]) == rec.k_oracle
            assert [float(c) for c in cells["w"].split(";")] == list(rec.w)


def test_csv_deterministic():
    report = synthetic_report()
    assert report_body_csv(report) == report_body_csv(report)


# ------------------------------------------------------------------ files


def test_write_report_header_and_round_trip(tmp_path):
    body = report_body_json(
        synthetic_report(), input_digest="sha256:abc", tool_version="1.0.0"
    )
    path = str(tmp_path / "report.json")
    write_report(path, body, timestamp="2026-08-19T00:00:00+00:00")
    raw = (tmp_path / "report.json").read_text(encoding="utf-8")
    header, rest = raw.split("\n", 1)
    assert header == "# sepcurv report generated 2026-08-19T00:00:00+00:00"
    assert rest == body
    assert read_report_body(path) == body


def test_write_report_default_timestamp(tmp_path):
    path = str(tmp_path / "report.csv")
    body = report_body_csv(synthetic_report())
    write_report(path, body)
    first = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# sepcurv report generated 2026-")
    assert read_report_body(path) == body


def test_read_report_body_strips_all_header_lines(tmp_path):
    path = tmp_path / "multi.txt"
    path.write_text("# one\n# two\npayload\n", encoding="utf-8")
    assert read_report_body(str(path)) == "payload\n"


def test_bodies_identical_for_equal_scans(tmp_path):
    first = sphere_report()
    second = sphere_report()
    kw = {"input_digest": "sha256:x", "tool_version": "1.0.0"}
    assert report_body_json(first, **kw) == report_body_json(second, **kw)
    assert report_body_csv(first) == report_body_csv(second)


# ----------------------------------------------------- oracle byte checks

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
SUBNORMAL = 5e-324
ODD_TEXT = 'DomainError: say "hi" \\ back\nline two, caf\u00e9 \u2603 \U0001d4b3'
ODD_FAILURES = [(0, ODD_TEXT), (7, ""), (11, "SolveError: tab\there")]
KW = {"input_digest": "sha256:abc", "tool_version": "1.0.0"}


def assert_bodies_match(report, sampling_failures=()):
    """Both writers against the `json.dumps`/dict-row oracle, byte for byte."""
    body = report_body_json(report, sampling_failures=sampling_failures, **KW)
    assert body == reference_body_json(report, sampling_failures=sampling_failures, **KW)
    csv_body = report_body_csv(report, sampling_failures=sampling_failures)
    assert csv_body == reference_body_csv(report, sampling_failures=sampling_failures)
    return body


def same_float(a, b):
    return float(a).hex() == float(b).hex()


def odd_report():
    """Every float field of every record kind holds a value `json.dumps`
    special-cases or that only repr round-trips: each sample x has two
    pairs, a plane and a failed plane."""
    odd = np.array([math.nan, math.inf, -math.inf, -0.0, SUBNORMAL, -SUBNORMAL, 1e-300, 1e300])
    ones, zeros = np.ones_like(odd), np.zeros_like(odd)
    columns = RecordColumns(
        coords=[(x, 0.1 + 0.2, -x) for x in odd.tolist()],
        pairs=[(0, 1), (0, 2)],
        k_special=np.stack([odd, ones], axis=1),
        k_oracle=np.stack([-odd, odd, odd, zeros], axis=1),
        flagged=np.stack([np.arange(len(odd)) % 2 == 0, zeros.astype(bool)], axis=1),
        u=np.stack([np.stack([odd, ones, -odd], axis=1), np.zeros((len(odd), 3))], axis=1),
        w=np.stack([np.stack([-zeros, odd, 2.5 * ones], axis=1), np.zeros((len(odd), 3))], axis=1),
        point_errors={},
        plane_errors={(s, 1): ODD_TEXT for s in range(len(odd))},
        residuals=np.stack([odd, -odd], axis=1),
    )
    return dataclasses.replace(synthetic_report(), columns=columns, oblique_per_point=2,
                               point_count=len(odd), k_min=-math.inf, k_max=math.nan, spread=-0.0)


def numpy_report():
    """The synthetic report with every float summary field an `np.float64`
    (a block's arrays are float64 already)."""
    f = np.float64
    return dataclasses.replace(synthetic_report(), k_min=f(0.25), k_max=f(0.5),
                               k_mean=f(1.0 / 3.0), spread=f(0.25), max_engine_rel_dev=f(0.05))


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_scan_bodies_match_oracle(tmp_path, monkeypatch, spec, fmt):
    seen = []
    writer = f"report_body_{fmt}"

    def spy(report, **kwargs):
        seen.append((report, kwargs))
        return getattr(sepcurv.report, writer)(report, **kwargs)

    monkeypatch.setattr(sepcurv.cli, writer, spy)
    out = str(tmp_path / f"r.{fmt}")
    assert main(["scan", str(spec), "--out", out, "--format", fmt]) == 0
    (report, kwargs), = seen
    oracle = reference_body_json if fmt == "json" else reference_body_csv
    assert read_report_body(out) == oracle(report, **kwargs)


def test_scan_bodies_match_oracle():
    # one body at 1, 2 and 8 chunks
    bodies = set()
    for threads in (1, 2, 8):
        report = sphere_report(oblique=3, count=8, threads=threads)
        body = assert_bodies_match(report)
        assert '"residual_constk"' not in body
        csv_body = report_body_csv(report)
        rows = list(csv.DictReader(io.StringIO(csv_body)))
        assert len(rows) == len(report.records)
        assert {row["residual_constk"] for row in rows} == {""}
        bodies.add((body, csv_body))
    assert len(bodies) == 1


def test_error_records_and_sampling_failures_match_oracle(monkeypatch):
    body = assert_bodies_match(synthetic_report(), ODD_FAILURES)
    assert json.loads(body)["sampling_failures"][0]["error"] == ODD_TEXT
    assert body.isascii()

    # a scan with failed points and failed oblique planes: one body at 1, 2
    # and 8 chunks
    monkeypatch.setattr(curvature, "_gauss", off_tangent)
    bodies = set()
    for threads in (1, 2, 8):
        report = sphere_report(oblique=3, count=8, threads=threads)
        kinds = {}
        for rec in report.records:
            kinds.setdefault(rec.sample, []).append(rec.kind)
        assert ["error"] in kinds.values()                        # a failed point
        assert ["pair"] * 3 + ["plane"] * 2 + ["error"] in kinds.values()   # a failed plane
        bodies.add(assert_bodies_match(report, ODD_FAILURES))
    assert len(bodies) == 1


def test_nonfinite_signed_zero_and_subnormal_values_match_oracle():
    report = odd_report()
    body = assert_bodies_match(report, ODD_FAILURES)
    assert "NaN" in body and "-Infinity" in body and "5e-324" in body


def test_numpy_floats_match_oracle():
    assert_bodies_match(numpy_report())


def test_empty_sampling_failures_and_records_match_oracle():
    body = assert_bodies_match(synthetic_report(), [])
    assert '"sampling_failures": [],' in body
    none = RecordColumns([], [], np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0), dtype=bool),
                         np.zeros((0, 0, 3)), np.zeros((0, 0, 3)), {}, {}, np.zeros((0, 0)))
    empty = dataclasses.replace(synthetic_report(), columns=none, point_count=0)
    assert '"records": [],' in assert_bodies_match(empty, [])


# free text heavy in the characters the csv module quotes or mishandles;
# surrogates are left out, as no UTF-8 report file can hold them
FREE_TEXT = st.text(
    st.sampled_from([",", '"', "\n", "\r", "\x00", " ", "a", "\u00e9", "\u2603", "\U0001d4b3"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)


def text_report(errors):
    """The synthetic report with one more error row per text."""
    return dataclasses.replace(synthetic_report(), columns=synthetic_columns(errors),
                               point_count=2 + len(errors))


def bare_cr(text):
    """A carriage return in a text the csv module leaves unquoted (no ',',
    '"' or newline): csv.reader ends the row there, so the text cannot be
    read back."""
    return "\r" in text and not any(c in text for c in ',"\n')


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(errors=st.lists(FREE_TEXT, max_size=5), failures=st.lists(FREE_TEXT, max_size=5))
def test_csv_free_text_cells_quote_as_csv_module(errors, failures):
    assert_bodies_match(text_report(errors), list(enumerate(failures)))

    errors = [text for text in errors if not bare_cr(text)]
    failures = [(idx, text) for idx, text in enumerate(failures) if not bare_cr(text)]
    report = text_report(errors)
    body = report_body_csv(report, sampling_failures=failures)
    rows = list(csv.reader(io.StringIO(body, newline="")))
    assert rows[0] == CSV_COLUMNS and all(len(row) == len(CSV_COLUMNS) for row in rows)
    want = [rec.error or "" for rec in report.records] + [text for _, text in failures]
    assert [row[CSV_COLUMNS.index("error")] for row in rows[1:]] == want


@pytest.mark.parametrize("make", [odd_report, numpy_report, lambda: sphere_report()])
def test_json_body_round_trips_every_float(make):
    report = make()
    records = json.loads(report_body_json(report, **KW))["records"]
    assert len(records) == len(report.records)
    for rec, parsed in zip(report.records, records):
        assert parsed["kind"] == rec.kind and parsed["sample"] == rec.sample
        fields = {"coords": rec.coords}
        if rec.kind == "plane":
            fields.update(u=rec.u, w=rec.w, k_oracle=(rec.k_oracle,))
        elif rec.kind == "pair":
            for name in ("k_special", "k_oracle", "residual_flat"):
                fields[name] = (getattr(rec, name),)
        for name, values in fields.items():
            got = parsed[name] if isinstance(parsed[name], list) else [parsed[name]]
            assert len(got) == len(values)
            assert all(same_float(a, b) for a, b in zip(got, values)), name
