"""Deterministic serialization of curvature reports.

A report file is one '#'-prefixed header line carrying the timestamp (the
only non-deterministic bytes in the file) followed by a canonical body:
sorted-key, two-space-indented JSON, or CSV records.  For fixed inputs and
seed the body is byte-identical regardless of point chunking or generation
time; `read_report_body` strips the header so callers can compare bodies
directly.

Both writers write the records directly, one template per record kind,
because the library encoders spend most of their time on work these rows
never need.  The JSON records' keys are fixed and already sorted, and
`json.dumps` with `indent` runs CPython's pure-Python encoder, which cost
more than the scan itself.  The JSON body is byte-identical to
`json.dumps(doc, sort_keys=True, indent=2)`: floats go through
`float.__repr__` (NaN and infinities as `NaN`, `Infinity`, `-Infinity`),
strings through `json.encoder.encode_basestring_ascii`, and the small report
shell still through `json.dumps`.

The CSV body is byte-identical to `csv.writer(lineterminator="\n")`, whose
minimal quoting scans every cell of every row for a character to quote.
Only the free-text `error` cell can hold one, so it alone goes through
`_csv_cell`, that writer's rule; floats go through `float.__repr__`, so an
`np.float64` reads as a float does.  The tests compare both bodies with
those encoders (`tests/reference_report.py`) byte for byte.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .curvature import CurvatureReport, ScanRecord

REPORT_FORMAT_VERSION = 1
_CSV_COLUMNS = (
    "sample", "kind", "i", "j", "k_special", "k_oracle",
    "residual_flat", "residual_constk", "flagged", "error", "coords", "u", "w",
)
_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ITEM = ",\n        "      # between the elements of a record's float list
_RECORDS = '\n  "records": '


def _num(x: float) -> str:
    """A float as `json.dumps` writes it; only nan and inf reprs hold an 'n'."""
    text = _repr(x)
    return _NONFINITE[text] if "n" in text else text


def _floats(values) -> str:
    """A non-empty float list as `json.dumps(indent=2)` writes it as a
    record field."""
    text = _ITEM.join(map(_repr, values))
    if "n" in text:
        text = _ITEM.join(map(_num, values))
    return f"[\n        {text}\n      ]"


def _records_json(records: Sequence[ScanRecord]) -> str:
    """The `records` array at depth 1 of the body."""
    if not records:
        return "[]"
    out = []
    coords_of, coords = None, ""
    for rec in records:
        if rec.coords is not coords_of:   # a sample's records share its coords
            coords_of, coords = rec.coords, _floats(rec.coords)
        if rec.kind == "pair":
            out.append(
                f'    {{\n      "coords": {coords},\n'
                f'      "flagged": {"true" if rec.flagged else "false"},\n'
                f'      "i": {rec.i},\n      "j": {rec.j},\n'
                f'      "k_oracle": {_num(rec.k_oracle)},\n'
                f'      "k_special": {_num(rec.k_special)},\n'
                f'      "kind": "pair",\n'
                f'      "residual_flat": {_num(rec.residual_flat)},\n'
                f'      "sample": {rec.sample}\n    }}'
            )
        elif rec.kind == "plane":
            out.append(
                f'    {{\n      "coords": {coords},\n'
                f'      "k_oracle": {_num(rec.k_oracle)},\n'
                f'      "kind": "plane",\n      "sample": {rec.sample},\n'
                f'      "u": {_floats(rec.u)},\n      "w": {_floats(rec.w)}\n    }}'
            )
        else:
            out.append(
                f'    {{\n      "coords": {coords},\n'
                f'      "error": {encode_basestring_ascii(rec.error)},\n'
                f'      "kind": "error",\n      "sample": {rec.sample}\n    }}'
            )
    return "[\n" + ",\n".join(out) + "\n  ]"


def report_body_json(
    report: CurvatureReport,
    *,
    input_digest: str,
    tool_version: str,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Canonical JSON body: sorted keys, 2-space indent, trailing newline."""
    shell = {
        "format_version": REPORT_FORMAT_VERSION,
        "tool": "sepcurv",
        "tool_version": tool_version,
        "input_digest": input_digest,
        "seed": report.seed,
        "n": report.n,
        "constancy_tol": report.constancy_tol,
        "oblique_planes_per_point": report.oblique_per_point,
        "sampling_failures": [
            {"draw_index": idx, "error": msg} for idx, msg in sampling_failures
        ],
        "records": None,
        "summary": {
            "points": report.point_count,
            "values": report.value_count,
            "failures": report.failure_count,
            "k_min": report.k_min,
            "k_max": report.k_max,
            "k_mean": report.k_mean,
            "spread": report.spread,
            "verdict": report.verdict,
            "constant_estimate": report.constant_estimate,
            "flagged": report.flagged_count,
            "max_engine_rel_dev": report.max_engine_rel_dev,
        },
    }
    # a JSON string holds no raw newline, so this depth-1 key line is unique
    head, tail = json.dumps(shell, sort_keys=True, indent=2).split(_RECORDS + "null", 1)
    return f"{head}{_RECORDS}{_records_json(report.records)}{tail}\n"


def _vector(values) -> str:
    return ";".join(map(_repr, values))


def _csv_cell(text: str) -> str:
    """A text cell as `csv.writer(lineterminator="\n")` writes it: quoted,
    with every inner quote doubled, when it holds ',', '"' or '\n' (a lone
    '\r' stays bare, as the csv module leaves it)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(cells) -> str:
    """One CSV line: a None cell empty, any other its `str` as `_csv_cell`
    writes it."""
    return ",".join("" if c is None else _csv_cell(str(c)) for c in cells) + "\n"


_CSV_HEADER = _csv_row(_CSV_COLUMNS)


def report_body_csv(
    report: CurvatureReport,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Record-level CSV export with the same determinism contract as JSON:
    one row per record, a field the record's kind lacks left empty (so is
    every `residual_constk` cell, which no scan fills), then one
    `sample_error` row per rejected draw."""
    out = [_CSV_HEADER]
    coords_of, coords = None, ""
    # unpacked in `ScanRecord` field order: one tuple unpack, not ten attribute reads
    for (sample, point, kind, i, j, u, w,
         k_special, k_oracle, residual_flat, flagged, error) in report.records:
        if point is not coords_of:   # a sample's records share its coords
            coords_of, coords = point, _vector(point)
        if kind == "pair":
            out.append(
                f"{sample},pair,{i},{j},{_repr(k_special)},{_repr(k_oracle)},"
                f"{_repr(residual_flat)},,{flagged},,{coords},,\n"
            )
        elif kind == "plane":
            out.append(
                f"{sample},plane,,,,{_repr(k_oracle)},,,,,{coords},{_vector(u)},{_vector(w)}\n"
            )
        else:
            out.append(f"{sample},error,,,,,,,,{_csv_cell(error)},{coords},,\n")
    out += [f"{idx},sample_error,,,,,,,,{_csv_cell(msg)},,,\n" for idx, msg in sampling_failures]
    return "".join(out)


def write_report(path: str, body: str, timestamp: str | None = None) -> None:
    """Write a report file: one commented timestamp line, then the body."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# sepcurv report generated {timestamp}\n")
        fh.write(body)


def read_report_body(path: str) -> str:
    """Return a report file's body with '#' header lines stripped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    return "".join(lines[start:])
