"""Deterministic serialization of curvature reports.

A report file is one '#'-prefixed header line carrying the timestamp (the
only non-deterministic bytes in the file) followed by a canonical body:
sorted-key, two-space-indented JSON, or CSV records.  For fixed inputs and
seed the body is byte-identical regardless of point chunking or generation
time; `read_report_body` strips the header so callers can compare bodies
directly.

Both writers write the records straight from the report's columns (the
scan's engine arrays in one block, `CurvatureReport.columns`), a sample row
at a time, with one template per record kind filled by one list
comprehension over each row's number texts; they build no `ScanRecord`.
The library encoders are not used for the records, because they spend most
of their time on work these rows never need: the JSON records' keys are
fixed and already sorted, and `json.dumps` with `indent` runs CPython's
pure-Python encoder, which cost more than the scan itself.  The JSON body is byte-identical to
`json.dumps(doc, sort_keys=True, indent=2)`: floats go through
`float.__repr__` (NaN and infinities as `NaN`, `Infinity`, `-Infinity`),
strings through `json.encoder.encode_basestring_ascii`, and the small report
shell still through `json.dumps`.  Those reprs are most of a body's cost.

The CSV body is byte-identical to `csv.writer(lineterminator="\n")`, whose
minimal quoting scans every cell of every row for a character to quote.
Only the free-text `error` cell can hold one, so it alone goes through
`_csv_cell`, that writer's rule.  The tests compare both bodies with those
encoders (`tests/reference_report.py`) byte for byte.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .curvature import CurvatureReport, RecordColumns

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


def _json_num(values: np.ndarray):
    """The JSON number writer for an array: `float.__repr__` when all is finite."""
    return _repr if np.isfinite(values).all() else _num


def _floats(values) -> str:
    """A non-empty float list as `json.dumps(indent=2)` writes it as a
    record field."""
    text = _ITEM.join(map(_repr, values))
    if "n" in text:
        text = _ITEM.join(map(_num, values))
    return f"[\n        {text}\n      ]"


def _rows(values: np.ndarray, num) -> list[list[str]]:
    """Each row of a (P, Q) array as number texts."""
    return [list(map(num, row)) for row in values.tolist()]


def _vectors(values: np.ndarray, sep: str, num) -> list[list[str]]:
    """Each row's vectors of a (P, m, n) array as texts, entries joined by `sep`."""
    return [[sep.join(map(num, vec)) for vec in row] for row in values.tolist()]


def _with_plane_errors(block: RecordColumns, p: int, planes: list[str], error) -> list[str]:
    """Row p's plane records, with `error(text)` in place of each failed plane."""
    if block.plane_errors:
        for r in range(len(planes)):
            if (p, r) in block.plane_errors:
                planes[r] = error(block.plane_errors[p, r])
    return planes


def _json_records(block: RecordColumns) -> list[str]:
    """A block's records as the `records` array at depth 1 of the body holds
    them, a sample row at a time."""
    special, oracle, flat = (
        _rows(a, _json_num(a)) for a in (block.k_special, block.k_oracle, block.residual_flat)
    )
    us, ws = (_vectors(a, _ITEM, _json_num(a)) for a in (block.u, block.w))
    flags = [["true" if f else "false" for f in row] for row in block.flagged.tolist()]
    pairs = [f'      "i": {i},\n      "j": {j},\n      "k_oracle": ' for i, j in block.pairs]
    out: list[str] = []
    for p, coords in enumerate(block.coords):
        head = f'    {{\n      "coords": {_floats(coords)},\n'
        end = f'\n      "sample": {p}\n    }}'

        def error(text: str) -> str:
            text = encode_basestring_ascii(text)
            return f'{head}      "error": {text},\n      "kind": "error",{end}'

        if p in block.point_errors:
            out.append(error(block.point_errors[p]))
            continue
        out += [
            f'{head}      "flagged": {flag},\n{ij}{k},\n      "k_special": {ks},\n'
            f'      "kind": "pair",\n      "residual_flat": {res},{end}'
            for flag, ij, k, ks, res in zip(flags[p], pairs, oracle[p], special[p], flat[p])
        ]
        plane = f'{head}      "k_oracle": '
        tail = f',\n      "kind": "plane",\n      "sample": {p},\n      "u": [\n        '
        out += _with_plane_errors(block, p, [
            f'{plane}{k}{tail}{u}\n      ],\n      "w": [\n        {w}\n      ]\n    }}'
            for k, u, w in zip(oracle[p][len(pairs):], us[p], ws[p])
        ], error)
    return out


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
    records = _json_records(report.columns)
    records = "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"
    return f"{head}{_RECORDS}{records}{tail}\n"


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


def _csv_records(block: RecordColumns) -> list[str]:
    """A block's CSV rows, a sample row at a time."""
    special, oracle, flat = (
        _rows(a, _repr) for a in (block.k_special, block.k_oracle, block.residual_flat)
    )
    us, ws = (_vectors(a, ";", _repr) for a in (block.u, block.w))
    flags = block.flagged.tolist()
    pairs = [f"{i},{j}," for i, j in block.pairs]
    out: list[str] = []
    for p, coords in enumerate(block.coords):
        coords = _vector(coords)

        def error(text: str) -> str:
            return f"{p},error,,,,,,,,{_csv_cell(text)},{coords},,\n"

        if p in block.point_errors:
            out.append(error(block.point_errors[p]))
            continue
        tail = f",,{coords},,\n"
        out += [
            f"{p},pair,{ij}{ks},{k},{res},,{flag}{tail}"
            for ij, ks, k, res, flag in zip(pairs, special[p], oracle[p], flat[p], flags[p])
        ]
        out += _with_plane_errors(block, p, [
            f"{p},plane,,,,{k},,,,,{coords},{u},{w}\n"
            for k, u, w in zip(oracle[p][len(pairs):], us[p], ws[p])
        ], error)
    return out


def report_body_csv(
    report: CurvatureReport,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Record-level CSV export with the same determinism contract as JSON:
    one row per record, a field the record's kind lacks left empty (so is
    every `residual_constk` cell, which no scan fills), then one
    `sample_error` row per rejected draw."""
    out = [_CSV_HEADER, *_csv_records(report.columns)]
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
