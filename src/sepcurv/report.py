"""Deterministic serialization of curvature reports.

A report file is one '#'-prefixed header line carrying the timestamp (the
only non-deterministic bytes in the file) followed by a canonical body:
sorted-key, two-space-indented JSON, or CSV records.  For fixed inputs and
seed the body is byte-identical regardless of point chunking or generation
time; `read_report_body` strips the header so callers can compare bodies
directly.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from typing import Sequence

from .curvature import CurvatureReport, ScanRecord

REPORT_FORMAT_VERSION = 1
_CSV_COLUMNS = (
    "sample", "kind", "i", "j", "k_special", "k_oracle",
    "residual_flat", "residual_constk", "flagged", "error", "coords", "u", "w",
)


def _vector(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _cell(value) -> str:
    if value is None:
        return ""
    return _vector(value) if isinstance(value, list) else str(value)


def _record_dict(rec: ScanRecord) -> dict:
    """A record's fields by kind: the JSON record, and the CSV row's cells."""
    out: dict = {"sample": rec.sample, "kind": rec.kind, "coords": list(rec.coords)}
    if rec.kind == "pair":
        out.update(i=rec.i, j=rec.j, k_special=rec.k_special, k_oracle=rec.k_oracle,
                   residual_flat=rec.residual_flat, flagged=rec.flagged)
        if rec.residual_constk is not None:
            out["residual_constk"] = rec.residual_constk
    elif rec.kind == "plane":
        out.update(u=list(rec.u), w=list(rec.w), k_oracle=rec.k_oracle)
    else:
        out["error"] = rec.error
    return out


def report_body_json(
    report: CurvatureReport,
    *,
    input_digest: str,
    tool_version: str,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Canonical JSON body: sorted keys, 2-space indent, trailing newline."""
    doc = {
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
        "records": [_record_dict(rec) for rec in report.records],
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_body_csv(
    report: CurvatureReport,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Record-level CSV export with the same determinism contract as JSON:
    each row is a `_record_dict` layout, a missing or null cell empty."""
    rows = [_record_dict(rec) for rec in report.records]
    rows += [dict(sample=idx, kind="sample_error", error=msg) for idx, msg in sampling_failures]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row.get(column)) for column in _CSV_COLUMNS])
    return buf.getvalue()


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
