"""Reference oracle for the report body writers.

This is the serialization the package used before it wrote the JSON
records directly, kept here unchanged in substance: `reference_record_dict`
lays a record out as a dict by kind, `reference_body_json` hands the whole
document to `json.dumps(sort_keys=True, indent=2)` and `reference_body_csv`
writes one row per record dict.  Tests require the package's bodies to
match these byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from sepcurv.curvature import CurvatureReport, ScanRecord
from sepcurv.report import REPORT_FORMAT_VERSION

CSV_COLUMNS = (
    "sample", "kind", "i", "j", "k_special", "k_oracle",
    "residual_flat", "residual_constk", "flagged", "error", "coords", "u", "w",
)


def _vector(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def _cell(value) -> str:
    if value is None:
        return ""
    return _vector(value) if isinstance(value, list) else str(value)


def reference_record_dict(rec: ScanRecord) -> dict:
    """A record's fields by kind: the JSON record, and the CSV row's cells."""
    out: dict = {"sample": rec.sample, "kind": rec.kind, "coords": list(rec.coords)}
    if rec.kind == "pair":
        out.update(i=rec.i, j=rec.j, k_special=rec.k_special, k_oracle=rec.k_oracle,
                   residual_flat=rec.residual_flat, flagged=rec.flagged)
    elif rec.kind == "plane":
        out.update(u=list(rec.u), w=list(rec.w), k_oracle=rec.k_oracle)
    else:
        out["error"] = rec.error
    return out


def reference_body_json(
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
        "records": [reference_record_dict(rec) for rec in report.records],
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


def reference_body_csv(
    report: CurvatureReport,
    sampling_failures: Sequence[tuple[int, str]] = (),
) -> str:
    """Each row a `reference_record_dict` layout, a missing or null cell empty."""
    rows = [reference_record_dict(rec) for rec in report.records]
    rows += [dict(sample=idx, kind="sample_error", error=msg) for idx, msg in sampling_failures]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row.get(column)) for column in CSV_COLUMNS])
    return buf.getvalue()
