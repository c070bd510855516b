"""Reference oracle for a scan's summary statistics.

This is the summary the package computed before it summarized the scan's
engine arrays, kept here unchanged in substance: Python passes over the
finished records for the values, the error-record count, the flags and the
worst engine deviation, then the finite-only rule for the statistics and
the verdict.  Tests require `scan_constancy`'s summary to match it field
for field, signed zeros and NaN included.
"""

from __future__ import annotations

import math
from math import fsum

from sepcurv.curvature import CurvatureReport


def reference_summary(report: CurvatureReport) -> dict:
    """The summary fields of `report`, recomputed from its records."""
    records = report.records
    values = [
        rec.k_special if rec.kind == "pair" else rec.k_oracle
        for rec in records if rec.kind != "error"
    ]
    finite = [v for v in values if math.isfinite(v)]
    failure_count = sum(1 for rec in records if rec.kind == "error")
    pair_records = [rec for rec in records if rec.kind == "pair"]
    flagged_count = sum(1 for rec in pair_records if rec.flagged)
    devs = (abs(r.k_special - r.k_oracle) / max(1.0, abs(r.k_oracle)) for r in pair_records)
    max_dev = max((d for d in devs if math.isfinite(d)), default=None)
    if finite:
        k_min, k_max = min(finite), max(finite)
        try:
            k_mean = fsum(finite) / len(finite)
        except OverflowError:   # finite values whose sum passes the largest float
            k_mean = fsum(v / len(finite) for v in finite)
        spread = k_max - k_min
        if spread > report.constancy_tol:
            verdict = "non-constant"
        elif flagged_count or len(finite) < len(values):
            verdict = "undetermined"
        else:
            verdict = "constant"
        estimate = k_mean if verdict == "constant" else None
    else:
        k_min = k_max = k_mean = spread = estimate = None
        verdict = "undetermined"
    return {
        "point_count": len({rec.sample for rec in records}),
        "value_count": len(values),
        "failure_count": failure_count,
        "k_min": k_min,
        "k_max": k_max,
        "k_mean": k_mean,
        "spread": spread,
        "verdict": verdict,
        "constant_estimate": estimate,
        "flagged_count": flagged_count,
        "max_engine_rel_dev": max_dev,
    }
