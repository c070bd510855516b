"""Shared fixtures for the height lift: a surface whose draws fail in every
way a lift can fail, solve_height's verdict on each partial, the check of a
lift against the scalar reference, and a spy on every way a surface point's
jets can be evaluated a second time."""

from __future__ import annotations

import math
import sys

import numpy as np

from sepcurv import SeparableSurface, SepcurvError, parse_function, solve_height
from sepcurv.errors import describe

from reference_lift import reference_lift

MIXED_BRACKET = (-30.0, 3.0)
MIXED_RANGES = [(-40.0, 6.0), (-1.0, 1.0)]


def mixed_surface() -> SeparableSurface:
    """-exp(x_1) + 0*x_2 + exp(x_3) = 0 with x_2 > 0: the root is x_3 = x_1.

    Over `MIXED_RANGES` and `MIXED_BRACKET` a draw misses the bracket for
    x_1 outside (-30, 3), has a singular root (exp(x_3) < 1e-8) for
    x_1 < -18.4, and fails the domain of f_2 for x_2 <= 0.
    """
    return SeparableSurface(
        (
            parse_function("-exp(x)"),
            parse_function("0*x", (0.0, math.inf)),
            parse_function("exp(x)"),
        )
    )


def solve_verdicts(surface, partials, bracket) -> list[str | None]:
    """solve_height's failure on each partial, as a report records it, or None."""
    out: list[str | None] = []
    for partial in partials:
        try:
            solve_height(surface, partial, bracket)
        except SepcurvError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append(None)
    return out


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_lift_matches_reference(got, surface, partials, bracket) -> None:
    """A lift of `partials` equals the per-partial reference lift: indices,
    coordinates and residuals, table bits, failure texts in order."""
    index, points, table, failures = reference_lift(surface, partials, bracket)
    assert got.index == index
    assert [repr(p.coords) for p in got.points] == [repr(p.coords) for p in points]
    assert bits([p.residual for p in got.points]) == bits([p.residual for p in points])
    for name in ("d1", "d2", "sq_norm"):
        assert bits(getattr(got.table, name)) == bits(getattr(table, name))
    assert got.table.jet_errors == table.jet_errors
    assert [(i, describe(e)) for i, e in got.failures.items()] == [
        (i, describe(e)) for i, e in failures.items()
    ]


def spy_second_evaluations(monkeypatch) -> list[str]:
    """Record every call of `jet_table` (in each module that imports it): the
    way to evaluate a known point's jets."""
    calls: list[str] = []

    def spy(name, fn):
        def recorded(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return recorded

    for key, module in list(sys.modules.items()):
        if key.startswith("sepcurv.") and hasattr(module, "jet_table"):
            monkeypatch.setattr(module, "jet_table", spy(f"{key}.jet_table", module.jet_table))
    return calls
