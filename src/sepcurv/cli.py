"""Command-line interface: eval, scan, certify, mesh.

Exit codes (a `SepcurvError` exits with its class's `exit_code`)
    0  success
    1  certification suite failure
    2  bad usage (also an `--out` path that cannot be written),
       `SpecFileError` (spec file, flag value, library argument) or
       `ParseError` (expression)
    3  every other `SepcurvError`: `RegularityError`, `SolveError` (with
       `BracketError`, `ConvergenceError`), `DomainError`, `NonFiniteError`
       (also an `eval` figure that is not finite), `DegeneratePlaneError`
    4  `MeshError`: mesh export produced fewer than 3 valid vertices
    5  unexpected internal error

Each flag goes after the one subcommand that reads it: eval --point --pair
--k0 --format; scan --out --seed --tol --threads (>= 1) --format; certify
--dims --count --seed; mesh --out.  The top-level parser takes only
--version; any other placement is a usage error (exit 2).

The constancy tolerance resolves in precedence order: --tol flag, then the
spec file's tolerances.constancy, then the SEPCURV_TOL environment
variable, then the built-in default of 1e-7.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .curvature import (
    DEFAULT_CONSTANCY_TOL, ScanPolicy, _finite_extremes, _pair_sorted, pair_table,
    sample_and_scan,
)
from .errors import (
    NonFiniteError, SepcurvError, SpecFileError, _pair, finite, integer, numbers, positive,
)
from .families import MAX_N
from .geometry import _lift
from .meshing import build_mesh, write_curvature_csv, write_obj
from .report import _csv_row, report_body_csv, report_body_json, write_report
from .specfile import MAX_COUNT, LoadedSpec, load_spec
from .suites import format_rows, run_constant_suite, run_flat_suite

ENV_TOL = "SEPCURV_TOL"
_EVAL_COLUMNS = ("coords", "residual", "i", "j", "k_special", "k_oracle",
                 "flatness_residual", "k0", "constk_residual")
_SIGNED_VALUE = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcurv",
        description="Sectional curvature laboratory for separable hypersurfaces "
        "f1(x1) + ... + fn(xn) = 0.",
    )
    parser.add_argument("--version", action="version", version=f"sepcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="curvature of one point and coordinate pair")
    p.add_argument("spec", help="surface-spec JSON file")
    p.add_argument("--point", required=True, help="comma-separated non-height coordinates")
    p.add_argument("--pair", default=None, help="coordinate pair i,j (default: first two non-height)")
    p.add_argument("--k0", type=float, default=None, help="also report the constant-curvature residual")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser("scan", help="sample points and test curvature constancy")
    p.add_argument("spec", help="surface-spec JSON file")
    p.add_argument("--out", required=True, help="report file to write")
    p.add_argument("--seed", type=int, default=None, help="override the spec file's sampling seed")
    p.add_argument("--tol", type=float, default=None, help="override the constancy tolerance")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility: an integer >= 1, which has no effect",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report body format")

    p = sub.add_parser("certify", help="run a built-in family certification suite")
    p.add_argument("suite", choices=("flat", "constant"))
    p.add_argument("--dims", default=None, help="comma-separated dimension sweep")
    p.add_argument("--count", type=int, default=None, help="sample points per scan")
    p.add_argument("--seed", type=int, default=None, help="base seed of the suite's scans")

    p = sub.add_parser("mesh", help="export a triangulated mesh (n = 3 only)")
    p.add_argument("spec", help="surface-spec JSON file")
    p.add_argument("--out", required=True, help="OBJ file to write")
    for p in sub.choices.values():   # reports a flag it does not read, with its usage line
        p.set_defaults(parser=p)
        # argparse reads a '-' token as a flag unless it is one plain number;
        # no flag here starts '-<digit>', so '-0.1,0.2' or '-1e-3' is a value
        p._negative_number_matcher = _SIGNED_VALUE
    return parser


def _resolve_tol(flag_value: float | None, spec_value: float | None) -> float:
    if flag_value is not None:
        return positive(flag_value, "--tol")
    if spec_value is not None:
        return spec_value
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            value = float(env)
        except ValueError:
            value = env   # positive() rejects the text with the same words
        return positive(value, ENV_TOL)
    return DEFAULT_CONSTANCY_TOL


def _split(text: str, where: str, convert) -> list:
    """A flag's comma-separated values, each read by `convert` (float or int)."""
    try:
        return [convert(part) for part in text.split(",")]
    except ValueError as exc:
        raise SpecFileError(
            f"{where} must be comma-separated {convert.__name__} values: {exc}"
        ) from exc


def _write(path: str, write, *args) -> None:
    """Call `write(path, *args)`; a path that cannot be written is a usage error."""
    try:
        write(path, *args)
    except OSError as exc:
        raise SpecFileError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _cmd_eval(ns: argparse.Namespace) -> int:
    spec = load_spec(ns.spec)
    surface = spec.surface
    partial = numbers(surface.n - 1)(_split(ns.point, "--point", float), "--point")
    given = surface.non_height[:2] if ns.pair is None else _split(ns.pair, "--pair", int)
    i, j = _pair(given, "--pair", "two indices i,j")
    try:
        pair = _pair_sorted(surface, i, j)
    except SpecFileError as exc:   # the scan's own pair rules, named by the flag
        raise SpecFileError(f"--pair: {exc}") from exc
    if ns.k0 is not None:
        finite(ns.k0, "--k0")
    lift = _lift(surface, [partial], spec.bracket)
    if lift.failures:
        raise lift.failures[0]
    point = lift.points[0]
    # the lift's gated jet table gives every figure, by a scan's engines
    table = pair_table(surface, lift.table, [pair])
    doc = {
        "coords": list(point.coords),
        "residual": point.residual,
        "pair": [i, j],
        "k_special": float(table.curvature()[0, 0]),
        "k_oracle": float(table.gauss()[0, 0]),
        "flatness_residual": float(table.residual()[0, 0]),
    }
    if ns.k0 is not None:
        doc.update(k0=ns.k0, constk_residual=float(table.residual(ns.k0)[0, 0]))
    bad = [f"{key} = {value!r}" for key, value in doc.items()
           if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise NonFiniteError(f"non-finite result: {', '.join(bad)}")
    if ns.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        # the scan CSV's conventions: repr floats, ';'-joined vectors, unset cells empty
        cells = {**doc, "coords": ";".join(map(repr, point.coords)), "i": i, "j": j}
        sys.stdout.write(_csv_row(_EVAL_COLUMNS) + _csv_row(map(cells.get, _EVAL_COLUMNS)))
    return 0


def _load_sampled(path: str, task: str) -> LoadedSpec:
    """The spec at `path`, which must give the sampling ranges `task` uses."""
    spec = load_spec(path)
    if spec.ranges is None:
        raise SpecFileError(f"{path}: sampling.ranges is required for {task}")
    return spec


def _cmd_scan(ns: argparse.Namespace) -> int:
    spec = _load_sampled(ns.spec, "scanning")
    seed = integer(spec.seed if ns.seed is None else ns.seed, "--seed", 0)
    tol = _resolve_tol(ns.tol, spec.constancy_tol)
    integer(ns.threads, "--threads", 1)   # checked, then unused
    policy = ScanPolicy(oblique_per_point=spec.oblique, seed=seed, constancy_tol=tol)
    report, failures = sample_and_scan(
        spec.surface, spec.ranges, spec.count, seed, spec.bracket, policy
    )
    if ns.format == "json":
        body = report_body_json(
            report,
            input_digest=spec.digest,
            tool_version=__version__,
            sampling_failures=failures,
        )
    else:
        body = report_body_csv(report, sampling_failures=failures)
    _write(ns.out, write_report, body)
    line = f"verdict: {report.verdict}"
    if report.spread is not None:
        rel = "<=" if report.spread <= tol else ">"
        line += f" (spread {report.spread:.3e} {rel} tol {tol:g})"
    if report.flagged_count:
        line += f" ({report.flagged_count} pair records flagged by the engine cross-check)"
    if report.constant_estimate is not None:
        line += f" (K = {report.constant_estimate!r})"
    print(line)
    print(f"report: {ns.out}")
    return 0


def _cmd_certify(ns: argparse.Namespace) -> int:
    # only the given flags are passed, so the suites' signatures hold the defaults
    given = {}
    if ns.dims is not None:
        dims = _split(ns.dims, "--dims", int)
        given["dims"] = tuple(integer(d, "--dims entry", 3, MAX_N) for d in dims)
    if ns.count is not None:
        given["count"] = integer(ns.count, "--count", 2, MAX_COUNT)
    if ns.seed is not None:
        given["seed"] = integer(ns.seed, "--seed", 0)
    rows = (run_flat_suite if ns.suite == "flat" else run_constant_suite)(**given)
    print(format_rows(rows))
    return 0 if all(r.ok for r in rows) else 1


def _cmd_mesh(ns: argparse.Namespace) -> int:
    spec = _load_sampled(ns.spec, "meshing")
    grid = spec.grid if spec.grid is not None else (32, 32)
    mesh = build_mesh(spec.surface, spec.ranges, grid, spec.bracket)
    _write(ns.out, write_obj, mesh)
    sidecar = os.path.splitext(ns.out)[0] + "_curvature.csv"
    _write(sidecar, write_curvature_csv, mesh)
    # the range covers finite curvatures only, as a scan summary does
    finite, k_min, k_max = _finite_extremes(mesh.curvatures)
    k_range = f"[{k_min!r}, {k_max!r}]" if finite.size else "none (no vertex has finite K)"
    if finite.size < mesh.curvatures.size:
        k_range += f" ({mesh.curvatures.size - finite.size} vertices with non-finite K)"
    print(
        f"mesh: {len(mesh.vertices)} vertices, {len(mesh.faces)} triangles, "
        f"{mesh.dropped} grid nodes dropped"
    )
    print(f"K range: {k_range}")
    print(f"wrote {ns.out} and {sidecar}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns, unread = parser.parse_known_args(argv)
        if unread:
            ns.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": _cmd_eval,
        "scan": _cmd_scan,
        "certify": _cmd_certify,
        "mesh": _cmd_mesh,
    }
    try:
        return handlers[ns.command](ns)
    except SepcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # contract: anything unexpected is exit 5
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
