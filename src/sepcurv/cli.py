"""Command-line interface: eval, scan, certify, mesh.

Exit codes
    0  success
    1  certification suite failure
    2  spec-file / expression parse error or bad usage
    3  regularity violation or root-solve failure
    4  mesh export produced fewer than 3 valid vertices
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
import sys

from . import __version__
from .curvature import DEFAULT_CONSTANCY_TOL, ScanPolicy, _gauss, pair_table, scan_constancy
from .errors import (
    DegeneratePlaneError,
    DomainError,
    MeshError,
    NonFiniteError,
    OffSurfaceError,
    ParseError,
    RegularityError,
    SolveError,
    SpecFileError,
)
from .families import MAX_N, integer
from .geometry import _lift, sample_points
from .meshing import build_mesh, write_curvature_csv, write_obj
from .report import report_body_csv, report_body_json, write_report
from .specfile import MAX_COUNT, LoadedSpec, load_spec
from .suites import format_rows, run_constant_suite, run_flat_suite

ENV_TOL = "SEPCURV_TOL"


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
        help="number (>= 1) of sequential point chunks the scan is split into "
        "(output is identical for any value)",
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
    return parser


def _resolve_tol(flag_value: float | None, spec_value: float | None) -> float:
    if flag_value is not None:
        if not 0.0 < flag_value < math.inf:
            raise SpecFileError(f"--tol must be positive and finite, got {flag_value!r}")
        return flag_value
    if spec_value is not None:
        return spec_value
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            value = float(env)
        except ValueError as exc:
            raise SpecFileError(f"{ENV_TOL} must be a number, got {env!r}") from exc
        if not 0.0 < value < math.inf:
            raise SpecFileError(f"{ENV_TOL} must be positive and finite, got {env!r}")
        return value
    return DEFAULT_CONSTANCY_TOL


def _parse_floats(text: str, expected: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SpecFileError(f"{what} must be comma-separated numbers: {exc}") from exc
    if len(values) != expected:
        raise SpecFileError(f"{what} needs {expected} values, got {len(values)}")
    return values


def _eval_pair(spec: LoadedSpec, pair_text: str | None) -> tuple[int, int]:
    surface = spec.surface
    if pair_text is None:
        return surface.non_height[0], surface.non_height[1]
    parts = [p.strip() for p in pair_text.split(",")]
    if len(parts) != 2:
        raise SpecFileError(f"--pair needs two indices, got {pair_text!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SpecFileError(f"--pair must be integers: {exc}") from exc
    if i == j or i not in surface.non_height or j not in surface.non_height:
        raise SpecFileError(
            f"--pair must name two distinct non-height coordinates from "
            f"{surface.non_height}, got ({i}, {j})"
        )
    return i, j


def _cmd_eval(ns: argparse.Namespace) -> int:
    spec = load_spec(ns.spec)
    surface = spec.surface
    partial = _parse_floats(ns.point, surface.n - 1, "--point")
    i, j = _eval_pair(spec, ns.pair)
    if ns.k0 is not None and not math.isfinite(ns.k0):
        raise SpecFileError(f"--k0 must be finite, got {ns.k0!r}")
    lift = _lift(surface, [partial], spec.bracket)
    if lift.failures:
        raise lift.failures[0]
    point = lift.points[0]
    # the lift's gated jet table gives every figure, as in a scan record
    table = pair_table(surface, lift.table, [(min(i, j), max(i, j))])
    k_oracle, plane_errors = _gauss(lift.table, *table.frames(surface.height))
    if plane_errors[0, 0] is not None:
        raise plane_errors[0, 0]
    k_special, k_oracle = float(table.curvature()[0, 0]), float(k_oracle[0, 0])
    flat = float(table.flat[0, 0])
    constk = float(table.constk(ns.k0)[0, 0]) if ns.k0 is not None else None
    if ns.format == "json":
        doc = {
            "coords": list(point.coords),
            "residual": point.residual,
            "pair": [i, j],
            "k_special": k_special,
            "k_oracle": k_oracle,
            "flatness_residual": flat,
        }
        if constk is not None:
            doc["k0"] = ns.k0
            doc["constk_residual"] = constk
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"point: {point.coords!r}  (residual {point.residual:.3e})")
        print(f"pair: ({i}, {j})")
        print(f"K closed form:  {k_special!r}")
        print(f"K Gauss oracle: {k_oracle!r}")
        print(f"flatness residual: {flat!r}")
        if constk is not None:
            print(f"constant-K residual (k0={ns.k0!r}): {constk!r}")
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    spec = load_spec(ns.spec)
    if spec.ranges is None:
        raise SpecFileError(f"{ns.spec}: sampling.ranges is required for scanning")
    seed = integer(spec.seed if ns.seed is None else ns.seed, "--seed", 0)
    tol = _resolve_tol(ns.tol, spec.constancy_tol)
    threads = integer(ns.threads, "--threads", 1)
    points, failures = sample_points(
        spec.surface, spec.ranges, spec.count, seed, spec.bracket
    )
    if len(points) < 2:
        raise SolveError(
            f"only {len(points)} of {spec.count} draws lifted onto the surface; "
            f"first failure: {failures[0][1] if failures else 'n/a'}"
        )
    policy = ScanPolicy(
        oblique_per_point=spec.oblique, seed=seed, constancy_tol=tol
    )
    report = scan_constancy(spec.surface, points, policy, threads=threads)
    if ns.format == "json":
        body = report_body_json(
            report,
            input_digest=spec.digest,
            tool_version=__version__,
            sampling_failures=failures,
        )
    else:
        body = report_body_csv(report, sampling_failures=failures)
    write_report(ns.out, body)
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
        try:
            dims = [int(p.strip()) for p in ns.dims.split(",")]
        except ValueError as exc:
            raise SpecFileError(f"--dims must be comma-separated integers: {exc}") from exc
        given["dims"] = tuple(integer(d, "--dims entry", 3, MAX_N) for d in dims)
    if ns.count is not None:
        given["count"] = integer(ns.count, "--count", 2, MAX_COUNT)
    if ns.seed is not None:
        given["seed"] = integer(ns.seed, "--seed", 0)
    rows = (run_flat_suite if ns.suite == "flat" else run_constant_suite)(**given)
    print(format_rows(rows))
    return 0 if all(r.ok for r in rows) else 1


def _cmd_mesh(ns: argparse.Namespace) -> int:
    spec = load_spec(ns.spec)
    if spec.surface.n != 3:
        raise SpecFileError(f"{ns.spec}: mesh export needs n = 3, got n = {spec.surface.n}")
    if spec.ranges is None:
        raise SpecFileError(f"{ns.spec}: sampling.ranges is required for meshing")
    grid = spec.grid if spec.grid is not None else (32, 32)
    mesh = build_mesh(spec.surface, spec.ranges, grid, spec.bracket)
    write_obj(ns.out, mesh)
    sidecar = os.path.splitext(ns.out)[0] + "_curvature.csv"
    write_curvature_csv(sidecar, mesh)
    k_lo, k_hi = min(mesh.curvatures), max(mesh.curvatures)
    print(
        f"mesh: {len(mesh.vertices)} vertices, {len(mesh.faces)} triangles, "
        f"{mesh.dropped} grid nodes dropped"
    )
    print(f"K range: [{k_lo!r}, {k_hi!r}]")
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
    except (SpecFileError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        RegularityError,
        SolveError,
        DomainError,
        NonFiniteError,
        OffSurfaceError,
        DegeneratePlaneError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # contract: anything unexpected is exit 5
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
