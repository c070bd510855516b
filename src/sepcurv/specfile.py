"""Surface-spec files: a small versioned JSON schema describing a surface
plus how to sample it.

Schema (format_version 1): a JSON object with exactly one of

    "functions": [{"expr": str, "domain": [lo|null, hi|null],
                   "bracket": [lo, hi]  (height entry only, required there)},
                  ...]
    "family":    {"kind": str, "n": int (3..100), "height"?: int, ...kind parameters}

plus optional blocks

    "n":            int   (functions form only; must match the list length)
    "height_index": int   (functions form only; default n)
    "bracket":      [lo, hi]   (family form only; overrides the default)
    "sampling":     {"count"?: int (2..100000), "seed"?: int (>= 0),
                     "ranges"?: [[lo, hi], ...], "oblique_planes"?: int (0..1000)}
    "tolerances":   {"constancy"?: float}
    "grid":         [nx, ny]   (mesh export, n = 3 only; each 2..512)

Domain ends of null mean unbounded.  Family kinds and their parameters are
documented in `sepcurv.families`; families supply default sampling ranges
and a default height bracket, raw-function specs must spell them out
(`sampling.ranges` only if the spec is used for scanning or meshing).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import ParseError, SpecFileError
from .expr import Function1D, parse_function
from .families import FamilySpec, domain, finite, integer, interval
from .geometry import SeparableSurface

FORMAT_VERSION = 1
MAX_COUNT = 100_000     # largest sampling.count (and `certify --count`)
MAX_OBLIQUE = 1_000     # largest sampling.oblique_planes
MAX_GRID = 512          # largest mesh grid side


@dataclass(frozen=True)
class LoadedSpec:
    """A fully validated spec file: surface plus sampling configuration."""

    surface: SeparableSurface
    bracket: tuple[float, float]
    ranges: tuple[tuple[float, float], ...] | None
    count: int
    seed: int
    oblique: int
    constancy_tol: float | None
    grid: tuple[int, int] | None
    digest: str


def spec_digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def load_spec(path: str) -> LoadedSpec:
    """Read, validate, and materialize a surface-spec file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except ValueError as exc:   # also an integer past Python's digit limit
        raise SpecFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecFileError(f"{path}: top level must be a JSON object")

    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SpecFileError(
            f"{path}: format_version must be {FORMAT_VERSION}, got {version!r}"
        )

    has_functions = "functions" in data
    has_family = "family" in data
    if has_functions == has_family:
        raise SpecFileError(f"{path}: give exactly one of 'functions' or 'family'")

    known = {
        "format_version", "functions", "family", "n", "height_index",
        "bracket", "sampling", "tolerances", "grid",
    }
    unknown = set(data) - known
    if unknown:
        raise SpecFileError(f"{path}: unknown top-level keys {sorted(unknown)}")

    sampling = data.get("sampling", {})
    if not isinstance(sampling, dict):
        raise SpecFileError(f"{path}: 'sampling' must be an object")
    unknown = set(sampling) - {"count", "seed", "ranges", "oblique_planes"}
    if unknown:
        raise SpecFileError(f"{path}: unknown sampling keys {sorted(unknown)}")
    where = f"{path}: sampling."
    count = integer(sampling.get("count", 100), where + "count", 2, MAX_COUNT)
    seed = integer(sampling.get("seed", 0), where + "seed", 0)
    oblique = integer(sampling.get("oblique_planes", 0), where + "oblique_planes", 0, MAX_OBLIQUE)

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SpecFileError(f"{path}: 'tolerances' must be an object")
    unknown = set(tolerances) - {"constancy"}
    if unknown:
        raise SpecFileError(f"{path}: unknown tolerance keys {sorted(unknown)}")
    constancy_tol = tolerances.get("constancy")
    if constancy_tol is not None:
        constancy_tol = finite(constancy_tol, f"{path}: tolerances.constancy")
        if not constancy_tol > 0.0:
            raise SpecFileError(f"{path}: tolerances.constancy must be positive")

    grid = data.get("grid")
    if grid is not None:
        if not isinstance(grid, (list, tuple)) or len(grid) != 2:
            raise SpecFileError(f"{path}: grid must be [nx, ny]")
        grid = tuple(integer(g, f"{path}: grid", 2, MAX_GRID) for g in grid)

    ranges = None
    if "ranges" in sampling:
        raw_ranges = sampling["ranges"]
        if not isinstance(raw_ranges, (list, tuple)):
            raise SpecFileError(f"{path}: sampling.ranges must be a list of [lo, hi]")
        ranges = tuple(
            interval(r, f"{path}: sampling.ranges[{k}]") for k, r in enumerate(raw_ranges)
        )

    if has_family:
        if "height_index" in data:
            raise SpecFileError(
                f"{path}: put 'height' inside the family object, not 'height_index'"
            )
        if "n" in data:
            raise SpecFileError(f"{path}: 'n' lives inside the family object")
        if not isinstance(data["family"], dict):
            raise SpecFileError(f"{path}: 'family' must be an object")
        family = FamilySpec.from_dict(data["family"])
        # with both overrides, a family without derivable defaults still loads
        if ranges is None or "bracket" not in data:
            surface, default_ranges, bracket = family.defaults()
            ranges = tuple(default_ranges) if ranges is None else ranges
        else:
            surface = family.build()
        if "bracket" in data:
            bracket = interval(data["bracket"], f"{path}: bracket")
    else:
        if "bracket" in data:
            raise SpecFileError(
                f"{path}: in the functions form the bracket belongs to the height entry"
            )
        items = data["functions"]
        if not isinstance(items, list) or len(items) < 3:
            raise SpecFileError(f"{path}: 'functions' must list at least 3 entries")
        n = len(items)
        declared_n = data.get("n")
        if declared_n is not None and declared_n != n:
            raise SpecFileError(
                f"{path}: n = {declared_n} inconsistent with {n} function entries"
            )
        height = integer(data.get("height_index", n), f"{path}: height_index", 1, n)
        funcs: list[Function1D] = []
        bracket = None
        for k, item in enumerate(items):
            where = f"{path}: functions[{k}]"
            if not isinstance(item, dict):
                raise SpecFileError(f"{where} must be an object")
            unknown = set(item) - {"expr", "domain", "bracket"}
            if unknown:
                raise SpecFileError(f"{where}: unknown keys {sorted(unknown)}")
            if "expr" not in item or not isinstance(item["expr"], str):
                raise SpecFileError(f"{where} needs a string 'expr'")
            dom = domain(item.get("domain"), f"{where}: domain")
            try:
                funcs.append(parse_function(item["expr"], dom))
            except ParseError as exc:
                raise SpecFileError(f"{where}: {exc}") from exc
            if "bracket" in item:
                if k != height - 1:
                    raise SpecFileError(
                        f"{where}: only the height entry (index {height}) takes a bracket"
                    )
                bracket = interval(item["bracket"], f"{where}: bracket")
        if bracket is None:
            raise SpecFileError(
                f"{path}: the height entry functions[{height - 1}] needs a bracket"
            )
        surface = SeparableSurface(tuple(funcs), height)

    if ranges is not None and len(ranges) != surface.n - 1:
        raise SpecFileError(
            f"{path}: sampling.ranges needs {surface.n - 1} entries, got {len(ranges)}"
        )

    return LoadedSpec(
        surface=surface,
        bracket=bracket,
        ranges=ranges,
        count=count,
        seed=seed,
        oblique=oblique,
        constancy_tol=constancy_tol,
        grid=grid,
        digest=spec_digest(raw),
    )
