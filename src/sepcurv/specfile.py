"""Surface-spec files: a small versioned JSON schema describing a surface
plus how to sample it, documented in README "Surface-spec files".

Every JSON object of a file goes through `read_object` with its own schema:
`TOP_LEVEL`, `SAMPLING`, the tolerances block, `FUNCTION` for each
`functions` entry and, for a `family` object, its kind's parameters in
`FAMILIES`.  A schema maps each key to its value parser and default, so a
non-object, an unknown key, a missing required key and a bad value each fail
in one place, with the file's name and the key's JSON path in the message.
`_read` checks by hand only the rules that tie keys together: exactly one of
`functions` and `family`; `n` and `height_index` in the functions form only;
a bracket on the height entry, and there only; and one `sampling.ranges` box
per non-height coordinate.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass
from functools import partial

from .errors import SpecFileError
from .expr import Function1D
from .families import (
    REQUIRED, FamilySpec, _pair, domain, expression, integer, interval, positive, read_object,
)
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


def _version(value, where: str) -> int:
    if type(value) is not int or value != FORMAT_VERSION:   # true and 1.0 are not 1
        raise SpecFileError(f"{where} must be {FORMAT_VERSION}, got {reprlib.repr(value)}")
    return value


def _as_given(value, where: str):
    return value


def _ranges(value, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecFileError(f"{where} must be a list of [lo, hi]")
    return tuple(interval(r, f"{where}[{k}]") for k, r in enumerate(value))


def _grid(value, where: str) -> tuple[int, int]:
    return tuple(integer(g, where, 2, MAX_GRID) for g in _pair(value, where, "[nx, ny]"))


def _block(schema):
    """Parser and default of a nested object read through `schema`."""
    return partial(read_object, schema=schema), read_object({}, "", schema)


FUNCTION = {
    "expr": (expression, REQUIRED),
    "domain": (domain, (-math.inf, math.inf)),
    "bracket": (interval, None),
}
SAMPLING = {
    "count": (partial(integer, lo=2, hi=MAX_COUNT), 100),
    "seed": (partial(integer, lo=0), 0),
    "ranges": (_ranges, None),
    "oblique_planes": (partial(integer, lo=0, hi=MAX_OBLIQUE), 0),
}
TOP_LEVEL = {
    "format_version": (_version, REQUIRED),
    "functions": (_as_given, None),      # a list of FUNCTION objects
    "family": (lambda value, where: FamilySpec.from_dict(value), None),
    "n": (_as_given, None),              # n and height_index depend on the
    "height_index": (_as_given, None),   # functions list: checked with it
    "bracket": (interval, None),
    "sampling": _block(SAMPLING),
    "tolerances": _block({"constancy": (positive, None)}),
    "grid": (_grid, None),
}


def load_spec(path: str) -> LoadedSpec:
    """Read, validate, and materialize a surface-spec file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    # also an integer past Python's digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise SpecFileError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return _read(data, spec_digest(raw))
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc


def _read(data, digest: str) -> LoadedSpec:
    """The spec of a decoded file; errors name the JSON path at fault."""
    top = read_object(data, "", TOP_LEVEL)
    if ("functions" in data) == ("family" in data):
        raise SpecFileError("give exactly one of 'functions' or 'family'")
    sampling, ranges, bracket = top["sampling"], top["sampling"]["ranges"], top["bracket"]
    if "family" in data:
        if "height_index" in data:
            raise SpecFileError("put 'height' inside the family object, not 'height_index'")
        if "n" in data:
            raise SpecFileError("'n' lives inside the family object")
        # with both overrides, a family without derivable defaults still loads
        if ranges is None or bracket is None:
            surface, default_ranges, default_bracket = top["family"].defaults()
            ranges = tuple(default_ranges) if ranges is None else ranges
            bracket = default_bracket if bracket is None else bracket
        else:
            surface = top["family"].build()
    else:
        if bracket is not None:
            raise SpecFileError("in the functions form the bracket belongs to the height entry")
        if not isinstance(top["functions"], list) or len(top["functions"]) < 3:
            raise SpecFileError("functions must list at least 3 entries")
        entries = [read_object(item, f"functions[{k}]", FUNCTION)
                   for k, item in enumerate(top["functions"])]
        n = len(entries)
        if top["n"] is not None and top["n"] != n:
            raise SpecFileError(f"n = {top['n']} inconsistent with {n} function entries")
        height = integer(data.get("height_index", n), "height_index", 1, n)
        for k, entry in enumerate(entries):
            if entry["bracket"] is not None and k != height - 1:
                raise SpecFileError(
                    f"functions[{k}]: only the height entry (index {height}) takes a bracket"
                )
        bracket = entries[height - 1]["bracket"]
        if bracket is None:
            raise SpecFileError(f"the height entry functions[{height - 1}] needs a bracket")
        funcs = tuple(Function1D(entry["expr"], entry["domain"]) for entry in entries)
        surface = SeparableSurface(funcs, height)

    if ranges is not None and len(ranges) != surface.n - 1:
        raise SpecFileError(
            f"sampling.ranges needs {surface.n - 1} entries, got {len(ranges)}"
        )

    return LoadedSpec(
        surface=surface,
        bracket=bracket,
        ranges=ranges,
        count=sampling["count"],
        seed=sampling["seed"],
        oblique=sampling["oblique_planes"],
        constancy_tol=top["tolerances"]["constancy"],
        grid=top["grid"],
        digest=digest,
    )
