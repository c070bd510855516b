"""Exception types shared across the package, and the value parsers.

Each class carries its command-line exit status as `exit_code`: 2 for
malformed input, 4 for a mesh, 3 (from `SepcurvError`) for every other.
A value parser takes a value and where it came from, and returns the value
or raises `SpecFileError` (booleans are not numbers); `read_object` reads a
JSON object through a schema of them.  Spec files, flag values and library
arguments all go through them, and this module imports no package module.
"""

import math
import reprlib
from typing import Callable, Mapping


class SepcurvError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 3


class ParseError(SepcurvError, ValueError):
    """Malformed expression source.

    `offset` is a byte offset into the UTF-8 encoding of the input, pointing
    at the first byte the parser could not make sense of.
    """

    exit_code = 2

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class DomainError(SepcurvError, ValueError):
    """Evaluation was requested outside a function's declared open domain."""


class NonFiniteError(SepcurvError, ArithmeticError):
    """Evaluation produced a non-finite intermediate value."""


class RegularityError(SepcurvError, ValueError):
    """Gradient norm or height slope fell below the regularity threshold."""


class SolveError(SepcurvError):
    """Height-coordinate root solve failed."""


class BracketError(SolveError):
    """The supplied bracket does not straddle a sign change.

    The lift builds it from its numbers, BracketError(lo, hi, g_lo, g_hi),
    and the text is formatted from them only when read (`str`, `describe`,
    a traceback): a mesh only counts its misses.  Such an error's `args` are
    those four numbers, and its `repr` shows the text, as one built from the
    message would.  Built from one message, it reads as that message.
    """

    def __str__(self) -> str:
        if len(self.args) != 4:
            return super().__str__()
        lo, hi, g_lo, g_hi = self.args
        return f"no sign change in bracket ({lo!r}, {hi!r}): g(lo) = {g_lo:.6e}, g(hi) = {g_hi:.6e}"

    def __repr__(self) -> str:
        if len(self.args) != 4:
            return super().__repr__()
        return f"{type(self).__name__}({str(self)!r})"


class ConvergenceError(SolveError):
    """Root refinement exhausted its iteration budget."""


class DegeneratePlaneError(SepcurvError, ValueError):
    """Plane section spanned by (nearly) dependent or non-tangent vectors."""


class SpecFileError(SepcurvError, ValueError):
    """A bad outside value: a malformed or inconsistent surface-spec file, a
    command-line flag value, or an argument a library entry point refuses
    (each checks its own with the value parsers below)."""

    exit_code = 2


class MeshError(SepcurvError):
    """Mesh export could not produce a usable mesh."""

    exit_code = 4


def describe(exc: Exception) -> str:
    """A failure as reports record it: 'ClassName: message'."""
    return f"{type(exc).__name__}: {exc}"


def finite(value, where: str) -> float:
    """A finite number."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise SpecFileError(f"{where} must be a finite number, got {reprlib.repr(value)}")


def number(value, where: str) -> float:
    """A number other than NaN: infinite ends of a domain, say."""
    try:
        if not isinstance(value, bool) and not math.isnan(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise SpecFileError(f"{where} must be a number, got {reprlib.repr(value)}")


def integer(value, where: str, lo: int = 1, hi: float = math.inf) -> int:
    """An integer in lo..hi; the message abbreviates a long rejected value."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f">= {lo} and <= {hi}"
        raise SpecFileError(f"{where} must be an integer {bound}, got {reprlib.repr(value)}")
    return value


def _pair(value, where: str, shape: str):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecFileError(f"{where} must be {shape}")
    return value


def interval(value, where: str) -> tuple[float, float]:
    """[lo, hi] with lo < hi, a finite distance apart so that uniform draws
    over it stay finite."""
    lo, hi = (finite(v, where) for v in _pair(value, where, "[lo, hi]"))
    if not (lo < hi and math.isfinite(hi - lo)):
        raise SpecFileError(f"{where} needs lo < hi a finite distance apart, got [{lo!r}, {hi!r}]")
    return (lo, hi)


def domain(value, where: str) -> tuple[float, float]:
    """Open interval [lo, hi] whose null ends (or a null value) are unbounded."""
    lo, hi = _pair([None, None] if value is None else value, where, "[lo, hi], null for unbounded")
    lo = -math.inf if lo is None else finite(lo, where)
    hi = math.inf if hi is None else finite(hi, where)
    if not lo < hi:
        raise SpecFileError(f"{where} needs lo < hi, got [{lo!r}, {hi!r}]")
    return (lo, hi)


def numbers(length: int):
    """Parser of a list of `length` finite numbers."""

    def parse(value, where: str) -> list[float]:
        try:
            if isinstance(value, (list, tuple)) and len(value) == length:
                return [finite(v, where) for v in value]
        except SpecFileError:
            pass
        raise SpecFileError(
            f"{where} must be a list of {length} finite numbers, got {reprlib.repr(value)}"
        )

    return parse


def positive(value, where: str) -> float:
    """A finite number > 0."""
    value = finite(value, where)
    if not value > 0.0:
        raise SpecFileError(f"{where} must be positive, got {value!r}")
    return value


REQUIRED = object()   # schema default of a key a spec must give


def read_object(value, where: str, schema: Mapping[str, tuple[Callable, object]]) -> dict:
    """The object at JSON path `where` ('' at the top level) read through
    `schema`: each key's (parser, default), the default for an absent key.
    A non-object, an unknown key and a missing `REQUIRED` key are errors."""
    name = where or "top level"
    if not isinstance(value, dict):
        raise SpecFileError(f"{name} must be an object")
    unknown = set(value) - set(schema)
    if unknown:
        raise SpecFileError(f"{name}: unknown keys {sorted(unknown)}")
    values = {}
    for key, (parse, default) in schema.items():
        if key in value:
            values[key] = parse(value[key], f"{where}.{key}" if where else key)
        elif default is REQUIRED:
            raise SpecFileError(f"{name} needs {key!r}")
        else:
            values[key] = default
    return values
