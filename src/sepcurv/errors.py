"""Exception types shared across the package.

Each class carries its command-line exit status as `exit_code`: 2 for
malformed input, 4 for a mesh, 3 (from `SepcurvError`) for every other.
"""


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
    """The supplied bracket does not straddle a sign change."""


class ConvergenceError(SolveError):
    """Root refinement exhausted its iteration budget."""


class DegeneratePlaneError(SepcurvError, ValueError):
    """Plane section spanned by (nearly) dependent or non-tangent vectors."""


class SpecFileError(SepcurvError, ValueError):
    """A bad outside value: a malformed or inconsistent surface-spec file, a
    command-line flag value, or an argument a library entry point refuses
    (`ScanPolicy`, `SeparableSurface`, the family constructors, `build_mesh`)."""

    exit_code = 2


class MeshError(SepcurvError):
    """Mesh export could not produce a usable mesh."""

    exit_code = 4


def describe(exc: Exception) -> str:
    """A failure as reports record it: 'ClassName: message'."""
    return f"{type(exc).__name__}: {exc}"
