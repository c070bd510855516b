"""Ready-made surface families plus sampling defaults for each.

Constructors return `SeparableSurface` instances built from explicit ASTs:

* `make_hyperplane`: every f_k affine.
* `make_cylinder`: one non-affine profile coordinate, all others affine,
  the height coordinate strictly affine with nonzero slope.
* `make_cobb_douglas_sqrt`: the lam = 1 member of `make_log_ode`,
  f_k = -log(x_k + mu_k) off the height and f_h = 2 log(x_h + mu_h) - 2 log(A);
  its graph is x_h + mu_h = A * sqrt(prod (x_k + mu_k)).
* `make_log_ode`: the one-parameter logarithmic family
  f_k = -lam log(x_k + mu_k) + beta_k, f_h = 2 lam log(x_h + mu_h) + beta_h,
  whose members all satisfy f_k'' = f_k'^2 / lam_k with lam_k = lam off the
  height and lam_h = -2 lam (so lam_i + lam_j + lam_h = 0 for every pair).
* `make_hypersphere`: f_k = (x_k - c_k)^2 with the -r^2 constant folded into
  the height function; curvature 1/r^2 on every tangent plane.
* `make_cobb_douglas_perturbed`: engineered non-example, one log coefficient
  nudged off the flat family's value.
* `make_exp_control`: engineered non-example, f_k = exp(x_k); its sampling
  boxes and bracket come from `exp_control_box`.

Each constructor checks its arguments with the value parsers of `errors`.

`FAMILIES` holds each spec kind's parameter schema, constructor call and
default sampling boxes and height bracket, for `FamilySpec` (the spec-file
form) to read through `errors.read_object`; `expression` is the schema's
parser of an expression string.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import (
    REQUIRED, ParseError, SpecFileError, domain, finite, integer, interval, numbers, positive,
    read_object,
)
from .expr import (
    BinOp, Call, Const, Function1D, Neg, Node, Pow, Var, eval_jet2, eval_jets, parse,
    parse_function,
)
from .geometry import SeparableSurface, resolve_height

def _plus(node: Node, c: float) -> Node:
    """AST for node + c: the node itself for c = 0, a subtraction for c < 0."""
    if c == 0.0:
        return node
    if c < 0.0:
        return BinOp("-", node, Const(-c))
    return BinOp("+", node, Const(c))


def _affine(lam: float, mu: float) -> Node:
    """AST for lam*x + mu with minimal node count."""
    if lam == 0.0:
        return Const(mu)
    if lam == 1.0:
        return _plus(Var(), mu)
    if lam == -1.0:
        return _plus(Neg(Var()), mu)
    return _plus(BinOp("*", Const(lam), Var()), mu)


def _log_term(coef: float, shift: float, offset: float) -> Node:
    """AST for coef*log(x + shift) + offset."""
    node: Node = Call("log", _plus(Var(), shift))
    if coef == -1.0:
        node = Neg(node)
    elif coef != 1.0:
        node = BinOp("*", Const(coef), node)
    return _plus(node, offset)


def _numbers(values: Sequence[float], where: str, length: int | None = None) -> list[float]:
    """Any sequence read as `errors.numbers` reads a list (of `length` entries if given)."""
    values = list(values)
    return numbers(len(values) if length is None else length)(values, where)


def make_hyperplane(
    coeffs: Sequence[float], offset: float = 0.0, height: int | None = None
) -> SeparableSurface:
    """Affine surface sum lam_k x_k + offset = 0; flat everywhere.

    The height coefficient must be nonzero (the height coordinate has to be
    solvable), so the coefficient vector is nonzero too.
    """
    coeffs = _numbers(coeffs, "coeffs")
    offset = finite(offset, "offset")
    h = resolve_height(len(coeffs), height)
    if coeffs[h - 1] == 0.0:
        raise SpecFileError(f"height coefficient lam_{h} must be nonzero")
    funcs = [
        Function1D(_affine(c, offset if k == h - 1 else 0.0))
        for k, c in enumerate(coeffs)
    ]
    return SeparableSurface(tuple(funcs), h)


def make_cylinder(
    profile: Function1D,
    n: int,
    lin: Sequence[float] | None = None,
    offsets: Sequence[float] | None = None,
    profile_slot: int = 1,
    height: int | None = None,
) -> SeparableSurface:
    """Product of a plane curve with a flat factor: one profile coordinate,
    affine everywhere else, affine height with nonzero slope.

    `lin` and `offsets` list the affine slopes/intercepts for the non-profile
    coordinates, ascending by coordinate index (defaults: slope 1, intercept
    0).  The profile may sit at any non-height slot via `profile_slot`.
    """
    h = resolve_height(n, height)
    if integer(profile_slot, "profile_slot", 1, n) == h:
        raise SpecFileError("profile cannot occupy the height coordinate")
    others = [k for k in range(1, n + 1) if k != profile_slot]
    lin = [1.0] * (n - 1) if lin is None else _numbers(lin, "lin", n - 1)
    offsets = [0.0] * (n - 1) if offsets is None else _numbers(offsets, "offsets", n - 1)
    slot_of = dict(zip(others, range(n - 1)))
    if lin[slot_of[h]] == 0.0:
        raise SpecFileError(f"height coefficient lam_{h} must be nonzero")
    funcs: list[Function1D] = []
    for k in range(1, n + 1):
        if k == profile_slot:
            funcs.append(profile)
        else:
            r = slot_of[k]
            funcs.append(Function1D(_affine(lin[r], offsets[r])))
    return SeparableSurface(tuple(funcs), h)


def make_cobb_douglas_sqrt(
    a: float, n: int, shifts: Sequence[float] | None = None, height: int | None = None
) -> SeparableSurface:
    """Graph of x_h + mu_h = A sqrt(prod_k (x_k + mu_k)); K = 0 on every
    coordinate-pair plane, flat only for n = 3 (see `make_log_ode`).

    The lam = 1 member of `make_log_ode` with beta_h = -2 log(A): f_k =
    -log(x_k + mu_k) off the height and f_h = 2 log(x_h + mu_h) - 2 log(A);
    each domain is (-mu_k, inf).  A must be positive.
    """
    a = positive(a, "scale constant A")
    h = resolve_height(n, height)
    betas = [-2.0 * math.log(a) if k == h else 0.0 for k in range(1, n + 1)]
    return make_log_ode(1.0, n, shifts, betas, height)


def make_log_ode(
    lam: float,
    n: int,
    shifts: Sequence[float] | None = None,
    betas: Sequence[float] | None = None,
    height: int | None = None,
) -> SeparableSurface:
    """Logarithmic family f_k = -lam log(x_k + mu_k) + beta_k with the height
    carrying coefficient 2 lam (lam != 0).

    Every member satisfies f_k'' = f_k'^2 / lam_k for the coefficient vector
    from `log_family_lambdas(n, lam)`, so K = 0 on every coordinate-pair
    plane.  For n = 3 that plane is the whole tangent plane and the surface
    is flat; for n >= 4 oblique planes are not: at (1, 1, 1, 1) on the
    n = 4, lam = 1 member, span{X_1 + X_2, X_3} has K = -2/49.
    """
    lam = finite(lam, "lam")
    if lam == 0.0:
        raise SpecFileError("lam must be nonzero")
    h = resolve_height(n, height)
    shifts = [0.0] * n if shifts is None else _numbers(shifts, "shifts", n)
    betas = [0.0] * n if betas is None else _numbers(betas, "betas", n)
    funcs = [
        Function1D(
            _log_term(2.0 * lam if k == h - 1 else -lam, shifts[k], betas[k]),
            (-shifts[k], math.inf),
        )
        for k in range(n)
    ]
    return SeparableSurface(tuple(funcs), h)


def log_family_lambdas(n: int, lam: float = 1.0, height: int | None = None) -> tuple[float, ...]:
    """Coefficient vector of the logarithmic family: lam off the height,
    -2 lam at it.  Pairwise sums lam_i + lam_j + lam_h vanish exactly, in
    floating point too."""
    h = resolve_height(n, height)
    lam = finite(lam, "lam")
    return tuple(-2.0 * lam if k == h else lam for k in range(1, n + 1))


def make_hypersphere(
    center: Sequence[float], radius: float, height: int | None = None
) -> SeparableSurface:
    """Sphere of the given center and radius: f_k = (x_k - c_k)^2 with the
    -r^2 constant folded into the height function.  Curvature is 1/r^2 on
    every tangent plane."""
    radius = positive(radius, "radius")
    if math.isinf(radius * radius):   # the height function would fold in -inf
        raise SpecFileError(f"radius {radius!r} is too large: its square overflows")
    center = _numbers(center, "center")
    h = resolve_height(len(center), height)
    funcs = [
        Function1D(_plus(Pow(_plus(Var(), -c), 2.0), -radius * radius if k == h - 1 else 0.0))
        for k, c in enumerate(center)
    ]
    return SeparableSurface(tuple(funcs), h)


def make_cobb_douglas_perturbed(
    a: float, n: int, epsilon: float, slot: int = 1, height: int | None = None
) -> SeparableSurface:
    """Engineered non-example: one log coefficient moved off the flat value.

    Identical to `make_cobb_douglas_sqrt(a, n)` except coordinate `slot`
    carries f = -(1 + 2*epsilon) log(x); already epsilon = 0.05 makes the
    curvature visibly non-constant."""
    base = make_cobb_douglas_sqrt(a, n, height=height)
    if integer(slot, "slot", 1, n) == base.height:
        raise SpecFileError(f"slot {slot} is the height coordinate")
    epsilon = finite(epsilon, "epsilon")
    if epsilon == 0.0:
        raise SpecFileError("epsilon must be nonzero, otherwise the surface is the flat member")
    funcs = list(base.funcs)
    funcs[slot - 1] = Function1D(_log_term(-(1.0 + 2.0 * epsilon), 0.0, 0.0), (0.0, math.inf))
    return SeparableSurface(tuple(funcs), base.height)


def make_exp_control(n: int, height: int | None = None) -> SeparableSurface:
    """Engineered non-example: f_k = exp(x_k) off the height and
    f_h = exp(x_h) - n, so the surface is nonempty but nowhere close to
    constant curvature."""
    h = resolve_height(n, height)
    funcs = [
        parse_function(f"exp(x) - {float(n)!r}" if k == h else "exp(x)")
        for k in range(1, n + 1)
    ]
    return SeparableSurface(tuple(funcs), h)


def exp_control_box(n: int) -> tuple[list[tuple[float, float]], tuple[float, float]]:
    """Sampling boxes and height bracket of `make_exp_control(n)`: the boxes
    keep the off-height sum of exp(x_k) below n, so exp(t) = n - sum has a
    root, and that root lies below log n because the sum is positive."""
    hi = 0.2 if n <= 5 else 0.0
    return [(-0.5, hi)] * (n - 1), (-6.0, math.log(n))


def ode_residual_subcase21(f: Function1D, lam_k: float, x: float) -> float:
    """Residual of f'' = f'^2 / lam_k at x; zero along the logarithmic family
    with its constructed coefficient vector."""
    lam_k = finite(lam_k, "lam_k")
    if lam_k == 0.0:
        raise SpecFileError("lam_k must be nonzero")
    jet = eval_jet2(f, x)
    return jet.d2 - jet.d1 * jet.d1 / lam_k


def expression(value, where: str) -> Node:
    """The AST of an expression string."""
    if not isinstance(value, str):
        raise SpecFileError(f"{where} must be a string, got {reprlib.repr(value)}")
    try:
        return parse(value)
    except ParseError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def _clipped_box(surface: SeparableSurface, **params):
    """Hyperplanes and cylinders: boxes inside each coordinate's domain,
    clipped to [-2, 2]; the bracket covers 1.5 times the largest |f_k| over
    the boxes, divided by the affine height's slope."""
    ranges: list[tuple[float, float]] = []
    bound = 1.0
    for k in surface.non_height:
        f = surface.funcs[k - 1]
        lo, hi = f.domain
        a = -2.0 if lo == -math.inf else lo + 0.1 * min(hi - lo, 1.0)
        b = 2.0 if hi == math.inf else hi - 0.1 * min(hi - lo, 1.0)
        a, b = max(a, -2.0), min(b, 2.0)
        if not a < b:
            raise SpecFileError(f"cannot derive a default range inside domain ({lo!r}, {hi!r})")
        ranges.append((a, b))
        jet, errors = eval_jets(f, [a + (b - a) * t / 32.0 for t in range(33)])
        if errors:
            raise next(iter(errors.values()))   # the first failing grid point's
        bound += 1.5 * max(map(abs, jet.v.tolist()))
    # affine height: slope from the jet, intercept from the value
    jet = eval_jet2(surface.funcs[surface.height - 1], 0.0)
    m = (bound + abs(jet.v)) / abs(jet.d1) + 1.0
    return ranges, (-m, m)


def _shifted_box(surface: SeparableSurface, shifts: Sequence[float], scale: float):
    """Graphs x_h + mu_h = scale * sqrt(prod (x_k + mu_k)): boxes with
    0.5 <= x_k + mu_k <= 2 and a bracket around the graph's height there."""
    n, mu_h = surface.n, shifts[surface.height - 1]
    ranges = [(0.5 - shifts[k - 1], 2.0 - shifts[k - 1]) for k in surface.non_height]
    lo = 0.9 * scale * 0.5 ** ((n - 1) / 2.0) - mu_h
    hi = 1.1 * scale * 2.0 ** ((n - 1) / 2.0) - mu_h
    return ranges, (lo, hi)


def _sphere_box(surface: SeparableSurface, center: Sequence[float], radius: float):
    """Boxes well inside the ball, so the lift is single-valued, and a
    bracket over the upper cap."""
    half = radius / (2.0 * math.sqrt(surface.n - 1))
    ranges = [(center[k - 1] - half, center[k - 1] + half) for k in surface.non_height]
    c_h = center[surface.height - 1]
    return ranges, (c_h + 0.1 * radius, c_h + 1.01 * radius)


MAX_N = 100           # largest dimension a family (or `certify --dims`) takes


@dataclass(frozen=True)
class Family:
    """One kind: `params(n)` maps each parameter to (parser, default),
    `make(n, height, **values)` builds the surface from the parsed values,
    and `box(surface, **values)` gives sampling boxes (one per non-height
    coordinate) and a height bracket that keep draws on the regular branch."""

    params: Callable[[int], dict[str, tuple[Callable, object]]]
    make: Callable[..., SeparableSurface]
    box: Callable[..., tuple[list[tuple[float, float]], tuple[float, float]]]


FAMILIES: dict[str, Family] = {
    "hyperplane": Family(
        lambda n: {"coeffs": (numbers(n), REQUIRED), "offset": (finite, 0.0)},
        lambda n, height, coeffs, offset: make_hyperplane(coeffs, offset, height),
        _clipped_box,
    ),
    "cylinder": Family(
        lambda n: {
            "profile_expr": (expression, parse("x^2")),
            "profile_domain": (domain, (-math.inf, math.inf)),
            "lin": (numbers(n - 1), None),
            "offsets": (numbers(n - 1), None),
            "profile_slot": (integer, 1),
        },
        lambda n, height, profile_expr, profile_domain, lin, offsets, profile_slot: make_cylinder(
            Function1D(profile_expr, profile_domain), n, lin, offsets, profile_slot, height
        ),
        _clipped_box,
    ),
    "cobb_douglas_sqrt": Family(
        lambda n: {"a": (finite, REQUIRED), "shifts": (numbers(n), [0.0] * n)},
        lambda n, height, a, shifts: make_cobb_douglas_sqrt(a, n, shifts, height),
        lambda surface, a, shifts: _shifted_box(surface, shifts, a),
    ),
    "hypersphere": Family(
        lambda n: {"center": (numbers(n), [0.0] * n), "radius": (finite, REQUIRED)},
        lambda n, height, center, radius: make_hypersphere(center, radius, height),
        _sphere_box,
    ),
    "log_ode": Family(
        lambda n: {
            "lam": (finite, REQUIRED),
            "shifts": (numbers(n), [0.0] * n),
            "betas": (numbers(n), [0.0] * n),
        },
        lambda n, height, lam, shifts, betas: make_log_ode(lam, n, shifts, betas, height),
        # the graph's scale A solves 2 lam log A + sum beta_k = 0
        lambda surface, lam, shifts, betas: _shifted_box(
            surface, shifts, math.exp(-math.fsum(betas) / (2.0 * lam))
        ),
    ),
}
FAMILY_KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """Declarative family instance: a kind plus its parameters.

    The spec-file shorthand for generated surfaces, read through the kind's
    `FAMILIES` entry.  `build()` materializes the surface; `defaults()`
    also gives its default sampling boxes and height bracket."""

    kind: str
    n: int
    params: Mapping[str, object] = field(default_factory=dict)
    height: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise SpecFileError(
                f"unknown family kind {self.kind!r}; valid kinds: {', '.join(FAMILY_KINDS)}"
            )
        integer(self.n, "family integer 'n'", 3, MAX_N)
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FamilySpec":
        if not isinstance(data, Mapping):
            raise SpecFileError("family must be an object")
        data = dict(data)
        kind = data.pop("kind", None)
        if not isinstance(kind, str):
            raise SpecFileError("family needs a string 'kind'")
        n, height = data.pop("n", None), data.pop("height", None)
        return cls(kind, n, data, height)

    def _build(self) -> tuple[SeparableSurface, dict[str, object]]:
        values = read_object(self.params, "family", FAMILIES[self.kind].params(self.n))
        try:
            return FAMILIES[self.kind].make(self.n, self.height, **values), values
        except ValueError as exc:
            raise SpecFileError(f"family {self.kind!r}: {exc}") from exc

    def build(self) -> SeparableSurface:
        return self._build()[0]

    def defaults(self) -> tuple[SeparableSurface, list[tuple[float, float]], tuple[float, float]]:
        """The surface, built once, with its default sampling boxes (one per
        non-height coordinate, ascending by index) and height bracket."""
        surface, values = self._build()
        where = f"family {self.kind!r}: default"
        try:
            ranges, bracket = FAMILIES[self.kind].box(surface, **values)
        except OverflowError as exc:
            raise SpecFileError(f"{where} bracket overflows: {exc}") from exc
        # far from the origin a box or bracket can collapse in rounding
        ranges = [interval(r, f"{where} range") for r in ranges]
        return surface, ranges, interval(bracket, f"{where} bracket")
