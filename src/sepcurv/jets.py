"""Second-order jets: exact (f, f', f'') propagation through arithmetic.

A `Jet2` carries a function value and its first two derivatives with respect
to a single underlying variable.  Arithmetic applies the Leibniz and chain
rules directly, so the derivative channels are exact up to floating-point
rounding; no step size and no truncation error are ever involved.

Channels are floats, or float64 arrays of many points' jets (`expr.eval_jets`
walks an expression with them; `expr.eval_jet2` is its one-point case).  The
same formulas serve both: numpy rounds + - * / per element as Python does,
and `_each` calls the `math` function per element, so an element carries the
float jet's bits.  Only floats raise on a bad element; an array holds nan
there, or inf after a division by zero, and never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Number = int | float
Channel = float | np.ndarray
_RAISES = (ValueError, OverflowError)


def _each(fn, x: Channel, *args: float) -> Channel:
    """The `math` function fn at a float, or at each element of an array,
    where an element that raises reads nan."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    try:
        return np.frompyfunc(fn, 1 + len(args), 1)(x, *args).astype(float)
    except _RAISES:   # rare, so only then is each element guarded
        pass

    def guarded(*element: float) -> float:
        try:
            return fn(*element)
        except _RAISES:
            return math.nan

    return np.frompyfunc(guarded, 1 + len(args), 1)(x, *args).astype(float)


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and first two derivatives of a function at one point, or at each
    point of an array (every channel an array of the same shape)."""

    v: Channel
    d1: Channel = 0.0
    d2: Channel = 0.0

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return Jet2(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.v
        return Jet2(q, q1, q2)

    def _compose(self, v: Channel, d: Channel, dd: Channel) -> "Jet2":
        # chain rule for an outer map with derivatives (v, d, dd) at self.v
        return Jet2(v, d * self.d1, dd * self.d1 * self.d1 + d * self.d2)

    def exp(self) -> "Jet2":
        e = _each(math.exp, self.v)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        if not isinstance(self.v, np.ndarray) and self.v <= 0.0:
            raise ValueError(f"log of non-positive value {self.v!r}")
        inv = 1.0 / self.v
        return self._compose(_each(math.log, self.v), inv, -inv * inv)

    def sin(self) -> "Jet2":
        s, c = _each(math.sin, self.v), _each(math.cos, self.v)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = _each(math.sin, self.v), _each(math.cos, self.v)
        return self._compose(c, -s, -c)

    def power(self, exponent: Number) -> "Jet2":
        """Raise to a constant real exponent.

        Integer exponents are valid for any base (zero base still needs a
        non-negative exponent); fractional exponents require a strictly
        positive base, since jets are real-valued.  An array marks such a
        base nan itself, because `math.pow` of zero does not raise.
        """
        e = float(exponent)
        x = self.v
        if not e.is_integer():
            if isinstance(x, np.ndarray):
                x = np.where(x > 0.0, x, math.nan)
            elif x <= 0.0:
                raise ValueError(
                    f"non-integer exponent {e!r} requires a positive base, got {x!r}"
                )
        v = _each(math.pow, x, e)
        d = e * _each(math.pow, x, e - 1.0) if e != 0.0 else 0.0
        dd = e * (e - 1.0) * _each(math.pow, x, e - 2.0) if e not in (0.0, 1.0) else 0.0
        return self._compose(v, d, dd)

    def is_finite(self):
        """Whether all three channels are finite (per element for arrays)."""
        return np.isfinite(self.v) & np.isfinite(self.d1) & np.isfinite(self.d2)
