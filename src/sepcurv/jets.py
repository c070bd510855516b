"""Second-order jets: exact (f, f', f'') propagation through arithmetic.

A `Jet2` carries a function value and its first two derivatives with respect
to a single underlying variable.  Arithmetic applies the Leibniz and chain
rules directly, so the derivative channels are exact up to floating-point
rounding; no step size and no truncation error are ever involved.

Channels are floats, or float64 arrays of many points' jets (`expr.eval_jets`
walks an expression with them; `expr.eval_jet2` is its one-point case).  The
same formulas serve both: numpy rounds + - * / per element as Python does,
and exp, log, sin, cos and powers take numpy's kernel (`_each`) at a float as
at an array, so an element carries the float jet's bits wherever it sits.
Only floats raise on a bad element, with the `math` function's text; an array
holds nan or inf there and never raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Number = int | float
Channel = float | np.ndarray
# the `math` function of each kernel, whose error a float raises
_MATH = {np.exp: math.exp, np.log: math.log, np.sin: math.sin, np.cos: math.cos,
         np.power: math.pow}


def _each(kernel: np.ufunc, x: Channel, *args: float) -> Channel:
    """numpy's `kernel` at each element of an array, or at a float.  A float
    whose value is not finite also goes to the `math` function, which raises
    there where it would (exp overflowing, sin of inf, 0^-1); otherwise the
    kernel's value stands, so a float keeps an array element's bits."""
    if isinstance(x, np.ndarray):
        return kernel(x, *args)
    with np.errstate(all="ignore"):
        v = float(kernel(x, *args))
    if not math.isfinite(v):
        _MATH[kernel](x, *args)
    return v


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
        e = _each(np.exp, self.v)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        if not isinstance(self.v, np.ndarray) and self.v <= 0.0:
            raise ValueError(f"log of non-positive value {self.v!r}")
        inv = 1.0 / self.v
        return self._compose(_each(np.log, self.v), inv, -inv * inv)

    def sin(self) -> "Jet2":
        s, c = _each(np.sin, self.v), _each(np.cos, self.v)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = _each(np.sin, self.v), _each(np.cos, self.v)
        return self._compose(c, -s, -c)

    def power(self, exponent: Number) -> "Jet2":
        """Raise to a constant real exponent.

        Integer exponents are valid for any base (zero base still needs a
        non-negative exponent); fractional exponents require a strictly
        positive base, since jets are real-valued.  An array marks such a
        base nan itself, because numpy's power of zero is finite.
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
        v = _each(np.power, x, e)
        d = e * _each(np.power, x, e - 1.0) if e != 0.0 else 0.0
        dd = e * (e - 1.0) * _each(np.power, x, e - 2.0) if e not in (0.0, 1.0) else 0.0
        return self._compose(v, d, dd)

    def is_finite(self):
        """Whether all three channels are finite (per element for arrays)."""
        return np.isfinite(self.v) & np.isfinite(self.d1) & np.isfinite(self.d2)
