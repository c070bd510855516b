"""Second-order jets: exact (f, f', f'') propagation through arithmetic.

A `Jet2` carries a function value and its first two derivatives with respect
to a single underlying variable.  Arithmetic applies the Leibniz and chain
rules directly, so the derivative channels are exact up to floating-point
rounding; no step size and no truncation error are ever involved.

Channels are floats, or float64 arrays holding the jets of many points.  The
same formulas serve both: numpy rounds + - * / per element as Python does,
and `_each` calls the `math` function per element, so an element carries
the scalar jet's bits.  Only floats raise on a bad element; an array raises
for the whole array, or, dividing by zero, holds inf or nan there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Number = int | float
Channel = float | np.ndarray


def _each(fn, x: Channel, *args: float) -> Channel:
    """The `math` function fn at a float, or at each element of an array."""
    if isinstance(x, np.ndarray):
        return np.frompyfunc(fn, 1 + len(args), 1)(x, *args).astype(float)
    return fn(x, *args)


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and first two derivatives of a function at one point, or at each
    point of an array (every channel an array of the same shape)."""

    v: Channel
    d1: Channel = 0.0
    d2: Channel = 0.0

    @staticmethod
    def variable(x: Number) -> "Jet2":
        """Seed jet of the identity map at x: (x, 1, 0)."""
        return Jet2(float(x), 1.0, 0.0)

    @staticmethod
    def constant(c: Number) -> "Jet2":
        return Jet2(float(c), 0.0, 0.0)

    @staticmethod
    def _coerce(other: "Jet2 | Number") -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2(float(other), 0.0, 0.0)

    def __add__(self, other: "Jet2 | Number") -> "Jet2":
        o = Jet2._coerce(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other: "Jet2 | Number") -> "Jet2":
        o = Jet2._coerce(other)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other: "Jet2 | Number") -> "Jet2":
        return Jet2._coerce(other).__sub__(self)

    def __mul__(self, other: "Jet2 | Number") -> "Jet2":
        o = Jet2._coerce(other)
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet2 | Number") -> "Jet2":
        o = Jet2._coerce(other)
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v
        return Jet2(q, q1, q2)

    def __rtruediv__(self, other: "Jet2 | Number") -> "Jet2":
        return Jet2._coerce(other).__truediv__(self)

    def _compose(self, v: Channel, d: Channel, dd: Channel) -> "Jet2":
        # chain rule for an outer map with derivatives (v, d, dd) at self.v
        return Jet2(v, d * self.d1, dd * self.d1 * self.d1 + d * self.d2)

    def exp(self) -> "Jet2":
        e = _each(math.exp, self.v)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        if np.any(self.v <= 0.0):
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
        positive base, since jets are real-valued.
        """
        e = float(exponent)
        x = self.v
        if not e.is_integer() and np.any(x <= 0.0):
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
