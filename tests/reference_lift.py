"""Reference oracle for the array jet walk and the batched height lift.

This is the scalar code the package used before its jets and its lift
became array evaluations: `ScalarJet` (the float-only `Jet2`),
`reference_jet2` (the recursive one-point AST walk), `reference_root` (the
one-partial Newton/bisection solve) and `reference_lift` (one solve per
partial, the rows stacked into a `JetTable` and gated once).  It is kept
unchanged in substance but for one thing: `ScalarJet` takes exp, log, sin,
cos and powers from numpy's kernel at one float, as the array jets do, and
calls the `math` function only to raise its error.  Tests require the
package's array code to match it bit for bit and error text for error
text.

Its sums follow their own overflow rule, written here apart from the
package's: `exact_sum` reads a sum of finite terms past the float range as
inf, so that rows whose sums overflow can be compared too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sepcurv import geometry
from sepcurv.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NonFiniteError,
    SepcurvError,
    SolveError,
)
from sepcurv.expr import BinOp, Call, Const, Neg, Pow, Var, to_source
from sepcurv.geometry import JetTable, SurfacePoint


def _kernel(ufunc, fn, x: float, *args: float) -> float:
    """numpy's `ufunc` at one float; where its value is not finite, the
    `math` function `fn` runs too, to raise where it raises."""
    with np.errstate(all="ignore"):
        v = float(ufunc(x, *args))
    if not math.isfinite(v):
        fn(x, *args)
    return v


@dataclass(frozen=True, slots=True)
class ScalarJet:
    """Value and first two derivatives of a function at one point."""

    v: float
    d1: float = 0.0
    d2: float = 0.0

    def __add__(self, o):
        return ScalarJet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __neg__(self):
        return ScalarJet(-self.v, -self.d1, -self.d2)

    def __sub__(self, o):
        return ScalarJet(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __mul__(self, o):
        return ScalarJet(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    def __truediv__(self, o):
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v
        return ScalarJet(q, q1, q2)

    def _compose(self, v, d, dd):
        return ScalarJet(v, d * self.d1, dd * self.d1 * self.d1 + d * self.d2)

    def exp(self):
        e = _kernel(np.exp, math.exp, self.v)
        return self._compose(e, e, e)

    def log(self):
        if self.v <= 0.0:
            raise ValueError(f"log of non-positive value {self.v!r}")
        inv = 1.0 / self.v
        return self._compose(_kernel(np.log, math.log, self.v), inv, -inv * inv)

    def sin(self):
        s, c = _kernel(np.sin, math.sin, self.v), _kernel(np.cos, math.cos, self.v)
        return self._compose(s, c, -s)

    def cos(self):
        s, c = _kernel(np.sin, math.sin, self.v), _kernel(np.cos, math.cos, self.v)
        return self._compose(c, -s, -c)

    def power(self, exponent):
        e = float(exponent)
        x = self.v
        if x <= 0.0 and not e.is_integer():
            raise ValueError(
                f"non-integer exponent {e!r} requires a positive base, got {x!r}"
            )
        v = _kernel(np.power, math.pow, x, e)
        d = e * _kernel(np.power, math.pow, x, e - 1.0) if e != 0.0 else 0.0
        dd = e * (e - 1.0) * _kernel(np.power, math.pow, x, e - 2.0) if e not in (0.0, 1.0) else 0.0
        return self._compose(v, d, dd)

    def is_finite(self):
        return math.isfinite(self.v) and math.isfinite(self.d1) and math.isfinite(self.d2)


def _eval(node, seed: ScalarJet) -> ScalarJet:
    if isinstance(node, Const):
        if not math.isfinite(node.value):
            raise NonFiniteError(f"non-finite constant {node.value!r}")
        return ScalarJet(node.value)
    if isinstance(node, Var):
        return seed
    if isinstance(node, Neg):
        return -_eval(node.operand, seed)
    if isinstance(node, Pow):
        out = _eval(node.base, seed).power(node.exponent)
    elif isinstance(node, Call):
        out = getattr(_eval(node.arg, seed), node.func)()
    else:
        assert isinstance(node, BinOp)
        a = _eval(node.left, seed)
        b = _eval(node.right, seed)
        out = {"+": a.__add__, "-": a.__sub__, "*": a.__mul__, "/": a.__truediv__}[node.op](b)
    if not out.is_finite():
        raise NonFiniteError(f"non-finite value in {to_source(node)!r}")
    return out


def reference_jet2(f, x) -> ScalarJet:
    """f's 2-jet at x by the recursive scalar walk."""
    x = float(x)
    lo, hi = f.domain
    if not lo < x < hi:
        raise DomainError(f"x = {x!r} outside open domain ({lo!r}, {hi!r})")
    try:
        return _eval(f.ast, ScalarJet(x, 1.0, 0.0))
    except NonFiniteError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteError(f"evaluating {f.source()!r} at x = {x!r}: {exc}") from exc


def exact_sum(terms) -> float:
    """The correctly rounded sum of finite terms, or inf where it lies past
    the float range: `math.fsum` raises there instead."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def reference_root(surface, partial, bracket):
    """One partial's height solve; returns the point and the n jets it
    evaluated (the others' at its start, the height's at the root)."""
    n = surface.n
    h0 = surface.height - 1
    partial = [float(v) for v in partial]
    if len(partial) != n - 1:
        raise ValueError(f"expected {n - 1} partial coordinates, got {len(partial)}")
    fh = surface.funcs[h0]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket ends must be increasing, got ({lo!r}, {hi!r})")
    dlo, dhi = fh.domain
    if not (dlo < lo and hi < dhi):
        raise DomainError(
            f"bracket ({lo!r}, {hi!r}) not inside height domain ({dlo!r}, {dhi!r})"
        )

    other_funcs = [surface.funcs[k] for k in range(n) if k != h0]
    others = [reference_jet2(f, x) for f, x in zip(other_funcs, partial)]
    rest = exact_sum(j.v for j in others)
    abs_rest = exact_sum(abs(j.v) for j in others)

    def residual_tol(t, height_value):
        """The on-surface tolerance at height t; a sum of |f_k| past the float
        range would accept any t, so the partial fails there."""
        tol = geometry.ON_SURFACE_RTOL * max(1.0, abs_rest + abs(height_value))
        if tol == math.inf:
            coords = (*partial[:h0], t, *partial[h0:])
            raise NonFiniteError(f"sum of |f_k| overflows at {coords!r}")
        return tol

    def root(t, jet):
        coords = (*partial[:h0], t, *partial[h0:])
        return SurfacePoint(coords, abs(jet.v + rest)), (*others[:h0], jet, *others[h0:])

    jlo = reference_jet2(fh, lo)
    glo = jlo.v + rest
    if abs(glo) <= residual_tol(lo, jlo.v):
        return root(lo, jlo)
    jhi = reference_jet2(fh, hi)
    ghi = jhi.v + rest
    if abs(ghi) <= residual_tol(hi, jhi.v):
        return root(hi, jhi)
    if (glo < 0.0) == (ghi < 0.0):
        raise BracketError(
            f"no sign change in bracket ({lo!r}, {hi!r}): "
            f"g(lo) = {glo:.6e}, g(hi) = {ghi:.6e}"
        )

    a, b = (lo, hi) if glo < 0.0 else (hi, lo)
    t = 0.5 * (lo + hi)
    step_prev = abs(hi - lo)
    gx = math.inf
    for _ in range(geometry.MAX_SOLVE_ITERATIONS):
        jet = reference_jet2(fh, t)
        gx = jet.v + rest
        if abs(gx) <= residual_tol(t, jet.v):
            return root(t, jet)
        if gx < 0.0:
            a = t
        else:
            b = t
        lo_c, hi_c = (a, b) if a < b else (b, a)
        trial = t - gx / jet.d1 if jet.d1 != 0.0 else math.nan
        if lo_c < trial < hi_c and abs(2.0 * gx) <= abs(step_prev * jet.d1):
            step_prev = abs(trial - t)
            nxt = trial
        else:
            nxt = 0.5 * (a + b)
            step_prev = abs(nxt - t)
        if nxt == a or nxt == b:
            raise ConvergenceError(
                f"bracket collapsed at t = {t!r} with residual {gx:.3e} still above "
                f"tolerance {residual_tol(t, jet.v):.3e}"
            )
        t = nxt
    raise ConvergenceError(
        f"no convergence after {geometry.MAX_SOLVE_ITERATIONS} iterations; "
        f"last residual {gx:.3e}"
    )


def reference_table(n: int, rows) -> JetTable:
    """Table of (coords, the point's n jets or the error that stopped them)."""
    d1, d2, sq_norm, errors = [], [], [], []
    for coords, jets in rows:
        error = jets if isinstance(jets, SepcurvError) else None
        if error is not None:
            jets = (ScalarJet(0.0),) * n
        d1.append([j.d1 for j in jets])
        d2.append([j.d2 for j in jets])
        sq_norm.append(exact_sum(j.d1 * j.d1 for j in jets))
        if sq_norm[-1] == math.inf:
            error = NonFiniteError(f"||grad F||^2 overflows at {coords!r}")
        errors.append(error)
    shape = (len(sq_norm), n)
    return JetTable(np.reshape(d1, shape), np.reshape(d2, shape), np.array(sq_norm), tuple(errors))


def reference_jet_table(surface, points) -> JetTable:
    """The table of every point's n jets, one scalar walk per coordinate."""

    def row(point):
        try:
            return point.coords, tuple(
                reference_jet2(f, x) for f, x in zip(surface.funcs, point.coords)
            )
        except (DomainError, NonFiniteError) as exc:
            return point.coords, exc

    return reference_table(surface.n, map(row, points))


def reference_lift(surface, partials, bracket):
    """(index, points, gated table, failures by index): one `reference_root`
    per partial, then one gate over the stacked rows."""
    index, points, failures, rows = [], [], {}, []
    for i, partial in enumerate(partials):
        try:
            point, jets = reference_root(surface, partial, bracket)
        except (SolveError, DomainError, NonFiniteError) as exc:
            failures[i] = exc
        else:
            index.append(i)
            points.append(point)
            rows.append((point.coords, jets))
    table = reference_table(surface.n, rows)
    gate = table.errors(surface.height)
    failures.update((index[p], exc) for p, exc in enumerate(gate) if exc is not None)
    keep = [p for p, exc in enumerate(gate) if exc is None]
    survivors = JetTable(table.d1[keep], table.d2[keep], table.sq_norm[keep], (None,) * len(keep))
    return [index[p] for p in keep], [points[p] for p in keep], survivors, failures
