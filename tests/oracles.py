"""Independent numeric oracles used only by the test-suite.

Everything here deliberately avoids the package's jet arithmetic:
expression *values* are evaluated in 50-digit arithmetic (mpmath) and all
derivatives and geometry come from central finite differences of those
values.  `ref_parse` is a second, precedence-climbing parser over the same
grammar, used to cross-check the production recursive-descent parser.
"""

from __future__ import annotations

import re

import mpmath

from sepcurv.expr import BinOp, Call, Const, Function1D, Neg, Node, Pow, Var
from sepcurv.geometry import SurfacePoint

mpmath.mp.dps = 50


# ---------------------------------------------------------------- mp values

def mp_value(node: Node, x) -> mpmath.mpf:
    """Evaluate an AST at x in mpmath arithmetic; value channel only."""
    if isinstance(node, Const):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return mpmath.mpf(x)
    if isinstance(node, Neg):
        return -mp_value(node.operand, x)
    if isinstance(node, Pow):
        base = mp_value(node.base, x)
        e = node.exponent
        if float(e).is_integer():
            return mpmath.power(base, int(e))
        return mpmath.power(base, mpmath.mpf(e))
    if isinstance(node, Call):
        return getattr(mpmath, node.func)(mp_value(node.arg, x))
    a = mp_value(node.left, x)
    b = mp_value(node.right, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return a / b


def fd_jet(f: Function1D, x: float) -> tuple[float, float, float]:
    """Central differences with step h = 1e-5 * max(1, |x|).

    Values come from 50-digit arithmetic, so the only error left is the
    difference scheme's truncation, far below the comparison tolerance.
    """
    h = mpmath.mpf(1e-5) * max(1.0, abs(x))
    x0 = mpmath.mpf(x)
    v0 = mp_value(f.ast, x0)
    vp = mp_value(f.ast, x0 + h)
    vm = mp_value(f.ast, x0 - h)
    return (
        float(v0),
        float((vp - vm) / (2 * h)),
        float((vp - 2 * v0 + vm) / (h * h)),
    )


# ------------------------------------------------------ implicit geometry

_GRAD_H = mpmath.mpf("1e-12")
_NORMAL_T = mpmath.mpf("1e-10")
_ON_SURFACE_RTOL = mpmath.mpf(1e-12)


def surface_point(surface, coords) -> SurfacePoint:
    """Explicit coordinates checked to lie on the surface, as a `SurfacePoint`.

    Every f_k is evaluated at 50 digits, and |sum f_k| must be at most
    1e-12 * max(1, sum |f_k|): the lift's scale-relative rule without its
    float rounding.  `residual` is that |sum f_k|.
    """
    coords = tuple(float(c) for c in coords)
    if len(coords) != surface.n:
        raise AssertionError(f"expected {surface.n} coordinates, got {coords!r}")
    for f, x in zip(surface.funcs, coords):
        if not f.domain[0] < x < f.domain[1]:
            raise AssertionError(f"{x!r} outside the domain {f.domain!r}")
    values = [mp_value(f.ast, x) for f, x in zip(surface.funcs, coords)]
    residual = abs(mpmath.fsum(values))
    tol = _ON_SURFACE_RTOL * max(1, mpmath.fsum(abs(v) for v in values))
    if not residual <= tol:
        raise AssertionError(
            f"|sum f_k| = {float(residual):.6e} exceeds {float(tol):.6e} at {coords!r}"
        )
    return SurfacePoint(coords, float(residual))


def _mp_gradient(surface, coords) -> list[mpmath.mpf]:
    out = []
    for f, x in zip(surface.funcs, coords):
        x0 = mpmath.mpf(x)
        out.append(
            (mp_value(f.ast, x0 + _GRAD_H) - mp_value(f.ast, x0 - _GRAD_H)) / (2 * _GRAD_H)
        )
    return out


def _mp_unit_normal(surface, coords) -> list[mpmath.mpf]:
    g = _mp_gradient(surface, coords)
    norm = mpmath.sqrt(mpmath.fsum(c * c for c in g))
    return [c / norm for c in g]


def fd_gradient(surface, coords) -> list[float]:
    return [float(c) for c in _mp_gradient(surface, coords)]


def fd_unit_normal(surface, coords) -> list[float]:
    return [float(c) for c in _mp_unit_normal(surface, coords)]


def _mp_shape_pairing(surface, coords, a, b) -> mpmath.mpf:
    """II(a, b) = <-dN(a), b> by differencing the unit-normal field along a."""
    p = [mpmath.mpf(c) for c in coords]
    a = [mpmath.mpf(c) for c in a]
    b = [mpmath.mpf(c) for c in b]
    plus = _mp_unit_normal(surface, [pi + _NORMAL_T * ai for pi, ai in zip(p, a)])
    minus = _mp_unit_normal(surface, [pi - _NORMAL_T * ai for pi, ai in zip(p, a)])
    dn = [(u - v) / (2 * _NORMAL_T) for u, v in zip(plus, minus)]
    return -mpmath.fsum(di * bi for di, bi in zip(dn, b))


def brute_sectional(surface, coords, u, w) -> float:
    """Gauss-equation curvature of span{u, w} from finite differences of the
    unit-normal field; valid for any independent tangent pair, orthonormal
    or not."""
    um = [mpmath.mpf(c) for c in u]
    wm = [mpmath.mpf(c) for c in w]
    ii_uu = _mp_shape_pairing(surface, coords, um, um)
    ii_ww = _mp_shape_pairing(surface, coords, wm, wm)
    ii_uw = _mp_shape_pairing(surface, coords, um, wm)
    guu = mpmath.fsum(a * b for a, b in zip(um, um))
    gww = mpmath.fsum(a * b for a, b in zip(wm, wm))
    guw = mpmath.fsum(a * b for a, b in zip(um, wm))
    return float((ii_uu * ii_ww - ii_uw * ii_uw) / (guu * gww - guw * guw))


def brute_coordinate_k(surface, coords, i: int, j: int) -> float:
    """Curvature of the (i, j) coordinate tangent plane, frame built from
    finite-difference gradients only.  Each frame vector e_k - (g_k/g_h) e_h
    is normalized, so the difference step along it stays 1e-10 however
    large g_k/g_h is; K does not depend on the vectors' lengths."""
    g = _mp_gradient(surface, coords)
    h0 = surface.height - 1
    n = surface.n

    def frame_vector(k: int) -> list[mpmath.mpf]:
        vec = [mpmath.mpf(0)] * n
        vec[k - 1] = mpmath.mpf(1)
        vec[h0] = -g[k - 1] / g[h0]
        norm = mpmath.sqrt(mpmath.fsum(c * c for c in vec))
        return [c / norm for c in vec]

    return brute_sectional(surface, coords, frame_vector(i), frame_vector(j))


def brute_second_form(surface, coords):
    """(n-1)x(n-1) matrix of II over the coordinate tangent frame, all from
    finite differences."""
    g = _mp_gradient(surface, coords)
    h0 = surface.height - 1
    n = surface.n
    rows = []
    others = [k for k in range(n) if k != h0]
    frame = []
    for k in others:
        vec = [mpmath.mpf(0)] * n
        vec[k] = mpmath.mpf(1)
        vec[h0] = -g[k] / g[h0]
        frame.append(vec)
    for a in frame:
        rows.append([float(_mp_shape_pairing(surface, coords, a, b)) for b in frame])
    return rows


# ------------------------------------------------------- reference parser

_REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)

_REF_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def ref_parse(src: str) -> Node:
    """Precedence-climbing parser over the same grammar; raises ValueError on
    malformed input (error details are not part of the cross-check)."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(src, pos)
        if m is None or m.lastgroup is None:
            raise ValueError(f"bad character at {pos}")
        tokens.append((m.lastgroup, m.group().strip()))
        pos = m.end()
    tokens.append(("end", ""))
    cursor = [0]

    def peek():
        return tokens[cursor[0]]

    def advance():
        tok = tokens[cursor[0]]
        cursor[0] += 1
        return tok

    def parse_atom() -> Node:
        kind, text = advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident" and text == "x":
            return Var()
        if kind == "ident" and text in ("exp", "log", "sin", "cos"):
            if advance() != ("op", "("):
                raise ValueError("expected (")
            inner = parse_binary(1)
            if advance() != ("op", ")"):
                raise ValueError("expected )")
            return Call(text, inner)
        if (kind, text) == ("op", "("):
            inner = parse_binary(1)
            if advance() != ("op", ")"):
                raise ValueError("expected )")
            return inner
        raise ValueError(f"unexpected {text!r}")

    def parse_factor() -> Node:
        if peek() == ("op", "-"):
            advance()
            operand = parse_factor()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        node = parse_atom()
        if peek() == ("op", "^"):
            advance()
            sign = 1.0
            if peek() == ("op", "-"):
                advance()
                sign = -1.0
            kind, text = advance()
            if kind != "num":
                raise ValueError("exponent must be a number")
            return Pow(node, sign * float(text))
        return node

    def parse_binary(min_prec: int) -> Node:
        left = parse_factor()
        while True:
            kind, text = peek()
            if kind != "op" or text not in _REF_BIN_PREC or _REF_BIN_PREC[text] < min_prec:
                return left
            advance()
            right = parse_binary(_REF_BIN_PREC[text] + 1)
            left = BinOp(text, left, right)

    node = parse_binary(1)
    if peek() != ("end", ""):
        raise ValueError("trailing input")
    return node
