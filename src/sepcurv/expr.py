"""Single-variable expression DSL: parsing, printing, 2-jet evaluation.

Grammar (whitespace between tokens is insignificant):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := '-'? NUMBER
    atom     := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := exp | log | sin | cos
    NUMBER   := digits ['.' digits] [('e' | 'E') ['+' | '-'] digits]

'+', '-', '*', '/' are left-associative.  Power binds tighter than unary
minus, which binds tighter than '*' and '/', which bind tighter than '+'
and '-'; so "-x^2" is -(x^2) and "2*x^3 - x" is (2*(x^3)) - x.  Exponents
are numeric literals only, so every power node carries a constant real
exponent.  A '-' applied directly to a number literal folds into the
constant.  An expression nests at most `MAX_DEPTH` (100) levels: no path
down its tree passes more than 100 operations, and no token sits inside more
than 100 open parentheses and unary minuses.  Deeper input is a `ParseError`
that the parser raises before its stack runs out.

`to_source` renders an AST back to text such that parsing the result yields
an equal AST, and `parse_function` pairs an AST with an open evaluation
domain.  Evaluation propagates `Jet2` values, so first and second
derivatives are exact up to rounding.  The evaluators are `eval_jets`, one
walk of the AST over an array of points keeping each point's first failure,
and its one-point case `eval_jet2`; so a point's jet and error do not
depend on the other points in the array.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DomainError, NonFiniteError, ParseError, SepcurvError, SpecFileError, _pair, number,
)
from .jets import Jet2, Number


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    pass


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: float


@dataclass(frozen=True, slots=True)
class Call:
    func: str  # one of exp log sin cos
    arg: "Node"


Node = Const | Var | Neg | BinOp | Pow | Call

FUNCTION_NAMES = ("exp", "log", "sin", "cos")

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _byte_offset(src: str, char_pos: int) -> int:
    return len(src[:char_pos].encode("utf-8"))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}", _byte_offset(src, pos)
            )
        kind = m.lastgroup or "op"
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


MAX_DEPTH = 100   # deepest nesting an expression may have


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    return (node.base,) if isinstance(node, Pow) else ()


def _depth(node: Node) -> int:
    """Operations on the longest path from `node` down to a leaf, counted
    level by level without recursion."""
    depth, level = -1, [node]
    while level:
        depth += 1
        level = [child for node in level for child in _children(node)]
    return depth


class _Parser:
    """Recursive descent over the token list, one method per production.
    `nesting` counts the open parentheses and unary minuses, so that the
    descent stops at `MAX_DEPTH` before the stack runs out."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0

    def nest(self, char_pos: int) -> None:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.fail(f"expression nested deeper than {MAX_DEPTH} levels", char_pos)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, char_pos: int) -> ParseError:
        return ParseError(message, _byte_offset(self.src, char_pos))

    def parse(self) -> Node:
        kind, _, cp = self.peek()
        if kind == "end":
            raise self.fail("empty input", cp)
        node = self.expr()
        kind, text, cp = self.peek()
        if kind != "end":
            raise self.fail(f"unexpected trailing input {text!r}", cp)
        # each operation has a token of its own, so a short input is shallow
        if len(self.tokens) > MAX_DEPTH and _depth(node) > MAX_DEPTH:
            raise self.fail(f"expression nested deeper than {MAX_DEPTH} levels", 0)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[:2] != ("op", "-"):
            return self.power()
        self.nest(self.advance()[2])
        operand = self.unary()
        self.nesting -= 1
        return Const(-operand.value) if isinstance(operand, Const) else Neg(operand)

    def power(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            return Pow(node, self.exponent())
        return node

    def exponent(self) -> float:
        sign = 1.0
        kind, text, cp = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1.0
            kind, text, cp = self.peek()
        if kind != "num":
            raise self.fail("exponent must be a numeric literal", cp)
        self.advance()
        return sign * float(text)

    def atom(self) -> Node:
        kind, text, cp = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "x":
                return Var()
            if text in FUNCTION_NAMES:
                k2, t2, cp2 = self.advance()
                if not (k2 == "op" and t2 == "("):
                    raise self.fail(f"expected '(' after {text!r}", cp2)
                return Call(text, self.group(cp2))
            raise self.fail(f"unknown identifier {text!r}", cp)
        if kind == "op" and text == "(":
            return self.group(cp)
        if kind == "end":
            raise self.fail("unexpected end of input", cp)
        raise self.fail(
            f"expected a number, 'x', a function call, '(' or '-', got {text!r}", cp
        )

    def group(self, char_pos: int) -> Node:
        """The expression after an opening parenthesis, and its ')'."""
        self.nest(char_pos)
        node = self.expr()
        kind, text, cp = self.advance()
        if not (kind == "op" and text == ")"):
            raise self.fail("expected ')'", cp)
        self.nesting -= 1
        return node


def parse(src: str) -> Node:
    """Parse expression source text into an AST."""
    return _Parser(src).parse()


# precedence levels used by the printer; higher binds tighter
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, Const):
        # a negative literal prints with a leading '-', so it parenthesizes
        # like a unary minus
        if node.value < 0.0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0.0):
            return _P_NEG
        return _P_ATOM
    if isinstance(node, (Var, Call)):
        return _P_ATOM
    if isinstance(node, Pow):
        return _P_POW
    if isinstance(node, Neg):
        return _P_NEG
    return _P_ADD if node.op in "+-" else _P_MUL


def _render(node: Node, min_prec: int) -> str:
    if isinstance(node, Const):
        s = repr(node.value)
    elif isinstance(node, Var):
        s = "x"
    elif isinstance(node, Neg):
        s = "-" + _render(node.operand, _P_NEG)
    elif isinstance(node, Pow):
        s = _render(node.base, _P_ATOM) + "^" + repr(node.exponent)
    elif isinstance(node, Call):
        s = f"{node.func}({_render(node.arg, _P_ADD)})"
    else:
        if node.op in "+-":
            s = f"{_render(node.left, _P_ADD)} {node.op} {_render(node.right, _P_MUL)}"
        else:
            s = f"{_render(node.left, _P_MUL)}{node.op}{_render(node.right, _P_NEG)}"
    if _prec(node) < min_prec:
        return "(" + s + ")"
    return s


def to_source(node: Node) -> str:
    """Render an AST to source text; parsing the result gives an equal AST."""
    return _render(node, _P_ADD)


@dataclass(frozen=True)
class Function1D:
    """A parsed single-variable function with an open evaluation domain.

    Immutable after construction; the domain is the open interval (lo, hi)
    with infinite ends allowed, and evaluation outside it raises.  The
    domain is a list or tuple of two numbers, neither a boolean nor NaN,
    with lo < hi, else a `SpecFileError`.
    """

    ast: Node
    domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        lo, hi = (number(end, "domain") for end in _pair(self.domain, "domain", "[lo, hi]"))
        if not lo < hi:
            raise SpecFileError(f"domain ends must satisfy lo < hi, got ({lo!r}, {hi!r})")
        object.__setattr__(self, "domain", (lo, hi))

    def source(self) -> str:
        return to_source(self.ast)

    def contains(self, x):
        """Whether x (a float, or each element of an array) is in the domain."""
        lo, hi = self.domain
        return (lo < x) & (x < hi)


def parse_function(src: str, domain: tuple[float, float] = (-math.inf, math.inf)) -> Function1D:
    """Parse source text into a `Function1D` on the given open domain."""
    return Function1D(parse(src), domain)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_ELEMENT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _walk(node: Node, seed: Jet2, failed: dict[int, Exception]) -> Jet2:
    """node's 2-jets at every point of `seed`'s arrays.  Each point's first
    failure in evaluation order (left operand before right, operand before
    operator) goes into `failed` under the point's index; a failed point's
    channels read nan from its failing node on.  An array operation never
    raises, so only the points it leaves non-finite run again on floats.  They
    are searched for only when some v * d1 * d2 is not finite: a nan or inf
    channel makes it so (0 * inf is nan), and finite ones only by overflow."""
    if isinstance(node, Var):
        return seed
    if isinstance(node, Const):
        if not math.isfinite(node.value):
            error = NonFiniteError(f"non-finite constant {node.value!r}")
            for p in range(seed.v.size):
                failed.setdefault(p, error)
        zero = np.zeros_like(seed.v)
        return Jet2(np.full_like(seed.v, node.value), zero, zero)
    if isinstance(node, Neg):
        return -_walk(node.operand, seed, failed)
    if isinstance(node, Pow):
        args, op = (_walk(node.base, seed, failed),), partial(Jet2.power, exponent=node.exponent)
    elif isinstance(node, Call):
        args, op = (_walk(node.arg, seed, failed),), getattr(Jet2, node.func)
    else:
        left = _walk(node.left, seed, failed)
        args, op = (left, _walk(node.right, seed, failed)), _BINARY[node.op]
    out = op(*args)
    if np.isfinite(out.v * out.d1 * out.d2).all():
        return out
    # a point whose array result is not finite runs again on floats, where
    # it carries the same bits, to fail as the float jet does: raising, or
    # with a non-finite channel
    for p in np.flatnonzero(~out.is_finite()).tolist():
        if p not in failed:
            try:
                op(*(Jet2(float(a.v[p]), float(a.d1[p]), float(a.d2[p])) for a in args))
            except _ELEMENT_ERRORS as exc:
                failed[p] = exc.with_traceback(None)
            else:
                failed[p] = NonFiniteError(f"non-finite value in {to_source(node)!r}")
        out.v[p] = out.d1[p] = out.d2[p] = math.nan
    return out


def eval_jets(f: Function1D, x: np.ndarray) -> tuple[Jet2, dict[int, SepcurvError]]:
    """f's 2-jets at every point of a float64 array, one walk of f's AST.

    Returns the jets as one `Jet2` of arrays and each failing point's error
    by index; a failing point's channels read 0.  Every other point's jet,
    and every error, equals `eval_jet2` at that point bit for bit and text
    for text: the per-point rules are the same, element by element.  A
    walk with no failure skips the per-point failure handling.
    """
    x = np.array(x, dtype=float)   # a copy, so that the jet of f = x does not alias the input
    lo, hi = f.domain
    inside = f.contains(x)
    failed: dict[int, Exception] = {} if inside.all() else {
        p: DomainError(f"x = {float(x[p])!r} outside open domain ({lo!r}, {hi!r})")
        for p in np.flatnonzero(~inside).tolist()
    }
    with np.errstate(all="ignore"):   # a nan seed raises nowhere
        seed = Jet2(np.where(inside, x, math.nan) if failed else x, np.ones(x.size), np.zeros(x.size))
        jet = _walk(f.ast, seed, failed)
    if not failed:
        return jet, failed
    for p, exc in failed.items():
        if not isinstance(exc, SepcurvError):   # an element raised inside an operation
            failed[p] = NonFiniteError(f"evaluating {f.source()!r} at x = {float(x[p])!r}: {exc}")
            failed[p].__cause__ = exc
        jet.v[p] = jet.d1[p] = jet.d2[p] = 0.0
    return jet, dict(sorted(failed.items()))


def eval_jet2(f: Function1D, x: Number) -> Jet2:
    """Evaluate f's 2-jet at x: the one-point case of `eval_jets`.

    Raises `DomainError` if x is outside the declared open domain and
    `NonFiniteError` if any intermediate value fails to be finite (log of a
    non-positive value, division by zero, overflow, zero base with negative
    exponent); the error names the first failing node in evaluation order.
    """
    jet, errors = eval_jets(f, np.array([float(x)]))
    if errors:
        raise errors[0]
    return Jet2(float(jet.v[0]), float(jet.d1[0]), float(jet.d2[0]))
