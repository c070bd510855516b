import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepcurv import (
    DomainError,
    Function1D,
    NonFiniteError,
    ParseError,
    eval_jet2,
    parse,
    parse_function,
    to_source,
)
from sepcurv import expr
from sepcurv.expr import FUNCTION_NAMES, BinOp, Call, Const, Neg, Pow, Var

from corpus import EXPRESSIONS
from oracles import fd_jet, ref_parse

# ------------------------------------------------------------ fixed ASTs


def test_identity_ast():
    assert parse("x") == Var()


def test_number_ast():
    assert parse("2.5") == Const(2.5)
    assert parse("1e-2") == Const(0.01)
    assert parse("1.5E2") == Const(150.0)


def test_scaled_log_ast():
    assert parse("-0.5*log(x)") == BinOp("*", Const(-0.5), Call("log", Var()))


def test_cubic_minus_linear_ast():
    assert parse("x^3 - 2*x") == BinOp(
        "-", Pow(Var(), 3.0), BinOp("*", Const(2.0), Var())
    )


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Neg(Pow(Var(), 2.0))
    assert parse("(-x)^2") == Pow(Neg(Var()), 2.0)


@pytest.mark.parametrize(
    "src, ast",
    [
        ("-x^2", Neg(Pow(Var(), 2.0))),
        ("-2^2", Neg(Pow(Const(2.0), 2.0))),
        ("(-x^2)^3", Pow(Neg(Pow(Var(), 2.0)), 3.0)),
        ("-(x^2)^3", Neg(Pow(Pow(Var(), 2.0), 3.0))),
        ("--2", Const(2.0)),
    ],
)
def test_unary_minus_asts(src, ast):
    assert parse(src) == ast


def test_negative_literal_folds():
    assert parse("-2") == Const(-2.0)
    assert parse("-2*x") == BinOp("*", Const(-2.0), Var())
    assert parse("2 - -3") == BinOp("-", Const(2.0), Const(-3.0))


def test_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Const(1.0), Const(2.0)), Const(3.0))
    assert parse("8/4/2") == BinOp("/", BinOp("/", Const(8.0), Const(4.0)), Const(2.0))


def test_mul_binds_tighter_than_add():
    two_plus = parse("2 + 3*4")
    assert two_plus == BinOp("+", Const(2.0), BinOp("*", Const(3.0), Const(4.0)))
    assert parse("(2 + 3)*4") == BinOp("*", BinOp("+", Const(2.0), Const(3.0)), Const(4.0))


def test_exponent_forms():
    assert parse("x^2") == Pow(Var(), 2.0)
    assert parse("x^-2") == Pow(Var(), -2.0)
    assert parse("x^0.5") == Pow(Var(), 0.5)
    assert parse("x^1e-07") == Pow(Var(), 1e-07)


def test_power_of_call():
    assert parse("cos(x)^2") == Pow(Call("cos", Var()), 2.0)


def test_whitespace_insensitive():
    assert parse(" x ^ 2 +  1 ") == parse("x^2+1")


# ------------------------------------------------------------ parse errors


@pytest.mark.parametrize(
    "src, offset, fragment",
    [
        ("", 0, "empty input"),
        ("tan(x)", 0, "unknown identifier 'tan'"),
        ("x + y", 4, "unknown identifier 'y'"),
        ("x 2", 2, "unexpected trailing input"),
        ("2*", 2, "unexpected end of input"),
        ("(x", 2, "expected ')'"),
        ("log x", 4, "expected '(' after 'log'"),
        ("x^x", 2, "exponent must be a numeric literal"),
        ("x^(2)", 2, "exponent must be a numeric literal"),
        (")", 0, "expected a number"),
        ("x*µ", 2, "unexpected character"),
    ],
)
def test_parse_error_offsets(src, offset, fragment):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert info.value.offset == offset
    assert fragment in str(info.value)
    assert f"(byte {offset})" in str(info.value)


@pytest.mark.parametrize("src", ["x^2^3", "-x^2^3", "--x^2^3", "2*-x^2^3"])
def test_power_does_not_chain_after_unary_minus(src):
    # power := atom ('^' exponent)?, and a unary minus is no atom
    with pytest.raises(ParseError) as info:
        parse(src)
    assert info.value.offset == src.rindex("^")
    assert "unexpected trailing input '^'" in str(info.value)
    with pytest.raises(ValueError, match="trailing input"):
        ref_parse(src)


def test_readme_states_the_parser_grammar():
    def grammar(text):
        lines = [line.strip() for line in text.splitlines()]
        start = next(i for i, line in enumerate(lines) if line.startswith("expr     :="))
        return lines[start:lines.index("", start)]

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert grammar(readme.replace("```", "")) == grammar(expr.__doc__)


def test_whitespace_only_is_empty():
    with pytest.raises(ParseError, match="empty input"):
        parse("   ")


def test_offset_counts_bytes_not_chars():
    # 'µ' encodes to two bytes; the error lands on it, reported in bytes
    with pytest.raises(ParseError) as info:
        parse("2*xµ + 1")
    assert info.value.offset == 3
    # and a later error would shift by the extra byte: not reachable with
    # this grammar, since no multi-byte character ever tokenizes


# --------------------------------------------------- reference parser check

EXTRA_SOURCES = [
    "2 - -3",
    "--x",
    "-x^-2",
    "2*-x",
    "x/-x",
    "x - -x",
    "sin(x)^-1.5",
    "((x))",
    "-(x)",
    "1 + 2*3 - 4/5^2",
    "exp(log(x))",
    "0.5^2",
]


@pytest.mark.parametrize("src", [e[0] for e in EXPRESSIONS] + EXTRA_SOURCES)
def test_matches_reference_parser(src):
    assert parse(src) == ref_parse(src)


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("src", [e[0] for e in EXPRESSIONS] + EXTRA_SOURCES)
def test_parse_print_parse_fixed_point(src):
    ast = parse(src)
    assert parse(to_source(ast)) == ast


def test_printed_forms():
    assert to_source(parse("x^3 - 2*x")) == "x^3.0 - 2.0*x"
    assert to_source(parse("-(x*2)")) == "-(x*2.0)"
    assert to_source(parse("-x^2")) == "-x^2.0"
    assert to_source(parse("(-x)^2")) == "(-x)^2.0"
    assert to_source(parse("1/(x + 4)")) == "1.0/(x + 4.0)"


def _canonical_neg(node):
    if isinstance(node, Const):
        return Const(-node.value)
    return Neg(node)


_exponents = st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5, 0.0, 1.0])

_leaves = st.one_of(
    st.just(Var()),
    st.builds(
        Const,
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
)

_asts = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(_canonical_neg, kids),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
        st.builds(Pow, kids, _exponents),
        st.builds(Call, st.sampled_from(FUNCTION_NAMES), kids),
    ),
    max_leaves=25,
)


@given(_asts)
def test_round_trip_random_asts(ast):
    # parser-canonical ASTs (negated literals folded) survive printing
    assert parse(to_source(ast)) == ast


# ------------------------------------------------------------- evaluation


@pytest.mark.parametrize("src, domain, window", EXPRESSIONS)
def test_jet_matches_finite_differences(src, domain, window):
    f = parse_function(src, domain)
    rng = np.random.default_rng(zlib.crc32(src.encode()))
    lo, hi = window
    for x in rng.uniform(lo, hi, size=25):
        jet = eval_jet2(f, float(x))
        fd = fd_jet(f, float(x))
        for got, want in zip((jet.v, jet.d1, jet.d2), fd):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(got))


def test_eval_spec_jet_example():
    f = parse_function("x^3 - 2*x")
    jet = eval_jet2(f, 1.5)
    assert (jet.v, jet.d1, jet.d2) == (0.375, 4.75, 9.0)


def test_domain_enforced():
    f = parse_function("log(x)", (0.0, math.inf))
    with pytest.raises(DomainError):
        eval_jet2(f, -1.0)
    with pytest.raises(DomainError):
        eval_jet2(f, 0.0)  # boundary excluded: the domain is open
    assert eval_jet2(f, 1.0).v == 0.0


def test_non_finite_evaluation():
    with pytest.raises(NonFiniteError):
        eval_jet2(parse_function("log(x - 5)"), 1.0)
    with pytest.raises(NonFiniteError):
        eval_jet2(parse_function("1/x"), 0.0)
    with pytest.raises(NonFiniteError):
        eval_jet2(parse_function("exp(x)"), 1000.0)
    with pytest.raises(NonFiniteError):
        eval_jet2(parse_function("x^-2"), 0.0)
    with pytest.raises(NonFiniteError):
        eval_jet2(parse_function("x^0.5"), -1.0)


def test_non_finite_constant():
    f = Function1D(Const(math.inf))
    with pytest.raises(NonFiniteError):
        eval_jet2(f, 0.0)


def test_overflow_in_addition_detected():
    big = Const(1e308)
    f = Function1D(BinOp("+", big, big))
    with pytest.raises(NonFiniteError):
        eval_jet2(f, 0.0)


def test_function_domain_validation():
    with pytest.raises(ValueError):
        Function1D(Var(), (1.0, 1.0))
    with pytest.raises(ValueError):
        Function1D(Var(), (2.0, -1.0))
    with pytest.raises(ValueError):
        Function1D(Var(), (math.nan, 1.0))


def test_function_contains():
    f = parse_function("log(x + 3)", (-3.0, math.inf))
    assert f.contains(0.0)
    assert not f.contains(-3.0)
    assert not f.contains(-4.0)
    assert f.source() == "log(x + 3.0)"
