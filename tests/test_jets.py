import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sepcurv.jets as jet_module
from sepcurv import Jet2
from sepcurv.jets import _each

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
jets = st.builds(Jet2, finite, finite, finite)
# divisors with bounded channels keep the cancellation in (a/b)*b benign
divisors = st.builds(
    Jet2,
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


def channels(j: Jet2) -> tuple[float, float, float]:
    return (j.v, j.d1, j.d2)


def assert_jet_close(a: Jet2, b: Jet2, rel: float = 1e-12, scale: float = 0.0):
    # one magnitude scale for the whole jet: a channel that is exactly zero
    # may come back as rounding dust proportional to its siblings
    magnitude = max(*(abs(c) for c in channels(a) + channels(b)), scale, 1e-300)
    for x, y in zip(channels(a), channels(b)):
        assert abs(x - y) <= rel * magnitude


def test_variable_seed():
    assert channels(Jet2(5.0, 1.0)) == (5.0, 1.0, 0.0)


def test_constant_seed():
    assert channels(Jet2(-2.5)) == (-2.5, 0.0, 0.0)


@given(jets, jets)
def test_add_commutes_exactly(a, b):
    assert a + b == b + a


@given(jets, jets)
def test_mul_commutes(a, b):
    lhs = a * b
    rhs = b * a
    # v and d1 commute bitwise; d2 sums its three Leibniz terms in mirrored
    # order, so it commutes only up to one reassociation of the sum
    assert lhs.v == rhs.v
    assert lhs.d1 == rhs.d1
    term_scale = abs(a.d2 * b.v) + 2.0 * abs(a.d1 * b.d1) + abs(a.v * b.d2)
    assert abs(lhs.d2 - rhs.d2) <= 4.5e-16 * term_scale


@given(jets, jets, jets)
def test_add_associates(a, b, c):
    lhs = (a + b) + c
    rhs = a + (b + c)
    for x, y, ma, mb, mc in zip(
        channels(lhs), channels(rhs), channels(a), channels(b), channels(c)
    ):
        assert abs(x - y) <= 4e-16 * (abs(ma) + abs(mb) + abs(mc))


@given(jets, jets)
def test_subtract_then_add_restores(a, b):
    assert_jet_close((a - b) + b, a, rel=1e-12, scale=max(map(abs, channels(b))))


@given(jets, divisors)
def test_divide_then_multiply_restores(a, b):
    scale = 64.0 * max(1.0, *(abs(c) for c in channels(a)))
    assert_jet_close((a / b) * b, a, rel=1e-12, scale=scale)


def test_product_rule_second_order():
    # (fg)'' = f''g + 2f'g' + fg'' on a concrete pair, exact in floats
    f = Jet2(3.0, 5.0, 7.0)
    g = Jet2(2.0, -1.0, 4.0)
    prod = f * g
    assert prod.v == 6.0
    assert prod.d1 == 3.0 * -1.0 + 5.0 * 2.0
    assert prod.d2 == 7.0 * 2.0 + 2.0 * 5.0 * -1.0 + 3.0 * 4.0


def test_quotient_matches_power():
    x = Jet2(1.7, 1.0)
    assert_jet_close(Jet2(1.0) / x, x.power(-1.0))


def test_exp_jet_channels_equal():
    j = Jet2(0.8, 1.0).exp()
    assert j.v == j.d1 == j.d2 == math.exp(0.8)


def test_log_jet_at_two():
    j = Jet2(2.0, 1.0).log()
    assert channels(j) == (math.log(2.0), 0.5, -0.25)


def test_log_rejects_non_positive():
    with pytest.raises(ValueError):
        Jet2(0.0, 1.0).log()
    with pytest.raises(ValueError):
        Jet2(-1.0, 1.0).log()


@given(st.floats(min_value=0.01, max_value=100.0))
def test_exp_log_round_trip(x):
    assert_jet_close(Jet2(x, 1.0).log().exp(), Jet2(x, 1.0), rel=1e-12)


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_sin_cos_pythagorean(x):
    s = Jet2(x, 1.0).sin()
    c = Jet2(x, 1.0).cos()
    total = s * s + c * c
    assert abs(total.v - 1.0) <= 4e-16
    assert abs(total.d1) <= 4e-15
    assert abs(total.d2) <= 8e-15


def test_sin_derivative_chain():
    # sin(x) at x: (sin, cos, -sin), exact library values
    x = 1.1
    j = Jet2(x, 1.0).sin()
    assert channels(j) == (math.sin(x), math.cos(x), -math.sin(x))
    k = Jet2(x, 1.0).cos()
    assert channels(k) == (math.cos(x), -math.sin(x), -math.cos(x))


def test_power_integer_negative_base():
    j = Jet2(-2.0, 1.0).power(3.0)
    assert channels(j) == (-8.0, 12.0, -12.0)


def test_power_square():
    j = Jet2(3.0, 1.0).power(2.0)
    assert channels(j) == (9.0, 6.0, 2.0)


def test_power_fractional():
    j = Jet2(4.0, 1.0).power(0.5)
    assert channels(j) == (2.0, 0.25, -1.0 / 32.0)


def test_power_of_non_variable_base():
    # chain rule through an inner jet: (x^2)^1.5 = x^3 for x > 0
    x = 1.3
    inner = Jet2(x, 1.0).power(2.0)
    assert_jet_close(inner.power(1.5), Jet2(x, 1.0).power(3.0), rel=1e-14)


def test_power_fractional_rejects_negative_base():
    with pytest.raises(ValueError):
        Jet2(-1.0, 1.0).power(0.5)
    with pytest.raises(ValueError):
        Jet2(0.0, 1.0).power(0.5)


def test_power_zero_base_integer_exponents():
    assert channels(Jet2(0.0, 1.0).power(2.0)) == (0.0, 0.0, 2.0)
    assert channels(Jet2(0.0, 1.0).power(1.0)) == (0.0, 1.0, 0.0)
    assert channels(Jet2(0.0, 1.0).power(0.0)) == (1.0, 0.0, 0.0)
    assert channels(Jet2(0.0, 1.0).power(3.0)) == (0.0, 0.0, 0.0)


def test_power_zero_base_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Jet2(0.0, 1.0).power(-1.0)


def test_division_by_zero_value_raises():
    with pytest.raises(ZeroDivisionError):
        Jet2(1.0) / Jet2(0.0, 1.0)


def test_array_elements_read_nan_where_floats_raise():
    # log of a non-positive value, an overflowing exp, a fractional power of
    # a non-positive base and 0^-1; the other elements keep the float bits
    xs = [2.0, 0.0, -1.0, 800.0]
    arr = Jet2(np.array(xs), np.ones(4), np.zeros(4))
    cases = [
        (Jet2.log, [1, 2]),
        (Jet2.exp, [3]),
        (lambda j: j.power(2.5), [1, 2]),
        (lambda j: j.power(-1.0), [1]),
    ]
    for op, bad in cases:
        with np.errstate(all="ignore"):
            got = op(arr)
        for p, x in enumerate(xs):
            if p in bad:
                assert math.isnan(got.v[p])
                with pytest.raises((ValueError, OverflowError)):
                    op(Jet2(x, 1.0))
            else:
                assert (got.v[p], got.d1[p], got.d2[p]) == channels(op(Jet2(x, 1.0)))


def test_is_finite():
    assert Jet2(1.0, 2.0, 3.0).is_finite()
    assert not Jet2(math.inf, 0.0, 0.0).is_finite()
    assert not Jet2(0.0, math.nan, 0.0).is_finite()
    assert not Jet2(0.0, 0.0, -math.inf).is_finite()


# ------------------------------------------------------- the array kernel

def _per_element(fn, xs: np.ndarray, *args: float) -> np.ndarray:
    """fn at each element in a plain loop, nan where it raises."""
    out = []
    for x in xs.tolist():
        try:
            out.append(fn(x, *args))
        except (ValueError, OverflowError):
            out.append(math.nan)
    return np.array(out, dtype=float)


def _frompyfunc_each(fn, x, *args):
    """The array kernel as `np.frompyfunc` runs it, the reference for `_each`."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)

    def guarded(*element):
        try:
            return fn(*element)
        except (ValueError, OverflowError):
            return math.nan

    return np.frompyfunc(guarded, 1 + len(args), 1)(x, *args).astype(float)


# 3,000 values over [-800, 800] with elements where exp overflows, log and
# fractional powers raise, zero powers raise for negative exponents, and
# sin and cos raise at inf
_MIXED = np.concatenate([
    np.linspace(-800.0, 800.0, 2990),
    [0.0, -0.0, 5e-324, -1.0, 710.0, math.inf, -math.inf, math.nan, 1e308, 0.5],
])
KERNEL_INPUTS = {
    "empty": np.array([]),
    "one": np.array([0.75]),
    "one raising": np.array([-2.0]),
    "one overflowing": np.array([800.0]),
    "3000": _MIXED,
}
KERNEL_FUNCTIONS = {
    "exp": (math.exp, ()),
    "log": (math.log, ()),
    "sin": (math.sin, ()),
    "cos": (math.cos, ()),
    "pow 2.5": (math.pow, (2.5,)),
    "pow -1": (math.pow, (-1.0,)),
    "pow 3": (math.pow, (3.0,)),
}


@pytest.mark.parametrize("xs", KERNEL_INPUTS.values(), ids=KERNEL_INPUTS)
@pytest.mark.parametrize("fn, args", KERNEL_FUNCTIONS.values(), ids=KERNEL_FUNCTIONS)
def test_each_matches_a_per_element_math_loop(fn, args, xs):
    got = _each(fn, xs, *args)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert got.tobytes() == _per_element(fn, xs, *args).tobytes()


JET_METHODS = {
    "exp": lambda j: j.exp(),
    "log": lambda j: j.log(),
    "sin": lambda j: j.sin(),
    "cos": lambda j: j.cos(),
    "power 3": lambda j: j.power(3),
    "power -2": lambda j: j.power(-2),
    "power 0.5": lambda j: j.power(0.5),
    "power 1": lambda j: j.power(1),
}


@pytest.mark.parametrize("method", JET_METHODS.values(), ids=JET_METHODS)
def test_jet_methods_keep_their_bits_through_the_map_kernel(monkeypatch, method):
    rng = np.random.default_rng(7)
    v = _MIXED[rng.permutation(_MIXED.size)]
    jet = Jet2(v, rng.uniform(-3.0, 3.0, v.size), rng.uniform(-3.0, 3.0, v.size))
    with np.errstate(all="ignore"):
        got = method(jet)
        monkeypatch.setattr(jet_module, "_each", _frompyfunc_each)
        want = method(jet)
    for a, b in zip(channels(got), channels(want)):
        assert a.tobytes() == b.tobytes()


# ±0, subnormals, values whose square overflows or underflows, ±inf and nan
SQUARE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e200, -1e200, 1e154,
                 math.inf, -math.inf, math.nan, 1.5, -3.0, 0.1]


def _general_power(jet: Jet2, e: float) -> Jet2:
    """`Jet2.power`'s general formula with every channel through the
    `np.frompyfunc(math.pow)` reference."""
    v = _frompyfunc_each(math.pow, jet.v, e)
    d = e * _frompyfunc_each(math.pow, jet.v, e - 1.0)
    dd = e * (e - 1.0) * _frompyfunc_each(math.pow, jet.v, e - 2.0)
    return jet._compose(v, d, dd)


def test_square_keeps_the_bits_of_the_general_power():
    rng = np.random.default_rng(11)
    d1, d2 = rng.uniform(-3.0, 3.0, (2, len(SQUARE_INPUTS)))
    jet = Jet2(np.array(SQUARE_INPUTS), d1, d2)
    with np.errstate(all="ignore"):
        got, want = jet.power(2.0), _general_power(jet, 2.0)
    for a, b in zip(channels(got), channels(want)):
        assert a.tobytes() == b.tobytes()
    for x, a, b in zip(SQUARE_INPUTS, d1.tolist(), d2.tolist()):
        one = Jet2(x, a, b)
        try:
            want = _general_power(one, 2.0)
        except OverflowError:
            with pytest.raises(OverflowError):
                one.power(2.0)
            continue
        assert np.array(channels(one.power(2.0))).tobytes() == np.array(channels(want)).tobytes()
