import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepcurv import Jet2

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
