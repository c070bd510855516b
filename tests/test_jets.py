import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcurv import Jet2
from sepcurv.jets import _each

from lifts import bits

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


def test_array_elements_read_non_finite_where_floats_raise():
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
                assert not math.isfinite(got.v[p])
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
#
# A point's jet must not depend on the other points in its array: each
# element takes numpy's kernel, whose bits must not depend on where the
# element sits or on whether it comes alone, as a float.


def _float_each(kernel, x: float, *args: float):
    """`_each` at one float: its value, or the text of the error it raises."""
    try:
        return _each(kernel, x, *args)
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


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
    "exp": (np.exp, math.exp, ()),
    "log": (np.log, math.log, ()),
    "sin": (np.sin, math.sin, ()),
    "cos": (np.cos, math.cos, ()),
    "pow 2.5": (np.power, math.pow, (2.5,)),
    "pow -1": (np.power, math.pow, (-1.0,)),
    "pow 3": (np.power, math.pow, (3.0,)),
}


@pytest.mark.parametrize("xs", KERNEL_INPUTS.values(), ids=KERNEL_INPUTS)
@pytest.mark.parametrize("kernel, fn, args", KERNEL_FUNCTIONS.values(), ids=KERNEL_FUNCTIONS)
def test_each_matches_a_per_element_math_loop(kernel, fn, args, xs):
    # an array element is finite where `math` returns a finite value; a
    # float takes the element's bits there, and raises `math`'s error
    # where `math` raises
    with np.errstate(all="ignore"):
        got = _each(kernel, xs, *args)
    assert got.dtype == np.float64 and got.shape == xs.shape
    for x, element in zip(xs.tolist(), got.tolist()):
        try:
            want = fn(x, *args)
        except (ValueError, OverflowError) as exc:
            assert not math.isfinite(element)
            assert _float_each(kernel, x, *args) == f"{type(exc).__name__}: {exc}"
        else:
            assert math.isfinite(element) == math.isfinite(want)
            assert bits(_float_each(kernel, x, *args)) == bits(element)


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
def test_jet_methods_keep_their_bits_through_the_map_kernel(method):
    # each element of an array jet reads the bits of the float jet of that
    # element where that jet is finite, and is not finite where the float jet
    # raises or is not finite (a nan's sign bit may follow which operand
    # numpy's loop or the interpreter puts first)
    rng = np.random.default_rng(7)
    v = _MIXED[rng.permutation(_MIXED.size)]
    jet = Jet2(v, rng.uniform(-3.0, 3.0, v.size), rng.uniform(-3.0, 3.0, v.size))
    with np.errstate(all="ignore"):
        got = method(jet)
    for p, element in enumerate(zip(*(c.tolist() for c in (jet.v, jet.d1, jet.d2)))):
        try:
            want = channels(method(Jet2(*element)))
        except (ValueError, OverflowError):
            want = (math.nan,)
        if all(map(math.isfinite, want)):
            assert bits([c[p] for c in channels(got)]) == bits(want)
        else:
            assert not got.is_finite()[p]


# ±0, subnormals, values whose square overflows or underflows, ±inf and nan
SQUARE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e200, -1e200, 1e154,
                 math.inf, -math.inf, math.nan, 1.5, -3.0, 0.1]


def test_square_keeps_the_bits_of_the_general_power():
    # the general power at exponent 2 reads (x^2, 2x, 2) in every channel:
    # numpy's power(x, 1.0) is x and power(x, 0.0) is 1.0 for every x, nan
    # included
    rng = np.random.default_rng(11)
    d1, d2 = rng.uniform(-3.0, 3.0, (2, len(SQUARE_INPUTS)))
    jet = Jet2(np.array(SQUARE_INPUTS), d1, d2)
    with np.errstate(all="ignore"):
        got, want = jet.power(2.0), jet._compose(np.power(jet.v, 2.0), 2.0 * jet.v, 2.0)
        assert bits(np.power(jet.v, 1.0)) == bits(jet.v)
        assert bits(np.power(jet.v, 0.0)) == bits(np.ones(len(SQUARE_INPUTS)))
    for a, b in zip(channels(got), channels(want)):
        assert a.tobytes() == b.tobytes()
    for p, (x, a, b) in enumerate(zip(SQUARE_INPUTS, d1.tolist(), d2.tolist())):
        try:
            one = channels(Jet2(x, a, b).power(2.0))
        except OverflowError:
            assert not math.isfinite(got.v[p])
            continue
        assert bits(one) == bits([c[p] for c in channels(want)])


# the edges of each kernel: ±0, subnormals, the smallest normal, ±inf, nan,
# where exp overflows and underflows to zero, and where x^2 and x^-2 leave
# the float range
KERNEL_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, math.inf, -math.inf,
    math.nan, 709.782712893384, 709.7827128933841, 710.0, -745.1332191019411,
    -745.1332191019412, -708.3964185322641, 1.3407807929942596e154, 1.3407807929942597e154,
    1.34e154, -1.34e154, 7.458340731200207e-155, 1.7976931348623157e308, -1.0, 1.0, 0.5,
]
# the kernels the jets take, with the exponents of integer, negative and
# fractional powers
POSITION_KERNELS = {
    "exp": (np.exp, ()),
    "log": (np.log, ()),
    "sin": (np.sin, ()),
    "cos": (np.cos, ()),
    "power 2": (np.power, (2.0,)),
    "power 3": (np.power, (3.0,)),
    "power -1": (np.power, (-1.0,)),
    "power -2": (np.power, (-2.0,)),
    "power 0.5": (np.power, (0.5,)),
    "power 2.5": (np.power, (2.5,)),
    "power -1.5": (np.power, (-1.5,)),
}


@st.composite
def placed_arrays(draw):
    """(base, offset, stride, length): a float array of a few thousand
    elements at most, mixing every scale with the kernel edges, and a view
    of `length` elements from `offset` every `stride`."""
    length = draw(st.integers(1, 1000))
    offset, stride = draw(st.integers(0, 17)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = offset + (length - 1) * stride + 1 + draw(st.integers(0, 9))
    scale = 10.0 ** rng.uniform(-320.0, 308.0, size)
    base = np.where(rng.random(size) < 0.5, rng.uniform(-800.0, 800.0, size),
                    np.copysign(scale, rng.uniform(-1.0, 1.0, size)))
    edges = rng.random(size) < 0.2
    base[edges] = rng.choice(KERNEL_EDGES, int(edges.sum()))
    return base, offset, stride, length


@pytest.mark.parametrize("kernel, args", POSITION_KERNELS.values(), ids=POSITION_KERNELS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(placed_arrays())
def test_kernel_bits_do_not_depend_on_position(kernel, args, case):
    base, offset, stride, length = case
    view = base[offset:offset + (length - 1) * stride + 1:stride]
    with np.errstate(all="ignore"):
        whole = kernel(base, *args)[offset::stride][:length]
        strided = kernel(view, *args)
        offset_view = kernel(base[offset:], *args)[::stride][:length]
        copied = kernel(view.copy(), *args)
        alone = [kernel(view[p:p + 1], *args) for p in range(length)]
    for got in (strided, offset_view, copied, np.concatenate(alone)):
        assert got.tobytes() == whole.tobytes()
    for x, element in zip(view.tolist(), whole.tolist()):
        one = _float_each(kernel, x, *args)
        if isinstance(one, str):
            assert not math.isfinite(element)
        else:
            assert bits(one) == bits(element)
