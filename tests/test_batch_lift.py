"""The array jet walk and the batched height lift against the scalar
reference in `reference_lift`: same bits, same failure texts, whatever
the batch around a point holds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcurv import SeparableSurface, SurfacePoint, geometry, parse_function
from sepcurv.errors import describe
from sepcurv.expr import eval_jet2, eval_jets
from sepcurv.geometry import _SUM3_ROWS, _fsum, _lift, _row_sums, jet_table
from sepcurv.jets import Jet2

from corpus import EXPRESSIONS
from lifts import MIXED_BRACKET, MIXED_RANGES, assert_lift_matches_reference, bits, mixed_surface
from reference_lift import exact_sum, reference_jet2, reference_jet_table

INF = math.inf


def reference_point(f, x):
    """(v, d1, d2) or the failure text of the scalar walk at x."""
    try:
        j = reference_jet2(f, x)
    except Exception as exc:   # every failure is compared by its text
        return describe(exc)
    return (j.v, j.d1, j.d2)


def walk_points(f, xs) -> list:
    """(v, d1, d2) or the failure text of one array walk, per point."""
    jet, errors = eval_jets(f, np.asarray(xs, dtype=float))
    out = []
    for p in range(len(xs)):
        if p in errors:
            assert (jet.v[p], jet.d1[p], jet.d2[p]) == (0.0, 0.0, 0.0)
            out.append(describe(errors[p]))
        else:
            out.append((float(jet.v[p]), float(jet.d1[p]), float(jet.d2[p])))
    return out


def assert_same(got: list, want: list):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert g == w
        else:
            assert not isinstance(g, str), g
            assert bits(g) == bits(w)


def corpus_points(sample: tuple[float, float], domain: tuple[float, float]) -> list[float]:
    """56 seeded draws in the sampling interval, then 8 edge points: the
    domain's ends and values that overflow, divide by zero or leave it."""
    rng = np.random.default_rng(64)
    draws = rng.uniform(*sample, size=56).tolist()
    lo, hi = domain
    edges = [lo if math.isfinite(lo) else -1e300, hi if math.isfinite(hi) else 1e300]
    return draws + edges + [0.0, -1.0, 1.0, 800.0, -800.0, -4.0]


@pytest.mark.parametrize("source, domain, sample", EXPRESSIONS)
def test_walk_matches_scalar_reference_on_corpus(source, domain, sample):
    f = parse_function(source, domain)
    xs = corpus_points(sample, domain)
    assert len(xs) == 64
    assert_same(walk_points(f, xs), [reference_point(f, x) for x in xs])


@pytest.mark.parametrize("source, domain, sample", EXPRESSIONS[::4])
def test_walk_is_chunk_invariant(source, domain, sample):
    f = parse_function(source, domain)
    xs = corpus_points(sample, domain)
    one_by_one = [walk_points(f, [x])[0] for x in xs]
    assert_same(walk_points(f, xs), one_by_one)
    for x, want in zip(xs, one_by_one):
        if isinstance(want, str):
            with pytest.raises(Exception) as info:
                eval_jet2(f, x)
            assert describe(info.value) == want
        else:
            j = eval_jet2(f, x)
            assert bits((j.v, j.d1, j.d2)) == bits(want)


# ----------------------------------------------- numerical edges in a batch

EDGES = [
    ("exp(x)", (-INF, INF), [1.5, 800.0, -2.0],
     "NonFiniteError: evaluating 'exp(x)' at x = 800.0: math range error"),
    ("sin(exp(x))", (-INF, INF), [0.5, 800.0, 1.25],
     "NonFiniteError: evaluating 'sin(exp(x))' at x = 800.0: math range error"),
    ("exp(x)*exp(x)", (-INF, INF), [1.0, 400.0, -3.0],
     "NonFiniteError: non-finite value in 'exp(x)*exp(x)'"),
    ("1/(x - 1)", (-INF, INF), [0.5, 1.0, 2.0],
     "NonFiniteError: evaluating '1.0/(x - 1.0)' at x = 1.0: float division by zero"),
    ("log(x - 1)", (-INF, INF), [2.0, 0.5, 3.0],
     "NonFiniteError: evaluating 'log(x - 1.0)' at x = 0.5: log of non-positive value -0.5"),
    ("(x - 1)^0.5", (-INF, INF), [2.0, 0.0, 5.0],
     "NonFiniteError: evaluating '(x - 1.0)^0.5' at x = 0.0: non-integer exponent 0.5 "
     "requires a positive base, got -1.0"),
    ("x^-1", (-INF, INF), [1.0, 0.0, -2.0],
     "NonFiniteError: evaluating 'x^-1.0' at x = 0.0: math domain error"),
    ("log(x)", (0.0, INF), [1.0, 0.0, 2.0],
     "DomainError: x = 0.0 outside open domain (0.0, inf)"),
    ("log(x)", (0.0, 3.0), [1.0, 3.0, 2.0],
     "DomainError: x = 3.0 outside open domain (0.0, 3.0)"),
    # math.pow of a zero base does not raise, so the array power marks it
    ("x^2.5", (-INF, INF), [2.0, 0.0, 0.5],
     "NonFiniteError: evaluating 'x^2.5' at x = 0.0: non-integer exponent 2.5 "
     "requires a positive base, got 0.0"),
    ("x^3.5", (-INF, INF), [1.5, -0.0, 3.0],
     "NonFiniteError: evaluating 'x^3.5' at x = -0.0: non-integer exponent 3.5 "
     "requires a positive base, got -0.0"),
    ("(x - 1)^2.5", (-INF, INF), [2.0, 1.0, 1.5],
     "NonFiniteError: evaluating '(x - 1.0)^2.5' at x = 1.0: non-integer exponent 2.5 "
     "requires a positive base, got 0.0"),
]


@pytest.mark.parametrize("source, domain, xs, message", EDGES)
def test_one_failing_point_keeps_its_text_and_its_neighbours_bits(source, domain, xs, message):
    f = parse_function(source, domain)
    got = walk_points(f, xs)
    assert got[1] == message
    assert_same(got, [reference_point(f, x) for x in xs])
    # the neighbours read what they read alone
    assert_same([got[0], got[2]], [walk_points(f, [xs[0]])[0], walk_points(f, [xs[2]])[0]])


def test_only_the_failing_point_runs_again_on_floats(monkeypatch):
    reruns = []

    def spy(name):
        method = getattr(Jet2, name)

        def recorded(self, *args, **kwargs):
            if not isinstance(self.v, np.ndarray):
                reruns.append((name, self.v))
            return method(self, *args, **kwargs)

        return recorded

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                 "exp", "log", "sin", "cos", "power"):
        monkeypatch.setattr(Jet2, name, spy(name))
    xs = np.linspace(-2.0, 2.0, 4096)
    xs[1234] = 800.0
    _, errors = eval_jets(parse_function("sin(exp(x))*x^2 + log(1 + x^2)"), xs)
    assert list(errors) == [1234]
    assert reruns == [("exp", 800.0)]


def test_non_finite_constant_fails_every_point_after_earlier_failures():
    f = parse_function("log(x) + 1e999")
    got = walk_points(f, [-1.0, 1.0, 2.0])
    assert got == [
        "NonFiniteError: evaluating 'log(x) + inf' at x = -1.0: log of non-positive value -1.0",
        "NonFiniteError: non-finite constant inf",
        "NonFiniteError: non-finite constant inf",
    ]
    assert got == [reference_point(f, x) for x in (-1.0, 1.0, 2.0)]


@pytest.mark.parametrize("src, bad", [("1/x^2", 1e200), ("exp(-exp(x))", 800.0), ("x^0.5", 5e-324)])
def test_an_inner_overflow_fails_its_point_among_finite_neighbours(src, bad):
    # x^2 at 1e200 and exp(x) at 800 overflow, though 1/inf and exp(-inf)
    # would read a finite 0: the failing node's own test must catch them;
    # x^0.5 at 5e-324 fails in f'' alone, as x^-1.5 overflows
    f = parse_function(src)
    xs = [0.5, -1.25, bad, 2.0, 0.75]
    want = f"NonFiniteError: evaluating {f.source()!r} at x = {bad!r}: math range error"
    assert reference_point(f, bad) == want
    assert walk_points(f, [bad]) == [want]
    got = walk_points(f, xs)
    assert got[2] == want
    assert_same(got, [reference_point(f, x) for x in xs])


def test_a_node_whose_test_overflows_fails_no_point():
    # every channel of x^2 at 1e103 is finite, but the node's one-number
    # test, sum(f * f' * f''), overflows: the per-point search runs and
    # finds nothing
    f = parse_function("x^2")
    xs = [1e103, -0.5, -1e103]
    assert math.isinf(1e206 * 2e103 * 2.0)
    got = walk_points(f, xs)
    assert not any(isinstance(g, str) for g in got)
    assert_same(got, [reference_point(f, x) for x in xs])


def assert_same_lift(surface, partials, bracket):
    """The batched lift equals the per-partial reference lift."""
    got = _lift(surface, partials, bracket)
    assert_lift_matches_reference(got, surface, partials, bracket)
    return got


def test_lift_root_at_a_bracket_end_among_interior_roots():
    s = SeparableSurface(tuple(parse_function("x") for _ in range(4)))
    lift = assert_same_lift(s, [(0.5, 0.25, 1.0), (1.0, 2.0, 3.0), (-3.0, 1.0, -4.0)], (-6.0, 6.0))
    assert [p.coords[3] for p in lift.points] == [-1.75, -6.0, 6.0]


def test_lift_near_zero_slope_among_regular_roots():
    s = SeparableSurface((parse_function("x"), parse_function("x"), parse_function("x^3")))
    lift = assert_same_lift(s, [(0.5, 0.3), (0.5, -0.5), (-1.0, 0.2)], (-5.0, 5.0))
    assert lift.index == [0, 2]
    assert describe(lift.failures[1]).startswith("RegularityError: height slope |f'_3| = ")


def test_lift_bracket_collapse_among_roots():
    s = SeparableSurface(tuple(map(parse_function, ("x", "x", "1e20*x - 1e19"))))
    lift = assert_same_lift(s, [(0.0, 0.0), (1e-3, 2e-3), (0.3, -0.3)], (-1.0, 1.0))
    assert lift.index == [0, 2]
    assert describe(lift.failures[1]) == (
        "ConvergenceError: bracket collapsed at t = 0.09999999999999999 with residual "
        "3.000e-03 still above tolerance 1.000e-12"
    )


def test_lift_height_jet_failing_mid_solve_among_roots():
    # Newton on the linear g lands on t = -rest in one step; at t = 0.5 the
    # zero-weight log term has no value
    s = SeparableSurface((parse_function("x"), parse_function("x"),
                          parse_function("x + 0*log((x - 0.5)^2)")))
    lift = assert_same_lift(s, [(0.25, 0.5), (-0.25, -0.25), (0.1, -0.2)], (-1.0, 1.0))
    assert lift.index == [0, 2]
    message = (
        "NonFiniteError: evaluating 'x + 0.0*log((x - 0.5)^2.0)' at x = 0.5: "
        "log of non-positive value 0.0"
    )
    assert describe(lift.failures[1]) == message
    # the first iterate is t = 0.5; a failed jet reads 0 there, which must
    # not pass for a root of g = 0 + rest when rest = 0
    lift = assert_same_lift(s, [(0.5, 0.5), (0.0, 0.0)], (-1.0, 2.0))
    assert lift.index == [0] and describe(lift.failures[1]) == message


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5])
def test_lift_iteration_cap_read_at_call_time(monkeypatch, cap):
    monkeypatch.setattr(geometry, "MAX_SOLVE_ITERATIONS", cap)
    s = SeparableSurface((parse_function("x^2"), parse_function("x^2"),
                          parse_function("x^2 - 1.0", (0.0, INF))))
    partials = [(0.0, 0.0), (0.1, 0.2), (0.3, 0.4), (0.6, 0.0), (0.5, 0.5)]
    lift = assert_same_lift(s, partials, (0.5, 1.5))
    capped = [i for i, e in lift.failures.items() if "no convergence" in str(e)]
    assert capped and all(f"after {cap} iterations" in str(lift.failures[i]) for i in capped)
    if cap == 0:
        assert describe(lift.failures[1]).endswith("last residual inf")


# ------------------------------------------------- whole lifts and tables


def dsl_surface() -> SeparableSurface:
    """n = 8: the benchmark's nested exp/log/sin/cos/power/division shapes
    with fixed coefficients, over an increasing height."""
    shapes = (
        "0.75*exp(sin(1.0*x)) + log(1 + x^2)/2.0",
        "cos(0.75*x)^2/(1 + exp(-1.0*x)) + 2.0*x",
        "exp(0.75*x)*sin(x)^2 - log(2 + cos(1.0*x))",
        "(x^3 - 0.75*x)/(2 + x^2) + sin(exp(1.0*x))",
        "log(2.0 + exp(0.75*x))*cos(1.0*x)",
        "sin(0.75*x + cos(1.0*x))^2 + exp(-x^2)",
        "x^2*exp(sin(0.75*x))/(3 + cos(x))",
        "3*x + 0.5*sin(2*x) + exp(0.25*x)",
    )
    return SeparableSurface(tuple(parse_function(s) for s in shapes))


def mesh_surface() -> SeparableSurface:
    return SeparableSurface((parse_function("exp(x)"), parse_function("x^2 + sin(x)"),
                             parse_function("exp(x) - 4.0")))


def test_lift_matches_reference_on_mixed_surface():
    partials = np.random.default_rng(5).uniform(*zip(*MIXED_RANGES), size=(200, 2)).tolist()
    lift = assert_same_lift(mixed_surface(), partials, MIXED_BRACKET)
    kinds = {describe(e).split(":")[0] for e in lift.failures.values()}
    assert kinds == {"BracketError", "DomainError", "RegularityError"}


def test_lift_matches_reference_on_mesh_grid():
    a = np.linspace(-2.0, 1.9, 64).tolist()
    b = np.linspace(-2.2, 1.6, 64).tolist()
    lift = assert_same_lift(mesh_surface(), [[x, y] for x in a for y in b], (-20.0, 3.0))
    assert 0 < len(lift.index) < 64 * 64


def test_lift_matches_reference_on_dsl_surface():
    partials = np.random.default_rng(8).uniform(-1.5, 1.5, size=(120, 7)).tolist()
    lift = assert_same_lift(dsl_surface(), partials, (-4.0, -0.5))
    assert lift.index and lift.failures


def test_lift_is_chunk_invariant():
    s = mixed_surface()
    partials = np.random.default_rng(6).uniform(*zip(*MIXED_RANGES), size=(40, 2)).tolist()
    whole = _lift(s, partials, MIXED_BRACKET)
    points, failures = [], {}
    for i, partial in enumerate(partials):
        one = _lift(s, [partial], MIXED_BRACKET)
        points += [repr((i, p.coords, p.residual)) for p in one.points]
        failures.update((i, describe(e)) for e in one.failures.values())
    assert [repr((i, p.coords, p.residual)) for i, p in zip(whole.index, whole.points)] == points
    assert {i: describe(e) for i, e in whole.failures.items()} == failures


def test_an_overflowing_row_sum_keeps_its_neighbours_sums():
    # finite terms whose exact sum overflows: that row reads inf, the rows
    # around it keep their sums, and the scalar reference agrees on all rows
    ident = SeparableSurface(tuple(map(parse_function, ("x", "x", "x"))))
    partials = [(0.5, 0.25), (1e308, 1e308), (1e308, -1e308), (-0.5, 0.125)]
    lift = assert_same_lift(ident, partials, (-2.0, 2.0))
    assert lift.points == [SurfacePoint((0.5, 0.25, -0.75), 0.0),
                           SurfacePoint((-0.5, 0.125, 0.375), 0.0)]
    assert lift.index == [0, 3] and sorted(lift.failures) == [1, 2]
    assert all("sum of |f_k| overflows" in describe(e) for e in lift.failures.values())
    steep = SeparableSurface(tuple(map(parse_function, ("5e153*x^2", "5e153*x^2", "x"))))
    points = [SurfacePoint((0.1, 0.1, 0.0), 0.0), SurfacePoint((1.0, 1.0, 0.0), 0.0),
              SurfacePoint((0.2, -0.1, 0.0), 0.0)]
    table, want = jet_table(steep, points), reference_jet_table(steep, points)
    assert bits(table.sq_norm) == bits([jet_table(steep, [p]).sq_norm[0] for p in points])
    assert bits(table.sq_norm) == bits(want.sq_norm)
    assert [e and describe(e) for e in table.jet_errors] == [
        e and describe(e) for e in want.jet_errors
    ]
    assert table.sq_norm[1] == INF and np.isfinite(table.sq_norm[[0, 2]]).all()
    assert [p for p, e in enumerate(table.jet_errors) if e is not None] == [1]


# signed zeros, subnormals, the float extremes and random finite values
TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308]),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.floats(allow_nan=False, allow_infinity=False),
)
HUGE = st.floats(min_value=1e308, max_value=1.7976931348623157e308)


@st.composite
def term_rows(draw):
    """Rows of 2 finite terms (the numpy addition) or 3 (the `fsum` path);
    some rows hold only signed zeros, and some start with a pair of one sign
    whose sum overflows."""
    width = draw(st.sampled_from([2, 3]))
    plain = st.lists(TERMS, min_size=width, max_size=width)
    zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=width, max_size=width)
    rest = st.lists(TERMS, min_size=width - 2, max_size=width - 2)
    overflowing = st.builds(lambda sign, a, b, tail: [sign * a, sign * b, *tail],
                            st.sampled_from([1.0, -1.0]), HUGE, HUGE, rest)
    return width, draw(st.lists(st.one_of(plain, zeros, overflowing), max_size=8))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(term_rows())
def test_row_sums_equal_fsum_bit_for_bit(case):
    width, rows = case
    got = _row_sums(np.array(rows, dtype=float).reshape(len(rows), width))
    assert got.tobytes() == np.array([_fsum(row) for row in rows], dtype=float).tobytes()


def three_term_rows(rng, count):
    """`count` rows of each kind `_sum3` must add as `fsum` does."""
    x = rng.standard_normal(count) * np.exp2(rng.integers(-60, 60, count))
    y = rng.standard_normal(count) * np.exp2(rng.integers(-60, 0, count)) * x
    signs = rng.choice([-1.0, 1.0], (count, 3))
    half_ulp = np.spacing(x) / 2
    kinds = [
        # c about a * 2^-54 ... a * 2^-110: the low parts decide the rounding
        np.column_stack([x, y, x * np.exp2(-rng.integers(54, 111, count)) * signs[:, 0]]),
        # a half-ulp tie of x broken, or not, by a third term
        np.column_stack([x, half_ulp * signs[:, 0],
                         half_ulp * np.exp2(-rng.integers(1, 60, count)) * signs[:, 1]]),
        np.column_stack([x, half_ulp * signs[:, 0], np.zeros(count)]),
        # cancellation, leaving the third term's bits
        np.column_stack([x, -x + np.spacing(x) * rng.integers(-4, 5, count), y * 2.0 ** -80]),
        # subnormals, and terms of every exponent below the limit
        rng.integers(-2**52, 2**52, (count, 3)) * 5e-324,
        signs * np.exp2(rng.uniform(-1074, 1019, (count, 3))),
        # squares, as ||grad F||^2 sums them
        (rng.standard_normal((count, 3)) * np.exp2(rng.integers(-500, 500, (count, 3)))) ** 2,
    ]
    zeros = [[a, b, c] for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0)]
    # rows past 2^1020 take `_fsum`: fsum's intermediate overflow, and
    # overflowing sums, read inf
    wide = [[1e308, 1e308, -1.797e308], [-1e308, -1e308, 1e308], [1.7e308, 1.7e308, 0.0],
            [2.0 ** 1020, 2.0 ** 1020, -(2.0 ** 1020)], [-1.7976931348623157e308, 1.0, -1e292]]
    return np.concatenate([*kinds, zeros, wide]), len(wide)


def test_three_term_row_sums_equal_fsum_bit_for_bit(monkeypatch):
    rows, wide = three_term_rows(np.random.default_rng(25), 4 * _SUM3_ROWS)
    want = [_fsum(row) for row in rows.tolist()]
    calls = []

    def counted(row):
        calls.append(row)
        return math.fsum(row)

    monkeypatch.setattr(geometry, "fsum", counted)
    # all rows, then exactly the limit's count, ending with the zeros and wide rows
    for part in (rows, rows[-_SUM3_ROWS:]):
        calls.clear()
        got = _row_sums(part)
        assert got.tobytes() == np.array(want[-len(part):], dtype=float).tobytes()
        assert len(calls) == wide   # only the rows past 2^1020 take fsum
    assert _row_sums(rows[:_SUM3_ROWS - 1]).tobytes() == np.array(want[:_SUM3_ROWS - 1]).tobytes()
    assert len(calls) == wide + _SUM3_ROWS - 1   # fewer rows: one fsum each


def test_reference_sum_reads_overflow_as_inf():
    assert exact_sum([1e308, 1e308]) == INF and exact_sum([1e308, -1e308]) == 0.0
    assert exact_sum([0.1] * 10) == 1.0


def test_surface_point_is_an_immutable_named_record():
    p = SurfacePoint((1.0, 2.0, 3.0), 0.5)
    assert SurfacePoint._fields == ("coords", "residual")
    assert p == SurfacePoint(coords=(1.0, 2.0, 3.0), residual=0.5)
    assert tuple(p) == ((1.0, 2.0, 3.0), 0.5) and p[0] is p.coords
    with pytest.raises(AttributeError):
        p.coords = (0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        p.residual = 0.0


def test_lift_takes_an_array_or_nested_sequences():
    s = mixed_surface()
    partials = np.random.default_rng(11).uniform(*zip(*MIXED_RANGES), size=(30, 2))

    def seen(lift):
        return repr((lift.index, [(p.coords, p.residual) for p in lift.points],
                     {i: describe(e) for i, e in lift.failures.items()}))

    forms = (partials, partials.tolist(), [tuple(row) for row in partials.tolist()])
    got = [seen(_lift(s, form, MIXED_BRACKET)) for form in forms]
    assert got[0] == got[1] == got[2]
    lift = _lift(s, partials, MIXED_BRACKET)
    assert lift.index and lift.failures
    for p in (lift.index[0], min(lift.failures)):
        one = seen(_lift(s, [tuple(partials[p].tolist())], MIXED_BRACKET))
        assert one == seen(_lift(s, partials[p:p + 1], MIXED_BRACKET))
    for empty in ([], np.zeros((0, 2))):
        none = _lift(s, empty, MIXED_BRACKET)
        assert (none.index, none.points, none.failures) == ([], [], {})
    for wrong in (np.zeros((3, 3)), [[0.1, 0.2], [0.3]], [0.1, 0.2], np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="partial coordinates"):
            _lift(s, wrong, MIXED_BRACKET)


def test_jet_table_matches_reference():
    s = dsl_surface()
    lift = _lift(s, np.random.default_rng(9).uniform(-1.5, 1.5, size=(30, 7)).tolist(), (-4.0, 0.5))
    # lifted points, and points where a jet fails (exp(750) in f_3, f_2
    # before f_7) between them
    points = list(lift.points)
    points[3:3] = [SurfacePoint((0.1, 0.2, 1000.0, 0.1, 0.2, 0.3, 0.4, 0.5), 0.0)]
    points[9:9] = [SurfacePoint((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1e200, 0.0), 0.0)]
    # and a gradient norm whose square overflows
    steep = SeparableSurface(tuple(map(parse_function, ("1e154*x", "1e154*x^2", "x"))))
    cases = [(s, points, [3, 9]),
             (steep, [SurfacePoint((1.0, 0.1, 0.0), 0.0), SurfacePoint((1.0, 1.0, 1.0), 0.0)], [1])]
    for surface, pts, failing in cases:
        got, want = jet_table(surface, pts), reference_jet_table(surface, pts)
        for name in ("d1", "d2", "sq_norm"):
            assert bits(getattr(got, name)) == bits(getattr(want, name))
        assert [e and describe(e) for e in got.jet_errors] == [
            e and describe(e) for e in want.jet_errors
        ]
        assert [p for p, e in enumerate(got.jet_errors) if e is not None] == failing
