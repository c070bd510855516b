import pytest

from sepcurv import FamilySpec, eval_jet2, make_cobb_douglas_perturbed, make_exp_control
from sepcurv.families import MAX_N, exp_control_box
from sepcurv.suites import SuiteRow, format_rows, run_constant_suite, run_flat_suite


def test_flat_suite_single_dimension():
    rows = run_flat_suite(dims=(4,), count=30)
    assert [r.name for r in rows] == [
        "hyperplane(1,...,1)",
        "cylinder(x^2)",
        "cobb_douglas_sqrt(A=1)",
        "cobb_douglas_perturbed(eps=0.05)",
        "exp_control",
    ]
    assert all(r.n == 4 for r in rows)
    assert all(r.ok for r in rows)
    for row in rows[:3]:
        assert row.expected.startswith("constant 0")
        assert row.observed.startswith("constant,")
    for row in rows[3:]:
        assert row.expected.startswith("non-constant")
        assert row.observed.startswith("non-constant,")


def test_flat_suite_dimension_sweep():
    rows = run_flat_suite(dims=(4, 5), count=20)
    assert len(rows) == 3 * 2 + 2
    assert [r.n for r in rows[:6]] == [4, 4, 4, 5, 5, 5]
    assert all(r.ok for r in rows)


def test_flat_suite_deterministic():
    assert run_flat_suite(dims=(4,), count=20) == run_flat_suite(dims=(4,), count=20)


def test_constant_suite_small():
    rows = run_constant_suite(radii=(1.0, 2.0), dims=(4,), count=20, oblique=5)
    assert [r.name for r in rows] == [
        "hypersphere(r=1)",
        "hypersphere(r=2)",
        "cobb_douglas_sqrt vs k0 in (-1.0, 0.5, 1.0, 4.0)",
        "cobb_douglas_perturbed(eps=0.05)",
        "exp_control",
    ]
    assert all(r.ok for r in rows)
    assert "1/r^2 = 1" in rows[0].expected
    assert "1/r^2 = 0.25" in rows[1].expected
    assert rows[2].expected.startswith("every nonzero-k0 residual")


def test_constant_suite_dimension_sweep():
    rows = run_constant_suite(radii=(0.5,), dims=(4, 5), count=15, oblique=3)
    assert [r.n for r in rows[:2]] == [4, 5]
    assert all(r.ok for r in rows)


def test_constant_suite_deterministic():
    first = run_constant_suite(radii=(1.0,), dims=(4,), count=15, oblique=3)
    second = run_constant_suite(radii=(1.0,), dims=(4,), count=15, oblique=3)
    assert first == second


def test_exp_control_shape():
    surface = make_exp_control(4)
    assert surface.n == 4
    assert surface.height == 4
    assert surface.funcs[0].source() == "exp(x)"
    assert surface.funcs[3].source() == "exp(x) - 4.0"
    shifted = make_exp_control(5, height=2)
    assert shifted.funcs[1].source() == "exp(x) - 5.0"
    assert shifted.funcs[0].source() == "exp(x)"
    with pytest.raises(ValueError, match="need n >= 3"):
        make_exp_control(2)


def corner_residuals(surface, ranges, bracket):
    """g(t) = f_h(t) + sum of the other f_k at both bracket ends, at every
    corner of the boxes.  Every non-height coordinate but the first shares
    one function and box, so a corner is the first coordinate's end plus how
    many of the others sit at their upper end."""
    (lo1, hi1), (lo, hi) = ranges[:2]
    f1, f = surface.funcs[0], surface.funcs[1]
    assert all(g.source() == f.source() for g in surface.funcs[1:-1])
    assert ranges == [(lo1, hi1)] + [(lo, hi)] * (surface.n - 2)
    fh = surface.funcs[surface.height - 1]
    ends = [eval_jet2(fh, t).v for t in bracket]
    f_lo, f_hi = eval_jet2(f, lo).v, eval_jet2(f, hi).v
    for x1 in (lo1, hi1):
        for m in range(surface.n - 1):
            rest = eval_jet2(f1, x1).v + m * f_hi + (surface.n - 2 - m) * f_lo
            yield [e + rest for e in ends]


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
def test_exp_control_bracket_straddles_every_corner(n):
    control = make_exp_control(n)
    ranges, bracket = exp_control_box(n)
    for g_lo, g_hi in corner_residuals(control, ranges, bracket):
        assert g_lo < 0.0 < g_hi


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
def test_perturbed_control_heights_inside_bracket(n):
    # the perturbed control samples with the flat member's default box and bracket
    _, ranges, bracket = FamilySpec("cobb_douglas_sqrt", n, {"a": 1.0}).defaults()
    perturbed = make_cobb_douglas_perturbed(1.0, n, 0.05)
    for g_lo, g_hi in corner_residuals(perturbed, ranges, bracket):
        assert g_lo < 0.0 < g_hi


def test_format_rows_table():
    rows = [
        SuiteRow("short", 4, "constant 0", "constant, max |K| = 1.0e-12", True),
        SuiteRow("much longer name", 5, "non-constant", "constant, spread = 0.0e+00", False),
    ]
    text = format_rows(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("PASS  short           ")
    assert lines[1].startswith("FAIL  much longer name")
    assert "n=4" in lines[0] and "n=5" in lines[1]
    assert lines[2] == "1/2 checks passed"


def test_format_rows_all_pass_summary():
    rows = run_flat_suite(dims=(4,), count=10)
    text = format_rows(rows)
    assert text.splitlines()[-1] == f"{len(rows)}/{len(rows)} checks passed"
    assert "FAIL" not in text
