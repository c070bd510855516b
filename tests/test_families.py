import json
import math
from itertools import combinations

import pytest

from sepcurv import (
    FAMILY_KINDS,
    FamilySpec,
    ScanPolicy,
    SeparableSurface,
    SpecFileError,
    ensure_regular,
    load_spec,
    log_family_lambdas,
    make_cobb_douglas_perturbed,
    make_cobb_douglas_sqrt,
    make_cylinder,
    make_hyperplane,
    make_hypersphere,
    make_log_ode,
    ode_residual_subcase21,
    parse_function,
    sample_points,
    scan_constancy,
    sectional_special,
    solve_height,
)
from sepcurv import families
from sepcurv.expr import BinOp, Call, Const, Neg, Pow, Var

from oracles import surface_point


def scan_with_defaults(spec: FamilySpec, count: int = 30, seed: int = 9, **policy):
    surface, ranges, bracket = spec.defaults()
    pts, fails, _ = sample_points(surface, ranges, count, seed, bracket)
    assert not fails
    return scan_constancy(surface, pts, ScanPolicy(seed=seed, **policy))


# ------------------------------------------------------------- hyperplane


def test_hyperplane_sources():
    s = make_hyperplane((2.0, 3.0, 4.0), offset=5.0, height=1)
    assert s.height == 1
    assert s.funcs[0].source() == "2.0*x + 5.0"
    assert s.funcs[1].source() == "3.0*x"
    assert s.funcs[2].source() == "4.0*x"


def test_hyperplane_unit_coefficient_prints_bare():
    s = make_hyperplane((1.0, 1.0, 1.0), offset=-0.5)
    assert s.funcs[0].source() == "x"
    assert s.funcs[2].source() == "x - 0.5"


def test_hyperplane_validation():
    with pytest.raises(ValueError, match="n must be an integer >= 3, got 2"):
        make_hyperplane((1.0, 1.0))
    with pytest.raises(ValueError, match="nonzero"):
        make_hyperplane((0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="lam_3"):
        make_hyperplane((1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="height index must be an integer >= 1 and <= 3, got 4"):
        make_hyperplane((1.0, 1.0, 1.0), height=4)


def test_hyperplane_is_flat():
    report = scan_with_defaults(
        FamilySpec("hyperplane", 4, {"coeffs": [1.0, -2.0, 3.0, 1.0], "offset": 0.5})
    )
    assert report.verdict == "constant"
    assert abs(report.constant_estimate) <= 1e-12


# --------------------------------------------------------------- cylinder


def test_cylinder_slot_layout():
    s = make_cylinder(
        parse_function("x^2"),
        4,
        lin=(5.0, 1.0, 2.0),
        offsets=(0.5, 0.0, -1.0),
        profile_slot=2,
    )
    assert s.funcs[0].source() == "5.0*x + 0.5"
    assert s.funcs[1].source() == "x^2.0"
    assert s.funcs[2].source() == "x"
    assert s.funcs[3].source() == "2.0*x - 1.0"
    assert s.height == 4


def test_cylinder_validation():
    prof = parse_function("x^2")
    with pytest.raises(ValueError, match="n must be an integer >= 3, got 2"):
        make_cylinder(prof, 2)
    with pytest.raises(ValueError, match="height"):
        make_cylinder(prof, 4, profile_slot=4)
    with pytest.raises(ValueError, match="lam_4"):
        make_cylinder(prof, 4, lin=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"^lin must be a list of 3 finite numbers, got \[1.0, 1.0\]$"):
        make_cylinder(prof, 4, lin=(1.0, 1.0))
    with pytest.raises(ValueError, match="profile_slot"):
        make_cylinder(prof, 4, profile_slot=7)


def test_cylinder_is_flat_for_any_profile():
    for expr, domain in (("x^2", None), ("exp(x)", None), ("x^2 + x", None)):
        params = {"profile_expr": expr}
        if domain is not None:
            params["profile_domain"] = domain
        report = scan_with_defaults(FamilySpec("cylinder", 5, params))
        assert report.verdict == "constant"
        assert abs(report.constant_estimate) <= 1e-12


# ----------------------------------------------------------- cobb douglas


def test_cobb_douglas_sources_and_domains():
    s = make_cobb_douglas_sqrt(1.0, 4)
    assert s.funcs[0].source() == "-log(x)"
    assert s.funcs[3].source() == "2.0*log(x)"
    assert s.funcs[0].domain == (0.0, math.inf)

    shifted = make_cobb_douglas_sqrt(2.0, 4, shifts=(0.5, 0.0, -1.0, 3.0))
    assert shifted.funcs[0].domain == (-0.5, math.inf)
    assert shifted.funcs[2].domain == (1.0, math.inf)
    assert shifted.funcs[3].domain == (-3.0, math.inf)


def test_cobb_douglas_validation():
    with pytest.raises(ValueError, match="positive"):
        make_cobb_douglas_sqrt(0.0, 4)
    with pytest.raises(ValueError, match="positive"):
        make_cobb_douglas_sqrt(-1.0, 4)
    with pytest.raises(ValueError, match=r"^shifts must be a list of 4 finite numbers, got \[0.0, 0.0\]$"):
        make_cobb_douglas_sqrt(1.0, 4, shifts=(0.0, 0.0))


def test_cobb_douglas_graph_identity():
    # the zero set really is x_h + mu_h = A sqrt(prod (x_k + mu_k))
    a = 1.5
    shifts = (0.25, 0.0, -0.5, 1.0)
    spec = FamilySpec("cobb_douglas_sqrt", 4, {"a": a, "shifts": list(shifts)})
    s, ranges, bracket = spec.defaults()
    pts, fails, _ = sample_points(s, ranges, 20, 3, bracket)
    assert not fails
    for p in pts:
        prod = math.prod(x + m for x, m in zip(p.coords[:3], shifts[:3]))
        want = a * math.sqrt(prod)
        assert abs((p.coords[3] + shifts[3]) - want) <= 1e-9 * max(1.0, want)


def test_cobb_douglas_is_flat():
    report = scan_with_defaults(FamilySpec("cobb_douglas_sqrt", 6, {"a": 1.0}))
    assert report.verdict == "constant"
    assert abs(report.constant_estimate) <= 1e-12


# ---------------------------------------------------------------- log ode


def test_log_ode_validation():
    with pytest.raises(ValueError, match="nonzero"):
        make_log_ode(0.0, 4)
    with pytest.raises(ValueError, match=r"^shifts must be a list of 4 finite numbers, got \[0.0\]$"):
        make_log_ode(1.0, 4, shifts=(0.0,))
    with pytest.raises(ValueError, match=r"^betas must be a list of 4 finite numbers, got \[0.0\]$"):
        make_log_ode(1.0, 4, betas=(0.0,))


def test_log_family_lambda_identities():
    for n in (3, 4, 6):
        for lam in (1.0, 0.7, -0.3, 4.0):
            lams = log_family_lambdas(n, lam)
            assert len(lams) == n
            assert lams[n - 1] == -2.0 * lam
            assert all(v == lam for v in lams[:-1])
            h = n
            for i, j in combinations(range(1, n), 2):
                assert lams[i - 1] + lams[j - 1] + lams[h - 1] == 0.0


def test_log_family_lambda_respects_height():
    lams = log_family_lambdas(4, 0.5, height=2)
    assert lams == (0.5, -1.0, 0.5, 0.5)


@pytest.mark.parametrize("lam", [1.0, 0.7, -0.8])
def test_ode_residual_vanishes_along_family(lam):
    n = 5
    s = make_log_ode(lam, n, shifts=(0.2, 0.0, 0.1, 0.0, 0.3), betas=(0.1, 0.0, -0.2, 0.0, 0.4))
    lams = log_family_lambdas(n, lam)
    for k in range(n):
        f = s.funcs[k]
        lo = f.domain[0]
        for t in range(100):
            x = (lo if math.isfinite(lo) else 0.0) + 0.5 + 1.5 * t / 99.0
            assert abs(ode_residual_subcase21(f, lams[k], x)) <= 1e-12


def test_ode_residual_vanishes_for_cobb_douglas():
    s = make_cobb_douglas_sqrt(2.0, 4)
    lams = log_family_lambdas(4, 1.0)
    for k in range(4):
        for t in range(100):
            x = 0.5 + 1.5 * t / 99.0
            assert abs(ode_residual_subcase21(s.funcs[k], lams[k], x)) <= 1e-12


def test_ode_residual_rejects_zero_lambda():
    with pytest.raises(ValueError, match="nonzero"):
        ode_residual_subcase21(parse_function("x^2"), 0.0, 1.0)


def test_ode_residual_nonzero_off_family():
    # x^2 does not satisfy f'' = f'^2 / 1 at x = 1: 2 - 4 = -2
    assert ode_residual_subcase21(parse_function("x^2"), 1.0, 1.0) == -2.0


def test_log_ode_is_flat():
    report = scan_with_defaults(FamilySpec("log_ode", 4, {"lam": -0.8}))
    assert report.verdict == "constant"
    assert abs(report.constant_estimate) <= 1e-12


# ------------------------------------------------------------ hypersphere


def test_hypersphere_membership_and_curvature():
    center = (0.5, -1.0, 2.0, 0.0, 1.0)
    radius = 1.5
    s = make_hypersphere(center, radius, height=2)
    assert s.height == 2
    pole = list(center)
    pole[1] += radius
    p = surface_point(s, pole)
    assert p.residual == 0.0
    spec = FamilySpec(
        "hypersphere", 5, {"center": list(center), "radius": radius}, height=2
    )
    report = scan_with_defaults(spec, oblique_per_point=5)
    assert report.verdict == "constant"
    want = 1.0 / (radius * radius)
    assert abs(report.constant_estimate - want) <= 1e-9


def test_hypersphere_validation():
    with pytest.raises(ValueError, match="radius"):
        make_hypersphere((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="radius"):
        make_hypersphere((0.0, 0.0, 0.0), -2.0)
    with pytest.raises(ValueError, match="n must be an integer >= 3, got 2"):
        make_hypersphere((0.0, 0.0), 1.0)


# ------------------------------------------------------- perturbed control


def test_perturbed_cobb_douglas_layout():
    s = make_cobb_douglas_perturbed(1.0, 4, 0.05, slot=2)
    base = make_cobb_douglas_sqrt(1.0, 4)
    assert s.funcs[1].source() == "-1.1*log(x)"
    for k in (0, 2, 3):
        assert s.funcs[k].source() == base.funcs[k].source()


def test_perturbed_cobb_douglas_validation():
    with pytest.raises(ValueError, match="epsilon"):
        make_cobb_douglas_perturbed(1.0, 4, 0.0)
    with pytest.raises(ValueError, match="slot"):
        make_cobb_douglas_perturbed(1.0, 4, 0.05, slot=4)
    with pytest.raises(ValueError, match="slot"):
        make_cobb_douglas_perturbed(1.0, 4, 0.05, slot=0)


def test_perturbed_cobb_douglas_not_flat():
    s = make_cobb_douglas_perturbed(1.0, 4, 0.05)
    pts, fails, _ = sample_points(s, [(0.5, 2.0)] * 3, 30, 77, (0.05, 8.0))
    assert not fails
    report = scan_constancy(s, pts, ScanPolicy(seed=77))
    assert report.verdict == "non-constant"
    assert report.spread > 1e-3


# -------------------------------------------------------------- FamilySpec


def test_family_spec_from_dict_round_trip():
    spec = FamilySpec.from_dict(
        {"kind": "hypersphere", "n": 4, "radius": 2.0, "center": [0.0, 0.0, 0.0, 0.0]}
    )
    assert spec.kind == "hypersphere"
    assert spec.n == 4
    assert spec.height is None
    assert spec.params == {"radius": 2.0, "center": [0.0, 0.0, 0.0, 0.0]}
    s = spec.build()
    p = surface_point(s, (0.0, 0.0, 0.0, 2.0))
    assert sectional_special(s, p, 1, 2) == 0.25


def test_family_spec_from_dict_validation():
    with pytest.raises(SpecFileError, match="kind"):
        FamilySpec.from_dict({"n": 4})
    with pytest.raises(SpecFileError, match="integer 'n'"):
        FamilySpec.from_dict({"kind": "hypersphere"})
    with pytest.raises(SpecFileError, match="integer 'n'"):
        FamilySpec.from_dict({"kind": "hypersphere", "n": 4.0})
    with pytest.raises(SpecFileError, match="height index must be an integer"):
        FamilySpec.from_dict(
            {"kind": "hypersphere", "n": 4, "radius": 1.0, "height": "top"}
        ).build()
    with pytest.raises(SpecFileError, match="unknown family kind"):
        FamilySpec.from_dict({"kind": "torus", "n": 4})
    with pytest.raises(SpecFileError, match=">= 3"):
        FamilySpec("hypersphere", 2, {"radius": 1.0})


def test_family_spec_rejects_unknown_parameters():
    with pytest.raises(SpecFileError, match=r"family: unknown keys \['bogus'\]"):
        FamilySpec("hyperplane", 4, {"coeffs": [1.0] * 4, "bogus": 1}).build()
    with pytest.raises(SpecFileError, match=r"family: unknown keys \['middle'\]"):
        FamilySpec("hypersphere", 4, {"radius": 1.0, "middle": [0.0] * 4}).build()


def test_family_spec_requires_parameters():
    with pytest.raises(SpecFileError, match="family needs 'coeffs'"):
        FamilySpec("hyperplane", 4).build()
    with pytest.raises(SpecFileError, match="family needs 'a'"):
        FamilySpec("cobb_douglas_sqrt", 4).build()
    with pytest.raises(SpecFileError, match="family needs 'radius'"):
        FamilySpec("hypersphere", 4).build()
    with pytest.raises(SpecFileError, match="family needs 'lam'"):
        FamilySpec("log_ode", 4).build()


def test_family_spec_parameter_type_errors():
    with pytest.raises(SpecFileError, match="coeffs"):
        FamilySpec("hyperplane", 4, {"coeffs": [1.0, 2.0]}).build()
    with pytest.raises(SpecFileError, match="numbers"):
        FamilySpec("hyperplane", 4, {"coeffs": [1.0, "x", 1.0, 1.0]}).build()
    with pytest.raises(SpecFileError, match="profile_domain"):
        FamilySpec("cylinder", 4, {"profile_domain": [0.0]}).build()
    with pytest.raises(SpecFileError, match="finite number"):
        FamilySpec("hypersphere", 4, {"radius": True}).build()
    # a constructor's own ValueError leaves build() as a spec error
    with pytest.raises(SpecFileError, match="radius must be positive"):
        FamilySpec("hypersphere", 4, {"radius": -2.0}).build()


def test_cylinder_spec_profile_domain():
    spec = FamilySpec(
        "cylinder", 4, {"profile_expr": "log(x)", "profile_domain": [0.0, None]}
    )
    s, ranges, _ = spec.defaults()
    assert s.funcs[0].domain == (0.0, math.inf)
    assert ranges[0] == (0.1, 2.0)
    assert ranges[1] == (-2.0, 2.0)


def test_family_kinds_frozen_list():
    assert FAMILY_KINDS == (
        "hyperplane",
        "cylinder",
        "cobb_douglas_sqrt",
        "hypersphere",
        "log_ode",
    )


EXAMPLES = {
    "hyperplane": FamilySpec("hyperplane", 4, {"coeffs": [1.0, -2.0, 3.0, 1.0], "offset": 0.5}),
    "cylinder": FamilySpec("cylinder", 4, {"profile_expr": "exp(x)", "lin": [1.0, 1.0, 2.0]}),
    "cobb_douglas_sqrt": FamilySpec(
        "cobb_douglas_sqrt", 5, {"a": 1.5, "shifts": [0.5, 0.0, -0.25, 0.0, 1.0]}
    ),
    "log_ode": FamilySpec("log_ode", 4, {"lam": -0.8, "betas": [0.1, 0.0, 0.0, -0.2]}),
    "hypersphere": FamilySpec(
        "hypersphere", 5, {"center": [0.5, -1.0, 2.0, 0.0, 1.0], "radius": 1.5}, height=2
    ),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_default_sampling_never_fails(kind):
    spec = EXAMPLES[kind]
    surface, ranges, bracket = spec.defaults()
    assert len(ranges) == surface.n - 1
    pts, fails, _ = sample_points(surface, ranges, 50, 42, bracket)
    assert not fails
    assert len(pts) == 50
    for p in pts:
        ensure_regular(surface, p)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_load_spec_builds_family_once(tmp_path, monkeypatch, kind):
    spec = EXAMPLES[kind]
    family = {"kind": kind, "n": spec.n, **spec.params}
    if spec.height is not None:
        family["height"] = spec.height
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"format_version": 1, "family": family}), encoding="utf-8")
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return SeparableSurface(*args, **kwargs)

    monkeypatch.setattr(families, "SeparableSurface", counting)
    loaded = load_spec(str(path))
    assert len(built) == 1
    assert (loaded.ranges, loaded.bracket) == (tuple(spec.defaults()[1]), spec.defaults()[2])


def test_solve_height_on_family_with_moved_height():
    s = make_cobb_douglas_sqrt(1.0, 4, height=2)
    p = solve_height(s, (1.0, 1.0, 1.0), (0.05, 8.0))
    assert p.coords[1] == pytest.approx(1.0, abs=1e-12)


# Each family's ASTs, pinned node for node: the "node plus a constant" rule
# (`families._plus`) must keep every shape, and so every `to_source` text.
FAMILY_ASTS = {
    "hyperplane": (
        EXAMPLES["hyperplane"].build,
        [
            Var(),
            BinOp("*", Const(-2.0), Var()),
            BinOp("*", Const(3.0), Var()),
            BinOp("+", Var(), Const(0.5)),
        ],
    ),
    "cylinder": (
        EXAMPLES["cylinder"].build,
        [
            Call("exp", Var()),
            Var(),
            Var(),
            BinOp("*", Const(2.0), Var()),
        ],
    ),
    "cobb_douglas_sqrt": (
        EXAMPLES["cobb_douglas_sqrt"].build,
        [
            Neg(Call("log", BinOp("+", Var(), Const(0.5)))),
            Neg(Call("log", Var())),
            Neg(Call("log", BinOp("-", Var(), Const(0.25)))),
            Neg(Call("log", Var())),
            BinOp(
                "-",
                BinOp("*", Const(2.0), Call("log", BinOp("+", Var(), Const(1.0)))),
                Const(0.8109302162163288),
            ),
        ],
    ),
    "log_ode": (
        EXAMPLES["log_ode"].build,
        [
            BinOp("+", BinOp("*", Const(0.8), Call("log", Var())), Const(0.1)),
            BinOp("*", Const(0.8), Call("log", Var())),
            BinOp("*", Const(0.8), Call("log", Var())),
            BinOp("-", BinOp("*", Const(-1.6), Call("log", Var())), Const(0.2)),
        ],
    ),
    "hypersphere": (
        EXAMPLES["hypersphere"].build,
        [
            Pow(BinOp("-", Var(), Const(0.5)), 2.0),
            BinOp("-", Pow(BinOp("+", Var(), Const(1.0)), 2.0), Const(2.25)),
            Pow(BinOp("-", Var(), Const(2.0)), 2.0),
            Pow(Var(), 2.0),
            Pow(BinOp("-", Var(), Const(1.0)), 2.0),
        ],
    ),
    "hyperplane_edges": (
        lambda: make_hyperplane([0.0, -1.0, 1.0, -3.0], -2.5),
        [
            Const(0.0),
            Neg(Var()),
            Var(),
            BinOp("-", BinOp("*", Const(-3.0), Var()), Const(2.5)),
        ],
    ),
    "cylinder_edges": (
        lambda: make_cylinder(parse_function("x^2"), 4, [-1.0, 0.0, 2.0], [-1.5, 2.0, 0.0]),
        [
            Pow(Var(), 2.0),
            BinOp("-", Neg(Var()), Const(1.5)),
            Const(2.0),
            BinOp("*", Const(2.0), Var()),
        ],
    ),
    "log_ode_edges": (
        lambda: make_log_ode(1.0, 3, [0.0, -0.5, 2.0], [-1.0, 0.0, 3.0]),
        [
            BinOp("-", Neg(Call("log", Var())), Const(1.0)),
            Neg(Call("log", BinOp("-", Var(), Const(0.5)))),
            BinOp(
                "+", BinOp("*", Const(2.0), Call("log", BinOp("+", Var(), Const(2.0)))), Const(3.0)
            ),
        ],
    ),
    "perturbed": (
        lambda: make_cobb_douglas_perturbed(1.0, 4, 0.05),
        [
            BinOp("*", Const(-1.1), Call("log", Var())),
            Neg(Call("log", Var())),
            Neg(Call("log", Var())),
            BinOp("*", Const(2.0), Call("log", Var())),
        ],
    ),
    "hypersphere_edges": (
        lambda: make_hypersphere([0.0, -1.5, 2.0], 0.5),
        [
            Pow(Var(), 2.0),
            Pow(BinOp("+", Var(), Const(1.5)), 2.0),
            BinOp("-", Pow(BinOp("-", Var(), Const(2.0)), 2.0), Const(0.25)),
        ],
    ),
}


@pytest.mark.parametrize("name", FAMILY_ASTS)
def test_family_asts_keep_their_shape(name):
    build, expected = FAMILY_ASTS[name]
    assert [f.ast for f in build().funcs] == expected
