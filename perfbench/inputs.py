"""Seeded input generators for the benchmark workloads.

Each generator maps (workload seed) to the exact input the program sees: a
surface-spec dict for the CLI workloads, or the suite arguments for
`certify-sweep`.  Generators use only the standard library, so the inputs
and the facts the correctness gate expects from them (sphere radius, mesh
vertex and face counts) do not depend on the code being measured.

Sizes are fixed per workload; the seed moves coefficients and draws only,
so every seed costs about the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("scan-sphere-oblique", "scan-dsl-pairs", "mesh-lift", "certify-sweep")

SPHERE_N = 6
SPHERE_RADIUS = 2.0
SPHERE_POINTS = 50
SPHERE_OBLIQUE = 20

DSL_POINTS = 30
DSL_RANGE = (-1.5, 1.5)
DSL_FAIL_QUANTILE = 0.92   # share of pilot roots the height bracket keeps
DSL_PILOT_DRAWS = 2000
# Seven non-height coordinate functions of fixed shape; the seed picks the
# coefficients a, b, c inside narrow boxes, so evaluation cost is seed-free.
DSL_TEMPLATES = (
    "{a}*exp(sin({b}*x)) + log(1 + x^2)/{c}",
    "cos({a}*x)^2/(1 + exp(-{b}*x)) + {c}*x",
    "exp({a}*x)*sin(x)^2 - log(2 + cos({b}*x))",
    "(x^3 - {a}*x)/(2 + x^2) + sin(exp({b}*x))",
    "log({c} + exp({a}*x))*cos({b}*x)",
    "sin({a}*x + cos({b}*x))^2 + exp(-x^2)",
    "x^2*exp(sin({a}*x))/(3 + cos(x))",
)
# strictly increasing (slope >= 2), so each draw has at most one root
DSL_HEIGHT = "3*x + 0.5*sin(2*x) + exp({a}*x)"

MESH_GRID = 64
MESH_RANGES = ((-2.0, 1.9), (-2.2, 1.6))
MESH_BRACKET = (-20.0, 3.0)
MESH_SLOPE_EPS = 1e-8      # geometry.REGULARITY_EPS: nodes whose root slope is below drop
MESH_AMBIGUOUS = 1e-6      # |margin| below this may land either side of the gate

CERTIFY_COUNT = 25         # draws per suite scan; the suites default to 100


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _py(expr: str):
    """The DSL expression as a Python function of x (math semantics)."""
    code = compile(expr.replace("^", "**"), "<dsl>", "eval")
    env = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}
    return lambda x: eval(code, env, {"x": x})


def _increasing_root(f, target: float, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_input(seed: int) -> tuple[dict, dict]:
    rng = _rng("scan-sphere-oblique", seed)
    center = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(SPHERE_N)]
    spec = {
        "format_version": 1,
        "family": {
            "kind": "hypersphere", "n": SPHERE_N, "center": center, "radius": SPHERE_RADIUS,
        },
        "sampling": {"count": SPHERE_POINTS, "seed": seed, "oblique_planes": SPHERE_OBLIQUE},
    }
    return spec, {"k_expected": 1.0 / SPHERE_RADIUS**2}


def dsl_input(seed: int) -> tuple[dict, dict]:
    rng = _rng("scan-dsl-pairs", seed)
    exprs = [
        t.format(a=_coef(rng, 0.6, 0.9), b=_coef(rng, 0.8, 1.2), c=_coef(rng, 1.5, 2.5))
        for t in DSL_TEMPLATES
    ]
    height = DSL_HEIGHT.format(a=_coef(rng, 0.2, 0.3))
    # choose the height bracket from pilot draws so that about
    # 1 - DSL_FAIL_QUANTILE of the scan's draws miss it (BracketError)
    funcs = [_py(e) for e in exprs]
    fh = _py(height)
    roots = sorted(
        _increasing_root(fh, -sum(f(rng.uniform(*DSL_RANGE)) for f in funcs), -60.0, 60.0)
        for _ in range(DSL_PILOT_DRAWS)
    )
    lo = math.floor(roots[0]) - 1.0
    hi = round(roots[int(DSL_FAIL_QUANTILE * len(roots))], 4)
    entries = [{"expr": e, "domain": [None, None]} for e in exprs]
    entries.append({"expr": height, "domain": [None, None], "bracket": [lo, hi]})
    spec = {
        "format_version": 1,
        "functions": entries,
        "height_index": len(entries),
        "sampling": {
            "count": DSL_POINTS,
            "seed": seed,
            "ranges": [list(DSL_RANGE)] * len(exprs),
        },
    }
    return spec, {}


def mesh_input(seed: int) -> tuple[dict, dict]:
    rng = _rng("mesh-lift", seed)
    c = round(rng.uniform(3.9, 4.1), 4)
    spec = {
        "format_version": 1,
        "functions": [
            {"expr": "exp(x)"},
            {"expr": "x^2 + sin(x)"},
            {"expr": f"exp(x) - {c}", "bracket": list(MESH_BRACKET)},
        ],
        "sampling": {"ranges": [list(r) for r in MESH_RANGES]},
        "grid": [MESH_GRID, MESH_GRID],
    }
    # the lift solves exp(t) = c - exp(x) - y^2 - sin(y); a node survives
    # when that margin is a positive number whose log clears the slope gate
    (ax, bx), (ay, by) = MESH_RANGES
    step_x = (bx - ax) / (MESH_GRID - 1)
    step_y = (by - ay) / (MESH_GRID - 1)
    alive = []
    ambiguous = 0
    for r in range(MESH_GRID):
        x = ax + r * step_x
        row = []
        for k in range(MESH_GRID):
            y = ay + k * step_y
            margin = c - math.exp(x) - y * y - math.sin(y) - MESH_SLOPE_EPS
            ambiguous += abs(margin) < MESH_AMBIGUOUS
            row.append(margin > 0.0)
        alive.append(row)
    faces = 0
    for r in range(MESH_GRID - 1):
        for k in range(MESH_GRID - 1):
            corners = alive[r][k] + alive[r + 1][k] + alive[r + 1][k + 1] + alive[r][k + 1]
            faces += {4: 2, 3: 1}.get(corners, 0)
    vertices = sum(map(sum, alive))
    return spec, {
        "nodes": MESH_GRID * MESH_GRID,
        "vertices": vertices,
        "faces": faces,
        "ambiguous": ambiguous,
    }


def certify_input(seed: int) -> tuple[dict, dict]:
    return {"suites": ["flat", "constant"], "seed": seed, "count": CERTIFY_COUNT}, {}


GENERATORS = {
    "scan-sphere-oblique": sphere_input,
    "scan-dsl-pairs": dsl_input,
    "mesh-lift": mesh_input,
    "certify-sweep": certify_input,
}


def canonical(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def digest(doc: dict) -> str:
    """sha256 of the input as written to disk (or, for suites, of its arguments)."""
    return "sha256:" + hashlib.sha256(canonical(doc)).hexdigest()

