import argparse
import csv
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import sepcurv
from sepcurv import (
    Samples,
    SuiteRow,
    build_mesh,
    constk_residual,
    flatness_residual,
    load_spec,
    read_report_body,
    scan_constancy,
    sectional_oracle,
    sectional_special,
    solve_height,
)
from sepcurv import cli, meshing
from sepcurv.cli import build_parser, main
from sepcurv.curvature import EQUIVALENCE_RTOL
from sepcurv.errors import ParseError, SepcurvError
from sepcurv.expr import MAX_DEPTH

import pin_golden
from frames import frame_vectors
from lifts import spy_second_evaluations
from oracles import brute_coordinate_k


TINY_SPHERE = {
    "format_version": 1,
    "functions": [
        {"expr": "1e150*x^2"}, {"expr": "1e150*x^2"},
        {"expr": "1e150*x^2 - 1e-159", "bracket": [1e-156, 4e-155]},
    ],
}


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def sphere4_spec(tmp_path, **sampling):
    merged = {"count": 12, "seed": 3, "oblique_planes": 2}
    merged.update(sampling)
    return write_spec(
        tmp_path,
        {
            "format_version": 1,
            "family": {"kind": "hypersphere", "n": 4, "radius": 2.0},
            "sampling": merged,
        },
        "sphere4.json",
    )


def sphere3_mesh_spec(tmp_path, **extra):
    doc = {
        "format_version": 1,
        "family": {"kind": "hypersphere", "n": 3, "radius": 1.0},
        "grid": [6, 6],
    }
    doc.update(extra)
    return write_spec(tmp_path, doc, "sphere3.json")


def exp_spec(tmp_path):
    return write_spec(
        tmp_path,
        {
            "format_version": 1,
            "functions": [
                {"expr": "exp(x)"},
                {"expr": "exp(x)"},
                {"expr": "exp(x)"},
                {"expr": "exp(x) - 4.0", "bracket": [-6.0, 2.0]},
            ],
            "sampling": {"count": 10, "seed": 1, "ranges": [[-0.5, 0.2]] * 3},
        },
        "exp.json",
    )


# ----------------------------------------------------------------- basics


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sepcurv 1.0.0" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["certify", "bogus"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    # the child interpreter imports the same package this test imported
    package_root = os.path.dirname(os.path.dirname(sepcurv.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sepcurv.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "sepcurv 1.0.0" in proc.stdout


RUNTIME_CHECK = """
import contextlib, io, json, os, sys
before = set(sys.modules)
from sepcurv.cli import main
specs, out = sys.argv[1], sys.argv[2]
runs = [
    ["eval", os.path.join(specs, "hypersphere_r2_n4.json"), "--point", "0.5,0.5,0.5"],
    ["mesh", os.path.join(specs, "sphere3_mesh.json"), "--out", os.path.join(out, "m.obj")],
    ["certify", "flat", "--dims", "4", "--count", "4"],
    ["certify", "constant", "--dims", "4", "--count", "4"],
] + [
    ["scan", os.path.join(specs, name), "--out", os.path.join(out, name + ".csv"), "--format", "csv"]
    for name in ("cobb_douglas_n5.json", "hypersphere_r2_n4.json", "raw_functions_n4.json")
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
allowed = set(sys.stdlib_module_names) | {"numpy", "sepcurv"}
# modules loaded from files; numpy's compiled extensions also register
# file-less Cython runtime modules (cython_runtime, _cython_3_...)
foreign = sorted(
    m for m in set(sys.modules) - before
    if m.partition(".")[0] not in allowed and getattr(sys.modules[m], "__file__", None)
)
print(json.dumps({"codes": codes, "foreign": foreign}))
"""


def test_runtime_imports_only_stdlib_and_numpy(tmp_path):
    # the package may depend on numpy alone at run time, whatever else is installed
    package_root = os.path.dirname(os.path.dirname(sepcurv.__file__))
    specs = os.path.join(os.path.dirname(package_root), "specs")
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_CHECK, specs, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0, 0, 0], "foreign": []}


# ------------------------------------------------------------------ flags

SUBCOMMAND_FLAGS = {
    "eval": {"--point", "--pair", "--k0", "--format"},
    "scan": {"--out", "--seed", "--tol", "--threads", "--format"},
    "certify": {"--dims", "--count", "--seed"},
    "mesh": {"--out"},
}


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def test_each_subcommand_declares_only_the_flags_it_reads():
    parser = build_parser()
    assert _options(parser) == {"--version"}
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _options(p) for name, p in sub.choices.items()} == SUBCOMMAND_FLAGS


def _valid_argv(tmp_path, command):
    """An invocation of `command` that exits 0, writing under tmp_path."""
    return {
        "eval": ["eval", sphere4_spec(tmp_path), "--point", "0.1,0.2,-0.3"],
        "scan": ["scan", sphere4_spec(tmp_path), "--out", str(tmp_path / "out")],
        "certify": ["certify", "flat", "--dims", "4", "--count", "3"],
        "mesh": ["mesh", sphere3_mesh_spec(tmp_path), "--out", str(tmp_path / "out")],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--seed", "3"), ("eval", "--tol", "1e-3"), ("eval", "--threads", "2"),
    ("certify", "--tol", "nan"), ("certify", "--threads", "2"), ("certify", "--format", "csv"),
    ("mesh", "--seed", "3"), ("mesh", "--tol", "-5"), ("mesh", "--threads", "-9"),
    ("mesh", "--format", "csv"),
])
def test_flag_the_subcommand_does_not_read_exit_2(tmp_path, capsys, command, flag, value):
    assert main(_valid_argv(tmp_path, command) + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--seed", "3"), ("scan", "--dims", "4"), ("certify", "--tol", "1"),
    ("mesh", "--tol", "1"),
])
def test_unread_flag_shows_the_subcommands_usage(tmp_path, capsys, command, flag, value):
    assert main(_valid_argv(tmp_path, command) + [flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: sepcurv {command} ")
    assert err[-1] == f"sepcurv {command}: error: unrecognized arguments: {flag} {value}"


@pytest.mark.parametrize("flag, value", [
    ("--seed", "3"), ("--tol", "1e-3"), ("--threads", "2"), ("--format", "csv"),
])
def test_flag_before_the_subcommand_exit_2(tmp_path, capsys, flag, value):
    assert main([flag, value] + _valid_argv(tmp_path, "scan")) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


REPO_ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[str]:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sepcurv ")]


def test_readme_shows_every_subcommand():
    assert {shlex.split(line)[1] for line in _readme_commands()} == set(SUBCOMMAND_FLAGS)


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(tmp_path, capsys, monkeypatch, line):
    # spec paths are relative to the repository root; outputs go to tmp_path
    monkeypatch.chdir(REPO_ROOT)
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        k = argv.index("--out") + 1
        argv[k] = str(tmp_path / argv[k])
    assert main(argv) in (0, 1)
    assert capsys.readouterr().err == ""


# ------------------------------------------------------------------- eval


def test_eval_json_output(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    assert main(["eval", spec, "--point", "0.1,0.2,-0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "coords", "residual", "pair", "k_special", "k_oracle", "flatness_residual",
    }
    assert doc["pair"] == [1, 2]
    assert len(doc["coords"]) == 4
    assert doc["coords"][:3] == [0.1, 0.2, -0.3]
    assert abs(doc["k_special"] - 0.25) <= 1e-9
    assert abs(doc["k_oracle"] - doc["k_special"]) <= 1e-9
    assert abs(doc["flatness_residual"]) > 1e-3      # spheres are nowhere flat


@pytest.mark.parametrize("values", [
    ["--point", "-0.1,0.2,0.3"],
    ["--point", "-.1,0.2,0.3"],
    ["--point", "-1e-1,0.2,0.3", "--k0", "-1e-3"],
])
def test_eval_takes_values_with_a_leading_minus(tmp_path, capsys, values):
    spec = sphere4_spec(tmp_path)
    glued = [f"{flag}={value}" for flag, value in zip(values[::2], values[1::2])]
    assert main(["eval", spec, *glued]) == 0
    expected = capsys.readouterr().out
    assert main(["eval", spec, *values]) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert json.loads(out)["coords"][:3] == [-0.1, 0.2, 0.3]


def test_eval_pair_and_k0(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    # the residual tests k0 against 4K, so a radius-2 sphere zeroes at k0 = 1
    assert main(["eval", spec, "--point", "0.5,0.5,0.5", "--pair", "2,3", "--k0", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pair"] == [2, 3]
    assert doc["k0"] == 1.0
    assert abs(doc["constk_residual"]) <= 1e-9
    # one jet table gives what the point-wise functions give, bit for bit
    loaded = load_spec(spec)
    s = loaded.surface
    p = solve_height(s, [0.5, 0.5, 0.5], loaded.bracket)
    assert doc["coords"] == list(p.coords)
    assert doc["k_special"] == sectional_special(s, p, 2, 3)
    # k_oracle is the scan's pair engine: the scan's record at the same point,
    # bit for bit, within the cross-check of the dense Gauss engine on the
    # coordinate frame vectors
    other = solve_height(s, [0.1, 0.2, 0.3], loaded.bracket)
    (record,) = [r for r in scan_constancy(s, [p, other]).records
                 if r.sample == 0 and (r.i, r.j) == (2, 3)]
    assert doc["k_oracle"] == record.k_oracle
    dense = sectional_oracle(s, p, frame_vectors(s, p, 2, 3))
    assert abs(doc["k_oracle"] - dense) <= EQUIVALENCE_RTOL * max(1.0, abs(dense))
    assert doc["flatness_residual"] == flatness_residual(s, p, 2, 3)
    assert doc["constk_residual"] == constk_residual(s, p, 2, 3, 1.0)


def test_eval_evaluates_lifted_jets_once(tmp_path, capsys, monkeypatch):
    spec = sphere4_spec(tmp_path)
    calls = spy_second_evaluations(monkeypatch)
    assert main(["eval", spec, "--point", "0.5,0.5,0.5", "--pair", "3,1", "--k0", "1.0"]) == 0
    assert calls == []
    assert json.loads(capsys.readouterr().out)["pair"] == [3, 1]


@pytest.mark.parametrize("extra", [[], ["--pair", "3,1", "--k0", "1.0"]])
def test_eval_csv_output_matches_json(tmp_path, capsys, extra):
    spec = sphere4_spec(tmp_path)
    argv = ["eval", spec, "--point", "0.5,-0.25,0.125", *extra]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["coords", "residual", "i", "j", "k_special", "k_oracle",
                      "flatness_residual", "k0", "constk_residual"]
    cells = dict(zip(header, row, strict=True))
    assert [float(c).hex() for c in cells.pop("coords").split(";")] == [
        c.hex() for c in doc.pop("coords")
    ]
    assert [int(cells.pop("i")), int(cells.pop("j"))] == doc.pop("pair")
    # an unset k0 leaves its two cells empty; every other cell is the JSON float's bits
    bits = {k: float(v).hex() for k, v in cells.items() if v}
    assert bits == {k: v.hex() for k, v in doc.items()}
    assert [k for k, v in cells.items() if not v] == ([] if extra else ["k0", "constk_residual"])


def test_eval_default_pair_skips_height(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "height_index": 1,
        "functions": [
            {"expr": "x^2 - 1.0", "bracket": [0.1, 1.01]},
            {"expr": "x^2"},
            {"expr": "x^2"},
        ],
    }
    spec = write_spec(tmp_path, doc)
    assert main(["eval", spec, "--point", "0.3,0.4"]) == 0
    assert json.loads(capsys.readouterr().out)["pair"] == [2, 3]


@pytest.mark.parametrize(
    "extra",
    [
        ["--point", "0.1,0.2"],                      # wrong count
        ["--point", "a,b,c"],                        # not numbers
        ["--point", "0,0,0", "--pair", "1"],         # one index
        ["--point", "0,0,0", "--pair", "1,1"],       # repeated index
        ["--point", "0,0,0", "--pair", "1,4"],       # names the height
        ["--point", "0,0,0", "--pair", "1,x"],       # not an integer
        ["--point", "0,0,0", "--k0", "inf"],         # not finite
        ["--point", "nan,0,0"],                      # a point entry not finite
        ["--point", "0,inf,0"],
        ["--point", "0,0,1e400"],                    # overflows to inf
    ],
)
def test_eval_usage_errors(tmp_path, capsys, extra):
    spec = sphere4_spec(tmp_path)
    assert main(["eval", spec] + extra) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "spec, extra, message",
    [
        # a finite k0 whose residual overflows
        (None, ["--point", "0.1,0.2,0.3", "--k0", "1e308"], "constk_residual = inf"),
        # K = 1/|x|^2 of a sphere of radius below 5e-155 passes the float
        # range; the flatness residual (about 1e289) does not
        (TINY_SPHERE, ["--point", "1e-156,2e-156"], "k_special = inf, k_oracle = inf"),
    ],
    ids=["constk-overflow", "closed-form-overflow"],
)
def test_eval_non_finite_figure_exit_3(tmp_path, capsys, fmt, spec, extra, message):
    path = sphere4_spec(tmp_path) if spec is None else write_spec(tmp_path, spec)
    assert main(["eval", path, *extra, "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: non-finite result: {message}\n"


def test_eval_overflowing_jet_products_exit_0(tmp_path, capsys):
    # x_3 ~ 7e76: f_3'^2 f_1'' f_2'' passes the float range, K is about 1e-307
    doc = {
        "format_version": 1,
        "functions": [
            {"expr": "exp(x)"}, {"expr": "x^2"}, {"expr": "-(x^2)", "bracket": [1e70, 1e80]},
        ],
    }
    path = write_spec(tmp_path, doc)
    assert main(["eval", path, "--point", "354.0,0.5"]) == 0
    got = json.loads(capsys.readouterr().out)
    # the oracles' difference steps are absolute, so x_3 needs more than 50
    # digits: a 1e-10 step along a unit frame vector moves it by 1e-87 of itself
    with mpmath.workdps(200):
        want = brute_coordinate_k(load_spec(path).surface, got["coords"], 1, 2)
        e1, x2, x3 = mpmath.exp(got["coords"][0]), *map(mpmath.mpf, got["coords"][1:])
        flat = e1 * e1 * 2 * -2 + 4 * x2 * x2 * e1 * -2 + 4 * x3 * x3 * e1 * 2
    for key in ("k_special", "k_oracle"):
        assert abs(got[key] - want) <= 1e-9 * abs(want)
    assert abs(got["flatness_residual"] - flat) <= 1e-12 * flat


SMALL_SLOPE = {
    "format_version": 1,
    "functions": [
        {"expr": "1e305*(x-1)^2"}, {"expr": "1e-7*x"}, {"expr": "1e-7*x", "bracket": [-1, 1]},
    ],
}


@pytest.mark.filterwarnings("error")
def test_small_gradient_reads_k_zero(tmp_path, capsys):
    # at x_1 = 1, max |f'| = 1e-7: scaling the jets up there would take
    # f_1'' = 2e305 past the float range; K = 0 since f_2'' = f_3'' = 0
    path = write_spec(tmp_path, SMALL_SLOPE)
    assert main(["eval", path, "--point", "1,0.5"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["k_special"] == got["k_oracle"] == got["flatness_residual"] == 0.0
    doc = {**SMALL_SLOPE, "sampling": {"ranges": [[1 - 1e-10, 1 + 1e-10], [-0.5, 0.5]]},
           "grid": [3, 3]}
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(tmp_path / "m.obj")]) == 0
    assert "K range: [0.0, 0.0]\n" in capsys.readouterr().out
    assert (tmp_path / "m_curvature.csv").read_text() == "vertex,k\n1,0.0\n2,0.0\n3,0.0\n"


def test_eval_missing_spec_exit_2(capsys):
    assert main(["eval", "/nonexistent.json", "--point", "0,0,0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_eval_unsolvable_point_exit_3(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    assert main(["eval", spec, "--point", "2.5,0,0"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first, height, bracket",
    [
        ("1e154*x", "1e154*x", [-2.0, 0.0]),   # finite squares that fsum cannot add
        ("1e155*x", "x", [-1e156, 0.0]),       # one square already past the largest float
    ],
)
def test_gradient_norm_overflow_exit_3(tmp_path, capsys, first, height, bracket):
    doc = {
        "format_version": 1,
        "functions": [
            {"expr": first}, {"expr": "x"}, {"expr": "x"}, {"expr": height, "bracket": bracket},
        ],
        "sampling": {"count": 5, "ranges": [[0.5, 1.0]] * 3},
    }
    spec = write_spec(tmp_path, doc)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 3
    assert main(["eval", spec, "--point", "0.6,0.6,0.6"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error:") and "overflows" in line for line in err)


@pytest.mark.parametrize(
    "first, second, height",
    [
        ("1e308 + 0*x", "1e308 + 0*x", "x"),
        ("1e308 + 0*x", "-1e308 + 0*x", "x"),     # sums to 0, its magnitudes overflow
        ("1.5e308 + 0*x", "x", "1e308 + x"),     # overflows only with the height's value
    ],
)
def test_value_sum_overflow_exit_3_or_4(tmp_path, capsys, first, second, height):
    doc = {
        "format_version": 1,
        "functions": [{"expr": first}, {"expr": second}, {"expr": height, "bracket": [-1, 1]}],
        "sampling": {"count": 5, "ranges": [[0.0, 1.0]] * 2},
        "grid": [4, 4],
    }
    spec = write_spec(tmp_path, doc)
    assert main(["eval", spec, "--point", "0.1,0.2"]) == 3
    assert capsys.readouterr().err == "error: sum of |f_k| overflows at (0.1, 0.2, -1.0)\n"
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFiniteError: sum of |f_k| overflows" in err[0]
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: only 0 grid nodes lifted onto the surface; need at least 3"
    ]


# ------------------------------------------------------------------- scan


def test_scan_writes_report(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["scan", spec, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "verdict: constant" in printed
    assert f"report: {out}" in printed

    doc = json.loads(read_report_body(out))
    assert doc["seed"] == 3
    assert doc["n"] == 4
    assert doc["oblique_planes_per_point"] == 2
    # 3 coordinate pairs + 2 oblique planes per point
    assert len(doc["records"]) == 12 * 5
    assert doc["summary"]["points"] == 12
    assert doc["summary"]["verdict"] == "constant"
    assert abs(doc["summary"]["constant_estimate"] - 0.25) <= 1e-9
    assert doc["summary"]["flagged"] == 0
    assert doc["summary"]["max_engine_rel_dev"] <= 1e-12


def test_steep_pair_frames_scan_to_zero(tmp_path, capsys):
    # f = 1e9 x, 1e9 x, x^2, 1e-7 x: every (1, 2) frame e_k - (f_k'/f_4') e_4
    # is nearly -e_4, but the scan's pair planes are orthonormal, so no
    # point is an error record and both engines read K = 0
    spec = tmp_path / "steep.json"
    spec.write_text(json.dumps({"format_version": 1, **pin_golden.EDGE_SPECS["plane-errors"]}))
    out = str(tmp_path / "report.json")
    assert main(["scan", str(spec), "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("verdict: constant (spread 0.000e+00 <= tol 1e-07) (K = 0.0)\n")
    doc = json.loads(read_report_body(out))
    assert doc["summary"]["points"] == 6 and doc["summary"]["verdict"] == "constant"
    assert [r["kind"] for r in doc["records"]] == ["pair"] * (6 * 3)
    assert {(r["k_special"], r["k_oracle"]) for r in doc["records"]} == {(0.0, 0.0)}


def test_scan_flagged_record_reported_undetermined(tmp_path, capsys, monkeypatch):
    from sepcurv import curvature

    real_gauss = curvature.PairTable.gauss

    def one_disagreement(table):
        k = real_gauss(table)
        k[0, 0] *= 1.0 + 1e-6
        return k

    monkeypatch.setattr(curvature.PairTable, "gauss", one_disagreement)
    out = str(tmp_path / "report.json")
    assert main(["scan", sphere4_spec(tmp_path), "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("verdict: undetermined (spread ")
    assert "<= tol 1e-07) (1 pair records flagged by the engine cross-check)" in printed
    summary = json.loads(read_report_body(out))["summary"]
    assert summary["flagged"] == 1
    assert summary["verdict"] == "undetermined"
    assert summary["constant_estimate"] is None


def test_scan_identical_across_threads_and_runs(tmp_path):
    spec = sphere4_spec(tmp_path)
    bodies = []
    for name, threads in (("a", "1"), ("b", "3"), ("c", "1"), ("d", "1000")):
        out = str(tmp_path / f"{name}.json")
        assert main(["scan", spec, "--out", out, "--threads", threads]) == 0
        bodies.append(read_report_body(out))
    assert bodies[0] == bodies[1] == bodies[2] == bodies[3]


def test_scan_csv_format(tmp_path):
    spec = sphere4_spec(tmp_path)
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    assert main(["scan", spec, "--out", first, "--format", "csv"]) == 0
    assert main(["scan", spec, "--out", second, "--format", "csv", "--threads", "2"]) == 0
    body = read_report_body(first)
    assert body == read_report_body(second)
    assert body.splitlines()[0].startswith("sample,kind,i,j,k_special")
    assert len(body.splitlines()) == 1 + 12 * 5


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_unwritable_out_exit_2(tmp_path, capsys, fmt):
    spec = sphere4_spec(tmp_path)
    missing = str(tmp_path / "no" / "such" / f"r.{fmt}")
    assert main(["scan", spec, "--out", missing, "--format", fmt]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {missing!r}: No such file or directory\n"
    )
    assert main(["scan", spec, "--out", str(tmp_path), "--format", fmt]) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(tmp_path)!r}: Is a directory\n"


def test_scan_seed_override_changes_report(tmp_path):
    spec = sphere4_spec(tmp_path)
    base = str(tmp_path / "base.json")
    seeded = str(tmp_path / "seeded.json")
    assert main(["scan", spec, "--out", base]) == 0
    assert main(["scan", spec, "--out", seeded, "--seed", "7"]) == 0
    assert read_report_body(base) != read_report_body(seeded)
    assert json.loads(read_report_body(seeded))["seed"] == 7


def test_scan_negative_seed_exit_2(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json"), "--seed", "-1"]) == 2
    assert "--seed must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_scan_threads_below_one_exit_2(tmp_path, capsys, threads):
    spec = sphere4_spec(tmp_path)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json"), "--threads", threads]) == 2
    assert f"--threads must be an integer >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_scan_requires_ranges(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "functions": [
            {"expr": "x^2"},
            {"expr": "x^2"},
            {"expr": "x^2 - 1.0", "bracket": [0.1, 1.01]},
        ],
    }
    spec = write_spec(tmp_path, doc)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 2
    assert "sampling.ranges is required" in capsys.readouterr().err


def test_scan_non_constant_verdict(tmp_path, capsys):
    spec = exp_spec(tmp_path)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 0
    assert "verdict: non-constant" in capsys.readouterr().out


# -------------------------------------------------------- tolerance wiring


def test_tol_flag_wins(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["scan", spec, "--out", out, "--tol", "1e-30"]) == 0
    printed = capsys.readouterr().out
    assert "verdict: non-constant" in printed     # ulp noise exceeds 1e-30
    assert "tol 1e-30" in printed


def test_env_tol_used_as_fallback(tmp_path, capsys, monkeypatch):
    spec = sphere4_spec(tmp_path)
    monkeypatch.setenv("SEPCURV_TOL", "1e-30")
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 0
    assert "verdict: non-constant" in capsys.readouterr().out


def test_spec_tol_beats_env(tmp_path, capsys, monkeypatch):
    spec = write_spec(
        tmp_path,
        {
            "format_version": 1,
            "family": {"kind": "hypersphere", "n": 4, "radius": 2.0},
            "sampling": {"count": 12, "seed": 3},
            "tolerances": {"constancy": 1e-7},
        },
    )
    monkeypatch.setenv("SEPCURV_TOL", "1e-30")
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 0
    assert "verdict: constant" in capsys.readouterr().out


def test_flag_beats_spec_tol(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "format_version": 1,
            "family": {"kind": "hypersphere", "n": 4, "radius": 2.0},
            "sampling": {"count": 12, "seed": 3},
            "tolerances": {"constancy": 1e-7},
        },
    )
    out = str(tmp_path / "r.json")
    assert main(["scan", spec, "--out", out, "--tol", "1e-30"]) == 0
    assert "verdict: non-constant" in capsys.readouterr().out


@pytest.mark.parametrize("env", ["abc", "-5", "0", "inf"])
def test_bad_env_tol_exit_2(tmp_path, capsys, monkeypatch, env):
    spec = sphere4_spec(tmp_path)
    monkeypatch.setenv("SEPCURV_TOL", env)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json")]) == 2
    assert "SEPCURV_TOL" in capsys.readouterr().err


def test_bad_tol_flag_exit_2(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    assert main(["scan", spec, "--out", str(tmp_path / "r.json"), "--tol", "-1"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err
    assert main(["scan", spec, "--out", str(tmp_path / "r.json"), "--tol", "inf"]) == 2
    assert "--tol must be a finite number, got inf" in capsys.readouterr().err


# ------------------------------------------------------ bad spec values

SPHERE4 = {"kind": "hypersphere", "n": 4, "radius": 2.0}
BIG = "<1e309>"     # written as the JSON number 1e309, which reads as inf


@pytest.mark.parametrize(
    "family, extra, message",
    [
        ({**SPHERE4, "radius": -2}, {}, "radius must be positive"),
        ({**SPHERE4, "radius": "abc"}, {}, "family.radius must be a finite number"),
        ({**SPHERE4, "center": [0, 0, BIG, 0]}, {}, "family.center must be a list of 4 finite"),
        ({**SPHERE4, "height": True}, {},
         "family 'hypersphere': height index must be an integer >= 1 and <= 4, got True"),
        ({**SPHERE4, "height": 9}, {},
         "family 'hypersphere': height index must be an integer >= 1 and <= 4, got 9"),
        ({"kind": "cylinder", "n": 4, "profile_domain": ["a", 1]}, {}, "family.profile_domain"),
        ({"kind": "cylinder", "n": 4, "profile_domain": [2, 1]}, {}, "lo < hi"),
        ({"kind": "cylinder", "n": 4, "profile_slot": "x"}, {}, "family.profile_slot"),
        ({"kind": "cobb_douglas_sqrt", "n": 4, "a": -1}, {}, "A must be positive"),
        ({"kind": "log_ode", "n": 4, "lam": 0}, {}, "lam must be nonzero"),
        (
            {"kind": "log_ode", "n": 4, "lam": 0.001, "betas": [0, 0, 0, -10]},
            {},
            "default bracket overflows",
        ),
        ({"kind": "hyperplane", "n": 4, "coeffs": [1, 1, 1, 0]}, {}, "lam_4 must be nonzero"),
        # defaults that collapse to one float far from the origin
        ({**SPHERE4, "center": [0, 0, 0, 1e308]}, {}, "default bracket needs lo < hi"),
        ({"kind": "log_ode", "n": 4, "lam": 1, "shifts": [-1e308, 0, 0, 0]}, {}, "default range"),
        (SPHERE4, {"tolerances": {"constancy": "x"}}, "tolerances.constancy"),
        (SPHERE4, {"tolerances": {"constancy": BIG}}, "tolerances.constancy"),
        (SPHERE4, {"sampling": {"count": True}}, "sampling.count"),
        (SPHERE4, {"sampling": {"seed": True}}, "sampling.seed"),
        (SPHERE4, {"sampling": {"ranges": [[0, BIG], [0, 1], [0, 1]]}}, "sampling.ranges[0]"),
        (SPHERE4, {"sampling": {"ranges": [[-1e308, 1e308], [0, 1], [0, 1]]}}, "finite distance"),
        # integers past a bound, before anything is allocated for them
        ({**SPHERE4, "n": 10**400}, {}, "family integer 'n'"),
        (SPHERE4, {"sampling": {"count": 10**400}}, "sampling.count"),
        (SPHERE4, {"sampling": {"count": 10**13}}, "sampling.count"),
        (SPHERE4, {"sampling": {"oblique_planes": 10**400}}, "sampling.oblique_planes"),
        (SPHERE4, {"grid": [10**400, 4]}, "grid"),
        # a scan needs two lifted draws, so one draw is a spec error, not a solve failure
        (SPHERE4, {"sampling": {"count": 1}}, "sampling.count must be an integer >= 2 and <= 100000, got 1"),
        # a finite radius whose square overflows would fold -inf into f_h
        ({**SPHERE4, "radius": 2e154}, {}, "radius 2e+154 is too large: its square overflows"),
    ],
)
def test_bad_spec_values_exit_2(tmp_path, capsys, family, extra, message):
    text = json.dumps({"format_version": 1, "family": family, **extra})
    path = tmp_path / "bad.json"
    path.write_text(text.replace(f'"{BIG}"', "1e309"), encoding="utf-8")
    assert main(["scan", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]


@pytest.mark.parametrize(
    "family, message",
    [
        # the profile fails at a value of the default box's grid
        ({"profile_expr": "log(x)"},
         "default range of x_1 fails at grid value -2.0: evaluating 'log(x)' at x = -2.0: "
         "log of non-positive value -2.0"),
        # the profile's domain leaves no box inside [-2, 2]
        ({"profile_domain": [5, 6]}, "cannot derive a default range inside domain (5.0, 6.0)"),
    ],
)
def test_a_failed_default_box_is_a_spec_error(tmp_path, capsys, family, message):
    path = tmp_path / "cylinder.json"
    spec = {"format_version": 1, "family": {"kind": "cylinder", "n": 4, **family}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    for argv in (["scan", str(path), "--out", str(tmp_path / "r.json")],
                 ["eval", str(path), "--point", "1,1,1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


def test_spec_integer_past_digit_limit_exit_2(tmp_path, capsys):
    # Python refuses to read an integer of more than 4300 digits
    path = tmp_path / "big.json"
    family = '{"kind": "hypersphere", "radius": 2.0, "n": 1' + "0" * 5000 + "}"
    path.write_text('{"format_version": 1, "family": ' + family + "}", encoding="utf-8")
    assert main(["scan", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not valid JSON" in err[0]


# ---------------------------------------------------------------- certify


def test_certify_flat(capsys):
    assert main(["certify", "flat", "--dims", "4", "--count", "15"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_certify_constant(capsys):
    assert main(["certify", "constant", "--dims", "4", "--count", "12"]) == 0
    out = capsys.readouterr().out
    assert "hypersphere(r=" in out
    assert "FAIL" not in out


def test_certify_failure_exit_1(capsys, monkeypatch):
    rows = [SuiteRow("rigged", 4, "constant 0", "non-constant", False)]
    monkeypatch.setattr("sepcurv.cli.run_flat_suite", lambda *a, **k: rows)
    assert main(["certify", "flat"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  rigged" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize("suite", ["flat", "constant"])
def test_certify_passes_only_the_given_flags(capsys, monkeypatch, suite):
    # the suites' own signatures hold the defaults of --dims, --count and --seed
    calls = []
    rows = [SuiteRow("rigged", 4, "constant 0", "constant 0", True)]
    monkeypatch.setattr(f"sepcurv.cli.run_{suite}_suite", lambda **k: calls.append(k) or rows)
    assert main(["certify", suite]) == 0
    assert main(["certify", suite, "--dims", "5,4", "--count", "7", "--seed", "0"]) == 0
    assert calls == [{}, {"dims": (5, 4), "count": 7, "seed": 0}]
    capsys.readouterr()


def test_certify_seed_reproduces_rows(capsys):
    outputs = []
    for seed in ("5", "5", "6"):
        assert main(["certify", "flat", "--dims", "4", "--count", "10", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    observed = [[line.split("  ")[-1] for line in out.splitlines()[:-1]] for out in outputs]
    assert observed[0] != observed[2]


def test_certify_negative_seed_exit_2(capsys):
    assert main(["certify", "flat", "--seed", "-1"]) == 2
    assert "--seed must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "flat", "--dims", "2"],
        ["certify", "flat", "--dims", "4,x"],
        ["certify", "flat", "--count", "1"],
        ["certify", "flat", "--count", str(10**400)],
        ["certify", "flat", "--dims", str(10**400)],
        ["certify", "constant", "--dims", "4,101"],
    ],
)
def test_certify_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["flat", "constant"])
def test_certify_high_dimension_exits_0_or_1(capsys, suite):
    # the controls' boxes and brackets follow n, so every draw can lift
    assert main(["certify", suite, "--dims", "40", "--count", "2"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "checks passed" in captured.out


def _no_lifts(*args):
    return Samples([], [(0, "BracketError: x")], None)


def test_certify_too_few_lifts_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("sepcurv.curvature.sample_points", _no_lifts)
    assert main(["certify", "flat", "--dims", "4", "--count", "2"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: only 0 of 2 draws lifted onto the surface; first failure: BracketError: x"]


def test_scan_too_few_lifts_exit_3(tmp_path, capsys, monkeypatch):
    # the same step and line as certify's above
    monkeypatch.setattr("sepcurv.curvature.sample_points", _no_lifts)
    assert main(["scan", sphere4_spec(tmp_path), "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: only 0 of 12 draws lifted onto the surface; first failure: BracketError: x"]
    assert not (tmp_path / "r.json").exists()


def test_integer_message_abbreviates_the_value(tmp_path, capsys):
    assert main(["certify", "flat", "--count", str(10**400)]) == 2
    doc = {"format_version": 1, "family": SPHERE4, "sampling": {"count": 10**400}}
    path = write_spec(tmp_path, doc)
    assert main(["scan", path, "--out", str(tmp_path / "r.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(len(line) < 200 for line in lines)
    assert "--count must be an integer >= 2 and <= 100000, got 1000" in lines[0]
    assert "sampling.count must be an integer >= 2 and <= 100000, got 1000" in lines[1]


# ------------------------------------------------------------------- mesh


def test_mesh_writes_obj_and_sidecar(tmp_path, capsys):
    spec = sphere3_mesh_spec(tmp_path)
    out = str(tmp_path / "dome.obj")
    assert main(["mesh", spec, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "mesh: 36 vertices, 50 triangles, 0 grid nodes dropped" in printed
    assert "K range:" in printed

    lines = (tmp_path / "dome.obj").read_text(encoding="utf-8").splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 36
    assert sum(1 for l in lines if l.startswith("f ")) == 50

    sidecar = tmp_path / "dome_curvature.csv"
    assert f"wrote {out} and {sidecar}" in printed
    rows = sidecar.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "vertex,k"
    assert len(rows) == 37
    for row in rows[1:]:
        assert abs(float(row.split(",")[1]) - 1.0) <= 1e-9


EXP_MESH = {
    "format_version": 1,
    "functions": [{"expr": "exp(x)"}, {"expr": "exp(x)"}, {"expr": "x", "bracket": [-1e200, 1]}],
    "grid": [4, 4],
}


@pytest.mark.parametrize(
    "spec, ranges, infs, k_range",
    [
        # f_1'^2 f_2'' f_3'' passes the float range where 2 x_1 + x_2 > 709.78,
        # while K is about exp(x_2 - 3 x_1), below the smallest float
        (EXP_MESH, [[350, 354.5], [0, 5]], 0, "[0.0, 0.0]"),
        # K = exp(x_1 + x_2) / (exp(2 x_1) + exp(2 x_2) + 1)^2 is subnormal
        (EXP_MESH, [[354.4, 354.5]] * 2, 0, "[3.041951876558557e-309, 3.715448412219296e-309]"),
        # K = 1/|x|^2 passes the float range at the vertex nearest the origin
        (TINY_SPHERE, [[0, 3e-154]] * 2, 1,
         "[5.5555246915294913e+306, 9.999000099989995e+307] (1 vertices with non-finite K)"),
        (TINY_SPHERE, [[-1e-155, 1e-155]] * 2, 16,
         "none (no vertex has finite K) (16 vertices with non-finite K)"),
    ],
    ids=["exp-products-overflow", "exp-subnormal-k", "sphere-some-k-overflow",
         "sphere-every-k-overflows"],
)
def test_mesh_k_range_covers_finite_curvatures(tmp_path, capsys, spec, ranges, infs, k_range):
    doc = {**spec, "sampling": {"ranges": ranges}, "grid": [4, 4]}
    out = tmp_path / "m.obj"
    assert main(["mesh", write_spec(tmp_path, doc), "--out", str(out)]) == 0
    assert f"K range: {k_range}\n" in capsys.readouterr().out
    cells = [row.split(",")[1] for row in (tmp_path / "m_curvature.csv").read_text().splitlines()[1:]]
    assert len(cells) == 16 and cells.count("inf") == infs and "nan" not in cells


# K = f_1'' f_2'' f_3'^2 / |grad F|^4 underflows to -0.0 where x_2 < 0 and to
# 0.0 where x_2 > 0, so the first vertex's K is -0.0 and every K is a zero
NEG_ZERO_MESH = {
    "format_version": 1,
    "functions": [{"expr": "0.9*x + 1e-162*x^2"}, {"expr": "0.9*x + 1e-162*x^3"},
                  {"expr": "0.9*x", "bracket": [-10.0, 10.0]}],
    "sampling": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]]},
    "grid": [3, 4],
}


def test_mesh_keeps_what_the_benchmark_traces(tmp_path, capsys, monkeypatch):
    """perfbench/layers.py traces `build_mesh`, `write_obj` and
    `write_curvature_csv` by rebinding each in every sepcurv module that
    holds the function, reads `build_mesh`'s arguments by name, and counts
    its result's `dropped`."""
    assert list(inspect.signature(build_mesh).parameters) == ["surface", "ranges", "grid", "bracket"]
    calls = []
    for name in ("build_mesh", "write_obj", "write_curvature_csv"):
        real = getattr(meshing, name)
        assert getattr(cli, name) is real

        def spy(*args, name=name, real=real):
            calls.append((name, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / "m.obj"
    assert main(["mesh", write_spec(tmp_path, NEG_ZERO_MESH), "--out", str(out)]) == 0
    assert [name for name, _ in calls] == ["build_mesh", "write_obj", "write_curvature_csv"]
    mesh = calls[0][1]
    assert type(mesh.dropped) is int and mesh.dropped == 0
    cells = [row.split(",")[1] for row in (tmp_path / "m_curvature.csv").read_text().splitlines()[1:]]
    assert cells == ["-0.0", "-0.0", "0.0", "0.0"] * 3
    # the first of equal values, as min and max of the values in order give
    assert "K range: [-0.0, -0.0]\n" in capsys.readouterr().out


def test_mesh_unwritable_out_exit_2(tmp_path, capsys):
    spec = sphere3_mesh_spec(tmp_path)
    missing = str(tmp_path / "no" / "m.obj")
    assert main(["mesh", spec, "--out", missing]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {missing!r}: No such file or directory\n"
    )
    # the OBJ is written, its sidecar's path is a directory
    (tmp_path / "m_curvature.csv").mkdir()
    sidecar = str(tmp_path / "m_curvature.csv")
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 2
    assert capsys.readouterr().err == f"error: cannot write {sidecar!r}: Is a directory\n"


def test_mesh_deterministic(tmp_path):
    spec = sphere3_mesh_spec(tmp_path)
    a, b = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
    assert main(["mesh", spec, "--out", a]) == 0
    assert main(["mesh", spec, "--out", b]) == 0
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def test_mesh_sparse_grid_exit_4(tmp_path, capsys):
    spec = sphere3_mesh_spec(
        tmp_path, sampling={"ranges": [[2.0, 3.0], [2.0, 3.0]]}
    )
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 4
    assert "grid nodes lifted" in capsys.readouterr().err


def test_mesh_wrong_dimension_exit_2(tmp_path, capsys):
    spec = sphere4_spec(tmp_path)
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 2
    assert "needs n = 3" in capsys.readouterr().err


def test_mesh_requires_ranges(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "functions": [
            {"expr": "x^2"},
            {"expr": "x^2"},
            {"expr": "x^2 - 1.0", "bracket": [0.1, 1.01]},
        ],
    }
    spec = write_spec(tmp_path, doc)
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 2
    assert "required for meshing" in capsys.readouterr().err


# ---------------------------------------------------------- internal error


EXIT_CODES = {
    "SepcurvError": 3,
    "ParseError": 2,
    "DomainError": 3,
    "NonFiniteError": 3,
    "RegularityError": 3,
    "SolveError": 3,
    "BracketError": 3,
    "ConvergenceError": 3,
    "DegeneratePlaneError": 3,
    "SpecFileError": 2,
    "MeshError": 4,
}


def _error_classes(cls=SepcurvError):
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("sepcurv."):
            yield from _error_classes(sub)


def test_every_error_class_has_a_documented_exit_code():
    assert {cls.__name__ for cls in _error_classes()} == set(EXIT_CODES)


def _readme_exit_code_table() -> set[tuple[str, int]]:
    """(class name, code) for each error class README's exit-code table names."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split("### Exit codes", 1)[1]
    pairs = set()
    for line in section.split("\n\n", 2)[1].splitlines():
        code, meaning = line.strip("|").split("|")[:2]
        if code.strip().isdigit():
            pairs.update((name, int(code)) for name in re.findall(r"`(\w+Error)`", meaning))
    return pairs


def test_readme_exit_code_table_matches_errors():
    # the base class is named in row 3, "every other `SepcurvError`"
    classes = {(cls.__name__, cls.exit_code) for cls in _error_classes()}
    assert _readme_exit_code_table() == classes


@pytest.mark.parametrize("name", EXIT_CODES)
def test_error_class_exit_code(tmp_path, capsys, monkeypatch, name):
    spec = sphere3_mesh_spec(tmp_path)
    cls = next(c for c in _error_classes() if c.__name__ == name)
    exc = cls("wires crossed", 7) if issubclass(cls, ParseError) else cls("wires crossed")

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("sepcurv.cli.build_mesh", boom)
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == EXIT_CODES[name]
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_unexpected_exception_exit_5(tmp_path, capsys, monkeypatch):
    spec = sphere3_mesh_spec(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("sepcurv.cli.build_mesh", boom)
    assert main(["mesh", spec, "--out", str(tmp_path / "m.obj")]) == 5
    assert "internal error: RuntimeError: wires crossed" in capsys.readouterr().err


# ------------------------------------------------------- one reader, bounds


def test_every_tolerance_source_gets_the_same_positive_text(tmp_path, capsys, monkeypatch):
    spec = sphere4_spec(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["scan", spec, "--out", out, "--tol", "0"]) == 2
    monkeypatch.setenv("SEPCURV_TOL", "-1")
    assert main(["scan", spec, "--out", out]) == 2
    monkeypatch.delenv("SEPCURV_TOL")
    doc = {"format_version": 1, "family": SPHERE4, "tolerances": {"constancy": 0}}
    bad = write_spec(tmp_path, doc, "bad.json")
    assert main(["scan", bad, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --tol must be positive, got 0.0",
        "error: SEPCURV_TOL must be positive, got -1.0",
        f"error: {bad}: tolerances.constancy must be positive, got 0.0",
    ]


def test_nested_json_past_the_stack_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["scan", str(path), "--out", str(tmp_path / "r.json")],
                 ["eval", str(path), "--point", "0,0,0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not valid JSON" in err[0]


# each shape at depth k: k nested parentheses, k nested calls, a sum of
# k + 1 terms, k unary minuses
DEEP = {
    "parentheses": lambda k: "(" * k + "x" + ")" * k,
    "calls": lambda k: "sin(" * k + "x" + ")" * k,
    "sum": lambda k: "+".join(["x"] * (k + 1)),
    "minuses": lambda k: "-" * k + "x",
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_expression_depth_bound(tmp_path, capsys, shape):
    def spec(k):
        doc = {
            "format_version": 1,
            "functions": [{"expr": DEEP[shape](k)}, {"expr": "x^2"},
                          {"expr": "x", "bracket": [-100.0, 100.0]}],
            "sampling": {"count": 3, "ranges": [[0.1, 0.5], [0.1, 0.5]]},
        }
        return write_spec(tmp_path, doc, f"d{k}.json")

    at, past = spec(MAX_DEPTH), spec(MAX_DEPTH + 1)
    assert main(["scan", at, "--out", str(tmp_path / "r.json")]) == 0
    assert main(["eval", at, "--point", "0.2,0.3"]) == 0
    capsys.readouterr()
    for argv in (["scan", past, "--out", str(tmp_path / "r.json")],
                 ["eval", past, "--point", "0.2,0.3"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"functions[0].expr: expression nested deeper than {MAX_DEPTH} levels" in err[0]
