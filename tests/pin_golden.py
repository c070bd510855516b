"""Regenerate the golden output digests: python3 tests/pin_golden.py

Runs the command line in-process and writes to tests/golden.json the
sha256 of each output below, beside the Python, numpy and C library
versions that produced them:

- the JSON and CSV scan bodies (past the `#` line) of every `specs/*.json`,
  at the default `--threads` and at `--threads 3`;
- the same bodies, at both `--threads` values, of the specs in `OBLIQUE_SPECS`
  rewritten with `sampling.oblique_planes: 3`;
- the same bodies of the edge-case specs in `EDGE_SPECS`;
- the stdout of `certify flat` and `certify constant` at `--count 10`;
- the stdout of README's two `eval` examples;
- the exit code and stderr of CI's two `eval` exit-3 cases (`EVAL_FAILURES`);
- the OBJ and curvature sidecar of `mesh specs/sphere3_mesh.json`;
- `perfbench/gate.fingerprint` of each benchmark workload at seeds 1 to 3
  (itself a sha256 over the repetition's output bodies).

`tests/test_golden.py` computes the same digests and names every output
whose digest moved.  Run this script only after a change that moves output
bytes on purpose, in the same commit, and list each moved digest in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
PERFBENCH_SEEDS = (1, 2, 3)
# README's "Command line" eval examples
EVAL_ARGS = (
    ("specs/hypersphere_r2_n4.json", "--point", "0.3,-0.2,0.5"),
    ("specs/raw_functions_n4.json", "--point", "0.5,0.1,-0.3", "--pair", "1,3", "--k0", "1",
     "--format", "csv"),
)
# CI's eval failures: a height root outside the bracket, an overflowing figure
EVAL_FAILURES = (
    ("specs/hypersphere_r2_n4.json", "--point", "2.5,0,0"),
    ("specs/hypersphere_r2_n4.json", "--point", "0.1,0.2,0.3", "--k0", "1e308"),
)
# shipped specs also scanned with oblique planes (sphere and raw functions)
OBLIQUE_SPECS = ("cobb_douglas_n5.json", "raw_functions_n4.json")

# CI's bracket-miss, overflow, oblique-overflow and plane-errors scans; in
# the last, both (1, 2) frame vectors e_k - (f_k'/f_4') e_4 are nearly -e_4
# (wedge norm 1.414e-16), which no pair plane a scan builds depends on
EDGE_SPECS = {
    "bracket-miss": {
        "functions": [{"expr": "x^2"}, {"expr": "x^2"},
                      {"expr": "x - 3", "bracket": [2.5, 3.5]}],
        "sampling": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "count": 40},
    },
    "overflow": {
        "functions": [{"expr": "exp(-exp(x))"}, {"expr": "x^2"},
                      {"expr": "x", "bracket": [-10, 10]}],
        "sampling": {"ranges": [[600, 800], [-1, 1]], "count": 40},
    },
    "oblique-overflow": {
        "functions": [{"expr": "exp(x)"}, {"expr": "x^2"},
                      {"expr": "-(x^2)", "bracket": [1e70, 1e80]}],
        "sampling": {"ranges": [[352, 354.5], [-1, 1]], "count": 20, "seed": 1,
                     "oblique_planes": 2},
    },
    "plane-errors": {
        "functions": [{"expr": "1e9*x"}, {"expr": "1e9*x"}, {"expr": "x^2"},
                      {"expr": "1e-7*x", "bracket": [-1e18, 1e18]}],
        "sampling": {"ranges": [[-1, 1], [-1, 1], [-1, 1]], "count": 6},
    },
}


def platform_info() -> dict[str, str]:
    """What output bytes may depend on: libm's exp, log and pow, numpy's
    generators and kernels, and the interpreter's float formatting."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()).strip() or "unknown",
    }


def _run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `sepcurv <argv>`."""
    from sepcurv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli(argv: list[str]) -> str:
    """stdout of `sepcurv <argv>`, which must exit 0."""
    rc, stdout, _ = _run(argv)
    if rc != 0:
        raise RuntimeError(f"sepcurv {' '.join(argv)} exited {rc}")
    return stdout


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _perfbench_fingerprints(work: Path) -> dict[str, str]:
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import gate
    import inputs
    import workloads

    out = {}
    for name in inputs.WORKLOADS:
        for seed in PERFBENCH_SEEDS:
            run_dir = work / f"{name}-{seed}"
            run_dir.mkdir()
            spec, _ = inputs.GENERATORS[name](seed)
            runner = workloads.make(name, seed, run_dir, spec)
            runner.rep()
            out[f"perfbench {name} seed {seed} fingerprint"] = gate.fingerprint(runner.artifacts())
    return out


def digests(work: Path) -> dict[str, str]:
    """Output name -> sha256, the outputs written under the empty directory `work`."""
    from sepcurv.report import read_report_body

    def scan(name: str, spec: Path, *args: str) -> None:
        for fmt in ("json", "csv"):
            path = work / f"body.{fmt}"
            _cli(["scan", str(spec), "--out", str(path), "--format", fmt, *args])
            out[f"scan {' '.join((name, *args))} {fmt} body"] = _sha(read_report_body(str(path)))

    out = {}
    for spec in sorted((ROOT / "specs").glob("*.json")):
        scan(spec.name, spec)
        scan(spec.name, spec, "--threads", "3")
    for name in OBLIQUE_SPECS:
        doc = json.loads((ROOT / "specs" / name).read_text(encoding="utf-8"))
        doc["sampling"]["oblique_planes"] = 3
        spec = work / f"oblique-{name}"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        scan(f"{name} with oblique_planes 3", spec)
        scan(f"{name} with oblique_planes 3", spec, "--threads", "3")
    for name, doc in EDGE_SPECS.items():
        spec = work / f"{name}.json"
        spec.write_text(json.dumps({"format_version": 1, **doc}), encoding="utf-8")
        scan(f"{name} spec", spec)
    for suite in ("flat", "constant"):
        out[f"certify {suite} --count 10 stdout"] = _sha(_cli(["certify", suite, "--count", "10"]))
    for spec, *args in EVAL_ARGS:
        stdout = _cli(["eval", str(ROOT / spec), *args])
        out[f"eval {' '.join([spec, *args])} stdout"] = _sha(stdout)
    for spec, *args in EVAL_FAILURES:
        rc, _, stderr = _run(["eval", str(ROOT / spec), *args])
        out[f"eval {' '.join([spec, *args])} exit code and stderr"] = _sha(f"exit {rc}\n{stderr}")
    obj = work / "sphere3_mesh.obj"
    _cli(["mesh", str(ROOT / "specs" / "sphere3_mesh.json"), "--out", str(obj)])
    out["mesh sphere3_mesh.json obj"] = _sha(obj.read_text(encoding="utf-8"))
    sidecar = work / "sphere3_mesh_curvature.csv"
    out["mesh sphere3_mesh.json curvature sidecar"] = _sha(sidecar.read_text(encoding="utf-8"))
    out.update(_perfbench_fingerprints(work))
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        doc = {"platform": platform_info(), "digests": digests(Path(work))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
