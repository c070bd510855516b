"""One repetition of each workload, run in-process through public entry points.

`scan-*` and `mesh-lift` call `sepcurv.cli.main` with the arguments a user
would type, so a repetition covers spec loading, sampling or meshing, the
curvature engines, serialization and the file writes.  `certify-sweep`
calls the two suite functions, because `sepcurv certify` ignores `--seed`.

`rep()` is the timed part.  `artifacts()` reads what the repetition left
behind and is not timed; the correctness gate and the byte-identity check
work on it.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import inputs


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_threads() -> int | None:
    """None (keep the CLI default, os.cpu_count()) unless that exceeds the
    CPUs this process may run on; then that CPU count."""
    return usable_cpus() if (os.cpu_count() or 1) > usable_cpus() else None


class CliWorkload:
    def __init__(self, argv: list[str], outputs: dict[str, Path], reports: tuple[str, ...] = (),
                 threads: int = 1):
        self.argv = argv
        self.outputs = outputs
        self.reports = reports    # outputs with a timestamp header to strip
        self.threads = threads    # scan worker threads the repetition runs
        self.last: tuple[int, str] | None = None

    def rep(self):
        from sepcurv import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        self.last = (rc, buf.getvalue())

    def artifacts(self) -> dict:
        from sepcurv.report import read_report_body

        rc, stdout = self.last
        files = {
            name: read_report_body(str(path)) if name in self.reports
            else path.read_text(encoding="utf-8")
            for name, path in self.outputs.items()
        }
        return {"rc": rc, "stdout": stdout, "files": files}


class CertifyWorkload:
    threads = 1                   # the suites always scan with threads=1

    def __init__(self, seed: int, count: int):
        self.seed = seed
        self.count = count
        self.last = None

    def rep(self):
        from sepcurv import suites

        self.last = (suites.run_flat_suite(count=self.count, seed=self.seed)
                     + suites.run_constant_suite(count=self.count, seed=self.seed))

    def artifacts(self) -> dict:
        rows = [(r.name, r.n, r.expected, r.observed, r.ok) for r in self.last]
        return {"rc": 0, "rows": rows, "files": {"rows": repr(rows)}}


def make(workload: str, seed: int, work: Path, spec: dict):
    """The runner for `workload`, with its input written under `work`."""
    if workload == "certify-sweep":
        return CertifyWorkload(seed, spec["count"])
    spec_path = work / "input.json"
    spec_path.write_bytes(inputs.canonical(spec))
    if workload == "scan-sphere-oblique":
        out = work / "report.json"
        argv = ["scan", str(spec_path), "--out", str(out)]
        threads = default_threads()
        if threads is not None:
            argv += ["--threads", str(threads)]
        return CliWorkload(argv, {"report": out}, reports=("report",),
                           threads=threads or os.cpu_count() or 1)
    if workload == "scan-dsl-pairs":
        out = work / "report.csv"
        argv = ["scan", str(spec_path), "--out", str(out), "--format", "csv", "--threads", "1"]
        return CliWorkload(argv, {"report": out}, reports=("report",))
    if workload == "mesh-lift":
        out = work / "mesh.obj"
        argv = ["mesh", str(spec_path), "--out", str(out)]
        sidecar = work / "mesh_curvature.csv"
        return CliWorkload(argv, {"obj": out, "curvature": sidecar})
    raise ValueError(f"unknown workload {workload!r}")
