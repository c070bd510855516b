"""sepcurv benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates the workload's input from
the seed, times the package's set-up in fresh interpreters, repeats the
workload in this process for S seconds, checks every output, and prints as
its last line one JSON object:

    {"correct": bool, "attempted": reps, "failed": reps, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
points_per_s, peak_rss_mb, ok_frac); with --trace 1 they are the per-layer
ones, from traced repetitions and timed loops (see NOTES.md).  Times of
repetitions and set-up probes are rescaled by the host speed gauge timed
around each of them (hostref.py).  Inputs,
outputs, spans and a full result file go to .bench_work/ under the root.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the package source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import hostref
import inputs
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 16         # fresh interpreters per run; the median is reported
MIN_REPS = 3              # timed repetitions even when they outlast --seconds
TRACE_REP_SHARE = 0.6     # of --seconds, for traced and untraced repetitions


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model, "nproc": workloads.usable_cpus(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }


def import_package() -> None:
    """Import sepcurv, and its CLI, from SRC.  The CLI binds the layer
    functions by name at import, so it has to be imported before the tracer
    first rebinds them; otherwise it would keep the traced versions."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT / "tests"))
    import sepcurv
    import sepcurv.cli  # noqa: F401

    if Path(sepcurv.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported sepcurv from {sepcurv.__file__}, not {SRC}")


def setup_probe(spec_path: Path | None) -> dict:
    """Set-up timings from one fresh interpreter (see probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    if spec_path is not None:
        cmd.append(str(spec_path))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(doc["module"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"set-up probe imported sepcurv from {doc['module']}")
    return doc


def rep_summary(values: list[float]) -> dict:
    """Sample count, minimum, lower quartile, median and 90th percentile of
    repetition times (at least two)."""
    return {"n": len(values), "min": min(values), "p25": statistics.quantiles(values, n=4)[0],
            "median": statistics.median(values), "p90": statistics.quantiles(values, n=10)[8]}


def fail_counts(workload: str, spans: list[dict], art: dict) -> tuple[int, int, int]:
    """(failed operations, attempted ones, units for points_per_s) of one
    repetition, from its spans and outputs."""
    def attrs(name):
        return [s["attrs"] for s in spans if s["name"] == name]

    if workload == "mesh-lift":
        mesh = attrs("meshing.build_mesh")
        nodes = sum(m["nodes"] for m in mesh)
        return sum(m["dropped"] for m in mesh), nodes, nodes
    draws = sum(a["draws"] for a in attrs("geometry.sample_points"))
    if workload == "certify-sweep":
        rows = art["rows"]
        return sum(1 for r in rows if not r[4]), len(rows), draws
    failed = sum(a["failures"] for a in attrs("geometry.sample_points"))
    failed += sum(a["errors"] for a in attrs("curvature.scan_constancy"))
    return failed, draws, draws


def warm_up(workload: str, runner, tracer) -> tuple[dict, tuple[int, int, int]]:
    """One traced, untimed repetition: its outputs (the reference for the
    timed ones) and its operation counts.  The tracer keeps the surfaces and
    points it saw, for the per-call loops, and collects no more after it."""
    tracer.install()
    try:
        with tracer.span("rep", {"kind": "warm-up"}) as warm:
            runner.rep()
    finally:
        tracer.uninstall()
    tracer.keep_cases = False
    reference = runner.artifacts()
    return reference, fail_counts(workload, tracer.children(warm["id"]), reference)


def measure(runner, tracer, budget: float, traced: bool, reference: str, probe) -> dict:
    """Repeat the workload until the next repetition would overrun `budget`
    seconds (at least MIN_REPS times); with `traced`, alternate untraced and
    traced repetitions.  The SETUP_PROBES set-up probes are spread evenly
    over the same budget, so that they see the same host as the
    repetitions.  A host gauge block is timed after every repetition and
    probe (and once before the first), and each gets the mean of the two
    blocks around it.  Every repetition's output is compared with the
    reference fingerprint, and every untraced one is checked to have left
    no spans, outside the timed region."""
    out = {"untraced": [], "traced": [], "untraced_gauge": [], "traced_gauge": [],
           "traced_ids": [], "differing": 0, "stray_spans": 0, "probes": []}
    modes = ("untraced", "traced") if traced else ("untraced",)
    start = time.perf_counter()
    probe()                   # discarded: it may compile bytecode
    gauge = hostref.Gauge(runner.threads)
    while True:
        for mode in modes:
            if mode == "traced":
                tracer.install()
            try:
                with tracer.span("rep", {"kind": mode}) as rec:
                    t0 = time.perf_counter()
                    runner.rep()
                    out[mode].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            out[mode + "_gauge"].append(gauge.around())
            if mode == "traced":
                out["traced_ids"].append(rec["id"])
            elif len(tracer.spans) != rec["id"] + 1:
                out["stray_spans"] += len(tracer.spans) - rec["id"] - 1
            if gate.fingerprint(runner.artifacts()) != reference:
                out["differing"] += 1
        share = min(1.0, (time.perf_counter() - start) / budget)
        while len(out["probes"]) < SETUP_PROBES * share:
            out["probes"].append(gauged_probe(probe, gauge))
        # a gauge block takes NOMINAL_S in the fast host state, up to twice that
        cycle = sum(statistics.median(out[m]) + hostref.NOMINAL_S * 2 for m in modes)
        enough = len(out["untraced"]) >= (2 if traced else MIN_REPS)
        if enough and time.perf_counter() - start + cycle > budget:
            break
    while len(out["probes"]) < SETUP_PROBES:
        out["probes"].append(gauged_probe(probe, gauge))
    out["gauge_blocks"] = gauge.blocks
    return out


def gauged_probe(probe, gauge) -> dict:
    doc = probe()
    doc["gauge_s"] = gauge.around()
    return doc


def normalized(times: list[float], gauges: list[float]) -> list[float]:
    return [hostref.normalized(t, g) for t, g in zip(times, gauges)]


def setup_times(probes: list[dict], part: str | None = None) -> list[float]:
    """Normalized set-up times of the probes: import plus load_spec, or one part."""
    parts = (part,) if part else ("import_s", "load_spec_s")
    return [hostref.normalized(sum(p[k] for k in parts), p["gauge_s"]) for p in probes]


def layer_values(tracer, reps, cases, seed: int, seconds: float) -> dict:
    """Per-layer metrics: span totals per traced repetition (median), set-up
    parts (normalized median over probes, as setup_s) and the timed loops."""
    per_rep = [layers.rep_layers(tracer.children(i)) for i in reps["traced_ids"]]
    values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    values["init.import_s"] = statistics.median(setup_times(reps["probes"], "import_s"))
    values["specfile.load_spec_s"] = statistics.median(setup_times(reps["probes"], "load_spec_s"))
    threads = workloads.default_threads() or os.cpu_count() or 1
    values.update(layers.per_call(cases, seed, seconds * (1 - TRACE_REP_SHARE), threads))
    traced = statistics.median(normalized(reps["traced"], reps["traced_gauge"]))
    untraced = statistics.median(normalized(reps["untraced"], reps["untraced_gauge"]))
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sepcurv" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'sepcurv'}", file=sys.stderr)
        return 2

    failures: list[str] = []
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    spec, meta = inputs.GENERATORS[args.workload](args.seed)
    digest = inputs.digest(spec)
    pinned = json.loads((HERE / "digests.json").read_text())[args.workload].get(str(args.seed))
    if pinned is not None and pinned["input"] != digest:
        failures.append(f"input for seed {args.seed} is {digest}, digests.json records {pinned['input']}")

    host = host_info()

    import_package()
    from sepcurv.specfile import load_spec

    runner = workloads.make(args.workload, args.seed, work, spec)
    spec_path = None if args.workload == "certify-sweep" else work / "input.json"

    tracer = layers.Tracer()
    reference, (failed_ops, attempted_ops, units) = warm_up(args.workload, runner, tracer)
    cases = list(tracer.cases)
    failed_frac = failed_ops / attempted_ops
    if pinned is not None and pinned["failed"] != failed_ops:
        failures.append(f"{failed_ops} of {attempted_ops} operations failed, "
                        f"digests.json records {pinned['failed']} for seed {args.seed}")

    budget = args.seconds * (TRACE_REP_SHARE if args.trace else 1.0)
    reps = measure(runner, tracer, budget, bool(args.trace), gate.fingerprint(reference),
                   lambda: setup_probe(spec_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ctx = {"seed": args.seed, "meta": meta, "digest": digest}
    if spec_path is not None:
        ctx["surface"] = load_spec(str(spec_path)).surface
    wrong = gate.check(args.workload, reference, ctx)
    failures += wrong
    if reps["differing"]:
        failures.append(f"{reps['differing']} repetitions wrote output that differs from the first")
    if reps["stray_spans"]:
        failures.append(f"untraced repetitions recorded {reps['stray_spans']} spans")
    failures += gate.self_check(args.workload, reference, ctx)

    # medians of times rescaled by the host gauge: the host switches between
    # speed states up to 1.6x apart, for up to minutes at a time, so no
    # statistic of raw times is steady across runs (see NOTES.md, "Steadiness")
    wall_s = statistics.median(normalized(reps["untraced"], reps["untraced_gauge"]))
    if args.trace:
        values = layer_values(tracer, reps, cases, args.seed, args.seconds)
    else:
        values = {
            "setup_s": statistics.median(setup_times(reps["probes"])),
            "wall_s": wall_s,
            "points_per_s": units / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed_frac,
        }
    host["ref_loop_s"] = statistics.median(reps["gauge_blocks"])
    values["host.ref_loop_s"] = host["ref_loop_s"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    result = {
        "correct": not failures,
        "attempted": 1 + len(reps["untraced"]) + len(reps["traced"]),
        "failed": reps["differing"] + (1 if wrong else 0),
        "metrics": metrics,
    }
    details = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": digest, "host": host,
        "failed_frac": failed_frac, "units": units, "failures": failures,
        "setup_probes": reps["probes"],
        "rep_s": {m: reps[m] for m in ("untraced", "traced")},
        "rep_gauge_s": {m: reps[m + "_gauge"] for m in ("untraced", "traced")},
        "gauge_nominal_s": hostref.NOMINAL_S,
        "rep_summary": rep_summary(reps["untraced"]),
    }
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    (work / "spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  input {digest}")
    print(f"host {host['cpu']}, nproc {host['nproc']}, python {host['python']}, "
          f"numpy {host['numpy']}, ref_loop_s {host['ref_loop_s']:.4f}")
    summary = details["rep_summary"]
    print(f"repetitions {len(reps['untraced'])} untraced, {len(reps['traced'])} traced; "
          f"untraced s (as measured): min {summary['min']:.4f}, p25 {summary['p25']:.4f}, "
          f"median {summary['median']:.4f}, "
          f"p90 {summary['p90']:.4f}; failed {failed_ops} of {attempted_ops} operations "
          f"(failed_frac {failed_frac:.4f})")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print("gate " + ("PASS" if not failures else "FAIL") + f"; details in {work / 'result.json'}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
