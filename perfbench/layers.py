"""Per-layer measurement from outside the package.

`Tracer` turns every call of the public layer functions in `TRACED` into a
span (name, start, end, parent, attributes) by rebinding the name in each
`sepcurv` module that imported it; `uninstall()` restores the originals.
Spans stay in memory and are written out when the run ends.  Attributes
are counts read from the call's arguments and result (draws, records,
flagged records, body bytes, mesh nodes).

`per_call()` times the hot point-wise functions in tight loops on the
workload's own surfaces and points.  Those calls are too frequent to trace
one by one, so they are timed here as microseconds per call instead.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time
from itertools import combinations

import numpy as np

TRACED = {
    "specfile": ("load_spec",),
    "geometry": ("sample_points",),
    "curvature": ("scan_constancy",),
    "report": ("report_body_json", "report_body_csv", "write_report"),
    "meshing": ("build_mesh", "write_obj", "write_curvature_csv"),
    "suites": ("run_flat_suite", "run_constant_suite"),
}


def _sample_attrs(args, out):
    return {"draws": args["count"], "failures": len(out[1])}


def _scan_attrs(args, out):
    return {
        "records": len(out.records),
        "flagged": sum(1 for r in out.records if r.flagged),
        "errors": out.failure_count,
    }


def _mesh_attrs(args, out):
    nx, ny = args["grid"]
    return {"nodes": nx * ny, "dropped": out.dropped}


ATTRS = {
    "geometry.sample_points": _sample_attrs,
    "curvature.scan_constancy": _scan_attrs,
    "report.report_body_json": lambda args, out: {"bytes": len(out.encode())},
    "report.report_body_csv": lambda args, out: {"bytes": len(out.encode())},
    "meshing.build_mesh": _mesh_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.cases: list[dict] = []   # surfaces and points seen, for per_call()
        self.keep_cases = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": dict(attrs or {}),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        extract = ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["attrs"].update(extract(bound.arguments, out))
                if self.keep_cases:
                    self._remember(name, bound.arguments, out)
            return out

        return traced

    def _remember(self, name: str, args: dict, out) -> None:
        if name == "geometry.sample_points":
            self.cases.append({"surface": args["surface"], "ranges": args["ranges"],
                               "bracket": args["bracket"], "points": out[0], "oblique": 0})
        elif name == "curvature.scan_constancy" and self.cases:
            self.cases[-1]["oblique"] = args["policy"].oblique_per_point
        elif name == "meshing.build_mesh":
            self.cases.append({"surface": args["surface"], "ranges": args["ranges"],
                               "bracket": args["bracket"], "grid": args["grid"],
                               "points": None, "oblique": 0})

    def install(self) -> None:
        mods = [m for key, m in sys.modules.items() if key == "sepcurv" or key.startswith("sepcurv.")]
        for short, names in TRACED.items():
            home = sys.modules[f"sepcurv.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in mods:
                    if getattr(mod, fname, None) is orig:
                        self._patched.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def children(self, root_id: int) -> list[dict]:
        """Every span below `root_id`."""
        below = {root_id}
        out = []
        for rec in self.spans[root_id + 1:]:
            if rec["parent"] in below:
                below.add(rec["id"])
                out.append(rec)
        return out


def rep_layers(spans: list[dict]) -> dict:
    """Per-layer totals of one traced repetition."""
    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def count(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    scan_s = total("curvature.scan_constancy")
    records = count("curvature.scan_constancy", "records")
    mesh_s = total("meshing.build_mesh")
    nodes = count("meshing.build_mesh", "nodes")
    return {
        "geometry.sample_points_s": total("geometry.sample_points"),
        "curvature.scan_constancy_s": scan_s,
        "curvature.record_us": scan_s / records * 1e6 if records else 0.0,
        "curvature.flagged_records": count("curvature.scan_constancy", "flagged"),
        "curvature.error_records": count("curvature.scan_constancy", "errors"),
        "report.body_s": total("report.report_body_json", "report.report_body_csv"),
        "report.body_bytes": count("report.report_body_json", "bytes")
        + count("report.report_body_csv", "bytes"),
        "report.write_s": total("report.write_report"),
        "meshing.build_mesh_s": mesh_s,
        "meshing.node_us": mesh_s / nodes * 1e6 if nodes else 0.0,
        "meshing.dropped_nodes": count("meshing.build_mesh", "dropped"),
        "meshing.write_s": total("meshing.write_obj", "meshing.write_curvature_csv"),
        "suites.run_flat_suite_s": total("suites.run_flat_suite"),
        "suites.run_constant_suite_s": total("suites.run_constant_suite"),
    }


def _time_calls(calls, budget: float) -> float:
    """Median over passes of seconds per call; at least one pass."""
    per_call = []
    end = time.perf_counter() + budget
    while True:
        t0 = time.perf_counter()
        for call in calls:
            call()
        per_call.append((time.perf_counter() - t0) / len(calls))
        if time.perf_counter() >= end:
            return statistics.median(per_call)


def _points(case, rng, limit: int):
    """Up to `limit` lifted points of a case, in a seeded order."""
    from sepcurv import SepcurvError, solve_height

    if case["points"] is None:
        pts = []
        for partial in _partials(case, rng, 4 * limit):
            try:
                pts.append(solve_height(case["surface"], partial, case["bracket"]))
            except SepcurvError:
                pass
        case["points"] = pts
    pts = list(case["points"])
    rng.shuffle(pts)
    return pts[:limit]


def _partials(case, rng, count: int) -> list[list[float]]:
    lows = [float(r[0]) for r in case["ranges"]]
    highs = [float(r[1]) for r in case["ranges"]]
    return rng.uniform(lows, highs, size=(count, len(lows))).tolist()


def per_call(cases: list[dict], seed: int, budget: float, threads: int) -> dict:
    """Microseconds per call of the point-wise layer functions, plus the
    lift failure share and the thread-pool speed-up, on `cases`."""
    from sepcurv import (
        ScanPolicy,
        SepcurvError,
        coordinate_plane,
        ensure_regular,
        eval_jet2,
        random_tangent_plane,
        scan_constancy,
        sectional_oracle,
        sectional_special,
        solve_height,
    )

    rng = np.random.default_rng([seed, 7])
    per_case = max(4, 64 // len(cases))
    jets, lifts, solves, special, oracle, planes = [], [], [], [], [], []
    outcomes: list[bool] = []
    for case in cases:
        surface, bracket = case["surface"], case["bracket"]
        for partial in _partials(case, rng, per_case):
            def lift(s=surface, x=partial, b=bracket):
                try:
                    ensure_regular(s, solve_height(s, x, b))
                except SepcurvError:
                    outcomes.append(False)
                else:
                    outcomes.append(True)

            def solve(s=surface, x=partial, b=bracket):
                try:
                    solve_height(s, x, b)
                except SepcurvError:
                    pass

            lifts.append(lift)
            solves.append(solve)
        for p in _points(case, rng, per_case):
            for f, x in zip(surface.funcs, p.coords):
                jets.append(lambda f=f, x=x: eval_jet2(f, x))
            for i, j in combinations(surface.non_height, 2):
                special.append(lambda s=surface, p=p, i=i, j=j: sectional_special(s, p, i, j))
                section = coordinate_plane(surface, p, i, j)
                oracle.append(lambda s=surface, p=p, q=section: sectional_oracle(s, p, q))
            gen = np.random.default_rng([seed, 8, len(planes)])
            planes.append(lambda s=surface, p=p, g=gen: random_tangent_plane(s, p, g))
    share = budget / 8.0    # six loops, and two shares for the thread-pool scans
    out = {
        "expr.eval_jet2_us": _time_calls(jets, share) * 1e6,
        "geometry.lift_us": _time_calls(lifts, share) * 1e6,
        "geometry.solve_height_us": _time_calls(solves, share) * 1e6,
        "curvature.sectional_special_us": _time_calls(special, share) * 1e6,
        "curvature.sectional_oracle_us": _time_calls(oracle, share) * 1e6,
        "curvature.random_tangent_plane_us": _time_calls(planes, share) * 1e6,
    }
    n_lifts = len(lifts)
    out["geometry.lift_fail_frac"] = outcomes[:n_lifts].count(False) / n_lifts

    # thread pool: the same small scan at threads=1 and at the CLI default
    case = max(cases, key=lambda c: len(c["points"] or ()))
    pts = list(case["points"])[:40]
    policy = ScanPolicy(oblique_per_point=case["oblique"], seed=seed)
    times = {1: [], threads: []}
    end = time.perf_counter() + 2 * share
    while True:
        for t in (1, threads):
            t0 = time.perf_counter()
            scan_constancy(case["surface"], pts, policy, threads=t)
            times[t].append(time.perf_counter() - t0)
        if time.perf_counter() >= end:
            break
    out["curvature.threads_speedup"] = statistics.median(times[1]) / statistics.median(times[threads])
    return out
