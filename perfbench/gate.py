"""Correctness gate: checks one repetition's outputs, outside the timed region.

`check()` returns a list of failure messages (empty means the outputs are
right).  The expectations come from outside the code under test: the
sphere's K = 1/r^2, the mesh's vertex and face counts worked out in
`inputs.mesh_input`, the suites' own analytic targets, and a seeded
spot-check of records against the 50-digit mpmath oracles in
`tests/oracles.py`, which share no formula with the package.

`self_check()` feeds the gate corrupted copies of the same outputs (a
flipped verdict, K off by one part in a million, a flagged record, a lost
vertex, a failed suite row) and returns a message for every corruption
the gate let through.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

SPHERE_TOL = 1e-9          # |K - 1/r^2| on every value, as the constant suite asks
ORACLE_RTOL = 1e-8         # |K - oracle| <= rtol * max(1, |oracle|), as the tests ask
ON_SURFACE_RTOL = 1e-9     # |sum f_k| <= rtol * max(1, sum |f_k|) at 50 digits
SPOT_PAIRS = 4
SPOT_PLANES = 4
SPOT_VERTICES = 6
CORRUPTION = 1.0 + 1e-6


def fingerprint(art: dict) -> str:
    """sha256 over every output body of a repetition."""
    h = hashlib.sha256()
    for name in sorted(art["files"]):
        h.update(name.encode() + b"\0" + art["files"][name].encode() + b"\0")
    return h.hexdigest()


def _spot_check(surface, picks) -> list[str]:
    """picks: (label, coords, kind, payload, k) with kind "pair" (payload
    (i, j)) or "plane" (payload (u, w)); checks K and the point itself."""
    import mpmath
    import oracles as orc  # tests/oracles.py; the caller puts tests/ on sys.path

    failures = []
    for label, coords, kind, payload, k in picks:
        values = [orc.mp_value(f.ast, mpmath.mpf(x)) for f, x in zip(surface.funcs, coords)]
        scale = max(1.0, float(mpmath.fsum(abs(v) for v in values)))
        off = float(abs(mpmath.fsum(values)))
        if off > ON_SURFACE_RTOL * scale:
            failures.append(f"{label}: point off the surface, |sum f_k| = {off:.3e}")
            continue
        if kind == "pair":
            want = orc.brute_coordinate_k(surface, coords, *payload)
        else:
            want = orc.brute_sectional(surface, coords, *payload)
        if not (k is not None and abs(k - want) <= ORACLE_RTOL * max(1.0, abs(want))):
            failures.append(f"{label}: K = {k!r}, 50-digit oracle gives {want!r}")
    return failures


def _pick(items: list, count: int, rng: random.Random) -> list:
    return rng.sample(items, min(count, len(items)))


def _check_sphere(art, ctx) -> list[str]:
    failures = []
    doc = json.loads(art["files"]["report"])
    summary = doc["summary"]
    k0 = ctx["meta"]["k_expected"]
    if summary["verdict"] != "constant":
        failures.append(f"verdict {summary['verdict']!r}, expected 'constant'")
    for key in ("k_min", "k_max"):
        value = summary[key]
        if value is None or abs(value - k0) > SPHERE_TOL:
            failures.append(f"summary {key} = {value!r}, expected {k0} within {SPHERE_TOL:g}")
    if doc["input_digest"] != ctx["digest"]:
        failures.append(f"input_digest {doc['input_digest']} is not the spec's {ctx['digest']}")
    records = doc["records"]
    pairs = [r for r in records if r["kind"] == "pair"]
    planes = [r for r in records if r["kind"] == "plane"]
    flagged = sum(1 for r in pairs if r["flagged"])
    if flagged:
        failures.append(f"{flagged} pair records flagged by the engine cross-check")
    if not pairs or not planes:
        failures.append(f"{len(pairs)} pair and {len(planes)} plane records; expected both")
    rng = random.Random(f"gate:{ctx['seed']}")
    picks = [
        (f"pair record sample {r['sample']} ({r['i']},{r['j']})", r["coords"], "pair",
         (r["i"], r["j"]), r["k_special"])
        for r in _pick(pairs, SPOT_PAIRS, rng)
    ] + [
        (f"plane record sample {r['sample']}", r["coords"], "plane", (r["u"], r["w"]), r["k_oracle"])
        for r in _pick(planes, SPOT_PLANES, rng)
    ]
    return failures + _spot_check(ctx["surface"], picks)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(";")]


def _check_dsl(art, ctx) -> list[str]:
    failures = []
    first = art["stdout"].splitlines()[0] if art["stdout"] else ""
    if not first.startswith("verdict: non-constant"):
        failures.append(f"stdout {first!r}, expected verdict non-constant")
    rows = list(csv.DictReader(io.StringIO(art["files"]["report"])))
    pairs = [r for r in rows if r["kind"] == "pair"]
    flagged = sum(1 for r in pairs if r["flagged"] != "False")
    if flagged:
        failures.append(f"{flagged} pair records flagged by the engine cross-check")
    if not pairs:
        failures.append("no pair records")
    rng = random.Random(f"gate:{ctx['seed']}")
    picks = [
        (f"pair record sample {r['sample']} ({r['i']},{r['j']})", _floats(r["coords"]), "pair",
         (int(r["i"]), int(r["j"])), float(r["k_special"]))
        for r in _pick(pairs, SPOT_PAIRS + SPOT_PLANES, rng)
    ]
    return failures + _spot_check(ctx["surface"], picks)


def _check_mesh(art, ctx) -> list[str]:
    failures = []
    meta = ctx["meta"]
    lines = art["files"]["obj"].splitlines()
    vertices = [tuple(map(float, ln.split()[1:])) for ln in lines if ln.startswith("v ")]
    faces = sum(1 for ln in lines if ln.startswith("f "))
    slack = meta["ambiguous"]
    if abs(len(vertices) - meta["vertices"]) > slack:
        failures.append(f"{len(vertices)} vertices, expected {meta['vertices']}")
    if abs(faces - meta["faces"]) > 8 * slack:
        failures.append(f"{faces} faces, expected {meta['faces']}")
    ks = [float(ln.split(",")[1]) for ln in art["files"]["curvature"].splitlines()[1:]]
    if len(ks) != len(vertices):
        failures.append(f"{len(ks)} curvature rows for {len(vertices)} vertices")
        return failures
    rng = random.Random(f"gate:{ctx['seed']}")
    i, j = ctx["surface"].non_height
    picks = [
        (f"vertex {v + 1}", vertices[v], "pair", (i, j), ks[v])
        for v in _pick(list(range(len(vertices))), SPOT_VERTICES, rng)
    ]
    return failures + _spot_check(ctx["surface"], picks)


def _check_certify(art, ctx) -> list[str]:
    rows = art["rows"]
    bad = [f"suite row failed: {name} n={n}: {observed}" for name, n, _, observed, ok in rows if not ok]
    return bad if rows else ["no suite rows"]


CHECKS = {
    "scan-sphere-oblique": _check_sphere,
    "scan-dsl-pairs": _check_dsl,
    "mesh-lift": _check_mesh,
    "certify-sweep": _check_certify,
}


def check(workload: str, art: dict, ctx: dict) -> list[str]:
    if art["rc"] != 0:
        return [f"exit code {art['rc']}: {art.get('stdout', '')[-200:]}"]
    return CHECKS[workload](art, ctx)


def _with_file(art: dict, name: str, text: str) -> dict:
    return {**art, "files": {**art["files"], name: text}}


def _corruptions(workload: str, art: dict):
    """(description, corrupted artifacts) pairs the gate must reject."""
    if workload == "scan-sphere-oblique":
        doc = json.loads(art["files"]["report"])
        flipped = json.loads(art["files"]["report"])
        flipped["summary"]["verdict"] = "non-constant"
        yield "flipped verdict", _with_file(art, "report", json.dumps(flipped))
        scaled = json.loads(art["files"]["report"])
        for rec in scaled["records"]:
            for key in ("k_special", "k_oracle"):
                if rec.get(key) is not None:
                    rec[key] *= CORRUPTION
        yield "K off by 1e-6 in every record", _with_file(art, "report", json.dumps(scaled))
        first_pair = next(k for k, r in enumerate(doc["records"]) if r["kind"] == "pair")
        doc["records"][first_pair]["flagged"] = True
        yield "one flagged record", _with_file(art, "report", json.dumps(doc))
    elif workload == "scan-dsl-pairs":
        rest = art["stdout"].split("\n", 1)[1] if "\n" in art["stdout"] else ""
        yield "flipped verdict", {**art, "stdout": "verdict: constant\n" + rest}
        rows = list(csv.reader(io.StringIO(art["files"]["report"])))
        head = rows[0]
        ks, flag = head.index("k_special"), head.index("flagged")
        scaled = [head] + [
            r[:ks] + [repr(float(r[ks]) * CORRUPTION)] + r[ks + 1:] if r[ks] else r
            for r in rows[1:]
        ]
        yield "K off by 1e-6 in every record", _with_file(art, "report", _csv(scaled))
        first_pair = next(k for k, r in enumerate(rows) if k and r[head.index("kind")] == "pair")
        rows[first_pair][flag] = "True"
        yield "one flagged record", _with_file(art, "report", _csv(rows))
    elif workload == "mesh-lift":
        lines = art["files"]["obj"].splitlines(keepends=True)
        lost = "".join(lines[1:])
        yield "one vertex lost", _with_file(art, "obj", lost)
        head, *body = art["files"]["curvature"].splitlines(keepends=True)
        scaled = head + "".join(
            f"{ln.split(',')[0]},{float(ln.split(',')[1]) * CORRUPTION!r}\n" for ln in body
        )
        yield "K off by 1e-6 at every vertex", _with_file(art, "curvature", scaled)
    else:
        rows = list(art["rows"])
        name, n, expected, observed, _ = rows[0]
        rows[0] = (name, n, expected, observed, False)
        yield "one failed suite row", {**art, "rows": rows}


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def self_check(workload: str, art: dict, ctx: dict) -> list[str]:
    """Messages for corruptions the gate failed to catch (empty is good)."""
    missed = []
    for what, bad in _corruptions(workload, art):
        if not check(workload, bad, ctx):
            missed.append(f"gate passed a corrupted output: {what}")
    return missed
