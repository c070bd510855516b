"""No output byte moves unless golden.json moves with it.

Regenerates every digest `pin_golden.py` pins (scan bodies of the shipped
specs, certify and eval stdout, the sphere3 mesh files, the benchmark
workloads' fingerprints) and names each output whose digest differs.  On
the platform that pinned them a moved digest fails the test.  On another
platform (Python, numpy or C library version, or another CPU target of
numpy's jet kernels) numpy and libm may round differently, so a moved
digest there is an expected failure whose reason names the moved outputs
and both platforms; unmoved digests pass anywhere.
"""

import json

import pytest

import pin_golden


def test_no_output_byte_moved(tmp_path):
    pinned = json.loads(pin_golden.GOLDEN.read_text(encoding="utf-8"))
    now = pin_golden.digests(tmp_path)
    moved = sorted(
        name for name in pinned["digests"].keys() | now.keys()
        if pinned["digests"].get(name) != now.get(name)
    )
    here = pin_golden.platform_info()
    if moved and here != pinned["platform"]:
        pytest.xfail(
            f"{len(moved)} outputs moved on {here}, pinned on {pinned['platform']}: "
            + "; ".join(moved)
        )
    assert moved == [], f"outputs moved against tests/golden.json: {moved}"
