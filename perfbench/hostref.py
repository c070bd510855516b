"""Host speed gauge: a fixed block of pure-Python work, timed between repetitions.

The benchmark's host switches between speed states up to 1.6x apart, each
lasting from under a second to minutes, and a whole run can fall in one
state (see NOTES.md, "Steadiness").  The guest cannot see this: process CPU
time equals wall time.  So the run times this block right before and after
every repetition and every set-up probe, and reports each time rescaled to
a host on which the block takes `NOMINAL_S` seconds:

    normalized = measured * NOMINAL_S / (mean of the two adjacent blocks)

The block mixes a tight integer loop with forward-mode derivatives on small
objects (calls, allocation, float math), because the workloads' sensitivity
to the slow state lies between the two.  For a workload that scans with
several threads, the block is split into CHUNKS tasks run on a thread pool
of that size, as `scan_constancy` splits its points, because two threads
contending for the interpreter lock feel the slow state differently from
one.  The block is part of the benchmark, not of the package, so no change
to `src/` moves it.
"""

from __future__ import annotations

import gc
import math
import time
from concurrent.futures import ThreadPoolExecutor

NOMINAL_S = 0.025    # the block's time on a 2-CPU Xeon VM in its fast state
INT_N = 150_000
DUAL_N = 4_500
CHUNKS = 8


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float):
        self.v = v
        self.d = d

    def __add__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v + o.v, self.d + o.d)

    def __mul__(self, o: "_Dual") -> "_Dual":
        return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)


def _exp(a: _Dual) -> _Dual:
    e = math.exp(a.v)
    return _Dual(e, e * a.d)


def _sin(a: _Dual) -> _Dual:
    return _Dual(math.sin(a.v), math.cos(a.v) * a.d)


def _work(part: int, parts: int) -> float:
    acc = 0
    for i in range(part, INT_N, parts):
        acc += i * i % 7
    total = float(acc)
    scale = _Dual(0.7, 0.0)
    for i in range(part, DUAL_N, parts):
        x = _Dual(-1.0 + i / DUAL_N, 1.0)
        y = _exp(_sin(x) * x) + x * x + _sin(x * scale)
        total += y.d
    return total


def block(threads: int = 1) -> float:
    """Seconds for one gauge block, with the garbage collector held off so
    that it does not collect what the previous repetition left."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(_work, range(CHUNKS), [CHUNKS] * CHUNKS))
        else:
            _work(0, 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Gauge blocks between timed calls; the block after one call is also
    the block before the next."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.blocks = [block(threads)]

    def around(self) -> float:
        """Time the next block; return the mean of it and the one before."""
        self.blocks.append(block(self.threads))
        return 0.5 * (self.blocks[-2] + self.blocks[-1])


def normalized(seconds: float, around: float) -> float:
    return seconds * NOMINAL_S / around

