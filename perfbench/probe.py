"""Host-speed probe: a fixed pure-Python kernel, timed between requests.

The benchmark gets a few cores of a shared host whose speed drifts by
tens of percent over minutes.  Process CPU time drifts with wall time, so
the cause is contention for the cores' shared resources, not waiting for
a core, and no clock of the process is free of it.  The probe's code is
part of the benchmark and never changes with the program under test, so
its time measures the host alone: worker.py runs it between a pass's
requests, and run.py multiplies the pass's times by NOMINAL_S over the
pass's mean probe time, which states them at one fixed host speed.

The kernel does what lawvere's term layer does most: it builds and
rewrites nested tuples recursively and hashes them into a dict.  It frees
everything it allocates and runs with the cyclic garbage collector off,
so it neither pays for collecting the program's heap nor shifts the
program's own collections.
"""
from __future__ import annotations

import gc
import random
import time

# A typical probe time on a 2-vCPU Intel Xeon VM under CPython 3.11.
NOMINAL_S = 0.014
TREES = 200


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.randrange(5)
    return (rng.choice("+*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _normalize(t):
    """Right-associate sums, bottom up."""
    if isinstance(t, int):
        return t
    op, a, b = t
    a, b = _normalize(a), _normalize(b)
    if op == "+" and isinstance(a, tuple) and a[0] == "+":
        return _normalize(("+", a[1], ("+", a[2], b)))
    return (op, a, b)


def kernel() -> int:
    rng = random.Random(12345)
    seen: dict = {}
    for _ in range(TREES):
        t = _normalize(_tree(rng, 7))
        seen[t] = seen.get(t, 0) + 1
    return len(seen)


def timed() -> float:
    """Seconds the kernel takes once, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
