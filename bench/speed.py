"""Host speed, measured with a fixed reference kernel.

The benchmark runs on shared machines whose speed drifts by tens of
percent for stretches of seconds to minutes, and every instruction
slows together: process CPU time drifts exactly as wall time does.  So
each timed operation of a batch workload is bracketed by runs of
:func:`reference`, a fixed mix of the work the program does, and its
wall time is rescaled to the speed at which the reference takes
:data:`NOMINAL_S`::

    normalized = wall * NOMINAL_S / reference wall

The mix has three parts of similar length, because contention slows
interpreted code, array arithmetic and matrix products by different
amounts: small objects, dict updates, a sort, canonical JSON and
SHA-256; numpy over an 8 MB array; and small matrix products rounded
through float16.  The kernel is the benchmark's own code, so no change
to the program moves it, and it runs with the garbage collector off,
so the size of the program's heap does not either.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

import numpy

#: Reference-kernel wall time that normalized seconds are quoted at,
#: about what it takes on a quiet 2-core host of the kind the baseline
#: results record.
NOMINAL_S = 0.028

_ARRAY = numpy.linspace(0.0, 1.0, 1 << 20)
_LEFT = numpy.random.default_rng(0).standard_normal((64, 256))
_RIGHT = numpy.random.default_rng(1).standard_normal((256, 256))


class _Item:
    __slots__ = ("value", "key")

    def __init__(self, value: int, key: str) -> None:
        self.value = value
        self.key = key


def reference() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        totals = {}
        for item in [_Item(i, f"k{i % 6000}") for i in range(12000)]:
            totals[item.key] = totals.get(item.key, 0) + item.value
        rows = sorted(totals.items(), key=lambda kv: -kv[1])
        text = json.dumps({"rows": rows}, sort_keys=True)
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for _ in range(3):
            float((_ARRAY * 1.0001 + 0.5).sum())
        for _ in range(40):
            product = (_LEFT @ _RIGHT).astype(numpy.float16)
            float(product.astype(numpy.float64).sum())
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def normalize(wall: float, reference_s: float) -> float:
    """``wall`` rescaled to the speed at which the kernel takes
    :data:`NOMINAL_S`."""
    return wall * NOMINAL_S / reference_s
