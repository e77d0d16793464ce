"""Host speed probe: scales measured times to a reference host speed.

On a shared virtual machine the speed of a core changes by up to 2x from
minute to minute, with whatever else runs on the host. That swing is wider
than any bound a benchmark could keep. :func:`probe` times a fixed mix of
interpreter work with a working set larger than the core's caches: object
allocation, dict lookups at scattered keys, a heap of tuples. The mix uses
nothing from the program, so no change to the program can move it. A
measured time ``t`` taken between probes ``p0`` and ``p1`` is reported as
``t * REFERENCE_S / mean(p0, p1)``: seconds at the speed the host had when
``REFERENCE_S`` was measured.

On the 2-core host the baseline was recorded on, the interquartile spread
of ``isx-flat``'s wall-time medians over ten seeds was 13.5% unscaled, and
5% to 13% scaled, in four sets of ten.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Median :func:`probe` time on the host the baseline was recorded on.
REFERENCE_S = 0.1

_OBJECTS = 1 << 16
_STEPS = 40_000


class _Item:
    __slots__ = ("when", "n")

    def __init__(self, when: float, n: int):
        self.when = when
        self.n = n


def probe() -> float:
    """Seconds this host takes for the fixed mix right now. The garbage
    collector is paused, so the time does not depend on what else the
    process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _mix()
    finally:
        if enabled:
            gc.enable()


def _mix() -> float:
    t0 = time.perf_counter()
    mask = _OBJECTS - 1
    table = {i: _Item(float((i * 7919) & mask), i) for i in range(_OBJECTS)}
    heap: list = []
    recent: list = []
    for j in range(_STEPS):
        item = table[(j * 40503) & mask]
        heapq.heappush(heap, (item.when, j, item))
        if len(heap) > 2048:
            heapq.heappop(heap)
        recent.append((j, item, [j]))
        if len(recent) > 4096:
            recent.clear()
    del table, heap, recent
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference host speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
