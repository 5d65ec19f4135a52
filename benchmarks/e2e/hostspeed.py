"""How fast the host is running right now, from a reference kernel.

The sizing host is a 2-vCPU guest on a shared machine.  For seconds to
minutes at a time it runs *everything* 1.3-1.8x slower (a busy neighbour
on the same core), and inside such a phase hardly any interval runs at
full speed, so neither the best nor the median of repeated readings of a
timing stays within a useful bound.  What does stay put is the ratio of
the program's time to the time of a fixed piece of interpreter work done
at the same moment: over 188 identical passes of ``sim_paper`` the raw
pass time had a quartile spread of 28 % of its median, the corrected one
2 %.

So the harness interleaves a ~70 us *reference kernel* with the workload
(a reading every ``REF_GAP_S`` of host time, at the probe's ticks,
outside every timed interval), takes the local *slowdown* as the median
of the ``REF_WINDOW`` samples around an interval over ``REF_NOMINAL_S``,
and divides the interval by it.  End-to-end timings are therefore
**seconds at reference speed** -- the speed at which the kernel takes
``REF_NOMINAL_S``, which is this host in a calm minute.  On that host,
calm, they are plain seconds; elsewhere they are seconds scaled by one
constant, which is all a comparison of two commits on one host needs.

The kernel is pure interpreter work: it tracks contention for the core,
not for memory or for other cores.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List, Sequence

import numpy as np

#: The reference kernel's duration on the sizing host in a calm minute.
REF_NOMINAL_S = 68e-6
#: Host seconds between reference readings (~2.5 % of a pass goes to them).
REF_GAP_S = 0.015
#: Samples per reading, after one unrecorded run: the work before it,
#: a 300 ms vectorised window say, leaves the caches cold.
REF_BURST = 3
#: Nearest samples whose median is the local reading.
REF_WINDOW = 15


def reference_kernel() -> float:
    """A fixed piece of interpreter work shaped like the simulator's:
    float arithmetic, a heap, a dict.  Returns the seconds it took."""
    start = perf_counter()
    heap: list = []
    seen = {}
    x = 0.5
    for i in range(150):
        x = (x * 1.000001 + 0.1) % 7.0
        heapq.heappush(heap, (x, i))
        seen[i] = x
    while heap:
        _, i = heapq.heappop(heap)
        x += seen[i]
    return perf_counter() - start


def slowdown_now(samples: int = 25) -> float:
    """The host's slowdown at this moment (set-up uses it: one reading)."""
    for _ in range(5):  # warm the kernel's own code and caches
        reference_kernel()
    return float(np.median([reference_kernel() for _ in range(samples)])) / REF_NOMINAL_S


def local_slowdown(
    positions: Sequence[int], seconds: Sequence[float], count: int
) -> np.ndarray:
    """Slowdown of each of ``count`` consecutive intervals, given reference
    samples taken at tick ``positions[j]`` (the end of interval
    ``positions[j] - 1``) that took ``seconds[j]``: the median of the
    ``REF_WINDOW`` samples around the first one at or after the
    interval's end.  All ones when there are no samples."""
    if not len(seconds):
        return np.ones(count)
    taken = np.asarray(seconds)
    half = REF_WINDOW // 2
    smooth = np.array(
        [np.median(taken[max(0, j - half) : j + half + 1]) for j in range(len(taken))]
    )
    nearest = np.searchsorted(np.asarray(positions), np.arange(count) + 1)
    return smooth[nearest.clip(0, len(taken) - 1)] / REF_NOMINAL_S


__all__: List[str] = [
    "REF_NOMINAL_S",
    "REF_GAP_S",
    "REF_BURST",
    "REF_WINDOW",
    "reference_kernel",
    "slowdown_now",
    "local_slowdown",
]
