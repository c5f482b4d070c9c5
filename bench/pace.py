"""How fast the machine runs Python right now, sampled while a pass works.

Other tenants of a shared host slow every process on it down, by up to 2x
for stretches of seconds to minutes; CPU time slows with wall time, so
neither can tell the program's own cost from the host's load.  A daemon
thread therefore times a fixed pure-Python kernel every ``PERIOD_S`` while
the main thread works.  A sample's time (a running median over its
neighbours) over ``REFERENCE_KERNEL_S`` is the host's slowdown from its
start until the next sample.  A phase's time at
reference speed adds up each such stretch divided by its slowdown: the time
the same work takes on the same machine when the kernel runs in
``REFERENCE_KERNEL_S``, about its speed on a quiet host.

The kernel holds the interpreter lock for its whole sample (well under the
5 ms switch interval), so it measures the interpreter's speed, not how
the lock is shared.  It costs the main thread 2-4% of its time, the
same in every pass.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.005
# The kernel's time on a quiet host (2-core Xeon VM, Python 3.11).  Only a
# scale: every wall time is divided by the same slowdown.
REFERENCE_KERNEL_S = 150e-6
# Samples per running median: a sample every 5 ms gives a 25 ms window.
SMOOTHING = 5


def kernel() -> int:
    """Tuple, dict and int work, like the library's inner loops."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(500):
        t = (i, i * 7 % 13)
        d[t[1]] = d.get(t[1], 0) + t[0]
        acc ^= hash(t)
    return acc


class SpeedProbe:
    """Kernel samples, each ``(start, seconds)``, taken until ``stop``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while True:
            t0 = clock()
            kernel()
            self.samples.append((t0, clock() - t0))
            if self._halt.wait(self.period):
                return

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._halt.set()
        self._thread.join()


def smoothed(samples, width: int = SMOOTHING) -> list[tuple[float, float]]:
    """Samples in time order, each time replaced by the median of the
    ``width`` samples centred on it, so that one preempted sample does not
    stand for its whole stretch."""
    ordered = sorted(samples)
    h = width // 2
    return [(start, statistics.median(s for _, s in ordered[max(0, i - h):i + h + 1]))
            for i, (start, _) in enumerate(ordered)]


def reference_seconds(samples, t0: float, t1: float) -> float:
    """The span [t0, t1] at reference speed.

    Each (smoothed) sample's slowdown holds from its start to the next
    sample's; the first sample in the span also covers the stretch before
    it.  The last sample before the span stands in when none started inside
    it."""
    ordered = smoothed(samples)
    inside = [(start, s) for start, s in ordered if t0 <= start <= t1]
    if not inside:
        inside = [(t0, ([x for x in ordered if x[0] < t0] or ordered)[-1][1])]
    edges = [t0] + [start for start, _ in inside[1:]] + [t1]
    return sum((b - a) * REFERENCE_KERNEL_S / s for (a, b), (_, s) in zip(zip(edges, edges[1:]), inside))


def slowdown(samples, t0: float, t1: float) -> float:
    """The span's wall time over its time at reference speed."""
    return (t1 - t0) / reference_seconds(samples, t0, t1)
