"""Host pace: pick the fastest vCPU, and measure how fast it is.

The benchmark's host runs the same code at speeds that drift a lot.
Measured with the fixed loop :func:`probe`: each vCPU alternates,
independently and every second or so, between ~7.0 ms and ~9.5-10.5 ms
per 100,000 iterations, and for minutes at a time the whole host runs
1.5-2x slower.  There is no steal time, so CPU time drifts exactly as
wall time does, and fresh-process runs of one workload spread 20-40%.

:class:`Pinner` is called before each round (and before each probe of
a search).  It times :func:`probe` on every vCPU this process may use,
pins the process to the fastest, and records that time as the host's
pace at that moment.  The benchmark divides each round's host time by
the pace measured around it (see ``run.py``), which cancels the spells
that slow the probe and the simulator alike; the probe is the
benchmark's own fixed code, so a change to the simulator still moves
the reported time in full.  Only this process's own CPU affinity
changes, and leaving the context restores it.
"""

from __future__ import annotations

import os
import time

#: :func:`probe` time on the reference host in its fast mode (2.1 GHz
#: Xeon KVM guest, Python 3.11.7); reported times are scaled to it.
REFERENCE_S = 0.0014


def probe() -> float:
    """Seconds for a fixed loop of integer arithmetic (~1.4 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - started


def _fastest_probe() -> float:
    return min(probe() for _ in range(3))


class Pinner:
    """Pins to the fastest allowed vCPU on each call; records its pace."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._affinity = hasattr(os, "sched_setaffinity")
        self._allowed = sorted(os.sched_getaffinity(0)) if self._affinity else []

    def __call__(self) -> None:
        if not self._affinity:
            self.samples.append(_fastest_probe())
            return
        timed = []
        for cpu in self._allowed:
            os.sched_setaffinity(0, {cpu})
            timed.append((_fastest_probe(), cpu))
        seconds, cpu = min(timed)
        os.sched_setaffinity(0, {cpu})
        self.samples.append(seconds)

    def __enter__(self) -> "Pinner":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._affinity:
            os.sched_setaffinity(0, self._allowed)
