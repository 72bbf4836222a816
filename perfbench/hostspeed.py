"""A probe of how fast the shared host runs right now.

On a shared host (measured on a 2-vCPU KVM guest of a Xeon server),
CPU speed swings by up to 2x in phases of seconds to a minute as other
tenants load it, which no amount of repetition inside a 30-second run
averages away.  A :class:`HostSpeed` thread times a fixed pure-Python
kernel every :data:`PERIOD_S` while the journey runs in the same
process, pinned to the same CPU; the journey's wall time multiplied by
:meth:`HostSpeed.factor` is then its wall time on a host where the
kernel takes :data:`REFERENCE_S`.  On that host the kernel's mean
correlated 0.99 with the wall time of a repeated darwin search, and
scaling cut the search's coefficient of variation from 15% to 2.3%.

The kernel holds the interpreter lock for under a millisecond per
period, about 1.5% of the journey's time.  It shares the core's caches
with the journey, so a change that makes the journey thrash them also
slows the kernel a little and is partly scaled away; ``run.py`` keeps
the unscaled mean pass wall in its metadata line for that check.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.05
#: The kernel's time on a quiet host; scaled times are quoted against it.
REFERENCE_S = 0.00065


def kernel() -> int:
    """Small-dict churn: interpreter dispatch and cache-resident memory."""
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        table[(i * 2654435761) & 0xFFF] = i
        total += table.get((i * 7) & 0xFFF, 0)
    return total


def scale(seconds: list[float]) -> float:
    """``REFERENCE_S`` over the mean of kernel times ``seconds`` (1.0
    when there are none)."""
    return REFERENCE_S / statistics.fmean(seconds) if seconds else 1.0


class HostSpeed:
    """Times :func:`kernel` every :data:`PERIOD_S` on a daemon thread
    from :meth:`start` until :meth:`stop`."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, seconds)`` of each kernel run; the
        #: clock is system-wide, so other processes can place them.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            start = clock()
            kernel()
            self.samples.append((start, clock() - start))

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        """A position to pass to :meth:`factor` later."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """:func:`scale` of the kernel times since ``mark``."""
        return scale([seconds for _, seconds in self.samples[mark:]])
