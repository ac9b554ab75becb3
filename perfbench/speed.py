"""Machine-speed calibration for the timed region.

On a shared 2-core box the same pure-Python work runs up to twice as
slowly from one second to the next, and the share of slow time drifts
by 30% over tens of minutes, so raw wall times of identical code
disagree by more than any usable bound.  :class:`SpeedProbe` samples
the machine while a workload runs: every ``interval`` seconds a SIGALRM
handler measures the CPU time of a fixed piece of allocation-heavy
Python work.  The run then reports wall times scaled to the speed at
which that work takes :data:`NOMINAL_S`, the reference box's fast
state.  The probe costs about 1% of the timed region, the same in every
execution.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any, List

# Duration of one `_work()` call on the reference 2-core box (Intel Xeon,
# 2.1 GHz) in its fast state.
NOMINAL_S = 0.0025
INTERVAL_S = 0.25


def _work() -> Any:
    table = {}
    for i in range(10_000):
        table[i] = (i, str(i))
    return sorted(table.values(), key=lambda pair: pair[1])[0]


class SpeedProbe:
    """Context manager; :meth:`factor` multiplies a measured wall time
    into nominal-speed seconds."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self._interval = interval
        self.samples: List[float] = []

    def _sample(self, *_: Any) -> None:
        # A collection landing inside the sample would time the heap,
        # not the machine; the workload's own GC schedule is restored.
        # CPU time, not wall time: a sample that waits to be scheduled
        # measures contention, not machine speed.
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        _work()
        self.samples.append(time.thread_time() - start)
        if collecting:
            gc.enable()

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)

    def pause(self) -> None:
        """Stop sampling, e.g. while worker processes hold both cores and
        a sample would time contention, not the machine."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc: object) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """The mean relative speed over the samples, which are evenly
        spaced in wall time, so ``wall * factor`` is the time the same
        work takes at nominal speed.  The fastest and slowest tenth of
        the samples are dropped as interrupt noise."""
        if not self.samples:
            self._sample()
        speeds = sorted(NOMINAL_S / sample for sample in self.samples)
        cut = len(speeds) // 10
        return statistics.mean(speeds[cut:len(speeds) - cut])
