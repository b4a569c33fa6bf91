"""The machine's momentary speed, sampled while the benchmark runs.

A shared machine changes speed by tens of percent within seconds as
other tenants load it, and such a swing can move a whole run.  While a
:class:`SpeedProbe` is active, ``SIGALRM`` fires every ``PERIOD_S`` of
wall time and its handler runs :func:`calibration`, a fixed piece of
pure-Python work, recording when it started and how long it took.  For
any interval of the run the probe then gives:

* ``hidden(a, b)``: the probe's own time inside the interval, which the
  interval's time excludes;
* ``scale(a, b)``: ``REF_S`` over the mean calibration time inside the
  interval (the samples just before and after it when it holds none) --
  the factor that turns the interval's time into time at the reference
  speed, the speed at which the calibration takes ``REF_S``.

A change to ``repro`` cannot move the calibration, so it moves scaled
times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any, Dict, List

#: Sampling period, and the calibration's iterations: about 2.5% of the
#: run goes to the probe.
PERIOD_S = 0.01
ITERATIONS = 1500
#: The calibration's time on the development machine (a 2-vCPU x86_64
#: VM, Python 3.11) at its full speed; scaled times are at that speed.
REF_S = 2.5e-4


def calibration() -> None:
    """List and dict indexing, int and float arithmetic, like the
    interpreted programs."""
    table = [0.0] * 256
    index = dict.fromkeys(range(256), 0)
    total = 0.0
    for i in range(ITERATIONS):
        j = i & 255
        table[j] = i * 0.5
        index[j] = i
        total += table[(i * 7) & 255] + index[(i * 3) & 255]


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples the speed inside the
    block; query it after the block ends.  Times are
    ``time.perf_counter()`` seconds."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self._prefix: List[float] = [0.0]
        self._busy = False
        self._previous: Any = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for seconds in self.seconds:
            self._prefix.append(self._prefix[-1] + seconds)

    def _sample(self, signum, frame) -> None:
        # A signal that lands while a slow sample runs is dropped, not
        # nested inside it.
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        calibration()
        self.seconds.append(time.perf_counter() - begin)
        self.starts.append(begin)
        self._busy = False

    def _inside(self, a: float, b: float):
        return bisect.bisect_left(self.starts, a), \
            bisect.bisect_left(self.starts, b)

    def hidden(self, a: float, b: float) -> float:
        lo, hi = self._inside(a, b)
        return self._prefix[hi] - self._prefix[lo]

    def scale(self, a: float, b: float) -> float:
        lo, hi = self._inside(a, b)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.seconds))
        return REF_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])

    def summary(self) -> Dict[str, Any]:
        return {"period_s": PERIOD_S, "ref_s": REF_S,
                "samples": len(self.seconds),
                "median_s": statistics.median(self.seconds)
                if self.seconds else 0.0}
