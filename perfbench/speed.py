"""A wall clock that corrects for the speed the machine gives this process.

On a shared machine the same work can take twice as long from one minute to
the next.  ``SpeedClock`` runs a small fixed calibration loop from a
``SIGALRM`` timer every ``INTERVAL`` seconds of wall time, in the main
thread (no extra thread or process), and keeps how long each one took.

* ``now()`` is ``perf_counter()`` minus the time spent in the calibration
  loops, so the loops never count towards a measured region.
* ``scaled(a, b)`` is the region's wall time multiplied by the mean of
  ``REFERENCE_S / sample`` over the calibration samples taken inside it:
  the time the region would have taken at the reference speed.  Regions too
  short to hold ``MIN_SAMPLES`` samples use the samples nearest to them.

The calibration loop is exact rational arithmetic with the standard
library's ``Fraction``, the kind of work errdiff does, written here so the
program under test cannot change it; an integer-only loop tracked the
machine's speed three to four times less closely.  ``REFERENCE_S`` is the
loop's median duration on the 2-CPU x86-64 VM with Python 3.11 where the
benchmark was built, so scaled seconds read as seconds on that machine at
its typical speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.02
MIN_SAMPLES = 8
REFERENCE_S = 0.00025


def calibrate() -> Fraction:
    total = Fraction(0)
    for i in range(1, 31):
        total += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
    return total


class SpeedClock:
    def __init__(self) -> None:
        self.hidden = 0.0
        self.stamps: list[float] = []  # now() at each sample
        self.ratios: list[float] = []  # REFERENCE_S / sample duration
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self.hidden

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        calibrate()
        took = time.perf_counter() - begin
        self.hidden += took
        self.stamps.append(begin - self.hidden + took)
        self.ratios.append(REFERENCE_S / took)
        self._busy = False

    def factor(self, a: float, b: float) -> float:
        """Mean speed ratio over [a, b], widened to the nearest samples if short."""
        lo = bisect.bisect_left(self.stamps, a)
        hi = bisect.bisect_right(self.stamps, b)
        if hi - lo < MIN_SAMPLES:
            if len(self.stamps) < MIN_SAMPLES:
                raise RuntimeError("too few calibration samples; is the clock started?")
            centre = bisect.bisect_left(self.stamps, (a + b) / 2)
            lo = max(0, min(centre - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.ratios[lo:hi]
        return sum(window) / len(window)

    def scaled(self, a: float, b: float) -> float:
        return (b - a) * self.factor(a, b)
