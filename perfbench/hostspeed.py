"""How fast this process runs Python from moment to moment.

On a shared VM the same work runs up to half again as long for seconds to
minutes at a time, in CPU time and wall time alike.  While a `HostSpeed` is
started, a SIGALRM handler times a fixed pure-Python loop every
`SAMPLE_EVERY_S` of wall time, also in the middle of an operation.
`scaled_s` turns an operation's wall time into seconds at the loop's nominal
speed, from the samples taken around it, so that a run on a slow stretch
reads about like one on a fast stretch.  The loop uses nothing from grouplab,
so a change to the program does not move it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.05
# samples this far before and after an operation also count for it, so that
# an operation shorter than SAMPLE_EVERY_S still has samples
WINDOW_S = 0.5
# the loop's time on the host the bounds were set on, in its fast stretches
NOMINAL_LOOP_S = 130e-6


def speed_loop() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


def loop_s() -> float:
    """Seconds of one run of `speed_loop`."""
    t0 = time.perf_counter()
    speed_loop()
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self.starts: list[float] = []
        self.loops: list[float] = []

    def _sample(self, signum, frame) -> None:
        self._samples.append((time.perf_counter(), loop_s()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        """Stop sampling; only then can `scaled_s` be asked."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples.sort()
        self.starts = [s for s, _ in self._samples]
        self.loops = [d for _, d in self._samples]

    def _between(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        return self.loops[lo:bisect.bisect_left(self.starts, t1)]

    def scaled_s(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds of [t0, t1) less the sampling inside it, the same
        at the loop's nominal speed)."""
        wall = t1 - t0 - sum(self._between(t0, t1))
        around = self._between(t0 - WINDOW_S, t1 + WINDOW_S)
        if not around:
            raise RuntimeError("no host-speed sample around an operation")
        return wall, wall * NOMINAL_LOOP_S / statistics.fmean(around)
