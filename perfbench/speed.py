"""The machine's speed, sampled all through a timed stretch of work.

This machine is a few vCPUs of a shared host, and the other tenants slow
it by up to half for seconds to minutes.  A fixed pure-Python loop slows
with it but not with the program, so the benchmark runs that loop every
INTERVAL_S, from a SIGALRM handler, while the program works, and reports
each time at the reference speed: scaled by REF_S over the mean time of
the loop's samples taken during it (and within WINDOW_S of it, so that a
short operation has samples too), less the slowest and the fastest
tenth.  Time spent in the handler is taken out of every measured time.

Python runs a signal handler between bytecodes of the main thread, so a
sample waits for a long C call to return; the program starts no threads
and no processes.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
WINDOW_S = 0.25
LOOP_N = 5000
# The loop's time at the reference speed: about its usual time on the
# 2-vCPU Xeon this benchmark was tuned on.  Any fixed value would do; it
# only has to stay the same between the runs that are compared.
REF_S = 6.25e-4


def _loop() -> float:
    s = 0.0
    for i in range(LOOP_N):
        s += (i * 0.5) ** 0.5
    return s


class Sampler:
    """Samples the loop inside its ``with`` block; inactive, it samples
    nothing and scales by 1 (the traced run, whose times stay unscaled).

    ``clock()`` gives wall and CPU time without the time spent sampling;
    ``scale(start, end)`` is the factor that takes a time measured between
    the wall clock readings ``start`` and ``end`` to the reference speed.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[tuple[float, float]] = []  # (wall clock, loop time)
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        _loop()
        w1 = time.perf_counter()
        self.samples.append((w0, w1 - w0))
        self.stolen_cpu += time.process_time() - c0
        self.stolen_wall += time.perf_counter() - w0

    def clock(self) -> tuple[float, float]:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return (time.perf_counter() - self.stolen_wall,
                    time.process_time() - self.stolen_cpu)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scale(self, start: float, end: float) -> float:
        if not self.active:
            return 1.0
        near = sorted(d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S)
        cut = len(near) // 10  # a sample that an interrupt or a page fault hit
        kept = near[cut:len(near) - cut]
        return REF_S * len(kept) / sum(kept)

    def _burst(self) -> None:
        """Samples next to the start and the end of the stretch."""
        for _ in range(5):
            self._sample()

    def __enter__(self) -> "Sampler":
        if not self.active:
            return self
        self._burst()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # ignored rather than default: a signal still on its way must not
        # end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._burst()
