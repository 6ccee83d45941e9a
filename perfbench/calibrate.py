"""How fast the machine is right now, to scale CPU times by.

On a shared host the CPU time of a fixed piece of work drifts by tens
of percent within minutes, as other tenants load the same cores and
caches; a benchmark run of half a minute can land wholly in a fast or a
slow spell.  So the machine's speed is sampled around and during every
timed piece of work, by passes of a fixed pure-Python loop in the same
process where possible, and the work's CPU time is scaled by the mean
pass time: a result is given in reference seconds, in which one pass
counts ``REFERENCE_S``.  The loop uses no ``branetile`` code, so a
change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import signal
import statistics
import time
from fractions import Fraction

# CPU seconds of one pass on the reference machine in a quiet spell,
# rounded, so that there a reference second is about a CPU second.
REFERENCE_S = 0.01

# CPU seconds between passes while a piece of work runs: about 2% of the
# work's time goes to passes, and a 5-second op gets ten of them.
PERIOD_S = 0.5


def _loop():
    """Dict, tuple and Fraction work, the mix the program's ops do."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(1, 12000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        if i % 10 == 0:
            total += Fraction(i % 13 + 1, i % 11 + 1)
    return sorted(counts.items()), total


def calibrate() -> float:
    """CPU seconds of one pass of the loop in this process.  The cyclic
    garbage collector is off during the pass, since its cost grows with
    the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _loop()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def scale(cpu_s: float, passes: list) -> float:
    """``cpu_s`` in reference seconds, given the passes taken around
    and during the work."""
    return cpu_s * REFERENCE_S / statistics.fmean(passes)


@dataclasses.dataclass
class Reading:
    cpu_s: float = 0.0
    seconds: float = 0.0


class Sampler:
    """Times work in this process: one pass before it, one every
    ``PERIOD_S`` of CPU time while it runs (from the profiling timer's
    signal) and one after it.  The passes' own CPU time is not counted
    as the work's.  It starts with three passes, which scale the work
    done before it, such as set-up."""

    def __init__(self) -> None:
        self.passes = [calibrate() for _ in range(3)]
        self._spent = 0.0
        self._armed = False
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._armed:
            start = time.process_time()
            self.passes.append(calibrate())
            self._spent += time.process_time() - start

    @contextlib.contextmanager
    def measure(self):
        """Yields a Reading that is filled in when the block ends."""
        reading = Reading()
        first, spent = len(self.passes) - 1, self._spent
        start = time.process_time()
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._armed = False
            reading.cpu_s = time.process_time() - start - (self._spent - spent)
            self.passes.append(calibrate())
            reading.seconds = scale(reading.cpu_s, self.passes[first:])
