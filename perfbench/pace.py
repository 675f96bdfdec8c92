"""A clock that runs at a fixed reference speed of the host.

The benchmark's host is a shared virtual machine whose CPU speed switches,
for seconds or minutes at a time, between states about 1.6 times apart,
independently on each vCPU.  Wall times of the same work then spread too
widely for run-to-run comparison.  ``Pace`` measures that speed inside the
measured process, on its own vCPU and at the same moments: every
``TICK_S`` a SIGALRM handler times a fixed pure-Python task (``_probe``).
The probe does the package's kind of work (a recursive generator building
tuples into a dict); among the probes tried it followed the host's speed
best, where a plain integer loop left twice the spread.
Each interval since the previous tick is counted at ``REF_S`` over the
probe's time, so an interval spent at half speed counts half.  ``now()``
is the time so counted since ``start()``: the time the process would have
taken had the host run at the speed at which the probe takes ``REF_S``.

The probe costs about 1% of the process's time, the same for every
program, and uses nothing of the package.  Work that the signal handler
cannot interrupt (one long call into C) is counted at the speed of the
next tick.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.01
# The probe's time inside a busy benchmark process on the host the README's
# numbers come from, in its fast state: paced times read as wall times would
# at that speed.
REF_S = 70e-6


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _probe() -> float:
    t0 = time.perf_counter()
    seen = {}
    for parts in _partitions(9, 9):
        seen[parts] = len(parts)
    return time.perf_counter() - t0


class Pace:
    def __init__(self) -> None:
        self.started = 0.0  # time.monotonic() at start()
        self._last = 0.0
        self._paced = 0.0
        self._rate = 1.0  # REF_S over the latest probe time
        self.ticks = 0

    def start(self) -> None:
        self.started = self._last = time.monotonic()
        self._rate = REF_S / _probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame) -> None:
        now = time.monotonic()
        self._paced += (now - self._last) * self._rate
        self._last = now
        self._rate = REF_S / _probe()
        self.ticks += 1

    def now(self) -> float:
        """Paced seconds since ``start()``."""
        while True:  # read again if a tick came in between
            ticks = self.ticks
            value = self._paced + (time.monotonic() - self._last) * self._rate
            if ticks == self.ticks:
                return value

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
