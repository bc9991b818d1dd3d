"""The box's momentary speed, sampled inside the process under test.

The benchmark's host shares its cores with other machines: the same
campaign call, same inputs, takes anywhere from 6.5 to 11 s of CPU from one
minute to the next, and a pure-Python loop drifts the same way.  A campaign
call is CPU-bound end to end, so its times are reported in *reference
seconds*: the seconds it would have taken on the box running at its
reference speed.

:class:`SpeedProbe` measures that speed where and when the call runs.  A
``SIGALRM`` interval timer interrupts the main thread every
:data:`INTERVAL_S`; the handler runs :func:`probe_kernel` (fixed work: a
pure-Python loop and small numpy products, like the plant code's mix) and
takes its thread CPU time (not its wall time, which in a multi-threaded
server includes waiting for the GIL).  Over a campaign call that is some
80 probes, about 1.5% of its time, and their mean against
:data:`REFERENCE_PROBE_S` is the box's slowdown during the call::

    reference seconds = (measured seconds - probe seconds) / slowdown

The probe touches no state of the program (its own matrix, no global RNG),
so the call's outputs are unchanged, and it needs no hook in the program:
it samples whatever code is running.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between two probes.
INTERVAL_S = 0.1
#: What one probe takes at the reference speed (about its median on a
#: 2-core x86-64 VM with Python 3.11 and numpy 2.4).
REFERENCE_PROBE_S = 0.0013

_MATRIX = np.random.default_rng(0).standard_normal((20, 20))
_START = np.ones(20)


def probe_kernel() -> float:
    """Fixed work, about 1.3 ms at the reference speed."""
    total = 0
    for i in range(8000):
        total += i * i % 7
    vector = _START
    for _ in range(150):
        vector = _MATRIX @ vector
        vector = vector / (np.abs(vector).sum() + 1.0)
    return total + float(vector[0])


class SpeedProbe:
    """Samples the box's speed on a timer while it is started."""

    def __init__(self):
        self.probes = 0
        self.probe_s = 0.0
        self.probe_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late tick while a probe runs
            return
        self._busy = True
        try:
            cpu_started = time.thread_time()
            started = time.perf_counter()
            probe_kernel()
            self.probe_s += time.perf_counter() - started
            self.probe_cpu_s += time.thread_time() - cpu_started
            self.probes += 1
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def slowdown(self) -> float:
        """Mean probe CPU time over the reference one (> 1: slower)."""
        if not self.probes:
            raise RuntimeError("no probe ran; the call was shorter than a tick")
        return self.probe_cpu_s / self.probes / REFERENCE_PROBE_S

    def reference_seconds(self, seconds: float, probe_seconds: float) -> float:
        """``seconds`` measured over the probed interval, less the probes'
        own ``probe_seconds``, at the reference speed."""
        return (seconds - probe_seconds) / self.slowdown
