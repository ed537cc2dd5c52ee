"""Host-speed calibration: timed intervals in reference seconds.

The benchmark runs on a few cores of a shared host whose speed per core
swings by up to 2x within seconds, because other tenants share the cores
(`reference_loop` takes from 1.8 to over 3.5 ms; process CPU time swings
as much as wall time, so it is not a way out).  Medians of raw wall time
over a run inherit the share of the run the host spent slow.

So every timed interval is measured against a fixed reference loop run
right before and after it: `HostClock` runs the loop every `INTERVAL_S`
seconds from a SIGALRM handler (and at its start and end), and converts
the raw time between two loop runs into reference seconds with the mean
speed of those two runs.  The loop runs themselves are left out of every
interval.  A reference second is the time the interval would take at the
speed at which the loop takes `REF_S`, its uncontended time on the 2-vCPU
Intel Xeon sandbox the benchmark was tuned on.  The loop lives here, not
in the program, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REF_ITERATIONS = 500
# Uncontended duration of reference_loop() on the tuning host.
REF_S = 0.0018
# Items last 0.05 to 1 s; stretches this short follow the host's swings
# within an item, and the loop runs cost 2 to 4% of the time.
INTERVAL_S = 0.1


def reference_loop() -> np.ndarray:
    """Masked updates of a tiny array through numpy ufuncs, the program's
    commonest operation (branch and walk steps on a few points).  Of the
    loops tried (numpy scalars, pure Python, large arrays, mixes), this one
    tracked the host's speed best for all four workloads."""
    a = np.linspace(0.0, 1.0, 6)
    mask = np.array([True, False, True, True, False, True])
    for _ in range(REF_ITERATIONS):
        image = np.mod(a + 0.3 * np.sin(2.0 * np.pi * a), 1.0)
        a[mask] = image[mask]
    return a


def reference_seconds(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Raw seconds between two loop runs, in reference seconds."""
    return raw_s * 2.0 * REF_S / (ref_before + ref_after)


class HostClock:
    """Context manager that samples host speed while it is active.

    `seconds(a, b)` gives the reference-second length of the interval
    [a, b] of `time.perf_counter()` readings taken inside the context.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._marking = False

    def mark(self) -> None:
        if self._marking:  # the alarm fired during a loop run
            return
        self._marking = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._marking = False

    def _on_alarm(self, signum, frame) -> None:
        self.mark()

    def __enter__(self) -> "HostClock":
        self.mark()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds in [a, b], loop runs excluded; a loop run must
        have started after b."""
        total = 0.0
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += reference_seconds(hi - lo, self.ends[k] - self.starts[k],
                                           self.ends[k + 1] - self.starts[k + 1])
            k += 1
        return total

    def raw_seconds(self, a: float, b: float) -> float:
        """Wall seconds in [a, b], loop runs excluded."""
        inside = sum(max(0.0, min(b, e) - max(a, s)) for s, e in zip(self.starts, self.ends))
        return (b - a) - inside
