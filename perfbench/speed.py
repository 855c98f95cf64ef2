"""How fast the machine runs right now, measured with a fixed piece of work.

Machines shared with other tenants change speed by up to about 1.6x, over
seconds to minutes.  On the 2-vCPU virtual machine this benchmark was built
on, the raw wall time of one workload moved by 21-27 % (quartile spread over ten
runs) while nothing in the program changed.  A timer signal therefore runs
`probe` every INTERVAL_S seconds while a call is timed; the call's wall time
is scaled by REFERENCE_S over the mean probe time, which tracks the machine's
speed during that very call (correlation about 0.95 with the call's time).
Reported times are seconds on a machine where the probe takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 2.5e-4
INTERVAL_S = 0.05

_VEC = np.arange(64.0)
_MAT = np.random.default_rng(0).standard_normal((30, 30))


def probe() -> float:
    """Seconds taken by the fixed work: small NumPy calls, a 30x30
    log-sum-exp and a pure Python loop, the kinds of work cryoguide does."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(40):
        acc += float(np.exp(-_VEC * (i * 0.01)).sum())
    for _ in range(6):
        m = _MAT.max(axis=1, keepdims=True)
        acc += float(np.log(np.exp(_MAT - m).sum(axis=1)).sum())
    k = 0
    for i in range(400):
        k += i * i % 7
    return time.perf_counter() - t


class Gauge:
    """Probe times collected while `sampling` is active."""

    def __init__(self):
        self.samples: list[float] = []

    @contextmanager
    def sampling(self):
        def handler(signum, frame):
            self.samples.append(probe())

        self.samples.append(probe())
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(probe())

    def scale(self) -> float:
        """Factor from wall seconds measured meanwhile to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
