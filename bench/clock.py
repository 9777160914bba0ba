"""Wall-time stopwatch that also tracks how fast the machine ran meanwhile.

On a shared machine the speed of one core swings by a quarter or more from
second to second.  While a ``Stopwatch`` is running, SIGALRM interrupts the
timed code every ``SAMPLE_INTERVAL_S`` and times a fixed reference kernel on
the same thread.  ``scaled_seconds`` is the wall time without those samples,
rescaled to the speed at which the kernel takes ``REFERENCE_S``.  The kernel
touches no state of the timed code, so its results are unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.02
REFERENCE_S = 2e-4
KERNEL_ITERS = 20

_A = np.random.default_rng(0).standard_normal((12, 12))
_A = _A @ _A.T
_V = np.ones(12)


def _kernel() -> None:
    """A fixed mix of interpreter work and small numpy calls."""
    total = 0.0
    for _ in range(KERNEL_ITERS):
        x = _A @ _V
        y = np.exp(-1e-3 * x) + x * x
        total += float(y.sum()) + sum(range(20))


class Stopwatch:
    """Context manager measuring ``seconds`` and ``scaled_seconds``.

    ``seconds`` is the wall time of the timed block minus the time spent in
    the samples themselves (about 1%).
    """

    def __init__(self):
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self._samples: list[float] = []
        self._sampling = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - start)
        self._sampling += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self._sampling
        self.scaled_seconds = self.seconds
        if self._samples:
            self.scaled_seconds *= REFERENCE_S / float(np.mean(self._samples))
        return False
