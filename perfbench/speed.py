"""Speed-corrected timing for a shared host.

On a 2-vCPU KVM guest (Intel Xeon) on a shared host, the speed of the CPU
changes by up to 40% within seconds, as other tenants load the host; the
process is never descheduled (CPU time equals wall time, steal time stays
near 1%), every instruction just runs slower.  Medians of raw pass times then
spread 3-28% between 20-30 s windows.

``Sampler`` times a fixed reference (a 2 x 2 SVD, an interpreter loop and a
4000-element vector expression, the mix the workloads run) every
``INTERVAL_S`` during a timed interval, from a SIGALRM handler in the timed
thread itself, and once just before and after it.  The interval's corrected
duration is

    (wall - time spent in the handler) * REFERENCE_S / p25(reference time)

that is, seconds at the speed where the reference takes ``REFERENCE_S``.
The lower quartile passes over reference runs that an interrupt slowed.
Within one process the corrected medians of 30 s windows spread 1-4% where
the raw ones spread 3-24%; between runs minutes apart they still spread
5-11%, as the host's load changes in kind as well as in amount.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
REFERENCE_S = 3.0e-4  # the reference's duration in the host's fast regime

_M = np.array([[1.0, 2.0j], [0.5, 1.5]])
_V = np.linspace(0.0, 1.0, 4000) * (1.0 + 1.0j)


def _reference_body():
    acc = 0.0
    for _ in range(8):
        acc += float(np.linalg.svd(_M, compute_uv=False)[0]) + sum(k * k for k in range(40))
        acc += float(np.sum(np.abs(_V * _V.conj() + _V) ** 2))
    return acc


def reference() -> float:
    """Seconds of one run of the reference, on warm caches.

    Run cold, right after the workload, the reference is slower the more
    memory the workload touched (twice as slow inside ``mc-curve``), which
    would make the correction depend on the code being measured.  So it runs
    once to warm up, and the second run is timed.
    """
    _reference_body()
    t0 = time.perf_counter()
    _reference_body()
    return time.perf_counter() - t0


class Sampler:
    """Context manager that times the body and samples machine speed during it."""

    def __init__(self, on_sample=None):
        self.samples: list[float] = []
        self.wall = 0.0
        self._spent = 0.0
        self._on_sample = on_sample

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference())
        spent = time.perf_counter() - t0
        self._spent += spent
        if self._on_sample is not None:
            self._on_sample(spent)

    def __enter__(self):
        self.samples = [reference()]
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._t0 - self._spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference())
        return False

    @property
    def corrected(self) -> float:
        return correct(self.wall, self.samples)


def correct(wall, samples):
    """``wall`` scaled to the speed where the reference takes REFERENCE_S."""
    return wall * REFERENCE_S / statistics.quantiles(samples, n=4)[0]
