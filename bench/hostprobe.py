"""Host-speed probe: a fixed numpy kernel that does not use toric_quant.

The benchmark runs on a shared virtual machine whose speed switches between
a fast and a slow state many times a second; the share of slow time drifts
from one minute to the next, so raw run times of the same code differ by
20-40% between runs a few minutes apart.  The probe tracks that drift.
Before every timed op the benchmark times the kernel a few times.  An op's
latency integrates the host's slowness over its duration, so the matching
statistic is the probe's mean time over the run; the slowest tenth of the
samples is dropped first, because a 0.1 ms sample that an interrupt lands
in reads several times too long.  A run's host factor is that mean over
REFERENCE_S, and the reported timings are the measured ones divided by it.

REFERENCE_S is the kernel's time in the fast state on the machine the
benchmark was tuned on (2 KVM vCPUs of a Xeon with AVX-512), so there the
reported timings read as seconds at the fast host speed.  The kernel is one
elementwise pass over an array that fits in the core's private cache, run
once untimed to load the cache, so its time follows the host's speed rather
than the cache state the preceding op left behind.  Nothing a change to
toric_quant does can move it, so dividing by the factor removes host drift
without hiding a change in the program's own time.  The raw times and the
factor are kept in the run's info record.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1.0e-4
SAMPLES_PER_CALL = 5
TRIM = 0.1  # share of the slowest samples left out of the mean

_DATA = np.random.default_rng(0).random(60_000)  # 480 kB


def _kernel() -> float:
    return float(np.exp(-_DATA * _DATA).sum())


class Probe:
    """Times the kernel SAMPLES_PER_CALL times per call; keeps every sample."""

    def __init__(self):
        self.samples = []

    def __call__(self):
        _kernel()
        for _ in range(SAMPLES_PER_CALL):
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Trimmed mean sample time over REFERENCE_S."""
        xs = sorted(self.samples)
        xs = xs[:len(xs) - int(TRIM * len(xs))]
        return sum(xs) / len(xs) / REFERENCE_S
