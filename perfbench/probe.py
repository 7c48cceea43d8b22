"""A speed probe that samples how fast this CPU runs while an op runs.

The host lends each vCPU a share of a core whose other tenants come and
go, so the same op can take a third longer from one minute to the next,
and a kernel timed before and after a several-second op misses what
happened during it.  The probe instead interrupts the op every
``INTERVAL_S`` seconds (SIGALRM) and times one pass of a fixed micro-kernel
in the signal handler: a short interpreted loop, small numpy sorts and
random reads from a 32 MiB table, the kinds of work lrplab ops do.  Python
runs the handler between bytecodes of the main thread, so the samples land
in the op's own interpreted stretches and between its numpy calls.

An op's net time is its wall time less the time spent in the handler.  Its
probe time is the harmonic mean of the kernel's durations (the kernel's
time at the op's mean speed), and net time divided by probe time is the
op's cost in kernel passes: a change in machine speed moves both and
cancels, a change in lrplab moves only the op (the kernel calls no lrplab
code).  The kernel's inputs are fixed, so it does the same work in every
run, whatever the seed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

_rng = np.random.default_rng(20211223)
_small = _rng.integers(0, 1 << 30, size=4096)
_table = _rng.integers(0, 100, size=1 << 23, dtype=np.int32)  # 32 MiB
_reads = _rng.integers(0, 1 << 23, size=4096)


def kernel() -> int:
    """One pass of the micro-kernel (about 0.5 ms); returns a checksum."""
    total = 0
    for i in range(1500):
        total += i * i
    for _ in range(3):
        total += int(np.sort(_small)[2048])
    return total + int(_table[_reads].sum())


class SpeedProbe:
    """Samples the kernel's duration every INTERVAL_S seconds inside a ``with`` block."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.in_block_s = sum(self.samples)  # to subtract from the block's wall time
        self._sample()  # so that a block too short for any sample still has one

    def probe_s(self) -> float:
        """Harmonic mean of the kernel's durations: its time at the block's mean speed."""
        return len(self.samples) / sum(1.0 / s for s in self.samples)
