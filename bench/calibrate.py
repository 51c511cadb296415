"""A fixed kernel, timed between iterations, that tells how fast the machine
runs at the moment.

On a shared host the same code runs 15-30% faster or slower from one
minute to the next, and every part of the program moves with it: in ten
55-second runs of ``train_1x`` the run medians ranged 2.5-3.4 s. The kernel
is the pair-loss arithmetic of training (a similarity matrix from unit
rows, then the masked cross-entropy and its gradient, on a 432 x 432
matrix) plus a short interpreter loop. Timed twice after every iteration,
its median over a run follows that drift: in two sets of ten seeds,
``train_1x`` run time spread 0.161 and 0.101 as measured and 0.080 and
0.083 scaled by it. It cannot follow the
drift inside a single 40-second ``train_4x`` iteration, where samples
before and after the iteration made the spread worse, so only workloads
with short iterations are scaled (``Workload.calibrated``).

It is the benchmark's own code and never calls the program, so a change to
the program cannot speed up or slow down the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU machine the benchmark was written on;
# a calibrated run_s is run time at that speed
REFERENCE_S = 0.115
ROWS, DIM, REPEATS, LOOP = 432, 64, 20, 20000


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((ROWS, DIM))
        self.x = x / np.linalg.norm(x, axis=1, keepdims=True)
        self.mask = rng.random((ROWS, ROWS)) < 0.2
        # work arrays made once, so that the kernel allocates nothing and its
        # time does not depend on the allocator's state in this process
        self.work = [np.empty((ROWS, ROWS)) for _ in range(3)]
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        s, a, b = self.work
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(REPEATS):
                np.matmul(self.x, self.x.T, out=s)
                s += 1.0
                s *= 0.5
                np.clip(s, 1e-6, 1.0 - 1e-6, out=s)
                np.divide(-1.0, s, out=a)
                np.subtract(1.0, s, out=b)
                np.divide(1.0, b, out=b)
                np.copyto(b, a, where=self.mask)
                np.log(s, out=a)
                np.subtract(1.0, s, out=b)
                np.log(b, out=b)
                np.copyto(b, a, where=self.mask)
                float(b.sum())
            total = 0.0
            for i in range(LOOP):
                total += (i % 7) * 0.5
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference
        speed: above 1 when the machine ran fast, below 1 when slow."""
        return REFERENCE_S / statistics.median(self.samples)
