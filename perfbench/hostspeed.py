"""Host speed, sampled through a run by timing a fixed reference kernel.

On a shared host the same work can take twice as long in one stretch of a
few seconds as in the next: on a 2-vCPU Xeon VM, twenty `label_sweep` items
took 35 ms in one stretch and 70 ms in the next, and a pure-Python kernel
timed between them moved with them (correlation 0.98 over 0.7 s windows).
A run's wall times then say as much about the host as about the program.
`Sampler` times `reference_kernel` every INTERVAL_S (a SIGALRM timer) while
a run measures, and `scaled` turns a wall interval into milliseconds at the
reference speed, the speed at which the kernel takes REF_MS:

    scaled = (wall - kernel time inside it) * REF_MS / (kernel time around it)

The kernel is benchmark code, not solvstate code, so a faster program shows
as a smaller scaled time while a faster host does not.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05   # one kernel sample per 50 ms of run time
AROUND_S = 0.5      # samples this far either side of an interval also count
REF_MS = 1.0        # the reference speed: the kernel takes this long
TRIM = 0.1          # share of samples dropped at each end of a window


def reference_kernel():
    """Fixed work like the program's per-level loops: Python float and
    complex arithmetic over lgamma, a dict and a sort, then small numpy
    arrays. It is varied so that no one code path sets its speed, stays in
    cache, and calls neither BLAS, whose threads would busy the other core,
    nor large allocations, whose page faults would time the operating system
    rather than the processor."""
    s = 0.0
    for i in range(1, 500):
        s += math.lgamma(0.5 * i + 1.0) - math.log(i)
    z = 0j
    for i in range(300):
        z = z * 0.99 + cmath.exp(0.01j * i)
    d = {}
    for i in range(300):
        d[i % 37] = d.get(i % 37, 0) + i
    xs = sorted((i * 7919) % 1009 for i in range(300))
    a = np.arange(48.0)
    for _ in range(30):
        a = np.exp(-1e-3 * a) + np.abs(a)
    c = np.exp(1j * a)
    for _ in range(10):
        c = c * np.conj(c[::-1]) / (np.abs(c) + 1.0)
    return s + z.real + d[3] + xs[5] + float(a[0]) + float(c[0].real)


DENSE_N = 1025         # the displacement oracle's largest ladder, N = 1024
DENSE_PRODUCTS = 2


def dense_matrix():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((DENSE_N, DENSE_N)) / DENSE_N).astype(complex)


def dense_products(matrix):
    """Products of a DENSE_N x DENSE_N complex matrix with a vector, as the
    Taylor displacement oracle makes them: 16 MiB streamed per product, by
    BLAS with its default threads. Work that waits on memory and on the
    second core slows in ways the pure-Python kernel does not see."""
    v = np.ones(DENSE_N, dtype=complex)
    for _ in range(DENSE_PRODUCTS):
        v = matrix @ v
    return abs(v[0])


class Sampler:
    """Times the reference kernel every INTERVAL_S between `start` and `stop`.

    The kernel runs inside a SIGALRM handler, so Python code in the main
    thread pauses for it; the timer is not inherited by child processes.
    `dense` adds DENSE_PRODUCTS to the kernel (see `dense_products`).
    """

    def __init__(self, dense=False):
        self.matrix = dense_matrix() if dense else None
        self.starts, self.ends = [], []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        if self.matrix is not None:
            dense_products(self.matrix)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        for _ in range(5):
            self._tick(None, None)   # warm numpy's dispatch and the matrix
        self.starts.clear()
        self.ends.clear()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def inside(self, t0, t1):
        """Seconds of kernel samples inside [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - max(s, t0)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def kernel_s(self, t0, t1):
        """Trimmed mean kernel time of the samples that start within
        AROUND_S of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - AROUND_S)
        hi = bisect.bisect_right(self.starts, t1 + AROUND_S)
        d = sorted(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        if not d:
            raise RuntimeError(f"no reference sample within {AROUND_S} s of a timing")
        k = int(TRIM * len(d))
        return statistics.fmean(d[k:len(d) - k])

    def scaled(self, t0, t1):
        """Milliseconds at the reference speed for work that ran in this
        thread over the wall interval [t0, t1], pausing while the kernel ran."""
        wall = t1 - t0 - self.inside(t0, t1)
        return wall * REF_MS / self.kernel_s(t0, t1)

    def median_kernel_ms(self):
        return 1e3 * statistics.median(e - s for s, e in zip(self.starts, self.ends))
