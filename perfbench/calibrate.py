"""Machine-speed kernels: fixed work that does not touch splitsim.

On a shared cloud VM, such as the 2-vCPU Xeon VM of the baseline, speed
drifts by up to 2x over tens of seconds (other tenants share its cores),
and CPU time drifts with wall time. So a repeat times a kernel before its
timed call, after every epoch (untraced repeats only) and after the call,
and scales its times by ``reference_s / median(kernel times)``: seconds at
the reference speed. Each kernel mimics a workload's bottleneck: a
pure-Python loop for per-call interpreter overhead, a matmul and Adam-like
elementwise passes over arrays larger than L2 for BLAS and memory
bandwidth. Of the kernels tried (also tiny numpy ops and 2-D histograms),
the pure-Python loop tracked small-sglr and protocol-sweep best.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


class Interpreter:
    """Pure-Python bookkeeping: small dicts, tuples and list appends."""

    # Low-percentile time on the baseline's 2-vCPU Xeon VM (OpenBLAS 0.3.31,
    # one thread), i.e. in its fast state; the same holds for Bandwidth.
    reference_s = 0.0011

    def __call__(self) -> None:
        rows = []
        for i in range(3000):
            entry = {"direction": "up", "kind": "smashed", "client": i % 100, "nbytes": i * 8}
            rows.append((entry["kind"], entry["nbytes"]))
        sum(n for _, n in rows)


class Bandwidth:
    """Allocates its arrays on each call, so that between calls it holds no
    memory that would count in the repeat's peak RSS."""

    reference_s = 0.063

    def __call__(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 784))
        w = rng.standard_normal((128, 784))
        p = rng.standard_normal(200_000)
        g = rng.standard_normal(200_000)
        for _ in range(8):
            float((x @ w.T).sum())
            m = 0.9 * p + 0.1 * g
            v = 0.999 * p * p + 0.001 * g * g
            float((p - 1e-3 * m / (np.sqrt(v) + 1e-8)).sum())


KERNELS = {"interpreter": Interpreter, "bandwidth": Bandwidth}


class SpeedGauge:
    """Times one kernel on demand and turns the samples into a speed factor."""

    def __init__(self, kernel: str):
        self.kernel = KERNELS[kernel]()
        self.kernel()  # warm-up: a fresh process runs its first call slower
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.times.append(perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed seconds."""
        return self.kernel.reference_s / statistics.median(self.times)
