"""Machine pace: scale op latencies to a reference speed of the host.

On a shared host the same op can take 30 % longer from one minute to the
next, and every timing moves with it.  After each op the harness times a
fixed pure-Python kernel for a share of the op's latency.  The kernel
does the kind of work the package does (frozen-dataclass validation of
integer tuples, tuple arithmetic, pairings, JSON encoding) but never
calls the package, so no change to the package alters its cost.  An op's
latency is scaled by ``REFERENCE_S`` over the mean of the kernel's median
times just before and just after the op.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

# median kernel time on the reference machine (2-core x86_64 VM, CPython 3.11.7)
REFERENCE_S = 1.0e-3
# kernel time spent after each op, as a share of the op's latency
SHARE = 0.15


@dataclass(frozen=True)
class _Vector:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not isinstance(c, int):
                raise ValueError(c)


def kernel() -> int:
    base = _Vector(tuple(range(-50, 50)))
    acc = 0
    for k in range(50):
        shifted = _Vector(tuple(a + k for a in base.coeffs))
        acc -= sum(x * y for x, y in zip(base.coeffs, shifted.coeffs))
        json.dumps({"k": k, "coeffs": list(shifted.coeffs[:30]), "acc": str(acc)})
    return acc


def sample(budget_s: float) -> float:
    """Median kernel time over at least one run and ``budget_s`` seconds."""
    times = []
    spent = 0.0
    while not times or spent < budget_s:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


class Pace:
    """Scales successive op latencies to the reference pace."""

    def __init__(self):
        self.last = sample(0.02)
        self.samples = [self.last]

    def scale(self, latency_s: float) -> float:
        before = self.last
        self.last = sample(SHARE * latency_s)
        self.samples.append(self.last)
        return latency_s * REFERENCE_S / ((before + self.last) / 2)
