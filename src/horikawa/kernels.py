"""The private kernels of ``lattice``: run lists, and the root surfaces' pairings and
section counts.

A divisor class keeps its coefficients on the exceptional classes as runs,
((value, length), ...) with adjacent values distinct, and its coefficients
on the root surface, (H) or (D0, F), as the head.  These functions walk run
lists and pair or count on heads in exact integer arithmetic.  ``lattice``
binds each of them as a module global, where ``DivisorClass`` and ``h0``
call them.
"""

from __future__ import annotations

import math


def _merge_runs(u: tuple, v: tuple, op) -> tuple:
    """Canonical runs of ``op`` applied position by position, in one walk of both lists."""
    merged, last, j, n = [], None, -1, 0
    for x, m in u:
        while m:
            if not n:  # the run of v is used up: take the next one
                j += 1
                y, n = v[j]
            step = m if m < n else n
            z = op(x, y)
            if z == last:
                merged[-1] = (z, merged[-1][1] + step)
            else:
                merged.append((z, step))
                last = z
            m -= step
            n -= step
    return tuple(merged)


def _split_runs(runs: tuple, k: int) -> tuple[tuple, tuple]:
    """The runs of the first ``k`` positions and of the rest, for ``k`` below the total."""
    for i, (value, length) in enumerate(runs):
        if k < length:
            lower = runs[:i] + (((value, k),) if k else ())
            return lower, ((value, length - k),) + runs[i + 1:]
        k -= length


def _hirzebruch_dot(e: int, u, v) -> int:
    # D0.D0 = -e, D0.F = F.D0 = 1, F.F = 0
    return -e * u[0] * v[0] + u[0] * v[1] + u[1] * v[0]


def _exceptional_dot(u, v) -> int:
    # E_i.E_i = -1, distinct exceptionals and pullbacks are orthogonal;
    # u and v are the runs of the two classes, walked side by side once
    if len(u) == 1 == len(v):
        total = u[0][0] * v[0][0] * u[0][1]
    else:
        total, j, y, n = 0, -1, 0, 0
        for x, m in u:
            while n < m:  # the run of v ends first: take the next one
                total += x * y * n
                m -= n
                j += 1
                y, n = v[j]
            total += x * y * m
            n -= m
    return -total


def _plane_sections(d: int) -> int:
    return math.comb(d + 2, 2) if d >= 0 else 0


def _hirzebruch_sections(e: int, a: int, b: int) -> int:
    if a < 0:
        return 0
    return sum([x for i in range(a + 1) if (x := b - i * e + 1) > 0])
