"""Independent oracles and seeded samples for the identity suite in ``verify``.

The oracles count sections by enumerating monomials, with none of the
closed formulas of ``lattice``.  The samples are the surfaces and the
seeded coefficient vectors that the lattice checks pair and pull back.
"""

from __future__ import annotations

import functools
import random

from . import lattice
from .lattice import Hirzebruch, ProjectivePlane


@functools.cache
def enumerate_scroll_sections(e: int, a: int, b: int) -> int:
    """Count monomials t1^c1 t2^c2 x1^d1 x2^d2 of class a*D0 + b*F directly."""
    count = 0
    for d1 in range(0, a + 1):
        for c1 in range(0, b + 1):
            c2 = b - e * d1 - c1
            if c2 >= 0:
                count += 1
    return count


@functools.cache
def enumerate_plane_sections(d: int) -> int:
    count = 0
    for i in range(0, d + 1):
        for j in range(0, d - i + 1):
            count += 1
    return count


def sample_surfaces():
    plane = ProjectivePlane()
    return (
        plane,
        Hirzebruch(0),
        Hirzebruch(1),
        Hirzebruch(3),
        lattice.blow_up(Hirzebruch(2), 4),
        lattice.blow_up(plane, 3),
        lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 3),
    )


# Seeded samples, drawn once per process.  Each draw is keyed on the ranks
# that a run reads from the surfaces it builds, so a fault that changes a rank
# gets the stream its ranks call for.  Only these tuples of integers are
# shared: every divisor, pullback, sum and pairing still runs in the run.

def _draw_vector(rng: random.Random, rank: int) -> tuple[int, ...]:
    return tuple([rng.randint(-10, 10) for _ in range(rank)])


@functools.cache
def bilinearity_draws(ranks: tuple[int, ...]) -> tuple:
    """400 cases (u, v, w, m): three coefficient vectors on sample surface
    n % len(ranks), then a scalar, in the order they are drawn."""
    rng = random.Random(20260808)
    cases = []
    for n in range(400):
        rank = ranks[n % len(ranks)]
        cases.append((_draw_vector(rng, rank), _draw_vector(rng, rank),
                      _draw_vector(rng, rank), rng.randint(-6, 6)))
    return tuple(cases)


ISOMETRY_POINT_COUNTS = (1, 5, 17)


@functools.cache
def isometry_draws(ranks: tuple[int, ...]) -> tuple:
    """Per ruled surface, per point count, 30 pairs of coefficient vectors."""
    rng = random.Random(1729)
    return tuple(tuple(tuple((_draw_vector(rng, rank), _draw_vector(rng, rank))
                             for _ in range(30))
                       for _n in ISOMETRY_POINT_COUNTS)
                 for rank in ranks)
