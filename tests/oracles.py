"""Independent oracles shared by the tests.

Each oracle recomputes a quantity by a different route than the library:
the intersection pairing from an explicitly assembled Gram matrix, and
section counts by brute enumeration of monomials.  They deliberately do
not import any library internals beyond the surface descriptions.
"""

from __future__ import annotations

from horikawa.lattice import BlowUp, Hirzebruch, ProjectivePlane


def gram_matrix(surface) -> list[list[int]]:
    """Full Gram matrix of the Picard basis, assembled from the pairing rules."""
    if isinstance(surface, ProjectivePlane):
        return [[1]]
    if isinstance(surface, Hirzebruch):
        return [[-surface.e, 1], [1, 0]]
    if isinstance(surface, BlowUp):
        base = gram_matrix(surface.base)
        rank = len(base) + surface.point_count
        matrix = [[0] * rank for _ in range(rank)]
        for i, row in enumerate(base):
            for j, value in enumerate(row):
                matrix[i][j] = value
        for i in range(len(base), rank):
            matrix[i][i] = -1
        return matrix
    raise TypeError(f"unsupported surface {surface!r}")


def gram_dot(surface, u, v) -> int:
    matrix = gram_matrix(surface)
    return sum(u[i] * matrix[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def canonical_vector(surface) -> list[int]:
    """K over the Picard basis: -3H, -2D0 - (e + 2)F, and +E_i for each blown-up point."""
    if isinstance(surface, ProjectivePlane):
        return [-3]
    if isinstance(surface, Hirzebruch):
        return [-2, -(surface.e + 2)]
    if isinstance(surface, BlowUp):
        return canonical_vector(surface.base) + [1] * surface.point_count
    raise TypeError(f"unsupported surface {surface!r}")


def count_scroll_monomials(e: int, a: int, b: int) -> int:
    """Monomials t1^c1 t2^c2 x1^d1 x2^d2 with d1 + d2 = a and e*d1 + c1 + c2 = b."""
    if a < 0 or b < 0:
        return 0
    count = 0
    for d1 in range(a + 1):
        for c1 in range(b + 1):
            c2 = b - e * d1 - c1
            if c2 >= 0:
                count += 1
    return count


def count_plane_monomials(d: int) -> int:
    """Monomials of degree d in three variables, enumerated directly."""
    if d < 0:
        return 0
    count = 0
    for i in range(d + 1):
        for j in range(d - i + 1):
            count += 1
    return count


def tower_section_count(surface, coeffs) -> tuple[int, bool]:
    """``(value, exact)`` of ``lattice.h0`` by recursion down a blow-up tower.

    ``coeffs`` is the dense vector over the Picard basis.  Each level is
    checked before the levels below it, so the top level's bad coefficients
    are the ones named; each level's -1 entries are simple points, taken off
    the count of the level below and clamped at zero, and they need the
    level's general position assumption.
    """
    if isinstance(surface, ProjectivePlane):
        return count_plane_monomials(coeffs[0]), True
    if isinstance(surface, Hirzebruch):
        return count_scroll_monomials(surface.e, *coeffs), True
    split = len(coeffs) - surface.point_count
    level = coeffs[split:]
    bad = sorted({c for c in level if c not in (0, -1)})
    if bad:
        raise ValueError(f"exceptional coefficients {bad} not supported: only simple "
                         "(multiplicity one) point conditions are modelled")
    value, exact = tower_section_count(surface.base, coeffs[:split])
    imposed = level.count(-1)
    if not imposed:
        return value, exact
    if not surface.general_position:
        raise ValueError("virtual section counts through blown-up points require the "
                         "general position assumption")
    return max(0, value - imposed), False
