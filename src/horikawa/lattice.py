"""Exact Picard lattice arithmetic for rational surfaces.

The supported ambient surfaces are the projective plane, the Hirzebruch
surfaces and iterated blow-ups of these at anonymous points.  A divisor
class is an integer coefficient vector over the surface's Picard basis,
and every pairing or section count below is computed in exact integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SurfaceMismatchError(ValueError):
    """An operation mixed divisor classes living on different surfaces."""


class SurfaceModel:
    """Shared behaviour of the supported symbolic surface descriptions."""

    def divisor(self, coeffs) -> "DivisorClass":
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * picard_rank(self))


@dataclass(frozen=True)
class ProjectivePlane(SurfaceModel):
    """The projective plane with Picard basis (H)."""


@dataclass(frozen=True)
class Hirzebruch(SurfaceModel):
    """The ruled surface with a section of self-intersection -e.

    Picard basis (D0, F) where D0 is the negative section and F a fiber,
    so D0.D0 = -e, D0.F = 1 and F.F = 0.
    """

    e: int

    def __post_init__(self):
        if type(self.e) is not int or self.e < 0:
            raise ValueError("Hirzebruch parameter e must be a nonnegative integer")

    def negative_section(self) -> "DivisorClass":
        return self.divisor((1, 0))

    def fiber(self) -> "DivisorClass":
        return self.divisor((0, 1))


@dataclass(frozen=True)
class BlowUp(SurfaceModel):
    """Blow-up of a base surface at anonymous points.

    The points have no coordinates; ``general_position`` is a declared
    assumption about them and only gates the virtual section counts.
    The Picard basis extends the base basis by one exceptional class per
    point.
    """

    base: SurfaceModel
    point_count: int
    general_position: bool = True

    def __post_init__(self):
        if not isinstance(self.base, SurfaceModel):
            raise ValueError("blow-up base must be a SurfaceModel")
        if type(self.point_count) is not int or self.point_count < 1:
            raise ValueError("blow-up point count must be a positive integer")

    def exceptional(self, i: int) -> "DivisorClass":
        """Class of the i-th exceptional curve of this blow-up level, 1-based."""
        if not 1 <= i <= self.point_count:
            raise ValueError(f"exceptional index {i} out of range 1..{self.point_count}")
        rank = picard_rank(self)
        coeffs = [0] * rank
        coeffs[rank - self.point_count + i - 1] = 1
        return DivisorClass(self, tuple(coeffs))

    def exceptional_sum(self) -> "DivisorClass":
        """Sum of all exceptional classes of this blow-up level."""
        rank = picard_rank(self)
        base_rank = rank - self.point_count
        return DivisorClass(self, (0,) * base_rank + (1,) * self.point_count)


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficient vector over the Picard basis of a surface."""

    surface: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != picard_rank(self.surface):
            raise ValueError(
                f"expected {picard_rank(self.surface)} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a DivisorClass, got {other!r}")
        if self.surface != other.surface:
            raise SurfaceMismatchError(
                f"classes live on different surfaces: "
                f"{surface_descriptor(self.surface)} vs {surface_descriptor(other.surface)}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(self.surface, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(self.surface, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "DivisorClass":
        if not isinstance(n, int):
            return NotImplemented
        return DivisorClass(self.surface, tuple(n * a for a in self.coeffs))

    __mul__ = __rmul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dot(self, other: "DivisorClass") -> int:
        """Intersection number of the two classes."""
        self._require_same_surface(other)
        return _dot(self.surface, self.coeffs, other.coeffs)

    def square(self) -> int:
        return self.dot(self)

    def __str__(self) -> str:
        return format_class(self)


def picard_rank(surface: SurfaceModel) -> int:
    if isinstance(surface, ProjectivePlane):
        return 1
    if isinstance(surface, Hirzebruch):
        return 2
    if isinstance(surface, BlowUp):
        return picard_rank(surface.base) + surface.point_count
    raise TypeError(f"unsupported surface {surface!r}")


def basis_labels(surface: SurfaceModel) -> tuple[str, ...]:
    if isinstance(surface, ProjectivePlane):
        return ("H",)
    if isinstance(surface, Hirzebruch):
        return ("D0", "F")
    if isinstance(surface, BlowUp):
        below = basis_labels(surface.base)
        start = sum(1 for lab in below if lab.startswith("E")) + 1
        return below + tuple(f"E{start + i}" for i in range(surface.point_count))
    raise TypeError(f"unsupported surface {surface!r}")


def surface_descriptor(surface: SurfaceModel) -> str:
    """Short printable description, also used to match classification data."""
    if isinstance(surface, ProjectivePlane):
        return "P^2"
    if isinstance(surface, Hirzebruch):
        return f"F_{surface.e}"
    if isinstance(surface, BlowUp):
        suffix = "" if surface.general_position else " (no generality assumed)"
        return (
            f"blow-up of {surface_descriptor(surface.base)} at "
            f"{surface.point_count} points{suffix}"
        )
    raise TypeError(f"unsupported surface {surface!r}")


def _dot(surface: SurfaceModel, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if isinstance(surface, ProjectivePlane):
        return u[0] * v[0]
    if isinstance(surface, Hirzebruch):
        return _hirzebruch_dot(surface.e, u, v)
    base_rank = picard_rank(surface.base)
    return _dot(surface.base, u[:base_rank], v[:base_rank]) + _exceptional_dot(
        u[base_rank:], v[base_rank:]
    )


def _hirzebruch_dot(e: int, u, v) -> int:
    # D0.D0 = -e, D0.F = F.D0 = 1, F.F = 0
    return -e * u[0] * v[0] + u[0] * v[1] + u[1] * v[0]


def _exceptional_dot(u, v) -> int:
    # E_i.E_i = -1, distinct exceptionals and pullbacks are orthogonal
    return -sum(x * y for x, y in zip(u, v))


def canonical_class(surface: SurfaceModel) -> DivisorClass:
    if isinstance(surface, ProjectivePlane):
        return surface.divisor((-3,))
    if isinstance(surface, Hirzebruch):
        return surface.divisor((-2, -(surface.e + 2)))
    if isinstance(surface, BlowUp):
        return pullback(surface, canonical_class(surface.base)) + surface.exceptional_sum()
    raise TypeError(f"unsupported surface {surface!r}")


def ample(d: DivisorClass) -> bool:
    """Whether the class is ample; on the plane and on F_e it is then very ample.

    Blow-ups are not decided here and report False.
    """
    surface = d.surface
    if isinstance(surface, ProjectivePlane):
        return d.coeffs[0] >= 1
    if isinstance(surface, Hirzebruch):
        a, b = d.coeffs
        return a >= 1 and b > a * surface.e
    return False


def blow_up(surface: SurfaceModel, point_count: int, general_position: bool = True) -> BlowUp:
    """Blow up ``point_count`` anonymous points of the surface."""
    return BlowUp(surface, point_count, general_position)


def pullback(surface: BlowUp, d: DivisorClass) -> DivisorClass:
    """Total transform of a base class: coefficients extended by zeros."""
    if not isinstance(surface, BlowUp):
        raise ValueError("pullback target must be a blow-up")
    if d.surface != surface.base:
        raise SurfaceMismatchError(
            f"class lives on {surface_descriptor(d.surface)}, "
            f"not on the blow-up base {surface_descriptor(surface.base)}"
        )
    return DivisorClass(surface, d.coeffs + (0,) * surface.point_count)


@dataclass(frozen=True)
class SectionCount:
    """A global section count together with its reliability tag.

    ``exact`` counts are true dimensions.  Virtual counts are expected
    dimensions clamped at zero: lower bound heuristics that are only
    meaningful when the blown-up points are in general position.
    """

    value: int
    exact: bool

    @property
    def tag(self) -> str:
        return "exact" if self.exact else "virtual"


def h0(surface: SurfaceModel, d: DivisorClass) -> SectionCount:
    """Number of global sections of the class ``d``.

    On the plane and on Hirzebruch surfaces the count is exact.  On a
    blow-up the exceptional coefficients must all be 0 or -1; each -1
    imposes one simple point, and the result is the base count minus the
    number of imposed points, clamped at zero and tagged virtual.  A
    class pulled back from the base (all exceptional coefficients zero)
    keeps the exact count of its base class.
    """
    if d.surface != surface:
        raise SurfaceMismatchError("class does not live on the given surface")
    if isinstance(surface, ProjectivePlane):
        return SectionCount(_plane_sections(d.coeffs[0]), True)
    if isinstance(surface, Hirzebruch):
        return SectionCount(_hirzebruch_sections(surface.e, d.coeffs[0], d.coeffs[1]), True)
    if isinstance(surface, BlowUp):
        base_rank = picard_rank(surface.base)
        exceptional = d.coeffs[base_rank:]
        bad = sorted({c for c in exceptional if c not in (0, -1)})
        if bad:
            raise ValueError(
                f"exceptional coefficients {bad} not supported: only simple "
                "(multiplicity one) point conditions are modelled"
            )
        base_count = h0(surface.base, DivisorClass(surface.base, d.coeffs[:base_rank]))
        imposed = sum(1 for c in exceptional if c == -1)
        if imposed == 0:
            return base_count
        if not surface.general_position:
            raise ValueError(
                "virtual section counts through blown-up points require the "
                "general position assumption"
            )
        return SectionCount(max(0, base_count.value - imposed), False)
    raise TypeError(f"unsupported surface {surface!r}")


def _plane_sections(d: int) -> int:
    return math.comb(d + 2, 2) if d >= 0 else 0


def _hirzebruch_sections(e: int, a: int, b: int) -> int:
    if a < 0:
        return 0
    return sum(max(0, b - i * e + 1) for i in range(a + 1))


def format_class(d: DivisorClass) -> str:
    """Human readable rendering, grouping runs of exceptional classes.

    Inside a bracket such as ``E[4..16]`` the printed coefficient applies
    to each class of the range individually.
    """
    labels = basis_labels(d.surface)
    parts: list[tuple[int, str]] = []
    i = 0
    n = len(labels)
    while i < n:
        label, c = labels[i], d.coeffs[i]
        if label.startswith("E"):
            j = i
            while j + 1 < n and labels[j + 1].startswith("E") and d.coeffs[j + 1] == c:
                j += 1
            if c != 0:
                if i == j:
                    name = label
                else:
                    name = f"E[{labels[i][1:]}..{labels[j][1:]}]"
                parts.append((c, name))
            i = j + 1
        else:
            if c != 0:
                parts.append((c, label))
            i += 1
    if not parts:
        return "0"
    pieces = []
    for k, (c, name) in enumerate(parts):
        term = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if k == 0:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(pieces)
