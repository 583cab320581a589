"""Exact Picard lattice arithmetic for rational surfaces.

The supported ambient surfaces are the projective plane, the Hirzebruch
surfaces and iterated blow-ups of these at anonymous points.  A divisor
class keeps its coefficients on the root surface (the plane or F_e) and
one run-length encoding of its coefficients on all exceptional classes,
so arithmetic costs grow with the number of runs, not with the number of
blown-up points.  Every pairing or section count below is computed in
exact integer arithmetic.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import NamedTuple

from .records import Affine, CheckedRecord, _immutable, checked


class SurfaceMismatchError(ValueError):
    """An operation mixed divisor classes living on different surfaces."""


def require_int(name: str, value) -> None:
    """Refuse ``value`` unless it is an ``int`` (not a ``bool``) or an ``Affine`` of ints,
    a ``Planar`` included."""
    if type(value) is not int and not isinstance(value, Affine):
        raise ValueError(f"{name} must be an integer, got {value!r:.80}")


class SurfaceModel(CheckedRecord):
    """Shared behaviour of the supported symbolic surface descriptions."""

    def divisor(self, coeffs) -> "DivisorClass":
        """Build a class from its dense coefficient vector over the Picard basis."""
        coeffs = tuple(coeffs)
        if type(self) is BlowUp:
            root, count = self._levels
            split = root._rank
        else:  # a root surface: the head is the whole vector, and there are no runs
            split, count = self._rank, 0
        if len(coeffs) != split + count:
            raise ValueError(f"expected {split + count} coefficients, got {len(coeffs)}")
        head = coeffs[:split] if count else coeffs
        for c in head:
            if type(c) is not int and type(c) is not Affine:
                raise ValueError(f"coefficients must be integers, got {c!r}")
        runs = ()
        if count:
            runs, last, length = [], coeffs[split], 0
            for c in coeffs[split:]:  # one pass: check, then extend the last run or start one
                if type(c) is not int:
                    raise ValueError(f"coefficients must be integers, got {c!r}")
                if c == last:
                    length += 1
                else:
                    runs.append((last, length))
                    last, length = c, 1
            runs.append((last, length))
            runs = tuple(runs)
        d = _new(DivisorClass)
        _set_surface(d, self)
        _set_head(d, head)
        _set_runs(d, runs)
        return d

    def zero(self) -> "DivisorClass":
        root, count = _levels(self)
        return DivisorClass._make(self, (0,) * root._rank, ((0, count),) if count else ())


@checked
class ProjectivePlane(SurfaceModel, NamedTuple("ProjectivePlane", [])):
    """The projective plane with Picard basis (H)."""

    _rank = 1  # the Picard rank, read in place of a type test


@checked
class Hirzebruch(SurfaceModel, NamedTuple("Hirzebruch", [("e", int | Affine)])):
    """The ruled surface with a section of self-intersection -e.

    Picard basis (D0, F) where D0 is the negative section and F a fiber,
    so D0.D0 = -e, D0.F = 1 and F.F = 0.
    """

    _rank = 2

    def __new__(cls, e: int | Affine):
        self = cls._tested(cls, e)
        if e < 0:
            raise ValueError("Hirzebruch parameter e must be a nonnegative integer")
        return self

    def negative_section(self) -> "DivisorClass":
        return self.divisor((1, 0))

    def fiber(self) -> "DivisorClass":
        return self.divisor((0, 1))


@checked
class BlowUp(SurfaceModel, NamedTuple("BlowUp", [
        ("base", SurfaceModel), ("point_count", int | Affine), ("general_position", bool)])):
    """Blow-up of a base surface at anonymous points.

    The points have no coordinates; ``general_position`` is a declared
    assumption about them and only gates the virtual section counts.
    The Picard basis extends the base basis by one exceptional class per
    point.  The root surface and the number of exceptional classes of the
    whole tower are recorded once, outside the compared fields.
    """

    def __new__(cls, base: SurfaceModel, point_count: int | Affine,
                general_position: bool = True):
        self = cls._tested(cls, base, point_count, general_position)
        if point_count < 1:
            raise ValueError("blow-up point count must be a positive integer")
        root, below = _levels(base)
        object.__setattr__(self, "_levels", (root, below + point_count))
        return self

    def exceptional(self, i: int) -> "DivisorClass":
        """Class of the i-th exceptional curve of this blow-up level, 1-based."""
        require_int("exceptional index", i)
        if not 1 <= i <= self.point_count:
            raise ValueError(f"exceptional index {i} out of range 1..{self.point_count}")
        root, below = _levels(self.base)
        runs = ((0, below + i - 1), (1, 1), (0, self.point_count - i))
        return DivisorClass._make(self, (0,) * root._rank,
                                  tuple(run for run in runs if run[1]))

    def exceptional_sum(self) -> "DivisorClass":
        """Sum of all exceptional classes of this blow-up level."""
        root, below = _levels(self.base)
        n = self.point_count
        return DivisorClass._make(self, (0,) * root._rank,
                                  ((0, below), (1, n)) if below else ((1, n),))


class DivisorClass:
    """A divisor class: root coefficients plus runs over the exceptional classes.

    ``head`` holds the coefficients on the root surface's basis, (H) or
    (D0, F).  ``runs`` is ((value, length), ...) over all exceptional
    classes E1, E2, ... of every blow-up level in order, with adjacent
    values distinct and no empty run, so equal classes have equal fields.
    One list serves all levels because E_i.E_j = -delta_ij throughout.
    A class is immutable and, unlike the records, equals no tuple.
    """

    __slots__ = _fields = ("surface", "head", "runs")
    surface: SurfaceModel
    head: tuple[int, ...]
    runs: tuple[tuple[int, int], ...]

    def __init__(self, surface: SurfaceModel, head, runs):
        """Build a class from its stored fields, checking that the runs are canonical.

        ``surface.divisor(coeffs)`` builds one from dense coefficients instead.
        """
        if not isinstance(surface, SurfaceModel):
            raise ValueError(f"surface must be SurfaceModel, got {surface!r:.80}")
        if type(head) not in (tuple, list) or type(runs) not in (tuple, list):
            raise ValueError(f"head and runs must be tuples, got {head!r:.40}, {runs!r:.40}")
        root, count = _levels(surface)
        head, rank = tuple(head), picard_rank(root)
        if len(head) != rank:
            raise ValueError(f"expected {rank} root coefficients, got {len(head)}")
        for c in head:  # as ``divisor`` tests them: an Affine entry is admitted, a run's is not
            if type(c) is not int and type(c) is not Affine:
                raise ValueError(f"coefficients must be integers, got {c!r}")
        checked, total = [], 0
        for run in runs:
            if type(run) not in (tuple, list) or len(run) != 2:
                raise ValueError(f"a run is a (value, length) pair, got {run!r:.80}")
            value, length = run
            if type(value) is not int or type(length) is not int:
                raise ValueError(f"run entries must be integers, got {run!r:.80}")
            if length < 1:
                raise ValueError(f"run lengths must be positive, got {length}")
            if checked and checked[-1][0] == value:
                raise ValueError(f"adjacent runs share the value {value}")
            checked.append((value, length))
            total += length
        if total != count:
            raise ValueError(f"runs cover {total} exceptional classes, expected {count}")
        _set_surface(self, surface)
        _set_head(self, head)
        _set_runs(self, tuple(checked))

    @staticmethod
    def _make(surface: SurfaceModel, head: tuple[int, ...], runs: tuple) -> "DivisorClass":
        """Unchecked constructor for canonical runs computed by this package."""
        d = _new(DivisorClass)
        _set_surface(d, surface)
        _set_head(d, head)
        _set_runs(d, runs)
        return d

    def __eq__(self, other) -> bool:
        if type(other) is not DivisorClass:
            return NotImplemented
        return (self.surface, self.head, self.runs) == (other.surface, other.head, other.runs)

    def __hash__(self) -> int:
        return hash((self.surface, self.head, self.runs))

    def __repr__(self) -> str:
        return f"DivisorClass(surface={self.surface!r}, head={self.head!r}, runs={self.runs!r})"

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # copies and unpickled classes go through the checked constructor
        return DivisorClass, (self.surface, self.head, self.runs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficient vector over the Picard basis, built on each access."""
        dense = list(self.head)
        for value, length in self.runs:
            dense += [value] * length
        return tuple(dense)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        # the slow side of the identical-surface test that each operation makes first
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a DivisorClass, got {other!r}")
        if other.surface is not self.surface and other.surface != self.surface:
            raise SurfaceMismatchError(
                f"classes live on different surfaces: "
                f"{surface_descriptor(self.surface)} vs {surface_descriptor(other.surface)}"
            )

    # Sums, differences and multiples are built in place, as ``_make`` builds:
    # the head by root rank (1 or 2), one run without a walk, and no runs at
    # all on a root surface.
    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass or other.surface is not self.surface:
            self._require_same_surface(other)
        u, v, r, s = self.head, other.head, self.runs, other.runs
        d = _new(DivisorClass)
        _set_surface(d, self.surface)
        _set_head(d, (u[0] + v[0], u[1] + v[1]) if len(u) == 2 else (u[0] + v[0],))
        _set_runs(d, ((r[0][0] + s[0][0], r[0][1]),) if len(r) == 1 == len(s)
                  else _merge_runs(r, s, add) if r else ())
        return d

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass or other.surface is not self.surface:
            self._require_same_surface(other)
        u, v, r, s = self.head, other.head, self.runs, other.runs
        d = _new(DivisorClass)
        _set_surface(d, self.surface)
        _set_head(d, (u[0] - v[0], u[1] - v[1]) if len(u) == 2 else (u[0] - v[0],))
        _set_runs(d, ((r[0][0] - s[0][0], r[0][1]),) if len(r) == 1 == len(s)
                  else _merge_runs(r, s, sub) if r else ())
        return d

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def __rmul__(self, n: int) -> "DivisorClass":
        if type(n) is not int:
            if type(n) is bool:
                raise ValueError(f"a class is scaled by an integer, not by {n!r}")
            if type(n) is not Affine:
                return NotImplemented
        if n == 0:
            return self.surface.zero()
        u, r = self.head, self.runs
        d = _new(DivisorClass)
        _set_surface(d, self.surface)
        _set_head(d, (n * u[0], n * u[1]) if len(u) == 2 else (n * u[0],))
        _set_runs(d, ((n * r[0][0], r[0][1]),) if len(r) == 1
                  else tuple([(n * v, length) for v, length in r]) if r else ())
        return d

    __mul__ = __rmul__

    @property
    def is_zero(self) -> bool:
        return not any(self.head) and all(v == 0 for v, _length in self.runs)

    def dot(self, other: "DivisorClass") -> int:
        """Intersection number of the two classes."""
        if type(other) is not DivisorClass or other.surface is not self.surface:
            self._require_same_surface(other)
        u, v, runs = self.head, other.head, self.runs
        if not runs:  # only a root surface's classes have no runs: they pair by the head alone
            return u[0] * v[0] if len(u) == 1 else _hirzebruch_dot(self.surface.e, u, v)
        head = u[0] * v[0] if len(u) == 1 else _hirzebruch_dot(self.surface._levels[0].e, u, v)
        return head + _exceptional_dot(runs, other.runs)

    def square(self) -> int:
        return self.dot(self)

    def __str__(self) -> str:
        return format_class(self)


# the immutable class's slots, written once by its two constructors
_new = object.__new__
_set_surface = DivisorClass.surface.__set__
_set_head = DivisorClass.head.__set__
_set_runs = DivisorClass.runs.__set__


def _levels(surface: SurfaceModel) -> tuple[SurfaceModel, int]:
    """The root surface under all blow-ups and the number of exceptional classes."""
    return surface._levels if type(surface) is BlowUp else (surface, 0)


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


def picard_rank(surface: SurfaceModel) -> int:
    root, count = _levels(surface)
    if isinstance(root, (ProjectivePlane, Hirzebruch)):
        return root._rank + count
    raise TypeError(f"unsupported surface {surface!r}")


def basis_labels(surface: SurfaceModel) -> tuple[str, ...]:
    """Names of the root surface's basis; the exceptional classes are E1, E2, ..."""
    if isinstance(surface, ProjectivePlane):
        return ("H",)
    if isinstance(surface, Hirzebruch):
        return ("D0", "F")
    raise TypeError(f"unsupported root surface {surface!r}")


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


def canonical_class(surface: SurfaceModel) -> DivisorClass:
    if type(surface) is BlowUp:  # the case every build recurses through
        return pullback(surface, canonical_class(surface.base)) + surface.exceptional_sum()
    if isinstance(surface, ProjectivePlane):
        return surface.divisor((-3,))
    if isinstance(surface, Hirzebruch):
        return surface.divisor((-2, -(surface.e + 2)))
    raise TypeError(f"unsupported surface {surface!r}")


def ample(d: DivisorClass) -> bool:
    """Whether the class is ample; on the plane and on F_e it is then very ample.

    Blow-ups are not decided here and report False.
    """
    surface = d.surface
    if isinstance(surface, ProjectivePlane):
        return d.head[0] >= 1
    if isinstance(surface, Hirzebruch):
        a, b = d.head
        return a >= 1 and b > a * surface.e
    return False


def blow_up(surface: SurfaceModel, point_count: int, general_position: bool = True) -> BlowUp:
    """Blow up ``point_count`` anonymous points of the surface."""
    return BlowUp(surface, point_count, general_position)


def pullback(surface: BlowUp, d: DivisorClass) -> DivisorClass:
    """Total transform of a base class: coefficients extended by zeros."""
    if type(surface) is not BlowUp and not isinstance(surface, BlowUp):
        raise ValueError("pullback target must be a blow-up")
    if type(d) is not DivisorClass or d.surface is not surface.base:
        # the slow side of the identical-surface test, as in DivisorClass arithmetic
        if not isinstance(d, DivisorClass):
            raise TypeError(f"expected a DivisorClass, got {d!r}")
        if d.surface != surface.base:
            raise SurfaceMismatchError(
                f"class lives on {surface_descriptor(d.surface)}, "
                f"not on the blow-up base {surface_descriptor(surface.base)}"
            )
    runs, zeros = d.runs, surface.point_count
    if runs and runs[-1][0] == 0:
        runs, zeros = runs[:-1], runs[-1][1] + zeros
    return DivisorClass._make(surface, d.head, runs + ((0, zeros),))


@checked
class SectionCount(NamedTuple):
    """A global section count and whether it is exact.

    ``exact`` counts are true dimensions.  Virtual counts are expected
    dimensions clamped at zero: lower bound heuristics that are only
    meaningful when the blown-up points are in general position.
    """

    value: int | Affine
    exact: bool


def h0(d: DivisorClass) -> SectionCount:
    """Number of global sections of the class ``d`` on its own surface.

    On the plane and on Hirzebruch surfaces the count is exact.  On a
    blow-up the exceptional coefficients must all be 0 or -1; each -1
    imposes one simple point, and the result is the base count minus the
    number of imposed points, clamped at zero and tagged virtual.  A
    class pulled back from the base (all exceptional coefficients zero)
    keeps the exact count of its base class.
    """
    # one walk down the tower, refusing each level's coefficients from the
    # top; one clamp at the end equals one per level, as each count is >= 0
    surface, runs, imposed, refused = d.surface, d.runs, 0, False
    while type(surface) is BlowUp:
        runs, level = _split_runs(runs, surface._levels[1] - surface.point_count)
        points = 0
        for c, length in level:  # sum the -1 runs; any value but 0 and -1 is refused
            if c == -1:
                points += length
            elif c:
                bad = sorted({c for c, _length in level if c not in (0, -1)})
                raise ValueError(
                    f"exceptional coefficients {bad} not supported: only simple "
                    "(multiplicity one) point conditions are modelled"
                )
        if points and not surface.general_position:
            refused = True
        imposed += points
        surface = surface.base
    if isinstance(surface, Hirzebruch):
        value = _hirzebruch_sections(surface.e, d.head[0], d.head[1])
    elif isinstance(surface, ProjectivePlane):
        value = _plane_sections(d.head[0])
    else:
        raise TypeError(f"unsupported surface {surface!r}")
    if not imposed:
        return SectionCount(value, True)
    if refused:
        raise ValueError(
            "virtual section counts through blown-up points require the "
            "general position assumption"
        )
    return SectionCount(max(0, value - imposed), False)


def _plane_sections(d: int) -> int:
    return math.comb(d + 2, 2) if d >= 0 else 0


def _hirzebruch_sections(e: int, a: int, b: int) -> int:
    if a < 0:
        return 0
    return sum([x for i in range(a + 1) if (x := b - i * e + 1) > 0])


def format_class(d: DivisorClass) -> str:
    """Human readable rendering, one term per nonzero exceptional run.

    Inside a bracket such as ``E[4..16]`` the printed coefficient applies
    to each class of the range individually.
    """
    labels = basis_labels(_levels(d.surface)[0])
    parts = [(c, label) for c, label in zip(d.head, labels) if c != 0]
    start = 1
    for c, length in d.runs:
        if c != 0:
            parts.append((c, f"E{start}" if length == 1 else f"E[{start}..{start + length - 1}]"))
        start += length
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
