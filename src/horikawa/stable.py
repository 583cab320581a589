"""Bookkeeping for normal surfaces with one-third quotient points.

The tracked singularity is the quotient point whose minimal resolution is
a single (-3)-curve.  Contracting such a curve raises the canonical
self-intersection by one third and blocks Q-Gorenstein smoothings;
rational double points are carried along but are neutral for every
quantity computed here.
"""

from __future__ import annotations

from typing import NamedTuple

from . import covers, lattice
from .covers import CoverSpec, InvariantReport
from .records import Affine, checked


class LedgerError(ValueError):
    """A singularity ledger is inconsistent with the claimed invariants."""


@checked
class SingularityLedger(NamedTuple("SingularityLedger", [
        ("third11_count", int | Affine), ("canonical_count", int)])):
    """Counts of the singular points carried by a surface."""

    def __new__(cls, third11_count: int | Affine = 0, canonical_count: int = 0):
        self = cls._tested(cls, third11_count, canonical_count)
        if third11_count < 0 or canonical_count < 0:
            raise ValueError("singularity counts must be nonnegative")
        return self


EMPTY_LEDGER = SingularityLedger()


@checked
class StableSurfaceRecord(NamedTuple("StableSurfaceRecord", [
        ("k_squared_thirds", int | Affine), ("chi", int | Affine), ("ledger", SingularityLedger),
        ("ample_canonical", bool), ("smoothable", bool)])):
    """Invariants and flags of a normal stable surface.

    K^2 is kept in thirds, as the integer ``k_squared_thirds`` = 3*K^2:
    each contracted (-3)-curve adds exactly one third, so every K^2 here
    lies in (1/3)Z, and a value outside it is refused with LedgerError
    when the record is built, as is a bicanonical count that is not whole.
    ``k_squared`` is the derived Fraction; ``fractions`` is imported only
    where one is made.
    """

    def __new__(cls, k_squared_thirds: int | Affine, chi: int | Affine, ledger: SingularityLedger,
                ample_canonical: bool = False, smoothable: bool = False):
        if type(k_squared_thirds) is not int:
            import fractions
            if isinstance(k_squared_thirds, fractions.Fraction):
                raise LedgerError(
                    f"k_squared {k_squared_thirds / 3} is not a whole number of thirds")
        self = cls._tested(cls, k_squared_thirds, chi, ledger, ample_canonical, smoothable)
        _whole_thirds(3 * chi + k_squared_thirds - ledger.third11_count)
        if ledger.third11_count > 0 and smoothable:
            raise LedgerError(
                "a surface with one-third quotient points admits no Q-Gorenstein smoothing"
            )
        return self

    @property
    def k_squared(self):
        import fractions
        return fractions.Fraction(self.k_squared_thirds, 3)

    @property
    def in_component_without_canonical_models(self) -> bool:
        """Whether the surface's moduli component has no canonical models.

        That holds exactly when the bicanonical count differs from chi + K^2.
        """
        return 3 * h0_2K(self) != self.k_squared_thirds + 3 * self.chi


def contract_minus3(chi: int, k_squared_smooth: int, count: int,
                    ample_canonical: bool = False) -> StableSurfaceRecord:
    """Contract ``count`` disjoint (-3)-curves of a smooth surface.

    chi is unchanged, the canonical self-intersection gains one third per
    contracted curve, and the result is never smoothable; ``ample_canonical`` must be a bool.
    """
    if count < 1:
        raise ValueError("at least one curve must be contracted")
    return StableSurfaceRecord(
        3 * k_squared_smooth + count, chi, SingularityLedger(count), ample_canonical)


def rr_correction_thirds(ledger: SingularityLedger) -> int:
    """The local bicanonical Riemann-Roch correction, in thirds.

    Each one-third quotient point contributes -1 (that is, -1/3); rational
    double points contribute nothing.
    """
    return -ledger.third11_count


def h0_2K(record: StableSurfaceRecord) -> int:
    """Bicanonical section count chi + K^2 + correction, which must be integral.

    The sum is taken in thirds, as K^2 is kept, so no Fraction is made
    unless the count fails.
    """
    thirds = 3 * record.chi + record.k_squared_thirds + rr_correction_thirds(record.ledger)
    return _whole_thirds(thirds)


def _whole_thirds(thirds: int) -> int:
    """The bicanonical count ``thirds`` / 3, refused with LedgerError unless it is whole."""
    count, remainder = divmod(thirds, 3)
    if remainder:
        import fractions
        raise LedgerError(
            f"bicanonical count {fractions.Fraction(thirds, 3)} is not an integer: "
            "ledger inconsistent with the claimed invariants"
        )
    return count


def resolve_node_bookkeeping(spec: CoverSpec, count: int) -> InvariantReport:
    """Invariants of the canonical resolution of a degree 3 cover with ``count`` branch nodes.

    Each retained node of the branch produces a one-third quotient
    point on the cover.  The canonical resolution blows up every node and
    subtracts the new exceptional class from each branch divisor; its
    invariants come from ``covers.cover_invariants``.  The unresolved
    surface keeps chi and gains one third of K^2 per node: it is
    ``contract_minus3(report.chi, report.k_squared, count)``.  A ``spec``
    that is no CoverSpec raises TypeError; the branch divisors must meet
    in exactly ``count`` points, or LedgerError names both numbers.
    """
    if not isinstance(spec, CoverSpec):
        raise TypeError(f"expected a CoverSpec, got {spec!r}")
    if spec.degree != 3:
        raise covers.BuildingDataError("node bookkeeping applies to degree 3 covers")
    # The node locations are fixed by the branch curves, so the resolving
    # blow-up assumes no generality; it refuses a count that is not a positive int.
    resolved_base = lattice.blow_up(spec.base, count, general_position=False)
    d1, d2 = spec.branch
    meet = d1.dot(d2)
    if meet != count:
        raise LedgerError(f"{count} retained nodes, but the branch intersection number is {meet}")
    new_exceptional = resolved_base.exceptional_sum()
    return covers.cover_invariants(CoverSpec.triple(
        resolved_base,
        lattice.pullback(resolved_base, d1) - new_exceptional,
        lattice.pullback(resolved_base, d2) - new_exceptional,
    ))
