"""Cyclic covers of degree two and three given by reduced building data.

A cover is described by its branch divisor classes together with the
derived root class whose degree-th multiple is the weighted branch sum.
This module computes the numerical invariants of such covers, canonical
section counts of double covers, and the scroll polynomial bookkeeping
(bidegrees, symmetry checks, germ classification) used to pin down the
explicit branch curves.
"""

from __future__ import annotations

from typing import NamedTuple

from . import lattice
from .lattice import CheckedRecord, DivisorClass, SurfaceModel


class BuildingDataError(ValueError):
    """The given branch data does not define a valid cover."""


# All supported ambient surfaces are rational, so the structure constants
# of the base are fixed once and for all; as h0(K) = 0 on the base, the
# p_g of a double cover is the section count of its adjoint class.
BASE_CHI = 1
BASE_PG = 0

ASSUME_Q_ZERO = "irregularity q assumed 0 per construction, not computed"
ASSUME_SMOOTH_BRANCH = (
    "branch divisors assumed smooth (at worst canonical singularities) and "
    "transversal; not verified symbolically"
)
WARN_EMPTY_BRANCH = "empty branch divisor: degenerate unramified case"

MINIMALITY_UNKNOWN = "unknown"
MINIMALITY_ASSERTED = "asserted"
NEF_CERTIFIED = "nef-certified"
AMPLE_CERTIFIED = "ample-certified"


def derive_root(degree: int, branch, base: SurfaceModel | None = None) -> DivisorClass:
    """Derive the root class of the cover from its branch classes.

    The root is the unique class whose ``degree``-th multiple equals the
    weighted sum of the branch classes (weight j for the j-th class).
    Uniqueness holds because the supported surfaces have torsion free
    Picard group.  Raises BuildingDataError when some coefficient is not
    divisible, which signals invalid building data.
    """
    if type(degree) is not int or degree not in (2, 3):
        raise BuildingDataError(f"only degree 2 and 3 covers are supported, got {degree}")
    if not isinstance(branch, (tuple, list)):
        raise BuildingDataError(f"branch must be a tuple or list of classes, got {branch!r:.80}")
    branch = tuple(branch)
    if len(branch) != degree - 1:
        raise BuildingDataError(
            f"degree {degree} needs {degree - 1} branch classes, got {len(branch)}"
        )
    if not all(isinstance(d, DivisorClass) for d in branch):
        raise BuildingDataError(f"branch entries must be divisor classes, got {branch!r:.80}")
    if base is None:
        base = branch[0].surface
    weighted = base.zero()
    for j, d in enumerate(branch, start=1):
        if d.surface != base:
            raise BuildingDataError("branch classes must live on the base surface")
        weighted = weighted + j * d
    # exact division keeps adjacent run values distinct, so the runs stay canonical
    return DivisorClass._make(
        base, tuple([_exact_quotient(c, degree) for c in weighted.head]),
        tuple([(_exact_quotient(c, degree), length) for c, length in weighted.runs]))


def _exact_quotient(c: int, degree: int) -> int:
    q, r = divmod(c, degree)
    if r:
        raise BuildingDataError(
            f"coefficient {c} of the weighted branch sum is not divisible by {degree}"
        )
    return q


class CoverSpec(CheckedRecord, NamedTuple("CoverSpec", [
        ("degree", int), ("base", SurfaceModel), ("branch", tuple[DivisorClass, ...]),
        ("transversal_node_count", int)])):
    """Reduced building data of a degree 2 or degree 3 cyclic cover.

    ``root`` is derived from the branch once, by ``derive_root``, so that
    degree * root = sum of j * branch[j-1]; it is kept outside the fields.
    The node count records transversal intersections of the two degree-3
    branch divisors that are deliberately kept unresolved.
    """

    def __new__(cls, degree: int, base: SurfaceModel, branch: tuple[DivisorClass, ...],
                transversal_node_count: int = 0):
        if type(transversal_node_count) is not int:
            raise BuildingDataError(
                f"node count must be an integer, got {transversal_node_count!r:.80}")
        if transversal_node_count < 0:
            raise BuildingDataError("node count must be nonnegative")
        if degree == 2 and transversal_node_count:
            raise BuildingDataError("node bookkeeping only applies to degree 3 covers")
        self = tuple.__new__(cls, (degree, base, branch, transversal_node_count))
        object.__setattr__(self, "root", derive_root(degree, branch, base))
        return self

    @classmethod
    def double(cls, base: SurfaceModel, d: DivisorClass) -> "CoverSpec":
        return cls(2, base, (d,))

    @classmethod
    def triple(cls, base: SurfaceModel, d1: DivisorClass, d2: DivisorClass,
               transversal_node_count: int = 0) -> "CoverSpec":
        return cls(3, base, (d1, d2), transversal_node_count)

    @property
    def branch_is_empty(self) -> bool:
        return all(d.is_zero for d in self.branch)


class CanonicalMultiple(NamedTuple):
    """A relation multiple * K = pullback of ``cls`` from the base."""

    multiple: int
    cls: DivisorClass


class InvariantReport(NamedTuple):
    """Numerical invariants of a constructed surface.

    ``p_g`` is None when some section count entering it is only virtual;
    a heuristic count is never reported as an invariant.
    """

    k_squared: int
    chi: int
    p_g: int | None
    canonical_multiple: CanonicalMultiple
    minimal_or_ample: str = MINIMALITY_UNKNOWN
    warnings: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = ()


def _optional_sections(classes) -> int | None:
    # None whenever any term is virtual or falls outside the supported
    # section counting (for example positive exceptional coefficients);
    # the geometric genus is then reported as unavailable, never guessed.
    total = 0
    for cls in classes:
        try:
            count = lattice.h0(cls)
        except ValueError:
            return None
        if not count.exact:
            return None
        total += count.value
    return total


def double_cover_invariants(spec: CoverSpec) -> InvariantReport:
    """Invariants of a smooth double cover from its building data.

    Canonical singularities on the branch are permitted; they leave every
    reported value unchanged and are recorded through the assumptions.
    """
    if spec.degree != 2:
        raise BuildingDataError("double cover invariants need a degree 2 spec")
    k = lattice.canonical_class(spec.base)
    adjoint = k + spec.root
    k_squared = 2 * adjoint.dot(adjoint)
    pairing = spec.root.dot(adjoint)
    if pairing % 2:
        raise BuildingDataError("non-integer chi: inconsistent building data")
    chi = 2 * BASE_CHI + pairing // 2
    sections = _optional_sections((adjoint,))
    p_g = None if sections is None else BASE_PG + sections
    warnings = (WARN_EMPTY_BRANCH,) if spec.branch_is_empty else ()
    return InvariantReport(
        k_squared=k_squared,
        chi=chi,
        p_g=p_g,
        canonical_multiple=CanonicalMultiple(1, adjoint),
        warnings=warnings,
        assumptions=(ASSUME_SMOOTH_BRANCH, ASSUME_Q_ZERO),
    )


def triple_cover_invariants(spec: CoverSpec) -> InvariantReport:
    """Invariants of a smooth degree 3 cyclic cover from its building data.

    Requires a node-free spec; covers with retained branch nodes are
    handled by the stable surface bookkeeping.
    """
    if spec.degree != 3:
        raise BuildingDataError("triple cover invariants need a degree 3 spec")
    if spec.transversal_node_count:
        raise BuildingDataError(
            "smooth formulas need transversal_node_count = 0; resolve the nodes first"
        )
    k = lattice.canonical_class(spec.base)
    d1, d2 = spec.branch
    tri_canonical = 3 * k + 2 * d1 + 2 * d2
    square = tri_canonical.dot(tri_canonical)
    if square % 3:
        raise BuildingDataError("K^2 is not an integer: inconsistent building data")
    first = spec.root
    second = d1 + d2 - spec.root
    adjoints = (k + first, k + second)
    pairing = first.dot(adjoints[0]) + second.dot(adjoints[1])
    if pairing % 2:
        raise BuildingDataError("non-integer chi: inconsistent building data")
    chi = 3 * BASE_CHI + pairing // 2
    sections = _optional_sections(adjoints)
    p_g = None if sections is None else BASE_PG + sections
    warnings = (WARN_EMPTY_BRANCH,) if spec.branch_is_empty else ()
    return InvariantReport(
        k_squared=square // 3,
        chi=chi,
        p_g=p_g,
        canonical_multiple=CanonicalMultiple(3, tri_canonical),
        warnings=warnings,
        assumptions=(ASSUME_SMOOTH_BRANCH, ASSUME_Q_ZERO),
    )


class ScrollCurve(CheckedRecord, NamedTuple("ScrollCurve", [
        ("e", int), ("monomials", frozenset[tuple[int, int, int, int]])])):
    """A curve on a Hirzebruch surface cut out by scroll monomials.

    Monomials are exponent quadruples (c1, c2, d1, d2) for the scroll
    coordinates (t1, t2, x1, x2).  The zero scheme of a sum of such
    monomials with unit coefficients is well defined as soon as the
    monomial set is homogeneous for the scroll weights.
    """

    def __new__(cls, e: int, monomials):
        if type(e) is not int or e < 0:
            raise ValueError(f"scroll parameter e must be a nonnegative integer, got {e!r}")
        monomials = frozenset(tuple(m) for m in monomials)
        if not monomials:
            raise ValueError("a scroll curve needs at least one monomial")
        for m in monomials:
            if len(m) != 4 or any(type(x) is not int or x < 0 for x in m):
                raise ValueError(f"malformed exponent quadruple {m!r}")
        return tuple.__new__(cls, (e, monomials))


def scroll_class(curve: ScrollCurve) -> DivisorClass:
    """Divisor class of a scroll curve, read off the monomial weights.

    Each monomial t1^c1 t2^c2 x1^d1 x2^d2 cuts the class (d1 + d2) * D0 +
    (e*d1 + c1 + c2) * F; the set is homogeneous when all monomials give
    the same class.
    """
    classes = {_scroll_monomial_class(curve.e, m) for m in curve.monomials}
    if len(classes) != 1:
        raise ValueError(f"inhomogeneous monomial set: classes {sorted(classes)}")
    a, b = classes.pop()
    return lattice.Hirzebruch(curve.e).divisor((a, b))


def _scroll_monomial_class(e: int, monomial) -> tuple[int, int]:
    c1, c2, d1, d2 = monomial
    return (d1 + d2, e * d1 + c1 + c2)


def t1_scaling_invariant(curve: ScrollCurve) -> bool:
    """Whether scaling t1 by a primitive cube root of unity carries the curve to itself.

    The monomial set is then multiplied by one global character, that is,
    all t1 exponents agree modulo 3.
    """
    return len({c1 % 3 for (c1, _c2, _d1, _d2) in curve.monomials}) <= 1


def cyclic_shift_invariant(triples) -> bool:
    """Whether a set of exponent triples in three variables is closed under cyclic shift."""
    triples = frozenset(tuple(m) for m in triples)
    for m in triples:
        if len(m) != 3 or any(x < 0 for x in m):
            raise ValueError(f"malformed exponent triple {m!r}")
    return frozenset((b, c, a) for (a, b, c) in triples) == triples


def classify_germ(m: int, p: int) -> str:
    """ADE type of the plane curve germ x^2 + x^m + y^p with m, p >= 2.

    For m >= 2 the x part is a unit multiple of x^2 after a change of
    coordinates, so the germ is the double point x^2 + y^p of type
    A_{p-1}.
    """
    if not (isinstance(m, int) and isinstance(p, int)):
        raise ValueError("germ exponents must be integers")
    if m < 2 or p < 2:
        raise ValueError(f"germ x^2 + x^{m} + y^{p} is outside the supported family")
    return f"A_{p - 1}"
