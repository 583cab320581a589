"""Cyclic covers of degree two and three given by reduced building data.

A cover is described by its branch divisor classes together with the
derived root class whose degree-th multiple is the weighted branch sum.
This module derives the eigen-sheaves of such covers, computes their
numerical invariants and canonical section counts by one formula over
those sheaves in both degrees, and keeps the scroll polynomial
bookkeeping (bidegrees, symmetry checks, germ classification) used to
pin down the explicit branch curves.
"""

from __future__ import annotations

from typing import NamedTuple

from . import lattice
from .lattice import DivisorClass, SurfaceModel
from .records import Affine, checked


class BuildingDataError(ValueError):
    """The given branch data does not define a valid cover."""


# All supported ambient surfaces are rational, so chi(O_Y) = 1 on every
# base; as h0(K_Y) = 0 there, the p_g of a cover is the sum of the section
# counts of its adjoint classes K_Y + L_j.
BASE_CHI = 1

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
    elif not isinstance(base, SurfaceModel):
        raise BuildingDataError(f"base must be a SurfaceModel, got {base!r:.80}")
    return _root(degree, branch, base)


def _root(degree: int, branch: tuple[DivisorClass, ...], base: SurfaceModel) -> DivisorClass:
    """``derive_root`` on a degree, branch and base whose types and lengths are tested."""
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


@checked
class CoverSpec(NamedTuple("CoverSpec", [
        ("degree", int), ("base", SurfaceModel), ("branch", tuple[DivisorClass, ...])])):
    """Reduced building data of a degree 2 or degree 3 cyclic cover.

    ``root`` is derived from the branch once, as ``derive_root`` does, so that
    degree * root = sum of j * branch[j-1]; it is kept outside the fields.
    """

    def __new__(cls, degree: int, base: SurfaceModel, branch: tuple[DivisorClass, ...]):
        # the fields' test tests each branch entry once; where it refuses, or the
        # degree or the branch length is wrong, derive_root refuses first with
        # the message it gives a direct caller, and else the field's refusal is
        # a BuildingDataError, as of other bad data
        try:
            self = cls._tested(cls, degree, base,
                               tuple(branch) if isinstance(branch, (tuple, list)) else branch)
        except ValueError as refusal:
            derive_root(degree, branch, base)
            raise BuildingDataError(*refusal.args) from None
        if degree not in (2, 3) or len(self.branch) != degree - 1:
            derive_root(degree, branch, base)
        object.__setattr__(self, "root", _root(degree, self.branch, base))
        return self

    @classmethod
    def double(cls, base: SurfaceModel, d: DivisorClass) -> "CoverSpec":
        return cls(2, base, (d,))

    @classmethod
    def triple(cls, base: SurfaceModel, d1: DivisorClass, d2: DivisorClass) -> "CoverSpec":
        return cls(3, base, (d1, d2))


@checked
class CanonicalMultiple(NamedTuple):
    """A relation multiple * K = pullback of ``cls`` from the base."""

    multiple: int
    cls: DivisorClass


@checked
class InvariantReport(NamedTuple):
    """Numerical invariants of a constructed surface.

    ``p_g`` is None when some section count entering it is only virtual;
    a heuristic count is never reported as an invariant.
    """

    k_squared: int | Affine
    chi: int | Affine
    p_g: int | Affine | None
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


def eigensheaves(spec: CoverSpec) -> tuple[DivisorClass, ...]:
    """The eigen-sheaves L_j of the cover, where pi_* O_X = O_Y + sum_j L_j^{-1}.

    A double cover has the one sheaf (root,); a triple cover has
    (root, d1 + d2 - root), so its sheaves sum to the branch sum d1 + d2.
    """
    return _eigensheaves(spec)[0]


def _eigensheaves(spec: CoverSpec) -> tuple[tuple[DivisorClass, ...], DivisorClass]:
    # the sheaves and their sum, which for a triple cover is the branch sum
    if not isinstance(spec, CoverSpec):
        raise TypeError(f"expected a CoverSpec, got {spec!r}")
    root = spec.root
    if spec.degree == 2:
        return (root,), root
    d1, d2 = spec.branch
    branch_sum = d1 + d2
    return (root, branch_sum - root), branch_sum


def cover_invariants(spec: CoverSpec,
                     minimal_or_ample: str = MINIMALITY_UNKNOWN) -> InvariantReport:
    """Invariants of a smooth cyclic cover of degree n = 2 or 3 from its building data.

    Over the eigen-sheaves L_j: chi = n * chi(O_Y) + sum_j L_j.(L_j + K_Y)/2,
    p_g = sum_j h0(K_Y + L_j), and m * K = pullback of C = m * K_Y +
    (2m/n) * sum_j L_j with m = n / gcd(n, 2), so K^2 = n * C^2 / m^2.  A
    double cover reports (1, K_Y + L), a triple cover (3, 3K_Y + 2(d1 + d2)):
    m depends on n alone, so 3K_Y for an empty branch on F_0 keeps multiple 3.
    Canonical singularities on the branch are permitted; they leave every
    reported value unchanged and are recorded through the assumptions.
    ``minimal_or_ample`` is the report's verdict: "unknown" unless a builder certified one.
    """
    sheaves, total = _eigensheaves(spec)
    n = spec.degree
    m = n if n % 2 else n // 2  # n / gcd(n, 2)
    k = lattice.canonical_class(spec.base)
    adjoints, pairing = [], 0
    for sheaf in sheaves:
        adjoint = k + sheaf
        adjoints.append(adjoint)
        pairing += sheaf.dot(adjoint)
    # for m == 1, C = K_Y + L is the one adjoint class
    canonical = adjoints[0] if m == 1 else m * k + (2 * m // n) * total
    square = n * canonical.dot(canonical)
    if square % (m * m):
        raise BuildingDataError("K^2 is not an integer: inconsistent building data")
    if pairing % 2:
        raise BuildingDataError("non-integer chi: inconsistent building data")
    # the branch is empty exactly when the sheaves are zero, that is, total and root
    warnings = (WARN_EMPTY_BRANCH,) if total.is_zero and spec.root.is_zero else ()
    # every field in order: a keyword call would cost a build about 1 %
    return InvariantReport(square // (m * m), n * BASE_CHI + pairing // 2,
                           _optional_sections(adjoints), CanonicalMultiple(m, canonical),
                           minimal_or_ample, warnings, (ASSUME_SMOOTH_BRANCH, ASSUME_Q_ZERO))


_EXPONENTS = tuple[int | Affine, int | Affine, int | Affine, int | Affine]


@checked
class ScrollCurve(NamedTuple("ScrollCurve", [
        ("e", int | Affine), ("monomials", tuple[_EXPONENTS, ...])])):
    """A curve on a Hirzebruch surface cut out by scroll monomials.

    Monomials are exponent quadruples (c1, c2, d1, d2) for the scroll
    coordinates (t1, t2, x1, x2), in ascending order without repeats, so
    that a set of monomials has one tuple, an ``Affine`` entry included.
    The zero scheme of a sum of such monomials with unit coefficients is
    well defined as soon as the monomials are homogeneous for the scroll
    weights.
    """

    def __new__(cls, e: int | Affine, monomials: tuple[_EXPONENTS, ...]):
        self = cls._tested(cls, e, monomials)
        if e < 0:
            raise ValueError(f"scroll parameter e must be a nonnegative integer, got {e!r}")
        if not monomials:
            raise ValueError("a scroll curve needs at least one monomial")
        for m in monomials:
            if min(m) < 0:
                raise ValueError(f"malformed exponent quadruple {m!r}")
        if not all(map(tuple.__lt__, monomials, monomials[1:])):
            raise ValueError(f"monomials must ascend without repeats, got {monomials!r:.80}")
        return self


def scroll_class(curve: ScrollCurve) -> DivisorClass:
    """Divisor class of a scroll curve, read off the monomial weights.

    Each monomial t1^c1 t2^c2 x1^d1 x2^d2 cuts the class (d1 + d2) * D0 +
    (e*d1 + c1 + c2) * F; the curve is homogeneous when all monomials give
    the same class.
    """
    if not isinstance(curve, ScrollCurve):
        raise TypeError(f"expected a ScrollCurve, got {curve!r}")
    # compared with ==, as an Affine class cannot go in a set
    classes = [_scroll_monomial_class(curve.e, m) for m in curve.monomials]
    if classes.count(classes[0]) != len(classes):
        raise ValueError(f"inhomogeneous monomial set: classes {sorted(set(classes))}")
    return lattice.Hirzebruch(curve.e).divisor(classes[0])


def _scroll_monomial_class(e: int | Affine, monomial) -> tuple:
    c1, c2, d1, d2 = monomial
    return (d1 + d2, e * d1 + c1 + c2)


def t1_scaling_invariant(curve: ScrollCurve) -> bool:
    """Whether scaling t1 by a primitive cube root of unity carries the curve to itself.

    The monomials are then multiplied by one global character, that is,
    all t1 exponents agree modulo 3.
    """
    if not isinstance(curve, ScrollCurve):
        raise TypeError(f"expected a ScrollCurve, got {curve!r}")
    residues = [c1 % 3 for (c1, _c2, _d1, _d2) in curve.monomials]
    return residues.count(residues[0]) == len(residues)


def cyclic_shift_invariant(triples) -> bool:
    """Whether a set of exponent triples in three variables is closed under cyclic shift."""
    triples = frozenset(tuple(m) for m in triples)
    for m in triples:
        if len(m) != 3 or any(type(x) is not int or x < 0 for x in m):
            raise ValueError(f"malformed exponent triple {m!r}")
    return frozenset((b, c, a) for (a, b, c) in triples) == triples


def classify_germ(m: int | Affine, p: int) -> str:
    """ADE type of the plane curve germ x^2 + x^m + y^p with m, p >= 2.

    For m >= 2 the x part is a unit multiple of x^2 after a change of
    coordinates, so the germ is the double point x^2 + y^p of type
    A_{p-1}.
    """
    if type(m) not in (int, Affine) or type(p) is not int:
        raise ValueError("germ exponents must be integers")
    if m < 2 or p < 2:
        raise ValueError(f"germ x^2 + x^{m} + y^{p} is outside the supported family")
    return f"A_{p - 1}"
