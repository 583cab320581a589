"""Classification data and construction pipelines on the Horikawa lines.

This module knows which (K^2, chi) pairs are admissible for minimal
surfaces of general type, how the moduli space on the line K^2 = 2chi - 6
splits into components, and how to build, with exact lattice arithmetic,
the order-3 symmetric surfaces populating each component as well as the
non-smoothable stable surfaces on the line K^2 = 2chi - 5.  Ampleness and
nefness claims are backed by integer feasibility certificates whenever
the mechanical argument closes, and downgraded to "asserted" otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from . import covers, lattice, stable
from .covers import CoverSpec, InvariantReport, ScrollCurve
from .lattice import DivisorClass, Hirzebruch, ProjectivePlane, SurfaceModel
from .records import Affine, checked
from .stable import SingularityLedger, StableSurfaceRecord


class CertificateError(ValueError):
    """A positivity certificate could not be issued."""


COMPONENT_I = "I"
COMPONENT_II = "II"
UNLABELED = "unlabeled"
PARITY_INCONCLUSIVE = "inconclusive"

VERDICT_INFEASIBLE = "infeasible"
VERDICT_EXCEPTIONAL_EXCLUDED = "exceptional-case-excluded"

P2_IMAGE = ProjectivePlane()
CONE_IMAGE = "cone over a degree-4 rational curve in P^4"  # no surface model: named by its text

NOTE_FIBER_DECOMPOSITION = (
    "genus-2 fibers over the blown-up points decompose into two (-3)-curves "
    "meeting transversally in three points"
)
NOTE_UNIQUE_FIBRATION = (
    "uniqueness of the genus-2 fibration is classification metadata, not verified here"
)
NOTE_K1_INVOLUTION = (
    "for K^2 = 8 the first-component claim additionally rests on the behaviour of "
    "the canonical involution on the pulled-back second branch curve, recorded as "
    "a case analysis rather than a lattice computation"
)
NOTE_ORDER3_SYMMETRY = "an order-3 symmetry of the branch data lifts to the cover"

RETAINED_NODES = 3  # branch nodes the stable surface keeps, one 1/3(1,1) point over each


def admissibility_failures(k_squared: int, chi: int) -> list[str]:
    """The inequalities for minimal surfaces of general type that the pair violates.

    Every admissibility test in this module comes here, so a K^2 or chi that
    is not an ``int`` (a ``bool`` included) or ``verify``'s ``Affine`` is
    refused here, once.
    """
    if type(k_squared) not in (int, Affine) or type(chi) not in (int, Affine):
        raise ValueError(f"K^2 and chi must be integers, got {k_squared!r:.40}, {chi!r:.40}")
    failures = []
    if chi < 1:
        failures.append(f"chi = {chi} < 1")
    if k_squared < 1:
        failures.append(f"K^2 = {k_squared} < 1")
    if k_squared < 2 * chi - 6:
        failures.append(f"K^2 = {k_squared} < 2*chi - 6 = {2 * chi - 6}")
    if k_squared > 9 * chi:
        failures.append(f"K^2 = {k_squared} > 9*chi = {9 * chi}")
    return failures


def admissible(k_squared: int, chi: int) -> bool:
    """Whether the pair can occur for a minimal surface of general type."""
    return not admissibility_failures(k_squared, chi)


@checked
class AdmissiblePair(NamedTuple("AdmissiblePair", [
        ("k_squared", int | Affine), ("chi", int | Affine)])):
    """An admissible (K^2, chi) pair."""

    def __new__(cls, k_squared: int | Affine, chi: int | Affine):
        if not admissible(k_squared, chi):
            raise ValueError(f"pair (K^2, chi) = ({k_squared}, {chi}) is not admissible")
        return cls._tested(cls, k_squared, chi)


_IMAGE = ProjectivePlane | Hirzebruch | str  # a surface, or CONE_IMAGE


@checked
class CanonicalImages(NamedTuple("CanonicalImages", [
        ("first_top_e", int | Affine), ("second", tuple[_IMAGE, ...])])):
    """Canonical images of the two components where 8 divides K^2 on the low line.

    The first component's are F_0, F_2, ..., F_{first_top_e}; ``second``
    lists the second's, as surfaces, and the quartic cone as CONE_IMAGE.
    The report writer gives them their text.
    """

    def __new__(cls, first_top_e: int | Affine, second: tuple[_IMAGE, ...]):
        self = cls._tested(cls, first_top_e, second)
        if first_top_e < 0 or first_top_e % 2:
            raise ValueError(f"the first component's largest e must be a nonnegative even "
                             f"integer, got {first_top_e!r:.80}")
        for image in second:
            if type(image) is str and image != CONE_IMAGE:
                raise ValueError(f"an image is a surface or the cone, got {second!r:.80}")
        return self


@checked
class ComponentInfo(NamedTuple):
    """Connected components of the moduli space at a point of the low line."""

    count: int
    labels: tuple[str, ...]
    images: CanonicalImages | None


def component_count(k_squared: int | Affine) -> int:
    """Number of components of the moduli space at K^2 on the line K^2 = 2chi - 6.

    Two when K^2 is a multiple of 8, otherwise one; ``classify`` checks
    that the pair is admissible and on the line, this count does not.
    """
    return 2 if k_squared % 8 == 0 else 1


def classify(k_squared: int | Affine, chi: int | Affine) -> ComponentInfo:
    """Component structure of the moduli space on the line K^2 = 2chi - 6.

    One component unless K^2 is a multiple of 8, in which case there are
    two: the first has canonical images F_e with e even up to K^2/4, the
    second F_{K^2/4 + 2} for K^2 > 8 and the plane or a quartic cone for
    K^2 = 8.
    """
    if not admissible(k_squared, chi):
        raise ValueError(f"({k_squared}, {chi}) is not an admissible pair")
    if k_squared != 2 * chi - 6:
        raise ValueError(
            f"({k_squared}, {chi}) is off the line K^2 = 2*chi - 6; no classification data"
        )
    if component_count(k_squared) == 1:
        return ComponentInfo(count=1, labels=(), images=None)
    quarter = k_squared // 4
    if k_squared > 8:
        second = (Hirzebruch(quarter + 2),)
    else:
        second = (P2_IMAGE, CONE_IMAGE)
    return ComponentInfo(count=2, labels=(COMPONENT_I, COMPONENT_II),
                         images=CanonicalImages(quarter, second))


def pick_parameters(chi: int) -> tuple[int, int, int]:
    """Scroll parameter and branch degrees (e, alpha, beta) for a target chi."""
    lattice.require_int("chi", chi)
    if chi < 3:
        raise ValueError("parameter table starts at chi = 3")
    # alpha + 2*beta = chi + 4e + 2 is then divisible by 3, as derive_root needs
    e = (1 - chi) % 3
    return (e, chi, 2 * e + 1)


@checked
class AmplenessCertificate(NamedTuple):
    """Integer feasibility certificate that a divisor on a blow-up is ample.

    A violating irreducible curve would pull back from a class a*D0 + b*F
    with nonnegative multiplicities at the blown-up points; pairing with a
    witness section class through those points turns the violation into
    the integer condition coefficient*a + b < 0 over a, b >= 0, a + b > 0.
    """

    divisor: DivisorClass
    self_intersection: int | Affine
    feasibility_verdict: str
    coefficient: int | Affine
    witness_class: DivisorClass
    witness_virtual_count: int | Affine
    witness_tight: bool
    exceptional_witness: tuple[int, int] | None = None
    exceptional_reason: str | None = None


@checked
class NefCertificate(NamedTuple):
    """Witness pairings and closure data for a nefness claim."""

    verdict: str
    divisor: DivisorClass
    pairings: tuple[tuple[str, int | Affine], ...]
    closure_coefficient: int | Affine
    gap: str | None = None


@checked
class ConstructionRecipe(NamedTuple):
    """A fully specified cover construction together with its outputs."""

    target: AdmissiblePair
    base: SurfaceModel
    branch: tuple[DivisorClass, ...]
    blow_up_count: int | Affine
    report: InvariantReport
    component_claim: str
    certificates: tuple[AmplenessCertificate | NefCertificate, ...] = ()
    parameters: tuple[int, int | Affine, int] | None = None
    k: int | Affine | None = None
    canonical_image: ProjectivePlane | Hirzebruch | None = None
    canonical_sections: int | Affine | None = None
    fiber_component_self_intersections: tuple[int, ...] | None = None
    scroll_curve: ScrollCurve | None = None
    germ: str | None = None
    ledger: SingularityLedger = stable.EMPTY_LEDGER
    notes: tuple[str, ...] = ()


def _blown_scroll(e: int, alpha: int, beta: int, retained: int, general_position: bool):
    """Blow up F_e at the branch intersection points, all but ``retained`` of them.

    Branch curves of fiber degrees alpha and beta meet in
    2alpha + 2beta - 4e points.  Returns the blow-up, the pullback of
    a*D0 + b*F as a function of (a, b), the exceptional sum and the two
    branch transforms pull(2, alpha) - exceptional and pull(2, beta) - exceptional.
    """
    points = 2 * alpha + 2 * beta - 4 * e - retained
    if points < 1:
        raise CertificateError("parameter triple leaves no points to blow up")
    ruled = Hirzebruch(e)
    blown = lattice.blow_up(ruled, points, general_position)

    def pull(a: int, b: int) -> DivisorClass:
        return lattice.pullback(blown, ruled.divisor((a, b)))

    exceptional = blown.exceptional_sum()
    return blown, pull, exceptional, pull(2, alpha) - exceptional, pull(2, beta) - exceptional


def build_component_one(chi: int, general_position: bool = True) -> ConstructionRecipe:
    """Order-3 symmetric surface with K^2 = 2chi - 6 via a triple cover.

    Two branch curves of fiber degrees alpha and beta on a Hirzebruch
    surface meet in 2alpha + 2beta - 4e points; blowing all of them up and
    taking the cyclic triple cover branched over the strict transforms
    produces a minimal surface with the requested invariants.
    """
    lattice.require_int("chi", chi)  # before the claim's arithmetic reads chi
    return _component_one_cover(chi, general_position, *_component_one_claim(chi))


def _component_one_claim(chi: int | Affine) -> tuple[str, tuple[str, ...]]:
    """Component I's claim at chi and its notes: I where 8 divides 2chi - 6, else unlabeled."""
    if component_count(2 * chi - 6) == 2:
        return COMPONENT_I, (NOTE_K1_INVOLUTION,) if chi == 7 else ()
    return UNLABELED, ()


def _component_one_cover(chi: int, general_position: bool = True, claim: str = UNLABELED,
                         notes: tuple[str, ...] = ()) -> ConstructionRecipe:
    """``build_component_one``'s cover, its fiber data included, with ``claim`` and
    ``notes`` after the cover's own.  It reads chi only through ``pick_parameters``'
    (1 - chi) % 3, and ``_component_one_claim`` reads 2chi - 6 mod 8: kept apart, they
    let ``verify`` build the cover once per class of chi mod 3, not of chi mod 12."""
    lattice.require_int("chi", chi)
    if chi < 4:
        raise ValueError("the general type line K^2 = 2*chi - 6 needs chi >= 4")
    e, alpha, beta = pick_parameters(chi)
    scroll = _blown_scroll(e, alpha, beta, 0, general_position)
    blown, _pull, _exceptional, d1, d2 = scroll
    nef = _nef_certificate(e, alpha, beta, scroll)
    report = covers.cover_invariants(CoverSpec.triple(blown, d1, d2), nef.verdict)
    return ConstructionRecipe(
        target=AdmissiblePair(2 * chi - 6, chi),
        parameters=(e, alpha, beta),
        base=blown,
        branch=(d1, d2),
        blow_up_count=blown.point_count,
        report=report,
        component_claim=claim,
        certificates=(nef,),
        fiber_component_self_intersections=(-3, -3),
        notes=(NOTE_FIBER_DECOMPOSITION, NOTE_UNIQUE_FIBRATION, NOTE_ORDER3_SYMMETRY, *notes),
    )


def parity_discriminator(self_intersections) -> str:
    """Discriminate components from genus-2 fiber component self-intersections.

    In the second component every such self-intersection is even, so one
    odd value excludes it and certifies the first component; all-even data
    is inconclusive.
    """
    self_intersections = tuple(self_intersections)
    for value in self_intersections:
        lattice.require_int("a self-intersection", value)
    if any(value % 2 != 0 for value in self_intersections):
        return COMPONENT_I
    return PARITY_INCONCLUSIVE


def scroll_family_curve(residue: int, k: int | Affine) -> ScrollCurve:
    """Branch curve of the family indexed by ``residue`` at parameter k.

    All three families have class 5*D0 + (10k + 10)*F on the scroll with
    parameter 2k + 2; they differ in the middle monomial t1^(10k+10-j) t2^j x2^5,
    j = (residue + 1) mod 3, whose t1 exponent is then congruent to k - residue,
    so divisible by 3 exactly when k is congruent to the residue modulo 3.
    """
    if type(residue) is not int or residue not in (0, 1, 2):
        raise ValueError("family residue must be 0, 1 or 2")
    lattice.require_int("k", k)
    if k < 2:
        raise ValueError("the scroll branch curves are defined for k >= 2")
    top = 10 * k + 10
    j = (residue + 1) % 3
    # in ascending order, as a curve keeps them: 0 < top - j at every k
    return ScrollCurve(
        e=2 * k + 2,
        monomials=((0, 0, 5, 0), (0, top, 0, 5), (top - j, j, 0, 5)),
    )


P2_BRANCH_MONOMIALS = frozenset({(10, 0, 0), (0, 10, 0), (0, 0, 10)})


def component_two_germ(k: int | Affine) -> str | None:
    """The double point of the component-II branch curve at K^2 = 8k, or None if smooth.

    Only k = 1 (mod 3), k > 1, has one, where a chart reads x1^5 + t2^2 + t2^(10k+10).
    """
    lattice.require_int("k", k)
    return covers.classify_germ(10 * k + 10, 5) if k > 1 and k % 3 == 1 else None


def build_component_two(k: int | Affine) -> ConstructionRecipe:
    """Order-3 symmetric surface in the second component at K^2 = 8k.

    For k = 1 this is the double cover of the plane branched over a
    cyclically symmetric degree 10 curve.  For k >= 2 it is the double
    cover of the scroll with parameter 2k + 2 branched over the negative
    section plus the residue-selected curve of class 5*D0 + (10k + 10)*F.
    """
    lattice.require_int("k", k)
    if k < 1:
        raise ValueError("the second component exists for k >= 1")
    if k == 1:
        base, curve, place = ProjectivePlane(), None, "plane"
        branch = base.divisor((10,))
        symmetric, symmetry = covers.cyclic_shift_invariant(P2_BRANCH_MONOMIALS), "cyclic"
        note = "canonical system embeds the plane by conics"
    else:
        # the family of k's own residue keeps every t1 exponent divisible by 3
        base, curve, place = Hirzebruch(2 * k + 2), scroll_family_curve(k % 3, k), "scroll"
        branch = base.negative_section() + covers.scroll_class(curve)
        symmetric, symmetry = covers.t1_scaling_invariant(curve), "order-3"
        note = "branch curve smooth in this residue class (declared input)"
    report = covers.cover_invariants(CoverSpec.double(base, branch), covers.AMPLE_CERTIFIED)
    if not symmetric:
        raise CertificateError(f"{place} branch curve lost its {symmetry} symmetry")
    germ = component_two_germ(k)
    ledger = stable.EMPTY_LEDGER
    if germ is not None:
        ledger = SingularityLedger(canonical_count=1)
        note = (f"branch curve carries one {germ} double point; the cover has at worst "
                "one rational double point and all reported invariants are unchanged")
    # K is the pullback of the adjoint class under a finite cover, so its
    # ampleness follows from ampleness of the adjoint class on the base.
    if not lattice.ample(report.canonical_multiple.cls):
        raise CertificateError(f"adjoint class on the {place} is not ample")
    return ConstructionRecipe(
        target=AdmissiblePair(8 * k, 4 * k + 3),
        k=k,
        base=base,
        branch=(branch,),
        blow_up_count=0,
        report=report,
        component_claim=COMPONENT_II,
        canonical_image=base,
        canonical_sections=report.p_g,
        scroll_curve=curve,
        germ=germ,
        ledger=ledger,
        notes=(NOTE_ORDER3_SYMMETRY, note),
    )


def ampleness_certificate(e: int, alpha: int, beta: int,
                          general_position: bool = True) -> AmplenessCertificate:
    """Certify ampleness of the stable construction's tri-canonical divisor.

    The divisor lives on the blow-up of the scroll at all but three of the
    branch intersection points.  Its self-intersection must be positive,
    and a section-class witness through the blown-up points must exist
    (virtual count at least one).  The feasibility condition
    (alpha + beta - 3e - 4)*a + b < 0 then has no admissible solution
    except possibly the negative section (a, b) = (1, 0), which general
    position excludes.
    """
    scroll = _blown_scroll(e, alpha, beta, RETAINED_NODES, general_position)
    return _ampleness_certificate(e, alpha, beta, scroll)


def _ampleness_certificate(e: int, alpha: int, beta: int,
                           scroll: tuple) -> AmplenessCertificate:
    """The body of ``ampleness_certificate`` on an already blown-up scroll."""
    _blown, pull, exceptional, _d1, _d2 = scroll
    divisor = pull(2, 2 * alpha + 2 * beta - 3 * e - 6) - exceptional
    square = divisor.dot(divisor)
    if square <= 0:
        raise CertificateError(f"divisor self-intersection {square} is not positive")
    witness = pull(1, alpha + beta - e - 2) - exceptional
    witness_count = lattice.h0(witness)
    if witness_count.value < 1:
        raise CertificateError(
            "witness section class through the blown-up points is unavailable"
        )
    coefficient = alpha + beta - 3 * e - 4
    verdict, exceptional_witness, reason = VERDICT_INFEASIBLE, None, None
    if coefficient < 0:
        # Feasible case: irreducible classes a*D0 + b*F with a, b >= 0 satisfy
        # b >= a*e unless they are the fiber or the negative section.  The
        # fiber never violates, and when coefficient + e >= 0 neither does any
        # section class, leaving the negative section as the only candidate.
        # The square is 6(alpha + beta) - 12e - 21, positive exactly when
        # coefficient + e >= 0, so the refusal above has settled that case; and
        # the witness imposes every blown-up point, so ``h0`` has refused a
        # blow-up that is not in general position.
        verdict, exceptional_witness = VERDICT_EXCEPTIONAL_EXCLUDED, (1, 0)
        reason = ("the negative section is a fixed irreducible curve and cannot pass "
                  "through blown-up points in general position")
    return AmplenessCertificate(
        divisor=divisor,
        self_intersection=square,
        feasibility_verdict=verdict,
        coefficient=coefficient,
        witness_class=witness,
        witness_virtual_count=witness_count.value,
        witness_tight=witness_count.value == 1,
        exceptional_witness=exceptional_witness,
        exceptional_reason=reason,
    )


def nef_certificate(e: int, alpha: int, beta: int,
                    general_position: bool = True) -> NefCertificate:
    """Certify nefness of the tri-canonical divisor of the minimal construction.

    The divisor pairs nonnegatively with the explicit witness classes
    (exceptional curves, fibers through blown-up points, both branch
    curves, and the negative section when e > 0).  For every other
    irreducible curve, pairing its preimage class with the first branch
    curve, which passes through every blown-up point with multiplicity
    one, bounds the multiplicity sum and closes the feasibility analysis
    whenever alpha + 2beta - 3e - 6 >= 0.  Any failing step downgrades the
    verdict to "asserted" with the gap recorded.
    """
    return _nef_certificate(e, alpha, beta,
                            _blown_scroll(e, alpha, beta, 0, general_position))


def _nef_certificate(e: int, alpha: int, beta: int,
                     scroll: tuple) -> NefCertificate:
    """The body of ``nef_certificate`` on an already blown-up scroll."""
    blown, pull, exceptional, d1, d2 = scroll
    divisor = pull(2, 2 * alpha + 2 * beta - 3 * e - 6) - exceptional
    first_exceptional = blown.exceptional(1)
    pairings = [
        ("exceptional curve", divisor.dot(first_exceptional)),
        ("fiber through a blown-up point", divisor.dot(pull(0, 1) - first_exceptional)),
        ("first branch curve", divisor.dot(d1)),
        ("second branch curve", divisor.dot(d2)),
    ]
    if e > 0:
        # In general position no blown-up point lies on the negative
        # section, so its strict transform is the plain pullback.
        pairings.append(("negative section", divisor.dot(pull(1, 0))))
    # the second branch curve pairs to 2 * closure, so a negative closure
    # is always reported as a negative witness pairing
    closure = alpha + 2 * beta - 3 * e - 6
    gap = None
    if any(value < 0 for _name, value in pairings):
        gap = "a witness pairing is negative"
    elif e > 0 and not blown.general_position:
        gap = "negative section witness needs the general position assumption"
    verdict = covers.NEF_CERTIFIED if gap is None else covers.MINIMALITY_ASSERTED
    return NefCertificate(
        verdict=verdict,
        divisor=divisor,
        pairings=tuple(pairings),
        closure_coefficient=closure,
        gap=gap,
    )


@checked
class StableConstruction(NamedTuple):
    """Result of the stable pipeline: the surface record plus its recipe."""

    record: StableSurfaceRecord
    recipe: ConstructionRecipe


def build_stable(chi: int, general_position: bool = True) -> StableConstruction:
    """Non-smoothable stable surface with K^2 = 2chi - 5.

    Identical branch data to the minimal construction, but three of the
    branch intersection points are left alone; the triple cover then
    carries three one-third quotient points, its canonical class is ample
    by certificate, and its bicanonical count shows that its moduli
    component contains no canonical models.
    """
    lattice.require_int("chi", chi)
    if chi < 3:
        raise ValueError("the stable line K^2 = 2*chi - 5 needs chi >= 3")
    e, alpha, beta = pick_parameters(chi)
    scroll = _blown_scroll(e, alpha, beta, RETAINED_NODES, general_position)
    blown, _pull, _exceptional, d1, d2 = scroll
    resolved = stable.resolve_node_bookkeeping(CoverSpec.triple(blown, d1, d2), RETAINED_NODES)
    certificate = _ampleness_certificate(e, alpha, beta, scroll)
    record = stable.contract_minus3(resolved.chi, resolved.k_squared, RETAINED_NODES,
                                    ample_canonical=True)
    recipe = ConstructionRecipe(
        target=AdmissiblePair(2 * chi - 5, chi),
        parameters=(e, alpha, beta),
        base=blown,
        branch=(d1, d2),
        blow_up_count=blown.point_count,
        report=resolved,
        component_claim=UNLABELED,
        certificates=(certificate,),
        ledger=record.ledger,
        notes=(
            "three branch intersection points kept unresolved, one one-third "
            "quotient point over each",
            "the recorded report describes the canonical resolution; the stable "
            "surface data lives in the accompanying record",
        ),
    )
    return StableConstruction(record, recipe)


def epsilon_family(chi: int, epsilon: int) -> StableSurfaceRecord:
    """Contract 3*epsilon disjoint (-3)-curves of the minimal construction.

    Requires 1 <= 3*epsilon <= 2chi + 2, the number of available curves.
    The result has K^2 = 2chi - 6 + epsilon, which satisfies
    3K^2 <= 8chi - 16 with equality exactly at the top of the range.
    """
    lattice.require_int("chi", chi)
    lattice.require_int("epsilon", epsilon)
    if chi < 4:
        raise ValueError("the contracted family starts from a surface with chi >= 4")
    if epsilon < 1:
        raise ValueError("at least one triple of curves must be contracted")
    if 3 * epsilon > 2 * chi + 2:
        raise ValueError(
            f"only {2 * chi + 2} disjoint (-3)-curves are available, "
            f"cannot contract {3 * epsilon}"
        )
    record = stable.contract_minus3(chi, 2 * chi - 6, 3 * epsilon)
    if record.k_squared_thirds > 8 * chi - 16:
        raise CertificateError("contracted surface violates the stable line bound")
    return record
