"""Self-contained identity suite over the construction pipelines.

Every check recomputes its expected values from scratch (closed formulas,
independent enumerations) instead of trusting the pipeline outputs, so a
single wrong coefficient anywhere in the calculus surfaces as a named
failing identity.  The suite is deterministic: fixed seeds, fixed check
order, no environment dependence.  The loop that runs a check's cases, by
residue class where that pays, and the memo of a run's builds are in
``runner``.
"""

from __future__ import annotations

import functools
from typing import Callable

from . import catalog, covers, lattice, samples, stable
from .codec import RANGE_CAP, CheckResult, VerificationOutcome
from .lattice import Hirzebruch, ProjectivePlane
from .records import Planar
from .runner import _Builds, _CheckFailure, _Memo, _each, _expect, _per_chi


# ---------------------------------------------------------------------------
# checks, registered in the order the report lists them

_CHECKS: list[tuple[str, str, Callable]] = []


def _check(name: str, identity: str):
    def register(fn):
        _CHECKS.append((name, identity, fn))
        return fn
    return register


@_check("lattice-symmetry-bilinearity",
        "intersection pairing is symmetric and bilinear on random classes")
def _check_symmetry_bilinearity(chi_max, k_max, builds):
    surfaces = samples.sample_surfaces()
    draws = samples.bilinearity_draws(tuple(map(lattice.picard_rank, surfaces)))
    for n, (u, v, w, m) in enumerate(draws):
        surface = surfaces[n % len(surfaces)]
        a, b, c = surface.divisor(u), surface.divisor(v), surface.divisor(w)
        # the detail is formatted only on failure
        ab = a.dot(b)
        if ab != b.dot(a):
            what = "symmetric"
        elif (a + b).dot(c) != a.dot(c) + b.dot(c):
            what = "additive"
        elif (m * a).dot(b) != m * ab:
            what = "homogeneous"
        else:
            continue
        raise _CheckFailure(f"pairing not {what} on {lattice.surface_descriptor(surface)}")


@_check("lattice-pullback-isometry",
        "pullback embeds the base lattice isometrically and orthogonally to exceptionals")
def _check_pullback_isometry(chi_max, k_max, builds):
    ruled_surfaces = [Hirzebruch(e) for e in (0, 1, 2, 4)]
    draws = samples.isometry_draws(tuple(map(lattice.picard_rank, ruled_surfaces)))
    for ruled, per_count in zip(ruled_surfaces, draws):
        for n, pairs in zip(samples.ISOMETRY_POINT_COUNTS, per_count):
            blown = lattice.blow_up(ruled, n)
            first = blown.exceptional(1)
            for v1, v2 in pairs:
                d1 = ruled.divisor(v1)
                d2 = ruled.divisor(v2)
                p1 = lattice.pullback(blown, d1)
                p2 = lattice.pullback(blown, d2)
                _expect(p1.dot(p2) == d1.dot(d2), "pullback not isometric on F_{} + {}",
                        ruled.e, n)
                _expect(p1.dot(first) == 0, "pullback not orthogonal to exceptional classes")


@_check("lattice-canonical-squares",
        "K^2 is 9 on the plane, 8 on every ruled surface, and drops by 1 per blown-up point")
def _check_canonical_squares(chi_max, k_max, builds):
    _expect(lattice.canonical_class(ProjectivePlane()).square() == 9,
            "plane canonical square is not 9")
    for e in range(0, 7):
        _expect(lattice.canonical_class(Hirzebruch(e)).square() == 8,
                "F_{} canonical square is not 8", e)
    for n in (1, 2, 7, 40):
        blown = lattice.blow_up(Hirzebruch(1), n)
        _expect(lattice.canonical_class(blown).square() == 8 - n,
                "canonical square does not drop by {} under {} blow-ups", n, n)


@_check("lattice-section-count-oracle",
        "closed-form section counts match the monomial enumeration oracle")
def _check_section_count_oracle(chi_max, k_max, builds):
    for e in range(0, 5):
        ruled = Hirzebruch(e)
        for a in range(0, 5):
            for b in range(0, 13):
                got = lattice.h0(ruled.divisor((a, b)))
                want = samples.enumerate_scroll_sections(e, a, b)
                _expect(got.exact and got.value == want,
                        "h0 on F_{} of ({},{}) gave {}, enumeration gives {}",
                        e, a, b, got.value, want)
    plane = ProjectivePlane()
    for d in range(0, 9):
        _expect(lattice.h0(plane.divisor((d,))).value == samples.enumerate_plane_sections(d),
                "h0 on the plane of degree {} disagrees with enumeration", d)


@_check("component-one-invariants",
        "first-line construction reports K^2 = 2*chi - 6, chi, p_g = chi - 1 "
        "and 3*K^2 equal to the tri-canonical square")
@_per_chi(4)
def _check_component_one_invariants(builds, chi):
    report = builds.component_one(chi).report
    _expect(report.k_squared == 2 * chi - 6, "K^2 = {} instead of {} at chi = {}",
            report.k_squared, 2 * chi - 6, chi)
    _expect(report.chi == chi, "chi = {} instead of {}", report.chi, chi)
    _expect(report.p_g == chi - 1, "p_g = {} instead of chi - 1 = {} at chi = {}",
            report.p_g, chi - 1, chi)
    cls = report.canonical_multiple.cls
    _expect(3 * report.k_squared == cls.dot(cls),
            "3*K^2 differs from the tri-canonical square at chi = {}", chi)


@_check("component-one-tricanonical-identity",
        "the tri-canonical class equals its fiber-plus-branch form coefficientwise")
@_per_chi(4)
def _check_tricanonical_identity(builds, chi):
    recipe = builds.component_one(chi)
    e, alpha, beta = recipe.parameters
    # one class of F_e, not (chi - 4) times the fiber: no product of a class decides
    # chi - 4 == 0 on the class of chi that holds 4
    fiber_term = Hirzebruch(e).divisor((0, alpha + 2 * beta - 3 * e - 6))
    alt = lattice.pullback(recipe.base, fiber_term) + recipe.branch[0]
    _expect(recipe.report.canonical_multiple.cls == alt,
            "tri-canonical class disagrees with its fiber form at chi = {}", chi)


@_check("component-two-invariants",
        "second-component covers report (8k, 4k+3), the stated bicanonical class, "
        "branch curve class 5*D0 + (10k+10)*F and the residue germ")
def _check_component_two_invariants(chi_max, k_max, builds):
    def case(k):
        recipe = builds.component_two(k)
        report = recipe.report
        _expect((report.k_squared, report.chi) == (8 * k, 4 * k + 3),
                "invariants {} at k = {}", (report.k_squared, report.chi), k)
        _expect(report.p_g == 4 * k + 2, "p_g = {} at k = {}", report.p_g, k)
        if k == 1:
            _expect(recipe.canonical_image == catalog.P2_IMAGE,
                    "canonical image at k = 1 is not the plane")
            return
        ruled = Hirzebruch(2 * k + 2)
        _expect(2 * report.canonical_multiple.cls == ruled.divisor((2, 6 * k + 2)),
                "bicanonical class wrong at k = {}", k)
        _expect(covers.scroll_class(recipe.scroll_curve) == ruled.divisor((5, 10 * k + 10)),
                "branch curve class wrong at k = {}", k)
        _expect(covers.t1_scaling_invariant(recipe.scroll_curve),
                "branch curve not symmetric at k = {}", k)
        if k % 3 == 1:
            _expect(recipe.germ == "A_4", "germ {} at k = {}", recipe.germ, k)
        else:
            _expect(recipe.germ is None, "unexpected germ at k = {}", k)

    _each(case, range(1, k_max + 1), "k")


@_check("component-two-symmetry-residues",
        "each branch curve family is symmetric exactly in its own residue class")
def _check_scroll_symmetry_residues(chi_max, k_max, builds):
    def case(k):  # every family at k, so a failure is a plain loop's first
        for residue in (0, 1, 2):
            curve = catalog.scroll_family_curve(residue, k)
            expected = residue == k % 3
            got = covers.t1_scaling_invariant(curve)
            _expect(got == expected, "symmetry check gave {} for the residue {} family at k = {}",
                    got, residue, k)

    _each(case, range(2, max(k_max, 5) + 1), "k")


@_check("classification-components",
        "component count is 2 exactly when K^2 is a multiple of 8, with the stated images")
def _check_classification(chi_max, k_max, builds):
    # chi runs by class mod 12 from chi = 12, which decides K^2 mod 8 and leaves
    # K^2 = 8 (chi = 7) to an int; k by class mod 3, with component II's builds
    def on_the_line(chi):
        k_squared = 2 * chi - 6
        info = catalog.classify(k_squared, chi)
        expected = 2 if k_squared % 8 == 0 else 1
        _expect(info.count == expected, "component count {} instead of {} at chi = {}",
                info.count, expected, chi)
        if expected == 2:
            if k_squared > 8:
                _expect(info.images.second == (Hirzebruch(k_squared // 4 + 2),),
                        "second component image wrong at chi = {}", chi)
            else:
                _expect(info.images.second == (catalog.P2_IMAGE, catalog.CONE_IMAGE),
                        "second component images wrong at K^2 = 8")

    def constructed(k):
        recipe = builds.component_two(k)
        info = catalog.classify(8 * k, 4 * k + 3)
        _expect(recipe.canonical_image in info.images.second,
                "constructed canonical image not among the classified ones at k = {}", k)

    _each(on_the_line, range(4, chi_max + 1))
    _each(constructed, range(1, k_max + 1), "k")


@_check("classification-parity-discriminator",
        "two (-3)-curve fibers certify the first component")
def _check_parity_discriminator(chi_max, k_max, builds):
    _expect(catalog.parity_discriminator([-3, -3]) == catalog.COMPONENT_I,
            "odd self-intersections must certify the first component")
    _expect(catalog.parity_discriminator([-2, -2, 0]) == catalog.PARITY_INCONCLUSIVE,
            "even data must be inconclusive")
    _expect(catalog.parity_discriminator([]) == catalog.PARITY_INCONCLUSIVE,
            "vacuous data must be inconclusive")
    # chi = 7 is always tested, so the check has a case below chi_max = 7.  The fibers
    # are read from the run's cover that holds chi, a class of chi mod 3 if the run
    # built one; the claim is the public builder's rule for chi
    def case(chi):
        fibers = builds.component_one.holding(chi).fiber_component_self_intersections
        verdict = catalog.parity_discriminator(fibers)
        _expect(verdict == catalog.COMPONENT_I == catalog._component_one_claim(chi)[0],
                "fiber parity does not certify the first component at chi = {}", chi)

    _each(case, range(7, max(chi_max, 7) + 1, 4))


@_check("stable-invariants",
        "stable construction reports K^2 = 2*chi - 5 with three one-third quotient "
        "points and divisor square 3*K^2")
@_per_chi(3)
def _check_stable_invariants(builds, chi):
    # compared in thirds (3*K^2), as the record keeps K^2, so no Fraction is made
    # unless a comparison fails
    construction = builds.stable(chi)
    record = construction.record
    if record.k_squared_thirds != 3 * (2 * chi - 5):
        raise _CheckFailure(f"stable K^2 = {record.k_squared} instead of {2 * chi - 5} "
                            f"at chi = {chi}")
    _expect(record.chi == chi, "stable chi = {} at chi = {}", record.chi, chi)
    _expect(record.ledger.third11_count == 3, "{} quotient points instead of 3 at chi = {}",
            record.ledger.third11_count, chi)
    _expect(not record.smoothable, "stable surface must not be smoothable")
    certificate = construction.recipe.certificates[0]
    _expect(certificate.self_intersection == record.k_squared_thirds,
            "divisor square is not 3*K^2 at chi = {}", chi)
    resolved = construction.recipe.report
    _expect(resolved.chi == chi, "resolution changed chi at chi = {}", chi)
    _expect(record.k_squared_thirds - 3 * resolved.k_squared == 3,
            "contraction gain is not 1 at chi = {}", chi)


@_check("stable-ampleness-certificate",
        "feasibility is impossible except at chi = 3, where only the negative "
        "section survives and general position excludes it")
@_per_chi(3)
def _check_stable_certificates(builds, chi):
    e, alpha, beta = catalog.pick_parameters(chi)
    construction = builds.stable.get(chi)
    certificate = (catalog.ampleness_certificate(e, alpha, beta) if construction is None
                   else construction.recipe.certificates[0])
    if chi == 3:
        _expect(certificate.feasibility_verdict == catalog.VERDICT_EXCEPTIONAL_EXCLUDED,
                "chi = 3 must take the exceptional branch")
        _expect(certificate.exceptional_witness == (1, 0),
                "the exceptional witness must be the negative section")
    else:
        _expect(certificate.feasibility_verdict == catalog.VERDICT_INFEASIBLE,
                "unexpected exceptional branch at chi = {}", chi)
    _expect(certificate.witness_virtual_count == e + 1,
            "witness count {} instead of {} at chi = {}",
            certificate.witness_virtual_count, e + 1, chi)


@_check("stable-bicanonical-count", "h0 of 2K equals chi + K^2 - 1 and differs from chi + K^2")
@_per_chi(3)
def _check_stable_bicanonical(builds, chi):
    record = builds.stable(chi).record
    value = stable.h0_2K(record)
    if 3 * value != 3 * chi + record.k_squared_thirds - 3:
        raise _CheckFailure(f"bicanonical count {value} instead of "
                            f"{chi + record.k_squared - 1} at chi = {chi}")
    _expect(record.in_component_without_canonical_models,
            "no-canonical-models flag not set at chi = {}", chi)


@_check("stable-tricanonical-lift",
        "the resolved tri-canonical class is the node pullback of the certified "
        "ample divisor minus the new exceptional classes")
@_per_chi(3)
def _check_stable_tricanonical_lift(builds, chi):
    construction = builds.stable(chi)
    certificate = construction.recipe.certificates[0]
    resolved_cls = construction.recipe.report.canonical_multiple.cls
    resolved_surface = resolved_cls.surface
    lifted = (lattice.pullback(resolved_surface, certificate.divisor)
              - resolved_surface.exceptional_sum())
    _expect(resolved_cls == lifted, "resolved tri-canonical class is not the node pullback "
            "of the certified divisor at chi = {}", chi)


def _epsilon_case(chi, epsilon):
    # compared in integer thirds (3*K^2); the bound comes first, so a record above
    # it is named as such
    bound = 8 * chi - 16
    record = catalog.epsilon_family(chi, epsilon)
    thirds = record.k_squared_thirds
    _expect(thirds <= bound, "bound violated at chi = {}, epsilon = {}", chi, epsilon)
    _expect((thirds == bound) == (3 * epsilon == 2 * chi + 2),
            "bound equality mischaracterised at chi = {}, epsilon = {}", chi, epsilon)
    if thirds != 3 * (2 * chi - 6 + epsilon):  # K^2, a Fraction, is made only on failure
        raise _CheckFailure(f"K^2 = {record.k_squared} at chi = {chi}, epsilon = {epsilon}")
    _expect(record.ledger.third11_count == 3 * epsilon,
            "ledger count wrong at chi = {}, epsilon = {}", chi, epsilon)


@_check("stable-epsilon-bound",
        "contracting 3*epsilon curves gives K^2 = 2*chi - 6 + epsilon within "
        "3*K^2 <= 8*chi - 16, with equality only at the top")
@_per_chi(4)
def _check_epsilon_bound(builds, chi):
    # epsilon in [1, top - 1], then top: the bound is an equality only at top, which
    # a region holding it leaves undecided.  A class of chi = r + 3t, whose top stays
    # affine, runs epsilon = s on the trapezoid 1 <= s <= top - 1 as one Planar; one
    # chi, its interval through _each
    top = (2 * chi + 2) // 3
    if type(chi) is int:
        _each(functools.partial(_epsilon_case, chi), range(1, top), "epsilon")
    else:
        _epsilon_case(chi, Planar(0, 0, 1, top - 1))
    _epsilon_case(chi, top)


@_check("minimality-nef-witnesses",
        "the tri-canonical divisor pairs nonnegatively with every witness curve "
        "and the feasibility analysis closes")
@_per_chi(4)
def _check_nef_witnesses(builds, chi):
    e, alpha, beta = catalog.pick_parameters(chi)
    recipe = builds.component_one.get(chi)
    certificate = (catalog.nef_certificate(e, alpha, beta) if recipe is None
                   else recipe.certificates[0])
    pairings = dict(certificate.pairings)
    _expect(pairings["exceptional curve"] == 1,
            "exceptional pairing is not 1 at chi = {}", chi)
    _expect(pairings["fiber through a blown-up point"] == 1,
            "fiber pairing is not 1 at chi = {}", chi)
    _expect(all(value >= 0 for value in pairings.values()),
            "negative witness pairing at chi = {}", chi)
    _expect(certificate.verdict == covers.NEF_CERTIFIED, "nef verdict is {} at chi = {}",
            certificate.verdict, chi)


@_check("germ-classifier", "double point germs classify to the expected A types")
def _check_germ_classifier(chi_max, k_max, builds):
    table = {(20, 5): "A_4", (2, 2): "A_1", (7, 3): "A_2", (80, 5): "A_4"}
    for (m, p), label in sorted(table.items()):
        got = covers.classify_germ(m, p)
        _expect(got == label, "germ x^2 + x^{} + y^{} classified {}, expected {}",
                m, p, got, label)


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _identity, _fn in _CHECKS)


def run_verification(chi_max: int = 30, k_max: int = 6,
                     fault: str | None = None) -> VerificationOutcome:
    """Run every identity check over the requested ranges.

    ``chi_max`` must be at least 6 so that all three residue classes of
    the parameter table are exercised, and ``k_max`` at least 2 so that
    both second-component cover shapes appear.  Both must be ``int``s,
    and both are capped at ``RANGE_CAP``, so that every run is bounded.
    An optional named fault from the fault registry is injected for the
    duration of the run.  Each check runs a residue class of chi, k or
    epsilon that holds more cases than its family's break-even (see
    ``runner._FAMILIES``) once, on an ``Affine``, and the rest case by case
    (see ``runner._each``); the outcome is the one a run of every case would give.
    The parity check reads each case's fibers from the run's cover of chi
    or of a class of chi mod 3 that holds it, so from chi_max = 7 it builds
    no cover of its own.
    """
    for name, value in (("chi_max", chi_max), ("k_max", k_max)):
        if type(value) is not int:  # no Affine: a range is never symbolic
            raise ValueError(f"{name} must be an integer, got {value!r:.80}")
    if chi_max < 6:
        raise ValueError("chi_max must be at least 6 to cover all residue classes")
    if k_max < 2:
        raise ValueError("k_max must be at least 2 to cover both cover shapes")
    for name, value in (("chi_max", chi_max), ("k_max", k_max)):
        if value > RANGE_CAP:
            raise ValueError(f"{name} must be at most {RANGE_CAP}, the cap on verified ranges")
    if fault is None:
        checks = _run_checks(chi_max, k_max)
    else:
        from . import faults

        with faults.injected(fault):
            checks = _run_checks(chi_max, k_max)
    return VerificationOutcome(chi_max=chi_max, k_max=k_max, fault=fault, checks=checks)


def _run_checks(chi_max: int, k_max: int) -> tuple[CheckResult, ...]:
    # One build of component I's cover or of the stable surface per chi, of component II
    # per k, or per residue class of either, per run; the parity check reads the covers
    # of the cover checks, and builds only a chi or class that none of them holds (at
    # chi_max = 6, chi = 7).  The builders are read here, inside any injected fault, and the
    # memo dies with the run.  A build that raises is not kept, so each check
    # that asks for it reports its own error.
    # The two certificate checks only look: where the run holds the build
    # of a chi, they read the certificate it issued from the same (e, alpha,
    # beta); elsewhere they issue their own, so a build that raised fails
    # only the checks that need the build itself.
    builds = _Builds(_Memo(catalog._component_one_cover),
                     _Memo(catalog.build_stable),
                     _Memo(catalog.build_component_two))
    results = []
    for name, identity, fn in _CHECKS:
        try:
            fn(chi_max, k_max, builds)
        except _CheckFailure as failure:
            results.append(CheckResult(name, identity, False, str(failure)))
        except Exception as error:  # a broken pipeline is a failed identity too
            results.append(CheckResult(
                name, identity, False,
                f"pipeline error: {type(error).__name__}: {error}",
            ))
        else:
            results.append(CheckResult(name, identity, True))
    return tuple(results)
