"""Self-contained identity suite over the construction pipelines.

Every check recomputes its expected values from scratch (closed formulas,
independent enumerations) instead of trusting the pipeline outputs, so a
single wrong coefficient anywhere in the calculus surfaces as a named
failing identity.  The suite is deterministic: fixed seeds, fixed check
order, no environment dependence.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, NamedTuple

from . import catalog, covers, lattice, stable
from .lattice import Hirzebruch, ProjectivePlane
from .reporting import RANGE_CAP, CheckResult, VerificationOutcome


class _CheckFailure(Exception):
    pass


class _Memo(dict):
    """One builder's builds in one run, by chi or k: ``memo(key)`` builds on
    a miss, ``memo.get(key)`` only looks, and a build that raises is not kept."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value

    __call__ = dict.__getitem__


class _Builds(NamedTuple):
    """The builders the checks share within one run, each a ``_Memo`` by chi or k."""

    component_one: Callable[[int], catalog.ConstructionRecipe]
    stable: Callable[[int], catalog.StableConstruction]
    component_two: Callable[[int], catalog.ConstructionRecipe] = catalog.build_component_two


def _expect(condition: bool, detail: str):
    if not condition:
        raise _CheckFailure(detail)


# ---------------------------------------------------------------------------
# independent oracles

@functools.cache
def _enumerate_scroll_sections(e: int, a: int, b: int) -> int:
    """Count monomials t1^c1 t2^c2 x1^d1 x2^d2 of class a*D0 + b*F directly."""
    count = 0
    for d1 in range(0, a + 1):
        for c1 in range(0, b + 1):
            c2 = b - e * d1 - c1
            if c2 >= 0:
                count += 1
    return count


@functools.cache
def _enumerate_plane_sections(d: int) -> int:
    count = 0
    for i in range(0, d + 1):
        for j in range(0, d - i + 1):
            count += 1
    return count


def _sample_surfaces():
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
def _bilinearity_draws(ranks: tuple[int, ...]) -> tuple:
    """400 cases (u, v, w, m): three coefficient vectors on sample surface
    n % len(ranks), then a scalar, in the order they are drawn."""
    rng = random.Random(20260808)
    cases = []
    for n in range(400):
        rank = ranks[n % len(ranks)]
        cases.append((_draw_vector(rng, rank), _draw_vector(rng, rank),
                      _draw_vector(rng, rank), rng.randint(-6, 6)))
    return tuple(cases)


_ISOMETRY_POINT_COUNTS = (1, 5, 17)


@functools.cache
def _isometry_draws(ranks: tuple[int, ...]) -> tuple:
    """Per ruled surface, per point count, 30 pairs of coefficient vectors."""
    rng = random.Random(1729)
    return tuple(tuple(tuple((_draw_vector(rng, rank), _draw_vector(rng, rank))
                             for _ in range(30))
                       for _n in _ISOMETRY_POINT_COUNTS)
                 for rank in ranks)


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
    surfaces = _sample_surfaces()
    draws = _bilinearity_draws(tuple(map(lattice.picard_rank, surfaces)))
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
    draws = _isometry_draws(tuple(map(lattice.picard_rank, ruled_surfaces)))
    for ruled, per_count in zip(ruled_surfaces, draws):
        for n, pairs in zip(_ISOMETRY_POINT_COUNTS, per_count):
            blown = lattice.blow_up(ruled, n)
            first = blown.exceptional(1)
            for v1, v2 in pairs:
                d1 = ruled.divisor(v1)
                d2 = ruled.divisor(v2)
                p1 = lattice.pullback(blown, d1)
                p2 = lattice.pullback(blown, d2)
                # the detail is formatted only on failure
                if p1.dot(p2) != d1.dot(d2):
                    raise _CheckFailure(f"pullback not isometric on F_{ruled.e} + {n}")
                _expect(
                    p1.dot(first) == 0,
                    "pullback not orthogonal to exceptional classes",
                )


@_check("lattice-canonical-squares",
        "K^2 is 9 on the plane, 8 on every ruled surface, and drops by 1 per blown-up point")
def _check_canonical_squares(chi_max, k_max, builds):
    _expect(lattice.canonical_class(ProjectivePlane()).square() == 9,
            "plane canonical square is not 9")
    for e in range(0, 7):
        _expect(lattice.canonical_class(Hirzebruch(e)).square() == 8,
                f"F_{e} canonical square is not 8")
    for n in (1, 2, 7, 40):
        blown = lattice.blow_up(Hirzebruch(1), n)
        _expect(lattice.canonical_class(blown).square() == 8 - n,
                f"canonical square does not drop by {n} under {n} blow-ups")


@_check("lattice-section-count-oracle",
        "closed-form section counts match the monomial enumeration oracle")
def _check_section_count_oracle(chi_max, k_max, builds):
    for e in range(0, 5):
        ruled = Hirzebruch(e)
        for a in range(0, 5):
            for b in range(0, 13):
                got = lattice.h0(ruled.divisor((a, b)))
                want = _enumerate_scroll_sections(e, a, b)
                # each detail is formatted only on failure
                if not (got.exact and got.value == want):
                    raise _CheckFailure(f"h0 on F_{e} of ({a},{b}) gave {got.value}, "
                                        f"enumeration gives {want}")
    plane = ProjectivePlane()
    for d in range(0, 9):
        got = lattice.h0(plane.divisor((d,)))
        want = _enumerate_plane_sections(d)
        if got.value != want:
            raise _CheckFailure(f"h0 on the plane of degree {d} disagrees with enumeration")


@_check("component-one-invariants",
        "first-line construction reports K^2 = 2*chi - 6, chi, p_g = chi - 1 "
        "and 3*K^2 equal to the tri-canonical square")
def _check_component_one_invariants(chi_max, k_max, builds):
    for chi in range(4, chi_max + 1):
        recipe = builds.component_one(chi)
        report = recipe.report
        _expect(report.k_squared == 2 * chi - 6,
                f"K^2 = {report.k_squared} instead of {2 * chi - 6} at chi = {chi}")
        _expect(report.chi == chi, f"chi = {report.chi} instead of {chi}")
        _expect(report.p_g == chi - 1,
                f"p_g = {report.p_g} instead of chi - 1 = {chi - 1} at chi = {chi}")
        cls = report.canonical_multiple.cls
        _expect(3 * report.k_squared == cls.dot(cls),
                f"3*K^2 differs from the tri-canonical square at chi = {chi}")


@_check("component-one-tricanonical-identity",
        "the tri-canonical class equals its fiber-plus-branch form coefficientwise")
def _check_tricanonical_identity(chi_max, k_max, builds):
    for chi in range(4, chi_max + 1):
        recipe = builds.component_one(chi)
        e, alpha, beta = recipe.parameters
        fiber = lattice.pullback(recipe.base, Hirzebruch(e).fiber())
        alt = (alpha + 2 * beta - 3 * e - 6) * fiber + recipe.branch[0]
        _expect(recipe.report.canonical_multiple.cls == alt,
                f"tri-canonical class disagrees with its fiber form at chi = {chi}")


@_check("component-two-invariants",
        "second-component covers report (8k, 4k+3), the stated bicanonical class, "
        "branch curve class 5*D0 + (10k+10)*F and the residue germ")
def _check_component_two_invariants(chi_max, k_max, builds):
    for k in range(1, k_max + 1):
        recipe = builds.component_two(k)
        report = recipe.report
        _expect((report.k_squared, report.chi) == (8 * k, 4 * k + 3),
                f"invariants {(report.k_squared, report.chi)} at k = {k}")
        _expect(report.p_g == 4 * k + 2, f"p_g = {report.p_g} at k = {k}")
        if k == 1:
            _expect(recipe.canonical_image == "P^2", "canonical image at k = 1 is not the plane")
            continue
        ruled = Hirzebruch(2 * k + 2)
        _expect(2 * report.canonical_multiple.cls == ruled.divisor((2, 6 * k + 2)),
                f"bicanonical class wrong at k = {k}")
        _expect(covers.scroll_class(recipe.scroll_curve) == ruled.divisor((5, 10 * k + 10)),
                f"branch curve class wrong at k = {k}")
        _expect(covers.t1_scaling_invariant(recipe.scroll_curve),
                f"branch curve not symmetric at k = {k}")
        if k % 3 == 1:
            _expect(recipe.germ == "A_4", f"germ {recipe.germ} at k = {k}")
        else:
            _expect(recipe.germ is None, f"unexpected germ at k = {k}")


@_check("component-two-symmetry-residues",
        "each branch curve family is symmetric exactly in its own residue class")
def _check_scroll_symmetry_residues(chi_max, k_max, builds):
    for k in range(2, max(k_max, 5) + 1):
        for residue in (0, 1, 2):
            curve = catalog.scroll_family_curve(residue, k)
            expected = residue == k % 3
            got = covers.t1_scaling_invariant(curve)
            _expect(got == expected,
                    f"symmetry check gave {got} for the residue {residue} family at k = {k}")


@_check("classification-components",
        "component count is 2 exactly when K^2 is a multiple of 8, with the stated images")
def _check_classification(chi_max, k_max, builds):
    for chi in range(4, chi_max + 1):
        k_squared = 2 * chi - 6
        info = catalog.classify(k_squared, chi)
        expected = 2 if k_squared % 8 == 0 else 1
        _expect(info.count == expected,
                f"component count {info.count} instead of {expected} at chi = {chi}")
        if expected == 2:
            quarter = k_squared // 4
            if k_squared > 8:
                _expect(info.images.second == (f"F_{quarter + 2}",),
                        f"second component image wrong at chi = {chi}")
            else:
                _expect(info.images.second == (catalog.P2_IMAGE, catalog.CONE_IMAGE),
                        "second component images wrong at K^2 = 8")
    for k in range(1, k_max + 1):
        recipe = builds.component_two(k)
        info = catalog.classify(8 * k, 4 * k + 3)
        _expect(recipe.canonical_image in info.images.second,
                f"constructed canonical image not among the classified ones at k = {k}")


@_check("classification-parity-discriminator",
        "two (-3)-curve fibers certify the first component")
def _check_parity_discriminator(chi_max, k_max, builds):
    _expect(catalog.parity_discriminator([-3, -3]) == catalog.COMPONENT_I,
            "odd self-intersections must certify the first component")
    _expect(catalog.parity_discriminator([-2, -2, 0]) == catalog.PARITY_INCONCLUSIVE,
            "even data must be inconclusive")
    _expect(catalog.parity_discriminator([]) == catalog.PARITY_INCONCLUSIVE,
            "vacuous data must be inconclusive")
    # chi = 7 is always tested, so the check has a case below chi_max = 7
    for k in range(1, max(1, (chi_max - 3) // 4) + 1):
        chi = 4 * k + 3
        recipe = builds.component_one(chi)
        verdict = catalog.parity_discriminator(recipe.fiber_component_self_intersections)
        _expect(verdict == catalog.COMPONENT_I == recipe.component_claim,
                f"fiber parity does not certify the first component at chi = {chi}")


@_check("stable-invariants",
        "stable construction reports K^2 = 2*chi - 5 with three one-third quotient "
        "points and divisor square 3*K^2")
def _check_stable_invariants(chi_max, k_max, builds):
    for chi in range(3, chi_max + 1):
        construction = builds.stable(chi)
        record = construction.record
        _expect(record.k_squared == 2 * chi - 5,
                f"stable K^2 = {record.k_squared} instead of {2 * chi - 5} at chi = {chi}")
        _expect(record.chi == chi, f"stable chi = {record.chi} at chi = {chi}")
        _expect(record.ledger.third11_count == 3,
                f"{record.ledger.third11_count} quotient points instead of 3 at chi = {chi}")
        _expect(not record.smoothable, "stable surface must not be smoothable")
        certificate = construction.recipe.certificates[0]
        _expect(certificate.self_intersection == 3 * record.k_squared,
                f"divisor square is not 3*K^2 at chi = {chi}")
        resolved = construction.recipe.report
        _expect(resolved.chi == chi, f"resolution changed chi at chi = {chi}")
        _expect(record.k_squared - resolved.k_squared == 1,
                f"contraction gain is not 1 at chi = {chi}")


@_check("stable-ampleness-certificate",
        "feasibility is impossible except at chi = 3, where only the negative "
        "section survives and general position excludes it")
def _check_stable_certificates(chi_max, k_max, builds):
    for chi in range(3, chi_max + 1):
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
                    f"unexpected exceptional branch at chi = {chi}")
        _expect(certificate.witness_virtual_count == e + 1,
                f"witness count {certificate.witness_virtual_count} instead of "
                f"{e + 1} at chi = {chi}")


@_check("stable-bicanonical-count", "h0 of 2K equals chi + K^2 - 1 and differs from chi + K^2")
def _check_stable_bicanonical(chi_max, k_max, builds):
    for chi in range(3, chi_max + 1):
        record = builds.stable(chi).record
        value = stable.h0_2K(record)
        if 3 * value != 3 * chi + record.k_squared_thirds - 3:
            raise _CheckFailure(f"bicanonical count {value} instead of "
                                f"{chi + record.k_squared - 1} at chi = {chi}")
        _expect(record.in_component_without_canonical_models,
                f"no-canonical-models flag not set at chi = {chi}")


@_check("stable-tricanonical-lift",
        "the resolved tri-canonical class is the node pullback of the certified "
        "ample divisor minus the new exceptional classes")
def _check_stable_tricanonical_lift(chi_max, k_max, builds):
    for chi in range(3, chi_max + 1):
        construction = builds.stable(chi)
        certificate = construction.recipe.certificates[0]
        resolved_cls = construction.recipe.report.canonical_multiple.cls
        resolved_surface = resolved_cls.surface
        lifted = (lattice.pullback(resolved_surface, certificate.divisor)
                  - resolved_surface.exceptional_sum())
        _expect(resolved_cls == lifted,
                f"resolved tri-canonical class is not the node pullback of the "
                f"certified divisor at chi = {chi}")


@_check("stable-epsilon-bound",
        "contracting 3*epsilon curves gives K^2 = 2*chi - 6 + epsilon within "
        "3*K^2 <= 8*chi - 16, with equality only at the top")
def _check_epsilon_bound(chi_max, k_max, builds):
    # about chi_max**2 / 3 cases, compared in integer thirds (3*K^2); the bound
    # comes first, so a record above it is named as such, and each detail is
    # formatted only on failure
    for chi in range(4, chi_max + 1):
        bound = 8 * chi - 16
        for epsilon in range(1, (2 * chi + 2) // 3 + 1):
            record = catalog.epsilon_family(chi, epsilon)
            thirds = record.k_squared_thirds
            if not thirds <= bound:
                raise _CheckFailure(f"bound violated at chi = {chi}, epsilon = {epsilon}")
            if (thirds == bound) != (3 * epsilon == 2 * chi + 2):
                raise _CheckFailure(
                    f"bound equality mischaracterised at chi = {chi}, epsilon = {epsilon}")
            if thirds != 3 * (2 * chi - 6 + epsilon):
                raise _CheckFailure(
                    f"K^2 = {record.k_squared} at chi = {chi}, epsilon = {epsilon}")
            if record.ledger.third11_count != 3 * epsilon:
                raise _CheckFailure(f"ledger count wrong at chi = {chi}, epsilon = {epsilon}")


@_check("minimality-nef-witnesses",
        "the tri-canonical divisor pairs nonnegatively with every witness curve "
        "and the feasibility analysis closes")
def _check_nef_witnesses(chi_max, k_max, builds):
    for chi in range(4, chi_max + 1):
        e, alpha, beta = catalog.pick_parameters(chi)
        recipe = builds.component_one.get(chi)
        certificate = (catalog.nef_certificate(e, alpha, beta) if recipe is None
                       else recipe.certificates[0])
        pairings = dict(certificate.pairings)
        _expect(pairings["exceptional curve"] == 1,
                f"exceptional pairing is not 1 at chi = {chi}")
        _expect(pairings["fiber through a blown-up point"] == 1,
                f"fiber pairing is not 1 at chi = {chi}")
        _expect(all(value >= 0 for value in pairings.values()),
                f"negative witness pairing at chi = {chi}")
        _expect(certificate.verdict == covers.NEF_CERTIFIED,
                f"nef verdict is {certificate.verdict} at chi = {chi}")


@_check("germ-classifier", "double point germs classify to the expected A types")
def _check_germ_classifier(chi_max, k_max, builds):
    table = {(20, 5): "A_4", (2, 2): "A_1", (7, 3): "A_2", (80, 5): "A_4"}
    for (m, p), label in sorted(table.items()):
        got = covers.classify_germ(m, p)
        _expect(got == label, f"germ x^2 + x^{m} + y^{p} classified {got}, expected {label}")


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _identity, _fn in _CHECKS)


def run_verification(chi_max: int = 30, k_max: int = 6,
                     fault: str | None = None) -> VerificationOutcome:
    """Run every identity check over the requested ranges.

    ``chi_max`` must be at least 6 so that all three residue classes of
    the parameter table are exercised, and ``k_max`` at least 2 so that
    both second-component cover shapes appear.  Both must be ``int``s,
    and both are capped at ``RANGE_CAP``, because the cost grows with
    chi_max squared.  An optional named fault from the fault registry is
    injected for the duration of the run.
    """
    lattice.require_int("chi_max", chi_max)
    lattice.require_int("k_max", k_max)
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
    # One build per chi per run.  The builders are read here, inside any
    # injected fault, and the memo dies with the run.  A build that raises
    # is not kept, so each check that asks for it reports its own error.
    # The two certificate checks only look: where the run holds the build
    # of a chi, they read the certificate it issued from the same (e, alpha,
    # beta); elsewhere they issue their own, so a build that raised fails
    # only the checks that need the build itself.
    builds = _Builds(_Memo(catalog.build_component_one),
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
