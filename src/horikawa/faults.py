"""Named single-coefficient faults for exercising the verification suite.

Each fault temporarily replaces one function of the calculus with a copy
whose formula has exactly one coefficient, sign or term changed.  The
verification suite must flag every one of them by a failing named
identity; this is the harness self-test demanded of the project.  Nothing
here is used outside of verification runs and tests.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Fault:
    name: str
    summary: str
    module: str
    attribute: str
    wrap: Callable[[Callable], Callable]


def _registry() -> dict[str, Fault]:
    faults: dict[str, Fault] = {}

    def add(name, summary, module, attribute, wrap):
        faults[name] = Fault(name, summary, f"horikawa.{module}", attribute, wrap)

    # -- lattice ------------------------------------------------------------
    add("pairing-negative-section-sign",
        "the negative section squares to +e instead of -e",
        "lattice", "_hirzebruch_dot",
        lambda orig: lambda e, u, v: e * u[0] * v[0] + u[0] * v[1] + u[1] * v[0])
    add("pairing-drops-transpose-term",
        "the ruled surface pairing loses one of its two cross terms",
        "lattice", "_hirzebruch_dot",
        lambda orig: lambda e, u, v: -e * u[0] * v[0] + u[0] * v[1])
    add("pairing-exceptional-sign",
        "exceptional curves square to +1 instead of -1",
        "lattice", "_exceptional_dot",
        lambda orig: lambda u, v: _exceptional_dot_plus(u, v))
    add("canonical-ruled-fiber-coefficient",
        "the ruled surface canonical class uses fiber coefficient e+1",
        "lattice", "canonical_class",
        lambda orig: lambda s: (
            s.divisor((-2, -(s.e + 1)))
            if type(s).__name__ == "Hirzebruch" else orig(s)))
    add("canonical-blowup-sign",
        "blow-ups subtract the exceptional sum from the canonical class",
        "lattice", "canonical_class",
        lambda orig: lambda s: (
            _blowup_canonical_minus(s) if type(s).__name__ == "BlowUp" else orig(s)))
    add("pullback-pads-with-one",
        "pullback sets the last exceptional coefficient to 1 instead of 0",
        "lattice", "pullback",
        lambda orig: lambda s, d: _pullback_padded_wrong(orig, s, d))
    add("sections-ruled-off-by-one",
        "ruled surface section counts drop the +1 per summand",
        "lattice", "_hirzebruch_sections",
        lambda orig: lambda e, a, b: (
            sum(max(0, b - i * e) for i in range(a + 1)) if a >= 0 else 0))
    add("blowup-drops-a-point",
        "blowing up n points only adds n-1 exceptional classes",
        "lattice", "blow_up",
        lambda orig: lambda s, n, general_position=True: orig(
            s, max(1, n - 1), general_position))

    # -- covers ---------------------------------------------------------
    add("root-class-multiplier",
        "the weighted branch sum uses weight 2 for the first divisor",
        "covers", "derive_root",
        lambda orig: lambda degree, branch, base=None: _derive_root_wrong(degree, branch, base))
    add("double-cover-ksq-factor",
        "double cover K^2 uses factor 3 instead of 2",
        "covers", "double_cover_invariants",
        lambda orig: lambda spec: _scale_ksq(orig(spec), Fraction(3, 2)))
    add("double-cover-chi-missing-half",
        "double cover chi doubles the pairing term",
        "covers", "double_cover_invariants",
        lambda orig: lambda spec: _shift_chi_by_pairing(orig(spec)))
    add("triple-cover-ksq-shift",
        "triple cover K^2 gains a unit",
        "covers", "triple_cover_invariants",
        lambda orig: lambda spec: dc_replace(
            orig(spec), k_squared=orig(spec).k_squared + 1))
    add("triple-cover-chi-shift",
        "triple cover chi gains a unit",
        "covers", "triple_cover_invariants",
        lambda orig: lambda spec: dc_replace(orig(spec), chi=orig(spec).chi + 1))
    add("triple-cover-canonical-multiple-coefficient",
        "the tri-canonical class gains one fiber",
        "covers", "triple_cover_invariants",
        lambda orig: lambda spec: _bump_canonical_multiple(orig(spec)))
    add("scroll-class-weight-swap",
        "scroll classes weight x2 instead of x1 by e",
        "covers", "scroll_class",
        lambda orig: lambda curve: _scroll_class_wrong(curve))
    add("germ-index-shift",
        "the germ classifier reports A_p instead of A_{p-1}",
        "covers", "classify_germ",
        lambda orig: lambda m, p: f"A_{p}")

    # -- stable ---------------------------------------------------------
    add("contraction-gain-half",
        "each contracted curve adds 1/2 instead of 1/3 to K^2",
        "stable", "contract_minus3",
        lambda orig: lambda chi, k2, count: _contract_wrong_gain(orig, chi, k2, count))
    add("rr-correction-sign",
        "the local bicanonical correction is +1/3 per quotient point",
        "stable", "rr_correction",
        lambda orig: lambda ledger: Fraction(ledger.third11_count, 3))
    add("bicanonical-missing-correction",
        "h0 of 2K forgets the local correction term",
        "stable", "h0_2K",
        lambda orig: _h0_2k_without_correction)
    add("resolution-ksq-shift",
        "the canonical resolution loses one from K^2",
        "stable", "resolve_node_bookkeeping",
        lambda orig: lambda spec: _shift_resolution(orig(spec)))

    # -- catalog --------------------------------------------------------
    add("parameter-table-beta",
        "the parameter table inflates beta by 3",
        "catalog", "pick_parameters",
        lambda orig: lambda chi: _bump_beta(orig(chi)))
    add("ampleness-coefficient-shift",
        "the feasibility coefficient gains a unit",
        "catalog", "ampleness_certificate",
        lambda orig: lambda e, alpha, beta, general_position=True: _shift_certificate(
            orig(e, alpha, beta, general_position=general_position)))
    add("scroll-family-exponent",
        "the middle branch monomial loses one power of t1",
        "catalog", "scroll_family_curve",
        lambda orig: lambda residue, k: _tweak_family_curve(orig(residue, k)))
    add("epsilon-family-ksq",
        "the contracted family doubles the epsilon gain",
        "catalog", "epsilon_family",
        lambda orig: lambda chi, epsilon: _bump_record_ksq(orig(chi, epsilon), epsilon))
    add("fiber-data-evened",
        "first-line recipes record (-2, -2) fiber components",
        "catalog", "build_component_one",
        lambda orig: lambda chi, general_position=True, smoothness_assumed=True: dc_replace(
            orig(chi, general_position, smoothness_assumed),
            fiber_component_self_intersections=(-2, -2)))

    return faults


def _blowup_canonical_minus(surface):
    from . import lattice

    return lattice.pullback(surface, lattice.canonical_class(surface.base)) - \
        surface.exceptional_sum()


def _exceptional_dot_plus(u, v):
    from . import lattice

    return sum(x * y * length for x, y, length in lattice._aligned(u, v))


def _pullback_padded_wrong(orig, surface, d):
    from . import lattice

    result = orig(surface, d)
    coeffs = list(result.coeffs)
    coeffs[-1] = coeffs[-1] + 1
    return lattice.DivisorClass(surface, tuple(coeffs))


def _derive_root_wrong(degree, branch, base):
    from . import lattice
    from .covers import BuildingDataError

    branch = tuple(branch)
    if base is None:
        base = branch[0].surface
    weighted = base.zero()
    for j, d in enumerate(branch, start=1):
        weighted = weighted + (j + 1) * d

    def quotient(c):
        q, r = divmod(c, degree)
        if r:
            raise BuildingDataError(f"coefficient {c} not divisible by {degree}")
        return q

    return lattice.DivisorClass._make(
        base, tuple([quotient(c) for c in weighted.head]),
        tuple([(quotient(c), length) for c, length in weighted.runs]))


def _scale_ksq(report, factor):
    return dc_replace(report, k_squared=report.k_squared * factor)


def _shift_chi_by_pairing(report):
    return dc_replace(report, chi=2 * report.chi - 2)


def _bump_canonical_multiple(report):
    from .covers import CanonicalMultiple

    cls = report.canonical_multiple.cls
    coeffs = list(cls.coeffs)
    coeffs[1] = coeffs[1] + 1
    bumped = type(cls)(cls.surface, tuple(coeffs))
    return dc_replace(report, canonical_multiple=CanonicalMultiple(
        report.canonical_multiple.multiple, bumped))


def _scroll_class_wrong(curve):
    from . import lattice

    classes = {(d1 + d2, curve.e * d2 + c1 + c2) for (c1, c2, d1, d2) in curve.monomials}
    if len(classes) != 1:
        raise ValueError(f"inhomogeneous monomial set: classes {sorted(classes)}")
    a, b = classes.pop()
    return lattice.Hirzebruch(curve.e).divisor((a, b))


def _contract_wrong_gain(orig, chi, k2, count):
    return dc_replace(orig(chi, k2, count), k_squared=Fraction(k2) + Fraction(count, 2))


def _h0_2k_without_correction(record):
    total = record.chi + record.k_squared
    if total.denominator != 1:
        from .stable import LedgerError

        raise LedgerError("bicanonical count is not an integer")
    return int(total)


def _shift_resolution(resolution):
    from .stable import NodeResolution

    shifted = dc_replace(resolution.resolved, k_squared=resolution.resolved.k_squared - 1)
    return NodeResolution(shifted, resolution.unresolved)


def _bump_beta(parameters):
    e, alpha, beta = parameters
    return (e, alpha, beta + 3)


def _shift_certificate(certificate):
    from . import catalog

    verdict = (catalog.VERDICT_INFEASIBLE
               if certificate.feasibility_verdict == catalog.VERDICT_EXCEPTIONAL_EXCLUDED
               else catalog.VERDICT_EXCEPTIONAL_EXCLUDED)
    return dc_replace(certificate, feasibility_verdict=verdict,
                      coefficient=certificate.coefficient + 1)


def _tweak_family_curve(curve):
    from .covers import ScrollCurve

    monomials = set()
    for (c1, c2, d1, d2) in curve.monomials:
        if d2 == 5 and c1 > 0 and c2 <= 2:
            monomials.add((c1 - 1, c2, d1, d2))
        else:
            monomials.add((c1, c2, d1, d2))
    return ScrollCurve(e=curve.e, monomials=frozenset(monomials))


def _bump_record_ksq(record, epsilon):
    return dc_replace(record, k_squared=record.k_squared + epsilon)


REGISTRY: dict[str, Fault] = _registry()


def fault_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


@contextmanager
def injected(name: str):
    """Temporarily install the named fault, restoring the original on exit."""
    if name not in REGISTRY:
        raise KeyError(f"unknown fault {name!r}; known faults: {', '.join(fault_names())}")
    fault = REGISTRY[name]
    module = importlib.import_module(fault.module)
    original = getattr(module, fault.attribute)
    setattr(module, fault.attribute, fault.wrap(original))
    try:
        yield
    finally:
        setattr(module, fault.attribute, original)
