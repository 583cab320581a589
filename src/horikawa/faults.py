"""Named faults for exercising the verification suite, one source edit each.

A fault replaces the text ``old`` by ``new`` in the source of its
``target`` function (``"module.function"``), changing one coefficient,
sign, term or literal of the formula that actually runs.  ``old`` must
occur exactly once, so a refactor that moves the formula fails loudly
instead of leaving a fault that mutates nothing.  The verification suite
must flag every fault by a failing named identity; nothing here is used
outside of verification runs and tests.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from typing import NamedTuple


class Fault(NamedTuple):
    summary: str
    target: str
    old: str
    new: str


REGISTRY: dict[str, Fault] = {
    # -- lattice ------------------------------------------------------------
    "pairing-negative-section-sign": Fault(
        "the negative section squares to +e instead of -e",
        "lattice._hirzebruch_dot", "return -e * u[0]", "return e * u[0]"),
    "pairing-drops-transpose-term": Fault(
        "the ruled surface pairing loses one of its two cross terms",
        "lattice._hirzebruch_dot", " + u[1] * v[0]", ""),
    "pairing-exceptional-sign": Fault(
        "exceptional curves square to +1 instead of -1",
        "lattice._exceptional_dot", "return -total", "return total"),
    "canonical-ruled-fiber-coefficient": Fault(
        "the ruled surface canonical class uses fiber coefficient e+1",
        "lattice.canonical_class", "-(surface.e + 2)", "-(surface.e + 1)"),
    "canonical-blowup-sign": Fault(
        "blow-ups subtract the exceptional sum from the canonical class",
        "lattice.canonical_class",
        "+ surface.exceptional_sum()", "- surface.exceptional_sum()"),
    "pullback-pads-with-one": Fault(
        "pullback sets the last exceptional coefficient to 1 instead of 0",
        "lattice.pullback", "runs + ((0, zeros),))",
        "runs + ((0, zeros),)) + surface.exceptional(surface.point_count)"),
    "sections-ruled-off-by-one": Fault(
        "ruled surface section counts drop the +1 per summand",
        "lattice._hirzebruch_sections", "b - i * e + 1", "b - i * e"),
    "blowup-drops-a-point": Fault(
        "blowing up n points only adds n-1 exceptional classes",
        "lattice.blow_up", "BlowUp(surface, point_count,",
        "BlowUp(surface, max(1, point_count - 1),"),
    # -- covers ---------------------------------------------------------
    "root-class-multiplier": Fault(
        "the weighted branch sum uses weight 2 for the first divisor",
        "covers._root", "weighted + j * d", "weighted + (j + 1) * d"),
    "double-cover-ksq-factor": Fault(
        "double cover K^2 uses factor 3 instead of 2",
        "covers.cover_invariants", "square = n *", "square = (3 if n == 2 else n) *"),
    "double-cover-chi-missing-half": Fault(
        "double cover chi doubles the pairing term",
        "covers.cover_invariants", "+ pairing // 2", "+ pairing // (1 if n == 2 else 2)"),
    "triple-cover-ksq-shift": Fault(
        "triple cover K^2 gains a unit",
        "covers.cover_invariants", "square // (m * m),", "square // (m * m) + (n == 3),"),
    "triple-cover-chi-shift": Fault(
        "triple cover chi counts the base four times instead of three",
        "covers.cover_invariants", "n * BASE_CHI", "(4 if n == 3 else n) * BASE_CHI"),
    "triple-cover-canonical-multiple-coefficient": Fault(
        "the reported tri-canonical class gains one fiber",
        "covers.cover_invariants", "CanonicalMultiple(m, canonical)",
        "CanonicalMultiple(m, canonical if n == 2 else canonical"
        " + DivisorClass._make(spec.base, (0, 1), spec.base.zero().runs))"),
    "scroll-class-weight-swap": Fault(
        "scroll classes weight x2 instead of x1 by e",
        "covers._scroll_monomial_class", "e * d1 +", "e * d2 +"),
    "germ-index-shift": Fault(
        "the germ classifier reports A_p instead of A_{p-1}",
        "covers.classify_germ", 'f"A_{p - 1}"', 'f"A_{p}"'),
    # -- stable ---------------------------------------------------------
    "contraction-gain-half": Fault(
        "each contracted curve adds 1/2 instead of 1/3 to K^2",
        "stable.contract_minus3",
        "3 * k_squared_smooth + count,",
        '3 * k_squared_smooth + __import__("fractions").Fraction(3 * count, 2),'),
    "rr-correction-sign": Fault(
        "the local bicanonical correction is +1/3 per quotient point",
        "stable.rr_correction_thirds", "return -ledger", "return ledger"),
    "bicanonical-missing-correction": Fault(
        "h0 of 2K forgets the local correction term",
        "stable.h0_2K", " + rr_correction_thirds(record.ledger)", ""),
    "resolution-ksq-shift": Fault(
        "the contraction starts from one above the resolved K^2",
        "catalog.build_stable",
        "resolved.k_squared, RETAINED_NODES", "resolved.k_squared + 1, RETAINED_NODES"),
    # -- catalog --------------------------------------------------------
    "parameter-table-beta": Fault(
        "the parameter table inflates beta by 3 for chi divisible by 3",
        "catalog.pick_parameters", "2 * e + 1)", "2 * e + 1 + 3 * (e == 1))"),
    "ampleness-coefficient-shift": Fault(
        "the feasibility coefficient gains a unit",
        "catalog._ampleness_certificate",
        "coefficient = alpha + beta - 3 * e - 4", "coefficient = alpha + beta - 3 * e - 3"),
    "scroll-family-exponent": Fault(
        "the middle branch monomial of the residue 2 family loses one power of t1",
        "catalog.scroll_family_curve", "(top - j, j,", "(top - j - (j == 0), j,"),
    "epsilon-family-ksq": Fault(
        "the contracted family contracts 6*epsilon curves, doubling the epsilon gain",
        "catalog.epsilon_family", "2 * chi - 6, 3 * epsilon", "2 * chi - 6, 6 * epsilon"),
    "fiber-data-evened": Fault(
        "first-line recipes record (-2, -2) fiber components",
        "catalog._component_one_cover",
        "fiber_component_self_intersections=(-3, -3)",
        "fiber_component_self_intersections=(-2, -2)"),
}


def fault_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def _function(fault: Fault):
    """The target's own function object, seen through any ``functools.wraps`` wrapper."""
    module, attribute = fault.target.split(".")
    module = importlib.import_module(f"{__package__}.{module}")
    return inspect.unwrap(getattr(module, attribute))


@functools.cache
def mutant(name: str):
    """The target function of the named fault, compiled with the fault's one edit.

    Raises ``LookupError`` naming the fault and the target unless ``old``
    occurs exactly once in the target's source.
    """
    import __future__

    fault = REGISTRY[name]
    original = _function(fault)
    source = inspect.getsource(original)
    count = source.count(fault.old)
    if count != 1:
        raise LookupError(f"fault {name!r}: {fault.old!r} occurs {count} times in "
                          f"{fault.target}, not exactly once")
    # blank lines keep the mutant's line numbers those of the module file
    padded = "\n" * (original.__code__.co_firstlineno - 1) + \
        source.replace(fault.old, fault.new)
    code = compile(padded, inspect.getsourcefile(original), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, original.__globals__, namespace)  # globals are the module's, the def lands here
    return namespace[original.__name__]


@contextmanager
def injected(name: str):
    """Temporarily install the named fault, restoring the original code on exit.

    The mutant's code replaces the target function's own code object, so
    every reference to the function, a ``functools.wraps`` wrapper
    included, runs the fault.  An unknown name raises ValueError, which
    ``verify-paper`` reports as a usage error.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown fault {name!r}; known faults: {', '.join(fault_names())}")
    function = _function(REGISTRY[name])
    original = function.__code__
    function.__code__ = mutant(name).__code__
    try:
        yield
    finally:
        function.__code__ = original
