"""The case runner of ``verify``: the memo of a run's builds, and the loop that runs a
check's cases by residue class.

``_each`` runs a check body on each residue class of its cases that holds more
cases than its family's break-even as one ``Affine`` case, and on the rest, and
on every case of a class whose symbolic pass raised, as ints, in ascending order.
``_Memo`` keeps one builder's builds in one run.  ``verify`` binds each name
as a module global, where its check bodies call them.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .records import Affine


class _CheckFailure(Exception):
    pass


def _key(n):
    # an Affine is unhashable: its coefficients and interval stand for it
    return n if type(n) is int else (n.a, n.b, n.lo, n.hi)


class _Memo(dict):
    """One builder's builds in one run, by chi or k, an Affine one by ``_key``:
    ``memo(chi)`` builds on a miss, ``memo.get(chi)`` only looks,
    ``memo.holding(chi)`` also takes a held class that holds chi, and a build
    that raises is not kept."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key if type(key) is int else Affine(*key))
        return value

    def __call__(self, chi):
        return self[_key(chi)]

    def get(self, chi):
        return dict.get(self, _key(chi))

    def holding(self, chi):
        """The build held under chi's key, else a held class Affine(a, b, lo, hi)
        holding every member of chi: b divides chi's step, and chi's residue and both
        ends fall in the class.  Only where none is held does it build chi's own.  A
        field that a class build leaves free of Affine is that field at each member."""
        key = _key(chi)
        if key not in self:
            first, last, step = (chi, chi, 0) if type(chi) is int else (
                chi.a + chi.b * chi.lo, chi.a + chi.b * chi.hi, chi.b)
            for held in self:
                if type(held) is tuple:
                    a, b, lo, hi = held
                    if step % b == (first - a) % b == 0 and all(
                            a + b * lo <= end <= a + b * hi for end in (first, last)):
                        return self[held]
        return self[key]


class _Builds(NamedTuple):
    """The builds the checks share within one run: of component I's cover (its claim
    left out) and of the stable surfaces, each by chi or by the same classes of chi
    mod 3, and of component II by k.  The parity check reads the covers through
    ``holding``, so a class of chi mod 3 serves its chi and its classes of chi mod 12."""

    component_one: _Memo
    stable: _Memo
    component_two: _Memo


def _expect(condition: bool, detail: str, *values):
    # the detail is formatted only on failure, so never with an Affine
    if not condition:
        raise _CheckFailure(detail.format(*values))


# Each family of cases splits by residue class of n mod its modulus, a class holding
# only the n from its head up, and runs a class as one symbolic case where it holds
# more cases than its break-even: (modulus, head, break-even).  The head of chi mod 3
# keeps chi = 3 an int: stable-ampleness-certificate branches on chi == 3, which no
# class holding 3 decides, so class 0 begins at chi = 6 and all eight per-chi checks
# ask the memos for the same three classes.
# Break-evens measured on a shared 2-core x86_64 VM: one symbolic pass over a chi's
# epsilon interval costs about 4.5 concrete cases, one over a class of k mod 3, with
# its component-II build, about 2.6 concrete k, one over a class of chi mod 12, with
# the builds it reads, about 2.2 concrete chi, and one over a class of chi mod 3, its
# stable build or cover and the bodies of the checks that read it, about 1.9-2.4
# concrete chi.  That break-even is 6, not 3: a symbolic attempt that raises under a
# fault is pure overhead, and at 6 no class of chi mod 3 runs symbolically up to
# chi_max = 21, which covers fault-matrix's (12-20) ranges; no chi class does up to
# chi_max = 47, no k class up to k_max = 11.
_FAMILIES = {
    "epsilon": (1, 1, 5),  # the epsilon of one chi
    "k": (3, 3, 3),  # component II reads k mod 3
    "chi": (12, 12, 3),  # the classification and the claim read K^2 = 2chi - 6 mod 8
    # component I's cover and build_stable read chi only through pick_parameters'
    # (1 - chi) % 3
    "chi mod 3": (3, 4, 6),
}


def _each(body: Callable, cases: range, family: str = "chi") -> None:
    """Run ``body`` on every n in ``cases``, a range whose step divides the modulus
    of ``family`` (see ``_FAMILIES``): the chi of the claim, the chi of component
    I's cover and the stable line, k, or the epsilon of one chi.

    First each residue class r of n mod the modulus, from n = max(start, head)
    up, that holds more cases than its break-even runs as one Affine(r, modulus,
    lo, hi).  A symbolic pass that raises anything, a failing case or an
    undecided branch, leaves its class to the concrete loop, which then runs
    every n below the head and of such a class as an int, in ascending order.
    So a class is skipped only where every case of it provably passes, and the
    first failing case and its detail are a plain loop's.
    """
    modulus, head, break_even = _FAMILIES[family]
    start, stop, step = cases.start, cases.stop, cases.step
    first = start if start > head else head  # a class holds only the n from first up
    if stop - first <= modulus * break_even:  # no class can pass its break-even
        for n in cases:
            body(n)
        return
    concrete = list(range(start, head, step))
    for r in range(start % step, modulus, step):
        lo, hi = -((r - first) // modulus), (stop - 1 - r) // modulus
        if hi - lo >= break_even:
            try:
                body(Affine(r, modulus, lo, hi))
                continue
            except Exception:  # reported, if it is a failure, by the concrete loop
                pass
        concrete += range(r + modulus * lo, r + modulus * hi + 1, modulus)
    for n in sorted(concrete):
        body(n)


def _per_chi(first: int):
    """Make the check ``body(builds, chi)`` into one that ``_each`` runs from chi = ``first``
    by class of chi mod 3."""
    def check(body):
        return lambda chi_max, k_max, builds: _each(functools.partial(body, builds),
                                                    range(first, chi_max + 1), "chi mod 3")
    return check
