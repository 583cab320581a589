"""Verification harness behaviour and fault registry coverage."""

import contextlib
import functools
import importlib
import inspect
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import catalog, faults, lattice, samples, verify
from horikawa.records import Affine, Planar
from horikawa.stable import SingularityLedger, StableSurfaceRecord


class TestRunVerification:
    def test_clean_run_passes(self):
        outcome = verify.run_verification(chi_max=10, k_max=3)
        assert outcome.passed
        assert outcome.first_failure is None
        assert len(outcome.checks) == len(verify.check_names())

    def test_minimal_range_accepted(self):
        # chi 4..6 hits all three residue classes, so this is the floor
        outcome = verify.run_verification(chi_max=6, k_max=2)
        assert outcome.passed

    @pytest.mark.parametrize("chi_max,k_max", [(5, 2), (6, 1)])
    def test_undersized_ranges_rejected(self, chi_max, k_max):
        with pytest.raises(ValueError):
            verify.run_verification(chi_max=chi_max, k_max=k_max)

    @pytest.mark.parametrize("chi_max,k_max,name,shown", [
        (8.0, 2, "chi_max", "8.0"), ("8", 2, "chi_max", "'8'"), (True, 2, "chi_max", "True"),
        (8, 2.0, "k_max", "2.0"), (8, None, "k_max", "None"), (8, True, "k_max", "True"),
        (Affine(40, 0, 1, 2), 6, "chi_max", "<horikawa.records.Affine object at 0x[0-9a-f]+>"),
        (40, Affine(6, 0, 1, 2), "k_max", "<horikawa.records.Affine object at 0x[0-9a-f]+>"),
    ])
    def test_non_integer_ranges_rejected(self, chi_max, k_max, name, shown):
        # refused as a usage error, before any check runs, not reported as a failed
        # verification; the checks take an Affine chi, a range never
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
            verify.run_verification(chi_max=chi_max, k_max=k_max)

    @pytest.mark.parametrize("chi_max,k_max,name", [
        (verify.RANGE_CAP + 1, 2, "chi_max"), (6, verify.RANGE_CAP + 1, "k_max"),
    ])
    def test_oversized_ranges_rejected(self, chi_max, k_max, name):
        with pytest.raises(ValueError, match=f"{name} must be at most {verify.RANGE_CAP}"):
            verify.run_verification(chi_max=chi_max, k_max=k_max)

    def test_cap_is_inclusive(self):
        assert verify.run_verification(chi_max=6, k_max=verify.RANGE_CAP).passed

    def test_bicanonical_count_is_compared_exactly(self):
        # h0(2K) = 3 is right for K^2 = 4/3 with four quotient points at chi = 3,
        # and chi + K^2 - 1 = 10/3 is no integer, so the identity fails
        record = StableSurfaceRecord(4, 3, SingularityLedger(4))
        recipe = catalog.build_stable(3).recipe
        builds = verify._Builds(catalog.build_component_one,
                                lambda chi: catalog.StableConstruction(record, recipe),
                                catalog.build_component_two)
        with pytest.raises(verify._CheckFailure,
                           match="^bicanonical count 3 instead of 10/3 at chi = 3$"):
            verify._check_stable_bicanonical(3, 2, builds)

    @pytest.mark.parametrize("offset, detail", [
        # one too many on blow-ups only: symmetric, but not additive
        (lambda x, y: isinstance(x.surface, lattice.BlowUp),
         "pairing not additive on blow-up of F_2 at 4 points"),
        # one too many once a coefficient passes 20, as in a narrow integer
        # type: every sum a + b of the draws stays below, some multiples m * a do not
        (lambda x, y: max(map(abs, x.coeffs + y.coeffs)) > 20,
         "pairing not homogeneous on P^2"),
    ], ids=["additive", "homogeneous"])
    def test_bilinearity_details(self, offset, detail, monkeypatch):
        dot = lattice.DivisorClass.dot
        monkeypatch.setattr(lattice.DivisorClass, "dot",
                            lambda x, y: dot(x, y) + offset(x, y))
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_symmetry_bilinearity(6, 2, None)

    @pytest.mark.parametrize("thirds, count, detail", [
        # at chi = 4 the bound is 3*K^2 <= 16, which no epsilon reaches, and
        # epsilon = 1 calls for 3*K^2 = 9 and three points; each record has a
        # whole bicanonical count, as a record must
        (18, 3, "bound violated at chi = 4, epsilon = 1"),
        (16, 4, "bound equality mischaracterised at chi = 4, epsilon = 1"),
        (10, 4, "K^2 = 10/3 at chi = 4, epsilon = 1"),
        (9, 6, "ledger count wrong at chi = 4, epsilon = 1"),
    ], ids=["above-the-bound", "at-the-bound", "off-the-line", "ledger"])
    def test_epsilon_bound_details(self, thirds, count, detail, monkeypatch):
        record = StableSurfaceRecord(thirds, 4, SingularityLedger(count))
        monkeypatch.setattr(catalog, "epsilon_family", lambda chi, epsilon: record)
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_epsilon_bound(6, 2, None)

    @pytest.mark.parametrize("oracle, wrong, detail", [
        ("enumerate_scroll_sections", lambda e, a, b: -1,
         "h0 on F_0 of (0,0) gave 1, enumeration gives -1"),
        ("enumerate_plane_sections", lambda d: -1,
         "h0 on the plane of degree 0 disagrees with enumeration"),
    ], ids=["ruled", "plane"])
    def test_section_count_details(self, oracle, wrong, detail, monkeypatch):
        monkeypatch.setattr(samples, oracle, wrong)
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_section_count_oracle(6, 2, None)

    def test_isometry_detail(self, monkeypatch):
        dot = lattice.DivisorClass.dot
        monkeypatch.setattr(lattice.DivisorClass, "dot",
                            lambda x, y: dot(x, y) + isinstance(x.surface, lattice.BlowUp))
        detail = f"pullback not isometric on F_0 + {samples.ISOMETRY_POINT_COUNTS[0]}"
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_pullback_isometry(6, 2, None)

    def test_check_names_are_stable(self):
        names = verify.check_names()
        assert len(names) == len(set(names))
        assert "component-one-invariants" in names
        assert "stable-ampleness-certificate" in names


def _concrete_epsilon_bound(chi_max):
    """stable-epsilon-bound as one concrete call per (chi, epsilon): the symbolic pass's oracle."""
    for chi in range(4, chi_max + 1):
        bound = 8 * chi - 16
        for epsilon in range(1, (2 * chi + 2) // 3 + 1):
            record = catalog.epsilon_family(chi, epsilon)
            thirds = record.k_squared_thirds
            if not thirds <= bound:
                raise verify._CheckFailure(f"bound violated at chi = {chi}, epsilon = {epsilon}")
            if (thirds == bound) != (3 * epsilon == 2 * chi + 2):
                raise verify._CheckFailure(
                    f"bound equality mischaracterised at chi = {chi}, epsilon = {epsilon}")
            if thirds != 3 * (2 * chi - 6 + epsilon):
                raise verify._CheckFailure(
                    f"K^2 = {record.k_squared} at chi = {chi}, epsilon = {epsilon}")
            if record.ledger.third11_count != 3 * epsilon:
                raise verify._CheckFailure(
                    f"ledger count wrong at chi = {chi}, epsilon = {epsilon}")


def _ending(check):
    """None if ``check()`` returns, else the type and message of what it raised."""
    try:
        check()
    except Exception as error:
        return type(error), str(error)
    return None


def _symbol(n):
    """An int itself, an Affine by ``verify._key``, a Planar by its coefficients and cap's key."""
    return (n.a, n.b, n.c, verify._key(n.cap)) if type(n) is Planar else verify._key(n)


def _pairs(chi, epsilon) -> list:
    """The (chi, epsilon) that one epsilon_family call stands for: an Affine epsilon of an
    int chi is an interval of epsilon, and with an Affine chi it shares chi's t."""
    if type(chi) is int:
        return [(chi, e) for e in _members(epsilon)]
    points = [(t, s) for t in range(chi.lo, chi.hi + 1)
              for s in (range(1, _at(epsilon.cap, t) + 1) if type(epsilon) is Planar else (0,))]
    return [(_at(chi, t), _at(epsilon, t, s)) for t, s in points]


def _at(value, t, s=0):
    """The value at (t, s) of a Planar, at t of an Affine, or an int itself."""
    if type(value) is int:
        return value
    return value.a + value.b * t + (value.c * s if type(value) is Planar else 0)


class TestSymbolicEpsilonBound:
    CHI_MAX = 60  # each class of chi mod 3 holds 19 or 20 chi

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each (chi, epsilon) that epsilon_family is called with, by ``_symbol``."""
        made, family = [], catalog.epsilon_family

        def recorded(chi, epsilon):
            made.append((_symbol(chi), _symbol(epsilon)))
            return family(chi, epsilon)

        monkeypatch.setattr(catalog, "epsilon_family", recorded)
        return made

    def test_a_long_interval_is_one_symbolic_call(self, calls):
        # up to chi_max = 21 no class of chi mod 3 holds more than 6 chi, so each chi
        # runs its interval of epsilon, from chi = 10 as one symbolic call, then top
        verify._check_epsilon_bound(21, 2, None)
        want = []
        for chi in range(4, 22):
            top = (2 * chi + 2) // 3
            want += ([(chi, (0, 1, 1, top - 1)), (chi, top)]
                     if top - 1 > verify._FAMILIES["epsilon"][2]
                     else [(chi, epsilon) for epsilon in range(1, top + 1)])
        assert calls == want

    def test_a_class_of_chi_is_one_trapezoid_and_its_top(self, calls):
        # chi = r + 3t, t in [lo, hi] from chi = 4 on, has top = T0 + 2t with
        # T0 = (2r + 2) // 3: epsilon runs as s on 1 <= s <= top - 1, then as top;
        # no chi is left below the classes
        verify._check_epsilon_bound(self.CHI_MAX, 2, None)
        want = []
        for r in range(3):
            lo, hi, t0 = 2 if r == 0 else 1, (self.CHI_MAX - r) // 3, (2 * r + 2) // 3
            chi = (r, 3, lo, hi)
            want += [(chi, (0, 0, 1, (t0 - 1, 2, lo, hi))), (chi, (t0, 2, lo, hi))]
        assert calls == want

    @pytest.mark.parametrize("chi_max", [CHI_MAX, 300])
    def test_every_chi_and_epsilon_is_covered_once(self, chi_max, monkeypatch):
        # each call of a symbolic chi or epsilon stands for each of its points
        seen, family = [], catalog.epsilon_family

        def recorded(chi, epsilon):
            seen.extend(_pairs(chi, epsilon))
            return family(chi, epsilon)

        monkeypatch.setattr(catalog, "epsilon_family", recorded)
        assert verify.run_verification(chi_max, 6).passed
        assert sorted(seen) == [(chi, epsilon) for chi in range(4, chi_max + 1)
                                for epsilon in range(1, (2 * chi + 2) // 3 + 1)]

    @pytest.mark.parametrize("fault", [None, *faults.fault_names()])
    def test_same_ending_as_the_concrete_loop(self, fault):
        with contextlib.nullcontext() if fault is None else faults.injected(fault):
            got = _ending(lambda: verify._check_epsilon_bound(self.CHI_MAX, 2, None))
            want = _ending(lambda: _concrete_epsilon_bound(self.CHI_MAX))
        assert got == want
        if fault in (None, "epsilon-family-ksq", "contraction-gain-half"):
            assert (got is None) == (fault is None)

    @pytest.mark.parametrize("fault", [None, *faults.fault_names()])
    def test_a_symbolic_pass_that_returns_vouches_for_every_case(self, fault):
        # at every chi, short intervals included, not only up to the first failure
        with contextlib.nullcontext() if fault is None else faults.injected(fault):
            for chi in range(4, self.CHI_MAX + 1):
                top = (2 * chi + 2) // 3
                if _ending(lambda: verify._epsilon_case(chi, Affine(0, 1, 1, top - 1))) is None:
                    for epsilon in range(1, top):
                        verify._epsilon_case(chi, epsilon)

    @pytest.mark.parametrize("fault", [None, *faults.fault_names()])
    def test_a_trapezoid_that_returns_vouches_for_every_case(self, fault):
        # the faults that the check kills in the kill matrix fail every trapezoid and top
        killed = {"epsilon-family-ksq", "contraction-gain-half"}
        with contextlib.nullcontext() if fault is None else faults.injected(fault):
            for r in range(12):  # from chi = 4
                chi = Affine(r, 12, 0 if r >= 4 else 1, 4)
                top = (2 * chi + 2) // 3
                for epsilon in (Planar(0, 0, 1, top - 1), top):
                    if _ending(lambda: verify._epsilon_case(chi, epsilon)) is None:
                        assert fault not in killed
                        for case in _pairs(chi, epsilon):
                            verify._epsilon_case(*case)
                    else:
                        assert fault is not None

    @pytest.mark.parametrize("chi_max", [21, CHI_MAX], ids=["chi-concrete", "chi-symbolic"])
    @pytest.mark.parametrize("differs, first", [
        (lambda epsilon: epsilon == 7, 7),  # undecided on an interval that holds 7
        (lambda epsilon: epsilon % 20 == 7, 7),  # 20 does not divide b = 1: TypeError
        (lambda epsilon: True, 1),  # the symbolic case itself fails
    ], ids=["undecided", "type-error", "failing"])
    def test_a_pass_that_raises_runs_its_chi_concretely(self, differs, first, chi_max, calls,
                                                         monkeypatch):
        # chi == 18 is undecided on the class of 18, 6 to 60, which then runs chi by chi
        family = catalog.epsilon_family

        def miscounted_at_18(chi, epsilon):
            record = family(chi, epsilon)
            if chi == 18 and differs(epsilon):
                return record._replace(ledger=SingularityLedger(record.ledger.third11_count + 3))
            return record

        monkeypatch.setattr(catalog, "epsilon_family", miscounted_at_18)
        detail = f"ledger count wrong at chi = 18, epsilon = {first}"
        with pytest.raises(verify._CheckFailure, match=f"^{detail}$"):
            verify._check_epsilon_bound(chi_max, 2, None)
        assert [epsilon for chi, epsilon in calls if chi == 18] == [(0, 1, 1, 11),
                                                                    *range(1, first + 1)]
        assert [chi for chi, _epsilon in calls if type(chi) is tuple] == (
            [] if chi_max == 21 else [(r, 3, 2 if r == 0 else 1, (chi_max - r) // 3)
                                      for r in range(3)
                                      for _pass in ("trapezoid",) + ("top",) * (r != 0)])


def _members(n) -> list:
    """The ints that a case of ``verify._each`` stands for: itself, or an Affine's values."""
    return [n] if type(n) is int else list(range(n.a + n.b * n.lo, n.a + n.b * n.hi + 1, n.b))


class TestSymbolicClasses:
    CHI_MAX = 100  # every residue class of chi mod 12 holds 7 or 8 cases

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 200), st.sampled_from([1, 2, 3, 4, 6, 12]),
           st.sampled_from(sorted(verify._FAMILIES)))
    def test_every_case_runs_once(self, start, count, step, family):
        # a symbolic class holds only cases from n = head up; the rest run as ints, in order
        modulus, head, break_even = verify._FAMILIES[family]
        step = step if modulus % step == 0 else 1
        cases, seen = range(start, start + count, step), []
        verify._each(seen.append, cases, family)
        assert sorted(n for case in seen for n in _members(case)) == list(cases)
        symbolic = [case for case in seen if type(case) is Affine]
        assert all(case.b == modulus and case.a + case.b * case.lo >= head
                   and case.hi - case.lo >= break_even for case in symbolic)
        # and each class that holds more cases than its break-even is one
        held = Counter(n % modulus for n in cases if n >= head)
        assert sorted(case.a for case in symbolic) == sorted(
            r for r, count in held.items() if count > break_even)
        concrete = seen[len(symbolic):]
        assert seen[:len(symbolic)] == symbolic and concrete == sorted(concrete)

    def test_a_class_whose_pass_raises_runs_as_ints(self):
        # n % 12 decides each class, and n > 40 is undecided in class 5 (17 to 89),
        # so it alone runs as ints, after the ints below 12, up to its first failure
        seen = []

        def body(n):
            seen.append(n if type(n) is int else verify._key(n))
            if n % 12 == 5 and n > 40:
                raise verify._CheckFailure(f"fails at {n}")

        with pytest.raises(verify._CheckFailure, match="^fails at 41$"):
            verify._each(body, range(4, self.CHI_MAX + 1))
        assert seen == [(r, 12, 1, (self.CHI_MAX - r) // 12) for r in range(12)] + [
            *range(4, 12), 17, 29, 41]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each builder call by (builder name, chi or k), an Affine one by its key."""
        made = []
        for name in ("build_component_one", "_component_one_cover", "build_stable",
                     "build_component_two"):
            def recorded(chi, *args, _name=name, _build=getattr(catalog, name), **kwargs):
                made.append((_name, verify._key(chi)))
                return _build(chi, *args, **kwargs)

            monkeypatch.setattr(catalog, name, recorded)
        return made

    STABLE_CLASSES = [(0, 3, 2, 33), (1, 3, 1, 33), (2, 3, 1, 32)]  # chi = 6, 4, 5 to CHI_MAX
    COVER_CLASSES = [(0, 3, 2, 33), (1, 3, 2, 33), (2, 3, 1, 32)]  # chi = 6, 7, 5 to CHI_MAX

    def test_each_class_is_built_once_on_an_affine(self, calls):
        # the parity check's chi = 7 + 4s, by class of chi mod 12 from chi = 12 and 7
        # and 11 as ints, are read from the run's classes of chi mod 3, so it builds
        # nothing; no public component-I build is made
        assert verify.run_verification(self.CHI_MAX, 6).passed
        assert sorted(calls, key=repr) == sorted(
            [("_component_one_cover", key) for key in (*self.COVER_CLASSES, 4)]
            + [("build_stable", key) for key in (*self.STABLE_CLASSES, 3)]
            + [("build_component_two", k) for k in range(1, 7)], key=repr)

    @pytest.mark.parametrize("chi_max, classes", [
        (22, []),  # no class holds more than 6 chi: the fault-matrix ranges stay ints
        (23, [(2, 3, 1, 7)]),
        (24, [(0, 3, 2, 8), (2, 3, 1, 7)]),
        (25, [(0, 3, 2, 8), (1, 3, 2, 8), (2, 3, 1, 7)]),
        (CHI_MAX, COVER_CLASSES),
    ])
    def test_component_one_cover_is_built_by_class_of_chi_mod_3(self, chi_max, classes,
                                                                 monkeypatch):
        # the cover reads chi mod 3 only; chi = 4, where the tricanonical identity's
        # fiber multiple chi - 4 is 0 on the class of 1, is an int, so that class
        # starts at chi = 7
        built, build = [], catalog._component_one_cover

        def recorded(chi, *args, **kwargs):
            built.append(chi)
            return build(chi, *args, **kwargs)

        monkeypatch.setattr(catalog, "_component_one_cover", recorded)
        assert verify.run_verification(chi_max, 6).passed
        assert [verify._key(chi) for chi in built[:len(classes)]] == classes
        concrete = built[len(classes):]
        assert all(type(chi) is int for chi in concrete) and concrete == sorted(concrete)
        assert sorted(n for chi in built for n in _members(chi)) == list(range(4, chi_max + 1))
        if chi_max >= 25:
            assert concrete == [4]

    @pytest.mark.parametrize("chi_max", [30, CHI_MAX])
    def test_the_public_builder_is_never_called(self, chi_max, monkeypatch):
        # every check reads component I's cover from the run's builds
        def refused(*args, **kwargs):
            raise AssertionError("verify called build_component_one")

        monkeypatch.setattr(catalog, "build_component_one", refused)
        assert verify.run_verification(chi_max, 6).passed

    @pytest.mark.parametrize("chi_max, classes", [
        (21, []),  # no class holds more than 6 chi: the fault-matrix ranges stay ints
        (24, [(0, 3, 2, 8), (1, 3, 1, 7), (2, 3, 1, 7)]),
        (CHI_MAX, STABLE_CLASSES),
    ])
    def test_the_stable_line_is_built_by_class_of_chi_mod_3(self, chi_max, classes,
                                                            monkeypatch):
        # build_stable reads chi mod 3 only; chi = 3, where the ampleness check
        # branches, is an int, so the class of 0 mod 3 starts at chi = 6
        built, build = [], catalog.build_stable

        def recorded(chi):
            built.append(chi)
            return build(chi)

        monkeypatch.setattr(catalog, "build_stable", recorded)
        assert verify.run_verification(chi_max, 6).passed
        assert [type(chi) is Affine and chi.b == 3 for chi in built] == (
            [True] * len(classes) + [False] * (len(built) - len(classes)))
        assert [verify._key(chi) for chi in built] == (
            [*classes, 3] if classes else list(range(3, chi_max + 1)))

    def test_each_class_of_k_is_built_once_on_an_affine(self, calls):
        # k = 1 and 2 run as ints, and every class of k mod 3 holds 12 or 13 cases
        assert verify.run_verification(self.CHI_MAX, 40).passed
        classes = [(r, 3, 1, (40 - r) // 3) for r in range(3)]
        built = [key for name, key in calls if name == "build_component_two"]
        assert sorted(built, key=repr) == sorted([*classes, 1, 2], key=repr)

    def test_the_classification_covers_every_chi_and_k_once(self, monkeypatch):
        # the line from chi = 4 and the constructed pairs from k = 1, a symbolic
        # class standing for each of its members
        seen, classify = [], catalog.classify

        def recorded(k_squared, chi):
            seen.extend(zip(_members(k_squared), _members(chi)))
            return classify(k_squared, chi)

        monkeypatch.setattr(catalog, "classify", recorded)
        assert verify.run_verification(self.CHI_MAX, 40).passed
        assert sorted(seen) == sorted([(2 * chi - 6, chi) for chi in range(4, self.CHI_MAX + 1)]
                                      + [(8 * k, 4 * k + 3) for k in range(1, 41)])

    @pytest.mark.parametrize("chi_max, k_max", [(24, 4), (40, 8), (CHI_MAX, 6), (CHI_MAX, 40),
                                                 (300, 100)],
                             ids=["24-4", "40-8", "k-concrete", "k-symbolic", "300-100"])
    @pytest.mark.parametrize("fault", [None, *faults.fault_names()])
    def test_same_results_with_the_symbolic_path_off(self, fault, chi_max, k_max, monkeypatch):
        # off, every chi, k and epsilon runs as an int
        def results():
            outcome = verify.run_verification(chi_max, k_max, fault)
            return [(check.name, check.passed, check.detail) for check in outcome.checks]

        symbolic = results()
        monkeypatch.setattr(verify, "_FAMILIES", {
            family: (modulus, head, verify.RANGE_CAP)
            for family, (modulus, head, _break_even) in verify._FAMILIES.items()})
        assert results() == symbolic


class TestSharedBuilds:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count builder calls by (builder name, chi), an Affine chi by its key."""
        calls = Counter()
        for name in ("build_component_one", "_component_one_cover", "build_stable"):
            def counting(chi, *args, _name=name, _build=getattr(catalog, name), **kwargs):
                calls[_name, verify._key(chi)] += 1
                return _build(chi, *args, **kwargs)

            monkeypatch.setattr(catalog, name, counting)
        return calls

    @staticmethod
    def totals(calls):
        totals = Counter()
        for (name, _chi), count in calls.items():
            totals[name] += count
        return totals

    def test_one_build_per_chi(self, calls):
        # the stable line as three classes of chi mod 3 and chi = 3, component I's cover
        # as three classes of chi mod 3 and chi = 4, from which the parity check reads
        # its chi = 7, 11, ..., 27
        verify.run_verification(chi_max=30, k_max=6)
        assert self.totals(calls) == {"build_stable": 4, "_component_one_cover": 4}
        assert set(calls.values()) == {1}

    def test_nothing_cached_across_runs(self, calls):
        verify.run_verification(chi_max=30, k_max=6)
        verify.run_verification(chi_max=30, k_max=6)
        assert self.totals(calls) == {"build_stable": 8, "_component_one_cover": 8}

    @pytest.mark.parametrize("chi_max, k_max", [(6, 2), (12, 3), (16, 4), (20, 5), (22, 4)])
    def test_the_parity_check_shares_the_covers(self, calls, chi_max, k_max):
        # up to chi_max = 22 every chi is an int, and the parity check's chi = 7, 11,
        # 15, 19 are the cover checks' own builds; below chi_max = 7 its chi = 7 is the
        # one cover it adds
        assert verify.run_verification(chi_max, k_max).passed
        assert sorted(chi for name, chi in calls if name == "_component_one_cover") == list(
            range(4, max(chi_max, 7) + 1))
        assert {name for name, _chi in calls} == {"_component_one_cover", "build_stable"}
        assert set(calls.values()) == {1}

    def test_fault_does_not_outlive_its_run(self):
        clean = verify.run_verification(chi_max=30, k_max=6)
        faulted = verify.run_verification(chi_max=30, k_max=6, fault="fiber-data-evened")
        assert not faulted.passed
        assert verify.run_verification(chi_max=30, k_max=6) == clean

    def test_failed_build_fails_every_check_that_needs_it(self, calls, monkeypatch):
        counting = catalog.build_stable

        def broken(chi, *args, **kwargs):
            result = counting(chi, *args, **kwargs)
            if chi == 5:
                raise ValueError("no surface at chi = 5")
            return result

        monkeypatch.setattr(catalog, "build_stable", broken)
        outcome = verify.run_verification(chi_max=30, k_max=6)
        failed = {c.name: c.detail for c in outcome.checks if not c.passed}
        assert failed == dict.fromkeys(
            ("stable-invariants", "stable-tricanonical-lift", "stable-bicanonical-count"),
            "pipeline error: ValueError: no surface at chi = 5")
        # a build that raised is tried again by each check that needs it: chi == 5
        # is undecided on the class of 5, which then runs chi by chi up to 5
        assert calls["build_stable", 5] == calls["build_stable", (2, 3, 1, 9)] == 3
        assert calls["build_stable", (1, 3, 1, 9)] == 1

    @pytest.fixture
    def k_calls(self, monkeypatch):
        """Count component-two builds by k."""
        calls, build = Counter(), catalog.build_component_two

        def counting(k):
            calls[k] += 1
            return build(k)

        monkeypatch.setattr(catalog, "build_component_two", counting)
        return calls

    def test_one_component_two_build_per_k(self, k_calls):
        verify.run_verification(chi_max=30, k_max=6)
        assert k_calls == dict.fromkeys(range(1, 7), 1)

    def test_failed_component_two_build_is_not_cached(self, k_calls, monkeypatch):
        counting = catalog.build_component_two

        def broken(k):
            result = counting(k)
            if k == 3:
                raise ValueError("no cover at k = 3")
            return result

        monkeypatch.setattr(catalog, "build_component_two", broken)
        outcome = verify.run_verification(chi_max=30, k_max=6)
        failed = {c.name: c.detail for c in outcome.checks if not c.passed}
        assert failed == dict.fromkeys(
            ("component-two-invariants", "classification-components"),
            "pipeline error: ValueError: no cover at k = 3")
        assert k_calls == {1: 1, 2: 1, 3: 2}


def _key_id(chi) -> str:
    return str(verify._key(chi))


class TestHolding:
    CLASS = (1, 3, 2, 13)  # chi = 7, 10, ..., 40

    @pytest.fixture
    def memo(self):
        """A memo holding the class of 1 mod 3 from 7 to 40, whose builder records each key."""
        built = []

        def build(chi):
            built.append(verify._key(chi))
            return ("build of", verify._key(chi))

        memo = verify._Memo(build)
        memo(Affine(*self.CLASS))
        built.clear()
        return memo, built

    @pytest.mark.parametrize("chi", [7, 19, 40, Affine(7, 12, 0, 2), Affine(19, 12, 0, 1),
                                     Affine(1, 6, 1, 6), Affine(*CLASS)],
                             ids=_key_id)
    def test_a_chi_inside_a_held_class_is_served_with_no_build(self, memo, chi):
        memo, built = memo
        assert memo.holding(chi) == ("build of", self.CLASS)
        assert built == []

    @pytest.mark.parametrize("chi", [
        8, 4, 43,  # another residue, below lo and past hi
        Affine(7, 12, 0, 3), Affine(4, 12, 0, 2),  # 43, past hi; 4, below lo
        Affine(8, 12, 0, 2), Affine(7, 4, 0, 2),  # another residue; a step 3 does not divide
    ], ids=_key_id)
    def test_a_chi_outside_every_held_class_gets_its_own_build(self, memo, chi):
        memo, built = memo
        assert memo.holding(chi) == ("build of", verify._key(chi))
        assert built == [verify._key(chi)]
        assert memo.holding(chi) == ("build of", verify._key(chi)) and len(built) == 1

    def test_an_int_held_under_its_own_key_comes_first(self, memo):
        memo, built = memo
        memo(19)
        assert memo.holding(19) == ("build of", 19) and built == [19]

    def test_a_class_whose_build_raised_is_not_read(self):
        built = []

        def build(chi):
            built.append(verify._key(chi))
            if type(chi) is not int:
                raise ValueError("no class build")
            return ("build of", chi)

        memo = verify._Memo(build)
        with pytest.raises(ValueError):
            memo(Affine(*self.CLASS))
        assert memo.holding(19) == ("build of", 19)
        assert built == [self.CLASS, 19]

    @pytest.mark.parametrize("chi_max", [7, 23, 40, 100, 300])
    def test_the_parity_check_builds_nothing_of_its_own(self, chi_max, monkeypatch):
        # a clean run's covers are exactly the three cover checks' own
        def covers_built(names):
            built, build = [], catalog._component_one_cover

            def recorded(chi, *args):
                built.append(verify._key(chi))
                return build(chi, *args)

            with monkeypatch.context() as patch:
                patch.setattr(catalog, "_component_one_cover", recorded)
                patch.setattr(verify, "_CHECKS", [c for c in verify._CHECKS if c[0] in names])
                assert verify.run_verification(chi_max, 6).passed
            return built

        cover_checks = ("component-one-invariants", "component-one-tricanonical-identity",
                        "minimality-nef-witnesses")
        assert covers_built(verify.check_names()) == covers_built(cover_checks)


class TestSharedCertificates:
    @pytest.fixture
    def issued(self, monkeypatch):
        """The alpha (= chi) of each call of the two public certificate wrappers."""
        issued = {"ampleness_certificate": [], "nef_certificate": []}
        for name, alphas in issued.items():
            def spying(e, alpha, beta, *args, _alphas=alphas, _issue=getattr(catalog, name)):
                _alphas.append(alpha)
                return _issue(e, alpha, beta, *args)

            monkeypatch.setattr(catalog, name, spying)
        return issued

    def test_clean_run_issues_no_certificate_of_its_own(self, issued):
        assert verify.run_verification(chi_max=30, k_max=6).passed
        assert issued == {"ampleness_certificate": [], "nef_certificate": []}

    @pytest.mark.parametrize("builder, tamper, check, detail", [
        ("build_stable",
         lambda c: c._replace(recipe=c.recipe._replace(certificates=(
             c.recipe.certificates[0]._replace(witness_virtual_count=-1),))),
         "stable-ampleness-certificate", "witness count -1 instead of 2 at chi = 3"),
        ("_component_one_cover",
         lambda r: r._replace(certificates=(r.certificates[0]._replace(verdict="asserted"),)),
         "minimality-nef-witnesses", "nef verdict is asserted at chi = 4"),
    ], ids=["ampleness", "nef"])
    def test_check_reads_the_certificate_of_the_build(self, builder, tamper, check, detail,
                                                      monkeypatch):
        build = getattr(catalog, builder)
        monkeypatch.setattr(catalog, builder,
                            lambda chi, *args, **kwargs: tamper(build(chi, *args, **kwargs)))
        outcome = verify.run_verification(chi_max=30, k_max=6)
        assert {c.name: c.detail for c in outcome.checks if not c.passed} == {check: detail}

    def test_ampleness_issued_where_no_stable_build_holds(self, issued):
        # every stable build raises under this fault, so the check issues each
        # certificate itself, one per class of chi mod 3 and one at chi = 3, and
        # passes, free of the pipeline error
        outcome = verify.run_verification(chi_max=30, k_max=6, fault="contraction-gain-half")
        result = outcome.checks[verify.check_names().index("stable-ampleness-certificate")]
        assert (result.passed, result.detail) == (True, "")
        alphas = issued["ampleness_certificate"]
        assert [verify._key(alpha) for alpha in alphas] == [
            (0, 3, 2, 10), (1, 3, 1, 9), (2, 3, 1, 9), 3]
        assert sorted(n for alpha in alphas for n in _members(alpha)) == list(range(3, 31))

    def test_nef_issued_only_for_the_chi_the_run_has_not_built(self, issued, monkeypatch):
        build = catalog._component_one_cover

        def broken(chi, *args, **kwargs):
            if chi == 5:  # undecided, so raising too, on the class of chi = 5 + 3t
                raise ValueError("no surface at chi = 5")
            return build(chi, *args, **kwargs)

        monkeypatch.setattr(catalog, "_component_one_cover", broken)
        outcome = verify.run_verification(chi_max=30, k_max=6)
        assert "minimality-nef-witnesses" not in {c.name for c in outcome.checks if not c.passed}
        # the run holds the covers of the classes of 0 and 1 mod 3 and of chi = 4, and
        # the invariant checks stop at chi = 5, so the class of 2 is the one not built
        alphas = issued["nef_certificate"]
        assert [verify._key(alpha) for alpha in alphas] == [(2, 3, 1, 9)]
        assert _members(alphas[0]) == list(range(5, 30, 3))


def _tuples_of_ints(value) -> bool:
    if type(value) is tuple:
        return all(_tuples_of_ints(item) for item in value)
    return type(value) is int


class TestSharedSamples:
    """The seeded draws are made once per process; the lattice work is not."""

    @staticmethod
    def old_bilinearity_stream(ranks):
        # the per-sample loop before the draws were cached: three classes of
        # randint(-10, 10) per coordinate, then the scalar randint(-6, 6)
        rng = random.Random(20260808)
        cases = []
        for n in range(400):
            rank = ranks[n % len(ranks)]
            a, b, c = (tuple(rng.randint(-10, 10) for _ in range(rank)) for _ in range(3))
            cases.append((a, b, c, rng.randint(-6, 6)))
        return cases

    @staticmethod
    def old_isometry_stream(ranks):
        rng = random.Random(1729)
        pairs = []
        for rank in ranks:
            for _n in (1, 5, 17):
                for _ in range(30):
                    d1 = tuple(rng.randint(-10, 10) for _ in range(rank))
                    d2 = tuple(rng.randint(-10, 10) for _ in range(rank))
                    pairs.append((d1, d2))
        return pairs

    @staticmethod
    def sample_ranks():
        return tuple(map(lattice.picard_rank, samples.sample_surfaces()))

    def test_bilinearity_draws_are_the_old_stream(self):
        clean = self.sample_ranks()
        with faults.injected("blowup-drops-a-point"):
            faulted = self.sample_ranks()
        assert faulted != clean
        for ranks in (clean, faulted):
            draws = samples.bilinearity_draws(ranks)
            assert list(draws) == self.old_bilinearity_stream(ranks)
            assert _tuples_of_ints(draws)

    def test_isometry_draws_are_the_old_stream(self):
        ranks = tuple(lattice.picard_rank(lattice.Hirzebruch(e)) for e in (0, 1, 2, 4))
        draws = samples.isometry_draws(ranks)
        flat = [pair for per_count in draws for pairs in per_count for pair in pairs]
        assert flat == self.old_isometry_stream(ranks)
        assert _tuples_of_ints(draws)

    def test_only_data_is_shared_between_runs(self, monkeypatch):
        # counts, not timings: the second run makes every lattice call the
        # first one makes, and draws nothing
        counts = Counter()
        for cls, name in ((lattice.SurfaceModel, "divisor"), (lattice.DivisorClass, "dot")):
            def counting(*args, _name=name, _method=getattr(cls, name)):
                counts[_name] += 1
                return _method(*args)

            monkeypatch.setattr(cls, name, counting)
        seeded = random.Random

        def counting_random(*args):
            counts["Random"] += 1
            return seeded(*args)

        monkeypatch.setattr(random, "Random", counting_random)
        samples.bilinearity_draws.cache_clear()
        samples.isometry_draws.cache_clear()
        verify.run_verification(6, 2)
        first = counts.copy()
        counts.clear()
        verify.run_verification(6, 2)
        assert first["Random"] == 2
        assert counts["Random"] == 0
        assert counts["divisor"] == first["divisor"] > 0
        assert counts["dot"] == first["dot"] > 0


class TestFaultRegistry:
    def test_at_least_twenty_faults(self):
        assert len(faults.fault_names()) >= 20

    @pytest.mark.parametrize("name", faults.fault_names())
    def test_each_fault_fails_some_named_check(self, name):
        # (6, 2) is the smallest accepted range; the last four are the corners
        # of the fault-matrix benchmark strata
        for chi_max, k_max in ((6, 2), (12, 4), (12, 3), (20, 5), (32, 6), (40, 8)):
            outcome = verify.run_verification(chi_max=chi_max, k_max=k_max, fault=name)
            assert not outcome.passed, (name, chi_max, k_max)
            first = outcome.first_failure
            assert first is not None
            assert first.name in verify.check_names()
            assert first.identity

    def test_unknown_fault_raises(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with faults.injected("nonsense"):
                pass

    def test_injection_restores_original(self):
        original = catalog.pick_parameters
        with faults.injected("parameter-table-beta"):
            assert catalog.pick_parameters(6) == (1, 6, 6)
        assert catalog.pick_parameters is original
        assert catalog.pick_parameters(6) == (1, 6, 3)
        assert verify.run_verification(chi_max=6, k_max=2).passed


def _target(fault):
    module, attribute = fault.target.split(".")
    return importlib.import_module(f"horikawa.{module}"), attribute


class TestMutation:
    @pytest.mark.parametrize("name", faults.fault_names())
    def test_edit_occurs_once_and_changes_the_code(self, name, monkeypatch):
        fault = faults.REGISTRY[name]
        module, attribute = _target(fault)
        original = getattr(module, attribute)
        assert inspect.getsource(original).count(fault.old) == 1
        # the same target compiled through the same path, edit left out
        monkeypatch.setitem(faults.REGISTRY, f"{name}/unedited", fault._replace(new=fault.old))
        unedited = faults.mutant(f"{name}/unedited")
        assert faults.mutant(name).__code__ != unedited.__code__
        assert faults.mutant(name).__code__.co_firstlineno == original.__code__.co_firstlineno

    @pytest.mark.parametrize("old", ["return -e * u[0] * v[0] * 7", "u[0]"])
    def test_edit_not_found_exactly_once_names_the_fault(self, old, monkeypatch):
        monkeypatch.setitem(faults.REGISTRY, f"broken {old}",
                            faults.Fault("never applies", "lattice._hirzebruch_dot", old, ""))
        original = lattice._hirzebruch_dot
        with pytest.raises(LookupError, match=r"fault 'broken .*lattice\._hirzebruch_dot"):
            with faults.injected(f"broken {old}"):
                pass
        assert lattice._hirzebruch_dot is original

    def test_every_target_restored_when_the_body_raises(self):
        for name in faults.fault_names():
            module, attribute = _target(faults.REGISTRY[name])
            function = getattr(module, attribute)
            original = function.__code__
            with pytest.raises(RuntimeError):
                with faults.injected(name):
                    # the fault edits the function in place, the binding stays
                    assert getattr(module, attribute) is function
                    assert function.__code__ is faults.mutant(name).__code__
                    raise RuntimeError(name)
            assert getattr(module, attribute) is function
            assert function.__code__ is original

    def test_wrapped_target_is_mutated(self, monkeypatch):
        # a functools.wraps wrapper, as span tracing installs, is seen through
        # and keeps running: the calls made under the fault pass through it
        original = catalog.pick_parameters
        calls = []

        @functools.wraps(original)
        def wrapper(chi):
            calls.append(chi)
            return original(chi)

        monkeypatch.setattr(catalog, "pick_parameters", wrapper)
        monkeypatch.setitem(faults.REGISTRY, "wrapped-beta",
                            faults.REGISTRY["parameter-table-beta"])
        with faults.injected("wrapped-beta"):
            assert catalog.pick_parameters(6) == (1, 6, 6)
            assert catalog.build_component_one(9).parameters == (1, 9, 6)
        assert calls == [6, 9]
        assert faults.mutant("wrapped-beta").__code__.co_firstlineno == \
            original.__code__.co_firstlineno
        assert catalog.pick_parameters is wrapper
        assert catalog.pick_parameters(6) == (1, 6, 3)


KILL_MATRIX = Path(__file__).parent / "golden" / "kill_matrix.json"
# (100, 6) runs every class of chi mod 12 symbolically, (40, 30) every class of k mod 3
KILL_RANGES = ((6, 2), (12, 4), (30, 6), (100, 6), (40, 30))


def kill_matrix() -> dict:
    """Pass (".") or fail ("X") of every check, clean and under each fault.

    Each row is one string with a character per check, in the order of
    ``checks``; rows are keyed by range, then by "clean" or the fault name.
    """
    def row(chi_max, k_max, fault):
        outcome = verify.run_verification(chi_max=chi_max, k_max=k_max, fault=fault)
        return "".join("." if c.passed else "X" for c in outcome.checks)

    return {
        "checks": list(verify.check_names()),
        "ranges": {
            f"{chi_max},{k_max}": {
                name: row(chi_max, k_max, fault)
                for name, fault in (("clean", None),
                                    *((f, f) for f in faults.fault_names()))
            }
            for chi_max, k_max in KILL_RANGES
        },
    }


def test_kill_matrix_matches_golden():
    # the fault-by-check matrix is fixed: a change to how checks share
    # work must neither hide a fault from a check nor route one to another
    want = json.loads(KILL_MATRIX.read_text(encoding="utf-8"))
    assert kill_matrix() == want
