"""Verification harness behaviour and fault registry coverage."""

import functools
import importlib
import inspect
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from horikawa import catalog, faults, lattice, verify
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
        (8, 2.0, "k_max", "2.0"), (8, None, "k_max", "None"),
    ])
    def test_non_integer_ranges_rejected(self, chi_max, k_max, name, shown):
        # refused as a usage error, not reported as a failed verification
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
        builds = verify._Builds(catalog.build_component_one,
                                lambda chi: catalog.StableConstruction(record, None))
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
        # epsilon = 1 calls for 3*K^2 = 9 and three points
        (17, 3, "bound violated at chi = 4, epsilon = 1"),
        (16, 3, "bound equality mischaracterised at chi = 4, epsilon = 1"),
        (10, 3, "K^2 = 10/3 at chi = 4, epsilon = 1"),
        (9, 4, "ledger count wrong at chi = 4, epsilon = 1"),
    ], ids=["above-the-bound", "at-the-bound", "off-the-line", "ledger"])
    def test_epsilon_bound_details(self, thirds, count, detail, monkeypatch):
        record = StableSurfaceRecord(thirds, 4, SingularityLedger(count))
        monkeypatch.setattr(catalog, "epsilon_family", lambda chi, epsilon: record)
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_epsilon_bound(6, 2, None)

    @pytest.mark.parametrize("oracle, wrong, detail", [
        ("_enumerate_scroll_sections", lambda e, a, b: -1,
         "h0 on F_0 of (0,0) gave 1, enumeration gives -1"),
        ("_enumerate_plane_sections", lambda d: -1,
         "h0 on the plane of degree 0 disagrees with enumeration"),
    ], ids=["ruled", "plane"])
    def test_section_count_details(self, oracle, wrong, detail, monkeypatch):
        monkeypatch.setattr(verify, oracle, wrong)
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_section_count_oracle(6, 2, None)

    def test_isometry_detail(self, monkeypatch):
        dot = lattice.DivisorClass.dot
        monkeypatch.setattr(lattice.DivisorClass, "dot",
                            lambda x, y: dot(x, y) + isinstance(x.surface, lattice.BlowUp))
        detail = f"pullback not isometric on F_0 + {verify._ISOMETRY_POINT_COUNTS[0]}"
        with pytest.raises(verify._CheckFailure, match=f"^{re.escape(detail)}$"):
            verify._check_pullback_isometry(6, 2, None)

    def test_check_names_are_stable(self):
        names = verify.check_names()
        assert len(names) == len(set(names))
        assert "component-one-invariants" in names
        assert "stable-ampleness-certificate" in names


class TestSharedBuilds:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count builder calls by (builder name, chi)."""
        calls = Counter()
        for name in ("build_component_one", "build_stable"):
            def counting(chi, *args, _name=name, _build=getattr(catalog, name), **kwargs):
                calls[_name, chi] += 1
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
        verify.run_verification(chi_max=30, k_max=6)
        assert self.totals(calls) == {"build_stable": 28, "build_component_one": 27}
        assert set(calls.values()) == {1}

    def test_nothing_cached_across_runs(self, calls):
        verify.run_verification(chi_max=30, k_max=6)
        verify.run_verification(chi_max=30, k_max=6)
        assert self.totals(calls) == {"build_stable": 56, "build_component_one": 54}

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
        # a build that raised is tried again by each check that needs it
        assert calls["build_stable", 5] == 3
        assert calls["build_stable", 4] == 1

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
        ("build_component_one",
         lambda r: r._replace(certificates=(r.certificates[0]._replace(verdict="asserted"),)),
         "minimality-nef-witnesses", "nef verdict is asserted at chi = 4"),
    ], ids=["ampleness", "nef"])
    def test_check_reads_the_certificate_of_the_build(self, builder, tamper, check, detail,
                                                      monkeypatch):
        build = getattr(catalog, builder)
        monkeypatch.setattr(catalog, builder, lambda chi: tamper(build(chi)))
        outcome = verify.run_verification(chi_max=30, k_max=6)
        assert {c.name: c.detail for c in outcome.checks if not c.passed} == {check: detail}

    def test_ampleness_issued_where_no_stable_build_holds(self, issued):
        # every stable build raises under this fault, so the check issues
        # each certificate itself and passes, free of the pipeline error
        outcome = verify.run_verification(chi_max=30, k_max=6, fault="contraction-gain-half")
        result = outcome.checks[verify.check_names().index("stable-ampleness-certificate")]
        assert (result.passed, result.detail) == (True, "")
        assert issued["ampleness_certificate"] == list(range(3, 31))

    def test_nef_issued_only_for_the_chi_the_run_has_not_built(self, issued, monkeypatch):
        build = catalog.build_component_one

        def broken(chi):
            if chi == 5:
                raise ValueError("no surface at chi = 5")
            return build(chi)

        monkeypatch.setattr(catalog, "build_component_one", broken)
        outcome = verify.run_verification(chi_max=30, k_max=6)
        assert "minimality-nef-witnesses" not in {c.name for c in outcome.checks if not c.passed}
        # the invariant checks stop at chi = 5; the parity check built 7, 11, ..., 27
        built = {4, 7, 11, 15, 19, 23, 27}
        assert issued["nef_certificate"] == [chi for chi in range(4, 31) if chi not in built]


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
        return tuple(map(lattice.picard_rank, verify._sample_surfaces()))

    def test_bilinearity_draws_are_the_old_stream(self):
        clean = self.sample_ranks()
        with faults.injected("blowup-drops-a-point"):
            faulted = self.sample_ranks()
        assert faulted != clean
        for ranks in (clean, faulted):
            draws = verify._bilinearity_draws(ranks)
            assert list(draws) == self.old_bilinearity_stream(ranks)
            assert _tuples_of_ints(draws)

    def test_isometry_draws_are_the_old_stream(self):
        ranks = tuple(lattice.picard_rank(lattice.Hirzebruch(e)) for e in (0, 1, 2, 4))
        draws = verify._isometry_draws(ranks)
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
        verify._bilinearity_draws.cache_clear()
        verify._isometry_draws.cache_clear()
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
KILL_RANGES = ((6, 2), (12, 4), (30, 6))


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
