"""Verification harness behaviour and fault registry coverage."""

import pytest

from horikawa import catalog, faults, verify


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

    def test_check_names_are_stable(self):
        names = verify.check_names()
        assert len(names) == len(set(names))
        assert "component-one-invariants" in names
        assert "stable-ampleness-certificate" in names


class TestFaultRegistry:
    def test_at_least_twenty_faults(self):
        assert len(faults.fault_names()) >= 20

    @pytest.mark.parametrize("name", faults.fault_names())
    def test_each_fault_fails_some_named_check(self, name):
        # (6, 2) is the smallest accepted range
        for chi_max, k_max in ((6, 2), (12, 4)):
            outcome = verify.run_verification(chi_max=chi_max, k_max=k_max, fault=name)
            assert not outcome.passed, (name, chi_max, k_max)
            first = outcome.first_failure
            assert first is not None
            assert first.name in verify.check_names()
            assert first.identity

    def test_unknown_fault_raises(self):
        with pytest.raises(KeyError, match="unknown fault"):
            with faults.injected("nonsense"):
                pass

    def test_injection_restores_original(self):
        original = catalog.pick_parameters
        with faults.injected("parameter-table-beta"):
            assert catalog.pick_parameters(6) == (1, 6, 6)
        assert catalog.pick_parameters is original
        assert catalog.pick_parameters(6) == (1, 6, 3)
        assert verify.run_verification(chi_max=6, k_max=2).passed
