"""One-third quotient point bookkeeping."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa import catalog, covers, lattice
from horikawa.covers import BuildingDataError, CoverSpec
from horikawa.lattice import Hirzebruch
from horikawa.stable import (LedgerError, SingularityLedger, StableSurfaceRecord,
                             contract_minus3, h0_2K, resolve_node_bookkeeping,
                             rr_correction_thirds)


class TestLedger:
    def test_counts_nonnegative(self):
        with pytest.raises(ValueError):
            SingularityLedger(third11_count=-1)

    @pytest.mark.parametrize("counts", [
        (1.5, 0), (True, 0), ("1", 0), (0, 2.0), (0, False),
    ], ids=["float", "bool", "str", "canonical-float", "canonical-bool"])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="singularity counts must be integers"):
            SingularityLedger(*counts)

    def test_record_never_sees_a_float_count(self):
        with pytest.raises(ValueError, match="must be integers, got 1.5"):
            StableSurfaceRecord(4, 3, SingularityLedger(1.5))

    def test_record_consistency(self):
        with pytest.raises(LedgerError):
            StableSurfaceRecord(3, 3, SingularityLedger(3), smoothable=True)

    # ids as in earlier versions of this suite, where the cases gave K^2 itself
    @pytest.mark.parametrize("k_squared_thirds, chi", [
        (1.5, 3), (True, 3), ("1", 3), (Fraction(9, 2), 3.0), (3, True), (3, Fraction(3)),
    ], ids=["1.5-3", "True-3", "1-3", "k_squared3-3.0", "k_squared4-True", "k_squared5-chi5"])
    def test_record_rejects_non_exact_values(self, k_squared_thirds, chi):
        with pytest.raises(ValueError):
            StableSurfaceRecord(k_squared_thirds, chi, SingularityLedger(0))

    def test_thirds_path_refuses_non_integers(self):
        with pytest.raises(LedgerError, match="^k_squared 3/2 is not a whole number of thirds"):
            StableSurfaceRecord(Fraction(9, 2), 3, SingularityLedger(3))

    def test_replace_equals_a_record_built_directly(self):
        ledger = SingularityLedger(3)
        record = StableSurfaceRecord(1, 3, ledger)._replace(ample_canonical=True)
        twin = StableSurfaceRecord(1, 3, ledger, ample_canonical=True)
        assert record == twin and hash(record) == hash(twin)
        assert record.k_squared_thirds == 1 and type(record.k_squared_thirds) is int

    @pytest.mark.parametrize("field", ["ample_canonical", "smoothable"])
    @pytest.mark.parametrize("flag", [1, 0, None, "yes", 1.0], ids=repr)
    def test_flags_must_be_bools(self, field, flag):
        message = f"^{field} must be a bool, got {flag!r}$"
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, SingularityLedger(0), **{field: flag})
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, SingularityLedger(0))._replace(**{field: flag})

    def test_built_record_refuses_an_int_flag(self):
        record = catalog.build_stable(5)[0]
        with pytest.raises(ValueError, match="^ample_canonical must be a bool, got 1$"):
            record._replace(ample_canonical=1)
        assert record._replace(ample_canonical=True) == record

    @pytest.mark.parametrize("ledger", [None, (3, 0)], ids=repr)
    def test_ledger_must_be_a_ledger(self, ledger):
        # the ledger's count was read before its type, so None raised AttributeError
        message = f"^ledger must be a SingularityLedger, got {re.escape(repr(ledger))}$"
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, ledger)
        with pytest.raises(ValueError, match=message):
            catalog.build_stable(6).record._replace(ledger=ledger)

    def test_integer_k_squared_becomes_a_fraction(self):
        record = StableSurfaceRecord(7, 5, SingularityLedger(0))
        assert type(record.k_squared) is Fraction and record.k_squared == Fraction(7, 3)


class TestContraction:
    def test_three_curves(self):
        chi = 9
        record = contract_minus3(chi, 2 * chi - 6, 3)
        assert record.k_squared == 2 * chi - 5
        assert record.chi == chi
        assert record.ledger.third11_count == 3
        assert not record.smoothable

    @given(st.integers(4, 40), st.integers(1, 20))
    def test_gain_is_a_third_per_curve(self, chi, count):
        record = contract_minus3(chi, 2 * chi - 6, count)
        assert record.k_squared == Fraction(2 * chi - 6) + Fraction(count, 3)
        assert record.chi == chi

    def test_single_contraction_fractional(self):
        record = contract_minus3(5, 0, 1)
        assert record.k_squared == Fraction(1, 3)

    def test_bound_at_the_bottom_of_the_line(self):
        # chi = 3 admits at most two triples of curves, and the bound
        # 3*K^2 <= 8*chi - 16 stays strict there
        for triples in (1, 2):
            record = contract_minus3(3, 0, 3 * triples)
            assert 3 * record.k_squared <= 8 * 3 - 16
            assert 3 * record.k_squared != 8 * 3 - 16

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            contract_minus3(5, 4, 0)

    def test_ampleness_flag(self):
        assert not contract_minus3(5, 4, 3).ample_canonical
        assert contract_minus3(5, 4, 3, ample_canonical=True).ample_canonical
        # the record's own check refuses a flag that is not a bool
        with pytest.raises(ValueError, match="^ample_canonical must be a bool, got 1$"):
            contract_minus3(5, 4, 3, ample_canonical=1)


class TestCorrection:
    # ids as in earlier versions of this suite, where the values were Fractions
    @pytest.mark.parametrize("count,expected", [(3, -3), (0, 0), (6, -6), (1, -1)],
                             ids=["3-expected0", "0-expected1", "6-expected2", "1-expected3"])
    def test_values(self, count, expected):
        assert rr_correction_thirds(SingularityLedger(third11_count=count)) == expected

    def test_canonical_points_neutral(self):
        assert rr_correction_thirds(SingularityLedger(canonical_count=5)) == 0


class TestBicanonicalCount:
    def test_stable_line_example(self):
        record = StableSurfaceRecord(3, 3, SingularityLedger(3))
        assert h0_2K(record) == 3
        assert record.in_component_without_canonical_models

    def test_smooth_example(self):
        record = StableSurfaceRecord(24, 7, SingularityLedger(0), smoothable=True)
        assert h0_2K(record) == 15
        assert not record.in_component_without_canonical_models

    def test_derived_example(self):
        record = StableSurfaceRecord(9, 4, SingularityLedger(3))
        assert h0_2K(record) == 6
        assert record.in_component_without_canonical_models

    def test_count_leaves_the_record_unchanged(self):
        record = StableSurfaceRecord(3, 3, SingularityLedger(3))
        before = record._asdict()
        h0_2K(record)
        assert record._asdict() == before

    def test_record_refuses_assignment(self):
        record = StableSurfaceRecord(3, 3, SingularityLedger(3))
        with pytest.raises(AttributeError):
            record.k_squared = Fraction(2)

    def test_non_integral_total_rejected(self):
        record = StableSurfaceRecord(12, 5, SingularityLedger(1))
        with pytest.raises(LedgerError) as raised:
            h0_2K(record)
        assert str(raised.value) == (
            "bicanonical count 26/3 is not an integer: ledger inconsistent "
            "with the claimed invariants")

    @given(st.integers(-40, 40), st.fractions(max_denominator=9)
           | st.integers(-120, 120).map(lambda n: Fraction(n, 3)),
           st.integers(0, 30), st.integers(0, 4))
    def test_count_is_the_exact_sum(self, chi, k_squared, third11, canonical):
        ledger = SingularityLedger(third11, canonical)
        if 3 % k_squared.denominator:
            # K^2 is kept in thirds, so the record refuses any other value
            with pytest.raises(LedgerError,
                               match=f"^k_squared {k_squared} is not a whole number of thirds"):
                StableSurfaceRecord(3 * k_squared, chi, ledger)
            return
        record = StableSurfaceRecord(int(3 * k_squared), chi, ledger)
        total = Fraction(chi) + k_squared + Fraction(rr_correction_thirds(record.ledger), 3)
        if total.denominator == 1:
            count = h0_2K(record)
            assert type(count) is int and count == total
        else:
            with pytest.raises(LedgerError, match=f"^bicanonical count {total} is not"):
                h0_2K(record)

    @given(st.integers(3, 60), st.integers(0, 12))
    def test_flag_tracks_quotient_points(self, chi, triples):
        record = StableSurfaceRecord(
            3 * (2 * chi - 6 + triples), chi, SingularityLedger(3 * triples),
            smoothable=triples == 0)
        h0_2K(record)
        assert record.in_component_without_canonical_models == (triples > 0)


def _triple_spec(chi, retained_nodes):
    from horikawa.catalog import pick_parameters

    e, alpha, beta = pick_parameters(chi)
    points = 2 * alpha + 2 * beta - 4 * e - retained_nodes
    ruled = Hirzebruch(e)
    blown = lattice.blow_up(ruled, points)
    exc = blown.exceptional_sum()
    d1 = lattice.pullback(blown, ruled.divisor((2, alpha))) - exc
    d2 = lattice.pullback(blown, ruled.divisor((2, beta))) - exc
    return CoverSpec.triple(blown, d1, d2)


def _resolve_and_contract(spec, count):
    # the resolution's report, and the stable record made from it as build_stable makes it
    resolved = resolve_node_bookkeeping(spec, count)
    return resolved, contract_minus3(resolved.chi, resolved.k_squared, count)


class TestNodeResolution:
    def test_returns_the_resolution_report(self):
        resolved = resolve_node_bookkeeping(_triple_spec(9, 3), 3)
        assert type(resolved) is covers.InvariantReport
        assert resolved.minimal_or_ample == covers.MINIMALITY_UNKNOWN

    @pytest.mark.parametrize("chi", range(3, 21))
    def test_three_retained_nodes(self, chi):
        resolved, unresolved = _resolve_and_contract(_triple_spec(chi, 3), 3)
        assert unresolved.k_squared == 2 * chi - 5
        assert resolved.k_squared == 2 * chi - 6
        assert resolved.chi == unresolved.chi == chi
        assert unresolved.ledger.third11_count == 3

    def test_double_cover_refused(self):
        with pytest.raises(BuildingDataError,
                           match="^node bookkeeping applies to degree 3 covers$"):
            resolve_node_bookkeeping(CoverSpec.double(Hirzebruch(0), Hirzebruch(0).zero()), 3)

    def test_non_spec_refused(self):
        # unchecked, an int raised AttributeError on its .degree
        with pytest.raises(TypeError, match="^expected a CoverSpec, got 5$"):
            resolve_node_bookkeeping(5, 3)

    def test_node_free_spec_refused(self):
        # with no node there is nothing to resolve: the resolving blow-up refuses the count
        with pytest.raises(ValueError, match="^blow-up point count must be a positive integer$"):
            resolve_node_bookkeeping(_triple_spec(8, 0), 0)

    @pytest.mark.parametrize("count", [-1, True, 1.0], ids=["negative", "bool", "float"])
    def test_count_must_be_a_positive_int(self, count):
        with pytest.raises(ValueError, match="^blow-up point count must be a positive integer$"):
            resolve_node_bookkeeping(_triple_spec(8, 1), count)

    @pytest.mark.parametrize("nodes, count", [(3, 6), (0, 3)],
                             ids=["three-nodes-count-six", "node-free-count-three"])
    def test_count_must_be_the_branch_intersection(self, nodes, count):
        spec = _triple_spec(9, nodes)
        d1, d2 = spec.branch
        assert d1.dot(d2) == nodes
        message = f"{count} retained nodes, but the branch intersection number is {nodes}"
        with pytest.raises(LedgerError, match=f"^{message}$"):
            resolve_node_bookkeeping(spec, count)

    def test_gain_is_nodes_over_three(self):
        for nodes in (1, 2, 3):
            resolved, unresolved = _resolve_and_contract(_triple_spec(9, nodes), nodes)
            gain = unresolved.k_squared - resolved.k_squared
            assert gain == Fraction(nodes, 3)

    def test_fully_resolved_vs_stable_difference(self):
        chi = 12
        full = covers.cover_invariants(_triple_spec(chi, 0))
        _resolved, unresolved = _resolve_and_contract(_triple_spec(chi, 3), 3)
        assert unresolved.k_squared - full.k_squared == 1
