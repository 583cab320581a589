"""One-third quotient point bookkeeping."""

import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import catalog, covers, lattice
from horikawa.covers import BuildingDataError, CoverSpec
from horikawa.lattice import Hirzebruch
from horikawa.records import Affine, Planar
from horikawa.stable import (LedgerError, SingularityLedger, StableSurfaceRecord, contract_minus3,
                             h0_2K, resolve_node_bookkeeping, rr_correction_thirds)


class TestLedger:
    def test_counts_nonnegative(self):
        with pytest.raises(ValueError):
            SingularityLedger(third11_count=-1)

    @pytest.mark.parametrize("counts, refusal", [
        ((1.5, 0), "third11_count must be int | Affine, got 1.5"),
        ((True, 0), "third11_count must be int | Affine, got True"),
        (("1", 0), "third11_count must be int | Affine, got '1'"),
        ((0, 2.0), "canonical_count must be int, got 2.0"),
        ((0, False), "canonical_count must be int, got False"),
    ], ids=["float", "bool", "str", "canonical-float", "canonical-bool"])
    def test_counts_must_be_integers(self, counts, refusal):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            SingularityLedger(*counts)

    def test_record_never_sees_a_float_count(self):
        with pytest.raises(ValueError, match=r"^third11_count must be int \| Affine, got 1.5$"):
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
        ledger = SingularityLedger(1)
        record = StableSurfaceRecord(1, 3, ledger)._replace(ample_canonical=True)
        twin = StableSurfaceRecord(1, 3, ledger, ample_canonical=True)
        assert record == twin and hash(record) == hash(twin)
        assert record.k_squared_thirds == 1 and type(record.k_squared_thirds) is int

    @pytest.mark.parametrize("field", ["ample_canonical", "smoothable"])
    @pytest.mark.parametrize("flag", [1, 0, None, "yes", 1.0], ids=repr)
    def test_flags_must_be_bools(self, field, flag):
        message = f"^{field} must be bool, got {flag!r}$"
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, SingularityLedger(0), **{field: flag})
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, SingularityLedger(0))._replace(**{field: flag})

    def test_built_record_refuses_an_int_flag(self):
        record = catalog.build_stable(5)[0]
        with pytest.raises(ValueError, match="^ample_canonical must be bool, got 1$"):
            record._replace(ample_canonical=1)
        assert record._replace(ample_canonical=True) == record

    @pytest.mark.parametrize("ledger", [None, (3, 0)], ids=repr)
    def test_ledger_must_be_a_ledger(self, ledger):
        # the fields' test refuses a non-ledger before its count is read
        message = f"^ledger must be SingularityLedger, got {re.escape(repr(ledger))}$"
        with pytest.raises(ValueError, match=message):
            StableSurfaceRecord(3, 3, ledger)
        with pytest.raises(ValueError, match=message):
            catalog.build_stable(6).record._replace(ledger=ledger)

    def test_integer_k_squared_becomes_a_fraction(self):
        record = StableSurfaceRecord(7, 5, SingularityLedger(1))
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
        with pytest.raises(ValueError, match="^ample_canonical must be bool, got 1$"):
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
        # where the record is built, so no record has a count that is not whole
        with pytest.raises(LedgerError) as raised:
            StableSurfaceRecord(12, 5, SingularityLedger(1))
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
        total = Fraction(chi) + k_squared + Fraction(rr_correction_thirds(ledger), 3)
        if total.denominator == 1:
            count = h0_2K(StableSurfaceRecord(int(3 * k_squared), chi, ledger))
            assert type(count) is int and count == total
        else:  # refused where the record is built
            with pytest.raises(LedgerError, match=f"^bicanonical count {total} is not"):
                StableSurfaceRecord(int(3 * k_squared), chi, ledger)

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

    @pytest.mark.parametrize("count, message", [
        (-1, "blow-up point count must be a positive integer"),
        (True, "point_count must be int | Affine, got True"),
        (1.0, "point_count must be int | Affine, got 1.0"),
    ], ids=["negative", "bool", "float"])
    def test_count_must_be_a_positive_int(self, count, message):
        # the blow-up's fields' test refuses a count that is no int, its constructor the rest
        with pytest.raises(ValueError, match=f"^{message}$"):
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


_COEFFICIENTS = st.integers(-40, 40)


@st.composite
def _affine_and_operand(draw):
    """(a, b, lo, hi) of an interval of at most 13 points, and an int or another (a, b)."""
    lo = draw(st.integers(-12, 12))
    x = (draw(_COEFFICIENTS), draw(_COEFFICIENTS), lo, draw(st.integers(lo, lo + 12)))
    return x, draw(st.one_of(_COEFFICIENTS, st.tuples(_COEFFICIENTS, _COEFFICIENTS)))


def _built(pair):
    """The Affine of the drawn (a, b, lo, hi), and the operand as an int or on its interval."""
    (a, b, lo, hi), y = pair
    return Affine(a, b, lo, hi), y if type(y) is int else Affine(*y, lo, hi)


def _at(value, t, s=0):
    """The value at (t, s) of a Planar, at t of an Affine, or an int itself."""
    if type(value) is int:
        return value
    return value.a + value.b * t + (value.c * s if type(value) is Planar else 0)


# each int field annotated int | Affine (and parameters[1]), by record and field
_WIDENED = (
    "AdmissiblePair.chi", "AdmissiblePair.k_squared", "AmplenessCertificate.coefficient",
    "AmplenessCertificate.self_intersection", "AmplenessCertificate.witness_virtual_count",
    "BlowUp.point_count", "ConstructionRecipe.blow_up_count", "ConstructionRecipe.parameters[1]",
    "InvariantReport.chi", "InvariantReport.k_squared", "InvariantReport.p_g",
    "NefCertificate.closure_coefficient", "NefCertificate.pairings[0][1]",
    "SectionCount.value", "SingularityLedger.third11_count", "StableSurfaceRecord.chi",
    "StableSurfaceRecord.k_squared_thirds")


def _widened_sites() -> dict:
    """By site, a function that builds the site's record with a value there, and its value."""
    one, built = catalog.build_component_one(9), catalog.build_stable(9)
    report, nef, ample, record = (one.report, one.certificates[0], built.recipe.certificates[0],
                                  built.record)
    (label, pairing), *pairings = nef.pairings
    e, alpha, beta = one.parameters

    def field(instance, name):
        return lambda v: instance._replace(**{name: v}), getattr(instance, name)

    return {
        "AdmissiblePair.chi": (lambda v: catalog.AdmissiblePair(12, v), 9),
        "AdmissiblePair.k_squared": (lambda v: catalog.AdmissiblePair(v, 9), 12),
        **{f"AmplenessCertificate.{name}": field(ample, name)
           for name in ("coefficient", "self_intersection", "witness_virtual_count")},
        "BlowUp.point_count": (lambda v: lattice.BlowUp(Hirzebruch(1), v), 4),
        "ConstructionRecipe.blow_up_count": field(one, "blow_up_count"),
        "ConstructionRecipe.parameters[1]": (lambda v: one._replace(parameters=(e, v, beta)),
                                             alpha),
        **{f"InvariantReport.{name}": field(report, name) for name in ("chi", "k_squared", "p_g")},
        "NefCertificate.closure_coefficient": field(nef, "closure_coefficient"),
        "NefCertificate.pairings[0][1]": (
            lambda v: nef._replace(pairings=((label, v), *pairings)), pairing),
        "SectionCount.value": (lambda v: lattice.SectionCount(v, True), 3),
        "SingularityLedger.third11_count": (lambda v: SingularityLedger(v), 3),
        **{f"StableSurfaceRecord.{name}": field(record, name)
           for name in ("chi", "k_squared_thirds")},
    }


def _holds(record, value) -> bool:
    """Whether ``value`` itself is a field of ``record``, or an entry of one, two levels down."""
    for field in record:
        entries = field if type(field) is tuple else ()
        nested = [inner for entry in entries if type(entry) is tuple for inner in entry]
        if any(v is value for v in (field, *entries, *nested)):
            return True
    return False


class TestAffine:
    """The symbolic chi and epsilon of verify, against their values at every t."""

    @settings(max_examples=400, derandomize=True)
    @given(_affine_and_operand(), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
           st.booleans())
    def test_a_comparison_raises_or_agrees_at_every_t(self, pair, symbol, reflected):
        x, y = _built(pair)
        compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
                   "==": operator.eq, "!=": operator.ne}[symbol]
        left, right = (y, x) if reflected else (x, y)  # 5 <= x asks x >= 5
        points = range(x.lo, x.hi + 1)
        answers = {compare(_at(left, t), _at(right, t)) for t in points}
        decided = len(answers) == 1  # exactly where the answer is the same at every t
        try:
            got = compare(left, right)
        except TypeError:
            assert not decided
        else:
            assert decided and {got} == answers

    @settings(max_examples=400, derandomize=True)
    @given(_affine_and_operand())
    def test_a_truth_value_raises_or_agrees_at_every_t(self, pair):
        x, _y = _built(pair)
        answers = {bool(_at(x, t)) for t in range(x.lo, x.hi + 1)}
        decided = len(answers) == 1  # exactly where, as for ==, the answer is the same at every t
        try:
            got = bool(x)
        except TypeError:
            assert not decided
        else:
            assert decided and {got} == answers

    def test_equality_with_a_value_between_the_ends_is_exact(self):
        # 53 lies between the ends of every class r + 12t, t in [1, 7], and only
        # the class of 5 holds it; 7 is no value of the even 2t
        with pytest.raises(TypeError, match="does not decide"):
            Affine(5, 12, 1, 7) == 53
        assert not any(Affine(r, 12, 1, 7) == 53 for r in range(12) if r != 5)
        assert Affine(1, 2, 0, 5) - 1 != 7 and Affine(3, 0, 0, 5) == Affine(-2, 0, 0, 5) + 5

    @settings(max_examples=400, derandomize=True)
    @given(_affine_and_operand(), st.integers(-6, 6))
    def test_arithmetic_agrees_at_every_t(self, pair, n):
        x, y = _built(pair)
        results = [(x + y, operator.add, (x, y)), (y + x, operator.add, (y, x)),
                   (x - y, operator.sub, (x, y)), (y - x, operator.sub, (y, x)),
                   (n - x, operator.sub, (n, x)), (-x, operator.neg, (x,)),
                   (x * n, operator.mul, (x, n)), (n * x, operator.mul, (n, x))]
        for result, concrete, operands in results:
            assert type(result) is Affine and (result.lo, result.hi) == (x.lo, x.hi)
            for t in range(x.lo, x.hi + 1):
                assert _at(result, t) == concrete(*(_at(v, t) for v in operands))
        if n < 1 or x.b % n:
            for use in (divmod, operator.mod, operator.floordiv):
                with pytest.raises(TypeError):
                    use(x, n)
            return
        quotient, remainder = divmod(x, n)
        assert type(remainder) is int and remainder == x % n
        assert type(x // n) is Affine and (x // n).b == quotient.b and (x // n).a == quotient.a
        for t in range(x.lo, x.hi + 1):
            assert (_at(quotient, t), remainder) == divmod(_at(x, t), n)

    @pytest.mark.parametrize("use", [
        str, format, lambda x: f"{x}", lambda x: f"{x:>3}", hash, int, range, operator.index,
        lambda x: x % 4, lambda x: x // 4, lambda x: x % -2, lambda x: x * x,
        lambda x: x * 1.5, lambda x: x + 1.5, lambda x: x + True, lambda x: x - True,
        lambda x: True - x, lambda x: 1.5 - x, lambda x: x + Fraction(1),
        lambda x: x + Affine(0, 1, 1, 3), lambda x: x >= 6, lambda x: 6 <= x,
        lambda x: x < None, lambda x: x == "1", lambda x: divmod(x, 3), lambda x: divmod(x, 0),
        lambda x: [1, 2][x], lambda x: x - 5 if x - 5 else 0,
    ], ids=["str", "format", "f-string", "format-spec", "hash", "int", "range", "index",
            "mod-not-dividing-b", "floordiv-not-dividing-b", "mod-negative", "square",
            "by-float", "plus-float", "plus-bool", "minus-bool", "bool-minus", "float-minus",
            "plus-fraction", "other-interval", "at-least-undecided", "reflected-undecided",
            "against-none", "against-str", "divmod-not-dividing-b", "divmod-by-zero",
            "subscript", "undecided-branch"])
    def test_any_other_use_raises(self, use):
        with pytest.raises(TypeError):
            use(Affine(1, 2, 0, 5))

    def test_admitted_where_epsilon_flows(self):
        # epsilon_family takes it after its int test, the ledger and the record by their
        # annotations, and the record they build holds its values at every epsilon of the interval
        chi, top = 40, 27
        record = catalog.epsilon_family(chi, Affine(0, 1, 1, top - 1))
        for epsilon in range(1, top):
            concrete = catalog.epsilon_family(chi, epsilon)
            assert _at(record.k_squared_thirds, epsilon) == concrete.k_squared_thirds
            assert _at(record.ledger.third11_count, epsilon) == 3 * epsilon
        # top + 1 is refused, so an interval that holds it is undecided
        with pytest.raises(TypeError, match="does not decide"):
            catalog.epsilon_family(chi, Affine(0, 1, 1, top + 1))
        assert SingularityLedger(Affine(3, 0, 0, 1)).third11_count.a == 3
        with pytest.raises(ValueError, match="^canonical_count must be int, got 1.5$"):
            SingularityLedger(Affine(3, 0, 0, 1), 1.5)

    @pytest.mark.parametrize("site", sorted(_WIDENED))
    def test_a_widened_field_admits_an_affine(self, site):
        # one that is the field's value at every t passes every value rule the
        # int passes; anything else that is no int is still refused
        put, value = _widened_sites()[site]
        interval = Affine(value, 0, 1, 2)
        assert _holds(put(interval), interval)
        for wrong in (1.5, True, "1"):
            with pytest.raises(ValueError):
                put(wrong)


_SMALL = st.integers(-12, 12)
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
                "==": operator.eq, "!=": operator.ne}


@st.composite
def _planar_and_operand(draw):
    """A Planar on a trapezoid of at least two t, whose cap is 2 or more at one end, and
    an int, an Affine on its interval or another Planar on its trapezoid."""
    lo = draw(st.integers(-6, 6))
    hi, slope = draw(st.integers(lo + 1, lo + 6)), draw(st.integers(-3, 3))
    ends = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
        lambda ends: max(ends) >= 2 and (ends[1] - ends[0]) % (hi - lo) == 0)
        if slope else st.integers(2, 8).map(lambda cap: (cap, cap)))
    slope = (ends[1] - ends[0]) // (hi - lo)
    cap = Affine(ends[0] - slope * lo, slope, lo, hi)
    x = Planar(draw(_SMALL), draw(_SMALL), draw(_SMALL), cap)
    kind = draw(st.sampled_from(["int", "affine", "planar"]))
    y = (draw(_SMALL) if kind == "int" else Affine(draw(_SMALL), draw(_SMALL), lo, hi)
         if kind == "affine" else Planar(draw(_SMALL), draw(_SMALL), draw(_SMALL), Affine(
             cap.a, cap.b, lo, hi)))  # an equal cap that is another object
    return x, y


def _points(x: Planar) -> list:
    """Every integer point (t, s) of the trapezoid of ``x``."""
    return [(t, s) for t in range(x.lo, x.hi + 1) for s in range(1, x.cap.a + x.cap.b * t + 1)]


def _open_equality(x: Planar, y) -> bool:
    """Whether ``x == y`` may raise: gcd(c1, c2) divides c0 in x - y = c0 + c1*t + c2*s,
    and x - y differs in sign between two corners of the trapezoid."""
    c0, c1, c2 = (x.a - y, x.b, x.c) if type(y) is int else (
        x.a - y.a, x.b - y.b, x.c - (y.c if type(y) is Planar else 0))
    corners = [c0 + c1 * t + c2 * s for t in (x.lo, x.hi) for s in (1, _at(x.cap, t))]
    return c0 % (math.gcd(c1, c2) or 1) == 0 and len({(c > 0) - (c < 0) for c in corners}) > 1


class TestPlanar:
    """verify's symbolic epsilon on a class of chi, against its values at every point."""

    @settings(max_examples=600, derandomize=True)
    @given(_planar_and_operand(), st.sampled_from(sorted(_COMPARISONS)), st.booleans())
    def test_a_comparison_raises_or_agrees_at_every_point(self, pair, symbol, reflected):
        x, y = pair
        compare = _COMPARISONS[symbol]
        left, right = (y, x) if reflected else (x, y)
        answers = {compare(_at(left, t, s), _at(right, t, s)) for t, s in _points(x)}
        try:
            got = compare(left, right)
        except TypeError:  # == may leave open a line between integer points
            assert len(answers) > 1 or symbol in ("==", "!=") and _open_equality(x, y)
        else:
            assert {got} == answers

    @settings(max_examples=400, derandomize=True)
    @given(_planar_and_operand())
    def test_a_truth_value_raises_or_agrees_at_every_point(self, pair):
        x, _y = pair
        answers = {bool(_at(x, t, s)) for t, s in _points(x)}
        try:
            got = bool(x)
        except TypeError:  # bool(x) is x != 0, which may leave the same lines open
            assert len(answers) > 1 or _open_equality(x, 0)
        else:
            assert {got} == answers

    def test_equality_with_a_line_that_misses_every_point_is_false(self):
        # s = 2t + 1/2 has no integer point, and s = t crosses 1 <= s <= 3, t in [0, 2],
        # at (1, 1) and (2, 2), but s = t + 5 only above it
        s = Planar(0, 0, 1, Affine(3, 0, 0, 2))
        t = Affine(0, 1, 0, 2)
        assert not 2 * s == 4 * t + 1 and not s == t + 5 and s != t + 5
        with pytest.raises(TypeError, match="does not decide"):
            s == t

    @settings(max_examples=400, derandomize=True)
    @given(_planar_and_operand(), st.integers(-6, 6))
    def test_arithmetic_agrees_at_every_point(self, pair, n):
        x, y = pair
        results = [(x + y, operator.add, (x, y)), (y + x, operator.add, (y, x)),
                   (x - y, operator.sub, (x, y)), (y - x, operator.sub, (y, x)),
                   (n - x, operator.sub, (n, x)), (-x, operator.neg, (x,)),
                   (x * n, operator.mul, (x, n)), (n * x, operator.mul, (n, x))]
        for result, concrete, operands in results:
            assert type(result) is Planar and (result.lo, result.hi) == (x.lo, x.hi)
            assert (result.cap.a, result.cap.b) == (x.cap.a, x.cap.b)
            for t, s in _points(x):
                assert _at(result, t, s) == concrete(*(_at(v, t, s) for v in operands))

    @settings(max_examples=400, derandomize=True)
    @given(_planar_and_operand(), st.integers(-6, 6))
    def test_divmod_answers_where_every_point_has_one_remainder(self, pair, n):
        x, _y = pair
        remainders = {_at(x, t, s) % n for t, s in _points(x)} if n else {None, 0}
        if n < 1 or len(remainders) > 1:
            for use in (divmod, operator.mod, operator.floordiv):
                with pytest.raises(TypeError):
                    use(x, n)
            return
        quotient, remainder = divmod(x, n)
        assert type(remainder) is int and {remainder} == remainders == {x % n}
        assert type(x // n) is Planar
        for t, s in _points(x):
            assert (_at(quotient, t, s), remainder) == divmod(_at(x, t, s), n)
            assert _at(x // n, t, s) == _at(quotient, t, s)

    def test_every_method_that_reads_c_is_its_own(self):
        # a comparison that read a, b and the interval only would drop c: s < 2 on
        # 1 <= s <= 3 holds at s = 1 alone, but -2 < 0 at both ends of t
        with pytest.raises(TypeError, match="does not decide"):
            Planar(0, 0, 1, Affine(3, 0, 0, 2)) < 2

    @settings(max_examples=300, derandomize=True)
    @given(_planar_and_operand(), st.integers(-6, 6))
    def test_a_result_has_a_cap_exactly_where_an_operand_has_one(self, pair, n):
        # on Affines and ints an Affine with c = 0 and no cap; with one Planar, in
        # either order, a Planar on its cap
        x, _y = pair
        z = Affine(x.a, x.b, x.lo, x.hi)
        plain = [z + z, z + n, n + z, z - z, z - n, n - z, -z, z * n, n * z, 6 * z // 3,
                 divmod(6 * z, 2)[0]]
        for result in plain:
            assert type(result) is Affine and result.c == 0 and result.cap is None
        capped = [x + z, z + x, x - z, z - x, x + n, n + x, x - n, n - x, -x, x * n, n * x,
                  6 * x // 3, divmod(6 * x, 2)[0]]
        for result in capped:
            assert type(result) is Planar and result.cap is x.cap
            assert (result.lo, result.hi) == (x.lo, x.hi)

    @pytest.mark.parametrize("use", [
        str, hash, int, operator.index, lambda x: x * x, lambda x: x * 1.5,
        lambda x: x + True, lambda x: True - x, lambda x: x - 1.5, lambda x: x + Fraction(1),
        lambda x: x + Affine(0, 1, 1, 4), lambda x: x + Planar(0, 0, 1, Affine(3, 1, 1, 5)),
        lambda x: x < Planar(0, 0, 1, Affine(3, 0, 1, 5)), lambda x: x == "1",
        lambda x: divmod(x, 0), lambda x: x % 2, lambda x: x > 6, lambda x: 6 <= x,
    ], ids=["str", "hash", "int", "index", "square", "by-float", "plus-bool", "bool-minus",
            "minus-float", "plus-fraction", "other-interval", "other-cap", "against-other-cap",
            "against-str", "divmod-by-zero", "mod-not-dividing-c", "undecided",
            "reflected-undecided"])
    def test_any_other_use_raises(self, use):
        # x = 2t + 3s on 1 <= t <= 5, 1 <= s <= 2 + t takes the values 5 to 31
        with pytest.raises(TypeError):
            use(Planar(0, 2, 3, Affine(2, 1, 1, 5)))

    @pytest.mark.parametrize("cap", [Affine(1, -1, 0, 2), Affine(0, 1, 0, 2), (1, 0, 0, 2), 3])
    def test_the_cap_is_an_affine_at_least_1_at_both_ends(self, cap):
        with pytest.raises(ValueError, match="^cap must be an Affine"):
            Planar(0, 0, 1, cap)

    def test_admitted_where_epsilon_flows(self):
        # epsilon_family takes it after its int test, and the record holds its values
        # at every (chi, epsilon) of the trapezoid: chi = 5 + 12t, epsilon = s <= 3 + 8t
        chi = Affine(5, 12, 1, 6)
        record = catalog.epsilon_family(chi, Planar(0, 0, 1, (2 * chi + 2) // 3 - 1))
        for t in range(1, 7):
            for epsilon in range(1, 4 + 8 * t):
                concrete = catalog.epsilon_family(5 + 12 * t, epsilon)
                assert _at(record.k_squared_thirds, t, epsilon) == concrete.k_squared_thirds
                assert _at(record.ledger.third11_count, t, epsilon) == 3 * epsilon
        # the top is refused, so a trapezoid that holds it is undecided
        with pytest.raises(TypeError, match="does not decide"):
            catalog.epsilon_family(chi, Planar(0, 0, 1, (2 * chi + 2) // 3 + 1))
