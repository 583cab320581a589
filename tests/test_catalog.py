"""Classification data, construction pipelines and positivity certificates."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa import catalog, covers, lattice, stable
from horikawa.catalog import (AdmissiblePair, CertificateError, admissible,
                              ampleness_certificate, build_component_one,
                              build_component_two, build_stable, classify,
                              epsilon_family, nef_certificate,
                              component_two_germ, parity_discriminator,
                              pick_parameters, scroll_family_curve)
from horikawa.lattice import DivisorClass, Hirzebruch, ProjectivePlane
from horikawa.records import Affine
from horikawa.stable import SingularityLedger, StableSurfaceRecord


class TestAdmissibility:
    @pytest.mark.parametrize("pair,expected", [
        ((8, 7), True),
        ((0, 1), False),
        ((1, 1), True),
        ((9, 1), True),
        ((10, 1), False),
        ((-2, 5), False),
        ((4, 0), False),
    ])
    def test_examples(self, pair, expected):
        assert admissible(*pair) == expected

    @given(st.integers(4, 100))
    def test_low_line_is_admissible(self, chi):
        assert admissible(2 * chi - 6, chi)
        assert admissible(2 * chi - 5, chi)

    def test_pair_type_validates(self):
        with pytest.raises(ValueError):
            AdmissiblePair(0, 1)

    @pytest.mark.parametrize("pair", [(8.0, 7), (8, 7.0), (Fraction(8), 7), (8, True),
                                      (True, 1), ("8", 7), (10.0, 8), (10, 8.0), (9.0, 7.5)])
    def test_pair_refuses_values_that_are_not_int(self, pair):
        # every admissibility test refuses them as the pair does
        for build in (AdmissiblePair, classify, admissible, catalog.admissibility_failures):
            with pytest.raises(ValueError, match="K\\^2 and chi must be integers"):
                build(*pair)


class TestClassification:
    def test_single_component_off_eight(self):
        info = classify(10, 8)
        assert info.count == 1
        assert info.labels == ()

    def test_two_components_at_eight(self):
        info = classify(8, 7)
        assert info.count == 2
        assert info.labels == ("I", "II")
        assert info.images.first_top_e == 2  # F_0 and F_2
        assert info.images.second == (catalog.P2_IMAGE, catalog.CONE_IMAGE)
        assert type(catalog.P2_IMAGE) is ProjectivePlane

    def test_two_components_above_eight(self):
        info = classify(16, 11)
        assert info.count == 2
        assert info.images.second == (Hirzebruch(6),)
        assert info.images.first_top_e == 4  # F_0, F_2 and F_4

    def test_images_are_surfaces_or_the_cone(self):
        with pytest.raises(ValueError, match="^an image is a surface or the cone, got "):
            catalog.CanonicalImages(4, ("F_6",))

    def test_off_line_rejected(self):
        with pytest.raises(ValueError, match="off the line"):
            classify(9, 7)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="not an admissible"):
            classify(0, 3)

    @given(st.integers(4, 100))
    def test_count_rule(self, chi):
        info = classify(2 * chi - 6, chi)
        assert info.count == (2 if (2 * chi - 6) % 8 == 0 else 1)
        assert catalog.component_count(2 * chi - 6) == info.count


class TestParameterTable:
    @pytest.mark.parametrize("chi,expected", [
        (6, (1, 6, 3)),
        (7, (0, 7, 1)),
        (5, (2, 5, 5)),
        (3, (1, 3, 3)),
        (100, (0, 100, 1)),
    ])
    def test_table(self, chi, expected):
        assert pick_parameters(chi) == expected

    @given(st.integers(3, 200))
    def test_divisibility_invariant(self, chi):
        e, alpha, beta = pick_parameters(chi)
        assert (alpha + 2 * beta) % 3 == 0
        assert 2 * alpha + 2 * beta - 4 * e == 2 * chi + 2

    def test_formula_matches_the_residue_table(self):
        # (e, beta) by chi mod 3, written out as a table
        table = {0: (1, 3), 1: (0, 1), 2: (2, 5)}
        for chi in range(3, 3001):
            e, beta = table[chi % 3]
            assert pick_parameters(chi) == (e, chi, beta)

    def test_below_range(self):
        with pytest.raises(ValueError):
            pick_parameters(2)

    # unchecked, 3.5 gave (2, 3.5, 5) and 4.0 gave (0, 4.0, 1)
    @pytest.mark.parametrize("chi", [3.5, 4.0, True], ids=["float", "whole-float", "bool"])
    def test_non_integer_refused(self, chi):
        with pytest.raises(ValueError, match="^chi must be an integer, got "):
            pick_parameters(chi)


class TestComponentOne:
    @pytest.mark.parametrize("chi", [4, 5, 6, 7, 9, 11, 30])
    def test_invariants(self, chi):
        recipe = build_component_one(chi)
        assert recipe.report.k_squared == 2 * chi - 6
        assert recipe.report.chi == chi
        assert recipe.report.p_g == chi - 1
        assert recipe.blow_up_count == 2 * chi + 2
        assert recipe.target == AdmissiblePair(2 * chi - 6, chi)

    def test_tricanonical_identity(self):
        for chi in (4, 7, 12, 23):
            recipe = build_component_one(chi)
            e, alpha, beta = recipe.parameters
            fiber = lattice.pullback(recipe.base, Hirzebruch(e).fiber())
            assert (recipe.report.canonical_multiple.cls
                    == (alpha + 2 * beta - 3 * e - 6) * fiber + recipe.branch[0])

    def test_component_claim(self):
        assert build_component_one(7).component_claim == "I"
        assert build_component_one(11).component_claim == "I"
        assert build_component_one(8).component_claim == "unlabeled"

    def test_minimality_certified(self):
        for chi in (4, 5, 6, 7):
            recipe = build_component_one(chi)
            assert recipe.report.minimal_or_ample == covers.NEF_CERTIFIED

    def test_range(self):
        with pytest.raises(ValueError):
            build_component_one(3)

    def test_fiber_metadata(self):
        recipe = build_component_one(7)
        assert recipe.fiber_component_self_intersections == (-3, -3)

    def test_the_public_build_is_the_cover_and_its_claim(self):
        # the cover carries the fiber data itself; only the claim and its notes are added
        for chi in range(4, 61):
            public, cover = build_component_one(chi), catalog._component_one_cover(chi)
            assert (cover.component_claim, cover.fiber_component_self_intersections) == (
                "unlabeled", (-3, -3))
            assert public == catalog._component_one_cover(
                chi, True, *catalog._component_one_claim(chi))
            assert public._replace(component_claim=cover.component_claim,
                                   notes=cover.notes) == cover
            assert public.notes == cover.notes + (
                (catalog.NOTE_K1_INVOLUTION,) if chi == 7 else ())


class TestParityDiscriminator:
    def test_odd_certifies_first_component(self):
        assert parity_discriminator([-3, -3]) == "I"

    def test_even_inconclusive(self):
        assert parity_discriminator([-2, -2, 0]) == "inconclusive"

    def test_vacuous_inconclusive(self):
        assert parity_discriminator([]) == "inconclusive"

    @pytest.mark.parametrize("values, bad", [([1.5], "1.5"), ([True, -2], "True"),
                                             (["a"], "'a'"), ([-3, 2.0], "2.0")],
                             ids=["float", "bool", "str", "float-after-odd"])
    def test_non_integer_refused(self, values, bad):
        # unchecked, a float or bool certified component I and a str raised a format TypeError
        message = f"a self-intersection must be an integer, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parity_discriminator(values)

    @pytest.mark.parametrize("k", range(1, 25))
    def test_composed_with_construction(self, k):
        recipe = build_component_one(4 * k + 3)
        verdict = parity_discriminator(recipe.fiber_component_self_intersections)
        assert verdict == "I" == recipe.component_claim


class TestComponentTwo:
    def test_plane_case(self):
        recipe = build_component_two(1)
        assert (recipe.report.k_squared, recipe.report.chi) == (8, 7)
        assert recipe.report.p_g == 6
        assert type(recipe.canonical_image) is ProjectivePlane
        assert recipe.component_claim == "II"
        assert recipe.germ is None

    @pytest.mark.parametrize("k", range(2, 12))
    def test_scroll_cases(self, k):
        recipe = build_component_two(k)
        assert (recipe.report.k_squared, recipe.report.chi) == (8 * k, 4 * k + 3)
        ruled = Hirzebruch(2 * k + 2)
        assert 2 * recipe.report.canonical_multiple.cls == ruled.divisor((2, 6 * k + 2))
        assert covers.scroll_class(recipe.scroll_curve) == ruled.divisor((5, 10 * k + 10))
        assert covers.t1_scaling_invariant(recipe.scroll_curve)
        assert recipe.canonical_image == ruled and type(recipe.canonical_image) is Hirzebruch
        assert recipe.canonical_image in classify(8 * k, 4 * k + 3).images.second
        if k % 3 == 1:
            assert recipe.germ == "A_4"
            assert recipe.ledger.canonical_count == 1
        else:
            assert recipe.germ is None
            assert recipe.ledger.canonical_count == 0

    def test_k4_has_the_double_point(self):
        recipe = build_component_two(4)
        assert recipe.germ == "A_4"
        assert (recipe.report.k_squared, recipe.report.chi) == (32, 19)

    def test_k7(self):
        recipe = build_component_two(7)
        assert recipe.germ == "A_4"
        assert (recipe.report.k_squared, recipe.report.chi) == (56, 31)

    def test_ample_certified(self):
        assert build_component_two(3).report.minimal_or_ample == covers.AMPLE_CERTIFIED

    def test_range(self):
        with pytest.raises(ValueError):
            build_component_two(0)

    @pytest.mark.parametrize("k,module,check,message", [
        (1, covers, "cyclic_shift_invariant", "plane branch curve lost its cyclic symmetry"),
        (2, covers, "t1_scaling_invariant", "scroll branch curve lost its order-3 symmetry"),
        (1, lattice, "ample", "adjoint class on the plane is not ample"),
        (2, lattice, "ample", "adjoint class on the scroll is not ample"),
    ], ids=["plane-symmetry", "scroll-symmetry", "plane-ample", "scroll-ample"])
    def test_refusals(self, k, module, check, message, monkeypatch):
        monkeypatch.setattr(module, check, lambda *_args: False)
        with pytest.raises(CertificateError, match=f"^{message}$"):
            build_component_two(k)


class TestScrollFamilies:
    @pytest.mark.parametrize("k", range(2, 51))
    def test_matched_residue_is_invariant(self, k):
        curve = scroll_family_curve(k % 3, k)
        assert covers.t1_scaling_invariant(curve)

    @pytest.mark.parametrize("residue, k, message", [
        (3, 4, "family residue must be 0, 1 or 2"),
        (1, 1, "the scroll branch curves are defined for k >= 2"),
        # unchecked, True passed as the residue 1 and 1.0 built a float exponent
        (True, 2, "family residue must be 0, 1 or 2"),
        (1.0, 2, "family residue must be 0, 1 or 2"),
    ], ids=["residue-3", "k-1", "residue-bool", "residue-float"])
    def test_refusals(self, residue, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scroll_family_curve(residue, k)

    def test_formula_matches_the_residue_table(self):
        # the middle monomial by family residue, written out as a table
        for k in range(2, 3001):
            top = 10 * k + 10
            table = {0: (top - 1, 1, 0, 5), 1: (top - 2, 2, 0, 5), 2: (top, 0, 0, 5)}
            for residue, middle in table.items():
                curve = scroll_family_curve(residue, k)
                assert curve.monomials == ((0, 0, 5, 0), (0, top, 0, 5), middle)

    @pytest.mark.parametrize("k", range(2, 20))
    def test_mismatched_residues_are_not(self, k):
        for residue in range(3):
            curve = scroll_family_curve(residue, k)
            assert covers.t1_scaling_invariant(curve) == (residue == k % 3)


# unchecked, k = True built the k = 1 recipe, epsilon = True the epsilon = 1 record,
# chi = "5" raised TypeError and the others stopped at a range or later refusal;
# in the family rules k = True stopped at the k >= 2 message or gave no germ, k = "3"
# raised TypeError from <, 2.0 stopped at the scroll parameter and 4.0 at the germ exponents
@pytest.mark.parametrize("build, args, name", [
    (build_component_one, (True,), "chi"), (build_component_one, ("5",), "chi"),
    (build_component_one, (2.0,), "chi"), (build_component_two, (True,), "k"),
    (build_component_two, (2.0,), "k"), (build_stable, (True,), "chi"),
    (build_stable, (2.0,), "chi"), (epsilon_family, (7.0, 1), "chi"),
    (epsilon_family, (7, True), "epsilon"), (epsilon_family, (7, 1.0), "epsilon"),
    (scroll_family_curve, (1, True), "k"), (scroll_family_curve, (1, 2.0), "k"),
    (scroll_family_curve, (1, "3"), "k"), (component_two_germ, (True,), "k"),
    (component_two_germ, (4.0,), "k"), (component_two_germ, ("4",), "k"),
], ids=["one-bool", "one-str", "one-float", "two-bool", "two-float", "stable-bool",
        "stable-float", "epsilon-chi-float", "epsilon-bool", "epsilon-float",
        "scroll-bool", "scroll-float", "scroll-str", "germ-bool", "germ-float", "germ-str"])
def test_builders_refuse_values_that_are_not_int(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build(*args)


@pytest.mark.parametrize("chi", range(3, 201))
def test_branch_pairs_meet_in_the_retained_nodes(chi):
    # the two branch classes meet exactly in the nodes: three kept on the stable line,
    # none on the first line (which starts at chi = 4)
    d1, d2 = build_stable(chi).recipe.branch
    assert d1.dot(d2) == catalog.RETAINED_NODES
    if chi >= 4:
        d1, d2 = build_component_one(chi).branch
        assert d1.dot(d2) == 0


@pytest.mark.parametrize("build", [
    lambda: build_component_one(9), lambda: build_component_two(1),
    lambda: build_component_two(2), lambda: build_stable(6).recipe,
], ids=["component-I", "component-II-k1", "component-II-k2", "stable-recipe"])
def test_smooth_k_squared_is_an_int(build):
    # smooth covers have integral K^2; only a stable record's K^2 lies in thirds
    assert type(build().report.k_squared) is int


@pytest.mark.parametrize("build, arg", [
    (build_component_one, 7), (build_component_two, 4), (build_stable, 7),
], ids=["component-I", "component-II", "stable"])
def test_builders_make_each_record_once(monkeypatch, build, arg):
    # each builder passes the verdict or the ampleness flag where it makes the
    # record, so no record is copied to set one field
    def copied(*_args, **_kwargs):
        raise AssertionError("a builder copied a record")

    for record in (covers.InvariantReport, StableSurfaceRecord):
        monkeypatch.setattr(record, "_replace", copied)
        monkeypatch.setattr(record, "_make", classmethod(copied))
    build(arg)


class TestStableConstruction:
    @pytest.mark.parametrize("chi", [3, 4, 5, 6, 7, 10, 23])
    def test_invariants(self, chi):
        record, recipe = build_stable(chi)
        assert record.k_squared == 2 * chi - 5
        assert record.chi == chi
        assert record.ledger.third11_count == 3
        assert not record.smoothable
        assert record.ample_canonical
        assert record.in_component_without_canonical_models
        assert recipe.blow_up_count == 2 * chi - 1
        assert recipe.report.k_squared == 2 * chi - 6

    def test_exceptional_branch_only_at_three(self):
        record, recipe = build_stable(3)
        certificate = recipe.certificates[0]
        assert certificate.feasibility_verdict == catalog.VERDICT_EXCEPTIONAL_EXCLUDED
        assert certificate.exceptional_witness == (1, 0)
        for chi in (4, 5, 6, 7, 8, 9):
            _record, recipe = build_stable(chi)
            assert (recipe.certificates[0].feasibility_verdict
                    == catalog.VERDICT_INFEASIBLE), chi

    def test_divisor_square(self):
        for chi in (3, 5, 8):
            record, recipe = build_stable(chi)
            certificate = recipe.certificates[0]
            assert certificate.self_intersection == 3 * record.k_squared
            assert certificate.divisor.dot(certificate.divisor) == 3 * record.k_squared

    def test_range(self):
        with pytest.raises(ValueError):
            build_stable(2)

    def test_general_position_required(self):
        with pytest.raises((ValueError, CertificateError)):
            build_stable(5, general_position=False)


class TestAmplenessCertificate:
    def test_chi3_exceptional(self):
        certificate = ampleness_certificate(1, 3, 3)
        assert certificate.coefficient == -1
        assert certificate.feasibility_verdict == catalog.VERDICT_EXCEPTIONAL_EXCLUDED
        assert certificate.exceptional_witness == (1, 0)
        assert certificate.exceptional_reason

    def test_chi5_zero_coefficient(self):
        certificate = ampleness_certificate(2, 5, 5)
        assert certificate.coefficient == 0
        assert certificate.feasibility_verdict == catalog.VERDICT_INFEASIBLE

    def test_chi7_positive_coefficient(self):
        certificate = ampleness_certificate(0, 7, 1)
        assert certificate.coefficient == 4
        assert certificate.feasibility_verdict == catalog.VERDICT_INFEASIBLE

    @pytest.mark.parametrize("chi", range(3, 40))
    def test_witness_count_is_e_plus_one(self, chi):
        e, alpha, beta = pick_parameters(chi)
        certificate = ampleness_certificate(e, alpha, beta)
        assert certificate.witness_virtual_count == e + 1
        assert certificate.witness_tight == (e == 0)

    def test_empty_blow_up_refused(self):
        # 2*1 - 3 leaves no point to blow up
        with pytest.raises(CertificateError, match="leaves no points to blow up"):
            ampleness_certificate(0, 1, 0)


class TestSharedScroll:
    """The builders blow up the scroll once and still issue the public certificates."""

    @pytest.mark.parametrize("chi", range(3, 61))
    def test_builders_match_the_public_certificates(self, chi):
        parameters = pick_parameters(chi)
        if chi >= 4:
            assert build_component_one(chi).certificates[0] == nef_certificate(*parameters)
        assert build_stable(chi).recipe.certificates[0] == ampleness_certificate(*parameters)

    @pytest.mark.parametrize("chi", [5, 7])
    def test_component_one_without_general_position(self, chi):
        parameters = pick_parameters(chi)
        certificate = build_component_one(chi, general_position=False).certificates[0]
        assert certificate == nef_certificate(*parameters, general_position=False)

    def test_stable_without_general_position(self):
        with pytest.raises(ValueError) as built:
            build_stable(5, general_position=False)
        with pytest.raises(ValueError) as issued:
            ampleness_certificate(*pick_parameters(5), general_position=False)
        assert str(built.value) == str(issued.value)


class TestNefCertificate:
    @pytest.mark.parametrize("chi", range(4, 40))
    def test_certified_across_residues(self, chi):
        e, alpha, beta = pick_parameters(chi)
        certificate = nef_certificate(e, alpha, beta)
        assert certificate.verdict == covers.NEF_CERTIFIED
        pairings = dict(certificate.pairings)
        assert pairings["exceptional curve"] == 1
        assert pairings["fiber through a blown-up point"] == 1
        assert all(value >= 0 for value in pairings.values())

    def test_chi7_branch_pairing(self):
        certificate = nef_certificate(0, 7, 1)
        assert dict(certificate.pairings)["first branch curve"] == 18

    def test_asserted_fallback(self):
        # an artificial parameter triple outside the table with no closure
        certificate = nef_certificate(1, 2, 2)
        assert certificate.verdict == covers.MINIMALITY_ASSERTED
        assert certificate.gap

    def test_empty_blow_up_refused(self):
        with pytest.raises(CertificateError, match="leaves no points to blow up"):
            nef_certificate(0, 0, 0)


class TestCertificateIdentities:
    """The identities that leave the certificates no branch for a refusal they do not have.

    Over e <= 7 and alpha, beta < 40, every triple with a point to blow up.
    """

    GRID = [(e, alpha, beta) for e in range(8) for alpha in range(40) for beta in range(40)]

    def test_ampleness_square_decides_the_negative_section_case(self):
        for e, alpha, beta in self.GRID:
            if 2 * alpha + 2 * beta - 4 * e - 3 < 1:
                continue
            square = 6 * (alpha + beta) - 12 * e - 21
            if square <= 0:
                with pytest.raises(CertificateError,
                                   match=f"^divisor self-intersection {square} is not positive$"):
                    ampleness_certificate(e, alpha, beta)
                continue
            certificate = ampleness_certificate(e, alpha, beta)
            assert certificate.self_intersection == square
            assert certificate.coefficient + e >= 0

    def test_ampleness_without_general_position_stops_at_h0(self):
        for e, alpha, beta in self.GRID:
            if 2 * alpha + 2 * beta - 4 * e - 3 < 1 or 6 * (alpha + beta) - 12 * e - 21 <= 0:
                continue
            with pytest.raises(ValueError, match="require the general position assumption"):
                ampleness_certificate(e, alpha, beta, general_position=False)

    def test_nef_second_branch_pairing_is_twice_the_closure(self):
        checked = 0
        for e, alpha, beta in self.GRID:
            if 2 * alpha + 2 * beta - 4 * e < 1:
                continue
            certificate = nef_certificate(e, alpha, beta)
            closure = certificate.closure_coefficient
            assert closure == alpha + 2 * beta - 3 * e - 6
            assert dict(certificate.pairings)["second branch curve"] == 2 * closure
            if closure < 0:
                assert certificate.gap == "a witness pairing is negative"
            checked += 1
        assert checked == 12428


class TestEpsilonFamily:
    @pytest.mark.parametrize("chi,epsilon,expected", [
        (7, 1, 9),
        (7, 5, 13),
        (4, 1, 3),
    ])
    def test_values(self, chi, epsilon, expected):
        record = epsilon_family(chi, epsilon)
        assert record.k_squared == expected
        assert record.ledger.third11_count == 3 * epsilon

    def test_bound(self):
        record = epsilon_family(7, 5)
        assert 3 * record.k_squared == 39 <= 8 * 7 - 16

    def test_bound_cross_checks_the_contraction(self, monkeypatch):
        # the curve count implies the bound, so only a wrong contraction reaches it;
        # at chi = 7, 3*K^2 = 8*chi - 14 is the least above it with a whole bicanonical count
        monkeypatch.setattr(stable, "contract_minus3", lambda chi, _k2, count: StableSurfaceRecord(
            8 * chi - 14, chi, SingularityLedger(third11_count=count)))
        with pytest.raises(CertificateError, match="violates the stable line bound"):
            epsilon_family(7, 1)

    @given(st.integers(4, 60))
    def test_equality_characterisation(self, chi):
        for epsilon in range(1, (2 * chi + 2) // 3 + 1):
            record = epsilon_family(chi, epsilon)
            assert record.k_squared == 2 * chi - 6 + epsilon
            assert 3 * record.k_squared <= 8 * chi - 16
            assert (3 * record.k_squared == 8 * chi - 16) == (3 * epsilon == 2 * chi + 2)

    @given(st.integers(4, 1000))
    def test_thirds_agree_with_fraction_arithmetic(self, chi):
        # oracle: plain Fraction arithmetic, one third of K^2 per contracted
        # curve and a -1/3 bicanonical correction per quotient point
        top = (2 * chi + 2) // 3
        equalities = []
        for epsilon in range(1, top + 1):
            record = epsilon_family(chi, epsilon)
            k_squared = Fraction(2 * chi - 6) + 3 * epsilon * Fraction(1, 3)
            assert type(record.k_squared) is Fraction and record.k_squared == k_squared
            assert stable.h0_2K(record) == chi + k_squared + 3 * epsilon * Fraction(-1, 3)
            assert 3 * k_squared <= 8 * chi - 16
            if 3 * k_squared == 8 * chi - 16:
                equalities.append(epsilon)
            twin = StableSurfaceRecord(int(3 * k_squared), chi, SingularityLedger(3 * epsilon))
            assert twin == record and hash(twin) == hash(record)
        assert equalities == ([top] if 3 * top == 2 * chi + 2 else [])

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            epsilon_family(4, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            epsilon_family(4, 4)


def _at(value, t):
    """``value`` with each Affine in it, however deep, replaced by its value at t."""
    if type(value) is Affine:
        return value.a + value.b * t
    if type(value) is DivisorClass:
        return DivisorClass(_at(value.surface, t), _at(value.head, t), _at(value.runs, t))
    if hasattr(type(value), "_fields"):  # a record, built again through its constructor
        return type(value)(*(_at(field, t) for field in value))
    return tuple(_at(entry, t) for entry in value) if type(value) is tuple else value


class TestSymbolicBuilds:
    """verify builds each residue class of chi mod 12 once, on an Affine chi, and of
    chi mod 3 for component I's cover and the stable line."""

    @pytest.mark.parametrize("residue", range(12))
    @pytest.mark.parametrize("build", [build_component_one, build_stable],
                             ids=["component-one", "stable"])
    def test_a_class_build_is_the_concrete_build_at_every_t(self, build, residue):
        symbolic = build(Affine(residue, 12, 1, 4))
        for t in range(1, 5):
            assert _at(symbolic, t) == build(residue + 12 * t)

    @pytest.mark.parametrize("residue", [3, 7, 11])
    def test_a_class_of_chi_mod_12_has_the_claim_at_every_t(self, residue):
        # the classes verify's parity check passes the claim rule: chi = 7 + 4s from 12
        symbolic = catalog._component_one_claim(Affine(residue, 12, 1, 8))
        for t in range(1, 9):
            assert _at(symbolic, t) == catalog._component_one_claim(residue + 12 * t)

    @pytest.mark.parametrize("residue", range(3))
    def test_a_class_of_chi_mod_3_builds_the_stable_line_at_every_t(self, residue):
        # build_stable reads chi only through pick_parameters' (1 - chi) % 3
        symbolic = build_stable(Affine(residue, 3, 2, 6))
        for t in range(2, 7):
            assert _at(symbolic, t) == build_stable(residue + 3 * t)

    @pytest.mark.parametrize("residue", range(3))
    def test_a_class_of_chi_mod_3_builds_the_cover_at_every_t(self, residue):
        # the cover, without the claim, reads chi only through pick_parameters
        symbolic = catalog._component_one_cover(Affine(residue, 3, 2, 6))
        for t in range(2, 7):
            assert _at(symbolic, t) == catalog._component_one_cover(residue + 3 * t)

    @pytest.mark.parametrize("residue", range(3))
    def test_a_class_of_k_builds_component_two_at_every_t(self, residue):
        # and by k mod 3, which picks the branch curve family and the germ
        symbolic = build_component_two(Affine(residue, 3, 1, 4))
        for t in range(1, 5):
            assert _at(symbolic, t) == build_component_two(residue + 3 * t)

    @pytest.mark.parametrize("residue", range(12))
    def test_a_class_is_classified_as_at_every_t(self, residue):
        chi = Affine(residue, 12, 1, 4)
        symbolic = classify(2 * chi - 6, chi)
        for t in range(1, 5):
            chi = residue + 12 * t
            assert _at(symbolic, t) == classify(2 * chi - 6, chi)

    def test_an_undecided_chi_is_refused(self):
        # chi = 3 + 4t for t in [0, 2] crosses chi = 4, the start of the line
        with pytest.raises(TypeError, match="does not decide"):
            build_component_one(Affine(3, 4, 0, 2))
