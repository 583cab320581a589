"""Cover building data, invariant formulas and scroll bookkeeping."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa import covers, lattice
from horikawa.covers import (BuildingDataError, CoverSpec, ScrollCurve,
                             classify_germ, cyclic_shift_invariant, derive_root,
                             double_cover_invariants, scroll_class,
                             t1_scaling_invariant, triple_cover_invariants)
from horikawa.lattice import Hirzebruch, ProjectivePlane

P2 = ProjectivePlane()


class TestDeriveRoot:
    def test_double_cover_of_the_plane(self):
        assert derive_root(2, (P2.divisor((10,)),)) == P2.divisor((5,))

    def test_triple_cover_on_a_blowup(self):
        chi = 7
        ruled = Hirzebruch(0)
        blown = lattice.blow_up(ruled, 2 * chi + 2)
        exc = blown.exceptional_sum()
        d1 = lattice.pullback(blown, ruled.divisor((2, chi))) - exc
        d2 = lattice.pullback(blown, ruled.divisor((2, 1))) - exc
        expected = lattice.pullback(blown, ruled.divisor((2, (chi + 2) // 3))) - exc
        assert derive_root(3, (d1, d2)) == expected

    def test_zero_branch(self):
        f0 = Hirzebruch(0)
        assert derive_root(3, (f0.zero(), f0.zero())) == f0.zero()

    def test_divisibility_failure(self):
        with pytest.raises(BuildingDataError, match="divisible"):
            derive_root(2, (P2.divisor((9,)),))
        f0 = Hirzebruch(0)
        with pytest.raises(BuildingDataError, match="divisible"):
            derive_root(3, (f0.divisor((2, 1)), f0.divisor((2, 2))))

    @pytest.mark.parametrize("build, message", [
        (lambda: derive_root(4, (P2.divisor((4,)),) * 3),
         "only degree 2 and 3 covers are supported, got 4"),
        # unchecked, a float degree would divide the weighted sum into float coefficients
        (lambda: derive_root(3.0, (P2.divisor((5,)),) * 2),
         "only degree 2 and 3 covers are supported, got 3.0"),
        (lambda: derive_root(True, (P2.divisor((5,)),)),
         "only degree 2 and 3 covers are supported, got True"),
        (lambda: derive_root(3, (P2.divisor((3,)),)), "degree 3 needs 2 branch classes, got 1"),
        (lambda: derive_root(2, (P2.divisor((2,)),) * 2),
         "degree 2 needs 1 branch classes, got 2"),
        (lambda: derive_root(3, (P2.divisor((3,)), Hirzebruch(0).divisor((0, 3)))),
         "branch classes must live on the base surface"),
        # unchecked, an entry that is no class raised AttributeError on its .surface
        (lambda: derive_root(2, (5,)), "branch entries must be divisor classes, got (5,)"),
        (lambda: CoverSpec.double(P2, 5), "branch entries must be divisor classes, got (5,)"),
        # unchecked, a branch that is no sequence raised TypeError from tuple(branch)
        (lambda: derive_root(2, 5), "branch must be a tuple or list of classes, got 5"),
        (lambda: CoverSpec(2, P2, P2.divisor((10,))),
         "branch must be a tuple or list of classes, got "
         "DivisorClass(surface=ProjectivePlane(), head=(10,), runs=())"),
        (lambda: CoverSpec.triple(Hirzebruch(0), Hirzebruch(0).zero(), Hirzebruch(0).zero(),
                                  transversal_node_count=-1),
         "node count must be nonnegative"),
        (lambda: CoverSpec(2, P2, (P2.divisor((4,)),), 1),
         "node bookkeeping only applies to degree 3 covers"),
        (lambda: triple_cover_invariants(CoverSpec.double(P2, P2.divisor((4,)))),
         "triple cover invariants need a degree 3 spec"),
    ], ids=["degree-4", "degree-float", "degree-bool", "one-class-for-degree-3",
            "two-classes-for-degree-2", "class-on-another-surface", "int-branch-entry",
            "int-branch-entry-of-a-spec", "int-branch", "bare-class-branch-of-a-spec",
            "negative-node-count", "nodes-on-a-double-cover",
            "triple-invariants-of-a-double-cover"])
    def test_malformed_building_data_refused(self, build, message):
        with pytest.raises(BuildingDataError, match=f"^{re.escape(message)}$"):
            build()

    @given(st.integers(0, 3), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_roundtrip_degree_three(self, e, x0, x1, a, b):
        # build data whose root is known, then re-derive it
        ruled = Hirzebruch(e)
        root = ruled.divisor((x0, x1))
        d2 = ruled.divisor((a, b))
        d1 = 3 * root - 2 * d2
        derived = derive_root(3, (d1, d2))
        assert derived == root
        assert 3 * derived == d1 + 2 * d2

    def test_spec_derives_its_root(self):
        assert CoverSpec(2, P2, (P2.divisor((10,)),)).root == P2.divisor((5,))
        # the root is no input: a fourth argument is the node count, and a class is refused
        with pytest.raises(BuildingDataError, match="node count must be an integer"):
            CoverSpec(2, P2, (P2.divisor((10,)),), P2.divisor((5,)))


class TestDoubleCoverInvariants:
    def test_plane_degree_ten(self):
        report = double_cover_invariants(CoverSpec.double(P2, P2.divisor((10,))))
        assert report.k_squared == 8
        assert report.chi == 7
        assert report.p_g == 6
        assert report.canonical_multiple.multiple == 1
        assert report.canonical_multiple.cls == P2.divisor((2,))
        assert not report.warnings

    def test_scroll_branch_with_section(self):
        # branch = negative section plus a five-section, k = 2
        f6 = Hirzebruch(6)
        report = double_cover_invariants(CoverSpec.double(f6, f6.divisor((6, 30))))
        assert report.k_squared == 16
        assert report.chi == 11
        assert report.canonical_multiple.cls == f6.divisor((1, 7))
        assert 2 * report.canonical_multiple.cls == f6.divisor((2, 14))

    def test_empty_branch_degenerate(self):
        f0 = Hirzebruch(0)
        report = double_cover_invariants(CoverSpec.double(f0, f0.zero()))
        assert report.k_squared == 16
        assert report.chi == 2
        assert covers.WARN_EMPTY_BRANCH in report.warnings

    def test_degree_mismatch(self):
        f0 = Hirzebruch(0)
        spec = CoverSpec.triple(f0, f0.zero(), f0.zero())
        with pytest.raises(BuildingDataError, match="degree 2"):
            double_cover_invariants(spec)

    def test_pulled_back_branch_reports_unavailable_p_g(self):
        # adjoint class keeps the positive exceptional part of the
        # canonical class, so no exact section count is available, but
        # K^2 and chi still come out of the lattice pairing
        f0 = Hirzebruch(0)
        blown = lattice.blow_up(f0, 2)
        branch = lattice.pullback(blown, f0.divisor((2, 2)))
        report = double_cover_invariants(CoverSpec.double(blown, branch))
        assert report.p_g is None
        assert report.k_squared == 0
        assert report.chi == 1

    def test_virtual_adjoint_count_reports_unavailable_p_g(self):
        # the adjoint 2H - E1 imposes its blown-up point: a virtual count, never a p_g
        blown = lattice.blow_up(P2, 1)
        branch = lattice.pullback(blown, P2.divisor((10,))) - 4 * blown.exceptional_sum()
        report = double_cover_invariants(CoverSpec.double(blown, branch))
        assert report.canonical_multiple.cls == blown.divisor((2, -1))
        assert not lattice.h0(report.canonical_multiple.cls).exact
        assert report.p_g is None
        assert (report.k_squared, report.chi) == (6, 6)

    def test_chi_is_always_integral_for_lattice_data(self):
        # D.(D + K) is even for every class on these surfaces, so the
        # defensive parity error cannot fire on honest inputs
        f1 = Hirzebruch(1)
        for coeffs in [(0, 2), (1, 0), (3, 5), (2, 7)]:
            d = f1.divisor(coeffs)
            assert d.dot(d + lattice.canonical_class(f1)) % 2 == 0
        report = double_cover_invariants(CoverSpec.double(f1, f1.divisor((2, 4))))
        assert isinstance(report.chi, int)


class TestTripleCoverInvariants:
    def test_empty_branch_degenerate(self):
        f0 = Hirzebruch(0)
        report = triple_cover_invariants(CoverSpec.triple(f0, f0.zero(), f0.zero()))
        assert report.k_squared == 24
        assert report.chi == 3
        assert covers.WARN_EMPTY_BRANCH in report.warnings

    def test_nodes_must_be_resolved_first(self):
        f0 = Hirzebruch(0)
        spec = CoverSpec.triple(f0, f0.zero(), f0.zero(), transversal_node_count=2)
        with pytest.raises(BuildingDataError, match="node"):
            triple_cover_invariants(spec)

    def test_odd_pairing_refused(self, monkeypatch):
        # D.(D + K) is even for every honest K; a K off by one line keeps
        # K^2 integral on this spec but makes the chi pairing odd
        honest = lattice.canonical_class
        monkeypatch.setattr(lattice, "canonical_class",
                            lambda surface: honest(surface) + P2.divisor((1,)))
        spec = CoverSpec.triple(P2, P2.divisor((3,)), P2.zero())
        with pytest.raises(BuildingDataError, match="^non-integer chi"):
            triple_cover_invariants(spec)

    def test_ordered_branch_pair_matters(self):
        ruled = Hirzebruch(0)
        d1 = ruled.divisor((2, 4))
        d2 = ruled.divisor((2, 1))
        swapped = CoverSpec.triple(ruled, d2, d1)
        original = CoverSpec.triple(ruled, d1, d2)
        assert original.root != swapped.root

    def test_k_squared_is_a_third_of_the_class_square(self):
        ruled = Hirzebruch(1)
        blown = lattice.blow_up(ruled, 14)
        exc = blown.exceptional_sum()
        d1 = lattice.pullback(blown, ruled.divisor((2, 6))) - exc
        d2 = lattice.pullback(blown, ruled.divisor((2, 3))) - exc
        report = triple_cover_invariants(CoverSpec.triple(blown, d1, d2))
        cls = report.canonical_multiple.cls
        assert report.canonical_multiple.multiple == 3
        assert 3 * report.k_squared == cls.dot(cls)
        assert type(report.k_squared) is int

    def test_non_integral_k_squared_rejected(self):
        # divisible branch data whose tri-canonical square is not 0 mod 3
        f0 = Hirzebruch(0)
        spec = CoverSpec.triple(f0, f0.divisor((2, 4)), f0.divisor((2, 1)))
        with pytest.raises(BuildingDataError, match="not an integer"):
            triple_cover_invariants(spec)


def _adjoint(spec):
    return lattice.canonical_class(spec.base) + spec.root


class TestCanonicalImage:
    def test_plane_image(self):
        spec = CoverSpec.double(P2, P2.divisor((10,)))
        assert double_cover_invariants(spec).p_g == 6
        assert _adjoint(spec) == P2.divisor((2,))
        assert lattice.ample(_adjoint(spec))

    def test_scroll_image_very_ample(self):
        f6 = Hirzebruch(6)
        spec = CoverSpec.double(f6, f6.divisor((6, 30)))
        assert _adjoint(spec) == f6.divisor((1, 7))
        assert lattice.ample(_adjoint(spec))
        assert double_cover_invariants(spec).p_g == 10

    def test_scroll_image_at_the_ample_boundary(self):
        # the adjoint class D0 + 6F on F_6 has b == a*e: nef, not ample
        f6 = Hirzebruch(6)
        spec = CoverSpec.double(f6, f6.divisor((6, 28)))
        assert _adjoint(spec) == f6.divisor((1, 6))
        assert not lattice.ample(_adjoint(spec))
        assert double_cover_invariants(spec).p_g == 8

    def test_degenerate_empty_system(self):
        f0 = Hirzebruch(0)
        spec = CoverSpec.double(f0, f0.zero())
        assert double_cover_invariants(spec).p_g == 0
        assert not lattice.ample(_adjoint(spec))


class TestScrollCurves:
    def test_branch_curve_class(self):
        for k in (0, 1, 2, 5):
            curve = ScrollCurve(
                e=2 * k + 2,
                monomials=frozenset({(0, 0, 5, 0), (10 * k + 10, 0, 0, 5),
                                     (0, 10 * k + 10, 0, 5)}),
            )
            assert scroll_class(curve) == Hirzebruch(2 * k + 2).divisor((5, 10 * k + 10))

    def test_negative_section_class(self):
        curve = ScrollCurve(e=3, monomials=frozenset({(0, 0, 0, 1)}))
        assert scroll_class(curve) == Hirzebruch(3).negative_section()

    def test_fiber_class(self):
        curve = ScrollCurve(e=1, monomials=frozenset({(1, 0, 0, 0), (0, 1, 0, 0)}))
        assert scroll_class(curve) == Hirzebruch(1).fiber()

    def test_inhomogeneous_rejected(self):
        curve = ScrollCurve(e=1, monomials=frozenset({(0, 0, 1, 0), (1, 0, 0, 0)}))
        with pytest.raises(ValueError, match="inhomogeneous"):
            scroll_class(curve)

    def test_empty_monomial_set_rejected(self):
        with pytest.raises(ValueError, match="^a scroll curve needs at least one monomial$"):
            ScrollCurve(2, frozenset())

    @pytest.mark.parametrize("e", [1.5, 2.0, True, "2", -1])
    def test_parameter_must_be_a_nonnegative_int(self, e):
        with pytest.raises(ValueError, match="scroll parameter e must be a nonnegative integer"):
            ScrollCurve(e, frozenset({(0, 0, 1, 0)}))

    @pytest.mark.parametrize("monomial", [(0, 0, 1.0, 0), (0, 0, True, 0), (0.5, 0, 1, 0),
                                          (0, 0, -1, 0), (0, 0, 1)])
    def test_monomial_entries_must_be_nonnegative_ints(self, monomial):
        with pytest.raises(ValueError, match="malformed exponent quadruple"):
            ScrollCurve(2, frozenset({monomial}))


class TestInvariance:
    def test_matched_residue_scaling(self):
        k = 3  # k = 0 mod 3
        curve = ScrollCurve(
            e=2 * k + 2,
            monomials=frozenset({(0, 0, 5, 0), (10 * k + 9, 1, 0, 5),
                                 (0, 10 * k + 10, 0, 5)}),
        )
        assert t1_scaling_invariant(curve)

    def test_mismatched_residue_scaling(self):
        k = 4  # k = 1 mod 3, but the middle monomial belongs to the 0 family
        curve = ScrollCurve(
            e=2 * k + 2,
            monomials=frozenset({(0, 0, 5, 0), (10 * k + 9, 1, 0, 5),
                                 (0, 10 * k + 10, 0, 5)}),
        )
        assert not t1_scaling_invariant(curve)

    def test_plane_cyclic_shift(self):
        assert cyclic_shift_invariant({(10, 0, 0), (0, 10, 0), (0, 0, 10)})
        assert not cyclic_shift_invariant({(10, 0, 0), (0, 10, 0)})

    @pytest.mark.parametrize("triples", [{(1, 2)}, {(1, 2, 3, 4)}, {(1, -1, 0)}])
    def test_malformed_triple_rejected(self, triples):
        with pytest.raises(ValueError, match="malformed exponent triple"):
            cyclic_shift_invariant(triples)

    def test_single_monomial_without_t1(self):
        curve = ScrollCurve(e=4, monomials=frozenset({(0, 0, 1, 0)}))
        assert t1_scaling_invariant(curve)


class TestGermClassifier:
    @pytest.mark.parametrize("m,p,label", [
        (20, 5, "A_4"),
        (2, 2, "A_1"),
        (7, 3, "A_2"),
        (80, 5, "A_4"),
    ])
    def test_table(self, m, p, label):
        assert classify_germ(m, p) == label

    @pytest.mark.parametrize("m,p", [(1, 5), (2, 1), (0, 0)])
    def test_out_of_family(self, m, p):
        with pytest.raises(ValueError):
            classify_germ(m, p)

    def test_non_integer_exponent_refused(self):
        with pytest.raises(ValueError, match="^germ exponents must be integers$"):
            classify_germ(2.5, 5)
