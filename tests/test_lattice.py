"""Picard lattice arithmetic against independent oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horikawa import lattice
from horikawa.lattice import Hirzebruch, ProjectivePlane, SurfaceMismatchError

from oracles import count_plane_monomials, count_scroll_monomials, gram_dot

P2 = ProjectivePlane()


def surfaces_pool():
    return [
        P2,
        Hirzebruch(0),
        Hirzebruch(1),
        Hirzebruch(2),
        Hirzebruch(5),
        lattice.blow_up(Hirzebruch(1), 3),
        lattice.blow_up(P2, 2),
        lattice.blow_up(lattice.blow_up(Hirzebruch(0), 2), 4),
    ]


surface_strategy = st.sampled_from(surfaces_pool())


@st.composite
def surface_and_classes(draw, count=2):
    surface = draw(surface_strategy)
    rank = lattice.picard_rank(surface)
    classes = tuple(
        surface.divisor(tuple(draw(st.integers(-10, 10)) for _ in range(rank)))
        for _ in range(count)
    )
    return surface, classes


class TestIntersect:
    def test_negative_section_square(self):
        f2 = Hirzebruch(2)
        assert f2.negative_section().dot(f2.negative_section()) == -2

    def test_zero_class(self):
        f3 = Hirzebruch(3)
        d = f3.divisor((4, -7))
        assert f3.zero().dot(d) == 0

    def test_blowup_expansion(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 8)
        cls = lattice.pullback(blown, f1.divisor((2, 3))) - blown.exceptional_sum()
        assert cls.dot(cls) == 0

    def test_surface_mismatch_rejected(self):
        with pytest.raises(SurfaceMismatchError):
            Hirzebruch(1).fiber().dot(Hirzebruch(2).fiber())

    @given(surface_and_classes(count=2))
    def test_matches_gram_oracle(self, data):
        surface, (a, b) = data
        assert a.dot(b) == gram_dot(surface, a.coeffs, b.coeffs)

    @given(surface_and_classes(count=3), st.integers(-8, 8))
    def test_symmetry_and_bilinearity(self, data, scale):
        _surface, (a, b, c) = data
        assert a.dot(b) == b.dot(a)
        assert (a + b).dot(c) == a.dot(c) + b.dot(c)
        assert (scale * a).dot(b) == scale * a.dot(b)


class TestCanonicalClass:
    def test_plane(self):
        assert lattice.canonical_class(P2) == P2.divisor((-3,))
        assert lattice.canonical_class(P2).square() == 9

    @pytest.mark.parametrize("e", range(0, 7))
    def test_ruled_square_constant(self, e):
        k = lattice.canonical_class(Hirzebruch(e))
        assert k == Hirzebruch(e).divisor((-2, -(e + 2)))
        assert k.square() == 8

    def test_blowup_drop(self):
        blown = lattice.blow_up(Hirzebruch(1), 8)
        assert lattice.canonical_class(blown).square() == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_drop_per_point(self, n):
        blown = lattice.blow_up(Hirzebruch(2), n)
        assert lattice.canonical_class(blown).square() == 8 - n

    def test_nested_blowup(self):
        nested = lattice.blow_up(lattice.blow_up(P2, 4), 3)
        assert lattice.canonical_class(nested).square() == 2


class TestBlowUpAndPullback:
    def test_rank(self):
        assert lattice.picard_rank(lattice.blow_up(Hirzebruch(1), 8)) == 10

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            lattice.blow_up(P2, 0)

    @pytest.mark.parametrize("build", [
        lambda: Hirzebruch(True),
        lambda: lattice.blow_up(Hirzebruch(0), True),
        lambda: Hirzebruch(0).divisor((True, 2)),
    ], ids=["hirzebruch", "blow-up", "coefficient"])
    def test_bool_is_not_an_integer(self, build):
        with pytest.raises(ValueError):
            build()

    def test_pullback_of_zero(self):
        blown = lattice.blow_up(Hirzebruch(0), 2)
        assert lattice.pullback(blown, Hirzebruch(0).zero()) == blown.zero()

    def test_pullback_base_mismatch(self):
        blown = lattice.blow_up(Hirzebruch(0), 2)
        with pytest.raises(SurfaceMismatchError):
            lattice.pullback(blown, Hirzebruch(1).fiber())

    @given(st.integers(0, 4), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12))
    def test_isometry(self, e, a1, b1, a2, b2, n):
        ruled = Hirzebruch(e)
        blown = lattice.blow_up(ruled, n)
        d1 = ruled.divisor((a1, b1))
        d2 = ruled.divisor((a2, b2))
        assert lattice.pullback(blown, d1).dot(lattice.pullback(blown, d2)) == d1.dot(d2)
        assert lattice.pullback(blown, d1).dot(blown.exceptional(1)) == 0

    def test_intersection_point_count(self):
        # two bisections with fiber degrees alpha and beta meet in
        # 2*alpha + 2*beta - 4*e points
        for e, alpha, beta in [(0, 7, 1), (1, 6, 3), (2, 5, 5)]:
            ruled = Hirzebruch(e)
            d1 = ruled.divisor((2, alpha))
            d2 = ruled.divisor((2, beta))
            assert d1.dot(d2) == 2 * alpha + 2 * beta - 4 * e


class TestSectionCounts:
    def test_plane_conics(self):
        count = lattice.h0(P2, P2.divisor((2,)))
        assert (count.value, count.exact) == (6, True)

    def test_plane_negative(self):
        assert lattice.h0(P2, P2.divisor((-1,))).value == 0

    def test_ruled_example(self):
        f2 = Hirzebruch(2)
        count = lattice.h0(f2, f2.divisor((2, 5)))
        assert (count.value, count.exact, count.tag) == (12, True, "exact")

    @pytest.mark.parametrize("e", range(0, 7))
    def test_matches_enumeration_oracle(self, e):
        ruled = Hirzebruch(e)
        for a in range(0, 7):
            for b in range(0, 31):
                got = lattice.h0(ruled, ruled.divisor((a, b)))
                assert got.exact
                assert got.value == count_scroll_monomials(e, a, b), (e, a, b)

    def test_plane_matches_enumeration_oracle(self):
        for d in range(0, 12):
            assert lattice.h0(P2, P2.divisor((d,))).value == count_plane_monomials(d)

    def test_negative_degrees_have_no_sections(self):
        f3 = Hirzebruch(3)
        assert lattice.h0(f3, f3.divisor((-1, 10))).value == 0
        assert lattice.h0(f3, f3.divisor((2, -1))).value == count_scroll_monomials(3, 2, -1) == 0

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 25))
    def test_monotone_in_fiber_degree(self, e, a, b):
        ruled = Hirzebruch(e)
        assert (lattice.h0(ruled, ruled.divisor((a, b + 1))).value
                >= lattice.h0(ruled, ruled.divisor((a, b))).value)

    def test_virtual_count_through_points(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 8)
        cls = lattice.pullback(blown, f1.divisor((1, 4))) - blown.exceptional_sum()
        count = lattice.h0(blown, cls)
        assert (count.value, count.exact, count.tag) == (1, False, "virtual")

    def test_virtual_clamped_at_zero(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 20)
        cls = lattice.pullback(blown, f1.divisor((1, 4))) - blown.exceptional_sum()
        assert lattice.h0(blown, cls).value == 0

    def test_pure_pullback_stays_exact(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 8)
        count = lattice.h0(blown, lattice.pullback(blown, f1.divisor((1, 4))))
        assert count.exact and count.value == 9

    def test_rejects_higher_multiplicity(self):
        blown = lattice.blow_up(P2, 2)
        cls = lattice.pullback(blown, P2.divisor((4,))) - 2 * blown.exceptional(1)
        with pytest.raises(ValueError, match="multiplicity"):
            lattice.h0(blown, cls)

    def test_rejects_points_without_generality(self):
        blown = lattice.blow_up(P2, 2, general_position=False)
        cls = lattice.pullback(blown, P2.divisor((4,))) - blown.exceptional_sum()
        with pytest.raises(ValueError, match="general position"):
            lattice.h0(blown, cls)


class TestLabelsAndFormatting:
    def test_labels(self):
        assert lattice.basis_labels(P2) == ("H",)
        assert lattice.basis_labels(Hirzebruch(3)) == ("D0", "F")
        nested = lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 3)
        assert lattice.basis_labels(nested) == ("D0", "F", "E1", "E2", "E3", "E4", "E5")

    def test_format_groups_exceptional_runs(self):
        blown = lattice.blow_up(Hirzebruch(1), 4)
        cls = lattice.pullback(blown, Hirzebruch(1).divisor((2, 3))) - blown.exceptional_sum()
        assert str(cls) == "2*D0 + 3*F - E[1..4]"
        assert str(blown.zero()) == "0"

    def test_descriptor(self):
        assert lattice.surface_descriptor(Hirzebruch(6)) == "F_6"
        assert lattice.surface_descriptor(P2) == "P^2"
