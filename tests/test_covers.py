"""Cover building data, invariant formulas and scroll bookkeeping."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import catalog, covers, faults, lattice
from horikawa.covers import (BuildingDataError, CoverSpec, ScrollCurve,
                             classify_germ, cover_invariants, cyclic_shift_invariant,
                             derive_root, eigensheaves, scroll_class,
                             t1_scaling_invariant)
from horikawa.lattice import Hirzebruch, ProjectivePlane

from oracles import canonical_vector, gram_dot, tower_section_count

_QUADRUPLE = "tuple[int | Affine, int | Affine, int | Affine, int | Affine]"

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
        # unchecked, a None base was stored and failed later as an unsupported surface;
        # the fields' test refuses it as bad building data
        (lambda: CoverSpec(2, None, (P2.divisor((4,)),)), "base must be SurfaceModel, got None"),
        # unchecked, an int base raised AttributeError on its .zero()
        (lambda: CoverSpec(2, 5, (P2.divisor((4,)),)), "base must be a SurfaceModel, got 5"),
        (lambda: derive_root(2, (P2.divisor((4,)),), 5), "base must be a SurfaceModel, got 5"),
        # a spec's fields' test passes these, and derive_root refuses them
        (lambda: CoverSpec(4, P2, (P2.divisor((4,)),) * 3),
         "only degree 2 and 3 covers are supported, got 4"),
        (lambda: CoverSpec(3, P2, [P2.divisor((3,))]), "degree 3 needs 2 branch classes, got 1"),
    ], ids=["degree-4", "degree-float", "degree-bool", "one-class-for-degree-3",
            "two-classes-for-degree-2", "class-on-another-surface", "int-branch-entry",
            "int-branch-entry-of-a-spec", "int-branch", "bare-class-branch-of-a-spec",
            "none-base-of-a-spec", "int-base-of-a-spec", "int-base", "degree-4-of-a-spec",
            "one-class-for-degree-3-of-a-spec"])
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
        # the root is no input: a spec takes exactly three arguments
        assert CoverSpec._fields == ("degree", "base", "branch")
        with pytest.raises(TypeError):
            CoverSpec(2, P2, (P2.divisor((10,)),), P2.divisor((5,)))

    def test_list_branch_is_stored_as_a_tuple(self):
        d = P2.divisor((10,))
        listed, tupled = CoverSpec(2, P2, [d]), CoverSpec(2, P2, (d,))
        assert type(listed.branch) is tuple and listed.branch == (d,)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed._replace(branch=[d]) == tupled


class TestDoubleCoverInvariants:
    def test_plane_degree_ten(self):
        report = cover_invariants(CoverSpec.double(P2, P2.divisor((10,))))
        assert report.k_squared == 8
        assert report.chi == 7
        assert report.p_g == 6
        assert report.canonical_multiple.multiple == 1
        assert report.canonical_multiple.cls == P2.divisor((2,))
        assert not report.warnings

    def test_scroll_branch_with_section(self):
        # branch = negative section plus a five-section, k = 2
        f6 = Hirzebruch(6)
        report = cover_invariants(CoverSpec.double(f6, f6.divisor((6, 30))))
        assert report.k_squared == 16
        assert report.chi == 11
        assert report.canonical_multiple.cls == f6.divisor((1, 7))
        assert 2 * report.canonical_multiple.cls == f6.divisor((2, 14))

    def test_empty_branch_degenerate(self):
        f0 = Hirzebruch(0)
        report = cover_invariants(CoverSpec.double(f0, f0.zero()))
        assert report.k_squared == 16
        assert report.chi == 2
        assert covers.WARN_EMPTY_BRANCH in report.warnings

    def test_pulled_back_branch_reports_unavailable_p_g(self):
        # adjoint class keeps the positive exceptional part of the
        # canonical class, so no exact section count is available, but
        # K^2 and chi still come out of the lattice pairing
        f0 = Hirzebruch(0)
        blown = lattice.blow_up(f0, 2)
        branch = lattice.pullback(blown, f0.divisor((2, 2)))
        report = cover_invariants(CoverSpec.double(blown, branch))
        assert report.p_g is None
        assert report.k_squared == 0
        assert report.chi == 1

    def test_virtual_adjoint_count_reports_unavailable_p_g(self):
        # the adjoint 2H - E1 imposes its blown-up point: a virtual count, never a p_g
        blown = lattice.blow_up(P2, 1)
        branch = lattice.pullback(blown, P2.divisor((10,))) - 4 * blown.exceptional_sum()
        report = cover_invariants(CoverSpec.double(blown, branch))
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
        report = cover_invariants(CoverSpec.double(f1, f1.divisor((2, 4))))
        assert isinstance(report.chi, int)


@pytest.mark.parametrize("spec", [
    CoverSpec.double(P2, P2.divisor((10,))),
    CoverSpec.triple(Hirzebruch(0), Hirzebruch(0).zero(), Hirzebruch(0).zero()),
], ids=["double", "triple"])
def test_the_verdict_is_the_one_passed(spec):
    # a spec alone reports no verdict; a builder passes the one it certified
    assert cover_invariants(spec).minimal_or_ample == covers.MINIMALITY_UNKNOWN == "unknown"
    certified = cover_invariants(spec, covers.NEF_CERTIFIED)
    assert certified == cover_invariants(spec)._replace(minimal_or_ample=covers.NEF_CERTIFIED)


class TestTripleCoverInvariants:
    def test_empty_branch_degenerate(self):
        f0 = Hirzebruch(0)
        report = cover_invariants(CoverSpec.triple(f0, f0.zero(), f0.zero()))
        assert report.k_squared == 24
        assert report.chi == 3
        assert covers.WARN_EMPTY_BRANCH in report.warnings

    def test_odd_pairing_refused(self, monkeypatch):
        # D.(D + K) is even for every honest K; a K off by one line keeps
        # K^2 integral on this spec but makes the chi pairing odd
        honest = lattice.canonical_class
        monkeypatch.setattr(lattice, "canonical_class",
                            lambda surface: honest(surface) + P2.divisor((1,)))
        spec = CoverSpec.triple(P2, P2.divisor((3,)), P2.zero())
        with pytest.raises(BuildingDataError, match="^non-integer chi"):
            cover_invariants(spec)

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
        report = cover_invariants(CoverSpec.triple(blown, d1, d2))
        cls = report.canonical_multiple.cls
        assert report.canonical_multiple.multiple == 3
        assert 3 * report.k_squared == cls.dot(cls)
        assert type(report.k_squared) is int

    def test_opposite_branch_classes_are_no_empty_branch(self):
        # d1 + d2 = 0 with both classes nonzero: the sheaves sum to zero but are not zero
        f0 = Hirzebruch(0)
        spec = CoverSpec.triple(f0, f0.divisor((0, -3)), f0.divisor((0, 3)))
        assert eigensheaves(spec) == (f0.divisor((0, 1)), f0.divisor((0, -1)))
        assert cover_invariants(spec).warnings == ()

    def test_non_integral_k_squared_rejected(self):
        # divisible branch data whose tri-canonical square is not 0 mod 3
        f0 = Hirzebruch(0)
        spec = CoverSpec.triple(f0, f0.divisor((2, 4)), f0.divisor((2, 1)))
        with pytest.raises(BuildingDataError, match="not an integer"):
            cover_invariants(spec)


class TestEigensheaves:
    def test_double_cover_has_the_root(self):
        spec = CoverSpec.double(P2, P2.divisor((10,)))
        assert eigensheaves(spec) == (P2.divisor((5,)),)

    def test_triple_cover_sheaves_sum_to_the_branch_sum(self):
        ruled = Hirzebruch(0)
        blown = lattice.blow_up(ruled, 16)
        exc = blown.exceptional_sum()
        d1 = lattice.pullback(blown, ruled.divisor((2, 7))) - exc
        d2 = lattice.pullback(blown, ruled.divisor((2, 1))) - exc
        first, second = eigensheaves(CoverSpec.triple(blown, d1, d2))
        assert first == derive_root(3, (d1, d2))
        assert first + second == d1 + d2
        # the second sheaf is the root of the pair with its weights swapped
        assert second == derive_root(3, (d2, d1))

    def test_zero_branch(self):
        f0 = Hirzebruch(0)
        assert eigensheaves(CoverSpec.triple(f0, f0.zero(), f0.zero())) == (f0.zero(),) * 2


class TestCoverInvariantsRefusals:
    # unchecked, an int raised AttributeError on its .degree
    @pytest.mark.parametrize("function", [cover_invariants, eigensheaves])
    @pytest.mark.parametrize("spec", [5, None, (2, P2, (P2.divisor((10,)),))],
                             ids=["int", "none", "plain-tuple"])
    def test_non_spec_refused(self, function, spec):
        with pytest.raises(TypeError, match=f"^{re.escape(f'expected a CoverSpec, got {spec!r}')}$"):
            function(spec)


ORACLE_ROOTS = (P2,) + tuple(Hirzebruch(e) for e in range(5))


@st.composite
def oracle_surfaces(draw):
    """The plane, F_0 to F_4, or one of them blown up at one to four points."""
    root = draw(st.sampled_from(ORACLE_ROOTS))
    if draw(st.booleans()):
        return root
    return lattice.blow_up(root, draw(st.integers(1, 4)), draw(st.booleans()))


def _dense_sections(surface, vectors):
    # the p_g that the oracle expects: None once a count is virtual or unsupported
    total = 0
    for vector in vectors:
        try:
            value, exact = tower_section_count(surface, vector)
        except ValueError:
            return None
        if not exact:
            return None
        total += value
    return total


def combine(*terms):
    """The dense vector sum of c * v over the (c, v) terms."""
    return [sum(c * v[i] for c, v in terms) for i in range(len(terms[0][1]))]


def assert_matches_dense_oracle(surface, root, d2=None):
    """Compare ``cover_invariants`` with the classical formulas on dense vectors.

    The cover has root class ``root``, and in degree 3 second branch class
    ``d2``.  Double cover branched on 2L: K^2 = 2(K + L)^2 and chi = 2 +
    L.(K + L)/2.  Triple cover with branch (D1, D2): K^2 = (3K + 2(D1 +
    D2))^2/3 and chi = 3 + sum_j L_j.(K + L_j)/2 over L_1 = root and
    L_2 = D1 + D2 - root.
    """
    k = canonical_vector(surface)
    if d2 is None:
        spec = CoverSpec.double(surface, surface.divisor(combine((2, root))))
        sheaves = [root]
        multiple, cls = 1, combine((1, k), (1, root))
        square, fraction = 2 * gram_dot(surface, cls, cls), 0
    else:
        d1 = combine((3, root), (-2, d2))
        spec = CoverSpec.triple(surface, surface.divisor(d1), surface.divisor(d2))
        sheaves = [root, combine((1, d1), (1, d2), (-1, root))]
        multiple, cls = 3, combine((3, k), (2, d1), (2, d2))
        square, fraction = divmod(gram_dot(surface, cls, cls), 3)
    assert [sheaf.coeffs for sheaf in eigensheaves(spec)] == [tuple(v) for v in sheaves]
    if fraction:
        with pytest.raises(BuildingDataError, match=r"^K\^2 is not an integer"):
            cover_invariants(spec)
        return
    adjoints = [combine((1, k), (1, sheaf)) for sheaf in sheaves]
    pairing = sum(gram_dot(surface, sheaf, adjoint) for sheaf, adjoint in zip(sheaves, adjoints))
    assert pairing % 2 == 0
    report = cover_invariants(spec)
    assert report.k_squared == square
    assert report.chi == spec.degree + pairing // 2
    assert report.canonical_multiple.multiple == multiple
    assert report.canonical_multiple.cls.coeffs == tuple(cls)
    assert report.p_g == _dense_sections(surface, adjoints)
    empty = not any(c for d in spec.branch for c in d.coeffs)
    assert report.warnings == ((covers.WARN_EMPTY_BRANCH,) if empty else ())


class TestCoverInvariantsAgainstDenseOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(oracle_surfaces(), st.sampled_from((2, 3)), st.data())
    def test_random_building_data(self, surface, degree, data):
        rank = lattice.picard_rank(surface)
        vectors = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
        root = data.draw(vectors)
        assert_matches_dense_oracle(surface, root, data.draw(vectors) if degree == 3 else None)

    def test_zero_branch_triple_cover_keeps_multiple_three(self):
        # 3K is divisible by 3, but the multiple is fixed by the degree alone
        f0 = Hirzebruch(0)
        assert_matches_dense_oracle(f0, [0, 0], [0, 0])
        report = cover_invariants(CoverSpec.triple(f0, f0.zero(), f0.zero()))
        assert report.canonical_multiple == covers.CanonicalMultiple(
            3, 3 * lattice.canonical_class(f0))

    @pytest.mark.parametrize("surface, root, d2", [
        (Hirzebruch(0), [3, 3], [3, 3]),
        (lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 1), [2, 2, -1, -1, -1],
         [2, 1, -1, -1, -1]),
    ], ids=["both-adjoints-with-sections", "two-level-tower"])
    def test_fixed_building_data(self, surface, root, d2):
        assert_matches_dense_oracle(surface, root, d2)


def double_reports():
    return catalog.build_component_two(1).report, catalog.build_component_two(2).report


def triple_reports():
    return catalog.build_component_one(7).report, catalog.build_stable(7).recipe.report


class TestCoverFaultsStayInTheirDegree:
    # the five cover faults edit the one shared formula: each changes the
    # reports of its own degree and leaves the other degree's as they are
    @pytest.mark.parametrize("name, own, other", [
        ("double-cover-ksq-factor", double_reports, triple_reports),
        ("double-cover-chi-missing-half", double_reports, triple_reports),
        ("triple-cover-ksq-shift", triple_reports, double_reports),
        ("triple-cover-chi-shift", triple_reports, double_reports),
        ("triple-cover-canonical-multiple-coefficient", triple_reports, double_reports),
    ])
    def test_other_degree_unchanged(self, name, own, other):
        clean_own, clean_other = own(), other()
        with faults.injected(name):
            assert other() == clean_other
            faulty_own = own()
        assert all(a != b for a, b in zip(faulty_own, clean_own))


def _adjoint(spec):
    return lattice.canonical_class(spec.base) + spec.root


class TestCanonicalImage:
    def test_plane_image(self):
        spec = CoverSpec.double(P2, P2.divisor((10,)))
        assert cover_invariants(spec).p_g == 6
        assert _adjoint(spec) == P2.divisor((2,))
        assert lattice.ample(_adjoint(spec))

    def test_scroll_image_very_ample(self):
        f6 = Hirzebruch(6)
        spec = CoverSpec.double(f6, f6.divisor((6, 30)))
        assert _adjoint(spec) == f6.divisor((1, 7))
        assert lattice.ample(_adjoint(spec))
        assert cover_invariants(spec).p_g == 10

    def test_scroll_image_at_the_ample_boundary(self):
        # the adjoint class D0 + 6F on F_6 has b == a*e: nef, not ample
        f6 = Hirzebruch(6)
        spec = CoverSpec.double(f6, f6.divisor((6, 28)))
        assert _adjoint(spec) == f6.divisor((1, 6))
        assert not lattice.ample(_adjoint(spec))
        assert cover_invariants(spec).p_g == 8

    def test_degenerate_empty_system(self):
        f0 = Hirzebruch(0)
        spec = CoverSpec.double(f0, f0.zero())
        assert cover_invariants(spec).p_g == 0
        assert not lattice.ample(_adjoint(spec))


class TestScrollCurves:
    def test_branch_curve_class(self):
        for k in (0, 1, 2, 5):
            curve = ScrollCurve(
                e=2 * k + 2,
                monomials=((0, 0, 5, 0), (0, 10 * k + 10, 0, 5), (10 * k + 10, 0, 0, 5)),
            )
            assert scroll_class(curve) == Hirzebruch(2 * k + 2).divisor((5, 10 * k + 10))

    def test_negative_section_class(self):
        curve = ScrollCurve(e=3, monomials=((0, 0, 0, 1),))
        assert scroll_class(curve) == Hirzebruch(3).negative_section()

    def test_fiber_class(self):
        curve = ScrollCurve(e=1, monomials=((0, 1, 0, 0), (1, 0, 0, 0)))
        assert scroll_class(curve) == Hirzebruch(1).fiber()

    @pytest.mark.parametrize("function", [scroll_class, t1_scaling_invariant])
    @pytest.mark.parametrize("curve", [5, None, (1, ((0, 1, 0, 0),))])
    def test_non_curve_refused(self, function, curve):
        with pytest.raises(TypeError, match="expected a ScrollCurve, got "):
            function(curve)

    def test_inhomogeneous_rejected(self):
        curve = ScrollCurve(e=1, monomials=((0, 0, 1, 0), (1, 0, 0, 0)))
        with pytest.raises(ValueError, match=re.escape(
                "inhomogeneous monomial set: classes [(0, 1), (1, 1)]")):
            scroll_class(curve)

    def test_empty_monomial_set_rejected(self):
        with pytest.raises(ValueError, match="^a scroll curve needs at least one monomial$"):
            ScrollCurve(2, ())

    @pytest.mark.parametrize("e", [1.5, 2.0, True, "2", -1])
    def test_parameter_must_be_a_nonnegative_int(self, e):
        # the fields' test refuses a value that is no int, the constructor a negative one
        message = (f"^{re.escape(f'e must be int | Affine, got {e!r}')}$" if type(e) is not int
                   else "^scroll parameter e must be a nonnegative integer, got -1$")
        with pytest.raises(ValueError, match=message):
            ScrollCurve(e, ((0, 0, 1, 0),))

    @pytest.mark.parametrize("monomial", [(0, 0, 1.0, 0), (0, 0, True, 0), (0.5, 0, 1, 0),
                                          (0, 0, -1, 0), (0, 0, 1)])
    def test_monomial_entries_must_be_nonnegative_ints(self, monomial):
        message = (r"^malformed exponent quadruple \(0, 0, -1, 0\)$" if monomial == (0, 0, -1, 0)
                   else re.escape(f"monomials must be tuple[{_QUADRUPLE}, ...], got "
                                  f"({monomial!r},)"))
        with pytest.raises(ValueError, match=message):
            ScrollCurve(2, (monomial,))

    @pytest.mark.parametrize("monomials", [[(0, 0, 1, 0)], {(0, 0, 1, 0)},
                                           frozenset({(0, 0, 1, 0)}), ((0, 0, 1, 0), ())],
                             ids=["list", "set", "frozenset", "empty-tuple"])
    def test_monomials_must_be_a_tuple_of_quadruples(self, monomials):
        with pytest.raises(ValueError, match=re.escape(f"monomials must be tuple[{_QUADRUPLE}")):
            ScrollCurve(2, monomials)

    @pytest.mark.parametrize("monomials", [((1, 0, 0, 0), (0, 1, 0, 0)),
                                           ((0, 1, 0, 0), (0, 1, 0, 0))],
                             ids=["descending", "repeated"])
    def test_monomials_must_ascend_without_repeats(self, monomials):
        # so that one set of monomials has one tuple, and equal curves are equal
        with pytest.raises(ValueError, match="^monomials must ascend without repeats, got "):
            ScrollCurve(1, monomials)


class TestInvariance:
    def test_matched_residue_scaling(self):
        k = 3  # k = 0 mod 3
        curve = ScrollCurve(
            e=2 * k + 2,
            monomials=((0, 0, 5, 0), (0, 10 * k + 10, 0, 5), (10 * k + 9, 1, 0, 5)),
        )
        assert t1_scaling_invariant(curve)

    def test_mismatched_residue_scaling(self):
        k = 4  # k = 1 mod 3, but the middle monomial belongs to the 0 family
        curve = ScrollCurve(
            e=2 * k + 2,
            monomials=((0, 0, 5, 0), (0, 10 * k + 10, 0, 5), (10 * k + 9, 1, 0, 5)),
        )
        assert not t1_scaling_invariant(curve)

    def test_plane_cyclic_shift(self):
        assert cyclic_shift_invariant({(10, 0, 0), (0, 10, 0), (0, 0, 10)})
        assert not cyclic_shift_invariant({(10, 0, 0), (0, 10, 0)})

    # unchecked, a float or bool triple passed as shift-closed and a str one raised
    # TypeError from <
    @pytest.mark.parametrize("triples", [{(1, 2)}, {(1, 2, 3, 4)}, {(1, -1, 0)},
                                         {(1.0, 1.0, 1.0)}, {(True, True, True)},
                                         {("a", "b", "c")}])
    def test_malformed_triple_rejected(self, triples):
        with pytest.raises(ValueError, match="malformed exponent triple"):
            cyclic_shift_invariant(triples)

    def test_single_monomial_without_t1(self):
        curve = ScrollCurve(e=4, monomials=((0, 0, 1, 0),))
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
        # a bool is refused as a non-integer, not as an exponent below 2
        for m, p in ((2.5, 5), (True, 5), (20, False)):
            with pytest.raises(ValueError, match="^germ exponents must be integers$"):
                classify_germ(m, p)
