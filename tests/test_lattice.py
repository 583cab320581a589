"""Picard lattice arithmetic against independent oracles."""

import copy
import pickle
import re
from bisect import bisect_right
from itertools import accumulate, groupby, product
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import kernels, lattice, samples
from horikawa.lattice import (BlowUp, DivisorClass, Hirzebruch, ProjectivePlane,
                              SurfaceMismatchError)
from horikawa.records import Affine, Planar

from oracles import (count_plane_monomials, count_scroll_monomials, gram_dot,
                     tower_section_count)

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
        lambda: True * Hirzebruch(1).divisor((1, 2)),
        lambda: Hirzebruch(1).divisor((1, 2)) * False,
    ], ids=["hirzebruch", "blow-up", "coefficient", "left-scalar", "right-scalar"])
    def test_bool_is_not_an_integer(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Hirzebruch(1).divisor((1, 2, 3)), "expected 2 coefficients, got 3"),
        (lambda: BlowUp(Hirzebruch(1).fiber(), 2),
         "base must be SurfaceModel, got DivisorClass(surface=Hirzebruch(e=1), head=(0, 1), "
         "runs=())"),
        (lambda: lattice.pullback(Hirzebruch(1), P2.divisor((1,))),
         "pullback target must be a blow-up"),
        (lambda: Hirzebruch(-1), "Hirzebruch parameter e must be a nonnegative integer"),
        # unchecked, a float index would give run lengths of 1.5
        (lambda: lattice.blow_up(Hirzebruch(1), 4).exceptional(2.5),
         "exceptional index must be an integer, got 2.5"),
        (lambda: lattice.blow_up(Hirzebruch(1), 4).exceptional(True),
         "exceptional index must be an integer, got True"),
        (lambda: lattice.blow_up(Hirzebruch(1), 4).exceptional(0),
         "exceptional index 0 out of range 1..4"),
        (lambda: lattice.blow_up(Hirzebruch(1), 4).exceptional(5),
         "exceptional index 5 out of range 1..4"),
        (lambda: lattice.blow_up(Hirzebruch(1), 4).divisor((1, 2, 0, 0, 2.0, 0)),
         "coefficients must be integers, got 2.0"),
        (lambda: lattice.blow_up(Hirzebruch(1), 4).divisor((1, 2, 1, True, 1, 1)),
         "coefficients must be integers, got True"),
        (lambda: lattice.blow_up(P2, 2).divisor((2.0, 0, 0)),
         "coefficients must be integers, got 2.0"),
    ], ids=["coefficient-count", "blow-up-of-a-class", "pullback-onto-a-root", "negative-e",
            "exceptional-float", "exceptional-bool", "exceptional-0", "exceptional-5",
            "tail-coefficient-float", "tail-coefficient-bool", "head-coefficient-float"])
    def test_malformed_input_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_general_position_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match=f"^general_position must be bool, got {flag!r}$"):
            lattice.blow_up(Hirzebruch(1), 3, flag)

    def test_pullback_of_zero(self):
        blown = lattice.blow_up(Hirzebruch(0), 2)
        assert lattice.pullback(blown, Hirzebruch(0).zero()) == blown.zero()

    def test_pullback_base_mismatch(self):
        blown = lattice.blow_up(Hirzebruch(0), 2)
        with pytest.raises(SurfaceMismatchError):
            lattice.pullback(blown, Hirzebruch(1).fiber())

    @pytest.mark.parametrize("other", [5, None], ids=["int", "none"])
    def test_pullback_of_a_non_class(self, other):
        # unchecked, a non-class raised AttributeError on its .surface
        blown = lattice.blow_up(Hirzebruch(0), 2)
        with pytest.raises(TypeError, match=f"^expected a DivisorClass, got {other}$"):
            lattice.pullback(blown, other)

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
        count = lattice.h0(P2.divisor((2,)))
        assert (count.value, count.exact) == (6, True)

    def test_plane_negative(self):
        assert lattice.h0(P2.divisor((-1,))).value == 0

    def test_ruled_example(self):
        f2 = Hirzebruch(2)
        count = lattice.h0(f2.divisor((2, 5)))
        assert (count.value, count.exact) == (12, True)

    @pytest.mark.parametrize("e", range(0, 7))
    def test_matches_enumeration_oracle(self, e):
        ruled = Hirzebruch(e)
        for a in range(0, 7):
            for b in range(0, 31):
                got = lattice.h0(ruled.divisor((a, b)))
                assert got.exact
                assert got.value == count_scroll_monomials(e, a, b), (e, a, b)

    def test_plane_matches_enumeration_oracle(self):
        for d in range(0, 12):
            assert lattice.h0(P2.divisor((d,))).value == count_plane_monomials(d)

    def test_negative_degrees_have_no_sections(self):
        f3 = Hirzebruch(3)
        assert lattice.h0(f3.divisor((-1, 10))).value == 0
        assert lattice.h0(f3.divisor((2, -1))).value == count_scroll_monomials(3, 2, -1) == 0

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 25))
    def test_monotone_in_fiber_degree(self, e, a, b):
        ruled = Hirzebruch(e)
        assert (lattice.h0(ruled.divisor((a, b + 1))).value
                >= lattice.h0(ruled.divisor((a, b))).value)

    def test_virtual_count_through_points(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 8)
        cls = lattice.pullback(blown, f1.divisor((1, 4))) - blown.exceptional_sum()
        count = lattice.h0(cls)
        assert (count.value, count.exact) == (1, False)

    def test_virtual_clamped_at_zero(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 20)
        cls = lattice.pullback(blown, f1.divisor((1, 4))) - blown.exceptional_sum()
        assert lattice.h0(cls).value == 0

    def test_pure_pullback_stays_exact(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(f1, 8)
        count = lattice.h0(lattice.pullback(blown, f1.divisor((1, 4))))
        assert count.exact and count.value == 9

    def test_rejects_higher_multiplicity(self):
        blown = lattice.blow_up(P2, 2)
        cls = lattice.pullback(blown, P2.divisor((4,))) - 2 * blown.exceptional(1)
        with pytest.raises(ValueError, match="multiplicity"):
            lattice.h0(cls)

    def test_rejects_points_without_generality(self):
        blown = lattice.blow_up(P2, 2, general_position=False)
        cls = lattice.pullback(blown, P2.divisor((4,))) - blown.exceptional_sum()
        with pytest.raises(ValueError, match="general position"):
            lattice.h0(cls)


@st.composite
def towers(draw):
    """A class on a tower of two or three blow-up levels over P^2 or F_e."""
    surface = draw(st.sampled_from([P2, Hirzebruch(0), Hirzebruch(1), Hirzebruch(3)]))
    for _ in range(draw(st.integers(2, 3))):
        surface = lattice.blow_up(surface, draw(st.integers(1, 4)), draw(st.booleans()))
    root_rank = lattice.picard_rank(_root(surface))
    head = [draw(st.integers(-1, 8)) for _ in range(root_rank)]
    exceptional = [draw(st.sampled_from((0, 0, -1, -1, -1, 1, -2)))
                   for _ in range(lattice.picard_rank(surface) - root_rank)]
    return surface.divisor(head + exceptional)


def _root(surface):
    while isinstance(surface, BlowUp):
        surface = surface.base
    return surface


def _outcome(count, *args):
    try:
        return count(*args)
    except ValueError as error:
        return str(error)


class TestTowerSectionCounts:
    """``h0`` on towers against the recursive oracle, refusals and their order included."""

    @settings(max_examples=300)
    @given(towers())
    def test_matches_recursive_oracle(self, d):
        got = _outcome(lambda: tuple(lattice.h0(d)))
        assert got == _outcome(tower_section_count, d.surface, list(d.coeffs))

    # F_1 blown up at 2, then 3, then 1 points: the classes list (D0, F, E1..E6)
    @pytest.mark.parametrize("positions, coeffs, outcome", [
        ((True, True, True), (1, 6, -1, -1, -1, 0, -1, -1), (8, False)),
        ((True, True, True), (1, 6, -1, 0, 0, 0, 0, 0), (12, False)),
        ((True, True, True), (1, 6, 0, 0, 0, 0, 0, 0), (13, True)),
        ((True, True, True), (1, 2, -1, -1, -1, -1, -1, -1), (0, False)),
        # bad coefficients on two levels: the upper level is named
        ((True, True, True), (1, 6, 2, 0, -2, 3, 0, 0), "[-2, 3]"),
        ((True, True, True), (1, 6, 2, 0, -2, 3, 0, 5), "[5]"),
        # general position off below: refused only where that level imposes
        ((False, True, True), (1, 6, -1, 0, -1, 0, 0, -1), "general position"),
        ((False, True, True), (1, 6, 0, 0, -1, 0, 0, -1), (11, False)),
        ((True, False, True), (1, 6, 0, 0, -1, 0, 0, 0), "general position"),
        # a bad coefficient anywhere is refused before general position
        ((False, True, True), (1, 6, -1, 0, 0, 0, 0, 2), "[2]"),
        ((True, True, False), (1, 6, 0, 0, 0, 0, 0, -1), "general position"),
    ])
    def test_three_level_tower(self, positions, coeffs, outcome):
        surface = Hirzebruch(1)
        for count, general in zip((2, 3, 1), positions):
            surface = lattice.blow_up(surface, count, general)
        d = surface.divisor(coeffs)
        want = _outcome(tower_section_count, surface, list(coeffs))
        assert _outcome(lambda: tuple(lattice.h0(d))) == want
        assert (want == outcome if type(outcome) is tuple else outcome in want)


class TestLabelsAndFormatting:
    def test_labels(self):
        assert lattice.basis_labels(P2) == ("H",)
        assert lattice.basis_labels(Hirzebruch(3)) == ("D0", "F")
        nested = lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 3)
        with pytest.raises(TypeError, match="root surface"):
            lattice.basis_labels(nested)
        assert dense_labels(nested) == ("D0", "F", "E1", "E2", "E3", "E4", "E5")

    def test_format_groups_exceptional_runs(self):
        blown = lattice.blow_up(Hirzebruch(1), 4)
        cls = lattice.pullback(blown, Hirzebruch(1).divisor((2, 3))) - blown.exceptional_sum()
        assert str(cls) == "2*D0 + 3*F - E[1..4]"
        assert str(blown.zero()) == "0"

    def test_descriptor(self):
        assert lattice.surface_descriptor(Hirzebruch(6)) == "F_6"
        assert lattice.surface_descriptor(P2) == "P^2"


# -- run-length classes against dense references at large rank --------------

ROOTS = (P2, Hirzebruch(0), Hirzebruch(1), Hirzebruch(4))


def _root(surface):
    while isinstance(surface, BlowUp):
        surface = surface.base
    return surface


@st.composite
def nested_blow_ups(draw, largest=700):
    surface = draw(st.sampled_from(ROOTS))
    for _ in range(draw(st.integers(1, 3))):
        surface = lattice.blow_up(surface, draw(st.integers(1, largest)))
    return surface


@st.composite
def dense_vectors(draw, surface, head=st.integers(-9, 9), values=(-4, 4), longest=(500, 125)):
    """Dense coefficients whose exceptional part is a few long runs.

    ``longest`` bounds the length of a run of zeros and of any other value.
    """
    split = lattice.picard_rank(_root(surface))
    count = lattice.picard_rank(surface) - split
    tail = []
    while len(tail) < count:
        value = draw(st.integers(*values))
        tail += [value] * draw(st.integers(1, longest[value != 0]))
    return tuple(draw(head) for _ in range(split)) + tuple(tail[:count])


def dense_dot(surface, u, v):
    root = _root(surface)
    split = lattice.picard_rank(root)
    return gram_dot(root, u[:split], v[:split]) - sum(x * y for x, y in zip(u[split:], v[split:]))


def dense_labels(surface):
    """Every basis label: the root's, then E1, E2, ... numbered across the tower."""
    root = _root(surface)
    count = lattice.picard_rank(surface) - lattice.picard_rank(root)
    return lattice.basis_labels(root) + tuple(f"E{i}" for i in range(1, count + 1))


def dense_format(surface, coeffs):
    """The rendering rule written out over the full basis."""
    labels = dense_labels(surface)
    parts = []
    i = 0
    while i < len(labels):
        j = i
        if labels[i].startswith("E"):
            while j + 1 < len(labels) and coeffs[j + 1] == coeffs[i]:
                j += 1
        if coeffs[i]:
            name = labels[i] if i == j else f"E[{labels[i][1:]}..{labels[j][1:]}]"
            parts.append((coeffs[i], name))
        i = j + 1
    terms = []
    for k, (c, name) in enumerate(parts):
        term = name if abs(c) == 1 else f"{abs(c)}*{name}"
        sign = ("" if c > 0 else "-") if k == 0 else ("+ " if c > 0 else "- ")
        terms.append(sign + term)
    return " ".join(terms) or "0"


class TestRunsAgainstDenseReference:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_arithmetic_pairing_and_rendering(self, data):
        surface = data.draw(nested_blow_ups())
        ua, ub = (data.draw(dense_vectors(surface)) for _ in range(2))
        a, b = surface.divisor(ua), surface.divisor(ub)
        assert a.coeffs == ua and b.coeffs == ub
        assert a.dot(b) == dense_dot(surface, ua, ub)
        assert a.square() == dense_dot(surface, ua, ua)
        if len(ua) <= 60:
            assert a.dot(b) == gram_dot(surface, ua, ub)
        assert (a + b).coeffs == tuple(map(add, ua, ub))
        assert (a - b).coeffs == tuple(map(sub, ua, ub))
        assert (-a).coeffs == tuple(-x for x in ua)
        for n in (0, -1, data.draw(st.integers(-6, 6))):
            assert (n * a).coeffs == (a * n).coeffs == tuple(n * x for x in ua)
        for u in (ua, ub, tuple(map(sub, ua, ub))):
            assert str(surface.divisor(u)) == dense_format(surface, u)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_classes_by_different_routes(self, data):
        surface = data.draw(nested_blow_ups())
        a, b = (surface.divisor(data.draw(dense_vectors(surface))) for _ in range(2))
        for left, right in [(a + b, b + a), ((a + b) - b, a), (a + a, 2 * a),
                            (0 * a, surface.zero()), (a - a, surface.zero()),
                            (-(-a), a), (surface.divisor(list(a.coeffs)), a)]:
            assert left == right and hash(left) == hash(right)
        n = surface.point_count
        i = data.draw(st.integers(1, n))
        unit = surface.exceptional(i)
        assert unit.coeffs == tuple(int(k == len(a.coeffs) - n + i - 1)
                                    for k in range(len(a.coeffs)))
        total = surface.exceptional_sum()
        assert total.coeffs == (0,) * (len(a.coeffs) - n) + (1,) * n
        assert unit.dot(total) == -1 and total.square() == -n

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_pullback_and_section_counts(self, data):
        surface = data.draw(nested_blow_ups())
        u = data.draw(dense_vectors(surface.base))
        pulled = lattice.pullback(surface, surface.base.divisor(u))
        assert pulled.coeffs == u + (0,) * surface.point_count
        assert pulled == surface.divisor(pulled.coeffs)
        assert hash(pulled) == hash(surface.divisor(pulled.coeffs))
        root = _root(surface)
        if isinstance(root, ProjectivePlane):
            head = st.integers(0, 9)
        else:
            head = st.integers(0, 30) if data.draw(st.booleans()) else st.integers(0, 4)
        v = data.draw(dense_vectors(surface, head=head, values=(-1, 0), longest=(400, 3)))
        split = lattice.picard_rank(root)
        if isinstance(root, ProjectivePlane):
            base_count = count_plane_monomials(v[0])
        else:
            base_count = count_scroll_monomials(root.e, v[0], v[1])
        imposed = v[split:].count(-1)
        count = lattice.h0(surface.divisor(v))
        assert (count.value, count.exact) == (max(0, base_count - imposed), imposed == 0)


def runs_of(dense):
    return tuple((value, len(list(group))) for value, group in groupby(dense))


@st.composite
def dense_pairs(draw):
    """Two dense exceptional vectors of one length, each constant (one run) or not."""
    n = draw(st.integers(1, 60))

    def dense():
        if draw(st.booleans()):
            return [draw(st.integers(-5, 5))] * n
        return [draw(st.integers(-2, 2)) for _ in range(n)]
    return dense(), dense()


@st.composite
def run_list_pairs(draw):
    """Two canonical run lists over one exceptional count, given directly.

    Run lengths go up to 10^5.  Either list may be a single run, and the
    second list's run ends are drawn partly from the first's, so the two
    lists end runs both apart and together.
    """
    def canonical(lengths):
        values = []
        for _ in lengths:
            value = draw(st.integers(-3, 3))
            values.append(value + 7 if values and value == values[-1] else value)
        return tuple(zip(values, lengths))

    u_lengths = draw(st.lists(st.integers(1, 10**5), min_size=1, max_size=12))
    ends = list(accumulate(u_lengths))
    total = ends[-1]
    cuts = set()
    if total > 1 and draw(st.booleans()):
        inner = st.integers(1, total - 1)
        if len(ends) > 1:
            inner = inner | st.sampled_from(ends[:-1])
        cuts = draw(st.sets(inner, min_size=1, max_size=12))
    bounds = [0, *sorted(cuts), total]
    v_lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    u, v = canonical(u_lengths), canonical(v_lengths)
    return (u, v) if draw(st.booleans()) else (v, u)


def run_pieces(u, v):
    """(x, y, length) on each stretch between consecutive run ends of either list.

    The values are found by bisecting the run ends; nothing is expanded.
    """
    ends_u, ends_v = list(accumulate(n for _x, n in u)), list(accumulate(n for _y, n in v))
    start, pieces = 0, []
    for end in sorted(set(ends_u) | set(ends_v)):
        x = u[bisect_right(ends_u, start)][0]
        y = v[bisect_right(ends_v, start)][0]
        pieces.append((x, y, end - start))
        start = end
    return pieces


def coalesced(pieces):
    """Canonical runs of (value, length) pieces: equal neighbours joined."""
    runs = []
    for value, length in pieces:
        if runs and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] + length)
        else:
            runs.append((value, length))
    return tuple(runs)


def walk(surface):
    """The root and exceptional count found by walking the blow-up chain."""
    count = 0
    while isinstance(surface, BlowUp):
        count += surface.point_count
        surface = surface.base
    return surface, count


class TestFastPaths:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(dense_pairs())
    def test_run_arithmetic_matches_dense_oracle(self, pair):
        u, v = pair
        for op in (add, sub, mul):
            merged = kernels._merge_runs(runs_of(u), runs_of(v), op)
            assert merged == runs_of(list(map(op, u, v)))
        expected = -sum(x * y for x, y in zip(u, v))
        assert kernels._exceptional_dot(runs_of(u), runs_of(v)) == expected

    def test_single_runs_take_the_short_path(self):
        assert kernels._merge_runs(((3, 7),), ((-3, 7),), add) == ((0, 7),)
        assert kernels._exceptional_dot(((3, 7),), ((-2, 7),)) == 42
        assert kernels._exceptional_dot((), ()) == 0

    @pytest.mark.parametrize("u, v, expected", [
        (((2, 10),), ((1, 4), (-1, 6)), 4),
        (((1, 4), (-1, 6)), ((2, 10),), 4),
        (((1, 4), (-1, 6)), ((3, 4), (5, 6)), 18),
        (((1, 3), (0, 4), (2, 3)), ((1, 5), (-2, 5)), 9),
    ], ids=["one-against-two", "two-against-one", "ends-together", "ends-apart"])
    def test_mixed_run_counts(self, u, v, expected):
        assert kernels._exceptional_dot(u, v) == expected
        assert kernels._merge_runs(u, v, add) == coalesced(
            (x + y, n) for x, y, n in run_pieces(u, v))

    @pytest.mark.parametrize("root", [P2, Hirzebruch(0), Hirzebruch(3)])
    def test_root_classes_have_empty_runs(self, root):
        a, b = root.divisor((1,) * lattice.picard_rank(root)), root.zero()
        assert a.runs == b.runs == () and kernels._merge_runs((), (), sub) == ()
        assert (a + b).runs == (a - a).runs == (3 * a).runs == ()
        assert a.dot(b) == 0 and a.square() == gram_dot(root, a.coeffs, a.coeffs)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(ROOTS + (Hirzebruch(2), Hirzebruch(7))), st.data())
    def test_root_pairing_is_the_gram_form(self, root, data):
        rank = lattice.picard_rank(root)
        vectors = st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)
        u, v = data.draw(vectors), data.draw(vectors)
        a, b = root.divisor(u), root.divisor(v)
        assert a.runs == b.runs == ()
        assert a.dot(b) == b.dot(a) == gram_dot(root, u, v)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(run_list_pairs())
    def test_long_runs_match_a_run_oracle(self, pair):
        u, v = pair
        pieces = run_pieces(u, v)
        assert kernels._exceptional_dot(u, v) == -sum(x * y * n for x, y, n in pieces)
        for op in (add, sub, mul):
            assert kernels._merge_runs(u, v, op) == coalesced((op(x, y), n) for x, y, n in pieces)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_dense_round_trip_gives_canonical_runs(self, data):
        surface = data.draw(nested_blow_ups(largest=25))
        rank, count = lattice.picard_rank(surface), lattice._levels(surface)[1]
        values = st.integers(-1, 1) if data.draw(st.booleans()) else st.integers(-9, 9)
        coeffs = data.draw(st.lists(values, min_size=rank, max_size=rank))
        d = surface.divisor(coeffs)
        assert d.coeffs == tuple(coeffs)
        assert all(length >= 1 for _value, length in d.runs)
        assert all(a[0] != b[0] for a, b in zip(d.runs, d.runs[1:]))
        assert sum(length for _value, length in d.runs) == count
        assert DivisorClass(surface, d.head, d.runs) == d

    @pytest.mark.parametrize("root", [P2, Hirzebruch(2)])
    def test_levels_of_a_three_level_tower(self, root):
        tower = lattice.blow_up(lattice.blow_up(lattice.blow_up(root, 3), 5, False), 7)
        for surface in (tower, tower.base, tower.base.base, root):
            found_root, count = walk(surface)
            assert lattice._levels(surface) == (found_root, count)
            assert lattice.picard_rank(surface) == lattice.picard_rank(found_root) + count
        assert lattice._levels(tower) == (root, 15)
        assert lattice.picard_rank(tower) == lattice.picard_rank(root) + 15

    def test_stored_levels_stay_out_of_equality(self):
        a, b = lattice.blow_up(P2, 2), lattice.blow_up(P2, 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == "BlowUp(base=ProjectivePlane(), point_count=2, general_position=True)"

    def test_replace_keeps_the_levels(self):
        tower = lattice.blow_up(lattice.blow_up(P2, 3), 5)
        grown = tower._replace(point_count=6)
        assert lattice._levels(grown) == (P2, 9) and lattice.picard_rank(grown) == 10
        assert grown.exceptional_sum().coeffs == (0,) + (0,) * 3 + (1,) * 6
        with pytest.raises(ValueError, match="positive integer"):
            tower._replace(point_count=0)

    def test_class_is_not_the_tuple_of_its_fields(self):
        d = lattice.blow_up(P2, 2).divisor((3, -1, 0))
        assert d != (d.surface, d.head, d.runs) and (d.surface, d.head, d.runs) != d
        assert repr(d) == ("DivisorClass(surface=BlowUp(base=ProjectivePlane(), point_count=2, "
                           "general_position=True), head=(3,), runs=((-1, 1), (0, 1)))")

    def test_copies_and_pickles_are_equal(self):
        d = lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 3).divisor((1, 2, -1, 0, 0, 5, 5))
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d and hash(twin) == hash(d)
            assert lattice._levels(twin.surface) == (Hirzebruch(1), 5)

    @pytest.mark.parametrize("d", [
        Hirzebruch(1).divisor((Affine(1, 3, 1, 5), 2)),
        P2.divisor((Affine(-3, 1, 0, 9),)),
        lattice.blow_up(Hirzebruch(0), 3).divisor((Affine(2, 2, 1, 6), 1, 0, -1, -1)),
    ], ids=["ruled", "plane", "blow-up"])
    def test_symbolic_class_copies_and_pickles(self, d):
        # the checked constructor admits the Affine head that divisor admits; an Affine has
        # no hash, so equality is the test
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(twin) is DivisorClass and twin == d
            assert twin.surface == d.surface and twin.runs == d.runs

    def test_class_refuses_assignment(self):
        d = P2.divisor((2,))
        for name in DivisorClass._fields + ("not_a_field",):
            with pytest.raises(AttributeError, match="DivisorClass is immutable"):
                setattr(d, name, getattr(d, name, None))
            with pytest.raises(AttributeError, match="DivisorClass is immutable"):
                delattr(d, name)
        assert d == P2.divisor((2,))


@st.composite
def kernel_operands(draw):
    """A plane, an F_e or a one- or two-level tower, and two classes on it.

    Each class has one exceptional run or many short ones, drawn apart,
    so that sums and differences meet both fast paths and the merge.
    """
    surface = draw(st.sampled_from((P2,) + tuple(Hirzebruch(e) for e in range(6))))
    for _ in range(draw(st.integers(0, 2))):
        surface = lattice.blow_up(surface, draw(st.integers(1, 30)))
    split = lattice.picard_rank(_root(surface))
    count = lattice.picard_rank(surface) - split
    classes = []
    for _ in range(2):
        head = tuple(draw(st.integers(-9, 9)) for _ in range(split))
        if draw(st.booleans()):
            tail = (draw(st.integers(-4, 4)),) * count
        else:
            tail = tuple(draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count)))
        classes.append(surface.divisor(head + tail))
    return surface, *classes


class TestKernelsAgainstDenseArithmetic:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(kernel_operands(), st.integers(-6, 6))
    def test_sum_difference_and_multiple(self, operands, n):
        surface, a, b = operands
        ua, ub = a.coeffs, b.coeffs
        results = [(a + b, tuple(map(add, ua, ub))), (a - b, tuple(map(sub, ua, ub)))]
        results += [(m * a, tuple(m * x for x in ua)) for m in (n, 0, -1)]
        for result, dense in results:
            # equal fields to the class read from the dense vector: canonical runs
            assert result == surface.divisor(dense) and result.surface is surface
            assert DivisorClass(surface, result.head, result.runs) == result

    @pytest.mark.parametrize("root", [P2, Hirzebruch(2)], ids=["plane", "ruled"])
    @pytest.mark.parametrize("below", [0, 3])
    def test_exceptional_sum_is_the_dense_sum(self, root, below):
        surface = lattice.blow_up(lattice.blow_up(root, below) if below else root, 5)
        total = surface.zero()
        for i in range(1, 6):
            total = total + surface.exceptional(i)
        split = lattice.picard_rank(root)
        assert surface.exceptional_sum() == total == surface.divisor(
            (0,) * (split + below) + (1,) * 5)
        assert surface.exceptional_sum().runs == (((0, below),) if below else ()) + ((1, 5),)

    @pytest.mark.parametrize("coeffs", [
        (6, 0, 0, -1, 2, -1, -2, 2),
        (6, 2, -2, -1, 0, 0, 0, -1),
    ], ids=["top-level", "lower-level"])
    def test_h0_names_every_bad_value_of_the_level(self, coeffs):
        # the walk stops at the level's first 2 but names its -2 as well
        surface = lattice.blow_up(lattice.blow_up(P2, 2), 5)
        message = ("exceptional coefficients [-2, 2] not supported: only simple "
                   "(multiplicity one) point conditions are modelled")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lattice.h0(surface.divisor(coeffs))


OPERATIONS = [add, sub, DivisorClass.dot]


class TestSurfaceChecks:
    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    def test_equal_but_distinct_surfaces_agree(self, op):
        first, second = lattice.blow_up(Hirzebruch(1), 3), lattice.blow_up(Hirzebruch(1), 3)
        a, b = first.divisor((1, 2, 0, -1, -1)), second.divisor((2, 3, 1, 1, 0))
        assert first is not second
        assert op(a, b) == op(a, first.divisor(b.coeffs))

    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    @pytest.mark.parametrize("other", [
        Hirzebruch(2).divisor((1, 2)),
        lattice.blow_up(Hirzebruch(1), 3, False).divisor((1, 2, 0, 0, 0)),
    ], ids=["other-root", "other-flag"])
    def test_different_surfaces_rejected(self, op, other):
        a = lattice.blow_up(Hirzebruch(1), 3).divisor((1, 2, 0, 0, 0))
        with pytest.raises(SurfaceMismatchError):
            op(a, other)

    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    @pytest.mark.parametrize("other", [3, None, (1, 2)], ids=["int", "none", "tuple"])
    def test_non_classes_rejected(self, op, other):
        with pytest.raises(TypeError, match="expected a DivisorClass"):
            op(Hirzebruch(1).divisor((1, 2)), other)

    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    @pytest.mark.parametrize("make, coeffs", [
        (ProjectivePlane, ((3,), (-2,))),
        (lambda: Hirzebruch(3), ((1, 4), (2, -1))),
    ], ids=["plane", "ruled"])
    def test_equal_but_distinct_root_surfaces_agree(self, op, make, coeffs):
        first, second = make(), make()
        a, b = first.divisor(coeffs[0]), second.divisor(coeffs[1])
        assert first is not second and first == second
        assert op(a, b) == op(a, first.divisor(b.coeffs))

    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    @pytest.mark.parametrize("other, message", [
        (Hirzebruch(2).divisor((1, 2)),
         "classes live on different surfaces: blow-up of F_1 at 3 points vs F_2"),
        (lattice.blow_up(Hirzebruch(1), 3, False).divisor((1, 2, 0, 0, 0)),
         "classes live on different surfaces: blow-up of F_1 at 3 points vs "
         "blow-up of F_1 at 3 points (no generality assumed)"),
    ], ids=["other-root", "other-flag"])
    def test_mismatch_message(self, op, other, message):
        a = lattice.blow_up(Hirzebruch(1), 3).divisor((1, 2, 0, 0, 0))
        with pytest.raises(SurfaceMismatchError, match=f"^{re.escape(message)}$"):
            op(a, other)

    @pytest.mark.parametrize("op", OPERATIONS, ids=["add", "sub", "dot"])
    @pytest.mark.parametrize("root", [P2, Hirzebruch(1)], ids=["plane", "ruled"])
    def test_non_class_message(self, op, root):
        a = root.divisor((1,) * lattice.picard_rank(root))
        for other in (3, None):
            with pytest.raises(TypeError, match=f"^expected a DivisorClass, got {other}$"):
                op(a, other)

    @pytest.mark.parametrize("use", [
        lattice.picard_rank, lattice.surface_descriptor, lattice.canonical_class,
        lambda surface: lattice.h0(DivisorClass._make(surface, (1,), ())),
    ], ids=["picard_rank", "surface_descriptor", "canonical_class", "h0"])
    def test_non_surface_refused(self, use):
        # a bare SurfaceModel is none of the plane, a Hirzebruch surface or a blow-up
        with pytest.raises(TypeError, match="^unsupported surface"):
            use(lattice.SurfaceModel())

    def test_float_scalar_is_not_implemented(self):
        # __rmul__ hands a float back to Python, which raises the TypeError
        with pytest.raises(TypeError, match="unsupported operand"):
            2.5 * Hirzebruch(1).divisor((1, 2))


def test_ample_leaves_blow_ups_undecided():
    blown = lattice.blow_up(P2, 1)
    assert lattice.ample(P2.divisor((3,)))
    assert not lattice.ample(blown.divisor((3, -1)))


# -- the data that verify's lattice sample checks build and pair --------------

def bilinearity_vectors():
    """Each draw of the bilinearity sample: its surface and its three vectors."""
    surfaces = samples.sample_surfaces()
    draws = samples.bilinearity_draws(tuple(map(lattice.picard_rank, surfaces)))
    return [(surfaces[n % len(surfaces)], (u, v, w)) for n, (u, v, w, _m) in enumerate(draws)]


def isometry_vectors():
    """Each draw of the pullback sample: its ruled surface, its blow-up and its two vectors."""
    ruled_surfaces = [Hirzebruch(e) for e in (0, 1, 2, 4)]
    draws = samples.isometry_draws(tuple(map(lattice.picard_rank, ruled_surfaces)))
    return [(ruled, lattice.blow_up(ruled, n), pair)
            for ruled, per_count in zip(ruled_surfaces, draws)
            for n, pairs in zip(samples.ISOMETRY_POINT_COUNTS, per_count) for pair in pairs]


def checked_class(surface, coeffs):
    """The class that the checked constructor builds from the split of ``coeffs``."""
    split = lattice.picard_rank(_root(surface))
    return DivisorClass(surface, coeffs[:split], runs_of(coeffs[split:]))


class TestSampleData:
    def test_bilinearity_classes_are_the_checked_ones(self):
        cases = bilinearity_vectors()
        assert len(cases) == 400
        assert {type(surface) for surface, _vectors in cases} == {
            ProjectivePlane, Hirzebruch, BlowUp}
        for surface, vectors in cases:
            classes = [surface.divisor(vector) for vector in vectors]
            for d, vector in zip(classes, vectors):
                assert d == checked_class(surface, vector) and d.coeffs == vector
                assert d.runs == () or type(surface) is BlowUp
            for (a, u), (b, v) in product(zip(classes, vectors), repeat=2):
                assert a.dot(b) == gram_dot(surface, u, v)

    def test_isometry_classes_are_the_checked_ones(self):
        cases = isometry_vectors()
        assert len(cases) == 4 * 3 * 30
        for ruled, blown, (v1, v2) in cases:
            d1, d2 = ruled.divisor(v1), ruled.divisor(v2)
            for d, vector in ((d1, v1), (d2, v2)):
                assert d == checked_class(ruled, vector) and d.coeffs == vector
                zeros = (0,) * blown.point_count
                assert lattice.pullback(blown, d) == blown.divisor(vector + zeros)
            assert d1.dot(d2) == gram_dot(ruled, v1, v2)
            p1, p2 = lattice.pullback(blown, d1), lattice.pullback(blown, d2)
            assert p1.dot(p2) == gram_dot(blown, p1.coeffs, p2.coeffs) == d1.dot(d2)

    @pytest.mark.parametrize("root, coeffs, message", [
        (P2, (), "expected 1 coefficients, got 0"),
        (P2, (1, 2), "expected 1 coefficients, got 2"),
        (Hirzebruch(1), (1,), "expected 2 coefficients, got 1"),
        (Hirzebruch(1), (True, 2.0, 1), "expected 2 coefficients, got 3"),
        (P2, (True,), "coefficients must be integers, got True"),
        (Hirzebruch(2), (1, False), "coefficients must be integers, got False"),
        (P2, (2.0,), "coefficients must be integers, got 2.0"),
        (Hirzebruch(0), (1.5, 2.0), "coefficients must be integers, got 1.5"),
        (Hirzebruch(0), (1, "2"), "coefficients must be integers, got '2'"),
    ], ids=["plane-short", "plane-long", "ruled-short", "length-before-entries",
            "plane-bool", "ruled-bool", "plane-float", "ruled-float", "ruled-str"])
    def test_root_refusals(self, root, coeffs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            root.divisor(coeffs)

    @pytest.mark.parametrize("root, coeffs", [
        (P2, (Affine(1, 3, 1, 5),)),
        (Hirzebruch(1), (Affine(1, 3, 1, 5), 2)),
        (Hirzebruch(Affine(2, 1, 0, 4)), (1, Affine(0, 2, 0, 4))),
    ], ids=["plane", "ruled", "symbolic-ruled"])
    def test_root_admits_an_affine_head(self, root, coeffs):
        d = root.divisor(iter(coeffs))
        assert d.surface is root and d.head == coeffs and d.runs == ()
        assert DivisorClass(root, list(coeffs), []).head == coeffs

    def test_root_refuses_a_planar_head(self):
        entry = Planar(0, 0, 1, Affine(3, 1, 1, 4))
        for build in (lambda: Hirzebruch(1).divisor((entry, 1)),
                      lambda: DivisorClass(Hirzebruch(1), (entry, 1), ())):
            with pytest.raises(ValueError, match="^coefficients must be integers, got "):
                build()

    def test_runs_stay_int_only(self):
        blown = lattice.blow_up(P2, 2)
        for runs in (((Affine(1, 3, 1, 5), 2),), ((1, Affine(1, 0, 1, 5)),)):
            with pytest.raises(ValueError, match="^run entries must be integers, got "):
                DivisorClass(blown, (1,), runs)
        with pytest.raises(ValueError, match="^coefficients must be integers, got "):
            blown.divisor((1, Affine(1, 3, 1, 5), 0))
