"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every expected value is either recomputed here from an independent route
(closed formulas, brute enumeration, Gram matrices) or frozen from a hand
derivation.  Each criterion prints a single PASS or FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
from contextlib import contextmanager

import pytest

from horikawa import catalog, cli, covers, faults, lattice, stable
from horikawa.lattice import Hirzebruch, ProjectivePlane

from oracles import count_scroll_monomials, gram_dot

CHI_FULL = 1000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_component_one_suite():
    with criterion(1, f"first-component identities for chi in 4..{CHI_FULL}"):
        for chi in range(4, CHI_FULL + 1):
            recipe = catalog.build_component_one(chi)
            assert recipe.report.k_squared == 2 * chi - 6
            assert recipe.report.chi == chi
            e, alpha, beta = recipe.parameters
            assert (alpha + 2 * beta) % 3 == 0
            root = covers.derive_root(3, recipe.branch)
            assert 3 * root == recipe.branch[0] + 2 * recipe.branch[1]
            fiber = lattice.pullback(recipe.base, Hirzebruch(e).fiber())
            expected = (alpha + 2 * beta - 3 * e - 6) * fiber + recipe.branch[0]
            assert recipe.report.canonical_multiple.cls == expected


def test_criterion_2_component_two_suite():
    with criterion(2, "second-component identities for k = 1 and k in 2..33"):
        first = catalog.build_component_two(1)
        assert (first.report.k_squared, first.report.chi) == (8, 7)
        assert first.report.p_g == 6
        assert lattice.surface_descriptor(first.canonical_image) == "P^2"
        for k in range(2, 34):
            recipe = catalog.build_component_two(k)
            assert (recipe.report.k_squared, recipe.report.chi) == (8 * k, 4 * k + 3)
            ruled = Hirzebruch(2 * k + 2)
            bicanonical = 2 * recipe.report.canonical_multiple.cls
            assert bicanonical == ruled.divisor((2, 6 * k + 2))
            assert covers.scroll_class(recipe.scroll_curve) == ruled.divisor(
                (5, 10 * k + 10))
            assert covers.t1_scaling_invariant(recipe.scroll_curve)
            if k % 3 == 1:
                assert recipe.germ == "A_4"


def test_criterion_3_stable_suite():
    with criterion(3, f"stable-line identities for chi in 3..{CHI_FULL}"):
        for chi in range(3, CHI_FULL + 1):
            record, recipe = catalog.build_stable(chi)
            assert record.k_squared == 2 * chi - 5
            assert record.chi == chi
            assert record.ledger.third11_count == 3
            assert not record.smoothable
            cert = recipe.certificates[0]
            assert cert.self_intersection == 3 * record.k_squared
            if chi == 3:
                assert cert.feasibility_verdict == catalog.VERDICT_EXCEPTIONAL_EXCLUDED
                assert cert.exceptional_witness == (1, 0)
            else:
                assert cert.feasibility_verdict == catalog.VERDICT_INFEASIBLE
            value = stable.h0_2K(record)
            assert value == chi + int(record.k_squared) - 1
            assert value != chi + int(record.k_squared)
            assert record.in_component_without_canonical_models


def test_criterion_4_epsilon_family_bound():
    with criterion(4, "contracted family bound for chi in 4..60"):
        for chi in range(4, 61):
            for epsilon in range(1, (2 * chi + 2) // 3 + 1):
                record = catalog.epsilon_family(chi, epsilon)
                assert record.k_squared == 2 * chi - 6 + epsilon
                assert 3 * record.k_squared <= 8 * chi - 16
                assert (3 * record.k_squared == 8 * chi - 16) == (
                    3 * epsilon == 2 * chi + 2)


def test_criterion_5_lattice_property_suite():
    with criterion(5, "lattice properties: bilinearity, isometry, K^2 drop, "
                      "section count oracle"):
        rng = random.Random(987654321)
        plane = ProjectivePlane()
        surfaces = [
            plane,
            Hirzebruch(0),
            Hirzebruch(1),
            Hirzebruch(3),
            Hirzebruch(6),
            lattice.blow_up(Hirzebruch(2), 5),
            lattice.blow_up(plane, 4),
            lattice.blow_up(lattice.blow_up(Hirzebruch(1), 2), 3),
        ]
        for trial in range(10_000):
            surface = surfaces[trial % len(surfaces)]
            rank = lattice.picard_rank(surface)
            a = surface.divisor([rng.randint(-10, 10) for _ in range(rank)])
            b = surface.divisor([rng.randint(-10, 10) for _ in range(rank)])
            assert a.dot(b) == b.dot(a)
            if trial % 10 == 0:
                c = surface.divisor([rng.randint(-10, 10) for _ in range(rank)])
                n = rng.randint(-7, 7)
                assert (a + b).dot(c) == a.dot(c) + b.dot(c)
                assert (n * a).dot(b) == n * a.dot(b)
                assert a.dot(b) == gram_dot(surface, a.coeffs, b.coeffs)
        # blow-up isometry
        for e in (0, 1, 2, 3):
            ruled = Hirzebruch(e)
            blown = lattice.blow_up(ruled, 6)
            for _ in range(200):
                d1 = ruled.divisor([rng.randint(-10, 10), rng.randint(-10, 10)])
                d2 = ruled.divisor([rng.randint(-10, 10), rng.randint(-10, 10)])
                assert (lattice.pullback(blown, d1).dot(lattice.pullback(blown, d2))
                        == d1.dot(d2))
        # canonical square drop, one point at a time up to 200
        for n in range(1, 201):
            blown = lattice.blow_up(Hirzebruch(2), n)
            assert lattice.canonical_class(blown).square() == 8 - n
        # section counts against the enumeration oracle
        for e in range(0, 7):
            ruled = Hirzebruch(e)
            for a_deg in range(0, 7):
                for b_deg in range(0, 31):
                    got = lattice.h0(ruled.divisor((a_deg, b_deg)))
                    assert got.exact
                    assert got.value == count_scroll_monomials(e, a_deg, b_deg)


def test_criterion_6_classification_table():
    with criterion(6, "component counts, canonical images and the parity "
                      "discriminator"):
        for chi in range(4, CHI_FULL + 1):
            k_squared = 2 * chi - 6
            info = catalog.classify(k_squared, chi)
            assert info.count == (2 if k_squared % 8 == 0 else 1)
            if info.count == 2:
                quarter = k_squared // 4
                if k_squared > 8:
                    assert info.images.second == (Hirzebruch(quarter + 2),)
                else:
                    assert info.images.second == (catalog.P2_IMAGE, catalog.CONE_IMAGE)
        assert catalog.parity_discriminator([-3, -3]) == "I"
        for k in range(1, 25):
            recipe = catalog.build_component_one(4 * k + 3)
            verdict = catalog.parity_discriminator(
                recipe.fiber_component_self_intersections)
            assert verdict == "I" == recipe.component_claim


def test_criterion_7_fault_injection(capsys):
    with criterion(7, "every injected fault makes verify-paper exit 1 naming "
                      "a violated identity"):
        names = faults.fault_names()
        assert len(names) >= 20
        clean = cli.main(["verify-paper", "--chi-max", "12", "--k-max", "4"])
        capsys.readouterr()
        assert clean == 0
        for name in names:
            code = cli.main(["verify-paper", "--chi-max", "12", "--k-max", "4",
                             "--inject-fault", name])
            out = capsys.readouterr().out
            assert code == 1, f"fault {name} did not fail the suite"
            assert "FAIL" in out, f"fault {name} produced no failing check"
            assert "first violated identity:" in out, name
        # and the suite is green again once every fault is uninstalled
        assert cli.main(["verify-paper", "--chi-max", "12", "--k-max", "4"]) == 0
        capsys.readouterr()
