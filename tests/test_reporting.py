"""Report serialisation: JSON round trips, big integers, strict decoding,
text rendering."""

import contextlib
import functools
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import catalog, cli, covers, lattice, verify
from horikawa.lattice import BlowUp, DivisorClass, Hirzebruch, ProjectivePlane
from horikawa.reporting import (ClassificationPayload, ConstructionPayload,
                                CheckResult, EnumerationPayload, EnumerationRow,
                                Report, VerificationOutcome, _compile,
                                _shape, render_text)
from horikawa.stable import StableSurfaceRecord

GOLDEN = Path(__file__).parent / "golden"


def _construction_report(variant="component-I", chi=9):
    recipe = catalog.build_component_one(chi)
    return Report(
        command="construct",
        inputs={"variant": variant, "chi": chi, "format": "json"},
        payload=ConstructionPayload(variant=variant, recipe=recipe),
        derivations={"recipe.report.k_squared": "triple cover formula"},
        assumptions=("blown-up points in general position",),
    )


class TestRoundTrip:
    def test_construction(self):
        report = _construction_report()
        assert Report.from_json(report.to_json()) == report

    def test_stable_construction_with_record(self):
        record, recipe = catalog.build_stable(6)
        report = Report(
            command="construct",
            inputs={"variant": "stable", "chi": 6, "format": "json"},
            payload=ConstructionPayload(variant="stable", recipe=recipe, record=record),
        )
        assert Report.from_json(report.to_json()) == report

    def test_component_two_with_scroll_curve(self):
        recipe = catalog.build_component_two(4)
        report = Report(
            command="construct",
            inputs={"variant": "component-II", "k": 4, "format": "json"},
            payload=ConstructionPayload(variant="component-II", recipe=recipe),
        )
        assert Report.from_json(report.to_json()) == report

    def test_classification(self):
        info = catalog.classify(16, 11)
        report = Report(
            command="classify",
            inputs={"k2": 16, "chi": 11, "format": "json"},
            payload=ClassificationPayload(16, 11, True, True, info, "two classes"),
        )
        assert Report.from_json(report.to_json()) == report

    def test_enumeration(self):
        rows = (
            EnumerationRow(3, None, None, ("stable",), 1, 3),
            EnumerationRow(7, 8, 2, ("component-I", "component-II (k = 1)", "stable"),
                           9, 3, notes=("extra",)),
        )
        report = Report(
            command="enumerate",
            inputs={"chi": 3, "chi_max": 7, "format": "json"},
            payload=EnumerationPayload(rows=rows),
        )
        assert Report.from_json(report.to_json()) == report

    def test_verification(self):
        outcome = verify.run_verification(chi_max=6, k_max=2)
        report = Report(
            command="verify-paper",
            inputs={"chi_max": 6, "k_max": 2, "format": "json"},
            payload=outcome,
        )
        assert Report.from_json(report.to_json()) == report


class TestBigIntegers:
    def test_oversized_coefficients_serialise_as_strings(self):
        huge = 2**80
        report = Report(
            command="classify",
            inputs={"k2": 1, "chi": 1, "format": "json"},
            payload=ClassificationPayload(huge, 1, False, False, None, "test"),
        )
        data = json.loads(report.to_json())
        assert data["payload"]["k_squared"] == str(huge)
        assert Report.from_json(report.to_json()) == report

    def test_divisor_class_with_huge_coefficient(self):
        ruled = Hirzebruch(2)
        cls = ruled.divisor((2**70, -(2**90)))
        write, read = _compile(_shape(DivisorClass))
        encoded = json.loads(write(cls, "\n"))
        assert isinstance(encoded["head"][0], str)
        assert isinstance(encoded["head"][1], str)
        assert read(encoded) == cls

    def test_small_integers_stay_numeric(self):
        write, read = _compile(_shape(int))
        assert write(42, "\n") == "42"
        assert write(-(2**62), "\n") == str(-(2**62))
        assert write(2**63, "\n") == f'"{2**63}"'
        assert write(2**63 - 1, "\n") == str(2**63 - 1)
        assert write(-(2**63), "\n") == str(-(2**63))
        assert write(-(2**63) - 1, "\n") == f'"{-(2**63) - 1}"'
        assert read(str(2**63)) == 2**63

    def test_fractional_record_round_trips(self):
        from horikawa.stable import contract_minus3

        record = contract_minus3(5, 0, 1)
        assert record.k_squared == Fraction(1, 3)
        write, read = _compile(_shape(StableSurfaceRecord))
        encoded = json.loads(write(record, "\n"))
        assert encoded["k_squared"] == "1/3"
        assert read(encoded) == record

    @pytest.mark.parametrize("chi", [4, 10**4])
    def test_construct_stable_round_trips(self, chi):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["construct", "stable", "--chi", str(chi), "--format", "json"]) == 0
        text = stdout.getvalue()
        record = json.loads(text)["payload"]["record"]
        assert record["k_squared"] == str(2 * chi - 5)
        decoded = Report.from_json(text)
        assert decoded.payload.record.k_squared_thirds == 3 * (2 * chi - 5)
        assert decoded.to_json() == text


def _verification_report():
    outcome = verify.run_verification(chi_max=6, k_max=2)
    return Report(command="verify-paper", inputs={"chi_max": 6, "k_max": 2},
                  payload=outcome)


def _stable_payload(chi):
    construction = catalog.build_stable(chi)
    return ConstructionPayload("stable", construction.recipe, construction.record)


def _stable_report():
    return Report(command="construct", inputs={"variant": "stable", "chi": 6},
                  payload=_stable_payload(6))


_REPORTS = {"verification": _verification_report, "stable": _stable_report,
            "component-I": _construction_report}
_DELETE = object()


class TestStrictDecoding:
    @pytest.mark.parametrize("report,path,value,match", [
        # booleans accept JSON booleans only
        ("verification", ("payload", "passed"), "false", "passed: expected bool"),
        ("verification", ("payload", "checks", 0, "passed"), 0, "expected bool"),
        ("stable", ("payload", "record", "smoothable"), "false", "expected bool"),
        ("component-I", ("payload", "recipe", "branch", 0, "surface", "general_position"),
         1, "expected bool"),
        # strings accept JSON strings only
        ("verification", ("payload", "checks", 0, "name"), 123, "expected str"),
        ("component-I", ("payload", "variant"), 123, "expected str"),
        ("component-I", ("command",), None, "expected str"),
        ("stable", ("payload", "recipe", "notes"), [1], "expected str"),
        # integers: an int or a decimal string, never a boolean or a float
        ("verification", ("payload", "chi_max"), True, "expected an integer"),
        ("component-I", ("payload", "recipe", "blow_up_count"), 12.0, "expected an integer"),
        ("component-I", ("payload", "recipe", "branch", 0, "head", 0), "x",
         "invalid literal"),
        ("stable", ("payload", "record", "k_squared"), 1, "expected str"),
        ("stable", ("payload", "record", "k_squared"), "1/0", "k_squared"),
        # a missing key names the field
        ("verification", ("payload", "checks", 0, "detail"), _DELETE,
         "missing key 'detail' of CheckResult"),
        ("component-I", ("payload", "recipe", "report", "chi"), _DELETE,
         "missing key 'chi' of InvariantReport"),
        ("stable", ("payload", "recipe", "ledger"), _DELETE, "missing key 'ledger'"),
        ("stable", ("notes",), _DELETE, "missing key 'notes' of Report"),
        # tags, containers and fixed-length tuples
        ("component-I", ("payload", "recipe", "base", "kind"), "torus", "unknown kind"),
        ("stable", ("payload", "recipe", "certificates", 0, "certificate"), ["x"],
         "unknown certificate"),
        ("component-I", ("payload", "recipe", "parameters"), [1, 9], "expected 3 entries"),
        ("component-I", ("payload", "recipe", "branch"), {}, "expected list"),
        ("verification", ("payload",), [], "expected dict"),
        ("verification", ("payload_kind",), "mystery", "unknown payload kind"),
        # the smooth K^2 is an integer, as a number or a decimal string
        ("component-I", ("payload", "recipe", "report", "k_squared"), "12/1",
         "report: k_squared: invalid literal"),
        ("component-I", ("payload", "recipe", "report", "k_squared"), 12.0,
         "expected an integer"),
        # the stable K^2 takes only the digit forms it is written in, where
        # Fraction would also read 10**7, 7, 7 and 70
        ("stable", ("payload", "record", "k_squared"), "1e7", "expected a rational n or n/d"),
        ("stable", ("payload", "record", "k_squared"), "7.0", "expected a rational n or n/d"),
        ("stable", ("payload", "record", "k_squared"), " 7", "expected a rational n or n/d"),
        ("stable", ("payload", "record", "k_squared"), "7_0", "expected a rational n or n/d"),
        # the verdict must agree with the checks
        ("verification", ("payload", "passed"), False,
         "passed is False but the checks give True"),
        # a decimal string is digits with an optional minus, where int() would
        # also read 6, 6, 60 and the Arabic-Indic 6
        ("verification", ("payload", "chi_max"), " 6", "invalid literal"),
        ("verification", ("payload", "chi_max"), "+6", "invalid literal"),
        ("verification", ("payload", "chi_max"), "6_0", "invalid literal"),
        ("verification", ("payload", "chi_max"), "\u0666", "invalid literal"),
        ("verification", ("inputs",), ["chi_max"],
         "^inputs: expected an object, got \\['chi_max'\\]$"),
    ])
    def test_rejects_malformed_field(self, report, path, value, match):
        data = json.loads(_REPORTS[report]().to_json())
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            Report.from_jsonable(data)

    def test_record_k_squared_off_thirds_rejected(self):
        # K^2 is kept in thirds, so a half is refused when the record is built
        data = json.loads(_stable_report().to_json())
        data["payload"]["record"]["k_squared"] = "7/2"
        with pytest.raises(ValueError,
                           match="record: k_squared 7/2 is not a whole number of thirds"):
            Report.from_jsonable(data)

    def test_decimal_string_integers_still_accepted(self):
        report = _verification_report()
        data = json.loads(report.to_json())
        data["payload"]["chi_max"] = "6"
        assert Report.from_jsonable(data) == report

    def test_encode_only_keys_are_ignored(self):
        data = json.loads(_construction_report().to_json())
        data["payload"]["recipe"]["base_display"] = "anything"
        data["payload"]["recipe"]["branch"][0]["display"] = "anything"
        assert Report.from_jsonable(data) == _construction_report()


def _first_branch_runs(data):
    return data["payload"]["recipe"]["branch"][0]["runs"]


def _split_first_run(data):
    (value, length), *rest = _first_branch_runs(data)
    data["payload"]["recipe"]["branch"][0]["runs"] = [[value, 1], [value, length - 1], *rest]


def _set_in_first_run(index, value):
    def edit(data):
        _first_branch_runs(data)[0][index] = value
    return edit


def _append_run(run):
    return lambda data: _first_branch_runs(data).append(run)


def _set_first_branch(key, value):
    def edit(data):
        data["payload"]["recipe"]["branch"][0][key] = value
    return edit


class TestVerificationOutcome:
    def test_passed_is_derived_from_the_checks(self):
        # verify serves the records as reporting defines them
        assert verify.CheckResult is CheckResult
        assert verify.VerificationOutcome is VerificationOutcome
        checks = tuple(CheckResult(name, "", True) for name in verify.check_names())
        assert VerificationOutcome(6, 2, None, checks).passed is True
        failing = checks[:1] + (checks[1]._replace(passed=False),) + checks[2:]
        outcome = VerificationOutcome(6, 2, None, failing)
        assert outcome.passed is False and outcome.first_failure == failing[1]
        with pytest.raises(ValueError, match="passed is True but the checks give False"):
            VerificationOutcome(6, 2, None, failing, True)


class TestStrictClassDecoding:
    """A class travels as its stored fields, and the checked constructor reads them."""

    @pytest.mark.parametrize("edit,match", [
        (_split_first_run, "recipe: branch: adjacent runs share the value -1"),
        (_append_run([5, 0]), "recipe: branch: run lengths must be positive, got 0"),
        (_set_in_first_run(1, -1), "recipe: branch: run lengths must be positive, got -1"),
        (_set_in_first_run(0, True), "recipe: branch: runs: expected an integer, got True"),
        (_set_in_first_run(1, 10.0), "recipe: branch: runs: expected an integer, got 10.0"),
        (_append_run([5, 1, 1]), "recipe: branch: runs: expected 2 entries, got 3"),
        (_append_run(5), "recipe: branch: runs: expected list, got 5"),
        (_set_in_first_run(1, 11), "recipe: branch: runs cover 11 exceptional classes, "
                                    "expected 10"),
        (_set_first_branch("runs", []), "recipe: branch: runs cover 0 exceptional classes"),
        (_set_first_branch("head", [2]), "recipe: branch: expected 2 root coefficients, got 1"),
        (_set_first_branch("head", [2, 4, -1]),
         "recipe: branch: expected 2 root coefficients, got 3"),
        (_set_first_branch("head", [2, False]), "recipe: branch: head: expected an integer"),
    ], ids=["adjacent-equal", "zero-length", "negative-length", "bool-value", "float-length",
            "triple", "not-a-list", "long-sum", "empty-runs", "short-head", "long-head",
            "bool-head"])
    def test_rejects_malformed_class(self, edit, match):
        data = json.loads(_construction_report(chi=4).to_json())
        assert _first_branch_runs(data) == [[-1, 10]]
        edit(data)
        with pytest.raises(ValueError, match=match):
            Report.from_jsonable(data)

    def test_constructor_checks_without_the_codec(self):
        f1 = Hirzebruch(1)
        blown = lattice.blow_up(lattice.blow_up(f1, 2), 3)
        dense = blown.divisor((1, 2, 0, 0, -1, -1, -1))
        assert DivisorClass(blown, [1, 2], [[0, 2], [-1, 3]]) == dense
        for head, runs in [((1, 2), ((0, 2), (0, 3))), ((1, 2), ((0, 4),)), ((1,), ((0, 5),)),
                           ((1, True), ((0, 5),)), ((1, 2), ((0, 5.0),)), ((1, 2), ((0,),))]:
            with pytest.raises(ValueError):
                DivisorClass(blown, head, runs)


@pytest.mark.parametrize("top,match", [
    (5, "components: canonical_images: the first component's largest e must be a nonnegative "
        "even integer, got 5"),
    (-2, "got -2"), (True, "I: expected an integer"), ([0, 2], "I: expected an integer")])
def test_component_one_image_bound_is_checked(top, match):
    data = json.loads((GOLDEN / "classify-on-line-two-classes.json").read_text(encoding="utf-8"))
    assert data["payload"]["components"]["canonical_images"]["I"] == 4
    data["payload"]["components"]["canonical_images"]["I"] = top
    with pytest.raises(ValueError, match=match):
        Report.from_jsonable(data)


@st.composite
def _towers_and_dense(draw):
    surface = draw(st.sampled_from([ProjectivePlane(), Hirzebruch(0), Hirzebruch(3)]))
    for _ in range(draw(st.integers(0, 3))):
        surface = BlowUp(surface, draw(st.integers(1, 40)), draw(st.booleans()))
    rank, split = lattice.picard_rank(surface), lattice.picard_rank(lattice._levels(surface)[0])
    values = st.integers(-2, 2) | st.sampled_from([2**63, -(2**70)])
    dense = list(draw(st.lists(st.integers(-5, 5) | values, min_size=split, max_size=split)))
    while len(dense) < rank:
        dense += [draw(values)] * draw(st.integers(1, 30))
    return surface, tuple(dense[:rank])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_towers_and_dense())
def test_class_round_trip_property(tower_and_dense):
    surface, dense = tower_and_dense
    cls = surface.divisor(dense)
    write, read = _compile(_shape(DivisorClass))
    decoded = read(json.loads(write(cls, "\n")))
    assert decoded == cls and hash(decoded) == hash(cls)
    assert decoded.coeffs == cls.coeffs == dense


class TestSchemaOne:
    """Schema /1 is no longer read: it is refused like any unknown schema."""

    @pytest.mark.parametrize("schema", ["horikawa-report/4", "horikawa-report/0", None, 1,
                                        "horikawa-report/1"])
    def test_unknown_schema_rejected(self, schema):
        data = json.loads((GOLDEN / "verify-paper-6-2.json").read_text(encoding="utf-8"))
        data["schema"] = schema
        with pytest.raises(ValueError, match="unsupported report schema"):
            Report.from_jsonable(data)


V2_FIXTURES = ["construct-stable-chi6.json", "construct-component-II-k2.json",
               "verify-paper-6-2.json"]


class TestSchemaTwo:
    """Reports of schema /2 decode as they are: only the smooth K^2 was a decimal string."""

    @pytest.mark.parametrize("name", V2_FIXTURES)
    def test_fixture_decodes_to_the_regenerated_report(self, name):
        old = (GOLDEN / "v2" / name).read_text(encoding="utf-8")
        new = (GOLDEN / name).read_text(encoding="utf-8")
        assert json.loads(old)["schema"] == "horikawa-report/2"
        assert json.loads(new)["schema"] == "horikawa-report/3"
        assert Report.from_json(old) == Report.from_json(new)
        assert Report.from_json(old).to_json() == new


def _json_report(*argv) -> bytes:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*argv, "--format", "json"]) == 0
    return stdout.getvalue().encode("utf-8")


class TestReportSize:
    """Reports carry runs and an image bound, so their size does not grow with chi or K^2."""

    @pytest.mark.parametrize("argv", [
        ("construct", "component-I", "--chi", "100000"),
        ("construct", "stable", "--chi", "100000"),
        ("classify", "--k2", "99992", "--chi", "49999"),
    ])
    def test_largest_reports_stay_small(self, argv):
        assert len(_json_report(*argv)) < 8 * 1024

    @pytest.mark.parametrize("variant", ["component-I", "stable"])
    def test_construct_size_is_flat_in_chi(self, variant):
        small = _json_report("construct", variant, "--chi", "60")
        large = _json_report("construct", variant, "--chi", "100000")
        assert abs(len(large) - len(small)) <= 200


_optional_int = st.none() | st.integers()
_strings = st.lists(st.text(max_size=8), max_size=3).map(tuple)
_PAYLOADS = st.one_of(
    st.integers(4, 40).map(
        lambda chi: ConstructionPayload("component-I", catalog.build_component_one(chi))),
    st.integers(1, 8).map(
        lambda k: ConstructionPayload("component-II", catalog.build_component_two(k))),
    st.integers(3, 40).map(_stable_payload),
    st.builds(ClassificationPayload, st.integers(), st.integers(), st.booleans(),
              st.booleans(), st.none() | st.integers(4, 60).map(
                  lambda chi: catalog.classify(2 * chi - 6, chi)), st.text()),
    st.lists(st.builds(EnumerationRow, st.integers(), _optional_int, _optional_int,
                       _strings, _optional_int, _optional_int, _strings),
             max_size=4).map(lambda rows: EnumerationPayload(tuple(rows))),
)


_ESCAPED = st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001d11e"])


def _stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(payload=_PAYLOADS,
       inputs=st.dictionaries(st.text(max_size=8),
                              st.integers() | st.integers(-2**100, 2**100) | st.text(max_size=8)
                              | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)),
       derivations=st.dictionaries(st.text(max_size=8), st.text(max_size=8)),
       assumptions=_strings, notes=st.lists(st.text() | _ESCAPED, max_size=3).map(tuple))
def test_report_round_trip_property(payload, inputs, derivations, assumptions, notes):
    report = Report(command="construct", inputs=inputs, payload=payload,
                    derivations=derivations, assumptions=assumptions, notes=notes)
    text = report.to_json()
    assert text == _stdlib_json(json.loads(text)) + "\n"
    assert Report.from_json(text) == report
    assert Report.from_json(text).to_json() == text


def _huge_head_report():
    report = _construction_report()
    recipe = report.payload.recipe
    huge = covers.CanonicalMultiple(3, Hirzebruch(2).divisor((2**70, -(2**90))))
    invariants = recipe.report._replace(canonical_multiple=huge)
    return report._replace(payload=report.payload._replace(
        recipe=recipe._replace(report=invariants)))


def _virtual_p_g_report():
    blown = lattice.blow_up(ProjectivePlane(), 1)
    branch = lattice.pullback(blown, blown.base.divisor((10,))) - 4 * blown.exceptional_sum()
    virtual = covers.cover_invariants(covers.CoverSpec.double(blown, branch))
    report = _construction_report()
    return report._replace(payload=report.payload._replace(
        recipe=report.payload.recipe._replace(report=virtual)))


def _classification_report(chi):
    info = catalog.classify(2 * chi - 6, chi)
    return Report(command="classify", inputs={"k2": 2 * chi - 6, "chi": chi},
                  payload=ClassificationPayload(2 * chi - 6, chi, True, True, info, "x"))


def _component_two_report(k):
    return Report(command="construct", inputs={"variant": "component-II", "k": k},
                  payload=ConstructionPayload("component-II", catalog.build_component_two(k)))


def _thirds_report():
    from horikawa.stable import contract_minus3

    report = _stable_report()
    return report._replace(payload=report.payload._replace(record=contract_minus3(5, 0, 1)))


class TestWriter:
    """``to_json`` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

    # the reports the CLI printed are named command first, with hyphens, unlike
    # the tables of cases beside them; commands that print nothing leave them empty
    @pytest.mark.parametrize("path", sorted(p for p in GOLDEN.rglob("*-*.json")
                                            if p.stat().st_size),
                             ids=lambda path: str(path.relative_to(GOLDEN)))
    def test_every_golden_document(self, path):
        text = Report.from_json(path.read_text(encoding="utf-8")).to_json()
        assert text == _stdlib_json(json.loads(text)) + "\n"

    @pytest.mark.parametrize("variant,chi", [("component-I", 20000), ("stable", 15700)])
    def test_large_constructs(self, variant, chi):
        report = Report.from_json(_json_report("construct", variant, "--chi", str(chi)).decode())
        assert report.to_json() == _stdlib_json(report.to_jsonable()) + "\n"

    @pytest.mark.parametrize("payload,fragments,refusal", [
        (ClassificationPayload(True, 1, 0, False, None, None),
         ['"k_squared": true', '"admissible": 0', '"explanation": null'],
         "expected an integer, got True"),
        (ClassificationPayload(7.0, 1, True, True, None, "x"), ['"k_squared": 7.0'],
         "expected an integer, got 7.0"),
        (ClassificationPayload(None, 1, True, True, None, "x"), ['"k_squared": null'],
         "expected an integer, got None"),
        # a decimal string is how an integer beyond 64 bits travels, so it reads back
        (ClassificationPayload("7", 1, True, True, None, "x"), ['"k_squared": "7"'], None),
        (ClassificationPayload(7, 1, True, True, None, ["a", {"b": 1}]),
         ['"explanation": [\n      "a",\n      {\n        "b": 1\n      }\n    ]'],
         "explanation: expected str"),
    ], ids=["bool", "float", "none", "str", "list"])
    def test_values_off_their_annotation_are_written_as_they_are(self, payload, fragments,
                                                                refusal):
        # payloads check no types, so a library caller can pass these; the
        # writer keeps them as they are, and the decoder refuses them
        def expire(_signum, _frame):
            raise TimeoutError("to_json did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            out = Report(command="classify", inputs={}, payload=payload).to_json()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert out == _stdlib_json(json.loads(out)) + "\n"
        for fragment in fragments:
            assert fragment in out
        if refusal is None:
            assert Report.from_json(out).payload == payload._replace(k_squared=7)
        else:
            with pytest.raises(ValueError, match=refusal):
                Report.from_json(out)

    @pytest.mark.parametrize("build,fragments", [
        (_huge_head_report, [f'"{2**70}"', f'"{-(2**90)}"']),
        (_virtual_p_g_report, ['"p_g": "unavailable(virtual)"']),
        (lambda: _classification_report(6), ['"canonical_images": {}']),
        (lambda: _component_two_report(4), ['"monomials": [', '"kind": "ruled"']),
        (lambda: _component_two_report(1), ['"kind": "plane"']),
        (_thirds_report, ['"k_squared": "1/3"', '"certificate": "ampleness"']),
        (_construction_report, ['"kind": "blow-up"', '"certificate": "nefness"',
                                '"display": "', '"base_display": "blow-up of F_1']),
        (_stable_report, ['"in_component_without_canonical_models": true']),
    ], ids=["huge-head", "virtual-p_g", "images-none", "frozenset", "plane", "thirds",
            "tags-and-displays", "stable-encode-only"])
    def test_each_shape(self, build, fragments):
        report = build()
        out = report.to_json()
        assert out == _stdlib_json(json.loads(out)) + "\n"
        assert Report.from_json(out) == report
        for fragment in fragments:
            assert fragment in out
        recipe = getattr(report.payload, "recipe", None)
        if recipe is not None and recipe.scroll_curve is not None:
            written = json.loads(out)["payload"]["recipe"]["scroll_curve"]["monomials"]
            assert written == sorted(map(list, recipe.scroll_curve.monomials))


# ---------------------------------------------------------------------------
# a field of any record class that a payload reaches, off its annotation

@functools.cache
def _record_sites() -> tuple:
    """(report, path) of one instance of each record class a payload reaches,
    by class name; a path indexes the payload's fields and entries."""
    reports = [cli.run_classify(8, 7)[0], cli.run_classify(6, 4)[0], _stable_report(),
               _construction_report(), _component_two_report(1), _component_two_report(4),
               cli.run_enumerate(3, 12)[0], _verification_report()]
    sites = {}

    def visit(report, value, path):
        if hasattr(type(value), "_fields"):
            sites.setdefault(type(value).__name__, (report, path))
        elif not isinstance(value, tuple):
            return
        for index, entry in enumerate(_entries(value)):
            visit(report, entry, path + (index,))

    for report in reports:
        visit(report, report.payload, ())
    return tuple(sorted(sites.items()))


def _entries(value) -> list:
    fields = getattr(type(value), "_fields", None)
    return list(value) if fields is None else [getattr(value, name) for name in fields]


def _with_entry(value, path, entry):
    """``value`` with the entry at ``path`` replaced, built past the records' checks."""
    if not path:
        return entry
    entries = _entries(value)
    entries[path[0]] = _with_entry(entries[path[0]], path[1:], entry)
    if type(value) is DivisorClass:
        return DivisorClass._make(*entries)
    return tuple.__new__(type(value), entries)


def test_every_record_class_a_payload_reaches_is_sampled():
    names = {name for name, _site in _record_sites()}
    assert names == set(json.loads((GOLDEN / "codec_plans.json").read_text(encoding="utf-8")))


_OFF_VALUES = (st.booleans() | st.floats() | st.none() | st.text(max_size=4)
               | st.lists(st.integers() | st.text(max_size=3), max_size=3)
               | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# the fields that encode-only values are computed from: the records' own code
# reads them and raises on a value off their annotation before any is written
_FEED_ENCODE_ONLY = {("DivisorClass", "surface"), ("DivisorClass", "head"),
                     ("DivisorClass", "runs"),
                     ("BlowUp", "base"), ("StableSurfaceRecord", "k_squared_thirds"),
                     ("StableSurfaceRecord", "chi"), ("StableSurfaceRecord", "ledger")}


def _field_sites() -> list:
    """(report, path) of each field of a sampled record, but those of _FEED_ENCODE_ONLY."""
    sites = []
    for name, (report, path) in _record_sites():
        record = functools.reduce(lambda node, index: _entries(node)[index], path, report.payload)
        sites += [(report, path + (index,)) for index, field in enumerate(type(record)._fields)
                  if (name, field) not in _FEED_ENCODE_ONLY]
    return sites


@settings(max_examples=300, deadline=None, derandomize=True)
@given(site=st.sampled_from(_field_sites()), value=_OFF_VALUES)
def test_any_field_off_its_annotation_is_written_as_it_is(site, value):
    # the payload records check no types, and the others can be built past
    # their checks; the writer writes such a value as json.dumps does, and
    # the decoder reads it back or refuses it with ValueError
    report, path = site
    out = report._replace(payload=_with_entry(report.payload, path, value)).to_json()
    assert out == _stdlib_json(json.loads(out)) + "\n"
    try:
        Report.from_json(out)
    except ValueError:
        pass



def test_a_fixed_tuple_of_another_length_is_written_whole_and_refused():
    # a fixed tuple is written entry by entry only at its length; any other
    # tuple is written as it is, so no entry is lost, and the decoder refuses it
    report = _stable_report()
    parameters = (*report.payload.recipe.parameters, 9)
    field = type(report.payload.recipe)._fields.index("parameters")
    out = report._replace(payload=_with_entry(report.payload, (1, field), parameters)).to_json()
    assert out == _stdlib_json(json.loads(out)) + "\n"
    assert json.loads(out)["payload"]["recipe"]["parameters"] == list(parameters)
    with pytest.raises(ValueError, match="recipe: parameters: expected 3 entries, got 4"):
        Report.from_json(out)

def test_a_base_that_is_no_surface_is_written_and_refused():
    # base_display describes only a surface; for any other base it is null,
    # where it raised TypeError from the surface descriptor
    report = _stable_report()
    field = type(report.payload.recipe)._fields.index("base")
    out = report._replace(payload=_with_entry(report.payload, (1, field), 5)).to_json()
    assert out == _stdlib_json(json.loads(out)) + "\n"
    recipe = json.loads(out)["payload"]["recipe"]
    assert recipe["base"] == 5 and recipe["base_display"] is None
    with pytest.raises(ValueError, match="^recipe: base: expected dict, got 5$"):
        Report.from_json(out)


class TestDeepNesting:
    def test_json_too_deep_to_parse_is_refused(self):
        with pytest.raises(ValueError, match="nested too deeply to read"):
            Report.from_json("[" * 100000)

    def test_report_too_deep_to_read_is_refused(self):
        # a tower of blow-ups that parses, but is deeper than the reader can
        # recurse; run apart, as a recursion this deep turns off any trace
        # function, such as a line coverage tool's
        data = json.loads(_json_report("construct", "component-I", "--chi", "9"))
        surface, data["payload"]["recipe"]["base"] = data["payload"]["recipe"]["base"], "tower"
        depth = sys.getrecursionlimit() * 3 // 4
        tower = ('{"kind": "blow-up", "base": ' * depth + json.dumps(surface)
                 + ', "points": 1, "general_position": true}' * depth)
        probe = ("import json, sys\nfrom horikawa.reporting import Report\n"
                 "text = sys.stdin.read()\njson.loads(text)\n"
                 "try:\n    Report.from_json(text)\n"
                 "except ValueError as error:\n    print(error)")
        source = str(Path(lattice.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", probe], text=True,
                              input=json.dumps(data).replace('"tower"', tower),
                              env={**os.environ, "PYTHONPATH": source},
                              capture_output=True, timeout=120, check=True)
        assert done.stdout == "the JSON is nested too deeply to read\n"


class TestTextRendering:
    def test_construction_text_mentions_invariants(self):
        text = render_text(_construction_report())
        assert "K^2 = 12" in text
        assert "chi = 9" in text
        assert "nef-certified" in text

    def test_verification_text_lists_checks(self):
        outcome = verify.run_verification(chi_max=6, k_max=2)
        report = Report(
            command="verify-paper",
            inputs={"chi_max": 6, "k_max": 2, "format": "text"},
            payload=outcome,
        )
        text = render_text(report)
        for name in verify.check_names():
            assert f"check {name}:" in text
        assert "summary:" in text

    def test_invariant_warning_is_rendered_and_round_trips(self):
        report = _construction_report()
        recipe = report.payload.recipe
        warned = recipe.report._replace(warnings=(covers.WARN_EMPTY_BRANCH,))
        report = report._replace(payload=report.payload._replace(
            recipe=recipe._replace(report=warned)))
        assert f"\n  warning: {covers.WARN_EMPTY_BRANCH}\n" in render_text(report)
        text = report.to_json()
        assert f'"warnings": [\n          "{covers.WARN_EMPTY_BRANCH}"\n        ]' in text
        assert Report.from_json(text) == report
        assert Report.from_json(text).to_json() == text

    def test_virtual_p_g_is_rendered_unavailable_and_round_trips(self):
        report = _virtual_p_g_report()
        assert "\n  p_g = unavailable(virtual)\n" in render_text(report)
        text = report.to_json()
        assert '"p_g": "unavailable(virtual)"' in text
        assert Report.from_json(text) == report

    def test_unknown_payload_kind_rejected(self):
        report = Report(command="x", inputs={}, payload=None)
        for use in (Report.to_jsonable, render_text):
            with pytest.raises(ValueError, match="unknown payload kind .* type 'NoneType'"):
                use(report)


def test_payload_kind_follows_the_payload_type():
    assert _verification_report().payload_kind == "verification"
