"""Cold start and records: what each command loads, and the records'
immutability, copies and wire plan.

``verify`` and ``faults`` serve only ``verify-paper``, and ``faults`` only
with an injected fault, so importing the command line front end and
running the other commands must load neither, nor ``dataclasses`` or
``inspect``; decoding a verification report loads neither.  ``fractions``
loads only where a stable record's K^2 is made, so ``classify`` and
``enumerate`` do not load it, and they build no codec: the writers and
readers are generated when a JSON report is first written.  Every record
is a ``typing.NamedTuple``, except the divisor class, a slotted class that
equals no tuple; the codec plan of every record class a payload reaches
is pinned in ``tests/golden/codec_plans.json``.
"""

import functools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import horikawa
from horikawa import catalog, cli, covers, lattice, reporting, verify
from horikawa.lattice import Hirzebruch, ProjectivePlane

GOLDEN = Path(__file__).parent / "golden"
# a fresh interpreter that imports this package's source
_ENV = {**os.environ, "PYTHONPATH": str(Path(horikawa.__file__).resolve().parent.parent)}

_COMMANDS = [
    ["classify", "--k2", "8", "--chi", "7"],
    ["enumerate", "--chi", "3", "--chi-max", "12"],
    ["construct", "stable", "--chi", "7", "--format", "json"],
    ["verify-paper", "--chi-max", "6", "--k-max", "2"],
    ["verify-paper", "--inject-fault", "germ-index-shift", "--chi-max", "6", "--k-max", "2"],
]
_PROBE = """
import contextlib, io, json, sys
import horikawa.cli
watched = ("dataclasses", "fractions", "horikawa.faults", "horikawa.verify", "inspect")
loaded = lambda: [m for m in watched if m in sys.modules]
seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = horikawa.cli.main(argv)
    seen[" ".join(argv[:2] if argv[0] == "verify-paper" else argv[:1])] = [code, loaded()]
print(json.dumps(seen))
"""


def test_only_verify_paper_loads_verify_and_faults():
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(_COMMANDS)],
                          env=_ENV, capture_output=True, text=True, timeout=120,
                          check=True)
    seen = json.loads(done.stdout)
    assert seen == {
        "import": [],
        "classify": [0, []],
        "enumerate": [0, []],
        # a stable record's K^2 is the first Fraction made
        "construct": [0, ["fractions"]],
        "verify-paper --chi-max": [0, ["fractions", "horikawa.verify"]],
        "verify-paper --inject-fault": [
            1, ["fractions", "horikawa.faults", "horikawa.verify", "inspect"]],
    }


_CODEC_PROBE = """
import contextlib, io, json, sys
import horikawa.cli
from horikawa import reporting
built = lambda: [codec.cache_info().currsize for codec in (reporting._record, reporting._envelope)]
seen = {"import": built()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        horikawa.cli.main(argv)
    seen[" ".join(argv)] = built()
print(json.dumps(seen))
"""


def test_only_a_json_report_builds_the_codec():
    text = [["classify", "--k2", "8", "--chi", "7"],
            ["enumerate", "--chi", "3", "--chi-max", "12"]]
    as_json = ["classify", "--k2", "8", "--chi", "7", "--format", "json"]
    done = subprocess.run([sys.executable, "-c", _CODEC_PROBE, json.dumps([*text, as_json])],
                          env=_ENV, capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    # record writers and readers, and the report's own codec
    assert [seen["import"], *(seen[" ".join(argv)] for argv in text)] == [[0, 0]] * 3
    records, envelope = seen[" ".join(as_json)]
    # the payload, and the component data and canonical images it holds
    assert (records, envelope) == (3, 1)


def test_verification_report_decodes_without_verify_or_faults():
    probe = ("import sys\n"
             "from horikawa.reporting import Report\n"
             "report = Report.from_json(open(sys.argv[1], encoding='utf-8').read())\n"
             "loaded = [m for m in ('horikawa.faults', 'horikawa.verify') if m in sys.modules]\n"
             "print(type(report.payload.checks[0]).__name__, loaded)")
    done = subprocess.run([sys.executable, "-c", probe, str(GOLDEN / "verify-paper-6-2.json")],
                          env=_ENV, capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.split() == ["CheckResult", "[]"]


def test_run_verification_is_served_by_the_package():
    from horikawa import run_verification

    assert run_verification is verify.run_verification
    assert "run_verification" in horikawa.__all__
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        horikawa.not_a_name  # noqa: B018


def test_help_states_the_verify_range_cap():
    # one cap, defined in reporting: the help states the value the run checks
    assert cli.RANGE_CAP is verify.RANGE_CAP is reporting.RANGE_CAP


def test_all_is_every_public_name_of_the_package():
    public = {name for name, value in vars(horikawa).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert horikawa.__all__ == sorted(public | {"run_verification"})
    namespace = {}
    exec("from horikawa import *", namespace)  # every name resolves
    assert sorted(set(namespace) - {"__builtins__"}) == horikawa.__all__


# ---------------------------------------------------------------------------
# plain records

@functools.cache
def _records():
    component_two = catalog.build_component_two(2)
    stable = catalog.build_stable(4)
    outcome = verify.run_verification(6, 2)
    row = cli._enumeration_row(7)
    return [
        lattice.h0(Hirzebruch(1).divisor((1, 2))),
        component_two.report.canonical_multiple,
        component_two.report,
        catalog.classify(8, 7),
        stable.recipe.certificates[0],
        catalog.build_component_one(4).certificates[0],
        component_two,
        outcome.checks[0],
        outcome,
        reporting.ClassificationPayload(8, 7, True, True, catalog.classify(8, 7), "two"),
        reporting.ConstructionPayload("stable", stable.recipe, stable.record),
        row,
        reporting.EnumerationPayload((row,)),
    ]


_CONVERTED = [
    lattice.SectionCount, covers.CanonicalMultiple, covers.InvariantReport,
    catalog.ComponentInfo, catalog.AmplenessCertificate, catalog.NefCertificate,
    catalog.ConstructionRecipe, verify.CheckResult, verify.VerificationOutcome,
    reporting.ClassificationPayload, reporting.ConstructionPayload, reporting.EnumerationRow,
    reporting.EnumerationPayload,
]


def test_every_plain_record_is_sampled():
    assert [type(record) for record in _records()] == _CONVERTED


@pytest.mark.parametrize("index", range(len(_CONVERTED)),
                         ids=[cls.__name__ for cls in _CONVERTED])
def test_plain_record_refuses_assignment(index):
    record = _records()[index]
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_known_costs_of_named_tuples():
    # a record equals the plain tuple of its values, and so does a surface
    assert lattice.SectionCount(3, True) == (3, True)
    assert Hirzebruch(2) == (2,) and lattice.blow_up(_P2, 3) == (_P2, 3, True)
    # the plane has no fields, so it is false
    assert bool(ProjectivePlane()) is False
    # the field named count shadows tuple.count
    assert catalog.classify(8, 7).count == 2


# ---------------------------------------------------------------------------
# every record: immutable, and ``_replace`` runs the constructor's checks

_P2 = ProjectivePlane()
_CODEC_RECORDS = sorted(json.loads((GOLDEN / "codec_plans.json").read_text(encoding="utf-8")))


def _collect(value, found: dict) -> dict:
    """The first instance of each record class reachable from ``value``, by class name."""
    if hasattr(type(value), "_fields"):
        found.setdefault(type(value).__name__, value)
        value = [getattr(value, name) for name in value._fields]
    if isinstance(value, (tuple, list, frozenset)):
        for item in value:
            _collect(item, found)
    return found


@functools.cache
def _every_record() -> dict:
    spec = covers.CoverSpec.double(_P2, _P2.divisor((4,)))
    return _collect([_records(), spec, cli.run_classify(8, 7)[0]], {})


@pytest.mark.parametrize("name", _CODEC_RECORDS + ["CoverSpec", "Report"])
def test_record_refuses_assignment(name):
    record = _every_record()[name]
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_replace_runs_the_checks():
    with pytest.raises(ValueError, match="must be integers"):
        catalog.AdmissiblePair(8, 7)._replace(chi=1.5)
    with pytest.raises(ValueError, match="not admissible"):
        catalog.AdmissiblePair(8, 7)._replace(k_squared=0)
    with pytest.raises(ValueError, match="unexpected field names"):
        catalog.AdmissiblePair(8, 7)._replace(not_a_field=1)


def test_replace_derives_the_root_again():
    spec = covers.CoverSpec.double(_P2, _P2.divisor((4,)))
    assert spec.root == _P2.divisor((2,))
    changed = spec._replace(branch=(_P2.divisor((6,)),))
    assert changed.root == _P2.divisor((3,)) and changed == covers.CoverSpec.double(
        _P2, _P2.divisor((6,)))
    with pytest.raises(covers.BuildingDataError, match="not divisible by 2"):
        spec._replace(branch=(_P2.divisor((5,)),))


# ---------------------------------------------------------------------------
# the codec's plan of every record class a payload reaches

def _render_shape(shape):
    if isinstance(shape, type):
        return shape.__name__
    if isinstance(shape, tuple):
        return [_render_shape(part) for part in shape]
    if isinstance(shape, dict):
        return [[_render_shape(tag), _render_shape(cls)] for tag, cls in shape.items()]
    return shape


def codec_plans() -> dict:
    """Class name -> [[field, key, shape], ...], tag and encode-only key, JSON ready."""
    plans, pending = {}, [reporting._PAYLOADS[kind] for kind in sorted(reporting._PAYLOADS)]
    while pending:
        shape = pending.pop()
        kind = shape[0]
        if kind in ("optional", "tuple", "frozenset"):
            pending.append(shape[1])
        elif kind == "fixed":
            pending.extend(shape[1])
        elif kind == "dict":
            pending.extend(shape[1:])
        elif kind == "object":
            for cls in shape[2].values():
                if cls.__name__ not in plans:
                    fields, tag, extra = reporting._plan(cls)
                    plans[cls.__name__] = {
                        "fields": [[name, key, _render_shape(sub)] for name, key, sub in fields],
                        "tag": None if tag is None else list(tag),
                        "encode_only": None if extra is None else extra[0],
                    }
                    pending.extend(sub for _name, _key, sub in fields)
    return dict(sorted(plans.items()))


def test_codec_plans_match_golden():
    golden = json.loads((GOLDEN / "codec_plans.json").read_text(encoding="utf-8"))
    assert codec_plans() == golden
