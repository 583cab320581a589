"""Machine readable reports for the command line front end.

A Report wraps one command's echoed inputs, a typed payload, the
derivation trail of its numeric fields and the assumptions in force.
Reports serialise to JSON and parse back to equal values; integers whose
magnitude exceeds 64 bits are carried as decimal strings so that no
consumer silently truncates them.

One codec, driven by the record fields and their annotations, covers
every payload; the "wire format" tables list where the JSON differs.
Each record class gets a writer and a reader, generated from its fields'
shapes on first use, as ``namedtuple`` generates its methods: the writer
reads each field once and writes it in place, in sorted key order, and
``to_jsonable`` is the parse of ``to_json``.
Decoding is strict: a missing key, a wrong JSON type or an unknown tag
raises ValueError.  Reports of schema /2 decode as they are, since /3
only writes the smooth K^2 as a number where /2 wrote a decimal string;
any other schema is refused.
"""

from __future__ import annotations

import functools
import json
import re
import types
import typing
from typing import NamedTuple

from . import lattice, stable
from .catalog import (AmplenessCertificate, CanonicalImages, ComponentInfo,
                      ConstructionRecipe, NefCertificate)
from .covers import CanonicalMultiple, InvariantReport
from .lattice import BlowUp, CheckedRecord, DivisorClass, Hirzebruch, ProjectivePlane
from .stable import StableSurfaceRecord

SCHEMA = "horikawa-report/3"
_SCHEMA_V2 = "horikawa-report/2"
P_G_UNAVAILABLE = "unavailable(virtual)"

_INT64 = range(-(2**63), 2**63)


# ---------------------------------------------------------------------------
# payloads

class ClassificationPayload(NamedTuple):
    k_squared: int
    chi: int
    admissible: bool
    on_line: bool
    info: ComponentInfo | None
    explanation: str


class ConstructionPayload(NamedTuple):
    variant: str
    recipe: ConstructionRecipe
    record: StableSurfaceRecord | None = None


class EnumerationRow(NamedTuple):
    chi: int
    general_type_k_squared: int | None
    component_count: int | None
    constructions: tuple[str, ...]
    stable_k_squared: int | None
    stable_third11_count: int | None
    notes: tuple[str, ...] = ()


class EnumerationPayload(NamedTuple):
    rows: tuple[EnumerationRow, ...]


class CheckResult(NamedTuple):
    name: str
    identity: str
    passed: bool
    detail: str = ""


# the largest chi_max and k_max a verification run accepts; the acceptance
# tests cover chi up to the same value
RANGE_CAP = 1000


class VerificationOutcome(CheckedRecord, NamedTuple("VerificationOutcome", [
        ("chi_max", int), ("k_max", int), ("fault", str | None),
        ("checks", tuple[CheckResult, ...]), ("passed", bool)])):
    """One run of the identity suite; ``passed`` is derived from the checks
    when left out, and refused when it disagrees with them."""

    def __new__(cls, chi_max: int, k_max: int, fault: str | None,
                checks: tuple[CheckResult, ...], passed: bool | None = None):
        derived = all(c.passed for c in checks)
        if passed is not None and passed != derived:
            raise ValueError(f"passed is {passed} but the checks give {derived}")
        return tuple.__new__(cls, (chi_max, k_max, fault, checks, derived))

    @property
    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)


# ---------------------------------------------------------------------------
# wire format: the only places where the JSON differs from the fields

_RENAMED = {
    (CanonicalMultiple, "cls"): "class",
    (ClassificationPayload, "info"): "components",
    (BlowUp, "point_count"): "points",
    (StableSurfaceRecord, "k_squared_thirds"): "k_squared",
    (ComponentInfo, "images"): "canonical_images",
    (CanonicalImages, "first_top_e"): "I",
    (CanonicalImages, "second"): "II",
}
# a field annotated with a union, or with a base class, holds one of these
_TAGS = {
    ProjectivePlane: ("kind", "plane"),
    Hirzebruch: ("kind", "ruled"),
    BlowUp: ("kind", "blow-up"),
    AmplenessCertificate: ("certificate", "ampleness"),
    NefCertificate: ("certificate", "nefness"),
}
# derived or written for human readers, and ignored when decoding: key, value, shape
_ENCODE_ONLY = {
    DivisorClass: ("display", str, ("str",)),
    ConstructionRecipe: ("base_display", lambda recipe: lattice.surface_descriptor(recipe.base)
                         if isinstance(recipe.base, lattice.SurfaceModel) else None, ("str",)),
    StableSurfaceRecord: ("in_component_without_canonical_models",
                          lambda record: record.in_component_without_canonical_models,
                          ("bool",)),
}
# written in place of None
_NONE_AS = {(InvariantReport, "p_g"): P_G_UNAVAILABLE, (ComponentInfo, "images"): {}}
# an integer number of thirds, such as 3*K^2, travels as the fraction it stands for
_IN_THIRDS = {(StableSurfaceRecord, "k_squared_thirds")}


# ---------------------------------------------------------------------------
# codec: each annotation becomes a shape, a tuple headed by its kind, such as
# ("int",), ("optional", inner, none_as), ("tuple", item), ("fixed", items),
# ("dict", key, value), ("json",) for any JSON value, or
# ("object", tag_key, {tag: cls}); a record class that needs no tag has key None.
# A shape compiles to a writer and a reader, generated from _SOURCES

_INT, _STR, _THIRDS, _JSON = ("int",), ("str",), ("thirds",), ("json",)
# the only forms of an integer and of a rational that the codec writes, and so
# reads; int() and Fraction() would also take " 6", "+6", "6_0" and "\u0666"
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_SCALARS = {int: _INT, bool: ("bool",), str: _STR}


def _shape(hint, none_as=None) -> tuple:
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    members = (hint,)
    if origin in (typing.Union, types.UnionType):
        members = tuple(a for a in args if a is not type(None))
        if len(members) < len(args):
            return ("optional", _shape(typing.Union[members]), none_as)
    elif origin is tuple:
        if args[-1] is Ellipsis:
            return ("tuple", _shape(args[0]))
        return ("fixed", tuple(_shape(a) for a in args))
    elif origin is frozenset:
        return ("frozenset", _shape(args[0]))
    elif hasattr(hint, "_fields") and hint not in _TAGS:
        return ("object", None, {None: hint})
    tagged = [cls for cls in _TAGS if issubclass(cls, members)]
    return ("object", _TAGS[tagged[0]][0], {_TAGS[cls][1]: cls for cls in tagged})


_KINDS = {ClassificationPayload: "classification", ConstructionPayload: "construction",
          EnumerationPayload: "enumeration", VerificationOutcome: "verification"}
_PAYLOADS = {kind: _shape(cls) for cls, kind in _KINDS.items()}


@functools.cache
def _plan(cls) -> tuple:
    """((field, key, shape), ...), tag and encode-only key of a record class."""
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (name, _RENAMED.get((cls, name), name),
         _THIRDS if (cls, name) in _IN_THIRDS
         else _shape(hints[name], _NONE_AS.get((cls, name))))
        for name in cls._fields)
    return fields, _TAGS.get(cls), _ENCODE_ONLY.get(cls)


_ESCAPE = json.encoder.encode_basestring_ascii


def _off(value, indent):
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it at ``indent``."""
    return _ESCAPE(value) if type(value) is str else int.__repr__(value) if type(
        value) is int else json.dumps(value, sort_keys=True, indent=2).replace("\n", indent)


def _write_thirds(value, indent):
    import fractions  # loaded only for the records that hold thirds
    return _ESCAPE(str(fractions.Fraction(value, 3))) if type(
        value) is int else _off(value, indent)


def _expect(want, data, count=None):
    if type(data) is not want:
        raise ValueError(f"expected {want.__name__}, got {data!r:.80}")
    if count is not None and len(data) != count:
        raise ValueError(f"expected {count} entries, got {len(data)}")
    return data


def _read_int(data):  # data that is no JSON integer
    if type(data) is str and _INTEGER.fullmatch(data):
        return int(data)
    raise ValueError(f"invalid literal for an integer: {data!r:.80}" if type(data) is str
                     else f"expected an integer, got {data!r:.80}")


def _read_thirds(data):
    # a value off the thirds stays a Fraction, for the constructor to refuse
    if not _RATIONAL.fullmatch(_expect(str, data)):
        raise ValueError(f"expected a rational n or n/d, got {data!r:.80}")
    import fractions
    thirds = 3 * fractions.Fraction(data)
    return thirds.numerator if thirds.denominator == 1 else thirds


def _read_object(tag_key, classes, data):
    tag = _expect(dict, data).get(tag_key)
    cls = classes.get(tag if type(tag) is str else None)
    if cls is None:
        raise ValueError(f"unknown {tag_key} {tag!r:.80}")
    return _record(cls)[1](data)


# the source of each kind's writer, an expression that writes the value {w} at
# the depth {i} (a value off its shape goes to _off or its kind's fallback), and
# of its reader, one that reads the data {r}.  {item} is the entries' source, an
# entry is {x} (a dict's value {y}) at the depth {j}, and {c} names an optional's
# none_as, which {none} writes, and an object's tag key and classes
_SOURCES = {
    "int": ("""((int.__repr__({w}) if {w} in _INT64 else '"' + str({w}) + '"')"""
            " if type({w}) is int else _off({w}, {i}))",
            "({r} if type({r}) is int else _read_int({r}))"),
    "str": ("(_ESCAPE({w}) if type({w}) is str else _off({w}, {i}))",
            "({r} if type({r}) is str else _expect(str, {r}))"),
    "bool": ('(("true" if {w} else "false") if type({w}) is bool else _off({w}, {i}))',
             "({r} if type({r}) is bool else _expect(bool, {r}))"),
    "json": ("_off({w}, {i})", "{r}"),
    "thirds": ("_write_thirds({w}, {i})", "_read_thirds({r})"),
    "object": ('(_record(type({w}))[0] if hasattr(type({w}), "_fields") else _off)({w}, {i})',
               "_read_object(*{c}, {r})"),
    "optional": ("({none} if {w} is None else {item})", "(None if {r} == {c} else {item})"),
    "tuple": ('(("[" + ({j} := {i} + "  ") + ("," + {j}).join([{item} for {x} in {w}])'
              ' + {i} + "]" if {w} else "[]") if isinstance({w}, tuple) else _off({w}, {i}))',
              "tuple([{item} for {x} in _expect(list, {r})])"),
    "frozenset": ('(("[" + ({j} := {i} + "  ") + ("," + {j}).join([{item} for {x} in sorted('
                  '{w})]) + {i} + "]" if {w} else "[]") if type({w}) is frozenset'
                  ' else _off({w}, {i}))', "frozenset([{item} for {x} in _expect(list, {r})])"),
    "fixed": ('("[" + ({j} := {i} + "  ") + {item} + {i} + "]"'
              ' if isinstance({w}, tuple) and len({w}) == {count} else _off({w}, {i}))',
              "(_expect(list, {r}, {count}) and ({item},))"),
    "dict": ('(("{{" + ({j} := {i} + "  ") + ("," + {j}).join([_ESCAPE({x}) + ": " + {item}'
             ' for {x} in sorted({w})]) + {i} + "}}" if {w} else "{{}}") if type({w}) is dict'
             ' else _off({w}, {i}))',
             "{{{x}: {item} for {x}, {y} in _expect(dict, {r}).items()}}"),
}


def _source(shape, w, r, i, scope):
    """The source of the writer of ``shape`` for the value ``w`` at the depth ``i``
    and of its reader for the data ``r``; the names they need go into ``scope``."""
    kind, n = shape[0], len(scope)
    names = dict(w=w, r=r, i=i, x=f"x{n}", y=f"y{n}", j=f"i{n}", c=f"c{n}", none="",
                 count=len(shape[1]) if kind == "fixed" else 0)
    scope[f"c{n}"] = shape[2] if kind == "optional" else shape[1:]
    item = ("", "")
    if kind == "fixed":
        entries = [_source(sub, f"{w}[{k}]", f"{r}[{k}]", f"i{n}", scope)
                   for k, sub in enumerate(shape[1])]
        item = f' + "," + i{n} + '.join(e[0] for e in entries), ", ".join(e[1] for e in entries)
    elif kind == "optional":
        item, names["none"] = _source(shape[1], w, r, i, scope), repr(_off(shape[2], "\n"))
    elif kind == "dict":  # its keys are strs, as JSON's are
        item = _source(shape[2], f"{w}[x{n}]", f"y{n}", f"i{n}", scope)
    elif kind in ("tuple", "frozenset"):
        item = _source(shape[1], f"x{n}", f"x{n}", f"i{n}", scope)
    write, read = _SOURCES[kind]
    return write.format(item=item[0], **names), read.format(item=item[1], **names)


def _compile(shape):
    """The writer ``(value, indent) -> str`` and the reader ``(data) -> value`` of ``shape``."""
    scope = dict(globals())
    write, read = _source(shape, "v", "v", "indent", scope)
    exec(f"def write(v, indent):\n    return {write}\ndef read(v):\n    return {read}", scope)
    return scope["write"], scope["read"]


# a record's writer reads field n once, as f{n}, and its reader as a{n}; they are
# called only with an instance of the class and with a JSON object
_RECORD_SOURCE = """
def write(r, indent):
    i = indent + "  "
    {fields}
    return {text}
def read(d):
    try:
        k = None{reads}
    except KeyError:
        raise ValueError(f"missing key {{k!r}} of {{cls.__name__}}") from None
    except (ValueError, ZeroDivisionError) as error:
        raise ValueError(f"{{k}}: {{error}}") from None
    return cls({args})
"""


@functools.cache
def _record(cls):
    """The writer and the reader of a record class, generated from ``_plan(cls)`` on first
    use as ``namedtuple`` generates its methods: the writer writes the fields, the tag and
    the encode-only value in key order; the reader passes the fields to the constructor."""
    fields, tag, extra = _plan(cls)
    scope = dict(globals(), cls=cls, encode_only=extra and extra[1])
    values, parts, reads = [], [(tag[0], repr(_ESCAPE(tag[1])))] if tag else [], ""
    encoded = ((None, extra[0], extra[2]),) if extra else ()  # read by encode_only, not by name
    for n, (name, key, sub) in enumerate(fields + encoded):
        write, read = _source(sub, f"f{n}", f"a{n}", "i", scope)
        values.append(f"f{n} = r.{name}" if name else f"f{n} = encode_only(r)")
        parts.append((key, write))
        reads += f"\n        k = {key!r}; a{n} = d[k]; a{n} = {read}" if name else ""
    text = ' + "," + i + '.join(f"{_ESCAPE(key) + ': '!r} + {part}" for key, part in sorted(parts))
    exec(_RECORD_SOURCE.format(fields="; ".join(values) or "pass", reads=reads,
         text=f'"{{" + i + {text} + indent + "}}"' if parts else '"{}"',
         args=", ".join(f"a{n}" for n in range(len(fields)))), scope)
    return scope["write"], scope["read"]


# the report's keys and shapes, in the order ``from_jsonable`` reads the fields; the payload
# is read as its payload_kind names, the inputs echo any JSON, and the last two are derived
_ENVELOPE = (("inputs", ("dict", _STR, _JSON)), ("command", _STR),
             ("payload", ("object", None, {})), ("derivations", ("dict", _STR, _STR)),
             ("assumptions", ("tuple", _STR)), ("notes", ("tuple", _STR)),
             ("payload_kind", _STR), ("schema", _STR))


@functools.cache
def _envelope() -> dict:
    """The writer and the reader of each key, in JSON key order, compiled on first use."""
    return dict(sorted((key, _compile(shape)) for key, shape in _ENVELOPE))


class Report(NamedTuple):
    """One command's inputs, payload, derivation trail and assumptions."""

    command: str
    inputs: dict
    payload: object
    derivations: dict = {}  # shared by every report that omits it, so never mutated
    assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def payload_kind(self) -> str:
        """The kind that names the payload's schema, read from the payload's type."""
        if type(self.payload) not in _KINDS:
            raise ValueError(f"unknown payload kind for payload type "
                             f"{type(self.payload).__name__!r}")
        return _KINDS[type(self.payload)]

    def to_jsonable(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The report's eight keys in sorted order, each value written in one pass."""
        values = {**self._asdict(), "payload_kind": self.payload_kind, "schema": SCHEMA}
        return "{\n  " + ",\n  ".join([_ESCAPE(key) + ": " + write(values[key], "\n  ")
                                      for key, (write, _read) in _envelope().items()]) + "\n}\n"

    @classmethod
    def from_jsonable(cls, data: dict) -> "Report":
        schema = data.get("schema") if type(data) is dict else None
        if schema not in (SCHEMA, _SCHEMA_V2):
            raise ValueError(f"unsupported report schema {schema!r}")
        try:
            kind, inputs = data["payload_kind"], data["inputs"]
            if type(kind) is not str or kind not in _PAYLOADS:
                raise ValueError(f"unknown payload kind {kind!r:.80}")
            if type(inputs) is not dict:
                raise ValueError(f"inputs: expected an object, got {inputs!r:.80}")
            return cls(**{key: _read_object(*_PAYLOADS[kind][1:], data[key]) if key == "payload"
                          else _envelope()[key][1](data[key]) for key, _shape in _ENVELOPE
                          if key in cls._fields})
        except KeyError as missing:
            raise ValueError(f"missing key {missing} of Report") from None

    @classmethod
    def from_json(cls, text: str) -> "Report":
        try:
            return cls.from_jsonable(json.loads(text))
        except RecursionError:  # nested too deeply to parse, or to read
            raise ValueError("the JSON is nested too deeply to read") from None


# ---------------------------------------------------------------------------
# text rendering

def _render_invariants(report: InvariantReport, lines: list[str]):
    lines.append(f"  K^2 = {report.k_squared}")
    lines.append(f"  chi = {report.chi}")
    p_g = P_G_UNAVAILABLE if report.p_g is None else report.p_g
    lines.append(f"  p_g = {p_g}")
    cm = report.canonical_multiple
    lines.append(f"  {cm.multiple}K = pullback of {cm.cls}")
    lines.append(f"  minimality/ampleness: {report.minimal_or_ample}")
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")


def _render_certificate(cert, lines: list[str]):
    if isinstance(cert, AmplenessCertificate):
        lines.append("  ampleness certificate:")
        lines.append(f"    divisor {cert.divisor}")
        lines.append(f"    self-intersection {cert.self_intersection}")
        lines.append(f"    feasibility: {cert.feasibility_verdict} "
                     f"(coefficient {cert.coefficient})")
        lines.append(f"    witness {cert.witness_class} "
                     f"(virtual count {cert.witness_virtual_count}"
                     f"{', tight' if cert.witness_tight else ''})")
        if cert.exceptional_witness is not None:
            a, b = cert.exceptional_witness
            lines.append(f"    exceptional witness (a, b) = ({a}, {b}): "
                         f"{cert.exceptional_reason}")
    elif isinstance(cert, NefCertificate):
        lines.append(f"  nefness certificate: {cert.verdict}")
        for name, value in cert.pairings:
            lines.append(f"    D . ({name}) = {value}")
        lines.append(f"    closure coefficient {cert.closure_coefficient}")
        if cert.gap:
            lines.append(f"    gap: {cert.gap}")


def render_text(report: Report) -> str:
    lines = [f"horikawa {report.command}"]
    if report.inputs:
        rendered = ", ".join(f"{k} = {v}" for k, v in sorted(report.inputs.items()))
        lines.append(f"inputs: {rendered}")
    lines.append("-" * 60)
    payload, kind = report.payload, report.payload_kind
    if kind == "classification":
        lines.append(f"pair: K^2 = {payload.k_squared}, chi = {payload.chi}")
        lines.append(f"admissible: {'yes' if payload.admissible else 'no'}")
        lines.append(f"on the line K^2 = 2*chi - 6: {'yes' if payload.on_line else 'no'}")
        lines.append(payload.explanation)
        if payload.info is not None:
            lines.append(f"components: {payload.info.count}")
            images = payload.info.canonical_images
            for label in payload.info.labels:
                lines.append(f"  {label}: canonical images {', '.join(images[label])}")
    elif kind == "construction":
        recipe = payload.recipe
        lines.append(f"variant: {payload.variant}")
        lines.append(f"target: K^2 = {recipe.target.k_squared}, chi = {recipe.target.chi}")
        if recipe.parameters is not None:
            e, alpha, beta = recipe.parameters
            lines.append(f"parameters: e = {e}, alpha = {alpha}, beta = {beta}")
        if recipe.k is not None:
            lines.append(f"parameter k = {recipe.k}")
        lines.append(f"base: {lattice.surface_descriptor(recipe.base)}")
        lines.append(f"blown-up points: {recipe.blow_up_count}")
        for i, cls in enumerate(recipe.branch, start=1):
            lines.append(f"branch {i}: {cls}")
        if recipe.scroll_curve is not None:
            monomials = ", ".join(str(m) for m in sorted(recipe.scroll_curve.monomials))
            lines.append(f"branch curve monomials (t1, t2, x1, x2 exponents): {monomials}")
        if recipe.germ is not None:
            lines.append(f"branch germ type: {recipe.germ}")
        lines.append(f"component claim: {recipe.component_claim}")
        if recipe.canonical_image is not None:
            lines.append(f"canonical image: {recipe.canonical_image} "
                         f"({recipe.canonical_sections} sections)")
        if recipe.fiber_component_self_intersections is not None:
            values = ", ".join(str(v) for v in recipe.fiber_component_self_intersections)
            lines.append(f"genus-2 fiber components over blown-up points: {values}")
        if recipe.ledger != stable.EMPTY_LEDGER:
            lines.append(f"singularities: {recipe.ledger.third11_count} one-third quotient "
                         f"points, {recipe.ledger.canonical_count} rational double points")
        lines.append("invariants:")
        _render_invariants(recipe.report, lines)
        for cert in recipe.certificates:
            _render_certificate(cert, lines)
        if payload.record is not None:
            record = payload.record
            lines.append("stable surface record:")
            lines.append(f"  K^2 = {record.k_squared}")
            lines.append(f"  chi = {record.chi}")
            lines.append(f"  one-third quotient points: {record.ledger.third11_count}")
            lines.append(f"  ample canonical class: {record.ample_canonical}")
            lines.append(f"  Q-Gorenstein smoothable: {record.smoothable}")
            lines.append("  in a moduli component without canonical models: "
                         f"{record.in_component_without_canonical_models}")
        for note in recipe.notes:
            lines.append(f"note: {note}")
    elif kind == "enumeration":
        lines.append(f"{'chi':>4} {'K^2':>5} {'comps':>5} {'K^2*':>5} {'sing*':>5}  "
                     "constructions")
        lines.append("(K^2, comps: line K^2 = 2chi-6; K^2*, sing*: line K^2 = 2chi-5)")
        for row in payload.rows:
            k2 = "-" if row.general_type_k_squared is None else row.general_type_k_squared
            comps = "-" if row.component_count is None else row.component_count
            k2s = "-" if row.stable_k_squared is None else row.stable_k_squared
            sing = "-" if row.stable_third11_count is None else row.stable_third11_count
            built = ", ".join(row.constructions) if row.constructions else "-"
            lines.append(f"{row.chi:>4} {k2!s:>5} {comps!s:>5} {k2s!s:>5} {sing!s:>5}  {built}")
            for note in row.notes:
                lines.append(f"      note: {note}")
        lines.append(f"rows: {len(payload.rows)}")
    else:
        for check in payload.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"check {check.name}: {status}")
            lines.append(f"  identity: {check.identity}")
            if not check.passed:
                lines.append(f"  detail: {check.detail}")
        good = sum(1 for c in payload.checks if c.passed)
        if payload.fault is not None:
            lines.append(f"injected fault: {payload.fault}")
        lines.append(f"summary: {good}/{len(payload.checks)} checks passed "
                     f"(chi <= {payload.chi_max}, k <= {payload.k_max})")
        if not payload.passed:
            first = payload.first_failure
            lines.append(f"first violated identity: {first.name} ({first.identity})")
    if report.assumptions:
        lines.append("assumptions:")
        for assumption in report.assumptions:
            lines.append(f"  - {assumption}")
    if report.notes:
        for note in report.notes:
            lines.append(f"note: {note}")
    if report.derivations:
        lines.append("derivations:")
        for key in sorted(report.derivations):
            lines.append(f"  {key}: {report.derivations[key]}")
    return "\n".join(lines) + "\n"
