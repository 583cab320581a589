"""Machine readable reports for the command line front end.

A Report wraps one command's echoed inputs, a typed payload, the
derivation trail of its numeric fields and the assumptions in force.
Reports serialise to JSON and parse back to equal values; integers whose
magnitude exceeds 64 bits are carried as decimal strings so that no
consumer silently truncates them.

One codec, driven by the record fields and their annotations, covers
every payload; the "wire format" tables list where the JSON differs.
``to_json`` writes the document straight from the records, with each
record class's keys sorted once, and ``to_jsonable`` is its parse.
Decoding is strict: a missing key, a wrong JSON type or an unknown tag
raises ValueError.  Reports of schema /2 decode as they are, since /3
only writes the smooth K^2 as a number where /2 wrote a decimal string;
any other schema is refused.
"""

from __future__ import annotations

import functools
import json
import operator
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
    ConstructionRecipe: ("base_display", lambda recipe: lattice.surface_descriptor(recipe.base),
                         ("str",)),
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
# ("int",), ("optional", inner, none_as), ("tuple", item), ("fixed", items) or
# ("object", tag_key, {tag: cls}); a record class that needs no tag has key None

_INT, _STR, _THIRDS = ("int",), ("str",), ("thirds",)
# the only forms of an integer and of a rational that the codec writes, and so
# reads; int() and Fraction() would also take " 6", "+6", "6_0" and "\u0666"
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_SCALARS = {int: _INT, bool: ("bool",), str: _STR}
# the JSON type each kind other than "int" and "optional" decodes from
_JSON_TYPES = {"bool": bool, "str": str, "thirds": str, "dict": dict,
               "object": dict, "tuple": list, "fixed": list, "frozenset": list}


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


def _decode(data, shape: tuple):
    kind = shape[0]
    if kind == "int":
        if type(data) is int:
            return data
        if type(data) is str:
            if not _INTEGER.fullmatch(data):
                raise ValueError(f"invalid literal for an integer: {data!r:.80}")
            return int(data)
        raise ValueError(f"expected an integer, got {data!r:.80}")
    if kind == "optional":
        return None if data == shape[2] else _decode(data, shape[1])
    if type(data) is not _JSON_TYPES[kind]:
        raise ValueError(f"expected {_JSON_TYPES[kind].__name__}, got {data!r:.80}")
    if kind == "str" or kind == "bool":
        return data
    if kind == "object":
        tag = data.get(shape[1])
        cls = shape[2].get(tag if type(tag) is str else None)
        if cls is None:
            raise ValueError(f"unknown {shape[1]} {tag!r:.80}")
        values = {}
        try:
            for name, key, sub in _plan(cls)[0]:
                values[name] = _decode(data[key], sub)
        except KeyError:
            raise ValueError(f"missing key {key!r} of {cls.__name__}") from None
        except (ValueError, ZeroDivisionError) as error:
            raise ValueError(f"{key}: {error}") from None
        return cls(**values)
    if kind == "tuple":
        return tuple([_decode(v, shape[1]) for v in data])
    if kind == "fixed":
        if len(data) != len(shape[1]):
            raise ValueError(f"expected {len(shape[1])} entries, got {len(data)}")
        return tuple([_decode(v, sub) for v, sub in zip(data, shape[1])])
    if kind == "frozenset":
        return frozenset([_decode(v, shape[1]) for v in data])
    if kind == "dict":
        return {_decode(k, shape[1]): _decode(v, shape[2]) for k, v in data.items()}
    # thirds: a value off the thirds stays a Fraction, for the constructor to refuse
    if not _RATIONAL.fullmatch(data):
        raise ValueError(f"expected a rational n or n/d, got {data!r:.80}")
    import fractions
    thirds = 3 * fractions.Fraction(data)
    return thirds.numerator if thirds.denominator == 1 else thirds


_ESCAPE = json.encoder.encode_basestring_ascii


@functools.cache
def _write_plan(cls) -> tuple:
    """``_plan(cls)`` in JSON key order: (escaped ``"key": ``, read, shape), where
    read takes the record; the tag and the encode-only key are entries too."""
    fields, tag, extra = _plan(cls)
    entries = [(key, operator.attrgetter(name), sub) for name, key, sub in fields]
    if tag is not None:
        entries.append((tag[0], lambda _record, value=tag[1]: value, _STR))
    if extra is not None:
        entries.append(extra)
    return tuple((_ESCAPE(key) + ": ", read, sub) for key, read, sub in sorted(entries))


def _write(value, shape: tuple, indent: str = "\n") -> str:
    """The JSON text of ``value`` as ``_dump`` writes its tree, read straight
    from the records; an integer outside 64 bits is a decimal string.  A
    scalar off its annotation, such as a bool where an int belongs, is
    written as ``_dump`` writes it, so the decoder refuses it."""
    kind = shape[0]
    if kind == "int":
        if type(value) is int and value in _INT64:
            return int.__repr__(value)
        return _dump(value if value in _INT64 else str(value))
    if kind == "str":
        return _ESCAPE(value) if type(value) is str else _dump(value)
    if kind == "optional":
        return _dump(shape[2]) if value is None else _write(value, shape[1], indent)
    if kind == "bool":
        return _dump(value)
    inner = indent + "  "
    if kind == "object":
        items = [prefix + _write(read(value), sub, inner)
                 for prefix, read, sub in _write_plan(type(value))]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind == "fixed":
        items = [_write(v, sub, inner) for v, sub in zip(value, shape[1])]
    elif kind == "thirds":
        import fractions  # loaded only for the records that hold thirds
        return _ESCAPE(str(fractions.Fraction(value, 3)))
    else:  # a tuple, or a frozenset in sorted order
        items = [_write(v, shape[1], inner)
                 for v in (sorted(value) if kind == "frozenset" else value)]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _dump(value, indent: str = "\n") -> str:
    """A str-keyed JSON tree as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it, in one pass; with ``indent`` set, the stdlib leaves its C
    encoder for a generator per container, at about twice the cost."""
    kind = type(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            items = [_ESCAPE(key) + ": " + _dump(value[key], inner) for key in sorted(value)]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        return "[" + inner + ("," + inner).join([_dump(v, inner) for v in value]) + indent + "]"
    if kind is str:
        return _ESCAPE(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value)  # any other scalar, such as a float


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
        kind, top = self.payload_kind, "\n  "
        return (f'{{{top}"assumptions": {_dump(list(self.assumptions), top)},'
                f'{top}"command": {_dump(self.command)},'
                f'{top}"derivations": {_dump(dict(self.derivations), top)},'
                f'{top}"inputs": {_dump(dict(self.inputs), top)},'
                f'{top}"notes": {_dump(list(self.notes), top)},'
                f'{top}"payload": {_write(self.payload, _PAYLOADS[kind], top)},'
                f'{top}"payload_kind": {_ESCAPE(kind)},'
                f'{top}"schema": {_ESCAPE(SCHEMA)}\n}}\n')

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
            return cls(inputs=dict(inputs), **{
                key: _decode(data[key], shape) for key, shape in (
                    ("command", _STR), ("payload", _PAYLOADS[kind]),
                    ("derivations", ("dict", _STR, _STR)), ("assumptions", ("tuple", _STR)),
                    ("notes", ("tuple", _STR)))})
        except KeyError as missing:
            raise ValueError(f"missing key {missing} of Report") from None

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_jsonable(json.loads(text))


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
