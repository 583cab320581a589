"""The report codec: the payload records, the wire format, and the writer and the
reader of each record class.

One codec, driven by the record fields and their annotations, covers
every payload; the "wire format" tables list where the JSON differs.
Each record class gets a writer and a reader, generated from its fields'
shapes on first use, as ``namedtuple`` generates its methods: the writer
reads each field once and writes it in place, in sorted key order, and
``reporting.Report.to_jsonable`` is the parse of its ``to_json``.  Every
record refuses a value off its field's annotation where it is built
(``records``), so the writer writes only what the annotations allow and
tests no type.  A reader reads each field by its own annotation, or by its
view, and refuses a missing key, a wrong JSON type or an unknown tag with
ValueError; the record's constructor refuses the rest.
"""

from __future__ import annotations

import functools
import json
import re
import types
import typing
from typing import NamedTuple

from . import lattice
from .catalog import (CONE_IMAGE, AmplenessCertificate, CanonicalImages, ComponentInfo,
                      ConstructionRecipe, NefCertificate)
from .covers import CanonicalMultiple, InvariantReport
from .lattice import BlowUp, DivisorClass, Hirzebruch, ProjectivePlane
from .records import Affine, checked, hints
from .stable import StableSurfaceRecord

P_G_UNAVAILABLE = "unavailable(virtual)"

_INT64 = range(-(2**63), 2**63)


# ---------------------------------------------------------------------------
# payloads

@checked
class ClassificationPayload(NamedTuple):
    k_squared: int
    chi: int
    admissible: bool
    on_line: bool
    info: ComponentInfo | None
    explanation: str


@checked
class ConstructionPayload(NamedTuple):
    variant: str
    recipe: ConstructionRecipe
    record: StableSurfaceRecord | None = None


@checked
class EnumerationRow(NamedTuple):
    chi: int
    general_type_k_squared: int | None
    component_count: int | None
    constructions: tuple[str, ...]
    stable_k_squared: int | None
    stable_third11_count: int | None
    notes: tuple[str, ...] = ()


@checked
class EnumerationPayload(NamedTuple):
    rows: tuple[EnumerationRow, ...]


@checked
class CheckResult(NamedTuple):
    name: str
    identity: str
    passed: bool
    detail: str = ""


# the largest chi_max and k_max a verification run accepts; the acceptance
# tests cover chi up to the same value
RANGE_CAP = 1000


@checked
class VerificationOutcome(NamedTuple("VerificationOutcome", [
        ("chi_max", int), ("k_max", int), ("fault", str | None),
        ("checks", tuple[CheckResult, ...]), ("passed", bool)])):
    """One run of the identity suite; ``passed`` is derived from the checks
    when left out, and refused when it disagrees with them."""

    def __new__(cls, chi_max: int, k_max: int, fault: str | None,
                checks: tuple[CheckResult, ...], passed: bool | None = None):
        # an entry that is no CheckResult gives False here, and the fields' test refuses it
        derived = type(checks) is tuple and all([getattr(c, "passed", False) for c in checks])
        self = cls._tested(cls, chi_max, k_max, fault, checks,
                           derived if passed is None else passed)
        if passed is not None and passed != derived:
            raise ValueError(f"passed is {passed} but the checks give {derived}")
        return self

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


def _image_text(image):
    """A canonical image as reports write it, F_e or P^2; the cone, and None, as they are."""
    return lattice.surface_descriptor(image) if isinstance(image, lattice.SurfaceModel) else image


def _image(text):
    if text is None or text == CONE_IMAGE:
        return text
    if text == "P^2" or text[:2] == "F_" and _INTEGER.fullmatch(text[2:]):
        return ProjectivePlane() if text == "P^2" else Hirzebruch(int(text[2:]))
    raise ValueError(f"unknown canonical image {text!r:.80}")


# a field that the JSON shows as another annotation: that annotation, the
# field's value as the JSON shows it, and the value back
_VIEWS = {
    (ConstructionRecipe, "canonical_image"): (str | None, _image_text, _image),
    (CanonicalImages, "second"): (tuple[str, ...], lambda images: tuple(map(_image_text, images)),
                                  lambda texts: tuple(map(_image, texts))),
}


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
_SCALARS = {int: _INT, int | Affine: _INT, bool: ("bool",), str: _STR}


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
    annotations = hints(cls)
    fields = tuple(
        (name, _RENAMED.get((cls, name), name),
         _THIRDS if (cls, name) in _IN_THIRDS
         else _shape(_VIEWS.get((cls, name), (annotations[name],))[0],
                     _NONE_AS.get((cls, name))))
        for name in cls._fields)
    return fields, _TAGS.get(cls), _ENCODE_ONLY.get(cls)


_ESCAPE = json.encoder.encode_basestring_ascii


def _off(value, indent):
    """Any JSON ``value``, the inputs' or a none_as, as ``json.dumps(value, sort_keys=True,
    indent=2)`` writes it at ``indent``."""
    return _ESCAPE(value) if type(value) is str else int.__repr__(value) if type(
        value) is int else json.dumps(value, sort_keys=True, indent=2).replace("\n", indent)


def _write_thirds(value):
    # the JSON string of Fraction(value, 3), made without one: gcd(value, 3) is 1 or 3
    return f'"{value}/3"' if value % 3 else f'"{value // 3}"'


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
# the depth {i}, and of its reader, one that reads the data {r}.  {item} is the
# entries' source, an entry is {x} (a dict's value {y}) at the depth {j}, and {c}
# names an optional's none_as, which {none} writes, and an object's tag key and classes
_SOURCES = {
    "int": ("""(int.__repr__({w}) if {w} in _INT64 else '"' + str({w}) + '"')""",
            "({r} if type({r}) is int else _read_int({r}))"),
    "str": ("_ESCAPE({w})", "({r} if type({r}) is str else _expect(str, {r}))"),
    "bool": ('("true" if {w} else "false")',
             "({r} if type({r}) is bool else _expect(bool, {r}))"),
    "json": ("_off({w}, {i})", "{r}"),
    "thirds": ("_write_thirds({w})", "_read_thirds({r})"),
    "object": ("_record(type({w}))[0]({w}, {i})", "_read_object(*{c}, {r})"),
    "optional": ("({none} if {w} is None else {item})", "(None if {r} == {c} else {item})"),
    "tuple": ('("[" + ({j} := {i} + "  ") + ("," + {j}).join([{item} for {x} in {w}])'
              ' + {i} + "]" if {w} else "[]")',
              "tuple([{item} for {x} in _expect(list, {r})])"),
    "fixed": ('("[" + ({j} := {i} + "  ") + {item} + {i} + "]")',
              "(_expect(list, {r}, {count}) and ({item},))"),
    "dict": ('("{{" + ({j} := {i} + "  ") + ("," + {j}).join([_ESCAPE({x}) + ": " + {item}'
             ' for {x} in sorted({w})]) + {i} + "}}" if {w} else "{{}}")',
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
    elif kind == "tuple":
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
        view = scope[f"v{n}"] = _VIEWS.get((cls, name))  # written and read through its functions
        values.append(f"f{n} = v{n}[1](r.{name})" if view else f"f{n} = r.{name}" if name
                      else f"f{n} = encode_only(r)")
        read = f"v{n}[2]({read})" if view else read
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
