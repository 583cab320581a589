"""Machine readable reports for the command line front end.

A Report wraps one command's echoed inputs, a typed payload, the
derivation trail of its numeric fields and the assumptions in force.
Reports serialise to JSON and parse back to equal values; integers whose
magnitude exceeds 64 bits are carried as decimal strings so that no
consumer silently truncates them.  The payload records and the codec that
writes and reads them are in ``codec``; ``render_text`` renders a report
for people.

Decoding is strict: a missing key, a wrong JSON type or an unknown tag
raises ValueError.  Reports of schema /2 decode as they are, since /3
only writes the smooth K^2 as a number where /2 wrote a decimal string;
any other schema is refused.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import lattice, stable
from .catalog import AmplenessCertificate, NefCertificate
# the payload records and RANGE_CAP are public names of this module too
from .codec import (_ENVELOPE, _ESCAPE, _KINDS, _PAYLOADS, P_G_UNAVAILABLE, RANGE_CAP,
                    CheckResult, ClassificationPayload, ConstructionPayload, EnumerationPayload,
                    EnumerationRow, VerificationOutcome, _envelope, _image_text, _read_object)
from .covers import InvariantReport
from .records import checked

SCHEMA = "horikawa-report/3"
_SCHEMA_V2 = "horikawa-report/2"


@checked
class Report(NamedTuple):
    """One command's inputs, payload, derivation trail and assumptions."""

    command: str
    inputs: dict[str, object]
    payload: ClassificationPayload | ConstructionPayload | EnumerationPayload | VerificationOutcome
    derivations: dict[str, str] = {}  # shared by every report that omits it, so never mutated
    assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def payload_kind(self) -> str:
        """The kind that names the payload's schema, read from the payload's type."""
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
    p_g = P_G_UNAVAILABLE if report.p_g is None else report.p_g
    cm = report.canonical_multiple
    lines += [f"  K^2 = {report.k_squared}", f"  chi = {report.chi}", f"  p_g = {p_g}",
              f"  {cm.multiple}K = pullback of {cm.cls}",
              f"  minimality/ampleness: {report.minimal_or_ample}",
              *(f"  warning: {warning}" for warning in report.warnings)]


def _render_certificate(cert, lines: list[str]):
    if isinstance(cert, AmplenessCertificate):
        lines += ["  ampleness certificate:", f"    divisor {cert.divisor}",
                  f"    self-intersection {cert.self_intersection}",
                  f"    feasibility: {cert.feasibility_verdict} (coefficient {cert.coefficient})",
                  f"    witness {cert.witness_class} (virtual count "
                  f"{cert.witness_virtual_count}{', tight' if cert.witness_tight else ''})"]
        if cert.exceptional_witness is not None:
            a, b = cert.exceptional_witness
            lines.append(f"    exceptional witness (a, b) = ({a}, {b}): "
                         f"{cert.exceptional_reason}")
    elif isinstance(cert, NefCertificate):
        lines += [f"  nefness certificate: {cert.verdict}",
                  *(f"    D . ({name}) = {value}" for name, value in cert.pairings),
                  f"    closure coefficient {cert.closure_coefficient}"]
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
        lines += [f"pair: K^2 = {payload.k_squared}, chi = {payload.chi}",
                  f"admissible: {'yes' if payload.admissible else 'no'}",
                  f"on the line K^2 = 2*chi - 6: {'yes' if payload.on_line else 'no'}",
                  payload.explanation]
        if payload.info is not None:
            lines.append(f"components: {payload.info.count}")
            images = payload.info.images
            if images:  # the first component's F_0, F_2, ..., then the second's
                first = ", ".join(f"F_{e}" for e in range(0, images.first_top_e + 1, 2))
                for label, text in zip(payload.info.labels,
                                       (first, ", ".join(map(_image_text, images.second)))):
                    lines.append(f"  {label}: canonical images {text}")
    elif kind == "construction":
        recipe = payload.recipe
        lines += [f"variant: {payload.variant}",
                  f"target: K^2 = {recipe.target.k_squared}, chi = {recipe.target.chi}"]
        if recipe.parameters is not None:
            e, alpha, beta = recipe.parameters
            lines.append(f"parameters: e = {e}, alpha = {alpha}, beta = {beta}")
        if recipe.k is not None:
            lines.append(f"parameter k = {recipe.k}")
        lines += [f"base: {lattice.surface_descriptor(recipe.base)}",
                  f"blown-up points: {recipe.blow_up_count}",
                  *(f"branch {i}: {cls}" for i, cls in enumerate(recipe.branch, start=1))]
        if recipe.scroll_curve is not None:
            monomials = ", ".join(map(str, recipe.scroll_curve.monomials))
            lines.append(f"branch curve monomials (t1, t2, x1, x2 exponents): {monomials}")
        if recipe.germ is not None:
            lines.append(f"branch germ type: {recipe.germ}")
        lines.append(f"component claim: {recipe.component_claim}")
        if recipe.canonical_image is not None:
            lines.append(f"canonical image: {_image_text(recipe.canonical_image)} "
                         f"({recipe.canonical_sections} sections)")
        if recipe.fiber_component_self_intersections is not None:
            values = ", ".join(map(str, recipe.fiber_component_self_intersections))
            lines.append(f"genus-2 fiber components over blown-up points: {values}")
        if recipe.ledger != stable.EMPTY_LEDGER:
            lines.append(f"singularities: {recipe.ledger.third11_count} one-third quotient "
                         f"points, {recipe.ledger.canonical_count} rational double points")
        lines.append("invariants:")
        _render_invariants(recipe.report, lines)
        for cert in recipe.certificates:
            _render_certificate(cert, lines)
        record = payload.record
        if record is not None:
            lines += ["stable surface record:", f"  K^2 = {record.k_squared}",
                      f"  chi = {record.chi}",
                      f"  one-third quotient points: {record.ledger.third11_count}",
                      f"  ample canonical class: {record.ample_canonical}",
                      f"  Q-Gorenstein smoothable: {record.smoothable}",
                      "  in a moduli component without canonical models: "
                      f"{record.in_component_without_canonical_models}"]
        lines += [f"note: {note}" for note in recipe.notes]
    elif kind == "enumeration":
        lines += [f"{'chi':>4} {'K^2':>5} {'comps':>5} {'K^2*':>5} {'sing*':>5}  constructions",
                  "(K^2, comps: line K^2 = 2chi-6; K^2*, sing*: line K^2 = 2chi-5)"]
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
            lines += [f"check {check.name}: {'PASS' if check.passed else 'FAIL'}",
                      f"  identity: {check.identity}"]
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
    for note in report.notes:
        lines.append(f"note: {note}")
    if report.derivations:
        lines.append("derivations:")
        for key in sorted(report.derivations):
            lines.append(f"  {key}: {report.derivations[key]}")
    return "\n".join(lines) + "\n"
