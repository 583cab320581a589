"""Command line front end.

Subcommands: ``classify`` answers admissibility and component-structure
queries, ``construct`` runs one of the three construction pipelines,
``enumerate`` tabulates both invariant lines over a chi range, and
``verify-paper`` runs the full identity suite.  Exit codes: 0 on success,
1 when a verification or admissibility verdict is negative, 2 on usage
errors.  Output is human readable text by default and JSON behind
``--format json``; scenario files replay a stored command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import catalog
from .reporting import (RANGE_CAP, ClassificationPayload, ConstructionPayload,
                        EnumerationPayload, EnumerationRow, Report, render_text)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2

_BASE_ASSUMPTIONS = (
    "blown-up points are anonymous and assumed in general position unless overridden",
    "branch smoothness and transversality are declared inputs, not verified symbolically",
    "irregularity q assumed 0 per construction",
)


# Each ``run_*`` takes its command's table keys as keywords, raises
# ValueError on a usage error and returns the report and its exit code;
# ``_dispatch`` fills in the report's ``inputs`` and writes it.

def run_classify(k2: int, chi: int) -> tuple[Report, int]:
    failures = catalog.admissibility_failures(k2, chi)
    on_line = k2 == 2 * chi - 6
    info = None
    if failures:
        explanation = "inadmissible pair: " + "; ".join(failures)
    elif not on_line:
        explanation = ("admissible, but component classification data only exists on "
                       "the line K^2 = 2*chi - 6")
    else:
        info = catalog.classify(k2, chi)
        if info.count == 1:
            explanation = ("one deformation class: K^2 is not a multiple of 8, so the "
                           "moduli space is connected")
        else:
            explanation = ("two deformation classes: K^2 is a multiple of 8, "
                           "distinguished by the canonical image")
    payload = ClassificationPayload(k_squared=k2, chi=chi, admissible=not failures,
                                    on_line=on_line, info=info, explanation=explanation)
    derivations = {"k_squared": "echoed input", "chi": "echoed input"}
    if info is not None:
        derivations["components.count"] = "classify: 8 divides K^2 test on the low line"
    return Report(
        command="classify",
        inputs={},
        payload=payload,
        derivations=derivations,
    ), EXIT_OK if not failures else EXIT_VERIFICATION_FAILURE


def run_construct(variant: str, chi: int | None = None, k: int | None = None,
                  epsilon: int | None = None, general_position: bool = True,
                  smoothness_assumed: bool = True) -> tuple[Report, int]:
    if epsilon is not None and variant != "stable":
        raise ValueError("--epsilon only applies to the stable variant")
    if k is not None and variant != "component-II":
        raise ValueError("--k only applies to the component-II variant")
    if chi is not None and variant == "component-II":
        raise ValueError("--chi only applies to the component-I and stable variants")
    if not general_position and variant == "component-II":
        raise ValueError("general_position only applies to the component-I and stable variants")
    if variant == "component-II":
        if k is None:
            raise ValueError("construct component-II needs --k")
    elif chi is None:
        raise ValueError(f"construct {variant} needs --chi")
    # the invariant formulas hold only for smooth, transversal branch data
    if not smoothness_assumed:
        raise ValueError("invariant formulas require the smoothness assumption")
    record = None
    if variant == "component-II":
        recipe = catalog.build_component_two(k)
        derivations = {
            "recipe.report.k_squared": "double cover: twice the adjoint class square",
            "recipe.report.chi": "double cover structure formula",
            "recipe.report.p_g": "exact section count of the adjoint class",
            "recipe.canonical_sections": "section count of the adjoint system",
        }
    elif variant == "component-I":
        recipe = catalog.build_component_one(chi, general_position)
        derivations = {
            "recipe.parameters": "parameter table by chi mod 3",
            "recipe.blow_up_count": "2*alpha + 2*beta - 4*e branch intersection points",
            "recipe.report.k_squared":
                "triple cover: square of the tri-canonical class divided by 3",
            "recipe.report.chi": "triple cover structure formula",
            "recipe.report.p_g": "exact section counts of the two adjoint classes",
        }
    elif epsilon is None:
        record, recipe = catalog.build_stable(chi, general_position)
        derivations = {
            "recipe.blow_up_count": "2*alpha + 2*beta - 4*e - 3 points, three nodes kept",
            "recipe.report.k_squared": "canonical resolution triple cover formula",
            "record.k_squared": "resolved K^2 plus 1/3 per retained node",
            "record.ledger.third11_count": "one quotient point per retained node",
        }
    else:
        # contracted family: take the minimal surface and contract
        # 3*epsilon disjoint (-3)-curves of its genus-2 fibers
        record = catalog.epsilon_family(chi, epsilon)
        recipe = catalog.build_component_one(chi, general_position)
        derivations = {
            "record.k_squared": "2*chi - 6 plus 1/3 per contracted curve",
            "record.ledger.third11_count": "3*epsilon contracted curves",
        }
    derivations.update({
        "recipe.target.k_squared": "construction target on its invariant line",
        "recipe.target.chi": "echoed input",
    })
    notes = ()
    if epsilon is not None:
        notes = (f"the recipe describes the minimal surface whose 3*{epsilon} "
                 "disjoint (-3)-curves are contracted to produce the record",)
    return Report(
        command="construct",
        inputs={},
        payload=ConstructionPayload(variant=variant, recipe=recipe, record=record),
        derivations=derivations,
        assumptions=_BASE_ASSUMPTIONS,
        notes=notes,
    ), EXIT_OK


def _enumeration_row(chi: int) -> EnumerationRow:
    k2 = 2 * chi - 6
    on_line = catalog.admissible(k2, chi)
    stable = catalog.admissible(2 * chi - 5, chi)
    constructions = []
    notes = []
    if on_line:
        constructions.append("component-I")
    if on_line and catalog.component_count(k2) == 2:
        constructions.append(f"component-II (k = {k2 // 8})")
        germ = catalog.component_two_germ(k2 // 8)
        if germ is not None:
            notes.append(f"second-component branch curve carries one {germ} double point")
    if stable:
        constructions.append("stable")
    return EnumerationRow(
        chi=chi,
        general_type_k_squared=k2 if on_line else None,
        component_count=catalog.component_count(k2) if on_line else None,
        constructions=tuple(constructions),
        stable_k_squared=2 * chi - 5 if stable else None,
        stable_third11_count=catalog.RETAINED_NODES if stable else None,
        notes=tuple(notes),
    )


def run_enumerate(chi: int, chi_max: int) -> tuple[Report, int]:
    rows = tuple(_enumeration_row(c) for c in range(chi, chi_max + 1))
    return Report(
        command="enumerate",
        inputs={},
        payload=EnumerationPayload(rows=rows),
        derivations={
            "rows[].general_type_k_squared": "2*chi - 6 where admissible",
            "rows[].stable_k_squared": "2*chi - 5 for chi >= 3",
            "rows[].component_count": "classify",
            "rows[].stable_third11_count": "three retained branch nodes",
        },
        assumptions=_BASE_ASSUMPTIONS,
    ), EXIT_OK


def run_verify(chi_max: int, k_max: int,
               inject_fault: str | None = None) -> tuple[Report, int]:
    # loaded here, so that the other commands start without it
    from . import verify
    outcome = verify.run_verification(chi_max=chi_max, k_max=k_max, fault=inject_fault)
    return Report(
        command="verify-paper",
        inputs={},
        payload=outcome,
        derivations={
            "checks[]": "each check recomputes its expected values independently",
        },
        assumptions=_BASE_ASSUMPTIONS,
    ), EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# the command table: argparse, scenario checks, bounds, the inputs echo and
# the dispatch all read it

class Arg(NamedTuple):
    key: str  # scenario key; the flag is --key with dashes
    type: type  # the JSON type a scenario must give; nothing is coerced
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    bound: tuple[int, int] | None = None  # inclusive (lo, hi), stated in the help
    help: str | None = None
    positional: bool = False
    metavar: str | None = None


class Command(NamedTuple):
    handler: str  # looked up in this module at call time, so wrappers apply
    summary: str
    args: tuple[Arg, ...]
    assumptions: bool = False  # takes the scenario-only "assumptions" object


# |value| caps that keep every report and its cost bounded; verify-paper's
# ranges are checked by verify.run_verification, with their reasons
_CAP = (-100_000, 100_000)
_ENUMERATE_CAP = (-10_000, 10_000)
_FORMAT = Arg("format", str, "text", choices=("text", "json"))

_COMMANDS = {
    "classify": Command("run_classify", "admissibility and component structure", (
        Arg("k2", int, required=True, bound=_CAP, help="K^2 of the pair"),
        Arg("chi", int, required=True, bound=_CAP, help="chi of the pair"),
        _FORMAT)),
    "construct": Command("run_construct", "run a construction pipeline", (
        Arg("variant", str, required=True, positional=True,
            choices=("component-I", "component-II", "stable")),
        Arg("chi", int, bound=_CAP, help="component-I and stable: the target chi"),
        Arg("k", int, bound=_CAP, help="component-II only: the target K^2 is 8k"),
        Arg("epsilon", int, bound=_CAP,
            help="stable only: contract 3*epsilon curves instead of "
                 "running the direct cover pipeline"),
        _FORMAT), assumptions=True),
    "enumerate": Command("run_enumerate", "tabulate a chi range", (
        Arg("chi", int, required=True, bound=_ENUMERATE_CAP,
            help="start of the chi range (inclusive)"),
        Arg("chi_max", int, required=True, bound=_ENUMERATE_CAP,
            help="end of the chi range (inclusive)"),
        _FORMAT)),
    "verify-paper": Command(
        "run_verify", "run the full identity suite over chi and k ranges", (
            Arg("chi_max", int, 30,
                help=f"largest chi checked, from 6 to {RANGE_CAP} (default 30)"),
            Arg("k_max", int, 6, help="largest k checked on the second component, "
                                     f"from 2 to {RANGE_CAP} (default 6)"),
            _FORMAT,
            Arg("inject_fault", str, metavar="NAME",
                help="test-only: run with one named fault installed"))),
}
_ASSUMPTION_TYPES = {"general_position": bool, "smoothness_assumed": bool}
_JSON_NAMES = {int: "an integer", str: "a string", bool: "a boolean", dict: "an object"}


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _dispatch(command: str, values: dict) -> int:
    """Check ``values`` against the table, run the handler and write its report."""
    try:
        for arg in _COMMANDS[command].args:
            value = values.setdefault(arg.key, arg.default)
            if value is None:
                if arg.required:
                    raise ValueError(f"malformed scenario: missing key {arg.key!r}")
            elif arg.choices is not None and value not in arg.choices:
                # a positional is named with its command: "unknown construct variant"
                name = f"{command} {arg.key}" if arg.positional else arg.key
                raise ValueError(f"unknown {name} {value!r}")
            elif arg.bound is not None and value < arg.bound[0]:
                raise ValueError(f"{arg.key} must be at least {arg.bound[0]}")
            elif arg.bound is not None and value > arg.bound[1]:
                raise ValueError(f"{arg.key} must be at most {arg.bound[1]}")
        fmt = values.pop("format")
        report, code = globals()[_COMMANDS[command].handler](**values)
    except ValueError as error:
        return _usage_error(error)
    # the echo: what was given, less assumption flags left at their default
    inputs = {key: value for key, value in values.items()
              if value is not None and not (key in _ASSUMPTION_TYPES and value is True)}
    report = report._replace(inputs={**inputs, "format": fmt})
    sys.stdout.write(report.to_json() if fmt == "json" else render_text(report))
    return code


# ---------------------------------------------------------------------------
# scenario files

def _scenario_type_error(values: dict, types: dict, where: str) -> str | None:
    unknown = set(values) - set(types)
    if unknown:
        return f"unknown {where} keys {sorted(unknown)}"
    for key, value in values.items():
        if type(value) is not types[key]:
            return (f"{where} value {key!r} must be {_JSON_NAMES[types[key]]}, "
                    f"got {json.dumps(value)}")
    return None


def run_scenario(path: str) -> int:
    """Execute the command described by a JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            scenario = json.load(handle)
    except (OSError, ValueError, RecursionError) as error:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # too long to convert; RecursionError covers nesting too deep to parse
        return _usage_error(f"cannot read scenario {path}: {error}")
    if not isinstance(scenario, dict) or "command" not in scenario:
        return _usage_error("a scenario must be a JSON object with a 'command' key")
    command = scenario.pop("command")
    spec = _COMMANDS.get(command) if type(command) is str else None
    if spec is None:
        return _usage_error(f"unknown scenario command {command!r}")
    types = {arg.key: arg.type for arg in spec.args}
    if spec.assumptions:
        types["assumptions"] = dict
    error = (_scenario_type_error(scenario, types, "scenario")
             or _scenario_type_error(scenario.get("assumptions", {}), _ASSUMPTION_TYPES,
                                     "assumption"))
    if error is not None:
        return _usage_error(error)
    assumptions = scenario.pop("assumptions", {})
    return _dispatch(command, {**scenario, **assumptions})


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horikawa",
        description=("Exact divisor calculus on the invariant lines "
                     "K^2 = 2*chi - 6 and K^2 = 2*chi - 5."),
    )
    parser.add_argument("--scenario", metavar="PATH",
                        help="execute the command stored in a JSON scenario file")
    sub = parser.add_subparsers(dest="command")
    for command, spec in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=spec.summary)
        for arg in spec.args:
            name = arg.key if arg.positional else "--" + arg.key.replace("_", "-")
            flag_only = {} if arg.positional else {"default": arg.default,
                                                   "required": arg.required}
            help_text = arg.help
            if arg.bound is not None:
                cap = "from {} to {}".format(*arg.bound)
                help_text = cap if help_text is None else f"{help_text}, {cap}"
            command_parser.add_argument(name, type=arg.type, choices=arg.choices,
                                        metavar=arg.metavar, help=help_text, **flag_only)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        values = vars(_PARSER.parse_args(argv))
    except SystemExit as exit_request:
        return EXIT_OK if exit_request.code in (0, None) else EXIT_USAGE
    command, scenario = values.pop("command"), values.pop("scenario")
    if scenario is not None:
        if command is not None:
            return _usage_error("--scenario replaces the command line; drop the subcommand")
        return run_scenario(scenario)
    if command is None:
        _PARSER.print_help()
        return EXIT_USAGE
    return _dispatch(command, values)


if __name__ == "__main__":
    raise SystemExit(main())
