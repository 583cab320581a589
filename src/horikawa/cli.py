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

from . import catalog, faults, verify
from .reporting import (ClassificationPayload, ConstructionPayload,
                        EnumerationPayload, EnumerationRow, Report,
                        VerificationPayload, render_text)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2

_BASE_ASSUMPTIONS = (
    "blown-up points are anonymous and assumed in general position unless overridden",
    "branch smoothness and transversality are declared inputs, not verified symbolically",
    "irregularity q assumed 0 per construction",
)


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(render_text(report))


def run_classify(k_squared: int, chi: int, fmt: str = "text") -> int:
    failures = catalog.admissibility_failures(k_squared, chi)
    on_line = k_squared == 2 * chi - 6
    info = None
    if failures:
        explanation = "inadmissible pair: " + "; ".join(failures)
    elif not on_line:
        explanation = ("admissible, but component classification data only exists on "
                       "the line K^2 = 2*chi - 6")
    else:
        info = catalog.classify(k_squared, chi)
        if info.count == 1:
            explanation = ("one deformation class: K^2 is not a multiple of 8, so the "
                           "moduli space is connected")
        else:
            explanation = ("two deformation classes: K^2 is a multiple of 8, "
                           "distinguished by the canonical image")
    payload = ClassificationPayload(
        k_squared=k_squared,
        chi=chi,
        admissible=not failures,
        on_line=on_line,
        info=info,
        explanation=explanation,
    )
    derivations = {
        "k_squared": "echoed input",
        "chi": "echoed input",
    }
    if info is not None:
        derivations["components.count"] = "classify: 8 divides K^2 test on the low line"
    report = Report(
        command="classify",
        inputs={"k2": k_squared, "chi": chi, "format": fmt},
        payload_kind="classification",
        payload=payload,
        derivations=derivations,
    )
    _emit(report, fmt)
    return EXIT_OK if not failures else EXIT_VERIFICATION_FAILURE


def run_construct(variant: str, chi: int | None = None, k: int | None = None,
                  epsilon: int | None = None, fmt: str = "text",
                  general_position: bool = True,
                  smoothness_assumed: bool = True) -> int:
    record = None
    derivations: dict[str, str] = {}
    try:
        if epsilon is not None and variant != "stable":
            raise ValueError("--epsilon only applies to the stable variant")
        if variant == "component-I":
            if chi is None:
                raise ValueError("construct component-I needs --chi")
            recipe = catalog.build_component_one(
                chi, general_position=general_position,
                smoothness_assumed=smoothness_assumed)
            derivations.update({
                "recipe.parameters": "parameter table by chi mod 3",
                "recipe.blow_up_count": "2*alpha + 2*beta - 4*e branch intersection points",
                "recipe.report.k_squared":
                    "triple cover: square of the tri-canonical class divided by 3",
                "recipe.report.chi": "triple cover structure formula",
                "recipe.report.p_g": "exact section counts of the two adjoint classes",
            })
        elif variant == "component-II":
            if k is None:
                raise ValueError("construct component-II needs --k")
            recipe = catalog.build_component_two(k, smoothness_assumed=smoothness_assumed)
            derivations.update({
                "recipe.report.k_squared": "double cover: twice the adjoint class square",
                "recipe.report.chi": "double cover structure formula",
                "recipe.report.p_g": "exact section count of the adjoint class",
                "recipe.canonical_sections": "section count of the adjoint system",
            })
        elif variant == "stable":
            if chi is None:
                raise ValueError("construct stable needs --chi")
            if epsilon is None:
                construction = catalog.build_stable(
                    chi, general_position=general_position,
                    smoothness_assumed=smoothness_assumed)
                recipe = construction.recipe
                record = construction.record
                derivations.update({
                    "recipe.blow_up_count":
                        "2*alpha + 2*beta - 4*e - 3 points, three nodes kept",
                    "recipe.report.k_squared":
                        "canonical resolution triple cover formula",
                    "record.k_squared": "resolved K^2 plus 1/3 per retained node",
                    "record.ledger.third11_count": "one quotient point per retained node",
                })
            else:
                # contracted family: take the minimal surface and contract
                # 3*epsilon disjoint (-3)-curves of its genus-2 fibers
                record = catalog.epsilon_family(chi, epsilon)
                recipe = catalog.build_component_one(
                    chi, general_position=general_position,
                    smoothness_assumed=smoothness_assumed)
                derivations.update({
                    "record.k_squared": "2*chi - 6 plus 1/3 per contracted curve",
                    "record.ledger.third11_count": "3*epsilon contracted curves",
                })
        else:
            raise ValueError(f"unknown construct variant {variant!r}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    derivations.update({
        "recipe.target.k_squared": "construction target on its invariant line",
        "recipe.target.chi": "echoed input",
    })
    inputs = {"variant": variant, "format": fmt}
    if chi is not None:
        inputs["chi"] = chi
    if k is not None:
        inputs["k"] = k
    if epsilon is not None:
        inputs["epsilon"] = epsilon
    if not general_position:
        inputs["general_position"] = False
    if not smoothness_assumed:
        inputs["smoothness_assumed"] = False
    notes = ()
    if epsilon is not None:
        notes = (f"the recipe describes the minimal surface whose 3*{epsilon} "
                 "disjoint (-3)-curves are contracted to produce the record",)
    report = Report(
        command="construct",
        inputs=inputs,
        payload_kind="construction",
        payload=ConstructionPayload(variant=variant, recipe=recipe, record=record),
        derivations=derivations,
        assumptions=_BASE_ASSUMPTIONS,
        notes=notes,
    )
    _emit(report, fmt)
    return EXIT_OK


def _enumeration_row(chi: int) -> EnumerationRow:
    general_k2 = 2 * chi - 6
    stable_k2 = 2 * chi - 5
    constructions = []
    notes = []
    component_count = None
    line_a = None
    if catalog.admissible(general_k2, chi):
        line_a = general_k2
        component_count = catalog.classify(general_k2, chi).count
        if chi >= 4:
            constructions.append("component-I")
        if general_k2 % 8 == 0 and general_k2 >= 8:
            k = general_k2 // 8
            constructions.append(f"component-II (k = {k})")
            if k >= 2 and k % 3 == 1:
                notes.append("second-component branch curve carries one A_4 double point")
    stable_entry = None
    third11 = None
    if chi >= 3:
        stable_entry = stable_k2
        third11 = 3
        constructions.append("stable")
    return EnumerationRow(
        chi=chi,
        general_type_k_squared=line_a,
        component_count=component_count,
        constructions=tuple(constructions),
        stable_k_squared=stable_entry,
        stable_third11_count=third11,
        notes=tuple(notes),
    )


def run_enumerate(chi_start: int, chi_end: int, fmt: str = "text") -> int:
    rows = tuple(_enumeration_row(chi) for chi in range(chi_start, chi_end + 1))
    report = Report(
        command="enumerate",
        inputs={"chi": chi_start, "chi_max": chi_end, "format": fmt},
        payload_kind="enumeration",
        payload=EnumerationPayload(rows=rows),
        derivations={
            "rows[].general_type_k_squared": "2*chi - 6 where admissible",
            "rows[].stable_k_squared": "2*chi - 5 for chi >= 3",
            "rows[].component_count": "classify",
            "rows[].stable_third11_count": "three retained branch nodes",
        },
        assumptions=_BASE_ASSUMPTIONS,
    )
    _emit(report, fmt)
    return EXIT_OK


def run_verify(chi_max: int = 30, k_max: int = 6, fault: str | None = None,
               fmt: str = "text") -> int:
    if fault is not None and fault not in faults.REGISTRY:
        print(f"error: unknown fault {fault!r}; known faults: "
              f"{', '.join(faults.fault_names())}", file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = verify.run_verification(chi_max=chi_max, k_max=k_max, fault=fault)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    report = Report(
        command="verify-paper",
        inputs={"chi_max": chi_max, "k_max": k_max, "format": fmt,
                **({"inject_fault": fault} if fault else {})},
        payload_kind="verification",
        payload=VerificationPayload.from_outcome(outcome),
        derivations={
            "checks[]": "each check recomputes its expected values independently",
        },
        assumptions=_BASE_ASSUMPTIONS,
    )
    _emit(report, fmt)
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# scenario files

# the JSON type of every key each command takes; a JSON boolean is not an
# integer and a number is not a string, so nothing is coerced
_SCENARIO_TYPES = {
    "classify": {"k2": int, "chi": int},
    "construct": {"variant": str, "chi": int, "k": int, "epsilon": int, "assumptions": dict},
    "enumerate": {"chi": int, "chi_max": int},
    "verify-paper": {"chi_max": int, "k_max": int, "inject_fault": str},
}
_ASSUMPTION_TYPES = {"general_position": bool, "smoothness_assumed": bool}
_JSON_NAMES = {int: "an integer", str: "a string", bool: "a boolean", dict: "an object"}


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
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read scenario {path}: {error}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(scenario, dict) or "command" not in scenario:
        print("error: a scenario must be a JSON object with a 'command' key",
              file=sys.stderr)
        return EXIT_USAGE
    command = scenario["command"]
    types = _SCENARIO_TYPES.get(command) if type(command) is str else None
    if types is None:
        print(f"error: unknown scenario command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    error = (_scenario_type_error(scenario, {"command": str, "format": str, **types},
                                  "scenario")
             or _scenario_type_error(scenario.get("assumptions", {}), _ASSUMPTION_TYPES,
                                     "assumption"))
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    fmt = scenario.get("format", "text")
    if fmt not in ("text", "json"):
        print(f"error: unknown format {fmt!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if command == "classify":
            return run_classify(scenario["k2"], scenario["chi"], fmt)
        if command == "construct":
            return run_construct(
                scenario["variant"], chi=scenario.get("chi"), k=scenario.get("k"),
                epsilon=scenario.get("epsilon"), fmt=fmt, **scenario.get("assumptions", {}))
        if command == "enumerate":
            return run_enumerate(scenario["chi"], scenario["chi_max"], fmt)
        return run_verify(
            chi_max=scenario.get("chi_max", 30),
            k_max=scenario.get("k_max", 6),
            fault=scenario.get("inject_fault"),
            fmt=fmt,
        )
    except KeyError as error:
        print(f"error: malformed scenario: missing key {error}", file=sys.stderr)
        return EXIT_USAGE


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

    classify = sub.add_parser("classify", help="admissibility and component structure")
    classify.add_argument("--k2", type=int, required=True)
    classify.add_argument("--chi", type=int, required=True)
    classify.add_argument("--format", choices=("text", "json"), default="text")

    construct = sub.add_parser("construct", help="run a construction pipeline")
    construct.add_argument("variant", choices=("component-I", "component-II", "stable"))
    construct.add_argument("--chi", type=int)
    construct.add_argument("--k", type=int)
    construct.add_argument("--epsilon", type=int,
                           help="stable only: contract 3*epsilon curves instead of "
                                "running the direct cover pipeline")
    construct.add_argument("--format", choices=("text", "json"), default="text")

    enumerate_parser = sub.add_parser("enumerate", help="tabulate a chi range")
    enumerate_parser.add_argument("--chi", type=int, required=True,
                                  help="start of the chi range (inclusive)")
    enumerate_parser.add_argument("--chi-max", type=int, required=True,
                                  help="end of the chi range (inclusive)")
    enumerate_parser.add_argument("--format", choices=("text", "json"), default="text")

    verify_parser = sub.add_parser(
        "verify-paper", help="run the full identity suite over chi and k ranges")
    verify_parser.add_argument("--chi-max", type=int, default=30,
                               help=f"largest chi checked, from 6 to {verify.RANGE_CAP} "
                                    "(default 30)")
    verify_parser.add_argument("--k-max", type=int, default=6,
                               help="largest k checked on the second component, "
                                    f"from 2 to {verify.RANGE_CAP} (default 6)")
    verify_parser.add_argument("--format", choices=("text", "json"), default="text")
    verify_parser.add_argument("--inject-fault", metavar="NAME", default=None,
                               help="test-only: run with one named fault installed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    if args.scenario is not None:
        if args.command is not None:
            print("error: --scenario replaces the command line; drop the subcommand",
                  file=sys.stderr)
            return EXIT_USAGE
        return run_scenario(args.scenario)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    if args.command == "classify":
        return run_classify(args.k2, args.chi, args.format)
    if args.command == "construct":
        return run_construct(args.variant, chi=args.chi, k=args.k,
                             epsilon=args.epsilon, fmt=args.format)
    if args.command == "enumerate":
        return run_enumerate(args.chi, args.chi_max, args.format)
    return run_verify(chi_max=args.chi_max, k_max=args.k_max,
                      fault=args.inject_fault, fmt=args.format)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
