"""Seeded closed-loop workloads and the closed-form checks of their outputs.

A workload is a sequence of rounds.  Round ``r`` for seed ``s``
is built from ``random.Random(f"{name}/{s}/{r}")`` alone, so the same
seed always gives the same inputs.  Each round holds the same size
strata, with a small seeded jitter inside each stratum and a seeded
order.  Runs with different seeds therefore do nearly the same work, and
a run made of whole rounds weights every stratum equally, which keeps
the latency percentiles inside the same stratum from run to run.

Expected values come from closed forms on the invariant lines
K^2 = 2chi - 6 and K^2 = 2chi - 5 and from exit codes, never from a
second call into the construction pipelines.
"""

from __future__ import annotations

import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from horikawa import cli, faults, verify
from horikawa.reporting import Report


# ---------------------------------------------------------------------------
# verify-paper ops

@dataclass(frozen=True)
class VerifyOp:
    """One ``run_verification`` call, clean or with one named fault."""

    chi_max: int
    k_max: int
    fault: str | None
    check_names: tuple[str, ...]

    def label(self) -> str:
        return f"verify({self.chi_max}, {self.k_max}, fault={self.fault})"

    def run(self):
        return verify.run_verification(self.chi_max, self.k_max, fault=self.fault)

    def check(self, outcome) -> str | None:
        names = tuple(c.name for c in outcome.checks)
        if names != self.check_names:
            return f"checks {names} are not check_names() in order"
        failing = [c.name for c in outcome.checks if not c.passed]
        if self.fault is None and failing:
            return f"clean run failed {failing}"
        if self.fault is not None and not failing:
            return "fault escaped: every check passed"
        return None

    @staticmethod
    def digest(outcome):
        return tuple((c.name, c.passed, c.detail) for c in outcome.checks)


# ---------------------------------------------------------------------------
# CLI ops

class CliResult(NamedTuple):
    code: int
    stdout: str
    reencoded: str | None  # decode-then-encode of a JSON stdout


@dataclass(frozen=True)
class CliOp:
    """One in-process ``cli.main(argv)`` call with its expected facts."""

    argv: tuple[str, ...]
    exit_code: int
    facts: dict

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]

    def label(self) -> str:
        return " ".join(self.argv)

    def run(self) -> CliResult:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(self.argv))
        return self.finish(code, out.getvalue())

    def finish(self, code: int, stdout: str) -> CliResult:
        """Read a JSON report back and write it again: the codec's read path."""
        reencoded = None
        if self.fmt == "json" and stdout:
            reencoded = Report.from_json(stdout).to_json()
        return CliResult(code, stdout, reencoded)

    def check(self, result: CliResult) -> str | None:
        if result.code != self.exit_code:
            return f"exit {result.code}, expected {self.exit_code}"
        if self.fmt == "json":
            if result.reencoded != result.stdout:
                return "re-encoded report differs from stdout"
            facts = json_facts(self.command, json.loads(result.stdout))
        else:
            facts = text_facts(self.command, result.stdout)
        if facts != self.facts:
            return f"facts {facts} != expected {self.facts}"
        return None

    @staticmethod
    def digest(result: CliResult):
        return result.code, result.stdout


def _k2(value) -> Fraction:
    return Fraction(str(value))


def json_facts(command: str, report: dict) -> dict:
    payload = report["payload"]
    if command == "classify":
        components = payload["components"]
        return {"pair": (_k2(payload["k_squared"]), payload["chi"]),
                "admissible": payload["admissible"], "on_line": payload["on_line"],
                "components": None if components is None else components["count"]}
    if command == "construct":
        recipe, record = payload["recipe"], payload["record"]
        target, inv = recipe["target"], recipe["report"]
        return {"target": (_k2(target["k_squared"]), target["chi"]),
                "invariants": (_k2(inv["k_squared"]), inv["chi"], inv["p_g"]),
                "record": None if record is None else (
                    _k2(record["k_squared"]), record["chi"],
                    record["ledger"]["third11_count"])}
    return {"rows": tuple(
        (row["chi"], row["general_type_k_squared"], row["component_count"],
         row["stable_k_squared"], row["stable_third11_count"])
        for row in payload["rows"])}


def _value(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _block(lines: list[str], header: str) -> list[str]:
    """The indented lines that follow ``header``."""
    start = lines.index(header) + 1
    end = start
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return lines[start:end]


_PAIR = re.compile(r"K\^2 = (\S+), chi = (\S+)$")
_ROW = re.compile(r"^\s*(\d+)\s+(-|\d+)\s+(-|\d+)\s+(-|\d+)\s+(-|\d+)\s")


def _pair(text: str) -> tuple[Fraction, int]:
    match = _PAIR.search(text)
    return _k2(match[1]), int(match[2])


def _invariants(block: list[str], third: str) -> tuple:
    return (_k2(_value(block, "  K^2 = ")), int(_value(block, "  chi = ")),
            int(_value(block, third)))


def text_facts(command: str, text: str) -> dict:
    lines = text.splitlines()
    if command == "classify":
        components = _value(lines, "components: ")
        return {"pair": _pair(_value(lines, "pair: ")),
                "admissible": _value(lines, "admissible: ") == "yes",
                "on_line": _value(lines, "on the line K^2 = 2*chi - 6: ") == "yes",
                "components": None if components is None else int(components)}
    if command == "construct":
        record = None
        if "stable surface record:" in lines:
            record = _invariants(_block(lines, "stable surface record:"),
                                 "  one-third quotient points: ")
        return {"target": _pair(_value(lines, "target: ")),
                "invariants": _invariants(_block(lines, "invariants:"), "  p_g = "),
                "record": record}
    rows = []
    for line in lines:
        match = _ROW.match(line)
        if match:
            rows.append(tuple(None if g == "-" else int(g) for g in match.groups()))
    if int(_value(lines, "rows: ")) != len(rows):
        raise ValueError("row count line disagrees with the table")
    return {"rows": tuple(rows)}


# ---------------------------------------------------------------------------
# closed forms

def admissible(k2: int, chi: int) -> bool:
    """Noether and Bogomolov-Miyaoka-Yau inequalities for minimal surfaces."""
    return chi >= 1 and k2 >= 1 and 2 * chi - 6 <= k2 <= 9 * chi


def component_count(k2: int) -> int:
    """On K^2 = 2chi - 6 the moduli space splits exactly when 8 divides K^2."""
    return 2 if k2 % 8 == 0 else 1


def classify_op(k2: int, chi: int, fmt: str) -> CliOp:
    ok = admissible(k2, chi)
    on_line = k2 == 2 * chi - 6
    return CliOp(("classify", "--k2", str(k2), "--chi", str(chi), "--format", fmt),
                 0 if ok else 1,
                 {"pair": (Fraction(k2), chi), "admissible": ok, "on_line": on_line,
                  "components": component_count(k2) if ok and on_line else None})


def _first_line(chi: int) -> tuple:
    """Invariants (K^2, chi, p_g) of a minimal surface on K^2 = 2chi - 6 with q = 0."""
    return Fraction(2 * chi - 6), chi, chi - 1


def construct_op(variant: str, fmt: str, chi: int | None = None, k: int | None = None,
                 epsilon: int | None = None) -> CliOp:
    argv = ["construct", variant]
    if variant == "component-II":
        argv += ["--k", str(k)]
        target = (Fraction(8 * k), 4 * k + 3)
        facts = {"target": target, "invariants": target + (4 * k + 2,), "record": None}
    else:
        argv += ["--chi", str(chi)]
        facts = {"target": _first_line(chi)[:2], "invariants": _first_line(chi),
                 "record": None}
        if variant == "stable" and epsilon is None:
            # three one-third points each add 1/3 to the resolved K^2
            facts["target"] = (Fraction(2 * chi - 5), chi)
            facts["record"] = (Fraction(2 * chi - 5), chi, 3)
        elif variant == "stable":
            argv += ["--epsilon", str(epsilon)]
            facts["record"] = (Fraction(2 * chi - 6 + epsilon), chi, 3 * epsilon)
    return CliOp(tuple(argv + ["--format", fmt]), 0, facts)


def enumerate_op(chi: int, chi_max: int, fmt: str) -> CliOp:
    rows = tuple(
        (c,
         2 * c - 6 if admissible(2 * c - 6, c) else None,
         component_count(2 * c - 6) if admissible(2 * c - 6, c) else None,
         2 * c - 5 if c >= 3 else None,
         3 if c >= 3 else None)
        for c in range(chi, chi_max + 1))
    return CliOp(("enumerate", "--chi", str(chi), "--chi-max", str(chi_max), "--format", fmt),
                 0, {"rows": rows})


# ---------------------------------------------------------------------------
# rounds

def _jitter(rng: random.Random, center: int, share: float) -> int:
    return round(center * (1 + rng.uniform(-share, share)))


# (chi_max centre, ops per round).  The strata fill the latency ranks
# [0, .3), [.3, .6), [.6, .9) and [.9, 1], so the median and the 70th
# percentile fall well inside the 75 and 150 strata.
VERIFY_SWEEP_STRATA = ((37, 3), (75, 3), (150, 3), (300, 1))


def verify_sweep_round(rng: random.Random) -> list:
    names = verify.check_names()
    ops = []
    for center, count in VERIFY_SWEEP_STRATA:
        for _ in range(count):
            chi_max = _jitter(rng, center, 0.02)
            ops.append(VerifyOp(chi_max, max(2, chi_max // 3 + rng.randint(-1, 1)), None, names))
    return ops


def fault_matrix_round(rng: random.Random) -> list:
    names = verify.check_names()
    ops = []
    for fault in (None,) + faults.fault_names():
        # the documented minimum range is always included: ranges below
        # chi_max = 7 are where a fault can slip past every check
        ops.append(VerifyOp(6, 2, fault, names))
        ops.append(VerifyOp(rng.randint(12, 20), rng.randint(3, 5), fault, names))
        ops.append(VerifyOp(rng.randint(32, 40), rng.randint(6, 8), fault, names))
    return ops


# Large JSON constructions.  The stable record costs more per unit of chi,
# so its chi is lower: the two large ops then take about the same time and
# form one latency cluster, the top 1/9 of ranks, where p95 falls.
CLI_LARGE_CHI = {"component-I": 20000, "stable": 15700}


def cli_reports_round(rng: random.Random) -> list:
    ops = []
    for fmt in ("text", "json"):
        chi = rng.randint(4, 400)
        ops.append(classify_op(2 * chi - 6, chi, fmt))
        chi = rng.randint(4, 400)
        ops.append(classify_op(rng.randint(2 * chi - 5, 9 * chi), chi, fmt))
        chi = rng.randint(4, 400)
        ops.append(classify_op(rng.choice((rng.randint(1, 2 * chi - 7),
                                           rng.randint(9 * chi + 1, 10 * chi))), chi, fmt))
        ops.append(construct_op("component-I", fmt, chi=rng.randint(4, 60)))
        ops.append(construct_op("component-II", fmt, k=rng.randint(1, 12)))
        ops.append(construct_op("stable", fmt, chi=rng.randint(3, 60)))
        chi = rng.randint(4, 60)
        ops.append(construct_op("stable", fmt, chi=chi,
                                epsilon=rng.randint(1, (2 * chi + 2) // 3)))
        start = rng.randint(1, 20)
        ops.append(enumerate_op(start, start + rng.randint(3, 12), fmt))
    for variant, chi in CLI_LARGE_CHI.items():
        ops.append(construct_op(variant, "json", chi=chi - rng.randint(0, 400)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], list]
    # Fixed per workload, so that every run reports the same percentile:
    # the highest that lands inside one size stratum and still leaves at
    # least ten samples beyond it in a run of the seed code.
    tail_percentile: float
    # Nominal wall seconds, at the seed code on the reference host, of one
    # timed round and of one traced-plus-untraced pass pair.  They fix how
    # many rounds a run of ``seconds`` does, so that a run's ops, and with
    # them its attempted and failed counts, never depend on the host's
    # speed at the time.
    round_s: float
    traced_pair_s: float

    def round(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        ops = self.make_round(rng)
        rng.shuffle(ops)
        return ops

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def traced_pairs(self, seconds: float) -> int:
        return max(1, round(seconds / self.traced_pair_s))


WORKLOADS = {w.name: w for w in (
    Workload("verify-sweep", verify_sweep_round, 70, round_s=10.0, traced_pair_s=15.0),
    Workload("fault-matrix", fault_matrix_round, 90, round_s=6.0, traced_pair_s=14.0),
    Workload("cli-reports", cli_reports_round, 95, round_s=1.5, traced_pair_s=2.5),
)}


# ---------------------------------------------------------------------------
# execution

class Attempt(NamedTuple):
    latency_s: float
    output: object
    error: str | None


def execute(op, run: Callable | None = None) -> Attempt:
    """Time one op and check its output; any exception is a failed op."""
    run = op.run if run is None else run
    start = time.perf_counter()
    try:
        output = run()
    except Exception as error:  # a crashing op is a failed op, never a skipped one
        return Attempt(time.perf_counter() - start, None,
                       f"{op.label()}: {type(error).__name__}: {error}")
    latency = time.perf_counter() - start
    try:
        problem = op.check(output)
    except Exception as error:  # output the checks cannot parse
        problem = f"unreadable output: {type(error).__name__}: {error}"
    return Attempt(latency, output, None if problem is None else f"{op.label()}: {problem}")
