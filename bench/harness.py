"""Measurement loops of the benchmark: timed runs and traced runs.

Needs ``src`` on ``sys.path``; ``run.py`` puts it there.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
SETUP_ARGV = ("classify", "--k2", "8", "--chi", "7")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, ``q`` in percent."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def incorrect(op, error: str | None) -> bool:
    """An error on the unmodified program, as opposed to a fault that escaped.

    A faulted verification run checks the identity suite, not the
    calculator: when the fault slips past every check the op fails, but
    no output of the program as shipped was wrong.
    """
    return error is not None and getattr(op, "fault", None) is None


class Tally:
    """Attempted ops, their failures, and the failures that are wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect = 0

    def add(self, op, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)
            self.incorrect += incorrect(op, error)


def measure_setup(tally: Tally, pace: Pace) -> tuple[list[float], list[float]]:
    """Cold starts of ``python -m horikawa.cli classify --k2 8 --chi 7``: paced, wall."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    op = workloads.classify_op(8, 7, "text")
    paced, wall = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "horikawa.cli", *SETUP_ARGV], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60, check=False)
        wall.append(time.perf_counter() - start)
        paced.append(pace.scale(wall[-1]))
        attempt = workloads.execute(
            op, lambda: workloads.CliResult(done.returncode, done.stdout, None))
        tally.add(op, attempt.error and f"cold start: {attempt.error}")
    return paced, wall


def latency_metrics(latencies: list[float], round_sizes: list[int], q: float) -> dict:
    rates, i = [], 0
    for size in round_sizes:
        rates.append(size / sum(latencies[i:i + size]))
        i += size
    return {"ops_per_s": statistics.median(rates),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * percentile(latencies, q)}


def run_timed(workload, seed: int, seconds: int) -> tuple[dict, dict, Tally]:
    """The rounds that fill ``seconds`` nominally; end-to-end metrics at reference pace."""
    tally = Tally()
    pace = Pace()
    setup, setup_wall = measure_setup(tally, pace)
    paced, wall, round_sizes = [], [], []
    start = time.perf_counter()
    for index in range(workload.rounds(seconds)):
        ops = workload.round(seed, index)
        for op in ops:
            attempt = workloads.execute(op)
            wall.append(attempt.latency_s)
            paced.append(pace.scale(attempt.latency_s))
            tally.add(op, attempt.error)
        round_sizes.append(len(ops))
    q = workload.tail_percentile
    metrics = {"setup_s": statistics.median(setup),
               **latency_metrics(paced, round_sizes, q),
               "ok_ops_frac": 1 - len(tally.failures) / tally.attempted,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    tail = percentile(paced, q)
    record = {
        "rounds": len(round_sizes),
        "run_wall_s": time.perf_counter() - start,
        "samples": {"setup_s": len(setup), "ops_per_s": len(round_sizes),
                    "op_p50_ms": len(paced), "op_tail_ms": len(paced),
                    "ok_ops_frac": tally.attempted, "peak_rss_mb": 1},
        "op_tail_percentile": q,
        "op_tail_samples_beyond": sum(1 for x in paced if x > tail),
        "failed_ops_frac": len(tally.failures) / tally.attempted,
        "pace_kernel_s": statistics.median(pace.samples),
        "wall": {"setup_s": statistics.median(setup_wall),
                 **latency_metrics(wall, round_sizes, q)},
    }
    return metrics, record, tally


def layer_metrics(summary: dict, attempts) -> dict:
    """Per-layer metrics of one traced pass."""
    def count(*names):
        return sum(summary[n]["count"] for n in names if n in summary)

    def layer(name):
        return sum(v["count"] for n, v in summary.items() if n.split(".")[0] == name)

    def self_s(name):
        return sum(v["self_s"] for n, v in summary.items() if n.split(".")[0] == name)

    def total_s(name):
        return summary[name]["total_s"] if name in summary else 0.0

    verify_outcomes = [(a.output, op) for op, a in attempts
                       if a.output is not None and isinstance(op, workloads.VerifyOp)]
    faulted = [outcome for outcome, op in verify_outcomes if op.fault is not None]
    cli_outputs = [(a.output.stdout, op.fmt) for op, a in attempts
                   if a.output is not None and isinstance(op, workloads.CliOp)]
    return {
        "lattice.calls": layer("lattice"),
        "lattice.pairings": count("lattice.DivisorClass.dot"),
        "lattice.classes_built": count("lattice.DivisorClass.__post_init__"),
        "lattice.h0_calls": count("lattice.h0"),
        "lattice.self_s": self_s("lattice"),
        "covers.calls": layer("covers"),
        "covers.self_s": self_s("covers"),
        "stable.calls": layer("stable"),
        "stable.self_s": self_s("stable"),
        "catalog.builds": count("catalog.build_component_one", "catalog.build_component_two",
                                "catalog.build_stable", "catalog.epsilon_family"),
        "catalog.certificates": count("catalog.ampleness_certificate",
                                      "catalog.nef_certificate"),
        "catalog.self_s": self_s("catalog"),
        "verify.runs": count("verify.run_verification"),
        "verify.checks_failed": sum(not c.passed for o, _ in verify_outcomes for c in o.checks),
        "verify.self_s": self_s("verify"),
        "faults.injections": count("faults.injected"),
        "faults.caught_frac": (sum(not o.passed for o in faulted) / len(faulted)
                               if faulted else 0.0),
        "faults.self_s": self_s("faults"),
        "reporting.encode_s": total_s("reporting.Report.to_json"),
        "reporting.decode_s": total_s("reporting.Report.from_json"),
        "reporting.render_s": total_s("reporting.render_text"),
        "reporting.json_bytes": sum(len(s.encode()) for s, f in cli_outputs if f == "json"),
        "reporting.text_bytes": sum(len(s.encode()) for s, f in cli_outputs if f == "text"),
        "cli.calls": layer("cli"),
        "cli.self_s": self_s("cli"),
    }


def run_traced(workload, seed: int, seconds: int) -> tuple[dict, dict, Tally]:
    """Traced and untraced passes over round 0, in turn, as many as fill ``seconds``.

    Counts come from the first traced pass; times are medians over passes.
    Times are wall-clock: traced and untraced passes alternate, so a
    drift in the host's speed reaches both alike.
    """
    ops = workload.round(seed, 0)
    tally = Tally()
    tracer = spans.Tracer()
    passes = {True: [], False: []}  # traced? -> [(pass seconds, layer metrics)]
    reference = None
    for _ in range(workload.traced_pairs(seconds)):
        for traced in (True, False):
            if traced:
                tracer.install()
            try:
                attempts = [(op, workloads.execute(op)) for op in ops]
            finally:
                tracer.uninstall()
            for op, attempt in attempts:
                tally.add(op, attempt.error)
            digests = [None if a.output is None else op.digest(a.output) for op, a in attempts]
            if reference is None:
                reference = digests
            elif digests != reference:
                tally.failures.append("traced and untraced passes gave different outputs")
                tally.incorrect += 1
            metrics = None
            if traced:
                metrics = layer_metrics(tracer.summary(), attempts)
                if not passes[True]:
                    OUT.mkdir(exist_ok=True)
                    tracer.dump(OUT / f"spans-{workload.name}.bin")
                tracer.reset()
            passes[traced].append((sum(a.latency_s for _, a in attempts), metrics))
    traced_passes = [m for _, m in passes[True]]
    metrics = {name: statistics.median(m[name] for m in traced_passes)
               if name.endswith("_s") else value
               for name, value in traced_passes[0].items()}
    metrics["trace.overhead_frac"] = (statistics.median(t for t, _ in passes[True])
                                      / statistics.median(t for t, _ in passes[False]) - 1)
    samples = {name: len(traced_passes) if name.endswith("_s") else 1 for name in metrics}
    samples["trace.overhead_frac"] = len(passes[True]) + len(passes[False])
    record = {"ops_per_pass": len(ops), "traced_passes": len(passes[True]),
              "untraced_passes": len(passes[False]), "samples": samples,
              "failed_ops_frac": len(tally.failures) / tally.attempted}
    return metrics, record, tally
