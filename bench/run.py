"""Closed-loop benchmark of the horikawa package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller drives the package in-process
through its public functions, one op at a time.  The run does the whole
rounds of seeded ops that nominally fill ``--seconds`` (a fixed count per
workload, so the ops of a run never depend on the host's speed), checks
every output against closed forms, and prints a record line (seed, source, Python,
nproc, sample counts, failures) followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference pace of the host (see ``pace.py``); the
record also gives them as wall-clock times.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken
from alternating traced and untraced passes over the seed's first round.
``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "horikawa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def result_line(spec: list[dict], metrics: dict, tally) -> dict:
    if set(metrics) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {"correct": tally.incorrect == 0, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec}}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "horikawa" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in names:
            done = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], check=False)
            if done.returncode:
                return done.returncode
        return 0

    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, record, tally = harness.run_traced(workload, args.seed, args.seconds)
        spec = benchmark["per_layer"]
    else:
        metrics, record, tally = harness.run_timed(workload, args.seed, args.seconds)
        spec = benchmark["end_to_end"]
    record = {**environment(args.workload, args.seed, args.seconds, args.trace), **record,
              "failures": tally.failures[:20]}
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(spec, metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
