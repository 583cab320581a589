"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1 2 3 4 5 [--seconds S]

Run from the repository root.  Each run's record and result are printed
as one JSON line; then, per metric, the median and the spread.  The
spread of a metric is the distance between the first and third quartiles
of its values, as ``statistics.quantiles(values, n=4)`` gives them,
divided by their median.  It is printed next to the metric's bound from BENCHMARK.json;
the benchmark is steady when each spread stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        print(json.dumps({**record, "result": result}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in benchmark["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:>12}  median {median:<12.6g} spread {spread:.4f}  "
              f"bound {metric['bound']}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
