"""Per-check and lattice-kernel timings of horikawa, printed as one JSON object.

    PYTHONPATH=src python3 tools/layer_times.py [--repeat N] [--against PATH]

Standard library only; run from the repository root, or with any
``horikawa`` on the path.  Every figure is the best of ``--repeat`` timed
passes with ``time.perf_counter``, after one untimed pass that fills the
per-process sample caches of ``verify``.

``--against PATH`` imports the checkout at ``PATH`` (its ``src/horikawa``)
as the package ``horikawa_base`` and times both packages in this process,
alternating one pass of every figure of each ``--repeat`` times.  Each
figure then reads ``{"change": ..., "base": ..., "ratio": change/base}``,
where the change is the ``horikawa`` on the path.

``per_check`` times each check of ``run_verification`` as the real run
calls it (the registered check functions are wrapped for the duration of
the call), together with the whole run, at each range of ``RANGES``.

``kernels_us`` times the lattice kernels in microseconds per call:
``divisor``, ``dot`` and ``+`` over the 400 classes of the
``lattice-symmetry-bilinearity`` sample, and ``dot``, ``+`` and a dense
``divisor`` at Picard rank 10^5 (the plane blown up at 99,999 points)
on classes of 1 and of 1,000 exceptional runs.

``report_us`` times the report layer in microseconds per call:
``to_jsonable``, ``to_json``, ``from_json`` and ``render_text`` on the
reports of the ``REPORTS`` commands (the two large constructs of the
``cli-reports`` benchmark workload and a default ``verify-paper``), each
read back from the JSON that ``cli.main`` prints.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import platform
import random
import sys
import time
import types
from pathlib import Path

RANGES = ((6, 2), (16, 4), (36, 7), (150, 50), (300, 100), (600, 200))
REPORTS = {
    "construct_component_I_chi20000": ("construct", "component-I", "--chi", "20000"),
    "construct_stable_chi15700": ("construct", "stable", "--chi", "15700"),
    "verify_paper_30_6": ("verify-paper", "--chi-max", "30", "--k-max", "6"),
}
BIG_RANK = 10**5
BIG_RUN_COUNTS = (1, 1000)


def best(fn, repeat: int, number: int = 1) -> float:
    """Best time of one call of ``fn`` in seconds, over ``repeat`` passes of ``number`` calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def load(name: str) -> types.SimpleNamespace:
    """The modules of the imported package ``name`` that the figures use."""
    return types.SimpleNamespace(**{module: importlib.import_module(f"{name}.{module}")
                                    for module in ("cli", "lattice", "reporting", "verify")})


def load_checkout(root: str, name: str = "horikawa_base") -> types.SimpleNamespace:
    """The package in ``root``/src/horikawa, imported under the name ``name``."""
    init = Path(root, "src", "horikawa", "__init__.py").resolve()
    if not init.is_file():
        raise SystemExit(f"--against: no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return load(name)


def per_check(pkg, chi_max: int, k_max: int, repeat: int) -> dict:
    verify = pkg.verify
    registered = list(verify._CHECKS)
    spent = {name: [] for name, _identity, _fn in registered}
    runs = []

    def timed(name, fn):
        def run(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name].append(time.perf_counter() - start)
        return run

    verify._CHECKS[:] = [(name, identity, timed(name, fn)) for name, identity, fn in registered]
    try:
        verify.run_verification(chi_max, k_max)  # fills the sample caches
        for times in spent.values():
            times.clear()
        for _ in range(repeat):
            start = time.perf_counter()
            outcome = verify.run_verification(chi_max, k_max)
            runs.append(time.perf_counter() - start)
            if not all(check.passed for check in outcome.checks):
                raise SystemExit(f"a check failed at ({chi_max},{k_max})")
    finally:
        verify._CHECKS[:] = registered
    return {"run_ms": round(min(runs) * 1e3, 3),
            "checks_ms": {name: round(min(times) * 1e3, 3) for name, times in spent.items()}}


def sample_kernels(pkg, repeat: int) -> dict:
    """``divisor``, ``dot`` and ``+`` over the bilinearity sample, per call."""
    lattice, verify = pkg.lattice, pkg.verify
    surfaces = verify._sample_surfaces()
    draws = verify._bilinearity_draws(tuple(map(lattice.picard_rank, surfaces)))
    vectors = [(surfaces[n % len(surfaces)], u, v) for n, (u, v, _w, _m) in enumerate(draws)]
    pairs = [(s.divisor(u), s.divisor(v)) for s, u, v in vectors]
    count = len(pairs)
    return {
        "divisor": best(lambda: [s.divisor(u) for s, u, _v in vectors], repeat, 5) / count,
        "dot": best(lambda: [a.dot(b) for a, b in pairs], repeat, 5) / count,
        "add": best(lambda: [a + b for a, b in pairs], repeat, 5) / count,
    }


def random_runs(rng: random.Random, run_count: int, total: int) -> tuple:
    """``run_count`` canonical runs of seeded values covering ``total`` positions."""
    cuts = sorted(rng.sample(range(1, total), run_count - 1))
    runs, start = [], 0
    for end in cuts + [total]:
        value = rng.randint(-5, 5)
        while runs and value == runs[-1][0]:
            value = rng.randint(-5, 5)
        runs.append((value, end - start))
        start = end
    return tuple(runs)


def big_kernels(pkg, repeat: int) -> dict:
    """``dot``, ``+`` and dense ``divisor`` at rank 10^5, per call."""
    lattice = pkg.lattice
    surface = lattice.blow_up(lattice.ProjectivePlane(), BIG_RANK - 1)
    rng = random.Random(20261018)
    timings = {}
    for run_count in BIG_RUN_COUNTS:
        a, b = (lattice.DivisorClass(surface, (rng.randint(-5, 5),),
                                     random_runs(rng, run_count, BIG_RANK - 1))
                for _ in range(2))
        if (a + b) - b != a or a.dot(b) != b.dot(a) or surface.divisor(a.coeffs) != a:
            raise SystemExit("rank 10^5 arithmetic is inconsistent")
        dense = a.coeffs
        timings[f"{run_count}_runs"] = {
            "dot": best(lambda: a.dot(b), repeat, 5),
            "add": best(lambda: a + b, repeat, 5),
            "divisor_dense": best(lambda: surface.divisor(dense), repeat),
        }
    return timings


def report_layer(pkg, repeat: int) -> dict:
    """Encode, decode and render of each ``REPORTS`` report, per call."""
    Report, render_text = pkg.reporting.Report, pkg.reporting.render_text
    timings = {}
    for name, argv in REPORTS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            if pkg.cli.main([*argv, "--format", "json"]) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
        text = stdout.getvalue()
        report = Report.from_json(text)
        if report.to_json() != text:
            raise SystemExit(f"{' '.join(argv)}: the report does not re-encode to itself")
        timings[name] = {
            "json_bytes": len(text),
            "to_jsonable": best(report.to_jsonable, repeat, 50),
            "to_json": best(report.to_json, repeat, 50),
            "from_json": best(lambda: Report.from_json(text), repeat, 50),
            "render_text": best(lambda: render_text(report), repeat, 50),
        }
    return timings


def us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def figures(pkg, repeat: int) -> dict:
    """Every figure of one package, each the best of ``repeat`` passes."""
    return {
        "per_check": {f"{chi},{k}": per_check(pkg, chi, k, repeat) for chi, k in RANGES},
        "kernels_us": {
            "bilinearity_sample": {name: us(t)
                                   for name, t in sample_kernels(pkg, repeat).items()},
            "rank_1e5": {runs: {name: us(t) for name, t in timings.items()}
                         for runs, timings in big_kernels(pkg, repeat).items()},
        },
        "report_us": {name: {key: value if key == "json_bytes" else us(value)
                             for key, value in timings.items()}
                      for name, timings in report_layer(pkg, repeat).items()},
    }


def lowest(passes: list):
    """The figures of several passes, each figure the lowest of its passes."""
    if isinstance(passes[0], dict):
        return {key: lowest([one[key] for one in passes]) for key in passes[0]}
    return min(passes)


def compare(change, base):
    """Each figure of ``change`` next to that of ``base`` and their ratio."""
    if isinstance(change, dict):
        return {key: compare(value, base.get(key) if isinstance(base, dict) else None)
                for key, value in change.items()}
    return {"change": change, "base": base,
            "ratio": round(change / base, 3) if base else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed passes per figure")
    parser.add_argument("--against", metavar="PATH",
                        help="a second checkout, timed alternately in this process")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    change = load("horikawa")
    report = {"python": platform.python_version(), "repeat": args.repeat}
    if args.against is None:
        report.update(figures(change, args.repeat))
    else:
        base = load_checkout(args.against)
        passes = {"change": [], "base": []}
        for _ in range(args.repeat):
            passes["change"].append(figures(change, 1))
            passes["base"].append(figures(base, 1))
        report["against"] = args.against
        report.update(compare(lowest(passes["change"]), lowest(passes["base"])))
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
