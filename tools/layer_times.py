"""Per-check, kernel, builder, record, report, command and cold-start timings, as JSON.

    PYTHONPATH=src python3 tools/layer_times.py [--repeat N] [--against PATH]

Standard library only; run from the repository root, or with any
``horikawa`` on the path.  Every figure is the best of ``--repeat`` timed
passes with ``time.perf_counter``, after one untimed pass that fills the
per-process sample caches of ``verify``.

``--against PATH`` imports the checkout at ``PATH`` (its ``src/horikawa``)
as the package ``horikawa_base`` and times both packages in this process.
Each pass of a figure times the two packages back to back, the change
first on even passes and the base first on odd ones.  Each figure then
reads ``{"change": ..., "base": ..., "median_ratio": ...,
"ratio_quartiles": [...]}``: the best pass of each package, and the
median and the lower and upper quartiles of the per-pass ratios
change/base, where the change is the ``horikawa`` on the path.  The
median ratio is the figure to compare, and the quartiles size its noise:
the ratio of the two best passes can read far from 1 for identical code.

``per_check`` times each check of ``run_verification`` as the real run
calls it (the registered check functions are wrapped for the duration of
the call), together with the whole run, at each range of ``RANGES``.  From
(24,4) on, each residue class of chi mod 3 holds more cases than the
break-even of ``verify``'s stable checks, so each runs as one symbolic
case, and from (36,7) on so does each class of component I's cover (two
of the three at (24,4)); (6,2) and (16,4) run every chi as an int.  The
classification by chi runs by class of chi mod 12 from (100,6) on, and
the parity check's cases too, but from (16,4) on it reads each case's
fibers from the run's cover of chi or of its class of chi mod 3 and
builds no cover of its own.
Each pass makes ``RUNS_PER_PASS`` back-to-back runs of each package, and
its figures are the means per run.

``builds`` counts the calls of each builder of ``BUILDERS`` (component
I's cover, the stable surface and component II) in one clean run at
each range of ``RANGES``, for each package that has the builder.  A
count is exact, so it is the same in every pass and is taken once.

``kernels_us`` times the lattice kernels in microseconds per call, on
the data of each lattice sample check of ``verify`` and at rank 10^5.
``bilinearity_sample`` times ``divisor``, ``dot``, ``+``, ``-`` and
``3 * a`` (``scale``) over the 400 draws of the
``lattice-symmetry-bilinearity`` sample, apart on the root surfaces
(``root``: the plane and F_0, F_1, F_3, whose classes have no runs) and
on the blow-ups (``blow_up``).  ``isometry_sample`` times ``pullback``
and the ``dot`` of two pullbacks over the 360 pairs of the
``lattice-pullback-isometry`` sample (``ISOMETRY_E``).  ``oracle_grid``
times ``divisor`` and ``h0`` over the 334 classes of the
``lattice-section-count-oracle`` grid (``ORACLE_GRID``).  ``rank_1e5``
times ``dot``, ``+`` and a dense ``divisor`` at Picard rank 10^5 (the
plane blown up at 99,999 points) on classes of 1 and of 1,000
exceptional runs.

``builds_us`` times ``catalog.build_component_one``,
``catalog.build_stable``, ``catalog.build_component_two`` and
``catalog.epsilon_family`` in microseconds per call at each argument of
``BUILDS``: chi 150 and 15,700, for component-II the k whose
chi = 4k + 3 is nearest to them, and for the epsilon family (chi,
epsilon) = (150, 1) and (150, 100), the bottom and the top of its range
at chi 150, as the ``stable-epsilon-bound`` check calls it.  A figure's
key is its arguments joined by commas.  Each pass makes as many calls as
fill about ``BUILD_WINDOW_S`` (5 ms), so a 3 us figure times as long a
window as a 100 us one.  Its ``symbolic`` figures time the two builders
once on the ``Affine`` of ``SYMBOLIC_CLASS``, the residue class chi = 5 +
12t for t in [1, 40] that ``verify`` builds component I on in place of 40
chi, and
``epsilon_family`` once on ``SYMBOLIC_EPSILON``, chi 150 with epsilon the
Affine t for t in [1, 99] that the ``stable-epsilon-bound`` check passes
in place of 99 epsilons, and ``build_component_two`` once on the ``Affine``
of ``SYMBOLIC_K_CLASS``, the residue class k = 1 + 3t for t in [1, 33]
that ``verify`` builds in place of 33 k.  ``epsilon_family_trapezoid``
times ``epsilon_family`` once on the class of ``SYMBOLIC_CLASS`` with
epsilon the ``Planar`` s for 1 <= s <= top - 1, a trapezoid of the shape
that the ``stable-epsilon-bound`` check passes for a class of chi, in
place of its 40 chi's 6,680 epsilons below the top.  A ``--against`` base with no ``records.Affine``
has no symbolic builds, one whose component-II builder refuses an
``Affine`` k has no symbolic component II, and one with no
``records.Planar`` has no trapezoid, so those figures are left out.
``build_stable_mod3`` times ``build_stable`` once on the ``Affine`` of
``SYMBOLIC_STABLE_CLASS``, the residue class chi = 5 + 3t for t in
[1, 160] that ``verify``'s stable checks build in place of 160 chi, and
``component_one_cover_mod3`` times ``catalog._component_one_cover``, the
claimless cover that ``verify``'s three cover checks build, on the same
``Affine``; a base with no ``_component_one_cover`` leaves it out.

``symbolic_us`` times ``<``, ``==`` and ``+`` of ``records`` values in
microseconds per call, each made as one ``operator`` call: under
``affine``, chi = ``Affine(*SYMBOLIC_CLASS)`` against 2 * chi + 2, and
under ``planar``, 3 * epsilon against 2 * chi + 2 on the ``Planar``
epsilon of ``epsilon_family_trapezoid``, the shape of the comparisons
that the ``stable-epsilon-bound`` pass makes; each comparison is
decided, as False.  Each pass fills about ``BUILD_WINDOW_S``; a base
with no ``records.Affine`` or no ``records.Planar`` leaves that kind out.

``records_us`` times one construction of each record class in
microseconds per call, its checked constructor called with the field
values of the first instance of the class found in a ``build_stable``
and a ``build_component_one`` at chi 150 (``RECORD_BUILDS``), so the
cost of each class's fields' test and value rules is one figure.  A
figure's key is the class name; each pass fills about
``BUILD_WINDOW_S``, after one untimed call of each package.

``cli_us`` times ``cli.main`` in microseconds per call on each argv of
``REPORTS``, once with ``--format text`` and once with ``--format json``,
with stdout sent to a ``StringIO``: the command line read, the command
run and its report written.  Each pass makes as many calls as fill about
``BUILD_WINDOW_S``, at least three, after one untimed call, so that a
command longer than the window (``verify_paper_30_6``) is still the
mean of a few calls.

``startup_ms`` is the cold start: the self time in milliseconds of each
package module (and their ``total``) that ``python -X importtime -c
'import horikawa.cli'`` reports, in a new subprocess for each package
and pass.  ``pyc`` reads compiled files written by an untimed start;
``no_pyc`` runs with ``PYTHONDONTWRITEBYTECODE=1`` and an empty
``PYTHONPYCACHEPREFIX``, so every module is compiled from source, as in
a fresh checkout.  Both keep their ``.pyc`` files under a temporary
prefix, outside the checkouts, and each package is imported from its
own ``src``.

``report_us`` times the report layer in microseconds per call:
``to_jsonable``, ``to_json``, ``from_json`` and ``render_text`` on the
reports of the ``REPORTS`` commands, each read back from the JSON that
``cli.main`` prints: the two large constructs of the ``cli-reports``
benchmark workload, a ``classify`` on the line K^2 = 2chi - 6 with two
components (an optional record), a 300-row ``enumerate`` (a tuple of
records) and a small ``verify-paper``, so every payload kind is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

RANGES = ((6, 2), (16, 4), (24, 4), (36, 7), (40, 8), (100, 6), (150, 50), (300, 100),
          (600, 200))
BUILDERS = ("_component_one_cover", "build_stable", "build_component_two")
RUNS_PER_PASS = 5
REPORTS = {
    "construct_component_I_chi20000": ("construct", "component-I", "--chi", "20000"),
    "construct_stable_chi15700": ("construct", "stable", "--chi", "15700"),
    "classify_on_line_chi203": ("classify", "--k2", "400", "--chi", "203"),
    "enumerate_chi_1_300": ("enumerate", "--chi", "1", "--chi-max", "300"),
    "verify_paper_30_6": ("verify-paper", "--chi-max", "30", "--k-max", "6"),
}
# the ruled surfaces of the pullback sample, and the oracle's classes: (e, coefficients) on
# F_e, with e None on the plane
ISOMETRY_E = (0, 1, 2, 4)
ORACLE_GRID = tuple([(e, (a, b)) for e in range(5) for a in range(5) for b in range(13)] +
                    [(None, (d,)) for d in range(9)])
BIG_RANK = 10**5
BIG_RUN_COUNTS = (1, 1000)
BUILDS = {"build_component_one": ((150,), (15700,)), "build_stable": ((150,), (15700,)),
          "build_component_two": ((37,), (3924,)), "epsilon_family": ((150, 1), (150, 100))}
SYMBOLIC_CLASS = (5, 12, 1, 40)
SYMBOLIC_K_CLASS = (1, 3, 1, 33)
SYMBOLIC_STABLE_CLASS = (5, 3, 1, 160)
SYMBOLIC_EPSILON = (150, (0, 1, 1, 99))
BUILD_WINDOW_S = 0.005
RECORD_BUILDS = (("build_stable", 150), ("build_component_one", 150))


def passes(fns, repeat: int, number: int = 1, scale: float = 1.0) -> list:
    """Per-pass times of one call of each of ``fns``, in seconds times ``scale``.

    Each of the ``repeat`` passes makes ``number`` calls of every function,
    back to back: in order on even passes and in reverse on odd ones, so
    that no function always runs first.
    """
    times = [[] for _ in fns]
    for n in range(repeat):
        for i in (range(len(fns)) if n % 2 == 0 else reversed(range(len(fns)))):
            start = time.perf_counter()
            for _ in range(number):
                fns[i]()
            times[i].append((time.perf_counter() - start) / number * scale)
    return times


def load(name: str) -> types.SimpleNamespace:
    """The modules of the imported package ``name`` that the figures use, and its ``src``."""
    modules = {module: importlib.import_module(f"{name}.{module}")
               for module in ("catalog", "cli", "lattice", "records", "reporting", "verify")}
    return types.SimpleNamespace(**modules, src=Path(modules["cli"].__file__).parents[1])


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


def per_check(pkgs, chi_max: int, k_max: int, repeat: int) -> dict:
    """The whole run and each check as the run calls it, in ms per run, for each package."""
    registered = [list(pkg.verify._CHECKS) for pkg in pkgs]
    names = dict.fromkeys(name for checks in registered for name, _identity, _fn in checks)
    spent = {name: [[] for _ in pkgs] for name in names}

    def timed(times, fn):
        def run(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                times.append((time.perf_counter() - start) * 1e3)
        return run

    def run(verify):
        def call():
            outcome = verify.run_verification(chi_max, k_max)
            if not all(check.passed for check in outcome.checks):
                raise SystemExit(f"a check failed at ({chi_max},{k_max})")
        return call

    for i, (pkg, checks) in enumerate(zip(pkgs, registered)):
        pkg.verify._CHECKS[:] = [(name, identity, timed(spent[name][i], fn))
                                 for name, identity, fn in checks]
    try:
        for pkg in pkgs:
            pkg.verify.run_verification(chi_max, k_max)  # fills the sample caches
        for per_package in spent.values():
            for times in per_package:
                times.clear()
        runs = passes([run(pkg.verify) for pkg in pkgs], repeat, RUNS_PER_PASS, 1e3)
    finally:
        for pkg, checks in zip(pkgs, registered):
            pkg.verify._CHECKS[:] = checks
    # a run calls each check once, and a pass's runs of one package are back to back
    return {"run_ms": runs, "checks_ms": {
        name: [[sum(times[n:n + RUNS_PER_PASS]) / RUNS_PER_PASS
                for n in range(0, len(times), RUNS_PER_PASS)] for times in per_package]
        for name, per_package in spent.items()}}


def build_counts(pkgs, chi_max: int, k_max: int) -> dict:
    """The calls of each ``BUILDERS`` builder that every package has, in one clean run."""
    names = [name for name in BUILDERS if all(hasattr(pkg.catalog, name) for pkg in pkgs)]
    counts = {name: [] for name in names}
    for pkg in pkgs:
        made = dict.fromkeys(names, 0)
        saved = {name: getattr(pkg.catalog, name) for name in names}

        def counting(name, build):
            def call(*args, **kwargs):
                made[name] += 1
                return build(*args, **kwargs)
            return call

        for name, build in saved.items():
            setattr(pkg.catalog, name, counting(name, build))
        try:
            outcome = pkg.verify.run_verification(chi_max, k_max)
        finally:
            for name, build in saved.items():
                setattr(pkg.catalog, name, build)
        if not all(check.passed for check in outcome.checks):
            raise SystemExit(f"a check failed at ({chi_max},{k_max})")
        for name in names:
            counts[name].append([made[name]])
    return counts


def sample_source(pkg):
    """The module with ``pkg``'s seeded samples: ``samples``, or ``verify`` in a checkout
    from before that module, under the names ``samples`` gives them."""
    try:
        return importlib.import_module(f"{pkg.verify.__package__}.samples")
    except ModuleNotFoundError:
        verify = pkg.verify
        return types.SimpleNamespace(
            sample_surfaces=verify._sample_surfaces, bilinearity_draws=verify._bilinearity_draws,
            isometry_draws=verify._isometry_draws,
            ISOMETRY_POINT_COUNTS=verify._ISOMETRY_POINT_COUNTS)


def class_kernels(vectors, repeat: int) -> dict:
    """``divisor``, ``dot``, ``+``, ``-`` and ``3 * a`` over each package's (surface, u, v)
    list, in us per class."""
    pairs = [[(s.divisor(u), s.divisor(v)) for s, u, v in vs] for vs in vectors]
    scale = 1e6 / len(vectors[0])
    return {
        "divisor": passes([lambda vs=vs: [s.divisor(u) for s, u, _v in vs] for vs in vectors],
                          repeat, 5, scale),
        "dot": passes([lambda ps=ps: [a.dot(b) for a, b in ps] for ps in pairs],
                      repeat, 5, scale),
        "add": passes([lambda ps=ps: [a + b for a, b in ps] for ps in pairs],
                      repeat, 5, scale),
        "sub": passes([lambda ps=ps: [a - b for a, b in ps] for ps in pairs],
                      repeat, 5, scale),
        "scale": passes([lambda ps=ps: [3 * a for a, _b in ps] for ps in pairs],
                        repeat, 5, scale),
    }


def sample_kernels(pkgs, repeat: int) -> dict:
    """The kernels of the three lattice sample checks on the data each check runs, in us."""
    root, blown, isometry, grid = [], [], [], []
    for pkg in pkgs:
        lattice, source = pkg.lattice, sample_source(pkg)
        surfaces = source.sample_surfaces()
        draws = source.bilinearity_draws(tuple(map(lattice.picard_rank, surfaces)))
        vectors = [(surfaces[n % len(surfaces)], u, v) for n, (u, v, _w, _m) in enumerate(draws)]
        root.append([case for case in vectors if type(case[0]) is not lattice.BlowUp])
        blown.append([case for case in vectors if type(case[0]) is lattice.BlowUp])
        ruled_surfaces = [lattice.Hirzebruch(e) for e in ISOMETRY_E]
        draws = source.isometry_draws(tuple(map(lattice.picard_rank, ruled_surfaces)))
        isometry.append([(lattice.blow_up(ruled, n), ruled.divisor(v1), ruled.divisor(v2))
                         for ruled, per_count in zip(ruled_surfaces, draws)
                         for n, pairs in zip(source.ISOMETRY_POINT_COUNTS, per_count)
                         for v1, v2 in pairs])
        grid.append([(lattice.ProjectivePlane() if e is None else lattice.Hirzebruch(e))
                     .divisor(coeffs) for e, coeffs in ORACLE_GRID])
    pullbacks = [[(pkg.lattice.pullback(s, d1), pkg.lattice.pullback(s, d2))
                  for s, d1, d2 in cases] for pkg, cases in zip(pkgs, isometry)]
    per_pair, per_class = 1e6 / len(isometry[0]), 1e6 / len(grid[0])
    return {
        "bilinearity_sample": {"root": class_kernels(root, repeat),
                               "blow_up": class_kernels(blown, repeat)},
        "isometry_sample": {
            "pullback": passes([lambda pull=pkg.lattice.pullback, cases=cases:
                                [pull(s, d1) for s, d1, _d2 in cases]
                                for pkg, cases in zip(pkgs, isometry)], repeat, 5, per_pair),
            "dot": passes([lambda ps=ps: [p1.dot(p2) for p1, p2 in ps] for ps in pullbacks],
                          repeat, 5, per_pair),
        },
        "oracle_grid": {
            "divisor": passes([lambda ds=ds: [d.surface.divisor(d.head) for d in ds]
                               for ds in grid], repeat, 5, per_class),
            "h0": passes([lambda h0=pkg.lattice.h0, ds=ds: [h0(d) for d in ds]
                          for pkg, ds in zip(pkgs, grid)], repeat, 5, per_class),
        },
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


def big_operands(pkg) -> dict:
    """Per run count, the rank 10^5 surface and two seeded classes on it."""
    lattice = pkg.lattice
    surface = lattice.blow_up(lattice.ProjectivePlane(), BIG_RANK - 1)
    rng = random.Random(20261018)
    operands = {}
    for run_count in BIG_RUN_COUNTS:
        a, b = (lattice.DivisorClass(surface, (rng.randint(-5, 5),),
                                     random_runs(rng, run_count, BIG_RANK - 1))
                for _ in range(2))
        if (a + b) - b != a or a.dot(b) != b.dot(a) or surface.divisor(a.coeffs) != a:
            raise SystemExit("rank 10^5 arithmetic is inconsistent")
        operands[run_count] = (surface, a, b)
    return operands


def big_kernels(pkgs, repeat: int) -> dict:
    """``dot``, ``+`` and dense ``divisor`` at rank 10^5, in us per call."""
    operands = [big_operands(pkg) for pkg in pkgs]
    timings = {}
    for run_count in BIG_RUN_COUNTS:
        triples = [per_package[run_count] for per_package in operands]
        timings[f"{run_count}_runs"] = {
            "dot": passes([lambda a=a, b=b: a.dot(b) for _s, a, b in triples], repeat, 5, 1e6),
            "add": passes([lambda a=a, b=b: a + b for _s, a, b in triples], repeat, 5, 1e6),
            "divisor_dense": passes([lambda s=s, dense=a.coeffs: s.divisor(dense)
                                     for s, a, _b in triples], repeat, scale=1e6),
        }
    return timings


def builds(pkgs, repeat: int) -> dict:
    """Each builder of ``BUILDS`` at each of its arguments, the two builders on
    ``SYMBOLIC_CLASS``, the epsilon family on ``SYMBOLIC_EPSILON`` and on the trapezoid
    over ``SYMBOLIC_CLASS``, component II on ``SYMBOLIC_K_CLASS`` where every
    package builds them, and the stable builder and component I's cover, where every
    package has one, on ``SYMBOLIC_STABLE_CLASS``, in us per call.

    A pass makes as many calls of each package as fill about ``BUILD_WINDOW_S``,
    at least 20.
    """
    figures = {}
    for name, calls in BUILDS.items():
        for args in calls:
            fns = [lambda build=getattr(pkg.catalog, name), args=args: build(*args)
                   for pkg in pkgs]
            figures.setdefault(name, {})[",".join(map(str, args))] = windowed(fns, repeat, 20)
    if all(hasattr(pkg.records, "Affine") for pkg in pkgs):
        figures["symbolic"] = {
            name: windowed([lambda build=getattr(pkg.catalog, name), affine=pkg.records.Affine:
                            build(affine(*SYMBOLIC_CLASS)) for pkg in pkgs], repeat, 20)
            for name in ("build_component_one", "build_stable")}
        figures["symbolic"]["build_stable_mod3"] = windowed(
            [lambda build=pkg.catalog.build_stable, affine=pkg.records.Affine:
             build(affine(*SYMBOLIC_STABLE_CLASS)) for pkg in pkgs], repeat, 20)
        if all(hasattr(pkg.catalog, "_component_one_cover") for pkg in pkgs):
            figures["symbolic"]["component_one_cover_mod3"] = windowed(
                [lambda build=pkg.catalog._component_one_cover, affine=pkg.records.Affine:
                 build(affine(*SYMBOLIC_STABLE_CLASS)) for pkg in pkgs], repeat, 20)
        chi, epsilon = SYMBOLIC_EPSILON
        figures["symbolic"]["epsilon_family"] = windowed(
            [lambda family=pkg.catalog.epsilon_family, affine=pkg.records.Affine:
             family(chi, affine(*epsilon)) for pkg in pkgs], repeat, 20)
        fns = [lambda build=pkg.catalog.build_component_two, affine=pkg.records.Affine:
               build(affine(*SYMBOLIC_K_CLASS)) for pkg in pkgs]
        try:
            for fn in fns:
                fn()
        except (TypeError, ValueError):  # a base whose records refuse an Affine k
            pass
        else:
            figures["symbolic"]["build_component_two"] = windowed(fns, repeat, 20)
        if all(hasattr(pkg.records, "Planar") for pkg in pkgs):
            fns = []
            for pkg in pkgs:
                chi = pkg.records.Affine(*SYMBOLIC_CLASS)
                epsilon = pkg.records.Planar(0, 0, 1, (2 * chi + 2) // 3 - 1)
                fns.append(functools.partial(pkg.catalog.epsilon_family, chi, epsilon))
            figures["symbolic"]["epsilon_family_trapezoid"] = windowed(fns, repeat, 20)
    return figures


def symbolic(pkgs, repeat: int) -> dict:
    """``<``, ``==`` and ``+`` on an Affine and on a Planar of the epsilon pass's shape,
    each where every package has it, in us per call."""
    operands = {"affine": [], "planar": []}
    for records in (pkg.records for pkg in pkgs if hasattr(pkg.records, "Affine")):
        chi = records.Affine(*SYMBOLIC_CLASS)
        operands["affine"].append((chi, 2 * chi + 2))
        if hasattr(records, "Planar"):
            epsilon = records.Planar(0, 0, 1, (2 * chi + 2) // 3 - 1)
            operands["planar"].append((3 * epsilon, 2 * chi + 2))
    ops = {"lt": operator.lt, "eq": operator.eq, "add": operator.add}
    return {kind: {name: windowed([functools.partial(op, x, y) for x, y in pairs], repeat, 100)
                   for name, op in ops.items()}
            for kind, pairs in operands.items() if len(pairs) == len(pkgs)}


def record_samples(pkg) -> dict:
    """The first instance of each record class that a ``RECORD_BUILDS`` build reaches, by name."""
    found = {}

    def visit(value):
        if hasattr(type(value), "_fields"):
            found.setdefault(type(value).__name__, value)
            for name in type(value)._fields:
                visit(getattr(value, name))
        elif isinstance(value, (tuple, frozenset)):
            for entry in value:
                visit(entry)

    for name, arg in RECORD_BUILDS:
        visit(getattr(pkg.catalog, name)(arg))
    return found


def records(pkgs, repeat: int) -> dict:
    """One construction of each sampled record class from its fields, in us per call."""
    samples = [record_samples(pkg) for pkg in pkgs]
    figures = {}
    for name in samples[0]:
        if not all(name in sample for sample in samples):
            continue  # a class that one of the packages does not have
        fns = [functools.partial(type(record), *(getattr(record, field)
                                                for field in type(record)._fields))
               for record in (sample[name] for sample in samples)]
        for fn in fns:
            fn()  # untimed, so that no timed pass generates a fields' test
        figures[name] = windowed(fns, repeat, 20)
    return figures


def windowed(fns, repeat: int, minimum: int) -> list:
    """``passes`` in us per call, each making as many calls as fill about ``BUILD_WINDOW_S``.

    The count, at least ``minimum``, comes from the first function's best of
    three ``minimum``-call passes.
    """
    number = max(minimum, round(BUILD_WINDOW_S / min(passes(fns[:1], 3, minimum)[0])))
    return passes(fns, repeat, number, 1e6)


def import_times(src: Path, env: dict) -> dict:
    """Self time in ms of each package module, and their total, in one cold start."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import horikawa.cli"],
                            env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                            check=True)
    times = {}
    for line in result.stderr.splitlines():
        self_us, _cumulative, module = line.removeprefix("import time:").split("|")
        module = module.strip()
        if module.split(".")[0] == "horikawa":
            times[module] = int(self_us) / 1e3
    times["total"] = sum(times.values())
    return times


def startup(pkgs, repeat: int) -> dict:
    """Per-module import self times with and without ``.pyc`` files, in ms per start."""
    figures = {}
    for mode in ("pyc", "no_pyc"):
        with tempfile.TemporaryDirectory() as prefix:
            env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix}
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            if mode == "pyc":
                for pkg in pkgs:
                    import_times(pkg.src, env)  # writes the .pyc files under the prefix
            else:
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            starts = [[] for _ in pkgs]
            for n in range(repeat):
                for i in (range(len(pkgs)) if n % 2 == 0 else reversed(range(len(pkgs)))):
                    starts[i].append(import_times(pkgs[i].src, env))
        modules = dict.fromkeys(name for runs in starts for run in runs for name in run)
        figures[mode] = {name: [[run[name] for run in runs if name in run] for runs in starts]
                         for name in modules}
    return figures


def cli_report(pkg, argv) -> tuple:
    """The JSON text ``cli.main`` prints for ``argv`` and the report read back from it."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if pkg.cli.main([*argv, "--format", "json"]) != 0:
            raise SystemExit(f"{' '.join(argv)} failed")
    text = stdout.getvalue()
    report = pkg.reporting.Report.from_json(text)
    if report.to_json() != text:
        raise SystemExit(f"{' '.join(argv)}: the report does not re-encode to itself")
    return text, report


def report_layer(pkgs, repeat: int) -> dict:
    """Encode, decode and render of each ``REPORTS`` report, in us per call."""
    timings = {}
    for name, argv in REPORTS.items():
        cases = [(pkg.reporting, *cli_report(pkg, argv)) for pkg in pkgs]
        timings[name] = {
            "json_bytes": [[len(text)] for _m, text, _r in cases],
            "to_jsonable": passes([r.to_jsonable for _m, _t, r in cases], repeat, 50, 1e6),
            "to_json": passes([r.to_json for _m, _t, r in cases], repeat, 50, 1e6),
            "from_json": passes([lambda decode=m.Report.from_json, text=text: decode(text)
                                 for m, text, _r in cases], repeat, 50, 1e6),
            "render_text": passes([lambda render=m.render_text, r=r: render(r)
                                   for m, _t, r in cases], repeat, 50, 1e6),
        }
    return timings


def quiet_main(main, argv: tuple) -> int:
    """``main(argv)`` with stdout sent to a ``StringIO``."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def cli_calls(pkgs, repeat: int) -> dict:
    """``cli.main`` on each ``REPORTS`` argv in text and in JSON, in us per call."""
    timings = {}
    for name, argv in REPORTS.items():
        for fmt in ("text", "json"):
            fns = [functools.partial(quiet_main, pkg.cli.main, (*argv, "--format", fmt))
                   for pkg in pkgs]
            if any(fn() != 0 for fn in fns):
                raise SystemExit(f"{' '.join(argv)} --format {fmt} failed")
            timings.setdefault(name, {})[fmt] = windowed(fns, repeat, 3)
    return timings


def figures(pkgs, repeat: int) -> dict:
    """Every figure; each leaf lists, per package, the figure's value in every pass."""
    return {
        "per_check": {f"{chi},{k}": per_check(pkgs, chi, k, repeat) for chi, k in RANGES},
        "builds": {f"{chi},{k}": build_counts(pkgs, chi, k) for chi, k in RANGES},
        "kernels_us": {**sample_kernels(pkgs, repeat), "rank_1e5": big_kernels(pkgs, repeat)},
        "builds_us": builds(pkgs, repeat),
        "symbolic_us": symbolic(pkgs, repeat),
        "records_us": records(pkgs, repeat),
        "report_us": report_layer(pkgs, repeat),
        "cli_us": cli_calls(pkgs, repeat),
        "startup_ms": startup(pkgs, repeat),
    }


def each_leaf(tree, reduce):
    """``tree`` with each leaf, a list of per-package values, replaced by ``reduce(*leaf)``."""
    if isinstance(tree, dict):
        return {key: each_leaf(value, reduce) for key, value in tree.items()}
    return reduce(*tree)


def lowest(values: list):
    return round(min(values), 3) if values else None


def compare(change: list, base: list) -> dict:
    """The lowest value of each package and the median and quartiles of the ratios change/base."""
    ratios = [c / b for c, b in zip(change, base)]
    if not ratios:
        return {"change": lowest(change), "base": lowest(base), "median_ratio": None,
                "ratio_quartiles": None}
    # one pass has one ratio, which is then each of its quartiles
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"change": lowest(change), "base": lowest(base), "median_ratio": round(median, 3),
            "ratio_quartiles": [round(q1, 3), round(q3, 3)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed passes per figure")
    parser.add_argument("--against", metavar="PATH",
                        help="a second checkout, timed alternately in this process")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    report = {"python": platform.python_version(), "repeat": args.repeat}
    if args.against is None:
        report.update(each_leaf(figures([load("horikawa")], args.repeat), lowest))
    else:
        pkgs = [load("horikawa"), load_checkout(args.against)]
        report["against"] = args.against
        report.update(each_leaf(figures(pkgs, args.repeat), compare))
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
