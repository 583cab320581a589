"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from horikawa import cli, reporting, verify  # noqa: E402
from horikawa.verify import CheckResult, VerificationOutcome  # noqa: E402


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS.values():
        assert workload.round(7, 0) == workload.round(7, 0)
        assert workload.round(7, 3) == workload.round(7, 3)
        assert workload.round(7, 0) != workload.round(8, 0)
        assert workload.round(7, 0) != workload.round(7, 1)


def _failed(op, code, stdout):
    return workloads.execute(op, lambda: op.finish(code, stdout)).error is not None


def test_corrupted_json_report_is_a_failed_op():
    op = workloads.construct_op("stable", "json", chi=10)
    result = op.run()
    assert op.check(result) is None
    record_k2 = '"k_squared": "15"'  # the stable record: 2*chi - 5
    assert record_k2 in result.stdout
    assert _failed(op, 0, result.stdout.replace(record_k2, '"k_squared": "16"'))
    changed_byte = result.stdout.replace('"display": "2*D0', '"display": "3*D0', 1)
    assert changed_byte != result.stdout
    assert _failed(op, 0, changed_byte)
    assert _failed(op, 0, result.stdout[:-2])
    assert _failed(op, 1, result.stdout)


def test_corrupted_text_report_is_a_failed_op():
    for op, line in ((workloads.construct_op("component-II", "text", k=2), "  K^2 = 16"),
                     (workloads.classify_op(8, 7, "text"), "components: 2")):
        result = op.run()
        assert op.check(result) is None
        assert line in result.stdout
        assert _failed(op, result.code, result.stdout.replace(line, line[:-1] + "7"))


def _outcome(fault, passed):
    checks = tuple(CheckResult(name, "", passed) for name in verify.check_names())
    return VerificationOutcome(6, 2, fault, checks)


def test_escaped_fault_is_a_failed_op():
    op = workloads.VerifyOp(6, 2, "fiber-data-evened", verify.check_names())
    assert workloads.execute(op, lambda: _outcome(op.fault, False)).error is None
    attempt = workloads.execute(op, lambda: _outcome(op.fault, True))
    assert "escaped" in attempt.error
    # it fails the op without making the unmodified program's output wrong
    assert not harness.incorrect(op, attempt.error)
    clean = workloads.VerifyOp(6, 2, None, verify.check_names())
    attempt = workloads.execute(clean, lambda: _outcome(None, False))
    assert attempt.error and harness.incorrect(clean, attempt.error)


def test_nested_self_times_fit_in_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def middle():
        inner()
        time.sleep(0.001)
        inner()

    middle = tracer.wrap("middle", middle)
    outer = tracer.wrap("outer", lambda: (middle(), inner()))
    outer()
    own = tracer.self_times()
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    assert all(t >= 0 for t in own)
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert sum(own) <= durations[0] + 1e-9
    assert own[1] + own[2] + own[3] <= durations[1] + 1e-9
    summary = tracer.summary()
    assert summary["inner"]["count"] == 3


def test_tracing_covers_imported_names_and_uninstalls(tmp_path):
    originals = (verify.run_verification, cli.render_text, reporting.Report.from_json,
                 workloads.verify.run_verification)
    op = workloads.VerifyOp(6, 2, "fiber-data-evened", verify.check_names())
    text_op = workloads.classify_op(8, 7, "text")
    untraced = [op.digest(op.run()), text_op.digest(text_op.run())]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.render_text is not originals[1]
        traced = [op.digest(op.run()), text_op.digest(text_op.run())]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert (verify.run_verification, cli.render_text, reporting.Report.from_json,
            workloads.verify.run_verification) == originals
    summary = tracer.summary()
    assert summary["faults.injected"]["count"] == 1
    assert summary["reporting.render_text"]["count"] == 1
    assert summary["lattice.DivisorClass.dot"]["count"] > 0
    tracer.dump(tmp_path / "spans.bin")
    names, (name_id, parent, start, end) = spans.load(tmp_path / "spans.bin")
    assert names == tracer.names and list(parent) == list(tracer.parent)
    assert list(end) == list(tracer.end)


def test_result_line_shape():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           "cli-reports", "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert record["record"]["seed"] == 3
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-reports",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
