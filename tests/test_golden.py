"""Byte-exact CLI output against the fixtures in tests/golden/.

``cases.json`` lists each stored stdout file with the argv that produced
it and the exit code, and ``help_cases.json`` does the same for the
``--help`` pages (at a terminal width of 80 columns).  A case whose argv
is in a form other than the plain one (``"form": "argparse"``, such as
``--chi=5``) prints a file that a plain case also prints.
``scenario_cases.json`` lists scenario objects with the stdout file, exit
code and stderr of replaying each one.  There is no regenerate switch: a
change to the bytes of any report, text or JSON, fails here until the
fixture is edited by hand together with the change that explains it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from horikawa import cli
from horikawa.reporting import Report

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
HELP_CASES = json.loads((GOLDEN / "help_cases.json").read_text(encoding="utf-8"))
SCENARIO_CASES = json.loads((GOLDEN / "scenario_cases.json").read_text(encoding="utf-8"))


def _id(case):
    return f'{case["stdout"]} ({case["form"]} form)' if "form" in case else case["stdout"]


@pytest.mark.parametrize("case", CASES + HELP_CASES, ids=[_id(c) for c in CASES + HELP_CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert stdout.getvalue().encode("utf-8") == (GOLDEN / case["stdout"]).read_bytes()


@pytest.mark.parametrize("case", SCENARIO_CASES, ids=[c["stdout"] for c in SCENARIO_CASES])
def test_scenario_output_matches_golden(case, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(case["scenario"]), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["--scenario", str(path)])
    assert code == case["exit"]
    assert stdout.getvalue().encode("utf-8") == (GOLDEN / case["stdout"]).read_bytes()
    assert stderr.getvalue() == case["stderr"]


JSON_FILES = list(dict.fromkeys(
    c["stdout"] for c in CASES
    if c["stdout"].endswith(".json") and (GOLDEN / c["stdout"]).stat().st_size))


@pytest.mark.parametrize("name", JSON_FILES)
def test_json_golden_reencodes_to_itself(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert Report.from_json(text).to_json() == text
