"""The installed ``horikawa`` console script against every golden.

    python3 tools/check_goldens.py

Standard library only.  It runs the ``horikawa`` command found on ``PATH``
once per case of ``tests/golden/cases.json`` and ``help_cases.json``, with
``COLUMNS=80``, and compares the exit code and the stdout bytes with the
case's.  Tier-1 calls ``cli.main`` in the test process; this runs the
``[project.scripts]`` entry point, which reads ``sys.argv``: the command
table reads the plain form, argparse the rest.

It prints each case that differs and a count, and exits 1 if any differs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
env = dict(os.environ, COLUMNS="80")  # argparse wraps help text to the terminal width
cases = [case for listing in ("cases.json", "help_cases.json")
         for case in json.loads((golden / listing).read_text(encoding="utf-8"))]
differ = 0
for case in cases:
    run = subprocess.run(["horikawa", *case["argv"]], capture_output=True, env=env)
    if (run.returncode, run.stdout) != (case["exit"], (golden / case["stdout"]).read_bytes()):
        print(f"differs from {case['stdout']} (exit {run.returncode}):", *case["argv"])
        differ += 1
print(f"{len(cases) - differ} of {len(cases)} goldens match")
sys.exit(differ > 0)
