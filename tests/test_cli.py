"""Command line behaviour: exit codes, formats, scenarios, determinism, and the
two routes of argv: the command table reads the plain form, argparse the rest."""

import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horikawa import catalog, cli, faults
from horikawa.reporting import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_two_components(self, capsys):
        code, out, _err = run(capsys, "classify", "--k2", "8", "--chi", "7")
        assert code == 0
        assert "components: 2" in out
        assert "P^2" in out and "cone" in out

    def test_inadmissible_exits_one(self, capsys):
        code, out, _err = run(capsys, "classify", "--k2", "0", "--chi", "1")
        assert code == 1
        assert "inadmissible" in out
        assert "K^2 = 0 < 1" in out

    def test_sixteen_eleven(self, capsys):
        code, out, _err = run(capsys, "classify", "--k2", "16", "--chi", "11",
                              "--format", "json")
        assert code == 0
        report = Report.from_json(out)
        assert report.payload.info.count == 2

    def test_off_line_admissible(self, capsys):
        code, out, _err = run(capsys, "classify", "--k2", "9", "--chi", "7")
        assert code == 0
        assert "only exists on" in out


class TestConstructCommand:
    def test_stable_chi3(self, capsys):
        code, out, _err = run(capsys, "construct", "stable", "--chi", "3")
        assert code == 0
        assert "K^2 = 1" in out
        assert "exceptional witness (a, b) = (1, 0)" in out
        assert "one-third quotient points: 3" in out

    def test_component_two_k1(self, capsys):
        code, out, _err = run(capsys, "construct", "component-II", "--k", "1")
        assert code == 0
        assert "canonical image: P^2" in out

    def test_component_one_chi9(self, capsys):
        code, out, _err = run(capsys, "construct", "component-I", "--chi", "9",
                              "--format", "json")
        assert code == 0
        report = Report.from_json(out)
        recipe = report.payload.recipe
        assert recipe.report.k_squared == 12
        assert recipe.parameters == (1, 9, 3)

    def test_missing_parameter_usage_error(self, capsys):
        code, _out, err = run(capsys, "construct", "component-I")
        assert code == 2
        assert "needs --chi" in err

    def test_out_of_range_usage_error(self, capsys):
        code, _out, err = run(capsys, "construct", "component-I", "--chi", "3")
        assert code == 2
        assert "chi >= 4" in err

    def test_unknown_variant_usage_error(self, capsys):
        code, _out, _err = run(capsys, "construct", "component-III")
        assert code == 2

    def test_epsilon_family(self, capsys):
        code, out, _err = run(capsys, "construct", "stable", "--chi", "7",
                              "--epsilon", "5", "--format", "json")
        assert code == 0
        payload = Report.from_json(out).payload
        assert payload.record.k_squared == 13
        assert payload.record.ledger.third11_count == 15
        assert payload.recipe.report.k_squared == 8

    def test_epsilon_requires_stable_variant(self, capsys):
        code, _out, err = run(capsys, "construct", "component-I", "--chi", "7",
                              "--epsilon", "1")
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("argv, message", [
        (["stable", "--chi", "5", "--k", "3"], "--k only applies to the component-II variant"),
        (["component-I", "--chi", "5", "--k", "3"], "--k only applies to the component-II"),
        (["component-II", "--k", "2", "--chi", "99"],
         "--chi only applies to the component-I and stable variants"),
    ])
    def test_ignored_flag_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "construct", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_epsilon_out_of_range(self, capsys):
        code, _out, err = run(capsys, "construct", "stable", "--chi", "4",
                              "--epsilon", "4")
        assert code == 2
        assert "contract" in err


class TestEnumerateCommand:
    def test_range_four_to_ten(self, capsys):
        code, out, _err = run(capsys, "enumerate", "--chi", "4", "--chi-max", "10",
                              "--format", "json")
        assert code == 0
        report = Report.from_json(out)
        rows = report.payload.rows
        assert len(rows) == 7
        counts = {row.chi: row.component_count for row in rows}
        assert counts[7] == 2
        assert all(count == 1 for chi, count in counts.items() if chi != 7)

    def test_empty_range(self, capsys):
        code, out, _err = run(capsys, "enumerate", "--chi", "11", "--chi-max", "10")
        assert code == 0
        assert "rows: 0" in out

    def test_chi_three_has_only_the_stable_line(self, capsys):
        code, out, _err = run(capsys, "enumerate", "--chi", "3", "--chi-max", "3",
                              "--format", "json")
        assert code == 0
        row = Report.from_json(out).payload.rows[0]
        assert row.general_type_k_squared is None
        assert row.component_count is None
        assert row.constructions == ("stable",)
        assert row.stable_k_squared == 1
        assert row.stable_third11_count == 3

    def test_rows_agree_with_the_builders(self, capsys):
        code, out, _err = run(capsys, "enumerate", "--chi", "-2", "--chi-max", "250",
                              "--format", "json")
        assert code == 0
        second = {recipe.target: recipe for recipe in map(catalog.build_component_two,
                                                           range(1, 63))}
        rows = Report.from_json(out).payload.rows
        for row in rows:
            recipe = second.get((2 * row.chi - 6, row.chi))
            named = [c for c in row.constructions if c.startswith("component-II")]
            assert named == ([] if recipe is None else [f"component-II (k = {recipe.k})"])
            germ = None if recipe is None else recipe.germ
            assert row.notes == (() if germ is None else (
                f"second-component branch curve carries one {germ} double point",))
            if row.chi < 3:
                assert row.stable_third11_count is None and "stable" not in row.constructions
            else:
                assert row.stable_third11_count == \
                    catalog.build_stable(row.chi).record.ledger.third11_count
        # the A_4 rows: k = 4, 7, ..., 61
        assert [row.chi for row in rows if row.notes] == [4 * k + 3 for k in range(4, 62, 3)]


class TestVerifyCommand:
    def test_minimal_accepted_range(self, capsys):
        code, out, _err = run(capsys, "verify-paper", "--chi-max", "6", "--k-max", "2")
        assert code == 0
        assert "checks passed" in out

    def test_too_small_range_rejected(self, capsys):
        code, _out, err = run(capsys, "verify-paper", "--chi-max", "5", "--k-max", "2")
        assert code == 2
        assert "chi_max" in err

    @pytest.mark.parametrize("flag,name", [("--chi-max", "chi_max"), ("--k-max", "k_max")])
    def test_oversized_range_rejected(self, capsys, flag, name):
        code, out, err = run(capsys, "verify-paper", flag, "1001")
        assert code == 2
        assert out == ""
        assert f"{name} must be at most 1000" in err

    def test_help_names_the_cap(self, capsys):
        code, out, _err = run(capsys, "verify-paper", "--help")
        words = " ".join(out.split())
        assert code == 0
        assert "from 6 to 1000" in words and "from 2 to 1000" in words

    def test_deterministic_output(self, capsys):
        _code, first, _err = run(capsys, "verify-paper", "--chi-max", "8", "--k-max", "2")
        _code, second, _err = run(capsys, "verify-paper", "--chi-max", "8", "--k-max", "2")
        assert first == second
        _code, js1, _err = run(capsys, "verify-paper", "--chi-max", "8", "--k-max", "2",
                               "--format", "json")
        _code, js2, _err = run(capsys, "verify-paper", "--chi-max", "8", "--k-max", "2",
                               "--format", "json")
        assert js1 == js2

    def test_unknown_fault_rejected(self, capsys):
        code, _out, err = run(capsys, "verify-paper", "--inject-fault", "no-such-fault")
        assert code == 2
        assert "unknown fault" in err

    def test_injected_fault_names_identity(self, capsys):
        name = faults.fault_names()[0]
        code, out, _err = run(capsys, "verify-paper", "--chi-max", "8", "--k-max", "2",
                              "--inject-fault", name)
        assert code == 1
        assert "FAIL" in out
        assert "first violated identity:" in out


# (argv, message) for each integer flag one past its cap on either side
_OUT_OF_RANGE = [
    (["classify", "--k2", "100001", "--chi", "7"], "k2 must be at most 100000"),
    (["classify", "--k2", "8", "--chi", "-100001"], "chi must be at least -100000"),
    (["construct", "stable", "--chi", "100001"], "chi must be at most 100000"),
    (["construct", "component-II", "--k", "-100001"], "k must be at least -100000"),
    (["construct", "stable", "--chi", "7", "--epsilon", "100001"],
     "epsilon must be at most 100000"),
    (["enumerate", "--chi", "-10001", "--chi-max", "3"], "chi must be at least -10000"),
    (["enumerate", "--chi", "1", "--chi-max", "10001"], "chi_max must be at most 10000"),
    (["enumerate", "--chi", "1", "--chi-max", str(10**30)], "chi_max must be at most 10000"),
]


def _scenario_of(argv):
    """The scenario object that replays a classify, construct or enumerate argv."""
    scenario = {"command": argv[0]}
    rest = argv[1:]
    if argv[0] == "construct":
        scenario["variant"], rest = rest[0], rest[1:]
    for flag, value in zip(rest[::2], rest[1::2]):
        scenario[flag[2:].replace("-", "_")] = int(value)
    return scenario


class TestBounds:
    @pytest.mark.parametrize("argv, message", _OUT_OF_RANGE)
    def test_out_of_range_from_argv(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", _OUT_OF_RANGE)
    def test_out_of_range_from_scenario(self, capsys, tmp_path, argv, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_of(argv)), encoding="utf-8")
        code, out, err = run(capsys, "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--k2", "100000", "--chi", "50003"], 0),
        (["classify", "--k2", "-100000", "--chi", "-100000"], 1),
        (["construct", "stable", "--chi", "100000", "--epsilon", "100000"], 2),
        (["construct", "component-II", "--k", "100000"], 0),
        (["enumerate", "--chi", "9990", "--chi-max", "10000"], 0),
        (["enumerate", "--chi", "-10000", "--chi-max", "-9990"], 0),
    ])
    def test_values_at_the_cap_are_accepted(self, capsys, argv, code):
        got, _out, err = run(capsys, *argv)
        assert got == code
        assert "must be at" not in err

    @pytest.mark.parametrize("command", ["classify", "construct", "enumerate"])
    def test_help_states_every_cap(self, capsys, command):
        code, out, _err = run(capsys, command, "--help")
        words = " ".join(out.split())
        assert code == 0
        for arg in cli._COMMANDS[command].args:
            if arg.bound is not None:
                # the option's own help, up to the next option
                own = re.escape(f"--{arg.key.replace('_', '-')} {arg.key.upper()} ")
                cap = "from {} to {}".format(*arg.bound)
                assert re.search(own + r"(?:(?! --).)*" + cap, words), (arg.key, words)


class TestScenarioFiles:
    def _write(self, tmp_path, payload):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_classify_scenario(self, capsys, tmp_path):
        path = self._write(tmp_path, {"command": "classify", "k2": 8, "chi": 7,
                                      "format": "json"})
        code = cli.main(["--scenario", path])
        out = capsys.readouterr().out
        assert code == 0
        assert Report.from_json(out).payload.info.count == 2

    def test_construct_scenario_with_override(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "command": "construct", "variant": "stable", "chi": 5,
            "assumptions": {"general_position": False},
        })
        code = cli.main(["--scenario", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "general position" in err

    def test_construct_scenario_default_assumptions(self, capsys, tmp_path):
        path = self._write(tmp_path, {"command": "construct", "variant": "component-II",
                                      "k": 2, "format": "json"})
        code = cli.main(["--scenario", path])
        out = capsys.readouterr().out
        assert code == 0
        assert Report.from_json(out).payload.recipe.report.k_squared == 16

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = self._write(tmp_path, {"command": "classify", "k2": 8, "chi": 7,
                                      "zeta": 1})
        code = cli.main(["--scenario", path])
        assert code == 2
        assert "unknown scenario keys" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({"command": "classify", "k2": True, "chi": 7}, "value 'k2' must be an integer"),
        ({"command": "classify", "k2": 1, "chi": 7.9}, "value 'chi' must be an integer"),
        ({"command": "classify", "k2": 8, "chi": "7"}, "value 'chi' must be an integer"),
        ({"command": "classify", "k2": 8, "chi": 7, "format": 1}, "'format' must be a string"),
        ({"command": "construct", "variant": 1, "chi": 5}, "'variant' must be a string"),
        ({"command": "construct", "variant": "stable", "chi": None},
         "value 'chi' must be an integer"),
        ({"command": "construct", "variant": "stable", "chi": 5,
          "assumptions": {"general_position": "false"}},
         "value 'general_position' must be a boolean"),
        ({"command": "construct", "variant": "stable", "chi": 5,
          "assumptions": {"smoothness_assumed": 0}},
         "value 'smoothness_assumed' must be a boolean"),
        ({"command": "construct", "variant": "stable", "chi": 5, "assumptions": []},
         "value 'assumptions' must be an object"),
        ({"command": "construct", "variant": "stable", "chi": 5,
          "assumptions": {"q": True}}, "unknown assumption keys ['q']"),
        ({"command": "verify-paper", "inject_fault": None},
         "value 'inject_fault' must be a string"),
        ({"command": ["classify"]}, "unknown scenario command"),
        ({"command": "construct", "variant": "component-I", "chi": 7,
          "assumptions": {"smoothness_assumed": False}},
         "error: invariant formulas require the smoothness assumption\n"),
        ({"command": "construct", "variant": "stable", "chi": 5,
          "assumptions": {"smoothness_assumed": False}},
         "error: invariant formulas require the smoothness assumption\n"),
        ({"command": "construct", "variant": "stable", "chi": 7, "epsilon": 1,
          "assumptions": {"smoothness_assumed": False}},
         "error: invariant formulas require the smoothness assumption\n"),
        (["classify", "--k2", "8"],
         "error: a scenario must be a JSON object with a 'command' key\n"),
        ({"k2": 8, "chi": 7}, "error: a scenario must be a JSON object with a 'command' key\n"),
    ])
    def test_wrong_json_type_rejected(self, capsys, tmp_path, payload, message):
        code = cli.main(["--scenario", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["chi_max", "k_max"])
    def test_oversized_range_rejected(self, capsys, tmp_path, key):
        path = self._write(tmp_path, {"command": "verify-paper", key: 1001})
        code = cli.main(["--scenario", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{key} must be at most 1000" in captured.err

    def test_missing_file(self, capsys):
        code = cli.main(["--scenario", "/nonexistent/path.json"])
        assert code == 2
        assert "cannot read scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe" + json.dumps({"command": "classify", "k2": 8, "chi": 7}).encode("utf-16-le"),
        b"[" * 100_000 + b"]" * 100_000,
        b'{"command": "classify", "k2": ' + b"9" * 5000 + b', "chi": 7}',
    ], ids=["utf-16-bytes", "deep-nesting", "long-integer"])
    def test_unreadable_file(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code = cli.main(["--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"cannot read scenario {path}" in captured.err

    @pytest.mark.parametrize("payload, message", [
        ({"command": "construct", "variant": "stable", "chi": 5, "k": 3}, "--k only applies"),
        ({"command": "construct", "variant": "component-II", "k": 2, "chi": 99},
         "--chi only applies"),
        ({"command": "construct", "variant": "component-II", "k": 2,
          "assumptions": {"general_position": False}}, "general_position only applies"),
    ])
    def test_ignored_key_rejected(self, capsys, tmp_path, payload, message):
        code = cli.main(["--scenario", self._write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_scenario_excludes_subcommand(self, capsys, tmp_path):
        path = self._write(tmp_path, {"command": "classify", "k2": 8, "chi": 7})
        code = cli.main(["--scenario", path, "classify", "--k2", "8", "--chi", "7"])
        assert code == 2


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 2

    def test_bad_flag_usage_error(self, capsys):
        assert cli.main(["classify", "--k2", "eight", "--chi", "7"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_module_entry_exits_with_main(self, capsys, monkeypatch):
        # what ``python -m horikawa.cli`` runs, in this process so a line tracer sees it
        argv = ["classify", "--k2", "8", "--chi", "7"]
        expected = run(capsys, *argv)[1]
        monkeypatch.setattr(sys, "argv", ["horikawa.cli", *argv])
        with (pytest.warns(RuntimeWarning, match="found in sys.modules"),
              pytest.raises(SystemExit) as exit_request):
            runpy.run_module("horikawa.cli", run_name="__main__")
        assert exit_request.value.code == 0
        assert capsys.readouterr().out == expected


class TestJsonStability:
    @pytest.mark.parametrize("argv", [
        ["classify", "--k2", "8", "--chi", "7", "--format", "json"],
        ["construct", "component-I", "--chi", "6", "--format", "json"],
        ["construct", "component-II", "--k", "4", "--format", "json"],
        ["construct", "stable", "--chi", "3", "--format", "json"],
        ["construct", "stable", "--chi", "8", "--epsilon", "2", "--format", "json"],
        ["enumerate", "--chi", "3", "--chi-max", "9", "--format", "json"],
        ["verify-paper", "--chi-max", "7", "--k-max", "2", "--format", "json"],
    ])
    def test_cli_json_reserialises_byte_identically(self, capsys, argv):
        code, out, _err = run(capsys, *argv)
        assert code == 0
        assert Report.from_json(out).to_json() == out


_PRIMITIVES = (st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-2, 12)
               | st.text(max_size=3))
# each integer key and the cap on |value|; verify-paper's ranges are 6..1000
# and 2..1000
_CAPS = {
    "classify": {"k2": 100_000, "chi": 100_000},
    "construct": {"chi": 100_000, "k": 100_000, "epsilon": 100_000},
    "enumerate": {"chi": 10_000, "chi_max": 10_000},
    "verify-paper": {"chi_max": 1000, "k_max": 1000},
}
_COMMAND_KEYS = {
    "classify": ("k2", "chi"),
    "construct": ("variant", "chi", "k", "epsilon", "assumptions"),
    "enumerate": ("chi", "chi_max"),
    "verify-paper": ("chi_max", "k_max", "inject_fault"),
}
# a well-typed value for each key that is not an integer
_WELL_TYPED = {
    "format": st.sampled_from(["text", "json"]),
    "variant": st.sampled_from(["component-I", "component-II", "stable"]),
    "inject_fault": st.sampled_from(["fiber-data-evened", "germ-index-shift"]),
    "assumptions": st.dictionaries(st.sampled_from(["general_position", "smoothness_assumed"]),
                                   st.booleans() | _PRIMITIVES, max_size=2),
}


def _integers(command, cap):
    """Mostly small integers, else a value at or past the cap on |value|."""
    small = st.integers(-3, 12)
    if cap is None:  # a key the command does not have
        return small
    # values at the cap itself only where that is cheap: a construct JSON
    # report at chi = 10^5 takes about 1 s, a verify-paper run at its cap
    # several seconds
    edges = [cap + 1, -cap - 1, 10**30, -10**30]
    if command in ("classify", "enumerate"):
        edges += [cap, -cap]
    return small | small | st.sampled_from(edges)


@st.composite
def _scenarios(draw):
    """Scenario objects whose values are JSON primitives, most of them well typed."""
    def rarely(one_in):
        return draw(st.integers(1, one_in)) == one_in

    def value(well_typed):
        return draw(_PRIMITIVES if rarely(8) else well_typed)

    command = value(st.sampled_from(sorted(_COMMAND_KEYS)))
    keys = [key for key in _COMMAND_KEYS.get(command, ()) if not rarely(5)]
    keys += ["format"] * draw(st.booleans()) + ["zeta"] * rarely(10)
    caps = _CAPS.get(command, {})
    scenario = {"command": command}
    for key in keys:
        well_typed = _WELL_TYPED[key] if key in _WELL_TYPED else _integers(command, caps.get(key))
        scenario[key] = value(well_typed)
    return scenario


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scenario=_scenarios())
def test_scenario_property(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--scenario", str(path)])
    assert code in (0, 1, 2)
    if scenario.get("format") == "json" and out.getvalue():
        Report.from_json(out.getvalue())


# flags of other commands, unknown flags, stray and malformed values
_BAD_TOKENS = ("--k2", "--epsilon", "--chi-max", "--zeta", "--format", "xml", "eight",
               "7", "--chi=", "component-III")


@st.composite
def _argvs(draw):
    """Argument lists: table flags with values at and past the caps, and bad tokens."""
    command = draw(st.sampled_from(sorted(_CAPS)))
    argv = [command]
    wanted = set(_CAPS[command])
    if command == "construct":
        variant = draw(st.sampled_from(["component-I", "component-II", "stable"]))
        argv.append(variant)
        wanted = {"component-I": {"chi"}, "component-II": {"k"}}.get(
            variant, {"chi", "epsilon"})
    for key, cap in _CAPS[command].items():
        # the flags a command needs are mostly given, the others rarely
        if draw(st.integers(0, 5)) < (5 if key in wanted else 1):
            argv += ["--" + key.replace("_", "-"), str(draw(_integers(command, cap)))]
    if command == "verify-paper" and draw(st.booleans()):
        argv += ["--inject-fault", draw(st.sampled_from(["germ-index-shift", "no-such"]))]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_BAD_TOKENS)))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_argv_property(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    formats = [argv[i + 1] for i, token in enumerate(argv[:-1]) if token == "--format"]
    if formats[-1:] == ["json"] and out.getvalue():
        Report.from_json(out.getvalue())



# ---------------------------------------------------------------------------
# the two routes of argv: the table reads the plain form, argparse the rest

GOLDEN = Path(__file__).parent / "golden"
_PLAIN_ARGVS = [case["argv"] for case in json.loads(
    (GOLDEN / "cases.json").read_text(encoding="utf-8")) if "form" not in case]


def _argparse_items(argv) -> list:
    """The items of ``vars(parse_args(argv))``, in order; a usage error fails the test."""
    try:
        return list(vars(cli._parser().parse_args(argv)).items())
    except SystemExit:
        pytest.fail(f"argparse refuses {argv!r}, which the table read")


def _outcome(argv, monkeypatch) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, at argparse's width of 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PLAIN_ARGVS + [
    ["verify-paper"],  # every flag at its default
    ["construct", "stable", "--chi", "-007", "--k", "-0"],
    ("verify-paper", "--inject-fault", "", "--format", "json"),  # a tuple, an empty value
], ids=" ".join)
def test_table_reads_the_plain_form_as_argparse_does(argv):
    values = cli._parse(argv)
    assert values is not None and list(values.items()) == _argparse_items(argv)


_PLAIN = ["construct", "stable", "--chi", "5", "--format", "json"]


def _help_cases() -> list:
    """Empty argv, and -h and --help at every position of ``_PLAIN``.

    Before the command argparse prints the top help page, after it the
    command's; in place of a flag's value it refuses the line.
    """
    cases = [pytest.param([], 2, "help.txt", id="empty")]
    for flag in ("-h", "--help"):
        for i in range(len(_PLAIN) + 1):
            argv = _PLAIN[:i] + [flag] + _PLAIN[i:]
            if _PLAIN[i - 1:i] in (["--chi"], ["--format"]):
                outcome = (2, "horikawa construct: error: argument "
                              f"{_PLAIN[i - 1]}: expected one argument")
            else:
                outcome = (0, "help-construct.txt" if i else "help.txt")
            cases.append(pytest.param(argv, *outcome, id=" ".join(argv)))
    return cases


@pytest.mark.parametrize("argv, code, expected", _help_cases())
def test_help_in_any_position_is_left_to_argparse(monkeypatch, argv, code, expected):
    assert cli._parse(argv) is None
    got, out, err = _outcome(argv, monkeypatch)
    if expected.endswith(".txt"):
        assert (got, out, err) == (code, (GOLDEN / expected).read_text(encoding="utf-8"), "")
    else:
        assert (got, out, err.splitlines()[-1]) == (code, "", expected)


@pytest.mark.parametrize("argv, plain", [
    (["classify", "--k2", "8", "--chi=5"], ["classify", "--k2", "8", "--chi", "5"]),
    (["verify-paper", "--chi-m", "12"], ["verify-paper", "--chi-max", "12"]),
    # --k abbreviates --k2
    (["classify", "--k", "8", "--chi", "7"], ["classify", "--k2", "8", "--chi", "7"]),
    (["classify", "--k2", "8", "--k2", "10", "--chi", "7"],
     ["classify", "--k2", "10", "--chi", "7"]),
    (["construct", "--chi", "5", "stable"], ["construct", "stable", "--chi", "5"]),
    *((["construct", "stable", "--chi", odd], ["construct", "stable", "--chi", plain])
      for odd, plain in ((" 6", "6"), ("+6", "6"), ("6_0", "60"), ("\u0666", "6"))),
], ids=lambda argv: " ".join(map(str, argv)))
def test_other_spellings_are_left_to_argparse(monkeypatch, argv, plain):
    assert cli._parse(argv) is None and cli._parse(plain) is not None
    assert _outcome(argv, monkeypatch) == _outcome(plain, monkeypatch)


@pytest.mark.parametrize("argv, error", [
    (["classify", "--k2", "8", "--chi", "7", "--format", "xml"],
     "horikawa classify: error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json')"),
    # more digits than int() converts
    (["construct", "stable", "--chi", "9" * 5000],
     f"horikawa construct: error: argument --chi: invalid int value: '{'9' * 5000}'"),
    (["verify-paper", "--inject-fault", "-x"],
     "horikawa verify-paper: error: argument --inject-fault: expected one argument"),
    (["classify", "--", "--k2", "8", "--chi", "7"],
     "horikawa classify: error: the following arguments are required: --k2, --chi"),
    (["classify", "--k2", "8", "--chi", "7", "--"], "horikawa: error: unrecognized arguments: --"),
    (["enumerate", "--chi", "1"],
     "horikawa enumerate: error: the following arguments are required: --chi-max"),
    (["construct", "component-III"], "horikawa construct: error: argument variant: invalid "
     "choice: 'component-III' (choose from 'component-I', 'component-II', 'stable')"),
    (["construct"], "horikawa construct: error: the following arguments are required: variant"),
], ids=lambda argv: " ".join(argv)[:60])
def test_usage_errors_are_left_to_argparse(monkeypatch, argv, error):
    assert cli._parse(argv) is None
    code, out, err = _outcome(argv, monkeypatch)
    assert (code, out, err.splitlines()[-1]) == (2, "", error)
    assert err.startswith("usage: horikawa")


def test_scenario_is_left_to_argparse(monkeypatch, tmp_path):
    path = str(tmp_path / "missing.json")
    assert cli._parse(["--scenario", path]) is None
    assert _outcome(["--scenario", path], monkeypatch)[::2] == (
        2, f"error: cannot read scenario {path}: [Errno 2] No such file or directory: "
           f"{path!r}\n")


@pytest.mark.parametrize("argv, shown", [
    (["classify", "--k2", 8, "--chi", "7"], "8"),
    # argparse alone would read it as "0"
    (["classify", "--k2", 0, "--chi", "7"], "0"),
    (("verify-paper", "--inject-fault", None), "None"),
    (["verify-paper", b"--format", "json"], "b'--format'"),
], ids=["int", "int-zero", "none", "bytes"])
def test_a_token_that_is_not_a_str_is_refused_before_argparse(monkeypatch, argv, shown):
    assert cli._parse(argv) is None
    code, out, err = _outcome(argv, monkeypatch)
    assert (code, out) == (2, "") and err.startswith("usage: horikawa ")
    assert err.splitlines()[-1] == f"horikawa: error: command-line token {shown} is not a str"


@pytest.mark.parametrize("argv, shown", [(5, "5"), (type(None), "<class 'NoneType'>")],
                         ids=["int", "type"])
def test_an_argv_that_is_not_iterable_is_refused_before_argparse(monkeypatch, argv, shown):
    code, out, err = _outcome(argv, monkeypatch)
    assert (code, out) == (2, "") and err.startswith("usage: horikawa ")
    assert err.splitlines()[-1] == f"horikawa: error: the command line {shown} is not iterable"


def test_an_argv_that_is_no_list_or_tuple_is_left_to_argparse(monkeypatch):
    argv = ["verify-paper", "--chi-max", "6", "--k-max", "2"]
    assert cli._parse(iter(argv)) is None
    assert _outcome(iter(argv), monkeypatch) == _outcome(argv, monkeypatch)


_COMMAND_TOKENS = sorted(cli._COMMANDS)
_VARIANT_TOKENS = ["component-I", "component-II", "stable", "component-III"]
_FLAG_TOKENS = sorted({arg.flag for spec in cli._COMMANDS.values() for arg in spec.args
                       if not arg.positional}) + ["--chi-m", "--form", "--chi=5"]
_INT_TOKENS = ["0", "7", "-3", "12", "007", "-0", "100001", " 6", "+6", "6_0", "\u0666",
               "9" * 5000, "-"]
_STR_TOKENS = ["text", "json", "xml", "germ-index-shift", "", "a b", "-x"]
_ODD_TOKENS = ["-h", "--help", "--", "--scenario", 6, None]
_ALPHABET = (_COMMAND_TOKENS + _VARIANT_TOKENS + _FLAG_TOKENS + _INT_TOKENS + _STR_TOKENS
             + _ODD_TOKENS)


@st.composite
def _token_argvs(draw):
    """A command, maybe a variant, then flags and values mostly of that command, in any
    order, and at times a token of the alphabet put in anywhere."""
    def pick(tokens):
        return draw(st.sampled_from(tokens))

    def rarely():
        return draw(st.integers(0, 3)) == 0

    argv = [pick(_COMMAND_TOKENS)]
    if argv[0] == "construct" or rarely():
        argv.append(pick(_VARIANT_TOKENS))
    pairs = []
    for arg in cli._COMMANDS[argv[0]].args:
        if not arg.positional and not rarely():
            fitting = arg.choices or (_INT_TOKENS[:7] if arg.type is int else _STR_TOKENS[3:5])
            pairs.append([arg.flag, pick(_INT_TOKENS + _STR_TOKENS if rarely() else fitting)])
    if rarely():
        pairs.append([pick(_FLAG_TOKENS), pick(_INT_TOKENS + _STR_TOKENS)])
    for pair in draw(st.permutations(pairs)):
        argv += pair
    if rarely():
        argv.insert(draw(st.integers(0, len(argv))), pick(_ALPHABET))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_token_argvs())
def test_table_agrees_with_argparse_on_token_argvs(argv):
    values = cli._parse(argv)
    if values is not None:
        assert list(values.items()) == _argparse_items(argv)
