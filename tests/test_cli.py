"""Command line behaviour: exit codes, formats, scenarios, determinism."""

import contextlib
import io
import json
import re

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
