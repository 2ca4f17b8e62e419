"""`main` parses with one parser built once per process; sharing it must change nothing.

Every argv here runs through `main` with the shared parser, then through
`main` with a freshly built one, then with the shared parser again after
a failing argv.  Exit code, stdout and stderr must be equal, help texts
and argparse errors included.  A value that starts with a minus sign and
a digit, as in an exponent form or a bracket, or with -inf or -nan in any
case, is read as a value.
"""
import argparse
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from remoments import cli
from remoments.criteria import CRITERIA
from remoments.realign import RealignSpec
from test_cli_fuzz import analyze_argv, audit_argv, sweep_argv, threshold_argv

COMMANDS = ("analyze", "sweep", "threshold", "audit")
FULL_USAGE = "usage: remoments [-h] {analyze,sweep,threshold,audit} ...\n"
THRESHOLD = ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3",
             "--v", "0.01", "--split", "1|2")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv):
    """`argv` through `main` with a parser built for this call alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return run(argv)


def assert_same(argv):
    got = run(argv)
    assert got == run_fresh(argv), argv
    assert run(["threshold", "--bracket"])[0] == 2  # a failing argv in between
    assert run(argv) == got, argv
    return got


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_subcommand_help(command, flag):
    code, out, err = assert_same([command, flag])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: remoments {command} [-h]")


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--help"], ["nope"], ["Threshold"], ["--family", "rho_d"], ["-x"],
     ["analyze", "-h", "--nope"], ["threshold", "--help", "extra"]],
)
def test_top_level_and_unknown_commands(argv):
    assert_same(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [*THRESHOLD, "extra"],
        [*THRESHOLD, "--nope", "1"],
        ["audit", "--dims", "2,2", "sweep"],
        ["sweep", "--family", "ghz_w", "--range", "0:1:0.5", "--criterion", "v3", "threshold"],
    ],
)
def test_unrecognized_arguments_report_the_full_usage(argv):
    code, out, err = assert_same(argv)
    assert (code, out) == (2, "")
    assert err.startswith(FULL_USAGE)
    assert "error: unrecognized arguments: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold"],
        ["sweep", "--family", "rho_d"],
        ["analyze", "--family", "rho_d", "--param", "0.3"],
        ["audit"],
        ["threshold", "--family", "nope", "--bracket", "0:1", "--criterion", "v3"],
        ["sweep", "--family", "ghz_w", "--range", "0:1:0.5", "--criterion", "v9"],
        ["analyze", "--family", "ghz_w", "--param", "x", "--criterion", "v3"],
        ["audit", "--dims", "2,2", "--num-states", "many"],
        ["threshold", "--fam", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v"],
    ],
)
def test_missing_and_invalid_flags(argv):
    code, out, err = assert_same(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: remoments {argv[0]} [-h]")


def test_one_process_builds_the_parser_once():
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    cli.build_parser.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(argparse._SubParsersAction, "add_parser", recording)
            assert run(THRESHOLD) == (0, "0.642671108246\n", "")
            assert run([*THRESHOLD, "extra"])[0] == 2
            assert run(["--help"])[0] == 0
            assert run(["audit", "--dims", "2,2", "--num-states", "2"])[0] == 0
            assert run(THRESHOLD) == (0, "0.642671108246\n", "")
    finally:
        cli.build_parser.cache_clear()
    assert built == list(COMMANDS)  # every subparser, built for the first request only


def subparser(command):
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", ["analyze", "sweep", "threshold"])
def test_weight_options_are_the_weighted_rows_flags(command):
    """The options between --criterion and --split are one float weight per weighted row, in
    CRITERIA order, and the --split and --party help name the rows reading each."""
    actions = {action.option_strings[-1]: action for action in subparser(command)._actions}
    options = list(actions)
    weights = options[options.index("--criterion") + 1:options.index("--split")]
    flagged = [(name, row.flag) for name, row in CRITERIA.items() if row.flag]
    assert weights == [f"--{flag}" for _, flag in flagged] == ["--a", "--u", "--v"]
    for name, flag in flagged:
        assert (actions[f"--{flag}"].type, actions[f"--{flag}"].help) == (float, f"weight for {name}")
    assert actions["--split"].help == 'party grouping like "1|2" or "12|3" (v2/v3/realign)'
    assert actions["--party"].help == "1-based party index (ppt)"


def test_criterion_flags_are_the_weights_split_and_party():
    args = cli.build_parser().parse_args([*THRESHOLD, "--a", "2", "--party", "1"])
    assert cli._request(args) == ("v3", 0.01, RealignSpec((1,), (2,)), 1)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_request_reads_the_rows_own_weight_and_split(criterion):
    """`_request` gives each weighted row the weight of its own flag and no other's, parses the split
    only for the rows that read one (a split that does not parse is a ValueError there alone), and
    passes the party through."""
    row = CRITERIA[criterion]
    weights = {"a": 2.0, "u": 5.0, "v": 0.01}
    argv = ["threshold", "--family", "rho_eps", "--bracket", "1:2", "--criterion", criterion, "--party", "2"]
    args = cli.build_parser().parse_args([*argv, *(f"--{k}={w!r}" for k, w in weights.items()), "--split", "12|3"])
    spec = RealignSpec((1, 2), (3,)) if row.reads == "split" else None
    assert cli._request(args) == (criterion, weights.get(row.flag), spec, 2)
    if row.flag:  # every other row's flag given, not its own
        args = cli.build_parser().parse_args([*argv, *(f"--{k}=1" for k in weights if k != row.flag)])
        assert cli._request(args) == (criterion, None, None, 2)
    args = cli.build_parser().parse_args([*argv, "--split", "a|b"])
    if row.reads == "split":
        with pytest.raises(ValueError, match=r"^split 'a\|b' must list parties as digits 1-9$"):
            cli._request(args)
    else:
        assert cli._request(args)[2] is None


def test_negative_weight_in_exponent_form_is_a_value():
    argv = ["analyze", "--family", "rho_eps", "--param", "1", "--criterion", "v3", "--split", "1|2"]
    assert run([*argv, "--v", "-1e-3"]) == (2, "", "error: weight must be nonnegative, got -0.001 (criterion v3)\n")


NO_PARAM = ("analyze", "--family", "rho_eps", "--criterion", "realign", "--split", "1|2")
NO_BRACKET = ("threshold", "--family", "noisy_ghz4", "--criterion", "realign", "--split", "1|2")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (NO_PARAM, "--param", "-1e-3"),
        (NO_PARAM, "--param", "-2E+0"),
        (NO_BRACKET, "--bracket", "-1:1"),
        (NO_BRACKET, "--bracket", "-.5:1"),
    ],
)
def test_negative_values_read_as_their_equals_form(argv, flag, value):
    spaced = run([*argv, flag, value])
    assert spaced == run([*argv, f"{flag}={value}"])
    assert spaced[0] == 3 and spaced[2].startswith("validation failure: ")


V3 = ("analyze", "--family", "rho_eps", "--param", "1", "--criterion", "v3", "--split", "1|2")
AUDIT = ("audit", "--dims", "2,2", "--num-states", "2")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (NO_PARAM, "--param", "-inf"),
        (NO_PARAM, "--param", "-nan"),
        (NO_PARAM, "--param", "-Infinity"),
        (V3, "--v", "-inf"),
        (V3, "--v", "-NaN"),
        (NO_BRACKET, "--bracket", "-inf:1"),
        (NO_BRACKET, "--bracket", "-nan:1"),
        (AUDIT, "--params", "-inf,1"),
        (AUDIT, "--params", "-INF,1"),
    ],
)
def test_non_finite_negative_values_read_as_their_equals_form(argv, flag, value):
    spaced = run([*argv, flag, value])
    assert spaced == run([*argv, f"{flag}={value}"])
    assert spaced[0] in (2, 3) and "expected one argument" not in spaced[2]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(analyze_argv(), sweep_argv(), threshold_argv(), audit_argv()))
def test_fuzzed_argv_match_the_full_parser(argv):
    assert_same(argv)
