"""`main` parses with one parser built once per process; sharing it must change nothing.

Every argv here runs through `main` with the shared parser, then through
`main` with a freshly built one, then with the shared parser again after
a failing argv.  Exit code, stdout and stderr must be equal, help texts
and argparse errors included.
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from remoments import cli
from test_cli_fuzz import analyze_argv, audit_argv, sweep_argv, threshold_argv

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


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
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

    def recording(name, add_flags):
        def add(sp):
            built.append(name)
            add_flags(sp)
        return add

    subcommands = {name: (text, recording(name, add)) for name, (text, add) in cli.SUBCOMMANDS.items()}
    cli.build_parser.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "SUBCOMMANDS", subcommands)
            assert run(THRESHOLD) == (0, "0.642671108246\n", "")
            assert run([*THRESHOLD, "extra"])[0] == 2
            assert run(["--help"])[0] == 0
            assert run(["audit", "--dims", "2,2", "--num-states", "2"])[0] == 0
            assert run(THRESHOLD) == (0, "0.642671108246\n", "")
    finally:
        cli.build_parser.cache_clear()
    assert built == list(cli.SUBCOMMANDS)  # every subparser, built for the first request only


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(analyze_argv(), sweep_argv(), threshold_argv(), audit_argv()))
def test_fuzzed_argv_match_the_full_parser(argv):
    assert_same(argv)
