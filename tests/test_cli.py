"""Command-line interface: subcommands, exit codes, CSV/JSON output."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from remoments import DensityMatrix, StateValidationError, cli, pure_state, sample_separable, save_state
from remoments.cli import AuditConfig, main
from remoments.states import DomainError

Q0 = (math.sqrt(2) - 1) / 2


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse's own exits
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def step_statistic(monkeypatch, root):
    """Make every family evaluation's statistic step across its threshold at `root`: one unit on
    the unflagged side at state parameters up to `root`, one unit on the flagged side above it."""
    family_evaluation = cli._family_evaluation

    def stepped(family, xs, criterion, **flags):
        ev = family_evaluation(family, xs, criterion, **flags)
        row = cli.CRITERIA[criterion]
        side = np.where(np.array(xs) > root, 1.0, -1.0) * (-1.0 if row.below else 1.0)
        return ev._replace(statistic=row.threshold + side)

    monkeypatch.setattr(cli, "_family_evaluation", stepped)


def parse_report(text):
    fields = {}
    for line in text.splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    return fields


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_golden_stdout(self):
        code, out, err = run_cli(
            "analyze", "--family", "rho_pq", "--param", "0.2071067811",
            "--criterion", "v1", "--a", "0.2",
        )
        assert code == 0 and err == ""
        assert out == (
            "state:        rho_pq(0.2071067811)\n"
            "dims:         4x4\n"
            "criterion:    v1\n"
            "parameter:    0.2\n"
            "statistic:    1.50728766522\n"
            "threshold:    1\n"
            "outcome:      ENTANGLED\n"
            "T1:           0.171572875233\n"
            "T2:           0.00597944171477\n"
            "discriminant: 0.0188214686352\n"
            "admissible:   (0, 0.21077270347] U [11.9076326314, inf)\n"
        )

    def test_golden_statistic(self):
        code, out, err = run_cli(
            "analyze", "--family", "rho_pq", "--param", "0.2071067811",
            "--criterion", "v1", "--a", "0.2",
        )
        assert code == 0 and err == ""
        fields = parse_report(out)
        assert fields["outcome"] == "ENTANGLED"
        assert float(fields["statistic"]) == pytest.approx(1.5073, abs=5e-4)
        assert float(fields["discriminant"]) == pytest.approx(0.0188, abs=5e-4)
        assert fields["dims"] == "4x4"
        assert "admissible" in fields

    def test_inconclusive_is_success(self):
        code, out, _ = run_cli(
            "analyze", "--family", "noisy_ghz4", "--param", "0",
            "--criterion", "v3", "--v", "0.01", "--split", "1|2",
        )
        assert code == 0
        assert parse_report(out)["outcome"] == "INCONCLUSIVE"

    def test_state_file_realign(self, tmp_path):
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
        path = tmp_path / "bell.json"
        save_state(path, bell)
        code, out, _ = run_cli(
            "analyze", "--state", str(path), "--criterion", "realign", "--split", "1|2"
        )
        assert code == 0
        fields = parse_report(out)
        assert float(fields["statistic"]) == pytest.approx(2.0, abs=1e-9)
        assert fields["outcome"] == "ENTANGLED"

    def test_ppt(self):
        code, out, _ = run_cli(
            "analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "ppt", "--party", "2"
        )
        assert code == 0
        fields = parse_report(out)
        assert fields["outcome"] == "ENTANGLED"
        assert float(fields["statistic"]) == pytest.approx(-0.22, abs=1e-9)
        assert float(fields["threshold"]) == 0.0

    @pytest.mark.parametrize(
        "flags, split, party",
        [
            (("--criterion", "v1", "--a", "0.2"), None, None),
            (("--criterion", "v3", "--v", "0.5"), "1|2", None),
            (("--criterion", "realign",), "1|2", None),
            (("--criterion", "ppt",), None, 2),
        ],
    )
    def test_split_and_party_reported_where_read(self, tmp_path, flags, split, party):
        path = tmp_path / "verdict.json"
        code, out, _ = run_cli("analyze", "--family", "rho_pq", "--param", "0.1", *flags,
                               "--split", "1|2", "--party", "2", "--out", str(path))
        assert code == 0
        assert parse_report(out).get("split") == split
        payload = json.loads(path.read_text())
        assert (payload["split"], payload["party"]) == (split, party)

    def test_json_out(self, tmp_path):
        path = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            "analyze", "--family", "rho_pq", "--param", str(Q0),
            "--criterion", "v1", "--a", "0.2", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["criterion"] == "v1"
        assert payload["parameter"] == 0.2
        assert payload["outcome"] == "ENTANGLED"
        assert payload["statistic"] == pytest.approx(1.5072876654986822, abs=1e-9)
        assert payload["dims"] == [4, 4]
        assert payload["state"] == {"family": "rho_pq", "param": Q0}
        assert payload["moments"]["t1"] == pytest.approx(0.17157287525380985, abs=1e-12)
        assert payload["discriminant"] == pytest.approx(0.01882146863844181, abs=1e-12)
        ivs = payload["admissible"]["intervals"]
        assert ivs[0]["hi"] == pytest.approx(0.21077270350240235, abs=1e-9)
        assert ivs[1]["hi"] is None
        # statistic printed and stored agree
        assert float(parse_report(out)["statistic"]) == pytest.approx(
            payload["statistic"], abs=1e-10
        )


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("analyze", "--family", "rho_d", "--criterion", "v1", "--a", "2"),  # no --param
            ("analyze", "--criterion", "v1", "--a", "2"),  # no source
            ("analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "v1"),  # no --a
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "v2", "--u", "5"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "v1", "--a", "2"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "ppt"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "ppt", "--party", "4"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "v2", "--u", "5", "--split", "1|1"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "v2", "--u", "5", "--split", "1|4"),
            ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "v2", "--u", "-1", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "0:1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "1:0:0.1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "0:1:-0.1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("threshold", "--family", "ghz_w", "--bracket", "0-1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("audit", "--dims", "2", "--criteria", "v3"),
            ("audit", "--dims", "2,x", "--criteria", "v3"),
            ("audit", "--dims", "2,2", "--criteria", "nope"),
            ("audit", "--dims", "9,9"),  # dimension 81 exceeds the kron cap of 64
            ("audit", "--dims", "2,2,2,2,2,2,2"),
            ("audit", "--dims", "2,2", "--params", "0.5,-1", "--criteria", "v3"),
            ("audit", "--dims", "2,2", "--params", "-1", "--criteria", "v1"),
            ("audit", "--dims", "2,2", "--params", "0", "--criteria", "v2"),
            ("audit", "--dims", "2,2", "--params", "nan", "--criteria", "v3"),
            ("audit", "--dims", "2,2", "--params", "inf", "--criteria", "v1"),
            ("audit", "--dims", "2,2", "--params", "nan", "--criteria", "realign"),
            ("sweep", "--family", "ghz_w", "--range", "0:inf:0.1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "0:1:nan", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "nan:1:0.1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("sweep", "--family", "ghz_w", "--range", "0:1:1e-9", "--criterion", "v2", "--u", "5", "--split", "1|2"),
            ("threshold", "--family", "noisy_ghz4", "--bracket", "nan:1", "--criterion", "v3", "--v", "1", "--split", "1|2"),
            ("threshold", "--family", "noisy_ghz4", "--bracket", "0:inf", "--criterion", "v3", "--v", "1", "--split", "1|2"),
            ("threshold", "--family", "rho_eps", "--bracket", "-inf:1", "--criterion", "realign", "--split", "1|2"),
            ("audit", "--dims", "2,2", "--seed", "-1"),
            ("sweep", "--family", "rho_eps", "--range", "1e308:1e308:0.1", "--criterion", "realign", "--split", "1|2"),
            ("analyze", "--family", "noisy_ghz4", "--param", "0.5", "--criterion", "v3", "--v", "nan", "--split", "1|2"),
            ("analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "v1", "--a", "inf"),
            ("sweep", "--family", "noisy_ghz4", "--range", "0:1:0.25", "--criterion", "v3", "--v", "nan", "--split", "1|2"),
            ("sweep", "--family", "rho_pq", "--range", "0:0.5:0.1", "--criterion", "v1", "--a", "inf"),
            ("sweep", "--family", "ghz_w", "--range", "0:1:0.25", "--criterion", "v2", "--u", "inf", "--split", "1|2"),
            ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "inf", "--split", "1|2"),
            ("audit", "--dims", "2,2", "--criteria", "v3", "--params", ""),  # nothing evaluated
            ("audit", "--dims", "2,2", "--criteria", "v3,realign", "--params", ""),  # v3 was dropped
            ("audit", "--dims", "2,2", "--criteria", ","),
            ("audit", "--dims", "2,2,2", "--criteria", "v1", "--params", "0.5"),  # v1 needs two parties
            ("audit", "--dims", "2,2,2", "--criteria", "v1,realign", "--params", "0.5"),  # v1 was dropped
            # v1/v2 weights whose 8/weight overflows: their statistic would overflow to inf.
            ("analyze", "--family", "ghz_w", "--param", "1", "--criterion", "v2", "--u", "2.2e-308", "--split", "1|2"),
            ("analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "v1", "--a", "4e-308"),
            ("sweep", "--family", "rho_pq", "--range", "0:0.5:0.1", "--criterion", "v1", "--a", "5e-324"),
            ("threshold", "--family", "rho_pq", "--bracket", "0:0.5", "--criterion", "v1", "--a", "1e-309"),
            ("audit", "--dims", "2,2", "--num-terms", "1", "--criteria", "v1", "--params", "1e-309"),
        ],
    )
    def test_usage_errors_exit_2(self, args):
        code, _, err = run_cli(*args)
        assert code == 2
        assert err.strip() != ""

    @pytest.mark.parametrize("exc, want", [
        (ValueError("x"), (2, "", "error: x\n")),
        (DomainError("y"), (3, "", "validation failure: y\n")),
        (StateValidationError("NOT_PSD", 0.5, "z"), (3, "", "validation failure: NOT_PSD: z (deviation 5.000e-01)\n")),
    ])
    def test_exit_code_follows_the_exception_type(self, monkeypatch, exc, want):
        """main maps an error to its exit code by type alone, whichever subcommand raised it."""
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "evaluate_stack", raising)
        monkeypatch.setattr(cli, "spectrum", raising)
        flags = ("--criterion", "realign", "--split", "1|2")
        for argv in [
            ("analyze", "--family", "rho_eps", "--param", "1", *flags),
            ("sweep", "--family", "rho_eps", "--range", "1:2:0.5", *flags),
            ("threshold", "--family", "rho_eps", "--bracket", "1:2", *flags),
            ("audit", "--dims", "2,2", "--num-states", "2", "--criteria", "realign"),
        ]:
            assert run_cli(*argv) == want, argv

    def test_both_sources_exit_2(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{}")
        code, _, _ = run_cli(
            "analyze", "--family", "rho_d", "--param", "0.3", "--state", str(path),
            "--criterion", "v1", "--a", "2",
        )
        assert code == 2

    def test_malformed_state_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code, _, err = run_cli(
            "analyze", "--state", str(path), "--criterion", "realign", "--split", "1|2"
        )
        assert code == 2 and "cannot read" in err
        # An integer entry no float holds: float() raises OverflowError.
        matrix = [[[10**400 if i == j == 0 else 0.25 * (i == j), 0] for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        code, out, err = run_cli(
            "analyze", "--state", str(path), "--criterion", "realign", "--split", "1|2"
        )
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read state file {str(path)!r}: "
                       "malformed state JSON: int too large to convert to float\n")

    @staticmethod
    def mixed_state_file(tmp_path, dims):
        """The 4x4 maximally mixed state, written with the given dims entries."""
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        return str(path)

    @pytest.mark.parametrize("entry", [2.5, True, "2", 2.0000001, None])
    def test_non_integral_dims_exit_2(self, tmp_path, entry):
        # int() used to truncate these: [2.5, 2] was analysed as a 2x2 state.
        path = self.mixed_state_file(tmp_path, [entry, 2])
        code, out, err = run_cli("analyze", "--state", path, "--criterion", "realign", "--split", "1|2")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read state file {path!r}: "
                       f"dims entry {json.dumps(entry)} is not an integer\n")

    def test_integral_float_dims_are_read(self, tmp_path):
        path = self.mixed_state_file(tmp_path, [2.0, 2])
        code, out, _ = run_cli("analyze", "--state", path, "--criterion", "realign", "--split", "1|2")
        assert code == 0 and parse_report(out)["dims"] == "2x2"

    def test_missing_state_file_exit_2(self, tmp_path):
        code, _, _ = run_cli(
            "analyze", "--state", str(tmp_path / "absent.json"),
            "--criterion", "realign", "--split", "1|2",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "dims, matrix, message",
        [
            # 14.6 TiB if allocated before the row count is checked
            ([1000, 1000], [], "dims [1000, 1000] give dimension 1000000, above the cap 64"),
            # a valid state of total dimension 128 (analysed, exit 0, before the cap)
            ([8, 16], None, "dims [8, 16] give dimension 128, above the cap 64"),
        ],
    )
    def test_state_file_above_the_dimension_cap_exit_2(self, tmp_path, dims, matrix, message):
        path = tmp_path / "big.json"
        if matrix is None:
            save_state(path, DensityMatrix(dims=tuple(dims), matrix=np.eye(128) / 128))
        else:
            path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        code, out, err = run_cli("analyze", "--state", str(path), "--criterion", "ppt", "--party", "1")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read state file {str(path)!r}: {message}\n"

    @pytest.mark.parametrize("dims, terms", [("2,2", 17), ("2,2", 10**12), ("2,3,2", 145)])
    def test_audit_num_terms_above_d_squared_exit_2(self, dims, terms):
        # Caratheodory: every separable state mixes at most D^2 pure products.  At
        # 10^12 terms the sample stack alone would take 7.28 TiB.
        d = math.prod(int(x) for x in dims.split(","))
        argv = ("audit", "--dims", dims, "--num-states", "1")
        code, out, err = run_cli(*argv, "--num-terms", str(terms))
        assert (code, out, err) == (2, "", f"error: --num-terms must be at most D^2 = {d * d}, got {terms}\n")
        assert run_cli(*argv, "--num-terms", str(d * d))[0] == 0

    CRITERION_FLAGS = {
        "v1": ("--a", "1"), "v2": ("--u", "1", "--split", "1|2"), "v3": ("--v", "1", "--split", "1|2"),
        "realign": ("--split", "1|2"), "ppt": ("--party", "1"),
    }

    @pytest.mark.parametrize("criterion", list(CRITERION_FLAGS))
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
    @pytest.mark.parametrize(
        "sign, message",
        [
            (1.0, "NOT_PSD: minimum eigenvalue -1.500e+308 is negative (deviation 1.500e+308)"),
            (-1.0, "NOT_HERMITIAN: matrix is not Hermitian (deviation inf)"),
        ],
        ids=["symmetric", "antisymmetric"],
    )
    def test_overflowing_state_file_exit_3(self, tmp_path, criterion, dims, sign, message):
        """Finite entries whose rho + rho^dagger or rho - rho^dagger overflows: exit 3, no warning."""
        d = math.prod(dims)
        matrix = [[[1.0 / d if i == j else 0.0, 0.0] for j in range(d)] for i in range(d)]
        matrix[0][1][0], matrix[1][0][0] = 1.5e308, sign * 1.5e308
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": list(dims), "matrix": matrix}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli("analyze", "--state", str(path), "--criterion", criterion,
                             *self.CRITERION_FLAGS[criterion])
        assert result == (3, "", f"validation failure: {message}\n")

    @pytest.mark.parametrize(
        "diagonal, deviation",
        [((1e308,) * 4, "inf"), ((1.7e308, 1.7e308, -1.7e308, -1.7e308), "nan")],
        ids=["overflow", "inf-minus-inf"],
    )
    def test_trace_past_the_largest_float_exit_3(self, tmp_path, diagonal, deviation):
        """A finite diagonal whose sum overflows, or whose partial sums overflow with both signs:
        TRACE_NOT_ONE, with no warning from the trace."""
        matrix = [[[diagonal[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli("analyze", "--state", str(path), "--criterion", "realign", "--split", "1|2")
        assert result == (3, "", f"validation failure: TRACE_NOT_ONE: trace differs from 1 (deviation {deviation})\n")

    UNKNOWN ="unknown criterion 'nope'; choose from ('v1', 'v2', 'v3', 'realign', 'ppt')"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--dims", "2,x"), "dims '2,x' must be comma-separated integers"),
            (("--dims", "2"), "dims needs at least two parties of dimension >= 2"),
            (("--dims", "2,1"), "dims needs at least two parties of dimension >= 2"),
            (("--dims", "2,2", "--criteria", "v3,nope"), UNKNOWN),
            (("--dims", "2,2", "--params", "1,x"), "params '1,x' must be comma-separated numbers"),
            (("--dims", "2,2", "--num-states", "0"), "--num-states and --num-terms must be >= 1"),
            (("--dims", "2,2", "--num-terms", "0"), "--num-states and --num-terms must be >= 1"),
            (("--dims", "2,2", "--seed", "-1"), "--seed must be >= 0, got -1"),
            (("--dims", "9,9"), "dims '9,9' give dimension 81, above the cap 64"),
            (("--dims", "2,2", "--num-terms", "17"), "--num-terms must be at most D^2 = 16, got 17"),
            (("--dims", "2,2", "--params", "0.5,nan"), "weight nan in --params is not finite"),
            (("--dims", "2,2", "--params", "-inf", "--criteria", "v3"), "weight -inf in --params is not finite"),
            (("--dims", "2,2", "--params", "inf", "--criteria", "realign"), "weight inf in --params is not finite"),
            # The row rule of each weighted criterion, named from its row.
            (("--dims", "2,2", "--criteria", "v1", "--params", "0"), "weight must be positive, got 0.0 (criterion v1)"),
            (("--dims", "2,2", "--criteria", "v1", "--params", "1e160"),
             "weight 1e+160 is too large: its square overflows (criterion v1)"),
            (("--dims", "2,2", "--criteria", "v2", "--params", "-1"), "weight must be positive, got -1.0 (criterion v2)"),
            (("--dims", "2,2", "--criteria", "v2", "--params", "1e300"),
             "weight 1e+300 is too large: its square overflows (criterion v2)"),
            (("--dims", "2,2", "--criteria", "v3", "--params", "-0.5"),
             "weight must be nonnegative, got -0.5 (criterion v3)"),
            (("--dims", "2,2", "--criteria", "v3", "--params", "1e160"),
             "weight 1e+160 is too large: its square overflows (criterion v3)"),
            (("--dims", "2,2", "--criteria", "ppt,v3,v2", "--params", "1,0"),
             "weight must be positive, got 0.0 (criterion v2)"),
            (("--dims", "2,2,2", "--criteria", "v1", "--params", "0"), "weight must be positive, got 0.0 (criterion v1)"),
        ],
    )
    def test_audit_input_errors(self, argv, message):
        """Each audit input check, in order, with its exact message: exit 2 and nothing on stdout."""
        assert run_cli("audit", "--num-states", "3", *argv) == (2, "", f"error: {message}\n")

    def test_state_file_nested_too_deep_exit_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli("analyze", "--state", str(path), "--criterion", "ppt", "--party", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read state file {str(path)!r}: maximum recursion depth")

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--family", "rho_pq", "--param", "0.2", "--criterion", "v1", "--a", "0.2"),
            ("sweep", "--family", "rho_pq", "--range", "0:0.5:0.1", "--criterion", "v1", "--a", "0.2"),
            ("audit", "--dims", "2,2", "--num-states", "5"),
        ],
    )
    @pytest.mark.parametrize("where, reason", [("missing/out.txt", "No such file or directory"),
                                               ("", "Is a directory")])
    def test_unwritable_out_exit_2(self, tmp_path, argv, where, reason):
        path = str(tmp_path / where) if where else str(tmp_path)
        code, _, err = run_cli(*argv, "--out", path)
        assert code == 2
        assert err == f"error: cannot write {path!r}: {reason}\n"

    def test_unknown_choice_exit_2(self):
        code, _, _ = run_cli(
            "analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "v9"
        )
        assert code == 2

    def test_family_domain_exit_3(self):
        code, _, err = run_cli(
            "analyze", "--family", "rho_d", "--param", "0.9", "--criterion", "v1", "--a", "2"
        )
        assert code == 3
        assert "validation failure" in err

    @pytest.mark.parametrize("cells", [((0, 1), (1, 0)), ((0, 0),)])
    def test_non_finite_state_file_exit_3(self, tmp_path, cells):
        state = np.eye(4, dtype=complex) / 4
        for idx in cells:
            state[idx] = math.nan
        path = tmp_path / "nan.json"
        save_state(path, DensityMatrix(dims=(2, 2), matrix=state))
        code, _, err = run_cli(
            "analyze", "--state", str(path), "--criterion", "ppt", "--party", "2"
        )
        assert code == 3
        assert "NON_FINITE" in err

    def test_invalid_state_file_exit_3(self, tmp_path):
        path = tmp_path / "npsd.json"
        payload = {
            "dims": [2],
            "matrix": [[[1.001, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.001, 0.0]]],
        }
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            "analyze", "--state", str(path), "--criterion", "ppt", "--party", "1"
        )
        assert code == 3
        assert "NOT_PSD" in err


class TestSweep:
    def test_schema_and_grid(self):
        code, out, _ = run_cli(
            "sweep", "--family", "ghz_w", "--range", "0:1:0.3",
            "--criterion", "v2", "--u", "5", "--split", "1|2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "state_param", "criterion", "criterion_param", "statistic",
            "admissible_low", "admissible_high", "outcome",
        ]
        assert [r[0] for r in rows] == ["0", "0.3", "0.6", "0.9", "1"]
        assert all(r[1] == "v2" and r[2] == "5" and r[6] == "ENTANGLED" for r in rows)

    def test_single_point_range(self):
        code, out, _ = run_cli(
            "sweep", "--family", "ghz_w", "--range", "0.5:0.5:0.1",
            "--criterion", "v2", "--u", "5", "--split", "1|2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_admissible_columns(self):
        code, out, _ = run_cli(
            "sweep", "--family", "rho_pq", "--range", "0:0.5:0.05",
            "--criterion", "v1", "--a", "0.2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 11
        by_q = {r[0]: r for r in rows}
        row = by_q["0.15"]  # well inside the positive-discriminant zone
        assert float(row[4]) == pytest.approx(0.20456545342288543, abs=1e-9)
        assert float(row[5]) == pytest.approx(12.2341644564164, abs=1e-7)
        row_deg = by_q["0.5"]  # negative discriminant: whole positive axis
        assert row_deg[4] == "" and row_deg[5] == ""

    def test_byte_stable_and_file_matches_stdout(self, tmp_path):
        args = (
            "sweep", "--family", "noisy_ghz4", "--range", "0:1:0.1",
            "--criterion", "v3", "--v", "0.01", "--split", "1|2",
        )
        code, out, _ = run_cli(*args)
        assert code == 0
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(p1))[0] == 0
        assert run_cli(*args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == out

    def test_twelve_significant_digits(self):
        _, out, _ = run_cli(
            "sweep", "--family", "ghz_w", "--range", "0.1:0.1:1",
            "--criterion", "v2", "--u", "5", "--split", "1|2",
        )
        _, rows = parse_csv(out)
        stat = rows[0][3]
        assert stat == format(float(stat), ".12g")
        assert len(stat.replace(".", "").replace("-", "").lstrip("0")) >= 11

    def test_matches_analyze(self):
        args_common = ("--criterion", "v1", "--a", "0.2")
        _, sweep_out, _ = run_cli(
            "sweep", "--family", "rho_pq", "--range", "0.2:0.2:1", *args_common
        )
        _, rows = parse_csv(sweep_out)
        sweep_stat = float(rows[0][3])
        _, an_out, _ = run_cli(
            "analyze", "--family", "rho_pq", "--param", "0.2", *args_common
        )
        an_stat = float(parse_report(an_out)["statistic"])
        assert abs(sweep_stat - an_stat) <= 1e-12


class TestThreshold:
    def test_detection_boundary(self):
        code, out, _ = run_cli(
            "threshold", "--family", "noisy_ghz4", "--bracket", "0:1",
            "--criterion", "v3", "--v", "0.01", "--split", "1|2",
        )
        assert code == 0
        x_star = float(out.strip())
        assert x_star == pytest.approx(0.6427, abs=1e-3)
        # crossing is genuine: re-evaluated statistic sits on the threshold
        _, an_out, _ = run_cli(
            "analyze", "--family", "noisy_ghz4", "--param", str(x_star),
            "--criterion", "v3", "--v", "0.01", "--split", "1|2",
        )
        assert abs(float(parse_report(an_out)["statistic"]) - 1.0) <= 1e-4

    def test_realign_norm_boundary(self):
        code, out, _ = run_cli(
            "threshold", "--family", "noisy_ghz4", "--bracket", "0:1",
            "--criterion", "realign", "--split", "1|2",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 3, abs=2e-6)

    def test_no_sign_change(self):
        code, _, err = run_cli(
            "threshold", "--family", "ghz_w", "--bracket", "0:1",
            "--criterion", "v2", "--u", "5", "--split", "1|2",
        )
        assert code == 2
        assert "straddle" in err

    # The ends sum past the largest float, so the midpoint halves each end first.  rho_eps's
    # realign statistic is 1 at both ends, no crossing, so it is made to step across inside.
    @pytest.mark.parametrize("bracket", ["1e308:1.7e308", "1e-300:1e308"])
    def test_bracket_near_float_max_gives_a_finite_root(self, monkeypatch, bracket):
        lo, hi = (float(end) for end in bracket.split(":"))
        root = lo + 0.3 * (hi - lo)
        step_statistic(monkeypatch, root)
        code, out, err = run_cli(
            "threshold", "--family", "rho_eps", "--bracket", bracket,
            "--criterion", "realign", "--split", "1|2",
        )
        assert (code, err) == (0, "")
        assert lo <= float(out) <= hi and float(out) == pytest.approx(root, rel=1e-11)


class TestAudit:
    def test_product_states_expose_formula(self):
        code, out, _ = run_cli(
            "audit", "--dims", "2,2", "--num-states", "30", "--num-terms", "1",
            "--criteria", "v1", "--params", "0.5,2,10", "--seed", "0",
        )
        assert code == 0
        lines = [ln.split() for ln in out.splitlines() if ln.startswith("v1")]
        assert len(lines) == 3
        for parts, a in zip(lines, (0.5, 2.0, 10.0)):
            evaluated, violations = int(parts[3]), int(parts[4])
            assert evaluated == 30 and violations == 30
            assert float(parts[5]) == pytest.approx(math.sqrt(1 + 4 / a), abs=1e-9)

    def test_mixed_samples_no_violations(self):
        code, out, _ = run_cli(
            "audit", "--dims", "2,2", "--num-states", "50", "--num-terms", "3",
            "--criteria", "v3,realign,ppt", "--params", "0.01,0.5,1,5", "--seed", "0",
        )
        assert code == 0
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("v3", "realign", "ppt"):
                assert int(parts[4]) == 0

    def test_flag_defaults_are_the_config_defaults(self, tmp_path):
        path = tmp_path / "audit.json"
        assert run_cli("audit", "--dims", "2,2", "--out", str(path))[0] == 0
        config = json.loads(path.read_text())["config"]
        assert config == json.loads(json.dumps(dataclasses.asdict(AuditConfig(dims=(2, 2)))))
        assert config["params"] == [0.01, 0.5, 1.0, 5.0] and config["num_states"] == 200

    def test_deterministic(self):
        args = ("audit", "--dims", "2,2", "--num-states", "10", "--seed", "3")
        assert run_cli(*args)[1] == run_cli(*args)[1]

    def test_json_report(self, tmp_path):
        path = tmp_path / "audit.json"
        code, _, _ = run_cli(
            "audit", "--dims", "2,2", "--num-states", "5", "--num-terms", "1",
            "--criteria", "v1", "--params", "2", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["config"]["dims"] == [2, 2]
        assert payload["config"]["num_terms"] == 1
        entry = payload["entries"][0]
        assert entry["criterion"] == "v1"
        assert entry["evaluated"] == 5
        assert entry["violations"] == 5
        assert entry["worst_statistic"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert isinstance(entry["worst_seed"], int)


class TestWeightOverflow:
    """A weight whose square overflows is bad input (exit 2), not a statistic of inf."""

    @staticmethod
    def argvs(w):
        return [
            ("analyze", "--family", "rho_eps", "--param", "1", "--criterion", "v1", "--a", w),
            ("analyze", "--family", "rho_eps", "--param", "1", "--criterion", "v2", "--u", w,
             "--split", "1|2"),
            ("analyze", "--family", "rho_eps", "--param", "1", "--criterion", "v3", "--v", w,
             "--split", "1|2"),
            ("sweep", "--family", "rho_eps", "--range", "0.5:1:0.25", "--criterion", "v1", "--a", w),
            ("sweep", "--family", "ghz_w", "--range", "0:1:0.5", "--criterion", "v3", "--v", w,
             "--split", "1|2"),
            ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3",
             "--v", w, "--split", "1|2"),
            ("audit", "--dims", "3,3", "--criteria", "v1,v2", "--params", w, "--num-states", "20"),
            ("audit", "--dims", "2,2", "--criteria", "v3", "--params", f"1,{w}", "--num-states", "5"),
        ]

    @pytest.mark.parametrize("index", range(8))
    @pytest.mark.parametrize("w", ["1e160", "1e300"])
    def test_exit_2_without_traceback_or_warning(self, index, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*self.argvs(w)[index])
        assert (code, out) == (2, "")
        assert err.startswith("error: weight ") and "is too large" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("index", range(8))
    def test_1e150_still_evaluates(self, index):
        argv = self.argvs("1e150")[index]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        if argv[0] == "analyze":
            assert math.isfinite(float(parse_report(out)["statistic"]))


class TestPureProductsAtLargeWeights:
    """A pure product's T2 computed a few ulp above T1^2 made v1/v2 raise a negative radicand at a >= 1e8."""

    def test_audit_exits_0(self):
        code, out, err = run_cli("audit", "--dims", "2,2", "--num-terms", "1", "--criteria", "v1", "--params", "1e8")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("flags", [("v1", "--a", "1e8"), ("v2", "--u", "1e8", "--split", "1|2")])
    def test_analyze_exits_0(self, tmp_path, flags):
        path = tmp_path / "product.json"
        save_state(str(path), sample_separable((3, 3), 1, 7))
        code, out, err = run_cli("analyze", "--state", str(path), "--criterion", *flags)
        assert (code, err) == (0, "")


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "remoments", "analyze",
            "--family", "ghz_w", "--param", "0.5",
            "--criterion", "v2", "--u", "5", "--split", "1|2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ENTANGLED" in proc.stdout
