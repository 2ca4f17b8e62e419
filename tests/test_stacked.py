"""Stacked family construction, validation, sweep and threshold.

The stacked paths must reproduce the scalar ones exactly: family members
bit for bit, validation errors code for code, sweep CSVs byte for byte
against the committed reference series, and threshold roots, messages and
exit codes as the point-by-point bisection printed them.
"""
import contextlib
import importlib.util
import io
import math
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_density, request
from remoments import FAMILIES, DensityMatrix, StateValidationError, validate
from remoments import cli
from remoments.cli import _parse_grid, sweep_rows, write_sweep_csv
from remoments.criteria import CRITERIA, check_request, entangled, evaluate, spectrum
from remoments.linalg import SCRATCH, Scratch
from remoments.realign import RealignSpec, enumerate_splits
from remoments.states import (
    RHO_D_MAX, RHO_D_MIN, DomainError, family_dims, family_stack, separable_stack, validate_stack,
)
from test_cli import run_cli, step_statistic

ROOT = Path(__file__).resolve().parent.parent

DOMAINS = {
    "rho_d": (RHO_D_MIN, RHO_D_MAX),
    "rho_eps": (1e-3, 1e3),
    "rho_pq": (0.0, 0.5),
    "ghz_w": (0.0, 1.0),
    "noisy_ghz4": (0.0, 1.0),
}


@st.composite
def family_params(draw):
    """A family and parameters in its domain, mixed with off-domain and NaN ones."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    lo, hi = DOMAINS[name]
    inside = st.floats(lo, hi)
    anywhere = st.one_of(inside, st.floats(-2.0, 2.0), st.just(math.nan), st.just(1e300))
    xs = draw(st.lists(st.one_of(inside, inside, anywhere), min_size=1, max_size=8))
    return name, xs


UNKNOWN_FAMILY = "unknown family 'nope'; choose from ['ghz_w', 'noisy_ghz4', 'rho_d', 'rho_eps', 'rho_pq']"


def _first_scalar_error(name, xs):
    for x in xs:
        try:
            FAMILIES[name](x)
        except ValueError as exc:
            return exc
    return None


class TestFamilyStack:
    @given(family_params())
    @example(("ghz_w", [0.5, 1.5, 0.25, -1.0]))
    @example(("rho_eps", [1.0, math.nan, 2.0]))  # nan passes eps > 0, fails as NON_FINITE
    @example(("rho_eps", [1.0, math.nan, -1.0]))  # validation error before a domain error
    def test_equals_scalar_constructors_bit_for_bit(self, case):
        """The stack, or the error the scalar constructor loop raises first."""
        name, xs = case
        expected = _first_scalar_error(name, xs)
        if expected is not None:
            with pytest.raises(ValueError) as exc:
                family_stack(name, xs)
            assert type(exc.value) is type(expected)
            assert str(exc.value) == str(expected)
            assert getattr(exc.value, "code", None) == getattr(expected, "code", None)
            return
        dims, matrices = family_stack(name, xs)
        assert matrices.shape[0] == len(xs)
        for x, m in zip(xs, matrices):
            scalar = FAMILIES[name](x)
            assert dims == scalar.dims
            assert m.tobytes() == scalar.matrix.tobytes()

    def test_domain_errors_per_parameter(self):
        # The stack fails as a whole, with the first off-domain parameter's error.
        with pytest.raises(ValueError) as exc:
            family_stack("ghz_w", [0.5, 1.5, 0.25, -1.0])
        assert type(exc.value) is DomainError
        assert str(exc.value) == "ghz_w requires 0 <= q <= 1, got 1.5"
        dims, matrices = family_stack("ghz_w", [0.5, 0.25])
        assert matrices.shape == (2, 8, 8)
        assert matrices[1].tobytes() == FAMILIES["ghz_w"](0.25).matrix.tobytes()

    def test_validation_error_recorded_at_its_parameter(self):
        # eps = nan passes the eps > 0 gate and fails validation instead.
        with pytest.raises(StateValidationError) as exc:
            family_stack("rho_eps", [1.0, math.nan, 2.0])
        assert exc.value.code == "NON_FINITE"
        expected = _first_scalar_error("rho_eps", [math.nan])
        assert str(exc.value) == str(expected)
        dims, matrices = family_stack("rho_eps", [1.0, 2.0])
        assert matrices.shape == (2, 9, 9)

    def test_unknown_family(self):
        for build in (lambda: family_stack("nope", [0.5]), lambda: family_dims("nope")):
            with pytest.raises(ValueError) as exc:
                build()
            assert type(exc.value) is ValueError and str(exc.value) == UNKNOWN_FAMILY


DEFECTS = ("NON_FINITE", "NOT_HERMITIAN", "TRACE_NOT_ONE", "NOT_PSD")


def _corrupt(m, defect, size):
    m = m.copy()
    if defect == "NON_FINITE":
        m[0, 1] = m[1, 0] = math.nan
    elif defect == "NOT_HERMITIAN":
        m[0, 1] += size
    elif defect == "TRACE_NOT_ONE":
        m = m * (1.0 + size)
    else:
        vals, vecs = np.linalg.eigh(m)
        vals[0] = -size
        vals[-1] += 1.0 - vals.sum()  # keep the trace at 1
        m = (vecs * vals) @ vecs.conj().T
    return m


def _first_loop_error(stack, dims):
    for m in stack:
        try:
            validate(DensityMatrix(dims=dims, matrix=m))
        except StateValidationError as exc:
            return exc
    return None


class TestValidateStack:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
        defect=st.sampled_from(DEFECTS),
        size=st.sampled_from([1e-6, 1e-3, 0.2]),
        seed=st.integers(0, 10_000),
        second=st.sampled_from((None,) + DEFECTS),
    )
    def test_matches_per_matrix_loop(self, n, data, defect, size, seed, second):
        dims = (2, 2)
        stack = np.stack([random_density(dims, seed + k).matrix for k in range(n)])
        pos = data.draw(st.integers(0, n - 1))
        stack[pos] = _corrupt(stack[pos], defect, size)
        if second is not None and pos + 1 < n:
            stack[pos + 1] = _corrupt(stack[pos + 1], second, size)
        expected = _first_loop_error(stack, dims)
        assert expected is not None and expected.code == defect
        with pytest.raises(StateValidationError) as exc:
            validate_stack(stack)
        assert exc.value.code == expected.code
        assert exc.value.deviation == expected.deviation
        assert str(exc.value) == str(expected)

    def test_valid_stack_passes_unchanged(self):
        stack = np.stack([random_density((3, 2), k).matrix for k in range(5)])
        assert validate_stack(stack) is stack

    def test_empty_stack(self):
        stack = np.zeros((0, 4, 4), dtype=complex)
        assert validate_stack(stack) is stack


TOL = 1e-10


def frozen_validate_stack(matrices):
    """`validate_stack` as it was when every positivity check was an eigensolve."""
    m = np.asarray(matrices, dtype=complex)
    adj = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):
        herm_dev = np.abs(m - adj).max(axis=(-2, -1))
    trace_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    ok = np.maximum(herm_dev, trace_dev) <= TOL
    n_ok = len(m) if ok.all() else int(ok.argmin())
    # Halved before adding, as in hermitian_eigenvalues: equal to (m + adj)/2 for normal
    # floats, and finite where that sum overflows.
    min_eig = np.linalg.eigvalsh(m[:n_ok] / 2.0 + adj[:n_ok] / 2.0)[:, 0]
    negative = np.flatnonzero(min_eig < -TOL)
    if negative.size:
        e = min_eig[negative[0]]
        raise StateValidationError("NOT_PSD", float(-e), f"minimum eigenvalue {e:.3e} is negative")
    if n_ok == len(m):
        return matrices
    bad = int(np.count_nonzero(~np.isfinite(m[n_ok])))
    if bad:
        raise StateValidationError(
            "NON_FINITE", float(bad), f"{bad} of {m[n_ok].size} entries are NaN or infinite"
        )
    if herm_dev[n_ok] > TOL:
        raise StateValidationError("NOT_HERMITIAN", float(herm_dev[n_ok]), "matrix is not Hermitian")
    raise StateValidationError("TRACE_NOT_ONE", float(trace_dev[n_ok]), "trace differs from 1")


def _unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _with_min_eigenvalue(d, low, seed):
    """U diag(low, rest) U^dag: Hermitian, unit trace, minimum eigenvalue `low`."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.1, 1.0, d - 1)
    vals = np.concatenate([[low], rest * (1.0 - low) / rest.sum()])
    u = _unitary(d, rng)
    return (u * vals) @ u.conj().T


def _rank(d, r, seed):
    """A random rank-r density matrix: every other eigenvalue is 0."""
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = kets @ kets.conj().T
    return m / np.trace(m).real


def _verdict(check, stack):
    try:
        check(stack)
    except StateValidationError as exc:
        return exc.code, exc.deviation, str(exc)
    return None


MIN_EIGENVALUES = {
    "beyond_tol": -TOL * (1 + 1e-3),
    "within_tol": -TOL * (1 - 1e-3),
    "beyond_half_tol": -TOL / 2 - 1e-13,
    "within_half_tol": -TOL / 2 + 1e-13,
    "small_negative": -1e-12,
    "zero": 0.0,
}


class TestPositivityCheck:
    """The Cholesky certificate with its eigensolve fallback against the eigensolve alone."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("d", [2, 4, 9, 16, 64])
    @pytest.mark.parametrize("low", list(MIN_EIGENVALUES.values()), ids=list(MIN_EIGENVALUES))
    def test_min_eigenvalue_near_the_tolerance(self, low, d, where):
        stack = np.stack([_with_min_eigenvalue(d, 0.01, seed) for seed in range(5)])
        pos = {"first": 0, "middle": 2, "last": 4}[where]
        stack[pos] = _with_min_eigenvalue(d, low, 100 + d)
        want = _verdict(frozen_validate_stack, stack)
        assert (want is not None) == (low < -TOL)
        assert _verdict(validate_stack, stack) == want

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_states_pass(self, rank, where):
        stack = np.stack([_rank(64, 5, seed) for seed in range(5)])
        stack[{"first": 0, "middle": 2, "last": 4}[where]] = _rank(64, rank, 7)
        assert _verdict(frozen_validate_stack, stack) is None
        assert validate_stack(stack) is stack

    @pytest.mark.parametrize("low", list(MIN_EIGENVALUES.values()), ids=list(MIN_EIGENVALUES))
    def test_first_failure_before_and_after_another_defect(self, low):
        """A NOT_PSD matrix ahead of a NOT_HERMITIAN one is reported; one behind it is not."""
        good = [_with_min_eigenvalue(9, 0.02, seed) for seed in range(4)]
        bad = _with_min_eigenvalue(9, low, 3)
        non_hermitian = good[1].copy()
        non_hermitian[0, 1] += 1e-3
        for stack in ([good[0], bad, non_hermitian, good[2]], [good[0], non_hermitian, bad, good[3]]):
            stack = np.stack(stack)
            assert _verdict(validate_stack, stack) == _verdict(frozen_validate_stack, stack)

    def test_overflowing_sum_is_decided_by_the_eigensolve(self):
        """rho + rho^dagger overflows to inf: no finite factor certifies it, and the eigensolve says NOT_PSD."""
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 1.5e308
        want = ("NOT_PSD", 1.5e308, "NOT_PSD: minimum eigenvalue -1.500e+308 is negative (deviation 1.500e+308)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _verdict(validate_stack, m[None]) == want
        assert _verdict(frozen_validate_stack, m[None]) == want


def _figure_series():
    path = ROOT / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SERIES


@pytest.mark.parametrize("series", _figure_series(), ids=lambda s: s[0])
def test_figure_series_match_reference_csv(tmp_path, series):
    """Each figure CSV byte for byte: from `sweep_rows`, and from `remoments sweep` through --out and
    through stdout, in one stack for rho_d (55 points) and ghz_w (101), and in two (64 and 37
    points) for rho_pq and noisy_ghz4."""
    filename, family, range_spec, req = series
    want = (ROOT / "bench" / "ref" / filename).read_bytes()
    rows = sweep_rows(family, _parse_grid(range_spec), *req)
    buf = io.StringIO(newline="")
    write_sweep_csv(buf, rows)
    assert buf.getvalue().encode() == want
    criterion = req[0]
    argv = ["sweep", "--family", family, "--range", range_spec, "--criterion", criterion]
    for name, value in zip([CRITERIA[criterion].flag, "split"], req[1:]):
        argv += [f"--{name}", str(value)]
    with stack_sizes() as sizes:
        assert run_cli(*argv) == (0, want.decode(), "")
    assert len(sizes) == {"rho_d": 1, "ghz_w": 1, "rho_pq": 2, "noisy_ghz4": 2}[family]
    assert max(sizes) * ENTRIES[family] <= cli.STACK_ENTRIES
    out = tmp_path / filename
    assert run_cli(*argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == want


# Unvisited midpoints of this bracket have NaN v2 statistics.
NAN_UNVISITED = ("--family", "rho_pq", "--bracket", "0.0668:0.491", "--criterion", "v2",
                 "--u", "11.849", "--split", "1|2")

# (argv after "threshold", exit code, stdout, stderr) as printed by the
# point-by-point bisection before thresholds were evaluated as stacks.
THRESHOLD_GOLDEN = [
    # every split of the benchmark's threshold solves
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0.01",
      "--split", "1|2"), 0, "0.642671108246\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "2.5",
      "--split", "12|3"), 0, "0.754998683929\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "7.25",
      "--split", "12|34"), 0, "0.801340579987\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0",
      "--split", "1|234"), 0, "0.643168926239\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "10",
      "--split", "1|23"), 0, "0.809607028961\n", ""),
    # v1, v2, realign and ppt brackets
    (("--family", "rho_pq", "--bracket", "0.2327:0.4652", "--criterion", "v1", "--a", "15.196"),
     0, "0.460899782372\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0.5325:0.768", "--criterion", "v2",
      "--u", "17.765", "--split", "1|234"), 0, "0.643168667793\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "realign", "--split", "1|2"),
     0, "0.333333492279\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "ppt", "--party", "1"),
     0, "0.111111164093\n", ""),
    # midpoints the bisection never visits have NaN v2 statistics
    (NAN_UNVISITED, 0, "0.460899558067\n", ""),
    (("--family", "rho_pq", "--bracket", "0.05:0.491", "--criterion", "v2", "--u", "11.849",
      "--split", "1|2"), 0, "0.460899357796\n", ""),
    # NaN statistic at a visited end
    (("--family", "rho_pq", "--bracket", "0.2:0.47", "--criterion", "v2", "--u", "11.849",
      "--split", "1|2"), 2, "",
     "error: statistic undefined at state parameter 0.2 "
     "(criterion parameter outside admissible range)\n"),
    (("--family", "rho_pq", "--bracket", "0.1:0.175", "--criterion", "v2", "--u", "11.849",
      "--split", "1|2"), 2, "",
     "error: statistic undefined at state parameter 0.175 "
     "(criterion parameter outside admissible range)\n"),
    # no sign change
    (("--family", "ghz_w", "--bracket", "0:1", "--criterion", "v2", "--u", "5", "--split", "1|2"),
     2, "", "error: bracket [0, 1] does not straddle the threshold "
     "(offsets 0.625441850697 and 0.639637116155)\n"),
    # hi outside the family's domain
    (("--family", "noisy_ghz4", "--bracket", "0:1.5", "--criterion", "v3", "--v", "0.01",
      "--split", "1|2"), 3, "",
     "validation failure: noisy_ghz4 requires 0 <= x <= 1, got 1.5\n"),
    # a missing flag at LO wins over the out-of-domain HI
    (("--family", "noisy_ghz4", "--bracket", "0:1.5", "--criterion", "v3", "--v", "0.01"),
     2, "", "error: criterion v3 requires --split\n"),
    # Two more splits of the first solve, printed at 679ace7 (T1 and T2 read off the
    # Gram matrix), not by the point-by-point loop.
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0.01",
      "--split", "12|34"), 0, "0.643637180328\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0.01",
      "--split", "1|234"), 0, "0.643915653229\n", ""),
    # The last two splits of the first solve.
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0.01",
      "--split", "12|3"), 0, "0.643041133881\n", ""),
    (("--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3", "--v", "0.01",
      "--split", "1|23"), 0, "0.643041133881\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", THRESHOLD_GOLDEN)
def test_threshold_golden(argv, code, out, err):
    assert run_cli("threshold", *argv) == (code, out, err)


def test_unvisited_nan_midpoints_do_not_raise(monkeypatch):
    """The stacked rounds do evaluate NaN points, and the solve still succeeds."""
    evaluated = []

    def recording(*args):
        result = evaluate(*args)
        evaluated.extend(result.statistic.tolist())
        return result

    monkeypatch.setattr(cli, "evaluate", recording)
    assert run_cli("threshold", *NAN_UNVISITED) == (0, "0.460899558067\n", "")
    assert any(math.isnan(x) for x in evaluated)


def test_threshold_stops_between_adjacent_floats(monkeypatch):
    # Near 3e10 adjacent floats are 3.8e-6 apart, wider than the 1e-6
    # tolerance, and a statistic stepping across the threshold at 3e10
    # straddles it; the midpoint rounds to an end every time.
    step_statistic(monkeypatch, 3e10)
    hi = math.nextafter(3e10, math.inf)
    argv = ("--family", "rho_eps", "--bracket", f"3e10:{hi!r}", "--criterion", "realign",
            "--split", "1|2")
    assert run_cli("threshold", *argv) == (0, "30000000000\n", "")


def reference_threshold(family, lo, hi, criterion, flags):
    """(exit code, stdout, stderr) of `threshold` as a point-by-point bisection.

    The flags become the command's request, which `check_request` checks
    first; then LO and HI are built together, before either statistic is
    read, and each point the bisection visits, LO, HI, then each midpoint,
    is evaluated on its own with a one-point `cli._family_evaluation`.  The
    ends straddle the threshold when their offsets lie on opposite sides of
    0 and exactly one of their statistics is flagged.
    """
    def statistic(x):
        value = cli._family_evaluation(family, [x], *req).statistic.tolist()[0]
        if math.isnan(value):
            raise ValueError(f"statistic undefined at state parameter {cli._fmt(x)} "
                             "(criterion parameter outside admissible range)")
        return value

    threshold = CRITERIA[criterion].threshold

    def offset(x):
        return statistic(x) - threshold

    try:
        req = request(criterion, **flags)
        check_request(family_dims(family), *req)
        family_stack(family, [lo, hi])
        s_lo, s_hi = statistic(lo), statistic(hi)
        f_lo, f_hi = s_lo - threshold, s_hi - threshold
        if (f_lo < 0.0) == (f_hi < 0.0) or entangled(criterion, s_lo) == entangled(criterion, s_hi):
            raise ValueError(f"bracket [{cli._fmt(lo)}, {cli._fmt(hi)}] does not straddle the "
                             f"threshold (offsets {cli._fmt(f_lo)} and {cli._fmt(f_hi)})")
        while hi - lo > cli.BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            f_mid = offset(mid)
            if (f_mid < 0.0) == (f_lo < 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
    except (DomainError, StateValidationError) as exc:
        return 3, "", f"validation failure: {exc}\n"
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    return 0, cli._fmt(0.5 * (lo + hi)) + "\n", ""


def threshold_argv(family, lo, hi, criterion, flags):
    argv = ["--family", family, "--bracket", f"{lo!r}:{hi!r}", "--criterion", criterion]
    for name, value in flags.items():
        argv += [f"--{name}", value if isinstance(value, str) else repr(value)]
    return argv


@contextlib.contextmanager
def stack_sizes():
    """The size of each stack `cli.evaluate` evaluates inside the block, in call order."""
    sizes = []

    def counting(matrices, *args):
        sizes.append(len(matrices))
        return evaluate(matrices, *args)

    with mock.patch.object(cli, "evaluate", counting):
        yield sizes


PARTIES = {"rho_d": 2, "rho_eps": 2, "rho_pq": 2, "ghz_w": 3, "noisy_ghz4": 4}
# Matrix entries per state of each family: D^2.
ENTRIES = {name: math.prod(family_dims(name)) ** 2 for name in DOMAINS}
# The first 2n - 3 split a state of n parties.
SPLITS = ("1|2", "12|3", "1|23", "12|34", "1|234")


def _criterion_flags(draw, parties, criterion):
    """Valid flags of `criterion` on a state of `parties` parties; weights include NaN regions."""
    row = CRITERIA[criterion]
    flags = {}
    if row.flag:
        flags[row.flag] = draw(st.one_of(st.floats(0.0, 20.0),
                                         st.sampled_from([0.01, 2.5, 11.849, 15.196, 17.765])))
    if row.reads == "split":
        flags["split"] = draw(st.sampled_from(SPLITS[:2 * parties - 3]))
    if row.reads == "party":
        flags["party"] = draw(st.integers(1, parties))
    return flags


@st.composite
def threshold_cases(draw):
    """(family, LO, HI, criterion, flags) with ends in and out of the family's domain."""
    family = draw(st.sampled_from(sorted(DOMAINS)))
    parties = PARTIES[family]
    criterion = draw(st.sampled_from([c for c in CRITERIA if parties == 2 or CRITERIA[c].reads != "pair"]))
    low, high = DOMAINS[family]
    margin = (high - low) / 4
    lo = draw(st.one_of(st.floats(low, low + margin), st.floats(low - margin, high)))
    hi = draw(st.one_of(st.floats(high - margin, high), st.floats(lo, high + margin)).filter(lambda x: x > lo))
    return family, lo, hi, criterion, _criterion_flags(draw, parties, criterion)


@st.composite
def crossing_cases(draw):
    """Brackets around known crossings: noisy_ghz4's ppt, realign and v3 ones (1/9 to 0.81),
    and rho_pq's v2 one near 0.46, with NaN regions below it."""
    if draw(st.booleans()):
        family, criterion = "noisy_ghz4", draw(st.sampled_from(["v3", "realign", "ppt"]))
        lo, hi = draw(st.floats(0.0, 0.1)), draw(st.floats(0.85, 1.0))
    else:
        family, criterion = "rho_pq", "v2"
        lo, hi = draw(st.floats(0.0, 0.3)), draw(st.floats(0.47, 0.5))
    return family, lo, hi, criterion, _criterion_flags(draw, PARTIES[family], criterion)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(threshold_cases(), st.just(False)), st.tuples(crossing_cases(), st.just(True))))
@example((("rho_pq", 0.0668, 0.491, "v2", {"u": 11.849, "split": "1|2"}), True))  # NaN unvisited midpoints
@example((("rho_pq", 0.2, 0.47, "v2", {"u": 11.849, "split": "1|2"}), True))  # NaN at LO
@example((("noisy_ghz4", 0.0, 1.5, "v3", {"v": 0.01, "split": "1|2"}), False))  # HI off the domain
@example((("rho_eps", 1e12, 1e13, "realign", {"split": "1|2"}), False))  # offsets 0 at both ends
@example((("rho_eps", 1.75, 343.3753259391421, "ppt", {"party": 1}), False))  # offsets of float noise
@example((("rho_eps", 1e-200, 1e200, "realign", {"split": "1|2"}), False))  # offsets 0 across eps = 1
def test_threshold_matches_point_by_point_bisection(drawn):
    """Exit code, stdout and stderr as the point-by-point loop's.  A request error builds no stack.
    Otherwise, with both ends in the family's domain, the first stack is LO, HI and the midpoint
    tree, and a v3, realign or ppt solve of a `crossing_cases` bracket takes at most 3 stacks,
    which a predictor that misses its paths exceeds; v1/v2 are NaN outside their admissible range,
    which leaves the predictor fewer offsets (rho_pq v2 brackets took up to 5).  Other brackets have no budget: rho_eps is PPT throughout,
    so its ppt offsets are +-1e-17 of float noise, which the straddle check rejects."""
    case, crossing = drawn
    family, lo, hi = case[:3]
    with stack_sizes() as sizes:
        got = run_cli("threshold", *threshold_argv(*case))
    assert got == reference_threshold(*case)
    assert max(sizes, default=0) * ENTRIES[family] <= cli.STACK_ENTRIES
    low, high = DOMAINS[family]
    try:
        check_request(family_dims(family), *request(case[3], **case[4]))
    except ValueError:
        assert sizes == []
    else:
        if low <= lo and hi <= high:
            assert sizes[0] == 2 + len(cli._midpoint_tree(lo, hi))
            assert not crossing or CRITERIA[case[3]].gated or len(sizes) <= 3


@pytest.mark.parametrize("case", [
    # (family, LO, HI, criterion, flags, the offsets put at LO and HI (every other statistic on its
    # threshold), or None to leave the statistics as they are)
    ("noisy_ghz4", 0.0, 1.0, "v3", {"v": 0.01, "split": "1|2"}, (0.0, 0.0)),
    ("rho_eps", 1e12, 1e13, "realign", {"split": "1|2"}, (0.0, 0.0)),
    # rho_eps's own realign statistic is 1 at both ends: offsets 0 here and +-1e-16 on other BLAS
    # builds, within the criterion's tolerance.  The second bracket's ends sum past the largest float.
    ("rho_eps", 1e12, 1e13, "realign", {"split": "1|2"}, None),
    ("rho_eps", 1e308, 1.7e308, "realign", {"split": "1|2"}, None),
    # Offsets of opposite signs, both within the tolerance: neither end is flagged.
    ("noisy_ghz4", 0.0, 1.0, "v3", {"v": 0.01, "split": "1|2"}, (-1e-12, 1e-12)),
])
def test_equal_end_offsets_do_not_straddle(monkeypatch, case):
    """End offsets that flag neither end (0 and 0 where every statistic is on its threshold, or of
    opposite signs within the tolerance) are no crossing: an input error, exit 2, with no warning."""
    *case, ends = case
    family_evaluation = cli._family_evaluation

    def put_ends(family, xs, *request):
        ev = family_evaluation(family, xs, *request)
        offsets = [ends[0] if x == case[1] else ends[1] if x == case[2] else 0.0 for x in xs]
        return ev._replace(statistic=CRITERIA[ev.criterion].threshold + np.array(offsets))

    if ends is not None:
        monkeypatch.setattr(cli, "_family_evaluation", put_ends)
    want = reference_threshold(*case)
    assert want[:2] == (2, "") and "does not straddle the threshold (offsets " in want[2]
    assert "(offsets 0 and 0)" in want[2] or ends != (0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("threshold", *threshold_argv(*case)) == want


@pytest.mark.parametrize("golden, rounds", [(0, 3), (1, 2), (2, 3), (3, 2), (4, 2), (7, 2), (8, 2)])
def test_threshold_rounds(golden, rounds):
    """The v3 solves on 0:1 of the golden table take two or three stacks, the realign and ppt ones two."""
    with stack_sizes() as sizes:
        assert run_cli("threshold", *THRESHOLD_GOLDEN[golden][0])[0] == 0
    assert len(sizes) <= rounds
    assert max(sizes) * ENTRIES[THRESHOLD_GOLDEN[golden][0][1]] <= cli.STACK_ENTRIES


def test_threshold_budget_on_benchmark_draws():
    """40 solves drawn as the benchmark's curves workload draws them: the point-by-point roots,
    in at most 83 stacks, 2.08 per solve, and 28 points per solve on average (3.06 stacks and
    44.1 points when every later round added the 3-level midpoint tree to a regula-falsi path)."""
    rng = np.random.default_rng(20261019)
    rounds = points = 0
    for _ in range(40):
        v = float(f"{rng.uniform(0.0, 10.0):.6f}")
        case = ("noisy_ghz4", 0.0, 1.0, "v3", {"v": v, "split": SPLITS[rng.integers(len(SPLITS))]})
        with stack_sizes() as sizes:
            got = run_cli("threshold", *threshold_argv(*case))
        assert got == reference_threshold(*case)
        rounds, points = rounds + len(sizes), points + sum(sizes)
    assert rounds <= 83
    assert points <= 1120


@pytest.mark.parametrize("argv", [
    ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1"),
    ("sweep", "--family", "noisy_ghz4", "--range", "0:1:0.01"),
])
def test_a_command_parses_its_split_once(monkeypatch, argv):
    """One request per command: a solve of two rounds and a sweep of two stacks parse --split once."""
    parsed, parse = [], RealignSpec.parse

    def counting(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(RealignSpec, "parse", staticmethod(counting))
    with stack_sizes() as sizes:
        assert run_cli(*argv, "--criterion", "v3", "--v", "0.01", "--split", "1|2")[0] == 0
    assert (len(sizes), parsed) == (2, ["1|2"])


# u = 11.849 leaves rho_pq's v2 statistic undefined (NaN) on part of the bracket, so the
# predictor's nodes cluster where earlier rounds landed.
NAN_SIDED = ("rho_pq", 0.0, 0.47461373193256673, "v2", {"u": 11.849, "split": "1|2"})


def test_nan_sided_bracket_root():
    """The point-by-point root, in at most the five stacks (9, 17, 15, 14 and 11 points) it takes today."""
    with stack_sizes() as sizes:
        got = run_cli("threshold", *threshold_argv(*NAN_SIDED))
    assert got == (0, "0.460899588691\n", "") == reference_threshold(*NAN_SIDED)
    assert len(sizes) <= 5


@pytest.mark.xfail(strict=True, reason="a regula-falsi start on clustered nodes predicts a spurious root")
def test_nan_sided_bracket_within_four_stacks():
    """Newton from the bracket midpoint solves this bracket in four stacks, but costs more stacks on
    other NaN-sided rho_pq brackets, so the start stays at the regula-falsi point."""
    with stack_sizes() as sizes:
        assert run_cli("threshold", *threshold_argv(*NAN_SIDED))[0] == 0
    assert len(sizes) <= 4


def _ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


def _benchmark_draws():
    """The 40 solves of test_threshold_budget_on_benchmark_draws."""
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        v = float(f"{rng.uniform(0.0, 10.0):.6f}")
        yield ("noisy_ghz4", 0.0, 1.0, "v3", {"v": v, "split": SPLITS[rng.integers(len(SPLITS))]})


@pytest.mark.parametrize("case", [
    # Adjacent floats above 3e10 are wider than the tolerance: midpoints that round to an end.
    *[("rho_eps", 3e10, _ulps_above(3e10, k), "realign", {"split": "1|2"}) for k in (1, 2, 3)],
    *_benchmark_draws(),
])
def test_solve_builds_each_state_parameter_once(monkeypatch, case):
    """No point is built twice: not within the first stack, and not in a later round."""
    if case[0] == "rho_eps":  # its realign statistic is 1 there: step it across the threshold
        step_statistic(monkeypatch, 3e10)
    points = []

    def recording(family, xs):
        points.extend(xs)
        return family_stack(family, xs)

    with mock.patch.object(cli, "family_stack", recording):
        got = run_cli("threshold", *threshold_argv(*case))
    assert got == reference_threshold(*case)
    assert len(points) == len(set(points))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_sweep_chunk_boundaries(monkeypatch, chunk):
    grid = _parse_grid("0:1:0.05")
    req = ("v3", 0.5, RealignSpec.parse("12|3"))
    expected = sweep_rows("ghz_w", grid, *req)
    monkeypatch.setattr(cli, "STACK_ENTRIES", chunk * ENTRIES["ghz_w"])
    assert cli._stack_points("ghz_w") == chunk
    assert sweep_rows("ghz_w", grid, *req) == expected
    # the first failing point wins, whichever chunk it is in
    code, out, err = run_cli("sweep", "--family", "ghz_w", "--range", "0.5:1.3:0.1",
                             "--criterion", "v3", "--v", "0.5", "--split", "12|3")
    assert (code, out) == (3, "")
    assert err == "validation failure: ghz_w requires 0 <= q <= 1, got 1.1\n"


@pytest.mark.parametrize("family, points", [
    ("rho_d", 202), ("rho_eps", 202), ("rho_pq", 64), ("ghz_w", 256), ("noisy_ghz4", 64),
])
def test_sweep_stacks_hold_at_most_the_entry_budget(family, points):
    """A stack holds floor(16384 / D^2) points: 64 of the 16 x 16 families, as many entries as 256 of ghz_w."""
    assert cli.STACK_ENTRIES == 16384 and cli._stack_points(family) == points
    assert points * ENTRIES[family] <= cli.STACK_ENTRIES < (points + 1) * ENTRIES[family]
    lo, hi = DOMAINS[family]
    grid = np.linspace(lo, hi, 2 * points + 5).tolist()
    with stack_sizes() as sizes:
        sweep_rows(family, grid, "realign", spec=RealignSpec.parse("1|2"))
    assert sizes == [points, points, 5]


@pytest.mark.parametrize("family", sorted(DOMAINS))
def test_predicted_paths_hold_at_most_the_entry_budget(family):
    """A threshold round's predicted path is capped by the family's stack points, not by 32 for every family."""
    size = cli._stack_points(family)
    path = cli._predicted_path(0.0, 1e9, {0.0: -1.0, 1e9: 1.0}, size)  # 50 bisection steps to 1e-6
    assert len(path) == min(size, 51)  # the walk and the far child of its second-to-last midpoint
    assert len(path) * ENTRIES[family] <= cli.STACK_ENTRIES


TOWARD_HALF = [0.5, 0.25, 0.375, 0.4375, 0.46875, 0.484375, 0.4921875, 0.49609375]


def test_predicted_path_stops_newton_where_the_derivative_vanishes():
    """Nodes on 8 (x - 1/2)^3 give p = p' = 0 at the regula-falsi start 1/2: Newton stops there, not on p / 0."""
    table = {0.0: -1.0, 1.0: 1.0, 0.25: -0.125, 0.75: 0.125}
    assert cli._predicted_path(0.0, 1.0, table, 8) == TOWARD_HALF


def test_predicted_path_aims_at_the_midpoint_when_the_prediction_is_nan():
    """Divided differences that overflow make the prediction NaN; the path aims at the midpoint, not leftwards."""
    table = {0.0: -1.0, 1.0: 1.0, 0.5: 1e308, math.nextafter(0.5, 1.0): -1e308}
    assert cli._predicted_path(0.0, 1.0, table, 8) == TOWARD_HALF


class TestFamilyScratch:
    """Family stacks of the CLI take their temporaries from the thread's scratch, kept between commands."""

    SWEEPS = [("noisy_ghz4", "0:1:0.01", "v3", {"v": 0.01, "split": "1|2"}),
              ("rho_pq", "0:0.5:0.005", "v1", {"a": 0.2}),
              ("ghz_w", "0:1:0.01", "v2", {"u": 5.0, "split": "1|2"}),
              ("rho_d", f"{RHO_D_MIN}:{RHO_D_MAX}:0.002", "ppt", {"party": 1})]

    @staticmethod
    def sweep(family, grid, criterion, flags):
        """The sweep's CSV text."""
        fh = io.StringIO()
        write_sweep_csv(fh, sweep_rows(family, _parse_grid(grid), *request(criterion, **flags)))
        return fh.getvalue()

    def test_one_thread_reuses_its_buffers(self):
        """A second sweep and a threshold solve allocate no buffer; each holds at most STACK_ENTRIES entries."""
        SCRATCH.buffers.clear()
        self.sweep(*self.SWEEPS[0])
        buffers = dict(SCRATCH.buffers)
        assert set(buffers) == {"conj", "sym", "abs"}
        assert all(buf.size <= cli.STACK_ENTRIES for buf in buffers.values())
        self.sweep(*self.SWEEPS[0])
        assert run_cli("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3",
                       "--v", "0.01", "--split", "1|2")[0] == 0
        assert SCRATCH.buffers.keys() == buffers.keys()
        assert all(SCRATCH.buffers[name] is buf for name, buf in buffers.items())

    @pytest.mark.parametrize("dims, num_states, num_terms", [
        ("8,8", 16, 3), ("2,2,2,2", 200, 3), ("2,2", 300, 16),  # the last with more terms than D
    ])
    def test_audit_stacks_hold_at_most_the_entry_budget(self, dims, num_states, num_terms):
        """An audit's chunks hold STACK_ENTRIES // (D * max(D, num_terms)) samples, so every
        buffer its stacks take holds at most STACK_ENTRIES entries, as a sweep's do."""
        d = math.prod(map(int, dims.split(",")))
        chunk = max(1, cli.STACK_ENTRIES // (d * max(d, num_terms)))
        sizes = []

        def recording(stack_dims, terms, seeds):
            sizes.append(len(seeds))
            return separable_stack(stack_dims, terms, seeds)

        SCRATCH.buffers.clear()
        with mock.patch.object(cli, "separable_stack", recording):
            assert run_cli("audit", "--dims", dims, "--num-states", str(num_states),
                           "--num-terms", str(num_terms))[0] == 0
        assert sum(sizes) == num_states and max(sizes) == min(chunk, num_states)
        assert len(sizes) == -(-num_states // chunk)
        assert set(SCRATCH.buffers) == {"conj", "sym", "abs"}
        assert all(buf.size <= cli.STACK_ENTRIES for buf in SCRATCH.buffers.values())

    def test_float_and_complex_takes_share_one_buffer(self):
        """A float take spans half the complex entries; once a complex take of the shape has grown
        the buffer, float and complex takes of it view the same memory and allocate nothing."""
        scratch = Scratch()
        shape = (cli._stack_points("noisy_ghz4"), 16, 16)
        scratch.take("sym", shape, float)
        assert scratch.buffers["sym"].size == math.prod(shape) // 2
        scratch.take("sym", shape)
        buf = scratch.buffers["sym"]
        real, cplx = scratch.take("sym", shape, float), scratch.take("sym", shape)
        assert scratch.buffers["sym"] is buf and buf.size == math.prod(shape)
        assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
        assert real.flags.c_contiguous and np.shares_memory(real, cplx)

    def test_real_validation_and_complex_spectrum_share_buffers(self, allocations):
        """Validating float64 family stacks and taking their complex spectra through the thread's
        scratch allocates only in the first chunk."""
        label, made = allocations
        for label[0] in range(3):
            dims, stack = family_stack("noisy_ghz4", np.linspace(0.0, 1.0, cli._stack_points("noisy_ghz4")))
            spectrum(stack, dims, RealignSpec.parse("1|2"), ("realign",))()
        assert {name for _, name in made} == {"abs", "conj", "sym"}
        assert all(chunk == 0 for chunk, _ in made)

    def test_threads_get_distinct_buffers(self):
        self.sweep(*self.SWEEPS[0])
        mine = dict(SCRATCH.buffers)
        theirs = []

        def run():
            self.sweep(*self.SWEEPS[0])
            theirs.append(dict(SCRATCH.buffers))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and len(theirs) == 1
        assert theirs[0].keys() == mine.keys()
        assert not any(np.shares_memory(a, b) for a in mine.values() for b in theirs[0].values())
        assert all(SCRATCH.buffers[name] is buf for name, buf in mine.items())

    def test_concurrent_sweeps_give_the_serial_rows(self):
        """Eight threads, two per sweep, switching every microsecond, each write the serial CSV."""
        want = [self.sweep(*case) for case in self.SWEEPS]
        got = [None] * 8

        def run(k):
            got[k] = self.sweep(*self.SWEEPS[k % 4])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want[k % 4] for k in range(8)]


def test_sweep_rows_unknown_family():
    """The CLI's --family choices stop an unknown name; called directly, sweep_rows raises ValueError."""
    with pytest.raises(ValueError) as exc:
        sweep_rows("nope", [0.1], "realign", spec=RealignSpec.parse("1|2"))
    assert type(exc.value) is ValueError and str(exc.value) == UNKNOWN_FAMILY


def test_sweep_usage_error_before_later_domain_error():
    # The request is checked before any state is built, so the missing --split
    # is the error, not the out-of-domain 1.1 of the grid.
    code, out, err = run_cli("sweep", "--family", "ghz_w", "--range", "0.5:1.3:0.1",
                             "--criterion", "v3", "--v", "0.5")
    assert (code, out, err) == (2, "", "error: criterion v3 requires --split\n")


EARLY_REQUESTS = [
    (("--split", "1|2"), "error: criterion v3 requires --v\n"),
    (("--v", "1", "--split", "1|3"), "error: party 3 out of range for 2 parties\n"),
    (("--v", "-1", "--split", "1|2"), "error: weight must be nonnegative, got -1.0 (criterion v3)\n"),
]


@pytest.mark.parametrize("command", [
    ("sweep", "--range", "0.2:0.36:0.05"), ("threshold", "--bracket", "0.2:0.36"), ("analyze", "--param", "0.2"),
])
@pytest.mark.parametrize("flags, message", EARLY_REQUESTS)
def test_request_error_before_the_first_domain_error(command, flags, message):
    """The request is checked before any state is built: its own error, exit 2, not the domain
    error of rho_d's (first) point 0.2, and no stack is evaluated."""
    with stack_sizes() as sizes:
        got = run_cli(command[0], "--family", "rho_d", *command[1:], "--criterion", "v3", *flags)
    assert (got, sizes) == ((2, "", message), [])


# Each family's domain; rho_eps's (eps > 0) from the smallest positive float to 1.7e308.
BUILD_DOMAINS = {**DOMAINS, "rho_eps": (5e-324, 1.7e308)}


@pytest.mark.parametrize("family", sorted(BUILD_DOMAINS))
def test_every_member_of_a_domain_builds(family):
    """`family_stack` builds every parameter of the family's domain: both ends, their inner
    neighbours and 1,999 points between.  Threshold rounds rely on it: only LO and HI can fail
    to build, because every midpoint of an in-domain bracket builds, so a later round never raises."""
    lo, hi = BUILD_DOMAINS[family]
    space = np.geomspace if family == "rho_eps" else np.linspace
    xs = [*space(lo, hi, 1999).tolist(), math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    assert xs[0] == lo and xs[1998] == hi
    assert family_stack(family, xs)[1].shape[0] == len(xs)


class TestRealFamilies:
    """Families are built and validated in float64, and every spectrum is complex: a real stack
    evaluates, and fails validation, exactly as its complex copy does."""

    @staticmethod
    def members(name):
        lo, hi = DOMAINS[name]
        space = np.geomspace if name == "rho_eps" else np.linspace
        return family_stack(name, space(lo, hi, cli._stack_points(name)))

    @staticmethod
    def fields(ev):
        arrays = (ev.statistic, ev.t1, ev.t2, *(vars(ev.bounds).values() if ev.bounds else ()))
        return [ev.criterion, ev.parameter, *(a.tobytes() for a in arrays if a is not None)]

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_real_stack_evaluates_as_its_complex_copy(self, name):
        dims, stack = self.members(name)
        assert stack.dtype == np.float64
        n = len(dims)
        for criterion, row in CRITERIA.items():
            if row.reads == "pair" and n != 2:
                continue
            targets = {"pair": [{}], "split": [{"spec": s} for s in enumerate_splits(n)],
                       "party": [{"party": p} for p in range(1, n + 1)]}[row.reads]
            for target in targets:
                for weight in cli.AuditConfig.params if row.flag else [None]:
                    real = evaluate(stack, dims, criterion, weight, **target)
                    cplx = evaluate(stack.astype(complex), dims, criterion, weight, **target)
                    assert self.fields(real) == self.fields(cplx), (criterion, target, weight)

    @pytest.mark.parametrize("code", ["NON_FINITE", "NOT_HERMITIAN", "TRACE_NOT_ONE", "NOT_PSD"])
    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_real_stack_fails_as_its_complex_copy(self, name, code):
        _, stack = self.members(name)
        m = stack[:8].copy()
        if code == "NON_FINITE":
            m[5, 1, 0] = np.nan
        elif code == "NOT_HERMITIAN":
            m[5, 0, 1] += 1e-6
        elif code == "TRACE_NOT_ONE":
            m[5] *= 1.5
        else:  # the 2x2 principal minor on rows 0 and 1 turns negative
            m[5, 0, 1] += 1.0
            m[5, 1, 0] += 1.0
        raised = []
        for matrices in (m, m.astype(complex)):
            with pytest.raises(StateValidationError) as exc:
                validate_stack(matrices)
            raised.append((exc.value.code, repr(exc.value.deviation), str(exc.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] == code
