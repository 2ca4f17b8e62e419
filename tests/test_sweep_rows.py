"""Sweep rows built from statistic arrays against the per-verdict path they replaced.

The frozen copy below is the sweep as it was when every grid point got a
`CriterionVerdict` (from `moment_verdicts`, which made one per state of a
stack, `norm_verdict` or `min_eigenvalue_verdict`) and its row took the
admissible columns from the finite endpoints of `verdict.admissible`.
The CSV bytes must be equal.
"""
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import request
from remoments import ENTANGLED, INCONCLUSIVE, CriterionVerdict, cli
from remoments.cli import SweepRow, _parse_grid, sweep_rows, write_sweep_csv
from remoments.criteria import (
    DETECTION_SLACK,
    PT_NEGATIVITY_TOL,
    Evaluation,
    admissible_bounds,
    spectrum,
    v3,
)
from remoments.linalg import gram_singular_values
from remoments.realign import RealignSpec
from remoments.states import RHO_D_MIN, family_stack
from test_arrays import CASES, WEIGHTS, moment_stacks, row_statistic


def moment_verdicts(criterion, t1, t2, weight):
    """The verdicts of "v1", "v2" or "v3" at `weight`, one per state of a stack."""

    def verdict(stat, admissible=None, note=None):
        outcome = ENTANGLED if stat > 1.0 + DETECTION_SLACK else INCONCLUSIVE
        return CriterionVerdict(criterion, weight, stat, 1.0, outcome, admissible, note)

    if criterion == "v3":
        return [verdict(x) for x in v3(t1, t2, weight).tolist()]
    bounds = admissible_bounds(t1, t2)
    stats = row_statistic(criterion, t1, t2, weight, bounds).tolist()
    return [verdict(stat, bounds.at(i), None if ok else "parameter outside admissible range")
            for i, (stat, ok) in enumerate(zip(stats, bounds.admits(weight).tolist()))]


def norm_verdict(norm):
    outcome = ENTANGLED if norm > 1.0 + DETECTION_SLACK else INCONCLUSIVE
    return CriterionVerdict("realign", None, norm, 1.0, outcome)


def min_eigenvalue_verdict(party, min_eig):
    outcome = ENTANGLED if min_eig < -PT_NEGATIVITY_TOL else INCONCLUSIVE
    return CriterionVerdict("ppt", float(party), min_eig, 0.0, outcome)


def frozen_verdicts(matrices, dims, criterion, a=None, u=None, v=None, split=None, party=None):
    """The per-point verdicts of a successful stack evaluation."""
    if criterion == "ppt":
        return [min_eigenvalue_verdict(party, x)
                for x in spectrum(matrices, dims, party)().values[:, 0].tolist()]
    if criterion == "v1":
        spec, weight = RealignSpec((1,), (2,)), a
    else:
        spec, weight = RealignSpec.parse(split), (u if criterion == "v2" else v)
    sp = spectrum(matrices, dims, spec)()
    if criterion == "realign":
        return [norm_verdict(x) for x in gram_singular_values(sp.values).sum(axis=-1).tolist()]
    return moment_verdicts(criterion, sp.t1, sp.t2, weight)


def finite_endpoints(admissible):
    """Finite positive interval endpoints of an admissible range, ascending."""
    return tuple(sorted(e for iv in admissible.intervals for e in (iv.lo, iv.hi) if 0.0 < e < math.inf))


def frozen_verdict_row(state_param, verdict):
    low = high = None
    if verdict.admissible is not None:
        ends = finite_endpoints(verdict.admissible)
        if len(ends) >= 1:
            low = ends[0]
        if len(ends) >= 2:
            high = ends[1]
    return SweepRow(state_param, verdict.criterion, verdict.parameter, verdict.statistic,
                    low, high, verdict.outcome)


def frozen_csv(rows):
    def fmt(x):
        return "" if x is None else format(float(x), ".12g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("state_param", "criterion", "criterion_param", "statistic",
                     "admissible_low", "admissible_high", "outcome"))
    for r in rows:
        writer.writerow([fmt(r.state_param), r.criterion, fmt(r.criterion_param), fmt(r.statistic),
                         fmt(r.admissible_low), fmt(r.admissible_high), r.outcome])
    return buf.getvalue()


def frozen_sweep(family, grid, criterion, **flags):
    """Rows and verdicts, one stack of the family's cli._stack_points at a time."""
    rows, verdicts = [], []
    size = cli._stack_points(family)
    for start in range(0, len(grid), size):
        chunk = grid[start:start + size]
        dims, matrices = family_stack(family, chunk)
        got = frozen_verdicts(matrices, dims, criterion, **flags)
        verdicts += got
        rows += [frozen_verdict_row(x, verdict) for x, verdict in zip(chunk, got)]
    return rows, verdicts


def exact(rows):
    """Rows with every float as its round-trip repr, so NaN compares equal."""
    return [tuple(map(repr, r)) for r in rows]


def new_csv(rows):
    buf = io.StringIO()
    write_sweep_csv(buf, rows)
    return buf.getvalue()


GRIDS = [
    # NaN statistics where u is outside the admissible range; 0 and 2 endpoints
    ("rho_pq", "0:0.5:0.005", "v2", dict(u=11.849, split="1|2")),
    ("rho_pq", "0:0.5:0.005", "v1", dict(a=0.2)),
    # x = 0 is the maximally mixed state: degenerate, one endpoint
    ("noisy_ghz4", "0:1:0.01", "v2", dict(u=0.5, split="12|34")),
    ("noisy_ghz4", "0:1:0.05", "v2", dict(u=30.0, split="1|234")),
    ("rho_eps", "0.001:3:0.01", "v1", dict(a=1.0)),
    ("ghz_w", "0:1:0.01", "v2", dict(u=5.0, split="1|2")),
    ("rho_d", f"{RHO_D_MIN}:0.36:0.004", "v1", dict(a=2.0)),
    ("noisy_ghz4", "0:1:0.01", "v3", dict(v=0.01, split="1|2")),
    ("ghz_w", "0:1:0.02", "v3", dict(v=0.0, split="12|3")),
    ("ghz_w", "0:1:0.02", "realign", dict(split="1|23")),
    ("rho_pq", "0:0.5:0.01", "ppt", dict(party=2)),
    ("noisy_ghz4", "0:1:0.02", "ppt", dict(party=3)),
]


@pytest.mark.parametrize("family, spec, criterion, flags", GRIDS)
def test_csv_bytes_match_the_per_verdict_path(family, spec, criterion, flags):
    grid = _parse_grid(spec)
    want, _ = frozen_sweep(family, grid, criterion, **flags)
    got = sweep_rows(family, grid, *request(criterion, **flags))
    assert new_csv(got) == frozen_csv(want)
    assert exact(got) == exact(want)


def test_grids_reach_every_kind_of_row():
    kinds = set()
    for family, spec, criterion, flags in GRIDS:
        _, verdicts = frozen_sweep(family, _parse_grid(spec), criterion, **flags)
        for verdict in verdicts:
            if math.isnan(verdict.statistic):
                kinds.add("nan")
            if verdict.admissible is None:
                kinds.add(f"no range ({criterion})")
                continue
            kinds.add(f"{len(finite_endpoints(verdict.admissible))} endpoints")
            if verdict.admissible.degenerate:
                kinds.add("degenerate")
    assert kinds >= {"nan", "0 endpoints", "1 endpoints", "2 endpoints", "degenerate",
                     "no range (v3)", "no range (realign)", "no range (ppt)"}


def check_moment_rows(t1, t2, weight):
    """`_sweep_rows` of v1 statistics against the frozen rows of their verdicts."""
    xs = [0.5 * i for i in range(len(t1))]
    try:
        want = [frozen_verdict_row(x, verdict)
                for x, verdict in zip(xs, moment_verdicts("v1", t1, t2, weight))]
    except ValueError:
        return  # a weight error; the sweep raises it before any row is built
    bounds = admissible_bounds(t1, t2)
    ev = Evaluation("v1", weight, row_statistic("v1", t1, t2, weight, bounds), t1, t2, bounds)
    got = cli._sweep_rows(xs, ev)
    assert new_csv(got) == frozen_csv(want)
    assert exact(got) == exact(want)


# T1^2 underflows to 0: a degenerate range (0, 0] whose end is not reported.
EDGE_CASES = {"degenerate_low_end_zero": (1e-200, 0.0)}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(EDGE_CASES))
@pytest.mark.parametrize("weight", WEIGHTS)
def test_named_moment_cases(name, weight):
    """Every branch of the admissible range, the non-positive lower root included."""
    t1, t2 = {**CASES, **EDGE_CASES}[name]
    check_moment_rows(np.array([t1]), np.array([t2]), weight)


def test_edge_case_kinds():
    bounds = admissible_bounds(*(np.array([v]) for v in EDGE_CASES["degenerate_low_end_zero"]))
    assert bounds.degenerate[0] and bounds.low_end[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(moment_stacks())
def test_random_moment_stacks(case):
    check_moment_rows(*case)


def check_admissible_columns(t1, t2):
    """Each row's admissible columns are the finite positive ends of `bounds.at(i)`'s intervals, ascending:
    `_sweep_rows` and `AdmissibleBounds.at` read one encoding of the bounds."""
    bounds = admissible_bounds(t1, t2)
    ev = Evaluation("v1", 1.0, t1, t1, t2, bounds)
    for i, row in enumerate(cli._sweep_rows([0.0] * len(t1), ev)):
        ends = finite_endpoints(bounds.at(i))
        assert len(ends) <= 2
        assert (row.admissible_low, row.admissible_high) == (ends + (None, None))[:2]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(EDGE_CASES))
def test_admissible_columns_of_named_cases(name):
    check_admissible_columns(*(np.array([v]) for v in {**CASES, **EDGE_CASES}[name]))


@settings(max_examples=200, deadline=None)
@given(moment_stacks())
def test_admissible_columns_of_random_moment_stacks(case):
    check_admissible_columns(*case[:2])


def test_csv_rows_match_csv_writer():
    """`write_sweep_csv`'s rows against csv.writer's, on fields no grid above reaches together: empty
    admissible columns beside a weight, no weight, NaN and infinite statistics, and a subnormal parameter."""
    rows = [
        SweepRow(0.5, "v1", 2.0, math.nan, None, None, INCONCLUSIVE),
        SweepRow(5e-324, "realign", None, math.inf, None, None, ENTANGLED),
        SweepRow(-0.0, "ppt", 1.0, -math.inf, None, None, ENTANGLED),
        SweepRow(1 / 3, "v2", 5.0, 1.5, 0.125, None, ENTANGLED),
        SweepRow(0.25, "v2", 1e300, 0.75, 0.1, 3e7, INCONCLUSIVE),
    ]
    assert new_csv(rows) == frozen_csv(rows)
    assert new_csv(rows).splitlines()[1:3] == ["0.5,v1,2,nan,,,INCONCLUSIVE", "4.94065645841e-324,realign,,inf,,,ENTANGLED"]
    assert new_csv([]) == frozen_csv([])
