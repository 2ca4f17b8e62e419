"""The criterion table, the one evaluation core and its one verdict builder.

Every public scalar verdict is `verdict(evaluate(...))` on a one-state
stack; here each must equal the verdict read from a mixed stack, row by
row, with a bit-identical statistic.  `AdmissibleBounds.admits`, the one
admissible-range gate, must agree with the range's intervals.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_density
from remoments import (
    RealignSpec,
    ghz_w,
    noisy_ghz4,
    ppt_verdict,
    realignment_norm_verdict,
    rho_d,
    rho_eps,
    rho_pq,
    sample_separable,
    verdict_v1,
    verdict_v2,
    verdict_v3,
)
from remoments.cli import UsageError, evaluate_stack
from remoments.criteria import CRITERIA, admissible_bounds, entangled, evaluate, verdict
from test_arrays import moment_stacks
from test_cli import run_cli
from test_sweep_rows import EDGE_CASES


def bits(x):
    return struct.pack("<d", x)


def in_intervals(rng, x):
    """Whether x lies in one of the intervals of an AdmissibleRange."""
    return any(
        (iv.lo <= x if iv.lo_closed else iv.lo < x) and (x <= iv.hi if iv.hi_closed else x < iv.hi)
        for iv in rng.intervals
    )


def test_table_order_is_the_cli_order():
    assert tuple(CRITERIA) == ("v1", "v2", "v3", "realign", "ppt")
    for sub in ("analyze", "sweep", "threshold"):
        code, out, _ = run_cli(sub, "--help")
        assert code == 0 and "--criterion {v1,v2,v3,realign,ppt}" in out
    code, out, _ = run_cli("audit", "--help")
    assert code == 0 and "comma list from v1,v2,v3,realign,ppt" in out


def test_table_rows():
    weighted = {name: row.flag for name, row in CRITERIA.items() if row.flag}
    assert weighted == {"v1": "a", "v2": "u", "v3": "v"}
    assert [name for name, row in CRITERIA.items() if row.gated] == ["v1", "v2"]
    assert [name for name, row in CRITERIA.items() if row.positive] == ["v1", "v2"]
    assert {name: row.reads for name, row in CRITERIA.items()} == {
        "v1": "pair", "v2": "split", "v3": "split", "realign": "split", "ppt": "party",
    }
    assert {name: (row.threshold, row.below) for name, row in CRITERIA.items()} == {
        "v1": (1.0, False), "v2": (1.0, False), "v3": (1.0, False), "realign": (1.0, False),
        "ppt": (0.0, True),
    }


def test_entangled_reads_the_row_threshold_side_and_tolerance():
    above = np.array([1.0 + 2e-9, 1.0 + 5e-10, 1.0, 0.0])
    for name in ("v1", "v2", "v3", "realign"):
        assert entangled(name, above).tolist() == [True, False, False, False]
    assert entangled("ppt", np.array([-2e-10, -5e-11, 0.0, 2.0])).tolist() == [True, False, False, False]


def mixed(dims, members, seed):
    """Family members, random full-rank states and separable samples over `dims`, as one stack."""
    states = members + [random_density(dims, seed + k) for k in range(3)]
    states += [sample_separable(dims, k, seed + k) for k in (1, 2)]
    return states, np.stack([dm.matrix for dm in states])


S12, S12_3, S1_234 = (RealignSpec.parse(t) for t in ("1|2", "12|3", "1|234"))
# criterion, dims, members, public verdict, evaluate's arguments
CASES = [
    ("v1", (4, 4), [rho_pq(q) for q in (0.0, 0.1, (math.sqrt(2) - 1) / 2, 0.5)],
     verdict_v1, lambda w: (w,)),
    ("v2", (2, 2, 2), [ghz_w(q) for q in (0.0, 0.5, 1.0)],
     lambda dm, w: verdict_v2(dm, S12_3, w), lambda w: (w, S12_3)),
    ("v3", (2, 2, 2, 2), [noisy_ghz4(x) for x in (0.0, 0.5, 0.8)],
     lambda dm, w: verdict_v3(dm, S1_234, w), lambda w: (w, S1_234)),
    ("realign", (3, 3), [rho_eps(0.9), rho_d(0.3)],
     lambda dm, w: realignment_norm_verdict(dm, S12), lambda w: (None, S12)),
    ("ppt", (3, 3), [rho_eps(0.9), rho_d(0.3)],
     lambda dm, w: ppt_verdict(dm, 2), lambda w: (None, None, 2)),
]
WEIGHTS = (0.0, 0.01, 0.2, 1.0, 5.0, 11.849)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [0, 71])
def test_public_verdicts_equal_the_stacked_core(case, seed):
    criterion, dims, members, public, args = case
    states, stack = mixed(dims, members, seed)
    for w in WEIGHTS if CRITERIA[criterion].flag else (None,):
        if w == 0.0 and CRITERIA[criterion].positive:
            continue  # a weight <= 0 raises for v1 and v2
        ev = evaluate(stack, dims, criterion, *args(w))
        for i, dm in enumerate(states):
            want, got = public(dm, w), verdict(ev, i)
            assert bits(got.statistic) == bits(want.statistic)
            assert (got.criterion, got.parameter, got.threshold, got.outcome, got.admissible,
                    got.note) == (want.criterion, want.parameter, want.threshold, want.outcome,
                                  want.admissible, want.note)


def test_mixed_stacks_reach_gated_and_flagged_rows():
    """The v1 stack has admitted and gated rows, and ENTANGLED and INCONCLUSIVE ones."""
    states, stack = mixed((4, 4), CASES[0][2], 0)
    ev = evaluate(stack, (4, 4), "v1", 0.2)
    notes = {verdict(ev, i).note for i in range(len(states))}
    outcomes = {verdict(ev, i).outcome for i in range(len(states))}
    assert notes == {None, "parameter outside admissible range"}
    assert outcomes == {"ENTANGLED", "INCONCLUSIVE"}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_evaluation_carries_what_the_row_reads(case):
    """Moment sums for weighted criteria only, admissible bounds for gated ones only."""
    criterion, dims, members, _, args = case
    _, stack = mixed(dims, members, 0)
    row = CRITERIA[criterion]
    ev = evaluate(stack, dims, criterion, *args(1.0))
    assert (ev.t1 is not None, ev.t2 is not None) == (bool(row.flag), bool(row.flag))
    assert (ev.bounds is not None) == row.gated


NON_POSITIVE = st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 5e-324])


@settings(max_examples=300, deadline=None)
@given(moment_stacks(), st.one_of(st.none(), NON_POSITIVE))
@example((*(np.array([v]) for v in EDGE_CASES["degenerate_low_end_zero"]), 1.0), None)
def test_admits_is_membership_in_the_intervals(case, weight):
    t1, t2, drawn = case
    bounds = admissible_bounds(t1, t2)
    weights = [drawn if weight is None else weight]
    for i in range(len(t1)):  # each finite end and its neighbours
        for end in (float(bounds.low_end[i]), float(bounds.high_start[i])):
            if math.isfinite(end):
                weights += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf)]
    for w in weights:
        admitted = bounds.admits(w).tolist()
        assert admitted == [in_intervals(bounds.at(i), w) for i in range(len(t1))], w


# Each UsageError path of evaluate_stack, in the order the flags are checked.
USAGE_ERRORS = [
    ("v1", (2, 2), {}, "criterion v1 requires --a"),
    ("v2", (2, 2), {"split": "1|2"}, "criterion v2 requires --u"),
    ("v3", (2, 2), {"split": "1|2"}, "criterion v3 requires --v"),
    ("v3", (2, 2), {"v": 1.0}, "criterion v3 requires --split"),
    ("realign", (2, 2), {}, "criterion realign requires --split"),
    ("ppt", (2, 2), {}, "criterion ppt requires --party"),
    ("v3", (2, 2), {"split": "1|1"}, "groups (1,) and (1,) overlap"),  # before the missing --v
    ("v2", (2, 2), {"split": "a|b", "u": 1.0}, "split 'a|b' must list parties as digits 1-9"),
    ("v1", (2, 2, 2), {"a": math.nan}, "criterion v1 requires a two-party state (use v2 with --split instead)"),
    ("v1", (2, 2), {"a": math.inf}, "--a must be finite, got inf"),
    ("v2", (2, 2), {"u": -math.inf, "split": "1|2"}, "--u must be finite, got -inf"),
    ("v3", (2, 2), {"v": math.nan, "split": "1|3"}, "--v must be finite, got nan"),
    ("v2", (2, 2), {"u": 1.0, "split": "1|3"}, "party 3 out of range for 2 parties"),
    ("v1", (2, 2), {"a": -1.0}, "weight must be positive, got -1.0"),
    ("v2", (2, 2), {"u": 0.0, "split": "1|2"}, "weight must be positive, got 0.0"),
    ("v3", (2, 2), {"v": -0.5, "split": "1|2"}, "weight must be nonnegative, got -0.5"),
    ("ppt", (2, 2), {"party": 3}, "party 3 out of range for 2 parties"),
    ("v9", (2, 2), {}, "unknown criterion 'v9'; choose from ('v1', 'v2', 'v3', 'realign', 'ppt')"),
]


@pytest.mark.parametrize("criterion, dims, flags, message", USAGE_ERRORS)
def test_evaluate_stack_usage_errors(criterion, dims, flags, message):
    matrices = np.eye(math.prod(dims), dtype=complex)[None] / math.prod(dims)
    with pytest.raises(UsageError) as exc:
        evaluate_stack(matrices, dims, criterion, **flags)
    assert str(exc.value) == message
