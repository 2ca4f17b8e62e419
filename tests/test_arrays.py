"""The stacked separable sampler and the array statistics against frozen per-state code.

The frozen copies below are the per-term sampler (a `kron` and an
`np.linalg.norm` per factor) and the scalar v1, v3, admissible range and
moment verdict as they were before the array versions replaced them,
with the range's membership test and finite endpoints as they were
then.  They carry the two changes made since: the discriminant's
`lin * lin` in place of Python's `lin ** 2`, and v3's inner term
sqrt(T1 + (v^2 + 2v) T2) - v sqrt(T2) taken as the equal quotient
(T1 + 2v T2) / (sqrt(T1 + (v^2 + 2v) T2) + v sqrt(T2)), which does not
cancel at large v.  The array code must reproduce them bit for bit,
errors included.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from remoments import (
    INCONCLUSIVE,
    AdmissibleRange,
    CriterionVerdict,
    DensityMatrix,
    Interval,
    MomentSet,
    admissible_range,
    discriminant,
    kron,
    sample_separable,
    v1,
    v3,
    validate,
)
from remoments.criteria import (
    F_CLAMP,
    DEGENERATE_TOL,
    Evaluation,
    admissible_bounds,
    entangled,
    moment_statistics,
    v1_stack,
    v3_stack,
    verdict,
)
from remoments.states import separable_stack

SAMPLER_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]


def frozen_sample_separable(dims, num_terms, seed):
    dims = tuple(int(d) for d in dims)
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms!r}")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=num_terms)
    weights /= weights.sum()
    d = int(np.prod(dims))
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        ket = np.ones(1, dtype=complex)
        for dk in dims:
            factor = rng.standard_normal(dk) + 1j * rng.standard_normal(dk)
            factor /= np.linalg.norm(factor)
            ket = kron(ket, factor)
        m += w * np.outer(ket, ket.conj())
    return validate(DensityMatrix(dims=dims, matrix=m))


def frozen_discriminant(m):
    t1, t2 = m.t1, m.t2
    lin = t1 * t1 - t1
    return lin * lin - 2.0 * (t1 * t1 - t2) * t1 * t1


def frozen_radicand(m, a):
    t1, t2 = m.t1, m.t2
    return (t1 * t1 - t2) * a * a / 2.0 + (t1 * t1 - t1) * a + t1 * t1


def frozen_admissible_range(m):
    t1, t2 = m.t1, m.t2
    quad = t1 * t1 - t2
    lin = t1 * t1 - t1
    const = t1 * t1
    disc = frozen_discriminant(m)
    degenerate = quad <= DEGENERATE_TOL
    unbounded = Interval(0.0, math.inf, lo_closed=False, hi_closed=False)
    if degenerate:
        if lin >= 0.0:
            intervals = (unbounded,)
        else:
            intervals = (Interval(0.0, const / (-lin), lo_closed=False, hi_closed=True),)
        return AdmissibleRange(intervals=intervals, discriminant=disc, degenerate=True)
    if disc <= 0.0:
        return AdmissibleRange(intervals=(unbounded,), discriminant=disc, degenerate=False)
    root = math.sqrt(disc)
    lower = (-lin - root) / quad
    upper = (-lin + root) / quad
    pieces = []
    if lower > 0.0:
        pieces.append(Interval(0.0, lower, lo_closed=False, hi_closed=True))
    if upper > 0.0:
        pieces.append(Interval(upper, math.inf, lo_closed=True, hi_closed=False))
    else:
        pieces = [unbounded]
    return AdmissibleRange(intervals=tuple(pieces), discriminant=disc, degenerate=False)


def frozen_contains(rng, x):
    """Whether x lies in one of the range's intervals."""
    return any(
        (x >= iv.lo if iv.lo_closed else x > iv.lo) and (x <= iv.hi if iv.hi_closed else x < iv.hi)
        for iv in rng.intervals
    )


def frozen_finite_endpoints(rng):
    """Finite positive interval endpoints of the range, ascending."""
    return tuple(sorted(e for iv in rng.intervals for e in (iv.lo, iv.hi) if 0.0 < e < math.inf))


def frozen_v1(m, a):
    if a <= 0.0:
        raise ValueError(f"weight must be positive, got {a!r}")
    f = frozen_radicand(m, a)
    if f < F_CLAMP:
        raise ValueError(
            f"radicand {f:.3e} is negative: weight {a!r} lies outside the admissible range"
        )
    f = max(f, 0.0)
    return math.sqrt((2.0 / a) * ((1.0 + a / 2.0) * m.t1 + math.sqrt(f)))


def frozen_v3(m, v):
    if v < 0.0:
        raise ValueError(f"weight must be nonnegative, got {v!r}")
    t1, t2 = m.t1, m.t2
    inner = (t1 + 2.0 * v * t2) / (math.sqrt(t1 + (v * v + 2.0 * v) * t2) + v * math.sqrt(t2))
    spread = max(2.0 * (t1 * t1 - t2), 0.0)
    return math.sqrt(inner * inner + math.sqrt(spread))


def frozen_threshold_verdict(name, parameter, stat, admissible=None):
    outcome = "ENTANGLED" if stat > 1.0 + 1e-9 else INCONCLUSIVE
    return CriterionVerdict(
        criterion=name, parameter=parameter, statistic=stat, threshold=1.0,
        outcome=outcome, admissible=admissible,
    )


def frozen_moment_verdict(criterion, m, weight):
    if criterion == "v3":
        return frozen_threshold_verdict("v3", weight, frozen_v3(m, weight))
    rng = frozen_admissible_range(m)
    if weight <= 0.0:
        raise ValueError(f"weight must be positive, got {weight!r}")
    if not frozen_contains(rng, weight):
        return CriterionVerdict(
            criterion=criterion, parameter=weight, statistic=float("nan"), threshold=1.0,
            outcome=INCONCLUSIVE, admissible=rng, note="parameter outside admissible range",
        )
    return frozen_threshold_verdict(criterion, weight, frozen_v1(m, weight), rng)


def first_error(fn, args_list):
    """(results, None) from calling fn on each args, or (None, the first error)."""
    out = []
    for args in args_list:
        try:
            out.append(fn(*args))
        except ValueError as exc:
            return None, exc
    return out, None


def assert_raises_same(expected, call):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)


def bits(x):
    return struct.pack("<d", x)


def assert_same_float(got, want):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert bits(got) == bits(want)


def assert_same_verdict(got, want):
    assert (got.criterion, got.parameter, got.threshold, got.outcome, got.note) == (
        want.criterion, want.parameter, want.threshold, want.outcome, want.note
    )
    assert got.admissible == want.admissible
    assert_same_float(got.statistic, want.statistic)


class TestSeparableStack:
    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.sampled_from(SAMPLER_DIMS),
        num_terms=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=6),
    )
    @example(dims=(2, 2, 2, 2), num_terms=3, seeds=[0, 1, 2])
    def test_bit_for_bit_with_frozen_loop(self, dims, num_terms, seeds):
        stack = separable_stack(dims, num_terms, seeds)
        assert stack.shape == (len(seeds),) + (math.prod(dims),) * 2
        for seed, matrix in zip(seeds, stack):
            want = frozen_sample_separable(dims, num_terms, seed)
            assert matrix.tobytes() == want.matrix.tobytes()
            one = sample_separable(dims, num_terms, seed)
            assert one.dims == want.dims
            assert one.matrix.tobytes() == want.matrix.tobytes()

    @pytest.mark.parametrize(
        "dims, num_terms, seeds",
        [
            ((2, 2), 0, [0]),
            ((2, 3), -2, [5, 6]),
            ((8, 9), 1, [0]),  # "too large" at the second factor, shape (72,)
            ((65, 2), 2, [1]),  # "too large" at the first factor
            ((4, 4, 5), 3, [2, 3]),
            ((2, 2), 1, [-1]),
            ((2, 3), 2, [5, -3, 7]),  # the negative seed fails after a good one
            ((8, 9), 1, [-1, 4]),  # the negative seed fails before the size
            ((8, 9), 1, [4, -1]),  # the size fails at the first seed
        ],
    )
    def test_errors_match_frozen_loop(self, dims, num_terms, seeds):
        _, expected = first_error(frozen_sample_separable, [(dims, num_terms, s) for s in seeds])
        assert expected is not None
        assert_raises_same(expected, lambda: separable_stack(dims, num_terms, seeds))
        for seed in seeds:
            _, expected = first_error(frozen_sample_separable, [(dims, num_terms, seed)])
            if expected is not None:
                assert_raises_same(expected, lambda: sample_separable(dims, num_terms, seed))

    def test_no_seeds(self):
        assert separable_stack((2, 3), 2, []).shape == (0, 6, 6)


# Named cases: degenerate (T2 = T1^2) with T1^2 - T1 >= 0 and < 0, a
# nonpositive discriminant, a positive one whose lower root is not positive
# (so both roots are not, and every weight is admissible), and a positive
# one with two positive roots.
CASES = {
    "degenerate_lin_nonneg": (1.0, 1.0),
    "degenerate_lin_nonneg_above_one": (1.5, 2.25),
    "degenerate_lin_neg": (0.5, 0.25),
    "degenerate_rounding": (0.3, 0.09 + 5e-13),
    "disc_nonpositive": (0.5, 0.1),
    "disc_positive_lower_root_nonpositive": (2.0, 3.8),
    "disc_positive_two_roots": (0.5, 0.2),
    "qutrit_like": (0.21, 0.0149),
}
WEIGHTS = (1e-3, 0.01, 0.5, 1.0, 1.1270166537925831, 2.0, 5.0, 8.872983346207417, 30.0, 1e4)


@st.composite
def moment_stacks(draw):
    """Moment sums with 0 < T2 <= T1^2 mostly, some exactly degenerate, plus a weight."""
    n = draw(st.integers(1, 8))
    t1, t2 = [], []
    for _ in range(n):
        a = draw(st.floats(1e-3, 2.0))
        ratio = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.floats(0.999999, 1.0)))
        t1.append(a)
        t2.append(a * a * ratio)
    weight = draw(st.one_of(st.sampled_from(WEIGHTS), st.floats(1e-4, 1e4)))
    return np.array(t1), np.array(t2), weight


def root_weights(t1, t2):
    """The finite interval ends of each state's frozen range, and their neighbours."""
    out = []
    for a, b in zip(t1.tolist(), t2.tolist()):
        for e in frozen_finite_endpoints(frozen_admissible_range(MomentSet(a, b))):
            out += [e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)]
    return out


class TestMomentArrays:
    def check(self, t1, t2, weight):
        msets = [MomentSet(a, b) for a, b in zip(t1.tolist(), t2.tolist())]
        bounds = admissible_bounds(t1, t2)
        for i, m in enumerate(msets):
            assert bounds.at(i) == frozen_admissible_range(m)
            assert admissible_range(m) == frozen_admissible_range(m)
            assert bits(discriminant(m)) == bits(frozen_discriminant(m))
        for criterion in ("v1", "v2", "v3"):
            want, error = first_error(frozen_moment_verdict, [(criterion, m, weight) for m in msets])
            if error is not None:
                assert_raises_same(error, lambda: moment_statistics(criterion, t1, t2, weight, bounds))
                continue
            stats = moment_statistics(criterion, t1, t2, weight, bounds)
            assert np.isnan(stats).tolist() == [math.isnan(v.statistic) for v in want]
            for got, w in zip(stats.tolist(), want):
                assert_same_float(got, w.statistic)
            assert (entangled(criterion, stats) == [v.outcome == "ENTANGLED" for v in want]).all()
            ev = Evaluation(criterion, weight, stats, t1, t2, None if criterion == "v3" else bounds)
            for i, w in enumerate(want):
                assert_same_verdict(verdict(ev, i), w)
        for stack_fn, fn, frozen in ((v1_stack, v1, frozen_v1), (v3_stack, v3, frozen_v3)):
            want, error = first_error(frozen, [(m, weight) for m in msets])
            if error is not None:
                assert_raises_same(error, lambda: stack_fn(t1, t2, weight))
                _, one_error = first_error(frozen, [(msets[0], weight)])
                if one_error is not None:
                    assert_raises_same(one_error, lambda: fn(msets[0], weight))
                continue
            for got, w in zip(stack_fn(t1, t2, weight).tolist(), want):
                assert bits(got) == bits(w)
            for m, w in zip(msets, want):
                assert bits(fn(m, weight)) == bits(w)

    @settings(max_examples=300, deadline=None)
    @given(moment_stacks())
    def test_bit_for_bit_with_frozen_scalars(self, case):
        self.check(*case)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("weight", WEIGHTS + (0.0, -1.0))
    def test_named_cases(self, name, weight):
        t1, t2 = CASES[name]
        self.check(np.array([t1]), np.array([t2]), weight)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_weights_at_the_roots(self, name):
        t1, t2 = np.array([CASES[name][0]]), np.array([CASES[name][1]])
        for weight in root_weights(t1, t2):
            self.check(t1, t2, weight)

    def test_case_kinds(self):
        """The named cases reach every branch of the frozen range."""
        ranges = {k: frozen_admissible_range(MomentSet(*v)) for k, v in CASES.items()}
        assert ranges["degenerate_lin_nonneg"].degenerate
        assert frozen_finite_endpoints(ranges["degenerate_lin_neg"]) == (1.0,)
        assert ranges["degenerate_rounding"].degenerate
        assert ranges["disc_nonpositive"].discriminant <= 0.0
        lower_nonpositive = ranges["disc_positive_lower_root_nonpositive"]
        assert lower_nonpositive.discriminant > 0.0 and len(lower_nonpositive.intervals) == 1
        assert len(ranges["disc_positive_two_roots"].intervals) == 2

    def test_radicand_error_at_the_first_state(self):
        # Weights inside (r-, r+) of a two-root state give a negative radicand.
        good, bad = (1.0, 1.0), CASES["disc_positive_two_roots"]
        t1 = np.array([good[0], bad[0], good[0], 0.5])
        t2 = np.array([good[1], bad[1], good[1], 0.21])
        msets = [MomentSet(a, b) for a, b in zip(t1.tolist(), t2.tolist())]
        _, error = first_error(frozen_v1, [(m, 4.0) for m in msets])
        assert error is not None and "radicand" in str(error)
        assert_raises_same(error, lambda: v1_stack(t1, t2, 4.0))
        # Gated, those states are inadmissible instead.
        stats = moment_statistics("v1", t1, t2, 4.0)
        assert np.isnan(stats).tolist() == [False, True, False, True]
