"""The stacked separable sampler and the array statistics against frozen per-state code.

The frozen copies below are the per-term sampler (a `kron` and an
`np.linalg.norm` per factor) and the scalar v1, v3, admissible range and
moment verdict as they were before the array versions replaced them,
with the range's membership test and finite endpoints as they were
then.  They carry the changes made since: the discriminant's
`lin * lin` in place of Python's `lin ** 2`; v3's inner term
sqrt(T1 + (v^2 + 2v) T2) - v sqrt(T2) taken as the equal quotient
(T1 + 2v T2) / (sqrt(T1 + (v^2 + 2v) T2) + v sqrt(T2)), which does not
cancel at large v; the range's lower root in Vieta's form
2 T1^2 / (sqrt(delta) + T1 - T1^2), which does not cancel either; and v1
deciding admissibility by the frozen range, not by the sign of its
radicand.  The array code must reproduce them bit for bit, errors
included.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_density
from remoments import (
    INCONCLUSIVE,
    AdmissibleRange,
    CriterionVerdict,
    DensityMatrix,
    Interval,
    admissible_range,
    discriminant,
    enumerate_splits,
    kron,
    moments,
    sample_separable,
    trace_norm,
    v1,
    v3,
    validate,
)
from remoments.criteria import (
    CRITERIA,
    DEGENERATE_TOL,
    Evaluation,
    Spectrum,
    admissible_bounds,
    entangled,
    verdict,
)
from remoments.realign import realign_array
from remoments.states import separable_stack

SAMPLER_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (2, 1, 3)]


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
    t1, t2 = m
    lin = t1 * t1 - t1
    return lin * lin - 2.0 * (t1 * t1 - t2) * t1 * t1


def frozen_radicand(m, a):
    t1, t2 = m
    return (t1 * t1 - t2) * a * a / 2.0 + (t1 * t1 - t1) * a + t1 * t1


def frozen_admissible_range(m):
    t1, t2 = m
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
    lower = 2.0 * const / (root - lin)
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
    if not frozen_contains(frozen_admissible_range(m), a):
        raise ValueError(f"weight {a!r} lies outside the admissible range")
    f = max(frozen_radicand(m, a), 0.0)
    return math.sqrt((2.0 / a) * ((1.0 + a / 2.0) * m[0] + math.sqrt(f)))


def frozen_v3(m, v):
    if v < 0.0:
        raise ValueError(f"weight must be nonnegative, got {v!r}")
    t1, t2 = m
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
        except (TypeError, ValueError) as exc:
            return None, exc
    return out, None


def assert_raises_same(expected, call):
    with pytest.raises(type(expected)) as exc:
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
        seeds=st.lists(st.integers(0, 2**200), min_size=1, max_size=6),
    )
    @example(dims=(2, 2, 2, 2), num_terms=3, seeds=[0, 1, 2])
    @example(dims=(2, 1, 3), num_terms=2, seeds=[0, 1])  # a factor of dimension 1
    # Seeds of one to five uint32 words: the fifth word mixes into the hash
    # pool for 2**128 only, not for the four-word seeds beside it.
    @example(dims=(2, 2), num_terms=1, seeds=[2**32 - 1, 2**32, 2**128 - 1, 2**128])
    @example(dims=(2, 3), num_terms=2, seeds=[2**128, 7, 2**128 - 1])
    # The weights of all seeds are normalized by one row sum; numpy sums 8 or
    # more terms pairwise in unrolled blocks of up to 128.
    @example(dims=(2, 2), num_terms=8, seeds=[3, 4])
    @example(dims=(2, 2), num_terms=9, seeds=[0, 1, 2])
    @example(dims=(2, 3), num_terms=17, seeds=[5])
    @example(dims=(2, 2), num_terms=128, seeds=[6, 7])
    @example(dims=(2, 2), num_terms=129, seeds=[0, 1, 2])
    @example(dims=(2, 3), num_terms=300, seeds=[8, 9, 10, 11])
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
            ((2, 2), 1, [1.5]),  # numpy's TypeError for a float seed
            ((2, 3), 2, [5, 2.0]),
            ((8, 9), 1, [0.5, 4]),  # the float seed fails before the size
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

    @pytest.mark.parametrize("seeds, bad", [([None], "None"), ([3, [1, 2]], "[1, 2]")])
    def test_seeds_numpy_takes_that_are_not_integers(self, seeds, bad):
        """numpy seeds a generator from None or a sequence; the sampler's own check rejects both."""
        with pytest.raises(TypeError) as exc:
            separable_stack((2, 2), 1, seeds)
        assert str(exc.value) == f"seed must be a non-negative integer, got {bad}"


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
        for e in frozen_finite_endpoints(frozen_admissible_range((a, b))):
            out += [e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)]
    return out


def row_statistic(criterion, t1, t2, weight, bounds):
    """The `CRITERIA` row's statistic on a spectrum of moment sums alone (no trace norms)."""
    return CRITERIA[criterion].statistic(Spectrum(None, t1, t2, bounds), weight)


class TestMomentArrays:
    def check(self, t1, t2, weight):
        msets = list(zip(t1.tolist(), t2.tolist()))
        bounds = admissible_bounds(t1, t2)
        for i, m in enumerate(msets):
            assert bounds.at(i) == frozen_admissible_range(m)
            assert admissible_range(*m) == frozen_admissible_range(m)
            assert bits(discriminant(*m)) == bits(frozen_discriminant(m))
        for criterion in ("v1", "v2", "v3"):
            want, error = first_error(frozen_moment_verdict, [(criterion, m, weight) for m in msets])
            if error is not None:
                assert_raises_same(error, lambda: row_statistic(criterion, t1, t2, weight, bounds))
                continue
            stats = row_statistic(criterion, t1, t2, weight, bounds)
            assert np.isnan(stats).tolist() == [math.isnan(v.statistic) for v in want]
            for got, w in zip(stats.tolist(), want):
                assert_same_float(got, w.statistic)
            assert (entangled(criterion, stats) == [v.outcome == "ENTANGLED" for v in want]).all()
            ev = Evaluation(criterion, weight, stats, t1, t2, None if criterion == "v3" else bounds)
            for i, w in enumerate(want):
                assert_same_verdict(verdict(ev, i), w)
        for fn, frozen in ((v1, frozen_v1), (v3, frozen_v3)):
            want, error = first_error(frozen, [(m, weight) for m in msets])
            if error is not None:
                assert_raises_same(error, lambda: fn(t1, t2, weight))
                _, one_error = first_error(frozen, [(msets[0], weight)])
                if one_error is not None:
                    assert_raises_same(one_error, lambda: fn(*msets[0], weight))
                continue
            for got, w in zip(fn(t1, t2, weight).tolist(), want):
                assert bits(got) == bits(w)
            for m, w in zip(msets, want):
                assert bits(fn(*m, weight)) == bits(w)

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
        ranges = {k: frozen_admissible_range(v) for k, v in CASES.items()}
        assert ranges["degenerate_lin_nonneg"].degenerate
        assert frozen_finite_endpoints(ranges["degenerate_lin_neg"]) == (1.0,)
        assert ranges["degenerate_rounding"].degenerate
        assert ranges["disc_nonpositive"].discriminant <= 0.0
        lower_nonpositive = ranges["disc_positive_lower_root_nonpositive"]
        assert lower_nonpositive.discriminant > 0.0 and len(lower_nonpositive.intervals) == 1
        assert len(ranges["disc_positive_two_roots"].intervals) == 2

    def test_range_error_at_any_state(self):
        # Weights inside (r-, r+) of a two-root state lie outside its admissible range.
        good, bad = (1.0, 1.0), CASES["disc_positive_two_roots"]
        t1 = np.array([good[0], bad[0], good[0], 0.5])
        t2 = np.array([good[1], bad[1], good[1], 0.21])
        msets = list(zip(t1.tolist(), t2.tolist()))
        _, error = first_error(frozen_v1, [(m, 4.0) for m in msets])
        assert str(error) == "weight 4.0 lies outside the admissible range"
        assert_raises_same(error, lambda: v1(t1, t2, 4.0))
        assert_raises_same(error, lambda: v1(*msets[1], 4.0))  # the first bad state's own float call
        # Gated, those states are inadmissible instead.
        stats = row_statistic("v1", t1, t2, 4.0, admissible_bounds(t1, t2))
        assert np.isnan(stats).tolist() == [False, True, False, True]


class TestStackIsEachState:
    """moments, v1, v3, discriminant and trace_norm on a stack give each state's own call bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (3, 3), (2, 4), (2, 2, 2), (2, 3, 2)]),
        num_terms=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
        mixed=st.lists(st.integers(0, 10_000), max_size=3),
        weight=st.one_of(st.sampled_from(WEIGHTS), st.floats(1e-4, 1e4)),
        data=st.data(),
    )
    def test_bit_for_bit(self, dims, num_terms, seeds, mixed, weight, data):
        stack = np.concatenate([separable_stack(dims, num_terms, seeds)]
                               + [random_density(dims, s).matrix[None] for s in mixed])
        realigned = realign_array(stack, dims, data.draw(st.sampled_from(enumerate_splits(len(dims)))))
        t1, t2 = moments(realigned)
        pairs = [tuple(float(t) for t in moments(r)) for r in realigned]
        assert [(bits(a), bits(b)) for a, b in zip(t1.tolist(), t2.tolist())] == \
            [(bits(a), bits(b)) for a, b in pairs]
        assert [bits(x) for x in trace_norm(realigned).tolist()] == [bits(trace_norm(r)) for r in realigned]
        assert [bits(x) for x in discriminant(t1, t2).tolist()] == [bits(discriminant(*p)) for p in pairs]
        for fn in (v1, v3):
            want, error = first_error(fn, [(a, b, weight) for a, b in pairs])
            if error is not None:
                assert_raises_same(error, lambda: fn(t1, t2, weight))
                continue
            assert [bits(x) for x in fn(t1, t2, weight).tolist()] == [bits(x) for x in want]
