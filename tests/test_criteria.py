"""Detection criteria: weighted moment statistics, comparators, verdicts."""
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density
from remoments import (
    ENTANGLED,
    INCONCLUSIVE,
    RealignSpec,
    admissible_range,
    discriminant,
    enumerate_splits,
    ghz_w,
    hermitian_eigenvalues,
    kron,
    moments,
    noisy_ghz4,
    partial_transpose,
    ppt_verdict,
    pure_state,
    realign_bipartite,
    realign_partial,
    realignment_norm_verdict,
    rho_d,
    rho_eps,
    rho_pq,
    sample_separable,
    v1,
    v3,
    verdict_v1,
    verdict_v2,
    verdict_v3,
)
from remoments.criteria import admissible_bounds, spectrum, v1_stack, v3_stack
from remoments.realign import MomentSet
from remoments.states import separable_stack

Q0 = (math.sqrt(2) - 1) / 2
BELL = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))


def bell_moments():
    return moments(realign_bipartite(BELL))


def pq_moments():
    return moments(realign_bipartite(rho_pq(Q0)))


def bounds_of(m):
    """The admissible bounds of one state's moment sums; `admits(w)[0]` is the gate."""
    return admissible_bounds(np.array([m.t1]), np.array([m.t2]))


class TestDiscriminant:
    def test_unit_moments(self):
        assert discriminant(MomentSet(t1=1.0, t2=1.0)) == 0.0

    def test_bell(self):
        assert discriminant(bell_moments()) == pytest.approx(-1.5, abs=1e-12)

    def test_pq_golden(self):
        assert discriminant(pq_moments()) == pytest.approx(0.01882146863844181, abs=1e-12)

    def test_formula(self):
        m = MomentSet(t1=0.7, t2=0.3)
        expected = (0.49 - 0.7) ** 2 - 2 * (0.49 - 0.3) * 0.49
        assert discriminant(m) == pytest.approx(expected, abs=1e-15)


class TestAdmissibleRange:
    def test_negative_discriminant_is_all_positive(self):
        m = moments(realign_bipartite(rho_d(0.3)))
        ar = admissible_range(m)
        assert ar.discriminant < 0
        assert not ar.degenerate
        assert len(ar.intervals) == 1
        iv = ar.intervals[0]
        assert iv.lo == 0.0 and not iv.lo_closed and math.isinf(iv.hi)
        assert bounds_of(m).admits(1e-9)[0] and bounds_of(m).admits(1e9)[0]
        assert not bounds_of(m).admits(0.0)[0]

    def test_pq_two_intervals(self):
        ar = admissible_range(pq_moments())
        bounds = bounds_of(pq_moments())
        assert len(ar.intervals) == 2
        lo_iv, hi_iv = ar.intervals
        assert lo_iv.hi == pytest.approx(0.21077270350240235, abs=1e-10)
        assert hi_iv.lo == pytest.approx(11.907632629193923, abs=1e-8)
        assert lo_iv.hi_closed and hi_iv.lo_closed
        assert bounds.admits(0.2)[0] and bounds.admits(12.0)[0]
        assert not bounds.admits(1.0)[0]
        assert (bounds.low_end[0], bounds.high_start[0]) == (lo_iv.hi, hi_iv.lo)

    def test_degenerate_rank_one(self):
        ar = admissible_range(MomentSet(t1=0.5, t2=0.25))
        assert ar.degenerate
        assert len(ar.intervals) == 1
        iv = ar.intervals[0]
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (0.0, 1.0, False, True)

    def test_degenerate_pure(self):
        # T1 = T2 = 1: linear term vanishes, every positive weight stays valid
        ar = admissible_range(MomentSet(t1=1.0, t2=1.0))
        assert ar.degenerate
        assert math.isinf(ar.intervals[0].hi)

    def test_radicand_nonnegative_inside(self):
        m = pq_moments()
        ar = admissible_range(m)
        quad = m.t1**2 - m.t2
        lin = m.t1**2 - m.t1
        for a in [0.01, 0.05, 0.1, 0.2, ar.intervals[0].hi, ar.intervals[1].lo, 12.0, 50.0]:
            assert bounds_of(m).admits(a)[0]
            f = quad * a * a / 2 + lin * a + m.t1**2
            assert f >= -1e-12

    def test_radicand_vanishes_at_endpoints(self):
        m = pq_moments()
        bounds = bounds_of(m)
        quad = m.t1**2 - m.t2
        lin = m.t1**2 - m.t1
        for a in (bounds.low_end[0], bounds.high_start[0]):
            f = quad * a * a / 2 + lin * a + m.t1**2
            assert abs(f) <= 1e-9

    def test_eps_family_watch_range(self):
        # extreme admissible endpoints across the family parameter
        lows, highs = [], []
        for eps in np.linspace(0.3, 3.5, 161):
            ar = admissible_range(moments(realign_bipartite(rho_eps(float(eps)))))
            assert ar.discriminant > 0
            lows.append(ar.intervals[0].hi)
            highs.append(ar.intervals[1].lo)
        assert min(lows) == pytest.approx(0.348, abs=1e-3)
        assert max(highs) == pytest.approx(7.752, abs=1e-2)


class TestV1:
    def test_closed_form_unit_moments(self):
        m = MomentSet(t1=1.0, t2=1.0)
        assert v1(m, 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        for a in (0.5, 2.0, 10.0):
            assert v1(m, a) == pytest.approx(math.sqrt(1 + 4 / a), rel=1e-12)

    def test_bell(self):
        assert v1(bell_moments(), 2.0) == pytest.approx(1.8923897141139263, abs=1e-12)
        # closed form sqrt(2 + sqrt(2.5))
        assert v1(bell_moments(), 2.0) == pytest.approx(math.sqrt(2 + math.sqrt(2.5)), rel=1e-12)

    def test_pq_golden(self):
        assert v1(pq_moments(), 0.2) == pytest.approx(1.5072876654986822, abs=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            v1(bell_moments(), 0.0)

    def test_rejects_weight_outside_range(self):
        with pytest.raises(ValueError, match="admissible"):
            v1(pq_moments(), 1.0)

    def test_clamps_tiny_negative_radicand(self):
        m = pq_moments()
        edge = bounds_of(m).low_end[0]
        assert v1(m, edge) > 0  # |F| <= 1e-9 at the root, clamp handles sign noise


class TestV3:
    def test_unit_moments_exactly_one(self):
        m = MomentSet(t1=1.0, t2=1.0)
        for v in (0.0, 0.01, 1.0, 5.0, 100.0):
            assert v3(m, v) == pytest.approx(1.0, abs=1e-12)

    def test_bell(self):
        assert v3(bell_moments(), 0.01) == pytest.approx(1.4898891830857135, abs=1e-12)

    def test_zero_weight_limit(self):
        m = bell_moments()
        limit = math.sqrt(m.t1 + math.sqrt(2 * (m.t1**2 - m.t2)))
        assert v3(m, 0.0) == pytest.approx(limit, rel=1e-12)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            v3(bell_moments(), -0.1)

    @given(st.integers(0, 10_000))
    def test_dominated_by_zero_weight_limit(self, seed):
        dm = random_density((2, 2), seed)
        m = moments(realign_bipartite(dm))
        cap = m.t1 + math.sqrt(2 * max(m.t1**2 - m.t2, 0.0))
        assert v3(m, 1e-6) ** 2 <= cap + 1e-12
        assert v3(m, 1e-6) ** 2 == pytest.approx(cap, abs=1e-6)


class TestVerdictV1:
    def test_rho_d_detected(self):
        v = verdict_v1(rho_d(0.3), 2.0)
        assert v.outcome == ENTANGLED
        assert v.statistic == pytest.approx(1.0168270107013788, abs=1e-9)
        assert v.threshold == 1.0
        assert v.admissible.discriminant == pytest.approx(-0.0011888910880703749, abs=1e-12)

    def test_rho_eps_detected(self):
        v = verdict_v1(rho_eps(0.9), 0.3)
        assert v.outcome == ENTANGLED
        assert v.statistic == pytest.approx(1.640011171818035, abs=1e-9)

    def test_pq_out_of_range_gated(self):
        v = verdict_v1(rho_pq(Q0), 1.0)
        assert v.outcome == INCONCLUSIVE
        assert math.isnan(v.statistic)
        assert v.note == "parameter outside admissible range"

    def test_never_entangled_outside_range(self):
        dm = rho_pq(Q0)
        bounds = bounds_of(pq_moments())
        for a in np.geomspace(0.25, 11.0, 25):
            if not bounds.admits(float(a))[0]:
                assert verdict_v1(dm, float(a)).outcome == INCONCLUSIVE

    def test_requires_bipartite(self):
        with pytest.raises(ValueError):
            verdict_v1(ghz_w(0.5), 2.0)

    def test_to_dict_replaces_nan(self):
        d = verdict_v1(rho_pq(Q0), 1.0).to_dict()
        assert d["statistic"] is None
        assert d["outcome"] == "INCONCLUSIVE"
        assert d["admissible"]["intervals"][1]["hi"] is None  # inf endpoint


class TestVerdictV2:
    def test_ghz_w_midpoint(self):
        v = verdict_v2(ghz_w(0.5), RealignSpec.parse("1|2"), 5.0)
        assert v.outcome == ENTANGLED
        assert v.statistic == pytest.approx(1.0853662812420948, abs=1e-9)
        assert v.admissible.discriminant < 0

    def test_pure_ghz(self):
        v = verdict_v2(ghz_w(1.0), RealignSpec.parse("1|2"), 5.0)
        assert v.outcome == ENTANGLED

    def test_product_closed_form(self):
        prod = pure_state(np.array([1, 0, 0, 0, 0, 0, 0, 0]), (2, 2, 2))
        v = verdict_v2(prod, RealignSpec.parse("1|2"), 4.0)
        assert v.statistic == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert v.admissible.discriminant == pytest.approx(0.0, abs=1e-12)

    def test_split_choice_changes_moments(self):
        dm = random_density((2, 2, 2), 77)
        t2 = {str(spec): moments(realign_partial(dm, spec)).t2 for spec in enumerate_splits(3)}
        assert len({round(x, 9) for x in t2.values()}) > 1
        # out-of-range weight on a mixed state stays gated for every split
        for spec in enumerate_splits(3):
            v = verdict_v2(dm, spec, 5.0)
            assert v.outcome == INCONCLUSIVE


class TestVerdictV3:
    def test_above_threshold(self):
        v = verdict_v3(noisy_ghz4(0.8), RealignSpec.parse("1|2"), 0.01)
        assert v.outcome == ENTANGLED
        assert v.admissible is None  # no weight gate for this criterion

    def test_below_threshold(self):
        v = verdict_v3(noisy_ghz4(0.5), RealignSpec.parse("1|2"), 0.01)
        assert v.outcome == INCONCLUSIVE

    def test_separable_samples_inconclusive(self):
        for seed in range(20):
            dm = sample_separable((2, 2), 3, 400 + seed)
            v = verdict_v3(dm, RealignSpec.parse("1|2"), 0.5)
            assert v.outcome == INCONCLUSIVE
            assert v.statistic <= 1 + 1e-9

    def test_frozen_ghz4(self):
        v = verdict_v3(noisy_ghz4(1.0), RealignSpec.parse("1|2"), 0.01)
        assert v.statistic == pytest.approx(1.4898891830857135, abs=1e-10)


class TestRealignmentNorm:
    def test_bell(self):
        v = realignment_norm_verdict(BELL, RealignSpec.parse("1|2"))
        assert v.statistic == pytest.approx(2.0, abs=1e-9)
        assert v.outcome == ENTANGLED
        assert v.threshold == 1.0
        assert v.parameter is None

    def test_basis_product_exactly_one(self):
        dm = pure_state(np.array([1, 0, 0, 0]), (2, 2))
        v = realignment_norm_verdict(dm, RealignSpec.parse("1|2"))
        assert v.statistic == pytest.approx(1.0, abs=1e-12)
        assert v.outcome == INCONCLUSIVE

    def test_rho_eps_bound_entanglement(self):
        v = realignment_norm_verdict(rho_eps(0.9), RealignSpec.parse("1|2"))
        assert v.statistic == pytest.approx(1.0709007752131343, abs=1e-7)
        assert v.outcome == ENTANGLED

    def test_rho_pq_bound_entanglement(self):
        v = realignment_norm_verdict(rho_pq(Q0), RealignSpec.parse("1|2"))
        assert v.statistic == pytest.approx(1.0857864376269049, abs=1e-7)
        assert v.outcome == ENTANGLED


class TestPartialTranspose:
    def test_product_rule(self):
        rng = np.random.default_rng(13)
        ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = ga @ ga.conj().T
        a /= np.trace(a).real
        b = gb @ gb.conj().T
        b /= np.trace(b).real
        from remoments import DensityMatrix

        dm = DensityMatrix(dims=(2, 3), matrix=kron(a, b))
        assert np.allclose(partial_transpose(dm, 2), kron(a, b.T), atol=1e-14)
        assert np.allclose(partial_transpose(dm, 1), kron(a.T, b), atol=1e-14)

    def test_involution(self):
        dm = random_density((2, 2, 2), 14)
        once = partial_transpose(dm, 2)
        from remoments import DensityMatrix

        twice = partial_transpose(DensityMatrix(dims=dm.dims, matrix=once), 2)
        assert np.array_equal(twice, dm.matrix)

    def test_preserves_hermiticity_and_trace(self):
        dm = random_density((3, 3), 15)
        pt = partial_transpose(dm, 2)
        assert np.allclose(pt, pt.conj().T)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)


class TestPptVerdict:
    def test_pq_q0_is_ppt(self):
        v = ppt_verdict(rho_pq(Q0), 2)
        assert v.outcome == INCONCLUSIVE
        assert v.statistic >= -1e-10
        assert v.threshold == 0.0
        assert v.parameter == 2.0

    def test_rho_d_is_npt(self):
        v = ppt_verdict(rho_d(0.3), 2)
        assert v.outcome == ENTANGLED
        assert v.statistic == pytest.approx(-0.22, abs=1e-12)

    def test_separable_samples(self):
        for seed in range(10):
            dm = sample_separable((2, 3), 3, 500 + seed)
            for party in (1, 2):
                assert ppt_verdict(dm, party).outcome == INCONCLUSIVE

    def test_party_out_of_range(self):
        with pytest.raises(ValueError, match="party"):
            ppt_verdict(rho_d(0.3), 3)

    def test_statistic_matches_eigensolver(self):
        dm = random_density((2, 2, 2), 16)
        for party in (1, 2, 3):
            v = ppt_verdict(dm, party)
            ev = hermitian_eigenvalues(partial_transpose(dm, party))
            assert v.statistic == pytest.approx(ev[-1], abs=1e-14)


class TestBoundEntanglementSignature:
    @pytest.mark.parametrize("eps", [0.5, 0.9, 1.5, 3.0])
    def test_rho_eps_ppt_yet_detected(self, eps):
        dm = rho_eps(eps)
        assert ppt_verdict(dm, 1).outcome == INCONCLUSIVE
        assert ppt_verdict(dm, 2).outcome == INCONCLUSIVE
        assert realignment_norm_verdict(dm, RealignSpec.parse("1|2")).outcome == ENTANGLED
        assert verdict_v1(dm, 0.3).outcome == ENTANGLED

    def test_rho_pq_q0_ppt_yet_detected(self):
        dm = rho_pq(Q0)
        assert ppt_verdict(dm, 2).outcome == INCONCLUSIVE
        assert realignment_norm_verdict(dm, RealignSpec.parse("1|2")).outcome == ENTANGLED
        assert verdict_v1(dm, 0.2).outcome == ENTANGLED


LARGE_WEIGHTS = (1e6, 1e8, 1e12, 1e20, 1e150)


def decimal_v3(t1, t2, v):
    """v3 as written, sqrt((sqrt(T1 + (v^2 + 2v) T2) - v sqrt(T2))^2 + sqrt(2 (T1^2 - T2))).

    Evaluated in decimal with 60 significant digits left after the
    cancellation of the inner difference, which loses about 2 log10(v).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + 2 * max(0, math.ceil(math.log10(v)))
        t1, t2, v = decimal.Decimal(t1), decimal.Decimal(t2), decimal.Decimal(v)
        inner = (t1 + (v * v + 2 * v) * t2).sqrt() - v * t2.sqrt()
        spread = max(2 * (t1 * t1 - t2), decimal.Decimal(0))
        return float((inner * inner + spread.sqrt()).sqrt())


class TestV3AtLargeWeights:
    """v3 holds for every v >= 0; its inner difference must not cancel to noise at large v."""

    def moment_sums(self):
        dm = rho_eps(1.0)
        yield spectrum(dm.matrix[None], dm.dims, RealignSpec.parse("1|2"))
        for dims in ((2, 2), (3, 3), (2, 2, 2)):
            stack = separable_stack(dims, 3, range(20))
            for spec in enumerate_splits(len(dims)):
                yield spectrum(stack, dims, spec)

    @pytest.mark.parametrize("v", LARGE_WEIGHTS)
    def test_matches_decimal_formula(self, v):
        for sp in self.moment_sums():
            got = v3_stack(sp.t1, sp.t2, v)
            for stat, a, b in zip(got.tolist(), sp.t1.tolist(), sp.t2.tolist()):
                want = decimal_v3(a, b, v)
                assert abs(stat - want) <= 1e-12 * want, (v, a, b)

    @pytest.mark.parametrize("v", (0.0, 1.0, 1e3) + LARGE_WEIGHTS)
    def test_separable_rho_eps_1_never_flagged(self, v):
        dm = rho_eps(1.0)
        result = verdict_v3(dm, RealignSpec.parse("1|2"), v)
        assert result.outcome == INCONCLUSIVE
        assert result.statistic < 1.0


class TestWeightOverflow:
    @pytest.mark.parametrize("w", [1e160, 1e200, 1.7e308, math.inf])
    def test_square_overflow_raises(self, w):
        t1, t2 = np.array([0.5]), np.array([0.2])
        for fn in (v1_stack, v3_stack):
            with pytest.raises(ValueError, match="is too large: its square overflows"):
                fn(t1, t2, w)

    def test_largest_weight_whose_square_is_finite_evaluates(self):
        w = math.sqrt(np.finfo(float).max)
        t1, t2 = np.array([0.5]), np.array([0.2])
        assert np.isfinite(v1_stack(t1, t2, w)).all()
        assert np.isfinite(v3_stack(t1, t2, w)).all()
