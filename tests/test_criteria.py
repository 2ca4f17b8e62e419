"""Detection criteria: weighted moment statistics, comparators, verdicts."""
import decimal
import functools
import json
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from remoments import cli, criteria, linalg
from remoments.cli import AuditConfig, run_audit
from remoments.criteria import CRITERIA, Spectrum, admissible_bounds, entangled, evaluate, spectrum
from remoments.states import separable_stack
from test_audit import AUDIT_DIMS, two_party_criteria
from test_arrays import CASES
from test_cli import parse_report, run_cli

Q0 = (math.sqrt(2) - 1) / 2
BELL = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))


def bell_moments():
    return moments(realign_bipartite(BELL))


def pq_moments():
    return moments(realign_bipartite(rho_pq(Q0)))


def bounds_of(t1, t2):
    """The admissible bounds of one state's moment sums; `admits(w)[0]` is the gate."""
    return admissible_bounds(np.array([t1]), np.array([t2]))


class TestDiscriminant:
    def test_unit_moments(self):
        assert discriminant(1.0, 1.0) == 0.0

    def test_bell(self):
        assert discriminant(*bell_moments()) == pytest.approx(-1.5, abs=1e-12)

    def test_pq_golden(self):
        assert discriminant(*pq_moments()) == pytest.approx(0.01882146863844181, abs=1e-12)

    def test_formula(self):
        expected = (0.49 - 0.7) ** 2 - 2 * (0.49 - 0.3) * 0.49
        assert discriminant(0.7, 0.3) == pytest.approx(expected, abs=1e-15)


class TestAdmissibleRange:
    def test_negative_discriminant_is_all_positive(self):
        m = moments(realign_bipartite(rho_d(0.3)))
        ar = admissible_range(*m)
        assert ar.discriminant < 0
        assert not ar.degenerate
        assert len(ar.intervals) == 1
        iv = ar.intervals[0]
        assert iv.lo == 0.0 and not iv.lo_closed and math.isinf(iv.hi)
        assert bounds_of(*m).admits(1e-9)[0] and bounds_of(*m).admits(1e9)[0]
        assert not bounds_of(*m).admits(0.0)[0]

    def test_pq_two_intervals(self):
        ar = admissible_range(*pq_moments())
        bounds = bounds_of(*pq_moments())
        assert len(ar.intervals) == 2
        lo_iv, hi_iv = ar.intervals
        assert lo_iv.hi == pytest.approx(0.21077270350240235, abs=1e-10)
        assert hi_iv.lo == pytest.approx(11.907632629193923, abs=1e-8)
        assert lo_iv.hi_closed and hi_iv.lo_closed
        assert bounds.admits(0.2)[0] and bounds.admits(12.0)[0]
        assert not bounds.admits(1.0)[0]
        assert (bounds.low_end[0], bounds.high_start[0]) == (lo_iv.hi, hi_iv.lo)

    def test_degenerate_rank_one(self):
        ar = admissible_range(0.5, 0.25)
        assert ar.degenerate
        assert len(ar.intervals) == 1
        iv = ar.intervals[0]
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (0.0, 1.0, False, True)

    def test_degenerate_pure(self):
        # T1 = T2 = 1: linear term vanishes, every positive weight stays valid
        ar = admissible_range(1.0, 1.0)
        assert ar.degenerate
        assert math.isinf(ar.intervals[0].hi)

    def test_radicand_nonnegative_inside(self):
        t1, t2 = pq_moments()
        ar = admissible_range(t1, t2)
        quad = t1**2 - t2
        lin = t1**2 - t1
        for a in [0.01, 0.05, 0.1, 0.2, ar.intervals[0].hi, ar.intervals[1].lo, 12.0, 50.0]:
            assert bounds_of(t1, t2).admits(a)[0]
            f = quad * a * a / 2 + lin * a + t1**2
            assert f >= -1e-12

    def test_radicand_vanishes_at_endpoints(self):
        t1, t2 = pq_moments()
        bounds = bounds_of(t1, t2)
        quad = t1**2 - t2
        lin = t1**2 - t1
        for a in (bounds.low_end[0], bounds.high_start[0]):
            f = quad * a * a / 2 + lin * a + t1**2
            assert abs(f) <= 1e-9

    @given(st.lists(
        st.tuples(st.floats(1e-150, 1e3), st.one_of(st.just(0.0), st.floats(0.0, 2e-12))),
        min_size=1, max_size=8,
    ))
    def test_degenerate_low_end_is_positive(self, cases):
        """A degenerate row's low_end is T1^2/(T1 - T1^2) > 0 or inf, so (0, low_end] is never empty.

        Genuine moment sums have T1 = tr rho^2 >= 1/D; any T1 whose square is
        nonzero keeps the tail positive.
        """
        t1 = np.array([a for a, _ in cases])
        t2 = np.maximum(t1 * t1 - np.array([d for _, d in cases]), 0.0)
        bounds = admissible_bounds(t1, t2)
        assert (bounds.low_end[bounds.degenerate] > 0.0).all()
        for i in np.flatnonzero(bounds.degenerate):
            first = bounds.at(i).intervals[0]
            assert (first.lo, first.hi, first.lo_closed) == (0.0, bounds.low_end[i], False)

    def test_eps_family_watch_range(self):
        # extreme admissible endpoints across the family parameter
        lows, highs = [], []
        for eps in np.linspace(0.3, 3.5, 161):
            ar = admissible_range(*moments(realign_bipartite(rho_eps(float(eps)))))
            assert ar.discriminant > 0
            lows.append(ar.intervals[0].hi)
            highs.append(ar.intervals[1].lo)
        assert min(lows) == pytest.approx(0.348, abs=1e-3)
        assert max(highs) == pytest.approx(7.752, abs=1e-2)


class TestV1:
    def test_closed_form_unit_moments(self):
        assert v1(1.0, 1.0, 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        for a in (0.5, 2.0, 10.0):
            assert v1(1.0, 1.0, a) == pytest.approx(math.sqrt(1 + 4 / a), rel=1e-12)

    def test_bell(self):
        assert v1(*bell_moments(), 2.0) == pytest.approx(1.8923897141139263, abs=1e-12)
        # closed form sqrt(2 + sqrt(2.5))
        assert v1(*bell_moments(), 2.0) == pytest.approx(math.sqrt(2 + math.sqrt(2.5)), rel=1e-12)

    def test_pq_golden(self):
        assert v1(*pq_moments(), 0.2) == pytest.approx(1.5072876654986822, abs=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            v1(*bell_moments(), 0.0)

    def test_rejects_weight_outside_range(self):
        with pytest.raises(ValueError, match="admissible"):
            v1(*pq_moments(), 1.0)

    def test_finite_at_both_ends(self):
        """The reported ends are admitted, and F rounding below 0 there clamps to 0."""
        m = pq_moments()
        bounds = bounds_of(*m)
        for end in (bounds.low_end[0], bounds.high_start[0]):
            assert math.isfinite(v1(*m, end))


# diag(0.499, 0.499, 0.002, 0), a separable 2x2 state, and its moment sums as computed.
NEAR_END_STATE = np.diag([0.499, 0.499, 0.002, 0.0])
NEAR_END_MOMENTS = (0.498006, 0.248007984028)


@st.composite
def physical_moments(draw):
    """0 < T1 <= 1 and T1^2/n <= T2 <= T1^2 for a rank n >= 2, near-degenerate T2 = T1^2 (1 - delta)
    down to delta = 1e-14 included."""
    t1 = draw(st.floats(1e-6, 1.0))
    n = draw(st.integers(2, 64))
    ratio = draw(st.one_of(
        st.floats(1.0 / n, 1.0),
        st.floats(-14.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        st.just(1.0),
    ))
    return t1, t1 * t1 * ratio


class TestOneAdmissibilityRule:
    """`admits` alone decides whether v1 and the gated v1/v2 rows take a weight, checked at each
    finite end of the range and its float neighbours on both sides."""

    def check(self, t1, t2):
        t1s, t2s = np.array([t1]), np.array([t2])
        bounds = admissible_bounds(t1s, t2s)
        ends = [e for e in (float(bounds.low_end[0]), float(bounds.high_start[0])) if 0.0 < e < math.inf]
        for w in [x for e in ends for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]:
            admitted = bool(bounds.admits(w)[0])
            if admitted:
                assert math.isfinite(v1(t1, t2, w)), w
            else:
                with pytest.raises(ValueError, match=r"^weight .* lies outside the admissible range$"):
                    v1(t1, t2, w)
            for criterion in ("v1", "v2"):
                stat = CRITERIA[criterion].statistic(Spectrum(None, t1s, t2s, bounds), w)
                assert math.isnan(stat[0]) != admitted, (criterion, w)

    @settings(max_examples=300, deadline=None)
    @given(physical_moments())
    @example(NEAR_END_MOMENTS)
    def test_physical_moments(self, m):
        self.check(*m)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_cases(self, name):
        self.check(*CASES[name])

    def test_cli_at_the_reported_ends(self, tmp_path):
        """analyze exits 0 at both ends read from --out, with a finite statistic there and NaN and
        the note one float outside."""
        state = tmp_path / "state.json"
        matrix = [[[x, 0.0] for x in row] for row in NEAR_END_STATE.tolist()]
        state.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        out = tmp_path / "out.json"
        code, _, err = run_cli("analyze", "--state", str(state), "--criterion", "v1", "--a", "1", "--out", str(out))
        assert (code, err) == (0, "")
        low, high = json.loads(out.read_text())["admissible"]["intervals"]
        ends = ((low["hi"], math.nextafter(low["hi"], math.inf)), (high["lo"], math.nextafter(high["lo"], 0.0)))
        for end, outward in ends:
            for flags in (("--criterion", "v1", "--a"), ("--criterion", "v2", "--split", "1|2", "--u")):
                code, text, err = run_cli("analyze", "--state", str(state), *flags, repr(end))
                fields = parse_report(text)
                assert (code, err) == (0, "") and math.isfinite(float(fields["statistic"])), (flags, end)
                assert "note" not in fields
                code, text, err = run_cli("analyze", "--state", str(state), *flags, repr(outward))
                fields = parse_report(text)
                assert (code, err, fields["statistic"]) == (0, "", "nan"), (flags, outward)
                assert fields["note"] == "parameter outside admissible range"


class TestV3:
    def test_unit_moments_exactly_one(self):
        for v in (0.0, 0.01, 1.0, 5.0, 100.0):
            assert v3(1.0, 1.0, v) == pytest.approx(1.0, abs=1e-12)

    def test_bell(self):
        assert v3(*bell_moments(), 0.01) == pytest.approx(1.4898891830857135, abs=1e-12)

    def test_zero_weight_limit(self):
        t1, t2 = bell_moments()
        limit = math.sqrt(t1 + math.sqrt(2 * (t1**2 - t2)))
        assert v3(t1, t2, 0.0) == pytest.approx(limit, rel=1e-12)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            v3(*bell_moments(), -0.1)

    @given(st.integers(0, 10_000))
    def test_dominated_by_zero_weight_limit(self, seed):
        dm = random_density((2, 2), seed)
        t1, t2 = moments(realign_bipartite(dm))
        cap = t1 + math.sqrt(2 * max(t1**2 - t2, 0.0))
        assert v3(t1, t2, 1e-6) ** 2 <= cap + 1e-12
        assert v3(t1, t2, 1e-6) ** 2 == pytest.approx(cap, abs=1e-6)


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
        bounds = bounds_of(*pq_moments())
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
        t2 = {str(spec): moments(realign_partial(dm, spec))[1] for spec in enumerate_splits(3)}
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

    @pytest.mark.parametrize("party", [0, 3])
    def test_party_out_of_range(self, party):
        with pytest.raises(ValueError) as exc:
            partial_transpose(random_density((2, 3), 16), party)
        assert str(exc.value) == f"party {party} out of range for 2 parties"


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
        yield spectrum(dm.matrix[None], dm.dims, RealignSpec.parse("1|2"))()
        for dims in ((2, 2), (3, 3), (2, 2, 2)):
            stack = separable_stack(dims, 3, range(20))
            for spec in enumerate_splits(len(dims)):
                yield spectrum(stack, dims, spec)()

    @pytest.mark.parametrize("v", LARGE_WEIGHTS)
    def test_matches_decimal_formula(self, v):
        for sp in self.moment_sums():
            got = v3(sp.t1, sp.t2, v)
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
    @pytest.mark.parametrize("w", [1e160, 1e200, 1.7e308, math.inf, np.float64(1e250)])  # a numpy scalar: no warning
    def test_square_overflow_raises(self, w):
        t1, t2 = np.array([0.5]), np.array([0.2])
        for fn in (v1, v3):
            with pytest.raises(ValueError, match="is too large: its square overflows"):
                fn(t1, t2, w)

    def test_largest_weight_whose_square_is_finite_evaluates(self):
        w = math.sqrt(np.finfo(float).max)
        t1, t2 = np.array([0.5]), np.array([0.2])
        assert np.isfinite(v1(t1, t2, w)).all()
        assert np.isfinite(v3(t1, t2, w)).all()

    def test_smallest_accepted_weight_is_finite_on_pure_products(self):
        """v1^2 is about 4 T1 / a, and T1 of a pure product may round above 1: at the smallest weight
        v1 and v2 accept, every statistic is still finite, near sqrt(4/a), with no RuntimeWarning."""
        w = math.nextafter(2.0 ** -1021, 1.0)
        stack = separable_stack((2, 2), 1, range(200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, spec in (("v1", None), ("v2", RealignSpec.parse("1|2"))):
                ev = evaluate(stack, (2, 2), name, w, spec)
                assert (ev.t1 > 1.0).any()
                assert np.allclose(ev.statistic, 2.0 * math.sqrt(1.0 / w), rtol=1e-12, atol=0.0)
                with pytest.raises(ValueError, match=r"^weight 4\.450147717014403e-308 is too small"):
                    evaluate(stack, (2, 2), name, math.nextafter(w, 0.0), spec)


@pytest.mark.parametrize("dims", AUDIT_DIMS)
def test_pure_products_keep_t2_at_most_t1_squared(dims):
    """T2 <= T1^2 holds exactly on every split, so v1/v2 never find a negative radicand at any weight."""
    stack = separable_stack(dims, 1, range(100))
    largest = math.sqrt(np.finfo(float).max)  # the largest weight with a finite square
    weights = [*np.geomspace(1e-3, largest, 60)[:-1].tolist(), largest]
    for spec in enumerate_splits(len(dims)):
        sp = spectrum(stack, dims, spec, ("v1", "v2"))()
        assert (sp.t2 <= sp.t1 * sp.t1).all()
        for name in ("v1", "v2") if len(dims) == 2 else ("v2",):
            for w in weights:
                CRITERIA[name].statistic(sp, w)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the Gram route flags pure products near threshold")
@pytest.mark.parametrize("criterion, weight", [("realign", None), ("v3", 0.0)])
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_pure_products_are_not_flagged(dims, criterion, weight):
    """A pure product's realign norm and v3(0) are exactly 1: no sample may read ENTANGLED.
    The Gram route flags 293/300/300 (realign) and 92/104/130 (v3) of these samples."""
    stack = separable_stack(dims, 1, range(300))
    ev = evaluate(stack, dims, criterion, weight, RealignSpec.parse("1|2"))
    assert np.count_nonzero(entangled(criterion, ev.statistic)) == 0


def weight_collapse_stacks():
    """(T1, T2) of every split of mixed states, pure products and 2- and 3-term product mixtures."""
    for dims in ((2, 2), (3, 3), (2, 4), (2, 2, 2), (2, 2, 2, 2)):
        stack = np.concatenate([separable_stack(dims, k, range(40)) for k in (1, 2, 3)]
                               + [np.stack([random_density(dims, s).matrix for s in range(10)])])
        for spec in enumerate_splits(len(dims)):
            sp = spectrum(stack, dims, spec, criteria=("v3",))()
            yield sp.t1, sp.t2


class TestWeightCollapse:
    """v3 is largest at v = 0, and v1 tends to v3(0) as a grows.  The float excess of T2 over T1^2
    measured here is what ROADMAP item 1's refined `e2` removes."""

    def test_v3_does_not_increase_in_v(self):
        # d/dv of the inner term is <= 0 exactly when T2 <= T1.  A pure product
        # has T1 = 1 and T2 = T1^2, so its computed T2 can exceed T1 by a few
        # ulp of rounding; then the inner term tends to sqrt(T2), not sqrt(T1).
        grid = np.concatenate([np.linspace(0.0, 1e4, 101), np.geomspace(1e-6, 1e4, 61)])
        for t1, t2 in weight_collapse_stacks():
            top = v3(t1, t2, 0.0)
            top = top + np.maximum(np.sqrt(t2) - np.sqrt(t1), 0.0) + 4.0 * np.spacing(top)
            for v in grid:
                assert (v3(t1, t2, v) <= top).all(), v

    @pytest.mark.parametrize("a", [1e2, 1e4, 1e6])
    def test_v1_tends_to_v3_at_zero(self, a):
        # With x = 1/a and q = T1^2 - T2 > 0, v1(a)^2 = T1 + 2x T1 + sqrt(2q + D)
        # with D = 4x (T1^2 - T1) + 4x^2 T1^2, and v3(0)^2 = T1 + sqrt(2q).  So
        # |v1(a) - v3(0)| <= (2 T1 + |D| / (x sqrt(2q))) x / sqrt(T1): O(1/a),
        # at most 1/a where q is not small, and larger as q -> 0.
        checked = 0
        for t1, t2 in weight_collapse_stacks():
            q = t1 * t1 - t2
            ok = (q > 1e-6) & admissible_bounds(t1, t2).admits(a)
            t1, q = t1[ok], q[ok]
            x = 1.0 / a
            d = np.abs(4.0 * x * (t1 * t1 - t1) + 4.0 * x * x * t1 * t1)
            bound = (2.0 * t1 + d / (x * np.sqrt(2.0 * q))) * x / np.sqrt(t1)
            base = v3(t1, t2[ok], 0.0)
            gap = np.abs(v1(t1, t2[ok], a) - base)
            assert (gap <= bound + 4.0 * np.spacing(base)).all()
            assert (gap[bound <= x] <= x).all()
            checked += int(ok.sum())
        assert checked > 1000


class TestMomentRowsSkipEigensolve:
    """v1/v2/v3 read T1 = tr G and T2 = ||G||_F^2; only realign and ppt eigensolve in `spectrum`."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # Count Hermitian eigensolves (and SVDs, in case singular values move
        # to one) run inside criteria.spectrum or a function it returned, on
        # this thread or on linalg's solver thread, not elsewhere: validation
        # may eigensolve legitimately on this thread.  Only spectrum's
        # functions may reach the solver thread, and a solve there outside
        # them fails the read that waits for it.
        count = {"solves": 0}
        caller, lock, inside = threading.get_ident(), threading.Lock(), threading.local()
        linalg.later(lambda: None)()  # the solver's queue is first in, first out: now empty

        def counted(fn):
            def wrapper(*args, **kwargs):
                depth = getattr(inside, "depth", 0)
                assert depth > 0 or threading.get_ident() == caller, "a solve on another thread outside spectrum"
                with lock:
                    count["solves"] += depth > 0
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))

        def within(fn, *args, **kwargs):
            inside.depth = getattr(inside, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside.depth -= 1

        made = set()
        inner, handed = criteria.spectrum, linalg.later

        def spectrum_(*args, **kwargs):
            solve = functools.partial(within, within(inner, *args, **kwargs))
            made.add(solve)
            return solve

        def later_(fn):
            assert fn in made, "the solver thread handed a function spectrum did not return"
            return handed(fn)

        monkeypatch.setattr(criteria, "spectrum", spectrum_)
        monkeypatch.setattr(cli, "spectrum", spectrum_)
        monkeypatch.setattr(linalg, "later", later_)
        monkeypatch.setattr(cli, "later", later_)
        return count

    def rho_pq_stack(self):
        return np.stack([rho_pq(p).matrix for p in (0.1, Q0, 0.4)])

    @pytest.mark.parametrize("criterion,weight", [("v1", 0.2), ("v2", 0.2), ("v3", 0.01)])
    def test_evaluate_moment_rows(self, solves, criterion, weight):
        ev = evaluate(self.rho_pq_stack(), (4, 4), criterion, weight, RealignSpec.parse("1|2"))
        assert np.isfinite(ev.t2).all()
        assert solves["solves"] == 0

    @pytest.mark.parametrize("criterion,kw", [("realign", {"spec": RealignSpec.parse("1|2")}),
                                              ("ppt", {"party": 1})])
    def test_evaluate_comparators(self, solves, criterion, kw):
        evaluate(self.rho_pq_stack(), (4, 4), criterion, **kw)
        assert solves["solves"] >= 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "rho_pq", "--range", "0:0.5:0.05", "--criterion", "v1", "--a", "0.2"],
        ["sweep", "--family", "ghz_w", "--range", "0:1:0.1", "--criterion", "v2", "--u", "5",
         "--split", "1|2"],
        ["threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3",
         "--v", "0.01", "--split", "12|34"],
    ])
    def test_sweep_and_threshold(self, solves, argv):
        assert run_cli(*argv)[0] == 0
        assert solves["solves"] == 0

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
    def test_audit_moment_rows(self, solves, dims):
        run_audit(AuditConfig(dims=dims, num_states=20, criteria=two_party_criteria(dims, ("v1", "v2", "v3"))))
        assert solves["solves"] == 0

    @pytest.mark.parametrize("names,per_chunk", [(("v3", "realign"), 6), (("v3", "ppt"), 3)])
    def test_audit_eigensolves_once_per_split_or_party_and_chunk(self, solves, monkeypatch, names, per_chunk):
        # (2, 2, 2) has 6 splits and 3 parties; only realign eigensolves a split's Gram matrix
        monkeypatch.setattr(cli, "STACK_ENTRIES", 8 * 8 * 8)  # 8 samples of dimension 8
        run_audit(AuditConfig(dims=(2, 2, 2), num_states=20, num_terms=1, criteria=names))
        assert solves["solves"] == per_chunk * 3  # chunks of 8, 8 and 4 states

    def test_unweighted_split_row_reading_moments(self, solves, monkeypatch):
        # An unweighted split row whose statistic reads T1 alone needs no Gram eigensolve; only a
        # row reading the trace norms (realign) takes one per split and chunk.
        monkeypatch.setitem(criteria.CRITERIA, "t1", criteria._Row(None, "split", gated=False,
                                                                   statistic=lambda sp, w: sp.t1))
        ev = evaluate(self.rho_pq_stack(), (4, 4), "t1", spec=RealignSpec.parse("1|2"))
        assert (ev.statistic > 0.0).all() and solves["solves"] == 0
        monkeypatch.setattr(cli, "STACK_ENTRIES", 8 * 8 * 8)  # 8 samples of dimension 8
        cfg = AuditConfig(dims=(2, 2, 2), num_states=20, num_terms=1, criteria=("t1", "v3"))
        assert all(e.evaluated == 20 for e in run_audit(cfg)) and solves["solves"] == 0
        run_audit(AuditConfig(dims=(2, 2, 2), num_states=20, num_terms=1, criteria=("t1", "realign")))
        assert solves["solves"] == 6 * 3  # 6 splits, chunks of 8, 8 and 4 states
