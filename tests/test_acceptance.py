"""Acceptance gate: ten pinned behaviors, one test per line item.

Each test prints a one-line PASS summary after its assertions; pytest -v
shows one PASSED/FAILED line per criterion.
"""
import contextlib
import io
import math

import numpy as np
import pytest

from conftest import random_density
from remoments import (
    ENTANGLED,
    INCONCLUSIVE,
    RealignSpec,
    admissible_range,
    discriminant,
    enumerate_splits,
    ghz_w,
    moments,
    noisy_ghz4,
    ppt_verdict,
    pure_state,
    realign_bipartite,
    realign_partial,
    realignment_norm_verdict,
    rho_d,
    rho_eps,
    rho_pq,
    sample_separable,
    singular_values,
    trace_norm,
    v3,
    verdict_v1,
    verdict_v2,
    verdict_v3,
)
from remoments.cli import AuditConfig, main, run_audit
from remoments.criteria import evaluate
from remoments.states import RHO_D_MAX, RHO_D_MIN, DensityMatrix
from test_realign import gram_power_traces

Q0 = (math.sqrt(2) - 1) / 2


def test_criterion_01_golden_values_and_watch_range():
    dm = rho_pq(Q0)
    delta = discriminant(*moments(realign_bipartite(dm)))
    assert delta == pytest.approx(0.0188, abs=5e-4)

    v = verdict_v1(dm, 0.2)
    assert v.statistic == pytest.approx(1.5073, abs=5e-4)
    assert v.outcome == ENTANGLED

    p = ppt_verdict(dm, 2)
    assert p.outcome == INCONCLUSIVE
    assert p.statistic >= -1e-10

    # watch range: extreme admissible endpoints over the whole q family
    lows, highs = [], []
    for q in np.arange(0.0, 0.5 + 2.5e-4, 5e-4):
        ar = admissible_range(*moments(realign_bipartite(rho_pq(float(q)))))
        if ar.discriminant > 0 and len(ar.intervals) == 2:
            lows.append(ar.intervals[0].hi)
            highs.append(ar.intervals[1].lo)
    assert min(lows) == pytest.approx(0.203, abs=2e-3)
    assert max(highs) == pytest.approx(12.378, abs=5e-2)
    print(
        f"criterion 1: PASS  delta={delta:.6f} V1(0.2)={v.statistic:.6f} "
        f"endpoints=({min(lows):.6f}, {max(highs):.6f}) ppt_mineig={p.statistic:.2e}"
    )


def test_criterion_02_npt_branch_detection():
    for q in (0.05, 0.15, 0.3, 0.45, 0.5):
        v = verdict_v1(rho_pq(q), 0.2)
        assert v.outcome == ENTANGLED, f"q={q}"
        assert v.statistic > 1
        assert ppt_verdict(rho_pq(q), 2).outcome == ENTANGLED, f"q={q}"
    print("criterion 2: PASS  V1(0.2)>1 and PPT flags all five q values")


def test_criterion_03_rho_d_grid_detected():
    worst_stat, worst_delta = math.inf, -math.inf
    for d in np.linspace(RHO_D_MIN, RHO_D_MAX, 50):
        v = verdict_v1(rho_d(float(d)), 2.0)
        assert v.admissible.discriminant < 0, f"d={d}"
        assert v.outcome == ENTANGLED and v.statistic > 1, f"d={d}"
        worst_stat = min(worst_stat, v.statistic)
        worst_delta = max(worst_delta, v.admissible.discriminant)
    print(
        f"criterion 3: PASS  50-point grid, min V1(2)={worst_stat:.6f}, "
        f"max delta={worst_delta:.3e}"
    )


def test_criterion_04_rho_eps_ppt_detected():
    for eps in (0.5, 0.9, 1.5, 3.0):
        dm = rho_eps(eps)
        for party in (1, 2):
            p = ppt_verdict(dm, party)
            assert p.statistic >= -1e-10 and p.outcome == INCONCLUSIVE, f"eps={eps}"
        v = verdict_v1(dm, 0.3)
        assert v.admissible.discriminant > 0, f"eps={eps}"
        assert evaluate(dm.matrix[None], dm.dims, "v1", 0.3).bounds.admits(0.3)[0], f"eps={eps}"
        assert v.outcome == ENTANGLED and v.statistic > 1, f"eps={eps}"
    print("criterion 4: PASS  all four eps values PPT yet V1(0.3)>1 with 0.3 admissible")


def test_criterion_05_ghz_w_grid_detected():
    spec = RealignSpec.parse("1|2")
    worst = math.inf
    for q in np.linspace(0.0, 1.0, 101):
        v = verdict_v2(ghz_w(float(q)), spec, 5.0)
        assert v.admissible.discriminant < 0, f"q={q}"
        assert v.outcome == ENTANGLED and v.statistic > 1, f"q={q}"
        worst = min(worst, v.statistic)
    print(f"criterion 5: PASS  101-point grid, min V2(5)={worst:.6f}")


def test_criterion_06_noise_threshold():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            [
                "threshold", "--family", "noisy_ghz4", "--bracket", "0:1",
                "--criterion", "v3", "--v", "0.01", "--split", "1|2",
            ]
        )
    assert code == 0
    x_star = float(out.getvalue().strip())
    assert x_star == pytest.approx(0.6427, abs=1e-3)

    spec = RealignSpec.parse("1|2")
    below = verdict_v3(noisy_ghz4(x_star - 0.05), spec, 0.01)
    assert below.statistic <= 1 + 1e-9
    above = verdict_v3(noisy_ghz4(x_star + 0.05), spec, 0.01)
    assert above.statistic > 1
    print(
        f"criterion 6: PASS  x*={x_star:.6f}, V3 below={below.statistic:.6f}, "
        f"above={above.statistic:.6f}"
    )


def test_criterion_07_moment_identities():
    checked = 0
    for dims in ((2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)):
        splits = enumerate_splits(len(dims))
        for i in range(100):
            dm = random_density(dims, 20_000 + i)
            purity = dm.purity()
            for spec in splits:
                rm_ = realign_partial(dm, spec)
                t1, t2 = moments(rm_)
                _, gram_t2 = gram_power_traces(rm_)
                assert t1 == pytest.approx(purity, rel=1e-10)
                assert t2 <= t1**2 + 1e-12
                assert t2 == pytest.approx(gram_t2, rel=1e-9)
                checked += 1
    print(f"criterion 7: PASS  {checked} (state, split) moment identity checks")


def test_criterion_08_soundness_on_separable_samples():
    weights = (0.01, 0.5, 1.0, 5.0)
    worst_norm, worst_v3 = -math.inf, -math.inf
    for dims in ((2, 2), (3, 3), (2, 2, 2)):
        splits = enumerate_splits(len(dims))
        for i in range(200):
            dm = sample_separable(dims, 3, 30_000 + i)
            for spec in splits:
                nv = realignment_norm_verdict(dm, spec)
                assert nv.statistic <= 1 + 1e-9
                worst_norm = max(worst_norm, nv.statistic)
                m = moments(realign_partial(dm, spec))
                for w in weights:
                    stat = v3(*m, w)
                    assert stat <= 1 + 1e-9
                    worst_v3 = max(worst_v3, stat)
            for party in range(1, len(dims) + 1):
                assert ppt_verdict(dm, party).outcome == INCONCLUSIVE
    print(
        f"criterion 8: PASS  600 separable samples, worst norm={worst_norm:.9f}, "
        f"worst V3={worst_v3:.9f}"
    )


def test_criterion_09_structural_checks():
    # exact involution on square-by-square systems
    for m_dim, seed in ((2, 1), (2, 2), (3, 3), (3, 4)):
        dm = random_density((m_dim, m_dim), seed)
        once = realign_bipartite(dm)
        twice = realign_bipartite(DensityMatrix(dims=dm.dims, matrix=once))
        assert np.max(np.abs(twice - dm.matrix)) <= 1e-14

    # pure products: rank-1 realignment, unit moments T1 and T2
    for dims, seed in (((2, 2), 5), ((3, 3), 6), ((2, 2, 2), 7)):
        dm = sample_separable(dims, 1, seed)
        spec = enumerate_splits(len(dims))[0]
        rm_ = realign_partial(dm, spec)
        sv = singular_values(rm_)
        assert sv[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(sv[1:] <= 1e-7)
        for k, t in zip((1, 2), moments(rm_)):
            assert t == pytest.approx(1.0, abs=1e-10)
            assert np.sum(sv ** (2 * k), axis=-1) == pytest.approx(1.0, abs=1e-10)

    bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
    r = realign_bipartite(bell)
    assert np.max(np.abs(singular_values(r) - 0.5)) <= 1e-10
    assert trace_norm(r) == pytest.approx(2.0, abs=1e-9)
    print("criterion 9: PASS  involution exact, product moments unit, Bell spectrum (1/2)^4")


def test_criterion_10_audit_reports_formula_on_products():
    cfg = AuditConfig(
        dims=(2, 2), num_states=40, num_terms=1, seed=0,
        criteria=("v1",), params=(0.5, 2.0, 10.0),
    )
    report = run_audit(cfg)
    assert len(report) == 3
    for entry, a in zip(report, cfg.params):
        assert entry.parameter == a
        assert entry.evaluated == cfg.num_states
        assert entry.violations == entry.evaluated
        assert entry.worst_statistic == pytest.approx(math.sqrt(1 + 4 / a), abs=1e-9)
    print(
        "criterion 10: PASS  v1 audit on pure products reports sqrt(1+4/a) "
        "at a=0.5, 2, 10 with 100% violations"
    )
