"""Closed forms for whole evaluations: state, realignment, spectrum, statistic, bisection.

The other equality tests compare the code with earlier versions of
itself; these compare it with formulas derived by hand.

- Isotropic states p |Phi+><Phi+| + (1 - p) I/d^2: the realigned trace
  norm is p (d - 1/d) + 1/d and the minimum partial-transpose eigenvalue
  (1 - p)/d^2 - p/d.  Both cross their threshold at p = 1/(d + 1).
- Pure states with Schmidt coefficients mu: the realigned singular values
  are sqrt(mu_i mu_j) over all pairs, so T1 = 1, T2 = (sum mu^2)^2 and the
  trace norm is (sum sqrt(mu))^2, whatever the local unitaries.
- Two-term product mixtures (1 - eps) |a1 b1><a1 b1| + eps |a2 b2><a2 b2|,
  with fA = |<a1|a2>|^2 and fB = |<b1|b2>|^2: T1 = (1 - eps)^2 + eps^2 +
  2 eps (1 - eps) fA fB and T1^2 - T2 = 2 (1 - eps)^2 eps^2 (1 - fA^2)(1 - fB^2),
  so v3(0)^2 = (1 - eps)^2 + eps^2 + 2 eps (1 - eps) (fA fB + sqrt((1 - fA^2)(1 - fB^2))).
  That is at most 1, and exactly 1 where fA = fB: such states sit on the threshold.
- noisy_ghz4 crosses realign on 12|34 at x = 3/7 and ppt on party 1 at
  x = 1/9.
- v1 at weight a against c(a, T1) = sqrt(max(1, (2 + 4/a) T1 - 1)): v1(a) > c(a, T1)
  exactly when v3(0) > 1, and v1(a) <= c(a, T1) <= tau(a) = sqrt(1 + 4/a) on every
  state with a realigned trace norm of at most 1, separable ones included (README,
  "Which weight to use").
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from remoments.cli import BISECTION_TOL, AuditConfig, run_audit
from remoments.criteria import entangled, evaluate
from remoments.realign import RealignSpec
from remoments.states import validate_stack
from test_cli import run_cli

S12 = RealignSpec((1,), (2,))


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_isotropic_states(d):
    p = np.linspace(0.05, 1.0, 39)
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    stack = validate_stack(p[:, None, None] * np.outer(phi, phi)
                           + (1.0 - p)[:, None, None] * np.eye(d * d) / (d * d))
    norms = evaluate(stack, (d, d), "realign", spec=S12).statistic
    np.testing.assert_allclose(norms, p * (d - 1.0 / d) + 1.0 / d, rtol=0, atol=1e-12)
    min_eigs = evaluate(stack, (d, d), "ppt", party=1).statistic
    np.testing.assert_allclose(min_eigs, (1.0 - p) / d**2 - p / d, rtol=0, atol=1e-12)
    away = np.abs(p - 1.0 / (d + 1)) > 1e-6
    for name, stats in (("realign", norms), ("ppt", min_eigs)):
        assert (entangled(name, stats) == (p > 1.0 / (d + 1)))[away].all()


def haar_unitary(rng, d):
    """A Haar-random unitary: QR of a complex Ginibre matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 8)])
@pytest.mark.parametrize("seed", range(5))
def test_pure_states_by_schmidt_coefficients(dims, seed):
    rng = np.random.default_rng(seed)
    rank = min(dims)
    mu = 1e-3 + rng.dirichlet(np.ones(rank)) * (1.0 - 1e-3 * rank)  # every mu >= 1e-3
    u, w = haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1])
    ket = sum(np.sqrt(m) * np.kron(u[:, i], w[:, i]) for i, m in enumerate(mu))
    stack = validate_stack(np.outer(ket, ket.conj())[None])
    ev = evaluate(stack, dims, "v3", 0.0, S12)
    assert abs(ev.t1[0] - 1.0) <= 1e-12
    assert abs(ev.t2[0] - np.sum(mu**2) ** 2) <= 1e-12
    norm = evaluate(stack, dims, "realign", spec=S12).statistic[0]
    assert abs(norm - np.sum(np.sqrt(mu)) ** 2) <= 1e-12


def random_kets(rng, n, d):
    kets = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 4)])
@pytest.mark.parametrize("on_threshold", [False, True], ids=["random", "on_threshold"])
def test_two_term_product_mixtures(dims, on_threshold):
    n, (da, db) = 300, dims
    rng = np.random.default_rng(2024)
    eps = 10.0 ** rng.uniform(-4.0, np.log10(0.5), n)
    a1, a2 = random_kets(rng, n, da), random_kets(rng, n, da)
    if on_threshold:  # b_i = a_i, zero-padded to db: fA = fB
        b1, b2 = (np.pad(a, ((0, 0), (0, db - da))) for a in (a1, a2))
    else:
        b1, b2 = random_kets(rng, n, db), random_kets(rng, n, db)
    p1 = np.einsum("ni,nj->nij", a1, b1).reshape(n, -1)
    p2 = np.einsum("ni,nj->nij", a2, b2).reshape(n, -1)
    stack = validate_stack((1.0 - eps)[:, None, None] * np.einsum("ni,nj->nij", p1, p1.conj())
                           + eps[:, None, None] * np.einsum("ni,nj->nij", p2, p2.conj()))
    fa = np.abs(np.einsum("ni,ni->n", a1.conj(), a2)) ** 2
    fb = np.abs(np.einsum("ni,ni->n", b1.conj(), b2)) ** 2
    mix = 2.0 * eps * (1.0 - eps)
    ev = evaluate(stack, dims, "v3", 0.0, S12)
    np.testing.assert_allclose(ev.t1, (1.0 - eps) ** 2 + eps**2 + mix * fa * fb, rtol=0, atol=1e-14)
    exact = np.sqrt((1.0 - eps) ** 2 + eps**2 + mix * (fa * fb + np.sqrt((1.0 - fa**2) * (1.0 - fb**2))))
    np.testing.assert_allclose(ev.statistic, exact, rtol=0, atol=1e-10)
    assert not entangled("v3", ev.statistic).any()
    # realign is left out until ROADMAP item 1 (exact singular values): its Gram-route
    # trace norm flags most on-threshold states here.


@pytest.mark.parametrize(
    "flags, root",
    [(("--criterion", "realign", "--split", "12|34"), 3 / 7), (("--criterion", "ppt", "--party", "1"), 1 / 9)],
)
def test_noisy_ghz4_threshold(flags, root):
    code, out, err = run_cli("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", *flags)
    assert (code, err) == (0, "")
    assert abs(float(out) - root) <= BISECTION_TOL


def random_states(dims, rank, seed, n=8):
    """n random states of `rank` on `dims`: G G^dag over its trace, G a complex Ginibre D x rank matrix."""
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    g = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal((n, d, rank))
    m = g @ g.conj().swapaxes(-1, -2)
    return validate_stack(m / np.trace(m, axis1=1, axis2=2).real[:, None, None])


@st.composite
def weighted_states(draw):
    dims = draw(st.sampled_from([(2, 2), (3, 3), (2, 4)]))
    rank = draw(st.integers(1, math.prod(dims)))
    return dims, rank, draw(st.integers(0, 2**32)), 10.0 ** draw(st.floats(-1.3, 3.0))


@settings(max_examples=100, deadline=None)
@given(weighted_states())
@example(((2, 2), 1, 0, 2.0))  # rank 1: mostly entangled, v1 above its sound bound
@example(((3, 3), 9, 0, 0.05))  # full rank: mostly separable
def test_v1_above_its_sound_bound_exactly_when_v3_at_zero_is_above_one(case):
    """v1(a) > c(a, T1) and v3(0) > 1 both have the sign of e2 - (1 - T1)^2/4, e2 = (T1^2 - T2)/2;
    an inadmissible weight (NaN v1) has v3(0) < 1.  States within 1e-9 of either threshold are left out."""
    dims, rank, seed, a = case
    stack = random_states(dims, rank, seed)
    ev = evaluate(stack, dims, "v1", a)
    v30 = evaluate(stack, dims, "v3", 0.0, S12).statistic
    bound = np.sqrt(np.maximum(1.0, (2.0 + 4.0 / a) * ev.t1 - 1.0))
    clear = (np.abs(v30 - 1.0) > 1e-9) & ~(np.abs(ev.statistic - bound) <= 1e-9)
    admitted = ~np.isnan(ev.statistic)
    assert ((ev.statistic > bound) == (v30 > 1.0))[clear & admitted].all()
    assert (v30 < 1.0)[clear & ~admitted].all()


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
def test_separable_v1_v2_stay_below_tau(dims, num_terms):
    """On separable samples v1 and v2 reach at most tau(a) = sqrt(1 + 4/a), to 1e-12 relative for a <= 100.

    Pure products (num_terms 1) reach it, up to float noise in T1^2 - T2 that grows as a does:
    the worst v1/tau(a) - 1 was 1-3e-14 at a = 100, 1-3e-12 at a = 1e4."""
    weights = (0.01, 0.5, 1.0, 5.0, 100.0)
    report = run_audit(AuditConfig(dims=dims, num_states=200, num_terms=num_terms,
                                   criteria=("v1", "v2"), params=weights))
    assert len(report) == 2 * len(weights) and all(e.evaluated for e in report)
    for entry in report:
        tau = math.sqrt(1.0 + 4.0 / entry.parameter)
        assert entry.worst_statistic <= tau * (1.0 + 1e-12), entry
        if num_terms == 1:  # the bound is reached, and flagged: the documented gap
            assert entry.worst_statistic >= tau * (1.0 - 1e-12) and entry.violations == entry.evaluated
