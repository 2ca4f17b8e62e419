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
"""
import numpy as np
import pytest

from remoments.cli import BISECTION_TOL
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
