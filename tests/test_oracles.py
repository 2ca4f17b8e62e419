"""Closed forms for whole evaluations: state, realignment, spectrum, statistic, bisection.

The other equality tests compare the code with earlier versions of
itself; these compare it with formulas derived by hand.

- Isotropic states p |Phi+><Phi+| + (1 - p) I/d^2: the realigned trace
  norm is p (d - 1/d) + 1/d and the minimum partial-transpose eigenvalue
  (1 - p)/d^2 - p/d.  Both cross their threshold at p = 1/(d + 1).
- Pure states with Schmidt coefficients mu: the realigned singular values
  are sqrt(mu_i mu_j) over all pairs, so T1 = 1, T2 = (sum mu^2)^2 and the
  trace norm is (sum sqrt(mu))^2, whatever the local unitaries.
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


@pytest.mark.parametrize(
    "flags, root",
    [(("--criterion", "realign", "--split", "12|34"), 3 / 7), (("--criterion", "ppt", "--party", "1"), 1 / 9)],
)
def test_noisy_ghz4_threshold(flags, root):
    code, out, err = run_cli("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", *flags)
    assert (code, err) == (0, "")
    assert abs(float(out) - root) <= BISECTION_TOL
