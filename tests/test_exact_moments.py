"""An exact oracle for the moment sums T1 and T2, and the bounds the Gram route keeps to.

Every stored float64 entry is an exact rational, so the moments of the
matrix the code actually holds have exact values: `exact_moments` computes
them with `fractions.Fraction`, through the smaller-side Gram product, as
the code's `linalg.gram` does.  It uses no package beyond the standard
library and numpy.

Bounds, with m the longer and n the shorter side of the realigned matrix
and eps = 2^-52 (the computed values are `criteria.spectrum`'s T1 and T2):

- |T1_computed - T1| <= m eps T1.  Measured at most 0.19 m eps T1 over the
  cases below; first-order rounding analysis gives (2m + n) eps T1.
- |T2_computed - T2| <= 2 m eps T1 sqrt(T2).  Measured at most 0.29 of it.
  A Gram entry is off by at most about 2m eps ||a_i|| ||a_j|| (rows a_i),
  so by Cauchy-Schwarz T2 = ||G||_F^2 is off by about 4m eps T1 sqrt(T2),
  plus n^2 eps T2 from its sum.

e2 = (T1^2 - T2)/2 is returned exact too; its computed value cancels near
e2 = 0, and that bound belongs with the refined e2 of ROADMAP item 1.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from remoments.criteria import spectrum
from remoments.realign import enumerate_splits, realign_array
from remoments.states import family_stack, separable_stack

EPS = np.finfo(float).eps


def exact_moments(r: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """Exact T1 = tr G, T2 = ||G||_F^2 and e2 = (T1^2 - T2)/2 of the complex matrix `r`, G its smaller-side Gram.

    Each float is an integer over a power of two, so the entries scaled by the largest denominator
    are integers, and the Gram products and sums are exact integer arithmetic.
    """
    if r.shape[0] > r.shape[1]:
        r = r.T  # the same singular values; G = r r^dagger is then the smaller side
    parts = (r.real.tolist(), r.imag.tolist())
    scale = max(Fraction(x).denominator for part in parts for row in part for x in row)
    re, im = ([[int(Fraction(x) * scale) for x in row] for row in part] for part in parts)
    t1 = t2 = 0
    for i in range(len(re)):
        for j in range(len(re)):
            # G_ij = sum_k r_ik conj(r_jk)
            g_re = sum(map(int.__mul__, re[i], re[j])) + sum(map(int.__mul__, im[i], im[j]))
            g_im = sum(map(int.__mul__, im[i], re[j])) - sum(map(int.__mul__, re[i], im[j]))
            t1 += g_re if i == j else 0
            t2 += g_re * g_re + g_im * g_im
    t1, t2 = Fraction(t1, scale**2), Fraction(t2, scale**4)
    return t1, t2, (t1 * t1 - t2) / 2


def test_oracle_on_the_maximally_mixed_state():
    """noisy_ghz4 at x = 0 stores I/16 exactly; every bipartition realigns it to rank 1 with sigma = 1/4."""
    dims, stack = family_stack("noisy_ghz4", [0.0])
    for spec in [s for s in enumerate_splits(len(dims)) if not s.untouched(len(dims))]:
        r = realign_array(stack.astype(complex), dims, spec)[0]
        assert exact_moments(r) == (Fraction(1, 16), Fraction(1, 256), 0)


def test_oracle_on_a_known_spectrum():
    """diag(3, 1) / 4 + i (1/8) offdiag, as one matrix: T1 and T2 from its eigenvalues."""
    r = np.array([[0.75, 0.125j], [-0.125j, 0.25]])  # Hermitian: singular values are |eigenvalues|
    lam = np.linalg.eigvalsh(r)
    t1, t2, e2 = exact_moments(r)
    assert t1 == Fraction(5, 8) + 2 * Fraction(1, 64)
    assert float(t1) == pytest.approx(np.sum(lam**2), rel=1e-15)
    assert float(t2) == pytest.approx(np.sum(lam**4), rel=1e-15)
    assert e2 == (t1 * t1 - t2) / 2 and e2 > 0


F = Fraction
FAMILY_PARAMS = {
    "rho_d": [F(27, 100), F(3, 10), F(1, 3), F(9, 25)],
    "rho_eps": [F(1, 1000), F(1, 3), F(1), F(5, 2), F(1000)],
    "rho_pq": [F(0), F(1, 8), F(1, 5), F(1, 3), F(1, 2)],
    "ghz_w": [F(0), F(1, 3), F(1, 2), F(1)],
    "noisy_ghz4": [F(0), F(1, 9), F(3, 7), F(1, 2), F(1)],
}


def assert_moment_bounds(stack, dims):
    """The computed T1 and T2 of every split of every state of `stack` keep to the module's bounds."""
    for spec in enumerate_splits(len(dims)):
        sp = spectrum(stack, dims, spec, ("v3",))
        realigned = realign_array(stack.astype(complex), dims, spec)  # a permutation: exact
        m = max(realigned.shape[1:])
        for r, t1, t2 in zip(realigned, sp.t1.tolist(), sp.t2.tolist()):
            exact_t1, exact_t2, e2 = exact_moments(r)
            assert e2 >= 0
            assert abs(Fraction(t1) - exact_t1) <= m * EPS * exact_t1, (spec, t1, float(exact_t1))
            bound = 2 * m * EPS * float(exact_t1) * math.sqrt(exact_t2)
            assert float(abs(Fraction(t2) - exact_t2)) <= bound, (spec, t2, float(exact_t2))


@pytest.mark.parametrize("name", sorted(FAMILY_PARAMS))
def test_family_moments_at_rational_parameters(name):
    dims, stack = family_stack(name, [float(p) for p in FAMILY_PARAMS[name]])
    assert_moment_bounds(stack, dims)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 2, 2, 2)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
def test_audit_sample_moments(dims, num_terms):
    assert_moment_bounds(separable_stack(dims, num_terms, range(4)), dims)
