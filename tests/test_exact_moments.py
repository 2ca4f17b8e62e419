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

The statistics of the exact moments, `exact_v3` and `exact_v1`, are taken
in `decimal` at 50 digits.  Where the exact e2 >= 1e-6 (the band below it
stays with item 1), the computed values (`criteria.v3` and the v1/v2 row's
gated statistic) keep to:

- |v3_computed - v3| <= (1/2) m eps T1 / sqrt(e2), for v = 0 to 100.
  Measured at most 0.11 of it.  First order: sqrt(2 (T1^2 - T2)) is off
  by at most about 2 m eps T1^2 / sqrt(e2) by the T1 and T2 bounds, and
  v3 >= T1, so v3 is off by about m eps T1 / sqrt(e2).
- |v1_computed - v1| <= m eps sqrt(T1) (1 + a)^2 / sqrt(F(a) a (a + 2)),
  with F(a) = e2 a^2 + (T1^2 - T1) a + T1^2 the radicand, for a = 0.01 to
  1e4 admitted with F(a) >= 1e-6, away from the ends of the range (F = 0).
  Measured at most 0.25 of it.  First order: F is off by at most about
  2 m eps T1 (1 + a)^2, and v1 >= sqrt(T1 (1 + 2/a)), which gives twice
  this bound.

The ends of v1/v2's admissible range are checked against the radicand's
roots r- <= r+ for the stored T1 and T2 taken as exact (`exact_roots`, in
`decimal` at 60 digits), with m = T1 - T1^2 and s = sqrt(delta).  Rounding
T1^2 moves m, delta and T1^2 - T2, so to first order the ends carry the
bounds below, measured over 2,285 two-sided states (the diagonal scan,
and 300 seeds of 2- and 3-term audit samples on (2,2), (3,3) and (2,4)):

- |low_end - r-| <= 4 ulp(r-) + eps K r-, K = T1^2 (s + m + T1^2) / (s (s + m)).
  Measured at most 0.48 of it.  On the diagonal scan (K <= 1.5) every low
  end is within 4 ulp of r-, at most 2.4 ulp; the difference form
  ((T1 - T1^2) - s) / (T1^2 - T2) was off there by up to 8.6e-6 relative.
  K grows as T1 nears 1, where T1 - T1^2 cancels: 2-term samples reach
  2.2e6 ulp.
- |high_start - r+| <= 4 ulp(r+) + eps (K + T1^2 / (T1^2 - T2)) r+.
  Measured at most 0.48 of it.  On the diagonal scan, where K is small beside
  T1^2 / (T1^2 - T2), at most 0.33 of eps T1^2 / (T1^2 - T2) r+ alone.
"""
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from remoments.criteria import CRITERIA, spectrum, v3
from remoments.realign import RealignSpec, enumerate_splits, realign_array
from remoments.states import family_stack, separable_stack

EPS = np.finfo(float).eps
V3_WEIGHTS = (0.0, 0.01, 0.5, 1.0, 5.0, 100.0)
V1_WEIGHTS = (0.01, 0.5, 1.0, 5.0, 100.0, 1e4)
E2_FLOOR = Fraction(1, 10**6)  # below it the computed e2 cancels
F_FLOOR = Fraction(1, 10**6)  # below it v1's weight lies near an end of its admissible range


def exact_moments(r: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """Exact T1 = tr G, T2 = ||G||_F^2 and e2 = (T1^2 - T2)/2 of the complex matrix `r`, G its smaller-side Gram.

    Each float is an integer over a power of two, so the entries scaled by the largest denominator
    are integers, and the Gram products and sums are exact integer arithmetic.
    """
    if r.shape[0] > r.shape[1]:
        r = r.T  # the same singular values; G = r r^dagger is then the smaller side
    parts = [[[x.as_integer_ratio() for x in row] for row in part] for part in (r.real.tolist(), r.imag.tolist())]
    scale = max(d for part in parts for row in part for _, d in row)
    re, im = ([[n * (scale // d) for n, d in row] for row in part] for part in parts)
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


def _decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def exact_v3(t1: Fraction, t2: Fraction, e2: Fraction, v: float) -> decimal.Decimal:
    """v3(v) of exact moments, sqrt(inner^2 + sqrt(4 e2)), with the inner difference as its quotient."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t1, t2, v = _decimal(t1), _decimal(t2), decimal.Decimal(v)
        inner = (t1 + 2 * v * t2) / ((t1 + (v * v + 2 * v) * t2).sqrt() + v * t2.sqrt())
        return (inner * inner + (4 * _decimal(e2)).sqrt()).sqrt()


def radicand(t1: Fraction, e2: Fraction, a: float) -> Fraction:
    """v1's F(a) = e2 a^2 + (T1^2 - T1) a + T1^2, exact."""
    a = Fraction(a)
    return e2 * a * a + (t1 * t1 - t1) * a + t1 * t1


def exact_v1(t1: Fraction, e2: Fraction, a: float) -> decimal.Decimal:
    """v1(a) of exact moments, sqrt((2/a) ((1 + a/2) T1 + sqrt(F(a))))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        f, t1, a = _decimal(radicand(t1, e2, a)), _decimal(t1), decimal.Decimal(a)
        return ((2 / a) * ((1 + a / 2) * t1 + f.sqrt())).sqrt()


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


def assert_moment_bounds(stack, dims) -> int:
    """The computed T1, T2, v3 and v1 of every split of every state of `stack` keep to the module's
    bounds; returns how many v3 and v1 values were held to theirs."""
    checked = 0
    for spec in enumerate_splits(len(dims)):
        sp = spectrum(stack, dims, spec, ("v2", "v3"))()
        realigned = realign_array(stack.astype(complex), dims, spec)  # a permutation: exact
        m = max(realigned.shape[1:])
        v3s = {v: v3(sp.t1, sp.t2, v).tolist() for v in V3_WEIGHTS}
        v1s = {a: CRITERIA["v2"].statistic(sp, a).tolist() for a in V1_WEIGHTS}  # NaN where not admitted
        for i, (r, t1, t2) in enumerate(zip(realigned, sp.t1.tolist(), sp.t2.tolist())):
            exact_t1, exact_t2, e2 = exact_moments(r)
            assert e2 >= 0
            assert abs(Fraction(t1) - exact_t1) <= m * EPS * exact_t1, (spec, t1, float(exact_t1))
            bound = 2 * m * EPS * float(exact_t1) * math.sqrt(exact_t2)
            assert float(abs(Fraction(t2) - exact_t2)) <= bound, (spec, t2, float(exact_t2))
            if e2 < E2_FLOOR:
                continue
            for v, got in v3s.items():
                err = float(abs(decimal.Decimal(got[i]) - exact_v3(exact_t1, exact_t2, e2, v)))
                assert err <= 0.5 * m * EPS * float(exact_t1) / math.sqrt(e2), (spec, i, v, err)
                checked += 1
            for a, got in v1s.items():
                f = radicand(exact_t1, e2, a)
                if math.isnan(got[i]) or f < F_FLOOR:
                    continue
                err = float(abs(decimal.Decimal(got[i]) - exact_v1(exact_t1, e2, a)))
                bound = m * EPS * math.sqrt(exact_t1) * (1 + a) ** 2 / math.sqrt(f * a * (a + 2))
                assert err <= bound, (spec, i, a, err)
                checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(FAMILY_PARAMS))
def test_family_moments_at_rational_parameters(name):
    dims, stack = family_stack(name, [float(p) for p in FAMILY_PARAMS[name]])
    assert assert_moment_bounds(stack, dims) > 0


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 2, 2, 2)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
def test_audit_sample_moments(dims, num_terms):
    checked = assert_moment_bounds(separable_stack(dims, num_terms, range(4)), dims)
    assert (checked > 0) == (num_terms > 1)  # a pure product realigns to rank 1: e2 = 0


def exact_roots(t1: float, t2: float) -> tuple[decimal.Decimal, decimal.Decimal, float, float]:
    """The radicand's roots r- and r+ for the stored `t1` and `t2` taken as exact, then the factors
    K = T1^2 (s + m + T1^2) / (s (s + m)) and T1^2 / (T1^2 - T2) of the module's range-end bounds."""
    sq = Fraction(t1) ** 2
    m, quad = Fraction(t1) - sq, sq - Fraction(t2)
    delta = m * m - 2 * quad * sq
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        sq, m, quad, s = _decimal(sq), _decimal(m), _decimal(quad), _decimal(delta).sqrt()
        return (m - s) / quad, (m + s) / quad, float(sq * (s + m + sq) / (s * (s + m))), float(sq / quad)


def range_end_errors(sp) -> list[tuple[float, float, float, float]]:
    """Per state of `sp` with two finite ends: the low end's error in ulp of r-, its share of the low
    end's bound, the high end's share of its bound and its share of eps T1^2 / (T1^2 - T2) r+."""
    out = []
    bounds = sp.bounds
    for t1, t2, low, high in zip(sp.t1.tolist(), sp.t2.tolist(), bounds.low_end.tolist(), bounds.high_start.tolist()):
        if high == math.inf:
            continue
        r_low, r_high, k, q = exact_roots(t1, t2)
        err_low = float(abs(decimal.Decimal(low) - r_low))
        err_high = float(abs(decimal.Decimal(high) - r_high))
        r_low, r_high = float(r_low), float(r_high)
        out.append((
            err_low / math.ulp(r_low),
            err_low / (4 * math.ulp(r_low) + EPS * k * r_low),
            err_high / (4 * math.ulp(r_high) + EPS * (k + q) * r_high),
            err_high / (EPS * q * r_high),
        ))
    return out


def test_range_ends_on_the_diagonal_scan():
    """diag((1 - x)/2, (1 - x)/2, x, 0), separable, for 800 x log-spaced in [1e-9, 1e-1]."""
    x = np.geomspace(1e-9, 1e-1, 800)
    stack = np.zeros((len(x), 4, 4), dtype=complex)
    stack[:, 0, 0] = stack[:, 1, 1] = (1 - x) / 2
    stack[:, 2, 2] = x
    errors = range_end_errors(spectrum(stack, (2, 2), RealignSpec((1,), (2,)), ("v1",))())
    assert len(errors) > 400  # the rest have T1^2 - T2 <= DEGENERATE_TOL: one interval
    assert max(e[0] for e in errors) <= 4
    assert max(e[2] for e in errors) <= 1
    assert max(e[3] for e in errors) <= 1


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("num_terms", [2, 3])
def test_range_ends_on_audit_samples(dims, num_terms):
    sp = spectrum(separable_stack(dims, num_terms, range(300)), dims, RealignSpec((1,), (2,)), ("v1",))()
    errors = range_end_errors(sp)
    assert len(errors) > 10
    assert max(e[1] for e in errors) <= 1
    assert max(e[2] for e in errors) <= 1


def mixed_products(dims, seeds):
    """rho_A (x) rho_B per seed s: default_rng(s) draws the full-rank Wishart factors G G^dag / tr G G^dag, A then B."""
    def factor(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    return np.stack([np.kron(factor(rng, dims[0]), factor(rng, dims[1]))
                     for rng in map(np.random.default_rng, seeds)])


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4)])
def test_mixed_products_keep_the_linear_tail(dims):
    """rho_A (x) rho_B realigns to rank 1 (T2 = T1^2), so its range is the linear tail (0, T1^2 / (T1 - T1^2)].

    Over a third of these states compute 0 < fl(T1^2) - T2 <= 5.6e-16 from the rounding of the
    Gram sum.  A rule calling a state degenerate only where T2 >= fl(T1^2) would give each of them
    a spurious upper interval from about 3e14 on; this pins the one interval they have.
    """
    sp = spectrum(mixed_products(dims, range(1000)), dims, RealignSpec((1,), (2,)), ("v1",))()
    t1, quad = sp.t1, sp.t1 * sp.t1 - sp.t2
    assert 100 <= np.count_nonzero((quad > 0) & (quad <= 5.6e-16))
    assert (sp.bounds.high_start == np.inf).all()
    assert (sp.bounds.low_end == t1 * t1 / (t1 - t1 * t1)).all()
