"""Density matrices: validation, benchmark families, sampling, JSON I/O.

A state is a :class:`DensityMatrix`: a D x D complex matrix (float64 for
the real families) plus the tuple of tensor-factor dimensions whose product
is D.  The benchmark families here cover the standard detection regimes:
NPT entanglement (`rho_d`, `rho_pq` away from its symmetric point), bound
entanglement that partial transposition cannot see (`rho_eps`, `rho_pq` at
the symmetric point), mixtures of inequivalent three-qubit classes
(`ghz_w`), and a noisy four-qubit benchmark with a known detection
threshold (`noisy_ghz4`).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import MAX_KRON_DIM, hermitian_eigenvalues, hermitian_part, kron_shape

VALIDATION_TOL = 1e-10

# PSD window of the rho_d family: both of its 2x2 coupling blocks have a
# nonnegative determinant exactly for d in [RHO_D_MIN, RHO_D_MAX].
RHO_D_MIN = (25.0 - math.sqrt(141.0)) / 50.0
RHO_D_MAX = (25.0 + math.sqrt(141.0)) / 100.0


class StateValidationError(ValueError):
    """A matrix failed a density-matrix invariant.

    `code` is one of NOT_HERMITIAN, TRACE_NOT_ONE, NOT_PSD,
    DIMENSION_MISMATCH, NON_FINITE; `deviation` is the measured violation
    (for NON_FINITE, the number of NaN or infinite entries).
    """

    def __init__(self, code: str, deviation: float, detail: str):
        self.code = code
        self.deviation = deviation
        super().__init__(f"{code}: {detail} (deviation {deviation:.3e})")


class DomainError(ValueError):
    """A family parameter outside the family's domain."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix together with its tensor-factor dimensions."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def purity(self) -> float:
        """trace(rho^2); equals 1 exactly for pure states."""
        return float(np.trace(self.matrix @ self.matrix).real)


def validate(dm: DensityMatrix) -> DensityMatrix:
    """Check finite entries, Hermiticity, unit trace, positivity and the dims product.

    Returns the input unchanged on success so constructors can end with
    ``return validate(...)``.  Tolerance is 1e-10 on every invariant.
    """
    dims = _factor_dims(dm.dims)
    d = int(np.prod(dims))
    m = np.asarray(dm.matrix)
    if m.ndim != 2 or m.shape != (d, d):
        raise StateValidationError(
            "DIMENSION_MISMATCH",
            float(abs((m.shape[0] if m.ndim else 0) - d)),
            f"matrix shape {m.shape} does not match dims {dims} (product {d})",
        )
    validate_stack(m[None])
    return dm


def _factor_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d <= 0 for d in out):
        raise StateValidationError(
            "DIMENSION_MISMATCH", float("nan"), f"invalid factor dimensions {dims}"
        )
    return out


def validate_stack(matrices: np.ndarray) -> np.ndarray:
    """Check every matrix of a (N, D, D) stack; returns the stack unchanged.

    Raises what a :func:`validate` loop over the stack would raise first:
    the first failed invariant (finite entries, Hermiticity, unit trace,
    positivity, each to 1e-10) of the first bad matrix, with the code and
    deviation :func:`validate` reports for that matrix on its own.

    Positivity is certified by a Cholesky factorization of H + (tol/2) I,
    with H = rho/2 + rho^dagger/2, over the matrices before the first one
    that fails another invariant.  It gives a finite factor only if every
    eigenvalue of H is above -tol/2 - delta, where the backward error delta
    is of order D eps ||H|| (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10), far below tol/2; so then no eigenvalue is below
    -tol.  Only if it fails or its factor is not finite are the minimum
    eigenvalues of H computed (:func:`hermitian_eigenvalues`), which decide
    the verdict and name the first NOT_PSD matrix and its deviation.  A
    float64 stack is checked in real arithmetic, any other as complex, with
    the same verdicts, codes, deviations and messages: the trace is summed
    as complex either way.
    """
    m = np.asarray(matrices)
    m = m if m.dtype == np.float64 else m.astype(complex, copy=False)
    h, herm_dev = hermitian_part(m)  # at most two stack-sized temporaries alive at once: `h` and the factor
    with np.errstate(over="ignore", invalid="ignore"):  # finite diagonals may sum to +-inf or NaN: TRACE_NOT_ONE
        trace_dev = np.abs(np.trace(m, axis1=-2, axis2=-1, dtype=complex) - 1.0)
    # A NaN or infinite entry makes herm_dev NaN or infinite, so `ok` is False.
    ok = np.maximum(herm_dev, trace_dev) <= VALIDATION_TOL
    n_ok = len(m) if ok.all() else int(ok.argmin())
    # Only the matrices before the first non-ok one can fail first as NOT_PSD.
    diag = np.arange(m.shape[-1])
    h[:n_ok, diag, diag] += VALIDATION_TOL / 2.0
    try:
        # LAPACK passes a NaN pivot, so only a finite factor certifies.
        certified = bool(np.isfinite(np.linalg.cholesky(h[:n_ok])).all())
    except np.linalg.LinAlgError:
        certified = False
    if not certified:  # solved as complex, real stacks too
        min_eig = hermitian_eigenvalues(m[:n_ok])[:, -1]
        negative = np.flatnonzero(min_eig < -VALIDATION_TOL)
        if negative.size:
            e = min_eig[negative[0]]
            raise StateValidationError("NOT_PSD", float(-e), f"minimum eigenvalue {e:.3e} is negative")
    if n_ok == len(m):
        return matrices
    bad = int(np.count_nonzero(~np.isfinite(m[n_ok])))
    if bad:
        raise StateValidationError(
            "NON_FINITE", float(bad), f"{bad} of {m[n_ok].size} entries are NaN or infinite"
        )
    if herm_dev[n_ok] > VALIDATION_TOL:
        raise StateValidationError("NOT_HERMITIAN", float(herm_dev[n_ok]), "matrix is not Hermitian")
    raise StateValidationError("TRACE_NOT_ONE", float(trace_dev[n_ok]), "trace differs from 1")


def pure_state(amplitudes: Sequence[complex], dims: Sequence[int]) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a ket; the ket is normalized first."""
    ket = np.asarray(amplitudes, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in dims)
    if ket.size != int(np.prod(dims)):
        raise ValueError(f"amplitude vector length {ket.size} does not match dims {dims}")
    norm = float(np.linalg.norm(ket))
    if norm <= 0.0:
        raise ValueError("amplitude vector has zero norm")
    ket = ket / norm
    return validate(DensityMatrix(dims=dims, matrix=np.outer(ket, ket.conj())))


def mixture(weights: Sequence[float], states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex mixture of states sharing the same dims."""
    if len(weights) != len(states) or not states:
        raise ValueError("need one weight per state and at least one state")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any():
        raise ValueError("mixture weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > VALIDATION_TOL:
        raise ValueError(f"mixture weights sum to {float(w.sum())!r}, expected 1")
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise ValueError("all mixture components must share the same dims")
    acc = np.zeros_like(states[0].matrix, dtype=complex)
    for wk, s in zip(w, states):
        acc += wk * s.matrix
    return validate(DensityMatrix(dims=dims, matrix=acc))


def rho_d(d: float) -> DensityMatrix:
    """One-parameter 3x3-by-3x3 NPT family.

    Diagonal ((1-d)/2, 0, 0, 0, 1/2-d, d, 0, 0, d/2) with two symmetric
    off-diagonal couplings of -11/50 at (0,8) and (4,5).  Positive
    semidefinite exactly for d in [RHO_D_MIN, RHO_D_MAX]; its partial
    transpose has a negative eigenvalue throughout that window.
    """
    return _family_member("rho_d", d)


def _rho_d_stack(d: np.ndarray) -> np.ndarray:
    m = np.zeros((d.size, 9, 9))
    m[:, 0, 0] = (1.0 - d) / 2.0
    m[:, 4, 4] = 0.5 - d
    m[:, 5, 5] = d
    m[:, 8, 8] = d / 2.0
    m[:, [0, 8, 4, 5], [8, 0, 5, 4]] = -11.0 / 50.0
    return m


def rho_eps(eps: float) -> DensityMatrix:
    """One-parameter 3x3-by-3x3 family that stays PPT for every eps > 0.

    Entangled for eps != 1 (bound entanglement: invisible to partial
    transposition but caught by realignment-based tests); eps = 1 gives
    the separable member.  The family is equivalent under relabeling to
    its eps -> 1/eps mirror.
    """
    return _family_member("rho_eps", eps)


def _rho_eps_stack(eps: np.ndarray) -> np.ndarray:
    # Entries 1, 1/eps^2 and eps^2 over 3 (1 + eps^2 + 1/eps^2), as t^2, 1 and t^4 over
    # 3 (1 + t^2 + t^4) with t = min(eps, 1/eps) (mirrored for eps > 1): nothing overflows, and
    # a power of t underflows only where its entry does.  eps = inf is no state: NaN entries.
    t = np.where(eps < math.inf, np.minimum(eps, 1.0 / eps), np.nan)
    t2 = t * t
    t4 = t2 * t2
    low = (eps <= 1.0)[:, None]
    m = np.zeros((eps.size, 9, 9))
    for r in (0, 4, 8):
        for c in (0, 4, 8):
            m[:, r, c] = t2
    m[:, [1, 6, 5], [1, 6, 5]] = np.where(low, 1.0, t4[:, None])
    m[:, [3, 2, 7], [3, 2, 7]] = np.where(low, t4[:, None], 1.0)
    m[:, [1, 3, 2, 6, 5, 7], [3, 1, 6, 2, 7, 5]] = t2[:, None]
    return m * (1.0 / (3.0 * (1.0 + t2 + t4)))[:, None, None]  # as numpy's complex division rounds


def _rho_pq_projectors() -> tuple[np.ndarray, np.ndarray]:
    # Projector sums of six orthonormal kets on 4 x 4, the first four and the last two (disjoint
    # supports); indices are 4*i + j for |ij>.
    s2 = 1.0 / math.sqrt(2.0)
    specs = [
        {1: s2, 11: s2},            # (|01> + |23>)/sqrt2
        {4: s2, 14: s2},            # (|10> + |32>)/sqrt2
        {5: s2, 10: s2},            # (|11> + |22>)/sqrt2
        {0: s2, 15: -s2},           # (|00> - |33>)/sqrt2
        {3: 0.5, 6: 0.5, 9: s2},    # (|03> + |12>)/2 + |21>/sqrt2
        {3: -0.5, 6: 0.5, 12: s2},  # (-|03> + |12>)/2 + |30>/sqrt2
    ]
    kets = [np.zeros(16) for _ in specs]
    for v, spec in zip(kets, specs):
        v[list(spec)] = list(spec.values())
    return sum(np.outer(k, k) for k in kets[:4]), sum(np.outer(k, k) for k in kets[4:])


_RHO_PQ_P, _RHO_PQ_Q = _rho_pq_projectors()


def rho_pq(q: float) -> DensityMatrix:
    """4x4-by-4x4 mixture of six orthonormal kets, weighted (p,p,p,p,q,q).

    p = (1 - 2q)/4 keeps the trace at 1 for q in [0, 1/2].  At
    q = (sqrt(2)-1)/2 the state equals its own partial transpose, so the
    PPT test is blind there even though the state stays entangled; at
    every other q in the window it is NPT.
    """
    return _family_member("rho_pq", q)


def _rho_pq_stack(q: np.ndarray) -> np.ndarray:
    p = ((1.0 - 2.0 * q) / 4.0)[:, None, None]
    m = p * _RHO_PQ_P + q[:, None, None] * _RHO_PQ_Q
    m[:, [3, 6], [3, 6]] = (q * 0.25 + q * 0.25)[:, None]  # the last two kets overlap: not q/2 for subnormal q/4
    return m


def ghz_w(q: float) -> DensityMatrix:
    """Three-qubit mixture q|GHZ><GHZ| + (1-q)|W><W|."""
    return _family_member("ghz_w", q)


def _uniform_projector(d: int, support: list[int]) -> np.ndarray:
    """|psi><psi| of the equal-weight superposition of the basis kets `support` in dimension d."""
    psi = np.zeros(d)
    psi[support] = 1.0 / math.sqrt(len(support))
    return np.outer(psi, psi)


# The constant terms of ghz_w (GHZ and W projectors) and noisy_ghz4 (identity and GHZ projector).
_GHZ_W_GHZ, _GHZ_W_W = _uniform_projector(8, [0, 7]), _uniform_projector(8, [1, 2, 4])
_NOISY_GHZ4_EYE, _NOISY_GHZ4_GHZ = np.eye(16), _uniform_projector(16, [0, 15])


def _ghz_w_stack(q: np.ndarray) -> np.ndarray:
    q = q[:, None, None]
    return q * _GHZ_W_GHZ + (1.0 - q) * _GHZ_W_W


def noisy_ghz4(x: float) -> DensityMatrix:
    """Four-qubit GHZ state mixed with white noise: (1-x)/16 * I + x|GHZ4><GHZ4|."""
    return _family_member("noisy_ghz4", x)


def _noisy_ghz4_stack(x: np.ndarray) -> np.ndarray:
    x = x[:, None, None]
    return (1.0 - x) / 16.0 * _NOISY_GHZ4_EYE + x * _NOISY_GHZ4_GHZ


# name -> (dims, outside(x): parameter off the domain, its error message,
# matrix formula taking a 1-D parameter array to a float64 (N, D, D) stack).
_FAMILY_SPECS = {
    "rho_d": (
        (3, 3),
        lambda d: not (RHO_D_MIN <= d <= RHO_D_MAX),
        f"rho_d requires {RHO_D_MIN!r} <= d <= {RHO_D_MAX!r}, got {{!r}}",
        _rho_d_stack,
    ),
    "rho_eps": ((3, 3), lambda eps: eps <= 0.0, "rho_eps requires eps > 0, got {!r}", _rho_eps_stack),
    "rho_pq": (
        (4, 4), lambda q: not (0.0 <= q <= 0.5), "rho_pq requires 0 <= q <= 1/2, got {!r}",
        _rho_pq_stack,
    ),
    "ghz_w": (
        (2, 2, 2), lambda q: not (0.0 <= q <= 1.0), "ghz_w requires 0 <= q <= 1, got {!r}",
        _ghz_w_stack,
    ),
    "noisy_ghz4": (
        (2, 2, 2, 2), lambda x: not (0.0 <= x <= 1.0), "noisy_ghz4 requires 0 <= x <= 1, got {!r}",
        _noisy_ghz4_stack,
    ),
}

# Parameterized families the CLI can build directly: each name's one-state constructor.
FAMILIES = {name: globals()[name] for name in _FAMILY_SPECS}


def family_dims(name: str) -> tuple[int, ...]:
    """The factor dims of family `name`; ValueError for an unknown name."""
    if name not in _FAMILY_SPECS:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILY_SPECS)}")
    return _FAMILY_SPECS[name][0]


def family_stack(name: str, params: Sequence[float]) -> tuple[tuple[int, ...], np.ndarray]:
    """Build and validate family `name` at every parameter as one stack.

    Returns the factor dims and the float64 (N, D, D) stack.  All or nothing: raises
    what calling the scalar constructor at each parameter in turn raises
    first, a DomainError or a StateValidationError, and ValueError for an
    unknown family name.  The scalar constructors (`rho_d(x)` and
    the rest) are the one-parameter case of this, so a member of a stack
    equals the scalar constructor's matrix bit for bit.
    """
    dims = family_dims(name)
    _, outside, message, formula = _FAMILY_SPECS[name]
    xs = [float(x) for x in params]
    n = next((k for k, x in enumerate(xs) if outside(x)), len(xs))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Off-scale parameters give inf or NaN entries, which fail as NON_FINITE.
        matrices = formula(np.array(xs[:n], dtype=float))
    validate_stack(matrices)
    if n < len(xs):
        raise DomainError(message.format(xs[n]))
    return dims, matrices


def _family_member(name: str, x: float) -> DensityMatrix:
    dims, matrices = family_stack(name, [x])
    return DensityMatrix(dims=dims, matrix=matrices[0])


# numpy's SeedSequence hash (NEP 19): its pool of uint32 words and hash
# constants, then PCG64's 128-bit LCG multiplier, with which
# np.random.PCG64(seed) seeds itself.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """Each non-negative int seed's PCG64 ``(state, inc)``, as ``np.random.PCG64(seed)`` sets them.

    SeedSequence's hash constants do not depend on the seed, so one pass over
    uint32 arrays, word k of every seed in row k, hashes the whole stack.  A
    seed is split into little-endian words and zero-padded to the pool size,
    which hashes as SeedSequence's run-out of the pool; words past the pool
    mix in only for the seeds that have them.
    """
    lengths = [max(1, (s.bit_length() + 31) // 32) for s in seeds]
    width = max([_POOL_SIZE, *lengths])
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds), dtype="<u4")
    words = words.reshape(len(seeds), width).T

    def hasher(const: int, mult: int):
        """SeedSequence's hash step; its constant starts at `const`, times `mult` per call."""
        def step(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ (value >> np.uint32(16))
        return step

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ (value >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for k in range(_POOL_SIZE, width):
        longer = np.array(lengths) > k
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(longer, mix(pool[dst], hashmix(words[k])), pool[dst])
    # generate_state(4, np.uint64): 8 words from the cycled pool, paired little-endian.
    generate = hasher(_INIT_B, _MULT_B)
    out = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    halves = [(out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    # pcg64_set_seed: the first two uint64 are the initial state, high word
    # first, the last two the sequence; then PCG's srandom: state = 0,
    # inc = 2 seq + 1, one step, add the initial state, one step.
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def sample_separable(dims: Sequence[int], num_terms: int, seed: int) -> DensityMatrix:
    """Random separable state: a convex mixture of `num_terms` product kets.

    Weights are normalized exponentials; each factor ket is a normalized
    complex Gaussian vector.  Deterministic for a fixed seed; the one-seed
    case of :func:`separable_stack`.
    """
    dims = tuple(int(d) for d in dims)
    return DensityMatrix(dims=dims, matrix=separable_stack(dims, num_terms, [seed])[0])


def separable_stack(dims: Sequence[int], num_terms: int, seeds: Sequence[int]) -> np.ndarray:
    """The separable samples of `seeds` as one validated (N, D, D) stack.

    Seed s draws the stream ``default_rng(s)`` returns, from ``PCG64(s)``'s
    state; the PCG64 states of all seeds are hashed together in one array
    pass, and one reused generator is set to each in turn.  Per seed it
    draws `num_terms` standard exponential weights, then per term the real
    and imaginary Gaussian parts of each party's factor in party order, as
    one ``(num_terms, 2 * sum(dims))`` block.  Normalizing the weights,
    and normalizing, tensoring and mixing the kets, then run on the whole
    stack with the arithmetic of a one-seed loop: the weights divided by
    their sum, each factor divided by its ``np.linalg.norm``, the factors
    tensored in party order, and the weighted outer products added in term
    order.  So each matrix is the same bit for bit whatever the other seeds
    are.  Raises what sampling the seeds one at a time raises first: the
    num_terms ValueError, numpy's error for a negative or non-integer seed,
    or the kron "input too large" ValueError when the dims product exceeds
    MAX_KRON_DIM.  A seed numpy would take that is not an integer (None, a
    sequence) raises TypeError.
    """
    dims = tuple(int(d) for d in dims)
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms!r}")
    values: list[int] = []
    for seed in seeds:
        if not (isinstance(seed, (int, np.integer)) and seed >= 0):
            np.random.PCG64(seed)  # raises numpy's own error for a negative or non-integer seed
            raise TypeError(f"seed must be a non-negative integer, got {seed!r}")
        if not values:  # errors a one-seed sampler raises after its seed check
            functools.reduce(kron_shape, [(dk,) for dk in dims], (1,))
            _factor_dims(dims)
        values.append(int(seed))
    n, width = len(values), sum(dims)
    weights = np.empty((n, num_terms))
    normals = np.empty((n, num_terms, 2 * width))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for i, (state, inc) in enumerate(_pcg64_states(values)):
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        rng.standard_exponential(out=weights[i])
        rng.standard_normal(out=normals[i])
    # Each row's pairwise sum, as rng.exponential(size=num_terms).sum() gives it.
    weights /= weights.sum(axis=1, keepdims=True)
    # Party p's real parts start at 2 * (its offset in the ket widths); its
    # imaginary parts follow them.
    offsets = np.cumsum((0,) + dims[:-1])
    real_at = np.concatenate([2 * o + np.arange(dk) for o, dk in zip(offsets, dims)])
    factors = normals[..., real_at] + 1j * normals[..., real_at + np.repeat(dims, dims)]
    ket = None
    for o, dk in zip(offsets, dims):
        f = factors[..., o:o + dk]
        # np.linalg.norm's arithmetic: one BLAS dot each on the strided real and imaginary views.
        re, im = f.real, f.imag
        f /= np.sqrt(re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None])[..., 0]
        if ket is None:
            ket = f
        else:
            ket = (ket[..., :, None] * f[..., None, :]).reshape(n, num_terms, ket.shape[-1] * dk)
    d = ket.shape[-1]
    m = np.zeros((n, d, d), dtype=complex)
    for t in range(num_terms):
        kt = ket[:, t]
        outer = kt[:, :, None] * kt.conj()[:, None, :]
        np.multiply(weights[:, t, None, None], outer, out=outer)
        m += outer
    return validate_stack(m)


def to_json_dict(dm: DensityMatrix) -> dict:
    """JSON form: {"dims": [...], "matrix": [[[re, im], ...], ...]} row-major."""
    return {
        "dims": [int(d) for d in dm.dims],
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(dm.matrix)
        ],
    }


def from_json_dict(obj: object) -> DensityMatrix:
    """Parse the JSON form back into a DensityMatrix.

    Raises ValueError on any structural problem, empty or nonpositive dims included;
    the other invariants are the caller's job (run :func:`validate` afterwards).
    """
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object with 'dims' and 'matrix'")
    try:
        dims = tuple(obj["dims"])
        bad = [d for d in dims if not (type(d) is int or type(d) is float and d.is_integer())]
        if bad:  # int() would truncate 2.5 to 2 and read true, a bool, as 1
            raise ValueError(f"dims entry {json.dumps(bad[0])} is not an integer")
        dims = _factor_dims(dims)
        rows = obj["matrix"]
        d = math.prod(dims)
        if d > MAX_KRON_DIM:  # before allocating a D x D matrix
            raise ValueError(f"dims {list(dims)} give dimension {d}, above the cap {MAX_KRON_DIM}")
        m = np.zeros((d, d), dtype=complex)
        if len(rows) != d:
            raise ValueError(f"matrix has {len(rows)} rows, expected {d}")
        for i, row in enumerate(rows):
            if len(row) != d:
                raise ValueError(f"row {i} has {len(row)} entries, expected {d}")
            for j, pair in enumerate(row):
                # As for dims, a number is an int or a float, never a bool.
                if type(pair) is not list or len(pair) != 2 or any(type(x) not in (int, float) for x in pair):
                    raise ValueError(f"entry ({i}, {j}) must be a list of two numbers [re, im]")
                m[i, j] = complex(float(pair[0]), float(pair[1]))
    except (KeyError, TypeError, IndexError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise ValueError(f"malformed state JSON: {exc}") from exc
    return DensityMatrix(dims=dims, matrix=m)


def save_state(path: str, dm: DensityMatrix) -> None:
    """Write a state to a JSON file at full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(dm), fh)
        fh.write("\n")


def load_state(path: str) -> DensityMatrix:
    """Read a state from a JSON file.  Parses only; validate separately."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
