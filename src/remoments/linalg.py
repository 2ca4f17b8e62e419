"""Dense complex linear algebra for small quantum states.

Everything here works on plain complex ndarrays and is sized for
desk-scale problems: Kronecker products are capped at dimension 64 per
axis, and singular values go through the smaller-side Gram matrix so a
p x q rectangle only ever costs a min(p, q)-sized eigenproblem.
"""
from __future__ import annotations

import numpy as np

MAX_KRON_DIM = 64
HERMITICITY_TOL = 1e-8


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two matrices.

    Output axes are capped at MAX_KRON_DIM; larger requests are rejected
    rather than silently allocated.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError("kron operands must both be vectors or both be matrices")
    kron_shape(a.shape, b.shape)
    return np.kron(a, b)


def kron_shape(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of the Kronecker product of operands of these shapes.

    Raises the "input too large" ValueError of :func:`kron` when an axis
    exceeds MAX_KRON_DIM.
    """
    out_shape = tuple(da * db for da, db in zip(a_shape, b_shape))
    if any(d > MAX_KRON_DIM for d in out_shape):
        raise ValueError(
            f"kron output shape {out_shape} exceeds the supported size "
            f"{MAX_KRON_DIM}: input too large"
        )
    return out_shape


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a (..., m, n) stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Also takes a (..., n, n) stack and returns one descending row per
    matrix.  The input is symmetrized to a/2 + a^dagger/2 before solving,
    which is (a + a^dagger)/2 for normal floats, without its overflow; a
    max-abs deviation from Hermiticity beyond HERMITICITY_TOL, in any
    matrix of a stack, is rejected instead of hidden, and so is a NaN.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    adj = dagger(a)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf deviation is rejected below
        dev = float(np.abs(a - adj).max()) if a.size else 0.0
    if not dev <= HERMITICITY_TOL:  # NaN compares False
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    adj *= 0.5  # dagger's own conjugate copy; halving first is exact for normal floats and cannot overflow
    sym = a * 0.5
    sym += adj
    return np.linalg.eigvalsh(sym)[..., ::-1].copy()


def singular_values(a: np.ndarray) -> np.ndarray:
    """All min(rows, cols) singular values, sorted descending.

    Also takes a (..., rows, cols) stack and returns one descending row per
    matrix, equal bit for bit to the per-matrix call.  Computed as square
    roots of the eigenvalues of the smaller-side Gram matrix; the Gram
    matrix is positive semidefinite, so a negative eigenvalue is rounding
    noise and clamps to zero.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim {a.ndim}")
    if a.shape[-1] <= a.shape[-2]:
        gram = dagger(a) @ a
    else:
        gram = a @ dagger(a)
    gram += dagger(gram)  # symmetrize in place: one stack-sized temporary fewer
    gram /= 2.0
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[..., ::-1].copy()


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(singular_values(a).sum())
