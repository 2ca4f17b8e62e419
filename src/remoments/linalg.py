"""Dense complex linear algebra for small quantum states.

Everything here works on plain complex ndarrays and is sized for
desk-scale problems: Kronecker products are capped at dimension 64 per
axis.  It owns the Gram route, the smaller-side :func:`gram` matrix and
the moments and singular values read off it, and the Hermitian part
(:func:`hermitian_part`, real for a real stack) that eigensolves and state
validation take.

The stack-sized temporaries of :func:`hermitian_part` (so of validation)
and :func:`gram` come from :data:`SCRATCH`, named buffers kept per thread,
not faulted in anew on every call.  A thread keeps each named buffer as
large as the largest stack it has taken: for the CLI at most its
STACK_ENTRIES complex entries.  A float take views a complex buffer as
float, so a real stack's validation and its complex Gram matrix share it.
"""
from __future__ import annotations

import math
import threading

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


class Scratch(threading.local):
    """Named complex buffers, one set per thread, each grown only when a request outgrows it."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """A C-contiguous `dtype` view of `shape` over buffer `name`: garbage, and valid until `name`'s next take."""
        size = math.prod(shape)
        units = -(-size * np.dtype(dtype).itemsize // 16)  # the complex entries it spans
        buf = self.buffers.get(name)
        if buf is None or buf.size < units:
            buf = self.buffers[name] = np.empty(units, complex)
        return buf.view(dtype)[:size].reshape(shape)


SCRATCH = Scratch()


def _adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a (..., n, n) stack, contiguous, in :data:`SCRATCH` "conj" of its dtype.

    Copied, then conjugated in place: a ufunc reading the transposed view buffers it outside the scratch.
    """
    adj = SCRATCH.take("conj", a.shape, a.dtype)
    np.copyto(adj, a.swapaxes(-1, -2))
    return np.conjugate(adj, out=adj)


def hermitian_part(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a/2 + a^dagger/2 and each matrix's max |a - a^dagger|, of a (..., n, n) stack.

    The part is a view of :data:`SCRATCH` "sym" in a's dtype, valid only
    until this thread's next take; the deviations are fresh.  Halving first
    equals (a + a^dagger)/2 for normal floats but cannot overflow; inf and
    NaN entries raise no warning.
    """
    adj = _adjoint(a)
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.subtract(a, adj, out=SCRATCH.take("sym", a.shape, a.dtype))
        dev = np.abs(h, out=SCRATCH.take("abs", a.shape, float)).max(axis=(-2, -1), initial=0.0)
        adj *= 0.5
        np.multiply(a, 0.5, out=h)
        h += adj
    return h, dev


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Also takes a (..., n, n) stack and returns one descending row per
    matrix.  The input's :func:`hermitian_part` is solved; a max-abs deviation
    from Hermiticity beyond HERMITICITY_TOL, in any matrix of a stack, is
    rejected instead of hidden, and so is a NaN.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    h, dev = hermitian_part(a)
    dev = float(np.max(dev, initial=0.0))
    if not dev <= HERMITICITY_TOL:  # NaN compares False
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


def gram(a: np.ndarray) -> np.ndarray:
    """The smaller-side Gram matrix G of `a` (a^dagger a or a a^dagger), or of each matrix of a stack.

    Symmetrized to be Hermitian bit for bit; its eigenvalues are the squared
    singular values of `a`, so tr G and ||G||_F^2 are T1 and T2.  G is a view
    of :data:`SCRATCH` "sym", valid only until this thread's next take.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim {a.ndim}")
    adj = np.conjugate(a, out=SCRATCH.take("conj", a.shape)).swapaxes(-1, -2)
    g = SCRATCH.take("sym", a.shape[:-2] + (min(a.shape[-2:]),) * 2)
    left, right = (adj, a) if a.shape[-1] <= a.shape[-2] else (a, adj)
    np.matmul(left, right, out=g)
    g += _adjoint(g)  # adj is spent: its buffer is reused
    g *= 0.5
    return g


def gram_moments(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T1 = tr G and T2 = ||G||_F^2 of g = gram(a), T2 clamped to T1^2 (a theorem rounding can break)."""
    flat = g.view(np.float64)  # real and imaginary parts side by side
    t1 = np.einsum("...ii->...", g).real
    return t1, np.minimum(np.einsum("...ij,...ij->...", flat, flat), t1 * t1)


def gram_singular_values(g: np.ndarray) -> np.ndarray:
    """Singular values of `a`, descending, from g = gram(a); G is PSD, so a negative eigenvalue clamps to 0."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))[..., ::-1].copy()


def singular_values(a: np.ndarray) -> np.ndarray:
    """All min(rows, cols) singular values, sorted descending, of a matrix or of
    each matrix of a (..., rows, cols) stack, equal bit for bit to the per-matrix call.
    """
    return gram_singular_values(gram(a))


def trace_norm(a: np.ndarray) -> np.ndarray:
    """Sum of singular values: one value for a matrix, one per matrix of a (..., rows, cols) stack."""
    return singular_values(a).sum(axis=-1)
