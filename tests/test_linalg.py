"""Dense complex linear algebra primitives."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_matrix
from remoments import (
    dagger,
    hermitian_eigenvalues,
    kron,
    realign_bipartite,
    sample_separable,
    singular_values,
    trace_norm,
)
from remoments.criteria import evaluate, spectrum
from remoments.linalg import SCRATCH
from remoments.realign import RealignSpec, moments, realign_array
from remoments.states import family_stack, separable_stack


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_swap_blocks(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = kron(x, np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        assert np.array_equal(out, expected)

    def test_diagonal(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_first_factor_major(self):
        a = random_matrix(2, 2, 1)
        b = random_matrix(3, 3, 2)
        out = kron(a, b)
        # entry ((i1,i2),(j1,j2)) = a[i1,j1] b[i2,j2], first factor major
        assert out[1 * 3 + 2, 0 * 3 + 1] == pytest.approx(a[1, 0] * b[2, 1])

    def test_vectors(self):
        v = kron(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
        assert np.allclose(v, [3.0, 5.0, 6.0, 10.0])

    def test_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            kron(np.eye(16), np.eye(8))

    @pytest.mark.parametrize("a, b", [(np.ones(2), np.eye(2)), (np.eye(2), np.ones(2)),
                                      (np.ones((2, 2, 2)), np.ones((2, 2, 2)))])
    def test_operands_must_both_be_vectors_or_matrices(self, a, b):
        with pytest.raises(ValueError) as info:
            kron(a, b)
        assert str(info.value) == "kron operands must both be vectors or both be matrices"


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(3)), np.eye(3))

    def test_conjugates_1x1(self):
        assert dagger(np.array([[1j]]))[0, 0] == -1j

    @given(st.integers(0, 10_000))
    def test_involution(self, seed):
        m = random_matrix(3, 5, seed)
        assert np.array_equal(dagger(dagger(m)), m)


class TestHermitianEigenvalues:
    def test_diagonal_exact(self):
        out = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert out.tolist() == [3.0, 2.0, 1.0]

    def test_pauli_x(self):
        out = hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(out, [1.0, -1.0])

    def test_descending(self):
        m = random_matrix(6, 6, 3)
        out = hermitian_eigenvalues(m + dagger(m))
        assert np.all(np.diff(out) <= 0)

    def test_known_spectrum(self):
        # unitary conjugation of a diagonal preserves the spectrum
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(g)
        diag = np.array([4.0, 1.5, 0.0, -2.0, -3.25])
        m = q @ np.diag(diag) @ dagger(q)
        out = hermitian_eigenvalues(m)
        scale = np.max(np.abs(m)) + 1.0
        assert np.max(np.abs(out - np.sort(diag)[::-1])) <= 1e-10 * scale

    def test_trace_preserved(self):
        m = random_matrix(7, 7, 5)
        h = m + dagger(m)
        out = hermitian_eigenvalues(h)
        assert np.sum(out) == pytest.approx(np.trace(h).real, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3), dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            hermitian_eigenvalues(m)

    @pytest.mark.parametrize(
        "m",
        [np.array([[math.nan, 0.0], [0.0, 1.0]]), np.array([[0.25, 1.5e308], [-1.5e308, 0.25]])],
        ids=["nan", "overflow"],
    )
    def test_rejects_nan_and_overflow_without_warning(self, m):
        """A NaN entry and a deviation that overflows both raise ValueError, with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix is not Hermitian"):
                hermitian_eigenvalues(m)

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16])
    def test_stack_equals_per_matrix(self, n):
        stack = np.stack([random_matrix(n, n, 40 + k) for k in range(7)])
        stack = stack + dagger(stack)
        out = hermitian_eigenvalues(stack)
        assert out.shape == (7, n)
        for k in range(7):
            assert np.array_equal(out[k], hermitian_eigenvalues(stack[k]))

    def test_stack_rejects_one_non_hermitian(self):
        stack = np.stack([np.eye(2, dtype=complex)] * 3)
        stack[1, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            hermitian_eigenvalues(stack)

    def test_symmetrizes_small_deviation(self):
        m = np.diag([2.0, 1.0]).astype(complex)
        m[0, 1] = 1e-9  # below the 1e-8 gate, symmetrized away
        out = hermitian_eigenvalues(m)
        assert np.allclose(out, [2.0, 1.0], atol=1e-8)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(4)), np.ones(4))

    def test_zero(self):
        out = singular_values(np.zeros((3, 5), dtype=complex))
        assert out.shape == (3,)
        assert np.all(out == 0)

    def test_count_is_smaller_side(self):
        assert singular_values(random_matrix(3, 7, 6)).shape == (3,)
        assert singular_values(random_matrix(7, 3, 7)).shape == (3,)

    def test_descending_nonnegative(self):
        out = singular_values(random_matrix(5, 5, 8))
        assert np.all(out >= 0)
        assert np.all(np.diff(out) <= 0)

    @given(st.integers(0, 10_000))
    def test_matches_dagger(self, seed):
        m = random_matrix(4, 6, seed)
        assert np.max(np.abs(singular_values(m) - singular_values(dagger(m)))) <= 1e-10

    @given(st.integers(0, 10_000))
    def test_frobenius_identity(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        m = random_matrix(rows, cols, seed + 1)
        frob2 = float(np.sum(np.abs(m) ** 2))
        assert np.sum(singular_values(m) ** 2) == pytest.approx(frob2, rel=1e-10)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 16), (16, 4), (8, 8), (2, 32), (16, 16)])
    def test_stack_equals_per_matrix(self, shape):
        stack = np.stack([random_matrix(*shape, 60 + k) for k in range(9)])
        out = singular_values(stack)
        assert out.shape == (9, min(shape))
        for k in range(9):
            assert np.array_equal(out[k], singular_values(stack[k]))

    def test_stack_of_stacks(self):
        stack = np.stack([random_matrix(3, 5, k) for k in range(6)]).reshape(2, 3, 3, 5)
        out = singular_values(stack)
        assert out.shape == (2, 3, 3)
        assert np.array_equal(out[1, 2], singular_values(stack[1, 2]))

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="matrix"):
            singular_values(np.ones(3, dtype=complex))

    def test_known_rank_one(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        out = singular_values(np.outer(u, v))
        assert out[0] == pytest.approx(15.0, rel=1e-12)  # |u| |v| = 5 * 3
        assert out[1] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    @pytest.mark.parametrize("kind", ["ones", "rank_one"])
    def test_large_rank_one_inputs(self, scale, kind):
        # Their Gram eigenvalues that should be 0 round to about -1e-10 to -3e-3.
        if kind == "ones":
            a = scale * np.ones((3, 3))
        else:
            a = scale * (random_matrix(3, 1, 5) @ random_matrix(1, 3, 6))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert singular_values(a)[0] == pytest.approx(top, rel=1e-12)
        # The two zero singular values come back as square roots of Gram
        # rounding, each about sqrt(eps) * top at most.
        assert trace_norm(a) == pytest.approx(top, rel=1e-7)


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0, rel=1e-12)

    def test_bounds_trace(self):
        for seed in range(10):
            m = random_matrix(5, 5, 100 + seed)
            h = m + dagger(m)
            assert trace_norm(h) >= abs(np.trace(h)) - 1e-10

    def test_unitary_has_norm_n(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        assert trace_norm(q) == pytest.approx(4.0, rel=1e-10)

    def test_stack_gives_one_norm_per_matrix(self):
        stack = np.stack([realign_bipartite(sample_separable((2, 2), 2, seed)) for seed in range(3)])
        norms = trace_norm(stack)
        assert norms.shape == (3,)
        assert norms.tolist() == [trace_norm(r) for r in stack]
        assert norms == pytest.approx([0.9988, 0.9968, 0.9233], abs=1e-4)
        assert np.ndim(trace_norm(stack[0])) == 0


def test_results_never_share_memory_with_the_scratch():
    """Every array the public stack functions return is fresh, never a view of a scratch buffer."""
    dims, spec = (2, 2, 2, 2), RealignSpec.parse("12|34")
    stack = separable_stack(dims, 2, range(6))
    realigned = realign_array(stack, dims, spec)
    _, fam = family_stack("noisy_ghz4", [0.0, 0.5, 1.0])
    results = [*moments(realigned), singular_values(realigned), trace_norm(realigned),
               hermitian_eigenvalues(stack), fam]
    for target in (spec, 2):
        sp = spectrum(stack, dims, target)
        results += [sp.values, sp.t1, sp.t2, *(vars(sp.bounds).values() if sp.bounds else ())]
    for criterion, weight, party in (("v2", 0.5, None), ("v3", 0.5, None), ("realign", None, None), ("ppt", None, 1)):
        ev = evaluate(stack, dims, criterion, weight, spec, party)
        results += [ev.statistic, ev.t1, ev.t2, *(vars(ev.bounds).values() if ev.bounds else ())]
    arrays = [a for a in results if isinstance(a, np.ndarray)]
    assert len(arrays) > 20
    assert {"moved", "conj", "sym", "abs"} <= SCRATCH.buffers.keys()
    assert not any(np.shares_memory(a, buf) for a in arrays for buf in SCRATCH.buffers.values())
