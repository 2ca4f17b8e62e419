"""Realignment operation, partial realignment, moments."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density
from remoments import (
    DensityMatrix,
    RealignSpec,
    enumerate_splits,
    ghz_w,
    kron,
    moments,
    partial_transpose,
    pure_state,
    realign_bipartite,
    realign_partial,
    rho_d,
    sample_separable,
    singular_values,
    trace_norm,
)
from remoments.criteria import spectrum
from remoments.realign import realign_array, transpose_party
from remoments.states import separable_stack


def gram_power_traces(a, max_k=2):
    """T_1 .. T_max_k of a realigned matrix as traces of Gram-matrix powers.

    An arithmetic path independent of the singular values, kept as the
    oracle that :func:`moments` must agree with to 1e-9 relative.
    """
    gram = a @ a.conj().swapaxes(-1, -2) if a.shape[0] <= a.shape[1] else a.conj().swapaxes(-1, -2) @ a
    vals = []
    power = gram
    for _ in range(max_k):
        vals.append(float(np.trace(power).real))
        power = power @ gram
    return vals


def realign_loop(rho, m, n):
    """Elementwise realignment oracle, independent of the reshape path."""
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    out[i * m + j, k * n + l] = rho[i * n + k, j * n + l]
    return out


def realign_loop_alt_blocks(rho, m, n):
    """Same block contents with ket-major row/column composition."""
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for l in range(n):
                    out[j * m + i, l * n + k] = rho[i * n + k, j * n + l]
    return out


def partial_loop_1_2(rho, dims):
    """Loop oracle for the split 1|2 on a three-party state."""
    d1, d2, d3 = dims
    out = np.zeros((d1 * d1 * d3, d2 * d2 * d3), dtype=complex)
    for r1 in range(d1):
        for r2 in range(d2):
            for r3 in range(d3):
                for c1 in range(d1):
                    for c2 in range(d2):
                        for c3 in range(d3):
                            row = (r1 * d1 + c1) * d3 + r3
                            col = (r2 * d2 + c2) * d3 + c3
                            out[row, col] = rho[
                                (r1 * d2 + r2) * d3 + r3, (c1 * d2 + c2) * d3 + c3
                            ]
    return out


def partial_loop_12_3(rho, dims):
    """Loop oracle for the grouped split 12|3 on a three-party state."""
    d1, d2, d3 = dims
    out = np.zeros((d1 * d1 * d2 * d2, d3 * d3), dtype=complex)
    for r1 in range(d1):
        for r2 in range(d2):
            for r3 in range(d3):
                for c1 in range(d1):
                    for c2 in range(d2):
                        for c3 in range(d3):
                            row = ((r1 * d2 + r2) * d1 + c1) * d2 + c2
                            col = r3 * d3 + c3
                            out[row, col] = rho[
                                (r1 * d2 + r2) * d3 + r3, (c1 * d2 + c2) * d3 + c3
                            ]
    return out


BELL = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))


class TestRealignBipartite:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_matches_loop_oracle(self, dims):
        dm = random_density(dims, sum(dims))
        out = realign_bipartite(dm)
        m, n = dims
        assert out.shape == (m * m, n * n)
        assert np.array_equal(out, realign_loop(dm.matrix, m, n))

    def test_basis_projector(self):
        dm = pure_state(np.array([1, 0, 0, 0]), (2, 2))
        out = realign_bipartite(dm)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.array_equal(out, expected)
        assert trace_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_rank_one(self):
        rng = np.random.default_rng(11)
        ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = ga @ ga.conj().T
        a /= np.trace(a).real
        b = gb @ gb.conj().T
        b /= np.trace(b).real
        dm = DensityMatrix(dims=(2, 2), matrix=kron(a, b))
        out = realign_bipartite(dm)
        assert np.allclose(out, np.outer(a.reshape(-1), b.reshape(-1)), atol=1e-14)
        sv = singular_values(out)
        pur = math.sqrt(np.trace(a @ a).real * np.trace(b @ b).real)
        assert sv[0] == pytest.approx(pur, rel=1e-12)
        assert np.all(sv[1:] <= 1e-7)

    def test_bell_singular_values(self):
        sv = singular_values(realign_bipartite(BELL))
        assert np.max(np.abs(sv - 0.5)) <= 1e-10
        assert trace_norm(realign_bipartite(BELL)) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError, match="two"):
            realign_bipartite(ghz_w(0.5))

    @given(st.integers(0, 10_000))
    def test_involution_exact(self, seed):
        dm = random_density((3, 3), seed)
        once = realign_bipartite(dm)
        twice = realign_bipartite(DensityMatrix(dims=(3, 3), matrix=once))
        assert np.array_equal(twice, dm.matrix)

    @given(st.integers(0, 10_000))
    def test_entry_conservation(self, seed):
        dm = random_density((2, 3), seed)
        before = np.sort(np.abs(dm.matrix).ravel())
        after = np.sort(np.abs(realign_bipartite(dm)).ravel())
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_block_composition_only_permutes(self):
        # alternate ket-major block ordering must not change singular values
        dm = random_density((3, 4), 21)
        sv_a = singular_values(realign_bipartite(dm))
        sv_b = singular_values(realign_loop_alt_blocks(dm.matrix, 3, 4))
        assert np.max(np.abs(sv_a - sv_b)) <= 1e-10


class TestRealignSpec:
    def test_parse_forms(self):
        spec = RealignSpec.parse("1|2")
        assert spec.group1 == (1,) and spec.group2 == (2,)
        spec = RealignSpec.parse("12|3")
        assert spec.group1 == (1, 2) and spec.group2 == (3,)
        assert str(RealignSpec.parse("13|2")) == "13|2"

    # The last three pass str.isdigit, and int() reads "１" and "٣" as 1 and 3.
    @pytest.mark.parametrize("text", ["12", "1|2|3", "|2", "1|", "11|2", "1|1", "0|2", "a|b", "１|2", "²|1", "1|٣"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            RealignSpec.parse(text)

    def test_validate_for_range(self):
        spec = RealignSpec.parse("1|3")
        spec.validate_for(3)
        with pytest.raises(ValueError):
            spec.validate_for(2)

    @pytest.mark.parametrize(
        "groups, message",
        [
            (((), (1,)), "both groups must be nonempty"),
            (((1, 1), (2,)), "a group may not repeat a party"),
            (((1,), (1,)), "groups (1,) and (1,) overlap"),
        ],
    )
    def test_construction_messages(self, groups, message):
        """A spec checks its groups when it is built, directly as by `parse`, so no invalid spec exists."""
        with pytest.raises(ValueError) as exc:
            RealignSpec(*groups)
        assert str(exc.value) == message

    def test_untouched(self):
        assert RealignSpec.parse("1|3").untouched(4) == (2, 4)
        assert RealignSpec.parse("1|2").untouched(2) == ()


class TestEnumerateSplits:
    def test_counts(self):
        assert [str(s) for s in enumerate_splits(2)] == ["1|2"]
        assert len(enumerate_splits(3)) == 6
        assert len(enumerate_splits(4)) == 25

    def test_no_mirrored_duplicates(self):
        seen = set()
        for spec in enumerate_splits(4):
            key = frozenset((frozenset(spec.group1), frozenset(spec.group2)))
            assert key not in seen
            seen.add(key)
            assert min(spec.group1) < min(spec.group2)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            enumerate_splits(1)


class TestRealignPartial:
    def test_shapes(self):
        g = ghz_w(0.3)
        assert realign_partial(g, RealignSpec.parse("1|2")).shape == (8, 8)
        assert realign_partial(g, RealignSpec.parse("12|3")).shape == (16, 4)
        dm = random_density((2, 3, 2), 31)
        assert realign_partial(dm, RealignSpec.parse("1|3")).shape == (12, 12)

    def test_matches_loop_oracle_1_2(self):
        for dims, seed in [((2, 2, 2), 32), ((2, 3, 2), 33)]:
            dm = random_density(dims, seed)
            out = realign_partial(dm, RealignSpec.parse("1|2"))
            assert np.array_equal(out, partial_loop_1_2(dm.matrix, dims))

    def test_matches_loop_oracle_12_3(self):
        dm = random_density((2, 2, 2), 34)
        out = realign_partial(dm, RealignSpec.parse("12|3"))
        assert np.array_equal(out, partial_loop_12_3(dm.matrix, (2, 2, 2)))

    def test_reduces_to_bipartite(self):
        dm = random_density((3, 4), 35)
        full = realign_bipartite(dm)
        part = realign_partial(dm, RealignSpec.parse("1|2"))
        assert np.array_equal(full, part)

    @given(st.integers(0, 10_000))
    def test_frobenius_preserved(self, seed):
        dm = random_density((2, 2, 2), seed)
        for spec in enumerate_splits(3):
            out = realign_partial(dm, spec)
            frob2 = float(np.sum(np.abs(out) ** 2))
            assert frob2 == pytest.approx(dm.purity(), rel=1e-10)

    def test_untouched_relabel_invariance(self):
        # swapping the two untouched parties permutes rows/cols only
        dm = random_density((2, 2, 2, 2), 36)
        t = dm.matrix.reshape((2,) * 8)
        swapped = t.transpose(0, 1, 3, 2, 4, 5, 7, 6).reshape(16, 16)
        dm2 = DensityMatrix(dims=(2, 2, 2, 2), matrix=np.ascontiguousarray(swapped))
        spec = RealignSpec.parse("1|2")
        sv1 = singular_values(realign_partial(dm, spec))
        sv2 = singular_values(realign_partial(dm2, spec))
        assert np.max(np.abs(sv1 - sv2)) <= 1e-10

    def test_rejects_out_of_range_spec(self):
        with pytest.raises(ValueError):
            realign_partial(ghz_w(0.2), RealignSpec.parse("1|4"))

    def test_metadata(self):
        # the rectangle is the realignment of the state's dims by the spec
        g = ghz_w(0.3)
        spec = RealignSpec.parse("1|3")
        out = realign_partial(g, spec)
        assert np.array_equal(out, realign_array(g.matrix, g.dims, spec))
        assert out.shape == (2 * 2 * 2, 2 * 2 * 2)  # d1^2 dC x d2^2 dC over dims (2, 2, 2)


def loop_partial_transpose(matrix, dims, party):
    """rho^T_party entry by entry: the party's row and column digits trade places."""
    out = np.empty_like(matrix)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            r, c = list(row), list(col)
            r[party - 1], c[party - 1] = col[party - 1], row[party - 1]
            out[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)] = \
                matrix[np.ravel_multi_index(r, dims), np.ravel_multi_index(c, dims)]
    return out


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
def test_partial_transpose_matches_loop_oracle_exactly(dims):
    stack = np.stack([random_density(dims, seed).matrix for seed in range(3)])
    for party in range(1, len(dims) + 1):
        want = np.stack([loop_partial_transpose(m, dims, party) for m in stack])
        assert np.array_equal(partial_transpose(DensityMatrix(dims, stack[0]), party), want[0])
        assert np.array_equal(transpose_party(stack, dims, party), want)


@pytest.mark.parametrize("dm", [rho_d(0.3), ghz_w(0.3)], ids=["rho_d", "ghz_w"])
def test_real_states_permute_into_complex_arrays_with_equal_values(dm):
    """A float64 state's realignments and partial transpose are fresh complex128 arrays, equal
    to those of the state cast to complex."""
    assert dm.matrix.dtype == np.float64
    cplx = DensityMatrix(dm.dims, dm.matrix.astype(complex))
    spec = RealignSpec.parse("1|2")
    pairs = [(realign_partial(dm, spec), realign_partial(cplx, spec)), (partial_transpose(dm, 2), partial_transpose(cplx, 2))]
    if len(dm.dims) == 2:
        pairs.append((realign_bipartite(dm), realign_bipartite(cplx)))
    for got, want in pairs:
        assert got.dtype == np.complex128 and not np.shares_memory(got, dm.matrix)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 2, 2), (2, 2, 2, 2), (8, 8)])
def test_t1_is_the_purity_on_every_split(dims):
    """Realignment permutes entries, so T1 = tr G = ||R||_F^2 = tr rho^2 on every split, to D eps."""
    stack = np.concatenate([
        separable_stack(dims, 1, range(20)),
        separable_stack(dims, 3, range(20)),
        np.stack([random_density(dims, seed).matrix for seed in range(20)]),
    ])
    purity = np.array([np.vdot(m, m).real for m in stack])
    tol = math.prod(dims) * np.finfo(float).eps
    for spec in enumerate_splits(len(dims)):
        t1, _ = moments(realign_array(stack, dims, spec))
        assert (np.abs(t1 - purity) <= tol * purity).all(), spec


class TestMoments:
    def test_product_state_all_one(self):
        r = realign_bipartite(sample_separable((2, 2), 1, 3))
        s = singular_values(r)
        for k, t in zip((1, 2), moments(r)):
            assert t == pytest.approx(1.0, abs=1e-10)
            assert np.sum(s ** (2 * k), axis=-1) == pytest.approx(1.0, abs=1e-10)

    def test_bell(self):
        t1, t2 = moments(realign_bipartite(BELL))
        assert t1 == pytest.approx(1.0, abs=1e-12)
        assert t2 == pytest.approx(0.25, abs=1e-12)

    def test_w_state_singular_values(self):
        w = realign_partial(ghz_w(0.0), RealignSpec.parse("1|2"))
        sv2 = np.sort(singular_values(w) ** 2)[::-1]
        assert np.allclose(sv2[:4] * 9, [4.0, 2.0, 2.0, 1.0], atol=1e-10)
        assert np.all(sv2[4:] <= 1e-12)

    def test_ghz_w_frozen_moments(self):
        spec = RealignSpec.parse("1|2")
        t1, t2 = moments(realign_partial(ghz_w(0.0), spec))
        assert t1 == pytest.approx(1.0, abs=1e-12)
        assert t2 == pytest.approx(25.0 / 81.0, abs=1e-12)
        t1, t2 = moments(realign_partial(ghz_w(1.0), spec))
        assert t1 == pytest.approx(1.0, abs=1e-12)
        assert t2 == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_t1_is_purity(self, seed):
        dm = random_density((2, 2, 2), seed)
        for spec in enumerate_splits(3):
            t1, _ = moments(realign_partial(dm, spec))
            assert t1 == pytest.approx(dm.purity(), rel=1e-10)

    @given(st.integers(0, 10_000))
    def test_t2_below_t1_squared(self, seed):
        dm = random_density((3, 3), seed)
        t1, t2 = moments(realign_bipartite(dm))
        assert t2 <= t1**2 + 1e-12

    def test_t2_equality_on_rank_one(self):
        dm = sample_separable((3, 3), 1, 9)
        t1, t2 = moments(realign_bipartite(dm))
        assert t2 == pytest.approx(t1**2, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_gram_route_agrees(self, seed):
        dm = random_density((2, 3), seed)
        r = realign_bipartite(dm)
        s = singular_values(r)
        for k, t, want in zip((1, 2), moments(r), gram_power_traces(r)):
            assert t == pytest.approx(want, rel=1e-9)
            assert np.sum(s ** (2 * k), axis=-1) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (2, 2, 2), (2, 2, 2, 2)])
    def test_spectrum_moments_agree_with_svd(self, dims):
        # criteria.spectrum reads T1 = tr G and T2 = ||G||_F^2 off the Gram
        # stack; they must be the power sums of a direct SVD, for every split
        # of mixed states, pure products and two-term product mixtures.
        stack = np.concatenate([
            np.stack([random_density(dims, seed).matrix for seed in range(4)]),
            separable_stack(dims, 1, range(4)),
            separable_stack(dims, 2, range(4)),
        ])
        eps = np.finfo(float).eps
        for spec in enumerate_splits(len(dims)):
            sp = spectrum(stack, dims, spec)()
            for i, matrix in enumerate(stack):
                dm = DensityMatrix(dims=dims, matrix=matrix)
                r = realign_partial(dm, spec)
                s2 = np.linalg.svd(r, compute_uv=False) ** 2
                assert sp.t1[i] == pytest.approx(dm.purity(), rel=1e-12), (spec, i)
                assert sp.t1[i] == pytest.approx(s2.sum(), rel=1e-12), (spec, i)
                assert sp.t2[i] == pytest.approx((s2 * s2).sum(), rel=1e-12), (spec, i)
                # T2 <= T1^2 up to G's rounding: each entry of G sums m = max(r.shape)
                # products, so T2 / T1^2 can exceed 1 by up to about 4 m eps.  Pure
                # products (T2 = T1^2 in exact arithmetic) reach 18 eps on (2, 2, 2, 2).
                assert sp.t2[i] <= sp.t1[i] ** 2 * (1.0 + 4.0 * max(r.shape) * eps), (spec, i)
