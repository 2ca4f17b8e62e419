"""State constructors, validation, families, sampler, JSON format."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density
from remoments import (
    FAMILIES,
    DensityMatrix,
    StateValidationError,
    from_json_dict,
    ghz_w,
    hermitian_eigenvalues,
    load_state,
    mixture,
    noisy_ghz4,
    pure_state,
    rho_d,
    rho_eps,
    rho_pq,
    sample_separable,
    save_state,
    to_json_dict,
    validate,
)
from remoments import states
from remoments.states import RHO_D_MAX, RHO_D_MIN, DomainError
from test_cli import run_cli

Q0 = (math.sqrt(2) - 1) / 2


class TestValidate:
    def test_maximally_mixed_ok(self):
        dm = DensityMatrix(dims=(2,), matrix=np.eye(2, dtype=complex) / 2)
        assert validate(dm) is dm

    def test_trace_not_one(self):
        dm = DensityMatrix(dims=(2,), matrix=np.eye(2, dtype=complex))
        with pytest.raises(StateValidationError, match="TRACE_NOT_ONE") as exc:
            validate(dm)
        assert exc.value.code == "TRACE_NOT_ONE"
        assert exc.value.deviation == pytest.approx(1.0)

    def test_not_psd(self):
        m = np.diag([1.001, -0.001]).astype(complex)
        with pytest.raises(StateValidationError, match="NOT_PSD"):
            validate(DensityMatrix(dims=(2,), matrix=m))

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError, match="NOT_HERMITIAN"):
            validate(DensityMatrix(dims=(2,), matrix=m))

    def test_dimension_mismatch(self):
        with pytest.raises(StateValidationError, match="DIMENSION_MISMATCH"):
            validate(DensityMatrix(dims=(2, 2), matrix=np.eye(3, dtype=complex) / 3))

    @pytest.mark.parametrize("dims", [(2, 0), (-2, 2), ()])
    def test_non_positive_dims(self, dims):
        with pytest.raises(StateValidationError) as info:
            validate(DensityMatrix(dims=dims, matrix=np.eye(2, dtype=complex) / 2))
        assert info.value.code == "DIMENSION_MISMATCH" and math.isnan(info.value.deviation)
        assert str(info.value) == f"DIMENSION_MISMATCH: invalid factor dimensions {dims} (deviation nan)"

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 1): math.nan, (1, 0): math.nan},  # a Hermitian off-diagonal pair
            {(0, 0): math.nan},
            {(2, 2): math.inf},
            {(1, 3): complex(0, math.nan), (3, 1): complex(0, math.nan)},
        ],
    )
    def test_non_finite(self, entries):
        m = np.eye(4, dtype=complex) / 4
        for idx, x in entries.items():
            m[idx] = x
        with pytest.raises(StateValidationError, match="NON_FINITE") as exc:
            validate(DensityMatrix(dims=(2, 2), matrix=m))
        assert exc.value.code == "NON_FINITE"
        assert exc.value.deviation == len(entries)


class TestPureState:
    def test_basis_projector(self):
        dm = pure_state(np.array([1, 0, 0, 0]), (2, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(dm.matrix, expected)

    def test_normalization_invariance(self):
        a = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
        b = pure_state(np.array([2, 0, 0, 2]), (2, 2))
        assert np.allclose(a.matrix, b.matrix)
        assert a.purity() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            pure_state(np.zeros(4), (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pure_state(np.ones(3), (2, 2))


class TestMixture:
    def test_single_term(self):
        dm = random_density((2, 2), 0)
        out = mixture([1.0], [dm])
        assert np.allclose(out.matrix, dm.matrix)

    def test_equal_mixture_of_basis(self):
        zero = pure_state(np.array([1, 0]), (2,))
        one = pure_state(np.array([0, 1]), (2,))
        out = mixture([0.5, 0.5], [zero, one])
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_weights_must_normalize(self):
        dm = random_density((2,), 1)
        with pytest.raises(ValueError, match="weight"):
            mixture([0.5, 0.4], [dm, dm])

    def test_negative_weight(self):
        dm = random_density((2,), 2)
        with pytest.raises(ValueError, match="weight"):
            mixture([1.5, -0.5], [dm, dm])

    @pytest.mark.parametrize("weights, count", [([0.5], 2), ([0.5, 0.5], 1), ([], 0)])
    def test_one_weight_per_state(self, weights, count):
        dm = random_density((2,), 5)
        with pytest.raises(ValueError) as info:
            mixture(weights, [dm] * count)
        assert str(info.value) == "need one weight per state and at least one state"

    def test_dims_must_match(self):
        a = random_density((2,), 3)
        b = random_density((3,), 4)
        with pytest.raises(ValueError, match="dims"):
            mixture([0.5, 0.5], [a, b])


class TestRhoD:
    def test_entries_at_03(self):
        dm = rho_d(0.3)
        assert dm.dims == (3, 3)
        diag = np.diag(dm.matrix).real
        assert np.allclose(diag, [0.35, 0, 0, 0, 0.2, 0.3, 0, 0, 0.15])
        assert dm.matrix[0, 8] == pytest.approx(-0.22)
        assert dm.matrix[4, 5] == pytest.approx(-0.22)
        assert dm.matrix[8, 0] == pytest.approx(-0.22)

    def test_trace_exactly_one(self):
        assert np.trace(rho_d(0.3).matrix).real == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_touch_zero(self):
        for d in (RHO_D_MIN, RHO_D_MAX):
            ev = hermitian_eigenvalues(rho_d(d).matrix)
            assert abs(ev[-1]) <= 1e-9

    def test_domain_gate(self):
        with pytest.raises(ValueError, match=r"^rho_d requires 0\.2625\d* <= d <= 0\.3687\d*, got 0\.25$"):
            rho_d(0.25)
        with pytest.raises(ValueError, match=r"^rho_d requires .*, got 0\.37$"):
            rho_d(0.37)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_nonfinite_parameter_reports_the_domain(self, text):
        want = f"rho_d requires {RHO_D_MIN!r} <= d <= {RHO_D_MAX!r}, got {float(text)!r}"
        with pytest.raises(ValueError) as exc:
            rho_d(float(text))
        assert type(exc.value) is DomainError and str(exc.value) == want
        argv = ("analyze", "--family", "rho_d", f"--param={text}", "--criterion", "realign", "--split", "1|2")
        assert run_cli(*argv) == (3, "", f"validation failure: {want}\n")


class TestRhoEps:
    def test_normalization(self):
        eps = 0.9
        n = 3 * (1 + eps**2 + 1 / eps**2)
        dm = rho_eps(eps)
        assert dm.matrix[0, 0].real == pytest.approx(1 / n, rel=1e-12)
        assert np.trace(dm.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square_entry(self):
        n = 3 * (1 + 4 + 0.25)
        assert rho_eps(2.0).matrix[1, 1].real == pytest.approx(0.25 / n, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.9, 1.5, 3.0])
    def test_ppt_for_all_eps(self, eps):
        from remoments import partial_transpose

        for party in (1, 2):
            ev = hermitian_eigenvalues(partial_transpose(rho_eps(eps), party))
            assert ev[-1] >= -1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rho_eps(0.0)
        with pytest.raises(ValueError):
            rho_eps(-1.0)

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-154, 1e154, 1e160, 1e300])
    def test_extreme_eps_entries_equal_their_closed_forms(self, eps):
        """Entries 1, 1/eps^2 and eps^2 over 3 (1 + eps^2 + 1/eps^2), in exact arithmetic.

        Each is compared with its correctly rounded value: to 1e-15 relative
        where that is a normal float, otherwise to one subnormal spacing.
        """
        e2 = Fraction(eps) ** 2
        norm = 3 * (1 + e2 + 1 / e2)
        ones = [(r, c) for r in (0, 4, 8) for c in (0, 4, 8)]
        ones += [(1, 3), (3, 1), (2, 6), (6, 2), (5, 7), (7, 5)]
        want = np.zeros((9, 9))
        for r, c in ones:
            want[r, c] = float(1 / norm)
        for i in (1, 6, 5):
            want[i, i] = float(1 / e2 / norm)
        for i in (3, 2, 7):
            want[i, i] = float(e2 / norm)
        got = rho_eps(eps).matrix  # validated
        assert not got.imag.any()
        normal = np.abs(want) >= np.finfo(float).tiny
        assert np.all(np.abs(got.real - want)[normal] <= 1e-15 * np.abs(want)[normal])
        assert np.all(np.abs(got.real - want)[~normal] <= 2.0 ** -1074)
        argv = ("analyze", "--family", "rho_eps", "--param", repr(eps), "--criterion", "realign",
                "--split", "1|2")
        assert run_cli(*argv)[0] == 0

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_nonfinite_eps_fails_validation(self, text):
        with pytest.raises(StateValidationError) as exc:
            rho_eps(float(text))
        assert exc.value.code == "NON_FINITE"
        argv = ("analyze", "--family", "rho_eps", "--param", text, "--criterion", "realign", "--split", "1|2")
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "") and err.startswith("validation failure: NON_FINITE: ")


class TestRhoPq:
    def test_kets_orthonormal(self):
        # purity 4p^2 + 2q^2 holds iff the six kets are orthonormal
        for q in (0.0, 0.2, Q0, 0.5):
            p = (1 - 2 * q) / 4
            assert rho_pq(q).purity() == pytest.approx(4 * p**2 + 2 * q**2, abs=1e-12)

    def test_q0_is_ppt(self):
        from remoments import partial_transpose

        ev = hermitian_eigenvalues(partial_transpose(rho_pq(Q0), 2))
        assert ev[-1] >= -1e-10

    def test_q04_is_npt(self):
        from remoments import partial_transpose

        ev = hermitian_eigenvalues(partial_transpose(rho_pq(0.4), 2))
        assert ev[-1] < -1e-6

    def test_q_zero_rank_four(self):
        ev = hermitian_eigenvalues(rho_pq(0.0).matrix)
        assert np.allclose(ev[:4], 0.25, atol=1e-12)
        assert np.allclose(ev[4:], 0.0, atol=1e-12)

    def test_domain_gate(self):
        with pytest.raises(ValueError):
            rho_pq(-0.01)
        with pytest.raises(ValueError):
            rho_pq(0.51)


class TestGhzW:
    def test_pure_endpoints(self):
        assert ghz_w(1.0).purity() == pytest.approx(1.0, abs=1e-12)
        assert ghz_w(0.0).purity() == pytest.approx(1.0, abs=1e-12)

    def test_purity_curve(self):
        # GHZ and W are orthogonal, so trace(rho^2) = q^2 + (1-q)^2
        for q in (0.25, 0.5, 0.7):
            assert ghz_w(q).purity() == pytest.approx(q**2 + (1 - q) ** 2, abs=1e-12)

    def test_ghz_w_overlap_zero(self):
        g = ghz_w(1.0).matrix
        w = ghz_w(0.0).matrix
        assert np.trace(g @ w) == pytest.approx(0.0, abs=1e-15)

    def test_domain_gate(self):
        with pytest.raises(ValueError):
            ghz_w(1.01)


class TestNoisyGhz4:
    def test_x_zero_is_maximally_mixed(self):
        assert np.allclose(noisy_ghz4(0.0).matrix, np.eye(16) / 16)

    def test_x_one_is_pure(self):
        dm = noisy_ghz4(1.0)
        assert dm.purity() == pytest.approx(1.0, abs=1e-12)
        assert dm.matrix[0, 15] == pytest.approx(0.5)

    def test_spectrum_at_half(self):
        ev = hermitian_eigenvalues(noisy_ghz4(0.5).matrix)
        assert ev[0] == pytest.approx(0.5 / 16 + 0.5, rel=1e-12)
        assert np.allclose(ev[1:], 0.5 / 16, atol=1e-12)

    def test_domain_gate(self):
        with pytest.raises(ValueError):
            noisy_ghz4(-0.1)


class TestSampleSeparable:
    def test_deterministic(self):
        a = sample_separable((2, 2), 3, 42)
        b = sample_separable((2, 2), 3, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seeds_differ(self):
        a = sample_separable((2, 2), 3, 1)
        b = sample_separable((2, 2), 3, 2)
        assert not np.allclose(a.matrix, b.matrix)

    def test_single_term_is_pure(self):
        dm = sample_separable((2, 2), 1, 7)
        assert dm.purity() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_always_valid(self, seed):
        dm = sample_separable((2, 3), 3, seed)
        assert validate(dm) is dm

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            sample_separable((2, 2), 0, 0)


class TestPurityBounds:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("rho_d", np.linspace(RHO_D_MIN, RHO_D_MAX, 7)),
            ("rho_eps", [0.3, 0.9, 1.0, 2.5]),
            ("rho_pq", [0.0, 0.1, Q0, 0.5]),
            ("ghz_w", [0.0, 0.4, 1.0]),
            ("noisy_ghz4", [0.0, 0.3, 1.0]),
        ],
    )
    def test_purity_in_range(self, family, params):
        for x in params:
            dm = FAMILIES[family](float(x))
            d = float(np.prod(dm.dims))
            assert 1 / d - 1e-12 <= dm.purity() <= 1 + 1e-12


class TestJsonFormat:
    def test_round_trip_exact(self, tmp_path):
        dm = rho_pq(Q0)
        path = tmp_path / "state.json"
        save_state(path, dm)
        back = load_state(path)
        assert back.dims == dm.dims
        assert np.array_equal(back.matrix, dm.matrix)

    def test_schema(self, tmp_path):
        dm = sample_separable((2, 2), 2, 5)
        path = tmp_path / "state.json"
        save_state(path, dm)
        raw = json.loads(path.read_text())
        assert sorted(raw) == ["dims", "matrix"]
        assert raw["dims"] == [2, 2]
        assert len(raw["matrix"]) == 4
        assert len(raw["matrix"][0]) == 4
        re, im = raw["matrix"][0][1]
        assert complex(re, im) == dm.matrix[0, 1]

    def test_dict_round_trip(self):
        dm = ghz_w(0.3)
        assert np.array_equal(from_json_dict(to_json_dict(dm)).matrix, dm.matrix)

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": [2, 2]},
            {"matrix": [[[1.0, 0.0]]]},
            {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]]]},
            {"dims": [2], "matrix": "nope"},
            {"dims": [2], "matrix": [[[1.0], [0.0]], [[0.0], [0.0]]]},
            {"dims": [2.5], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"dims": [True, True], "matrix": [[[1.0, 0.0]]]},
            {"dims": ["2"], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ValueError):
            from_json_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([2, 2], "state JSON must be an object with 'dims' and 'matrix'"),
            ("state", "state JSON must be an object with 'dims' and 'matrix'"),
            ({"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}, "row 1 has 1 entries, expected 2"),
            ({"dims": [2], "matrix": [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, "row 0 has 1 entries, expected 2"),
        ],
    )
    def test_malformed_messages(self, payload, message):
        with pytest.raises(ValueError) as info:
            from_json_dict(payload)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", ["00", ["0.25", "0"], [0.25, False], [0.0, 0.0, 7.0]])
    def test_entry_must_be_two_numbers(self, entry):
        """A string, string numbers, a bool or a third number in an entry is malformed, as in dims."""
        matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], entry]]
        with pytest.raises(ValueError) as info:
            from_json_dict({"dims": [2], "matrix": matrix})
        assert type(info.value) is ValueError
        assert str(info.value) == "entry (1, 1) must be a list of two numbers [re, im]"

    def test_entry_of_ints_is_read(self):
        assert from_json_dict({"dims": [1], "matrix": [[[1, 0]]]}).matrix[0, 0] == 1.0


def test_families_registry():
    """FAMILIES is built from the spec names, in their order, each mapped to its one-state constructor."""
    assert list(FAMILIES) == list(states._FAMILY_SPECS) == ["rho_d", "rho_eps", "rho_pq", "ghz_w", "noisy_ghz4"]
    for name, fn in FAMILIES.items():
        assert fn is getattr(states, name)
        with pytest.raises(DomainError, match=f"^{name} requires "):  # -1 is off every family's domain
            fn(-1.0)
