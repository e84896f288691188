"""Tests for states, channels, and spectral utilities."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from qpriv import errors
from qpriv import quantum_core as qc

import _frame_search as fs


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


class TestPositivePart:
    def test_eigenvalue_sign_split(self):
        out = qc.positive_part(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(qc.positive_part(np.zeros((3, 3))), 0.0, atol=1e-15)

    def test_matches_absolute_value_oracle(self):
        """(A)_+ must equal (A + sqrt(A^2)) / 2 with an independent sqrtm."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_hermitian(rng, 3)
            oracle = 0.5 * (a + sla.sqrtm(a @ a))
            np.testing.assert_allclose(qc.positive_part(a), oracle, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NonHermitian):
            qc.positive_part(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_decomposition_and_trace_identities(self):
        """A = (A)_+ - (-A)_+ and Tr[(A)_+] = (||A||_1 + Tr A) / 2."""
        rng = np.random.default_rng(8)
        for dim in (2, 3, 4):
            for _ in range(50):
                a = random_hermitian(rng, dim)
                plus = qc.positive_part(a)
                minus = qc.positive_part(-a)
                np.testing.assert_allclose(plus - minus, a, atol=1e-12)
                nuc = np.sum(np.abs(np.linalg.eigvalsh(a)))
                expected = 0.5 * (nuc + np.trace(a).real)
                assert np.trace(plus).real == pytest.approx(expected, abs=1e-12)


class TestMatrixGeometricMean:
    def test_idempotence(self):
        rng = np.random.default_rng(3)
        a = qc.random_density_matrix(3, seed=rng).entries
        np.testing.assert_allclose(qc.matrix_geometric_mean(a, a), a, atol=1e-9)

    def test_commuting_diagonal_case(self):
        a = np.diag([1.0, 4.0, 0.25])
        b = np.diag([4.0, 1.0, 1.0])
        expected = np.diag(np.sqrt(np.diag(a) * np.diag(b)))
        np.testing.assert_allclose(qc.matrix_geometric_mean(a, b), expected, atol=1e-8)

    def test_matches_definition_oracle(self):
        """Direct formula with scipy sqrtm/inv as the independent route."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = qc.random_density_matrix(2, seed=rng).entries + 0.1 * np.eye(2)
            b = qc.random_density_matrix(2, seed=rng).entries + 0.1 * np.eye(2)
            ra = sla.sqrtm(a)
            rai = np.linalg.inv(ra)
            oracle = ra @ sla.sqrtm(rai @ b @ rai) @ ra
            np.testing.assert_allclose(qc.matrix_geometric_mean(a, b), oracle, atol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4):
            a = qc.random_density_matrix(dim, seed=rng).entries
            b = qc.random_density_matrix(dim, seed=rng).entries
            left = qc.matrix_geometric_mean(a, b)
            right = qc.matrix_geometric_mean(b, a)
            assert np.max(np.abs(left - right)) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            qc.matrix_geometric_mean(np.eye(2), np.eye(3))


class TestPurePairSpectrum:
    def test_orthogonal_states(self):
        psi = qc.PureState([1.0, 0.0])
        phi = qc.PureState([0.0, 1.0])
        spec = qc.pure_pair_spectrum(psi, phi, 2.0)
        assert spec.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert spec.lambda2 == pytest.approx(2.0, abs=1e-12)

    def test_identical_states(self):
        psi = qc.PureState([1.0, 0.0])
        spec = qc.pure_pair_spectrum(psi, psi, 1.0)
        assert spec.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert spec.lambda2 == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap_matches_dense_eigensolver(self):
        """F = 0.5, gamma = 1: top eigenvalue is sqrt(2)/2."""
        psi = qc.PureState([1.0, 0.0])
        phi = qc.PureState([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
        spec = qc.pure_pair_spectrum(psi, phi, 1.0)
        assert spec.lambda1 == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        dense_top = np.linalg.eigvalsh(psi.projector() - phi.projector())[-1]
        assert spec.lambda1 == pytest.approx(dense_top, abs=1e-12)

    def test_invalid_gamma(self):
        psi = qc.PureState([1.0, 0.0])
        with pytest.raises(errors.InvalidGamma):
            qc.pure_pair_spectrum(psi, psi, 0.5)

    def test_reconstruction_random_sweep(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 4):
            for _ in range(1000):
                psi = qc.random_pure_state(dim, rng)
                phi = qc.random_pure_state(dim, rng)
                gamma = float(rng.uniform(1.0, 5.0))
                spec = qc.pure_pair_spectrum(psi, phi, gamma)
                assert np.max(np.abs(spec.reconstruction_residual())) < 1e-10
                assert spec.lambda1 - spec.lambda2 == pytest.approx(
                    1.0 - gamma, abs=1e-10
                )


class TestChannels:
    def test_depolarizing_identity_at_zero(self):
        rng = np.random.default_rng(1)
        rho = qc.random_density_matrix(3, seed=rng)
        out = qc.apply(qc.depolarizing_channel(3, 0.0), rho)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)

    def test_depolarizing_constant_at_one(self):
        rng = np.random.default_rng(2)
        rho = qc.random_density_matrix(3, seed=rng)
        out = qc.apply(qc.depolarizing_channel(3, 1.0), rho)
        np.testing.assert_allclose(out.entries, np.eye(3) / 3, atol=1e-12)

    def test_depolarizing_halfway_qubit(self):
        rho = qc.DensityMatrix(np.diag([1.0, 0.0]))
        out = qc.apply(qc.depolarizing_channel(2, 0.5), rho)
        np.testing.assert_allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-12)

    def test_depolarizing_invalid_probability(self):
        with pytest.raises(errors.InvalidProbability):
            qc.depolarizing_channel(2, 1.5)

    def test_measurement_channel_extremes(self):
        rng = np.random.default_rng(3)
        rho = qc.random_density_matrix(2, seed=rng)
        top = qc.apply(qc.measurement_channel_two_outcome(np.eye(2)), rho)
        np.testing.assert_allclose(top.entries, np.diag([1.0, 0.0]), atol=1e-12)
        bottom = qc.apply(qc.measurement_channel_two_outcome(np.zeros((2, 2))), rho)
        np.testing.assert_allclose(bottom.entries, np.diag([0.0, 1.0]), atol=1e-12)

    def test_measurement_channel_classical_readout(self):
        omega = qc.DensityMatrix(np.diag([0.7, 0.3]))
        chan = qc.measurement_channel_two_outcome(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            qc.apply(chan, omega).entries, np.diag([0.7, 0.3]), atol=1e-12
        )

    def test_measurement_channel_rejects_non_effect(self):
        with pytest.raises(errors.NotAnEffect):
            qc.measurement_channel_two_outcome(np.diag([1.5, 0.0]))

    def test_compose_with_identity(self):
        rng = np.random.default_rng(4)
        chan = qc.random_channel(2, 3, 2, rng)
        ident = qc.KrausChannel((np.eye(3),))
        composed = qc.compose(ident, chan)
        rho = qc.random_density_matrix(2, seed=rng)
        np.testing.assert_allclose(
            qc.apply(composed, rho).entries, qc.apply(chan, rho).entries, atol=1e-12
        )

    def test_depolarizing_composition_law(self):
        """Dep_p after Dep_q acts like Dep_{p + q - pq} on a Hermitian basis."""
        p, q = 0.3, 0.45
        composed = qc.compose(qc.depolarizing_channel(2, p), qc.depolarizing_channel(2, q))
        merged = qc.depolarizing_channel(2, p + q - p * q)
        for basis in (
            np.diag([1.0, 0.0]),
            np.diag([0.0, 1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2),
            np.array([[0.0, -1j], [1j, 0.0]]) / math.sqrt(2),
        ):
            np.testing.assert_allclose(
                composed.apply_matrix(basis), merged.apply_matrix(basis), atol=1e-12
            )

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(5)
        meas = qc.measurement_channel_two_outcome(qc.random_density_matrix(3, seed=rng).entries)
        dep = qc.depolarizing_channel(2, 0.4)
        composed = qc.compose(dep, meas)
        rho = qc.random_density_matrix(3, seed=rng)
        sequential = qc.apply(dep, qc.apply(meas, rho))
        np.testing.assert_allclose(
            qc.apply(composed, rho).entries, sequential.entries, atol=1e-12
        )

    def test_compose_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            qc.compose(qc.depolarizing_channel(3, 0.1), qc.depolarizing_channel(2, 0.1))

    def test_apply_identity(self):
        rng = np.random.default_rng(6)
        rho = qc.random_density_matrix(4, seed=rng)
        ident = qc.KrausChannel((np.eye(4),))
        np.testing.assert_allclose(qc.apply(ident, rho).entries, rho.entries, atol=1e-14)

    def test_replacement_channel_replaces(self):
        rng = np.random.default_rng(7)
        omega = qc.random_density_matrix(2, seed=rng)
        chan = qc.replacement_channel(omega, dim_in=3)
        rho = qc.random_density_matrix(3, seed=rng)
        np.testing.assert_allclose(qc.apply(chan, rho).entries, omega.entries, atol=1e-12)

    def test_apply_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            qc.apply(qc.depolarizing_channel(2, 0.1), qc.random_density_matrix(3, seed=0))

    def test_all_constructors_trace_preserving(self):
        rng = np.random.default_rng(8)
        channels = [
            qc.depolarizing_channel(3, 0.37),
            qc.measurement_channel_two_outcome(qc.random_density_matrix(4, seed=rng).entries),
            qc.random_channel(3, 2, 4, rng),
            qc.replacement_channel(qc.random_density_matrix(2, seed=rng)),
        ]
        channels.append(qc.compose(qc.depolarizing_channel(2, 0.2), channels[1]))
        for chan in channels:
            resolv = sum(k.conj().T @ k for k in chan.kraus)
            assert np.max(np.abs(resolv - np.eye(chan.dim_in))) < 1e-10


# (dim_in, dim_out, k) with dim_in != dim_out and k in {1, 3, 2 dim_in dim_out};
# k = 1 has no isometry when dim_out < dim_in.
_KRAUS_APPLY_CASES = [
    (2, 3, 1), (2, 3, 3), (2, 3, 12), (3, 5, 1), (3, 5, 3), (3, 5, 30), (4, 2, 3), (4, 2, 16)
]


class TestKrausApply:
    """Kraus form is the only representation; its apply against a dense transfer oracle."""

    @pytest.mark.parametrize("d_in, d_out, k", _KRAUS_APPLY_CASES)
    def test_apply_matrix_matches_dense_transfer(self, d_in, d_out, k):
        rng = np.random.default_rng(100 * d_in + 10 * d_out + k)
        chan = qc.random_channel(d_in, d_out, k, rng)
        transfer = fs.transfer_matrix(chan)
        rho, sigma = (qc.random_density_matrix(d_in, seed=rng) for _ in range(2))
        inputs = [
            rho.entries - sigma.entries,  # Hermitian, not PSD, as fairness_distance passes
            rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in)),
        ]
        for x in inputs:
            dense = (transfer @ x.reshape(-1)).reshape(d_out, d_out)
            np.testing.assert_allclose(chan.apply_matrix(x), dense, rtol=0.0, atol=1e-12)

    def test_d64_channel_builds_without_a_transfer_matrix(self):
        """A 4096 x 4096 complex transfer matrix alone would take 256 MB."""
        tracemalloc.start()
        try:
            qc.random_channel(64, 64, 4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _ref_weyl(dim):
    """X^a Z^b for a, b < dim, a-major, by repeated products: the loop builder kept as reference."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(dim))
    ops = []
    xa = np.eye(dim, dtype=complex)
    for _ in range(dim):
        zb = np.eye(dim, dtype=complex)
        for _ in range(dim):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return ops


def _ref_depolarizing(dim, p):
    weyl = _ref_weyl(dim)
    kraus = [np.sqrt(max(1.0 - p + p / dim**2, 0.0)) * weyl[0]]
    if p > 0.0:
        kraus.extend(np.sqrt(p) / dim * w for w in weyl[1:])
    return np.stack(kraus)


def _ref_measurement(effect):
    w, v = np.linalg.eigh(0.5 * (effect + effect.conj().T))
    e0, e1 = np.eye(2, dtype=complex)[:, :1], np.eye(2, dtype=complex)[:, 1:]
    kraus = []
    for wi, vec in zip(np.clip(w, 0.0, 1.0), v.T):
        bra = vec.conj()[None, :]
        if wi > 1e-14:
            kraus.append(np.sqrt(wi) * (e0 @ bra))
        if 1.0 - wi > 1e-14:
            kraus.append(np.sqrt(1.0 - wi) * (e1 @ bra))
    return np.stack(kraus)


def _ref_replacement(target, dim_in):
    w, v = np.linalg.eigh(0.5 * (target + target.conj().T))
    kraus = []
    for wi, vec in zip(np.clip(w, 0.0, None), v.T):
        if wi <= 1e-14:
            continue
        for j in range(dim_in):
            k = np.zeros((target.shape[0], dim_in), dtype=complex)
            k[:, j] = np.sqrt(wi) * vec
            kraus.append(k)
    return np.stack(kraus)


def _assert_frozen_stack(stack, shape):
    assert isinstance(stack, np.ndarray) and stack.shape == shape and stack.dtype == complex
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 5.0


class TestOperatorStacks:
    """A channel is one (k, d_out, d_in) Kraus stack and a POVM one (n, d, d) effect stack."""

    @pytest.mark.parametrize("wrap", [tuple, list, np.array])
    def test_any_sequence_becomes_one_frozen_stack(self, wrap):
        ops = qc.random_channel(3, 2, 4, seed=1).kraus.copy()
        chan = qc.KrausChannel(wrap(list(ops)))
        _assert_frozen_stack(chan.kraus, (4, 2, 3))
        assert (chan.dim_in, chan.dim_out) == (3, 2)
        assert chan.kraus.tobytes() == ops.tobytes()
        effects = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        povm = qc.Povm(wrap(effects))
        _assert_frozen_stack(povm.effects, (3, 3, 3))
        assert povm.dim == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_compose_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        before = qc.random_channel(4, 3, 2, rng)
        after = qc.random_channel(3, 2, 3, rng)
        oracle = np.stack([a @ b for a in after.kraus for b in before.kraus])
        np.testing.assert_array_equal(qc.compose(after, before).kraus, oracle)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_measurement_and_replacement_match_loop_builders_bytewise(self, dim):
        rng = np.random.default_rng(40 + dim)
        effects = [np.diag([1.0] + [0.0] * (dim - 1)), np.eye(dim) / 2, np.zeros((dim, dim))]
        for _ in range(3):
            m = qc.random_density_matrix(dim, seed=rng).entries
            effects += [m, m / np.linalg.eigvalsh(m)[-1]]
        for effect in effects:
            built = qc.measurement_channel_two_outcome(effect).kraus
            assert built.tobytes() == _ref_measurement(effect).tobytes()
        for rank in range(1, dim + 1):
            target = qc.random_density_matrix(dim, rank, rng)
            for dim_in in (None, 1, 3):
                built = qc.replacement_channel(target, dim_in).kraus
                ref = _ref_replacement(target.entries, dim if dim_in is None else dim_in)
                assert built.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_matches_loop_builder(self, p):
        """Bytewise at d = 2; at d >= 3 the phases are exact powers, not repeated products."""
        assert qc.depolarizing_channel(2, p).kraus.tobytes() == _ref_depolarizing(2, p).tobytes()
        for dim in (3, 4, 8):
            np.testing.assert_allclose(
                qc.depolarizing_channel(dim, p).kraus, _ref_depolarizing(dim, p), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("empty", [(), [], np.empty((0, 2, 2))])
    def test_empty_sets_are_not_trace_preserving(self, empty):
        with pytest.raises(errors.NotTracePreserving):
            qc.KrausChannel(empty)
        with pytest.raises(errors.NotTracePreserving):
            qc.Povm(empty)

    @pytest.mark.parametrize(
        "ops", [(np.eye(2), np.eye(3)), (np.eye(2), np.ones(2)), (np.eye(2),) * 2 + ([[1.0]],)]
    )
    def test_ragged_sets_are_dimension_mismatches(self, ops):
        with pytest.raises(errors.DimensionMismatch):
            qc.KrausChannel(ops)
        with pytest.raises(errors.DimensionMismatch):
            qc.Povm(ops)

    @pytest.mark.parametrize(
        "ops", [np.eye(2), np.eye(2)[None, None], np.zeros((1, 2, 0)), np.zeros((1, 0, 0))]
    )
    def test_sets_that_are_not_stacks_of_matrices_are_dimension_mismatches(self, ops):
        with pytest.raises(errors.DimensionMismatch):
            qc.KrausChannel(ops)
        with pytest.raises(errors.DimensionMismatch):
            qc.Povm(ops)

    def test_non_square_effects_are_dimension_mismatches(self):
        with pytest.raises(errors.DimensionMismatch):
            qc.Povm([np.eye(2, 3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_povm_rejected(self, bad):
        with pytest.raises(errors.NonFinite):
            qc.Povm((np.diag([1.0, bad]), np.diag([0.0, 1.0])))

    def test_povm_checks_each_effect_at_its_own_scale(self):
        """An asymmetry of 3e-9 is within tolerance of an effect of norm 5, not of norm 1."""
        skew = np.array([[0.0, 3e-9], [0.0, 0.0]])
        with pytest.raises(errors.NotTracePreserving):  # Hermitian enough; the sum is wrong
            qc.Povm((np.diag([5.0, 0.0]) + skew, np.diag([0.0, 1.0])))
        with pytest.raises(errors.NonHermitian):
            qc.Povm((np.diag([5.0, 0.0]) + skew, np.diag([0.0, 1.0]) + skew))
        with pytest.raises(errors.NotPositiveSemidefinite):
            qc.Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_outcome_probabilities_match_traces(self):
        rng = np.random.default_rng(5)
        raw = [np.outer(v, v.conj()) for v in np.linalg.qr(rng.normal(size=(3, 3)))[0].T]
        povm = qc.Povm(raw)
        rho = qc.random_density_matrix(3, seed=rng).entries
        oracle = [np.trace(e @ rho).real for e in raw]
        np.testing.assert_allclose(povm.outcome_probabilities(rho), oracle, rtol=0, atol=1e-15)


class TestRandomEnsembles:
    def test_dim_one_pure_state(self):
        state = qc.random_pure_state(1, seed=0)
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12

    def test_random_density_matrix_valid(self):
        rng = np.random.default_rng(9)
        for dim, rank in ((2, 1), (3, 2), (4, 4)):
            rho = qc.random_density_matrix(dim, rank, rng)
            w = np.linalg.eigvalsh(rho.entries)
            assert w[0] > -1e-12
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_determinism_across_runs(self):
        a = qc.random_density_matrix(2, seed=42)
        b = qc.random_density_matrix(2, seed=42)
        assert a.entries.tobytes() == b.entries.tobytes()
        c = qc.random_channel(2, 2, 2, seed=42)
        d = qc.random_channel(2, 2, 2, seed=42)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(c.kraus, d.kraus))

    def test_invalid_rank(self):
        with pytest.raises(errors.InvalidRank):
            qc.random_density_matrix(2, rank=3, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-4)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(errors.InvalidParams):
            qc.as_rng(seed)
        with pytest.raises(errors.InvalidParams):
            qc.random_channel(2, 2, 2, seed=seed)

    def test_random_orthogonal_pair(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 5):
            a, b = qc.random_orthogonal_pure_pair(dim, rng)
            assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


class TestTensorPower:
    def test_single_power_is_identity(self):
        rng = np.random.default_rng(10)
        rho = qc.random_density_matrix(3, seed=rng)
        np.testing.assert_allclose(qc.tensor_power(rho, 1).entries, rho.entries)

    def test_maximally_mixed_square(self):
        rho = qc.DensityMatrix(np.diag([0.5, 0.5]))
        np.testing.assert_allclose(
            qc.tensor_power(rho, 2).entries, np.eye(4) / 4, atol=1e-15
        )

    def test_pure_power_is_rank_one(self):
        rho = qc.DensityMatrix(np.diag([1.0, 0.0]))
        cube = qc.tensor_power(rho, 3)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(cube.entries, expected, atol=1e-15)

    def test_budget_guard(self):
        rho = qc.DensityMatrix(np.eye(4) / 4)
        with pytest.raises(errors.DimensionBudgetExceeded):
            qc.tensor_power(rho, 7)


class TestValidation:
    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(errors.InvalidTrace):
            qc.DensityMatrix(np.diag([0.9, 0.2]))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(errors.NotPositiveSemidefinite):
            qc.DensityMatrix(np.diag([1.2, -0.2]))

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(errors.InvalidNorm):
            qc.PureState([1.0, 1.0])

    def test_kraus_channel_rejects_non_tp(self):
        with pytest.raises(errors.NotTracePreserving):
            qc.KrausChannel((0.5 * np.eye(2),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(errors.NonFinite):
            qc.DensityMatrix([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(errors.NonFinite):
            qc.DensityMatrix([[0.5, bad], [bad, 0.5]])
        with pytest.raises(errors.NonFinite):
            qc.KrausChannel((np.eye(2), np.array([[0.0, bad], [0.0, 0.0]])))

    def test_povm_completeness(self):
        with pytest.raises(errors.NotTracePreserving):
            qc.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))

    def test_entries_immutable(self):
        rho = qc.random_density_matrix(2, seed=0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 5.0


class TestJsonInterface:
    def test_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        rho = qc.random_density_matrix(3, seed=rng)
        path = tmp_path / "state.json"
        qc.save_state(rho, path)
        data = json.loads(path.read_text())
        assert set(data) == {"dim", "entries"}
        assert data["dim"] == 3
        assert len(data["entries"]) == 9
        loaded = qc.load_state(path)
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-12)

    def test_channel_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        chan = qc.random_channel(3, 2, 2, rng)
        path = tmp_path / "channel.json"
        qc.save_channel(chan, path)
        data = json.loads(path.read_text())
        assert set(data) == {"dim_in", "dim_out", "kraus"}
        assert data["dim_in"] == 3 and data["dim_out"] == 2
        loaded = qc.load_channel(path)
        rho = qc.random_density_matrix(3, seed=rng)
        np.testing.assert_allclose(
            qc.apply(loaded, rho).entries, qc.apply(chan, rho).entries, atol=1e-12
        )
