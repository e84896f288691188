"""Tests for mechanism construction, certification, and conversions."""

import math

import numpy as np
import pytest

from qpriv import divergences as dv
from qpriv import errors
from qpriv import privacy
from qpriv import quantum_core as qc

import _frame_search as fs

LN3 = math.log(3.0)
PROJ0 = np.diag([1.0, 0.0])
E0 = qc.DensityMatrix(np.diag([1.0, 0.0]))
E1 = qc.DensityMatrix(np.diag([0.0, 1.0]))

SMALL_BUDGET = privacy.SearchBudget(restarts=16, polish_steps=96)


class TestBuildMechanism:
    def test_boundary_weight(self):
        """epsilon = ln 3 puts the depolarizing weight at 2 / (3 + 1)."""
        mech = privacy.build_qldp_mechanism(PROJ0, LN3)
        out = qc.apply(mech, E0)
        np.testing.assert_allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-12)

    def test_epsilon_zero_fully_depolarizes(self):
        mech = privacy.build_qldp_mechanism(PROJ0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rho = qc.random_density_matrix(2, seed=rng)
            out = qc.apply(mech, rho)
            np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_ratio_on_optimal_projector(self):
        """Output trace distance is (e^eps - 1) / (e^eps + 1) of the input."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            w, v = np.linalg.eigh(rho.entries - sigma.entries)
            proj = (v * (w > 0)) @ v.conj().T
            mech = privacy.build_qldp_mechanism(proj, LN3)
            num = dv.trace_distance(qc.apply(mech, rho), qc.apply(mech, sigma))
            den = dv.trace_distance(rho, sigma)
            assert num / den == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_effect(self):
        with pytest.raises(errors.NotAnEffect):
            privacy.build_qldp_mechanism(np.diag([2.0, 0.0]), 1.0)


class TestBuildEpsDeltaMechanism:
    def test_mechanism_weight(self):
        """p = 2 (1 - delta) / (e^eps + 1): 0.4 at (ln 3, 0.2)."""
        assert privacy.mechanism_weight(privacy.PrivacyParams(LN3, 0.2)) == pytest.approx(0.4)
        assert privacy.mechanism_weight(privacy.PrivacyParams(0.0, 0.0)) == 1.0

    def test_delta_zero_matches_pure_mechanism(self):
        params = privacy.PrivacyParams(1.2, 0.0)
        a = privacy.build_eps_delta_mechanism(PROJ0, params)
        b = privacy.build_qldp_mechanism(PROJ0, 1.2)
        rng = np.random.default_rng(2)
        rho = qc.random_density_matrix(2, seed=rng)
        np.testing.assert_allclose(
            qc.apply(a, rho).entries, qc.apply(b, rho).entries, atol=1e-12
        )

    def test_delta_one_is_bare_measurement(self):
        params = privacy.PrivacyParams(1.2, 1.0)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        meas = qc.measurement_channel_two_outcome(PROJ0)
        rng = np.random.default_rng(3)
        rho = qc.random_density_matrix(2, seed=rng)
        np.testing.assert_allclose(
            qc.apply(mech, rho).entries, qc.apply(meas, rho).entries, atol=1e-12
        )

    def test_trace_ratio_with_delta(self):
        """(e^eps - 1 + 2 delta) / (e^eps + 1) = 0.6 at (ln 3, 0.2)."""
        params = privacy.PrivacyParams(LN3, 0.2)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        num = dv.trace_distance(qc.apply(mech, E0), qc.apply(mech, E1))
        assert num == pytest.approx(0.6, abs=1e-12)


class TestCertify:
    def test_built_mechanism_certifies(self):
        mech = privacy.build_qldp_mechanism(PROJ0, LN3)
        result = privacy.certify(mech, privacy.PrivacyParams(LN3, 0.0), SMALL_BUDGET)
        assert result.certified
        assert result.worst_value <= 1e-8

    def test_under_depolarized_mechanism_fails(self):
        """Shaving the weight by 0.01 exposes a positive divergence.

        The two-outcome output ratio bound ln(2/p - 1) exceeds epsilon for
        any p below the boundary weight, so certification must reject.
        """
        p_bad = 2.0 / (math.exp(LN3) + 1.0) - 0.01
        assert math.log(2.0 / p_bad - 1.0) > LN3
        bad = qc.compose(
            qc.depolarizing_channel(2, p_bad), qc.measurement_channel_two_outcome(PROJ0)
        )
        result = privacy.certify(bad, privacy.PrivacyParams(LN3, 0.0), SMALL_BUDGET)
        assert not result.certified
        assert result.worst_value > privacy.TOL_CERT

    def test_replacement_channel_certifies_at_zero(self):
        chan = qc.replacement_channel(qc.DensityMatrix(np.eye(2) / 2))
        result = privacy.certify(chan, privacy.PrivacyParams(0.0, 0.0), SMALL_BUDGET)
        assert result.certified
        assert result.worst_value <= 1e-10

    def test_witness_pair_is_orthogonal(self):
        mech = privacy.build_qldp_mechanism(PROJ0, 1.0)
        result = privacy.certify(mech, privacy.PrivacyParams(1.0, 0.0), SMALL_BUDGET)
        a, b = result.witness_pair
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-9

    def test_worst_value_bounded_for_built_mechanisms(self):
        rng = np.random.default_rng(4)
        for eps, delta in ((0.5, 0.0), (1.0, 0.1), (LN3, 0.3)):
            effect = qc.random_density_matrix(3, seed=rng).entries
            params = privacy.PrivacyParams(eps, delta)
            mech = privacy.build_eps_delta_mechanism(effect, params)
            result = privacy.certify(mech, params, SMALL_BUDGET, seed=rng)
            assert result.certified
            assert result.worst_value <= delta + 1e-8


def _one_dimensional_input(dim_out):
    """The channel 1 -> |0><0| on a dim_out-level output, as one Kraus column."""
    return qc.KrausChannel((np.eye(dim_out, 1),))


class TestOneDimensionalInput:
    """No orthogonal input pair exists, so both routes answer 0 without searching."""

    @pytest.mark.parametrize("dim_out", [2, 3])
    def test_certified_with_worst_value_zero(self, dim_out):
        chan = _one_dimensional_input(dim_out)
        result = privacy.certify(chan, privacy.PrivacyParams(1.0, 0.0), SMALL_BUDGET)
        assert result.certified
        assert result.worst_value == 0.0 and result.iterations == 0

    @pytest.mark.parametrize("dim_out", [2, 3])
    def test_epsilon_is_zero(self, dim_out):
        assert privacy.estimate_epsilon(_one_dimensional_input(dim_out), SMALL_BUDGET) == 0.0


class TestEstimateEpsilon:
    def test_replacement_channel_is_zero(self):
        chan = qc.replacement_channel(qc.DensityMatrix(np.eye(2) / 2))
        assert privacy.estimate_epsilon(chan, SMALL_BUDGET) == pytest.approx(0.0, abs=1e-10)

    def test_pure_replacement_channel_is_zero(self):
        """A pure output makes B(+z) = 0, where the ratio 0/0 must read 1."""
        chan = qc.replacement_channel(qc.DensityMatrix(np.diag([0.0, 1.0])))
        assert privacy.estimate_epsilon(chan, SMALL_BUDGET) == pytest.approx(0.0, abs=1e-10)

    def test_matches_two_outcome_ratio_oracle(self):
        """For Dep_p after a projector readout, the analytic level is ln(2/p - 1)."""
        for p in (0.3, 0.5, 0.8):
            chan = qc.compose(
                qc.depolarizing_channel(2, p),
                qc.measurement_channel_two_outcome(PROJ0),
            )
            est = privacy.estimate_epsilon(chan)
            assert est == pytest.approx(math.log(2.0 / p - 1.0), abs=1e-6)

    def test_identity_channel_reports_infinity(self):
        ident = qc.KrausChannel((np.eye(2),))
        assert math.isinf(privacy.estimate_epsilon(ident, SMALL_BUDGET))

    def test_tight_for_projective_readout_off_axis(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        proj = basis[:, :2] @ basis[:, :2].conj().T
        eps = 0.8
        mech = privacy.build_qldp_mechanism(proj, eps)
        assert privacy.estimate_epsilon(mech) == pytest.approx(eps, abs=1e-6)


def _qubit_output_channels():
    """Seeded qubit-output channels: random maps, private composites and
    readouts depolarized at 0.7 of the weight that epsilon = 1 needs."""
    rng = np.random.default_rng(21)
    p_under = 0.7 * privacy.mechanism_weight(privacy.PrivacyParams(1.0))
    cases = []
    for d in (2, 3, 4, 8, 16):
        cases.append((f"random-{d}", qc.random_channel(d, 2, max(3, d // 2), rng)))
        cases.append((
            f"private-{d}",
            privacy.random_private_channel(d, privacy.PrivacyParams(0.7, 0.05), rng),
        ))
        effect = qc.random_density_matrix(d, seed=rng).entries
        effect = effect / np.linalg.eigvalsh(effect)[-1]
        cases.append((
            f"under-{d}",
            qc.compose(
                qc.depolarizing_channel(2, p_under), qc.measurement_channel_two_outcome(effect)
            ),
        ))
    return cases


QUBIT_OUTPUT = _qubit_output_channels()


def _wider_output_channels():
    """Seeded channels with three- and four-level outputs, the random ones of
    Kraus rank 2 or 3."""
    rng = np.random.default_rng(22)
    cases = [
        (f"random-{d_in}-{d_out}", qc.random_channel(d_in, d_out, k, rng))
        for d_in, d_out, k in ((3, 3, 2), (4, 4, 3), (8, 4, 3))
    ]
    cases.append(("depolarizing-3", qc.depolarizing_channel(3, 0.3)))
    return cases


WIDER_OUTPUT = _wider_output_channels()
EVERY_OUTPUT = QUBIT_OUTPUT + WIDER_OUTPUT


class TestBlochDual:
    """The dual ascent against the frame search and dense oracles."""

    @pytest.mark.parametrize("name, chan", EVERY_OUTPUT, ids=[c[0] for c in EVERY_OUTPUT])
    @pytest.mark.parametrize("epsilon", [0.4, 1.0])
    def test_certify_matches_or_beats_search_and_witness_attains(self, name, chan, epsilon):
        gamma = math.exp(epsilon)
        result = privacy.certify(chan, privacy.PrivacyParams(epsilon), SMALL_BUDGET)
        searched, _, _ = fs.search_orthogonal_pairs(
            chan, fs.objective_hockey(fs.transfer_matrix(chan), gamma), SMALL_BUDGET, 0
        )
        assert result.worst_value >= searched - 1e-12
        a, b = (qc.apply(chan, s.to_density_matrix()) for s in result.witness_pair)
        assert dv.hockey_stick(a, b, gamma) == pytest.approx(result.worst_value, abs=1e-12)

    @pytest.mark.parametrize("name, chan", EVERY_OUTPUT, ids=[c[0] for c in EVERY_OUTPUT])
    def test_estimate_matches_or_beats_search(self, name, chan):
        searched, _, _ = fs.search_orthogonal_pairs(
            chan, fs.objective_dmax(fs.transfer_matrix(chan)), SMALL_BUDGET, 0
        )
        assert privacy.estimate_epsilon(chan, SMALL_BUDGET) >= searched - 1e-12

    def test_seed_is_unused(self):
        chan = QUBIT_OUTPUT[7][1]
        params = privacy.PrivacyParams(0.4)
        a = privacy.certify(chan, params, SMALL_BUDGET, seed=0)
        b = privacy.certify(chan, params, SMALL_BUDGET, seed=5)
        assert (a.worst_value, a.iterations) == (b.worst_value, b.iterations)
        assert privacy.estimate_epsilon(chan, seed=0) == privacy.estimate_epsilon(chan, seed=5)

    def test_d16_plateau_is_rejected(self):
        """The frame search stalls on the E_gamma = 0 plateau of an
        under-depolarized d = 16 readout and reads 0; the dual finds the
        positive value and rejects."""
        chan = QUBIT_OUTPUT[-1][1]
        params = privacy.PrivacyParams(1.0)
        searched, _, _ = fs.search_orthogonal_pairs(
            chan, fs.objective_hockey(fs.transfer_matrix(chan), math.e), privacy.SearchBudget(), 0
        )
        assert searched <= 0.0
        result = privacy.certify(chan, params)
        assert result.worst_value > 0.1
        assert not result.certified


class TestHighEpsilon:
    """Every value is read from A^dag(M) with its terms clipped to [0, 1],
    never from the spectrum of out1 - gamma out2, so none exceeds 1."""

    @pytest.mark.parametrize("epsilon", [1.0, 20.0, 50.0, 300.0, 700.0])
    def test_identity_rejected_with_value_at_most_one(self, epsilon):
        ident = qc.KrausChannel((np.eye(2),))
        result = privacy.certify(ident, privacy.PrivacyParams(epsilon), SMALL_BUDGET)
        assert result.worst_value <= 1.0 + 1e-12
        assert not result.certified

    @pytest.mark.parametrize("epsilon", [1.0, 20.0, 50.0, 300.0, 700.0])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_wider_identity_rejected_with_value_at_most_one(self, dim, epsilon):
        ident = qc.KrausChannel((np.eye(dim),))
        result = privacy.certify(ident, privacy.PrivacyParams(epsilon), SMALL_BUDGET)
        assert result.worst_value <= 1.0 + 1e-12
        assert not result.certified

    @pytest.mark.parametrize("epsilon", [1.0, 20.0, 50.0, 300.0, 700.0])
    def test_mechanism_certified_at_its_own_epsilon(self, epsilon):
        """Built at eps, the weight p/2 = 1/(e^eps + 1) is far below 1e-16 for
        large eps; it must survive in B(+-z), or E_gamma reads 1."""
        mech = privacy.build_qldp_mechanism(PROJ0, epsilon)
        result = privacy.certify(mech, privacy.PrivacyParams(epsilon), SMALL_BUDGET)
        assert result.certified
        assert result.worst_value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("epsilon", [1.0, 20.0, 50.0, 300.0, 700.0])
    def test_pure_mechanism_certified_at_every_larger_epsilon(self, epsilon):
        mech = privacy.build_qldp_mechanism(PROJ0, 1.0)
        result = privacy.certify(mech, privacy.PrivacyParams(epsilon), SMALL_BUDGET)
        assert result.certified
        assert result.worst_value == pytest.approx(0.0, abs=1e-15)


class TestWiderOutputs:
    """The dual ascent on outputs wider than a qubit, against closed forms."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("dim", [3, 4, 8, 16])
    def test_depolarizing_matches_closed_forms(self, dim, p):
        """For Dep_p on d levels, orthogonal pure inputs give outputs with
        eigenvalues 1 - p + p/d, p/d and 0 else; so the worst E_{e^eps} is
        max(0, 1 - p + p (1 - e^eps) / d) and the level is ln(1 + d (1 - p) / p)."""
        chan = qc.depolarizing_channel(dim, p)
        for epsilon in (0.5, 1.0):
            result = privacy.certify(chan, privacy.PrivacyParams(epsilon))
            expected = max(0.0, 1.0 - p + p * (1.0 - math.exp(epsilon)) / dim)
            assert result.worst_value == pytest.approx(expected, abs=1e-12)
        level = math.log1p(dim * (1.0 - p) / p)
        assert privacy.estimate_epsilon(chan) == pytest.approx(level, rel=1e-12)

    def test_rank_deficient_channel_has_no_finite_epsilon(self):
        """Kraus rank 3 < 8: some input maps to a pure output whose support
        another, orthogonal input's output misses."""
        chan = qc.random_channel(8, 3, 3, seed=10)
        assert math.isinf(privacy.estimate_epsilon(chan))

    def test_rank_deficient_channel_rejected_at_full_value(self):
        chan = qc.random_channel(8, 3, 3, seed=10)
        result = privacy.certify(chan, privacy.PrivacyParams(5.0))
        assert result.worst_value >= 1.0 - 1e-12
        assert not result.certified


class TestPurifyDp:
    def test_delta_zero_keeps_epsilon(self):
        mech = privacy.build_qldp_mechanism(PROJ0, 1.0)
        _, eps_prime = privacy.purify_dp(mech, 0.5, privacy.PrivacyParams(1.0, 0.0))
        assert eps_prime == pytest.approx(1.0, abs=1e-15)

    def test_eta_near_one_endpoint(self):
        mech = privacy.build_eps_delta_mechanism(PROJ0, privacy.PrivacyParams(1.0, 0.2))
        _, eps_prime = privacy.purify_dp(
            mech, 1.0 - 1e-12, privacy.PrivacyParams(1.0, 0.2)
        )
        endpoint = 1.0 + math.log(1.0 + 2.0 * 0.2 * math.exp(-1.0))
        assert eps_prime == pytest.approx(endpoint, abs=1e-9)

    def test_formula_value(self):
        """d = 2, eps = ln 3, delta = 0.1, eta = 0.5 gives ln 3 + ln(1 + 0.4/3)."""
        params = privacy.PrivacyParams(LN3, 0.1)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        purified, eps_prime = privacy.purify_dp(mech, 0.5, params)
        assert eps_prime == pytest.approx(LN3 + math.log(1.0 + 0.4 / 3.0), abs=1e-12)
        assert eps_prime == pytest.approx(1.2237754316221157, abs=1e-9)
        rng = np.random.default_rng(6)
        for _ in range(10):
            omega = qc.random_density_matrix(2, seed=rng)
            drift = dv.trace_distance(qc.apply(mech, omega), qc.apply(purified, omega))
            assert drift <= 0.5 + 1e-12

    def test_invalid_eta(self):
        mech = privacy.build_qldp_mechanism(PROJ0, 1.0)
        with pytest.raises(errors.InvalidEta):
            privacy.purify_dp(mech, 0.0, privacy.PrivacyParams(1.0, 0.0))


class TestRelaxPureDp:
    def test_identity_at_zero_delta(self):
        assert privacy.relax_pure_dp(1.3, 0.0) == privacy.PrivacyParams(1.3, 0.0)

    def test_arithmetic(self):
        assert privacy.relax_pure_dp(1.1, 0.1) == privacy.PrivacyParams(1.0, 0.1)

    def test_round_trip_certifies(self):
        """A mechanism built at eps + delta certifies at (eps, delta)."""
        eps, delta = 0.9, 0.25
        mech = privacy.build_qldp_mechanism(PROJ0, eps + delta)
        relaxed = privacy.relax_pure_dp(eps + delta, delta)
        assert relaxed.epsilon == pytest.approx(eps, abs=1e-12)
        assert relaxed.delta == delta
        result = privacy.certify(mech, relaxed, SMALL_BUDGET)
        assert result.certified

    def test_invalid_params(self):
        with pytest.raises(errors.InvalidParams):
            privacy.relax_pure_dp(0.1, 0.2)


class TestClosureProperties:
    def test_post_processing_closure(self):
        rng = np.random.default_rng(7)
        params = privacy.PrivacyParams(1.0, 0.05)
        for _ in range(50):
            mech = privacy.build_eps_delta_mechanism(
                qc.random_density_matrix(2, seed=rng).entries, params
            )
            post = qc.random_channel(2, int(rng.integers(2, 4)), 2, rng)
            result = privacy.certify(qc.compose(post, mech), params, SMALL_BUDGET, seed=rng)
            assert result.certified

    def test_pre_processing_closure(self):
        rng = np.random.default_rng(8)
        params = privacy.PrivacyParams(0.7, 0.0)
        for _ in range(50):
            mech = privacy.build_qldp_mechanism(
                qc.random_density_matrix(3, seed=rng).entries, params.epsilon
            )
            pre = qc.random_channel(3, 3, 2, rng)
            result = privacy.certify(qc.compose(mech, pre), params, SMALL_BUDGET, seed=rng)
            assert result.certified

    def test_random_private_channel_certifies(self):
        rng = np.random.default_rng(9)
        params = privacy.PrivacyParams(1.0, 0.1)
        for _ in range(10):
            chan = privacy.random_private_channel(3, params, rng)
            result = privacy.certify(chan, params, SMALL_BUDGET, seed=rng)
            assert result.certified


class TestParams:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(errors.InvalidParams):
            privacy.PrivacyParams(-0.1, 0.0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 1e9])
    def test_rejects_epsilon_whose_exponential_overflows(self, epsilon):
        with pytest.raises(errors.InvalidParams):
            privacy.PrivacyParams(epsilon, 0.0)
        assert math.isfinite(math.exp(privacy.PrivacyParams(privacy.EPSILON_MAX).epsilon))

    def test_rejects_bad_delta(self):
        with pytest.raises(errors.InvalidParams):
            privacy.PrivacyParams(1.0, 1.5)
