"""Tests for fairness certificates and Holevo-information stability."""

import itertools
import math

import numpy as np
import pytest

from qpriv import applications as app
from qpriv import contraction as ct
from qpriv import divergences as dv
from qpriv import errors
from qpriv import privacy
from qpriv import quantum_core as qc

LN3 = math.log(3.0)
PROJ0 = np.diag([1.0, 0.0])
QUBIT_POVM = qc.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
IDENT2 = qc.KrausChannel((np.eye(2),))


def random_povm(rng, dim, outcomes):
    blocks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for _ in range(outcomes)]
    raw = [b @ b.conj().T for b in blocks]
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    s = (v / np.sqrt(w)) @ v.conj().T
    return qc.Povm(tuple(s @ e @ s for e in raw))


class TestFairnessDistance:
    def test_zero_on_equal_states(self):
        rng = np.random.default_rng(0)
        rho = qc.random_density_matrix(2, seed=rng)
        assert app.fairness_distance(IDENT2, QUBIT_POVM, rho, rho) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_identity_channel_classical_tv(self):
        rho = qc.DensityMatrix(np.diag([0.9, 0.1]))
        sigma = qc.DensityMatrix(np.diag([0.3, 0.7]))
        assert app.fairness_distance(IDENT2, QUBIT_POVM, rho, sigma) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_bounded_by_output_trace_distance(self):
        """Measurement is data processing for the trace distance."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            chan = qc.random_channel(2, 2, 2, rng)
            povm = random_povm(rng, 2, 3)
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            d = app.fairness_distance(chan, povm, rho, sigma)
            t_out = dv.trace_distance(qc.apply(chan, rho), qc.apply(chan, sigma))
            assert d <= t_out + 1e-10

    def test_seminorm_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            chan = qc.random_channel(2, 2, 2, rng)
            povm = random_povm(rng, 2, 3)
            a = qc.random_density_matrix(2, seed=rng)
            b = qc.random_density_matrix(2, seed=rng)
            c = qc.random_density_matrix(2, seed=rng)
            dab = app.fairness_distance(chan, povm, a, b)
            dba = app.fairness_distance(chan, povm, b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            dac = app.fairness_distance(chan, povm, a, c)
            dcb = app.fairness_distance(chan, povm, c, b)
            assert dab <= dac + dcb + 1e-10

    def test_dimension_mismatch(self):
        povm3 = qc.Povm((np.eye(3),))
        rho = qc.random_density_matrix(2, seed=3)
        with pytest.raises(errors.DimensionMismatch):
            app.fairness_distance(IDENT2, povm3, rho, rho)


class TestFairnessCertificate:
    def test_built_mechanism_holds_with_stated_bound(self):
        """At (ln 3, 0) and radius 0.4 the certificate bound is 0.2."""
        params = privacy.PrivacyParams(LN3, 0.0)
        mech = privacy.build_qldp_mechanism(PROJ0, LN3)
        holds, margin = app.fairness_certificate(mech, QUBIT_POVM, params, 0.4)
        assert holds
        assert margin >= 0.0
        assert 0.4 * 0.5 == pytest.approx(0.2)

    def test_delta_one_is_vacuous_but_holds(self):
        params = privacy.PrivacyParams(0.5, 1.0)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        holds, margin = app.fairness_certificate(mech, QUBIT_POVM, params, 0.3)
        assert holds
        assert margin >= 0.0

    def test_replacement_channel_trivially_fair(self):
        params = privacy.PrivacyParams(0.0, 0.0)
        chan = qc.replacement_channel(qc.DensityMatrix(np.eye(2) / 2))
        holds, margin = app.fairness_certificate(chan, QUBIT_POVM, params, 0.5)
        assert holds
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestFairnessCertificateExact:
    @pytest.mark.parametrize("eps, delta", [(LN3, 0.0), (1.0, 0.1), (0.5, 0.3)])
    def test_tight_mechanisms_read_margin_zero(self, eps, delta):
        """The reproduce rows: each output distance is alpha (1 - p), the bound itself,
        so the margin is 0 to rounding and the rounding rule reads it as 0."""
        params = privacy.PrivacyParams(eps, delta)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        holds, margin = app.fairness_certificate(mech, QUBIT_POVM, params, 0.4)
        assert holds is True
        assert margin == 0.0 and type(margin) is float

    @pytest.mark.parametrize("dim", [2, 3])
    def test_margin_is_attained_and_never_beaten(self, dim):
        """The stated pair reaches bound - margin; no sampled pair within alpha exceeds it."""
        rng = np.random.default_rng(20 + dim)
        params, alpha = privacy.PrivacyParams(1.0), 0.3
        for _ in range(5):
            chan = qc.random_channel(dim, 3, 2, rng)
            povm = random_povm(rng, 3, 3)
            holds, margin = app.fairness_certificate(chan, povm, params, alpha)
            distance = alpha * ct.trace_contraction_coefficient(params) - margin
            assert holds == (margin >= -app.FAIRNESS_TOL)
            best = None
            for size in range(4):  # every outcome subset, dense
                for subset in itertools.combinations(povm.effects, size):
                    m = sum(subset, np.zeros((3, 3), dtype=complex))
                    w, v = np.linalg.eigh(sum(k.conj().T @ m @ k for k in chan.kraus))
                    if best is None or w[-1] - w[0] > best[0]:
                        best = (w[-1] - w[0], v[:, -1], v[:, 0])
            tau = np.eye(dim) / dim
            rho, sigma = (alpha * np.outer(x, x.conj()) + (1 - alpha) * tau for x in best[1:])
            assert dv.trace_distance(qc.DensityMatrix(rho), qc.DensityMatrix(sigma)) == (
                pytest.approx(alpha, abs=1e-12)
            )
            reached = app.fairness_distance(chan, povm, rho, sigma)
            assert reached == pytest.approx(distance, abs=1e-12)
            for _ in range(50):
                a, b = (qc.random_density_matrix(dim, seed=rng).entries for _ in range(2))
                t = dv.trace_distance(qc.DensityMatrix(a), qc.DensityMatrix(b))
                b = a + min(1.0, alpha / t) * (b - a)
                assert app.fairness_distance(chan, povm, a, b) <= distance + 1e-12


class TestHolevoInformation:
    def test_zero_for_identical_states(self):
        rng = np.random.default_rng(7)
        rho = qc.random_density_matrix(2, seed=rng)
        ens = app.Ensemble([0.5, 0.5], (rho, rho))
        assert app.holevo_information(ens, IDENT2) == pytest.approx(0.0, abs=1e-12)

    def test_classical_bit(self):
        ens = app.Ensemble(
            [0.5, 0.5],
            (qc.DensityMatrix(np.diag([1.0, 0.0])), qc.DensityMatrix(np.diag([0.0, 1.0]))),
        )
        assert app.holevo_information(ens, IDENT2) == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_relative_entropy_form_oracle(self):
        """Holevo equals sum_x P(x) D(A(rho^x) || average output)."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            states = tuple(qc.random_density_matrix(2, seed=rng) for _ in range(3))
            priors = rng.uniform(0.2, 1.0, 3)
            priors /= priors.sum()
            ens = app.Ensemble(priors, states)
            chan = qc.random_channel(2, 2, 2, rng)
            outs = [qc.apply(chan, s) for s in states]
            avg = qc.DensityMatrix(
                sum(p * o.entries for p, o in zip(priors, outs)), validate=False
            )
            oracle = sum(
                p * dv.relative_entropy(o, avg) for p, o in zip(priors, outs)
            )
            assert app.holevo_information(ens, chan) == pytest.approx(oracle, abs=1e-8)

    def test_bounded_by_log_dimension(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3):
            states = tuple(qc.random_density_matrix(dim, seed=rng) for _ in range(4))
            ens = app.Ensemble(np.full(4, 0.25), states)
            ident = qc.KrausChannel((np.eye(dim),))
            value = app.holevo_information(ens, ident)
            assert 0.0 <= value <= math.log(dim) + 1e-9


class TestVonNeumannEntropy:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dense_spectrum(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(20):
            rho = qc.random_density_matrix(dim, seed=rng)
            w = np.clip(np.linalg.eigvalsh(rho.entries), app.ENTROPY_FLOOR, None)
            dense = -np.sum(w * np.log(w))
            assert app.von_neumann_entropy(rho) == pytest.approx(dense, abs=1e-13)

    def test_maximally_mixed_and_pure_qubits(self):
        assert app.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2.0), abs=1e-15)
        assert app.von_neumann_entropy(PROJ0) == pytest.approx(0.0, abs=1e-13)


class TestHolevoStability:
    def test_zero_epsilon_channel(self):
        mech = privacy.build_qldp_mechanism(PROJ0, 0.0)
        rng = np.random.default_rng(10)
        states = tuple(qc.random_density_matrix(2, seed=rng) for _ in range(3))
        ens = app.Ensemble(np.full(3, 1.0 / 3.0), states)
        holds, value, bound = app.holevo_stability_check(ens, mech, 0.0)
        assert holds
        assert bound == 0.0
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_built_mechanism_random_ensembles(self):
        rng = np.random.default_rng(11)
        mech = privacy.build_qldp_mechanism(PROJ0, 1.0)
        for _ in range(25):
            states = tuple(qc.random_density_matrix(2, seed=rng) for _ in range(4))
            ens = app.Ensemble(np.full(4, 0.25), states)
            holds, value, bound = app.holevo_stability_check(ens, mech, 1.0)
            assert holds
            assert value <= bound + 1e-9

    def test_bound_tighter_than_min_eps_eps_squared(self):
        for eps in np.linspace(0.01, 4.0, 40):
            bound = eps * (math.exp(eps) - 1.0) / (math.exp(eps) + 1.0)
            assert bound <= min(eps, eps * eps / 2.0) + 1e-12

    def test_bound_monotone_in_epsilon(self):
        grid = np.linspace(0.0, 4.0, 41)
        bounds = [e * (math.exp(e) - 1.0) / (math.exp(e) + 1.0) for e in grid]
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))


class TestEnsembleValidation:
    def test_priors_must_sum_to_one(self):
        rho = qc.random_density_matrix(2, seed=12)
        with pytest.raises(errors.InvalidParams):
            app.Ensemble([0.5, 0.6], (rho, rho))

    def test_states_must_share_dimension(self):
        with pytest.raises(errors.DimensionMismatch):
            app.Ensemble(
                [0.5, 0.5],
                (qc.random_density_matrix(2, seed=0), qc.random_density_matrix(3, seed=1)),
            )
