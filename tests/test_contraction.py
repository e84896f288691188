"""Tests for contraction bounds and the empirical scanners."""

import math

import numpy as np
import pytest

from qpriv import contraction as ct
from qpriv import divergences as dv
from qpriv import errors
from qpriv import privacy
from qpriv import quantum_core as qc

LN3 = math.log(3.0)


def witness_ratio(report, f=None):
    """The ratio the report's stored witness channel and states attain."""
    chan = report.witness_channel
    a, b = report.witness_states
    out_a, out_b = qc.apply(chan, a), qc.apply(chan, b)
    if report.divergence_id == "hockey":
        g = report.gamma
        return dv.hockey_stick_extended(out_a, out_b, g) / dv.hockey_stick_extended(a, b, g)
    assert report.divergence_id == "f_div" and report.relative_to == "input_divergence"
    return dv.f_divergence(out_a, out_b, f) / dv.f_divergence(a, b, f)


def extremal_trace_ratio(params, rho, sigma):
    """Ratio achieved by the built mechanism reading the optimal projector."""
    w, v = np.linalg.eigh(rho.entries - sigma.entries)
    proj = (v * (w > 0)) @ v.conj().T
    mech = privacy.build_eps_delta_mechanism(proj, params)
    num = dv.trace_distance(qc.apply(mech, rho), qc.apply(mech, sigma))
    return num / dv.trace_distance(rho, sigma)


class TestBoundHockeyStick:
    def test_gamma_one_matches_trace_coefficient(self):
        for eps in (0.3, 1.0, LN3):
            expected = (math.exp(eps) - 1.0) / (math.exp(eps) + 1.0)
            assert ct.bound_hockey_stick(eps, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_endpoint_is_zero(self):
        assert ct.bound_hockey_stick(1.0, math.exp(1.0)) == 0.0
        assert ct.bound_hockey_stick(1.0, 5.0) == 0.0

    def test_example_value(self):
        assert ct.bound_hockey_stick(LN3, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_below_range_raises(self):
        with pytest.raises(errors.GammaOutOfRange):
            ct.bound_hockey_stick(1.0, 0.2)

    def test_branches_agree_at_one(self):
        eps = 0.9
        upper = ct.bound_hockey_stick(eps, 1.0)
        below = ct.bound_hockey_stick(eps, 1.0 - 1e-12)
        assert upper == pytest.approx(below, abs=1e-10)

    def test_skew_symmetry_maps_branches(self):
        """The gamma < 1 branch is exactly the bound at 1/gamma."""
        eps = 1.3
        for gamma in np.linspace(math.exp(-eps) + 1e-9, 1.0, 13):
            low = ct.bound_hockey_stick(eps, gamma)
            high = ct.bound_hockey_stick(eps, 1.0 / gamma)
            assert low == pytest.approx(high, abs=1e-12)


class TestTraceCoefficient:
    def test_values(self):
        assert ct.trace_contraction_coefficient(privacy.PrivacyParams(LN3)) == pytest.approx(0.5)
        assert ct.trace_contraction_coefficient(privacy.PrivacyParams(0.0)) == 0.0
        assert ct.trace_contraction_coefficient(
            privacy.PrivacyParams(LN3, 0.2)
        ) == pytest.approx(0.6)


class TestAuxiliaryBounds:
    def test_zero_at_zero_epsilon(self):
        assert ct.bound_bures(0.0) == 0.0
        assert ct.bound_relative_entropy(0.0) == 0.0

    def test_bures_example(self):
        assert ct.bound_bures(math.log(4.0)) == pytest.approx(0.4, abs=1e-14)

    def test_bures_tighter_than_dmax_route(self):
        """The direct coefficient beats 2 (e^eps - 1) e^{eps/2} /
        ((e^eps + 1)(e^{eps/2} + 1)) everywhere on a grid."""
        for eps in np.linspace(0.05, 3.0, 25):
            e = math.exp(eps)
            weaker = 2.0 * (e - 1.0) * math.exp(eps / 2.0) / (
                (e + 1.0) * (math.exp(eps / 2.0) + 1.0)
            )
            assert ct.bound_bures(eps) <= weaker + 1e-12


class TestBoundFDivergence:
    def test_zero_for_linear_f(self):
        params = privacy.PrivacyParams(1.0)
        assert ct.bound_f_divergence(params, dv.linear_function()) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_kl_value_matches_relative_entropy_coefficient(self):
        params = privacy.PrivacyParams(LN3)
        value = ct.bound_f_divergence(params, dv.kl_function())
        assert value == pytest.approx(math.log(3.0) / 2.0, abs=1e-14)
        assert value == pytest.approx(ct.bound_relative_entropy(LN3), abs=1e-14)

    def test_delta_one_gives_unit_coefficient(self):
        params = privacy.PrivacyParams(0.8, 1.0)
        assert ct.bound_f_divergence(params, dv.kl_function()) == pytest.approx(1.0)


class TestSampleChunk:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_outputs_match_witness_channel(self, dim, delta):
        """Heisenberg-picture outputs equal the dense channel applied to the inputs."""
        params = privacy.PrivacyParams(1.0, delta)
        p_mech = privacy.mechanism_weight(params)
        data = ct._sample_chunk(np.random.default_rng(30 + dim), 60, dim, p_mech)
        purity = np.real(np.einsum("nij,nji->n", data["in1"], data["in1"]))
        assert np.any(purity < 1.0 - 1e-9)  # mixed pairs
        assert np.any((purity > 1.0 - 1e-9) & ~data["extremal"])  # pure pairs
        assert np.any(data["extremal"])
        for i in range(60):
            pair = {key: value[i] for key, value in data.items()}
            channel, states, kind = ct._witness(pair, params)
            assert kind == ("extremal_mechanism" if pair["extremal"] else "random_composite")
            for state, out in zip(states, (pair["out1"], pair["out2"])):
                np.testing.assert_allclose(
                    out, qc.apply(channel, state).entries, rtol=0, atol=1e-12
                )


class TestScan:
    def test_trace_scan_attains_coefficient(self):
        params = privacy.PrivacyParams(LN3, 0.0)
        report = ct.scan("trace", params, trials=2000, seed=5)
        bound = 0.5
        assert bound - 1e-6 <= report.empirical_sup <= bound + 1e-8
        assert report.witness_kind == "extremal_mechanism"
        assert not report.violation
        # the stored witness reproduces the reported ratio
        chan = report.witness_channel
        a, b = report.witness_states
        ratio = dv.trace_distance(qc.apply(chan, a), qc.apply(chan, b)) / dv.trace_distance(a, b)
        assert ratio == pytest.approx(report.empirical_sup, abs=1e-9)

    def test_hockey_scan_zero_bound_at_endpoint(self):
        params = privacy.PrivacyParams(1.0, 0.0)
        report = ct.scan("hockey", params, gamma=math.exp(1.0), trials=1500, seed=6)
        assert report.empirical_sup <= 1e-8
        assert not report.violation

    def test_bures_scan_no_violation(self):
        params = privacy.PrivacyParams(1.0, 0.0)
        report = ct.scan("bures", params, trials=2000, seed=7)
        assert not report.violation
        assert report.relative_to == "input_trace_distance"

    def test_relent_scan_no_violation(self):
        params = privacy.PrivacyParams(0.5, 0.0)
        report = ct.scan("relent", params, trials=2000, seed=8)
        assert not report.violation

    def test_f_div_scan_no_violation(self):
        params = privacy.PrivacyParams(1.0, 0.0)
        report = ct.scan("f_div", params, trials=120, seed=9, f=dv.kl_function())
        assert not report.violation

    def test_f_div_scan_delta_normalization(self):
        params = privacy.PrivacyParams(1.0, 0.2)
        report = ct.scan("f_div", params, trials=120, seed=10, f=dv.kl_function())
        assert report.relative_to == "input_divergence"
        assert not report.violation
        # a composite witness (pre- and post-processing around the mechanism)
        # reproduces the reported ratio too
        assert report.witness_kind == "random_composite"
        ratio = witness_ratio(report, dv.kl_function())
        assert ratio == pytest.approx(report.empirical_sup, abs=1e-9)

    def test_eps_delta_scan_attains_coefficient(self):
        params = privacy.PrivacyParams(1.0, 0.3)
        report = ct.scan("trace", params, trials=2000, seed=11)
        bound = ct.trace_contraction_coefficient(params)
        assert bound - 1e-6 <= report.empirical_sup <= bound + 1e-8

    def test_gamma_out_of_range(self):
        with pytest.raises(errors.GammaOutOfRange):
            ct.scan("hockey", privacy.PrivacyParams(1.0), gamma=0.1, trials=10)

    def test_forced_violation_flagged_not_raised(self):
        params = privacy.PrivacyParams(1.0, 0.0)
        report = ct.scan("trace", params, trials=500, seed=12, tol_scan=-1.0)
        assert report.violation

    def test_report_serialization(self):
        import json

        params = privacy.PrivacyParams(1.0, 0.0)
        report = ct.scan("trace", params, trials=300, seed=13)
        data = report.to_dict()
        assert data["divergence_id"] == "trace"
        assert "witness_channel" in data and "witness_states" in data
        decoded = json.loads(json.dumps(data))
        chan = qc.channel_from_dict(decoded["witness_channel"])
        assert chan.dim_out == 2
        for blob in decoded["witness_states"]:
            qc.state_from_dict(blob)


class TestScanHockeyGrid:
    @pytest.mark.parametrize("gamma, seed", [(0.7, 21), (1.0, 22), (2.0, 23)])
    def test_one_point_grid_equals_scan(self, gamma, seed):
        params = privacy.PrivacyParams(1.0, 0.0)
        (grid_report,) = ct.scan_hockey_grid(params, [gamma], trials=700, seed=seed)
        report = ct.scan("hockey", params, gamma, trials=700, seed=seed)
        assert grid_report.to_dict() == report.to_dict()
        assert grid_report.valid_pairs == report.valid_pairs
        assert 0 < report.valid_pairs <= report.trials

    def test_witnesses_reproduce_every_grid_ratio(self):
        eps = 1.0
        grid = np.geomspace(math.exp(-eps), math.exp(eps), 11)
        reports = ct.scan_hockey_grid(privacy.PrivacyParams(eps), grid, trials=1500, seed=24)
        for rep in reports:
            assert witness_ratio(rep) == pytest.approx(rep.empirical_sup, abs=1e-9)

    def test_one_witness_built_per_report(self, monkeypatch):
        built = []
        witness = ct._witness

        def counting(*args):
            built.append(args)
            return witness(*args)

        monkeypatch.setattr(ct, "_witness", counting)
        params = privacy.PrivacyParams(1.0, 0.0)
        grid = np.geomspace(math.exp(-1.0), math.exp(1.0), 11)
        ct.scan_hockey_grid(params, grid, trials=3000, seed=25)
        assert len(built) == 11
        ct.scan("trace", params, trials=3000, seed=26)
        assert len(built) == 12

    def test_grid_attains_and_never_violates(self):
        eps = 1.0
        params = privacy.PrivacyParams(eps, 0.0)
        grid = np.geomspace(math.exp(-eps), math.exp(eps), 11)
        reports = ct.scan_hockey_grid(params, grid, trials=2000, seed=14)
        for rep in reports:
            assert not rep.violation
            assert rep.empirical_sup <= rep.theory_bound + 1e-8
            if rep.theory_bound > 0.05:
                assert rep.empirical_sup >= rep.theory_bound - 1e-6


class TestAchievability:
    def test_pure_constraint_grid(self):
        """Built mechanisms attain the trace coefficient on every tested epsilon."""
        rng = np.random.default_rng(15)
        for eps in (0.1, 0.5, 1.0, LN3, 2.0):
            params = privacy.PrivacyParams(eps, 0.0)
            coef = ct.trace_contraction_coefficient(params)
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            assert extremal_trace_ratio(params, rho, sigma) == pytest.approx(
                coef, abs=1e-9
            )

    def test_eps_delta_grid(self):
        rng = np.random.default_rng(16)
        for eps in (0.5, 1.0, LN3):
            for delta in (0.0, 0.1, 0.3):
                params = privacy.PrivacyParams(eps, delta)
                coef = ct.trace_contraction_coefficient(params)
                rho = qc.random_density_matrix(3, seed=rng)
                sigma = qc.random_density_matrix(3, seed=rng)
                assert extremal_trace_ratio(params, rho, sigma) == pytest.approx(
                    coef, abs=1e-9
                )
