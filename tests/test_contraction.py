"""Tests for contraction bounds and the empirical scanners."""

import math

import numpy as np
import pytest

from qpriv import _batched as bk
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
        data = ct._sample_chunk(np.random.default_rng(30 + dim), 60, dim)
        data["out1"], data["out2"] = ct._outputs(data, p_mech)
        purity = np.real(np.einsum("nij,nji->n", data["in1"], data["in1"]))
        assert np.any(purity < 1.0 - 1e-9)  # mixed pairs
        assert np.any((purity > 1.0 - 1e-9) & ~data["extremal"])  # pure pairs
        assert np.any(data["extremal"])
        for i in range(60):
            pair = {key: value[i] for key, value in data.items()}
            channel, states = ct._witness(pair, params), ct._witness_states(pair)
            for state, out in zip(states, (pair["out1"], pair["out2"])):
                np.testing.assert_allclose(
                    out, qc.apply(channel, state).entries, rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthogonal_pure_pairs_have_exact_input_references(self, dim):
        """T = 1 and E_gamma = min(1, gamma) on the pairs the scan does not compute."""
        data = ct._sample_chunk(np.random.default_rng(40 + dim), 300, dim)
        pure = ~data["mixed"]
        in1, in2 = data["in1"][pure], data["in2"][pure]
        for gamma in (math.exp(-2.0), 0.5, 1.0, 2.0, math.exp(2.0)):
            np.testing.assert_allclose(
                bk.hockey_stick_ext_batch(in1, in2, gamma), min(1.0, gamma), rtol=0, atol=1e-14
            )
        np.testing.assert_allclose(bk.trace_distance_batch(in1, in2), 1.0, rtol=0, atol=1e-14)


def dense_extreme_ratios(data, spectrum, p_mech, gammas):
    """_extreme_ratios from explicit 2 x 2 outputs and their eigensums: the floored
    numerators, and the eigensums of top - gamma bottom and of bottom - gamma top."""
    g = np.asarray(gammas)[:, None]
    top, bottom = (ct._readout(data["images"], spectrum[:, k], 1.0, p_mech) for k in (-1, 0))
    forward = bk.positive_eigensum(top - g[..., None, None] * bottom)
    backward = bk.positive_eigensum(bottom - g[..., None, None] * top)
    num = np.maximum(forward, backward) - np.maximum(0.0, 1.0 - g)
    num[num <= ct._hockey_floor(g)] = 0.0
    return num, forward, backward


class TestExtremeRatios:
    """Each channel's closed-form trace and hockey-stick coefficient."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("eps", [0.25, 1.0, 2.0, 8.0])
    def test_bloch_form_matches_dense_eigensum(self, dim, eps):
        """The Bloch-form eigensum agrees with explicit outputs within the rounding
        floor, floors the same numerators to 0, and floors all of them at e^+-eps. The
        winning order agrees wherever the two eigensums differ beyond the floor, and
        is top first where both are exactly 0."""
        p_mech = privacy.mechanism_weight(privacy.PrivacyParams(eps))
        grid = np.geomspace(math.exp(-eps), math.exp(eps), 11)
        data = ct._sample_chunk(np.random.default_rng(80 + dim), 2048, dim)
        spectrum = bk._eigvalsh(data["heis"])
        ratio, top_first = ct._extreme_ratios(data["image_traces"], data["image_bloch"],
                                              spectrum, p_mech, grid)
        num = ratio * np.minimum(1.0, grid)[:, None]
        dense, forward, backward = dense_extreme_ratios(data, spectrum, p_mech, grid)
        floor = ct._hockey_floor(grid)[:, None]
        assert np.all(np.abs(num - dense) <= floor)
        np.testing.assert_array_equal(num == 0.0, dense == 0.0)
        apart = np.abs(forward - backward) > floor
        np.testing.assert_array_equal(top_first[apart], (forward > backward)[apart])
        assert np.all(top_first[(forward == 0.0) & (backward == 0.0)])
        assert not num[[0, -1]].any()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize(
        "eps, gamma", [(1.0, 1.0), (1.0, 1.49), (1.0, 2.23), (2.0, 3.32), (1.0, 0.6), (2.0, 0.3)]
    )
    def test_matches_dual_ascent(self, dim, eps, gamma):
        """Equal to the ascent's worst pair at gamma >= 1; below 1, to the ascent at
        1 / gamma, whose pair attains the closed form in the swapped order."""
        params = privacy.PrivacyParams(eps)
        data = ct._sample_chunk(np.random.default_rng(50 + dim), 1024, dim)
        ratio, _ = ct._extreme_ratios(data["image_traces"], data["image_bloch"],
                                      bk._eigvalsh(data["heis"]), privacy.mechanism_weight(params),
                                      [gamma])
        ratio = ratio[0]
        # the six random composites that contract least: the ascent has most to find there
        picks = np.argsort(np.where(data["extremal"], -1.0, ratio))[-6:]
        assert np.count_nonzero(ratio[picks] > 1e-3) >= 3
        for i in picks:
            assert not data["extremal"][i]
            channel = ct._witness({k: v[i] for k, v in data.items()}, params)
            value, first, second, _ = privacy._dual_ascent(
                channel, privacy.SearchBudget(), 0, max(gamma, 1.0 / gamma)
            )
            assert ratio[i] == pytest.approx(max(value, 0.0), abs=1e-12)
            if gamma < 1.0:
                a, b = (qc.apply(channel, qc.DensityMatrix(np.outer(v, v.conj())))
                        for v in (second, first))
                swapped = dv.hockey_stick_extended(a, b, gamma) / gamma
                assert swapped == pytest.approx(ratio[i], abs=1e-12)

    @pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
    def test_no_sampled_ratio_exceeds_its_channel(self, eps):
        """No sampled input pair of a chunk beats its own channel's closed form."""
        p_mech = privacy.mechanism_weight(privacy.PrivacyParams(eps))
        grid = [float(g) for g in np.geomspace(math.exp(-eps), math.exp(eps), 11)]
        for dim in (2, 3, 4):
            data = ct._sample_chunk(np.random.default_rng(60 + dim), 3072, dim)
            closed, _ = ct._extreme_ratios(data["image_traces"], data["image_bloch"],
                                           bk._eigvalsh(data["heis"]), p_mech, grid)
            out1, out2 = ct._outputs(data, p_mech)
            for k, gamma in enumerate(grid):
                num = bk.hockey_stick_ext_batch(out1, out2, gamma)
                den = bk.hockey_stick_ext_batch(data["in1"], data["in2"], gamma)
                valid = den >= qc.TOL_DENOM
                sampled = num[valid] / den[valid]
                assert np.max(sampled - closed[k][valid]) <= 1e-10, (eps, gamma, dim)

    def test_extremal_members_attain_the_bound(self):
        params = privacy.PrivacyParams(1.0)
        grid = [float(g) for g in np.geomspace(math.exp(-1.0), math.exp(1.0), 11)]
        data = ct._sample_chunk(np.random.default_rng(70), 200, 3)
        closed, _ = ct._extreme_ratios(data["image_traces"], data["image_bloch"],
                                       bk._eigvalsh(data["heis"]), privacy.mechanism_weight(params),
                                       grid)
        for k, gamma in enumerate(grid):
            bound = ct.bound_hockey_stick(1.0, gamma)
            np.testing.assert_allclose(closed[k][data["extremal"]], bound, rtol=0, atol=1e-13)
            assert np.all(closed[k] <= bound + 1e-13)


class TestScanRows:
    def test_each_row_equals_its_own_scan(self):
        """Rows scored on one shared ensemble equal their one-row scans bit for bit."""
        dims, trials, seed, kl = (2, 3, 4), 300, 31, dv.kl_function()
        eps1 = privacy.PrivacyParams(1.0)
        grid = [float(g) for g in np.geomspace(math.exp(-1.0), math.exp(1.0), 5)]
        alone = [
            ("trace", eps1, None),
            ("trace", privacy.PrivacyParams(LN3, 0.3), None),
            ("bures", privacy.PrivacyParams(0.5), None),
            ("relent", privacy.PrivacyParams(2.0), None),
            ("f_div", privacy.PrivacyParams(1.0, 0.2), None),
        ]
        rows = alone[:2] + [("hockey", eps1, g) for g in grid] + alone[2:]
        shared = ct._scan_rows(rows, dims, trials, seed, kl, ct.TOL_SCAN)
        expected = [ct.scan(*row, dims, trials, seed, f=kl) for row in alone]
        expected[2:2] = ct.scan_hockey_grid(eps1, grid, dims, trials, seed)
        assert len(shared) == len(expected) == len(rows)
        for got, want in zip(shared, expected):
            assert got.to_dict() == want.to_dict()  # empirical_sup, witness_kind, witness
            assert got.valid_pairs == want.valid_pairs


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

    @pytest.mark.parametrize(
        "divergence_id, gamma", [("trace", None), ("hockey", 0.6), ("hockey", 2.0)]
    )
    def test_closed_form_rows_score_every_channel(self, divergence_id, gamma):
        """Every trial counts, and the witness inputs are orthogonal pure states
        that attain the reported ratio."""
        report = ct.scan(divergence_id, privacy.PrivacyParams(1.0), gamma, trials=900, seed=3)
        assert report.valid_pairs == report.trials == 900
        a, b = (s.entries for s in report.witness_states)
        for x in (a, b):
            assert np.real(np.trace(x @ x)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(a @ b)) <= 1e-12
        g = 1.0 if gamma is None else gamma
        out_a, out_b = (qc.apply(report.witness_channel, s) for s in report.witness_states)
        ratio = dv.hockey_stick_extended(out_a, out_b, g) / min(1.0, g)
        assert ratio == pytest.approx(report.empirical_sup, abs=1e-12)

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

    def test_f_div_scan_skips_a_pair_whose_quadrature_does_not_converge(self):
        """A chi^2 pair past the panel budget is skipped, not fatal to the scan."""
        params = privacy.PrivacyParams(1.0, 0.2)
        report = ct.scan("f_div", params, f=dv.chi2_function(), dims=(2,), trials=20000, seed=2)
        assert report.valid_pairs < report.trials
        assert math.isfinite(report.empirical_sup)

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_f_div_scan_equals_pair_by_pair_scoring(self, delta):
        """The stacked quadrature scores each pair as scalar f_divergence does."""
        params = privacy.PrivacyParams(1.0, delta)
        f, dims, trials, seed = dv.kl_function(), (2, 3, 4), 150, 23
        report = ct.scan("f_div", params, dims=dims, trials=trials, seed=seed, f=f)

        rng = qc.as_rng(seed)
        best, kind, valid = -math.inf, None, 0
        for j, dim in enumerate(dims):
            budget = trials // len(dims) + (trials % len(dims) if j == 0 else 0)
            for done in range(0, budget, ct._CHUNK):
                data = ct._sample_chunk(rng, min(ct._CHUNK, budget - done), dim)
                data["out1"], data["out2"] = ct._outputs(data, privacy.mechanism_weight(params))
                for i, extremal in enumerate(data["extremal"]):
                    num = dv.f_divergence(data["out1"][i], data["out2"][i], f)
                    a, b = data["in1"][i], data["in2"][i]
                    den = dv.f_divergence(a, b, f) if delta > 0.0 else dv.trace_distance(a, b)
                    if den < qc.TOL_DENOM or not math.isfinite(num):
                        continue
                    valid += 1
                    if num / den > best:
                        best = num / den
                        kind = "extremal_mechanism" if extremal else "random_composite"
        assert report.empirical_sup == pytest.approx(best, abs=1e-12)
        assert report.valid_pairs == valid
        assert report.witness_kind == kind

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
        """A scan builds no witness channel; a report builds one, on its first access."""
        built = []
        witness = ct._witness

        def counting(*args):
            built.append(args)
            return witness(*args)

        monkeypatch.setattr(ct, "_witness", counting)
        params = privacy.PrivacyParams(1.0, 0.0)
        grid = np.geomspace(math.exp(-1.0), math.exp(1.0), 11)
        reports = ct.scan_hockey_grid(params, grid, trials=3000, seed=25)
        reports.append(ct.scan("trace", params, trials=3000, seed=26))
        assert built == []
        for report in reports:
            report.to_dict(include_witness=False)
        assert built == []
        for k, report in enumerate(reports, start=1):
            first = report.witness_channel
            assert len(built) == k
            assert report.witness_channel is first
            report.to_dict()
            assert len(built) == k

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
