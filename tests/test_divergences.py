"""Tests for the distinguishability measures."""

import math

import numpy as np
import pytest

from qpriv import _batched as bk
from qpriv import divergences as dv
from qpriv import errors
from qpriv import quantum_core as qc

RHO = qc.DensityMatrix(np.diag([0.9, 0.1]))
SIGMA = qc.DensityMatrix(np.diag([0.3, 0.7]))


def random_pair(rng, dim):
    return qc.random_density_matrix(dim, seed=rng), qc.random_density_matrix(dim, seed=rng)


class TestTraceDistance:
    def test_zero_on_equal_states(self):
        assert dv.trace_distance(RHO, RHO) == pytest.approx(0.0, abs=1e-14)

    def test_one_on_orthogonal_pure_states(self):
        a = qc.DensityMatrix(np.diag([1.0, 0.0]))
        b = qc.DensityMatrix(np.diag([0.0, 1.0]))
        assert dv.trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_classical_total_variation(self):
        assert dv.trace_distance(RHO, SIGMA) == pytest.approx(0.6, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            dv.trace_distance(RHO, qc.DensityMatrix(np.eye(3) / 3))


class TestFidelityAndBures:
    def test_self_fidelity(self):
        assert dv.fidelity(RHO, RHO) == pytest.approx(1.0, abs=1e-12)
        assert dv.bures_squared(RHO, RHO) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        a = qc.DensityMatrix(np.diag([1.0, 0.0]))
        b = qc.DensityMatrix(np.diag([0.0, 1.0]))
        assert dv.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
        assert dv.bures_squared(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_pure_state_overlap_oracle(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            for _ in range(25):
                psi = qc.random_pure_state(dim, rng)
                phi = qc.random_pure_state(dim, rng)
                overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
                general = dv.fidelity(psi.to_density_matrix(), phi.to_density_matrix())
                assert general == pytest.approx(overlap, abs=1e-10)


class TestHockeyStick:
    def test_zero_on_equal_states(self):
        for gamma in (1.0, 1.5, 3.0):
            assert dv.hockey_stick(RHO, RHO, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_subset_oracle(self):
        """E_2 on the classical pair: max(0, 0.9 - 0.6) + max(0, 0.1 - 1.4)."""
        assert dv.hockey_stick(RHO, SIGMA, 2.0) == pytest.approx(0.3, abs=1e-12)

    def test_orthogonal_pure_states_any_gamma(self):
        a = qc.DensityMatrix(np.diag([1.0, 0.0]))
        b = qc.DensityMatrix(np.diag([0.0, 1.0]))
        for gamma in (1.0, 2.0, 7.5):
            assert dv.hockey_stick(a, b, gamma) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(errors.InvalidGamma):
            dv.hockey_stick(RHO, SIGMA, 0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        for check in (dv.hockey_stick, dv.hockey_stick_extended, dv.skew_symmetry_check):
            with pytest.raises(errors.InvalidGamma):
                check(RHO, SIGMA, gamma)

    def test_agrees_with_trace_distance_at_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = random_pair(rng, 3)
            assert dv.hockey_stick(a, b, 1.0) == pytest.approx(
                dv.trace_distance(a, b), abs=1e-10
            )


class TestHockeyStickExtended:
    def test_gamma_zero(self):
        assert dv.hockey_stick_extended(RHO, SIGMA, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_one_is_trace_distance(self):
        assert dv.hockey_stick_extended(RHO, SIGMA, 1.0) == pytest.approx(0.6, abs=1e-12)

    def test_diagonal_subset_oracle_below_one(self):
        assert dv.hockey_stick_extended(SIGMA, RHO, 0.5) == pytest.approx(0.15, abs=1e-12)


class TestRelativeEntropy:
    def test_zero_on_equal_states(self):
        rng = np.random.default_rng(7)
        rho = qc.random_density_matrix(3, seed=rng)
        assert dv.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_support_violation_is_infinite(self):
        a = qc.DensityMatrix(np.diag([1.0, 0.0]))
        b = qc.DensityMatrix(np.diag([0.0, 1.0]))
        assert math.isinf(dv.relative_entropy(a, b))

    def test_classical_kl_formula(self):
        expected = 0.9 * math.log(3.0) + 0.1 * math.log(1.0 / 7.0)
        assert dv.relative_entropy(RHO, SIGMA) == pytest.approx(expected, abs=1e-12)


class TestMaxRelativeEntropy:
    def test_zero_on_equal_states(self):
        rng = np.random.default_rng(8)
        rho = qc.random_density_matrix(3, seed=rng)
        assert dv.max_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_ratio_oracle(self):
        assert dv.max_relative_entropy(RHO, SIGMA) == pytest.approx(
            math.log(3.0), abs=1e-12
        )

    def test_dual_form_oracle(self):
        """Match the supremum of Tr[M rho] / Tr[M sigma] over random effects
        plus the analytic optimum."""
        rng = np.random.default_rng(9)
        psi = qc.random_pure_state(3, rng)
        rho = psi.to_density_matrix()
        sigma = qc.random_density_matrix(3, seed=rng)
        value = dv.max_relative_entropy(rho, sigma)

        best_ratio = 0.0
        for _ in range(1000):
            basis, _ = np.linalg.qr(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            )
            effect = (basis * rng.uniform(0, 1, 3)) @ basis.conj().T
            num = float(np.real(np.trace(effect @ rho.entries)))
            den = float(np.real(np.trace(effect @ sigma.entries)))
            if den > 1e-12:
                best_ratio = max(best_ratio, num / den)
        assert math.log(best_ratio) <= value + 1e-9

        w, v = np.linalg.eigh(sigma.entries)
        s = (v / np.sqrt(w)) @ v.conj().T
        core_w, core_v = np.linalg.eigh(s @ rho.entries @ s)
        opt_vec = s @ core_v[:, -1]
        opt_vec /= np.linalg.norm(opt_vec)
        opt = np.outer(opt_vec, opt_vec.conj())
        analytic = float(
            np.real(np.trace(opt @ rho.entries)) / np.real(np.trace(opt @ sigma.entries))
        )
        assert value == pytest.approx(math.log(analytic), abs=1e-9)


class TestFDivergence:
    def test_matches_relative_entropy_on_commuting_states(self):
        value = dv.f_divergence(RHO, SIGMA, dv.kl_function())
        assert value == pytest.approx(dv.relative_entropy(RHO, SIGMA), abs=1e-6)

    def test_zero_on_equal_states(self):
        rng = np.random.default_rng(10)
        rho = qc.random_density_matrix(2, seed=rng)
        assert dv.f_divergence(rho, rho, dv.kl_function()) == pytest.approx(0.0, abs=1e-10)

    def test_smoothed_tv_approaches_trace_distance(self):
        rng = np.random.default_rng(11)
        rho, sigma = random_pair(rng, 2)
        t = dv.trace_distance(rho, sigma)
        previous = math.inf
        for width in (1e-1, 1e-2, 1e-3):
            value = dv.f_divergence(rho, sigma, dv.smoothed_tv_function(width))
            gap = abs(value - t)
            assert gap < previous + 1e-12
            previous = gap
        assert previous < 5e-3

    def test_infinite_on_support_violation_superlinear(self):
        a = qc.DensityMatrix(np.diag([1.0, 0.0]))
        b = qc.DensityMatrix(np.diag([0.0, 1.0]))
        assert math.isinf(dv.f_divergence(a, b, dv.kl_function()))

    def test_single_integral_equivalent_form(self):
        """The two-term integral collapses to int_0^inf f''(g) E^ext_g dg."""
        from scipy import integrate

        rng = np.random.default_rng(19)
        f = dv.kl_function()
        for _ in range(5):
            rho, sigma = random_pair(rng, 2)
            two_term = dv.f_divergence(rho, sigma, f)
            r1 = dv.max_relative_entropy(rho, sigma)
            r2 = dv.max_relative_entropy(sigma, rho)

            def integrand(u):
                g = math.exp(u)
                return f.f_pp(g) * dv.hockey_stick_extended(rho, sigma, g) * g

            single, _ = integrate.quad(integrand, -r2 - 1.0, r1, limit=300)
            assert two_term == pytest.approx(single, abs=1e-7)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_matches_scipy_quad_reference(self, dim):
        """Adaptive Gauss-Kronrod panels against scipy's quad, split at the
        generalized eigenvalues of the pair from scipy's own solver."""
        from scipy import integrate, linalg

        rng = np.random.default_rng(100 + dim)
        functions = (dv.kl_function(), dv.chi2_function(),
                     dv.smoothed_tv_function(0.1), dv.smoothed_tv_function(0.01))
        for _ in range(2):
            rho, sigma = random_pair(rng, dim)
            a, b = rho.entries, sigma.entries

            def reference(f, x, y, weight):
                rel = linalg.eigh(x, y, eigvals_only=True)
                upper = math.log(rel[-1])
                cuts = [0.0, *sorted(math.log(r) for r in rel if 1.0 < r < rel[-1]), upper]

                def integrand(u):
                    g = math.exp(u)
                    w = np.linalg.eigvalsh(x - g * y)
                    return weight(f, u) * float(np.sum(np.clip(w, 0.0, None)))

                return sum(
                    integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                    for lo, hi in zip(cuts, cuts[1:])
                )

            for f in functions:
                expected = reference(f, a, b, lambda f, u: f.f_pp(math.exp(u)) * math.exp(u))
                expected += reference(
                    f, b, a, lambda f, u: math.exp(-2.0 * u) * f.f_pp(math.exp(-u))
                )
                assert dv.f_divergence(rho, sigma, f) == pytest.approx(expected, abs=1e-9)

    def test_unreachable_tolerance_raises_within_the_panel_budget(self, monkeypatch):
        rng = np.random.default_rng(21)
        rho, sigma = random_pair(rng, 2)
        evaluated = []
        kronrod = bk._kronrod

        def counted(integrand, owner, lo, hi, chunk):
            # Each panel is evaluated once, and only while its integral is
            # within budget, so each of the pair's two integrals evaluates at
            # most 2 * budget panels.
            evaluated.append(lo.size)
            assert sum(evaluated) <= 4 * bk.QUAD_PANEL_BUDGET, "panel budget ignored"
            return kronrod(integrand, owner, lo, hi, chunk)

        monkeypatch.setattr(bk, "_kronrod", counted)
        with pytest.raises(errors.QuadratureNotConverged):
            dv.f_divergence(rho, sigma, dv.kl_function(), tol=1e-300)
        assert sum(evaluated) > bk.QUAD_PANEL_BUDGET

    def test_convexity_validation(self):
        with pytest.raises(errors.ValidationError):
            dv.ConvexFunction(f=lambda x: -((x - 1.0) ** 2), f_pp=lambda x: -2.0,
                              growth_superlinear=False)
        with pytest.raises(errors.ValidationError):
            dv.ConvexFunction(f=lambda x: x, f_pp=lambda x: 0.0, growth_superlinear=False)
        # f_pp must apply elementwise to the array of gammas.
        for f_pp in (lambda x: np.ones(3), lambda x: math.exp(-x)):
            with pytest.raises(errors.ValidationError):
                dv.ConvexFunction(f=lambda x: x - 1.0, f_pp=f_pp, growth_superlinear=False)


class TestSkewSymmetry:
    def test_gamma_one_is_trace_distance(self):
        lhs, rhs = dv.skew_symmetry_check(RHO, SIGMA, 1.0)
        assert lhs == pytest.approx(0.6, abs=1e-12)
        assert rhs == pytest.approx(0.6, abs=1e-12)

    def test_bernoulli_pair_both_sides(self):
        lhs, rhs = dv.skew_symmetry_check(RHO, SIGMA, 2.0)
        assert lhs == pytest.approx(0.3, abs=1e-12)
        assert rhs == pytest.approx(0.3, abs=1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            rho, sigma = random_pair(rng, 2)
            gamma = float(np.exp(rng.uniform(-3.0, 3.0)))
            lhs, rhs = dv.skew_symmetry_check(rho, sigma, gamma)
            assert abs(lhs - rhs) < 1e-9


class TestSharedInvariants:
    def test_data_processing_inequality(self):
        """Every implemented divergence contracts under every channel."""
        rng = np.random.default_rng(13)
        cheap = (
            dv.trace_distance,
            lambda a, b: dv.hockey_stick(a, b, 1.7),
            dv.bures_squared,
            dv.relative_entropy,
            dv.max_relative_entropy,
        )
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            rho, sigma = random_pair(rng, dim)
            chan = qc.random_channel(dim, int(rng.integers(2, 5)), 2, rng)
            out_r, out_s = qc.apply(chan, rho), qc.apply(chan, sigma)
            for meas in cheap:
                before = meas(rho, sigma)
                after = meas(out_r, out_s)
                if math.isinf(before):
                    continue
                assert after <= before + 1e-8

    def test_data_processing_f_divergence(self):
        rng = np.random.default_rng(14)
        f = dv.kl_function()
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            rho, sigma = random_pair(rng, dim)
            chan = qc.random_channel(dim, 2, 2, rng)
            before = dv.f_divergence(rho, sigma, f)
            after = dv.f_divergence(qc.apply(chan, rho), qc.apply(chan, sigma), f)
            assert after <= before + 1e-6

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            rho, sigma = random_pair(rng, 3)
            grid = np.linspace(1.0, 4.0, 9)
            values = [dv.hockey_stick(rho, sigma, g) for g in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_fuchs_van_de_graaf_chain(self):
        """T <= sqrt(1 - F) <= Bures distance."""
        rng = np.random.default_rng(16)
        for _ in range(200):
            rho, sigma = random_pair(rng, 3)
            t = dv.trace_distance(rho, sigma)
            f = dv.fidelity(rho, sigma)
            db = math.sqrt(dv.bures_squared(rho, sigma))
            assert t <= math.sqrt(1.0 - f) + 1e-9
            assert math.sqrt(1.0 - f) <= db + 1e-9

    def test_pure_state_hockey_stick_matches_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            psi = qc.random_pure_state(dim, rng)
            phi = qc.random_pure_state(dim, rng)
            gamma = float(rng.uniform(1.0, 4.0))
            spec = qc.pure_pair_spectrum(psi, phi, gamma)
            direct = dv.hockey_stick(
                psi.to_density_matrix(), phi.to_density_matrix(), gamma
            )
            assert direct == pytest.approx(spec.lambda1, abs=1e-10)

    def test_hockey_stick_below_trace_distance(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            rho, sigma = random_pair(rng, 2)
            t = dv.trace_distance(rho, sigma)
            for gamma in (1.0, 1.3, 2.5):
                assert dv.hockey_stick(rho, sigma, gamma) <= t + 1e-12
