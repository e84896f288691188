"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and trial count is pinned here.
"""

import math
import time

import numpy as np
import pytest

from qpriv import applications as app
from qpriv import contraction as ct
from qpriv import divergences as dv
from qpriv import hypothesis as hyp
from qpriv import privacy
from qpriv import quantum_core as qc

LN3 = math.log(3.0)
PROJ0 = np.diag([1.0, 0.0])
E0 = qc.DensityMatrix(np.diag([1.0, 0.0]))
E1 = qc.DensityMatrix(np.diag([0.0, 1.0]))

CERT_BUDGET = privacy.SearchBudget(restarts=24, polish_steps=128)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status}  {detail}")
    assert ok, f"{name} failed: {detail}"


def optimal_projector(rho, sigma):
    w, v = np.linalg.eigh(rho.entries - sigma.entries)
    return (v * (w > 0)) @ v.conj().T


def test_ac1_trace_contraction_tightness():
    """Scan tightness of the exact trace-distance coefficient."""
    start = time.perf_counter()
    worst_gap = 0.0
    for seed, eps in enumerate((0.25, 1.0, LN3, 2.0)):
        params = privacy.PrivacyParams(eps, 0.0)
        bound = ct.trace_contraction_coefficient(params)
        report = ct.scan("trace", params, dims=(2, 3, 4), trials=10_000, seed=100 + seed)
        ok = (
            bound - 1e-6 <= report.empirical_sup <= bound + 1e-8
            and report.witness_kind == "extremal_mechanism"
            and not report.violation
        )
        worst_gap = max(worst_gap, abs(report.empirical_sup - bound))
        assert ok, f"eps={eps}: sup={report.empirical_sup!r} bound={bound!r}"
    elapsed = time.perf_counter() - start
    _report(
        "AC1 trace-contraction tightness",
        elapsed < 60.0,
        f"max |sup - bound| = {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_ac2_hockey_stick_converse():
    """No certified channel/pair ratio exceeds the hockey-stick bound."""
    start = time.perf_counter()
    worst_excess = -math.inf
    for seed, eps in enumerate((0.25, 1.0, LN3, 2.0)):
        params = privacy.PrivacyParams(eps, 0.0)
        grid = np.geomspace(math.exp(-eps), math.exp(eps), 11)
        reports = ct.scan_hockey_grid(
            params, grid, dims=(2, 3, 4), trials=10_000, seed=200 + seed
        )
        for rep in reports:
            excess = rep.empirical_sup - rep.theory_bound
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-6, f"eps={eps} gamma={rep.gamma}: excess={excess!r}"
            assert not rep.violation
    elapsed = time.perf_counter() - start
    _report(
        "AC2 hockey-stick converse",
        elapsed < 300.0,
        f"max excess = {worst_excess:.2e}, {elapsed:.1f}s",
    )


def test_ac3_eps_delta_tightness():
    """(eps, delta) mechanisms attain the coefficient; scans never exceed it."""
    rng = np.random.default_rng(31)
    worst_attain = 0.0
    for i, eps in enumerate((0.5, 1.0, LN3)):
        for j, delta in enumerate((0.0, 0.1, 0.3)):
            params = privacy.PrivacyParams(eps, delta)
            coef = ct.trace_contraction_coefficient(params)
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            mech = privacy.build_eps_delta_mechanism(optimal_projector(rho, sigma), params)
            ratio = dv.trace_distance(
                qc.apply(mech, rho), qc.apply(mech, sigma)
            ) / dv.trace_distance(rho, sigma)
            worst_attain = max(worst_attain, abs(ratio - coef))
            assert abs(ratio - coef) <= 1e-9, f"({eps}, {delta}): ratio={ratio!r}"
            report = ct.scan("trace", params, trials=2000, seed=300 + 10 * i + j)
            assert report.empirical_sup <= coef + 1e-6
            assert not report.violation
    _report(
        "AC3 (eps, delta) trace tightness",
        True,
        f"max attainment error = {worst_attain:.2e}",
    )


def test_ac4_bures_and_relative_entropy_contraction():
    """Bures and relative-entropy outputs stay below their T-relative bounds."""
    for seed, eps in enumerate((0.5, 1.0, 2.0)):
        params = privacy.PrivacyParams(eps, 0.0)
        rep_b = ct.scan("bures", params, trials=5000, seed=400 + seed)
        assert rep_b.empirical_sup <= ct.bound_bures(eps) + 1e-6, (
            f"bures eps={eps}: {rep_b.empirical_sup!r}"
        )
        rep_d = ct.scan("relent", params, trials=5000, seed=450 + seed)
        assert rep_d.empirical_sup <= ct.bound_relative_entropy(eps) + 1e-6, (
            f"relent eps={eps}: {rep_d.empirical_sup!r}"
        )
        assert not rep_b.violation and not rep_d.violation
    _report("AC4 Bures/relative-entropy contraction", True, "3 epsilons x 5000 trials")


def test_ac5_f_divergence_integral_identity():
    """Quadrature f-divergence matches relative entropy; skew symmetry holds."""
    rng = np.random.default_rng(51)
    f = dv.kl_function()
    worst_kl = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        rho = qc.random_density_matrix(dim, seed=rng)
        sigma = qc.random_density_matrix(dim, seed=rng)
        gap = abs(dv.f_divergence(rho, sigma, f) - dv.relative_entropy(rho, sigma))
        worst_kl = max(worst_kl, gap)
        assert gap <= 1e-6, f"kl identity gap {gap!r}"
    worst_skew = 0.0
    for _ in range(500):
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        gamma = float(np.exp(rng.uniform(-3.0, 3.0)))
        lhs, rhs = dv.skew_symmetry_check(rho, sigma, gamma)
        worst_skew = max(worst_skew, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9
    _report(
        "AC5 f-divergence identity + skew symmetry",
        True,
        f"max KL gap = {worst_kl:.2e}, max skew gap = {worst_skew:.2e}",
    )


def test_ac6_spectral_lemma():
    """Rank-one pair decomposition and the induced operator inequality."""
    rng = np.random.default_rng(61)
    worst_recon = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        psi = qc.random_pure_state(dim, rng)
        phi = qc.random_pure_state(dim, rng)
        gamma = float(rng.uniform(1.0, 5.0))
        spec = qc.pure_pair_spectrum(psi, phi, gamma)
        resid = float(np.max(np.abs(spec.reconstruction_residual())))
        dense = np.linalg.eigvalsh(psi.projector() - gamma * phi.projector())
        lam_err = max(abs(spec.lambda1 - dense[-1]), abs(spec.lambda2 + dense[0]))
        worst_recon = max(worst_recon, resid, lam_err)
        assert resid <= 1e-10 and lam_err <= 1e-10
    worst_psd = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        psi = qc.random_pure_state(dim, rng)
        phi = qc.random_pure_state(dim, rng)
        gamma = float(rng.uniform(1.0, 4.0))
        spec = qc.pure_pair_spectrum(psi, phi, gamma)
        chan = qc.random_channel(dim, int(rng.integers(2, 4)), 2, rng)
        lhs = chan.apply_matrix(psi.projector()) - gamma * chan.apply_matrix(
            phi.projector()
        )
        rhs = spec.lambda1 * (
            chan.apply_matrix(spec.phi1.projector())
            - gamma * chan.apply_matrix(spec.phi2.projector())
        )
        min_eig = float(np.linalg.eigvalsh(rhs - lhs)[0])
        worst_psd = min(worst_psd, min_eig)
        assert min_eig >= -1e-8, f"operator inequality violated: {min_eig!r}"
    _report(
        "AC6 spectral lemma",
        True,
        f"max reconstruction error = {worst_recon:.2e}, min slack eig = {worst_psd:.2e}",
    )


def test_ac7_private_sample_complexity_sandwich():
    """Exact mechanism sample complexity sits inside the closed-form bounds."""
    start = time.perf_counter()
    p, alpha = 0.5, 0.1
    results = []
    for eps in (0.5, 1.0, LN3):
        mech = privacy.build_qldp_mechanism(PROJ0, eps)
        inst = hyp.HypothesisInstance(qc.apply(mech, E0), qc.apply(mech, E1), p, alpha)
        exact = hyp.exact_sample_complexity(inst)
        bounds = hyp.orthogonal_sc_bounds(eps, p, alpha)
        assert exact.method == "classical_fastpath"
        assert exact.exact is not None
        assert bounds.lower - 1.0 < exact.exact <= math.ceil(bounds.upper), (
            f"eps={eps}: exact={exact.exact} bounds=({bounds.lower}, {bounds.upper})"
        )
        results.append((eps, exact.exact, bounds.lower, bounds.upper))
        if abs(eps - LN3) < 1e-12:
            assert bounds.upper == 13.0
    elapsed = time.perf_counter() - start
    _report(
        "AC7 private sample-complexity sandwich",
        elapsed < 10.0,
        f"{results}, {elapsed:.2f}s",
    )


def test_ac8_low_privacy_regime():
    """Geometric-mean readout preserves Bures; factor-4 regime bounds hold."""
    rng = np.random.default_rng(81)
    eps = 2.5
    p, alpha = 0.5, 0.1
    pq = p * (1.0 - p)
    pairs = []
    for _ in range(50):
        pairs.append(
            (qc.random_density_matrix(2, seed=rng), qc.random_density_matrix(2, seed=rng))
        )
    for _ in range(50):
        # strongly distinguishable full-rank pairs so the regime condition
        # ((e^eps - 1)/(e^eps + 1))^2 >= 1 / Bures^2 is reachable
        frames = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        s1, s2 = rng.uniform(0.01, 0.04, 2)
        rho = qc.DensityMatrix(
            (1 - s1) * np.outer(frames[:, 0], frames[:, 0].conj()) + s1 * np.eye(2) / 2
        )
        sigma = qc.DensityMatrix(
            (1 - s2) * np.outer(frames[:, 1], frames[:, 1].conj()) + s2 * np.eye(2) / 2
        )
        pairs.append((rho, sigma))

    worst_preserve = 0.0
    in_regime = 0
    for rho, sigma in pairs:
        inst = hyp.HypothesisInstance(rho, sigma, p, alpha)
        report = hyp.low_privacy_analysis(inst, eps)
        gap = abs(report.bures_squared_input - report.bures_squared_measured)
        worst_preserve = max(worst_preserve, gap)
        assert gap <= 1e-8, f"preservation gap {gap!r}"
        assert report.k <= 2 and report.L == 1.0

        if not report.condition_holds:
            continue
        in_regime += 1
        db2 = report.bures_squared_input
        # order-optimal channel: depolarized readout of the geometric-mean basis
        mech = privacy.build_qldp_mechanism(report.measurement.effects[0], eps)
        private = hyp.HypothesisInstance(qc.apply(mech, rho), qc.apply(mech, sigma), p, alpha)
        sc_priv = hyp.exact_sample_complexity(private).exact
        sc_base = hyp.exact_sample_complexity(inst).exact
        assert sc_priv is not None and sc_base is not None
        # data processing: privatization can only cost copies
        assert sc_priv >= sc_base
        # the regime's factor-4 Bures chain, then the induced copy bound
        priv_db2 = dv.bures_squared(private.rho, private.sigma)
        assert priv_db2 >= db2 / 4.0 - 1e-9
        assert priv_db2 <= db2 + 1e-9
        cap = math.ceil(2.0 * math.log(math.sqrt(pq) / alpha) * 4.0 / db2)
        assert sc_priv <= cap, f"sc_priv={sc_priv} cap={cap} db2={db2}"
    assert in_regime >= 20, f"only {in_regime} pairs hit the low-privacy regime"
    _report(
        "AC8 low-privacy regime",
        True,
        f"max preservation gap = {worst_preserve:.2e}, {in_regime} pairs in regime",
    )


def test_ac9_applications():
    """Fairness certificates and Holevo stability for built mechanisms."""
    povm = qc.Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    margins = []
    for eps, delta in ((LN3, 0.0), (1.0, 0.1), (0.5, 0.3)):
        params = privacy.PrivacyParams(eps, delta)
        mech = privacy.build_eps_delta_mechanism(PROJ0, params)
        holds, margin = app.fairness_certificate(mech, povm, params, 0.4)
        margins.append(margin)
        assert holds and margin >= 0.0, f"({eps}, {delta}): margin={margin!r}"

    rng = np.random.default_rng(91)
    worst_slack = math.inf
    for eps in (0.5, 1.0, 2.0):
        mech = privacy.build_qldp_mechanism(PROJ0, eps)
        for _ in range(100):
            states = tuple(qc.random_density_matrix(2, seed=rng) for _ in range(4))
            ens = app.Ensemble(np.full(4, 0.25), states)
            holds, value, bound = app.holevo_stability_check(ens, mech, eps)
            worst_slack = min(worst_slack, bound - value)
            assert holds, f"eps={eps}: value={value!r} bound={bound!r}"
    for eps in np.linspace(0.01, 4.0, 50):
        bound = eps * (math.exp(eps) - 1.0) / (math.exp(eps) + 1.0)
        assert bound <= min(eps, eps * eps / 2.0) + 1e-12
    _report(
        "AC9 applications",
        True,
        f"min fairness margin = {min(margins):.3e}, min Holevo slack = {worst_slack:.3e}",
    )


def test_ac10_privacy_conversions():
    """Purified channels certify at eps'; relaxed parameters round-trip."""
    rng = np.random.default_rng(101)
    for trial in range(20):
        eps = float(rng.uniform(0.3, 1.5))
        delta = float(rng.uniform(0.0, 0.3))
        eta = float(rng.uniform(0.2, 0.8))
        params = privacy.PrivacyParams(eps, delta)
        effect = qc.random_density_matrix(int(rng.integers(2, 4)), seed=rng).entries
        mech = privacy.build_eps_delta_mechanism(effect, params)
        assert privacy.certify(mech, params, CERT_BUDGET, seed=rng).certified
        purified, eps_prime = privacy.purify_dp(mech, eta, params)
        result = privacy.certify(
            purified, privacy.PrivacyParams(eps_prime, 0.0), CERT_BUDGET, seed=rng
        )
        assert result.certified, (
            f"trial {trial}: purified channel missed (eps'={eps_prime!r}), "
            f"worst={result.worst_value!r}"
        )
    for eps_total, delta in ((0.8, 0.2), (1.4, 0.1), (2.0, 0.5)):
        mech = privacy.build_qldp_mechanism(PROJ0, eps_total)
        relaxed = privacy.relax_pure_dp(eps_total, delta)
        assert privacy.certify(mech, relaxed, CERT_BUDGET).certified
    _report("AC10 privacy conversions", True, "20 purifications + 3 relaxations")
