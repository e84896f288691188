"""Tests for Helstrom error, exact sample complexity, and the bound families."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

from qpriv import divergences as dv
from qpriv import errors
from qpriv import hypothesis as hyp
from qpriv import privacy
from qpriv import quantum_core as qc

LN3 = math.log(3.0)
E0 = qc.DensityMatrix(np.diag([1.0, 0.0]))
E1 = qc.DensityMatrix(np.diag([0.0, 1.0]))
BERN = hyp.HypothesisInstance(
    qc.DensityMatrix(np.diag([0.75, 0.25])),
    qc.DensityMatrix(np.diag([0.25, 0.75])),
    0.5,
    0.05,
)

SMALL_BUDGET = privacy.SearchBudget(restarts=16, polish_steps=96)


def optimal_projector(rho, sigma):
    w, v = np.linalg.eigh(rho.entries - sigma.entries)
    return (v * (w > 0)) @ v.conj().T


def mechanism_instance(rho, sigma, eps, p=0.5, alpha=0.1):
    mech = privacy.build_qldp_mechanism(optimal_projector(rho, sigma), eps)
    return hyp.HypothesisInstance(qc.apply(mech, rho), qc.apply(mech, sigma), p, alpha)


def commuting_pair(dim, rng):
    """Two commuting states in a random basis, with their eigenvalues."""
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    p = rng.dirichlet(np.ones(dim))
    q = 0.4 * p + 0.6 * rng.dirichlet(np.ones(dim))
    rho = qc.DensityMatrix(u @ np.diag(p) @ u.conj().T)
    sigma = qc.DensityMatrix(u @ np.diag(q) @ u.conj().T)
    return rho, sigma, p, q


def commuting_instances(dim, count, seed):
    return targeted_instances(lambda rng: commuting_pair(dim, rng)[:2], count, seed)


def targeted_instances(draw, count, seed):
    """Pairs from draw(rng); alpha sits on P_e(target) or between P_e(target)
    and P_e(target - 1), so ties with alpha are covered."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        rho, sigma = draw(rng)
        prior = rng.uniform(0.3, 0.7)
        probe = hyp.HypothesisInstance(rho, sigma, prior, 0.01)
        target = int(rng.integers(2, 40))
        alpha = hyp.helstrom_error_n(probe, target)
        if len(instances) % 2:
            alpha += 0.5 * (hyp.helstrom_error_n(probe, target - 1) - alpha)
        if 0.0 < alpha < prior * (1.0 - prior):
            instances.append(hyp.HypothesisInstance(rho, sigma, prior, alpha))
    return instances


def linear_scan(inst, n_max=None, budget=hyp.N_MAX_FAST):
    """Reference search: P_e(n) for n = 1, 2, ... until it reaches alpha."""
    cap = budget if n_max is None else n_max
    for n in range(1, cap + 1):
        if hyp.helstrom_error_n(inst, n) <= inst.alpha:
            return n
    return None


def searched(inst, n_max=None, budget=hyp.N_MAX_FAST):
    result = hyp.exact_sample_complexity(inst, n_max)
    if result.exact is None:
        cap = budget if n_max is None else n_max
        assert (result.method, result.lower) == ("bounds_only", cap + 1.0)
    return result.exact


def search_outcome(search, inst, n_max):
    try:
        return search(inst, n_max)
    except errors.DimensionBudgetExceeded:
        return "budget"


def loop_count_rows(n, d):
    """Outcome-count rows built by the loop over combinations_with_replacement."""
    combos = list(itertools.combinations_with_replacement(range(d), n))
    counts = np.zeros((len(combos), d), dtype=float)
    for row, combo in enumerate(combos):
        for outcome in combo:
            counts[row, outcome] += 1.0
    return counts


def loop_pe_classical(p_out, q_out, p, q, n):
    """n-copy Helstrom error of a commuting pair with d >= 3 outcomes, from the loop rows."""
    with np.errstate(divide="ignore"):
        lp = np.log(p_out)
        lq = np.log(q_out)
    counts = loop_count_rows(n, p_out.shape[0])
    lf = hyp._log_factorials(n)
    log_binom = lf[n] - lf[counts.astype(int)].sum(axis=1)
    with np.errstate(invalid="ignore"):
        log_p_mass = np.where(counts > 0, counts * lp[None, :], 0.0).sum(axis=1)
        log_q_mass = np.where(counts > 0, counts * lq[None, :], 0.0).sum(axis=1)
    a = p * np.exp(log_binom + log_p_mass)
    b = q * np.exp(log_binom + log_q_mass)
    return max(0.5 * (1.0 - float(np.sum(np.abs(a - b)))), 0.0)


class TestHelstromError:
    def test_orthogonal_states_equal_priors(self):
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        assert hyp.helstrom_error(inst) == pytest.approx(0.0, abs=1e-14)

    def test_equal_states_gives_smaller_prior(self):
        rho = qc.DensityMatrix(np.diag([0.6, 0.4]))
        inst = hyp.HypothesisInstance(rho, rho, 0.3, 0.05)
        assert hyp.helstrom_error(inst) == pytest.approx(0.3, abs=1e-14)

    def test_equal_priors_formula(self):
        pe = hyp.helstrom_error(BERN)
        t = dv.trace_distance(BERN.rho, BERN.sigma)
        assert pe == pytest.approx(0.5 * (1.0 - t), abs=1e-14)


class TestHelstromErrorN:
    def test_single_copy_reduces(self):
        assert hyp.helstrom_error_n(BERN, 1) == pytest.approx(
            hyp.helstrom_error(BERN), abs=1e-14
        )

    def test_three_copies_exhaustive_oracle(self):
        """Enumerate all 2^3 outcome strings directly."""
        tv = 0.0
        for outcome in itertools.product([0, 1], repeat=3):
            pa = np.prod([0.75 if x == 0 else 0.25 for x in outcome])
            pb = np.prod([0.25 if x == 0 else 0.75 for x in outcome])
            tv += abs(0.5 * pa - 0.5 * pb)
        oracle = 0.5 * (1.0 - tv)
        assert hyp.helstrom_error_n(BERN, 3) == pytest.approx(oracle, abs=1e-14)

    def test_commuting_qutrit_fast_path_matches_dense(self):
        rho = qc.DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        sigma = qc.DensityMatrix(np.diag([0.2, 0.5, 0.3]))
        inst = hyp.HypothesisInstance(rho, sigma, 0.4, 0.05)
        fast = hyp.helstrom_error_n(inst, 6, method="classical_fastpath")
        dense = hyp.helstrom_error_n(inst, 6, method="dense")
        assert fast == pytest.approx(dense, abs=1e-10)

    def test_noncommuting_pair_agreement(self):
        rng = np.random.default_rng(1)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
        value = hyp.helstrom_error_n(inst, 4)
        assert 0.0 <= value <= 0.5

    def test_budget_guard(self):
        rng = np.random.default_rng(2)
        rho = qc.random_density_matrix(4, seed=rng)
        sigma = qc.random_density_matrix(4, seed=rng)
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
        with pytest.raises(errors.DimensionBudgetExceeded):
            hyp.helstrom_error_n(inst, 7)

    def test_monotone_in_copies(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            values = [hyp.helstrom_error_n(inst, n) for n in range(1, 7)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestExactSampleComplexity:
    def test_orthogonal_needs_one_copy(self):
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        result = hyp.exact_sample_complexity(inst)
        assert result.exact == 1

    def test_bernoulli_binomial_tail_oracle(self):
        """Scan result double-checked against scipy binomial pmf sums."""
        result = hyp.exact_sample_complexity(BERN)

        def pe_binom(n):
            k = np.arange(n + 1)
            a = 0.5 * binom.pmf(k, n, 0.25)
            b = 0.5 * binom.pmf(k, n, 0.75)
            return 0.5 * (1.0 - np.sum(np.abs(a - b)))

        oracle = next(n for n in range(1, 200) if pe_binom(n) <= BERN.alpha)
        assert result.exact == oracle
        assert result.method == "classical_fastpath"

    def test_equal_states_unbounded(self):
        rho = qc.DensityMatrix(np.diag([0.6, 0.4]))
        inst = hyp.HypothesisInstance(rho, rho, 0.5, 0.1)
        with pytest.raises(errors.Unbounded):
            hyp.exact_sample_complexity(inst)

    def test_budget_exhaustion_returns_bounds_only(self):
        result = hyp.exact_sample_complexity(BERN, n_max=2)
        assert result.exact is None
        assert result.method == "bounds_only"
        assert result.lower == 3.0
        assert math.isinf(result.upper)
        assert result.evaluations == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_galloping_matches_linear_scan(self, dim):
        for inst in commuting_instances(dim, 12, seed=10 + dim):
            answer = linear_scan(inst)
            assert answer is not None
            for n_max in (None, 0, 1, answer - 1, answer):
                assert searched(inst, n_max) == linear_scan(inst, n_max)

    def test_galloping_matches_linear_scan_at_the_enumeration_budget(self, monkeypatch):
        instances = commuting_instances(3, 12, seed=21)
        # 105 count vectors for 13 qutrit copies: n = 12 is the last that fits.
        monkeypatch.setattr(hyp, "_COMBO_BUDGET", 100)
        seen = set()
        for inst in instances:
            for n_max in (None, 0, 1, 12, 13, 40):
                expected = search_outcome(linear_scan, inst, n_max)
                assert search_outcome(searched, inst, n_max) == expected
                seen.add(expected == "budget")
        assert seen == {True, False}

    def test_evaluation_counts(self):
        classical = mechanism_instance(E0, E1, 0.2, alpha=0.01)
        result = hyp.exact_sample_complexity(classical)
        assert result.method == "classical_fastpath" and result.exact > 100
        assert result.evaluations <= 2 * math.ceil(math.log2(result.exact)) + 1
        rng = np.random.default_rng(4)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        schur = hyp.exact_sample_complexity(hyp.HypothesisInstance(rho, sigma, 0.5, 0.2))
        assert schur.method == "schur_weyl"
        assert schur.evaluations <= 2 * math.ceil(math.log2(schur.exact)) + 1
        rho3 = qc.random_density_matrix(3, seed=rng)
        sigma3 = qc.random_density_matrix(3, seed=rng)
        dense = hyp.exact_sample_complexity(hyp.HypothesisInstance(rho3, sigma3, 0.5, 0.1))
        assert dense.method == "dense" and dense.exact > 1
        assert dense.evaluations == dense.exact
        assert hyp.orthogonal_sc_bounds(0.5, 0.5, 0.1).evaluations == 0


def noncommuting_qubits(rng):
    return qc.random_density_matrix(2, seed=rng), qc.random_density_matrix(2, seed=rng)


class TestSchurWeyl:
    @pytest.mark.parametrize(
        "case, seed",
        [("mixed", 30), ("mixed_unequal_priors", 34), ("pure", 30), ("near_commuting", None)],
    )
    def test_matches_tensor_power_oracle(self, case, seed):
        rng = np.random.default_rng(seed)
        prior, n_top = 0.5, 10
        if case == "pure":
            rho = qc.random_density_matrix(2, rank=1, seed=rng)
            sigma = qc.random_density_matrix(2, rank=1, seed=rng)
        elif case == "near_commuting":
            # The commutator's max-norm is 0.24 * theta, about twice COMMUTE_TOL.
            theta = 8.3e-10
            r = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            rho = qc.DensityMatrix(np.diag([0.7, 0.3]))
            sigma = qc.DensityMatrix(r @ np.diag([0.2, 0.8]) @ r.T)
            comm = rho.entries @ sigma.entries - sigma.entries @ rho.entries
            assert hyp.COMMUTE_TOL < np.max(np.abs(comm)) < 3 * hyp.COMMUTE_TOL
        else:
            rho, sigma = noncommuting_qubits(rng)
            if case == "mixed_unequal_priors":
                # One tensor-power oracle at n = 11 takes seconds; one case pays it.
                prior, n_top = 0.3, 11
        inst = hyp.HypothesisInstance(rho, sigma, prior, 0.01)
        assert hyp._pe_path(inst)[0] == "schur_weyl"
        for n in range(1, n_top + 1):
            dense = hyp.helstrom_error_n(inst, n, method="dense")
            schur = hyp._pe_schur(rho, sigma, prior, 1.0 - prior, n)
            assert abs(schur - dense) <= 1e-12, n
            assert hyp.helstrom_error_n(inst, n) == schur

    def test_commuting_pairs_match_classical_up_to_the_cap(self):
        rng = np.random.default_rng(31)
        ns = [*range(1, 17), 31, 32, 33, 63, 64, 65, 100, hyp.N_MAX_SCHUR - 1, hyp.N_MAX_SCHUR]
        for prior in (0.5, 0.35):
            rho, sigma, p, q = commuting_pair(2, rng)
            for n in ns:
                schur = hyp._pe_schur(rho, sigma, prior, 1.0 - prior, n)
                classical = hyp._pe_classical(p, q, prior, 1.0 - prior, n)
                assert abs(schur - classical) <= 1e-12, n

    def test_galloping_matches_linear_scan(self):
        for inst in targeted_instances(noncommuting_qubits, 10, seed=32):
            answer = linear_scan(inst, budget=hyp.N_MAX_SCHUR)
            assert answer is not None
            for n_max in (None, 0, 1, answer - 1, answer):
                result = searched(inst, n_max, budget=hyp.N_MAX_SCHUR)
                assert result == linear_scan(inst, n_max, budget=hyp.N_MAX_SCHUR)
            assert hyp.exact_sample_complexity(inst).method == "schur_weyl"

    def test_past_the_cap_returns_bounds_only(self):
        rho, sigma = noncommuting_qubits(np.random.default_rng(33))
        probe = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
        alpha = 0.5 * hyp.helstrom_error_n(probe, hyp.N_MAX_SCHUR)
        assert alpha > 0.0
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, alpha)
        for n_max in (None, 2 * hyp.N_MAX_SCHUR):
            result = hyp.exact_sample_complexity(inst, n_max)
            assert (result.method, result.exact) == ("bounds_only", None)
            assert result.lower == hyp.N_MAX_SCHUR + 1
            assert result.evaluations == math.log2(hyp.N_MAX_SCHUR) + 1
        with pytest.raises(errors.DimensionBudgetExceeded):
            hyp.helstrom_error_n(inst, hyp.N_MAX_SCHUR + 1)


class TestLogFactorials:
    def test_lgamma_below_sixteen(self):
        lf = hyp._log_factorials(15)
        assert lf.shape == (16,)
        assert all(lf[k] == math.lgamma(k + 1.0) for k in range(16))

    def test_stirling_series_matches_lgamma(self):
        lf = hyp._log_factorials(100_000)
        assert lf.shape == (100_001,)
        ks = np.unique(np.concatenate([np.arange(16, 200), np.geomspace(200, 1e5, 400).astype(int)]))
        for k in ks:
            exact = math.lgamma(k + 1.0)
            assert abs(lf[k] - exact) <= 1e-15 * exact, k

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
    def test_table_length_at_the_seam(self, n):
        lf = hyp._log_factorials(n)
        assert lf.shape == (n + 1,)
        assert lf[n] == pytest.approx(math.lgamma(n + 1.0), rel=1e-15, abs=0.0)


class TestOutcomeCounts:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_rows_follow_combinations_with_replacement(self, dim):
        for n in (1, 2, 3, 7, 12):
            rows = hyp._count_vectors(n, dim)
            assert rows.dtype == np.float64
            np.testing.assert_array_equal(rows, loop_count_rows(n, dim))

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_pe_bit_identical_to_loop_rows(self, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2, 5, 11):
            p_out = rng.dirichlet(np.ones(dim))
            q_out = rng.dirichlet(np.ones(dim))
            q_out[-1] = 0.0  # a zero outcome exercises the log(0) branch
            q_out /= q_out.sum()
            fast = hyp._pe_classical(p_out, q_out, 0.4, 0.6, n)
            assert fast == loop_pe_classical(p_out, q_out, 0.4, 0.6, n)


class TestNonprivateBounds:
    def test_half_fidelity_upper_bound(self):
        """F = 0.5, p = q = 1/2, alpha = 0.1: upper is ceil(2 ln 5 / ln 2) = 5."""
        psi = qc.PureState([1.0, 0.0])
        phi = qc.PureState([1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
        inst = hyp.HypothesisInstance(
            psi.to_density_matrix(), phi.to_density_matrix(), 0.5, 0.1
        )
        result = hyp.nonprivate_sc_bounds(inst)
        assert result.upper == 5.0
        assert result.lower == pytest.approx(
            max(math.log(2.5) / math.log(2.0), (0.25 - 0.09) / (0.25 * 2 * (1 - math.sqrt(0.5)))),
            abs=1e-9,
        )

    def test_alpha_near_limit_keeps_valid_lower(self):
        rng = np.random.default_rng(4)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.25 - 1e-9)
        result = hyp.nonprivate_sc_bounds(inst)
        assert result.lower >= 0.0
        assert result.lower <= result.upper

    def test_orthogonal_states_exact_one(self):
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        result = hyp.nonprivate_sc_bounds(inst)
        assert result.exact == 1

    def test_exact_inside_bounds_random_qubits(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            if dv.trace_distance(rho, sigma) < 0.6:
                continue
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            bounds = hyp.nonprivate_sc_bounds(inst)
            exact = hyp.exact_sample_complexity(inst).exact
            assert exact is not None
            assert bounds.lower - 1.0 < exact <= math.ceil(bounds.upper)
            checked += 1


class TestPrivateBounds:
    def test_upper_example(self):
        """Orthogonal states at eps = ln 3 give upper = ceil(2 ln 5 * 4) = 13."""
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        result = hyp.private_sc_bounds(inst, LN3)
        assert result.upper == 13.0

    def test_c_term_branch_values(self):
        first = math.log(2.5) * 4.0 / (LN3 * 2.0)
        second = (0.25 - 0.09) * 4.0 / (2.0 * 0.25 * (math.sqrt(3.0) - 1.0) ** 2)
        assert first == pytest.approx(1.6681, abs=1e-4)
        assert second == pytest.approx(2.3885, abs=1e-4)
        assert hyp._private_c_term(LN3, 0.5, 0.5, 0.1) == pytest.approx(
            max(first, second), abs=1e-12
        )

    def test_mechanism_exact_below_upper_bound(self):
        """Exact private scans of the built mechanism respect the upper bound."""
        rng = np.random.default_rng(6)
        eps = LN3
        checked = 0
        while checked < 50:
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            if dv.trace_distance(rho, sigma) < 0.5:
                continue
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            bounds = hyp.private_sc_bounds(inst, eps)
            exact = hyp.exact_sample_complexity(mechanism_instance(rho, sigma, eps)).exact
            assert exact is not None
            assert exact <= math.ceil(bounds.upper)
            assert bounds.lower - 1.0 < exact
            checked += 1

    def test_degenerate_states_raise(self):
        rho = qc.DensityMatrix(np.diag([0.6, 0.4]))
        inst = hyp.HypothesisInstance(rho, rho, 0.5, 0.1)
        with pytest.raises(errors.DegenerateStates):
            hyp.private_sc_bounds(inst, 1.0)


class TestOrthogonalBounds:
    def test_example_values(self):
        result = hyp.orthogonal_sc_bounds(LN3, 0.5, 0.1)
        assert result.upper == 13.0
        assert result.lower == pytest.approx(1.28, abs=1e-12)

    def test_tanh_sandwich(self):
        """1/eps <= (e^eps + 1)/(e^eps - 1) <= 4/eps on (0, 1)."""
        for eps in np.linspace(0.01, 0.999, 40):
            ratio = (math.exp(eps) + 1.0) / (math.exp(eps) - 1.0)
            assert 1.0 / eps <= ratio + 1e-12
            assert ratio <= 4.0 / eps + 1e-12

    def test_exact_inside_bounds(self):
        eps, p, alpha = 1.0, 0.5, 0.1
        bounds = hyp.orthogonal_sc_bounds(eps, p, alpha)
        exact = hyp.exact_sample_complexity(mechanism_instance(E0, E1, eps)).exact
        assert bounds.lower - 1.0 < exact <= math.ceil(bounds.upper)

    def test_invalid_alpha(self):
        with pytest.raises(errors.InvalidAlpha):
            hyp.orthogonal_sc_bounds(1.0, 0.5, 0.3)


class TestInstanceSpecific:
    def test_built_mechanism_is_member(self):
        rng = np.random.default_rng(7)
        for eps in (0.5, 1.0):
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            mech = privacy.build_qldp_mechanism(optimal_projector(rho, sigma), eps)
            out_r = qc.apply(mech, rho).entries
            lam = np.linalg.eigvalsh(out_r)[0]
            assert lam >= 1.0 / (math.exp(eps) + 1.0) - 1e-9
            assert hyp.w_eps_member(mech, inst, eps, SMALL_BUDGET)

    def test_replacement_channel_not_member(self):
        chan = qc.replacement_channel(E0)
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        assert not hyp.w_eps_member(chan, inst, 1.0, SMALL_BUDGET)

    def test_formula_values(self):
        """eps = 0.5, T = 0.8, p = q = 1/2, alpha = 0.1."""
        rho = qc.DensityMatrix(np.diag([0.9, 0.1]))
        sigma = qc.DensityMatrix(np.diag([0.1, 0.9]))
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
        result = hyp.instance_specific_bounds(inst, 0.5)
        e = math.exp(0.5)
        ratio = ((e + 1.0) / ((e - 1.0) * 0.8)) ** 2
        assert result.lower == pytest.approx(math.log(2.5) * ratio / (e + 1.0), abs=1e-9)
        assert result.upper == pytest.approx(math.log(5.0) * ratio, abs=1e-9)


class TestLowPrivacyAnalysis:
    def test_qubits_have_trivial_outcome_factor(self):
        rng = np.random.default_rng(8)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
        report = hyp.low_privacy_analysis(inst, 2.0)
        assert report.k <= 2
        assert report.L == 1.0

    def test_equal_states_preserved_at_zero(self):
        rho = qc.DensityMatrix(np.diag([0.6, 0.4]))
        inst = hyp.HypothesisInstance(rho, rho, 0.5, 0.1)
        report = hyp.low_privacy_analysis(inst, 1.0)
        assert report.bures_squared_input == pytest.approx(0.0, abs=1e-9)
        assert report.bures_squared_measured == pytest.approx(0.0, abs=1e-8)

    def test_qutrit_measurement_preserves_bures(self):
        """The geometric-mean eigenbasis readout achieves the fidelity."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = qc.random_density_matrix(3, seed=rng)
            sigma = qc.random_density_matrix(3, seed=rng)
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            report = hyp.low_privacy_analysis(inst, 1.0)
            assert abs(report.bures_squared_input - report.bures_squared_measured) < 1e-8
            # independent check: classical Bhattacharyya sum over the POVM
            p_out = report.measurement.outcome_probabilities(rho)
            q_out = report.measurement.outcome_probabilities(sigma)
            fid_cl = float(np.sum(np.sqrt(p_out * q_out))) ** 2
            assert fid_cl == pytest.approx(dv.fidelity(rho, sigma), abs=1e-8)


class TestMultipleHypotheses:
    def test_two_states_match_binary_shape(self):
        rng = np.random.default_rng(10)
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        t = dv.trace_distance(rho, sigma)
        eps, alpha = 1.0, 0.05
        result = hyp.multiple_hypothesis_bounds([rho, sigma], [0.5, 0.5], eps, alpha)
        e = math.exp(eps)
        expected_lower = math.log(0.25 / alpha) * (e + 1.0) / (eps * (e - 1.0) * t)
        expected_upper = math.ceil(
            2.0 * math.log(2.0 * 0.5 / (2.0 * alpha)) * ((e + 1.0) / ((e - 1.0) * t)) ** 2
        )
        assert result.lower == pytest.approx(expected_lower, abs=1e-9)
        assert result.upper == expected_upper

    def test_three_orthogonal_qutrit_states(self):
        states = [
            qc.DensityMatrix(np.diag([1.0, 0.0, 0.0])),
            qc.DensityMatrix(np.diag([0.0, 1.0, 0.0])),
            qc.DensityMatrix(np.diag([0.0, 0.0, 1.0])),
        ]
        eps, alpha = 1.0, 0.05
        result = hyp.multiple_hypothesis_bounds(states, [1 / 3] * 3, eps, alpha)
        e = math.exp(eps)
        lower = math.log((1 / 9) / ((2 / 3) * alpha)) * (e + 1.0) / (eps * (e - 1.0))
        upper = math.ceil(2.0 * math.log(6.0 * (1 / 3) / (2 * alpha)) * ((e + 1.0) / (e - 1.0)) ** 2)
        assert result.lower == pytest.approx(lower, abs=1e-9)
        assert result.upper == upper

    def test_degenerate_pair_raises(self):
        rho = qc.DensityMatrix(np.diag([0.6, 0.4]))
        with pytest.raises(errors.DegeneratePair):
            hyp.multiple_hypothesis_bounds([rho, rho], [0.5, 0.5], 1.0, 0.05)


class TestAsymmetricLowerBound:
    def test_error_swap_symmetry(self):
        """With both branches in the max, swapping the error targets is free."""
        value = hyp.asymmetric_lower_bound(0.5, 0.03, 0.12)
        swapped = hyp.asymmetric_lower_bound(0.5, 0.12, 0.03)
        assert value == pytest.approx(swapped, abs=1e-12)

    def test_large_epsilon_analytic_limit(self):
        """For large eps the denominator is eps and beta -> inf is optimal."""
        eps, a1, a2 = 6.0, 0.1, 0.05
        value = hyp.asymmetric_lower_bound(eps, a1, a2)
        limit = max(
            math.log((1.0 - a1) / a2) / eps, math.log((1.0 - a2) / a1) / eps
        )
        assert value == pytest.approx(limit, rel=1e-6)

    def test_grid_refinement_stability(self):
        coarse = hyp.asymmetric_lower_bound(
            0.1, 0.05, 0.05, beta_grid=np.geomspace(1 + 1e-6, 1e9, 200)
        )
        fine = hyp.asymmetric_lower_bound(
            0.1, 0.05, 0.05, beta_grid=np.geomspace(1 + 1e-6, 1e9, 2000)
        )
        assert coarse == pytest.approx(fine, abs=1e-6)


class TestHeterogeneousLowerBound:
    def test_vanishes_as_alpha_approaches_min_prior(self):
        """The (1 - alpha / min(p, q))^2 factor drives the bound to zero."""
        values = []
        for alpha in (0.05, 0.1, 0.15, 0.2 - 1e-9):
            inst = hyp.HypothesisInstance(E0, E1, 0.7, alpha)
            values.append(hyp.heterogeneous_mechanism_lower_bound(inst, 1.0))
        assert all(a > b for a, b in zip(values, values[1:]))
        scale = (1.0 - (0.2 - 1e-9) / 0.3) ** 2 / (1.0 - 0.05 / 0.3) ** 2
        assert values[-1] == pytest.approx(values[0] * scale, rel=1e-9)

    def test_example_value(self):
        inst = hyp.HypothesisInstance(E0, E1, 0.5, 0.1)
        value = hyp.heterogeneous_mechanism_lower_bound(inst, LN3)
        assert value == pytest.approx(5.12 / math.log(9.0), abs=1e-9)

    def test_below_exact_for_built_mechanism(self):
        rng = np.random.default_rng(11)
        eps = 1.0
        checked = 0
        while checked < 50:
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            if dv.trace_distance(rho, sigma) < 0.4:
                continue
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            bound = hyp.heterogeneous_mechanism_lower_bound(inst, eps)
            exact = hyp.exact_sample_complexity(mechanism_instance(rho, sigma, eps)).exact
            assert bound <= exact + 1e-9
            checked += 1

    def test_alpha_guard_is_never_hit_through_valid_instances(self):
        # alpha < pq <= min(p, q) already holds for any valid instance, so
        # the dedicated guard only fires on hand-built out-of-range inputs.
        inst = hyp.HypothesisInstance(E0, E1, 0.8, 0.15)
        assert hyp.heterogeneous_mechanism_lower_bound(inst, 1.0) > 0.0


class TestCrossCuttingInvariants:
    def test_sample_complexity_data_processing(self):
        """Privatized instances never need fewer copies than the originals."""
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 20:
            rho = qc.random_density_matrix(2, seed=rng)
            sigma = qc.random_density_matrix(2, seed=rng)
            if dv.trace_distance(rho, sigma) < 0.5:
                continue
            inst = hyp.HypothesisInstance(rho, sigma, 0.5, 0.1)
            base = hyp.exact_sample_complexity(inst).exact
            private = hyp.exact_sample_complexity(mechanism_instance(rho, sigma, 1.0)).exact
            assert private >= base
            checked += 1

    def test_sample_complexity_decreases_with_epsilon(self):
        values = []
        for eps in (0.25, 0.5, 1.0, 2.0):
            values.append(
                hyp.exact_sample_complexity(mechanism_instance(E0, E1, eps)).exact
            )
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_orthogonal_sandwich_over_grid(self):
        for eps in (0.25, 0.5, 1.0, 2.0):
            bounds = hyp.orthogonal_sc_bounds(eps, 0.5, 0.1)
            exact = hyp.exact_sample_complexity(mechanism_instance(E0, E1, eps)).exact
            assert bounds.lower - 1.0 < exact <= math.ceil(bounds.upper)
