"""Helstrom error, exact sample complexity, and sample-complexity bounds.

Binary discrimination of two states with priors (p, q = 1 - p): the optimal
n-copy Bayesian error is evaluated exactly: through a classical fast path
when the states commute, from Schur-Weyl blocks for other qubit pairs, and
densely on tensor powers otherwise. The sample complexity is the smallest n
driving that error below a target alpha.
Alongside the exact searches, this module evaluates every closed-form bound
family for the private and non-private settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from .divergences import bures_squared, fidelity, trace_distance
from .errors import (
    AlphaTooLarge,
    DegeneratePair,
    DegenerateStates,
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidAlpha,
    InvalidParams,
    SingularSigma,
    Unbounded,
)
from .privacy import PrivacyParams, SearchBudget, certify
from .quantum_core import (
    EPS_REG,
    MAX_DENSE_DIM,
    TOL_DENOM,
    DensityMatrix,
    KrausChannel,
    Povm,
    hermitian_part,
    matrix_geometric_mean,
    tensor_power,
)

# Commutator max-norm below which the classical fast path engages.
COMMUTE_TOL = 1e-10

# Eigenvalues of the geometric-mean operator closer than this collapse into
# one measurement outcome.
TOL_EIG = 1e-8

N_MAX_FAST = 100_000
_COMBO_BUDGET = 2_000_000

# Largest copy count of the Schur-Weyl path for non-commuting qubit pairs;
# one evaluation there takes a few tens of milliseconds.
N_MAX_SCHUR = 128

METHOD_DENSE = "dense"
METHOD_CLASSICAL = "classical_fastpath"
METHOD_SCHUR = "schur_weyl"
METHOD_BOUNDS = "bounds_only"


@dataclass(frozen=True)
class HypothesisInstance:
    """Two candidate states with a prior and a target error probability."""

    rho: DensityMatrix
    sigma: DensityMatrix
    prior_p: float
    alpha: float

    def __post_init__(self) -> None:
        if self.rho.dim != self.sigma.dim:
            raise DimensionMismatch("hypothesis states must share one dimension")
        if not 0.0 < self.prior_p < 1.0:
            raise InvalidParams(f"prior must be in (0, 1), got {self.prior_p}")
        pq = self.prior_p * (1.0 - self.prior_p)
        if not 0.0 < self.alpha < pq:
            raise InvalidAlpha(f"alpha must be in (0, pq) = (0, {pq}), got {self.alpha}")

    @property
    def prior_q(self) -> float:
        return 1.0 - self.prior_p


@dataclass(frozen=True)
class SampleComplexityResult:
    """Exact value (when computed) and lower/upper bounds for one instance.

    ``evaluations`` counts the n-copy errors P_e(n) that the exact search
    computed; it is 0 for the closed-form bound families.
    """

    lower: float
    upper: float
    method: str
    exact: int | None = None
    evaluations: int = 0

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise InvalidParams(f"lower {self.lower} exceeds upper {self.upper}")


def helstrom_error(inst: HypothesisInstance) -> float:
    """Optimal single-copy error (1/2) (1 - || p rho - q sigma ||_1)."""
    return _pe_dense(inst.rho, inst.sigma, inst.prior_p, inst.prior_q, 1)


def _simultaneous_diagonalization(rho_m: np.ndarray, sigma_m: np.ndarray):
    """Shared eigenbasis probabilities (P, Q), or None when not commuting."""
    comm = rho_m @ sigma_m - sigma_m @ rho_m
    if float(np.max(np.abs(comm))) > COMMUTE_TOL:
        return None
    # A generic combination separates joint eigenspaces; verify afterwards
    # and fall back to the dense path on the (measure-zero) failure cases.
    _, v = np.linalg.eigh(hermitian_part(rho_m + math.sqrt(2.0) * sigma_m))
    r = v.conj().T @ rho_m @ v
    s = v.conj().T @ sigma_m @ v
    off = max(
        float(np.max(np.abs(r - np.diag(np.diag(r))))),
        float(np.max(np.abs(s - np.diag(np.diag(s))))),
    )
    if off > 1e-8:
        return None
    p = np.clip(np.real(np.diag(r)), 0.0, None)
    q = np.clip(np.real(np.diag(s)), 0.0, None)
    return p / p.sum(), q / q.sum()


def _count_vectors(n: int, d: int) -> np.ndarray:
    """Every outcome-count vector of n draws from d outcomes, one float row each.

    The rows come in the order of ``combinations_with_replacement(range(d), n)``:
    the first count descending, then the remaining counts ordered the same way.
    Each pass splits every prefix with r draws left into r + 1 children whose
    next count runs r, r - 1, ..., 0.
    """
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(d - 1):
        sizes = left + 1
        parent = np.repeat(np.arange(left.size), sizes)
        child_left = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        counts = np.column_stack((counts[parent], left[parent] - child_left))
        left = child_left
    return np.column_stack((counts, left)).astype(float)


def _combo_count(n: int, d: int) -> int:
    return math.comb(n + d - 1, d - 1)


_SMALL_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(16)])


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n: ``math.lgamma`` below 16, Stirling's series from there.

    ln k! = (k + 1/2) ln k - k + ln(2 pi)/2 + 1/(12k) - 1/(360k^3) + 1/(1260k^5)
    - 1/(1680k^7); the first omitted term is below 1.2e-14 at k = 16. The
    series is summed in place: each temporary is as long as the table, and
    at large n fresh ones cost page faults.
    """
    lf = np.empty(n + 1)
    lf[:16] = _SMALL_LOG_FACTORIALS[: n + 1]
    k = np.arange(16.0, n + 1.0)
    inv2 = 1.0 / (k * k)
    series = np.full_like(k, -1.0 / 1680.0)
    for c in (1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):  # Horner's rule in 1/k^2
        series *= inv2
        series += c
    series /= k
    series += 0.5 * math.log(2.0 * math.pi)
    large = np.log(k, out=lf[16:])
    large *= k + 0.5
    large -= k
    large += series
    return lf


def _pe_classical(p_out: np.ndarray, q_out: np.ndarray, p: float, q: float, n: int) -> float:
    """n-copy Helstrom error for commuting states via outcome-count enumeration."""
    d = p_out.shape[0]
    with np.errstate(divide="ignore"):
        lp = np.log(p_out)
        lq = np.log(q_out)
    lf = _log_factorials(n)
    if d == 2:
        k = np.arange(n + 1, dtype=float)
        log_binom = lf[n] - lf - lf[::-1]  # ln C(n, k) for k = 0..n
        counts = np.stack([n - k, k], axis=1)
    else:
        n_combos = _combo_count(n, d)
        if n_combos > _COMBO_BUDGET:
            raise DimensionBudgetExceeded(
                f"{n_combos} outcome-count vectors exceed the enumeration budget"
            )
        counts = _count_vectors(n, d)
        log_binom = lf[n] - lf[counts.astype(np.intp)].sum(axis=1)
    with np.errstate(invalid="ignore"):
        log_p_mass = np.where(counts > 0, counts * lp[None, :], 0.0).sum(axis=1)
        log_q_mass = np.where(counts > 0, counts * lq[None, :], 0.0).sum(axis=1)
    a = p * np.exp(log_binom + log_p_mass)
    b = q * np.exp(log_binom + log_q_mass)
    tv = float(np.sum(np.abs(a - b)))
    return max(0.5 * (1.0 - tv), 0.0)


def _pe_dense(rho: DensityMatrix, sigma: DensityMatrix, p: float, q: float, n: int) -> float:
    a, b = p * tensor_power(rho, n).entries, q * tensor_power(sigma, n).entries
    nuc = 2.0 * float(bk.trace_distance_batch(a[None], b[None])[0])
    return max(0.5 * (1.0 - nuc), 0.0)


def _pe_schur(rho: DensityMatrix, sigma: DensityMatrix, p: float, q: float, n: int) -> float:
    """n-copy Helstrom error of a qubit pair from its Schur-Weyl blocks.

    By Schur-Weyl duality (Harrow, quant-ph/0512255) the n-qubit space splits
    into irreducible blocks k = 0..n//2 of dimension m + 1, m = n - 2k, each
    with multiplicity C(n, k) - C(n, k - 1), and A^{(x)n} acts on block k as
    det(A)^k Sym^m(A). So ||p rho^{(x)n} - q sigma^{(x)n}||_1 is the
    multiplicity-weighted sum of the trace norms of the blocks
    p det(rho)^k Sym^m(rho) - q det(sigma)^k Sym^m(sigma).

    The blocks are written in rho's eigenbasis, where Sym^m(rho) is diagonal;
    a diagonal phase there makes sigma real, so every block is real symmetric.
    In the orthonormal symmetric basis |m, i> (i ones among m qubits),
    |m, i> = sqrt((m - i) / m) |m-1, i>|0> + sqrt(i / m) |m-1, i-1>|1>, so
    Sym^m(A) is the compression of Sym^{m-1}(A) (x) A by that isometry.
    """
    if n > N_MAX_SCHUR:
        raise DimensionBudgetExceeded(
            f"{n} copies exceed the Schur-Weyl budget of {N_MAX_SCHUR}"
        )
    lam, v = np.linalg.eigh(rho.entries)
    lam = np.clip(lam, 0.0, None)
    s = v.conj().T @ sigma.entries @ v
    a, b, c = float(s[0, 0].real), float(abs(s[0, 1])), float(s[1, 1].real)
    det_rho = float(lam[0] * lam[1])
    det_sigma = max(a * c - b * b, 0.0)
    sym = np.ones((1, 1))  # Sym^m(sigma) in rho's eigenbasis, from m = 0
    nuc = 0.0
    for m in range(n + 1):
        i = np.arange(m + 1)
        if m:
            # Weights of |m-1, i>|0> and |m-1, i-1>|1> in |m, i>.
            w0 = np.sqrt((m - i[:-1]) / m)
            w1 = np.sqrt(i[1:] / m)
            last0 = np.zeros((m, m + 1))
            last0[:, :m] = sym * w0
            last1 = np.zeros((m, m + 1))
            last1[:, 1:] = sym * w1
            sym = np.zeros((m + 1, m + 1))
            sym[:m] = w0[:, None] * (a * last0 + b * last1)
            sym[1:] += w1[:, None] * (b * last0 + c * last1)
        if (n - m) % 2:
            continue
        k = (n - m) // 2
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        block = (-q * mult * det_sigma**k) * sym
        block[i, i] += (p * mult * det_rho**k) * lam[0] ** (m - i) * lam[1] ** i
        nuc += float(np.sum(np.abs(np.linalg.eigvalsh(block))))
    return max(0.5 * (1.0 - nuc), 0.0)


def _pe_path(inst: HypothesisInstance):
    """The method label and P_e(n) kernel that ``method="auto"`` uses."""
    args = (inst.prior_p, inst.prior_q)
    decomp = _simultaneous_diagonalization(inst.rho.entries, inst.sigma.entries)
    if decomp is not None:
        return METHOD_CLASSICAL, lambda n: _pe_classical(*decomp, *args, n)
    if inst.rho.dim == 2:
        return METHOD_SCHUR, lambda n: _pe_schur(inst.rho, inst.sigma, *args, n)
    return METHOD_DENSE, lambda n: _pe_dense(inst.rho, inst.sigma, *args, n)


def helstrom_error_n(inst: HypothesisInstance, n: int, method: str = "auto") -> float:
    """Optimal n-copy error for the instance.

    ``method="auto"`` takes the classical fast path (log-domain outcome-count
    sums, n up to 1e5 for commuting qubit pairs) when the states commute
    within ``COMMUTE_TOL``. Non-commuting qubit pairs take the Schur-Weyl
    blocks (n up to ``N_MAX_SCHUR``), and wider non-commuting pairs the dense
    tensor-power path. ``method="dense"`` always takes the tensor-power path,
    which serves as the oracle; ``DimensionBudgetExceeded`` marks n past a
    path's budget.
    """
    if n < 1:
        raise InvalidParams(f"copy count must be >= 1, got {n}")
    if method not in ("auto", METHOD_DENSE, METHOD_CLASSICAL):
        raise InvalidParams(f"unknown method {method!r}")
    if method == METHOD_DENSE:
        return _pe_dense(inst.rho, inst.sigma, inst.prior_p, inst.prior_q, n)
    path, pe = _pe_path(inst)
    if method == METHOD_CLASSICAL and path != METHOD_CLASSICAL:
        raise DimensionBudgetExceeded("states do not commute; no classical path")
    return pe(n)


def _linear_search(done, limit: int) -> int | None:
    """Smallest n in [1, limit] with done(n), by scanning n = 1, 2, ..."""
    for n in range(1, limit + 1):
        if done(n):
            return n
    return None


def _galloping_search(done, limit: int) -> int | None:
    """Smallest n in [1, limit] with done(n), for a done that stays true once true.

    Probes n = 1, 2, 4, ... (the last probe clamped to ``limit``) until done
    holds, then bisects the final doubling step, keeping done(hi) and not
    done(lo).
    """
    if limit < 1:
        return None
    lo, hi = 0, 1
    while not done(hi):
        if hi == limit:
            return None
        lo, hi = hi, min(2 * hi, limit)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if done(mid):
            hi = mid
        else:
            lo = mid
    return hi


def exact_sample_complexity(
    inst: HypothesisInstance, n_max: int | None = None
) -> SampleComplexityResult:
    """Smallest n with n-copy error at most alpha.

    Commuting states (the classical fast path, n up to ``N_MAX_FAST``) and
    non-commuting qubit pairs (the Schur-Weyl blocks, n up to
    ``N_MAX_SCHUR``) take a galloping search: doubling, then bisection. It is
    exact because P_e(n) cannot increase with n (extra copies can be
    discarded), and it costs O(log n) evaluations. Wider non-commuting states
    scan n = 1, 2, ... on dense tensor powers instead, because each dense
    evaluation costs several times the previous one and an overshoot past the
    answer would dominate.

    Returns a bounds-only result (lower = cap + 1) when the target is not
    reached within the search cap: n_max when given, else the path's budget,
    and never past the budget on the Schur-Weyl and dense paths. Raises
    ``DimensionBudgetExceeded`` when the target lies beyond the outcome-count
    enumeration budget of a commuting pair with three or more outcomes.
    """
    if trace_distance(inst.rho, inst.sigma) <= TOL_DENOM:
        raise Unbounded("identical hypotheses can never be distinguished")
    method, pe = _pe_path(inst)
    search = _galloping_search
    if method == METHOD_CLASSICAL:
        cap = N_MAX_FAST if n_max is None else int(n_max)
        d = inst.rho.dim
        # Probes stop at the last n whose count table fits the budget, so a
        # doubling step past the answer never raises.
        over = None
        if d > 2:
            over = _galloping_search(lambda n: _combo_count(n, d) > _COMBO_BUDGET, cap)
        limit = cap if over is None else over - 1
    elif method == METHOD_SCHUR:
        cap = limit = N_MAX_SCHUR if n_max is None else min(int(n_max), N_MAX_SCHUR)
    else:
        dense_cap = 1
        while inst.rho.dim ** (dense_cap + 1) <= MAX_DENSE_DIM:
            dense_cap += 1
        cap = limit = dense_cap if n_max is None else min(int(n_max), dense_cap)
        search = _linear_search
    evaluations = 0

    def reached(n: int) -> bool:
        nonlocal evaluations
        evaluations += 1
        return pe(n) <= inst.alpha

    n = search(reached, limit)
    if n is not None:
        return SampleComplexityResult(
            lower=float(n), upper=float(n), method=method, exact=n, evaluations=evaluations
        )
    if limit < cap:
        raise DimensionBudgetExceeded(
            f"alpha is not reached within {limit} copies, and "
            f"{_combo_count(limit + 1, inst.rho.dim)} outcome-count vectors "
            "exceed the enumeration budget"
        )
    return SampleComplexityResult(
        lower=float(cap + 1),
        upper=math.inf,
        method=METHOD_BOUNDS,
        exact=None,
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Closed-form bound families
# ---------------------------------------------------------------------------


def nonprivate_sc_bounds(inst: HypothesisInstance) -> SampleComplexityResult:
    """Fidelity/Bures bounds on the non-private sample complexity.

    For orthogonal states the upper bound is undefined and one copy always
    suffices, so the result carries exact = 1 instead.
    """
    p, q, alpha = inst.prior_p, inst.prior_q, inst.alpha
    pq = p * q
    f = fidelity(inst.rho, inst.sigma)
    if f <= 1e-12:
        return SampleComplexityResult(lower=1.0, upper=1.0, method=METHOD_BOUNDS, exact=1)
    db2 = 2.0 * (1.0 - math.sqrt(f))
    neg_log_f = -math.log(f)
    lower = max(
        math.log(pq / alpha) / neg_log_f,
        (pq - alpha * (1.0 - alpha)) / (pq * db2),
    )
    upper = float(math.ceil(2.0 * math.log(math.sqrt(pq) / alpha) / neg_log_f))
    return SampleComplexityResult(lower=lower, upper=upper, method=METHOD_BOUNDS)


def _private_c_term(epsilon: float, p: float, q: float, alpha: float) -> float:
    e = math.exp(epsilon)
    pq = p * q
    first = math.log(pq / alpha) * (e + 1.0) / (epsilon * (e - 1.0))
    second = (pq - alpha * (1.0 - alpha)) * (e + 1.0) / (
        2.0 * pq * (math.exp(epsilon / 2.0) - 1.0) ** 2
    )
    return max(first, second)


def private_sc_bounds(inst: HypothesisInstance, epsilon: float) -> SampleComplexityResult:
    """Two-sided bounds on the best-case private sample complexity.

    The lower bound is the larger of the computable non-private lower bound
    and C_{eps,p,q,alpha} / T; the upper bound is attained by the built
    mechanism reading out the optimal projector.
    """
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    t = trace_distance(inst.rho, inst.sigma)
    if t <= TOL_DENOM:
        raise DegenerateStates("states are indistinguishable")
    p, q, alpha = inst.prior_p, inst.prior_q, inst.alpha
    pq = p * q
    base = nonprivate_sc_bounds(inst)
    sc_floor = float(base.exact) if base.exact is not None else base.lower
    lower = max(sc_floor, _private_c_term(epsilon, p, q, alpha) / t)
    e = math.exp(epsilon)
    upper = float(
        math.ceil(2.0 * math.log(math.sqrt(pq) / alpha) * ((e + 1.0) / ((e - 1.0) * t)) ** 2)
    )
    return SampleComplexityResult(lower=lower, upper=upper, method=METHOD_BOUNDS)


def orthogonal_sc_bounds(epsilon: float, p: float, alpha: float) -> SampleComplexityResult:
    """Private sample-complexity bounds for perfectly distinguishable states.

    Lower bound (pq - alpha(1-alpha)) (e^eps + 1)^2 / (2 pq (e^eps - 1)^2),
    upper bound the general private bound at trace distance one. For eps < 1
    both scale as 1 / eps^2.
    """
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    q = 1.0 - p
    pq = p * q
    if not 0.0 < alpha < pq:
        raise InvalidAlpha(f"alpha must be in (0, pq) = (0, {pq}), got {alpha}")
    e = math.exp(epsilon)
    lower = (pq - alpha * (1.0 - alpha)) * (e + 1.0) ** 2 / (2.0 * pq * (e - 1.0) ** 2)
    upper = float(
        math.ceil(2.0 * math.log(math.sqrt(pq) / alpha) * ((e + 1.0) / (e - 1.0)) ** 2)
    )
    return SampleComplexityResult(lower=lower, upper=upper, method=METHOD_BOUNDS)


def instance_specific_bounds(
    inst: HypothesisInstance, epsilon: float
) -> SampleComplexityResult:
    """Bounds over the minimum-eigenvalue-constrained channel class.

    Channels whose better output keeps minimum eigenvalue at least
    1 / (e^eps + 1) admit matching-order bounds in 1 / (eps T)^2.
    """
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    t = trace_distance(inst.rho, inst.sigma)
    if t <= TOL_DENOM:
        raise DegenerateStates("states are indistinguishable")
    p, q, alpha = inst.prior_p, inst.prior_q, inst.alpha
    pq = p * q
    e = math.exp(epsilon)
    ratio = ((e + 1.0) / ((e - 1.0) * t)) ** 2
    lower = math.log(pq / alpha) * ratio / (e + 1.0)
    upper = math.log(math.sqrt(pq) / alpha) * ratio
    return SampleComplexityResult(lower=lower, upper=upper, method=METHOD_BOUNDS)


def w_eps_member(
    channel: KrausChannel,
    inst: HypothesisInstance,
    epsilon: float,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> bool:
    """Membership in the minimum-eigenvalue-constrained private class.

    Requires max of the two output minimum eigenvalues to reach
    1 / (e^eps + 1) and the channel to certify at (epsilon, 0).
    """
    lam1 = float(np.linalg.eigvalsh(channel.apply_matrix(inst.rho.entries))[0])
    lam2 = float(np.linalg.eigvalsh(channel.apply_matrix(inst.sigma.entries))[0])
    if max(lam1, lam2) < 1.0 / (math.exp(epsilon) + 1.0) - 1e-9:
        return False
    return certify(channel, PrivacyParams(epsilon, 0.0), search_budget, seed=seed).certified


@dataclass(frozen=True)
class LowPrivacyReport:
    """Geometric-mean measurement data for the low-privacy regime.

    ``k`` counts the distinct eigenvalues of rho # sigma^{-1} (the number of
    measurement outcomes), ``k_prime`` is ln(4 / Bures^2), and ``L`` the
    squared outcome-count factor entering the regime's upper bound. The
    measurement is fidelity-achieving: it preserves the squared Bures
    distance, which is re-verified at construction.
    """

    k: int
    k_prime: float
    L: float
    measurement: Povm
    condition_holds: bool
    bures_squared_input: float
    bures_squared_measured: float

    def __post_init__(self) -> None:
        if self.L < 1.0 - 1e-12:
            raise InvalidParams(f"L must be >= 1, got {self.L}")


def low_privacy_analysis(inst: HypothesisInstance, epsilon: float) -> LowPrivacyReport:
    """Build the geometric-mean measurement and check the low-privacy regime.

    The POVM projects onto the eigenspaces of rho # sigma^{-1} (eigenvalues
    collapsed within ``TOL_EIG``); the regime condition compares
    ((e^eps - 1) / (e^eps + 1))^2 against 1 / Bures^2.
    """
    rho_m, sigma_m = inst.rho.entries, inst.sigma.entries
    w_sigma = np.linalg.eigvalsh(sigma_m)
    if float(w_sigma[0]) <= EPS_REG * max(float(w_sigma[-1]), 1e-300):
        raise SingularSigma("sigma is singular beyond the regularized inverse")
    w, v = np.linalg.eigh(sigma_m)
    inv_sigma = (v * (1.0 / np.clip(w, EPS_REG, None))) @ v.conj().T
    mean_op = matrix_geometric_mean(rho_m, inv_sigma)
    w_g, v_g = np.linalg.eigh(mean_op)

    scale = max(1.0, float(np.max(np.abs(w_g))))
    groups: list[list[int]] = [[0]]
    for i in range(1, w_g.shape[0]):
        if w_g[i] - w_g[groups[-1][-1]] <= TOL_EIG * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    povm = Povm([v_g[:, group] @ v_g[:, group].conj().T for group in groups])

    p_out = povm.outcome_probabilities(rho_m)
    q_out = povm.outcome_probabilities(sigma_m)
    fid_classical = float(np.sum(np.sqrt(p_out * q_out))) ** 2
    db2_measured = 2.0 * (1.0 - math.sqrt(min(fid_classical, 1.0)))
    db2_input = bures_squared(inst.rho, inst.sigma)

    k = len(groups)
    k_prime = math.log(4.0 / db2_input) if db2_input > 0.0 else math.inf
    ell = max(1.0, min(float(k), k_prime) / 2.0) ** 2
    e = math.exp(epsilon)
    condition = db2_input > 0.0 and ((e - 1.0) / (e + 1.0)) ** 2 >= 1.0 / db2_input
    return LowPrivacyReport(
        k=k,
        k_prime=k_prime,
        L=ell,
        measurement=povm,
        condition_holds=bool(condition),
        bures_squared_input=db2_input,
        bures_squared_measured=db2_measured,
    )


def multiple_hypothesis_bounds(
    states, priors, epsilon: float, alpha: float
) -> SampleComplexityResult:
    """Pairwise bounds on private discrimination of M >= 2 hypotheses."""
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    states = list(states)
    priors = np.asarray(priors, dtype=float)
    m_count = len(states)
    if m_count < 2:
        raise InvalidParams("need at least two hypotheses")
    if priors.shape != (m_count,) or np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-12:
        raise InvalidParams("priors must be a probability vector over the states")
    if alpha <= 0.0:
        raise InvalidAlpha(f"alpha must be positive, got {alpha}")
    e = math.exp(epsilon)
    lower = -math.inf
    upper = -math.inf
    for i in range(m_count):
        for j in range(i + 1, m_count):
            t = trace_distance(states[i], states[j])
            if t <= TOL_DENOM:
                raise DegeneratePair(f"states {i} and {j} are indistinguishable")
            pi, pj = priors[i], priors[j]
            lower = max(
                lower,
                math.log(pi * pj / ((pi + pj) * alpha)) * (e + 1.0) / (epsilon * (e - 1.0) * t),
            )
            upper = max(
                upper,
                2.0
                * math.log(m_count * (m_count - 1) * math.sqrt(pi * pj) / (2.0 * alpha))
                * ((e + 1.0) / ((e - 1.0) * t)) ** 2,
            )
    return SampleComplexityResult(
        lower=lower, upper=float(math.ceil(upper)), method=METHOD_BOUNDS
    )


def _asymmetric_branch(numer_alpha: float, denom_alpha: float, epsilon: float, beta: float) -> float:
    beta_prime = beta / (beta - 1.0)
    numer = beta_prime * math.log(1.0 - numer_alpha) - math.log(denom_alpha)
    return numer / min(epsilon, epsilon * epsilon * beta / 2.0)


def _golden_max(fn, lo: float, hi: float, iters: int = 80) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return max(fc, fd)


def asymmetric_lower_bound(
    epsilon: float, alpha1: float, alpha2: float, beta_grid=None
) -> float:
    """Copies needed for private asymmetric testing, maximized over beta > 1.

    Evaluates both error-order branches on a log grid and polishes the best
    grid point by golden-section search.
    """
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise InvalidAlpha("alpha1 and alpha2 must lie in (0, 1)")
    grid = (
        np.asarray(beta_grid, dtype=float)
        if beta_grid is not None
        else np.geomspace(1.0 + 1e-6, 1e9, 400)
    )
    best = -math.inf
    for first, second in ((alpha1, alpha2), (alpha2, alpha1)):
        values = np.array([_asymmetric_branch(first, second, epsilon, b) for b in grid])
        idx = int(np.argmax(values))
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, grid.shape[0] - 1)]
        refined = _golden_max(
            lambda u: _asymmetric_branch(first, second, epsilon, math.exp(u)),
            math.log(lo),
            math.log(hi),
        )
        best = max(best, float(values[idx]), refined)
    return best


def heterogeneous_mechanism_lower_bound(inst: HypothesisInstance, epsilon: float) -> float:
    """Lower bound when each copy may pass through a different mechanism.

    2 (1 - alpha / min(p, q))^2 (e^eps + 1) / (eps (e^eps - 1) T); it also
    applies to the homogeneous setting.
    """
    if epsilon <= 0.0:
        raise InvalidParams(f"epsilon must be > 0, got {epsilon}")
    min_prior = min(inst.prior_p, inst.prior_q)
    if inst.alpha > min_prior:
        raise AlphaTooLarge(f"alpha must be <= min(p, q) = {min_prior}")
    t = trace_distance(inst.rho, inst.sigma)
    if t <= TOL_DENOM:
        raise DegenerateStates("states are indistinguishable")
    e = math.exp(epsilon)
    return (
        2.0
        * (1.0 - inst.alpha / min_prior) ** 2
        * (e + 1.0)
        / (epsilon * (e - 1.0) * t)
    )
