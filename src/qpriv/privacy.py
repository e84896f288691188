"""Construction, certification, and transformation of private channels.

A channel satisfies the (epsilon, delta) local-privacy constraint when
sup_{rho, sigma} E_{e^eps}(A(rho) || A(sigma)) <= delta, and the supremum may
be restricted to orthogonal pure input pairs. Mechanisms built here compose a
binary effect readout with a depolarizing channel.

Certification and the epsilon estimate answer 0 for a channel with a
one-dimensional input, which has no orthogonal input pair. Every other
channel takes one route, the dual form: for a test 0 <= M <= I the best
orthogonal pair is the top and bottom eigenvectors of A^dag(M), so the
supremum is max(0, max_M lambda_max - gamma lambda_min) of A^dag(M), and
the epsilon level is max_M ln(lambda_max / lambda_min). An ascent
alternates between M and the pair. The output dimension only picks its
starts: a fixed Fibonacci grid of Bloch projectors for qubit outputs, and
for wider outputs the basis pairs followed by random pairs drawn from the
seed.

The route is a sound rejector and a heuristic acceptor: the returned worst
value is attained by the returned witness pair, so it is a valid lower bound
on the true supremum; a failed certification is conclusive while a passed
one is best-effort. One caveat holds at large gamma on wider outputs: the
eigenvalues behind a value carry an absolute rounding error of about 1e-16,
which gamma multiplies, so there a rejection can come from rounding alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from .errors import InvalidEta, InvalidParams
from .quantum_core import (
    TOL_SUPP,
    KrausChannel,
    PureState,
    as_rng,
    compose,
    depolarizing_channel,
    measurement_channel_two_outcome,
    random_channel,
)

TOL_CERT = 1e-7

# Searches reporting a supremum above this value return +inf as a sentinel.
EPSILON_CAP = 50.0

# Largest epsilon whose e^eps is a finite double.
EPSILON_MAX = math.log(sys.float_info.max)

DEFAULT_RESTARTS = 64
DEFAULT_POLISH_STEPS = 200

# Points of the Fibonacci grid that seeds the qubit-output ascent.
BLOCH_GRID = 512

# Largest stack of matrices per eigensolver call, which keeps peak memory flat.
_EIG_CHUNK = 64


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy constraint."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= EPSILON_MAX:
            raise InvalidParams(
                f"epsilon must be in [0, {EPSILON_MAX:.2f}], got {self.epsilon}"
            )
        if not 0.0 <= self.delta <= 1.0:
            raise InvalidParams(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class SearchBudget:
    """Start count and per-start step cap of the certification ascent (see :func:`certify`)."""

    restarts: int = DEFAULT_RESTARTS
    polish_steps: int = DEFAULT_POLISH_STEPS

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.polish_steps < 0:
            raise InvalidParams("search budget must be positive")


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a privacy certification search.

    ``worst_value`` is the largest hockey-stick divergence found between
    channel outputs of orthogonal pure inputs, attained by ``witness_pair``;
    it lower-bounds the true supremum. ``certified`` holds when that value is
    within ``TOL_CERT`` of the allowed delta. ``iterations`` counts the
    d_in x d_in eigenproblems of the search, one per scored test A^dag(M).
    """

    certified: bool
    worst_value: float
    witness_pair: tuple[PureState, PureState]
    iterations: int


def build_qldp_mechanism(effect, epsilon: float) -> KrausChannel:
    """Depolarized binary readout meeting the pure privacy constraint.

    Composes the two-outcome measurement of ``effect`` with depolarization at
    the boundary weight p = 2 / (e^eps + 1); the result satisfies the
    (epsilon, 0) constraint for every input dimension.
    """
    return build_eps_delta_mechanism(effect, PrivacyParams(epsilon))


def build_eps_delta_mechanism(effect, params: PrivacyParams) -> KrausChannel:
    """Depolarized binary readout meeting the (epsilon, delta) constraint.

    Uses the relaxed weight p = 2 (1 - delta) / (e^eps + 1); at delta = 0
    this coincides with :func:`build_qldp_mechanism`, and at delta = 1 it is
    the bare measurement channel.
    """
    p = mechanism_weight(params)
    return compose(depolarizing_channel(2, p), measurement_channel_two_outcome(effect))


def mechanism_weight(params: PrivacyParams) -> float:
    """Depolarizing weight p = 2 (1 - delta) / (e^eps + 1) of the built mechanism."""
    return 2.0 * (1.0 - params.delta) / (math.exp(params.epsilon) + 1.0)


# ---------------------------------------------------------------------------
# Dual form: an ascent over tests M
# ---------------------------------------------------------------------------


def _fibonacci_sphere(count: int) -> np.ndarray:
    """``count`` near-uniform unit vectors, the first at +z and the last at -z."""
    k = np.arange(count)
    z = 1.0 - 2.0 * k / (count - 1)
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def _bloch_projectors(n: np.ndarray) -> np.ndarray:
    """Projectors (I + n.sigma) / 2 onto stacked unit Bloch vectors, shape (count, 2, 2)."""
    x, y, z = n.T
    return 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1).reshape(-1, 2, 2)


def _start_pairs(dim: int, count: int, seed) -> np.ndarray:
    """``count`` orthonormal input pairs, shape (count, dim, 2): the basis pairs
    (e_i, e_j), i < j, first, since they are exact optima for mechanisms aligned
    with the computational basis, then random pairs drawn from ``seed``."""
    i, j = (idx[:count] for idx in np.triu_indices(dim, 1))
    basis = np.zeros((len(i), dim, 2), dtype=complex)
    basis[np.arange(len(i)), i, 0] = 1.0
    basis[np.arange(len(i)), j, 1] = 1.0
    return np.concatenate([basis, bk.orthonormal_pairs(as_rng(seed), count - len(i), dim)])


def _positive_projectors(diff: np.ndarray, rank_one: bool) -> np.ndarray:
    """Projectors onto the positive eigenspace of each stacked Hermitian, or onto
    its top eigenvector when ``rank_one`` or when that space is empty."""
    # Rescale before eigh: at large gamma the entries reach ~1e308.
    scale = np.max(np.abs(diff), axis=(1, 2), keepdims=True)
    w, v = np.linalg.eigh(diff / np.where(scale > 0.0, scale, 1.0))
    keep = (w > 0.0) & (not rank_one)
    keep[:, -1] = True
    return (v * keep[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _dual_ascent(channel: KrausChannel, budget: SearchBudget, seed, gamma: float | None = None):
    """Maximize over tests M an objective of the spectrum of A^dag(M).

    The objective is lambda_max - gamma lambda_min, or without ``gamma`` the
    ratio lambda_max / lambda_min (+inf once lambda_min <= ``TOL_SUPP``
    lambda_max); A^dag(M)'s top and bottom eigenvectors are the orthogonal
    input pair that attains it. Qubit outputs start from the best
    ``budget.restarts`` points of a Fibonacci grid of Bloch projectors; wider
    outputs from the first step of ``budget.restarts`` input pairs
    (:func:`_start_pairs`). Each step takes M from the current pair: the
    positive eigenspace of A(top) - gamma A(bottom), or for the ratio the top
    eigenvector of A(top) - t A(bottom) with t the current ratio (Dinkelbach).
    A start stops at its first step that does not improve. Returns the value,
    the best pair, and the count of A^dag(M) spectra computed; with ``gamma``
    the value is that pair's own E_gamma, also when its start hit the cap.
    """
    count, d_out, d_in = channel.kraus.shape
    flat = channel.kraus.reshape(count, d_out * d_in)
    # (flat^dag flat)[(a, i), (b, j)] = A^dag(|a><b|)[i, j], so row (a, b) of
    # dual holds that matrix unit's image: vec(A^dag(M)) = vec(M) @ dual.
    dual = (flat.conj().T @ flat).reshape(d_out, d_in, d_out, d_in)
    dual = dual.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)

    def push(vectors: np.ndarray) -> np.ndarray:
        # <b|A(v v^dag)|a> = tr(v v^dag A^dag(|a><b|)), and (v v^dag)^T = conj(v) conj(v)^dag.
        flat_in = bk.projectors_from_vectors(vectors.conj()).reshape(len(vectors), d_in * d_in)
        return (flat_in @ dual.T).reshape(-1, d_out, d_out).transpose(0, 2, 1)

    def step(first: np.ndarray, second: np.ndarray, t) -> np.ndarray:
        return _positive_projectors(push(first) - t * push(second), rank_one=gamma is None)

    def pullback(m: np.ndarray) -> np.ndarray:
        return (m.reshape(len(m), d_out * d_out) @ dual).reshape(-1, d_in, d_in)

    def score(m: np.ndarray, vectors: bool):
        solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
        parts = [solve(pullback(m[i : i + _EIG_CHUNK])) for i in range(0, len(m), _EIG_CHUNK)]
        w = np.concatenate([p[0] for p in parts] if vectors else parts)
        v = np.concatenate([p[1] for p in parts]) if vectors else None
        lo, hi = np.clip(w[:, 0], 0.0, 1.0), np.clip(w[:, -1], 0.0, 1.0)
        if gamma is not None:
            return hi - gamma * lo, v
        ratio = np.divide(hi, lo, out=np.full_like(hi, math.inf), where=lo > TOL_SUPP * hi)
        return np.where(hi > 0.0, ratio, 1.0), v

    if d_out == 2:
        grid = _bloch_projectors(_fibonacci_sphere(BLOCH_GRID))
        value, _ = score(grid, False)
        m = grid[np.argsort(-value, kind="stable")[: budget.restarts]]
        evals = BLOCH_GRID
    else:
        pairs = _start_pairs(d_in, budget.restarts, seed)
        m = step(pairs[:, :, 0], pairs[:, :, 1], 1.0 if gamma is None else gamma)
        evals = 0
    value, v = score(m, True)
    evals += len(value)
    top, bottom = v[:, :, -1], v[:, :, 0]
    active = np.arange(len(value))
    for _ in range(budget.polish_steps):
        if active.size == 0 or np.isinf(value).any():
            break
        t = gamma if gamma is not None else value[active, None, None]
        cand, v = score(step(top[active], bottom[active], t), True)
        evals += len(cand)
        better = cand > value[active]
        active = active[better]
        value[active], top[active], bottom[active] = cand[better], v[better, :, -1], v[better, :, 0]
    best = int(np.argmax(value))
    top, bottom, value = top[best], bottom[best], float(value[best])
    if gamma is not None:
        # A start cut by the step cap may sit below its pair's own E_gamma, which
        # is tr M (A(top) - gamma A(bottom)) at the next step's M; report that,
        # each term clipped as the spectrum is, so it cannot exceed 1.
        dual_m = pullback(step(top[None], bottom[None], gamma))[0]
        q_top, q_bottom = (np.clip(np.vdot(x, dual_m @ x).real, 0.0, 1.0) for x in (top, bottom))
        value = float(q_top - gamma * q_bottom)
    return value, top, bottom, evals


def _worst_pair(channel: KrausChannel, budget: SearchBudget, seed, gamma: float | None = None):
    """The route shared by :func:`certify` (with ``gamma``) and :func:`estimate_epsilon`.

    Returns the worst value, attained by the returned input vectors, and the
    eigenproblem count. With ``gamma`` the value is the hockey-stick
    objective; without it, the max-relative entropy. A one-dimensional input
    has no orthogonal pair, so every objective is 0 there.
    """
    if channel.dim_in == 1:
        one = np.ones(1, dtype=complex)
        return 0.0, one, one, 0
    value, first, second, evals = _dual_ascent(channel, budget, seed, gamma)
    return (value if gamma is not None else math.log(value)), first, second, evals


def certify(
    channel: KrausChannel,
    params: PrivacyParams,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> CertificationResult:
    """Find the worst hockey-stick divergence between channel outputs.

    Maximizes E_{e^eps}(A(phi1) || A(phi2)) over orthogonal pure input pairs
    through the dual form (:func:`_dual_ascent`); the channel is certified
    when the maximum found stays within ``TOL_CERT`` of delta.
    ``search_budget`` sets the start count and the per-start step cap, and
    ``iterations`` counts the eigenproblems. ``seed`` draws the random starts
    of outputs wider than a qubit; qubit outputs start from a fixed grid and
    leave it unused. On wider outputs at large eps a rejection can come from
    rounding alone, since e^eps multiplies the rounding error of the
    smallest eigenvalue. A channel with a one-dimensional input has no
    orthogonal input pair and is certified with worst value 0 and no
    evaluations.
    """
    value, first, second, evals = _worst_pair(
        channel, search_budget or SearchBudget(), seed, math.exp(params.epsilon)
    )
    worst = max(value, 0.0)
    return CertificationResult(
        certified=worst <= params.delta + TOL_CERT,
        worst_value=worst,
        witness_pair=(PureState(first), PureState(second)),
        iterations=evals,
    )


def estimate_epsilon(
    channel: KrausChannel,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> float:
    """Largest max-relative entropy between outputs of orthogonal pure inputs.

    Returns a lower bound on the true privacy level; values above
    ``EPSILON_CAP`` (in particular orthogonal outputs) are reported as +inf.
    The level is max_M ln(lambda_max / lambda_min) of A^dag(M), found by the
    same ascent as :func:`certify`, with ``search_budget`` and ``seed`` as
    there; a one-dimensional input gives 0 here too.
    """
    value = _worst_pair(channel, search_budget or SearchBudget(), seed)[0]
    if value > EPSILON_CAP:
        return math.inf
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Conversions between privacy regimes
# ---------------------------------------------------------------------------


def purify_dp(
    channel: KrausChannel, eta: float, params: PrivacyParams
) -> tuple[KrausChannel, float]:
    """Trade an (eps, delta) channel for a nearby pure-privacy channel.

    Composes depolarization of weight ``eta`` after the channel, which keeps
    every output within trace distance ``eta`` of the original and satisfies
    the pure constraint at

        eps' = eps + ln(1 + (d delta / eta) e^{-eps}),

    d being the channel output dimension. The caller asserts (or certifies)
    that the input channel meets ``params``.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidEta(f"eta must be in (0, 1), got {eta}")
    dim = channel.dim_out
    purified = compose(depolarizing_channel(dim, eta), channel)
    eps_prime = params.epsilon + math.log1p(
        dim * params.delta / eta * math.exp(-params.epsilon)
    )
    return purified, eps_prime


def relax_pure_dp(eps_total: float, delta: float) -> PrivacyParams:
    """Split a pure guarantee: (eps_total, 0) implies (eps_total - delta, delta)."""
    if not 0.0 <= delta <= eps_total:
        raise InvalidParams(
            f"need eps_total >= delta >= 0, got ({eps_total}, {delta})"
        )
    return PrivacyParams(epsilon=eps_total - delta, delta=delta)


def random_private_channel(dim: int, params: PrivacyParams, seed=None) -> KrausChannel:
    """A random member of the certified family post o mechanism o pre.

    Random pre- and post-processing channels preserve the privacy constraint
    (data processing on both sides), so the family is closed under the
    (epsilon, delta) constraint while exercising generic Kraus structure.
    """
    rng = as_rng(seed)
    effect = bk.random_effects(rng, 1, dim)[0]
    mech = build_eps_delta_mechanism(effect, params)
    pre = random_channel(dim, dim, 2, rng)
    post = random_channel(2, 2, 2, rng)
    return compose(post, compose(mech, pre))
