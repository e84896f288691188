"""Construction, certification, and transformation of private channels.

A channel satisfies the (epsilon, delta) local-privacy constraint when
sup_{rho, sigma} E_{e^eps}(A(rho) || A(sigma)) <= delta, and the supremum may
be restricted to orthogonal pure input pairs. Mechanisms built here compose a
binary effect readout with a depolarizing channel; certification runs a
multi-start derivative-free search over orthonormal input 2-frames.

The certifier is a sound rejector and a heuristic acceptor: the returned
worst value is always a valid lower bound on the true supremum, so a failed
certification is conclusive while a passed one is best-effort.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from .errors import InvalidEta, InvalidParams
from .quantum_core import (
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
    """Restart and polish-step counts for the certification search."""

    restarts: int = DEFAULT_RESTARTS
    polish_steps: int = DEFAULT_POLISH_STEPS

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.polish_steps < 0:
            raise InvalidParams("search budget must be positive")


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a privacy certification search.

    ``worst_value`` is the largest hockey-stick divergence found between
    channel outputs of orthogonal pure inputs; it lower-bounds the true
    supremum. ``certified`` holds when that value is within ``TOL_CERT`` of
    the allowed delta.
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
    p = 2.0 * (1.0 - params.delta) / (math.exp(params.epsilon) + 1.0)
    return compose(depolarizing_channel(2, p), measurement_channel_two_outcome(effect))


# ---------------------------------------------------------------------------
# Derivative-free search over orthonormal input pairs
# ---------------------------------------------------------------------------


def _initial_raw(rng: np.random.Generator, restarts: int, dim: int) -> np.ndarray:
    raw = bk.gaussian_complex(rng, (restarts, dim, 2))
    # Seed the first restarts with canonical basis pairs; they are exact
    # optima for computational-basis-aligned mechanisms.
    count = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            if count >= restarts:
                break
            raw[count] = 0.0
            raw[count, i, 0] = 1.0
            raw[count, j, 1] = 1.0
            count += 1
    return raw


def _frames(raw: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(raw)
    return q


def _objective_hockey(transfer: np.ndarray, gamma: float):
    def evaluate(frames: np.ndarray) -> np.ndarray:
        out1, out2 = _push_frames(transfer, frames)
        a = bk.positive_eigensum(out1 - gamma * out2)
        b = bk.positive_eigensum(out2 - gamma * out1)
        return np.maximum(a, b)

    return evaluate


def _objective_dmax(transfer: np.ndarray):
    def evaluate(frames: np.ndarray) -> np.ndarray:
        out1, out2 = _push_frames(transfer, frames)
        a = bk.max_relative_entropy_batch(out1, out2)
        b = bk.max_relative_entropy_batch(out2, out1)
        return np.maximum(a, b)

    return evaluate


def _push_frames(transfer: np.ndarray, frames: np.ndarray):
    s1 = bk.projectors_from_vectors(frames[:, :, 0])
    s2 = bk.projectors_from_vectors(frames[:, :, 1])
    n, d, _ = s1.shape
    dout = int(round(math.sqrt(transfer.shape[0])))
    out1 = (s1.reshape(n, d * d) @ transfer.T).reshape(n, dout, dout)
    out2 = (s2.reshape(n, d * d) @ transfer.T).reshape(n, dout, dout)
    return out1, out2


def _search_orthogonal_pairs(channel: KrausChannel, objective, budget: SearchBudget, seed):
    rng = as_rng(seed)
    dim = channel.dim_in
    restarts = budget.restarts
    raw = _initial_raw(rng, restarts, dim)
    value = objective(_frames(raw))
    evals = restarts
    step = np.full(restarts, 0.5)
    stall = np.zeros(restarts, dtype=int)
    n_dirs = 4 * dim
    for it in range(budget.polish_steps):
        if np.any(np.isinf(value)):
            break
        k = it % n_dirs
        vec_idx, rem = divmod(k, 2 * dim)
        coord, part = divmod(rem, 2)
        bump = step if part == 0 else 1j * step
        for sign in (1.0, -1.0):
            proposal = raw.copy()
            proposal[:, coord, vec_idx] += sign * bump
            cand = objective(_frames(proposal))
            evals += restarts
            improved = cand > value
            raw[improved] = proposal[improved]
            value = np.where(improved, cand, value)
            stall = np.where(improved, 0, stall + 1)
        shrink = stall >= 2 * n_dirs
        step = np.where(shrink, np.maximum(step * 0.5, 1e-10), step)
        stall = np.where(shrink, 0, stall)
    best = int(np.argmax(value))
    frame = _frames(raw[best : best + 1])[0]
    return float(value[best]), frame, evals


def certify(
    channel: KrausChannel,
    params: PrivacyParams,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> CertificationResult:
    """Search for the worst hockey-stick divergence between channel outputs.

    Maximizes E_{e^eps}(A(phi1) || A(phi2)) over orthogonal pure input pairs
    with a multi-start coordinate pattern search; the channel is certified
    when the maximum found stays within ``TOL_CERT`` of delta.
    """
    budget = search_budget or SearchBudget()
    gamma = math.exp(params.epsilon)
    value, frame, evals = _search_orthogonal_pairs(
        channel, _objective_hockey(channel.transfer, gamma), budget, seed
    )
    worst = max(value, 0.0)
    witness = (PureState(frame[:, 0]), PureState(frame[:, 1]))
    return CertificationResult(
        certified=worst <= params.delta + TOL_CERT,
        worst_value=worst,
        witness_pair=witness,
        iterations=evals,
    )


def estimate_epsilon(
    channel: KrausChannel,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> float:
    """Largest max-relative entropy between outputs found by the search.

    Returns a lower bound on the true privacy level; values above
    ``EPSILON_CAP`` (in particular orthogonal outputs) are reported as +inf.
    """
    budget = search_budget or SearchBudget()
    value, _, _ = _search_orthogonal_pairs(
        channel, _objective_dmax(channel.transfer), budget, seed
    )
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
