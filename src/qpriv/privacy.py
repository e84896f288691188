"""Construction, certification, and transformation of private channels.

A channel satisfies the (epsilon, delta) local-privacy constraint when
sup_{rho, sigma} E_{e^eps}(A(rho) || A(sigma)) <= delta, and the supremum may
be restricted to orthogonal pure input pairs. Mechanisms built here compose a
binary effect readout with a depolarizing channel.

Certification and the epsilon estimate answer 0 for a channel with a
one-dimensional input, which has no orthogonal input pair. Any other channel
takes one of two routes, chosen by the output dimension alone:

* qubit output: the dual form on the Bloch sphere. For gamma >= 1 the
  supremum is max(0, max_n lambda_max(B(n)) - gamma lambda_min(B(n))) with
  B(n) = A^dag((I + n.sigma) / 2), attained by B(n)'s top and bottom
  eigenvectors, and the epsilon level is max_n ln(lambda_max / lambda_min).
  A fixed Fibonacci grid seeds an ascent over n; the seed is unused.
* wider output: a multi-start derivative-free pattern search over
  orthonormal input 2-frames, drawn from the seed.

Both are sound rejectors and heuristic acceptors: the returned worst value is
attained by the returned witness pair, so it is a valid lower bound on the
true supremum; a failed certification is conclusive while a passed one is
best-effort.
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
    """Start count and step cap of both certification routes (see :func:`certify`)."""

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
    within ``TOL_CERT`` of the allowed delta.
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


# ---------------------------------------------------------------------------
# Dual form for qubit outputs: an ascent over Bloch vectors
# ---------------------------------------------------------------------------


def _fibonacci_sphere(count: int) -> np.ndarray:
    """``count`` near-uniform unit vectors, the first at +z and the last at -z."""
    k = np.arange(count)
    z = 1.0 - 2.0 * k / (count - 1)
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def _bloch_ascent(channel: KrausChannel, budget: SearchBudget, gamma: float | None = None):
    """Maximize over unit n an objective of the spectrum of B(n) = A^dag((I + n.sigma) / 2).

    The objective is lambda_max - gamma lambda_min, or without ``gamma`` the
    ratio lambda_max / lambda_min (+inf once lambda_min <= ``TOL_SUPP``
    lambda_max). B(n) is summed from A^dag of the matrix units, so at the
    poles it is a sum of positive terms whose small eigenvalues survive
    instead of cancelling against I/2. The best ``budget.restarts`` grid
    points step to the Bloch vector of A(top) - t A(bottom), t = gamma or the
    current ratio (Dinkelbach); a start stops at its first step that does not
    improve. Returns the value, B's top and bottom eigenvectors, and the
    eigenproblem count.
    """
    kraus = np.stack(channel.kraus)
    dim = channel.dim_in
    units = np.einsum("kai,kbj->abij", kraus.conj(), kraus)  # A^dag(|a><b|)

    def pullback(n: np.ndarray) -> np.ndarray:
        x, y, z = n.T
        m = 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1)
        return (m @ units.reshape(4, dim * dim)).reshape(-1, dim, dim)

    def score(n: np.ndarray, vectors: bool):
        solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
        parts = [solve(pullback(n[i : i + _EIG_CHUNK])) for i in range(0, len(n), _EIG_CHUNK)]
        w = np.concatenate([p[0] for p in parts] if vectors else parts)
        v = np.concatenate([p[1] for p in parts]) if vectors else None
        lo, hi = np.clip(w[:, 0], 0.0, 1.0), np.clip(w[:, -1], 0.0, 1.0)
        if gamma is not None:
            return hi - gamma * lo, v
        ratio = np.divide(hi, lo, out=np.full_like(hi, math.inf), where=lo > TOL_SUPP * hi)
        return np.where(hi > 0.0, ratio, 1.0), v

    grid = _fibonacci_sphere(BLOCH_GRID)
    value, _ = score(grid, False)
    value, v = score(grid[np.argsort(-value, kind="stable")[: budget.restarts]], True)
    evals = BLOCH_GRID + len(value)
    top, bottom = v[:, :, -1], v[:, :, 0]
    active = np.arange(len(value))
    for _ in range(budget.polish_steps):
        if np.isinf(value).any():
            break
        t = gamma if gamma is not None else value[active, None, None]
        q_top = np.einsum("ni,abij,nj->nab", top[active].conj(), units, top[active])
        q_bot = np.einsum("ni,abij,nj->nab", bottom[active].conj(), units, bottom[active])
        diff = q_top - t * q_bot  # entry (a, b) is <b|A(top) - t A(bottom)|a>
        off = 2.0 * diff[:, 0, 1]
        g = np.stack([off.real, off.imag, (diff[:, 0, 0] - diff[:, 1, 1]).real], axis=-1)
        # Rescale before the norm: at large gamma the entries reach ~1e308.
        scale = np.max(np.abs(g), axis=-1, keepdims=True)
        moves = scale[:, 0] > 0.0
        active, g = active[moves], g[moves] / scale[moves]
        if active.size == 0:
            break
        cand, v = score(g / np.linalg.norm(g, axis=-1, keepdims=True), True)
        evals += len(cand)
        better = cand > value[active]
        active = active[better]
        value[active], top[active], bottom[active] = cand[better], v[better, :, -1], v[better, :, 0]
    best = int(np.argmax(value))
    return float(value[best]), top[best], bottom[best], evals


def _worst_pair(channel: KrausChannel, budget: SearchBudget, seed, gamma: float | None = None):
    """The route shared by :func:`certify` (with ``gamma``) and :func:`estimate_epsilon`.

    Returns the worst value, attained by the returned input vectors, and the
    evaluation count. With ``gamma`` the value is the hockey-stick objective;
    without it, the max-relative entropy. A one-dimensional input has no
    orthogonal pair, so every objective is 0 there.
    """
    if channel.dim_in == 1:
        one = np.ones(1, dtype=complex)
        return 0.0, one, one, 0
    if channel.dim_out == 2:
        value, first, second, evals = _bloch_ascent(channel, budget, gamma)
        return (value if gamma is not None else math.log(value)), first, second, evals
    transfer = channel.transfer
    objective = _objective_dmax(transfer) if gamma is None else _objective_hockey(transfer, gamma)
    value, frame, evals = _search_orthogonal_pairs(channel, objective, budget, seed)
    return value, frame[:, 0], frame[:, 1], evals


def certify(
    channel: KrausChannel,
    params: PrivacyParams,
    search_budget: SearchBudget | None = None,
    seed=0,
) -> CertificationResult:
    """Find the worst hockey-stick divergence between channel outputs.

    Maximizes E_{e^eps}(A(phi1) || A(phi2)) over orthogonal pure input pairs;
    the channel is certified when the maximum found stays within
    ``TOL_CERT`` of delta. A qubit-output channel takes the Bloch-sphere
    dual (:func:`_bloch_ascent`): ``iterations`` counts its eigenproblems and
    ``seed`` is unused. Wider outputs take the frame search, seeded by
    ``seed``, and ``iterations`` counts its frame evaluations. On both
    routes ``search_budget`` sets the start count and the step cap. A
    channel with a one-dimensional input has no orthogonal input pair and is
    certified with worst value 0 and no evaluations.
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
    A qubit-output channel takes the Bloch-sphere dual, where the level is
    ln(lambda_max / lambda_min) of B(n) and ``seed`` is unused; wider outputs
    take the frame search seeded by ``seed``. ``search_budget`` works as in
    :func:`certify`, and a one-dimensional input gives 0 there too.
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
