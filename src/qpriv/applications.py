"""Fairness certificates and Holevo-information stability for private channels.

A private channel followed by a measurement treats nearby inputs nearly
alike (fairness), and the classical information its outputs carry about the
choice of input state is uniformly small (Holevo stability). Both effects
inherit their constants from the trace-distance contraction coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from .contraction import trace_contraction_coefficient
from .errors import DimensionMismatch, InvalidParams
from .privacy import PrivacyParams
from .quantum_core import DensityMatrix, KrausChannel, Povm, as_rng

# Eigenvalues are floored here before x log x to avoid log(0).
ENTROPY_FLOOR = 1e-15

STABILITY_TOL = 1e-9
FAIRNESS_TOL = 1e-9
DEFAULT_CERTIFICATE_PAIRS = 500


@dataclass(frozen=True)
class Ensemble:
    """Classical prior over a finite set of equally sized quantum states."""

    priors: np.ndarray
    states: tuple

    def __post_init__(self) -> None:
        priors = np.asarray(self.priors, dtype=float)
        states = tuple(self.states)
        if priors.ndim != 1 or len(states) != priors.shape[0]:
            raise InvalidParams("need one prior per state")
        if np.any(priors < 0.0) or abs(float(priors.sum()) - 1.0) > 1e-12:
            raise InvalidParams("priors must be nonnegative and sum to one")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch("ensemble states must share one dimension")
        priors = priors.copy()
        priors.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def von_neumann_entropy(state) -> float:
    """Entropy -Tr[rho log rho] with the eigenvalue floor applied."""
    m = state.entries if isinstance(state, DensityMatrix) else np.asarray(state)
    w = np.clip(np.linalg.eigvalsh(m), ENTROPY_FLOOR, None)
    return float(-np.sum(w * np.log(w)))


def fairness_distance(channel: KrausChannel, povm: Povm, rho, sigma) -> float:
    """Output-distribution total variation (1/2) sum_i |Tr[M_i A(rho - sigma)]|."""
    if povm.dim != channel.dim_out:
        raise DimensionMismatch(
            f"POVM dim {povm.dim} does not match channel output {channel.dim_out}"
        )
    rho_m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    sigma_m = sigma.entries if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    if rho_m.shape != sigma_m.shape or rho_m.shape[0] != channel.dim_in:
        raise DimensionMismatch("states must match the channel input dimension")
    delta = channel.apply_matrix(rho_m - sigma_m)
    total = 0.0
    for effect in povm.effects:
        total += abs(float(np.real(np.trace(effect @ delta))))
    return 0.5 * total


def fairness_certificate(
    channel: KrausChannel,
    povm: Povm,
    params: PrivacyParams,
    alpha_bound: float,
    pairs: int = DEFAULT_CERTIFICATE_PAIRS,
    seed=0,
) -> tuple[bool, float]:
    """Sampled check that inputs within trace distance alpha give similar readouts.

    Pairs are drawn by rejection plus interpolation toward the trace-distance
    ball of radius ``alpha_bound``; each must have output-distribution
    distance at most alpha_bound * (e^eps - 1 + 2 delta) / (e^eps + 1).
    Returns (holds, minimum slack); sampling makes this a sound rejector only.
    """
    if not 0.0 < alpha_bound <= 1.0:
        raise InvalidParams(f"alpha_bound must be in (0, 1], got {alpha_bound}")
    bound = alpha_bound * trace_contraction_coefficient(params)
    rng = as_rng(seed)
    dim = channel.dim_in
    margin = math.inf
    for _ in range(pairs):
        rho = bk.ginibre_states(rng, 1, dim)[0]
        sigma = bk.ginibre_states(rng, 1, dim)[0]
        t0 = float(bk.trace_distance_batch(rho[None], sigma[None])[0])
        if t0 > alpha_bound:
            t = float(rng.uniform(0.0, 1.0)) * alpha_bound / t0
            sigma = (1.0 - t) * rho + t * sigma
        margin = min(
            margin, bound - fairness_distance(channel, povm, rho, sigma)
        )
    return margin >= -FAIRNESS_TOL, margin


def holevo_information(ensemble: Ensemble, channel: KrausChannel) -> float:
    """Holevo information of the channel outputs under the ensemble prior.

    Computed as S(sum_x P(x) A(rho^x)) - sum_x P(x) S(A(rho^x)) in natural
    log; equal to the relative entropy between the joint classical-quantum
    state and the product of its marginals.
    """
    if ensemble.dim != channel.dim_in:
        raise DimensionMismatch("ensemble states must match the channel input")
    outputs = [channel.apply_matrix(s.entries) for s in ensemble.states]
    average = sum(p * out for p, out in zip(ensemble.priors, outputs))
    value = von_neumann_entropy(average) - sum(
        p * von_neumann_entropy(out) for p, out in zip(ensemble.priors, outputs)
    )
    return max(float(value), 0.0)


def holevo_stability_check(
    ensemble: Ensemble, channel: KrausChannel, epsilon: float
) -> tuple[bool, float, float]:
    """Check Holevo information against the privacy stability bound.

    For a channel meeting the pure constraint at ``epsilon`` the Holevo
    information never exceeds eps (e^eps - 1) / (e^eps + 1). Returns
    (holds, value, bound).
    """
    if epsilon < 0.0:
        raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
    value = holevo_information(ensemble, channel)
    e = math.exp(epsilon)
    bound = epsilon * (e - 1.0) / (e + 1.0)
    return value <= bound + STABILITY_TOL, value, bound
