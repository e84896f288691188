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
from .quantum_core import DensityMatrix, KrausChannel, Povm

# Eigenvalues are floored here before x log x to avoid log(0).
ENTROPY_FLOOR = 1e-15

STABILITY_TOL = 1e-9
FAIRNESS_TOL = 1e-9


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
    w = np.clip(bk._eigvalsh(m), ENTROPY_FLOOR, None)
    return float(-np.sum(w * np.log(w)))


def fairness_distance(channel: KrausChannel, povm: Povm, rho, sigma) -> float:
    """Output-distribution total variation (1/2) sum_i |Tr[M_i A(rho - sigma)]|."""
    if povm.dim != channel.dim_out:
        raise DimensionMismatch(f"POVM dim {povm.dim} != channel output dim {channel.dim_out}")
    rho_m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    sigma_m = sigma.entries if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    if rho_m.shape != sigma_m.shape or rho_m.shape[0] != channel.dim_in:
        raise DimensionMismatch("states must match the channel input dimension")
    delta = channel.apply_matrix(rho_m - sigma_m)
    return 0.5 * float(np.sum(np.abs(np.einsum("nij,ji->n", povm.effects, delta).real)))


def fairness_certificate(
    channel: KrausChannel,
    povm: Povm,
    params: PrivacyParams,
    alpha_bound: float,
) -> tuple[bool, float]:
    """Exact check that inputs within trace distance alpha give similar readouts.

    Returns (holds, margin): alpha (e^eps - 1 + 2 delta) / (e^eps + 1) less
    the largest output-distribution distance at T(rho, sigma) <= alpha,
    alpha max_S (lambda_max - lambda_min)(A^dag(sum_{i in S} M_i)) over
    outcome subsets S without the last outcome (a complement has the same
    spread), attained by rho = alpha psi + (1 - alpha) tau and sigma =
    alpha phi + (1 - alpha) tau (psi, phi extreme eigenvectors, tau any
    state). Rounding rule: each term carries a few d u alpha of rounding
    (u = 2^-53, d the input dimension; eigenvalues of 0 <= A^dag(M_S) <= I
    have a backward error of a few d u), so a margin within 8 d u alpha of 0
    reads 0: rounding alone never turns a tight mechanism's exact margin of
    0 negative.
    """
    if not 0.0 < alpha_bound <= 1.0:
        raise InvalidParams(f"alpha_bound must be in (0, 1], got {alpha_bound}")
    if povm.dim != channel.dim_out:
        raise DimensionMismatch(f"POVM dim {povm.dim} != channel output dim {channel.dim_out}")
    kraus, n = channel.kraus, len(povm.effects)
    subsets = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    tests = np.tensordot(subsets, povm.effects[:-1], 1)  # sum_{i in S} M_i
    w = bk._eigvalsh(np.einsum("kai,sab,kbj->sij", kraus.conj(), tests, kraus))
    spread = float(np.max(w[:, -1] - w[:, 0]))
    margin = alpha_bound * (trace_contraction_coefficient(params) - spread)
    if abs(margin) <= 8.0 * channel.dim_in * 2.0**-53 * alpha_bound:
        margin = 0.0
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
