"""Distinguishability measures between quantum states.

Trace distance, fidelity and Bures distance, hockey-stick divergences (with
the extension to gamma < 1), relative and max-relative entropies, and the
integral-form f-divergence. Every measure here satisfies the data-processing
inequality, which downstream modules quantify under privacy constraints.

Each function validates its arguments and then evaluates the stacked kernel
of :mod:`qpriv._batched` on the pair as a batch of one, so a measure has one
implementation whether it is asked for one pair or a thousand; that holds
for the f-divergence quadrature too. All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _batched as bk
from .errors import DimensionMismatch, InvalidGamma, QuadratureNotConverged, ValidationError
from .quantum_core import DensityMatrix, hermitian_part


def _mat(state, name: str = "state") -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.entries
    m = np.asarray(state, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix")
    return hermitian_part(m)


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    a = _mat(rho, "rho")
    b = _mat(sigma, "sigma")
    if a.shape != b.shape:
        raise DimensionMismatch(f"state dims differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def _one(kernel, rho, sigma, *args) -> float:
    """``kernel`` of :mod:`qpriv._batched` on the pair as a batch of one."""
    a, b = _pair(rho, sigma)
    return float(kernel(a[None], b[None], *args)[0])


def trace_distance(rho, sigma) -> float:
    """Normalized trace distance (1/2) || rho - sigma ||_1."""
    return _one(bk.trace_distance_batch, rho, sigma)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity || sqrt(rho) sqrt(sigma) ||_1^2, clamped to [0, 1]."""
    return _one(bk.fidelity_batch, rho, sigma)


def bures_squared(rho, sigma) -> float:
    """Squared Bures distance 2 (1 - sqrt(F))."""
    return _one(bk.bures_squared_batch, rho, sigma)


def _require_finite(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise InvalidGamma("gamma must be finite")


def hockey_stick(rho, sigma, gamma: float) -> float:
    """Hockey-stick divergence E_gamma = Tr[(rho - gamma sigma)_+] for gamma >= 1."""
    _require_finite(gamma)
    if gamma < 1.0 - 1e-12:
        raise InvalidGamma(f"hockey_stick needs gamma >= 1, got {gamma}")
    a, b = _pair(rho, sigma)
    return float(bk.positive_eigensum((a - gamma * b)[None])[0])


def hockey_stick_extended(rho, sigma, gamma: float) -> float:
    """Hockey-stick divergence extended to all gamma >= 0.

    Defined as sup_{0 <= M <= I} Tr[M (rho - gamma sigma)] - (1 - gamma)_+;
    the supremum is attained at the positive eigenprojector, so the value is
    Tr[(rho - gamma sigma)_+] - max(0, 1 - gamma). Agrees with
    :func:`hockey_stick` for gamma >= 1.
    """
    _require_finite(gamma)
    if gamma < 0.0:
        raise InvalidGamma(f"extended hockey-stick needs gamma >= 0, got {gamma}")
    return _one(bk.hockey_stick_ext_batch, rho, sigma, gamma)


def skew_symmetry_check(rho, sigma, gamma: float) -> tuple[float, float]:
    """Both sides of the identity E_gamma(rho||sigma) = gamma E_{1/gamma}(sigma||rho)."""
    _require_finite(gamma)
    if gamma <= 0.0:
        raise InvalidGamma(f"skew symmetry needs gamma > 0, got {gamma}")
    lhs = hockey_stick_extended(rho, sigma, gamma)
    rhs = gamma * hockey_stick_extended(sigma, rho, 1.0 / gamma)
    return lhs, rhs


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr[rho (log rho - log sigma)], natural log.

    Returns +inf when rho carries mass above ``TOL_SUPP`` outside the support
    of sigma.
    """
    return _one(bk.relative_entropy_batch, rho, sigma)


def max_relative_entropy(rho, sigma) -> float:
    """Max-relative entropy ln inf {lam : rho <= lam sigma}.

    Computed as the log of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2} restricted to supp(sigma); +inf when the
    support condition fails.
    """
    return _one(bk.max_relative_entropy_batch, rho, sigma)


@dataclass(frozen=True)
class ConvexFunction:
    """A convex, twice differentiable function with f(1) = 0.

    ``f_pp`` is the second derivative, applied elementwise to arrays of
    gamma; a constant may return a scalar, which broadcasts. ``f`` is called
    on floats. ``growth_superlinear`` marks functions whose divergence
    becomes infinite under a support violation (f' unbounded at infinity,
    e.g. x log x), as opposed to asymptotically linear ones.
    """

    f: Callable[[float], float]
    f_pp: Callable[[np.ndarray], np.ndarray]
    growth_superlinear: bool
    name: str = ""

    def __post_init__(self) -> None:
        if abs(self.f(1.0)) > 1e-12:
            raise ValidationError(f"f(1) must be 0, got {self.f(1.0)!r}")
        grid = np.geomspace(1e-9, 10.0 * math.exp(bk.LOG_GAMMA_CAP), 121)
        try:
            f_pp = np.broadcast_to(np.asarray(self.f_pp(grid), dtype=float), grid.shape)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"f_pp must apply elementwise to an array: {exc}") from exc
        negative = f_pp < -1e-9
        if negative.any():
            x = grid[np.argmax(negative)]
            raise ValidationError(f"f'' is negative at x={x!r}; f must be convex")


def kl_function() -> ConvexFunction:
    """f(x) = x ln x, generating the quantum relative entropy."""
    return ConvexFunction(
        f=lambda x: x * math.log(x),
        f_pp=lambda x: 1.0 / x,
        growth_superlinear=True,
        name="x log x",
    )


def chi2_function() -> ConvexFunction:
    """f(x) = (x - 1)^2, generating the chi-squared divergence."""
    return ConvexFunction(
        f=lambda x: (x - 1.0) ** 2,
        f_pp=lambda x: 2.0,
        growth_superlinear=True,
        name="(x-1)^2",
    )


def smoothed_tv_function(width: float) -> ConvexFunction:
    """Smooth approximation of f(x) = |x - 1| / 2 with the given width."""
    if width <= 0.0:
        raise ValidationError("smoothing width must be positive")
    w2 = width * width

    def f(x: float) -> float:
        return 0.5 * (math.sqrt((x - 1.0) ** 2 + w2) - width)

    def f_pp(x):
        return 0.5 * w2 / ((x - 1.0) ** 2 + w2) ** 1.5

    return ConvexFunction(f=f, f_pp=f_pp, growth_superlinear=False, name="smoothed tv")


def linear_function() -> ConvexFunction:
    """f(x) = x - 1, whose divergence is identically zero."""
    return ConvexFunction(
        f=lambda x: x - 1.0, f_pp=lambda x: 0.0, growth_superlinear=False, name="x-1"
    )


def f_divergence(rho, sigma, f: ConvexFunction, tol: float = bk.TOL_QUAD) -> float:
    """Quantum f-divergence through its hockey-stick integral form, to within
    ``tol`` per integral (:func:`qpriv._batched.f_divergence_batch`).

    +inf when either max-relative entropy is infinite and ``f`` grows
    superlinearly; ``QuadratureNotConverged`` past the panel budget.
    """
    value = _one(bk.f_divergence_batch, rho, sigma, f, tol)
    if math.isnan(value):
        raise QuadratureNotConverged(
            f"tolerance {tol:.3e} not reached within {bk.QUAD_PANEL_BUDGET} panels"
        )
    return value
