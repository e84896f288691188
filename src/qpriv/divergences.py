"""Distinguishability measures between quantum states.

Trace distance, fidelity and Bures distance, hockey-stick divergences (with
the extension to gamma < 1), relative and max-relative entropies, and the
integral-form f-divergence. Every measure here satisfies the data-processing
inequality, which downstream modules quantify under privacy constraints.

Each function validates its arguments and then evaluates the stacked kernel
of :mod:`qpriv._batched` on the pair as a batch of one, so a measure has one
implementation whether it is asked for one pair or a thousand; the
f-divergence integrates that module's hockey-stick kernel. All logarithms
are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _batched as bk
from .errors import (
    DimensionMismatch,
    InvalidGamma,
    QuadratureNotConverged,
    ValidationError,
)
from .quantum_core import DensityMatrix, hermitian_part

# Adaptive-quadrature target for f-divergences, with a hard panel budget.
TOL_QUAD = 1e-7
QUAD_PANEL_BUDGET = 10_000

# Integration cap in log-gamma; hockey-stick tails beyond exp(50) are ignored.
LOG_GAMMA_CAP = 50.0

# The quadrature rule of every panel, the widest initial panel in log-gamma,
# and the most nodes (so stacked integrand matrices) per integrand call.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PANEL_WIDTH = 4.0
_NODE_CHUNK = 256


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

    ``f_pp`` is the second derivative. ``growth_superlinear`` marks functions
    whose divergence becomes infinite under a support violation (f' unbounded
    at infinity, e.g. x log x), as opposed to asymptotically linear ones.
    """

    f: Callable[[float], float]
    f_pp: Callable[[float], float]
    growth_superlinear: bool
    name: str = ""

    def __post_init__(self) -> None:
        if abs(self.f(1.0)) > 1e-12:
            raise ValidationError(f"f(1) must be 0, got {self.f(1.0)!r}")
        grid = np.geomspace(1e-9, 10.0 * math.exp(LOG_GAMMA_CAP), 121)
        for x in grid:
            if self.f_pp(float(x)) < -1e-9:
                raise ValidationError(
                    f"f'' is negative at x={x!r}; f must be convex"
                )


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

    def f_pp(x: float) -> float:
        return 0.5 * w2 / ((x - 1.0) ** 2 + w2) ** 1.5

    return ConvexFunction(f=f, f_pp=f_pp, growth_superlinear=False, name="smoothed tv")


def linear_function() -> ConvexFunction:
    """f(x) = x - 1, whose divergence is identically zero."""
    return ConvexFunction(
        f=lambda x: x - 1.0, f_pp=lambda x: 0.0, growth_superlinear=False, name="x-1"
    )


def _gauss_legendre(integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 12-point Gauss-Legendre value on each panel [lo, hi], calling the
    integrand on at most ``_NODE_CHUNK`` nodes at a time."""
    half = 0.5 * (hi - lo)
    u = ((0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES).ravel()
    values = [integrand(u[i : i + _NODE_CHUNK]) for i in range(0, u.size, _NODE_CHUNK)]
    return half * (np.concatenate(values).reshape(-1, _GL_NODES.size) @ _GL_WEIGHTS)


def _quad_log_domain(integrand, upper: float, tol: float, kinks=()) -> float:
    """Integral over [0, upper] of an integrand mapping an array of u to an array.

    [0, upper] is cut at the kinks, and each piece into equal panels at most
    ``_PANEL_WIDTH`` wide. Each round applies the 12-point Gauss-Legendre rule
    to the halves of every pending panel. A panel whose halves agree with its
    whole within tol * width / upper adds them to the total (so the accepted
    differences sum to at most tol); any other is split, its half values
    becoming its children's whole values. ``QuadratureNotConverged`` is
    raised once more than ``QUAD_PANEL_BUDGET`` panels have been made.
    """
    if upper <= 0.0:
        return 0.0
    cuts = np.unique([0.0, upper, *(u for u in kinks if 1e-12 < u < upper)])
    pieces = np.ceil(np.diff(cuts) / _PANEL_WIDTH).astype(int)
    lo = np.concatenate(
        [np.linspace(x, y, k, endpoint=False) for x, y, k in zip(cuts, cuts[1:], pieces)]
    )
    hi = np.append(lo[1:], upper)
    whole = _gauss_legendre(integrand, lo, hi)
    total, panels = 0.0, lo.size
    while lo.size:
        mid = 0.5 * (lo + hi)
        parts = _gauss_legendre(
            integrand, np.concatenate((lo, mid)), np.concatenate((mid, hi))
        ).reshape(2, -1)
        halves = parts[0] + parts[1]
        split = np.abs(halves - whole) > tol * (hi - lo) / upper
        total += float(np.sum(halves[~split]))
        panels += 2 * int(np.count_nonzero(split))
        if panels > QUAD_PANEL_BUDGET:
            raise QuadratureNotConverged(
                f"tolerance {tol:.3e} not reached within {QUAD_PANEL_BUDGET} panels"
            )
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        whole = parts[:, split].ravel()
    return total


def f_divergence(rho, sigma, f: ConvexFunction, tol: float = TOL_QUAD) -> float:
    """Quantum f-divergence through its hockey-stick integral form.

    Evaluates

        int_1^inf f''(g) E_g(rho||sigma) + g^{-3} f''(1/g) E_g(sigma||rho) dg

    in the log-gamma domain by adaptive Gauss-Legendre panels
    (:func:`_quad_log_domain`) to within ``tol`` per integral. The panels
    are cut at the log relative eigenvalues of the pair
    (:func:`qpriv._batched.relative_spectrum`), where the hockey-stick terms
    have kinks, so the integrand is analytic on each.
    Each integral is truncated where its hockey-stick term vanishes, at
    gamma equal to the exponential of the corresponding max-relative
    entropy, and at most at ``LOG_GAMMA_CAP``. Returns +inf when either
    max-relative entropy is infinite and ``f`` grows superlinearly.
    """
    a, b = _pair(rho, sigma)
    rel1, r1 = bk.relative_spectrum(a[None], b[None], f.growth_superlinear)
    rel2, r2 = bk.relative_spectrum(b[None], a[None], f.growth_superlinear)
    r1, r2 = float(r1[0]), float(r2[0])
    if (math.isinf(r1) or math.isinf(r2)) and f.growth_superlinear:
        return math.inf

    f_pp = np.vectorize(f.f_pp, otypes=[float])  # a scalar callable, once per node

    def g1(u: np.ndarray) -> np.ndarray:
        gamma = np.exp(u)
        return f_pp(gamma) * bk.positive_eigensum(a - gamma[:, None, None] * b) * gamma

    def g2(u: np.ndarray) -> np.ndarray:
        gamma = np.exp(u)[:, None, None]
        return np.exp(-2.0 * u) * f_pp(np.exp(-u)) * bk.positive_eigensum(b - gamma * a)

    rel1, rel2 = rel1[0], rel2[0]
    part1 = _quad_log_domain(g1, min(r1, LOG_GAMMA_CAP), tol, np.log(rel1[rel1 > 1e-300]))
    part2 = _quad_log_domain(g2, min(r2, LOG_GAMMA_CAP), tol, np.log(rel2[rel2 > 1e-300]))
    return part1 + part2
