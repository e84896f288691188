"""Distinguishability measures between quantum states.

Trace distance, fidelity and Bures distance, hockey-stick divergences (with
the extension to gamma < 1), relative and max-relative entropies, and the
integral-form f-divergence. Every measure here satisfies the data-processing
inequality, which downstream modules quantify under privacy constraints.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import (
    DimensionMismatch,
    InvalidGamma,
    QuadratureNotConverged,
    ValidationError,
)
from .quantum_core import DensityMatrix, _sqrt_psd, hermitian_part

# Mass of rho outside supp(sigma) above this value makes D and D_max infinite.
TOL_SUPP = 1e-9

# Adaptive-quadrature target for f-divergences, with a hard panel budget.
TOL_QUAD = 1e-7
QUAD_PANEL_BUDGET = 10_000

# Integration cap in log-gamma; hockey-stick tails beyond exp(50) are ignored.
LOG_GAMMA_CAP = 50.0

_EIG_FLOOR = 1e-18


def _mat(state, name: str = "state") -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.entries
    m = np.asarray(state, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix")
    return m


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    a = _mat(rho, "rho")
    b = _mat(sigma, "sigma")
    if a.shape != b.shape:
        raise DimensionMismatch(f"state dims differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def trace_distance(rho, sigma) -> float:
    """Normalized trace distance (1/2) || rho - sigma ||_1."""
    a, b = _pair(rho, sigma)
    w = np.linalg.eigvalsh(hermitian_part(a - b))
    return 0.5 * float(np.sum(np.abs(w)))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity || sqrt(rho) sqrt(sigma) ||_1^2, clamped to [0, 1]."""
    a, b = _pair(rho, sigma)
    sa = _sqrt_psd(a)
    sb = _sqrt_psd(b)
    sv = np.linalg.svd(sa @ sb, compute_uv=False)
    f = float(np.sum(sv)) ** 2
    return min(max(f, 0.0), 1.0)


def bures_squared(rho, sigma) -> float:
    """Squared Bures distance 2 (1 - sqrt(F))."""
    return 2.0 * (1.0 - math.sqrt(fidelity(rho, sigma)))


def _positive_eigensum(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(hermitian_part(m))
    return float(np.sum(w[w > 0.0]))


def hockey_stick(rho, sigma, gamma: float) -> float:
    """Hockey-stick divergence E_gamma = Tr[(rho - gamma sigma)_+] for gamma >= 1."""
    if gamma < 1.0 - 1e-12:
        raise InvalidGamma(f"hockey_stick needs gamma >= 1, got {gamma}")
    a, b = _pair(rho, sigma)
    return _positive_eigensum(a - gamma * b)


def hockey_stick_extended(rho, sigma, gamma: float) -> float:
    """Hockey-stick divergence extended to all gamma >= 0.

    Defined as sup_{0 <= M <= I} Tr[M (rho - gamma sigma)] - (1 - gamma)_+;
    the supremum is attained at the positive eigenprojector, so the value is
    Tr[(rho - gamma sigma)_+] - max(0, 1 - gamma). Agrees with
    :func:`hockey_stick` for gamma >= 1.
    """
    if gamma < 0.0:
        raise InvalidGamma(f"extended hockey-stick needs gamma >= 0, got {gamma}")
    a, b = _pair(rho, sigma)
    return _positive_eigensum(a - gamma * b) - max(0.0, 1.0 - gamma)


def skew_symmetry_check(rho, sigma, gamma: float) -> tuple[float, float]:
    """Both sides of the identity E_gamma(rho||sigma) = gamma E_{1/gamma}(sigma||rho)."""
    if gamma <= 0.0:
        raise InvalidGamma(f"skew symmetry needs gamma > 0, got {gamma}")
    lhs = hockey_stick_extended(rho, sigma, gamma)
    rhs = gamma * hockey_stick_extended(sigma, rho, 1.0 / gamma)
    return lhs, rhs


def _support_data(sigma_m: np.ndarray):
    w, v = np.linalg.eigh(hermitian_part(sigma_m))
    w = np.clip(w, 0.0, None)
    cutoff = TOL_SUPP * max(float(w[-1]), 1e-300)
    on_support = w > cutoff
    return w, v, on_support


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr[rho (log rho - log sigma)], natural log.

    Returns +inf when rho carries mass above ``TOL_SUPP`` outside the support
    of sigma.
    """
    a, b = _pair(rho, sigma)
    w, v, on_support = _support_data(b)
    overlaps = np.real(np.einsum("ji,jk,ki->i", v.conj(), a, v))
    overlaps = np.clip(overlaps, 0.0, None)
    if float(np.sum(overlaps[~on_support])) > TOL_SUPP:
        return math.inf
    mu = np.clip(np.linalg.eigvalsh(hermitian_part(a)), 0.0, None)
    ent = float(np.sum(mu[mu > _EIG_FLOOR] * np.log(mu[mu > _EIG_FLOOR])))
    cross = float(np.sum(overlaps[on_support] * np.log(w[on_support])))
    return ent - cross


def max_relative_entropy(rho, sigma) -> float:
    """Max-relative entropy ln inf {lam : rho <= lam sigma}.

    Computed as the log of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2} restricted to supp(sigma); +inf when the
    support condition fails.
    """
    a, b = _pair(rho, sigma)
    w, v, on_support = _support_data(b)
    overlaps = np.real(np.einsum("ji,jk,ki->i", v.conj(), a, v))
    if float(np.sum(np.clip(overlaps[~on_support], 0.0, None))) > TOL_SUPP:
        return math.inf
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, w, 1.0)), 0.0)
    s = (v * inv_sqrt) @ v.conj().T
    lam = float(np.linalg.eigvalsh(hermitian_part(s @ a @ s))[-1])
    return max(math.log(max(lam, 1e-300)), 0.0)


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


def _quad_log_domain(integrand, upper: float, tol: float, kinks=()) -> float:
    if upper <= 0.0:
        return 0.0
    limit = max(QUAD_PANEL_BUDGET // 21 // 2, 10)
    points = sorted(u for u in kinks if 1e-12 < u < upper)
    result = integrate.quad(
        integrand,
        0.0,
        upper,
        epsabs=0.5 * tol,
        epsrel=1e-10,
        limit=limit,
        points=points or None,
        full_output=1,
    )
    if len(result) == 4:
        raise QuadratureNotConverged(result[3].strip())
    value, abserr = result[0], result[1]
    if abserr > max(tol, 1e-12 * abs(value)):
        raise QuadratureNotConverged(
            f"estimated error {abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return float(value)


def f_divergence(rho, sigma, f: ConvexFunction, tol: float = TOL_QUAD) -> float:
    """Quantum f-divergence through its hockey-stick integral form.

    Evaluates

        int_1^inf f''(g) E_g(rho||sigma) + g^{-3} f''(1/g) E_g(sigma||rho) dg

    by adaptive quadrature in the log-gamma domain. Each integral is
    truncated where its hockey-stick term vanishes, at gamma equal to the
    exponential of the corresponding max-relative entropy. Returns +inf when
    either max-relative entropy is infinite and ``f`` grows superlinearly.
    """
    a, b = _pair(rho, sigma)
    r1 = max_relative_entropy(a, b)
    r2 = max_relative_entropy(b, a)
    if (math.isinf(r1) or math.isinf(r2)) and f.growth_superlinear:
        return math.inf

    def g1(u: float) -> float:
        gamma = math.exp(u)
        return f.f_pp(gamma) * _positive_eigensum(a - gamma * b) * gamma

    def g2(u: float) -> float:
        gamma = math.exp(u)
        return (
            math.exp(-2.0 * u)
            * f.f_pp(math.exp(-u))
            * _positive_eigensum(b - gamma * a)
        )

    part1 = _quad_log_domain(g1, min(r1, LOG_GAMMA_CAP), tol, _log_crossings(a, b))
    part2 = _quad_log_domain(g2, min(r2, LOG_GAMMA_CAP), tol, _log_crossings(b, a))
    return part1 + part2


def _log_crossings(a: np.ndarray, b: np.ndarray) -> list:
    """log of the gammas at which an eigenvalue of a - gamma b crosses zero.

    These are the relative eigenvalues of the pair, where the hockey-stick
    integrand has derivative kinks; handing them to the quadrature as split
    points removes the dominant adaptive-refinement error.
    """
    w, v, on_support = _support_data(b)
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, w, 1.0)), 0.0)
    s = (v * inv_sqrt) @ v.conj().T
    rel = np.linalg.eigvalsh(hermitian_part(s @ a @ s))
    return [math.log(x) for x in rel if x > 1e-300]
