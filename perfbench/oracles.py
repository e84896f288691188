"""Reference values the benchmark computes itself, to check qpriv's outputs.

Each oracle takes another route than the library: singular values for trace
norms, a Cholesky factor for the max-relative entropy, and a fixed
Gauss-Legendre rule for the integral-form f-divergences.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _herm_eig(m):
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def trace_distance(a, b) -> float:
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


def fidelity(a, b) -> float:
    """(Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    w, v = _herm_eig(a)
    sa = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(0.5 * (sa @ b @ sa + (sa @ b @ sa).conj().T))
    return min(float(np.sum(np.sqrt(np.clip(inner, 0.0, None)))) ** 2, 1.0)


def bures_squared(a, b) -> float:
    return 2.0 * (1.0 - math.sqrt(fidelity(a, b)))


def hockey_stick_extended(a, b, gamma: float) -> float:
    """Tr[(a - gamma b)_+] - (1 - gamma)_+, with Tr[X_+] = (Tr X + ||X||_1) / 2."""
    x = a - gamma * b
    nuclear = float(np.sum(np.linalg.svd(x, compute_uv=False)))
    positive = 0.5 * (float(np.real(np.trace(x))) + nuclear)
    return positive - max(0.0, 1.0 - gamma)


def _support_violated(a, b, tol: float = 1e-9) -> bool:
    w, v = _herm_eig(b)
    off = w <= tol * max(float(w[-1]), 1e-300)
    weight = np.real(np.einsum("ji,jk,ki->i", v.conj(), a, v))[off]
    return float(np.sum(np.clip(weight, 0.0, None))) > tol


def relative_entropy(a, b) -> float:
    """Tr[a log a] - Tr[a log b]; +inf when a has weight outside supp(b)."""
    if _support_violated(a, b):
        return math.inf
    wa = np.clip(np.linalg.eigvalsh(0.5 * (a + a.conj().T)), 0.0, None)
    wb, vb = _herm_eig(b)
    keep = wb > 1e-300
    log_b = (vb[:, keep] * np.log(wb[keep])) @ vb[:, keep].conj().T
    ent = float(np.sum(wa[wa > 1e-18] * np.log(wa[wa > 1e-18])))
    return ent - float(np.real(np.trace(a @ log_b)))


def _relative_spectrum(a, b) -> np.ndarray:
    """Eigenvalues of L^-1 a L^-H for b = L L^H (b of full rank)."""
    chol = np.linalg.cholesky(0.5 * (b + b.conj().T))
    m = np.linalg.solve(chol, np.linalg.solve(chol, a).conj().T).conj().T
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def max_relative_entropy(a, b) -> float:
    """log of the largest relative eigenvalue; +inf off the support of b."""
    if _support_violated(a, b):
        return math.inf
    lam = float(_relative_spectrum(a, b)[-1])
    return max(math.log(max(lam, 1e-300)), 0.0)


def _positive_parts(a, b, gammas) -> np.ndarray:
    w = np.linalg.eigvalsh(a[None] - gammas[:, None, None] * b[None])
    return np.sum(np.clip(w, 0.0, None), axis=1)


def _integrate_log_domain(integrand, upper: float, kinks) -> float:
    """Composite Gauss-Legendre on [0, upper], split at kinks and into short panels."""
    if upper <= 0.0:
        return 0.0
    cuts = sorted({0.0, upper, *(k for k in kinks if 0.0 < k < upper)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, math.ceil((hi - lo) / 0.2))
        edges = np.linspace(lo, hi, pieces + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        for start in range(0, u.size, 256):  # bounded memory at dim 32
            chunk = slice(start, start + 256)
            total += float(np.sum(weights[chunk] * integrand(u[chunk])))
    return total


def f_divergence(a, b, f_pp) -> float:
    """Integral-form f-divergence from the second derivative ``f_pp`` (a ufunc-style callable).

    int_1^inf f''(g) E_g(a||b) + g^-3 f''(1/g) E_g(b||a) dg, in u = log g,
    truncated where each hockey-stick term vanishes. Both states must have
    full rank, so both truncation points are finite.
    """
    total = 0.0
    for x, y, forward in ((a, b, True), (b, a, False)):
        upper = min(max_relative_entropy(x, y), 50.0)
        kinks = [math.log(r) for r in _relative_spectrum(x, y) if r > 0.0]

        def integrand(u, x=x, y=y, forward=forward):
            g = np.exp(u)
            hs = _positive_parts(x, y, g)
            return f_pp(g) * hs * g if forward else np.exp(-2.0 * u) * f_pp(np.exp(-u)) * hs

        total += _integrate_log_domain(integrand, upper, kinks)
    return total


def depolarizing_worst_value(dim: int, p: float, epsilon: float) -> float:
    """sup E_{e^eps} between outputs of a depolarizing channel on orthogonal inputs."""
    return max(0.0, 1.0 - p + p * (1.0 - math.exp(epsilon)) / dim)


def depolarizing_epsilon(dim: int, p: float) -> float:
    """Max-relative entropy between its outputs on orthogonal pure inputs."""
    return math.log1p(dim * (1.0 - p) / p)


def close(value: float, reference: float, tol: float) -> bool:
    """Equal within ``tol`` times max(1, |reference|); infinities must match."""
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return abs(value - reference) <= tol * max(1.0, abs(reference))
