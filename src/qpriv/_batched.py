"""Vectorized kernels shared by the certification search and the scanners.

Everything here operates on stacked arrays (leading batch axis) of small
dense matrices and is deliberately free of per-item Python loops.
"""

from __future__ import annotations

import numpy as np

from .quantum_core import TOL_SUPP

_ENT_FLOOR = 1e-18


def eigvals_2x2_herm(m: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of stacked 2x2 Hermitian matrices, ascending."""
    a = m[..., 0, 0].real
    c = m[..., 1, 1].real
    b = m[..., 0, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt(np.clip((0.5 * (a - c)) ** 2 + np.abs(b) ** 2, 0.0, None))
    return np.stack([mean - disc, mean + disc], axis=-1)


def positive_eigensum(m: np.ndarray) -> np.ndarray:
    """Trace of the positive part of stacked Hermitian matrices."""
    if m.shape[-1] == 2:
        w = eigvals_2x2_herm(m)
    else:
        w = np.linalg.eigvalsh(m)
    return np.sum(np.clip(w, 0.0, None), axis=-1)


def trace_distance_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = x - y
    if d.shape[-1] == 2:
        w = eigvals_2x2_herm(d)
    else:
        w = np.linalg.eigvalsh(d)
    return 0.5 * np.sum(np.abs(w), axis=-1)


def hockey_stick_ext_batch(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    return positive_eigensum(x - gamma * y) - max(0.0, 1.0 - gamma)


def fidelity_qubit_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fidelity of stacked 2x2 states: Tr[xy] + 2 sqrt(det x det y)."""
    tr = np.real(np.einsum("...ij,...ji->...", x, y))
    det_x = np.clip(np.real(np.linalg.det(x)), 0.0, None)
    det_y = np.clip(np.real(np.linalg.det(y)), 0.0, None)
    f = tr + 2.0 * np.sqrt(det_x * det_y)
    return np.clip(f, 0.0, 1.0)


def bures_squared_qubit_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 2.0 * (1.0 - np.sqrt(fidelity_qubit_batch(x, y)))


def _support(x: np.ndarray, y: np.ndarray):
    """Support data shared by the entropies of stacked x relative to y.

    Returns y's clipped spectrum and eigenbasis, the mask of eigenvalues above
    the support cutoff, x's weight on each eigenvector of y, and x's total
    weight outside supp(y).
    """
    w, v = np.linalg.eigh(y)
    w = np.clip(w, 0.0, None)
    cutoff = TOL_SUPP * np.clip(w[..., -1:], 1e-300, None)
    on_support = w > cutoff
    overlaps = np.clip(np.real(np.einsum("...ji,...jk,...ki->...i", v.conj(), x, v)), 0.0, None)
    outside = np.sum(np.where(on_support, 0.0, overlaps), axis=-1)
    return w, v, on_support, overlaps, outside


def relative_entropy_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Relative entropy of stacked state pairs; inf on support violation."""
    w, _, on_support, overlaps, outside = _support(x, y)
    mu = np.clip(np.linalg.eigvalsh(x), 0.0, None)
    ent = np.sum(np.where(mu > _ENT_FLOOR, mu * np.log(np.clip(mu, _ENT_FLOOR, None)), 0.0), axis=-1)
    logw = np.log(np.where(on_support, np.clip(w, 1e-300, None), 1.0))
    cross = np.sum(np.where(on_support, overlaps * logw, 0.0), axis=-1)
    return np.where(outside > TOL_SUPP, np.inf, ent - cross)


def max_relative_entropy_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Max-relative entropy of stacked state pairs; inf on support violation."""
    w, v, on_support, _, outside = _support(x, y)
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, w, 1.0)), 0.0)
    s = np.einsum("...ik,...k,...jk->...ij", v, inv_sqrt, v.conj())
    lam = np.linalg.eigvalsh(s @ x @ s)[..., -1]
    val = np.clip(np.log(np.clip(lam, 1e-300, None)), 0.0, None)
    return np.where(outside > TOL_SUPP, np.inf, val)


# ---------------------------------------------------------------------------
# Batched random ensembles
# ---------------------------------------------------------------------------


def gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def ginibre_states(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stacked full-rank Ginibre-induced random states, shape (n, dim, dim)."""
    g = gaussian_complex(rng, (n, dim, dim))
    m = g @ np.conj(np.swapaxes(g, -1, -2))
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))[:, None, None]
    return m / tr


def orthonormal_pairs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stacked random orthonormal 2-frames, shape (n, dim, 2)."""
    q, _ = np.linalg.qr(gaussian_complex(rng, (n, dim, 2)))
    return q


def projectors_from_vectors(vecs: np.ndarray) -> np.ndarray:
    """Outer products v v^dag for stacked vectors (..., dim)."""
    return np.einsum("...i,...j->...ij", vecs, vecs.conj())


def random_effects(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stacked random effects 0 <= M <= I; half sharp projectors, half smooth."""
    basis, _ = np.linalg.qr(gaussian_complex(rng, (n, dim, dim)))
    values = rng.uniform(0.0, 1.0, size=(n, dim))
    sharp = rng.random(n) < 0.5
    thresholds = rng.uniform(0.0, 1.0, size=(n, 1))
    values = np.where(sharp[:, None], (values < thresholds).astype(float), values)
    return np.einsum("nik,nk,njk->nij", basis, values, basis.conj())


def random_channel_batch(
    rng: np.random.Generator, n: int, dim_in: int, dim_out: int, kraus_count: int
) -> np.ndarray:
    """Kraus operators of stacked random CPTP maps, shape (n, kraus_count, dim_out, dim_in)."""
    g = gaussian_complex(rng, (n, dim_out * kraus_count, dim_in))
    q, _ = np.linalg.qr(g)
    return q.reshape(n, kraus_count, dim_out, dim_in)


def positive_eigenspace_projectors(ops: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive eigenspace of stacked Hermitians."""
    w, v = np.linalg.eigh(ops)
    keep = (w > 0.0).astype(float)
    return np.einsum("nik,nk,njk->nij", v, keep, v.conj())
