"""Batched kernels against references written here: LAPACK eigvalsh of the
dense matrix, and scipy's sqrtm and logm.

The scalar measures of ``qpriv.divergences`` are batches of one over these
kernels, so comparing the two would test a function against itself.
"""

import math

import numpy as np
import pytest
from scipy import linalg as sla

from qpriv import _batched as bk

DIMS = (2, 3, 4)
GAMMAS = (math.exp(-1.0), 1.0, math.e)
EPSILONS = (1.0, 20.0, 50.0, 300.0, 700.0)


def state_pairs(dim: int, seed: int, n: int = 24):
    """Full-rank pairs, then orthogonal pure pairs, stacked."""
    rng = np.random.default_rng(seed)
    x = bk.ginibre_states(rng, n, dim)
    y = bk.ginibre_states(rng, n, dim)
    frames = bk.orthonormal_pairs(rng, n // 2, dim)
    x = np.concatenate([x, bk.projectors_from_vectors(frames[:, :, 0])])
    y = np.concatenate([y, bk.projectors_from_vectors(frames[:, :, 1])])
    return x, y


def full_rank_pairs(dim: int, seed: int, n: int = 24):
    rng = np.random.default_rng(seed)
    return bk.ginibre_states(rng, n, dim), bk.ginibre_states(rng, n, dim)


def lapack_spectra(m):
    return np.array([np.linalg.eigvalsh(0.5 * (a + a.conj().T)) for a in m])


def sqrtm_fidelity(a, b):
    ra = sla.sqrtm(a)
    return float(np.real(np.trace(sla.sqrtm(ra @ b @ ra)))) ** 2


def logm_relative_entropy(a, b):
    return float(np.real(np.trace(a @ (sla.logm(a) - sla.logm(b)))))


def sqrtm_max_relative_entropy(a, b):
    s = np.linalg.inv(sla.sqrtm(b))
    return max(math.log(np.linalg.eigvalsh(s @ a @ s.conj().T)[-1]), 0.0)


def test_eigvals_2x2_matches_lapack():
    rng = np.random.default_rng(40)
    g = bk.gaussian_complex(rng, (200, 2, 2))
    herm = g + np.conj(np.swapaxes(g, -1, -2))
    np.testing.assert_allclose(
        bk.eigvals_2x2_herm(herm), np.linalg.eigvalsh(herm), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_eigvals_2x2_stable_at_large_gamma(epsilon):
    # out1 - e^eps out2 for the outputs of the eps = 1 mechanism. The matrix
    # is diagonal, so its entries are its exact eigenvalues; the naive
    # mean -/+ disc form overflows past eps ~ 355.
    p = 2.0 / (math.e + 1.0)
    out1 = np.diag([1.0 - p / 2, p / 2]).astype(complex)
    out2 = np.diag([p / 2, 1.0 - p / 2]).astype(complex)
    m = out1 - math.exp(epsilon) * out2
    with np.errstate(all="raise"):
        roots = bk.eigvals_2x2_herm(m[None])[0]
    assert np.all(np.isfinite(roots)) and roots[0] <= roots[1]
    exact = np.diag(m).real
    small, big = exact[np.argsort(np.abs(exact))]
    got_small, got_big = roots[np.argsort(np.abs(roots))]
    assert abs(got_small - small) <= 1e-14 * abs(small)
    assert abs(got_big - big) <= 1e-14 * abs(big)


def test_eigvals_2x2_zero_matrix():
    with np.errstate(all="raise"):
        roots = bk.eigvals_2x2_herm(np.zeros((1, 2, 2), dtype=complex))
    np.testing.assert_array_equal(roots, [[0.0, 0.0]])


@pytest.mark.parametrize("dim", DIMS)
def test_trace_distance(dim):
    x, y = state_pairs(dim, 41 + dim)
    want = 0.5 * np.sum(np.abs(lapack_spectra(x - y)), axis=-1)
    np.testing.assert_allclose(bk.trace_distance_batch(x, y), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_hockey_stick_extended(dim, gamma):
    x, y = state_pairs(dim, 44 + dim)
    want = np.sum(np.clip(lapack_spectra(x - gamma * y), 0.0, None), axis=-1)
    want -= max(0.0, 1.0 - gamma)
    np.testing.assert_allclose(
        bk.hockey_stick_ext_batch(x, y, gamma), want, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("dim", DIMS)
def test_fidelity(dim):
    # Full-rank pairs: sqrtm of a singular state is itself inaccurate.
    x, y = full_rank_pairs(dim, 46 + dim)
    want = [sqrtm_fidelity(a, b) for a, b in zip(x, y)]
    np.testing.assert_allclose(bk.fidelity_batch(x, y), want, rtol=0, atol=1e-12)


def test_bures_squared_qubit():
    x, y = full_rank_pairs(2, 47, n=40)
    want = [2.0 * (1.0 - math.sqrt(sqrtm_fidelity(a, b))) for a, b in zip(x, y)]
    np.testing.assert_allclose(bk.bures_squared_batch(x, y), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize(
    "batch, reference",
    [
        pytest.param(bk.relative_entropy_batch, logm_relative_entropy,
                     id="relative_entropy_batch-relative_entropy"),
        pytest.param(bk.max_relative_entropy_batch, sqrtm_max_relative_entropy,
                     id="max_relative_entropy_batch-max_relative_entropy"),
    ],
)
def test_entropies_with_support_violation(dim, batch, reference):
    rng = np.random.default_rng(48 + dim)
    x = bk.ginibre_states(rng, 24, dim)
    y = bk.ginibre_states(rng, 24, dim)
    # The last pair puts full-rank mass outside a pure sigma's support.
    y[-1] = bk.projectors_from_vectors(bk.orthonormal_pairs(rng, 1, dim)[:, :, 0])[0]
    got = batch(x, y)
    assert np.isinf(got[-1])
    assert np.all(np.isfinite(got[:-1]))
    want = [reference(a, b) for a, b in zip(x[:-1], y[:-1])]
    np.testing.assert_allclose(got[:-1], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [bk.relative_entropy_batch, bk.max_relative_entropy_batch])
def test_entropies_all_outside_support(batch):
    rng = np.random.default_rng(50)
    x = bk.ginibre_states(rng, 5, 3)
    y = bk.projectors_from_vectors(bk.orthonormal_pairs(rng, 5, 3)[:, :, 0])
    assert np.all(np.isinf(batch(x, y)))


@pytest.mark.parametrize("dim", DIMS)
def test_relative_spectrum_is_the_generalized_spectrum(dim):
    x, y = full_rank_pairs(dim, 51 + dim)
    rel, dmax = bk.relative_spectrum(x, y)
    want = np.array([sla.eigh(a, b, eigvals_only=True) for a, b in zip(x, y)])
    np.testing.assert_allclose(rel, want, rtol=1e-10, atol=0)
    np.testing.assert_allclose(dmax, np.maximum(np.log(want[:, -1]), 0.0), rtol=0, atol=1e-10)
