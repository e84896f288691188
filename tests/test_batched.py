"""Batched spectral kernels against their scalar counterparts in divergences."""

import math

import numpy as np
import pytest

from qpriv import _batched as bk
from qpriv import divergences as dv

DIMS = (2, 3, 4)
GAMMAS = (math.exp(-1.0), 1.0, math.e)


def state_pairs(dim: int, seed: int, n: int = 24):
    """Full-rank pairs, then orthogonal pure pairs, stacked."""
    rng = np.random.default_rng(seed)
    x = bk.ginibre_states(rng, n, dim)
    y = bk.ginibre_states(rng, n, dim)
    frames = bk.orthonormal_pairs(rng, n // 2, dim)
    x = np.concatenate([x, bk.projectors_from_vectors(frames[:, :, 0])])
    y = np.concatenate([y, bk.projectors_from_vectors(frames[:, :, 1])])
    return x, y


def scalar(fn, x, y, *args):
    return np.array([fn(a, b, *args) for a, b in zip(x, y)])


def test_eigvals_2x2_matches_lapack():
    rng = np.random.default_rng(40)
    g = bk.gaussian_complex(rng, (200, 2, 2))
    herm = g + np.conj(np.swapaxes(g, -1, -2))
    np.testing.assert_allclose(
        bk.eigvals_2x2_herm(herm), np.linalg.eigvalsh(herm), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("dim", DIMS)
def test_trace_distance(dim):
    x, y = state_pairs(dim, 41 + dim)
    np.testing.assert_allclose(
        bk.trace_distance_batch(x, y), scalar(dv.trace_distance, x, y), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_hockey_stick_extended(dim, gamma):
    x, y = state_pairs(dim, 44 + dim)
    np.testing.assert_allclose(
        bk.hockey_stick_ext_batch(x, y, gamma),
        scalar(dv.hockey_stick_extended, x, y, gamma),
        rtol=0,
        atol=1e-12,
    )


def test_bures_squared_qubit():
    # Full-rank pairs only: at a pure state the scalar route takes the square
    # root of a rounding-level eigenvalue, which leaves it about 3e-8 off.
    rng = np.random.default_rng(47)
    x = bk.ginibre_states(rng, 40, 2)
    y = bk.ginibre_states(rng, 40, 2)
    np.testing.assert_allclose(
        bk.bures_squared_qubit_batch(x, y), scalar(dv.bures_squared, x, y), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize(
    "batch, single",
    [
        (bk.relative_entropy_batch, dv.relative_entropy),
        (bk.max_relative_entropy_batch, dv.max_relative_entropy),
    ],
)
def test_entropies_with_support_violation(dim, batch, single):
    rng = np.random.default_rng(48 + dim)
    x = bk.ginibre_states(rng, 24, dim)
    y = bk.ginibre_states(rng, 24, dim)
    # The last pair puts full-rank mass outside a pure sigma's support.
    y[-1] = bk.projectors_from_vectors(bk.orthonormal_pairs(rng, 1, dim)[:, :, 0])[0]
    got, want = batch(x, y), scalar(single, x, y)
    assert np.isinf(got[-1]) and np.isinf(want[-1])
    assert np.all(np.isfinite(got[:-1]))
    np.testing.assert_allclose(got[:-1], want[:-1], rtol=0, atol=1e-12)
