"""Batched kernels against references written here: LAPACK eigvalsh of the
dense matrix, scipy's sqrtm and logm, and scipy's quad for f-divergences.

The scalar measures of ``qpriv.divergences`` are batches of one over these
kernels, so comparing the two would test a function against itself.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import linalg as sla

from qpriv import _batched as bk
from qpriv import divergences as dv
from qpriv import errors
from qpriv.quantum_core import TOL_SUPP

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


def quad_f_divergence(f, a, b):
    """Both terms of the f-divergence by scipy's quad, split at the generalized
    eigenvalues of the full-rank pair from scipy's own solver."""

    def term(x, y, weight):
        rel = sla.eigh(x, y, eigvals_only=True)
        upper = math.log(rel[-1])
        cuts = [0.0, *sorted(math.log(r) for r in rel if 1.0 < r < rel[-1]), upper]

        def integrand(u):
            w = np.linalg.eigvalsh(x - math.exp(u) * y)
            return weight(u) * float(np.sum(np.clip(w, 0.0, None)))

        return sum(
            integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(cuts, cuts[1:])
        )

    return term(a, b, lambda u: f.f_pp(math.exp(u)) * math.exp(u)) + term(
        b, a, lambda u: math.exp(-2.0 * u) * f.f_pp(math.exp(-u))
    )


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


def qubit_entropy_pairs(seed: int, n: int = 40):
    """Qubit pairs (x, sigma) at the edges of the closed form.

    sigma's small eigenvalue runs from 2e-9 to 1e-2 (from 2e-9, clear of the
    TOL_SUPP cutoff at 1e-9, where either route's ~u absolute error in that
    eigenvalue decides the support), in a random basis against mixed x, pure
    x, sigma's own top eigenvector and a mixture near sigma, and in the
    computational basis, as mechanism outputs are, against mixed x; then
    sigma = I/2, full-rank sigma, and rank-1 sigma against mixed x, pure x
    and sigma itself.
    """
    rng = np.random.default_rng(seed)
    frame = bk.orthonormal_pairs(rng, n, 2)
    small = np.geomspace(2e-9, 1e-2, n)
    near_pure = np.einsum("nik,nk,njk->nij", frame, np.stack([small, 1.0 - small], -1),
                          frame.conj())
    diagonal = np.zeros((n, 2, 2), dtype=complex)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = 1.0 - small, small
    half = np.broadcast_to(np.eye(2) / 2.0, (n, 2, 2)).astype(complex)
    mixed = bk.ginibre_states(rng, n, 2)
    pure = bk.projectors_from_vectors(bk.orthonormal_pairs(rng, n, 2)[:, :, 0])
    rank_one = bk.projectors_from_vectors(bk.orthonormal_pairs(rng, n, 2)[:, :, 0])
    pairs = [
        (bk.ginibre_states(rng, n, 2), near_pure), (pure, near_pure),
        (bk.projectors_from_vectors(frame[:, :, 1]), near_pure),
        (0.5 * (near_pure + bk.ginibre_states(rng, n, 2)), near_pure),
        (bk.ginibre_states(rng, n, 2), diagonal),
        (bk.ginibre_states(rng, n, 2), half), (pure, half),
        (bk.ginibre_states(rng, n, 2), mixed), (pure, mixed),
        (bk.ginibre_states(rng, n, 2), rank_one), (pure, rank_one), (rank_one, rank_one),
    ]
    return tuple(np.concatenate(side) for side in zip(*pairs))


def test_qubit_relative_entropy_matches_the_general_route():
    """The qubit closed form against the eigh route of _support, which qubits
    padded to 3 x 3 take: the same infinities, values within the eigh route's
    own error on near-pure sigma in a random basis (about u / lambda_min; see
    the mpmath test), and to rounding on diagonal sigma, whose spectrum both
    routes read exactly."""
    x, y = qubit_entropy_pairs(90)
    got = bk.relative_entropy_batch(x, y)
    want = bk.relative_entropy_batch(embedded(x, 3), embedded(y, 3))
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    assert np.count_nonzero(np.isinf(got)) == 80  # every rank-1 sigma but sigma itself
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-7, atol=1e-13)
    diagonal = y[:, 0, 1] == 0.0
    np.testing.assert_allclose(got[diagonal], want[diagonal], rtol=1e-14, atol=0)


def test_qubit_relative_entropy_against_50_digit_reference():
    """Closed form and eigh route against mpmath's 50-digit eigensolver on the
    finite pairs: the closed form's errors are the smaller ones."""
    mpmath = pytest.importorskip("mpmath")

    def reference(a, b):
        """D(a || b) from both eigendecompositions, on b's eigenvalues above the support cutoff."""
        xm, ym = (mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in m])
                  for m in (a, b))
        mu = mpmath.eighe(xm, eigvals_only=True)
        w, v = mpmath.eighe(ym)
        ent = sum(m * mpmath.log(m) for m in mu if m > 0)
        cross = sum((v[:, j].H * xm * v[:, j])[0].real * mpmath.log(w[j])
                    for j in range(2) if w[j] > TOL_SUPP * w[1])
        return float(ent - cross)

    x, y = qubit_entropy_pairs(91)
    closed = bk.relative_entropy_batch(x, y)
    eigh_route = bk.relative_entropy_batch(embedded(x, 3), embedded(y, 3))
    finite = np.isfinite(closed)
    with mpmath.workdps(50):
        want = np.array([reference(a, b) for a, b in zip(x[finite], y[finite])])
    err_closed, err_eigh = (np.abs(got[finite] - want) for got in (closed, eigh_route))
    large = np.abs(want) >= 1e-6  # below that a value is a few u from 0: compare absolutely
    rel_closed, rel_eigh = (err[large] / np.abs(want[large]) for err in (err_closed, err_eigh))
    assert np.max(rel_closed) <= min(np.max(rel_eigh), 1e-8)
    assert np.median(rel_closed) <= np.median(rel_eigh)
    assert np.max(err_closed[~large]) <= 1e-14


@pytest.mark.parametrize("dim", DIMS)
def test_relative_spectrum_is_the_generalized_spectrum(dim):
    x, y = full_rank_pairs(dim, 51 + dim)
    rel, dmax = bk.relative_spectrum(x, y)
    want = np.array([sla.eigh(a, b, eigvals_only=True) for a, b in zip(x, y)])
    np.testing.assert_allclose(rel, want, rtol=1e-10, atol=0)
    np.testing.assert_allclose(dmax, np.maximum(np.log(want[:, -1]), 0.0), rtol=0, atol=1e-10)


F_FUNCTIONS = {
    "kl": dv.kl_function(),
    "chi2": dv.chi2_function(),
    "smoothed_tv": dv.smoothed_tv_function(0.1),
}


def embedded(states, dim):
    """Stacked states padded with zeros to dim x dim: rank at most their own dim."""
    out = np.zeros(states.shape[:-2] + (dim, dim), dtype=complex)
    k = states.shape[-1]
    out[..., :k, :k] = states
    return out


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("name", F_FUNCTIONS)
def test_f_divergence_rows_are_batches_of_one(dim, name):
    f = F_FUNCTIONS[name]
    rng = np.random.default_rng(60 + dim)
    x, y = bk.ginibre_states(rng, 3, dim), bk.ginibre_states(rng, 3, dim)
    half_x, half_y = bk.ginibre_states(rng, 1, dim // 2), bk.ginibre_states(rng, 1, dim // 2)
    # Row 3: equal states. Row 4: a full-rank x against a rank-deficient y,
    # a support violation. Row 5: both rank-deficient on the same support.
    x = np.concatenate([x, x[:1], x[1:2], embedded(half_x, dim)])
    y = np.concatenate([y, x[:1], embedded(half_y, dim), embedded(half_y, dim)])
    got = bk.f_divergence_batch(x, y, f)
    ones = [bk.f_divergence_batch(a[None], b[None], f)[0] for a, b in zip(x, y)]
    np.testing.assert_allclose(got, ones, rtol=0, atol=1e-12)

    want = [quad_f_divergence(f, a, b) for a, b in zip(x[:3], y[:3])]
    np.testing.assert_allclose(got[:3], want, rtol=0, atol=1e-9)
    assert abs(got[3]) < 1e-10
    if f.growth_superlinear:
        assert np.isinf(got[4])
    else:
        # Linear growth: the violated term integrates finitely up to LOG_GAMMA_CAP.
        assert np.isfinite(got[4]) and got[4] > 0.0
    block = bk.f_divergence_batch(half_x, half_y, f)[0]
    assert got[5] == pytest.approx(block, abs=1e-9)


def test_f_divergence_panel_budget_is_per_pair(monkeypatch):
    x, y = full_rank_pairs(2, 64, n=3000)
    evaluated = []
    kronrod = bk._kronrod

    def counted(integrand, owner, lo, hi, chunk):
        evaluated.append(lo.size)
        return kronrod(integrand, owner, lo, hi, chunk)

    monkeypatch.setattr(bk, "_kronrod", counted)
    f = F_FUNCTIONS["smoothed_tv"]
    got = bk.f_divergence_batch(x, y, f)
    # The batch evaluated more than 4 * budget panels in all and every row
    # converged, so the batch as a whole was not held to a shared budget.
    assert sum(evaluated) > 4 * bk.QUAD_PANEL_BUDGET
    assert np.all(np.isfinite(got))
    ones = [bk.f_divergence_batch(x[i : i + 1], y[i : i + 1], f)[0] for i in range(0, 3000, 97)]
    np.testing.assert_allclose(got[::97], ones, rtol=0, atol=1e-12)


def test_f_divergence_one_unreachable_pair_raises():
    rng = np.random.default_rng(65)
    x = bk.ginibre_states(rng, 20, 2)
    kl = F_FUNCTIONS["kl"]
    # Equal pairs meet any tolerance: their integrands vanish to rounding.
    assert np.all(np.abs(bk.f_divergence_batch(x, x, kl, tol=1e-300)) < 1e-20)
    y = x.copy()
    y[7] = bk.ginibre_states(rng, 1, 2)[0]
    got = bk.f_divergence_batch(x, y, kl, tol=1e-300)
    assert np.isnan(got[7])
    ones = [bk.f_divergence_batch(a[None], b[None], kl, tol=1e-300)[0] for a, b in zip(x, y)]
    np.testing.assert_allclose(np.delete(got, 7), np.delete(ones, 7), rtol=1e-12, atol=0)
    with pytest.raises(errors.QuadratureNotConverged):
        dv.f_divergence(x[7], y[7], kl, tol=1e-300)


def test_kronrod_embeds_the_7_point_gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(bk._K15_NODES[1::2], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(bk._G7_WEIGHTS[1::2], weights, rtol=0, atol=1e-15)
    assert np.all(bk._G7_WEIGHTS[0::2] == 0.0)


def test_kronrod_rule_is_exact_to_degree_22():
    for k in range(23):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert bk._K15_NODES**k @ bk._K15_WEIGHTS == pytest.approx(exact, abs=1e-15), k
    assert abs(np.sum(bk._NULL_WEIGHTS)) < 1e-15


def test_f_divergence_generic_d32_pair_accepts_every_first_panel(monkeypatch):
    """The cost guard: a generic d = 32 KL pair needs no split at TOL_QUAD."""
    x, y = full_rank_pairs(32, 66, n=1)
    rounds = []
    kronrod = bk._kronrod

    def counted(integrand, owner, lo, hi, chunk):
        rounds.append(lo.size)
        return kronrod(integrand, owner, lo, hi, chunk)

    monkeypatch.setattr(bk, "_kronrod", counted)
    assert np.isfinite(bk.f_divergence_batch(x, y, F_FUNCTIONS["kl"])[0])
    assert len(rounds) == 1, f"panels per round: {rounds}"
