"""Vectorized kernels: every distinguishability measure in qpriv, and the sampled ensembles.

Everything here operates on stacked arrays (leading batch axis) of small
dense matrices and is deliberately free of per-item Python loops. The
scalar measures of :mod:`qpriv.divergences` are batches of one over these
kernels, so each measure has a single implementation. Stacked 2 x 2
Hermitians take closed-form eigenvalues that stay accurate at any scale:
the small root never comes from cancellation.
"""

from __future__ import annotations

import numpy as np

from .quantum_core import TOL_SUPP, _sqrt_psd

_ENT_FLOOR = 1e-18

# f-divergence quadrature target, and the panel budget of each integral of each pair.
TOL_QUAD = 1e-7
QUAD_PANEL_BUDGET = 10_000
# Integration cap in log-gamma; hockey-stick tails beyond exp(50) are ignored.
LOG_GAMMA_CAP = 50.0

# The widest initial panel in log-gamma, and the most matrix entries per
# integrand call (4,096 qubit matrices, 16 at d = 32): stacks that outgrow the
# CPU caches make each eigensolve slower.
_PANEL_WIDTH = 4.0
_ENTRY_BUDGET = 2**14


# The rule of every panel: the 15-point Kronrod extension of the 7-point
# Gauss-Legendre rule (the QUADPACK qk15 table). _XGK lists the nodes in
# [0, 1] from the outermost to the centre; the Gauss nodes are the odd-indexed
# ones, and _WG holds their weights.
_XGK = np.array([
    0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
    0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
    0.207784955007898468, 0.0,
])
_WGK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
    0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
    0.204432940075298892, 0.209482141084727828,
])
_WG = np.array([0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
                0.0, 0.381830050505118945, 0.0, 0.417959183673469388])
_K15_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_K15_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_G7_WEIGHTS = np.concatenate((_WG, _WG[-2::-1]))  # 0 on the Kronrod-only nodes
_NULL_WEIGHTS = _K15_WEIGHTS - _G7_WEIGHTS  # integrates every polynomial of degree < 14 to 0


def eigvals_2x2_herm(m: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of stacked 2x2 Hermitian matrices, ascending.

    The larger-magnitude root is mean + sign(mean) hypot((a - c) / 2, |b|);
    the other is det / root, formed as a (c / root) - |b| (|b| / root) so
    that neither cancellation nor the overflow of a c can reach it. Min and
    max order the pair, which stays ascending even when rounding ties it.
    """
    a = m[..., 0, 0].real
    c = m[..., 1, 1].real
    b = np.abs(m[..., 0, 1])
    mean = 0.5 * (a + c)
    big = mean + np.copysign(np.hypot(0.5 * (a - c), b), mean)
    safe = np.where(big == 0.0, 1.0, big)  # big is 0 only for the zero matrix
    small = a * (c / safe) - b * (b / safe)
    out = np.empty(big.shape + (2,))  # filled in place: np.stack costs more than the roots
    np.minimum(small, big, out=out[..., 0])
    np.maximum(small, big, out=out[..., 1])
    return out


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Hermitian matrices; 2 x 2 ones take the closed form."""
    return eigvals_2x2_herm(m) if m.shape[-1] == 2 else np.linalg.eigvalsh(m)


def positive_eigensum(m: np.ndarray) -> np.ndarray:
    """Trace of the positive part of stacked Hermitian matrices."""
    return np.sum(np.maximum(_eigvalsh(m), 0.0), axis=-1)


def trace_distance_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(np.abs(_eigvalsh(x - y)), axis=-1)


def hockey_stick_ext_batch(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    return positive_eigensum(x - gamma * y) - max(0.0, 1.0 - gamma)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def fidelity_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity || sqrt(x) sqrt(y) ||_1^2 of stacked states, clamped to [0, 1].

    Qubit pairs take the closed form Tr[xy] + 2 sqrt(det x det y).
    """
    if x.shape[-1] == 2:
        tr = np.real(np.einsum("...ij,...ji->...", x, y))
        det_x = np.maximum(np.linalg.det(x).real, 0.0)
        det_y = np.maximum(np.linalg.det(y).real, 0.0)
        f = tr + 2.0 * np.sqrt(det_x * det_y)
    else:
        f = np.sum(np.linalg.svd(_sqrt_psd(x) @ _sqrt_psd(y), compute_uv=False), axis=-1) ** 2
    return np.clip(f, 0.0, 1.0)


def bures_squared_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Bures distance 2 (1 - sqrt(F)) of stacked states."""
    return 2.0 * (1.0 - np.sqrt(fidelity_batch(x, y)))


def _support_masks(w: np.ndarray, overlaps: np.ndarray):
    """y's clipped spectrum w, the mask of its eigenvalues above the support
    cutoff, x's clipped weight on each eigenvector of y, and the mask of pairs
    where x has weight above ``TOL_SUPP`` outside supp(y).
    """
    w = np.maximum(w, 0.0)
    on_support = w > TOL_SUPP * np.maximum(w[..., -1:], 1e-300)
    overlaps = np.maximum(overlaps, 0.0)
    outside = np.sum(overlaps, axis=-1, where=~on_support)
    return w, on_support, overlaps, outside > TOL_SUPP


def _support(x: np.ndarray, y: np.ndarray):
    """Support data shared by the entropies of stacked x relative to y:
    :func:`_support_masks` of y's eigendecomposition, with y's eigenbasis second.
    """
    w, v = np.linalg.eigh(y)
    w, on_support, overlaps, violated = _support_masks(w, np.sum(v.conj() * (x @ v), axis=-2).real)
    return w, v, on_support, overlaps, violated


def bloch_coordinates(m: np.ndarray):
    """Trace t and Bloch vector r of stacked 2 x 2 Hermitians m = (t I + r . sigma) / 2."""
    a, c, off = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]
    return a + c, np.stack((2.0 * off.real, -2.0 * off.imag, a - c), axis=-1)


def _qubit_support(x: np.ndarray, y: np.ndarray):
    """:func:`_support_masks` of stacked 2 x 2 pairs, in closed form.

    y = (t I + v . sigma) / 2 has eigenvectors with Bloch vectors -v^ and +v^,
    ascending, on which x = (t' I + u . sigma) / 2 weighs (t' -+ u . v^) / 2.
    The spectrum comes from :func:`eigvals_2x2_herm`, not from (t -+ |v|) / 2,
    whose difference loses the small eigenvalue of a near-pure y. At v = 0
    the two eigenvalues, and so their logs, are equal, so any v^ gives the
    same relative entropy.
    """
    tx, u = bloch_coordinates(x)
    v = bloch_coordinates(y)[1]
    norm = np.sqrt(np.sum(v * v, axis=-1))
    along = np.sum(u * v, axis=-1) / np.where(norm > 0.0, norm, 1.0)
    overlaps = 0.5 * (tx[..., None] + along[..., None] * np.array([-1.0, 1.0]))
    return _support_masks(eigvals_2x2_herm(y), overlaps)


def relative_entropy_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Relative entropy of stacked state pairs; inf on support violation.

    Qubit pairs take the closed form of :func:`_qubit_support` and
    :func:`eigvals_2x2_herm`, under the same support rule as wider ones.
    """
    if x.shape[-1] == 2:
        w, on_support, overlaps, violated = _qubit_support(x, y)
    else:
        w, _, on_support, overlaps, violated = _support(x, y)
    if violated.all():
        return np.full(violated.shape, np.inf)
    mu = _eigvalsh(x)
    ent = np.sum(mu * np.log(np.where(mu > _ENT_FLOOR, mu, 1.0)), axis=-1)
    cross = np.sum(overlaps * np.log(np.where(on_support, w, 1.0)), axis=-1)
    return np.where(violated, np.inf, ent - cross)


def relative_spectrum(x: np.ndarray, y: np.ndarray, skip_if_outside: bool = False):
    """Spectrum of y^{-1/2} x y^{-1/2} on supp(y), ascending, and D_max(x || y), of stacked pairs.

    The eigenvalues are the gammas at which an eigenvalue of x - gamma y
    crosses zero, so their logs are the kinks of the hockey-stick integrand.
    D_max is the log of the largest, floored at 0, and inf where x has
    weight above ``TOL_SUPP`` outside supp(y). With ``skip_if_outside`` the
    spectrum is None when every pair has such weight.
    """
    w, v, on_support, _, violated = _support(x, y)
    if skip_if_outside and violated.all():
        return None, np.full(violated.shape, np.inf)
    inv_sqrt = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, w, 1.0)), 0.0)
    s = (v * inv_sqrt[..., None, :]) @ _adjoint(v)
    m = s @ x @ s
    rel = np.linalg.eigvalsh(0.5 * (m + _adjoint(m)))
    dmax = np.maximum(np.log(np.maximum(rel[..., -1], 1e-300)), 0.0)
    return rel, np.where(violated, np.inf, dmax)


def max_relative_entropy_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Max-relative entropy of stacked state pairs; inf on support violation."""
    return relative_spectrum(x, y, skip_if_outside=True)[1]


# ---------------------------------------------------------------------------
# f-divergences: adaptive log-domain quadrature over stacked pairs
# ---------------------------------------------------------------------------


def _kronrod(integrand, owner, lo, hi, chunk: int):
    """The K15 value on each panel [lo, hi] of integral ``owner`` and its G7-K15
    error estimate, calling ``integrand(owners, u)`` on at most ``chunk`` nodes
    at a time.

    The estimate applies the null rule K15 - G7 to the values less the centre
    value; its weights sum to 0, so this changes nothing in exact arithmetic,
    but an integrand constant to rounding estimates exactly 0.
    """
    half = 0.5 * (hi - lo)
    u = ((0.5 * (hi + lo))[:, None] + half[:, None] * _K15_NODES).ravel()
    k = np.repeat(owner, _K15_NODES.size)
    values = [integrand(k[i : i + chunk], u[i : i + chunk]) for i in range(0, u.size, chunk)]
    v = np.concatenate(values).reshape(-1, _K15_NODES.size)
    return half * (v @ _K15_WEIGHTS), half * ((v - v[:, 7:8]) @ _NULL_WEIGHTS)  # 7: the centre


def _quad_log_domain(integrand, upper: np.ndarray, kinks: np.ndarray, tol: float, chunk: int):
    """Integrals k over [0, upper[k]] of an integrand mapping arrays (k, u) to an array.

    [0, upper[k]] is cut at the kinks of row k, and each piece into equal
    panels at most ``_PANEL_WIDTH`` wide. Each round evaluates every pending
    panel of every integral once, with the G7-K15 pair. A panel whose error
    estimate is within tol * width / upper[k] adds its K15 value to total[k]
    (so each integral's accepted estimates sum to at most tol); any other is
    split, and both halves are pending in the next round. No integral's
    panels depend on another's. An integral that has made more than
    ``QUAD_PANEL_BUDGET`` panels stops refining and comes back NaN.
    """
    top = upper[:, None]
    inside = (kinks > 1e-12) & (kinks < top)
    cuts = np.sort(np.hstack([np.zeros_like(top), np.where(inside, kinks, top), top]), axis=1)
    start, end = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    pieces = np.ceil((end - start) / _PANEL_WIDTH).astype(np.intp)  # 0 on repeated cuts
    seg = np.repeat(np.arange(pieces.size), pieces)
    j = np.arange(seg.size) - (np.cumsum(pieces) - pieces)[seg]
    step = ((end - start) / np.maximum(pieces, 1))[seg]
    lo = j * step + start[seg]
    hi = np.where(j + 1 < pieces[seg], (j + 1) * step + start[seg], end[seg])
    owner = seg // (cuts.shape[1] - 1)

    total = np.zeros(upper.size)
    panels = np.bincount(owner, minlength=upper.size)
    while lo.size:
        value, err = _kronrod(integrand, owner, lo, hi, chunk)
        split = np.abs(err) > tol * (hi - lo) / upper[owner]
        total += np.bincount(owner[~split], value[~split], minlength=upper.size)
        panels += 2 * np.bincount(owner[split], minlength=upper.size)
        split &= panels[owner] <= QUAD_PANEL_BUDGET
        mid = 0.5 * (lo + hi)
        owner = np.concatenate((owner[split], owner[split]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    return np.where(panels > QUAD_PANEL_BUDGET, np.nan, total)


def f_divergence_batch(x: np.ndarray, y: np.ndarray, f, tol: float = TOL_QUAD) -> np.ndarray:
    """Quantum f-divergences of stacked pairs through the hockey-stick integral form

        int_1^inf f''(g) E_g(x||y) + g^{-3} f''(1/g) E_g(y||x) dg,

    f a :class:`qpriv.divergences.ConvexFunction`. :func:`_quad_log_domain`
    integrates both terms of every pair together over log-gamma, cut at the
    log relative eigenvalues (the kinks of E_g), to within ``tol`` each, up
    to the max-relative entropy where a term vanishes, capped at
    ``LOG_GAMMA_CAP``. A pair is +inf when either max-relative entropy is
    infinite and f grows superlinearly, and NaN when either integral did not
    reach ``tol`` within ``QUAD_PANEL_BUDGET`` panels.
    """
    n = x.shape[0]
    rel1, r1 = relative_spectrum(x, y, f.growth_superlinear)
    rel2, r2 = relative_spectrum(y, x, f.growth_superlinear)
    infinite = (np.isinf(r1) | np.isinf(r2)) & f.growth_superlinear
    if infinite.all():
        return np.full(n, np.inf)

    # Integral k < n is the first term of pair k, integral n + k its second.
    upper = np.where(np.tile(infinite, 2), 0.0, np.minimum(np.concatenate((r1, r2)), LOG_GAMMA_CAP))
    kinks = np.log(np.maximum(np.concatenate((rel1, rel2)), 1e-300))  # log 1e-300: no cut
    a, b = np.concatenate((x, y)), np.concatenate((y, x))

    def integrand(k: np.ndarray, u: np.ndarray) -> np.ndarray:
        gamma = np.exp(u)
        m = b[k]  # a[k] - gamma b[k], built in place to hold two stacks at most
        m *= -gamma[:, None, None]
        m += a[k]
        eig = positive_eigensum(m)
        out = np.empty_like(u)
        first = k < n
        g, w = gamma[first], u[~first]
        out[first] = f.f_pp(g) * eig[first] * g
        out[~first] = np.exp(-2.0 * w) * f.f_pp(np.exp(-w)) * eig[~first]
        return out

    chunk = max(1, _ENTRY_BUDGET // x.shape[-1] ** 2)
    total = _quad_log_domain(integrand, upper, kinks, tol, chunk)
    return np.where(infinite, np.inf, total[:n] + total[n:])


# ---------------------------------------------------------------------------
# Batched random ensembles
# ---------------------------------------------------------------------------


def gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def ginibre_states(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stacked full-rank Ginibre-induced random states, shape (n, dim, dim)."""
    g = gaussian_complex(rng, (n, dim, dim))
    m = g @ _adjoint(g)
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
