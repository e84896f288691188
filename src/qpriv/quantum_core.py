"""Hermitian matrix algebra, quantum states, channels, and POVMs.

Dense linear-algebra primitives that the rest of the package builds on:
validated containers for states and channels, spectral utilities (positive
part, operator geometric mean, rank-one pair decomposition), standard channel
constructors, seeded random ensembles, and JSON serialization.

All values are immutable after construction and every operation is a pure
function; random-number state is owned by the caller and passed explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidGamma,
    InvalidNorm,
    InvalidParams,
    InvalidProbability,
    InvalidRank,
    InvalidTrace,
    NonFinite,
    NonHermitian,
    NotAnEffect,
    NotPositiveSemidefinite,
    NotTracePreserving,
)

# Tolerances are relative to the max-norm of the operand; double-precision
# eigensolvers lose roughly 1e-12 per dimension doubling at desk scale.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_TP = 1e-9
TOL_PSD = 1e-8
TOL_SPEC = 1e-8
TOL_NORM = 1e-9

# Divergence ratios with denominators below this are skipped as undefined,
# and states closer than this in trace distance count as indistinguishable.
TOL_DENOM = 1e-8

# Mass of rho outside supp(sigma) above this value makes D and D_max infinite.
TOL_SUPP = 1e-9

# Regularization weight for singular operands of the geometric mean.
EPS_REG = 1e-10

# Dense-only linear algebra; tensor powers are capped at this dimension.
MAX_DENSE_DIM = 4096


def as_rng(seed) -> np.random.Generator:
    """Return ``seed`` itself if it is a Generator, else a fresh seeded one."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParams(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2."""
    return 0.5 * (a + a.conj().T)


def _as_square(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(getattr(a, "entries", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def _check_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    if not math.isfinite(peak):
        raise NonFinite(f"{name} has non-finite entries")
    scale = max(peak, 1.0)
    if float(np.max(np.abs(m - m.conj().T))) > TOL_HERM * scale:
        raise NonHermitian(f"{name} is not Hermitian within tolerance")
    return hermitian_part(m)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _stack(ops, empty_error: str, shape_error: str) -> np.ndarray:
    """``ops``, a sequence or array of equal-shape non-empty matrices, as one 3-d stack."""
    try:
        ops = np.asarray(ops, dtype=complex)
    except ValueError:  # ragged
        raise DimensionMismatch(shape_error) from None
    if ops.shape[:1] == (0,):
        raise NotTracePreserving(empty_error)
    if ops.ndim != 3 or 0 in ops.shape:
        raise DimensionMismatch(shape_error)
    return ops


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d Hermitian, positive semi-definite, unit-trace operator.

    Construction re-symmetrizes the entries, clips eigenvalues that are
    negative by at most ``TOL_PSD`` (relative to the max-norm), and
    renormalizes the trace, so a stored instance satisfies the invariants
    exactly up to floating-point roundoff.
    """

    entries: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        m = _as_square(self.entries, "density matrix")
        if validate:
            m = _check_hermitian(m, "density matrix")
            w, v = np.linalg.eigh(m)
            scale = max(float(w[-1]), float(-w[0]), 1e-300)
            if w[0] < -TOL_PSD * scale:
                raise NotPositiveSemidefinite(
                    f"density matrix has eigenvalue {w[0]:.3e}"
                )
            w = np.clip(w, 0.0, None)
            tr = float(w.sum())
            if abs(tr - 1.0) > TOL_TRACE:
                raise InvalidTrace(f"trace is {tr!r}, expected 1")
            m = (v * (w / tr)) @ v.conj().T
            m = hermitian_part(m)
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pure(cls, state: "PureState") -> "DensityMatrix":
        v = state.amplitudes
        return cls(np.outer(v, v.conj()), validate=False)

    def __repr__(self) -> str:  # entries elided; they are large
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > TOL_NORM:
            raise InvalidNorm(f"state vector norm is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(v / norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)


def _state_vector(state) -> np.ndarray:
    if isinstance(state, PureState):
        return state.amplitudes
    v = np.asarray(state, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > TOL_NORM:
        raise InvalidNorm(f"state vector norm is {norm!r}, expected 1")
    return v / norm


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map stored as one read-only (k, dim_out, dim_in) Kraus stack.

    The Kraus stack is the channel's only representation: no transfer or Choi
    matrix is built, so memory stays O(k d^2) and every application is
    sum_i K_i X K_i^dag. Any sequence or array of equal-shape matrices is
    accepted. Complete positivity is automatic in Kraus form; trace
    preservation (sum_i K_i^dag K_i = I) is verified at construction within
    ``TOL_TP``.
    """

    kraus: np.ndarray

    def __post_init__(self) -> None:
        ops = _stack(
            self.kraus,
            "a channel needs at least one Kraus operator",
            "Kraus operators must share one 2-d shape",
        )
        if not np.isfinite(ops).all():
            raise NonFinite("Kraus operators have non-finite entries")
        flat = ops.reshape(-1, ops.shape[2])
        if float(np.max(np.abs(flat.conj().T @ flat - np.eye(ops.shape[2])))) > TOL_TP:
            raise NotTracePreserving("Kraus set is not trace-preserving")
        object.__setattr__(self, "kraus", _frozen(ops))

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """sum_i K_i X K_i^dag for a raw (not necessarily normalized) matrix X."""
        k = self.kraus
        return np.sum(k @ np.asarray(mat, dtype=complex) @ k.conj().transpose(0, 2, 1), axis=0)

    def __call__(self, state: DensityMatrix) -> DensityMatrix:
        return apply(self, state)

    def __repr__(self) -> str:
        return (
            f"KrausChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
            f"kraus_count={len(self.kraus)})"
        )


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: PSD effects summing to the identity.

    The effects are one read-only (n, d, d) stack, validated once at
    construction with each effect's Hermiticity judged at its own max-norm.
    """

    effects: np.ndarray

    def __post_init__(self) -> None:
        shape_error = "POVM effects must share one square shape"
        ops = _stack(self.effects, "a POVM needs at least one effect", shape_error)
        if ops.shape[1] != ops.shape[2]:
            raise DimensionMismatch(shape_error)
        peak = np.max(np.abs(ops), axis=(1, 2))
        if not np.isfinite(peak).all():
            raise NonFinite("POVM effect has non-finite entries")
        adj = ops.conj().transpose(0, 2, 1)
        if (np.max(np.abs(ops - adj), axis=(1, 2)) > TOL_HERM * np.maximum(peak, 1.0)).any():
            raise NonHermitian("POVM effect is not Hermitian within tolerance")
        ops = 0.5 * (ops + adj)
        w = np.linalg.eigvalsh(ops)
        if (w[:, 0] < -TOL_PSD * np.maximum(np.max(np.abs(w), axis=1), 1.0)).any():
            raise NotPositiveSemidefinite("POVM effect is not PSD")
        if float(np.max(np.abs(ops.sum(axis=0) - np.eye(ops.shape[1])))) > TOL_TP:
            raise NotTracePreserving("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", _frozen(ops))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def outcome_probabilities(self, state) -> np.ndarray:
        p = np.einsum("nij,ji->n", self.effects, _as_square(state)).real
        return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class PurePairSpectrum:
    """Spectral data of psi psi^dag - gamma * phi phi^dag for pure psi, phi.

    The operator has at most one nonnegative eigenvalue ``lambda1`` (in
    [0, 1]) and one nonpositive eigenvalue ``-lambda2`` (with lambda2 in
    [gamma - 1, gamma]); ``phi1`` and ``phi2`` are the corresponding
    orthogonal eigenvectors, so that

        psi psi^dag - gamma * phi phi^dag
            = lambda1 * phi1 phi1^dag - lambda2 * phi2 phi2^dag.
    """

    lambda1: float
    lambda2: float
    phi1: PureState
    phi2: PureState
    gamma: float
    fidelity: float
    psi: PureState
    phi: PureState

    def __post_init__(self) -> None:
        if abs(self.lambda1 - self.lambda2 - (1.0 - self.gamma)) > TOL_SPEC:
            raise NotPositiveSemidefinite(
                "eigenvalue pair violates the trace identity"
            )
        if abs(np.vdot(self.phi1.amplitudes, self.phi2.amplitudes)) > TOL_NORM:
            raise InvalidNorm("eigenvectors are not orthogonal")
        if float(np.max(np.abs(self.reconstruction_residual()))) > TOL_SPEC:
            raise NotPositiveSemidefinite(
                "spectral reconstruction residual exceeds tolerance"
            )

    def reconstruction_residual(self) -> np.ndarray:
        lhs = self.psi.projector() - self.gamma * self.phi.projector()
        rhs = self.lambda1 * self.phi1.projector() - self.lambda2 * self.phi2.projector()
        return lhs - rhs


# ---------------------------------------------------------------------------
# Spectral utilities
# ---------------------------------------------------------------------------


def positive_part(a) -> np.ndarray:
    """Positive part of a Hermitian matrix: keep eigenvalues >= 0.

    Returns sum_{a_i >= 0} a_i |i><i| from a spectral decomposition of ``a``.
    """
    m = _as_square(a)
    m = _check_hermitian(m, "positive_part input")
    w, v = np.linalg.eigh(m)
    w = np.where(w >= 0.0, w, 0.0)
    return hermitian_part((v * w) @ v.conj().T)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, or of each in a stack."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    inv = np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0)
    return (v * inv) @ v.conj().T


def matrix_geometric_mean(a, b) -> np.ndarray:
    """Operator geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.

    Positive definite inputs use the formula directly; singular inputs are
    handled through the limit of the regularized pair (A + eps I, B + eps I),
    approximated at ``eps = EPS_REG`` relative to the largest entry.
    """
    ma = _check_hermitian(_as_square(a, "A"), "A")
    mb = _check_hermitian(_as_square(b, "B"), "B")
    if ma.shape != mb.shape:
        raise DimensionMismatch("geometric mean needs equal dimensions")
    scale = max(float(np.max(np.abs(ma))), float(np.max(np.abs(mb))), 1.0)
    eye = np.eye(ma.shape[0])
    min_eig = min(float(np.linalg.eigvalsh(ma)[0]), float(np.linalg.eigvalsh(mb)[0]))
    if min_eig <= EPS_REG * scale:
        reg = EPS_REG * scale
        ma = ma + reg * eye
        mb = mb + reg * eye
    ra = _sqrt_psd(ma)
    ra_inv = _inv_sqrt_psd(ma)
    middle = _sqrt_psd(hermitian_part(ra_inv @ mb @ ra_inv))
    return hermitian_part(ra @ middle @ ra)


def pure_pair_spectrum(psi, phi, gamma: float) -> PurePairSpectrum:
    """Decompose psi psi^dag - gamma * phi phi^dag inside the span of the pair.

    The two eigenvalues admit closed forms in the squared overlap
    F = |<psi|phi>|^2:

        lambda1 = ( sqrt((gamma+1)^2 - 4 gamma F) - (gamma-1) ) / 2
        lambda2 = ( sqrt((gamma+1)^2 - 4 gamma F) + (gamma-1) ) / 2

    and the eigenvectors are computed by a dense solve restricted to the
    two-dimensional span.
    """
    if gamma < 1.0:
        raise InvalidGamma(f"gamma must be >= 1, got {gamma}")
    v_psi = _state_vector(psi)
    v_phi = _state_vector(phi)
    if v_psi.shape != v_phi.shape:
        raise DimensionMismatch("pure states must share one dimension")
    overlap = complex(np.vdot(v_phi, v_psi))
    fid = min(float(abs(overlap) ** 2), 1.0)
    root = float(np.sqrt(max((gamma + 1.0) ** 2 - 4.0 * gamma * fid, 0.0)))
    lam1 = 0.5 * (root - (gamma - 1.0))
    lam2 = 0.5 * (root + (gamma - 1.0))

    residual = v_psi - overlap * v_phi
    res_norm = float(np.linalg.norm(residual))
    if res_norm <= 1e-12:
        # psi is parallel to phi: pick any unit vector orthogonal to phi.
        dim = v_phi.shape[0]
        probe = np.zeros(dim, dtype=complex)
        probe[int(np.argmin(np.abs(v_phi)))] = 1.0
        perp = probe - np.vdot(v_phi, probe) * v_phi
        perp /= np.linalg.norm(perp)
        vec1, vec2 = perp, v_phi
    else:
        e1 = v_phi
        e2 = residual / res_norm
        # psi = overlap * e1 + res_norm * e2 in this basis.
        m2 = np.array(
            [
                [abs(overlap) ** 2 - gamma, overlap * res_norm],
                [np.conj(overlap) * res_norm, res_norm**2],
            ],
            dtype=complex,
        )
        w, u = np.linalg.eigh(m2)
        vec1 = u[0, 1] * e1 + u[1, 1] * e2
        vec2 = u[0, 0] * e1 + u[1, 0] * e2
    return PurePairSpectrum(
        lambda1=lam1,
        lambda2=lam2,
        phi1=PureState(vec1),
        phi2=PureState(vec2),
        gamma=float(gamma),
        fidelity=fid,
        psi=PureState(v_psi),
        phi=PureState(v_phi),
    )


# ---------------------------------------------------------------------------
# Channel constructors
# ---------------------------------------------------------------------------


def depolarizing_channel(dim: int, p: float) -> KrausChannel:
    """Channel rho -> (1 - p) rho + (p / dim) I."""
    if dim < 2:
        raise DimensionMismatch(f"depolarizing channel needs dim >= 2, got {dim}")
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"mixing probability must be in [0, 1], got {p}")
    # Weyl operators X^a Z^b, a-major: Z^b = diag(omega^(b j mod d)), and X^a rolls rows by a.
    j = np.arange(dim)
    z_powers = np.eye(dim) * np.exp(2j * np.pi / dim) ** (np.outer(j, j) % dim)[:, None, :]
    a, b = np.divmod(np.arange(dim * dim if p > 0.0 else 1), dim)
    kraus = z_powers[b[:, None], (j - a[:, None]) % dim]
    kraus[0] *= np.sqrt(max(1.0 - p + p / (dim * dim), 0.0))
    kraus[1:] *= np.sqrt(p) / dim
    return KrausChannel(kraus)


def measurement_channel_two_outcome(effect) -> KrausChannel:
    """Binary readout of an effect M: omega -> diag(Tr[M w], Tr[(I-M) w]).

    Output dimension is 2 and the output is always diagonal in the
    computational basis.
    """
    m = _check_hermitian(_as_square(effect, "effect"), "effect")
    w, v = np.linalg.eigh(m)
    if w[0] < -TOL_PSD or w[-1] > 1.0 + TOL_PSD:
        raise NotAnEffect(f"eigenvalues {w} are outside [0, 1]")
    w = np.clip(w, 0.0, 1.0)
    # Eigenvector-major, outcome 0 before 1: sqrt(w_i) |0><v_i| and sqrt(1 - w_i) |1><v_i|.
    weights = np.stack((w, 1.0 - w), axis=1)
    readout = np.eye(2, dtype=complex)[:, :, None] @ v.T.conj()[:, None, None]  # |o><v_i|
    return KrausChannel((np.sqrt(weights)[:, :, None, None] * readout)[weights > 1e-14])


def replacement_channel(omega: DensityMatrix, dim_in: int | None = None) -> KrausChannel:
    """Channel that maps every input state to the fixed state ``omega``."""
    target = omega.entries if isinstance(omega, DensityMatrix) else _as_square(omega)
    dim_out = target.shape[0]
    dim_in = dim_out if dim_in is None else int(dim_in)
    w, v = np.linalg.eigh(hermitian_part(target))
    w = np.clip(w, 0.0, None)
    keep = w > 1e-14
    # Eigenvector-major, then input column j: sqrt(w_i) |v_i><j|.
    cols = np.arange(dim_in)
    kraus = np.zeros((int(keep.sum()), dim_in, dim_out, dim_in), dtype=complex)
    kraus[:, cols, :, cols] = (np.sqrt(w[keep]) * v[:, keep]).T
    return KrausChannel(kraus.reshape(-1, dim_out, dim_in))


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Sequential composition: (after o before), Kraus set {A_i B_j}, A the outer index."""
    if after.dim_in != before.dim_out:
        raise DimensionMismatch(
            f"cannot compose: after.dim_in={after.dim_in} != "
            f"before.dim_out={before.dim_out}"
        )
    kraus = after.kraus[:, None] @ before.kraus[None]
    return KrausChannel(kraus.reshape(-1, after.dim_out, before.dim_in))


def apply(channel: KrausChannel, state: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state, re-validating the output invariants."""
    m = state.entries if isinstance(state, DensityMatrix) else _as_square(state)
    if m.shape[0] != channel.dim_in:
        raise DimensionMismatch(
            f"state dim {m.shape[0]} does not match channel input {channel.dim_in}"
        )
    return DensityMatrix(channel.apply_matrix(m))


def tensor_power(state: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold Kronecker power of a state."""
    if n < 1:
        raise InvalidRank(f"tensor power needs n >= 1, got {n}")
    if state.dim**n > MAX_DENSE_DIM:
        raise DimensionBudgetExceeded(
            f"dim {state.dim}^{n} exceeds the dense budget {MAX_DENSE_DIM}"
        )
    out = state.entries
    for _ in range(n - 1):
        out = np.kron(out, state.entries)
    return DensityMatrix(out, validate=False)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


def random_pure_state(dim: int, seed=None) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    if dim < 1:
        raise InvalidRank(f"dimension must be >= 1, got {dim}")
    rng = as_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(dim: int, rank: int | None = None, seed=None) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank (default: full)."""
    if dim < 1:
        raise InvalidRank(f"dimension must be >= 1, got {dim}")
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise InvalidRank(f"rank must be in [1, {dim}], got {rank}")
    rng = as_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed=None) -> KrausChannel:
    """Random CPTP map from a QR-orthonormalized Gaussian isometry.

    The isometry into dim_out x kraus_count is cut into kraus_count blocks,
    one Kraus operator each; this is the environment partial trace of the
    Stinespring dilation.
    """
    if dim_in < 1 or dim_out < 1 or kraus_count < 1:
        raise InvalidRank("dimensions and kraus_count must be >= 1")
    if dim_out * kraus_count < dim_in:
        raise InvalidRank(
            f"no isometry exists: dim_out*kraus_count={dim_out * kraus_count} < "
            f"dim_in={dim_in}"
        )
    rng = as_rng(seed)
    g = rng.normal(size=(dim_out * kraus_count, dim_in)) + 1j * rng.normal(
        size=(dim_out * kraus_count, dim_in)
    )
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(kraus_count, dim_out, dim_in))


def random_orthogonal_pure_pair(dim: int, seed=None) -> tuple[PureState, PureState]:
    """Two Haar-random orthonormal pure states."""
    rng = as_rng(seed)
    g = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    q, _ = np.linalg.qr(g)
    return PureState(q[:, 0]), PureState(q[:, 1])


# ---------------------------------------------------------------------------
# JSON serialization (fixed wire format)
# ---------------------------------------------------------------------------


def _entries_to_pairs(m: np.ndarray) -> list:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_entries(pairs, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (rows * cols, 2):
        raise DimensionMismatch(
            f"expected {rows * cols} [re, im] pairs, got shape {arr.shape}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def state_to_dict(state: DensityMatrix) -> dict:
    return {"dim": state.dim, "entries": _entries_to_pairs(state.entries)}


def state_from_dict(data: dict) -> DensityMatrix:
    dim = int(data["dim"])
    return DensityMatrix(_pairs_to_entries(data["entries"], dim, dim))


def channel_to_dict(channel: KrausChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [_entries_to_pairs(k) for k in channel.kraus],
    }


def channel_from_dict(data: dict) -> KrausChannel:
    dim_in = int(data["dim_in"])
    dim_out = int(data["dim_out"])
    return KrausChannel([_pairs_to_entries(k, dim_out, dim_in) for k in data["kraus"]])


def save_state(state: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path) -> DensityMatrix:
    with open(path, encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_channel(channel: KrausChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(channel), fh)


def load_channel(path) -> KrausChannel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))
