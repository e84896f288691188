"""Derivative-free search over orthonormal input 2-frames: a test oracle.

Before the dual-form ascent, ``privacy.certify`` and
``privacy.estimate_epsilon`` took this route for wider outputs. It is kept
here, unchanged, as an independent lower bound: a multi-start coordinate
pattern search over raw input frames, orthonormalized by QR and scored on
the channel's transfer matrix, which :func:`transfer_matrix` builds here
from the Kraus operators. Call ``search_orthogonal_pairs(channel,
objective_hockey(transfer_matrix(channel), gamma), budget, seed)`` or pass
``objective_dmax(transfer_matrix(channel))``; it returns the best value, its
frame and the frame-evaluation count.
"""

from __future__ import annotations

import math

import numpy as np

from qpriv import _batched as bk
from qpriv.privacy import SearchBudget
from qpriv.quantum_core import KrausChannel, as_rng


def _initial_raw(rng: np.random.Generator, restarts: int, dim: int) -> np.ndarray:
    raw = bk.gaussian_complex(rng, (restarts, dim, 2))
    # Seed the first restarts with canonical basis pairs; they are exact
    # optima for computational-basis-aligned mechanisms.
    count = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            if count >= restarts:
                break
            raw[count] = 0.0
            raw[count, i, 0] = 1.0
            raw[count, j, 1] = 1.0
            count += 1
    return raw


def _frames(raw: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(raw)
    return q


def transfer_matrix(channel: KrausChannel) -> np.ndarray:
    """Row-major superoperator sum_i K_i (x) conj(K_i), shape (dim_out^2, dim_in^2)."""
    return sum(np.kron(k, k.conj()) for k in channel.kraus)


def objective_hockey(transfer: np.ndarray, gamma: float):
    def evaluate(frames: np.ndarray) -> np.ndarray:
        out1, out2 = _push_frames(transfer, frames)
        a = bk.positive_eigensum(out1 - gamma * out2)
        b = bk.positive_eigensum(out2 - gamma * out1)
        return np.maximum(a, b)

    return evaluate


def objective_dmax(transfer: np.ndarray):
    def evaluate(frames: np.ndarray) -> np.ndarray:
        out1, out2 = _push_frames(transfer, frames)
        a = bk.max_relative_entropy_batch(out1, out2)
        b = bk.max_relative_entropy_batch(out2, out1)
        return np.maximum(a, b)

    return evaluate


def _push_frames(transfer: np.ndarray, frames: np.ndarray):
    s1 = bk.projectors_from_vectors(frames[:, :, 0])
    s2 = bk.projectors_from_vectors(frames[:, :, 1])
    n, d, _ = s1.shape
    dout = int(round(math.sqrt(transfer.shape[0])))
    out1 = (s1.reshape(n, d * d) @ transfer.T).reshape(n, dout, dout)
    out2 = (s2.reshape(n, d * d) @ transfer.T).reshape(n, dout, dout)
    return out1, out2


def search_orthogonal_pairs(channel: KrausChannel, objective, budget: SearchBudget, seed):
    rng = as_rng(seed)
    dim = channel.dim_in
    restarts = budget.restarts
    raw = _initial_raw(rng, restarts, dim)
    value = objective(_frames(raw))
    evals = restarts
    step = np.full(restarts, 0.5)
    stall = np.zeros(restarts, dtype=int)
    n_dirs = 4 * dim
    for it in range(budget.polish_steps):
        if np.any(np.isinf(value)):
            break
        k = it % n_dirs
        vec_idx, rem = divmod(k, 2 * dim)
        coord, part = divmod(rem, 2)
        bump = step if part == 0 else 1j * step
        for sign in (1.0, -1.0):
            proposal = raw.copy()
            proposal[:, coord, vec_idx] += sign * bump
            cand = objective(_frames(proposal))
            evals += restarts
            improved = cand > value
            raw[improved] = proposal[improved]
            value = np.where(improved, cand, value)
            stall = np.where(improved, 0, stall + 1)
        shrink = stall >= 2 * n_dirs
        step = np.where(shrink, np.maximum(step * 0.5, 1e-10), step)
        stall = np.where(shrink, 0, stall)
    best = int(np.argmax(value))
    frame = _frames(raw[best : best + 1])[0]
    return float(value[best]), frame, evals
