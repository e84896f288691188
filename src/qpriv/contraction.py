"""Closed-form contraction bounds and empirical scanners that stress them.

The bounds quantify, for private channels, how much each divergence can
shrink relative to its input value (or relative to the input trace distance).
The scanner draws channels from the certified family built in
:mod:`qpriv.privacy`, together with state pairs from a mixed ensemble, and
records the largest divergence ratio observed against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from .divergences import ConvexFunction, f_divergence
from .errors import GammaOutOfRange, InvalidParams, NoValidPairs, ValidationError
from .privacy import PrivacyParams, build_eps_delta_mechanism, mechanism_weight
from .quantum_core import TOL_DENOM, DensityMatrix, KrausChannel, as_rng, compose

TOL_SCAN = 1e-6

DIVERGENCE_IDS = ("trace", "hockey", "bures", "relent", "f_div")

# Trial mixture: random mixed pairs / random orthogonal pure pairs / analytic
# extremal construction. Pure random sampling rarely lands on extremal pairs.
_MIX = (0.4, 0.4, 0.2)

_CHUNK = 1024


@dataclass(frozen=True)
class ContractionReport:
    """Result of one contraction scan.

    ``empirical_sup`` is the largest ratio found; ``relative_to`` records the
    denominator convention ("input_divergence" for same-divergence ratios,
    "input_trace_distance" for bounds stated against the input trace
    distance). ``violation`` flags an excess over ``theory_bound`` beyond the
    scan tolerance; it is a finding, never an exception. ``valid_pairs`` counts
    the trials whose denominator reached ``TOL_DENOM`` with a finite numerator;
    the other ``trials - valid_pairs`` were skipped.
    """

    divergence_id: str
    epsilon: float
    delta: float
    gamma: float | None
    theory_bound: float
    empirical_sup: float
    witness_states: tuple[DensityMatrix, DensityMatrix]
    witness_channel: KrausChannel
    witness_kind: str
    trials: int
    valid_pairs: int
    violation: bool
    relative_to: str

    def to_dict(self, include_witness: bool = True) -> dict:
        from .quantum_core import channel_to_dict, state_to_dict

        data = {
            "divergence_id": self.divergence_id,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "gamma": self.gamma,
            "theory_bound": self.theory_bound,
            "empirical_sup": self.empirical_sup,
            "witness_kind": self.witness_kind,
            "trials": self.trials,
            "valid_pairs": self.valid_pairs,
            "violation": self.violation,
            "relative_to": self.relative_to,
        }
        if include_witness:
            data["witness_states"] = [state_to_dict(s) for s in self.witness_states]
            data["witness_channel"] = channel_to_dict(self.witness_channel)
        return data


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def bound_hockey_stick(epsilon: float, gamma: float) -> float:
    """Hockey-stick contraction coefficient under the pure privacy constraint.

    (e^eps - gamma) / (e^eps + 1) on gamma in [1, e^eps], the skew-symmetric
    counterpart (gamma e^eps - 1) / (gamma (e^eps + 1)) on [e^-eps, 1], and 0
    for gamma >= e^eps.
    """
    if epsilon < 0.0:
        raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
    e = math.exp(epsilon)
    if gamma >= e:
        return 0.0
    if gamma >= 1.0:
        return (e - gamma) / (e + 1.0)
    if gamma >= math.exp(-epsilon) * (1.0 - 1e-12):
        return max((gamma * e - 1.0) / (gamma * (e + 1.0)), 0.0)
    raise GammaOutOfRange(
        f"gamma={gamma} is below e^-eps={math.exp(-epsilon)}"
    )


def trace_contraction_coefficient(params: PrivacyParams) -> float:
    """Exact trace-distance contraction coefficient (e^eps - 1 + 2 delta) / (e^eps + 1)."""
    e = math.exp(params.epsilon)
    return (e - 1.0 + 2.0 * params.delta) / (e + 1.0)


def bound_bures(epsilon: float) -> float:
    """Coefficient bounding the output squared Bures distance by T(rho, sigma)."""
    if epsilon < 0.0:
        raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
    return 2.0 * (math.exp(epsilon / 2.0) - 1.0) ** 2 / (math.exp(epsilon) + 1.0)


def bound_relative_entropy(epsilon: float) -> float:
    """Coefficient bounding the output relative entropy by T(rho, sigma)."""
    if epsilon < 0.0:
        raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
    e = math.exp(epsilon)
    return epsilon * (e - 1.0) / (e + 1.0)


def bound_f_divergence(params: PrivacyParams, f: ConvexFunction) -> float:
    """f-divergence contraction coefficient.

    At delta = 0 the bound is relative to the input trace distance, with
    coefficient (f(e^eps) + e^eps f(e^-eps)) / (e^eps + 1). At delta > 0 the
    bound is relative to the input f-divergence itself, with coefficient
    (e^eps - 1 + 2 delta) / (e^eps + 1).
    """
    e = math.exp(params.epsilon)
    if params.delta > 0.0:
        return (e - 1.0 + 2.0 * params.delta) / (e + 1.0)
    return (f.f(e) + e * f.f(1.0 / e)) / (e + 1.0)


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------


def _sample_chunk(rng: np.random.Generator, m: int, dim: int, p_mech: float) -> dict:
    source = rng.choice(3, size=m, p=_MIX)
    extremal = source == 2

    in1 = np.empty((m, dim, dim), dtype=complex)
    in2 = np.empty((m, dim, dim), dtype=complex)
    mixed = source == 0
    n_mixed = int(np.count_nonzero(mixed))
    if n_mixed:
        in1[mixed] = bk.ginibre_states(rng, n_mixed, dim)
        in2[mixed] = bk.ginibre_states(rng, n_mixed, dim)
    n_pure = m - n_mixed
    if n_pure:
        frames = bk.orthonormal_pairs(rng, n_pure, dim)
        in1[~mixed] = bk.projectors_from_vectors(frames[:, :, 0])
        in2[~mixed] = bk.projectors_from_vectors(frames[:, :, 1])

    effects = bk.random_effects(rng, m, dim)
    n_ext = int(np.count_nonzero(extremal))
    if n_ext:
        effects[extremal] = bk.positive_eigenspace_projectors(
            in1[extremal] - in2[extremal]
        )
    pre_kraus = bk.random_channel_batch(rng, m, dim, dim, 2)
    post_kraus = bk.random_channel_batch(rng, m, 2, 2, 2)

    # Heisenberg picture: the readout sees only Tr[M pre(rho)] = Tr[E rho]
    # with E = pre^dag(M), and post only the images P_i = post(|i><i|).
    # Extremal pairs skip pre and post: E = M, P_i = |i><i|.
    heis = np.sum(np.conj(np.swapaxes(pre_kraus, -1, -2)) @ effects[:, None] @ pre_kraus, axis=1)
    heis[extremal] = effects[extremal]
    images = np.einsum("nkai,nkbi->niab", post_kraus, post_kraus.conj())
    images[extremal] = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]

    return {
        "in1": in1,
        "in2": in2,
        "out1": _mechanism_outputs(in1, heis, images, p_mech),
        "out2": _mechanism_outputs(in2, heis, images, p_mech),
        "extremal": extremal,
        "effects": effects,
        "pre_kraus": pre_kraus,
        "post_kraus": post_kraus,
    }


def _mechanism_outputs(states, heis, images, p_mech: float) -> np.ndarray:
    """post(Dep_p(readout(pre(rho)))) as a P_0 + b P_1, from E and P_i."""
    t = np.real(np.einsum("nij,nji->n", heis, states))
    tr = np.real(np.trace(states, axis1=-2, axis2=-1))
    a = (1.0 - p_mech) * t + 0.5 * p_mech * tr
    b = (1.0 - p_mech) * (tr - t) + 0.5 * p_mech * tr
    return a[:, None, None] * images[:, 0] + b[:, None, None] * images[:, 1]


def _witness(pair: dict, params: PrivacyParams):
    mech = build_eps_delta_mechanism(pair["effects"], params)
    if pair["extremal"]:
        channel = mech
        kind = "extremal_mechanism"
    else:
        pre = KrausChannel(tuple(pair["pre_kraus"]))
        post = KrausChannel(tuple(pair["post_kraus"]))
        channel = compose(post, compose(mech, pre))
        kind = "random_composite"
    states = (DensityMatrix(pair["in1"]), DensityMatrix(pair["in2"]))
    return channel, states, kind


def _loop_f_divergence(states1, states2, f: ConvexFunction) -> np.ndarray:
    values = np.empty(states1.shape[0])
    for i in range(states1.shape[0]):
        values[i] = f_divergence(states1[i], states2[i], f)
    return values


def _numden(divergence_id: str, data: dict, gamma, f, delta: float):
    out1, out2, in1, in2 = data["out1"], data["out2"], data["in1"], data["in2"]
    if divergence_id == "trace":
        return bk.trace_distance_batch(out1, out2), bk.trace_distance_batch(in1, in2)
    if divergence_id == "hockey":
        num = bk.hockey_stick_ext_batch(out1, out2, gamma)
        den = bk.hockey_stick_ext_batch(in1, in2, gamma)
        return num, den
    if divergence_id == "bures":
        return (
            bk.bures_squared_qubit_batch(out1, out2),
            bk.trace_distance_batch(in1, in2),
        )
    if divergence_id == "relent":
        return (
            bk.relative_entropy_batch(out1, out2),
            bk.trace_distance_batch(in1, in2),
        )
    if divergence_id == "f_div":
        num = _loop_f_divergence(out1, out2, f)
        if delta > 0.0:
            den = _loop_f_divergence(in1, in2, f)
        else:
            den = bk.trace_distance_batch(in1, in2)
        return num, den
    raise ValidationError(f"unknown divergence id {divergence_id!r}")


def _theory(divergence_id: str, params: PrivacyParams, gamma, f):
    if divergence_id == "trace":
        return trace_contraction_coefficient(params), "input_divergence"
    if divergence_id == "hockey":
        if params.delta != 0.0:
            raise InvalidParams("hockey-stick bounds require delta = 0")
        return bound_hockey_stick(params.epsilon, gamma), "input_divergence"
    if divergence_id == "bures":
        if params.delta != 0.0:
            raise InvalidParams("the Bures bound requires delta = 0")
        return bound_bures(params.epsilon), "input_trace_distance"
    if divergence_id == "relent":
        if params.delta != 0.0:
            raise InvalidParams("the relative-entropy bound requires delta = 0")
        return bound_relative_entropy(params.epsilon), "input_trace_distance"
    if divergence_id == "f_div":
        if f is None:
            raise ValidationError("f_div scans need a ConvexFunction")
        relative = "input_divergence" if params.delta > 0.0 else "input_trace_distance"
        return bound_f_divergence(params, f), relative
    raise ValidationError(f"unknown divergence id {divergence_id!r}")


def _validate_scan_args(divergence_id, params, gamma, dims):
    if divergence_id not in DIVERGENCE_IDS:
        raise ValidationError(f"unknown divergence id {divergence_id!r}")
    for d in dims:
        if not 2 <= d <= 8:
            raise ValidationError(f"scan dims must lie in 2..8, got {d}")
    if divergence_id == "hockey":
        if gamma is None:
            raise ValidationError("hockey scans need gamma")
        if gamma < math.exp(-params.epsilon) * (1.0 - 1e-12):
            raise GammaOutOfRange(
                f"gamma={gamma} is below e^-eps={math.exp(-params.epsilon)}"
            )


def _scan_reports(
    divergence_id: str,
    params: PrivacyParams,
    gammas: list,
    dims,
    trials: int,
    seed,
    f: ConvexFunction | None,
    tol_scan: float,
) -> list[ContractionReport]:
    """The trial loop behind :func:`scan` and :func:`scan_hockey_grid`.

    Every gamma is scored on each sampled chunk. Only the best pair's slices
    are kept while sampling; each witness channel is built once, at the end.
    """
    theories = [_theory(divergence_id, params, g, f) for g in gammas]
    p_mech = mechanism_weight(params)
    rng = as_rng(seed)

    best = [-math.inf] * len(gammas)
    best_pair = [None] * len(gammas)
    valid = [0] * len(gammas)
    for j, dim in enumerate(dims):
        budget = trials // len(dims) + (trials % len(dims) if j == 0 else 0)
        done = 0
        while done < budget:
            m = min(_CHUNK, budget - done)
            data = _sample_chunk(rng, m, dim, p_mech)
            for gi, g in enumerate(gammas):
                num, den = _numden(divergence_id, data, g, f, params.delta)
                mask = (den >= TOL_DENOM) & np.isfinite(num)
                valid[gi] += int(np.count_nonzero(mask))
                if np.any(mask):
                    ratio = np.where(mask, num / np.where(mask, den, 1.0), -math.inf)
                    i = int(np.argmax(ratio))
                    if ratio[i] > best[gi]:
                        best[gi] = float(ratio[i])
                        best_pair[gi] = {key: value[i].copy() for key, value in data.items()}
            done += m

    reports = []
    for g, (bound, relative_to), sup, pair, n_valid in zip(
        gammas, theories, best, best_pair, valid
    ):
        if n_valid == 0:
            raise NoValidPairs(f"every sampled pair had a degenerate denominator (gamma={g})")
        channel, states, kind = _witness(pair, params)
        reports.append(
            ContractionReport(
                divergence_id=divergence_id,
                epsilon=params.epsilon,
                delta=params.delta,
                gamma=g,
                theory_bound=bound,
                empirical_sup=sup,
                witness_states=states,
                witness_channel=channel,
                witness_kind=kind,
                trials=trials,
                valid_pairs=n_valid,
                violation=sup > bound + tol_scan,
                relative_to=relative_to,
            )
        )
    return reports


def scan(
    divergence_id: str,
    params: PrivacyParams,
    gamma: float | None = None,
    dims=(2, 3, 4),
    trials: int = 10_000,
    seed=0,
    *,
    f: ConvexFunction | None = None,
    tol_scan: float = TOL_SCAN,
) -> ContractionReport:
    """Estimate a privatized contraction supremum empirically.

    Draws channels from the certified family (random pre/post processing
    around built mechanisms, plus the analytic extremal construction) and
    state pairs from a 40/40/20 mixed ensemble, then records the largest
    ratio of the output divergence to the reference input quantity.
    Denominators below ``TOL_DENOM`` are skipped.
    """
    _validate_scan_args(divergence_id, params, gamma, dims)
    return _scan_reports(divergence_id, params, [gamma], dims, trials, seed, f, tol_scan)[0]


def scan_hockey_grid(
    params: PrivacyParams,
    gammas,
    dims=(2, 3, 4),
    trials: int = 10_000,
    seed=0,
    *,
    tol_scan: float = TOL_SCAN,
) -> list[ContractionReport]:
    """Hockey-stick scan over a gamma grid sharing one trial ensemble.

    Runs the trial loop of :func:`scan` once and scores every gamma on the
    same sampled channels and state pairs, so report k equals
    ``scan("hockey", params, gammas[k], dims, trials, seed)`` exactly, while
    the whole grid costs one sampling pass.
    """
    gammas = [float(g) for g in gammas]
    for g in gammas:
        _validate_scan_args("hockey", params, g, dims)
    return _scan_reports("hockey", params, gammas, dims, trials, seed, None, tol_scan)
