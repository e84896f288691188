"""Closed-form contraction bounds and empirical scanners that stress them.

The bounds quantify, for private channels, how much each divergence can
shrink relative to its input value (or relative to the input trace distance).
The scanner draws channels from the certified family built in
:mod:`qpriv.privacy`, together with state pairs from a mixed ensemble, and
records the largest divergence ratio observed against the closed form. The
ensemble does not depend on the privacy parameters, so any set of rows can
share one: ``reproduce`` scores all of its contraction rows on one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _batched as bk
from .divergences import ConvexFunction
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


def _sample_chunk(rng: np.random.Generator, m: int, dim: int) -> dict:
    """Input pairs, channels in the Heisenberg picture, pair masks and witness slices.

    Nothing here depends on the mechanism weight p: one chunk serves every
    row of a scan, and :func:`_outputs` applies each p.
    """
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
    if extremal.any():
        effects[extremal] = bk.positive_eigenspace_projectors(in1[extremal] - in2[extremal])
    pre_kraus = bk.random_channel_batch(rng, m, dim, dim, 2)
    post_kraus = bk.random_channel_batch(rng, m, 2, 2, 2)

    # Heisenberg picture: the readout sees only Tr[M pre(rho)] = Tr[E rho]
    # with E = pre^dag(M), and post only the images P_i = post(|i><i|).
    # Extremal pairs skip pre and post: E = M, P_i = |i><i|.
    heis = np.sum(np.conj(np.swapaxes(pre_kraus, -1, -2)) @ effects[:, None] @ pre_kraus, axis=1)
    heis[extremal] = effects[extremal]
    images = np.einsum("nkai,nkbi->niab", post_kraus, post_kraus.conj())
    images[extremal] = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]

    return {"in1": in1, "in2": in2, "heis": heis, "images": images, "mixed": mixed,
            "extremal": extremal, "effects": effects, "pre_kraus": pre_kraus,
            "post_kraus": post_kraus}


def _outputs(data: dict, p_mech: float) -> list[np.ndarray]:
    """post(Dep_p(readout(pre(rho)))) of both inputs as a P_0 + b P_1, from E and P_i."""
    outs, images = [], data["images"]
    for states in (data["in1"], data["in2"]):
        t = np.real(np.einsum("nij,nji->n", data["heis"], states))
        tr = np.real(np.trace(states, axis1=-2, axis2=-1))
        a = (1.0 - p_mech) * t + 0.5 * p_mech * tr
        b = (1.0 - p_mech) * (tr - t) + 0.5 * p_mech * tr
        outs.append(a[:, None, None] * images[:, 0] + b[:, None, None] * images[:, 1])
    return outs


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


def _hockey_floor(gamma: float) -> float:
    """Rounding bound 8u (3 + gamma), u = 2^-53, of a qubit-output hockey-stick numerator.

    The outputs are unit-trace states rounded in every entry. At gamma >= 1
    the numerator is the positive part of one root of x - gamma y; at
    gamma < 1 it is a positive eigensum less 1 - gamma, which leaves a larger
    residue. In 2^17 sampled pairs per row (d = 2, 3, 4, 8) the largest was
    4u (1 + gamma) at gamma = e^eps and 16u at gamma = e^-2. A numerator at
    or below the bound reads 0; on the bound-0 rows (gamma = e^+-eps) every
    true numerator is 0. A floored ratio was at most 8u (3 + gamma) /
    TOL_DENOM = 9.2e-7 < TOL_SCAN at gamma = e^2, the top of the reproduce
    grids, so there a floored pair cannot hide a violation.
    """
    return 8.0 * 2.0**-53 * (3.0 + gamma)


def _measures(divergence_id: str, gamma, f, delta: float):
    """A row's output measure, then its input reference: memo key, exact value
    on orthogonal pure pairs (T = 1, E_gamma = min(1, gamma); None: none) and measure.
    """
    if divergence_id == "hockey":
        hockey = partial(bk.hockey_stick_ext_batch, gamma=gamma)

        def floored(x, y):
            value = hockey(x, y)
            value[value <= _hockey_floor(gamma)] = 0.0
            return value

        return floored, ("hockey", gamma), min(1.0, gamma), hockey
    f_div = partial(bk.f_divergence_batch, f=f)
    if divergence_id == "f_div" and delta > 0.0:
        return f_div, "f_div", None, f_div
    num = {"trace": bk.trace_distance_batch, "bures": bk.bures_squared_batch,
           "relent": bk.relative_entropy_batch, "f_div": f_div}[divergence_id]
    return num, "trace", 1.0, bk.trace_distance_batch


def _input_reference(data: dict, exact, measure) -> np.ndarray:
    """``measure`` of a chunk's input pairs, taking ``exact`` on the orthogonal pure ones."""
    if exact is None:
        return measure(data["in1"], data["in2"])
    mixed = data["mixed"]
    value = np.full(mixed.shape, exact)
    if mixed.any():
        value[mixed] = measure(data["in1"][mixed], data["in2"][mixed])
    return value


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


def _scan_rows(rows, dims, trials: int, seed, f, tol_scan: float) -> list[ContractionReport]:
    """The trial loop behind every scan: rows (divergence_id, params, gamma) on one ensemble.

    Each chunk is sampled once. Its outputs are formed once per distinct
    mechanism weight and its input references once per kind, and each row
    keeps its own best pair, so a row's report is the one a one-row call on
    the same dims, trials and seed returns. Each witness channel is built
    once, at the end.
    """
    for divergence_id, params, gamma in rows:
        _validate_scan_args(divergence_id, params, gamma, dims)
    theories = [_theory(divergence_id, params, gamma, f) for divergence_id, params, gamma in rows]
    weights = [mechanism_weight(params) for _, params, _ in rows]
    measures = [_measures(div, gamma, f, params.delta) for div, params, gamma in rows]
    rng = as_rng(seed)

    best, best_pair, valid = [-math.inf] * len(rows), [None] * len(rows), [0] * len(rows)
    for j, dim in enumerate(dims):
        budget = trials // len(dims) + (trials % len(dims) if j == 0 else 0)
        for done in range(0, budget, _CHUNK):
            data = _sample_chunk(rng, min(_CHUNK, budget - done), dim)
            outs = {p: _outputs(data, p) for p in set(weights)}
            inputs = {}
            for r, (num_of, key, exact, reference) in enumerate(measures):
                if key not in inputs:
                    inputs[key] = _input_reference(data, exact, reference)
                num, den = num_of(*outs[weights[r]]), inputs[key]
                mask = (den >= TOL_DENOM) & np.isfinite(num)
                valid[r] += int(np.count_nonzero(mask))
                if np.any(mask):
                    ratio = np.where(mask, num / np.where(mask, den, 1.0), -math.inf)
                    i = int(np.argmax(ratio))
                    if ratio[i] > best[r]:
                        best[r] = float(ratio[i])
                        best_pair[r] = {name: value[i].copy() for name, value in data.items()}

    reports = []
    for (divergence_id, params, gamma), (bound, relative_to), sup, pair, n_valid in zip(
        rows, theories, best, best_pair, valid
    ):
        if n_valid == 0:
            raise NoValidPairs(f"every sampled pair had a degenerate denominator (gamma={gamma})")
        channel, states, kind = _witness(pair, params)
        reports.append(ContractionReport(
            divergence_id=divergence_id, epsilon=params.epsilon, delta=params.delta,
            gamma=gamma, theory_bound=bound, empirical_sup=sup, witness_states=states,
            witness_channel=channel, witness_kind=kind, trials=trials, valid_pairs=n_valid,
            violation=sup > bound + tol_scan, relative_to=relative_to,
        ))
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
    return _scan_rows([(divergence_id, params, gamma)], dims, trials, seed, f, tol_scan)[0]


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

    Every gamma is scored on the same sampled channels and state pairs, so
    report k equals ``scan("hockey", params, gammas[k], dims, trials, seed)``
    exactly, while the whole grid costs one sampling pass. The ensemble does
    not depend on epsilon or delta either: ``reproduce`` scores all of its
    contraction rows on one ensemble in the same way.
    """
    rows = [("hockey", params, float(g)) for g in gammas]
    return _scan_rows(rows, dims, trials, seed, None, tol_scan)
