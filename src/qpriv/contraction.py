"""Closed-form contraction bounds and empirical scanners that stress them.

The bounds quantify, for private channels, how much each divergence can
shrink relative to its input value (or relative to the input trace distance).
The scanner draws channels from the certified family built in
:mod:`qpriv.privacy` and records the largest divergence ratio found against
the closed form. Trace and hockey-stick rows score each channel exactly, on
the orthogonal pure pair of its readout's extreme eigenvectors; the other
rows score state pairs from a mixed ensemble. The ensemble does not depend on
the privacy parameters, so any set of rows can share one: ``reproduce``
scores all of its contraction rows on one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

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
    the other ``trials - valid_pairs`` were skipped. Trace and hockey-stick
    rows score every channel at its own supremum, so there ``valid_pairs`` is
    ``trials`` and ``witness_states`` project onto the top and bottom
    eigenvectors of the witness readout's effect E, winning order first.
    ``witness_channel`` is built from the best pair's sampled slices on first
    access and then kept, so a report that is only tabulated builds none.
    """

    divergence_id: str
    epsilon: float
    delta: float
    gamma: float | None
    theory_bound: float
    empirical_sup: float
    witness_states: tuple[DensityMatrix, DensityMatrix]
    witness_kind: str
    trials: int
    valid_pairs: int
    violation: bool
    relative_to: str
    witness_source: tuple = field(repr=False, compare=False)  # _witness's (pair, params)

    @cached_property
    def witness_channel(self) -> KrausChannel:
        return _witness(*self.witness_source)

    def to_dict(self, include_witness: bool = True) -> dict:
        from .quantum_core import channel_to_dict, state_to_dict

        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("witness_states", "witness_source")}
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
    image_traces, image_bloch = bk.bloch_coordinates(images)

    return {"in1": in1, "in2": in2, "heis": heis, "images": images,
            "image_traces": image_traces, "image_bloch": image_bloch, "mixed": mixed,
            "extremal": extremal, "effects": effects, "pre_kraus": pre_kraus,
            "post_kraus": post_kraus}


def _weights(t, tr, p_mech: float):
    """(a, b) with post(Dep_p(readout(rho))) = a P_0 + b P_1, for Tr[E rho] = t and Tr rho = tr."""
    return (1.0 - p_mech) * t + 0.5 * p_mech * tr, (1.0 - p_mech) * (tr - t) + 0.5 * p_mech * tr


def _readout(images: np.ndarray, t, tr, p_mech: float) -> np.ndarray:
    """post(Dep_p(readout(.))) of inputs with Tr[E rho] = t and Tr rho = tr, as a P_0 + b P_1."""
    a, b = _weights(t, tr, p_mech)
    return a[..., None, None] * images[:, 0] + b[..., None, None] * images[:, 1]


def _outputs(data: dict, p_mech: float) -> list[np.ndarray]:
    """The outputs of both sampled inputs of every pair, from E and P_i."""
    return [
        _readout(data["images"], np.real(np.einsum("nij,nji->n", data["heis"], states)),
                 np.real(np.trace(states, axis1=-2, axis2=-1)), p_mech)
        for states in (data["in1"], data["in2"])
    ]


def _extreme_ratios(traces: np.ndarray, bloch: np.ndarray, spectrum: np.ndarray, p_mech: float,
                    gammas):
    """Each channel's exact hockey-stick contraction coefficient at every gamma (trace: gamma = 1).

    The outputs depend on rho only through t = Tr[E rho], so the supremum is
    attained on E's top and bottom eigenvectors, in one order or the other
    (Hirche, Rouze and Franca, arXiv 2202.10717; at gamma < 1 through
    E~_gamma(x||y) = gamma E_1/gamma(y||x)), whose input E~_gamma is
    min(1, gamma). Every output is a P_0 + b P_1, so top - gamma bottom is
    alpha P_0 + beta P_1; with P_i given by its trace t_i and Bloch vector r_i
    (``traces`` and ``bloch``), its positive eigensum is (s + max(n, |s|)) / 2,
    s = alpha t_0 + beta t_1 and n = |alpha r_0 + beta r_1|. Returns the
    ratios, shape (len(gammas), m), with numerators up to :func:`_hockey_floor`
    read as 0, and where top-then-bottom wins.
    """
    g = np.asarray(gammas)[:, None]
    (a_top, b_top), (a_bot, b_bot) = (_weights(spectrum[:, k], 1.0, p_mech) for k in (-1, 0))
    # top - gamma bottom, then bottom - gamma top, on one leading axis
    alpha = np.stack((a_top - g * a_bot, a_bot - g * a_top))
    beta = np.stack((b_top - g * b_bot, b_bot - g * b_top))
    s = alpha * traces[:, 0] + beta * traces[:, 1]
    n2 = sum((alpha * bloch[:, 0, c] + beta * bloch[:, 1, c]) ** 2 for c in range(3))
    forward, backward = 0.5 * (s + np.maximum(np.sqrt(n2), np.abs(s)))
    num = np.maximum(forward, backward) - np.maximum(0.0, 1.0 - g)
    num[num <= _hockey_floor(g)] = 0.0
    return num / np.minimum(1.0, g), forward >= backward


def _witness(pair: dict, params: PrivacyParams) -> KrausChannel:
    """The sampled channel of a chunk's slice ``pair``, as Kraus operators."""
    channel = build_eps_delta_mechanism(pair["effects"], params)
    if pair["extremal"]:
        return channel
    pre, post = (KrausChannel(pair[name]) for name in ("pre_kraus", "post_kraus"))
    return compose(post, compose(channel, pre))


def _witness_states(pair: dict) -> tuple[DensityMatrix, DensityMatrix]:
    inputs = (pair["in1"], pair["in2"])
    if "forward" in pair:  # a closed-form row: E's top and bottom eigenvectors, winner first
        top_bottom = bk.projectors_from_vectors(np.linalg.eigh(pair["heis"])[1][:, [-1, 0]].T)
        inputs = top_bottom if pair["forward"] else top_bottom[::-1]
    return tuple(DensityMatrix(x) for x in inputs)


def _hockey_floor(gamma: float) -> float:
    """Rounding bound 128u (1 + gamma), u = 2^-53, of a closed-form hockey-stick numerator.

    On unit-trace inputs |alpha| + |beta| <= 1 + gamma, so forming alpha and
    beta, s and n, and the Bloch-form eigensum leaves at most about
    12u (1 + gamma) to first order; the computed lambda_max and lambda_min
    of E (0 <= E <= I) add 1 + gamma times their error, which grew with d to
    32u at d = 8, the widest scan input. At gamma = e^+-eps every true
    numerator is 0; in 2^16 channels per d (d = 2, 3, 4, 5, 8; eps from 0.1
    to 16) the largest computed one was 28.3u (1 + gamma) (d = 3, eps = 16),
    where a dense 2 x 2 eigensum of the same outputs read 28.0u (1 + gamma).
    A numerator at or below the bound reads 0. A floored ratio is at most
    128u (1 + gamma) / min(1, gamma) <= 128u (1 + e^eps), since
    min(1, gamma) >= e^-eps; that is under TOL_SCAN up to eps = 17, so there
    a floored channel cannot hide a violation.
    """
    return 2.0**-46 * (1.0 + gamma)


def _measures(divergence_id: str, f, delta: float):
    """A sampled row's output measure and input reference: "f_div" (the input
    f-divergence) or "trace" (the input trace distance, 1 on orthogonal pure pairs).
    """
    f_div = partial(bk.f_divergence_batch, f=f)
    if divergence_id == "f_div" and delta > 0.0:
        return f_div, "f_div"
    return {"bures": bk.bures_squared_batch, "relent": bk.relative_entropy_batch,
            "f_div": f_div}[divergence_id], "trace"


def _input_reference(data: dict, key: str, f) -> np.ndarray:
    if key == "f_div":
        return bk.f_divergence_batch(data["in1"], data["in2"], f=f)
    mixed, value = data["mixed"], np.ones(len(data["mixed"]))
    if mixed.any():
        value[mixed] = bk.trace_distance_batch(data["in1"][mixed], data["in2"][mixed])
    return value


def _theory(divergence_id: str, params: PrivacyParams, gamma, f):
    """A row's bound and denominator convention; raises on arguments no scan accepts."""
    if divergence_id not in DIVERGENCE_IDS:
        raise ValidationError(f"unknown divergence id {divergence_id!r}")
    if divergence_id == "trace":
        return trace_contraction_coefficient(params), "input_divergence"
    if divergence_id == "f_div":
        if f is None:
            raise ValidationError("f_div scans need a ConvexFunction")
        relative = "input_divergence" if params.delta > 0.0 else "input_trace_distance"
        return bound_f_divergence(params, f), relative
    if params.delta != 0.0:
        raise InvalidParams(f"the {divergence_id} bound requires delta = 0")
    if divergence_id == "hockey":
        if gamma is None:
            raise ValidationError("hockey scans need gamma")
        return bound_hockey_stick(params.epsilon, gamma), "input_divergence"
    bound = bound_bures if divergence_id == "bures" else bound_relative_entropy
    return bound(params.epsilon), "input_trace_distance"


def _scan_rows(rows, dims, trials: int, seed, f, tol_scan: float) -> list[ContractionReport]:
    """The trial loop behind every scan: rows (divergence_id, params, gamma) on one ensemble.

    Each chunk is sampled once. Trace and hockey-stick rows take one spectrum
    of E per chunk and one :func:`_extreme_ratios` per mechanism weight. The
    other rows score the sampled pairs, with outputs formed once per weight
    and input references once per kind. Each row keeps its own best channel,
    so a row's report is the one a one-row call on the same dims, trials and
    seed returns. Witness channels are built only on access (ContractionReport).
    """
    theories = [_theory(divergence_id, params, gamma, f) for divergence_id, params, gamma in rows]
    weights = [mechanism_weight(params) for _, params, _ in rows]
    if not all(2 <= d <= 8 for d in dims):
        raise ValidationError(f"scan dims must lie in 2..8, got {tuple(dims)}")
    gammas = [1.0 if gamma is None else gamma for _, _, gamma in rows]  # trace: gamma = 1
    exact, sampled = {}, {}  # mechanism weight -> its trace and hockey rows; row -> measures
    for r, (divergence_id, params, _) in enumerate(rows):
        if divergence_id in ("trace", "hockey"):
            exact.setdefault(weights[r], []).append(r)
        else:
            sampled[r] = _measures(divergence_id, f, params.delta)
    rng = as_rng(seed)

    best, best_pair, valid = [-math.inf] * len(rows), [None] * len(rows), [0] * len(rows)
    for j, dim in enumerate(dims):
        budget = trials // len(dims) + (trials % len(dims) if j == 0 else 0)
        for done in range(0, budget, _CHUNK):
            data = _sample_chunk(rng, min(_CHUNK, budget - done), dim)
            scored = []  # (row, ratio per channel, -inf where skipped; winning input order)
            spectrum = bk._eigvalsh(data["heis"]) if exact else None
            for p, members in exact.items():
                grid = [gammas[r] for r in members]
                scored += zip(members, *_extreme_ratios(data["image_traces"], data["image_bloch"],
                                                         spectrum, p, grid))
            outs = {p: _outputs(data, p) for p in {weights[r] for r in sampled}}
            inputs = {}
            for r, (num_of, key) in sampled.items():
                if key not in inputs:
                    inputs[key] = _input_reference(data, key, f)
                num, den = num_of(*outs[weights[r]]), inputs[key]
                mask = (den >= TOL_DENOM) & np.isfinite(num)
                scored.append((r, np.where(mask, num / np.where(mask, den, 1.0), -math.inf), None))
            for r, ratio, forward in scored:
                valid[r] += int(np.count_nonzero(ratio > -math.inf))
                i = int(np.argmax(ratio))
                if ratio[i] > best[r]:
                    best[r] = float(ratio[i])
                    best_pair[r] = {name: value[i].copy() for name, value in data.items()}
                    if forward is not None:
                        best_pair[r]["forward"] = forward[i]

    reports = []
    for (divergence_id, params, gamma), (bound, relative_to), sup, pair, n_valid in zip(
        rows, theories, best, best_pair, valid
    ):
        if n_valid == 0:
            raise NoValidPairs(f"every sampled pair had a degenerate denominator (gamma={gamma})")
        reports.append(ContractionReport(
            divergence_id=divergence_id, epsilon=params.epsilon, delta=params.delta,
            gamma=gamma, theory_bound=bound, empirical_sup=sup,
            witness_states=_witness_states(pair),
            witness_kind="extremal_mechanism" if pair["extremal"] else "random_composite",
            trials=trials, valid_pairs=n_valid, violation=sup > bound + tol_scan,
            relative_to=relative_to, witness_source=(pair, params),
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
    records the largest ratio of the output divergence to the reference
    input quantity. Trace and hockey-stick rows score each channel at its
    exact supremum; the others score state pairs from a 40/40/20 mixed
    ensemble and skip denominators below ``TOL_DENOM``.
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

    Every gamma is scored on the same sampled channels, so report k equals
    ``scan("hockey", params, gammas[k], dims, trials, seed)`` exactly, while
    the whole grid costs one sampling pass.
    """
    rows = [("hockey", params, float(g)) for g in gammas]
    return _scan_rows(rows, dims, trials, seed, None, tol_scan)
