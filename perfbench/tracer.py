"""Spans around qpriv's public functions, installed from outside the package.

:func:`install` wraps every public function of each layer module in every
``qpriv`` namespace that holds it (``from .quantum_core import compose``
included), plus the ``__post_init__`` validators of the ``quantum_core``
dataclasses. Each call records a span (name, start, end, parent, thread,
run id, attributes) in memory; :func:`layer_metrics` turns the spans of one
traced run into self times, counts and ratios per layer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

# qpriv module -> metric prefix (a metric name must start with a letter).
LAYERS = {
    "quantum_core": "quantum_core",
    "_batched": "batched",
    "divergences": "divergences",
    "privacy": "privacy",
    "contraction": "contraction",
    "hypothesis": "hypothesis",
    "applications": "applications",
    "cli": "cli",
}
BATCHED_GROUPS = {
    "sample": {
        "gaussian_complex", "ginibre_states", "orthonormal_pairs",
        "projectors_from_vectors", "random_effects", "random_channel_batch",
    },
    "transfer": {
        "depolarizing_transfer", "measurement_transfer_batch",
        "mechanism_transfer_batch", "apply_transfer",
    },
    "spectral": {
        "eigvals_2x2_herm", "positive_eigensum", "trace_distance_batch",
        "hockey_stick_ext_batch", "fidelity_qubit_batch", "bures_squared_qubit_batch",
        "relative_entropy_batch", "max_relative_entropy_batch",
        "positive_eigenspace_projectors",
    },
}
SCALAR_MEASURES = (
    "trace_distance", "fidelity", "bures_squared", "hockey_stick_extended",
    "relative_entropy", "max_relative_entropy", "f_divergence",
)
VALIDATE = "quantum_core.validate"
ROOT_SPAN = "harness.run"

NAME, START, END, PARENT, THREAD, RUN, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> tuple[list, list]:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None,
                threading.get_ident(), self.run_id, attrs]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        return span, stack

    @contextmanager
    def span(self, name: str, **attrs):
        span, stack = self._open(name, attrs)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    try:
                        span[ATTRS] = describe(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # a changed signature loses the counts, not the call
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced


# ---------------------------------------------------------------------------
# attributes recorded with a span: the counts the ratios need
# ---------------------------------------------------------------------------


def _batch_size(args, kwargs, result) -> dict:
    """Leading batch dimension of the first stacked-matrix argument or result."""
    candidates = [*args, *kwargs.values()]
    candidates += list(result) if isinstance(result, tuple) else [result]
    for value in candidates:
        if isinstance(value, np.ndarray) and value.ndim >= 2:
            return {"matrices": int(value.shape[0]) if value.ndim >= 3 else 1}
    return {"matrices": 0}


def _certify_attrs(args, kwargs, result) -> dict:
    return {"dim_out": args[0].dim_out, "evals": int(result.iterations)}


def _channel_attrs(args, kwargs, result) -> dict:
    return {"dim_out": args[0].dim_out}


def _sample_complexity_attrs(args, kwargs, result) -> dict:
    return {"method": result.method}


def _scan_attrs(args, kwargs, result) -> dict:
    divergence_id = args[0] if args else kwargs.get("divergence_id")
    return {"divergence_id": divergence_id, "trials": result.trials, "rows": 1}


def _scan_grid_attrs(args, kwargs, result) -> dict:
    # One shared trial ensemble serves the whole gamma grid.
    return {"trials": result[0].trials if result else 0, "rows": len(result)}


DESCRIBE = {
    "privacy.certify": _certify_attrs,
    "privacy.estimate_epsilon": _channel_attrs,
    "hypothesis.exact_sample_complexity": _sample_complexity_attrs,
    "contraction.scan": _scan_attrs,
    "contraction.scan_hockey_grid": _scan_grid_attrs,
}


def _validator_attrs(args, kwargs, result) -> dict:
    return {"cls": type(args[0]).__name__}


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------


def install(tracer: Tracer):
    """Wrap the public layer functions everywhere; returns a callable that undoes it."""
    originals = {}  # id(original) -> wrapper
    for module_name, prefix in LAYERS.items():
        module = importlib.import_module(f"qpriv.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            describe = DESCRIBE.get(f"{prefix}.{name}")
            if describe is None and prefix == "batched":
                describe = _batch_size
            originals[id(obj)] = tracer.wrap(f"{prefix}.{name}", obj, describe)

    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "qpriv" or module_name.startswith("qpriv.")):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
                undo.append((module, name, obj))

    core = importlib.import_module("qpriv.quantum_core")
    for obj in list(vars(core).values()):
        if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
            continue
        if obj.__module__ == core.__name__ and "__post_init__" in vars(obj):
            original = vars(obj)["__post_init__"]
            obj.__post_init__ = tracer.wrap(VALIDATE, original, _validator_attrs)
            undo.append((obj, "__post_init__", original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


# ---------------------------------------------------------------------------
# from spans to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _has_ancestor(spans, index: int, prefix: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list]) -> dict:
    """Self times, counts and ratios per layer for the spans of one traced run."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def total(pred) -> float:
        return float(sum(own[i] for i, s in enumerate(spans) if pred(s)))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def attr_sum(pred, key) -> float:
        return sum(s[ATTRS].get(key, 0) for s in spans if pred(s))

    def inclusive(pred) -> float:
        return float(sum(s[END] - s[START] for s in spans if pred(s)))

    def ratio(num, den) -> float:
        return num / den if den > 0 else 0.0

    def named(name):
        return lambda s: s[NAME] == name

    for prefix in LAYERS.values():
        in_layer = lambda s, p=prefix: layer_of(s[NAME]) == p
        out[f"{prefix}.calls"] = count(in_layer)
        out[f"{prefix}.self_s"] = total(in_layer)
    out["harness.self_s"] = total(named(ROOT_SPAN))

    out["quantum_core.validate.calls"] = count(named(VALIDATE))
    out["quantum_core.validate.self_s"] = total(named(VALIDATE))
    out["quantum_core.compose.calls"] = count(named("quantum_core.compose"))
    out["quantum_core.transfer_from_kraus.self_s"] = total(named("quantum_core.transfer_from_kraus"))

    for group, members in BATCHED_GROUPS.items():
        out[f"batched.{group}.self_s"] = total(
            lambda s, m=members: layer_of(s[NAME]) == "batched" and s[NAME].split(".", 1)[1] in m
        )
    top_batched = [
        s for s in spans
        if layer_of(s[NAME]) == "batched"
        and (s[PARENT] is None or layer_of(spans[s[PARENT]][NAME]) != "batched")
    ]
    out["batched.matrices"] = sum(s[ATTRS].get("matrices", 0) for s in top_batched)
    out["batched.matrices_per_s"] = ratio(out["batched.matrices"], out["batched.self_s"])

    scans = lambda s: s[NAME] in ("contraction.scan", "contraction.scan_hockey_grid")
    out["contraction.scan.self_s"] = total(named("contraction.scan"))
    out["contraction.scan_hockey_grid.self_s"] = total(named("contraction.scan_hockey_grid"))
    out["contraction.scan_f_div.self_s"] = total(
        lambda s: s[NAME] == "contraction.scan" and s[ATTRS].get("divergence_id") == "f_div"
    )
    out["contraction.trials"] = attr_sum(scans, "trials")
    out["contraction.trials_per_s"] = ratio(out["contraction.trials"], inclusive(scans))
    out["contraction.report_rows"] = attr_sum(scans, "rows")
    out["contraction.witness_builds"] = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "quantum_core.compose" and _has_ancestor(spans, i, "contraction.")
    )
    out["contraction.witness_builds_per_report"] = ratio(
        out["contraction.witness_builds"], out["contraction.report_rows"]
    )

    for label, wide in (("dout2", False), ("doutN", True)):
        certify = lambda s, w=wide: s[NAME] == "privacy.certify" and (s[ATTRS].get("dim_out", 0) > 2) == w
        estimate = lambda s, w=wide: s[NAME] == "privacy.estimate_epsilon" and (s[ATTRS].get("dim_out", 0) > 2) == w
        out[f"privacy.certify.{label}.calls"] = count(certify)
        out[f"privacy.certify.{label}.self_s"] = total(certify)
        out[f"privacy.certify.{label}.evals"] = attr_sum(certify, "evals")
        out[f"privacy.certify.{label}.evals_per_s"] = ratio(
            out[f"privacy.certify.{label}.evals"], inclusive(certify)
        )
        out[f"privacy.estimate_epsilon.{label}.self_s"] = total(estimate)

    for label, is_classical in (("classical", True), ("dense", False)):
        pred = lambda s, c=is_classical: (
            s[NAME] == "hypothesis.exact_sample_complexity"
            and ("classical" in s[ATTRS].get("method", "")) == c
        )
        out[f"hypothesis.exact_sample_complexity.{label}.calls"] = count(pred)
        out[f"hypothesis.exact_sample_complexity.{label}.self_s"] = total(pred)

    for measure in SCALAR_MEASURES:
        out[f"divergences.{measure}.calls"] = count(named(f"divergences.{measure}"))
        out[f"divergences.{measure}.self_s"] = total(named(f"divergences.{measure}"))

    out["applications.fairness_certificate.self_s"] = total(named("applications.fairness_certificate"))
    out["applications.holevo_stability_check.self_s"] = total(named("applications.holevo_stability_check"))
    out["cli.main.self_s"] = total(named("cli.main"))
    out["trace.spans"] = len(spans)
    return out
