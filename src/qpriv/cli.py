"""Command-line front end: single-shot computations and experiment tables.

Subcommands:

* ``divergence`` prints one distinguishability measure of two JSON states.
* ``certify`` runs the privacy certification search on a JSON channel.
* ``reproduce`` regenerates the experiment tables (CSV or JSON).

Exit codes: 0 success or certified, 1 negative finding (not certified, or a
scan violation), 2 I/O or parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _batched as bk
from . import applications, contraction, divergences, hypothesis, privacy
from . import quantum_core as qc
from .errors import ComputationError, ValidationError

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

_FORMATS = ("csv", "json")

_EPS_GRID_TRACE = (0.25, 1.0, math.log(3.0), 2.0)
_EPS_GRID_AUX = (0.5, 1.0, 2.0)
_EPS_DELTA_GRID = tuple(
    (e, d) for e in (0.5, 1.0, math.log(3.0)) for d in (0.1, 0.3)
)


class _ParseError(Exception):
    """Input that cannot be read in the expected format (exit code 2)."""


def _config_int(raw: dict, key: str, default: int) -> int:
    """An integer config field; an integral float is accepted, a boolean is not."""
    value = raw.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _ParseError(f"{key} must be an integer, got {value!r}")
    return value


def _set_tolerance(cfg: RunConfig, key: str, value) -> None:
    if key != "tol_scan":  # the only tolerance that reproduce reads
        raise _ParseError(f"unknown tolerance {key!r}; the only one is 'tol_scan'")
    cfg.tol_scan = float(value)


@dataclass
class RunConfig:
    """Driver configuration; flags override JSON config file entries."""

    seed: int = 0
    trials: int = 2000
    tol_scan: float = contraction.TOL_SCAN
    output_path: str = "."
    format: str = "csv"

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                    cfg.seed = _config_int(raw, "seed", cfg.seed)
                    cfg.trials = _config_int(raw, "trials", cfg.trials)
                    for key, value in dict(raw.get("tolerances", {})).items():
                        _set_tolerance(cfg, key, value)
                except (ValueError, TypeError, AttributeError, OverflowError) as exc:
                    raise _ParseError(f"cannot parse config file: {exc}") from None
            cfg.output_path = raw.get("output_path", cfg.output_path)
            cfg.format = raw.get("format", cfg.format)
            if not isinstance(cfg.output_path, str):
                raise _ParseError(f"output_path must be a string, got {cfg.output_path!r}")
            if cfg.format not in _FORMATS:
                raise _ParseError(f"format must be one of {_FORMATS}, got {cfg.format!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            cfg.trials = args.trials
        if args.out is not None:
            cfg.output_path = args.out
        if args.format is not None:
            cfg.format = args.format
        for item in args.tol or ():
            try:
                key, value = item.split("=", 1)
                _set_tolerance(cfg, key, value)
            except ValueError:
                raise _ParseError(f"--tol expects KEY=NUMBER, got {item!r}") from None
        if cfg.trials < 1:
            raise ValidationError("trials must be >= 1")
        if cfg.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not math.isfinite(cfg.tol_scan):  # NaN would hide every violation
            raise ValidationError("tol_scan must be finite")
        return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_table(rows: list[dict], columns: list[str], path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{c: row.get(c) for c in columns} for row in rows],
                fh,
                indent=2,
                default=str,
            )
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

_DIVERGENCE_KINDS = {
    "trace": lambda a, b, g: divergences.trace_distance(a, b),
    "fidelity": lambda a, b, g: divergences.fidelity(a, b),
    "bures": lambda a, b, g: divergences.bures_squared(a, b),
    "hockey": lambda a, b, g: divergences.hockey_stick_extended(a, b, g),
    "relent": lambda a, b, g: divergences.relative_entropy(a, b),
    "dmax": lambda a, b, g: divergences.max_relative_entropy(a, b),
}


def _load(loader, path: str, what: str):
    """Read a JSON file with ``loader``; contents that fail validation still raise."""
    try:
        return loader(path)
    except ValidationError:
        raise
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise _ParseError(f"cannot parse {what} file: {exc}") from None


def _cmd_divergence(args) -> int:
    a = _load(qc.load_state, args.state_a, "state")
    b = _load(qc.load_state, args.state_b, "state")
    gamma = args.gamma
    if args.kind == "hockey" and gamma is None:
        print("error: hockey needs --gamma", file=sys.stderr)
        return EXIT_VALIDATION
    value = _DIVERGENCE_KINDS[args.kind](a, b, gamma)
    print(f"{value:.12f}" if math.isfinite(value) else "inf")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> int:
    if args.seed < 0:  # qubit outputs never draw from the seed, so check it here
        raise ValidationError("seed must be >= 0")
    channel = _load(qc.load_channel, args.channel, "channel")
    params = privacy.PrivacyParams(args.epsilon, args.delta)
    budget = privacy.SearchBudget(restarts=args.budget)
    result = privacy.certify(channel, params, budget, seed=args.seed)
    print(
        json.dumps(
            {
                "certified": result.certified,
                "worst_value": result.worst_value,
                "epsilon": args.epsilon,
                "delta": args.delta,
                "iterations": result.iterations,
            }
        )
    )
    return EXIT_OK if result.certified else EXIT_FINDING


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _contraction_rows(cfg: RunConfig) -> list[dict]:
    """Every contraction row, scored on one sampled ensemble drawn from ``cfg.seed``."""
    rows = [("trace", privacy.PrivacyParams(eps), None) for eps in _EPS_GRID_TRACE]
    for eps in _EPS_GRID_TRACE:
        grid = np.geomspace(math.exp(-eps), math.exp(eps), 11)
        rows += [("hockey", privacy.PrivacyParams(eps), float(g)) for g in grid]
    rows += [("trace", privacy.PrivacyParams(e, d), None) for e, d in _EPS_DELTA_GRID]
    for kind in ("bures", "relent"):
        rows += [(kind, privacy.PrivacyParams(eps), None) for eps in _EPS_GRID_AUX]
    reports = contraction._scan_rows(rows, (2, 3, 4), cfg.trials, cfg.seed, None, cfg.tol_scan)
    return [{**rep.to_dict(include_witness=False), "seed": cfg.seed} for rep in reports]


_CONTRACTION_COLUMNS = [
    "divergence_id",
    "epsilon",
    "delta",
    "gamma",
    "theory_bound",
    "empirical_sup",
    "relative_to",
    "witness_kind",
    "violation",
    "trials",
    "seed",
]


def _sample_complexity_rows(cfg: RunConfig) -> list[dict]:
    rows = []
    alpha, p = 0.1, 0.5
    for i, eps in enumerate((0.5, 1.0, math.log(3.0))):
        mech = privacy.build_qldp_mechanism([[1.0, 0.0], [0.0, 0.0]], eps)
        rho = qc.DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        sigma = qc.DensityMatrix([[0.0, 0.0], [0.0, 1.0]])
        out = hypothesis.HypothesisInstance(
            qc.apply(mech, rho), qc.apply(mech, sigma), p, alpha
        )
        exact = hypothesis.exact_sample_complexity(out)
        bounds = hypothesis.orthogonal_sc_bounds(eps, p, alpha)
        rows.append(
            {
                "epsilon": eps,
                "delta": 0.0,
                "alpha": alpha,
                "p": p,
                "T": 1.0,
                "dB2": 2.0,
                "sc_exact": exact.exact,
                "sc_lower": bounds.lower,
                "sc_upper": bounds.upper,
                "method": exact.method,
                "seed": cfg.seed,
            }
        )
    count = max(4, min(20, cfg.trials // 100))
    rng = qc.as_rng(cfg.seed)
    eps = 1.0
    for _ in range(count):
        rho = qc.random_density_matrix(2, seed=rng)
        sigma = qc.random_density_matrix(2, seed=rng)
        t = divergences.trace_distance(rho, sigma)
        if t < 0.5:
            continue
        inst = hypothesis.HypothesisInstance(rho, sigma, p, alpha)
        m_opt = bk.positive_eigenspace_projectors((rho.entries - sigma.entries)[None])[0]
        mech = privacy.build_qldp_mechanism(m_opt, eps)
        out = hypothesis.HypothesisInstance(
            qc.apply(mech, rho), qc.apply(mech, sigma), p, alpha
        )
        exact = hypothesis.exact_sample_complexity(out)
        bounds = hypothesis.private_sc_bounds(inst, eps)
        rows.append(
            {
                "epsilon": eps,
                "delta": 0.0,
                "alpha": alpha,
                "p": p,
                "T": t,
                "dB2": divergences.bures_squared(rho, sigma),
                "sc_exact": exact.exact,
                "sc_lower": bounds.lower,
                "sc_upper": bounds.upper,
                "method": exact.method,
                "seed": cfg.seed,
            }
        )
    return rows


_SAMPLE_COLUMNS = [
    "epsilon",
    "delta",
    "alpha",
    "p",
    "T",
    "dB2",
    "sc_exact",
    "sc_lower",
    "sc_upper",
    "method",
    "seed",
]


def _applications_rows(cfg: RunConfig) -> list[dict]:
    """Exact application rows: the fairness margin, and the Holevo information of the
    ensemble of the readout effect's extreme eigenvectors at prior 1/2, ln 2 - h(p / 2).
    """
    rows = []
    effect = np.diag([1.0, 0.0])  # its extreme eigenvectors are |0> and |1>
    povm = qc.Povm((effect, np.eye(2) - effect))
    for eps, delta in ((math.log(3.0), 0.0), (1.0, 0.1), (0.5, 0.3)):
        params = privacy.PrivacyParams(eps, delta)
        mech = privacy.build_eps_delta_mechanism(effect, params)
        holds, margin = applications.fairness_certificate(mech, povm, params, 0.4)
        rows.append(
            {
                "check": "fairness",
                "epsilon": eps,
                "delta": delta,
                "alpha_bound": 0.4,
                "value": margin,
                "bound": 0.4 * contraction.trace_contraction_coefficient(params),
                "holds": holds,
                "seed": cfg.seed,
            }
        )
    extremes = (qc.DensityMatrix(effect), qc.DensityMatrix(np.eye(2) - effect))
    for eps in (0.5, 1.0, 2.0):
        mech = privacy.build_qldp_mechanism(effect, eps)
        holds, value, bound = applications.holevo_stability_check(
            applications.Ensemble([0.5, 0.5], extremes), mech, eps
        )
        rows.append(
            {
                "check": "holevo",
                "epsilon": eps,
                "delta": 0.0,
                "alpha_bound": None,
                "value": value,
                "bound": bound,
                "holds": holds,
                "seed": cfg.seed,
            }
        )
    return rows


_APPLICATION_COLUMNS = [
    "check",
    "epsilon",
    "delta",
    "alpha_bound",
    "value",
    "bound",
    "holds",
    "seed",
]


def _sample_complexity_outside(row: dict) -> bool:
    exact = row["sc_exact"]
    return exact is not None and not (row["sc_lower"] - 1 < exact <= math.ceil(row["sc_upper"]))


# suite -> (row builder, columns, the rows that are findings)
_SUITES = {
    "contraction": (_contraction_rows, _CONTRACTION_COLUMNS, lambda r: r["violation"]),
    "sample_complexity": (_sample_complexity_rows, _SAMPLE_COLUMNS, _sample_complexity_outside),
    "applications": (_applications_rows, _APPLICATION_COLUMNS, lambda r: not r["holds"]),
}


def _cmd_reproduce(args) -> int:
    cfg = RunConfig.from_args(args)
    os.makedirs(cfg.output_path, exist_ok=True)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    any_violation = False
    for suite, rows in zip(suites, [_SUITES[s][0](cfg) for s in suites]):
        _, columns, finding = _SUITES[suite]
        any_violation |= any(finding(r) for r in rows)
        path = os.path.join(cfg.output_path, f"{suite}.{cfg.format}")
        _write_table(rows, columns, path, cfg.format)
        print(f"wrote {path} ({len(rows)} rows)")
    if any_violation:
        print("VIOLATION detected; see tables", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpriv",
        description="Private quantum channels: divergences, certification, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divergence", help="evaluate a divergence of two JSON states")
    p_div.add_argument("kind", choices=sorted(_DIVERGENCE_KINDS))
    p_div.add_argument("state_a")
    p_div.add_argument("state_b")
    p_div.add_argument("--gamma", type=float, default=None)
    p_div.set_defaults(func=_cmd_divergence)

    p_cert = sub.add_parser("certify", help="certify a JSON channel at (epsilon, delta)")
    p_cert.add_argument("channel")
    p_cert.add_argument("--epsilon", type=float, required=True)
    p_cert.add_argument("--delta", type=float, default=0.0)
    p_cert.add_argument("--budget", type=int, default=privacy.DEFAULT_RESTARTS)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.set_defaults(func=_cmd_certify)

    p_rep = sub.add_parser("reproduce", help="regenerate experiment tables")
    p_rep.add_argument(
        "suite", choices=["contraction", "sample_complexity", "applications", "all"]
    )
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--trials", type=int, default=None)
    p_rep.add_argument("--tol", action="append", metavar="KEY=VALUE")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--format", choices=_FORMATS, default=None)
    p_rep.add_argument("--config", default=None, help="optional JSON RunConfig file")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (OSError, _ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
