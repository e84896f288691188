"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop with one caller: every call waits for the one
before it. A pass runs the workload's two parts once; ``part1`` holds the
operations whose latencies are reported. ``run_pass`` keeps the outputs and
``check`` compares them with the oracles afterwards, outside the timed (and
traced) region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

import harness
import oracles

TOL_SCAN = 1e-6  # the default tol_scan of ``qpriv reproduce``
TOL_CERT = 1e-7  # the documented acceptance slack of ``privacy.certify``
TOL_VALUE = 1e-9  # closed-form and oracle agreement for scalar values
# Square roots of rank-deficient states carry errors of order sqrt(machine epsilon).
TOL_SQRT = 1e-7
TOL_QUAD = 1e-6  # f-divergence agreement, as in the acceptance tests


class Outcome:
    """Operations attempted and failed in one run, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 40:
                self.notes.append(what)


def _timed(fn, *args, **kwargs):
    """(seconds, result); an exception is returned as the result."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    return time.perf_counter() - start, result


def _ginibre_state(rng, dim: int, rank: int | None = None) -> np.ndarray:
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``qpriv.cli.main`` in this process, output captured (the traced CLI path)."""
    from qpriv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Interface of a workload; the constructor generates every input from the seed.

    ``run_pass(in_process)`` runs both parts once and returns ``part1`` and
    ``part2`` (seconds), ``latencies`` (seconds per part-1 operation) and the
    raw outputs. With ``in_process`` the CLI parts run through
    ``qpriv.cli.main`` in this process, so that a traced pass sees them.
    ``check`` records one outcome per operation of a pass.
    """

    name = ""
    parts = ("", "")  # what part1_s and part2_s time, and their short names
    setup_code = ""  # run by a fresh interpreter to time cold start to ready
    min_passes = 1

    def warm_up(self) -> None:
        """Untimed calls that let lazy set-up finish before the first pass."""

    def after_trace(self, outcome: Outcome) -> None:
        """Extra checks once a traced run's passes are done."""


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class Reproduce(Workload):
    """``qpriv reproduce all --trials 10000`` as a cold subprocess at 1 and 2 threads."""

    name = "reproduce"
    parts = ("wall_s: reproduce all --trials 10000, QPRIV_THREADS=1",
             "wall_2t_s: the same run with QPRIV_THREADS=2")
    setup_code = "import qpriv.cli"
    trials = 10_000
    min_passes = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict | None = None

    def _argv(self, out_dir) -> list[str]:
        return ["reproduce", "all", "--trials", str(self.trials),
                "--seed", str(self.seed), "--out", str(out_dir)]

    def _check_run(self, outcome: Outcome, label: str, code: int, out_dir) -> None:
        tables = {}
        problems = [] if code == 0 else [f"exit code {code}"]
        for suite in ("contraction", "sample_complexity", "applications"):
            path = out_dir / f"{suite}.csv"
            try:
                tables[suite] = path.read_bytes()
            except OSError:
                problems.append(f"missing {suite}.csv")
        if not problems:
            problems += table_problems(tables)
            if self.reference is None:
                self.reference = tables
            elif tables != self.reference:
                problems.append("tables differ from the run's first tables")
        outcome.record(not problems, f"reproduce {label}: {'; '.join(problems)}")

    def run_pass(self, in_process: bool) -> dict:
        if in_process:
            out_dir = harness.WORK / "reproduce_in_process"
            saved = os.environ.get("QPRIV_THREADS")
            os.environ["QPRIV_THREADS"] = "1"
            try:
                wall, result = _timed(run_cli_in_process, self._argv(out_dir))
            finally:
                if saved is None:
                    os.environ.pop("QPRIV_THREADS")
                else:
                    os.environ["QPRIV_THREADS"] = saved
            code = result[0] if isinstance(result, tuple) else -1
            return {"part1": wall, "part2": 0.0, "latencies": [wall],
                    "runs": [("in-process", code, out_dir)]}
        walls, runs = [], []
        for threads in (1, 2):
            out_dir = harness.WORK / f"reproduce_{threads}t"
            wall, proc = harness.run_cli(self._argv(out_dir), qpriv_threads=threads)
            walls.append(wall)
            runs.append((f"{threads} thread(s)", proc.returncode, out_dir))
        return {"part1": walls[0], "part2": walls[1], "latencies": [walls[0]], "runs": runs}

    def check(self, outcome: Outcome, data: dict) -> None:
        for label, code, out_dir in data["runs"]:
            self._check_run(outcome, label, code, out_dir)

    def after_trace(self, outcome: Outcome) -> None:
        """Close the byte-identity loop: a 2-thread cold run against the traced tables."""
        out_dir = harness.WORK / "reproduce_2t"
        _, proc = harness.run_cli(self._argv(out_dir), qpriv_threads=2)
        self._check_run(outcome, "2 threads after trace", proc.returncode, out_dir)


def table_problems(tables: dict) -> list[str]:
    """Oracle checks on the three ``reproduce`` CSV tables (bytes by suite)."""
    problems = []

    def rows(suite):
        return list(csv.DictReader(io.StringIO(tables[suite].decode("utf-8"))))

    contraction = rows("contraction")
    if not contraction:
        problems.append("contraction table is empty")
    for row in contraction:
        if float(row["empirical_sup"]) > float(row["theory_bound"]) + TOL_SCAN:
            problems.append(f"contraction row {row['divergence_id']} eps={row['epsilon']} exceeds its bound")
    for row in rows("sample_complexity"):
        if row["sc_exact"] == "":
            continue
        exact = int(row["sc_exact"])
        if not float(row["sc_lower"]) - 1 < exact <= math.ceil(float(row["sc_upper"])):
            problems.append(f"sample complexity {exact} outside [{row['sc_lower']}, {row['sc_upper']}]")
    for row in rows("applications"):
        if row["holds"] != "True":
            problems.append(f"application check {row['check']} eps={row['epsilon']} fails")
    return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


class Certify(Workload):
    """Library ``certify`` / ``estimate_epsilon`` on a seeded channel mix, plus cold CLI calls."""

    name = "certify"
    parts = ("library pass: certify and estimate_epsilon over the channel mix",
             "cli_cold_s: one cold `qpriv certify` subprocess")
    min_passes = 3
    setup_code = (
        "import qpriv.cli\n"
        "from qpriv import privacy\n"
        "params = privacy.PrivacyParams(1.0, 0.1)\n"
        "privacy.certify(privacy.random_private_channel(16, params, seed=1), params)\n"
    )

    def __init__(self, seed: int):
        from qpriv import privacy
        from qpriv import quantum_core as qc

        rng = np.random.default_rng(seed)
        self.cases = []

        def add(kind, channel, epsilon, delta, expect):
            self.cases.append({"kind": kind, "channel": channel, "epsilon": epsilon,
                               "delta": delta, "expect": expect})

        for dim in (2, 4, 8, 16):
            for _ in range(2):
                eps, delta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.2)
                ch = privacy.random_private_channel(
                    dim, privacy.PrivacyParams(eps, delta), seed=int(rng.integers(2**31)))
                add("private", ch, eps, delta, None)
        for dim in (3, 4, 8):
            eps = rng.uniform(0.5, 2.0)
            boundary = dim / (dim + math.exp(eps) - 1.0)
            for p in (boundary + rng.uniform(0.05, 0.95) * (1.0 - boundary),
                      boundary * rng.uniform(0.2, 0.9)):
                add("depolarizing", qc.depolarizing_channel(dim, p), eps, 0.0,
                    oracles.depolarizing_worst_value(dim, p, eps))
        for dim in (2, 4):
            add("identity", qc.KrausChannel((np.eye(dim),)), rng.uniform(0.5, 2.0), 0.0, 1.0)

        eps = rng.uniform(0.5, 2.0)
        self.estimates = [
            (privacy.random_private_channel(4, privacy.PrivacyParams(eps), seed=int(rng.integers(2**31))),
             ("at_most", eps)),
        ]
        p = rng.uniform(0.3, 0.9)
        self.estimates.append((qc.depolarizing_channel(3, p), ("equal", oracles.depolarizing_epsilon(3, p))))

        eps, delta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.2)
        cli_channel = privacy.random_private_channel(
            8, privacy.PrivacyParams(eps, delta), seed=int(rng.integers(2**31)))
        self.cli_path = harness.WORK / "certify_channel.json"
        qc.save_channel(cli_channel, self.cli_path)
        self.cli_args = ["certify", str(self.cli_path), "--epsilon", repr(eps), "--delta", repr(delta)]
        self.cli_delta = delta

    def warm_up(self) -> None:
        from qpriv import privacy

        for case in (self.cases[0], self.cases[-1]):
            privacy.certify(case["channel"], privacy.PrivacyParams(case["epsilon"], case["delta"]))

    def run_pass(self, in_process: bool) -> dict:
        from qpriv import privacy

        latencies, results = [], []
        start = time.perf_counter()
        for case in self.cases:
            params = privacy.PrivacyParams(case["epsilon"], case["delta"])
            dt, result = _timed(privacy.certify, case["channel"], params)
            latencies.append(dt)
            results.append(result)
        for channel, _ in self.estimates:
            dt, result = _timed(privacy.estimate_epsilon, channel)
            latencies.append(dt)
            results.append(result)
        part1 = time.perf_counter() - start

        if in_process:
            part2, cli_result = _timed(run_cli_in_process, self.cli_args)
            code, stdout = cli_result if isinstance(cli_result, tuple) else (-1, "")
        else:
            part2, proc = harness.run_cli(self.cli_args)
            code, stdout = proc.returncode, proc.stdout
        return {"part1": part1, "part2": part2, "latencies": latencies,
                "results": results, "cli": (code, stdout)}

    def check(self, outcome: Outcome, data: dict) -> None:
        results = data["results"]
        for case, result in zip(self.cases, results):
            outcome.record(*check_certify(case, result))
        for (_, (relation, value)), result in zip(self.estimates, results[len(self.cases):]):
            ok = not isinstance(result, Exception) and (
                -TOL_CERT <= result <= value + TOL_CERT if relation == "at_most"
                else oracles.close(result, value, TOL_VALUE))
            outcome.record(ok, f"estimate_epsilon gave {result!r}, expected {relation} {value!r}")
        outcome.record(*check_certify_cli(*data["cli"], self.cli_delta))


def check_certify(case: dict, result) -> tuple[bool, str]:
    what = f"certify {case['kind']} dim_in={case['channel'].dim_in}"
    if isinstance(result, Exception):
        return False, f"{what} raised {result!r}"
    worst, delta = result.worst_value, case["delta"]
    if case["expect"] is None:
        ok = result.certified and worst <= delta + TOL_CERT
    else:
        ok = (oracles.close(worst, case["expect"], TOL_VALUE)
              and result.certified == (case["expect"] <= delta + TOL_CERT))
    return ok, f"{what}: worst_value={worst!r} certified={result.certified} expected {case['expect']!r}"


def check_certify_cli(code: int, stdout: str, delta: float) -> tuple[bool, str]:
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False, f"qpriv certify printed no JSON (exit {code})"
    ok = code == 0 and report["certified"] is True and report["worst_value"] <= delta + TOL_CERT
    return ok, f"qpriv certify exit {code}: {report}"


# ---------------------------------------------------------------------------
# sample_complexity
# ---------------------------------------------------------------------------


class SampleComplexity(Workload):
    """``exact_sample_complexity``: a classical sweep and dense non-commuting qubit pairs."""

    name = "sample_complexity"
    parts = ("classical_s: the commuting instances", "dense_s: the non-commuting qubit pairs")
    min_passes = 3  # so p90 and p99 fall among copies of the slowest instance
    setup_code = (
        "import qpriv.cli\n"
        "import numpy as np\n"
        "from qpriv import hypothesis, privacy, quantum_core as qc\n"
        "mech = privacy.build_qldp_mechanism(np.diag([1.0, 0.0]), 1.0)\n"
        "a = qc.apply(mech, qc.DensityMatrix(np.diag([1.0, 0.0])))\n"
        "b = qc.apply(mech, qc.DensityMatrix(np.diag([0.0, 1.0])))\n"
        "hypothesis.exact_sample_complexity(hypothesis.HypothesisInstance(a, b, 0.5, 0.1))\n"
        "c = qc.random_density_matrix(2, seed=1)\n"
        "hypothesis.helstrom_error_n(hypothesis.HypothesisInstance(a, c, 0.5, 0.1), 4)\n"
    )
    classical_eps = (1.0, 0.5, 0.2, 0.1, 0.05)
    classical_alpha = 0.01
    # Two qutrit pairs of equal cost make seven part-1 operations per pass, with
    # the qutrits in the middle, so p50 is the median of six like samples.
    qutrit_targets = (60, 60)
    dense_targets = (10, 10, 9, 9, 8)

    def __init__(self, seed: int):
        from qpriv import hypothesis as hyp
        from qpriv import privacy
        from qpriv import quantum_core as qc

        rng = np.random.default_rng(seed)
        self.known = {}  # id(instance) -> {n: P_e(n)} computed while choosing alpha
        basis = _unitary(rng, 2)
        up = qc.DensityMatrix(np.outer(basis[:, 0], basis[:, 0].conj()))
        down = qc.DensityMatrix(np.outer(basis[:, 1], basis[:, 1].conj()))
        self.classical = []
        for eps in self.classical_eps:
            mech = privacy.build_qldp_mechanism(up.entries, eps)
            self.classical.append(hyp.HypothesisInstance(
                qc.apply(mech, up), qc.apply(mech, down), 0.5, self.classical_alpha))

        def commuting_qutrits():
            u = _unitary(rng, 3)
            p = rng.dirichlet(np.ones(3))
            q = 0.8 * p + 0.2 * rng.dirichlet(np.ones(3))
            return (qc.DensityMatrix(u @ np.diag(p) @ u.conj().T),
                    qc.DensityMatrix(u @ np.diag(q) @ u.conj().T))

        def qubits():
            return (qc.DensityMatrix(_ginibre_state(rng, 2)),
                    qc.DensityMatrix(_ginibre_state(rng, 2)))

        self.classical += [self._at_target(commuting_qutrits, n) for n in self.qutrit_targets]
        self.dense = [self._at_target(qubits, target) for target in self.dense_targets]

    def _at_target(self, draw, target: int):
        """An instance whose exact answer is ``target``: alpha a quarter of the way
        down from P_e(target - 1) to P_e(target). Redraws the rare pair whose error
        curve is flat there or whose alpha would leave (0, pq)."""
        from qpriv import hypothesis as hyp

        while True:
            rho, sigma = draw()
            probe = hyp.HypothesisInstance(rho, sigma, 0.5, 0.2)
            before = hyp.helstrom_error_n(probe, target - 1)
            after = hyp.helstrom_error_n(probe, target)
            alpha = after + 0.25 * (before - after)
            if before - after > 1e-9 * before and 0.0 < alpha < 0.25:
                break
        inst = hyp.HypothesisInstance(rho, sigma, 0.5, alpha)
        self.known[id(inst)] = {target - 1: before, target: after}
        return inst

    def warm_up(self) -> None:
        from qpriv import hypothesis as hyp

        hyp.exact_sample_complexity(self.classical[0])
        hyp.helstrom_error_n(self.dense[-1], 4)

    def run_pass(self, in_process: bool) -> dict:
        from qpriv import hypothesis as hyp

        latencies, results = [], []
        start = time.perf_counter()
        for inst in self.classical:
            dt, result = _timed(hyp.exact_sample_complexity, inst)
            latencies.append(dt)
            results.append(result)
        part1 = time.perf_counter() - start
        start = time.perf_counter()
        for inst in self.dense:
            results.append(_timed(hyp.exact_sample_complexity, inst)[1])
        part2 = time.perf_counter() - start
        return {"part1": part1, "part2": part2, "latencies": latencies, "results": results}

    def check(self, outcome: Outcome, data: dict) -> None:
        for inst, result in zip(self.classical + self.dense, data["results"]):
            outcome.record(*self.check_one(inst, result))

    def pe(self, inst, n: int) -> float:
        from qpriv import hypothesis as hyp

        known = self.known.setdefault(id(inst), {})
        if n not in known:
            known[n] = hyp.helstrom_error_n(inst, n)
        return known[n]

    def check_one(self, inst, result) -> tuple[bool, str]:
        if isinstance(result, Exception) or result.exact is None:
            return False, f"exact_sample_complexity gave {result!r}"
        n = result.exact
        ok = self.pe(inst, n) <= inst.alpha and (n == 1 or inst.alpha < self.pe(inst, n - 1))
        return ok, f"exact n={n} fails P_e(n) <= alpha={inst.alpha!r} < P_e(n-1)"


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


class Divergences(Workload):
    """Scalar distinguishability measures at dims 2-64, then f-divergences and f_div scans."""

    name = "divergences"
    parts = ("scalar pass: the scalar-measure loop",
             "f_div_s: f_divergence calls and the two f_div scans")
    min_passes = 3
    setup_code = (
        "import qpriv.cli\n"
        "from qpriv import divergences as dv, quantum_core as qc\n"
        "a, b = qc.random_density_matrix(4, seed=1), qc.random_density_matrix(4, seed=2)\n"
        "dv.trace_distance(a, b)\n"
        "dv.f_divergence(a, b, dv.kl_function())\n"
    )
    # State pairs per dimension, a quarter with a rank-deficient sigma. Dim 64
    # has twice as many, so its slow calls (fidelity and the entropies) are more
    # than a tenth of the loop and p90 falls inside that group, not on its edge.
    scalar_pairs = {2: 16, 4: 16, 8: 16, 16: 16, 32: 16, 64: 32}
    f_dims = (2, 4, 8, 16, 32)
    scan_trials = 200
    smoothing = 0.1

    def __init__(self, seed: int):
        from qpriv import divergences as dv
        from qpriv import privacy
        from qpriv import quantum_core as qc

        rng = np.random.default_rng(seed)
        self.calls = []  # (function name, args, oracle value)
        for dim, pairs in self.scalar_pairs.items():
            for i in range(pairs):
                a = _ginibre_state(rng, dim)
                rank = max(1, dim // 2) if i < pairs // 4 else None
                b = _ginibre_state(rng, dim, rank)
                rho, sigma = qc.DensityMatrix(a), qc.DensityMatrix(b)
                a, b = rho.entries, sigma.entries
                g_hi, g_lo = rng.uniform(1.2, 3.0), rng.uniform(0.3, 0.9)
                self.calls += [
                    ("trace_distance", (rho, sigma), oracles.trace_distance(a, b)),
                    ("fidelity", (rho, sigma), oracles.fidelity(a, b)),
                    ("bures_squared", (rho, sigma), oracles.bures_squared(a, b)),
                    ("hockey_stick_extended", (rho, sigma, g_hi), oracles.hockey_stick_extended(a, b, g_hi)),
                    ("hockey_stick_extended", (rho, sigma, g_lo), oracles.hockey_stick_extended(a, b, g_lo)),
                    ("relative_entropy", (rho, sigma), oracles.relative_entropy(a, b)),
                    ("max_relative_entropy", (rho, sigma), oracles.max_relative_entropy(a, b)),
                ]

        w2 = self.smoothing ** 2
        second_derivatives = {
            "kl": (dv.kl_function(), lambda x: 1.0 / x),
            "chi2": (dv.chi2_function(), lambda x: np.full_like(x, 2.0)),
            "smoothed_tv": (dv.smoothed_tv_function(self.smoothing),
                            lambda x: 0.5 * w2 / ((x - 1.0) ** 2 + w2) ** 1.5),
        }
        self.f_calls = []  # (label, rho, sigma, f, reference)
        for dim in self.f_dims:
            rho = qc.DensityMatrix(_ginibre_state(rng, dim))
            sigma = qc.DensityMatrix(_ginibre_state(rng, dim))
            for label, (f, f_pp) in second_derivatives.items():
                reference = oracles.f_divergence(rho.entries, sigma.entries, f_pp)
                self.f_calls.append((f"{label} dim={dim}", rho, sigma, f, reference))
                if label == "kl":
                    # The KL f-divergence must also equal the library's relative entropy.
                    self.f_calls.append((f"kl=relent dim={dim}", rho, sigma, f,
                                         dv.relative_entropy(rho, sigma)))
        eps = rng.uniform(0.5, 2.0)
        self.scans = [
            (privacy.PrivacyParams(eps, 0.0), int(rng.integers(2**31))),
            (privacy.PrivacyParams(eps, rng.uniform(0.05, 0.3)), int(rng.integers(2**31))),
        ]
        self.kl = second_derivatives["kl"][0]

    def warm_up(self) -> None:
        from qpriv import divergences as dv

        for name, args, _ in self.calls[:7]:
            getattr(dv, name)(*args)
        dv.f_divergence(self.f_calls[0][1], self.f_calls[0][2], self.kl)

    def run_pass(self, in_process: bool) -> dict:
        from qpriv import contraction
        from qpriv import divergences as dv

        latencies, values = [], []
        start = time.perf_counter()
        for name, args, _ in self.calls:
            dt, value = _timed(getattr(dv, name), *args)
            latencies.append(dt)
            values.append(value)
        part1 = time.perf_counter() - start

        start = time.perf_counter()
        f_values = [_timed(dv.f_divergence, rho, sigma, f)[1] for _, rho, sigma, f, _ in self.f_calls]
        reports = [
            _timed(contraction.scan, "f_div", params, f=self.kl, trials=self.scan_trials, seed=seed)[1]
            for params, seed in self.scans
        ]
        part2 = time.perf_counter() - start
        return {"part1": part1, "part2": part2, "latencies": latencies,
                "values": values, "f_values": f_values, "reports": reports}

    def check(self, outcome: Outcome, data: dict) -> None:
        for (name, _, reference), value in zip(self.calls, data["values"]):
            tol = TOL_SQRT if name in ("fidelity", "bures_squared") else TOL_VALUE
            ok = not isinstance(value, Exception) and oracles.close(value, reference, tol)
            outcome.record(ok, f"{name} gave {value!r}, oracle {reference!r}")
        for (label, _, _, _, reference), value in zip(self.f_calls, data["f_values"]):
            ok = not isinstance(value, Exception) and oracles.close(value, reference, TOL_QUAD)
            outcome.record(ok, f"f_divergence {label} gave {value!r}, reference {reference!r}")
        for report in data["reports"]:
            ok = not isinstance(report, Exception) and (
                report.empirical_sup <= report.theory_bound + TOL_SCAN)
            outcome.record(ok, f"f_div scan gave {report!r}")


WORKLOADS = {cls.name: cls for cls in (Reproduce, Certify, SampleComplexity, Divergences)}
