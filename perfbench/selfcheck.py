"""Self-tests of the benchmark harness (not of qpriv).

    python3 perfbench/selfcheck.py

Run from the root of a qpriv checkout. Checks that

1. every checker flags a deliberately perturbed output (the perturbation is
   applied to the output handed to the checker, never to the program);
2. the self times of a traced run's spans sum to its traced wall time;
3. another seed gives other inputs and the same metric names, which are the
   names in BENCHMARK.json;
4. a directory holding only BENCHMARK.json and the benchmark fails cleanly.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys

import harness

os.environ.update(harness.THREAD_ENV)
sys.path.insert(0, str(harness.SRC))

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def flags(check, *args) -> int:
    """Failures an Outcome records when ``check`` runs on the given output."""
    outcome = wl.Outcome()
    check(outcome, *args)
    return outcome.failed


def check_perturbations() -> None:
    # reproduce: real tables, then one contraction row pushed past its bound.
    rep = wl.Reproduce(1)
    rep.trials = 200
    data = rep.run_pass(in_process=True)
    report(flags(rep.check, data) == 0, "reproduce: unperturbed tables pass")
    path = data["runs"][0][2] / "contraction.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("empirical_sup")] = repr(float(row[header.index("theory_bound")]) + 1e-3)
    path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    report(flags(rep._check_run, "perturbed", 0, path.parent) == 1,
           "reproduce: a row above its bound is flagged")

    # certify: one worst value moved by 1e-6, and a CLI report above delta.
    cert = wl.Certify(1)
    data = cert.run_pass(in_process=True)
    report(flags(cert.check, data) == 0, "certify: unperturbed outputs pass")
    i = next(k for k, c in enumerate(cert.cases) if c["kind"] == "depolarizing")
    results = list(data["results"])
    results[i] = dataclasses.replace(results[i], worst_value=results[i].worst_value + 1e-6)
    report(flags(cert.check, {**data, "results": results}) == 1,
           "certify: a depolarizing worst value off by 1e-6 is flagged")
    code, stdout = data["cli"]
    bad = json.loads(stdout)
    bad["worst_value"] = cert.cli_delta + 1e-3
    report(flags(cert.check, {**data, "cli": (code, json.dumps(bad))}) == 1,
           "certify: a CLI worst value above delta is flagged")

    # sample_complexity: the exact answer moved by one.
    from qpriv import hypothesis as hyp

    sc = wl.SampleComplexity(1)
    inst = sc.dense[-1]
    result = hyp.exact_sample_complexity(inst)
    report(sc.check_one(inst, result)[0], "sample_complexity: the exact answer passes")
    for shift in (-1, 1):
        moved = dataclasses.replace(result, exact=result.exact + shift)
        report(not sc.check_one(inst, moved)[0],
               f"sample_complexity: an answer off by {shift:+d} is flagged")

    # divergences: one scalar value and one f-divergence, each moved by ten
    # times the loosest tolerance that applies to it.
    div = wl.Divergences(1)
    data = div.run_pass(in_process=False)
    report(flags(div.check, data) == 0, "divergences: unperturbed outputs pass")
    for key, tol in (("values", wl.TOL_SQRT), ("f_values", wl.TOL_QUAD)):
        values = list(data[key])
        values[-1] = values[-1] + 10 * tol * max(1.0, abs(values[-1]))
        report(flags(div.check, {**data, key: values}) == 1,
               f"divergences: a perturbed entry of {key} is flagged")


def check_self_times() -> None:
    div = wl.Divergences(2)
    recorder = tr.Tracer("selfcheck")
    uninstall = tr.install(recorder)
    try:
        with recorder.span(tr.ROOT_SPAN) as root:
            div.run_pass(in_process=True)
    finally:
        uninstall()
    wall = root[tr.END] - root[tr.START]
    own = tr.self_times(recorder.spans)
    metrics = tr.layer_metrics(recorder.spans)
    layers = sum(metrics[f"{p}.self_s"] for p in tr.LAYERS.values()) + metrics["harness.self_s"]
    report(abs(sum(own) - wall) <= 1e-9 * wall and abs(layers - wall) <= 1e-9 * wall,
           f"span self times sum to the traced wall time ({sum(own):.6f} vs {wall:.6f} s)")
    report(min(own) >= 0.0, "no span has negative self time")


def fingerprint(workload) -> str:
    """A digest of the inputs a workload generated (arrays and parameters)."""
    digest = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            digest.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for k in sorted(obj):
                feed(k)
                feed(obj[k])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif isinstance(obj, (int, float, str, bool, type(None))):
            digest.update(pickle.dumps(obj))

    feed({k: v for k, v in vars(workload).items() if k != "known"})
    return digest.hexdigest()


def run_names(workload: str, seed: int, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=harness.ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report(result["correct"], f"run {workload} seed {seed} trace {trace} is correct")
    return list(result["metrics"])


def check_seeds() -> None:
    for cls in wl.WORKLOADS.values():
        one, two = fingerprint(cls(1)), fingerprint(cls(2))
        report(one != two, f"{cls.name}: seeds 1 and 2 give different inputs")
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for trace, expected in ((0, end_to_end), (1, per_layer)):
        first, second = run_names("divergences", 1, trace), run_names("divergences", 2, trace)
        report(first == second == expected,
               f"trace {trace}: both seeds report exactly the BENCHMARK.json metric names")


def check_bare_directory() -> None:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divergences", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    report(proc.returncode != 0 and "{" not in proc.stdout,
           f"a directory without src/ fails (exit {proc.returncode}) and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    harness.WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_perturbations()
        check_self_times()
        check_seeds()
        check_bare_directory()
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
