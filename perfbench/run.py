"""qpriv benchmark: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qpriv checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run measures the end-to-end metrics
with no tracing; with ``--trace 1`` it wraps qpriv's public functions and
reports per-layer metrics instead. Either way every output is checked, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "part1_s": "s",
    "part2_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_per_report"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure(workload, seconds: float, outcome) -> dict:
    """The untraced run: whole passes until ``seconds`` have passed.

    The three cold set-up samples are spread over the run (before the first
    pass, then after the passes that cross a third and two thirds of it), so
    that they see the same machine as the passes.
    """
    setup_samples = [harness.cold_setup_s(workload.setup_code)]
    workload.warm_up()
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        data = workload.run_pass(in_process=False)
        workload.check(outcome, data)
        passes.append(data)
        if time.perf_counter() - start >= len(setup_samples) * seconds / 3 and len(setup_samples) < 3:
            setup_samples.append(harness.cold_setup_s(workload.setup_code))
    while len(setup_samples) < 3:
        setup_samples.append(harness.cold_setup_s(workload.setup_code))
    latencies_ms = [1e3 * x for p in passes for x in p["latencies"]]
    print(f"# {len(passes)} passes, {len(latencies_ms)} part-1 operations timed")
    # Linear interpolation between order statistics; needs two or more samples.
    percentiles = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": harness.peak_rss_mb(),
        "part1_s": statistics.median(p["part1"] for p in passes),
        "part2_s": statistics.median(p["part2"] for p in passes),
        "p50_ms": percentiles[49],
        "p90_ms": percentiles[89],
        "p99_ms": percentiles[98],
    }


def traced(workload, seconds: float, outcome, run_id: str) -> dict:
    """Untraced and traced passes in turn; spans and counts come from the first traced pass."""
    import tracer as tr

    workload.warm_up()
    untraced_s, traced_s, spans = [], [], None
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        data = workload.run_pass(in_process=True)
        untraced_s.append(time.perf_counter() - t0)
        workload.check(outcome, data)

        recorder = tr.Tracer(f"{run_id}.{len(traced_s)}")
        uninstall = tr.install(recorder)
        try:
            with recorder.span(tr.ROOT_SPAN) as root:
                data = workload.run_pass(in_process=True)
        finally:
            uninstall()
        traced_s.append(root[tr.END] - root[tr.START])
        workload.check(outcome, data)
        if spans is None:
            spans = recorder.spans
    workload.after_trace(outcome)

    # One thread, so the self times of all spans must add up to the root span.
    own = sum(tr.self_times(spans))
    wall = spans[0][tr.END] - spans[0][tr.START]
    outcome.record(
        all(s[tr.THREAD] == spans[0][tr.THREAD] for s in spans) and abs(own - wall) <= 1e-9 * wall,
        f"span self times sum to {own!r}, traced wall time is {wall!r}",
    )
    metrics = tr.layer_metrics(spans)
    metrics["trace.wall_s"] = statistics.median(traced_s)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_s)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    for key, value in harness.import_breakdown().items():
        metrics[f"import.{key}_s"] = value
    metrics.update(helstrom_probes(outcome))
    return metrics


def helstrom_probes(outcome) -> dict:
    """Latency of the public ``helstrom_error_n`` at fixed n (medians, untraced)."""
    import numpy as np

    from qpriv import hypothesis as hyp
    from qpriv import privacy
    from qpriv import quantum_core as qc

    up = qc.DensityMatrix(np.diag([1.0, 0.0]))
    down = qc.DensityMatrix(np.diag([0.0, 1.0]))
    mech = privacy.build_qldp_mechanism(up.entries, 0.05)
    classical = hyp.HypothesisInstance(qc.apply(mech, up), qc.apply(mech, down), 0.5, 0.01)
    dense = hyp.HypothesisInstance(
        qc.random_density_matrix(2, seed=11), qc.random_density_matrix(2, seed=12), 0.5, 0.1)
    out = {}
    for label, inst, n, reps in (("dense_n8", dense, 8, 5), ("dense_n10", dense, 10, 3),
                                 ("classical_n8661", classical, 8661, 5)):
        times, values = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            values.append(hyp.helstrom_error_n(inst, n))
            times.append(time.perf_counter() - t0)
        outcome.record(len(set(values)) == 1 and 0.0 <= values[0] <= 0.5,
                       f"helstrom_error_n probe {label} gave {values}")
        out[f"hypothesis.helstrom_error_n.{label}_ms"] = 1e3 * statistics.median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread in this process too; numpy is first imported below.
    os.environ.update(harness.THREAD_ENV)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps its
    # child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (harness.SRC / "qpriv" / "cli.py").is_file():
        print(f"error: no qpriv sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import qpriv

    if harness.SRC.resolve() not in Path(qpriv.__file__).resolve().parents:
        print(f"error: imported qpriv from {qpriv.__file__}, not the checkout", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    harness.WORK.mkdir(parents=True, exist_ok=True)
    try:
        print("# environment " + json.dumps(harness.environment(), sort_keys=True))
        outcome = workloads.Outcome()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.trace:
            values = traced(workload, args.seconds, outcome, f"{args.workload}-{args.seed}")
            units = {name: per_layer_unit(name) for name in values}
        else:
            values = measure(workload, args.seconds, outcome)
            units = END_TO_END_UNITS
            print(f"# part1_s = {workload.parts[0]}")
            print(f"# part2_s = {workload.parts[1]}")
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)

    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"# failed_frac = {failed_frac:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"# FAILED: {note}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
