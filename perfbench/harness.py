"""Shared plumbing for the qpriv benchmark: paths, child processes, environment.

Every child process gets the checkout's ``src`` on ``PYTHONPATH`` and one BLAS
thread, so ``QPRIV_THREADS`` alone sets how many threads a run uses.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0


def child_env(qpriv_threads: int | None = None) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QPRIV_THREADS", None)
    if qpriv_threads is not None:
        env["QPRIV_THREADS"] = str(qpriv_threads)
    return env


def run_python(args: list[str], qpriv_threads: int | None = None):
    """Run ``python <args>`` in the work directory; returns (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=WORK,
        env=child_env(qpriv_threads),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def run_cli(cli_args: list[str], qpriv_threads: int | None = None):
    """A cold ``qpriv`` command: a fresh interpreter running ``qpriv.cli``."""
    return run_python(["-m", "qpriv.cli", *cli_args], qpriv_threads)


def cold_setup_s(code: str) -> float:
    """Wall time of a fresh interpreter running ``code`` (import and warm-up)."""
    wall, proc = run_python(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return wall


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_breakdown(reps: int = 3) -> dict:
    """Cumulative import seconds of qpriv, scipy and numpy from ``-X importtime``.

    Medians over ``reps`` fresh interpreters importing ``qpriv.cli``. The qpriv
    figure is the whole import, the others the part spent in that package.
    """
    samples = {"qpriv": [], "scipy": [], "numpy": []}
    for _ in range(reps):
        _, proc = run_python(["-X", "importtime", "-c", "import qpriv.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importtime child failed: {proc.stderr.strip()[-400:]}")
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def parse_importtime(text: str) -> dict:
    """Sum the cumulative time of each package's outermost import entries.

    Lines read ``import time: self [us] | cumulative | <indent>name`` and a
    module is printed after the modules it imported, with two more spaces of
    indent per level, so walking backwards visits each parent before its
    children.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, name.strip(), int(cumulative) * 1e-6))
    totals = {"qpriv": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and not any(a.split(".")[0] == package for _, a in ancestors):
            totals[package] += cumulative
        ancestors.append((level, name))
    return totals


def environment() -> dict:
    """The machine and library versions a run measured, printed with each run."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in (*THREAD_ENV, "QPRIV_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["cache_per_core"] = caches
    try:
        env["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        env["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    return env
