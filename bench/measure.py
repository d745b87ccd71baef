"""Timing loop, child processes and summary statistics shared by the runners."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: every process the benchmark starts runs its BLAS and OpenMP on one
#: thread; otherwise the matrix product in StepQuantile.upper_integral
#: starts BLAS threads that compete for the shared cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass(frozen=True)
class ChildResult:
    seconds: float
    code: int
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], scratch: Path) -> ChildResult:
    """Run one process to its end; wall time from start to reaping it.

    Output goes through files rather than pipes so that the process can be
    reaped with ``os.wait4``, which also gives its own peak resident memory.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                       out_path.read_bytes(), err_path.read_bytes())


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def timed_ops(op, seconds: float):
    """Call ``op`` again and again until ``seconds`` have passed; the call in
    progress then finishes (``seconds`` 0 makes exactly one call).

    Returns the latency and output of every call, and the wall time of the
    loop.  Calls run back to back with one caller (a closed loop); their
    outputs are checked afterwards, outside the timed region.
    """
    latencies, outputs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        outputs.append(op())
        latencies.append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            break
    return latencies, outputs, time.perf_counter() - start


def latency_summary(latencies: list[float]) -> tuple[float, float, float]:
    """Median, tail and the tail's percentile.

    The tail is the highest percentile with ten samples beyond it.  Below
    2 * TAIL_BEYOND + 2 samples that order statistic lies at or under the
    median, which then stands for the tail as well.
    """
    ordered = sorted(latencies)
    median = statistics.median(ordered)
    rank = len(ordered) - 1 - TAIL_BEYOND  # TAIL_BEYOND samples lie above this one
    if rank < 0 or ordered[rank] < median:
        return median, median, 50.0
    return median, ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(latencies, wall_s: float, setup_samples, peak_rss_mb: float) -> dict:
    p50, tail, _ = latency_summary(latencies)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
        "latency_tail_s": {"value": tail, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
