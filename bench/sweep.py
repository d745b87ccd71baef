"""Reference size sweep of the riskspace kernels (not a workload; no bound).

    python3 bench/sweep.py

Each kernel runs over 10 to 10^6 segments (at 16 spectrum cells) and over
1 to 10^4 spectrum cells (at 10^4 segments, 10^3 for the dense
scans); ``run_suite`` runs over its
case count.  For every size the sweep records the best wall time of three
calls and the tracemalloc peak of one more, and fits the scaling exponent
as the slope of log time against log size over the sizes that take at
least a millisecond.  The dense scans (``dual_norm``, ``dominates``) build
an n_gaps x n_segments matrix; a size whose matrix would pass
DENSE_CAP_BYTES is skipped before the call, as is any size after one that
took longer than MAX_SECONDS.  The inputs are drawn from SEED.  Prints
a Markdown table and writes
``bench/out/sweep.json``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import tracemalloc

from measure import BENCH, SRC, THREAD_ENV

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import riskspace as rs  # noqa: E402
from inputs import step_spectrum  # noqa: E402

#: largest n_gaps x n_segments float64 matrix a dense scan may build here
DENSE_CAP_BYTES = 96 * 2**20
#: sizes of a kernel after one that took longer than this are skipped
MAX_SECONDS = 5.0
SEED = 0
SEGMENTS = [10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000]
CELLS = [1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000]
DEFAULT_SEGMENTS = 10_000
#: segments of the cell sweep of the dense scans, kept under the cap
DENSE_SEGMENTS = 1_000
DEFAULT_CELLS = 16
SUITE_CASES = [1, 2, 4, 8, 16]


def spectrum(rng, cells: int):
    if cells == 1:
        return rs.StepSpectrum([0.0, 1.0], [1.0])
    return rs.StepSpectrum(*step_spectrum(rng, cells))


def payoff(rng, segments: int):
    return rs.StepQuantile.from_samples(rng.standard_t(3.0, size=segments))


def measure(call, repeats: int = 3) -> tuple[float, float]:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best, peak / 2**20


def dense_bytes(segments: int, cells: int) -> int:
    return 8 * (segments + cells + 1) * segments


def cases(rng):
    """(kernel, axis, size, dense, make_call) for every point of the sweep."""
    def mixture(n_segments, atoms):
        levels = np.unique(rng.uniform(0.0, 0.999, size=atoms))
        weights = rng.uniform(0.1, 1.0, size=levels.size)
        mu = rs.KusuokaMeasure(levels, weights / weights.sum())
        dist = payoff(rng, n_segments)
        return lambda: rs.mixture_risk(mu, dist)

    def pair(call, n_segments, cells):
        sigma, dist = spectrum(rng, cells), payoff(rng, n_segments)
        return lambda: call(sigma, dist)

    for name, dense, call in [
        ("spectral_risk", False, lambda sigma, dist: rs.spectral_risk(sigma, dist)),
        ("sigma_norm", False, lambda sigma, dist: rs.sigma_norm(sigma, dist)),
        ("dual_norm", True, lambda sigma, dist: rs.dual_norm(dist, sigma)),
        ("dominates", True, lambda sigma, dist: rs.dominates(dist, sigma, 1.0)),
    ]:
        per_cell = DENSE_SEGMENTS if dense else DEFAULT_SEGMENTS
        for n in SEGMENTS:
            yield name, "segments", n, dense_bytes(n, DEFAULT_CELLS) if dense else 0, \
                lambda n=n, call=call: pair(call, n, DEFAULT_CELLS)
        for k in CELLS:
            yield name, "cells", k, dense_bytes(per_cell, k) if dense else 0, \
                lambda k=k, call=call, n=per_cell: pair(call, n, k)
    for n in SEGMENTS:
        yield "mixture_risk", "segments", n, 0, lambda n=n: mixture(n, DEFAULT_CELLS)
    for k in CELLS:
        yield "mixture_risk", "cells", k, 0, lambda k=k: mixture(DEFAULT_SEGMENTS, k)
    for k in CELLS:
        def constant(k=k):
            a, b = spectrum(rng, k), spectrum(rng, k)
            return lambda: rs.comparability_constant(a, b)
        yield "comparability_constant", "cells", k, 0, constant
    for depth in [10, 30, 100, 300, 1_000, 3_000, 10_000]:
        # 8 segments per band on the square-root spectrum
        yield "lp_escape", "segments", 8 * depth, 0, \
            lambda depth=depth: (lambda: rs.lp_escape(rs.PowerSqrtSpectrum(), 1.5, depth))
    for k in CELLS:
        def escape(k=k):
            sigma = spectrum(rng, k)
            return lambda: rs.lp_escape(sigma, 1.5, 40)
        yield "lp_escape", "cells", k, 0, escape
    for c in SUITE_CASES:
        yield "run_suite", "cases", c, 0, lambda c=c: (lambda: rs.run_suite(seed=0, cases=c))


def fit_exponent(points) -> float | None:
    usable = [(s, t) for s, t in points if t >= 1e-3]
    if len(usable) < 2:
        return None
    x = np.log([s for s, _ in usable])
    y = np.log([t for _, t in usable])
    return float(np.polyfit(x, y, 1)[0])


def main() -> int:
    rng = np.random.default_rng(SEED)

    rows, skipped_after = [], set()
    for kernel, axis, size, matrix_bytes, make in cases(rng):
        key = (kernel, axis)
        if matrix_bytes > DENSE_CAP_BYTES:
            rows.append({"kernel": kernel, "axis": axis, "size": size,
                         "skipped": f"dense matrix {matrix_bytes / 2**20:.0f} MiB over the cap"})
            continue
        if key in skipped_after:
            rows.append({"kernel": kernel, "axis": axis, "size": size,
                         "skipped": f"previous size over {MAX_SECONDS:g} s"})
            continue
        try:
            seconds, peak_mb = measure(make())
        except ValueError as exc:  # e.g. escape bands collapsing in double precision
            rows.append({"kernel": kernel, "axis": axis, "size": size, "skipped": str(exc)})
            continue
        rows.append({"kernel": kernel, "axis": axis, "size": size,
                     "seconds": seconds, "peak_mb": peak_mb})
        print(f"{kernel:24s} {axis:8s} {size:>9d} {seconds:10.5f} s {peak_mb:9.2f} MB",
              file=sys.stderr)
        if seconds > MAX_SECONDS:
            skipped_after.add(key)

    print("| kernel | axis | sizes | exponent | time at largest size | peak at largest size |")
    print("|---|---|---|---|---|---|")
    for kernel, axis in dict.fromkeys((r["kernel"], r["axis"]) for r in rows):
        done = [r for r in rows if (r["kernel"], r["axis"]) == (kernel, axis) and "seconds" in r]
        skipped = [r for r in rows if (r["kernel"], r["axis"]) == (kernel, axis) and "skipped" in r]
        exponent = fit_exponent([(r["size"], r["seconds"]) for r in done])
        last = done[-1]
        sizes = f"{done[0]['size']}..{last['size']}"
        if skipped:
            sizes += f" (skipped from {skipped[0]['size']})"
        print(f"| {kernel} | {axis} | {sizes} | "
              f"{'-' if exponent is None else f'{exponent:.2f}'} | "
              f"{last['seconds']:.4g} s | {last['peak_mb']:.1f} MB |")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
