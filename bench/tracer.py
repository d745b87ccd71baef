"""Layer spans for the traced run, recorded from outside the package.

``install`` replaces the public functions of each riskspace module with
wrappers that record a span per call (operation, name, start, end, parent)
and a few counts taken at the same boundaries.  The wrappers are put into
every riskspace namespace that holds the function, since the modules import
each other's functions by name.  Nothing under ``src/`` changes.

Spans stay in memory and are written out when the traced process ends.
Run as a script, this module is the traced ``riskspace`` process of the
cli-csv workload, or measures the cost of ``import riskspace``::

    python bench/tracer.py cli SPANS.json -- eval --spectrum s.json --samples y.csv
    python bench/tracer.py import-probe
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict


# counts taken when a wrapped call returns; numpy is imported late so that
# the import probe measures riskspace's own imports


def _rows_parsed(tracer, args, result):
    tracer.counts["stepdist.rows_parsed"] += len(result[0])


def _segments(tracer, args, result):
    tracer.counts["stepdist.segments"] += result.n_segments


def _upper_integral(tracer, args, result):
    import numpy as np

    dist, gaps = args[0], args[1]
    tracer.counts["stepdist.upper_integral_calls"] += 1
    tracer.counts["stepdist.upper_integral_cells"] += int(np.size(gaps)) * dist.n_segments


def _quantile(tracer, args, result):
    tracer.counts["stepdist.quantile_calls"] += 1


def _tail_points(tracer, args, result):
    import numpy as np

    tracer.counts["spectrum.tail_from_gap_points"] += int(np.size(args[1]))


def _avar_in_mixture(tracer, args, result):
    if tracer._active["kusuoka.mixture_risk"]:
        tracer.counts["kusuoka.avar_calls"] += 1


class Tracer:
    """Span recorder; ``op`` tags the spans of the operation in progress."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_alloc_mb = 0.0
        self.op = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None, alloc: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._active[name]:
                # a nested call of the same layer: the outer span covers it
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._active[name] += 1
            measuring = alloc and not tracemalloc.is_tracing()
            if measuring:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measuring:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peak_alloc_mb = max(tracer.peak_alloc_mb, peak)
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (tracer.op, name, start, end, parent)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def totals(self) -> dict[str, float]:
        """Summed span time per layer (``<name>_s``), the self time of
        ``cli.main``, the counts, and the tracemalloc peak of the dual scans."""
        out: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            out[name + "_s"] += end - start
            if parent >= 0:
                covered[parent] += end - start
        for index, (op, name, start, end, parent) in enumerate(self.spans):
            if name == "cli.main":
                out["cli.self_s"] += (end - start) - covered[index]
        out.update(self.counts)
        if self.peak_alloc_mb:
            out["dual.peak_alloc_mb"] = self.peak_alloc_mb
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "totals": self.totals()}, fh)


def merge_totals(parts) -> dict[str, float]:
    """Sum totals of several traced processes; the allocation peak is a max."""
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "dual.peak_alloc_mb":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return dict(out)


def _replace_function(modules, old, new) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every riskspace layer."""
    from riskspace import (cli, dual, embedding, extremal, kusuoka, risk, spectrum,
                           stepdist, verify)

    modules = [m for n, m in sys.modules.items() if n == "riskspace" or n.startswith("riskspace.")]
    functions = [
        ("cli.main", cli.main, None, False),
        ("stepdist.read_samples_csv", stepdist.read_samples_csv, _rows_parsed, False),
        ("spectrum.load_spectrum", spectrum.load_spectrum, None, False),
        ("risk.spectral_risk", risk.spectral_risk, None, False),
        ("risk.sigma_norm", risk.sigma_norm, None, False),
        ("risk.via_cdf", risk.spectral_risk_via_cdf, None, False),
        ("risk.via_cdf", risk.sigma_norm_via_cdf, None, False),
        ("risk.avar", risk.avar, _avar_in_mixture, False),
        ("kusuoka.mixture_risk", kusuoka.mixture_risk, None, False),
        ("kusuoka.mu_from_sigma", kusuoka.mu_from_sigma, None, False),
        ("dual.dual_norm", dual.dual_norm, None, True),
        ("dual.dominates", dual.dominates, None, True),
        ("dual.quantile_density_ratio_bound", dual.quantile_density_ratio_bound, None, True),
        ("embedding.comparability_constant", embedding.comparability_constant, None, False),
        ("embedding.identity_norm", embedding.identity_norm, None, False),
        ("extremal.lp_escape", extremal.lp_escape, None, False),
        ("extremal.linf_escape", extremal.linf_escape, None, False),
        ("extremal.l1_divergence_demo", extremal.l1_divergence_demo, None, False),
    ]
    for name, fn, count, alloc in functions:
        _replace_function(modules, fn, tracer.wrap(name, fn, count, alloc))

    sq = stepdist.StepQuantile
    from_samples = sq.__dict__["from_samples"].__func__
    sq.from_samples = classmethod(tracer.wrap("stepdist.from_samples", from_samples, _segments))
    sq.abs = tracer.wrap("stepdist.abs", sq.abs, _segments)
    sq.upper_integral = tracer.wrap("stepdist.upper_integral", sq.upper_integral, _upper_integral)
    sq.quantile = tracer.wrap("stepdist.quantile", sq.quantile, _quantile)
    spectrum.Spectrum.require_valid = tracer.wrap(
        "spectrum.require_valid", spectrum.Spectrum.require_valid
    )
    for cls in (spectrum.StepSpectrum, spectrum.PowerSqrtSpectrum, spectrum.GeneralSpectrum):
        cls.tail_from_gap = tracer.wrap(
            "spectrum.tail_from_gap", cls.__dict__["tail_from_gap"], _tail_points
        )

    for i, inv in enumerate(verify._REGISTRY):
        verify._REGISTRY[i] = verify.Invariant(
            inv.ident, inv.anchor, tracer.wrap(f"verify.{inv.ident}", inv.fn)
        )


def _import_probe() -> int:
    before = set(sys.modules)
    start = time.perf_counter()
    import riskspace  # noqa: F401

    seconds = time.perf_counter() - start
    added = set(sys.modules) - before
    print(json.dumps({
        "init.import_s": seconds,
        "init.modules_loaded": len(added),
        "init.scipy_modules": sum(1 for n in added if n == "scipy" or n.startswith("scipy.")),
    }))
    return 0


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    import riskspace.cli

    tracer = Tracer()
    install(tracer)
    code = riskspace.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["import-probe"]:
        raise SystemExit(_import_probe())
    if sys.argv[1:2] == ["cli"] and sys.argv[3:4] == ["--"]:
        raise SystemExit(_traced_cli(sys.argv[2], sys.argv[4:]))
    raise SystemExit("usage: tracer.py import-probe | tracer.py cli SPANS.json -- ARGS...")
