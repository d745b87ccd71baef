"""One warm library process for the kink-scan workload.

    python bench/worker.py --seed 3 --seconds 45 --expected EXP.json [--trace SPANS.json]
    python bench/worker.py --seed 3 --setup-only

The process imports riskspace, builds the workload's inputs through the
library, runs an untimed warm-up round, then timed rounds until
``--seconds`` have passed (``--seconds 0`` runs exactly one).  The
warm-up round's outputs are the reference that the suite reports of every
timed round must repeat byte for byte.  It prints one
JSON object: the latency of every operation, the wall time of the loop, and
the operations whose outputs failed their checks.  The kink-scan oracles
run in the parent, which writes their values to ``--expected``
(``kink_expected``), so the worker's peak memory is that of riskspace and
its inputs alone.  ``--setup-only`` stops
after the inputs are built; the parent times such processes as set-up.
With ``--trace`` the timed rounds run under the span tracer and the layer
totals are added to the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import inputs
import oracles
from measure import timed_ops

#: dominance is checked just above and just below the computed gauge
HOLD_FACTOR = 1.0 + 1e-9
FAIL_FACTOR = 1.0 - 1e-6


# -- kink-scan -------------------------------------------------------------------


@dataclass(frozen=True)
class KinkInputs:
    z: object
    step: object
    power: object
    avar: object
    mu: object
    mu_sigma: object
    mixture_dist: object
    sources: list
    targets: list
    avar_lo: object
    avar_hi: object
    large: object
    large_avar: object


def build_kink(rs, arrays: inputs.KinkArrays) -> KinkInputs:
    mu = rs.KusuokaMeasure(arrays.mixture_levels, arrays.mixture_weights)
    lo, hi = arrays.constant_levels
    return KinkInputs(
        z=rs.StepQuantile.from_samples(arrays.payoff_values, arrays.payoff_weights),
        step=rs.StepSpectrum(*arrays.step),
        power=rs.PowerSqrtSpectrum(),
        avar=rs.AvarSpectrum(arrays.avar_alpha),
        mu=mu,
        mu_sigma=rs.sigma_from_mu(mu),
        mixture_dist=rs.StepQuantile.from_samples(arrays.mixture_samples),
        sources=[rs.StepSpectrum(bp, v) for bp, v in arrays.sources],
        targets=[rs.StepSpectrum(bp, v) for bp, v in arrays.targets],
        avar_lo=rs.AvarSpectrum(lo),
        avar_hi=rs.AvarSpectrum(hi),
        large=rs.StepQuantile.from_samples(arrays.large_samples),
        large_avar=rs.AvarSpectrum(arrays.large_alpha),
    )


def kink_expected(arrays: inputs.KinkArrays) -> dict:
    """Oracle values of the kink-scan checks, as JSON-ready numbers and lists."""
    lo, hi = arrays.constant_levels
    return {
        "dual_avar": oracles.avar_dual_norm(arrays.payoff_values, arrays.payoff_weights,
                                            arrays.avar_alpha),
        "mean_abs": oracles.mean_abs(arrays.payoff_values, arrays.payoff_weights),
        "avar_constant": (1.0 - lo) / (1.0 - hi),
        "identity": oracles.identity_bound(arrays.sources, arrays.targets),
        "tail_mean": oracles.avar_tail_mean(arrays.large_samples, arrays.large_alpha),
        "large_norm": oracles.sigma_norm(arrays.large_samples, None, oracles.power_sqrt_tail),
        "levels": arrays.mixture_levels.tolist(),
        "weights": arrays.mixture_weights.tolist(),
    }


def kink_round(rs, inp: KinkInputs) -> dict:
    """One operation: every exact scan of the workload, once."""
    gauge = rs.dual_norm(inp.z, inp.step).value
    mu_back = rs.mu_from_sigma(inp.mu_sigma)
    return {
        "dual_step": gauge,
        "dual_power": rs.dual_norm(inp.z, inp.power).value,
        "dual_avar": rs.dual_norm(inp.z, inp.avar).value,
        "holds": rs.dominates(inp.z, inp.step, gauge * HOLD_FACTOR).holds,
        "fails": rs.dominates(inp.z, inp.step, gauge * FAIL_FACTOR).holds,
        "bound_step": rs.quantile_density_ratio_bound(inp.z, inp.step),
        "bound_power": rs.quantile_density_ratio_bound(inp.z, inp.power),
        "mixture": rs.mixture_risk(inp.mu, inp.mixture_dist),
        "mixture_spectral": rs.spectral_risk(inp.mu_sigma, inp.mixture_dist),
        "mu_levels": mu_back.levels,
        "mu_weights": mu_back.weights,
        "avar_constant": rs.comparability_constant(inp.avar_lo, inp.avar_hi).value,
        "identity": rs.identity_norm(inp.sources, inp.targets),
        "tail_mean": rs.spectral_risk(inp.large_avar, inp.large),
        "large_norm": rs.sigma_norm(inp.power, inp.large),
        "suite": [suite_report(rs, s) for s in inputs.SUITE_SEEDS],
    }


def kink_failures(out: dict, exp: dict, warm: dict) -> list[str]:
    close = oracles.rel_close
    checks = {
        "AVaR dual_norm equals max(E|Z|, (1-alpha) esssup|Z|)":
            close(out["dual_avar"], exp["dual_avar"], 1e-10),
        "dominates holds at gauge * (1 + 1e-9)": out["holds"],
        "dominates fails at gauge * (1 - 1e-6)": not out["fails"],
        "mixture_risk equals spectral_risk": close(out["mixture"], out["mixture_spectral"], 1e-10),
        "mu_from_sigma inverts sigma_from_mu":
            list(out["mu_levels"]) == exp["levels"]
            and len(out["mu_weights"]) == len(exp["weights"])
            and all(close(a, b, 1e-9) for a, b in zip(out["mu_weights"], exp["weights"])),
        "AVaR comparability constant equals (1-lo)/(1-hi)":
            close(out["avar_constant"], exp["avar_constant"], 1e-12),
        "identity_norm equals max-min of level-scan constants":
            close(out["identity"], exp["identity"], 1e-9),
        "1e6-segment AVaR risk equals the numpy tail mean":
            close(out["tail_mean"], exp["tail_mean"], 1e-9),
        "1e6-segment power-sqrt norm equals the numpy sum": close(out["large_norm"], exp["large_norm"], 1e-9),
        "run_suite reports failures_total == 0":
            all(json.loads(report)["failures_total"] == 0 for report in out["suite"]),
        "run_suite reports equal the warm-up round's byte for byte": out["suite"] == warm["suite"],
    }
    for key in ("step", "power"):
        gauge, bound = out[f"dual_{key}"], out[f"bound_{key}"]
        checks[f"E|Z| <= gauge <= ratio bound ({key})"] = (
            exp["mean_abs"] * (1 - 1e-12) <= gauge <= bound * (1 + 1e-12)
        )
    return [name for name, ok in checks.items() if not ok]


def suite_report(rs, seed: int) -> str:
    return json.dumps(rs.run_suite(seed=seed, cases=inputs.SUITE_CASES), sort_keys=True)


# -- entry point ---------------------------------------------------------------------


def _guarded(op, tracer):
    """An operation that raises is recorded as failed and the run goes on."""

    def run():
        try:
            return op()
        except Exception as exc:  # reported per operation in the result
            return exc
        finally:
            if tracer is not None:
                tracer.op += 1

    return run


def _failures(out, expected: dict, warm: dict) -> list[str]:
    """The checks an output failed; a check that raises fails the operation."""
    try:
        return kink_failures(out, expected, warm)
    except Exception as exc:  # an output of the wrong shape
        return [f"check raised {exc!r}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", metavar="EXP.json", help="kink_expected values")
    ap.add_argument("--trace", metavar="SPANS.json")
    args = ap.parse_args(argv)

    import riskspace as rs

    inp = build_kink(rs, inputs.kink_arrays(args.seed))
    if args.setup_only:
        return 0
    with open(args.expected) as f:
        expected = json.load(f)
    warm = kink_round(rs, inp)  # warm-up round

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    op = _guarded(lambda: kink_round(rs, inp), tracer)

    latencies, outputs, wall = timed_ops(op, args.seconds)
    failed = {}
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failed[i] = [f"raised {out!r}"]
        elif bad := _failures(out, expected, warm):
            failed[i] = bad
    result = {"latencies": latencies, "wall_s": wall,
              "errors": sum(isinstance(out, Exception) for out in outputs),
              "failed": failed}
    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
