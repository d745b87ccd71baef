"""Command-line frontend.

Every invocation prints exactly one JSON document to stdout; anything meant
for humans (warnings, error causes) goes to stderr.  Exit codes: 0 on
success, 1 when a checked property fails to hold (dominance violations,
verify-suite failures, cross-method disagreement beyond --tol), 2 on usage
or input errors, including malformed files, which are reported with a line
number whenever one is known, and on a request too large for memory, and
141 (128 + SIGPIPE) when stdout is closed before the document is written,
as by ``riskspace ... | head -1``.

Non-finite numbers have no JSON literal, so they are emitted as the strings
"inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dual import dominates, dual_norm
from .embedding import comparability_constant, identity_norm
from .extremal import (
    heavy_tail_quantile,
    l1_divergence_demo,
    linf_escape,
    linf_risk_bound,
    lp_escape,
    lp_escape_limit,
    step_density_approx,
)
from .kusuoka import load_measure, measure_to_dict, mu_from_sigma, sigma_from_mu
from .risk import sigma_norm, sigma_norm_via_cdf, spectral_risk, spectral_risk_via_cdf
from .spectrum import load_spectrum
from .stepdist import InputFormatError, StepQuantile, read_samples_csv
from .verify import run_suite

#: exit code when the reader of stdout closes it early, as a shell reports SIGPIPE
EXIT_BROKEN_PIPE = 128 + 13

_METHOD_NAMES = {"quantile": "quantile-integral", "cdf": "cdf-tail-integral"}


def _jsonify(obj):
    """Recursively convert to JSON-encodable values; non-finite -> strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        out = obj.tolist()  # one conversion; entries need mapping only if some are not finite
        return out if np.isfinite(obj).all() else _jsonify(out)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _load(loader, path):
    """``loader(path)`` for a spectrum or measure file; an error in the
    file's contents names the file (the OS names it in its own errors)."""
    try:
        return loader(path)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, TypeError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep
        raise ValueError(f"{path}: {exc}") from None


def _load_spectrum_dir(path) -> list:
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise InputFormatError(f"no spectrum files (*.json) in {path}")
    return [_load(load_spectrum, f) for f in files]


# -- handlers (each returns payload dict and exit code) -------------------------


def _cmd_eval(args) -> tuple[dict, int]:
    sigma, dist = args.spectrum, args.samples
    compute = sigma_norm if args.norm else spectral_risk
    compute_cdf = sigma_norm_via_cdf if args.norm else spectral_risk_via_cdf
    if args.method == "both":
        via_q = compute(sigma, dist)
        via_cdf = compute_cdf(sigma, dist)
        gap = abs(via_q - via_cdf)
        payload = {
            "value": via_q,
            "method": "both",
            "norm": args.norm,
            "quantile-integral": via_q,
            "cdf-tail-integral": via_cdf,
            "difference": gap,
            "tol": args.tol,
        }
        if gap > args.tol:
            print(f"methods disagree by {gap:.3e} > tol {args.tol:.3e}", file=sys.stderr)
            return payload, 1
        return payload, 0
    value = compute(sigma, dist) if args.method == "quantile" else compute_cdf(sigma, dist)
    return {"value": value, "method": _METHOD_NAMES[args.method], "norm": args.norm}, 0


def _cmd_norm(args) -> tuple[dict, int]:
    value = sigma_norm(args.spectrum, args.samples)
    return {"value": value, "method": _METHOD_NAMES["quantile"]}, 0


def _cmd_dual_norm(args) -> tuple[dict, int]:
    result = dual_norm(args.samples, args.spectrum)
    return {"value": result.value, "attaining_alpha": result.attaining_alpha}, 0


def _cmd_dominate(args) -> tuple[dict, int]:
    cert = dominates(args.samples, args.spectrum, args.eta)
    payload = {
        "holds": cert.holds,
        "eta": args.eta,
        "witness_alpha": cert.witness_alpha,
        "margin": cert.margin,
    }
    if not cert.holds:
        print(
            f"dominance fails at alpha = {cert.witness_alpha:.12g} "
            f"(margin {cert.margin:.3e})",
            file=sys.stderr,
        )
        return payload, 1
    return payload, 0


def _cmd_kusuoka(args) -> tuple[dict, int]:
    if args.direction == "to-measure":
        if args.spectrum is None:
            raise InputFormatError("to-measure needs --spectrum")
        mu = mu_from_sigma(args.spectrum)
        return measure_to_dict(mu), 0
    if args.measure is None:
        raise InputFormatError("to-spectrum needs --measure")
    sigma = sigma_from_mu(_load(load_measure, args.measure))
    return sigma.to_dict(), 0


def _cmd_embed(args) -> tuple[dict, int]:
    pair = args.from_ is not None and args.to is not None
    sets = args.set_from is not None and args.set_to is not None
    if pair == sets:
        raise InputFormatError("give either --from/--to or --set-from/--set-to")
    if pair:
        result = comparability_constant(
            _load(load_spectrum, args.from_), _load(load_spectrum, args.to)
        )
        return {"constant": result.value, "attaining_alpha": result.attaining_alpha}, 0
    sources = _load_spectrum_dir(args.set_from)
    targets = _load_spectrum_dir(args.set_to)
    return {
        "constant": identity_norm(sources, targets),
        "sources": len(sources),
        "targets": len(targets),
    }, 0


def _cmd_escape(args) -> tuple[dict, int]:
    sigma = args.spectrum
    if args.mode == "lp":
        esc = lp_escape(sigma, args.q, args.depth)
        payload = {
            "mode": "lp",
            "q": args.q,
            "p": args.q / (args.q - 1.0),
            "depth": args.depth,
            "predicted_risk": esc.predicted_risk,
            "risk_limit": lp_escape_limit(sigma, args.q),
            "lp_partial": esc.lp_partial,
            "spectral_risk": spectral_risk(sigma, esc.dist),
            "segments": int(esc.dist.values.size),
            "dist": {"values": esc.dist.values, "masses": esc.dist.masses},
        }
        return payload, 0
    esc = linf_escape(sigma, args.depth)
    payload = {
        "mode": "linf",
        "depth": args.depth,
        "risk": esc.risk,
        "risk_bound": linf_risk_bound(args.depth),
        "esssup": esc.dist.max_value,
        "dist": {"values": esc.dist.values, "masses": esc.dist.masses},
    }
    return payload, 0


def _cmd_diverge(args) -> tuple[dict, int]:
    dist = args.samples if args.samples is not None else heavy_tail_quantile(args.depth)
    report = l1_divergence_demo(dist, args.spectrum, target=args.target)
    payload = {
        "target": report.target,
        "exceeded_at": report.exceeded_at,
        "vacuous": report.vacuous,
        "rows": [{"level": r.level, "l1": r.l1, "sigma": r.sigma} for r in report.rows],
    }
    return payload, 0


def _cmd_approx(args) -> tuple[dict, int]:
    approx, error = step_density_approx(args.spectrum, args.samples, args.epsilon)
    payload = {
        "epsilon": args.epsilon,
        "error": error,
        "steps": int(approx.values.size),
        "dist": {"values": approx.values, "masses": approx.masses},
    }
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    report = run_suite(seed=args.seed, cases=args.cases)
    code = 0 if report["failures_total"] == 0 else 1
    if code:
        print(f"{report['failures_total']} invariant case(s) failed", file=sys.stderr)
    return report, code


# -- parser ---------------------------------------------------------------------

_GLOBAL_DEFAULTS = {"tol": 1e-9, "seed": 0, "json_indent": 2}


def _common_flags() -> argparse.ArgumentParser:
    # duplicated on every subcommand (with SUPPRESS defaults) so the flags
    # are accepted both before and after the subcommand word
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="disagreement tolerance for cross-checked quantities (default 1e-9)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for randomized subcommands (default 0)")
    p.add_argument("--json-indent", type=int, default=argparse.SUPPRESS, dest="json_indent",
                   help="indentation of the JSON output; negative for compact (default 2)")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="riskspace",
        description="Spectral risk functionals, their natural domains, and dual gauges.",
        parents=[common],
    )
    # global defaults are filled in by main() after parsing: set_defaults here
    # would overwrite the shared SUPPRESS actions, and a subparser would then
    # clobber values given before the subcommand word
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--spectrum", required=True)
    law.add_argument("--samples", required=True)

    p = sub.add_parser("eval", parents=[common, law], help="spectral risk of a sample file")
    p.add_argument("--norm", action="store_true", help="evaluate the norm (risk of |Y|)")
    p.add_argument("--method", choices=["quantile", "cdf", "both"], default="quantile")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("norm", parents=[common, law], help="associated norm of a sample file")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("dual-norm", parents=[common, law], help="gauge norm in the dual space")
    p.set_defaults(handler=_cmd_dual_norm)

    p = sub.add_parser("dominate", parents=[common, law],
                       help="check AVaR-dominance |Z| <= eta * sigma at every level")
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(handler=_cmd_dominate)

    p = sub.add_parser("kusuoka", parents=[common],
                       help="convert between spectra and mixing measures")
    p.add_argument("direction", choices=["to-measure", "to-spectrum"])
    p.add_argument("--spectrum")
    p.add_argument("--measure")
    p.set_defaults(handler=_cmd_kusuoka)

    p = sub.add_parser("embed", parents=[common],
                       help="comparability constant between spaces or set families")
    p.add_argument("--from", dest="from_", metavar="SPECTRUM")
    p.add_argument("--to", metavar="SPECTRUM")
    p.add_argument("--set-from", dest="set_from", metavar="DIR")
    p.add_argument("--set-to", dest="set_to", metavar="DIR")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("escape", parents=[common],
                       help="build a variable inside the natural domain but outside L^p or L^inf")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--mode", choices=["lp", "linf"], default="lp")
    p.add_argument("--q", type=float, default=1.5)
    p.add_argument("--depth", type=int, default=40)
    p.set_defaults(handler=_cmd_escape)

    p = sub.add_parser("diverge", parents=[common],
                       help="L1 divergence of clipped heavy tails against the sigma-norm")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--target", type=float, default=10.0)
    p.add_argument("--samples", help="CSV overriding the built-in dyadic heavy tail")
    p.add_argument("--depth", type=int, default=24, help="depth of the built-in heavy tail")
    p.set_defaults(handler=_cmd_diverge)

    p = sub.add_parser("approx", parents=[common, law],
                       help="finite-step density approximation within an error budget")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("verify", parents=[common], help="run the randomized invariant suite")
    p.add_argument("--cases", type=int, default=50)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not args.tol >= 0:
        print(f"error: --tol must be a nonnegative number, got {args.tol}", file=sys.stderr)
        return 2
    if args.json_indent > sys.maxsize:
        # json.dumps would raise OverflowError building the indent string
        print(f"error: --json-indent must be at most {sys.maxsize}, got {args.json_indent}",
              file=sys.stderr)
        return 2
    try:
        # every handler gets --spectrum and then --samples read here, once
        if getattr(args, "spectrum", None) is not None:
            args.spectrum = _load(load_spectrum, args.spectrum)
        if getattr(args, "samples", None) is not None:
            args.samples = StepQuantile.from_samples(*read_samples_csv(args.samples))
        payload, code = args.handler(args)
        indent = args.json_indent if args.json_indent >= 0 else None
        document = json.dumps(_jsonify(payload), indent=indent, allow_nan=False)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError has no text
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    try:
        print(document)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send the unwritten rest, and the final flush
        # at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
