"""Benchmark of riskspace as its three kinds of users meet it.

    python3 bench/run.py --workload cli-csv --seed 1 --seconds 45 --trace 0

Workloads (see bench/README.md for inputs, sizes and reference figures):

- ``cli-csv``: fresh ``python -m riskspace`` processes on a generated
  10^5-row CSV; an operation is three of them, ``eval --method both``,
  ``norm`` and ``approx``, one after another;
- ``kink-scan``: one warm library process; an operation is one round of
  the exact scans on in-memory inputs, and of ``run_suite`` on tiny ones.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same operations under the span tracer and reports
the per-layer metrics named in BENCHMARK.json.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; results and spans are kept under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracles
from measure import BENCH, ROOT, SRC, end_to_end, latency_summary, python_argv, run_child, timed_ops
from worker import kink_expected

OUT = BENCH / "out"
WORKLOADS = ("cli-csv", "kink-scan")
#: fresh processes timed for setup_s; the run reports their median
SETUP_REPEATS = 5
#: fresh processes timed for init.import_s in the traced run
IMPORT_PROBES = 3


@dataclass
class Outcome:
    """Operations of one workload: latencies, wall time and failures."""

    latencies: list[float]
    wall_s: float
    #: operation index -> the checks its output failed
    failed: dict
    #: operations that raised or exited non-zero, a subset of ``failed``
    errors: int
    peak_rss_mb: float
    setup: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def wrong(self) -> int:
        """Operations that completed with a wrong output."""
        return len(self.failed) - self.errors


# -- cli-csv -------------------------------------------------------------------


def cli_ops(inp: inputs.CliInputs) -> list[tuple[str, list[str]]]:
    """One operation: the three subcommands, each on its own spectrum kind,
    as three processes one after another."""
    samples = str(inp.samples)
    return [
        ("eval", ["eval", "--spectrum", str(inp.avar), "--samples", samples, "--method", "both"]),
        ("norm", ["norm", "--spectrum", str(inp.power), "--samples", samples]),
        ("approx", ["approx", "--spectrum", str(inp.step), "--samples", samples, "--epsilon", "0.01"]),
    ]


def cli_expected(inp: inputs.CliInputs) -> dict:
    return {
        "eval": oracles.spectral_risk(inp.values, inp.weights, oracles.avar_tail(inp.alpha)),
        "norm": oracles.sigma_norm(inp.values, inp.weights, oracles.power_sqrt_tail),
        "approx": oracles.distinct_masses(inp.values, inp.weights),
    }


def cli_failures(label: str, child, expected: dict) -> list[str]:
    if child.code != 0:
        return [f"{label} exited {child.code}: {child.stderr.decode(errors='replace').strip()}"]
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        return [f"{label} printed no JSON document"]
    try:
        if label == "approx":
            values, masses = expected["approx"]
            got_masses = doc["dist"]["masses"]
            checks = {
                "approx error is 0": doc["error"] == 0,
                "approx values are the distinct sample values":
                    doc["dist"]["values"] == values.tolist(),
                "approx masses are the sample weight shares": len(got_masses) == masses.size
                and all(oracles.rel_close(a, b, 1e-9) for a, b in zip(got_masses, masses)),
            }
        else:
            value = doc["value"]
            checks = {
                f"{label} value matches numpy within 1e-9": isinstance(value, float)
                and oracles.rel_close(value, expected[label], 1e-9),
            }
            if label == "eval":
                checks["eval reports both methods"] = doc.get("method") == "both"
    except (KeyError, TypeError, AttributeError):
        return [f"{label} output lacks expected fields"]
    return [name for name, ok in checks.items() if not ok]


def cli_workload(seed: int, seconds: float, work: Path, trace_dir: Path | None):
    """Run cli-csv rounds; with ``trace_dir`` each process runs under the tracer."""
    inp = inputs.write_cli_inputs(work, seed)
    expected = cli_expected(inp)
    version = python_argv("-m", "riskspace", "--version")
    run_child(version, work)  # warm-up: writes the bytecode caches
    counter = itertools.count()

    def run_process(label, args):
        if trace_dir is None:
            return label, run_child(python_argv("-m", "riskspace", *args), work), None
        spans = trace_dir / f"cli-{next(counter):04d}.json"
        argv = python_argv(str(BENCH / "tracer.py"), "cli", str(spans), "--", *args)
        return label, run_child(argv, work), spans

    def op():
        return [run_process(label, args) for label, args in cli_ops(inp)]

    latencies, rounds, wall = timed_ops(op, seconds)
    outputs = [process for processes in rounds for process in processes]
    failed, wrong = {}, 0
    for i, processes in enumerate(rounds):
        checks = [(child.code, cli_failures(label, child, expected))
                  for label, child, _ in processes]
        if bad := [name for _, names in checks for name in names]:
            failed[i] = bad
            # a process that exited 0 with a failed check is a wrong output
            wrong += any(code == 0 and names for code, names in checks)
    errors = len(failed) - wrong
    peak = max(child.maxrss_mb for _, child, _ in outputs)
    outcome = Outcome(latencies, wall, failed, errors, peak)
    if trace_dir is not None:
        import tracer

        parts = [json.loads(spans.read_text())["totals"] for _, child, spans in outputs
                 if spans.exists()]
        totals = tracer.merge_totals(parts)
        totals["cli.output_bytes"] = sum(len(child.stdout) for _, child, _ in outputs)
        outcome.layers = totals
    else:
        outcome.setup = [run_child(version, work).seconds for _ in range(SETUP_REPEATS)]
    return outcome


# -- kink-scan -------------------------------------------------------------------


def kink_workload(seed: int, seconds: float, work: Path, trace_dir: Path | None):
    worker_args = [str(BENCH / "worker.py"), "--seed", str(seed)]
    # the oracles run here, so the worker's peak memory is riskspace's alone
    expected = work / "kink-expected.json"
    expected.write_text(json.dumps(kink_expected(inputs.kink_arrays(seed))))
    argv = python_argv(*worker_args, "--seconds", repr(seconds), "--expected", str(expected))
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir / "kink-scan.json")]
    child = run_child(argv, work)
    if child.code != 0:
        raise RuntimeError(f"kink-scan worker exited {child.code}:\n"
                           + child.stderr.decode(errors="replace"))
    res = json.loads(child.stdout.decode().splitlines()[-1])
    outcome = Outcome(res["latencies"], res["wall_s"], res["failed"], res["errors"],
                      child.maxrss_mb, layers=res.get("layers", {}))
    if trace_dir is None:
        setup = python_argv(*worker_args, "--setup-only")
        for _ in range(SETUP_REPEATS):
            timed = run_child(setup, work)
            if timed.code != 0:
                raise RuntimeError(timed.stderr.decode(errors="replace"))
            outcome.setup.append(timed.seconds)
    return outcome


def run_workload(workload, seed, seconds, work, trace_dir=None):
    if workload == "cli-csv":
        return cli_workload(seed, seconds, work, trace_dir)
    return kink_workload(seed, seconds, work, trace_dir)


# -- traced run ------------------------------------------------------------------


def per_layer_spec() -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def traced_run(workload: str, seed: int, seconds: float, work: Path):
    """Per-layer figures, per operation.

    The chosen workload runs under the tracer for ``seconds``; then one
    traced round of each other workload covers the layers it does not reach.
    A layer's figure comes from the first of these that reaches it, so every
    figure is a measurement and the chosen workload's own come first.
    """
    trace_dir = OUT / f"trace-{workload}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    probes = []
    for _ in range(IMPORT_PROBES):
        child = run_child(python_argv(str(BENCH / "tracer.py"), "import-probe"), work)
        probes.append(json.loads(child.stdout))
    layers = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    outcomes = []
    for name in [workload] + [w for w in WORKLOADS if w != workload]:
        outcome = run_workload(name, seed, seconds if name == workload else 0.0, work, trace_dir)
        outcomes.append(outcome)
        n = len(outcome.latencies)
        for key, total in outcome.layers.items():
            per_op = total if key == "dual.peak_alloc_mb" else total / n
            layers.setdefault(key, per_op)
        if name == workload:
            p50, tail, pct = latency_summary(outcome.latencies)
            print(f"traced {workload}: {n} operations, latency p50 {p50:.4f} s, "
                  f"p{pct:.0f} {tail:.4f} s", file=sys.stderr)
    metrics = {}
    for name, unit in per_layer_spec():
        if name not in layers:
            print(f"layer metric {name} was not reached; reported as 0", file=sys.stderr)
        metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
    return outcomes, metrics


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "riskspace" / "__init__.py").is_file():
        print(f"riskspace sources not found under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            outcomes, metrics = traced_run(args.workload, args.seed, args.seconds, work)
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, work)
            outcomes = [outcome]
            metrics = end_to_end(outcome.latencies, outcome.wall_s, outcome.setup,
                                 outcome.peak_rss_mb)
            p50, tail, pct = latency_summary(outcome.latencies)
            print(f"{args.workload}: {len(outcome.latencies)} operations; "
                  f"latency_tail_s is p{pct:.0f}; set-up samples "
                  + " ".join(f"{t:.3f}" for t in outcome.setup), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for outcome in outcomes:
        for index, names in sorted(outcome.failed.items(), key=lambda kv: int(kv[0])):
            print(f"operation {index} failed: {'; '.join(names)}", file=sys.stderr)
    result = {
        "correct": all(o.wrong == 0 for o in outcomes),
        "attempted": sum(len(o.latencies) for o in outcomes),
        "failed": sum(len(o.failed) for o in outcomes),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
