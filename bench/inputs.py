"""Seeded inputs of the two workloads.

Everything a workload feeds to riskspace is drawn here from
``numpy.random.default_rng([seed, crc32(workload)])``, so one seed gives the
same inputs in every checkout and the workloads draw independent streams.
This module does not import riskspace: the CLI inputs are written as files,
and the library inputs are plain arrays that the worker turns into riskspace
objects itself.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: rows of the CLI sample file
CSV_ROWS = 100_000
#: cells of the step spectrum file used by the CLI
CSV_STEP_CELLS = 16

#: segments of the payoff Z scanned by dual_norm, dominates and the ratio bound
PAYOFF_SEGMENTS = 2_000
#: cells of the step spectrum the payoff is scanned against
PAYOFF_STEP_CELLS = 64
#: atoms of the Kusuoka measure and segments of the law it is mixed over
MIXTURE_ATOMS = 600
MIXTURE_SEGMENTS = 100_000
#: spectra per side of identity_norm, and cells of each
SET_SIZE = 4
SET_CELLS = 1_000
#: segments of the law the linear kernels run on
LARGE_SEGMENTS = 1_000_000

#: every kink-scan round also runs run_suite(seed=s, cases=SUITE_CASES)
#: for each s in SUITE_SEEDS: the invariants on tiny instances, where fixed
#: costs per call dominate.  The suite seeds are fixed, not drawn from the
#: run seed: some suite seeds fail (seed 735, see CHANGES.md), and an
#: operation that fails on some run seeds only cannot be counted steadily.
SUITE_CASES = 1
SUITE_SEEDS = tuple(range(8))

def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def step_spectrum(rng: np.random.Generator, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of a random nondecreasing, positive, unit-mass step."""
    inner = np.sort(rng.choice(np.arange(1, 1_000_000), size=cells - 1, replace=False)) / 1e6
    breakpoints = np.concatenate([[0.0], inner, [1.0]])
    values = np.sort(rng.uniform(0.2, 3.0, size=cells))
    return breakpoints, values / np.dot(values, np.diff(breakpoints))


# -- cli-csv -------------------------------------------------------------------


@dataclass(frozen=True)
class CliInputs:
    samples: Path
    avar: Path
    power: Path
    step: Path
    values: np.ndarray
    weights: np.ndarray
    alpha: float


def cli_samples(rng: np.random.Generator, rows: int = CSV_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Signed Student-t(2.5) values scaled by 10, rounded to 1e-3 so that ties
    occur and are merged; weights uniform on [0.5, 2] to four decimals."""
    values = np.round(rng.standard_t(2.5, size=rows) * 10.0, 3)
    weights = np.round(rng.uniform(0.5, 2.0, size=rows), 4)
    return values, weights


def write_samples_csv(path: Path, values: np.ndarray, weights: np.ndarray) -> None:
    """``value,weight`` with a header row; ``repr`` keeps every float exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("value,weight\n")
        fh.writelines(f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist()))


def write_cli_inputs(directory: Path, seed: int) -> CliInputs:
    rng = rng_for("cli-csv", seed)
    values, weights = cli_samples(rng)
    alpha = float(rng.uniform(0.8, 0.98))
    bp, sv = step_spectrum(rng, CSV_STEP_CELLS)
    paths = {name: directory / f"{name}.json" for name in ("avar", "power", "step")}
    paths["avar"].write_text(json.dumps({"kind": "avar", "alpha": alpha}))
    paths["power"].write_text(json.dumps({"kind": "power_sqrt"}))
    paths["step"].write_text(
        json.dumps({"kind": "step", "breakpoints": bp.tolist(), "values": sv.tolist()})
    )
    samples = directory / "samples.csv"
    write_samples_csv(samples, values, weights)
    return CliInputs(samples, paths["avar"], paths["power"], paths["step"], values, weights, alpha)


# -- kink-scan -----------------------------------------------------------------


@dataclass(frozen=True)
class KinkArrays:
    payoff_values: np.ndarray
    payoff_weights: np.ndarray
    step: tuple[np.ndarray, np.ndarray]
    avar_alpha: float
    mixture_levels: np.ndarray
    mixture_weights: np.ndarray
    mixture_samples: np.ndarray
    sources: list[tuple[np.ndarray, np.ndarray]]
    targets: list[tuple[np.ndarray, np.ndarray]]
    constant_levels: tuple[float, float]
    large_samples: np.ndarray
    large_alpha: float


def kink_arrays(seed: int) -> KinkArrays:
    rng = rng_for("kink-scan", seed)
    payoff_values = rng.standard_t(3.0, size=PAYOFF_SEGMENTS)
    payoff_weights = rng.uniform(0.5, 2.0, size=PAYOFF_SEGMENTS)
    step = step_spectrum(rng, PAYOFF_STEP_CELLS)
    avar_alpha = float(rng.uniform(0.8, 0.98))
    levels = np.unique(rng.uniform(0.5, 0.9995, size=MIXTURE_ATOMS))
    mixture_weights = rng.uniform(0.1, 1.0, size=levels.size)
    mixture_weights /= mixture_weights.sum()
    mixture_samples = rng.standard_t(3.0, size=MIXTURE_SEGMENTS)
    sources = [step_spectrum(rng, SET_CELLS) for _ in range(SET_SIZE)]
    targets = [step_spectrum(rng, SET_CELLS) for _ in range(SET_SIZE)]
    lo, hi = np.sort(rng.uniform(0.0, 0.99, size=2))
    large_samples = rng.standard_t(4.0, size=LARGE_SEGMENTS)
    large_alpha = float(rng.uniform(0.9, 0.99))
    return KinkArrays(payoff_values, payoff_weights, step, avar_alpha, levels,
                      mixture_weights, mixture_samples, sources, targets,
                      (float(lo), float(hi)), large_samples, large_alpha)
