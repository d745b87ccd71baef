"""Seeded random instances for the property suite and fuzz tests.

Spectra are random valid step functions (sorted positive increments,
normalized); variables are random step quantiles with values in [-10, 10]
and up to 64 segments; joints share one weight column.  Bounds keep every
exact sum far from overflow.  All draws go through a caller-supplied
generator so suite runs are reproducible from (seed, indices) tuples.
"""

from __future__ import annotations

import numpy as np

from .spectrum import StepSpectrum
from .stepdist import PairedSample, StepQuantile

VALUE_RANGE = 10.0
MAX_JOINT_ROWS = 64


def random_step_spectrum(rng: np.random.Generator, max_cells: int = 8) -> StepSpectrum:
    """Random valid step spectrum; about a third start with a flat-zero cell."""
    n = int(rng.integers(1, max_cells + 1))
    breakpoints = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 1)]))
    values = np.cumsum(rng.exponential(1.0, breakpoints.size - 1))
    if values.size > 1 and rng.random() < 1.0 / 3.0:
        values[0] = 0.0
    integral = float(np.dot(values, np.diff(breakpoints)))
    return StepSpectrum(breakpoints, values / integral)


def random_quantile(
    rng: np.random.Generator, max_segments: int = 64, nonnegative: bool = False
) -> StepQuantile:
    """Random step quantile, values uniform in [-10, 10], exponential weights."""
    n = int(rng.integers(1, max_segments + 1))
    lo = 0.0 if nonnegative else -VALUE_RANGE
    values = rng.uniform(lo, VALUE_RANGE, n)
    return StepQuantile.from_segments(values, rng.exponential(1.0, n))


def random_joint(rng: np.random.Generator) -> PairedSample:
    """Random weighted joint rows; marginals are generic step quantiles."""
    n = int(rng.integers(1, MAX_JOINT_ROWS + 1))
    y = rng.uniform(-VALUE_RANGE, VALUE_RANGE, n)
    z = rng.uniform(-VALUE_RANGE, VALUE_RANGE, n)
    w = rng.exponential(1.0, n)
    return PairedSample(y, z, w / w.sum())
