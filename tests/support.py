"""Helpers shared by several test modules, imported by name."""

import math

import numpy as np

from riskspace.spectrum import StepSpectrum


def random_step(rng):
    """A random step spectrum with 1 to 4 interior breakpoints in [0.05, 0.95]."""
    cuts = np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 5)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = np.cumsum(rng.uniform(0.1, 2.0, edges.size - 1))
    vals /= np.dot(vals, np.diff(edges))
    return StepSpectrum(edges, vals)


def sqrt_tail_power(g, q):
    """Integral of (1 / (2 sqrt t))**q over t in [0, g]; infinite from q = 2 on."""
    if q >= 2:
        return np.where(g > 0, math.inf, 0.0)
    expo = 1.0 - q / 2.0
    return 2.0**-q * g**expo / expo
