"""Reference values computed with numpy alone, apart from riskspace.

The program works in gap coordinates on canonical (sorted, tie-merged) step
quantiles.  These oracles take the raw weighted samples instead and work in
level coordinates: cumulative positions ``u_k``, tail weights ``S(u)`` of
the spectrum written out from its definition, and plain sorting.  They share
no code with riskspace, so a fault in either side shows as a disagreement.
"""

from __future__ import annotations

import math

import numpy as np


def avar_tail(alpha: float):
    """Tail weight S(u) of the AVaR spectrum: (1 - max(u, alpha)) / (1 - alpha)."""
    return lambda u: (1.0 - np.maximum(u, alpha)) / (1.0 - alpha)


def power_sqrt_tail(u):
    """Tail weight of sigma(u) = 1/(2 sqrt(1-u)): S(u) = sqrt(1 - u)."""
    return np.sqrt(np.clip(1.0 - np.asarray(u, dtype=float), 0.0, None))


def step_tail(breakpoints: np.ndarray, values: np.ndarray):
    """Tail weight of a step spectrum: the cells wholly above u plus the part
    of the cell holding u."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    cell_mass = vals * np.diff(bp)
    above = np.concatenate([np.cumsum(cell_mass[::-1])[::-1], [0.0]])

    def tail(u):
        u = np.asarray(u, dtype=float)
        k = np.clip(np.searchsorted(bp, u, side="right") - 1, 0, vals.size - 1)
        return above[k + 1] + vals[k] * (bp[k + 1] - u)

    return tail


def spectral_risk(values, weights, tail) -> float:
    """Sum over sorted samples of value times sigma-mass of its u-interval.

    Cumulative positions come from the sorted weights; tied samples need no
    merging, since a sum over their adjoining intervals is the same sum.
    """
    v = np.asarray(values, dtype=float)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    u = np.concatenate([[0.0], np.cumsum(w)]) / w.sum()
    u[-1] = 1.0
    s = tail(u)
    return math.fsum((v * (s[:-1] - s[1:])).tolist())


def sigma_norm(values, weights, tail) -> float:
    return spectral_risk(np.abs(np.asarray(values, dtype=float)), weights, tail)


def avar_tail_mean(values, alpha: float) -> float:
    """AVaR of equally weighted samples: mean of the top (1 - alpha) share,
    the boundary sample entering with its fractional share."""
    x = np.sort(np.asarray(values, dtype=float))
    share = (1.0 - alpha) * x.size
    whole = int(math.floor(share))
    top = math.fsum(x[x.size - whole:].tolist()) if whole else 0.0
    if share > whole:
        top += (share - whole) * x[x.size - whole - 1]
    return top / share


def avar_dual_norm(values, weights, alpha: float) -> float:
    """Dual gauge against AVaR_alpha in closed form: max(E|Z|, (1-alpha) esssup|Z|)."""
    a = np.abs(np.asarray(values, dtype=float))
    w = np.ones_like(a) if weights is None else np.asarray(weights, dtype=float)
    mean_abs = math.fsum((a * w).tolist()) / math.fsum(w.tolist())
    return max(mean_abs, (1.0 - alpha) * float(a.max()))


def mean_abs(values, weights) -> float:
    a = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    return math.fsum((a * w).tolist()) / math.fsum(w.tolist())


def step_comparability(source, target) -> float:
    """sup over levels of S_target / S_source for two step spectra.

    Between the union of both breakpoint sets each tail weight is linear in
    u, so the ratio is monotone on each piece and the supremum sits at a
    breakpoint; on the last piece both tails vanish linearly at 1 and the
    ratio is the constant value_target / value_source there.
    """
    (bp_s, v_s), (bp_t, v_t) = source, target
    levels = np.unique(np.concatenate([bp_s[:-1], bp_t[:-1]]))
    return float(np.max(step_tail(bp_t, v_t)(levels) / step_tail(bp_s, v_s)(levels)))


def identity_bound(sources, targets) -> float:
    """max over targets of min over sources of the pairwise constant."""
    return max(min(step_comparability(s, t) for s in sources) for t in targets)


def distinct_masses(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample values and the normalized weight each carries."""
    distinct, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    mass = np.bincount(inverse, weights=np.asarray(weights, dtype=float))
    return distinct, mass / mass.sum()


def rel_close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), 1e-300)
