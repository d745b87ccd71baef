"""Separation witnesses: variables kept by the spectral norm but lost by Lp.

Three constructions drive the comparisons.  The Lp escape stacks bands
``n * sigma(u)**(q-1)`` whose sigma**q masses follow n**-(p+1), so the
truncated risks converge while the p-norm accumulates the harmonic series.
The sup-norm escape stacks constant bands of sigma-mass 2**-n, bounded in
risk by sum n 2**(1-n) = 4 yet unbounded in value.  The L1 divergence
truncates a heavy-tailed quantile at growing levels.  Band boundaries land
within 1e-38 of 1 for deep truncations, so every boundary is carried as a
gap (tail mass), never as a cumulative position.  The escapes are built on
whole arrays: one inversion places every band boundary and one pass refines
every band.

Truncations place the unreached mass at value 0; canonical sorting then
moves that mass to the bottom of the quantile, which only lowers norms, so
every divergence conclusion drawn from these outputs is conservative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .risk import sigma_norm, spectral_risk
from .spectrum import Spectrum, StepSpectrum
from .stepdist import StepQuantile


class LpEscape(NamedTuple):
    """Truncated escape variable with its series-predicted risk and p-power."""

    dist: StepQuantile
    predicted_risk: float
    lp_partial: float


class LinfEscape(NamedTuple):
    dist: StepQuantile
    risk: float


@dataclass(frozen=True)
class DivergenceRow:
    level: float
    l1: float
    sigma: float


@dataclass(frozen=True)
class DivergenceReport:
    """Truncation table (level, ||Y_n||_1, ||Y_n||_sigma).

    ``exceeded_at`` is the first level whose L1 norm passes the target;
    ``vacuous`` flags inputs whose essential bound was reached first, where
    the truncations have converged and nothing diverges.
    """

    rows: tuple[DivergenceRow, ...]
    target: float
    exceeded_at: float | None
    vacuous: bool


#: geometric pieces per band on a spectrum without step nodes
BAND_PIECES = 8


def _escape_exponent(sigma: Spectrum, q: float) -> tuple[float, float]:
    """``(||sigma||_q**q, p)`` for an escape exponent ``q`` and its conjugate
    ``p``; ``ValueError`` unless q lies in (1, inf), sigma**q is integrable
    and its integral is a double."""
    if not 1.0 < q < math.inf:
        raise ValueError("escape construction needs an exponent q in (1, inf)")
    total = float(sigma.tail_power_integral(1.0, q))
    sup = sigma.density_sup
    if total == math.inf and sup is not None and sup < math.inf:
        raise ValueError(f"||sigma||_q**q exceeds the largest double at q = {q!r}")
    if not math.isfinite(total) or total <= 0:
        raise ValueError(f"sigma**{q!r} is not integrable; the construction needs ||sigma||_q < inf")
    return total, q / (q - 1.0)


def _band_gaps(sigma: Spectrum, targets: np.ndarray, q: float) -> np.ndarray:
    """Band boundaries ``[1, g_1, ..., g_depth]``: gap 1, then the largest gap
    whose sigma**q tail integral reaches each target; ``ValueError`` for an
    empty ``targets`` or boundaries that fail to strictly descend."""
    depth = targets.size
    if depth < 1:
        raise ValueError("truncation depth must be at least 1")
    gaps = np.concatenate([[1.0], sigma.invert_tail_power(targets, q)])
    if np.any(np.diff(gaps) >= 0):
        raise ValueError(
            f"band boundaries collapsed at depth {depth}; the sigma**{q!r} tail "
            "is too thin to resolve in double precision"
        )
    return gaps


def lp_escape(sigma: Spectrum, q: float, depth: int) -> LpEscape:
    """Truncation of the variable whose p-norm diverges inside the sigma ball.

    Band n carries the value ``n * sigma**(q-1)`` on the gap interval whose
    sigma**q mass is ``||sigma||_q**q * n**-(p+1) / zeta(p+1)``, with p the
    conjugate exponent.  Each band is cut at the step nodes inside it for a
    ``StepSpectrum`` and into ``BAND_PIECES`` geometric pieces otherwise,
    all bands in one pass, and each piece reads the density at its shallow
    edge (its larger gap).  The returned ``predicted_risk`` is the band
    series (the risk of the truncated function before rearrangement,
    approaching ``||sigma||_q**q zeta(p)/zeta(p+1)`` from below);
    ``lp_partial`` is the exact p-th power of the p-norm, a harmonic partial
    sum.
    """
    from scipy import special

    total, p = _escape_exponent(sigma, q)
    zp1 = float(special.zeta(p + 1.0))
    # tail targets: integral of sigma**q over the top g_n of mass must equal
    # total * zeta(p+1, n+1)/zeta(p+1); the Hurwitz form avoids the
    # cancellation of forward partial sums near their limit.
    tail_targets = total * special.zeta(p + 1.0, np.arange(2.0, depth + 2.0)) / zp1
    gaps = _band_gaps(sigma, tail_targets, q)
    # descending piece edges from 1 down to g_depth, every band gap among them
    if isinstance(sigma, StepSpectrum):
        nodes = sigma.kink_gaps
        edges = np.union1d(gaps, nodes[(nodes > gaps[-1]) & (nodes < 1.0)])[::-1]
    else:
        grid = np.geomspace(gaps[:-1], gaps[1:], BAND_PIECES + 1, axis=1)
        edges = np.append(grid[:, :-1], gaps[-1])
    upper = edges[:-1]
    # band n holds the pieces with g_n < upper <= g_(n-1)
    band = np.searchsorted(-gaps, -upper, side="right")
    values = band * sigma.density_from_gap(upper) ** (q - 1.0)
    dist = StepQuantile.from_segments(
        np.append(0.0, values), np.append(gaps[-1], upper - edges[1:])
    )
    partial_p = float(special.zeta(p) - special.zeta(p, depth + 1.0))
    predicted_risk = total / zp1 * partial_p
    harmonic = float(special.digamma(depth + 1.0) + np.euler_gamma)
    lp_partial = total / zp1 * harmonic
    return LpEscape(dist, predicted_risk, lp_partial)


def lp_escape_limit(sigma: Spectrum, q: float) -> float:
    """Risk ceiling of the escape bands: ||sigma||_q**q zeta(p)/zeta(p+1)."""
    from scipy import special

    total, p = _escape_exponent(sigma, q)
    return total * float(special.zeta(p)) / float(special.zeta(p + 1.0))


def linf_escape(sigma: Spectrum, depth: int) -> LinfEscape:
    """Truncation of the unbounded variable with risk at most sum n 2**(1-n).

    Band n holds the constant n above the level whose sigma tail weight is
    exactly 2**-n, so the full stack carries risk sum n 2**-n = 2 for every
    spectrum, and the truncation stays below that; values reach ``depth``,
    so no essential bound survives the limit.
    """
    gaps = _band_gaps(sigma, np.ldexp(1.0, -np.arange(1, depth + 1)), 1.0)
    # ascending values 0..depth: remainder mass g_N, then band n's slab width
    masses = np.concatenate([[gaps[depth]], -np.diff(gaps)])
    dist = StepQuantile(np.arange(depth + 1, dtype=float), masses)
    return LinfEscape(dist, spectral_risk(sigma, dist))


def linf_risk_bound(depth: int) -> float:
    """The coarse band bound sum_{n<=depth} n 2**(1-n), at most 4."""
    n = np.arange(1, depth + 1)
    return float(np.sum(n * 2.0 ** (1.0 - n)))


def heavy_tail_quantile(depth: int) -> StepQuantile:
    """Dyadic discretization of the infinite-mean quantile 1/(1-u).

    Value 2**k occupies the slab of mass 2**-(k+1), so each level doubles
    while its mass halves and every extra level adds 1/2 to the mean: the
    mean is depth/2 + 1 and grows without bound in the depth.
    """
    if not 1 <= depth <= 1000:
        raise ValueError("depth must lie in [1, 1000]")
    k = np.arange(depth)
    values = np.concatenate([2.0**k, [2.0**depth]])
    masses = np.concatenate([2.0 ** -(k + 1), [2.0**-depth]])
    return StepQuantile(values, masses)


def l1_divergence_demo(dist: StepQuantile, sigma: Spectrum, target: float) -> DivergenceReport:
    """Truncate |Y| at growing levels until the L1 norm passes ``target``.

    Levels double from 1, the last one capped at the largest double.  Every
    row satisfies the Chebyshev bound ||Y_n||_sigma >= ||Y_n||_1; a bounded
    input saturates at its maximum, and if the target is still unmet the
    demo is vacuous (the truncations converged; nothing diverges).
    """
    if not target > 0:
        raise ValueError("divergence target must be positive")
    mag = dist.abs()
    rows = []
    level = 1.0
    while True:
        clipped = mag.clip_upper(level)
        l1 = clipped.lp_norm(1.0)
        rows.append(DivergenceRow(level, l1, sigma_norm(sigma, clipped)))
        if l1 > target:
            return DivergenceReport(tuple(rows), float(target), level, False)
        if level >= mag.max_value:
            return DivergenceReport(tuple(rows), float(target), None, True)
        level = min(2.0 * level, sys.float_info.max)


def step_density_approx(
    sigma: Spectrum, dist: StepQuantile, eps: float
) -> tuple[StepQuantile, float]:
    """Simple approximation of Y with certified error ||Y - s(U)||_sigma < eps.

    The density argument clips the two tails within an eps/3 budget each and
    meshes the middle; a finite step quantile already is a simple function,
    so the least clipping meeting the budgets is no clipping at all and the
    mesh, refined by the input's own breakpoints, reproduces every value.
    The construction therefore returns the input, and the residual Y - s(U)
    vanishes pointwise, so its sigma-norm is 0 * (S(1) - S(0)) = 0 for every
    valid spectrum.  The invariant suite's ``approx-error-certified`` check
    recomputes that norm from the two quantiles rather than trusting it.
    """
    if not eps > 0:
        raise ValueError("approximation tolerance must be positive")
    return dist, 0.0
