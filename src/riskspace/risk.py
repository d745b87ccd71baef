"""Spectral risk functionals and the associated norm.

The risk of a step quantile against any spectrum is an exact finite sum:
each segment contributes its value times the sigma-mass of its u-interval,
and that sigma-mass is a difference of tail weights evaluated in gap
coordinates.  No quadrature is involved for any spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectrum import Spectrum, _suffix_sums
from .stepdist import StepQuantile, comonotone_pair


@dataclass(frozen=True)
class RiskReport:
    """A risk evaluation with its method tag and cross-method residual."""

    value: float
    method: str
    residual: float


class SemideviationResult(NamedTuple):
    value: float
    pnorm_bound: float


def spectral_risk(sigma: Spectrum, dist: StepQuantile) -> float:
    """Quantile-integral form: integral of sigma(u) * quantile(u) du."""
    svals = sigma.tail_from_gap(dist.tail_masses)
    with np.errstate(over="ignore"):
        return float(np.dot(dist.values, svals[:-1] - svals[1:]))


def spectral_risk_via_cdf(sigma: Spectrum, dist: StepQuantile) -> float:
    """Tail-integral form, summing value gaps against tail weights.

    Algebraically the Abel resummation of the quantile integral; the two
    routes agree to floating-point error and serve as mutual checks.  The sum
    runs on halved values, exact away from subnormals, so value gaps and
    partial sums up to twice the largest double stay finite.
    """
    h = dist.values * 0.5
    svals = sigma.tail_from_gap(dist.tail_masses[:-1])
    return 2.0 * float(h[0] * svals[0] + np.dot(np.diff(h), svals[1:]))


def avar(alpha: float, dist: StepQuantile) -> float:
    """Average value-at-risk: mean of the worst (1 - alpha) tail.

    At alpha = 1 this is the essential supremum.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("AVaR level must lie in [0, 1]")
    if alpha == 1.0:
        return dist.max_value
    gap = 1.0 - alpha
    return float(dist.upper_integral(gap)) / gap


def sigma_norm(sigma: Spectrum, dist: StepQuantile) -> float:
    """The natural-domain norm: risk of the absolute value."""
    return spectral_risk(sigma, dist.abs())


def sigma_norm_via_cdf(sigma: Spectrum, dist: StepQuantile) -> float:
    return spectral_risk_via_cdf(sigma, dist.abs())


def coupling_value(sigma: Spectrum, dist: StepQuantile, order: np.ndarray) -> float:
    """Exact E[Y * sigma(U)] when Y's segments are stacked in ``order``.

    Any permutation of the segments yields a valid coupling of the two
    marginals; the identity (sorted) order is the comonotone one.
    """
    order = np.asarray(order)
    svals = sigma.tail_from_gap(_suffix_sums(dist.masses[order]))
    return float(np.dot(dist.values[order], svals[:-1] - svals[1:]))


def representation_sup_check(
    sigma: Spectrum, dist: StepQuantile, *, couplings: int = 64, seed: int = 0
) -> RiskReport:
    """Evaluate the risk as a supremum over couplings with sigma(U).

    The comonotone coupling attains the supremum; seeded random shuffles
    must stay below it.  The residual compares the comonotone pairing with
    the quantile-integral evaluation.
    """
    base = spectral_risk(sigma, dist)
    pairs = comonotone_pair(dist, sigma)
    comono = float(np.dot(pairs.w, pairs.y * pairs.z))
    rng = np.random.default_rng(seed)
    for _ in range(couplings):
        shuffled = coupling_value(sigma, dist, rng.permutation(dist.n_segments))
        if shuffled > comono + 1e-12:
            raise RuntimeError(
                f"coupling value {shuffled!r} exceeded the comonotone value {comono!r}"
            )
    return RiskReport(value=comono, method="comonotone-sup", residual=abs(comono - base))


def semideviation(dist: StepQuantile, p: float, lam: float) -> SemideviationResult:
    """Mean plus lam times the upper p-semideviation.

    Also reports (1 + lam) * ||Y||_p, the bound the value respects for
    nonnegative Y, or raises ``OverflowError`` beyond the largest double.
    Where Y's range leaves the double range the excess is formed halved.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("the loading factor must lie in (0, 1]")
    if p < 1:
        raise ValueError("Lp norms need p >= 1")
    mu = dist.mean
    k = 0.5 if math.isinf(dist.max_value - float(dist.values[0])) else 1.0
    excess = StepQuantile(np.maximum(dist.values * k - mu * k, 0.0), dist.masses)
    value = mu + lam / k * excess.lp_norm(p)
    bound = (1.0 + lam) * dist.lp_norm(p)
    if math.isinf(bound):
        raise OverflowError("semideviation p-norm bound exceeds the largest double")
    return SemideviationResult(value=value, pnorm_bound=bound)
