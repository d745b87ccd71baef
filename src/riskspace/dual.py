"""Dual gauge of the spectral norm and its certificates.

For a payoff ``Z`` the dual gauge is the supremum over levels ``a`` of

    (1 - a) * AVaR_a(|Z|) / S(a),

with ``S`` the spectrum's tail weight.  Writing ``g = 1 - a``, the
numerator ``G(g)`` is the integral of ``|Z|``'s quantile over the top ``g``
of mass.  Between the kinks of ``G`` (the segment boundaries of ``|Z|``)
and of ``S`` (the spectrum's breakpoints) the ratio ``G/S`` is quasiconvex:
``G`` is linear there, ``S`` is concave in ``g``, and the sign pattern of
``(G/S)'`` has at most one change, from - to +.  The supremum over each
piece therefore sits at its ends, so scanning kink gaps plus the ``g -> 0``
limit evaluates the gauge exactly, with no search and no discretization
error.
The same piecewise concavity makes the dominance check exact.

Cost: for ``n`` segments of ``|Z|`` and ``m`` spectrum kinks, a scan
evaluates ``G`` at its ``n + m`` gaps with one suffix sum and one
``searchsorted`` (``StepQuantile.upper_integral``), so ``dual_norm``,
``dominates`` and ``quantile_density_ratio_bound`` take O((n + m) log n)
time and O(n + m) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrum, scan_gaps, sup_with_limit
from .stepdist import PairedSample, StepQuantile, _comonotone_rows

#: dominance margins may undershoot zero by this much and still certify
DOMINANCE_SLACK = 1e-12


@dataclass(frozen=True)
class DualNorm:
    """Value of the dual gauge and the level attaining it.

    ``attaining_alpha`` is 1.0 when only the ``a -> 1`` limit attains the
    supremum.  ``limit_unverified`` marks values computed against a spectrum
    with no declared density supremum, where that limit was only sampled.
    """

    value: float
    attaining_alpha: float
    limit_unverified: bool = False


@dataclass(frozen=True)
class DominanceCertificate:
    """Outcome of checking (1-a) AVaR_a(|Z|) <= eta * S(a) for all a.

    ``margin`` is the worst value of (eta*S - G)/g over the checked levels;
    the bound holds iff it is >= -1e-12.  ``witness_alpha`` is the first
    level attaining that worst margin, the natural counterexample when the
    check fails.
    """

    holds: bool
    witness_alpha: float
    margin: float


def dual_norm(Z: StepQuantile, sigma: Spectrum) -> DualNorm:
    """Dual gauge of ``Z``: sup over levels of (1-a) AVaR_a(|Z|) / S(a)."""
    sigma.require_valid()
    z_abs = Z.abs()
    unverified = sigma.density_sup is None
    gaps = scan_gaps([sigma], z_abs.tail_masses, dense=unverified)
    if unverified:
        limit = -math.inf
    elif math.isinf(sigma.density_sup):
        limit = 0.0
    else:
        limit = z_abs.max_value / sigma.density_sup
    G = z_abs.upper_integral(gaps)
    S = np.asarray(sigma.tail_from_gap(gaps), dtype=float)
    value, alpha = sup_with_limit(G / S, gaps, limit)
    return DualNorm(value, alpha, unverified)


def dominates(Z: StepQuantile, sigma: Spectrum, eta: float) -> DominanceCertificate:
    """Certify eta * S(a) >= (1-a) AVaR_a(|Z|) at every level a.

    Margins are gap-normalized, (eta*S(g) - G(g))/g, so the deep-tail end
    carries the comparison eta*sigma(1-) vs esssup|Z| instead of the trivial
    0 vs 0.  Piecewise concavity of eta*S - G makes the kink scan exact.
    """
    if eta <= 0:
        raise ValueError("dominance factor eta must be positive")
    sigma.require_valid()
    z_abs = Z.abs()
    gaps = scan_gaps([sigma], z_abs.tail_masses)
    G = z_abs.upper_integral(gaps)
    S = np.asarray(sigma.tail_from_gap(gaps), dtype=float)
    margins = (eta * S - G) / gaps
    alphas = 1.0 - gaps
    if sigma.density_sup is not None and math.isfinite(sigma.density_sup):
        margins = np.append(margins, eta * sigma.density_sup - z_abs.max_value)
        alphas = np.append(alphas, 1.0)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return DominanceCertificate(worst >= -DOMINANCE_SLACK, float(alphas[i]), worst)


def indicator_dual_norm(sigma: Spectrum, p_event: float) -> float:
    """Dual gauge of an event indicator with probability ``p_event``.

    The scan collapses in closed form: the ratio peaks at the indicator's own
    tail gap, giving p / S(1 - p).
    """
    if not 0.0 < p_event <= 1.0:
        raise ValueError("event probability must lie in (0, 1]")
    sigma.require_valid()
    return float(p_event / sigma.tail_from_gap(p_event))


def pairing(sample: PairedSample) -> float:
    """Bilinear pairing E[Y Z] of a weighted joint sample."""
    return float(np.dot(sample.w, sample.y * sample.z))


def hahn_banach_witness(sigma: Spectrum, dist: StepQuantile) -> PairedSample:
    """Joint law of (Y, Z*) with E[Y Z*] = ||Y||_sigma and dual gauge 1.

    Z* places sigma's density comonotonically on |Y| and restores Y's sign,
    with sign 0 := +1.  Exact for step spectra, whose density is constant on
    each refined piece and is read there rather than averaged over a piece
    perhaps one ulp wide.  Unbounded spectra have no attaining dual element.
    """
    sigma.require_valid()
    if not sigma.is_step:
        raise TypeError(
            "attaining dual elements exist for step spectra only; "
            "apply step_approx first"
        )
    order = np.argsort(np.abs(dist.values), kind="stable")
    vals, mass = dist.values[order], dist.masses[order]
    y, _, w, top = _comonotone_rows(vals, mass, sigma)
    z = sigma.density_from_gap(top) * np.where(y < 0, -1.0, 1.0)
    return PairedSample(y, z, w)


def quantile_density_ratio_bound(Z: StepQuantile, sigma: Spectrum) -> float:
    """Pointwise bound sup_u |Z|-quantile(u) / sigma(u), by convention 0/0 = 0.

    A finite value c certifies |Z|'s quantile <= c * sigma almost everywhere,
    a stronger (not equivalent) condition than dominance of the averaged
    tails.  The supremum over each kink-free piece sits at its larger gap,
    where the density is smallest.
    """
    sigma.require_valid()
    z_abs = Z.abs()
    gaps = scan_gaps([sigma], z_abs.tail_masses)
    q = z_abs.value_at_gap(gaps)
    dens = np.asarray(sigma.density_from_gap(gaps), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q == 0.0, 0.0, q / dens)
    return float(np.max(ratio))
