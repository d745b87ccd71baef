"""Dual gauge of the spectral norm and its certificates.

For a payoff ``Z`` the dual gauge is the supremum over levels ``a`` of

    (1 - a) * AVaR_a(|Z|) / S(a),

with ``S`` the spectrum's tail weight.  Writing ``g = 1 - a``, the
numerator ``G(g)`` is the integral of ``|Z|``'s quantile over the top ``g``
of mass.  The scans rest on one lemma: ``S(1 - g)`` is concave in ``g`` on
all of ``[0, 1]`` for every valid spectrum, since sigma is nondecreasing,
so the spectrum's own breakpoints never matter (below, ``S`` stands for
that function of ``g``).  On each piece between the tail masses of
``|Z|``, ``G(g) = c + b g`` with ``c, b >= 0`` (``G`` is concave with
``G(0) = 0``), and

* ``G/S`` is quasiconvex: ``(G/S)'`` has the sign of ``h = b S - G S'``,
  and ``h' = -G S'' >= 0`` as a measure, so the supremum sits at an end;
* the dominance margin ``phi = (eta S - G)/g`` is quasiconcave:
  ``(phi' g^2)' = eta S'' g <= 0``, so the minimum sits at an end;
* the quantile is constant and the density nonincreasing in ``g``, so the
  quantile-to-density ratio peaks at the larger gap.

On the top piece ``c = 0`` and ``S(g)/g`` is nonincreasing, so the
``a -> 1`` limits (``max|Z| / sigma(1-)`` and ``eta sigma(1-) - max|Z|``)
never beat the smallest tail mass.  Scanning the gaps ``{1}`` and the tail
masses of ``|Z|`` therefore evaluates all three exactly, with no search and
no discretization error.  The one condition on the code: at a gap where
sigma jumps, ``density_from_gap`` returns the lower-gap cell's value, the
limit from inside the piece that ends there.  Corollary: a step target's
tail weight is ``G`` of ``sigma_target(U)``, so ``comparability_constant``
is this gauge and is exact from the target's own gap nodes.

Cost: for ``n`` segments of ``|Z|``, a scan evaluates ``G`` at its ``n + 1``
gaps with one suffix sum and one ``searchsorted``
(``StepQuantile.upper_integral``), so ``dual_norm``, ``dominates`` and
``quantile_density_ratio_bound`` take O(n log n) time and O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrum, StepSpectrum
from .stepdist import PairedSample, StepQuantile, _comonotone_rows, _run_starts

#: dominance margins may undershoot zero by this much and still certify
DOMINANCE_SLACK = 1e-12


@dataclass(frozen=True)
class DualNorm:
    """Value of the dual gauge and the level attaining it.

    ``attaining_alpha`` is ``1 - g`` for the first scanned gap ``g``, the gap
    1 or a tail mass of ``|Z|``, at which the ratio peaks.  The value is exact
    for every valid spectrum, step or not.
    """

    value: float
    attaining_alpha: float


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


def _piece_ends(Z: StepQuantile) -> tuple[StepQuantile, np.ndarray]:
    """``|Z|`` and the descending gaps in (0, 1] at which the scans are exact:
    1 and the tail masses of ``|Z|``, the ends of the pieces where G is linear."""
    z_abs = Z.abs()
    tails = z_abs.tail_masses
    # tail masses are nonincreasing, so dropping equal neighbours dedupes them
    gaps = np.concatenate([np.ones(1), tails[(tails > 0.0) & (tails <= 1.0)]])
    fresh = _run_starts(gaps)
    return z_abs, gaps if fresh is None else gaps[fresh]


def dual_norm(Z: StepQuantile, sigma: Spectrum) -> DualNorm:
    """Dual gauge of ``Z``: sup over levels of (1-a) AVaR_a(|Z|) / S(a)."""
    z_abs, gaps = _piece_ends(Z)
    ratio = z_abs.upper_integral(gaps) / sigma.tail_from_gap(gaps)
    i = int(np.argmax(ratio))
    return DualNorm(float(ratio[i]), float(1.0 - gaps[i]))


def dominates(Z: StepQuantile, sigma: Spectrum, eta: float) -> DominanceCertificate:
    """Certify eta * S(a) >= (1-a) AVaR_a(|Z|) at every level a.

    Margins are gap-normalized, (eta*S(g) - G(g))/g, so the smallest tail
    mass carries the comparison of eta*S(g)/g with esssup|Z| instead of the
    trivial 0 vs 0.  The margin is quasiconcave between tail masses of |Z|,
    so the scan over them is exact.
    """
    if not eta > 0:
        raise ValueError("dominance factor eta must be positive")
    z_abs, gaps = _piece_ends(Z)
    margins = (eta * sigma.tail_from_gap(gaps) - z_abs.upper_integral(gaps)) / gaps
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return DominanceCertificate(worst >= -DOMINANCE_SLACK, float(1.0 - gaps[i]), worst)


def indicator_dual_norm(sigma: Spectrum, p_event: float) -> float:
    """Dual gauge of an event indicator with probability ``p_event``.

    The scan collapses in closed form: the ratio peaks at the indicator's own
    tail gap, giving p / S(1 - p).
    """
    if not 0.0 < p_event <= 1.0:
        raise ValueError("event probability must lie in (0, 1]")
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
    if not isinstance(sigma, StepSpectrum):
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
    tails.  The supremum over each piece between tail masses of |Z| sits at
    its larger gap, where the density is smallest.  The bound is ``inf``
    when sigma vanishes where |Z| does not, and ``OverflowError`` is raised
    when it is finite but beyond the largest double.
    """
    z_abs, gaps = _piece_ends(Z)
    q = z_abs.value_at_gap(gaps)
    dens = sigma.density_from_gap(gaps)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(q == 0.0, 0.0, q / dens)
    bound = float(np.max(ratio))
    if math.isinf(bound) and not ((q > 0.0) & (dens == 0.0)).any():
        raise OverflowError("quantile-to-density ratio bound exceeds the largest double")
    return bound
