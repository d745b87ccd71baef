"""Comparability of spectral norms and identity-map bounds between them.

Two spectra are compared through their tail weights: the best constant in
``||Y||_target <= c ||Y||_source`` is ``sup S_target / S_source`` over the
levels, and the sup is attained (or approached) on event indicators.  The
ratio is scanned exactly at the union of kink gaps whenever both
spectra declare ``kink_gaps``; the remaining ``a -> 1`` behaviour is an
order comparison of the declared tail asymptotics: a slower tail decay in
the target forces the constant to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .risk import avar
from .spectrum import Spectrum, scan_gaps
from .stepdist import StepQuantile

#: AVaR sandwich inequalities may undershoot by this much and still certify
SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class EmbeddingConstant:
    """Best constant of one spectral norm against another.

    ``attaining_alpha`` locates the supremum of the tail-weight ratio, with
    1.0 standing for the ``a -> 1`` limit.  ``limit_unverified`` marks
    constants that relied on grid sampling: general spectra carry no
    breakpoint structure for the exact scan, and without declared tail
    asymptotics the limit itself is unverifiable.
    """

    value: float
    attaining_alpha: float
    limit_unverified: bool = False


@dataclass(frozen=True)
class SandwichReport:
    """AVaR level monotonicity check with its multiplicative converse."""

    avar_lo: float
    avar_hi: float
    upper_bound: float
    holds: bool


def comparability_constant(source: Spectrum, target: Spectrum) -> EmbeddingConstant:
    """Smallest c with ||Y||_target <= c ||Y||_source, as sup of tail ratios.

    Exact for step and square-root spectra: between breakpoint gaps the
    ratio is a Moebius function of the gap (or quasiconvex against the
    square-root tail), so it peaks at the scanned ends, and the one shape
    with interior peaks is exactly the one whose limit is already infinite.
    """
    source.require_valid()
    target.require_valid()
    o1, k1 = source.tail_order, source.tail_coeff
    o2, k2 = target.tail_order, target.tail_coeff
    dense = source.kink_gaps is None or target.kink_gaps is None
    if None in (o1, k1, o2, k2):
        dense = True
        limit = -math.inf
    elif o2 < o1:
        limit = math.inf
    elif o2 > o1:
        limit = 0.0
    elif k1 == 0.0:
        limit = math.inf if k2 > 0 else 0.0
    else:
        limit = k2 / k1
    gaps = scan_gaps((source, target), dense=dense)
    ratio = target.tail_from_gap(gaps) / source.tail_from_gap(gaps)
    i = int(np.argmax(ratio))
    if limit > ratio[i]:
        return EmbeddingConstant(limit, 1.0, dense)
    return EmbeddingConstant(float(ratio[i]), float(1.0 - gaps[i]), dense)


def sharpness_witness(source: Spectrum, target: Spectrum, level: float) -> float:
    """Norm ratio S_target(level)/S_source(level) of an indicator witness.

    The indicator of the upper-tail event of probability ``1 - level`` has
    norm S(level) under either spectrum, so sweeping the level toward the
    attaining point exhibits the comparability constant as sharp.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("witness level must lie in (0, 1)")
    source.require_valid()
    target.require_valid()
    return float(target.tail_from_gap(1.0 - level) / source.tail_from_gap(1.0 - level))


def identity_norm(source_set, target_set) -> float:
    """Bound on the identity map between sup-norms of two spectrum sets.

    Each target member needs only its best source member to control it, so
    max over targets of min over sources of the pairwise constant bounds the
    identity norm between the sup-generated spaces.
    """
    sources = tuple(source_set)
    targets = tuple(target_set)
    if not sources or not targets:
        raise ValueError("spectrum sets must be nonempty")
    worst = 0.0
    for tgt in targets:
        best = math.inf
        for src in sources:
            best = min(best, comparability_constant(src, tgt).value)
            if best == 0.0:
                break
        worst = max(worst, best)
    return float(worst)


def avar_sandwich_check(alpha_lo: float, alpha_hi: float, dist: StepQuantile) -> SandwichReport:
    """Check AVaR_lo(|Y|) <= AVaR_hi(|Y|) <= ((1-lo)/(1-hi)) AVaR_lo(|Y|)."""
    if not 0.0 <= alpha_lo <= alpha_hi < 1.0:
        raise ValueError("need levels 0 <= alpha_lo <= alpha_hi < 1")
    mag = dist.abs()
    lo = avar(alpha_lo, mag)
    hi = avar(alpha_hi, mag)
    bound = (1.0 - alpha_lo) / (1.0 - alpha_hi) * lo
    holds = lo <= hi + SANDWICH_SLACK and hi <= bound + SANDWICH_SLACK
    return SandwichReport(lo, hi, bound, holds)
