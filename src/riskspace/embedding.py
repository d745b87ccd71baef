"""Comparability of spectral norms and identity-map bounds between them.

The best constant in ``||Y||_target <= c ||Y||_source`` is
``c = sup S_target / S_source`` over the levels, approached on event
indicators.  ``S_target(1 - g)`` is the top-``g`` integral of
``sigma_target(U)``, so ``c`` is that variable's dual gauge under the
source, and the lemma of the ``dual`` module applies: a step target's
``S_target`` is linear between its gap nodes with a nonnegative intercept,
the source's is concave, so the ratio peaks at a node, whatever the source.
Another target is scanned on ``FALLBACK_GAPS``; its ``a -> 1`` limit is
``sigma_target(1-) / sigma_source(1-)`` by l'Hopital, read from the two
``density_sup`` and undetermined when either is undeclared or both are
infinite.  Such a result is exact only when that limit is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .risk import avar
from .spectrum import FALLBACK_GAPS, Spectrum, StepSpectrum
from .stepdist import StepQuantile

#: AVaR sandwich inequalities may undershoot by this much and still certify
SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class EmbeddingConstant:
    """Best constant of one spectral norm against another.

    ``attaining_alpha`` locates the supremum of the tail-weight ratio, with
    1.0 standing for the ``a -> 1`` limit.  ``limit_unverified`` marks a
    mesh lower bound: the target is not a step spectrum and the
    l'Hopital limit ``sigma_target(1-) / sigma_source(1-)`` is finite or
    undetermined.  Against a step target, an infinite limit, or the source
    itself, the constant is exact.
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

    Exact for a step target (scanned at its positive gap nodes only), for an
    infinite l'Hopital limit, and for ``c(sigma, sigma) = 1``; otherwise a
    mesh lower bound flagged ``limit_unverified``.
    """
    if source == target:
        return EmbeddingConstant(1.0, 0.0)
    limit, unverified = -math.inf, False
    if isinstance(target, StepSpectrum):
        gaps = target.kink_gaps[:0:-1]
    else:
        gaps = FALLBACK_GAPS
        sups = (source.density_sup, target.density_sup)
        # undetermined when undeclared or infinite over infinite
        if None not in sups and not math.isinf(min(sups)):
            limit = sups[1] / sups[0]
        unverified = limit < math.inf
    ratio = target.tail_from_gap(gaps) / source.tail_from_gap(gaps)
    i = int(np.argmax(ratio))
    if limit > ratio[i]:
        return EmbeddingConstant(limit, 1.0, unverified)
    return EmbeddingConstant(float(ratio[i]), float(1.0 - gaps[i]), unverified)


def sharpness_witness(source: Spectrum, target: Spectrum, level: float) -> float:
    """Norm ratio S_target(level)/S_source(level) of an indicator witness.

    The indicator of the upper-tail event of probability ``1 - level`` has
    norm S(level) under either spectrum, so sweeping the level toward the
    attaining point exhibits the comparability constant as sharp.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("witness level must lie in (0, 1)")
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
    """Check AVaR_lo(|Y|) <= AVaR_hi(|Y|) <= ((1-lo)/(1-hi)) AVaR_lo(|Y|).

    ``OverflowError`` when the upper bound is beyond the largest double.
    """
    if not 0.0 <= alpha_lo <= alpha_hi < 1.0:
        raise ValueError("need levels 0 <= alpha_lo <= alpha_hi < 1")
    mag = dist.abs()
    lo = avar(alpha_lo, mag)
    hi = avar(alpha_hi, mag)
    bound = (1.0 - alpha_lo) / (1.0 - alpha_hi) * lo
    if math.isinf(bound):
        raise OverflowError("AVaR sandwich bound exceeds the largest double")
    holds = lo <= hi + SANDWICH_SLACK and hi <= bound + SANDWICH_SLACK
    return SandwichReport(lo, hi, bound, holds)
