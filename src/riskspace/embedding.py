"""Comparability of spectral norms and identity-map bounds between them.

The best constant in ``||Y||_target <= c ||Y||_source`` is
``c = sup S_target / S_source`` over the levels, approached on event
indicators.  ``S_target(1 - g)`` is the top-``g`` integral of
``sigma_target(U)``, so ``c`` is that variable's dual gauge under the
source, and the lemma of the ``dual`` module applies: a step target's
``S_target`` is linear between its gap nodes with a nonnegative intercept,
the source's is concave, so the ratio peaks at a node, whatever the source.
The result is the gauge's own record, ``DualNorm``; ``EmbeddingConstant``
is another name for that class.  A target that is not a step spectrum has
an exact constant in one case: its ``density_sup`` is infinite and the
source's finite, so the ``a -> 1`` limit ``sigma_target(1-) /
sigma_source(1-)`` (l'Hopital) is infinite.  Every other pair raises
``TypeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualNorm
from .kusuoka import _spectrum_set
from .risk import avar
from .spectrum import Spectrum, StepSpectrum
from .stepdist import StepQuantile

#: AVaR sandwich inequalities may undershoot by this much and still certify
SANDWICH_SLACK = 1e-12

#: the best constant between two spectral norms is a dual gauge
EmbeddingConstant = DualNorm


@dataclass(frozen=True)
class SandwichReport:
    """AVaR level monotonicity check with its multiplicative converse."""

    avar_lo: float
    avar_hi: float
    upper_bound: float
    holds: bool


def comparability_constant(source: Spectrum, target: Spectrum) -> DualNorm:
    """Smallest c with ||Y||_target <= c ||Y||_source, as sup of tail ratios.

    Exact in three cases: ``c(sigma, sigma) = 1``, a step target (scanned at
    its positive gap nodes only), and an unbounded target over a bounded
    source (``inf`` at level 1).  ``TypeError`` for every other pair.
    ``c(sigma, sigma)`` needs equal dataclasses: the same object, or two
    ``PowerSqrtSpectrum``s; no code can prove two declared closed forms equal.
    """
    if source == target:
        return DualNorm(1.0, 0.0)
    if isinstance(target, StepSpectrum):
        gaps = target.kink_gaps[:0:-1]
        ratio = target.tail_from_gap(gaps) / source.tail_from_gap(gaps)
        i = int(np.argmax(ratio))
        return DualNorm(float(ratio[i]), float(1.0 - gaps[i]))
    sup = source.density_sup
    if target.density_sup == math.inf and sup is not None and sup < math.inf:
        return DualNorm(math.inf, 1.0)
    raise TypeError(
        f"comparability from {type(source).__name__} to {type(target).__name__} is exact "
        "only for a spectrum against itself, a step target (apply step_approx) or an "
        "unbounded target over a bounded source"
    )


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
    sources = _spectrum_set(source_set)
    return max(
        min(comparability_constant(src, tgt).value for src in sources)
        for tgt in _spectrum_set(target_set)
    )


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
