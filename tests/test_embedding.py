"""Comparability constants between spectral norms and the AVaR sandwich."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.embedding import (
    EmbeddingConstant,
    avar_sandwich_check,
    comparability_constant,
    identity_norm,
    sharpness_witness,
)
from riskspace.risk import sigma_norm
from riskspace.spectrum import (
    AvarSpectrum,
    GeneralSpectrum,
    PowerSqrtSpectrum,
    StepSpectrum,
)
from riskspace.stepdist import StepQuantile

FLAT = StepSpectrum([0.0, 1.0], [1.0])


def random_step(rng):
    cuts = np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 5)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = np.cumsum(rng.uniform(0.1, 2.0, edges.size - 1))
    vals /= np.dot(vals, np.diff(edges))
    return StepSpectrum(edges, vals)


def grid_ratio_sup(source, target, n=10_001):
    gaps = np.linspace(0.0, 1.0, n)[1:]
    for s in (source, target):
        if s.is_step:
            kinks = 1.0 - s.breakpoints
            gaps = np.concatenate([gaps, kinks[(kinks > 0) & (kinks <= 1)]])
    gaps = np.unique(gaps)
    s1 = np.asarray(source.tail_from_gap(gaps), dtype=float)
    s2 = np.asarray(target.tail_from_gap(gaps), dtype=float)
    return float(np.max(s2 / s1))


class TestPairwiseConstants:
    def test_avar_pair_hand_value(self):
        result = comparability_constant(AvarSpectrum(0.5), AvarSpectrum(0.9))
        # bit-equal to the defining ratio of gaps; the level 0.9 itself is
        # one ulp off a tenth in binary, so decimal 5 is matched to 2 ulp
        assert result.value == (1.0 - 0.5) / (1.0 - 0.9)
        assert result.value == pytest.approx(5.0, abs=2e-15)
        assert result.attaining_alpha == 0.9
        assert not result.limit_unverified

    def test_avar_pair_with_representable_gaps_is_literal(self):
        assert comparability_constant(AvarSpectrum(0.5), AvarSpectrum(0.75)).value == 2.0

    def test_mean_controls_avar(self):
        result = comparability_constant(FLAT, AvarSpectrum(0.5))
        assert result.value == 2.0

    def test_power_sqrt_controls_every_avar(self):
        result = comparability_constant(PowerSqrtSpectrum(), AvarSpectrum(0.75))
        assert result.value == pytest.approx(2.0, abs=1e-12)

    def test_no_avar_controls_power_sqrt(self):
        result = comparability_constant(AvarSpectrum(0.75), PowerSqrtSpectrum())
        assert math.isinf(result.value)
        assert result.attaining_alpha == 1.0

    def test_every_spectrum_controls_the_mean(self):
        # S(a) >= 1 - a always, so the constant against the flat target is 1
        for sigma in (AvarSpectrum(0.3), PowerSqrtSpectrum()):
            assert comparability_constant(sigma, FLAT).value == pytest.approx(1.0, abs=1e-12)

    def test_self_comparison_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sigma = random_step(rng)
            assert comparability_constant(sigma, sigma).value == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            source, target = random_step(rng), random_step(rng)
            exact = comparability_constant(source, target)
            assert exact.value == pytest.approx(grid_ratio_sup(source, target), abs=1e-9)
            assert not exact.limit_unverified

    def test_general_spectra_get_flagged(self):
        sqrt_like = GeneralSpectrum(
            density_fn=lambda u: 0.5 / np.sqrt(1.0 - u),
            q_exponent=2.0,
            gap_tail_fn=np.sqrt,
            density_sup=math.inf,
            tail_order=0.5,
            tail_coeff=1.0,
        )
        result = comparability_constant(sqrt_like, AvarSpectrum(0.75))
        assert result.limit_unverified
        assert result.value == pytest.approx(2.0, rel=1e-9)

    def test_general_gap_form_stays_below_the_true_sup(self):
        # S(1 - g) / g = (2 - g/2) / 1.5 rises to 4/3 as g -> 0; the fallback
        # mesh reaches g = 1e-12, where a level-form tail read at 1 - g gave
        # 1.333395355618737, above the supremum
        rising = GeneralSpectrum(
            density_fn=lambda u: (1.0 + u) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
        )
        result = comparability_constant(FLAT, rising)
        assert 4.0 / 3.0 * (1.0 - 1e-12) <= result.value <= 4.0 / 3.0
        assert result.limit_unverified

    def test_declared_limit_against_the_scan(self):
        # a finite limit below the scanned sup loses: S_avar / sqrt(g) -> 0
        assert comparability_constant(PowerSqrtSpectrum(), AvarSpectrum(0.75)) == (
            EmbeddingConstant(2.0, 0.75, False)
        )
        # sigma(u) = (1 + u) / 1.5 has S(1 - g) / g = (2 - g/2) / 1.5 < 4/3 on
        # every scanned gap, so its declared limit sigma(1-) = 4/3 wins at level 1
        rising = GeneralSpectrum(
            density_fn=lambda u: (1.0 + u) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
            density_sup=4.0 / 3.0,
            tail_order=1.0,
            tail_coeff=4.0 / 3.0,
        )
        assert comparability_constant(FLAT, rising) == EmbeddingConstant(4.0 / 3.0, 1.0, True)
        # undeclared asymptotics make the limit -inf: the scanned sup stands
        sqrt_bare = GeneralSpectrum(
            density_fn=lambda u: 0.5 / np.sqrt(1.0 - u),
            q_exponent=2.0,
            gap_tail_fn=np.sqrt,
        )
        assert comparability_constant(sqrt_bare, AvarSpectrum(0.75)) == (
            EmbeddingConstant(2.0, 0.75, True)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_constant_bounds_actual_norm_ratios(self, seed):
        rng = np.random.default_rng(seed)
        source, target = random_step(rng), random_step(rng)
        c = comparability_constant(source, target).value
        dist = StepQuantile.from_samples(rng.uniform(-5, 5, rng.integers(1, 10)))
        assert sigma_norm(target, dist) <= c * sigma_norm(source, dist) + 1e-9


class TestSharpness:
    def test_avar_pair_witness(self):
        witness = sharpness_witness(AvarSpectrum(0.5), AvarSpectrum(0.9), 0.95)
        assert witness == pytest.approx(5.0, abs=1e-12)

    def test_witness_never_beats_the_constant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            source, target = random_step(rng), random_step(rng)
            c = comparability_constant(source, target).value
            for level in rng.uniform(0.01, 0.99, 5):
                assert sharpness_witness(source, target, level) <= c + 1e-12

    def test_witness_attains_at_the_reported_level(self):
        source, target = AvarSpectrum(0.5), AvarSpectrum(0.9)
        best = comparability_constant(source, target)
        assert sharpness_witness(source, target, best.attaining_alpha) == best.value

    def test_level_domain(self):
        with pytest.raises(ValueError):
            sharpness_witness(FLAT, FLAT, 1.0)


class TestIdentityNorm:
    def test_singleton_sets_reduce_to_the_pairwise_constant(self):
        value = identity_norm([AvarSpectrum(0.5)], [AvarSpectrum(0.9)])
        assert value == comparability_constant(AvarSpectrum(0.5), AvarSpectrum(0.9)).value

    def test_covering_member_wins(self):
        # the target already sits in the source set, so the identity costs 1
        value = identity_norm([AvarSpectrum(0.5), AvarSpectrum(0.9)], [AvarSpectrum(0.9)])
        assert value == 1.0

    def test_worst_target_decides(self):
        value = identity_norm(
            [AvarSpectrum(0.5)], [AvarSpectrum(0.6), AvarSpectrum(0.9)]
        )
        assert value == pytest.approx(5.0, abs=1e-12)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            identity_norm([], [FLAT])
        with pytest.raises(ValueError):
            identity_norm([FLAT], [])


class TestSandwich:
    def test_worked_example(self):
        dist = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        report = avar_sandwich_check(0.5, 0.75, dist)
        assert report.avar_lo == 3.5
        assert report.avar_hi == 4.0
        assert report.upper_bound == 7.0
        assert report.holds

    def test_magnitudes_are_compared(self):
        # the check runs on |Y|, so signs do not break monotonicity
        report = avar_sandwich_check(0.0, 0.5, StepQuantile.from_samples([-4.0, 1.0]))
        assert report.avar_lo == 2.5
        assert report.avar_hi == 4.0
        assert report.holds

    def test_level_order_enforced(self):
        dist = StepQuantile.from_samples([1.0])
        with pytest.raises(ValueError):
            avar_sandwich_check(0.8, 0.5, dist)
        with pytest.raises(ValueError):
            avar_sandwich_check(0.5, 1.0, dist)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.95), st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_always_holds_on_step_data(self, seed, a, b):
        rng = np.random.default_rng(seed)
        dist = StepQuantile.from_samples(rng.uniform(-5, 5, rng.integers(1, 10)))
        report = avar_sandwich_check(min(a, b), max(a, b), dist)
        assert report.holds
