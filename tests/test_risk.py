"""Spectral risk evaluation, AVaR, the associated norm, couplings."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.risk import (
    avar,
    coupling_value,
    representation_sup_check,
    semideviation,
    sigma_norm,
    sigma_norm_via_cdf,
    spectral_risk,
    spectral_risk_via_cdf,
)
from riskspace.spectrum import (
    AvarSpectrum,
    InvalidSpectrumError,
    PowerSqrtSpectrum,
    StepSpectrum,
)
from riskspace.stepdist import StepQuantile

FOUR = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])


def seeded_case(seed, max_segments=16):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.05, 0.95, rng.integers(0, 5)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = np.cumsum(rng.uniform(0.1, 2.0, edges.size - 1))
    vals /= np.dot(vals, np.diff(edges))
    sigma = StepSpectrum(edges, vals)
    n = rng.integers(1, max_segments)
    dist = StepQuantile.from_samples(rng.uniform(-10, 10, n))
    return sigma, dist


class TestAvar:
    def test_mean_of_top_half(self):
        assert avar(0.5, FOUR) == 3.5

    def test_level_one_is_esssup(self):
        assert avar(1.0, FOUR) == 4.0

    def test_level_zero_is_mean(self):
        assert avar(0.0, FOUR) == pytest.approx(2.5, abs=1e-15)

    def test_interior_level(self):
        # top 3/8 of mass: values 4 (mass 1/4) and 3 (mass 1/8), averaged
        assert avar(0.625, FOUR) == pytest.approx((4 * 0.25 + 3 * 0.125) / 0.375, abs=1e-14)

    def test_matches_avar_spectrum_risk(self):
        for alpha in (0.0, 0.3, 0.625, 0.99):
            assert spectral_risk(AvarSpectrum(alpha), FOUR) == pytest.approx(
                avar(alpha, FOUR), abs=1e-12
            )


class TestSpectralRisk:
    def test_expectation_spectrum_gives_mean(self):
        flat = StepSpectrum([0.0, 1.0], [1.0])
        assert spectral_risk(flat, FOUR) == pytest.approx(FOUR.mean, abs=1e-15)

    def test_power_sqrt_against_quadrature(self):
        # oracle: integrate u -> sigma(u) F^{-1}(u) piece by piece in mpmath
        risk = spectral_risk(PowerSqrtSpectrum(), FOUR)
        with mpmath.workdps(30):
            pieces = []
            for k, v in enumerate(FOUR.values):
                a, b = mpmath.mpf(k) / 4, mpmath.mpf(k + 1) / 4
                pieces.append(
                    mpmath.quad(lambda u: v / (2 * mpmath.sqrt(1 - u)), [a, b])
                )
            oracle = float(sum(pieces))
        assert risk == pytest.approx(oracle, rel=1e-10)

    def test_cdf_form_agrees_on_signed_values(self):
        sigma = StepSpectrum([0.0, 0.4, 1.0], [0.25, 1.5])
        dist = StepQuantile.from_samples([-7.0, -1.0, 0.0, 2.5])
        assert spectral_risk_via_cdf(sigma, dist) == pytest.approx(
            spectral_risk(sigma, dist), abs=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_methods_agree_on_random_cases(self, seed):
        sigma, dist = seeded_case(seed)
        assert spectral_risk_via_cdf(sigma, dist) == pytest.approx(
            spectral_risk(sigma, dist), abs=1e-9
        )

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_translation_and_scaling(self, seed, c, t):
        sigma, dist = seeded_case(seed)
        base = spectral_risk(sigma, dist)
        assert spectral_risk(sigma, dist.shift(c)) == pytest.approx(base + c, abs=1e-10)
        assert spectral_risk(sigma, dist.scale(t)) == pytest.approx(t * base, abs=1e-9)


class TestSigmaNorm:
    def test_avar_half_of_signed_pair(self):
        dist = StepQuantile.from_samples([-2.0, 1.0])
        assert sigma_norm(AvarSpectrum(0.5), dist) == 2.0

    def test_flat_spectrum_is_l1(self):
        flat = StepSpectrum([0.0, 1.0], [1.0])
        dist = StepQuantile.from_samples([-3.0, 5.0, 0.5])
        assert sigma_norm(flat, dist) == pytest.approx(dist.lp_norm(1.0), abs=1e-14)

    def test_cdf_variant(self):
        sigma = StepSpectrum([0.0, 0.5, 1.0], [0.2, 1.8])
        dist = StepQuantile.from_samples([-1.0, 4.0])
        assert sigma_norm_via_cdf(sigma, dist) == pytest.approx(
            sigma_norm(sigma, dist), abs=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_dominates_l1(self, seed):
        sigma, dist = seeded_case(seed)
        assert sigma_norm(sigma, dist) >= dist.lp_norm(1.0) - 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_hoelder_bound(self, seed):
        sigma, dist = seeded_case(seed)
        for q in (1.5, 2.0, 4.0):
            p = q / (q - 1.0)
            assert sigma_norm(sigma, dist) <= sigma.lq_norm(q) * dist.lp_norm(p) + 1e-9


class TestCouplings:
    def test_identity_order_attains_risk(self):
        sigma = AvarSpectrum(0.25)
        dist = StepQuantile.from_samples([1.0, 5.0, 9.0])
        value = coupling_value(sigma, dist, np.arange(3))
        assert value == pytest.approx(spectral_risk(sigma, dist), abs=1e-12)

    def test_shuffles_never_beat_sorted(self):
        sigma = AvarSpectrum(0.25)
        dist = StepQuantile.from_samples([1.0, 5.0, 9.0])
        best = spectral_risk(sigma, dist)
        for order in ([1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]):
            assert coupling_value(sigma, dist, np.array(order)) <= best + 1e-12

    def test_representation_report(self):
        sigma, dist = seeded_case(11)
        report = representation_sup_check(sigma, dist, couplings=32, seed=3)
        assert report.method == "comonotone-sup"
        assert abs(report.residual) <= 1e-9
        assert report.value == pytest.approx(spectral_risk(sigma, dist), abs=1e-9)


class TestSemideviation:
    def test_hand_value(self):
        dist = StepQuantile.from_samples([0.0, 2.0])
        result = semideviation(dist, p=1.0, lam=1.0)
        assert result.value == pytest.approx(1.5, abs=1e-15)
        assert result.pnorm_bound == pytest.approx(2.0, abs=1e-15)

    def test_loading_domain(self):
        with pytest.raises(ValueError):
            semideviation(FOUR, p=2.0, lam=0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_loaded_pnorm_for_nonnegative(self, seed, lam):
        rng = np.random.default_rng(seed)
        dist = StepQuantile.from_samples(rng.uniform(0, 10, rng.integers(1, 12)))
        result = semideviation(dist, p=2.0, lam=lam)
        assert result.value <= result.pnorm_bound + 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSemideviationRangeEdge:
    @staticmethod
    def _exact(values, masses, p, lam):
        # mean plus lam times the p-norm of the excess, at 200 bits
        with mpmath.workprec(200):
            v = [mpmath.mpf(x) for x in values]
            m = [mpmath.mpf(x) for x in masses]
            mu = sum(a * b for a, b in zip(v, m))
            semi = sum(w * max(a - mu, 0) ** p for a, w in zip(v, m)) ** (mpmath.mpf(1) / p)
            norm = sum(w * abs(a) ** p for a, w in zip(v, m)) ** (mpmath.mpf(1) / p)
            return float(mu + lam * semi), float((1 + mpmath.mpf(lam)) * norm)

    @pytest.mark.parametrize(
        "values, masses",
        [([-1.7e308, 0.9e308], [0.9, 0.1]), ([-1.7e308, 1.7e308], [1e-10, 1.0 - 1e-10])],
    )
    def test_excess_beyond_the_double_range(self, values, masses):
        # values - mean leaves the double range upward in the first law and
        # downward in the second, yet the value and the bound are finite
        result = semideviation(StepQuantile(values, masses), 2.0, 0.05)
        assert all(math.isfinite(x) for x in result)
        value, bound = self._exact(values, masses, 2, 0.05)
        assert result.value == pytest.approx(value, rel=1e-15)
        assert result.pnorm_bound == pytest.approx(bound, rel=1e-15)

    def test_bound_beyond_the_double_range_overflows(self):
        # (1 + lam) ||Y||_2 = 1.5 * 1.7e308 is finite but beyond the largest double
        with pytest.raises(OverflowError, match="largest double"):
            semideviation(StepQuantile([-1.7e308, 1.7e308], [0.5, 0.5]), 2.0, 0.5)


class TestDomainChecks:
    def test_invalid_spectrum_rejected(self):
        # validity is checked once, when the spectrum is built, so a
        # decreasing density never reaches spectral_risk
        with pytest.raises(InvalidSpectrumError, match="monotonicity"):
            StepSpectrum([0.0, 0.5, 1.0], [1.5, 0.5])

    def test_avar_level_domain(self):
        with pytest.raises(ValueError):
            avar(1.5, FOUR)
        with pytest.raises(ValueError):
            avar(-0.1, FOUR)
