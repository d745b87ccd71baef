"""Dual gauge: closed-form values, certificates, attaining elements."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.dual import (
    dominates,
    dual_norm,
    hahn_banach_witness,
    indicator_dual_norm,
    pairing,
    quantile_density_ratio_bound,
)
from riskspace.risk import sigma_norm
from riskspace.spectrum import (
    AvarSpectrum,
    GeneralSpectrum,
    PowerSqrtSpectrum,
    StepSpectrum,
)
from riskspace.stepdist import PairedSample, StepQuantile

FLAT = StepSpectrum([0.0, 1.0], [1.0])


def indicator(p):
    return StepQuantile(np.array([0.0, 1.0]), np.array([1.0 - p, p]))


def random_step(rng):
    cuts = np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 5)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = np.cumsum(rng.uniform(0.1, 2.0, edges.size - 1))
    vals /= np.dot(vals, np.diff(edges))
    return StepSpectrum(edges, vals)


def grid_ratio_sup(Z, sigma, n=10_001):
    # brute-force oracle: (1-a) AVaR_a(|Z|) / S(a) on a fine gap grid.
    # The sup sits at a kink, so the grid includes both families of kinks;
    # a purely uniform grid is a lower bound with O(1/n) error.
    z_abs = Z.abs()
    gaps = np.linspace(0.0, 1.0, n)[1:]
    kinks = np.concatenate([z_abs.tail_masses, 1.0 - sigma.breakpoints])
    gaps = np.unique(np.concatenate([gaps, kinks[(kinks > 0) & (kinks <= 1)]]))
    G = z_abs.upper_integral(gaps)
    S = np.asarray(sigma.tail_from_gap(gaps), dtype=float)
    return float(np.max(G / S))


class TestIndicatorDual:
    def test_avar_half_event_quarter(self):
        assert indicator_dual_norm(AvarSpectrum(0.5), 0.25) == 0.5

    def test_power_sqrt_event_quarter(self):
        assert indicator_dual_norm(PowerSqrtSpectrum(), 0.25) == 0.5

    def test_flat_spectrum_gives_one(self):
        for p in (0.05, 0.5, 1.0):
            assert indicator_dual_norm(FLAT, p) == 1.0

    def test_matches_general_scan(self):
        rng = np.random.default_rng(7)
        spectra = [AvarSpectrum(0.5), PowerSqrtSpectrum()] + [
            random_step(rng) for _ in range(3)
        ]
        for sigma in spectra:
            for p in np.arange(0.05, 1.0, 0.1):
                closed = indicator_dual_norm(sigma, p)
                assert closed == pytest.approx(dual_norm(indicator(p), sigma).value, abs=1e-12)
                assert p - 1e-12 <= closed <= 1.0 + 1e-12

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            indicator_dual_norm(FLAT, 0.0)


class TestDualNorm:
    def test_constant_under_flat_spectrum(self):
        result = dual_norm(StepQuantile.from_samples([3.0]), FLAT)
        assert result.value == 3.0
        assert result.attaining_alpha == 0.0
        assert not result.limit_unverified

    def test_spectrum_quantile_is_self_dual(self):
        # Z distributed as sigma(U) saturates the gauge at exactly 1
        rng = np.random.default_rng(21)
        for _ in range(5):
            sigma = random_step(rng)
            mids = (sigma.breakpoints[:-1] + sigma.breakpoints[1:]) / 2
            Z = StepQuantile(sigma.density(mids), np.diff(sigma.breakpoints))
            assert dual_norm(Z, sigma).value == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = random_step(rng)
            Z = StepQuantile.from_samples(rng.uniform(-4, 4, rng.integers(1, 9)))
            exact = dual_norm(Z, sigma).value
            grid = grid_ratio_sup(Z, sigma)
            assert exact >= grid - 1e-12
            assert exact == pytest.approx(grid, abs=1e-9)

    def test_unbounded_density_kills_the_limit(self):
        result = dual_norm(indicator(0.25), PowerSqrtSpectrum())
        assert result.value == 0.5
        assert result.attaining_alpha == 0.75
        assert not result.limit_unverified

    def test_undeclared_asymptotics_flagged(self):
        sigma = GeneralSpectrum(
            density_fn=lambda u: 0.5 / np.sqrt(1.0 - u),
            tail_fn=lambda a: np.sqrt(1.0 - a),
            q_exponent=2.0,
            gap_tail_fn=np.sqrt,
        )
        result = dual_norm(indicator(0.25), sigma)
        assert result.limit_unverified
        assert result.value == pytest.approx(0.5, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, seed, t):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        Z = StepQuantile.from_samples(rng.uniform(-4, 4, rng.integers(1, 9)))
        assert dual_norm(Z.scale(t), sigma).value == pytest.approx(
            t * dual_norm(Z, sigma).value, rel=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_triangle_for_comonotone_sums(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        n = int(rng.integers(1, 9))
        a = np.sort(rng.uniform(-4, 4, n))
        b = np.sort(rng.uniform(-4, 4, n))
        lhs = dual_norm(StepQuantile.from_samples(a + b), sigma).value
        rhs = (
            dual_norm(StepQuantile.from_samples(a), sigma).value
            + dual_norm(StepQuantile.from_samples(b), sigma).value
        )
        assert lhs <= rhs + 1e-10


class TestDominance:
    def test_certifies_at_the_gauge_value(self):
        Z = indicator(0.25)
        sigma = AvarSpectrum(0.5)
        cert = dominates(Z, sigma, 0.5)
        assert cert.holds
        assert cert.margin == pytest.approx(0.0, abs=1e-12)

    def test_fails_below_the_gauge_value(self):
        cert = dominates(indicator(0.25), AvarSpectrum(0.5), 0.5 * (1.0 - 1e-6))
        assert not cert.holds
        assert cert.margin < 0
        assert cert.witness_alpha == pytest.approx(0.75, abs=1e-12)

    def test_strict_dominance_has_positive_margin(self):
        cert = dominates(indicator(0.25), AvarSpectrum(0.5), 0.7)
        assert cert.holds
        assert cert.margin > 0

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            dominates(indicator(0.5), FLAT, 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_dual_norm(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        Z = StepQuantile.from_samples(rng.uniform(-4, 4, rng.integers(1, 9)))
        value = dual_norm(Z, sigma).value
        assert dominates(Z, sigma, value * (1.0 + 1e-9) + 1e-12).holds
        if value > 1e-6:
            assert not dominates(Z, sigma, value * (1.0 - 1e-6)).holds


class TestPairingAndWitness:
    def test_pairing_is_the_weighted_dot(self):
        sample = PairedSample(
            np.array([1.0, 2.0]), np.array([0.0, 2.0]), np.array([0.5, 0.5])
        )
        assert pairing(sample) == 2.0

    def test_witness_attains_the_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sigma = random_step(rng)
            dist = StepQuantile.from_samples(rng.uniform(-5, 5, rng.integers(1, 10)))
            sample = hahn_banach_witness(sigma, dist)
            assert pairing(sample) == pytest.approx(sigma_norm(sigma, dist), abs=1e-10)

    def test_witness_dual_marginal_has_gauge_one(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            sigma = random_step(rng)
            dist = StepQuantile.from_samples(rng.uniform(-5, 5, rng.integers(1, 10)))
            sample = hahn_banach_witness(sigma, dist)
            Z = StepQuantile.from_samples(sample.z, sample.w)
            assert dual_norm(Z, sigma).value == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_spectra_have_no_witness(self):
        with pytest.raises(TypeError):
            hahn_banach_witness(PowerSqrtSpectrum(), StepQuantile.from_samples([1.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hoelder_on_random_joints(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        n = int(rng.integers(1, 10))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        sample = PairedSample(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), w)
        bound = sigma_norm(sigma, StepQuantile.from_samples(sample.y, sample.w))
        gauge = dual_norm(StepQuantile.from_samples(sample.z, sample.w), sigma).value
        assert abs(pairing(sample)) <= bound * gauge + 1e-9


class TestQuantileDensityRatio:
    def test_indicator_under_avar(self):
        assert quantile_density_ratio_bound(indicator(0.25), AvarSpectrum(0.5)) == 0.5

    def test_constant_under_flat(self):
        assert quantile_density_ratio_bound(StepQuantile.from_samples([3.0]), FLAT) == 3.0

    def test_infinite_when_support_leaks_past_the_spectrum(self):
        # constant payoffs need sigma > 0 everywhere; AVaR density vanishes early
        bound = quantile_density_ratio_bound(
            StepQuantile.from_samples([1.0]), AvarSpectrum(0.5)
        )
        assert math.isinf(bound)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pointwise_bound_implies_dominance(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        Z = StepQuantile.from_samples(rng.uniform(-4, 4, rng.integers(1, 9)))
        bound = quantile_density_ratio_bound(Z, sigma)
        if math.isfinite(bound) and bound > 0:
            assert dominates(Z, sigma, bound * (1.0 + 1e-12)).holds
            assert dual_norm(Z, sigma).value <= bound + 1e-12


class TestScale:
    # the kink scans hold O(n + m) floats: a 10^5-segment payoff stays far
    # below the 74.5 GiB an n_gaps x n_segments overlap matrix would need
    SEGMENTS = 100_000
    PEAK_LIMIT = 64 * 2**20

    def payoff(self):
        rng = np.random.default_rng(7)
        return StepQuantile.from_samples(
            rng.standard_t(3.0, self.SEGMENTS), rng.uniform(0.5, 2.0, self.SEGMENTS)
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.999])
    def test_avar_gauge_in_linear_memory(self, alpha):
        Z = self.payoff()
        sigma = AvarSpectrum(alpha)
        z_abs = Z.abs()
        expected = max(z_abs.mean, (1.0 - alpha) * z_abs.max_value)
        tracemalloc.start()
        try:
            dual = dual_norm(Z, sigma)
            above = dominates(Z, sigma, dual.value * (1.0 + 1e-9))
            below = dominates(Z, sigma, dual.value * (1.0 - 1e-6))
            ratio = quantile_density_ratio_bound(Z, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_LIMIT
        assert dual.value == pytest.approx(expected, rel=1e-10, abs=1e-10)
        assert above.holds and not below.holds
        # sigma(u) = 1 everywhere at alpha = 0; otherwise it vanishes below alpha
        assert ratio == (z_abs.max_value if alpha == 0.0 else math.inf)

    def test_step_spectrum_in_linear_memory(self):
        Z = self.payoff()
        sigma = StepSpectrum(np.linspace(0.0, 1.0, 65), np.linspace(0.5, 1.5, 64))
        tracemalloc.start()
        try:
            dual = dual_norm(Z, sigma)
            ratio = quantile_density_ratio_bound(Z, sigma)
            holds = dominates(Z, sigma, ratio * (1.0 + 1e-12)).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_LIMIT
        assert math.isfinite(ratio) and holds
        assert dual.value <= ratio + 1e-12
