"""Separation constructions: Lp escape, bounded-risk unbounded stacks, L1 blowup."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import special

from riskspace.extremal import (
    heavy_tail_quantile,
    l1_divergence_demo,
    linf_escape,
    linf_risk_bound,
    lp_escape,
    lp_escape_limit,
    step_density_approx,
)
from riskspace.risk import sigma_norm, spectral_risk
from riskspace.spectrum import AvarSpectrum, GeneralSpectrum, PowerSqrtSpectrum, StepSpectrum
from riskspace.stepdist import StepQuantile
from support import sqrt_tail_power

FLAT = StepSpectrum([0.0, 1.0], [1.0])
SQRT2 = math.sqrt(2.0)


class TestLpEscape:
    def test_single_band_sums_coincide(self):
        esc = lp_escape(PowerSqrtSpectrum(), 1.5, 1)
        expected = SQRT2 / float(special.zeta(4.0))
        assert esc.predicted_risk == pytest.approx(expected, rel=1e-12)
        assert esc.lp_partial == pytest.approx(expected, rel=1e-12)

    def test_limit_against_mpmath(self):
        with mpmath.workdps(30):
            oracle = float(mpmath.sqrt(2) * mpmath.zeta(3) / mpmath.zeta(4))
        assert lp_escape_limit(PowerSqrtSpectrum(), 1.5) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("q", [2.0, 2.5])
    def test_limit_needs_an_integrable_power(self, q):
        # sigma**q is integrable for power-sqrt only below q = 2
        with pytest.raises(ValueError, match="not integrable"):
            lp_escape_limit(PowerSqrtSpectrum(), q)

    def test_risks_climb_toward_the_limit(self):
        sigma = PowerSqrtSpectrum()
        limit = lp_escape_limit(sigma, 1.5)
        last_pred, last_risk = 0.0, 0.0
        for depth in (1, 10, 100):
            esc = lp_escape(sigma, 1.5, depth)
            risk = spectral_risk(sigma, esc.dist)
            assert esc.predicted_risk >= last_pred
            assert risk >= last_risk
            # each band piece reads the density at its shallow edge, so the
            # built risk sits below the aligned series
            assert risk <= esc.predicted_risk + 1e-12
            assert esc.predicted_risk <= limit + 1e-12
            last_pred, last_risk = esc.predicted_risk, risk

    def test_partial_power_passes_any_threshold(self):
        # harmonic growth: threshold 5 K / zeta(4) falls by N = 100
        esc = lp_escape(PowerSqrtSpectrum(), 1.5, 100)
        assert esc.lp_partial > 5.0 * SQRT2 / float(special.zeta(4.0))

    def test_partial_power_is_the_harmonic_sum(self):
        esc = lp_escape(PowerSqrtSpectrum(), 1.5, 50)
        harmonic = sum(1.0 / n for n in range(1, 51))
        assert esc.lp_partial == pytest.approx(SQRT2 / float(special.zeta(4.0)) * harmonic, rel=1e-12)

    def test_step_spectra_build_the_series_exactly(self):
        for depth in (1, 7, 40):
            esc = lp_escape(FLAT, 2.0, depth)
            assert spectral_risk(FLAT, esc.dist) == pytest.approx(
                esc.predicted_risk, abs=1e-12
            )

    def test_doubling_depth_grows_the_partial_by_a_fixed_floor(self):
        sigma = AvarSpectrum(0.3)
        q = 1.5
        p = q / (q - 1.0)
        total = float(sigma.tail_power_integral(1.0, q))
        floor = total / (2.0 * float(special.zeta(p + 1.0)))
        for depth in (1, 4, 16):
            small = lp_escape(sigma, q, depth)
            large = lp_escape(sigma, q, 2 * depth)
            assert large.lp_partial - small.lp_partial >= floor - 1e-12

    def test_band_cuts_meet_their_tail_targets(self):
        sigma = PowerSqrtSpectrum()
        q = 1.5
        p = q / (q - 1.0)
        total = float(sigma.tail_power_integral(1.0, q))
        zp1 = float(special.zeta(p + 1.0))
        for n in range(1, 12):
            target = total * float(special.zeta(p + 1.0, n + 1.0)) / zp1
            g = sigma.invert_tail_power(target, q)
            assert abs(float(sigma.tail_power_integral(g, q)) - target) <= 1e-10

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lp_escape(FLAT, 1.0, 5)
        with pytest.raises(ValueError):
            lp_escape(FLAT, math.inf, 5)
        with pytest.raises(ValueError):
            lp_escape(FLAT, 2.0, 0)

    def test_nonintegrable_power_rejected(self):
        # sigma**2 has no finite integral for the square-root spectrum
        with pytest.raises(ValueError):
            lp_escape(PowerSqrtSpectrum(), 2.0, 5)

    def test_power_integral_beyond_the_double_range(self):
        # AVaR(0.5) is bounded, ||sigma||_1500 = 1.99908, yet ||sigma||_q**q
        # = 2**1499 is past the largest double: the error names the overflow
        # and not integrability
        sigma = AvarSpectrum(0.5)
        assert sigma.lq_norm(1500.0) == pytest.approx(1.99908, abs=1e-5)
        overflow = r"exceeds the largest double at q = 1500\.0"
        with pytest.raises(ValueError, match=overflow):
            lp_escape(sigma, 1500.0, 3)
        with pytest.raises(ValueError, match=overflow):
            lp_escape_limit(sigma, 1500.0)

    def test_band_collapse_names_the_exponent_in_full(self):
        # q = 1 + 1e-10 puts the bands of AVaR(0.5) closer than a double
        # resolves; the message spells q out instead of rounding it to 1
        with pytest.raises(ValueError, match=r"sigma\*\*1\.0000000001 tail"):
            lp_escape(AvarSpectrum(0.5), 1.0000000001, 3)

    def test_band_gap_below_the_double_range_is_a_riskspace_error(self):
        # at q = 1.999 the first band's gap is about 1e-1549; the inverse
        # never returns gap 0 for a positive target, so no numpy error about
        # a geometric sequence through 0 escapes
        with pytest.raises(ValueError, match="below the smallest positive double") as caught:
            lp_escape(PowerSqrtSpectrum(), 1.999, 1)
        assert caught.traceback[-1].frame.f_globals["__name__"].startswith("riskspace.")


class TestLinfEscape:
    def test_single_band_hand_values(self):
        esc = linf_escape(PowerSqrtSpectrum(), 1)
        np.testing.assert_allclose(esc.dist.values, [0.0, 1.0])
        np.testing.assert_allclose(esc.dist.masses, [0.25, 0.75])
        assert esc.risk == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_risk_stays_bounded_while_esssup_grows(self):
        sigma = PowerSqrtSpectrum()
        for depth in (1, 5, 12, 30):
            esc = linf_escape(sigma, depth)
            assert esc.dist.max_value == float(depth)
            assert esc.risk <= linf_risk_bound(depth) + 1e-12
            assert esc.risk <= 4.0

    def test_bound_function(self):
        assert linf_risk_bound(1) == 1.0
        assert linf_risk_bound(2) == 2.0
        assert linf_risk_bound(200) <= 4.0

    def test_depth_domain(self):
        with pytest.raises(ValueError):
            linf_escape(FLAT, 0)


class TestGeneralSpectrumEscapes:
    # spectra declared by closed forms in gap coordinates: the bands come
    # from bisection on the declared power integral
    FLAT_GENERAL = GeneralSpectrum(
        gap_density_fn=np.ones_like, gap_tail_fn=lambda g: g, tail_power_fn=lambda g, q: g
    )
    RISING = GeneralSpectrum(
        gap_density_fn=lambda g: (2.0 - g) / 1.5,
        gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
        tail_power_fn=lambda g, q: (
            -(2.0 ** (q + 1.0)) * np.expm1((q + 1.0) * np.log1p(-g / 2.0)) / ((q + 1.0) * 1.5**q)
        ),
    )
    SQRT_LIKE = GeneralSpectrum(
        gap_density_fn=lambda g: 0.5 / np.sqrt(g),
        gap_tail_fn=np.sqrt,
        tail_power_fn=sqrt_tail_power,
    )

    @pytest.mark.parametrize("depth", [3, 40])
    def test_sqrt_like_escape_matches_power_sqrt(self, depth):
        # at depth 40 band gaps fall below 2**-53, where a level-form density
        # read at 1 - g gives sigma(1) = inf
        general = lp_escape(self.SQRT_LIKE, 1.5, depth)
        exact = lp_escape(PowerSqrtSpectrum(), 1.5, depth)
        np.testing.assert_allclose(general.dist.values, exact.dist.values, rtol=1e-12)
        np.testing.assert_allclose(general.dist.masses, exact.dist.masses, rtol=5e-13)
        assert general.predicted_risk == exact.predicted_risk
        assert general.lp_partial == exact.lp_partial

    def test_undeclared_power_integral_raises(self):
        bare = GeneralSpectrum(gap_density_fn=np.ones_like, gap_tail_fn=lambda g: g)
        with pytest.raises(ValueError, match="tail_power_fn"):
            lp_escape(bare, 1.5, 3)
        assert linf_escape(bare, 4).dist.max_value == 4.0

    def test_lp_escape_matches_the_flat_step(self):
        general = lp_escape(self.FLAT_GENERAL, 1.5, 4)
        exact = lp_escape(FLAT, 1.5, 4)
        assert general.dist.values.tolist() == exact.dist.values.tolist()
        np.testing.assert_allclose(general.dist.masses, exact.dist.masses, rtol=1e-9)
        assert general.predicted_risk == pytest.approx(exact.predicted_risk, rel=1e-12)
        assert general.lp_partial == pytest.approx(exact.lp_partial, rel=1e-12)

    def test_linf_escape_matches_the_flat_step(self):
        general = linf_escape(self.FLAT_GENERAL, 10)
        exact = linf_escape(FLAT, 10)
        np.testing.assert_allclose(general.dist.masses, exact.dist.masses, rtol=1e-9)
        assert general.risk == pytest.approx(exact.risk, rel=1e-9)

    def test_rising_spectrum_escapes(self):
        q = 1.5
        esc = lp_escape(self.RISING, q, 3)
        assert spectral_risk(self.RISING, esc.dist) <= esc.predicted_risk + 1e-9
        assert esc.predicted_risk <= lp_escape_limit(self.RISING, q)
        bounded = linf_escape(self.RISING, 8)
        assert bounded.dist.max_value == 8.0
        assert bounded.risk <= linf_risk_bound(8) + 1e-12


def _per_band_escape(sigma, q, depth, submesh=8):
    """Reference: the per-band loop the whole-array ``lp_escape`` replaced,
    one edge array per band (the step nodes strictly inside it, or
    ``submesh`` geometric pieces) and one density read per band."""
    p = q / (q - 1.0)
    total = float(sigma.tail_power_integral(1.0, q))
    zp1 = float(special.zeta(p + 1.0))
    n_idx = np.arange(1, depth + 1)
    targets = total * special.zeta(p + 1.0, n_idx + 1.0) / zp1
    gaps = np.concatenate([[1.0], sigma.invert_tail_power(targets, q)])
    values = [np.array([0.0])]
    masses = [np.array([gaps[depth]])]
    for n in n_idx:
        g_hi, g_lo = gaps[n - 1], gaps[n]
        if isinstance(sigma, StepSpectrum):
            nodes = sigma.kink_gaps
            inner = nodes[(nodes > g_lo) & (nodes < g_hi)][::-1]
            edges = np.concatenate([[g_hi], inner, [g_lo]])
        else:
            edges = np.geomspace(g_hi, g_lo, submesh + 1)
        values.append(float(n) * sigma.density_from_gap(edges[:-1]) ** (q - 1.0))
        masses.append(edges[:-1] - edges[1:])
    dist = StepQuantile.from_segments(np.concatenate(values), np.concatenate(masses))
    predicted = total / zp1 * float(special.zeta(p) - special.zeta(p, depth + 1.0))
    partial = total / zp1 * float(special.digamma(depth + 1.0) + np.euler_gamma)
    return dist, predicted, partial, gaps


def _random_step(cells, seed):
    rng = np.random.default_rng(seed)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, cells - 1)), [1.0]])
    values = np.cumsum(rng.exponential(1.0, cells))
    return StepSpectrum(edges, values / np.dot(values, np.diff(edges)))


# a jump whose node 1 - b lands exactly on the second band gap at q = 1.9
NODE_ON_GAP = StepSpectrum([0.0, 0.999, 1.0], [0.9925179613918802, 8.474556569511678])


class TestWholeArrayBands:
    FAMILIES = {
        "power_sqrt": PowerSqrtSpectrum(),
        "avar": AvarSpectrum(0.3),
        "step31": _random_step(31, 3),
        "flat": FLAT,
        "sqrt_like": TestGeneralSpectrumEscapes.SQRT_LIKE,
    }

    @staticmethod
    def _assert_bit_equal(sigma, q, depth):
        dist, predicted, partial, _ = _per_band_escape(sigma, q, depth)
        esc = lp_escape(sigma, q, depth)
        assert esc.dist.values.tobytes() == dist.values.tobytes()
        assert esc.dist.masses.tobytes() == dist.masses.tobytes()
        assert esc.predicted_risk == predicted
        assert esc.lp_partial == partial

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_equal_to_the_per_band_loop(self, family):
        sigma = self.FAMILIES[family]
        for depth in (1, 3, 40, 300):
            for q in (1.2, 1.5, 1.9):
                self._assert_bit_equal(sigma, q, depth)

    def test_node_on_a_band_gap(self):
        _, _, _, gaps = _per_band_escape(NODE_ON_GAP, 1.9, 3)
        assert NODE_ON_GAP.kink_gaps[1] == gaps[2]
        for depth in (2, 3, 40):
            self._assert_bit_equal(NODE_ON_GAP, 1.9, depth)
        # the node is a piece edge once, not a zero-width piece
        esc = lp_escape(NODE_ON_GAP, 1.9, 3)
        assert esc.dist.n_segments == 4


class TestHeavyTail:
    def test_dyadic_layout(self):
        dist = heavy_tail_quantile(4)
        np.testing.assert_allclose(dist.values, [1.0, 2.0, 4.0, 8.0, 16.0])
        np.testing.assert_allclose(dist.masses, [0.5, 0.25, 0.125, 0.0625, 0.0625])

    def test_mean_grows_linearly(self):
        for depth in (1, 8, 24):
            assert heavy_tail_quantile(depth).mean == pytest.approx(
                depth / 2.0 + 1.0, abs=1e-12
            )

    def test_depth_domain(self):
        with pytest.raises(ValueError):
            heavy_tail_quantile(0)
        with pytest.raises(ValueError):
            heavy_tail_quantile(1001)


class TestDivergenceDemo:
    def test_reaches_target_ten(self):
        report = l1_divergence_demo(heavy_tail_quantile(24), FLAT, 10.0)
        assert report.exceeded_at == 2.0**19
        assert not report.vacuous
        assert len(report.rows) == 20
        assert report.rows[-1].l1 == pytest.approx(10.5, abs=1e-12)

    def test_truncated_means_follow_the_half_log_law(self):
        report = l1_divergence_demo(heavy_tail_quantile(24), FLAT, 10.0)
        for j, row in enumerate(report.rows):
            assert row.level == 2.0**j
            assert row.l1 == pytest.approx(j / 2.0 + 1.0, abs=1e-12)
            # flat spectrum: the sigma norm IS the L1 norm
            assert row.sigma == pytest.approx(row.l1, abs=1e-12)

    def test_rows_satisfy_chebyshev_under_any_spectrum(self):
        report = l1_divergence_demo(heavy_tail_quantile(16), PowerSqrtSpectrum(), 6.0)
        assert report.exceeded_at is not None
        for row in report.rows:
            assert row.sigma >= row.l1 - 1e-12

    def test_bounded_inputs_go_vacuous(self):
        report = l1_divergence_demo(
            StepQuantile.from_samples([1.0, 2.0]), FLAT, 100.0
        )
        assert report.vacuous
        assert report.exceeded_at is None
        assert report.rows[-1].l1 == pytest.approx(1.5, abs=1e-15)

    def test_last_level_is_capped_at_the_largest_double(self):
        # doubling from 1 passes 2**1023 below the maximum 1.5e308 and would
        # then reach inf; every level but the last stays an exact power of two
        report = l1_divergence_demo(StepQuantile.from_samples([1.5e308, 1.0]), FLAT, 1e308)
        levels = [row.level for row in report.rows]
        assert levels[:-1] == [2.0**k for k in range(1024)]
        assert levels[-1] == sys.float_info.max
        assert report.rows[-1].l1 == 7.5e307
        assert report.vacuous

    def test_target_must_be_strictly_exceeded(self):
        # clipping at 4 gives l1 exactly 2, which does not strictly exceed
        # the target; the scan moves on and stops at 8
        report = l1_divergence_demo(heavy_tail_quantile(8), FLAT, 2.0)
        assert [row.level for row in report.rows] == [1.0, 2.0, 4.0, 8.0]
        assert report.rows[2].l1 == 2.0
        assert report.exceeded_at == 8.0
        assert not report.vacuous

    def test_target_domain(self):
        # no L1 norm exceeds NaN, so a NaN target would read as vacuous
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                l1_divergence_demo(heavy_tail_quantile(8), FLAT, bad)


class TestStepApprox:
    def test_step_input_is_its_own_approximation(self):
        dist = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        for eps in (0.1, 0.01):
            approx, err = step_density_approx(AvarSpectrum(0.5), dist, eps)
            assert err < eps
            np.testing.assert_array_equal(approx.values, dist.values)
            np.testing.assert_array_equal(approx.masses, dist.masses)

    def test_residual_is_recomputed_not_assumed(self):
        dist = StepQuantile.from_samples([-3.0, 7.0])
        _, err = step_density_approx(PowerSqrtSpectrum(), dist, 0.5)
        assert err == 0.0

    def test_tolerance_domain(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                step_density_approx(FLAT, StepQuantile.from_samples([1.0]), bad)
