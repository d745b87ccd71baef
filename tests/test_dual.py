"""Dual gauge: closed-form values, certificates, attaining elements."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.dual import (
    _piece_ends,
    dominates,
    dual_norm,
    hahn_banach_witness,
    indicator_dual_norm,
    pairing,
    quantile_density_ratio_bound,
)
from riskspace.risk import sigma_norm
from riskspace.spectrum import (
    FALLBACK_GAPS,
    AvarSpectrum,
    GeneralSpectrum,
    PowerSqrtSpectrum,
    StepSpectrum,
)
from riskspace.stepdist import PairedSample, StepQuantile

FLAT = StepSpectrum([0.0, 1.0], [1.0])
EPS = np.finfo(float).eps

# the square-root spectrum through callables only: no density_sup, no steps
SQRT_BARE = GeneralSpectrum(gap_density_fn=lambda g: 0.5 / np.sqrt(g), gap_tail_fn=np.sqrt)


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


def t3_payoff(rng, max_segments=7):
    n = int(rng.integers(1, max_segments + 1))
    return StepQuantile.from_samples(rng.standard_t(3.0, n), rng.uniform(0.1, 1.0, n))


# -- reference: the earlier scan over tail masses, spectrum kinks and limits ---


def reference_gaps(z_abs, sigma):
    """{1} with |Z|'s tail masses, sigma's kink gaps, and the fallback mesh
    for a spectrum without a declared density supremum."""
    parts = [np.ones(1), z_abs.tail_masses]
    if isinstance(sigma, StepSpectrum):
        parts.append(sigma.kink_gaps)
    if sigma.density_sup is None:
        parts.append(FALLBACK_GAPS)
    gaps = np.concatenate(parts)
    return np.unique(gaps[(gaps > 0.0) & (gaps <= 1.0)])[::-1]


def reference_dual_norm(Z, sigma):
    """Scanned sup of G/S, beaten at level 1 by max|Z| / sigma(1-) if larger."""
    z_abs = Z.abs()
    gaps = reference_gaps(z_abs, sigma)
    ratio = z_abs.upper_integral(gaps) / np.asarray(sigma.tail_from_gap(gaps), dtype=float)
    i = int(np.argmax(ratio))
    sup = sigma.density_sup
    limit = -math.inf if sup is None else (0.0 if math.isinf(sup) else z_abs.max_value / sup)
    if limit > ratio[i]:
        return limit, 1.0
    return float(ratio[i]), float(1.0 - gaps[i])


def reference_margins(Z, sigma, eta):
    """Margins (eta*S - G)/g with the size of their terms, plus the limit term
    eta * sigma(1-) - max|Z| for a finite density supremum."""
    z_abs = Z.abs()
    gaps = reference_gaps(z_abs, sigma)
    eta_s = eta * np.asarray(sigma.tail_from_gap(gaps), dtype=float)
    G = z_abs.upper_integral(gaps)
    margins, terms = (eta_s - G) / gaps, np.maximum(eta_s, G) / gaps
    sup = sigma.density_sup
    if sup is not None and math.isfinite(sup):
        margins = np.append(margins, eta * sup - z_abs.max_value)
        terms = np.append(terms, max(eta * sup, z_abs.max_value))
    return margins, terms


def reference_ratio_bound(Z, sigma):
    z_abs = Z.abs()
    gaps = reference_gaps(z_abs, sigma)
    q = z_abs.value_at_gap(gaps)
    dens = np.asarray(sigma.density_from_gap(gaps), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(q == 0.0, 0.0, q / dens)))


@st.composite
def spectra(draw):
    family = draw(st.sampled_from(["avar", "power_sqrt", "step"]))
    if family == "avar":
        return AvarSpectrum(draw(st.floats(0.0, 0.99)))
    if family == "power_sqrt":
        return PowerSqrtSpectrum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 40)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = np.cumsum(rng.uniform(0.0, 2.0, edges.size - 1))
    vals /= np.dot(vals, np.diff(edges))
    return StepSpectrum(edges, vals)


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
    def test_general_gap_form_is_exact_for_tiny_indicators(self):
        # sigma(u) = (1 + u) / 1.5: the gauge p / S(1 - p) tends to 3/4; a
        # level-form tail read at 1 - p gave 0.74977 at p = 1e-13
        rising = GeneralSpectrum(
            gap_density_fn=lambda g: (2.0 - g) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
        )
        result = dual_norm(indicator(1e-13), rising)
        assert abs(result.value - 0.75) <= 1e-12

    def test_constant_under_flat_spectrum(self):
        result = dual_norm(StepQuantile.from_samples([3.0]), FLAT)
        assert result.value == 3.0
        assert result.attaining_alpha == 0.0

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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_general_spectrum_is_exact(self, seed):
        # without density_sup or tail asymptotics the scan over tail masses
        # is still exact: the callable square root matches the closed form
        Z = t3_payoff(np.random.default_rng(seed))
        closed = dual_norm(Z, PowerSqrtSpectrum())
        assert dual_norm(Z, SQRT_BARE) == closed
        for eta in (closed.value * (1.0 + 1e-9), closed.value * (1.0 - 1e-6)):
            assert dominates(Z, SQRT_BARE, eta) == dominates(Z, PowerSqrtSpectrum(), eta)
        assert dual_norm(indicator(0.25), SQRT_BARE) == dual_norm(
            indicator(0.25), PowerSqrtSpectrum()
        )

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
        for eta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                dominates(indicator(0.5), FLAT, eta)

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


class TestAgainstReferenceScan:
    # the scans over {1} and |Z|'s tail masses against the earlier scan that
    # also visited every spectrum kink and the a -> 1 limits

    @given(st.integers(0, 2**32 - 1), spectra())
    @settings(max_examples=200, deadline=None)
    def test_tail_masses_suffice(self, seed, sigma):
        Z = t3_payoff(np.random.default_rng(seed))
        z_abs = Z.abs()
        levels = 1.0 - np.concatenate([np.ones(1), z_abs.tail_masses])

        result = dual_norm(Z, sigma)
        ref_value, _ = reference_dual_norm(Z, sigma)
        assert abs(result.value - ref_value) <= 4 * EPS * ref_value
        assert result.attaining_alpha in levels

        for eta in (ref_value * (1.0 + 1e-9), ref_value * (1.0 - 1e-6), 1.3 * ref_value):
            cert = dominates(Z, sigma, eta)
            margins, terms = reference_margins(Z, sigma, eta)
            i = int(np.argmin(margins))
            assert abs(cert.margin - margins[i]) <= 4 * EPS * terms[i]
            assert cert.holds == (margins[i] >= -1e-12)
            assert cert.witness_alpha in levels

        assert quantile_density_ratio_bound(Z, sigma) == reference_ratio_bound(Z, sigma)


class TestPieceEnds:
    # the neighbour dedupe of the nonincreasing tail masses against the sort
    # it replaced; tiny masses make equal neighbours, and tails above 1

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_unique(self, seed, tiny):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        masses = rng.uniform(0.1, 1.0, n)
        if tiny:
            masses *= 10.0 ** -rng.integers(0, 300, n).astype(float)
        Z = StepQuantile.from_segments(np.round(rng.standard_t(3.0, n), 1), masses)
        z_abs, gaps = _piece_ends(Z)
        tails = np.concatenate([np.ones(1), z_abs.tail_masses])
        expected = np.unique(tails[(tails > 0.0) & (tails <= 1.0)])[::-1]
        assert gaps.tobytes() == expected.tobytes()

