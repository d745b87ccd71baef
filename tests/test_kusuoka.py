"""Mixture measures on AVaR levels and their spectrum correspondence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace import sampling
from riskspace.kusuoka import (
    KusuokaMeasure,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    mixture_risk,
    mu_from_sigma,
    set_norm,
    sigma_from_mu,
    sup_risk,
)
from riskspace.risk import avar, sigma_norm, spectral_risk
from riskspace.spectrum import AvarSpectrum, PowerSqrtSpectrum, StepSpectrum
from riskspace.stepdist import StepQuantile
from support import random_step


class TestMuFromSigma:
    def test_expectation_spectrum_is_unit_atom_at_zero(self):
        mu = mu_from_sigma(StepSpectrum([0.0, 1.0], [1.0]))
        assert mu.atoms() == [(0.0, 1.0)]

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
    def test_avar_maps_to_single_atom(self, alpha):
        mu = mu_from_sigma(AvarSpectrum(alpha))
        assert mu.atoms() == [(alpha, 1.0)]

    def test_worked_two_atom_example(self):
        sigma = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        mu = mu_from_sigma(sigma)
        np.testing.assert_allclose(mu.levels, [0.0, 0.5])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_bit_equal_to_the_per_jump_loop(self):
        # reference: the per-jump loop the masked expression replaced
        rng = np.random.default_rng(17)
        for _ in range(300):
            sigma = sampling.random_step_spectrum(rng, max_cells=12)
            levels, weights = [], []
            if sigma.values[0] > 0:
                levels.append(0.0)
                weights.append(float(sigma.values[0]))
            for s, d in zip(sigma.breakpoints[1:-1], np.diff(sigma.values)):
                if d > 0:
                    levels.append(float(s))
                    weights.append(float((1.0 - s) * d))
            ref = KusuokaMeasure(np.array(levels), np.array(weights))
            mu = mu_from_sigma(sigma)
            assert mu.levels.tobytes() == ref.levels.tobytes()
            assert mu.weights.tobytes() == ref.weights.tobytes()

    def test_rejects_non_step_input(self):
        with pytest.raises(TypeError):
            mu_from_sigma(PowerSqrtSpectrum())


class TestSigmaFromMu:
    def test_worked_two_atom_example(self):
        mu = KusuokaMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        sigma = sigma_from_mu(mu)
        np.testing.assert_allclose(sigma.breakpoints, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(sigma.values, [0.5, 1.5])

    def test_atom_at_one_blocks_conversion(self):
        mu = KusuokaMeasure(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
        assert mu.levels[-1] == 1.0
        with pytest.raises(ValueError):
            sigma_from_mu(mu)

    def test_zero_level_optional(self):
        # no mass at 0 means sigma vanishes on an initial interval
        mu = KusuokaMeasure(np.array([0.25]), np.array([1.0]))
        sigma = sigma_from_mu(mu)
        assert sigma.density(0.1) == 0.0
        assert sigma.density(0.3) == pytest.approx(1.0 / 0.75, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_random_steps(self, seed):
        sigma = random_step(np.random.default_rng(seed))
        back = sigma_from_mu(mu_from_sigma(sigma))
        np.testing.assert_allclose(back.breakpoints, sigma.breakpoints, atol=1e-14)
        np.testing.assert_allclose(back.values, sigma.values, rtol=1e-12)


class TestMixtureIdentity:
    def test_single_avar_atom(self):
        dist = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        mu = KusuokaMeasure(np.array([0.5]), np.array([1.0]))
        assert mixture_risk(mu, dist) == avar(0.5, dist)

    def test_top_atom_weights_the_esssup(self):
        dist = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        mu = KusuokaMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert mixture_risk(mu, dist) == pytest.approx(0.5 * 2.5 + 0.5 * 4.0, abs=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_spectral_risk(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_step(rng)
        dist = StepQuantile.from_samples(rng.uniform(-10, 10, rng.integers(1, 12)))
        assert mixture_risk(mu_from_sigma(sigma), dist) == pytest.approx(
            spectral_risk(sigma, dist), abs=1e-10
        )


class TestVectorisedMixture:
    # deep-tail law: masses below one ulp of 1, down to 1e-300, carry the
    # largest values
    DEEP = StepQuantile(
        np.array([-3.0, 0.5, 2.0, 40.0, 1e6]), np.array([0.4, 0.3, 0.3, 1e-17, 1e-300])
    )

    @staticmethod
    def per_atom(mu, dist):
        terms = [w * avar(a, dist) for a, w in zip(mu.levels, mu.weights)]
        return sum(terms), sum(abs(t) for t in terms)

    @pytest.mark.parametrize(
        "levels",
        [
            [0.0],
            [0.0, 0.5],
            [0.0, 1.0],
            [1.0],
            [0.25, np.nextafter(1.0, 0.0), 1.0],
            [0.0, 0.9, 1.0 - 1e-300],  # the last level rounds to exactly 1
        ],
    )
    def test_matches_the_per_atom_sum(self, levels):
        weights = np.arange(1.0, len(levels) + 1.0)
        mu = KusuokaMeasure(np.array(levels), weights / weights.sum())
        for dist in (self.DEEP, StepQuantile.from_samples([1.0, -2.0, 7.5])):
            want, scale = self.per_atom(mu, dist)
            got = mixture_risk(mu, dist)
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-12 * scale

    def test_level_next_to_one_reaches_the_deep_tail(self):
        # gap 2^-53 holds the 1e-17 segment (value 40) and the 1e-300 one;
        # the rest of the gap is the value 2.0 segment
        gap = 1.0 - np.nextafter(1.0, 0.0)
        mu = KusuokaMeasure(np.array([1.0 - gap]), np.array([1.0]))
        want = (2.0 * (gap - 1e-17 - 1e-300) + 40.0 * 1e-17 + 1e6 * 1e-300) / gap
        assert want > 5.0
        assert mixture_risk(mu, self.DEEP) == pytest.approx(want, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_measures_match_the_per_atom_sum(self, seed):
        rng = np.random.default_rng(seed)
        levels = np.unique(
            np.concatenate([rng.uniform(0.0, 1.0, rng.integers(1, 20)),
                            rng.choice([0.0, 1.0, np.nextafter(1.0, 0.0)], rng.integers(0, 3))])
        )
        mu = KusuokaMeasure(levels, np.full(levels.size, 1.0 / levels.size))
        dist = StepQuantile.from_samples(rng.uniform(-10, 10, rng.integers(1, 30)))
        want, scale = self.per_atom(mu, dist)
        assert abs(mixture_risk(mu, dist) - want) <= 1e-12 * scale


class TestMeasureValidation:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            KusuokaMeasure(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            KusuokaMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.6]))

    def test_near_unit_total_normalized(self):
        mu = KusuokaMeasure(np.array([0.25]), np.array([1.0 + 4e-11]))
        assert float(mu.weights.sum()) == 1.0

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            KusuokaMeasure(np.array([0.0, 0.5]), np.array([1.0, 0.0]))

    def test_caller_arrays_stay_writeable(self):
        levels, weights = np.array([0.0, 0.5]), np.array([0.5, 0.5])
        mu = KusuokaMeasure(levels, weights)
        assert levels.flags.writeable and weights.flags.writeable
        levels[1], weights[1] = 0.9, 0.1
        assert mu.atoms() == [(0.0, 0.5), (0.5, 0.5)]

    @pytest.mark.parametrize(
        "levels, weights", [([0.0, 0.5], [1.0]), ([], []), ([[0.0]], [[1.0]])]
    )
    def test_shapes_are_checked(self, levels, weights):
        with pytest.raises(ValueError, match="equal-length, nonempty 1-d arrays"):
            KusuokaMeasure(levels, weights)

    def test_levels_bounded(self):
        with pytest.raises(ValueError):
            KusuokaMeasure(np.array([1.2]), np.array([1.0]))

    @pytest.mark.parametrize("levels", [[0.0, np.nan], [np.nan, 0.5]])
    def test_nan_levels_rejected(self, levels):
        # NaN fails every comparison, so only a positive test catches it;
        # mixture_risk would count a NaN atom as the esssup atom
        with pytest.raises(ValueError, match="lie in"):
            KusuokaMeasure(np.array(levels), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="lie in"):
            measure_from_dict({"atoms": [[a, 0.5] for a in levels]})

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            KusuokaMeasure(np.array([0.0, 0.5]), np.array([0.5, np.nan]))


class TestSpectrumSet:
    # a set of spectra is any nonempty iterable; its members are valid by
    # construction
    def test_must_be_nonempty(self):
        dist = StepQuantile.from_samples([1.0, 2.0])
        for empty in ([], (), iter([])):
            with pytest.raises(ValueError, match="nonempty"):
                sup_risk(empty, dist)
        with pytest.raises(ValueError, match="nonempty"):
            set_norm([], dist)

    def test_sup_risk_picks_argmax(self):
        dist = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        members = (AvarSpectrum(0.0), AvarSpectrum(0.9))
        value, idx = sup_risk(members, dist)
        assert idx == 1
        assert value == avar(0.9, dist)
        assert sup_risk(iter(members), dist) == (value, idx)

    def test_set_norm_is_max_member_norm(self):
        dist = StepQuantile.from_samples([-2.0, 1.0, 5.0])
        members = [AvarSpectrum(0.25), AvarSpectrum(0.75), PowerSqrtSpectrum()]
        expected = max(sigma_norm(s, dist) for s in members)
        assert set_norm(members, dist) == expected
        assert set_norm((s for s in members), dist) == expected

    def test_plain_iterables_accepted(self):
        dist = StepQuantile.from_samples([3.0])
        assert set_norm([AvarSpectrum(0.5)], dist) == 3.0


class TestFileForm:
    def test_dict_roundtrip(self):
        mu = KusuokaMeasure(np.array([0.0, 0.3, 1.0]), np.array([0.2, 0.5, 0.3]))
        back = measure_from_dict(measure_to_dict(mu))
        assert back.atoms() == mu.atoms()

    def test_load_from_file(self, tmp_path):
        doc = {"atoms": [[0.25, 0.5], [0.75, 0.5]]}
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(doc))
        mu = load_measure(path)
        assert mu.atoms() == [(0.25, 0.5), (0.75, 0.5)]

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            measure_from_dict({"weights": [1.0]})
        with pytest.raises(ValueError):
            measure_from_dict({"atoms": [[0.5]]})


def test_measure_repr_lists_its_atoms():
    mu = KusuokaMeasure(np.array([0.0, 0.5]), np.array([0.25, 0.75]))
    assert repr(mu) == "KusuokaMeasure([(0, 0.25), (0.5, 0.75)])"


def test_large_measure_repr_is_a_summary():
    n = 10**5
    mu = KusuokaMeasure(np.arange(n) / n, np.full(n, 1.0 / n))
    text = repr(mu)
    assert len(text) < 1000
    assert text.startswith("KusuokaMeasure([(0, 1e-05), ") and f"{n - 6} more" in text
