"""Comparability constants between spectral norms and the AVaR sandwich."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.dual import dual_norm
from riskspace.embedding import (
    EmbeddingConstant,
    avar_sandwich_check,
    comparability_constant,
    identity_norm,
    sharpness_witness,
)
from riskspace.risk import sigma_norm
from riskspace.spectrum import (
    FALLBACK_GAPS,
    AvarSpectrum,
    GeneralSpectrum,
    PowerSqrtSpectrum,
    StepSpectrum,
)
from riskspace.stepdist import StepQuantile
from support import random_step

FLAT = StepSpectrum([0.0, 1.0], [1.0])

SQRT_LIKE = GeneralSpectrum(
    gap_density_fn=lambda g: 0.5 / np.sqrt(g),
    gap_tail_fn=np.sqrt,
    density_sup=math.inf,
)
# the same without density_sup: its a -> 1 limit is undeclared
SQRT_BARE = GeneralSpectrum(gap_density_fn=lambda g: 0.5 / np.sqrt(g), gap_tail_fn=np.sqrt)


def grid_ratio_sup(source, target, n=10_001):
    gaps = np.linspace(0.0, 1.0, n)[1:]
    for s in (source, target):
        if isinstance(s, StepSpectrum):
            kinks = 1.0 - s.breakpoints
            gaps = np.concatenate([gaps, kinks[(kinks > 0) & (kinks <= 1)]])
    gaps = np.unique(gaps)
    s1 = np.asarray(source.tail_from_gap(gaps), dtype=float)
    s2 = np.asarray(target.tail_from_gap(gaps), dtype=float)
    return float(np.max(s2 / s1))


# -- reference: the earlier union scan with declared tail asymptotics ----------


def reference_declarations(sigma):
    """Kink gaps (None: scan the mesh) and S(1 - g) ~ coeff * g**order, as
    the spectra used to declare them; general spectra declared none."""
    if isinstance(sigma, StepSpectrum):
        return sigma.kink_gaps, 1.0, float(sigma.values[-1])
    if isinstance(sigma, PowerSqrtSpectrum):
        return np.empty(0), 0.5, 1.0
    return None, None, None


def reference_constant(source, target):
    """Scan {1}, both spectra's kink gaps and, unless both declare kinks and
    tails, the fallback mesh; a larger limit from the tail orders wins."""
    (kinks1, o1, k1), (kinks2, o2, k2) = map(reference_declarations, (source, target))
    dense = kinks1 is None or kinks2 is None
    if None in (o1, k1, o2, k2):
        dense, limit = True, -math.inf
    elif o2 < o1:
        limit = math.inf
    elif o2 > o1:
        limit = 0.0
    elif k1 == 0.0:
        limit = math.inf if k2 > 0 else 0.0
    else:
        limit = k2 / k1
    parts = [np.ones(1), *(k for k in (kinks1, kinks2) if k is not None)]
    if dense:
        parts.append(FALLBACK_GAPS)
    gaps = np.concatenate(parts)
    gaps = np.unique(gaps[(gaps > 0.0) & (gaps <= 1.0)])[::-1]
    ratio = target.tail_from_gap(gaps) / source.tail_from_gap(gaps)
    i = int(np.argmax(ratio))
    if limit > ratio[i]:
        return EmbeddingConstant(limit, 1.0)
    return EmbeddingConstant(float(ratio[i]), float(1.0 - gaps[i]))


def deep_step(rng):
    """Up to 40 cells, breakpoints down to 1e-12 below 1, and in half the
    draws a first cell of zero density."""
    cuts = rng.uniform(0.0, 1.0, rng.integers(0, 40))
    deep = 1.0 - np.geomspace(1e-3, 1e-12, rng.integers(0, 4))
    edges = np.unique(np.concatenate([[0.0], cuts, deep, [1.0]]))
    vals = np.cumsum(rng.uniform(0.0, 2.0, edges.size - 1))
    if edges.size > 2 and rng.random() < 0.5:
        vals[0] = 0.0
    return StepSpectrum(edges, vals / np.dot(vals, np.diff(edges)))


class TestStepTargets:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["step", "avar", "power_sqrt", "sqrt_like"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_target_nodes_match_the_union_scan(self, seed, family):
        rng = np.random.default_rng(seed)
        target = deep_step(rng)
        source = {
            "step": lambda: deep_step(rng),
            "avar": lambda: AvarSpectrum(float(rng.uniform(0.0, 0.999999))),
            "power_sqrt": PowerSqrtSpectrum,
            "sqrt_like": lambda: SQRT_LIKE,
        }[family]()
        result = comparability_constant(source, target)
        reference = reference_constant(source, target)
        # a max over a subset of the reference's gaps, short by rounding only
        assert result.value <= reference.value <= result.value + 4 * math.ulp(result.value)
        assert 1.0 - result.attaining_alpha in target.kink_gaps[1:]
        # the constant is the dual gauge of sigma_target(U) under the source
        z = StepQuantile(target.values, np.diff(target.breakpoints))
        assert result.value == dual_norm(z, source).value


def grid_step(rng, cells):
    """A random nondecreasing, positive, unit-mass step of ``cells`` cells
    with its breakpoints on the 1e-6 grid, as the benchmark draws them."""
    inner = np.sort(rng.choice(np.arange(1, 1_000_000), size=cells - 1, replace=False)) / 1e6
    edges = np.concatenate([[0.0], inner, [1.0]])
    vals = np.sort(rng.uniform(0.2, 3.0, size=cells))
    return StepSpectrum(edges, vals / np.dot(vals, np.diff(edges)))


def exact_tails(sigma, gaps):
    """``S(1 - g)`` per gap in Fractions, of the step a ``StepSpectrum``
    evaluates: ``values[k]`` on the gaps between its rounded kink gaps."""
    nodes = [Fraction(x) for x in sigma.kink_gaps.tolist()]  # ascending from 0
    dens = [Fraction(v) for v in sigma.values.tolist()[::-1]]  # on (nodes[i], nodes[i+1]]
    below = [Fraction(0)]
    for i, v in enumerate(dens):
        below.append(below[-1] + v * (nodes[i + 1] - nodes[i]))
    out = []
    for g in map(Fraction, gaps):
        i = min(max(bisect.bisect_left(nodes, g) - 1, 0), len(dens) - 1)
        out.append(below[i] + dens[i] * (g - nodes[i]))
    return out


class TestBenchmarkScale:
    #: the node scan's distance from the exact maximum, in ulp of the value;
    #: 11.4 was the worst over 360 random pairs (positive sums of n terms
    #: carry at most about n ulp each, a far looser bound at n = 1000)
    ULP_BOUND = 16

    def test_node_scan_matches_the_exact_maximum(self):
        """Targets of 100 to 1 000 cells on the 1e-6 grid, sources of 1 to
        1 000: the attaining level is one minus a target kink gap, and both
        the value and the exact ratio at that node are within ULP_BOUND of a
        Fraction maximum of S_t / S_s over the target's positive gap nodes."""
        rng = np.random.default_rng(2)
        for _ in range(30):
            target = grid_step(rng, int(rng.integers(100, 1001)))
            source = grid_step(rng, int(rng.integers(1, 1001)))
            result = comparability_constant(source, target)
            assert result.attaining_alpha in 1.0 - target.kink_gaps
            gaps = target.kink_gaps[1:].tolist()
            ratios = [t / s for t, s in zip(exact_tails(target, gaps), exact_tails(source, gaps))]
            best, ulp = max(ratios), Fraction(math.ulp(result.value))
            assert abs(Fraction(result.value) - best) <= self.ULP_BOUND * ulp
            at = ratios[[1.0 - g for g in gaps].index(result.attaining_alpha)]
            assert best - at <= self.ULP_BOUND * ulp


class TestPairwiseConstants:
    def test_avar_pair_hand_value(self):
        result = comparability_constant(AvarSpectrum(0.5), AvarSpectrum(0.9))
        # bit-equal to the defining ratio of gaps; the level 0.9 itself is
        # one ulp off a tenth in binary, so decimal 5 is matched to 2 ulp
        assert result.value == (1.0 - 0.5) / (1.0 - 0.9)
        assert result.value == pytest.approx(5.0, abs=2e-15)
        assert result.attaining_alpha == 0.9

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

    def test_general_spectra_get_flagged(self):
        # a step target is scanned exactly at its nodes, whatever the source
        result = comparability_constant(SQRT_LIKE, AvarSpectrum(0.75))
        assert result.value == pytest.approx(2.0, rel=1e-9)

    def test_general_gap_form_stays_below_the_true_sup(self):
        # S(1 - g) / g = (2 - g/2) / 1.5 rises to 4/3 as g -> 0, a supremum
        # no finite scan attains; without an infinite a -> 1 limit there is
        # no exact constant against a target that is not a step spectrum
        rising = GeneralSpectrum(
            gap_density_fn=lambda g: (2.0 - g) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
        )
        with pytest.raises(TypeError, match="from StepSpectrum to GeneralSpectrum"):
            comparability_constant(FLAT, rising)

    def test_declared_limit_against_the_scan(self):
        # a finite limit below the scanned sup loses: S_avar / sqrt(g) -> 0
        assert comparability_constant(PowerSqrtSpectrum(), AvarSpectrum(0.75)) == (
            EmbeddingConstant(2.0, 0.75)
        )
        # sigma(u) = (1 + u) / 1.5 declares its finite limit sigma(1-) = 4/3;
        # a finite limit over a finite one is no exact constant, so it raises
        rising = GeneralSpectrum(
            gap_density_fn=lambda g: (2.0 - g) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
            density_sup=4.0 / 3.0,
        )
        with pytest.raises(TypeError, match="from StepSpectrum to GeneralSpectrum"):
            comparability_constant(FLAT, rising)
        # against a step target the source's undeclared limit does not matter
        assert comparability_constant(SQRT_BARE, AvarSpectrum(0.75)) == (
            EmbeddingConstant(2.0, 0.75)
        )

    def test_non_step_targets_take_the_limit_from_density_sup(self):
        # sigma_target(1-) / sigma_source(1-) by l'Hopital; a spectrum against
        # itself is 1 exactly, though inf / inf leaves the limit undetermined
        power = PowerSqrtSpectrum()
        assert comparability_constant(power, PowerSqrtSpectrum()) == EmbeddingConstant(1.0, 0.0)
        with pytest.raises(TypeError, match="from PowerSqrtSpectrum to GeneralSpectrum"):
            comparability_constant(power, SQRT_LIKE)
        assert comparability_constant(FLAT, power) == EmbeddingConstant(math.inf, 1.0)
        assert comparability_constant(FLAT, SQRT_LIKE) == EmbeddingConstant(math.inf, 1.0)
        # an undeclared density_sup leaves the limit undetermined
        with pytest.raises(TypeError, match="from StepSpectrum to GeneralSpectrum"):
            comparability_constant(FLAT, SQRT_BARE)
        # the identity norm takes its pairwise constants, errors included
        with pytest.raises(TypeError):
            identity_norm([FLAT, power], [SQRT_LIKE])

    def test_a_spectrum_against_itself(self):
        # the same object is exact whatever its type; so are two
        # PowerSqrtSpectrum instances, which compare equal as dataclasses
        assert comparability_constant(SQRT_LIKE, SQRT_LIKE) == EmbeddingConstant(1.0, 0.0)
        assert comparability_constant(SQRT_BARE, SQRT_BARE) == EmbeddingConstant(1.0, 0.0)
        assert comparability_constant(PowerSqrtSpectrum(), PowerSqrtSpectrum()).value == 1.0

    def test_separately_declared_closed_forms_are_different_spectra(self):
        # no code can prove two declared callables equal, so an identical
        # second declaration is a different spectrum and has no exact constant
        twin = GeneralSpectrum(
            gap_density_fn=lambda g: 0.5 / np.sqrt(g), gap_tail_fn=np.sqrt, density_sup=math.inf
        )
        with pytest.raises(TypeError, match="from GeneralSpectrum to GeneralSpectrum") as exc:
            comparability_constant(SQRT_LIKE, twin)
        for case in ("a spectrum against itself", "a step target",
                     "an unbounded target over a bounded source"):
            assert case in str(exc.value)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bound_beyond_the_double_range_overflows(self):
        # 9 * 1.7e308 is finite but beyond the largest double
        dist = StepQuantile([-1.7e308, 1.7e308], [0.5, 0.5])
        with pytest.raises(OverflowError, match="largest double"):
            avar_sandwich_check(0.1, 0.9, dist)
        report = avar_sandwich_check(0.5, 0.5, dist)
        assert report.holds
        assert all(map(math.isfinite, (report.avar_lo, report.avar_hi, report.upper_bound)))

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.95), st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_always_holds_on_step_data(self, seed, a, b):
        rng = np.random.default_rng(seed)
        dist = StepQuantile.from_samples(rng.uniform(-5, 5, rng.integers(1, 10)))
        report = avar_sandwich_check(min(a, b), max(a, b), dist)
        assert report.holds
