"""Spectra: tail weights, Lq norms, validation, inversion, step approximation.

Closed forms are cross-checked against mpmath quadrature, which shares no
code with the implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskspace.spectrum import (
    NORMALIZATION_ATOL,
    AvarSpectrum,
    GeneralSpectrum,
    InvalidSpectrumError,
    PowerSqrtSpectrum,
    Spectrum,
    StepSpectrum,
    load_spectrum,
    spectrum_from_dict,
    step_approx,
)
from riskspace.risk import spectral_risk
from riskspace.stepdist import StepQuantile
from support import sqrt_tail_power


def random_step(rng, max_cells=6):
    cuts = np.sort(rng.uniform(0.05, 0.95, rng.integers(0, max_cells - 1)))
    edges = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    raw = np.cumsum(rng.uniform(0.1, 2.0, edges.size - 1))
    raw /= np.dot(raw, np.diff(edges))
    return StepSpectrum(edges, raw)


@st.composite
def _step_inputs(draw):
    """Step data whose values may be negative or falling, and whose mass is
    exactly 1, within the rescaling tolerance of it, or clearly off."""
    cuts = draw(st.lists(st.integers(1, 15), max_size=5, unique=True))
    bp = np.array([0.0, *sorted(c / 16.0 for c in cuts), 1.0])
    vals = np.array(draw(st.lists(st.integers(-3, 6), min_size=bp.size - 1, max_size=bp.size - 1)),
                    dtype=float)
    mass = float(np.dot(vals, np.diff(bp)))
    if mass > 0:
        vals *= draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-9, 0.5, 2.0])) / mass
    return bp, vals


class TestAvar:
    def test_tail_weight(self):
        s = AvarSpectrum(0.5)
        assert s.tail(0.0) == 1.0
        assert s.tail(0.25) == 1.0
        assert s.tail(0.75) == pytest.approx(0.5, abs=1e-15)
        assert s.tail(1.0) == 0.0

    def test_expectation_spectrum_is_flat(self):
        s = AvarSpectrum(0.0)
        assert s.density(0.2) == 1.0
        assert s.lq_norm(3.0) == 1.0

    def test_lq_norm_closed_form(self):
        # ((1-a)^(1-q))^(1/q) for the {0, 1/(1-a)} step
        s = AvarSpectrum(0.5)
        assert s.lq_norm(2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert s.lq_norm(math.inf) == 2.0

    def test_level_domain(self):
        with pytest.raises(ValueError):
            AvarSpectrum(1.0)


class TestPowerSqrt:
    def test_tail_weight_is_sqrt(self):
        s = PowerSqrtSpectrum()
        a = np.array([0.0, 0.19, 0.75, 1.0])
        assert s.tail(a) == pytest.approx(np.sqrt(1.0 - a), abs=1e-15)

    @staticmethod
    def _power_oracle(g, q):
        # integral of sigma**q over the top gap g, via the substitution
        # t = s**40 which turns the integrand into a smooth monomial; an
        # oracle sharing no code path with the package
        q = mpmath.mpf(q)
        f = lambda v: (2 * mpmath.sqrt(v**40)) ** (-q) * 40 * v**39
        return mpmath.quad(f, [0, mpmath.root(mpmath.mpf(g), 40)])

    def test_lq_norm_against_quadrature(self):
        s = PowerSqrtSpectrum()
        with mpmath.workdps(40):
            for q in (1.0, 1.3, 1.5, 1.9):
                oracle = self._power_oracle(1.0, q)
                assert s.lq_norm(q) == pytest.approx(
                    float(oracle ** (1 / mpmath.mpf(q))), rel=1e-12
                )

    def test_lq_norm_cube_root_of_two(self):
        # the closed form (1/2)(2/(2-q))^(1/q) at q = 3/2
        assert PowerSqrtSpectrum().lq_norm(1.5) == pytest.approx(2.0 ** (1 / 3), abs=1e-14)

    def test_lq_norm_infinite_at_two(self):
        assert math.isinf(PowerSqrtSpectrum().lq_norm(2.0))
        assert math.isinf(PowerSqrtSpectrum().lq_norm(3.5))
        assert math.isinf(PowerSqrtSpectrum().lq_norm(math.inf))

    def test_tail_power_integral_quadrature(self):
        s = PowerSqrtSpectrum()
        with mpmath.workdps(40):
            for g, q in [(0.3, 1.5), (0.9, 1.2), (1e-6, 1.5)]:
                oracle = self._power_oracle(g, q)
                assert s.tail_power_integral(g, q) == pytest.approx(float(oracle), rel=1e-12)

    def test_invert_tail_power_roundtrip_deep(self):
        s = PowerSqrtSpectrum()
        target = s.tail_power_integral(1.0, 1.5) * 1e-30
        g = s.invert_tail_power(target, 1.5)
        assert s.tail_power_integral(g, 1.5) == pytest.approx(target, rel=1e-12)

    def test_inversion_rejects_targets_beyond_the_total(self):
        # the totals are S(0) = 1 and the integral of sigma**1.5, 2**-1.5 / 0.25
        s = PowerSqrtSpectrum()
        for bad in (2.0, 1.0 + 1e-15, -1e-300, math.nan):
            with pytest.raises(ValueError, match="outside"):
                s.invert_tail_power(bad, 1.0)
        with pytest.raises(ValueError, match="outside"):
            s.invert_tail_power(5.0, 1.5)
        with pytest.raises(ValueError, match="outside"):
            s.invert_tail_power(np.array([0.25, 2.0]), 1.0)
        assert s.invert_tail_power(1.0, 1.0) == 1.0
        assert s.invert_tail_power(0.0, 1.0) == 0.0
        total = s.tail_power_integral(1.0, 1.5)
        assert s.invert_tail_power(total, 1.5) == pytest.approx(1.0, rel=1e-15)

    def test_inverting_the_total_stays_in_the_domain(self):
        # (t * expo * 2**q)**(1/expo) rounds above 1 at some q on this grid
        s = PowerSqrtSpectrum()
        for q in np.linspace(1.01, 1.99, 99):
            g = s.invert_tail_power(s.tail_power_integral(1.0, q), q)
            assert 0.0 <= g <= 1.0


class TestStepSpectrum:
    def test_density_cells(self):
        s = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        assert s.density(0.2) == 0.5
        assert s.density(0.5) == 1.5
        assert s.tail(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_near_unit_mass_is_rescaled(self):
        s = StepSpectrum([0.0, 1.0], [1.0 + 4e-11])
        assert s.values[0] == 1.0
        assert s.rescale_factor != 1.0

    def test_caller_arrays_stay_writeable(self):
        # the constructor copies; values of unit mass are not rescaled, so
        # without the copy both would be frozen in place
        bp, vals = np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.5])
        s = StepSpectrum(bp, vals)
        assert bp.flags.writeable and vals.flags.writeable
        bp[1], vals[1] = 0.75, 9.0
        assert s.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert s.values.tolist() == [0.5, 1.5]
        assert s.tail(0.5) == 0.75

    def test_lq_norm_exact(self):
        s = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        assert s.lq_norm(2.0) == pytest.approx(math.sqrt(0.125 + 1.125), abs=1e-15)

    def test_lq_norm_finite_where_the_power_sum_overflows(self):
        # 2**1100 overflows a double; the norm itself is just below 2
        s = StepSpectrum([0.0, 0.5, 1.0], [0.0, 2.0])
        assert s.lq_norm(1100.0) == pytest.approx(2.0 * 0.5 ** (1 / 1100), rel=1e-14)

    def test_validate_flags_decreasing(self):
        # the constructor validates; the error is a ValueError with violations
        with pytest.raises(ValueError) as caught:
            StepSpectrum([0.0, 0.5, 1.0], [1.5, 0.5])
        assert isinstance(caught.value, InvalidSpectrumError)
        assert [v.prop for v in caught.value.violations] == ["monotonicity"]
        assert caught.value.violations[0].at == 0.5
        assert "falls from 1.5 to 0.5" in str(caught.value)

    def test_validate_flags_negative_and_mass(self):
        with pytest.raises(InvalidSpectrumError) as caught:
            StepSpectrum([0.0, 1.0], [-1.0])
        assert [v.prop for v in caught.value.violations] == ["nonnegativity", "normalization"]
        with pytest.raises(InvalidSpectrumError) as caught:
            StepSpectrum([0.0, 1.0], [0.5])
        assert [v.prop for v in caught.value.violations] == ["normalization"]

    @pytest.mark.parametrize(
        "bp, values, violations",
        [
            ([0.0, 0.5, 1.0], [-1.0, 3.0], ["nonnegativity at u=0: value -1 is not >= 0"]),
            ([0.0, 0.5, 1.0], [1.5, 0.5], ["monotonicity at u=0.5: value falls from 1.5 to 0.5"]),
            ([0.0, 0.5, 1.0], [2.0, -0.0], ["monotonicity at u=0.5: value falls from 2 to -0"]),
            ([0.0, 0.5, 1.0], [1.0, 2.0], ["normalization at u=0: total mass 1.5 != 1"]),
            ([0.0, 1.0], [1.0 + 2e-10], ["normalization at u=0: total mass 1.0000000002 != 1"]),
            (
                [0.0, 0.5, 1.0],
                [-1.0, -1.0],
                [
                    "nonnegativity at u=0: value -1 is not >= 0",
                    "normalization at u=0: total mass -1 != 1",
                ],
            ),
            (
                [0.0, 0.25, 0.5, 1.0],
                [0.0, 3.0, 1.0],
                [
                    "monotonicity at u=0.5: value falls from 3 to 1",
                    "normalization at u=0: total mass 1.25 != 1",
                ],
            ),
        ],
    )
    def test_violations_are_pinned(self, bp, values, violations):
        with pytest.raises(InvalidSpectrumError) as caught:
            StepSpectrum(bp, values)
        assert [str(v) for v in caught.value.violations] == violations
        assert str(caught.value) == "invalid spectrum: " + "; ".join(violations)

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]])
    def test_nonfinite_values_are_rejected_before_validation(self, values):
        with pytest.raises(ValueError) as caught:
            StepSpectrum([0.0, 0.5, 1.0], values)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "step values must be finite"

    @pytest.mark.parametrize(
        "bp, values, message",
        [
            ([0.0, 0.5, 1.0], [1.0], "need n\\+1 breakpoints"),
            ([0.1, 1.0], [1.0], "must start at 0"),
        ],
    )
    def test_breakpoint_layout_is_checked_first(self, bp, values, message):
        with pytest.raises(ValueError, match=message):
            StepSpectrum(bp, values)

    def test_nan_breakpoint_is_not_increasing(self):
        # NaN fails every comparison, so only a positive test catches it
        for bp in ([0.0, math.nan, 1.0], [0.0, 0.5, math.nan, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                StepSpectrum(bp, np.ones(len(bp) - 1))

    def test_invert_tail_leftmost_on_flat_spot(self):
        # density 0 on [0, 0.5): every t in (0, 0.5] has the same forward
        # integral, and the tie resolves to the leftmost root, i.e. the
        # largest gap
        s = AvarSpectrum(0.5)
        assert s.invert_tail_power(1.0, 1.0) == 1.0
        assert s.invert_tail_power(0.5, 1.0) == pytest.approx(0.25, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_steps_validate_clean(self, seed):
        s = random_step(np.random.default_rng(seed))
        assert s.require_valid() is None

    @given(_step_inputs())
    @settings(max_examples=200, deadline=None)
    def test_constructs_exactly_when_valid(self, case):
        bp, vals = case
        expected = []
        if np.any(vals < 0):
            expected.append("nonnegativity")
        if np.any(vals[1:] < vals[:-1]):
            expected.append("monotonicity")
        if not abs(math.fsum(vals * np.diff(bp)) - 1.0) <= NORMALIZATION_ATOL:
            expected.append("normalization")
        if not expected:
            assert StepSpectrum(bp, vals).tail(0.0) == pytest.approx(1.0, abs=1e-15)
            return
        with pytest.raises(InvalidSpectrumError) as caught:
            StepSpectrum(bp, vals)
        assert [v.prop for v in caught.value.violations] == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tail_concavity(self, seed):
        rng = np.random.default_rng(seed)
        s = random_step(rng)
        a, b = rng.uniform(0, 1, 2)
        chord = (s.tail(a) + s.tail(b)) / 2.0
        assert s.tail((a + b) / 2.0) >= chord - 1e-12


class _AscendingGapReference:
    """The gap arithmetic of ``StepSpectrum`` on ascending nodes, as it was
    before the shared descending-node kernel; the reference for bit equality."""

    def __init__(self, s: StepSpectrum):
        nodes = (1.0 - s.breakpoints)[::-1].copy()
        nodes[0] = 0.0
        self.nodes = nodes
        self.density = s.values[::-1].copy()
        self.tail = np.concatenate([[0.0], np.cumsum(self.density * np.diff(nodes))])

    def cell(self, g):
        # cell i covers gaps (nodes[i], nodes[i+1]]; g = 0 maps to the top cell
        i = np.searchsorted(self.nodes, g, side="left") - 1
        return np.clip(i, 0, self.density.size - 1)

    def density_from_gap(self, g):
        return self.density[self.cell(g)]

    def tail_from_gap(self, g):
        i = self.cell(g)
        return self.tail[i] + self.density[i] * (g - self.nodes[i])

    def power_nodes(self, q):
        with np.errstate(over="ignore"):
            dq = self.density**q
        return dq, np.concatenate([[0.0], np.cumsum(dq * np.diff(self.nodes))])

    def tail_power_integral(self, g, q):
        dq, tails = self.power_nodes(q)
        i = self.cell(g)
        return tails[i] + dq[i] * (g - self.nodes[i])

    def invert_tail_power(self, target, q):
        dq, tails = self.power_nodes(q)
        assert 0.0 <= target <= tails[-1]
        i = int(np.searchsorted(tails, target, side="right") - 1)
        if i >= dq.size:
            return 1.0
        if dq[i] == 0.0:
            return float(self.nodes[i])
        return float(self.nodes[i] + (target - tails[i]) / dq[i])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def reference_case(rng):
    """A step spectrum with zero-density first cells and breakpoints down to
    1e-15 below 1, and gaps at 0, 1, 1e-300, every node and inside cells,
    and above 1 (a law's top tail mass can be 1 + 1 ulp; nothing clips)."""
    cuts = rng.uniform(0.0, 1.0, rng.integers(0, 40))
    deep = 1.0 - np.geomspace(1e-3, 1e-15, rng.integers(0, 5))
    edges = np.unique(np.concatenate([[0.0], cuts, deep, [1.0]]))
    vals = np.cumsum(rng.uniform(0.0, 2.0, edges.size - 1))
    vals[: rng.integers(0, edges.size - 1)] = 0.0
    vals[-1] += 0.5
    s = StepSpectrum(edges, vals / np.dot(vals, np.diff(edges)))
    nodes = s.kink_gaps
    inside = nodes[:-1] + rng.uniform(0.0, 1.0, nodes.size - 1) * np.diff(nodes)
    gaps = np.concatenate([[0.0, 1.0, 1e-300, np.nextafter(1.0, 2.0), 1.25], nodes, inside])
    return s, gaps


class TestGapKernel:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.7]))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_the_ascending_reference(self, seed, q):
        rng = np.random.default_rng(seed)
        s, gaps = reference_case(rng)
        ref = _AscendingGapReference(s)
        assert _bits(s.tail_from_gap(gaps)) == _bits(ref.tail_from_gap(gaps))
        assert _bits(s.density_from_gap(gaps)) == _bits(ref.density_from_gap(gaps))
        assert _bits(s.tail_power_integral(gaps, q)) == _bits(ref.tail_power_integral(gaps, q))
        for g in gaps:
            assert _bits(s.tail_from_gap(g)) == _bits(ref.tail_from_gap(np.array([g])))
        # the integral at every node, flat runs of zero cells included
        sums = ref.power_nodes(q)[1]
        targets = np.concatenate([sums, rng.uniform(0.0, 1.0, 5) * sums[-1]])
        expected = [ref.invert_tail_power(float(t), q) for t in targets]
        assert _bits(s.invert_tail_power(targets, q)) == _bits(expected)
        assert [s.invert_tail_power(float(t), q) for t in targets] == expected

    def test_kink_gaps_is_the_reversed_node_view(self):
        s = StepSpectrum([0.0, 0.25, 0.5, 1.0], [0.5, 1.0, 1.25])
        assert s.kink_gaps.tolist() == (1.0 - s.breakpoints)[::-1].tolist()
        assert not s.kink_gaps.flags.writeable

    def test_zero_density_run_inverts_to_its_far_end(self):
        # every gap in [0.6, 1] carries the whole integral; the largest wins
        s = StepSpectrum([0.0, 0.2, 0.4, 1.0], [0.0, 0.0, 1.0 / 0.6])
        total = s.tail_power_integral(1.0, 2.0)
        assert s.tail_power_integral(0.6, 2.0) == total
        assert s.invert_tail_power(total, 2.0) == 1.0
        assert s.invert_tail_power(1.0, 1.0) == 1.0
        assert s.invert_tail_power(0.0, 1.0) == 0.0


def _rising_tail_power(g, q):
    # integral of ((2 - t) / 1.5)**q over t in [0, g], without cancellation
    # at small g
    return -(2.0 ** (q + 1.0)) * np.expm1((q + 1.0) * np.log1p(-g / 2.0)) / ((q + 1.0) * 1.5**q)


def _general_rising():
    # sigma(u) = (1 + u) / 1.5, bounded, in gap form
    return GeneralSpectrum(
        gap_density_fn=lambda g: (2.0 - g) / 1.5,
        gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
        tail_power_fn=_rising_tail_power,
    )


class TestArrayContract:
    @pytest.mark.parametrize(
        "sigma",
        [
            random_step(np.random.default_rng(11), max_cells=12),
            AvarSpectrum(0.0),
            AvarSpectrum(0.8),
            PowerSqrtSpectrum(),
            _general_rising(),
        ],
        ids=["step", "avar0", "avar08", "power_sqrt", "general"],
    )
    def test_array_inverses_equal_scalar_calls(self, sigma):
        fractions = np.array([0.0, 1e-30, 0.125, 0.5, 0.9, 1.0])
        targets = fractions * float(sigma.tail_power_integral(1.0, 1.5))
        inv = sigma.invert_tail_power(targets, 1.5)
        assert isinstance(inv, np.ndarray) and inv.dtype == np.float64
        assert _bits(inv) == _bits([sigma.invert_tail_power(float(t), 1.5) for t in targets])
        tails = sigma.invert_tail_power(fractions, 1.0)
        assert isinstance(tails, np.ndarray) and tails.dtype == np.float64
        assert _bits(tails) == _bits([sigma.invert_tail_power(float(f), 1.0) for f in fractions])
        assert isinstance(sigma.invert_tail_power(0.5, 1.0), float)

    @pytest.mark.parametrize(
        "sigma",
        [AvarSpectrum(0.5), PowerSqrtSpectrum(), _general_rising()],
        ids=["avar", "power_sqrt", "general"],
    )
    def test_gap_methods_return_float_or_float64_array(self, sigma):
        gaps = np.array([1e-9, 0.25, 1.0])
        for method in (sigma.density_from_gap, sigma.tail_from_gap):
            assert isinstance(method(0.25), float)
            out = method(gaps)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert isinstance(sigma.tail_power_integral(0.25, 1.5), float)
        assert sigma.tail_power_integral(gaps, 1.5).dtype == np.float64

    def test_scalar_closed_form_is_broadcast(self):
        # the mean spectrum, its density declared as the constant 1.0
        mean = GeneralSpectrum(gap_density_fn=lambda g: 1.0, gap_tail_fn=lambda g: g)
        assert mean.density(0.3) == 1.0
        levels = np.array([[0.0, 0.3], [0.6, 0.9]])
        out = mean.density(levels)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == levels.shape and (out == 1.0).all()
        dist = StepQuantile.from_samples([-1.0, 2.0, 5.0, 10.0])
        assert spectral_risk(mean, dist) == pytest.approx(dist.mean, abs=1e-15)

    def test_result_never_aliases_the_argument(self):
        # an identity closed form hands back its argument; writing into the
        # result must leave the caller's array alone
        ident = GeneralSpectrum(gap_density_fn=np.ones_like, gap_tail_fn=lambda g: g)
        gaps = np.array([0.25, 0.5])
        out = ident.tail_from_gap(gaps)
        assert out is not gaps
        out[0] = 9.0
        assert gaps.tolist() == [0.25, 0.5]
        assert ident.tail_from_gap(gaps[::-1]).tolist() == [0.5, 0.25]


def _assert_smallest_reaching_gap(sigma, gap, q):
    """The inverse of the integral at ``gap`` is the smallest double gap
    whose integral reaches it; the total maps to gap 1 by the flat-spot rule."""
    t = float(sigma.tail_power_integral(gap, q))
    g = sigma.invert_tail_power(t, q)
    if t == float(sigma.tail_power_integral(1.0, q)):
        assert g == 1.0
        return
    assert sigma.tail_power_integral(g, q) >= t
    assert g == 0.0 or sigma.tail_power_integral(math.nextafter(g, 0.0), q) < t


class TestDerivedForms:
    """A closed-form family declares its forward forms; ``lq_norm`` and the
    inverse come from ``Spectrum``."""

    def test_closed_forms_inherit_norm_and_inverse(self):
        for cls in (PowerSqrtSpectrum, GeneralSpectrum):
            assert cls.lq_norm is Spectrum.lq_norm
            assert cls.invert_tail_power is Spectrum.invert_tail_power
        assert StepSpectrum.lq_norm is not Spectrum.lq_norm
        assert StepSpectrum.invert_tail_power is not Spectrum.invert_tail_power

    @given(st.floats(0.0, 1.0), st.floats(1.0, 1.99))
    @settings(max_examples=300, deadline=None)
    def test_power_sqrt_inverse_is_the_smallest_reaching_gap(self, gap, q):
        _assert_smallest_reaching_gap(PowerSqrtSpectrum(), gap, q)

    @given(st.floats(0.0, 1.0), st.floats(1.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_general_inverse_is_the_smallest_reaching_gap(self, gap, q):
        _assert_smallest_reaching_gap(_general_rising(), gap, q)

    @staticmethod
    def _ulps_from_mpmath(q):
        # ||sigma||_q = (1/2)(2/(2-q))**(1/q) at 200 bits, for the double q
        with mpmath.workprec(200):
            qm = mpmath.mpf(q)
            exact = mpmath.mpf(0.5) * (2 / (2 - qm)) ** (1 / qm)
            got = PowerSqrtSpectrum().lq_norm(q)
            return float(abs(got - exact) / math.ulp(float(exact)))

    @given(st.floats(1.0, 1.9))
    @settings(max_examples=300, deadline=None)
    def test_power_sqrt_lq_norm_within_two_ulp_of_mpmath(self, q):
        assert self._ulps_from_mpmath(q) <= 2.0

    @given(st.one_of(st.floats(1.9, 2.0, exclude_max=True),
                     st.integers(1, 60).map(lambda k: 2.0 - k * 2.0**-52)))
    @settings(max_examples=300, deadline=None)
    def test_power_sqrt_lq_norm_near_two_within_its_conditioning(self, q):
        # the total grows without bound as q -> 2, where the rounding of 1/q
        # alone would move total**(1/q) by up to log(total)/q ulp; the norm
        # stays within 2 ulp all the same, the last 60 doubles below 2 included
        assert self._ulps_from_mpmath(q) <= 2.0

    def test_not_integrable_power_sqrt(self):
        s = PowerSqrtSpectrum()
        for q in (2.0, 2.5):
            with pytest.raises(ValueError, match="not integrable"):
                s.invert_tail_power(0.5, q)

    def test_not_integrable_general(self):
        gen = GeneralSpectrum(
            gap_density_fn=lambda g: 0.5 / np.sqrt(g),
            gap_tail_fn=np.sqrt,
            tail_power_fn=sqrt_tail_power,
        )
        assert math.isinf(gen.lq_norm(2.0))
        with pytest.raises(ValueError, match="not integrable"):
            gen.invert_tail_power(0.5, 2.0)


class TestKinkScan:
    def test_kink_gaps_per_family(self):
        s = StepSpectrum([0.0, 0.25, 0.5, 1.0], [0.5, 1.0, 1.25])
        assert s.kink_gaps.tolist() == [0.0, 0.5, 0.75, 1.0]


class TestGeneralSpectrum:
    def test_inversion_never_reads_a_nan_gap(self):
        # sigma(u) = (1 + u) / 1.5 in closed forms that raise on any NaN,
        # as the bit patterns below +0.0 would read; zero inverts to gap 0
        def strict(fn):
            def wrapped(g, *args):
                if np.isnan(g).any():
                    raise AssertionError("a closed form read a NaN gap")
                return fn(g, *args)
            return wrapped

        rising = _general_rising()
        s = GeneralSpectrum(gap_density_fn=strict(rising.gap_density_fn),
                            gap_tail_fn=strict(rising.gap_tail_fn),
                            tail_power_fn=strict(rising.tail_power_fn))
        for q in (1.0, 1.5):
            total = float(s.tail_power_integral(1.0, q))
            g = s.invert_tail_power(np.array([0.0, total / 2.0, total]), q)
            assert g[0] == 0.0 and g[2] == 1.0
            assert abs(float(s.tail_power_integral(g[1], q)) - total / 2.0) <= 1e-10

    def _power(self):
        # sigma(u) = (1/2)(1-u)^(-1/2) expressed through closed forms only
        return GeneralSpectrum(
            gap_density_fn=lambda g: 0.5 / np.sqrt(g),
            gap_tail_fn=np.sqrt,
            tail_power_fn=sqrt_tail_power,
        )

    def test_matches_closed_form_family(self):
        gen = self._power()
        ref = PowerSqrtSpectrum()
        gs = np.array([1e-300, 1e-9, 0.01, 0.5, 1.0])
        assert gen.tail_from_gap(gs) == pytest.approx(ref.tail_from_gap(gs), rel=1e-12)
        assert _bits(gen.density_from_gap(gs)) == _bits(ref.density_from_gap(gs))
        levels = np.array([0.0, 0.5, 0.99, 1.0 - 1e-9])
        assert _bits(gen.density(levels)) == _bits(ref.density(levels))
        assert gen.require_valid() is None

    def test_constructor_rejects_invalid_closed_forms(self):
        # sigma(u) = 2 (1 - u) falls; a constant 1/2 has mass 1/2
        with pytest.raises(InvalidSpectrumError) as caught:
            GeneralSpectrum(gap_density_fn=lambda g: 2.0 * g, gap_tail_fn=lambda g: g * g)
        assert [v.prop for v in caught.value.violations] == ["monotonicity"]
        with pytest.raises(InvalidSpectrumError) as caught:
            GeneralSpectrum(gap_density_fn=lambda g: np.full_like(g, 0.5),
                            gap_tail_fn=lambda g: 0.5 * g)
        assert [v.prop for v in caught.value.violations] == ["normalization"]
        # NaN fails every comparison; the check tests for values >= 0
        with pytest.raises(InvalidSpectrumError, match="nan is not >= 0") as caught:
            GeneralSpectrum(gap_density_fn=lambda g: np.where(g < 0.5, np.nan, 1.0),
                            gap_tail_fn=lambda g: g)
        assert [v.prop for v in caught.value.violations] == ["nonnegativity"]

    def test_bisection_inversion(self):
        gen = self._power()
        g = gen.invert_tail_power(0.125, 1.0)
        assert gen.tail_from_gap(g) == pytest.approx(0.125, abs=1e-10)

    def test_inversion_agrees_with_the_closed_form_to_tiny_gaps(self):
        # the targets are the integrals at known gaps, which are their exact roots
        gen = self._power()
        gaps = np.geomspace(1.0, 1e-280, 1000)
        for q in (1.0, 1.5):
            got = gen.invert_tail_power(gen.tail_power_integral(gaps, q), q)
            assert np.max(np.abs(got - gaps) / np.spacing(gaps)) <= 16
        # below the smallest normal gap: tail 1e-151 is reached at 1e-302
        ref = PowerSqrtSpectrum()
        assert gen.invert_tail_power(1e-151, 1.0) == 9.999999999999998e-303 == ref.invert_tail_power(1e-151, 1.0)
        assert gen.invert_tail_power(0.0, 1.0) == 0.0
        assert gen.invert_tail_power(1.0, 1.0) == 1.0

    def test_inversion_returns_the_smallest_reaching_gap(self):
        gen = self._power()
        targets = np.random.default_rng(5).uniform(0.0, 1.0, 2000) ** 40
        for q in (1.0, 1.5):
            scaled = targets * float(gen.tail_power_integral(1.0, q))
            g = gen.invert_tail_power(scaled, q)
            assert np.all(gen.tail_power_integral(g, q) >= scaled)
            assert np.all(gen.tail_power_integral(np.nextafter(g, 0.0), q) < scaled)

    def test_total_inverts_to_gap_one_across_a_flat_spot(self):
        # sigma = 2 above level 1/2 and 0 below, as AVaR(1/2): the tail
        # reaches its total at gap 1/2, and the total still maps to gap 1
        avar_like = GeneralSpectrum(
            gap_density_fn=lambda g: np.where(g <= 0.5, 2.0, 0.0),
            gap_tail_fn=lambda g: np.minimum(2.0 * g, 1.0),
        )
        assert avar_like.invert_tail_power(1.0, 1.0) == 1.0 == AvarSpectrum(0.5).invert_tail_power(1.0, 1.0)
        assert avar_like.invert_tail_power(0.5, 1.0) == 0.25 == AvarSpectrum(0.5).invert_tail_power(0.5, 1.0)

    def test_inversion_cost_is_fixed_per_batch(self):
        calls = []

        def counted(g, q):
            calls.append(np.size(g))
            return sqrt_tail_power(g, q)

        gen = GeneralSpectrum(
            gap_density_fn=lambda g: 0.5 / np.sqrt(g), gap_tail_fn=np.sqrt, tail_power_fn=counted
        )
        targets = np.linspace(0.0, float(gen.tail_power_integral(1.0, 1.5)), 1000)
        calls.clear()
        batch = gen.invert_tail_power(targets, 1.5)
        assert len(calls) <= 64
        # a fixed count of halvings: no element depends on the rest of the batch
        alone = [gen.invert_tail_power(t, 1.5) for t in targets[::97]]
        assert _bits(batch[::97]) == _bits(alone)

    def test_residual_check_catches_a_jump(self):
        # a declared sigma**q integral with a jump at gap 1/2 has no root for
        # targets inside the jump; the bisection ends at the jump and the
        # residual check rejects it
        jumpy = GeneralSpectrum(
            gap_density_fn=np.ones_like,
            gap_tail_fn=lambda g: g,
            tail_power_fn=lambda g, q: np.where(g < 0.5, g, g + 0.25) / 1.25,
        )
        assert jumpy.invert_tail_power(0.2, 1.5) == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(ValueError, match="residual"):
            jumpy.invert_tail_power(0.5, 1.5)

    def test_inversion_rejects_targets_beyond_the_total(self):
        gen = self._power()
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="outside"):
                gen.invert_tail_power(bad, 1.0)
        assert gen.invert_tail_power(1.0, 1.0) == 1.0

    def test_declared_exponent_gates_lq(self):
        gen = self._power()
        assert math.isinf(gen.lq_norm(2.0))
        assert gen.lq_norm(1.5) == pytest.approx(PowerSqrtSpectrum().lq_norm(1.5), rel=1e-14)

    def test_small_gap_power_integral_is_the_closed_form(self):
        # a quadrature of sigma**1.5 from gap 0 returned inf here
        assert self._power().tail_power_integral(1e-12, 1.5) == pytest.approx(
            PowerSqrtSpectrum().tail_power_integral(1e-12, 1.5), rel=1e-15
        )

    def test_undeclared_forms_raise(self):
        bare = GeneralSpectrum(gap_density_fn=lambda g: 0.5 / np.sqrt(g), gap_tail_fn=np.sqrt)
        for call in (lambda: bare.lq_norm(1.5), lambda: bare.tail_power_integral(0.5, 1.5)):
            with pytest.raises(ValueError, match="tail_power_fn"):
                call()
        assert bare.lq_norm(1.0) == 1.0
        assert bare.tail_power_integral(0.25, 1.0) == 0.5
        with pytest.raises(ValueError, match="density_sup"):
            bare.lq_norm(math.inf)
        rising = GeneralSpectrum(
            gap_density_fn=lambda g: (2.0 - g) / 1.5,
            gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
            density_sup=4.0 / 3.0,
        )
        assert rising.lq_norm(math.inf) == 4.0 / 3.0


class TestStepApprox:
    def test_single_cell_is_expectation(self):
        approx, factor = step_approx(PowerSqrtSpectrum(), 1)
        assert approx.values.tolist() == [1.0]
        assert factor == 2.0

    def test_step_input_passes_through(self):
        s = AvarSpectrum(0.25)
        approx, factor = step_approx(s, 12)
        assert approx is s
        assert factor == 1.0

    @pytest.mark.parametrize(
        "cells, message", [(0, "at least one mesh cell"), (51, "collide beyond 50 cells")]
    )
    def test_cell_count_domain(self, cells, message):
        with pytest.raises(ValueError, match=message):
            step_approx(PowerSqrtSpectrum(), cells)

    def test_zero_density_at_level_zero_leaves_no_mass(self):
        # sigma(u) = 2u: one cell carries its infimum sigma(0) = 0
        rising = GeneralSpectrum(
            gap_density_fn=lambda g: 2.0 * (1.0 - g), gap_tail_fn=lambda g: g * (2.0 - g)
        )
        with pytest.raises(ValueError, match="zero mass"):
            step_approx(rising, 1)

    def test_refinement_validates_and_tightens(self):
        coarse, f_coarse = step_approx(PowerSqrtSpectrum(), 4)
        fine, f_fine = step_approx(PowerSqrtSpectrum(), 20)
        assert coarse.require_valid() is None and fine.require_valid() is None
        # a finer under-approximation wastes less mass
        assert 1.0 <= f_fine <= f_coarse


class TestFileForm:
    def test_roundtrip(self, tmp_path):
        for sigma in (AvarSpectrum(0.3), PowerSqrtSpectrum(), random_step(np.random.default_rng(5))):
            f = tmp_path / "s.json"
            f.write_text(__import__("json").dumps(sigma.to_dict()))
            back = load_spectrum(f)
            gs = np.linspace(1e-6, 1.0, 17)
            assert back.tail_from_gap(gs) == pytest.approx(sigma.tail_from_gap(gs), abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            spectrum_from_dict({"kind": "cauchy"})

    def test_general_has_no_file_form(self):
        gen = GeneralSpectrum(gap_density_fn=np.ones_like, gap_tail_fn=lambda g: g)
        with pytest.raises(NotImplementedError):
            gen.to_dict()


class TestDomainErrors:
    def test_tail_outside_unit_interval(self):
        for sigma in (AvarSpectrum(0.5), PowerSqrtSpectrum()):
            for bad in (-0.25, 1.5, np.array([0.5, 2.0])):
                with pytest.raises(ValueError, match=r"levels in \[0, 1\]"):
                    sigma.tail(bad)

    @pytest.mark.parametrize("reader", ["tail", "density"])
    @pytest.mark.parametrize("bad", [math.nan, np.array([0.5, math.nan]), -0.1, 1.5])
    def test_level_readers_reject_nan_and_outside_levels(self, reader, bad):
        # one positive condition, which a NaN fails, for the step form's own
        # density lookup and the gap-derived forms alike
        step = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        for sigma in (step, PowerSqrtSpectrum(), _general_rising()):
            with pytest.raises(ValueError, match=r"levels in \[0, 1\]"):
                getattr(sigma, reader)(bad)

    def test_level_readers_accept_the_closed_interval(self):
        sigma = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        assert sigma.density(np.array([0.0, 1.0])).tolist() == [0.5, 1.5]
        assert sigma.tail(np.array([0.0, 1.0])).tolist() == [1.0, 0.0]

    @staticmethod
    def _gap_readers():
        # every gap reader of each family: a law's two, and a spectrum's three
        law = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        yield "law.value_at_gap", law.value_at_gap
        yield "law.upper_integral", law.upper_integral
        step = StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5])
        for name, sigma in (("step", step), ("avar", AvarSpectrum(0.5)),
                            ("power_sqrt", PowerSqrtSpectrum()), ("general", _general_rising())):
            yield f"{name}.density_from_gap", sigma.density_from_gap
            yield f"{name}.tail_from_gap", sigma.tail_from_gap
            yield f"{name}.tail_power_integral", lambda g, s=sigma: s.tail_power_integral(g, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, np.array([0.5, math.nan]), -0.1])
    def test_gap_readers_reject_nan_and_negative_gaps(self, bad):
        # one positive condition, which a NaN fails, before any cell lookup
        # or closed form reads the gap
        for name, reader in self._gap_readers():
            with pytest.raises(ValueError, match=r"gaps >= 0"):
                reader(bad)
                pytest.fail(f"{name} accepted {bad!r}")

    def test_gap_readers_accept_signed_zero(self):
        # gap 0 reads sigma(1-), which is inf for the square-root spectrum
        for name, reader in self._gap_readers():
            at_zero = reader(0.0)
            assert not math.isnan(at_zero) and at_zero >= 0.0, name
            assert reader(-0.0) == at_zero, name

    def test_gaps_above_the_top_read_the_nearest_cell(self):
        # a law's top tail mass may round above 1, so these keep their reading
        assert StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0]).value_at_gap(1.5) == 1.0
        # the top cell's linear form, extended: not clipped to S(0) = 1
        assert AvarSpectrum(0.0).tail_from_gap(1.0 + 2.0**-52) == 1.0 + 2.0**-52
        assert StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5]).tail_from_gap(1.5) == 1.25

    def test_lq_norm_below_one(self):
        for sigma in (AvarSpectrum(0.5), PowerSqrtSpectrum()):
            with pytest.raises(ValueError, match="Lq norms need q >= 1"):
                sigma.lq_norm(0.5)


class TestRepr:
    def test_small_step_repr_names_class_and_fields(self):
        text = repr(StepSpectrum([0.0, 0.5, 1.0], [0.5, 1.5]))
        assert text.startswith("StepSpectrum(")
        assert "breakpoints=" in text and "values=" in text and "1.5" in text

    def test_large_step_repr_is_a_summary(self):
        sigma = StepSpectrum(np.linspace(0.0, 1.0, 10**6 + 1), np.ones(10**6))
        assert len(repr(sigma)) < 1000

    def test_avar_repr_gives_its_level(self):
        assert repr(AvarSpectrum(0.5)) == "AvarSpectrum(level=0.5)"
