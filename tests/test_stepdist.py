"""Step quantile arithmetic: construction, evaluation, norms, couplings."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskspace.risk import sigma_norm
from riskspace.spectrum import AvarSpectrum, PowerSqrtSpectrum
from riskspace.stepdist import (
    InputFormatError,
    PairedSample,
    StepQuantile,
    comonotone_pair,
    read_samples_csv,
)


def values_masses(max_segments=16):
    n = st.integers(1, max_segments)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-50, 50), min_size=k, max_size=k),
            st.lists(st.floats(0.01, 5.0), min_size=k, max_size=k),
        )
    )


def tiny_values_masses(max_segments=16):
    # masses spread over 300 decades, so that tail masses collapse against
    # each other and against 1 in floating point
    mass = st.tuples(st.floats(1.0, 9.99), st.integers(0, 300)).map(
        lambda me: me[0] * 10.0 ** -me[1]
    )
    n = st.integers(1, max_segments)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-50, 50), min_size=k, max_size=k).map(sorted),
            st.lists(mass, min_size=k, max_size=k),
        )
    )


def overlap_upper_integral(values, tails, gaps):
    """Reference: the n_gaps x n_segments overlap of each segment's gap
    cell (T_{k+1}, T_k] with (0, g], times the segment values."""
    g = np.atleast_1d(np.asarray(gaps, dtype=float))
    overlap = np.clip(np.minimum(tails[:-1], g[:, None]) - tails[1:], 0.0, None)
    return overlap @ values


# -- reference: the earlier canonicalisation, kept to pin its bits -------------


def reference_canonical(values, masses):
    """The earlier ``StepQuantile.__post_init__`` on valid input: values,
    masses rescaled to unit total, and their suffix sums."""
    vals = np.asarray(values, dtype=float)
    mass = np.asarray(masses, dtype=float)
    with np.errstate(over="ignore"):
        total = float(mass.sum())
    if math.isinf(total):  # finite masses, overflowing sum: largest to 1 first
        mass = mass / mass.max()
        total = float(mass.sum())
    if total != 1.0:
        mass = mass / total
    tails = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
    return vals, mass, tails


def reference_from_segments(values, masses):
    """The earlier ``from_segments``: drop zeros, stable sort, merge ties by
    adding each run into zeros."""
    vals = np.asarray(values, dtype=float)
    mass = np.asarray(masses, dtype=float)
    keep = mass > 0
    vals, mass = vals[keep], mass[keep]
    order = np.argsort(vals, kind="stable")
    vals, mass = vals[order], mass[order]
    fresh = np.concatenate([[True], np.diff(vals) != 0])
    idx = np.cumsum(fresh) - 1
    merged = np.zeros(int(idx[-1]) + 1)
    np.add.at(merged, idx, mass)
    return reference_canonical(vals[fresh], merged)


def reference_abs(dist):
    return reference_from_segments(np.abs(dist.values), dist.masses)


def same_bits(dist, ref):
    return all(
        a.dtype == np.float64 and a.tobytes() == b.tobytes()
        for a, b in zip((dist.values, dist.masses, dist.tail_masses), ref)
    )


def law_arrays(dist):
    return dist.values, dist.masses, dist.tail_masses


def fuzz_law(rng):
    """A law of 1 to 99 segments: runs of consecutive doubles, which any
    rounding merges, small values to be shifted by far more, or values of
    any magnitude up to 1e300; masses spread over up to 300 decades."""
    n = int(rng.integers(1, 100))
    magnitude = 10.0 ** rng.uniform(-300.0, 300.0)
    kind = rng.integers(4)
    if kind == 0:
        start = np.float64(rng.uniform(0.5, 1.0) * magnitude).view(np.int64)
        vals = np.sort((start + np.arange(n)).view(np.float64) * rng.choice([-1.0, 1.0]))
    elif kind == 1:
        vals = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        vals = rng.uniform(-1.0, 1.0, n) * magnitude
    masses = 10.0 ** (rng.uniform(-150.0, 150.0) + rng.uniform(-150.0, 150.0, n))
    return StepQuantile.from_segments(vals, masses)


@st.composite
def raw_segments(draw):
    """Unsorted segments with exact ties (runs of 8 or more among them),
    +-x pairs, signed zeros and zero masses; the masses are dyadic and sum
    to exactly 1, or arbitrary, or spread over 300 decades."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.floats(-50, 50) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool + [-x for x in pool]), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["exact", "float", "tiny"]))
    if kind == "exact":
        # units of 2**-7 topped up to 128 by one more segment: a sum of 1
        units = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        values.append(draw(st.sampled_from(values)))
        units.append(128 - sum(units))
        masses = [u / 128 for u in units]
    elif kind == "float":
        masses = draw(st.lists(st.floats(0.01, 5.0) | st.just(0.0), min_size=n, max_size=n))
    else:
        tiny = st.tuples(st.floats(1.0, 9.99), st.integers(0, 300)).map(lambda me: me[0] * 10.0**-me[1])
        masses = draw(st.lists(tiny | st.just(0.0), min_size=n, max_size=n))
    if not any(m > 0 for m in masses):
        masses[0] = 1.0
    return values, masses


class TestCanonicalBits:
    # the lean canonicalisation against the earlier one, byte for byte

    @given(raw_segments())
    @settings(max_examples=300, deadline=None)
    @example(([2.0] * 9 + [-2.0, 1.0], [0.1] * 9 + [0.3, 0.0]))
    @example(([-0.0, 0.0, 0.0, -0.0], [0.25, 0.25, 0.25, 0.25]))
    @example(([3.0], [0.7]))
    @example(([1.0, -1.0, 0.0, -0.0], [1e-300, 1e-300, 0.5, 0.5]))
    @example(([-3.0, -0.0, 0.0, 3.0], [1e-300, 0.25, 0.25, 1e-300]))
    # a sorted signed law: |Y| arrives as a falling run, then a rising one
    @example(([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 3.0], [0.1, 0.2, 0.1, 0.05, 0.15, 0.3, 0.1]))
    def test_from_segments_and_abs(self, vm):
        values, masses = vm
        dist = StepQuantile.from_segments(values, masses)
        assert same_bits(dist, reference_from_segments(values, masses))
        assert same_bits(dist.abs(), reference_abs(dist))

    @given(raw_segments())
    @settings(max_examples=100, deadline=None)
    def test_direct_construction(self, vm):
        values, masses = vm
        pos = [(v, m) for v, m in zip(values, masses) if m > 0]
        vals = sorted(v for v, _ in pos)
        mass = [m for _, m in pos]
        assert same_bits(StepQuantile(vals, mass), reference_canonical(vals, mass))


# numpy's own argsort, which the injected permutations below call
_ARGSORT = np.argsort


def reversed_ties(values):
    """A sorting permutation of ``values`` with every tie run reversed:
    the stable order's opposite within each run."""
    vals = np.asarray(values, dtype=float)
    stable = _ARGSORT(vals, kind="stable")
    svals = vals[stable]
    run = np.cumsum(np.concatenate([[True], svals[1:] != svals[:-1]]))
    return stable[np.lexsort((-np.arange(vals.size), run))]


# sorting permutations the canonicalisation must not depend on
SORTS = (reversed_ties, _ARGSORT, lambda v: _ARGSORT(v, kind="stable"))


def positive_rows(vm):
    values, masses = vm
    rows = [(v, m) for v, m in zip(values, masses) if m > 0]
    return [v for v, _ in rows], [m for _, m in rows]


TIED_RUN = [2.0, -1.0, 2.0, 2.0, 0.5, 2.0, 2.0, 2.0, -1.0, 2.0, 2.0, 2.0]


class TestSampleBits:
    # the constructors sort with numpy's default, unstable argsort; every
    # tie run must still merge as the stable reference merges it

    @given(raw_segments(), st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(([0.0, -0.0], [0.25, 0.75]), True)
    @example(([-0.0, 0.0], [0.75, 0.25]), True)
    @example(([0.0, -0.0, 1.0, -0.0, 0.0], [0.1, 0.3, 0.2, 0.7, 1e-300]), True)
    @example((TIED_RUN, [0.1 * (k + 1) for k in range(len(TIED_RUN))]), True)
    @example(([1.0, 3.0, 1.0, 2.0], [1e-300, 0.5, 1e-300, 0.5]), True)
    @example(([2.0, 1.0, 2.0, 3.0], [1e308, 1.5e308, 2e307, 1e308]), True)
    def test_from_samples(self, vm, weighted):
        values, masses = positive_rows(vm)
        if not weighted:
            masses = np.full(len(values), 1.0 / len(values))
        dist = StepQuantile.from_samples(values, masses if weighted else None)
        assert same_bits(dist, reference_from_segments(values, masses))

    @given(raw_segments())
    @settings(max_examples=200, deadline=None)
    @example(([0.0, -0.0], [0.25, 0.75]))
    @example(([2.0, 1.0, 2.0, 3.0], [1e308, 1.5e308, 2e307, 1e308]))
    def test_samples_are_segments(self, vm):
        values, masses = positive_rows(vm)
        seg = StepQuantile.from_segments(values, masses)
        assert same_bits(StepQuantile.from_samples(values, masses),
                         (seg.values, seg.masses, seg.tail_masses))

    @given(raw_segments())
    @settings(max_examples=200, deadline=None)
    @example(([0.0, -0.0], [0.25, 0.75]))
    @example(([-0.0, 0.0, -0.0], [0.75, 0.25, 0.5]))
    @example((TIED_RUN, [0.1 * (k + 1) for k in range(len(TIED_RUN))]))
    def test_any_sorting_permutation(self, vm):
        values, masses = vm
        ref = reference_from_segments(values, masses)
        for perm in SORTS:
            with mock.patch.object(np, "argsort", side_effect=perm) as argsort:
                dist = StepQuantile.from_segments(values, masses)
            assert argsort.called
            assert same_bits(dist, ref)

    def test_large_tied_weighted_sample(self):
        rng = np.random.default_rng(7)
        values = np.round(rng.standard_t(2.5, 100_000) * 10.0, 1)
        weights = rng.uniform(0.5, 2.0, values.size)
        ref = reference_from_segments(values, weights)
        assert ref[0].size < values.size // 10  # long tie runs
        for perm in SORTS:
            with mock.patch.object(np, "argsort", side_effect=perm) as argsort:
                dist = StepQuantile.from_samples(values, weights)
            assert argsort.called
            assert same_bits(dist, ref)


class TestCallerArrays:
    # constructors copy their inputs, so they never freeze the caller's arrays

    def test_step_quantile(self):
        values, masses = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        d = StepQuantile(values, masses)
        assert values.flags.writeable and masses.flags.writeable
        values[0], masses[0] = 7.0, 0.9
        assert d.values.tolist() == [1.0, 2.0]
        assert d.masses.tolist() == [0.5, 0.5]

    def test_paired_sample(self):
        y, z, w = np.array([2.0, 1.0]), np.array([0.0, 5.0]), np.array([0.5, 0.5])
        s = PairedSample(y, z, w)
        assert y.flags.writeable and z.flags.writeable and w.flags.writeable
        y[0], z[0], w[0] = 9.0, 9.0, 0.9
        assert (s.y.tolist(), s.z.tolist(), s.w.tolist()) == ([2.0, 1.0], [0.0, 5.0], [0.5, 0.5])


class TestAllocationPeak:
    # canonicalisation holds the sorted values and masses, the tail masses
    # and the sort order or run index, not about ten throwaway arrays
    N = 200_000

    @pytest.fixture(params=["distinct", "tied"])
    def sample(self, request):
        rng = np.random.default_rng(3)
        x = rng.standard_t(2.5, self.N) * 10.0
        return x if request.param == "distinct" else np.round(x, 1)

    def peak_in_arrays(self, fn):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * self.N)

    def test_from_samples(self, sample):
        assert self.peak_in_arrays(lambda: StepQuantile.from_samples(sample)) <= 5.0

    def test_abs(self, sample):
        d = StepQuantile.from_samples(sample)
        assert self.peak_in_arrays(d.abs) <= 5.0

    def test_sigma_norm(self, sample):
        d = StepQuantile.from_samples(sample)
        sigma = PowerSqrtSpectrum()
        sigma.require_valid()
        assert self.peak_in_arrays(lambda: sigma_norm(sigma, d)) <= 6.0


class TestConstruction:
    def test_from_samples_sorts_and_merges(self):
        d = StepQuantile.from_samples([3.0, 1.0, 3.0, 2.0])
        assert d.values.tolist() == [1.0, 2.0, 3.0]
        assert d.masses.tolist() == [0.25, 0.25, 0.5]

    def test_permutation_invariance(self):
        x = [0.5, -1.0, 2.0, 2.0, 7.0]
        a = StepQuantile.from_samples(x)
        b = StepQuantile.from_samples(x[::-1])
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.masses, b.masses)

    def test_from_segments_drops_zero_mass_and_sorts(self):
        d = StepQuantile.from_segments([2.0, 1.0, 5.0], [0.3, 0.7, 0.0])
        assert d.values.tolist() == [1.0, 2.0]
        assert d.masses.tolist() == [0.7, 0.3]

    def test_weights_normalized(self):
        d = StepQuantile.from_samples([1.0, 2.0], weights=[2.0, 6.0])
        assert d.masses.tolist() == [0.25, 0.75]

    def test_mass_total_that_overflows_is_rescaled(self):
        # each mass is finite, their sum is not: rescaling by it gave zeros
        d = StepQuantile([1.0, 2.0], [1e308, 1e308])
        assert d.masses.tolist() == [0.5, 0.5]
        assert d.mean == 1.5
        d = StepQuantile.from_samples([1.0, 2.0, 3.0], weights=[1e308] * 3)
        assert d.masses.tolist() == [1.0 / 3.0] * 3

    def test_mass_that_underflows_when_normalised_is_rejected(self):
        # 1e-300 / 1e300 is 0: the canonical form would hold a zero-mass segment
        with pytest.raises(ValueError, match="underflows"):
            StepQuantile([1.0, 2.0], [1e300, 1e-300])
        with pytest.raises(ValueError, match="underflows"):
            StepQuantile.from_segments([2.0, 1.0], [1e-300, 1e300])

    def test_from_segments_rejects_nan_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StepQuantile.from_segments([1.0, 2.0, 3.0], [float("nan"), 0.5, 0.5])

    def test_rejects_decreasing_direct_values(self):
        with pytest.raises(ValueError):
            StepQuantile([2.0, 1.0], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StepQuantile.from_samples([])

    @pytest.mark.parametrize(
        "values, masses", [([1.0, 2.0], [1.0]), ([], []), ([[1.0, 2.0]], [[0.5, 0.5]])]
    )
    def test_direct_construction_checks_shapes(self, values, masses):
        with pytest.raises(ValueError, match="equal-length, nonempty 1-d arrays"):
            StepQuantile(values, masses)

    def test_from_samples_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="weights must match the sample"):
            StepQuantile.from_samples([1.0, 2.0], [1.0])

    def test_negative_scale_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StepQuantile([1.0], [1.0]).scale(-1.0)

    @pytest.mark.parametrize(
        "y, z, w",
        [([1.0, 2.0], [1.0], [0.5, 0.5]), ([], [], []), ([[1.0]], [[1.0]], [[1.0]])],
    )
    def test_paired_sample_checks_shapes(self, y, z, w):
        with pytest.raises(ValueError, match="equal-length nonempty y, z, w"):
            PairedSample(y, z, w)

    @pytest.mark.parametrize("masses", [[0.5, 0.25, 0.25], [1.0]])
    def test_from_segments_rejects_mismatched_lengths(self, masses):
        # with every mass positive no boolean gather checks the lengths
        with pytest.raises(ValueError, match="equal-length"):
            StepQuantile.from_segments([1.0, 2.0], masses)


NAN, INF = float("nan"), float("inf")
FINITE = "quantile values must be finite"
POSITIVE = "segment masses must be strictly positive and finite"
NONNEGATIVE = "segment masses must be nonnegative"
WEIGHTS = "weights must be strictly positive and finite"
UNDERFLOW = "a segment mass underflows to 0 when normalised"
CONSTRUCTORS = {
    "direct": StepQuantile,
    "segments": StepQuantile.from_segments,
    "samples": StepQuantile.from_samples,
}


class TestErrorContract:
    # each constructor's exception and message on malformed input, pinned so
    # that reordering or merging the checks cannot change what a caller sees

    @pytest.mark.parametrize("ctor", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_nonfinite_value(self, ctor, bad, pos):
        values = [0.0, 1.0, 2.0]
        values[pos] = bad
        with pytest.raises(ValueError) as caught:
            CONSTRUCTORS[ctor](values, [0.25, 0.25, 0.5])
        assert type(caught.value) is ValueError and str(caught.value) == FINITE

    @pytest.mark.parametrize("ctor", sorted(CONSTRUCTORS))
    def test_all_nan_values(self, ctor):
        with pytest.raises(ValueError, match=f"^{FINITE}$"):
            CONSTRUCTORS[ctor]([NAN, NAN], [0.5, 0.5])

    @pytest.mark.parametrize("values", [[3.0, 2.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, -0.5]])
    def test_decreasing_values(self, values):
        masses = [0.25, 0.25, 0.5]
        with pytest.raises(ValueError, match="^quantile values must be nondecreasing$"):
            StepQuantile(values, masses)
        # the raw-input constructors sort instead
        for ctor in ("segments", "samples"):
            assert CONSTRUCTORS[ctor](values, masses).values.tolist() == sorted(set(values))

    @pytest.mark.parametrize(
        "masses, direct, segments, samples",
        [
            ([0.0, 0.5, 0.5], POSITIVE, None, WEIGHTS),
            ([-0.0, 0.5, 0.5], POSITIVE, None, WEIGHTS),
            ([0.5, -1.0, 0.5], POSITIVE, NONNEGATIVE, WEIGHTS),
            ([0.5, 0.5, NAN], POSITIVE, NONNEGATIVE, WEIGHTS),
            ([INF, 0.5, 0.5], POSITIVE, POSITIVE, WEIGHTS),
            ([0.0, 0.0, 0.0], POSITIVE, "no segments with positive mass", WEIGHTS),
            ([1e300, 1e-300, 1.0], UNDERFLOW, UNDERFLOW, UNDERFLOW),
            ([1e308, 1e308, 1e-300], UNDERFLOW, UNDERFLOW, UNDERFLOW),
        ],
    )
    def test_bad_masses(self, masses, direct, segments, samples):
        for ctor, message in (("direct", direct), ("segments", segments), ("samples", samples)):
            if message is None:  # a zero mass is dropped
                assert CONSTRUCTORS[ctor]([0.0, 1.0, 2.0], masses).values.tolist() == [1.0, 2.0]
                continue
            with pytest.raises(ValueError) as caught:
                CONSTRUCTORS[ctor]([0.0, 1.0, 2.0], masses)
            assert type(caught.value) is ValueError and str(caught.value) == message

    def test_direct_checks_finite_then_masses_then_order(self):
        with pytest.raises(ValueError, match=f"^{FINITE}$"):
            StepQuantile([2.0, NAN, 1.0], [0.0, 0.5, 0.5])
        with pytest.raises(ValueError, match=f"^{POSITIVE}$"):
            StepQuantile([2.0, 1.0], [0.0, 0.5])
        with pytest.raises(ValueError, match=f"^{POSITIVE}$"):
            StepQuantile([2.0, 1.0], [NAN, 0.5])


class TestAbsMemo:
    # |Y| is built once per law and shared; every norm reads the same object

    def test_one_object_per_law(self):
        d = StepQuantile.from_samples([-2.0, 1.0, 2.0])
        assert d.abs() is d.abs()

    def test_memo_is_read_only(self):
        m = StepQuantile.from_samples([-2.0, 1.0, 3.0]).abs()
        for arr in (m.values, m.masses, m.tail_masses):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_set_norm_sorts_once(self, monkeypatch):
        from riskspace.kusuoka import set_norm

        d = StepQuantile.from_samples(np.random.default_rng(5).normal(size=50))
        original = StepQuantile.__dict__["from_segments"].__func__
        calls = []

        def counted(cls, values, masses):
            calls.append(len(values))
            return original(cls, values, masses)

        monkeypatch.setattr(StepQuantile, "from_segments", classmethod(counted))
        spectra = [AvarSpectrum(a) for a in (0.0, 0.3, 0.6, 0.9)] + [PowerSqrtSpectrum()]
        first = set_norm(spectra, d)
        assert calls == [50]
        assert set_norm(spectra, d) == first
        assert calls == [50]

    @pytest.mark.parametrize("ctor", ["segments", "samples"])
    def test_sorted_input_is_copied(self, ctor):
        # the masses do not sum to 1, so normalising in place would show
        values, masses = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0])
        d = CONSTRUCTORS[ctor](values, masses)
        assert not np.shares_memory(d.values, values)
        assert not np.shares_memory(d.masses, masses)
        assert values.flags.writeable and masses.flags.writeable
        assert values.tolist() == [1.0, 2.0, 3.0] and masses.tolist() == [1.0, 1.0, 2.0]
        assert d.masses.tolist() == [0.25, 0.25, 0.5]


class TestQuantile:
    # four equally likely outcomes 1..4; the 0.5-quantile is the third value
    # because the quantile is the right-continuous inverse inf{y : F(y) > p}
    def test_median_of_four(self):
        d = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        assert d.quantile(0.5) == 3.0
        assert d.quantile(0.49) == 2.0

    def test_endpoints(self):
        d = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        assert d.quantile(0.0) == 1.0
        assert d.quantile(0.999999) == 4.0

    def test_level_domain(self):
        d = StepQuantile.from_samples([1.0])
        with pytest.raises(ValueError):
            d.quantile(1.0)
        with pytest.raises(ValueError):
            d.quantile(-0.01)

    @given(values_masses())
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing(self, vm):
        d = StepQuantile.from_segments(*vm)
        ps = np.linspace(0.0, 0.999, 37)
        qs = [d.quantile(p) for p in ps]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    @given(values_masses())
    @settings(max_examples=60, deadline=None)
    def test_array_levels_match_scalar_levels(self, vm):
        d = StepQuantile.from_segments(*vm)
        ps = np.concatenate([np.linspace(0.0, 0.999, 37), np.cumsum(d.masses)[:-1]])
        ps = ps[ps < 1.0]
        qs = d.quantile(ps)
        assert isinstance(qs, np.ndarray)
        assert qs.tolist() == [d.quantile(p) for p in ps]
        assert isinstance(d.quantile(0.5), float)

    def test_bottom_mass_below_an_ulp_of_one(self):
        # P(Y <= 0) is about 1e-20: 1 - p rounds it away, the level itself does not
        d = StepQuantile([0.0, 1.0], [1e-20, 1.0])
        assert d.quantile(0.0) == 0.0 and d.quantile(1e-30) == 0.0
        assert d.quantile(2e-20) == 1.0
        assert d.quantile(np.array([0.0, 1e-30, 2e-20, 0.5])).tolist() == [0.0, 0.0, 1.0, 1.0]

    @given(values_masses() | tiny_values_masses())
    @settings(max_examples=100, deadline=None)
    def test_levels_find_their_exact_cell(self, vm):
        """Each segment owns the levels [P(Y < v_k), P(Y <= v_k)) of the exact
        (Fraction) prefix sums; its midpoint is read, scalar and in an array,
        wherever the cell is wide against the rounding of a float prefix sum."""
        d = StepQuantile.from_segments(*vm)
        n = d.n_segments
        heads = [Fraction(0)]
        for m in d.masses.tolist():
            heads.append(heads[-1] + Fraction(m))
        cells, mids = [], []
        for k in range(n):
            lo, hi = heads[k], heads[k + 1]
            mid = float((lo + hi) / 2)
            if k == 0 or hi - lo > 4 * n * 2.0 ** -52 * hi:
                assert lo <= Fraction(mid) < hi
                cells.append(k)
                mids.append(mid)
        got = d.quantile(np.array(mids))
        assert got.tolist() == d.values[cells].tolist()
        assert [d.quantile(p) for p in mids] == got.tolist()
        assert d.quantile(0.0) == d.values[0]

    def test_array_level_domain(self):
        d = StepQuantile.from_samples([1.0, 2.0])
        with pytest.raises(ValueError):
            d.quantile(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            d.quantile(np.array([np.nan]))


class TestNorms:
    def test_lp_hand_values(self):
        d = StepQuantile.from_samples([0.0, 2.0])
        assert d.lp_norm(1.0) == 1.0
        assert d.lp_norm(2.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert d.lp_norm(np.inf) == 2.0

    def test_lp_uses_absolute_value(self):
        d = StepQuantile.from_samples([-3.0, 1.0])
        assert d.lp_norm(1.0) == 2.0
        assert d.lp_norm(np.inf) == 3.0

    @given(values_masses(), st.floats(1.0, 6.0), st.floats(0.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_lp_monotone_in_p(self, vm, p, bump):
        d = StepQuantile.from_segments(*vm)
        assert d.lp_norm(p) <= d.lp_norm(p + bump) + 1e-12

    def test_lp_finite_where_the_power_sum_overflows(self):
        d = StepQuantile.from_samples([1e308, 1.5e308])
        assert d.lp_norm(2.0) == pytest.approx(np.sqrt(1.625) * 1e308, rel=1e-14)

    def test_lp_nonzero_where_the_power_sum_underflows(self):
        d = StepQuantile.from_samples([1e-200, 2e-200])
        assert d.lp_norm(2.0) == pytest.approx(np.sqrt(2.5) * 1e-200, rel=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            StepQuantile.from_samples([1.0]).lp_norm(0.5)


class TestTransforms:
    def test_abs_folds_and_merges(self):
        d = StepQuantile.from_samples([-2.0, 1.0, 2.0])
        m = d.abs()
        assert m.values.tolist() == [1.0, 2.0]
        assert m.masses.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_shift_scale(self):
        d = StepQuantile.from_samples([1.0, 3.0])
        assert d.shift(2.0).values.tolist() == [3.0, 5.0]
        assert d.scale(0.5).values.tolist() == [0.5, 1.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shift_scale_beyond_the_double_range_overflow(self):
        # finite inputs whose image leaves the double range, at either end
        d = StepQuantile([-1.7e308, 1.7e308], [0.9, 0.1])
        for make in (lambda: d.shift(1e308), lambda: d.shift(-1e308), lambda: d.scale(10.0)):
            with pytest.raises(OverflowError, match="largest double"):
                make()
        assert d.shift(5e306).values.tolist() == [-1.7e308 + 5e306, 1.7e308 + 5e306]
        assert d.scale(0.5).values.tolist() == [-0.85e308, 0.85e308]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shift_scale_reject_nonfinite_arguments(self):
        d = StepQuantile([0.0, 2.0], [0.5, 0.5])  # 0 * inf is invalid, not an overflow
        for make in (lambda: d.shift(math.inf), lambda: d.shift(math.nan),
                     lambda: d.scale(math.inf), lambda: d.scale(math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                make()

    def test_shift_merges_the_ties_its_rounding_makes(self):
        d = StepQuantile([0.0, 1.0], [0.5, 0.5]).shift(1e20)
        assert d.n_segments == 1
        assert d.values.tolist() == [1e20] and d.masses.tolist() == [1.0]

    def test_scale_merges_the_ties_its_rounding_makes(self):
        d = StepQuantile([-2e-300, -1e-300, 1e-300], [0.25, 0.25, 0.5]).scale(1e-30)
        # both negative values underflow to -0.0, the positive one to 0.0: one
        # run of zeros, with the sign of its first
        assert d.values.tolist() == [0.0] and math.copysign(1.0, d.values[0]) == -1.0
        assert d.masses.tolist() == [1.0]

    def test_transforms_are_canonical(self):
        """``shift`` and ``scale`` equal ``from_segments`` of the mapped values
        bit for bit, and where rounding made no ties, the direct constructor
        (which merges none) too: 15 000 seeded laws, each shifted and scaled."""
        rng = np.random.default_rng(27)
        tied = 0
        for _ in range(15_000):
            d = fuzz_law(rng)
            c = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 17.0))
            f = float(rng.uniform(0.0, 4.0)) or 1.0  # scale(0) is its own case
            for got, vals in ((d.shift(c), d.values + c), (d.scale(f), d.values * f)):
                assert same_bits(got, law_arrays(StepQuantile.from_segments(vals, d.masses)))
                if (vals[1:] > vals[:-1]).all():
                    assert same_bits(got, law_arrays(StepQuantile(vals, d.masses)))
                else:
                    tied += 1
        assert 5_000 < tied < 25_000  # both branches well exercised

    def test_scale_zero_collapses(self):
        d = StepQuantile.from_samples([1.0, 3.0])
        z = d.scale(0.0)
        assert z.values.tolist() == [0.0]
        assert z.masses.tolist() == [1.0]

    def test_clip_upper(self):
        d = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        c = d.clip_upper(2.5)
        assert c.values.tolist() == [1.0, 2.0, 2.5]
        assert c.masses.tolist() == [0.25, 0.25, 0.5]


class TestUpperIntegral:
    def test_top_mass_integrals(self):
        d = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        # integral of the quantile over the top 0.25 of mass is just 4 * 0.25
        assert d.upper_integral(0.25) == pytest.approx(1.0, abs=1e-15)
        assert d.upper_integral(0.5) == pytest.approx(1.75, abs=1e-15)
        assert d.upper_integral(1.0) == pytest.approx(2.5, abs=1e-15)

    def test_vector_evaluation_matches_scalar(self):
        d = StepQuantile.from_samples([-1.0, 0.5, 2.0])
        gs = np.array([0.1, 0.4, 0.9])
        vec = d.upper_integral(gs)
        assert vec == pytest.approx([d.upper_integral(g) for g in gs], abs=1e-15)

    @given(tiny_values_masses(), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_overlap_matrix(self, vm, u):
        d = StepQuantile(*vm)
        T = d.tail_masses
        inner = T[1:] + u * (T[:-1] - T[1:])
        gaps = np.concatenate([T, inner, [0.0, 1.0, 1.5, 1e300]])
        got = d.upper_integral(gaps)
        assert isinstance(got, np.ndarray)
        want = overlap_upper_integral(d.values, T, gaps)
        scale = overlap_upper_integral(np.abs(d.values), T, gaps)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        for g, value in zip(gaps, got):
            one = d.upper_integral(float(g))
            assert isinstance(one, float)
            assert one == value

    def test_value_at_gap(self):
        d = StepQuantile.from_samples([1.0, 2.0, 3.0, 4.0])
        assert d.value_at_gap(0.1) == 4.0
        assert d.value_at_gap(0.25) == 4.0
        assert d.value_at_gap(0.26) == 3.0
        assert d.value_at_gap(1.0) == 1.0


class TestCsv:
    def test_single_column_with_header(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("loss\n1.0\n2.0\n")
        values, weights = read_samples_csv(f)
        assert values.tolist() == [1.0, 2.0]
        assert weights is None

    def test_weighted_two_columns(self, tmp_path):
        f = tmp_path / "b.csv"
        f.write_text("3.0,2\n1.0,6\n")
        values, weights = read_samples_csv(f)
        assert values.tolist() == [3.0, 1.0]
        assert weights.tolist() == [2.0, 6.0]

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1.0\n2.0\nbogus,x,y\n")
        with pytest.raises(InputFormatError) as exc:
            read_samples_csv(f)
        assert exc.value.line == 3

    def test_nonpositive_weight_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,1\n2.0,0\n")
        with pytest.raises(InputFormatError) as exc:
            read_samples_csv(f)
        assert exc.value.line == 2

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
        values, _ = read_samples_csv(f)
        assert values.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_nonfinite_first_row_reports_line(self, tmp_path, cell):
        f = tmp_path / "f.csv"
        f.write_text(f"{cell}\n2\n3\n")
        with pytest.raises(InputFormatError) as exc:
            read_samples_csv(f)
        assert exc.value.line == 1

    def test_three_numeric_cells_first_row_reports_line(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("1,2,3\n2\n3\n")
        with pytest.raises(InputFormatError) as exc:
            read_samples_csv(f)
        assert exc.value.line == 1


class TestPairedSample:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            PairedSample(np.array([1.0]), np.array([1.0]), np.array([0.0]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PairedSample(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([0.3, 0.3]))

    def test_marginals(self):
        s = PairedSample(np.array([2.0, 1.0]), np.array([0.0, 5.0]), np.array([0.5, 0.5]))
        assert s.y_marginal().values.tolist() == [1.0, 2.0]
        assert s.z_marginal().values.tolist() == [0.0, 5.0]


class TestComonotonePair:
    def test_avar_half_on_two_values(self):
        # sigma = AVaR(0.5) has density 0 on the lower half, 2 on the upper;
        # coupling with Y uniform on {1, 2} pairs (1, 0) and (2, 2)
        d = StepQuantile.from_samples([1.0, 2.0])
        pair = comonotone_pair(d, AvarSpectrum(0.5))
        assert np.dot(pair.w, pair.y * pair.z) == pytest.approx(2.0, abs=1e-15)
        assert sorted(set(zip(pair.y, pair.z))) == [(1.0, 0.0), (2.0, 2.0)]

    def test_z_marginal_integrates_to_one(self):
        d = StepQuantile.from_samples([3.0, 5.0, 11.0])
        pair = comonotone_pair(d, AvarSpectrum(0.25))
        assert float(np.dot(pair.w, pair.z)) == pytest.approx(1.0, abs=1e-12)


class TestRepr:
    def test_large_law_repr_is_a_summary(self):
        # numpy elides the middle of a long array instead of printing every value
        d = StepQuantile.from_samples(np.arange(1e6))
        assert len(repr(d)) < 1000

    def test_small_law_repr_names_class_and_fields(self):
        text = repr(StepQuantile([1.0, 2.0], [0.25, 0.75]))
        assert text.startswith("StepQuantile(")
        assert "values=" in text and "masses=" in text and "0.75" in text

    def test_paired_sample_repr_gives_its_size(self):
        s = PairedSample(np.array([2.0, 1.0]), np.array([0.0, 5.0]), np.array([0.5, 0.5]))
        assert repr(s) == "PairedSample(n=2)"
