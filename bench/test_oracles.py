"""Tests of the benchmark's own oracles and input generator.

    python3 -m pytest bench

Each oracle is compared with hand-derived values and with a brute-force
evaluation on replicated equal-weight samples, so a wrong oracle fails here
instead of passing or failing the benchmark's checks silently.
"""

import csv
import json
import math
import sys

import numpy as np
import pytest

import inputs
import oracles
from measure import SRC


def replicate(values, counts):
    """Equal-weight sample with value i repeated counts[i] times."""
    return np.repeat(np.asarray(values, dtype=float), counts)


def brute_upper_integral(sample, k):
    """Integral of the quantile over the top k/N of mass of an equal-weight sample."""
    top = np.sort(sample)[::-1][:k]
    return top.sum() / sample.size


# -- AVaR tail mean ------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha, expected",
    [(0.0, 2.5), (0.5, 3.5), (0.625, (4 + 0.5 * 3) / 1.5), (0.9, 4.0)],
)
def test_avar_tail_mean_by_hand(alpha, expected):
    assert oracles.avar_tail_mean([3, 1, 4, 2], alpha) == pytest.approx(expected, rel=1e-15)


def test_avar_tail_mean_matches_replicated_top_mean():
    rng = np.random.default_rng(7)
    x = rng.standard_t(3.0, size=7)
    alpha = 0.3  # the top 4.9 of 7 samples; replicated 10 times, the top 49 of 70
    brute = np.sort(replicate(x, [10] * 7))[::-1][:49].mean()
    assert oracles.avar_tail_mean(x, alpha) == pytest.approx(brute, rel=1e-13)


def test_avar_oracles_agree():
    rng = np.random.default_rng(8)
    x = rng.standard_t(3.0, size=1001)
    for alpha in (0.0, 0.37, 0.9, 0.999):
        tail_mean = oracles.avar_tail_mean(x, alpha)
        risk = oracles.spectral_risk(x, None, oracles.avar_tail(alpha))
        assert risk == pytest.approx(tail_mean, rel=1e-12)


# -- AVaR dual closed form ------------------------------------------------------------


def test_avar_dual_by_hand():
    # an indicator of probability 1/4 against AVaR_0.5: sup of G/S sits at g = 1/4
    assert oracles.avar_dual_norm([0.0, 1.0], [0.75, 0.25], 0.5) == pytest.approx(0.5)
    # a constant: E|Z| = 2 dominates (1 - 0.5) * 2
    assert oracles.avar_dual_norm([-2.0, 2.0], [1.0, 1.0], 0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.75, 0.95])
def test_avar_dual_matches_kink_sup(alpha):
    rng = np.random.default_rng(9)
    values = rng.standard_t(3.0, size=12)
    counts = rng.integers(1, 5, size=12)
    sample = np.abs(replicate(values, counts))
    n = sample.size
    # G/S with S(g) = min(1, g/(1-alpha)) is maximal at a kink g = k/n
    ratios = [brute_upper_integral(sample, k) / min(1.0, (k / n) / (1.0 - alpha))
              for k in range(1, n + 1)]
    assert oracles.avar_dual_norm(values, counts, alpha) == pytest.approx(max(ratios), rel=1e-12)


# -- step-spectrum risk from cumulative positions ---------------------------------------


def test_step_risk_by_hand():
    tail = oracles.step_tail([0.0, 0.5, 1.0], [0.5, 1.5])
    # quarters of mass: 1*0.5/4 + 2*0.5/4 + 3*1.5/4 + 4*1.5/4
    assert oracles.spectral_risk([4, 2, 3, 1], None, tail) == pytest.approx(3.0, rel=1e-15)
    assert oracles.sigma_norm([-4, 2, -3, 1], None, tail) == pytest.approx(3.0, rel=1e-15)


def test_step_tail_matches_cellwise_sum():
    rng = np.random.default_rng(10)
    bp, vals = inputs.step_spectrum(rng, 16)
    u = np.concatenate([bp, rng.uniform(0, 1, 200)])
    cellwise = np.clip(bp[1:] - np.maximum(u[:, None], bp[:-1]), 0.0, None) @ vals
    np.testing.assert_allclose(oracles.step_tail(bp, vals)(u), cellwise, rtol=1e-12, atol=1e-15)
    assert oracles.step_tail(bp, vals)(0.0) == pytest.approx(1.0, rel=1e-12)


def test_step_risk_matches_midpoint_sum_on_common_grid():
    rng = np.random.default_rng(11)
    cells = 1000  # spectrum breakpoints and sample quantiles both sit on this grid
    bp = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, cells), 9, replace=False)), [cells]])
    bp = bp / cells
    vals = np.sort(rng.uniform(0.1, 2.0, 10))
    vals = vals / np.dot(vals, np.diff(bp))
    values = rng.standard_t(3.0, size=40)
    counts = rng.integers(1, 50, size=40)
    counts[-1] += cells - counts.sum() % cells if counts.sum() % cells else 0
    sample = np.sort(replicate(values, counts))
    per_cell = sample.size // cells
    quantile = sample.reshape(cells, per_cell).mean(axis=1)
    mids = (np.arange(cells) + 0.5) / cells
    density = vals[np.searchsorted(bp, mids, side="right") - 1]
    brute = float(np.dot(density, quantile)) / cells
    risk = oracles.spectral_risk(values, counts, oracles.step_tail(bp, vals))
    assert risk == pytest.approx(brute, rel=1e-12)


def test_power_sqrt_norm_of_a_constant():
    assert oracles.sigma_norm([-3.0, 3.0], [1, 2], oracles.power_sqrt_tail) == pytest.approx(3.0)


# -- comparability constants -------------------------------------------------------------


def avar_as_step(level):
    return np.array([0.0, level, 1.0]), np.array([0.0, 1.0 / (1.0 - level)])


def test_avar_comparability_closed_form():
    lo, hi = 0.2, 0.9
    uniform = (np.array([0.0, 1.0]), np.array([1.0]))
    assert oracles.step_comparability(uniform, avar_as_step(hi)) == pytest.approx(10.0)
    constant = oracles.step_comparability(avar_as_step(lo), avar_as_step(hi))
    assert constant == pytest.approx((1 - lo) / (1 - hi), rel=1e-12)


def test_identity_bound_picks_best_source_per_target():
    uniform = (np.array([0.0, 1.0]), np.array([1.0]))
    tight = avar_as_step(0.5)
    # the uniform target is controlled by itself (1); AVaR_0.5 needs 2 from uniform
    assert oracles.identity_bound([uniform], [uniform, tight]) == pytest.approx(2.0)
    assert oracles.identity_bound([uniform, tight], [uniform, tight]) == pytest.approx(1.0)


def test_distinct_masses():
    values, masses = oracles.distinct_masses([2.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    assert values.tolist() == [1.0, 2.0]
    np.testing.assert_allclose(masses, [0.5, 0.5])


# -- CSV generator ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    values, weights = inputs.cli_samples(rng, rows=5000)
    assert np.unique(values).size < values.size  # ties occur and are merged
    assert (weights > 0).all()
    path = tmp_path / "samples.csv"
    inputs.write_samples_csv(path, values, weights)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "weight"]
    back = np.array(rows[1:], dtype=float)
    assert back[:, 0].tolist() == values.tolist()
    assert back[:, 1].tolist() == weights.tolist()

    sys.path.insert(0, str(SRC))
    try:
        from riskspace import read_samples_csv
    finally:
        sys.path.remove(str(SRC))
    parsed_values, parsed_weights = read_samples_csv(path)
    assert parsed_values.tolist() == values.tolist()
    assert parsed_weights.tolist() == weights.tolist()


def test_cli_inputs_are_seeded(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = inputs.write_cli_inputs(a, 5)
    again = inputs.write_cli_inputs(b, 5)
    assert first.samples.read_bytes() == again.samples.read_bytes()
    assert first.step.read_text() == again.step.read_text()
    step = json.loads(first.step.read_text())
    mass = np.dot(step["values"], np.diff(step["breakpoints"]))
    assert math.isclose(float(mass), 1.0, rel_tol=1e-12)
