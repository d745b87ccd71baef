"""Self-checking invariant suite over randomized instances.

Every entry pairs a named inequality or identity with a generator of random
instances and reports a margin: the amount by which the claim held, already
including whatever floating-point slack the claim is stated with.  A margin
below zero is a failure.  Runs are deterministic: case ``c`` of invariant
number ``i`` (in id order) draws from ``default_rng((seed, i, c))``, so the
report for a given (seed, cases) pair is byte-identical across runs.

Margins are not normalized across invariants; they are in the natural units
of each statement (risk units for inequalities between norms, dimensionless
for ratios).  ``worst_margin`` is still useful as a health indicator: a pass
with a margin of 1e-15 sits much closer to the boundary than one at 0.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual as dualmod
from . import embedding, extremal, kusuoka, sampling
from .risk import (
    representation_sup_check,
    sigma_norm,
    sigma_norm_via_cdf,
    spectral_risk,
)
from .spectrum import AvarSpectrum, PowerSqrtSpectrum, step_approx
from .stepdist import StepQuantile


@dataclass(frozen=True)
class Invariant:
    ident: str
    anchor: str
    fn: Callable[[np.random.Generator], float]


_REGISTRY: list[Invariant] = []


def _invariant(ident: str, anchor: str):
    def register(fn):
        _REGISTRY.append(Invariant(ident, anchor, fn))
        return fn

    return register


def _conjugate(q: float) -> float:
    return q / (q - 1.0)


# -- distribution model --------------------------------------------------------


@_invariant("quantile-nondecreasing", "p1 <= p2 implies F^{-1}(p1) <= F^{-1}(p2)")
def _quantile_monotone(rng) -> float:
    dist = sampling.random_quantile(rng)
    ps = np.sort(np.concatenate([rng.uniform(0, 1, 32), 1.0 - dist.tail_masses[:-1]]))
    ps = np.clip(ps, 0.0, np.nextafter(1.0, 0.0))
    vals = dist.quantile(ps)
    return float(np.min(np.diff(vals), initial=np.inf))


@_invariant("samples-permutation-invariant", "from_samples(x) == from_samples(shuffle(x))")
def _permutation(rng) -> float:
    x = rng.uniform(-10, 10, rng.integers(1, 64))
    a = StepQuantile.from_samples(x)
    b = StepQuantile.from_samples(rng.permutation(x))
    same = np.array_equal(a.values, b.values) and np.array_equal(a.masses, b.masses)
    return 0.0 if same else -1.0


@_invariant("lp-norm-monotone", "1 <= p1 <= p2 implies ||Y||_p1 <= ||Y||_p2 + 1e-12")
def _lp_monotone(rng) -> float:
    dist = sampling.random_quantile(rng)
    p1, p2 = np.sort(rng.uniform(1.0, 8.0, 2))
    return dist.lp_norm(p2) - dist.lp_norm(p1) + 1e-12


@_invariant("abs-canonical", "abs(Y) is nonnegative, nondecreasing, with unit total mass")
def _abs_canonical(rng) -> float:
    mag = sampling.random_quantile(rng).abs()
    sorted_gap = float(np.min(np.diff(mag.values), initial=np.inf))
    return min(float(mag.values.min()), sorted_gap, 1e-12 - abs(float(mag.masses.sum()) - 1.0))


# -- spectra -------------------------------------------------------------------


@_invariant("tail-weight-concave", "S(mid(a,b)) >= (S(a)+S(b))/2 - 1e-12")
def _tail_concave(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    a = rng.uniform(0, 1, 24)
    b = rng.uniform(0, 1, 24)
    mids = sig.tail((a + b) / 2.0)
    chords = (sig.tail(a) + sig.tail(b)) / 2.0
    return float(np.min(mids - chords)) + 1e-12


@_invariant("tail-average-dominates", "S(a)/(1-a) >= 1 for a < 1 (top average beats the mean)")
def _tail_average(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    a = np.concatenate([rng.uniform(0, 0.999, 24), sig.breakpoints[:-1]])
    return float(np.min(sig.tail(a) / (1.0 - a))) - 1.0 + 1e-12


@_invariant("lq-norm-monotone", "1 <= q1 <= q2 implies ||sigma||_q1 <= ||sigma||_q2 + 1e-12")
def _lq_monotone(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    q1, q2 = np.sort(rng.uniform(1.0, 6.0, 2))
    return sig.lq_norm(q2) - sig.lq_norm(q1) + 1e-12


@_invariant("step-approx-valid", "step_approx yields a valid unit-mass step with factor >= 1")
def _step_approx_valid(rng) -> float:
    cells = int(rng.integers(1, 20))
    approx, factor = step_approx(PowerSqrtSpectrum(), cells)
    # the step constructor rejects an invalid result, so validity adds 0.0
    unit = 1e-12 - abs(approx.lq_norm(1.0) - 1.0)
    return min(0.0, unit, factor - 1.0 + 1e-12)


# -- spectral risk axioms ------------------------------------------------------


@_invariant("risk-monotone", "Y <= Z pointwise implies rho(Y) <= rho(Z) + 1e-12")
def _risk_monotone(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    lo = sampling.random_quantile(rng)
    lift = rng.exponential(1.0, lo.values.size)
    hi = StepQuantile.from_segments(lo.values + np.sort(lift), lo.masses)
    return spectral_risk(sig, hi) - spectral_risk(sig, lo) + 1e-12


@_invariant("risk-translation", "rho(Y + c) == rho(Y) + c within 1e-12")
def _risk_translation(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    c = rng.uniform(-5, 5)
    gap = abs(spectral_risk(sig, dist.shift(c)) - spectral_risk(sig, dist) - c)
    return 1e-12 * max(1.0, abs(c)) - gap


@_invariant("risk-homogeneous", "rho(t Y) == t rho(Y) for t >= 0, within scaled 1e-12")
def _risk_homogeneous(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    t = rng.uniform(0.0, 4.0)
    gap = abs(spectral_risk(sig, dist.scale(t)) - t * spectral_risk(sig, dist))
    return 1e-12 * max(1.0, t) - gap


@_invariant("norm-subadditive", "||Y + Z||_sigma <= ||Y||_sigma + ||Z||_sigma + 1e-12")
def _subadditive(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    joint = sampling.random_joint(rng)
    total = StepQuantile.from_segments(joint.y + joint.z, joint.w)
    lhs = sigma_norm(sig, total)
    return sigma_norm(sig, joint.y_marginal()) + sigma_norm(sig, joint.z_marginal()) - lhs + 1e-12


@_invariant("risk-lipschitz", "|rho(Y) - rho(Z)| <= ||Y - Z||_sigma + 1e-9")
def _lipschitz(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    joint = sampling.random_joint(rng)
    drift = abs(
        spectral_risk(sig, joint.y_marginal()) - spectral_risk(sig, joint.z_marginal())
    )
    dist = sigma_norm(sig, StepQuantile.from_segments(joint.y - joint.z, joint.w))
    return dist - drift + 1e-9


@_invariant("lipschitz-translation-tight", "the pair (0, c) attains |rho(Y)-rho(Z)| == ||Y-Z||_sigma")
def _lipschitz_tight(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    c = rng.uniform(-8, 8)
    zero = StepQuantile([0.0], [1.0])
    flat = StepQuantile([c], [1.0])
    drift = abs(spectral_risk(sig, flat) - spectral_risk(sig, zero))
    return 1e-12 * max(1.0, abs(c)) - abs(drift - sigma_norm(sig, flat))


@_invariant("chebyshev-l1", "||Y||_1 <= ||Y||_sigma + 1e-12")
def _chebyshev(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    return sigma_norm(sig, dist) - dist.lp_norm(1.0) + 1e-12


@_invariant("hoelder-lq", "||Y||_sigma <= ||sigma||_q ||Y||_p + 1e-9 for conjugate (p, q)")
def _hoelder(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    q = float(rng.choice([1.5, 2.0, 4.0]))
    return sig.lq_norm(q) * dist.lp_norm(_conjugate(q)) - sigma_norm(sig, dist) + 1e-9


@_invariant("norm-methods-agree", "quantile-integral and cdf-tail-integral match within 1e-9")
def _methods_agree(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    return 1e-9 - abs(sigma_norm(sig, dist) - sigma_norm_via_cdf(sig, dist))


@_invariant("rearrangement-sup", "the comonotone coupling attains sup E[|Y| Z]; residual <= 1e-9")
def _rearrangement(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng, max_segments=24)
    report = representation_sup_check(sig, dist, couplings=16, seed=int(rng.integers(2**31)))
    return 1e-9 - abs(report.residual)


# -- mixture representation ----------------------------------------------------


@_invariant("kusuoka-roundtrip", "sigma -> measure -> sigma preserves S at every level within 1e-10")
def _roundtrip(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    back = kusuoka.sigma_from_mu(kusuoka.mu_from_sigma(sig))
    grid = np.unique(np.concatenate([sig.breakpoints, back.breakpoints, rng.uniform(0, 1, 16)]))
    return 1e-10 - float(np.max(np.abs(sig.tail(grid) - back.tail(grid))))


@_invariant("kusuoka-mixture-risk", "sum_i w_i AVaR_{a_i}(Y) == rho_sigma(Y) within 1e-10")
def _mixture(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    mixed = kusuoka.mixture_risk(kusuoka.mu_from_sigma(sig), dist)
    return 1e-10 * max(1.0, abs(mixed)) - abs(mixed - spectral_risk(sig, dist))


@_invariant("set-sup-dominates", "sup over a spectrum set dominates each member and names an argmax")
def _sup_dominates(rng) -> float:
    members = [sampling.random_step_spectrum(rng) for _ in range(int(rng.integers(2, 5)))]
    dist = sampling.random_quantile(rng)
    value, arg = kusuoka.sup_risk(members, dist)
    slack = min(value - spectral_risk(s, dist) for s in members)
    return min(slack, -abs(value - spectral_risk(members[arg], dist)))


@_invariant("set-norm-bounds", "||Y||_1 <= sup-norm over the set <= esssup |Y|, with 1e-12 slack")
def _set_norm_bounds(rng) -> float:
    members = [sampling.random_step_spectrum(rng) for _ in range(int(rng.integers(2, 5)))]
    dist = sampling.random_quantile(rng)
    value = kusuoka.set_norm(members, dist)
    upper = float(np.max(np.abs(dist.values)))
    return min(value - dist.lp_norm(1.0), upper - value) + 1e-12


# -- dual space ----------------------------------------------------------------


@_invariant("pairing-hoelder", "|E[Y Z]| <= ||Y||_sigma ||Z||_sigma* + 1e-9")
def _pairing_hoelder(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    joint = sampling.random_joint(rng)
    lhs = abs(dualmod.pairing(joint))
    primal = sigma_norm(sig, joint.y_marginal())
    dual = dualmod.dual_norm(joint.z_marginal(), sig).value
    return primal * dual - lhs + 1e-9


@_invariant("dual-dominates-l1", "||Z||_1 <= ||Z||_sigma* + 1e-12")
def _dual_l1(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    return dualmod.dual_norm(z, sig).value - z.lp_norm(1.0) + 1e-12


@_invariant("dual-linf-bound", "esssup |Z| <= ||Z||_sigma* sup(sigma) + 1e-9 for bounded sigma")
def _dual_linf(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    dual = dualmod.dual_norm(z, sig).value
    return dual * sig.density_sup - float(np.max(np.abs(z.values))) + 1e-9


@_invariant("dual-quantile-ratio-bound", "||Z||_sigma* <= sup_u F_{|Z|}^{-1}(u)/sigma(u) + 1e-9")
def _dual_ratio_bound(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    bound = dualmod.quantile_density_ratio_bound(z, sig)
    return bound - dualmod.dual_norm(z, sig).value + 1e-9


@_invariant("dual-lq-comparison", "||Z||_q <= ||Z||_sigma* ||sigma||_q + 1e-9 (increasing convex order)")
def _dual_lq(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    q = float(rng.choice([1.5, 2.0, 3.0]))
    dual = dualmod.dual_norm(z, sig).value
    return dual * sig.lq_norm(q) - z.abs().lp_norm(q) + 1e-9


@_invariant("dual-triangle", "||Z1 + Z2||_sigma* <= ||Z1||_sigma* + ||Z2||_sigma* + 1e-12")
def _dual_triangle(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    joint = sampling.random_joint(rng)
    total = StepQuantile.from_segments(joint.y + joint.z, joint.w)
    lhs = dualmod.dual_norm(total, sig).value
    rhs = (
        dualmod.dual_norm(joint.y_marginal(), sig).value
        + dualmod.dual_norm(joint.z_marginal(), sig).value
    )
    return rhs - lhs + 1e-12


@_invariant("dual-homogeneous", "||t Z||_sigma* == |t| ||Z||_sigma* within scaled 1e-12")
def _dual_homogeneous(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    t = rng.uniform(-3.0, 3.0)
    gap = abs(
        dualmod.dual_norm(z.scale(abs(t)), sig).value - abs(t) * dualmod.dual_norm(z, sig).value
    )
    return 1e-12 * max(1.0, abs(t)) - gap


@_invariant("dual-monotone", "|Z1| <= |Z2| quantile-wise implies ||Z1||_sigma* <= ||Z2||_sigma* + 1e-12")
def _dual_monotone(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    small = sampling.random_quantile(rng).abs()
    lift = np.sort(rng.exponential(0.5, small.values.size))
    big = StepQuantile.from_segments(small.values + lift, small.masses)
    return dualmod.dual_norm(big, sig).value - dualmod.dual_norm(small, sig).value + 1e-12


def _grid_gaps(*kinks) -> np.ndarray:
    """Positive gaps of a uniform 10^4-point grid joined with the given kink gaps."""
    gaps = np.unique(np.concatenate([np.linspace(0.0, 1.0, 10_001)[1:], *kinks]))
    return gaps[gaps > 0.0]


@_invariant("dual-grid-oracle", "breakpoint-scan dual norm matches a 10^4-point grid sup within 1e-9")
def _dual_grid(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    scan = dualmod.dual_norm(z, sig).value
    mag = z.abs()
    gaps = _grid_gaps(mag.tail_masses[:-1], 1.0 - sig.breakpoints)
    grid = float(np.max(mag.upper_integral(gaps) / sig.tail_from_gap(gaps)))
    return 1e-9 - abs(scan - grid)


@_invariant("dominance-gauge-iff", "Z is dominated by eta sigma exactly when eta >= ||Z||_sigma*")
def _gauge_iff(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    z = sampling.random_quantile(rng)
    dual = dualmod.dual_norm(z, sig).value
    above = dualmod.dominates(z, sig, dual + 1e-9 * (1.0 + dual)).holds
    result = 0.0 if above else -1.0
    if dual > 1e-3:
        below = dualmod.dominates(z, sig, dual * (1.0 - 1e-6)).holds
        result = min(result, 0.0 if not below else -1.0)
    return result


@_invariant("hahn-banach-attains", "the witness Z has ||Z||_sigma* == 1 and E[Y Z] == ||Y||_sigma")
def _hb_attains(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    pair = dualmod.hahn_banach_witness(sig, dist)
    target = sigma_norm(sig, dist)
    attain = 1e-10 * max(1.0, target) - abs(dualmod.pairing(pair) - target)
    unit = 1e-10 - abs(dualmod.dual_norm(pair.z_marginal(), sig).value - 1.0)
    return min(attain, unit)


# -- embeddings ----------------------------------------------------------------


@_invariant("embedding-inequality", "||Y||_sigma2 <= c(sigma1, sigma2) ||Y||_sigma1 + 1e-9")
def _embed_inequality(rng) -> float:
    s1 = sampling.random_step_spectrum(rng)
    s2 = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng, nonnegative=True)
    c = embedding.comparability_constant(s1, s2).value
    return c * sigma_norm(s1, dist) - sigma_norm(s2, dist) + 1e-9


@_invariant("embedding-at-least-one", "c(sigma1, sigma2) >= 1 (the ratio at level zero)")
def _embed_floor(rng) -> float:
    s1 = sampling.random_step_spectrum(rng)
    s2 = sampling.random_step_spectrum(rng)
    return embedding.comparability_constant(s1, s2).value - 1.0 + 1e-12


@_invariant("embedding-grid-oracle", "kink-scan comparability matches a 10^4-point grid sup within 1e-9")
def _embed_grid(rng) -> float:
    s1 = sampling.random_step_spectrum(rng)
    s2 = sampling.random_step_spectrum(rng)
    scan = embedding.comparability_constant(s1, s2).value
    gaps = _grid_gaps(1.0 - s1.breakpoints, 1.0 - s2.breakpoints)
    grid = float(np.max(s2.tail_from_gap(gaps) / s1.tail_from_gap(gaps)))
    return 1e-9 - abs(scan - grid)


@_invariant("embedding-chain", "c(s1, s3) <= c(s1, s2) c(s2, s3) + 1e-9")
def _embed_chain(rng) -> float:
    s1, s2, s3 = (sampling.random_step_spectrum(rng) for _ in range(3))
    c12 = embedding.comparability_constant(s1, s2).value
    c23 = embedding.comparability_constant(s2, s3).value
    c13 = embedding.comparability_constant(s1, s3).value
    return c12 * c23 - c13 + 1e-9


@_invariant("sandwich-avar", "AVaR_lo <= AVaR_hi <= ((1-lo)/(1-hi)) AVaR_lo, factor == c(AVaR_lo, AVaR_hi)")
def _sandwich(rng) -> float:
    lo, hi = np.sort(rng.uniform(0.0, 0.98, 2))
    dist = sampling.random_quantile(rng)
    report = embedding.avar_sandwich_check(lo, hi, dist)
    factor = (1.0 - lo) / (1.0 - hi)
    c = embedding.comparability_constant(AvarSpectrum(lo), AvarSpectrum(hi)).value
    ok = 0.0 if report.holds else -1.0
    return min(ok, 1e-12 * factor - abs(c - factor))


# -- extremal constructions ----------------------------------------------------


@_invariant("escape-risk-monotone", "truncated escape risks are nondecreasing in N and <= the limit + 1e-6")
def _escape_monotone(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    q = rng.uniform(1.2, 3.0)
    escapes = [extremal.lp_escape(sig, q, n) for n in (1, 2, 4, 8)]
    risks = [esc.predicted_risk for esc in escapes]
    limit = extremal.lp_escape_limit(sig, q)
    built = spectral_risk(sig, escapes[-1].dist)
    return min(
        float(np.min(np.diff(risks))) + 1e-12,
        limit + 1e-6 - risks[-1],
        built - risks[-1] + 1e-9,  # rearranged risk dominates the aligned series
        limit + 1e-6 - built,
    )


@_invariant("escape-lp-partial-grows", "the partial p-power grows from N to 2N by at least K/(2 zeta(p+1))")
def _escape_partial(rng) -> float:
    from scipy import special

    sig = sampling.random_step_spectrum(rng)
    q = rng.uniform(1.2, 3.0)
    n = int(rng.integers(1, 12))
    small = extremal.lp_escape(sig, q, n)
    large = extremal.lp_escape(sig, q, 2 * n)
    p = _conjugate(q)
    total = sig.tail_power_integral(1.0, q)
    floor = total / (2.0 * float(special.zeta(p + 1.0)))
    return (large.lp_partial - small.lp_partial) - floor + 1e-12


@_invariant("escape-root-residual", "band cut points satisfy their tail-power targets within 1e-10")
def _escape_roots(rng) -> float:
    from scipy import special

    sig = sampling.random_step_spectrum(rng)
    q = rng.uniform(1.2, 3.0)
    n = int(rng.integers(1, 10))
    p = _conjugate(q)
    total = sig.tail_power_integral(1.0, q)
    zp1 = float(special.zeta(p + 1.0))
    worst = 0.0
    for k in range(1, n + 1):
        target = total * float(special.zeta(p + 1.0, k + 1)) / zp1
        g = sig.invert_tail_power(target, q)
        worst = max(worst, abs(sig.tail_power_integral(g, q) - target))
    return 1e-10 - worst


@_invariant("linf-escape-bounded", "the bounded-band stack has risk <= sum n 2^{1-n} <= 4 and esssup == N")
def _linf_escape(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    depth = int(rng.integers(1, 13))
    esc = extremal.linf_escape(sig, depth)
    slack = min(extremal.linf_risk_bound(depth) - esc.risk, 4.0 - esc.risk)
    return min(slack + 1e-12, -abs(esc.dist.max_value - depth))


@_invariant("diverge-rows-chebyshev", "every divergence row satisfies ||Y_n||_sigma >= ||Y_n||_1, L1 nondecreasing")
def _diverge_rows(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    heavy = extremal.heavy_tail_quantile(int(rng.integers(6, 16)))
    report = extremal.l1_divergence_demo(heavy, sig, target=float(rng.uniform(2.0, 6.0)))
    gaps = [row.sigma - row.l1 for row in report.rows]
    l1s = [row.l1 for row in report.rows]
    growth = float(np.min(np.diff(l1s), initial=np.inf))
    return min(float(np.min(gaps)) + 1e-12, growth + 1e-12)


def _quantile_gap_norm(sig, a: StepQuantile, b: StepQuantile) -> float:
    """sigma-norm of F_a^{-1} - F_b^{-1}, from scratch on the common refinement."""
    cuts = np.unique(np.concatenate([np.cumsum(a.masses), np.cumsum(b.masses)]))
    edges = np.concatenate([[0.0], cuts[cuts > 0.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    diff = a.quantile(mids) - b.quantile(mids)
    return sigma_norm(sig, StepQuantile.from_segments(diff, np.diff(edges)))


@_invariant("approx-error-certified", "step_density_approx meets its error budget with a finite step output")
def _approx_error(rng) -> float:
    sig = sampling.random_step_spectrum(rng)
    dist = sampling.random_quantile(rng)
    eps = float(rng.uniform(0.01, 1.0))
    approx, err = extremal.step_density_approx(sig, dist, eps)
    recheck = _quantile_gap_norm(sig, dist, approx)
    return min(eps - err, eps - recheck, 1e-9 - abs(err - recheck))


# -- runner --------------------------------------------------------------------


def roster() -> list[Invariant]:
    """Registered invariants in id order (the order used for seeding)."""
    return sorted(_REGISTRY, key=lambda inv: inv.ident)


def run_suite(seed: int = 0, cases: int = 50) -> dict:
    """Run every invariant over ``cases`` seeded instances.

    Returns a JSON-ready report.  Case ``c`` of the ``i``-th invariant in id
    order uses ``default_rng((seed, i, c))``, so reports are reproducible and
    independent of roster evaluation order.
    """
    if cases < 1:
        raise ValueError("need at least one case per invariant")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entries = []
    failures_total = 0
    for idx, inv in enumerate(roster()):
        worst = math.inf
        failures = 0
        for case in range(cases):
            margin = float(inv.fn(np.random.default_rng((seed, idx, case))))
            if not margin >= 0.0:  # NaN fails too
                failures += 1
            worst = min(worst, -math.inf if math.isnan(margin) else margin)
        failures_total += failures
        entries.append(
            {
                "id": inv.ident,
                "anchor": inv.anchor,
                "passes": cases - failures,
                "failures": failures,
                "worst_margin": worst,
            }
        )
    return {
        "seed": int(seed),
        "cases": int(cases),
        "invariants": entries,
        "failures_total": failures_total,
    }
