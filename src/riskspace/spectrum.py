"""Spectral weight functions on [0, 1) and their tail-weight machinery.

A spectrum is a nondecreasing, nonnegative density ``sigma`` on the unit
interval with total mass one.  Everything downstream (risk functionals,
the associated norm, the dual gauge, comparability constants) is driven
by its tail weight ``S(a) = integral of sigma over [a, 1)``, so each
variant here exposes ``S`` both as a function of the level ``a`` and as a
function of the gap ``g = 1 - a``.  The gap form matters: the extremal
constructions place breakpoints within 1e-38 of 1, far below the spacing
of floating-point numbers around 1.0, and only gap coordinates keep that
arithmetic exact.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

log = logging.getLogger(__name__)

#: spectra are rescaled to unit mass when within this of 1, rejected otherwise
NORMALIZATION_ATOL = 1e-10

#: geometric gap mesh scanned where a spectrum declares no exact structure
FALLBACK_GAPS = np.geomspace(1.0, 1e-12, 4096)
FALLBACK_GAPS.setflags(write=False)


class InvalidSpectrumError(ValueError):
    """A spectrum failed validation; carries the list of violations."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid spectrum: {detail}")


@dataclass(frozen=True)
class Violation:
    """One failed spectrum property with a witness point."""

    prop: str
    at: float
    detail: str

    def __str__(self) -> str:
        return f"{self.prop} at u={self.at:.6g}: {self.detail}"


def _violations_of(at, vals, what: str, drop_tol: float, mass: float) -> list[Violation]:
    """First negative value, first drop beyond ``drop_tol``, and a mass off 1."""
    out: list[Violation] = []
    neg = np.nonzero(vals < 0)[0]
    if neg.size:
        i = int(neg[0])
        out.append(Violation("nonnegativity", float(at[i]), f"{what} {vals[i]:.6g} < 0"))
    drops = np.nonzero(np.diff(vals) < -drop_tol)[0]
    if drops.size:
        i = int(drops[0])
        out.append(
            Violation(
                "monotonicity",
                float(at[i + 1]),
                f"{what} falls from {vals[i]:.6g} to {vals[i + 1]:.6g}",
            )
        )
    if not abs(mass - 1.0) <= NORMALIZATION_ATOL:
        out.append(Violation("normalization", 0.0, f"total mass {mass:.12g} != 1"))
    return out


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def _power_mean(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum weights * values**p)**(1/p), rescaled by the maximum when the
    plain power sum overflows or falls below the smallest normal double."""
    with np.errstate(over="ignore"):
        power = float(np.dot(values**p, weights))
    top = float(np.max(values))
    if top > 0 and not sys.float_info.min <= power < math.inf:
        return top * float(np.dot((values / top) ** p, weights)) ** (1.0 / p)
    return float(power ** (1.0 / p))


class Spectrum:
    """Common interface for spectral densities.

    Subclasses provide ``density``, ``tail_from_gap`` and the power-integral
    helpers; the generic mesh-based ``validate`` covers callables for which
    no exact check exists.
    """

    #: result of ``validate``, computed on first use
    _violations: tuple[Violation, ...] | None = None

    #: True for spectra with an exact step representation
    is_step: bool = False
    #: gaps g at which S(1 - g) may kink; between them the exact scans need
    #: only the ends of each piece.  None means no exact structure is known.
    kink_gaps: np.ndarray | None = None

    # -- evaluation ------------------------------------------------------

    def density(self, u):
        raise NotImplementedError

    def density_from_gap(self, g):
        """sigma evaluated at u = 1 - g, stable for tiny gaps."""
        g_arr, scalar = _as_float_array(g)
        return _maybe_scalar(np.asarray(self.density(1.0 - g_arr), dtype=float), scalar)

    def tail(self, alpha):
        """Tail weight S(alpha) = integral of sigma over [alpha, 1)."""
        a_arr, scalar = _as_float_array(alpha)
        if np.any((a_arr < 0) | (a_arr > 1)):
            raise ValueError("tail weight is defined for levels in [0, 1]")
        return _maybe_scalar(np.asarray(self.tail_from_gap(1.0 - a_arr), dtype=float), scalar)

    def tail_from_gap(self, g):
        raise NotImplementedError

    def lq_norm(self, q: float) -> float:
        raise NotImplementedError

    # -- tail asymptotics (for the alpha -> 1 limits) ---------------------

    #: sigma(1-), the essential sup of the density; may be math.inf or None
    density_sup: float | None = None
    #: S(1 - g) ~ tail_coeff * g**tail_order as g -> 0; None when undeclared
    tail_order: float | None = None
    tail_coeff: float | None = None

    # -- power integrals for the extremal constructions -------------------

    def tail_power_integral(self, g, q: float):
        """Integral of sigma**q over [1-g, 1), as a function of the gap."""
        raise NotImplementedError

    def invert_tail_power(self, target: float, q: float) -> float:
        """Largest gap g with tail_power_integral(g, q) == target.

        Equivalently the *leftmost* level t with the forward integral of
        sigma**q over [0, t] hitting its target, per the flat-spot tie rule.
        """
        raise NotImplementedError

    def invert_tail(self, s: float) -> float:
        """Largest gap g with S(1-g) == s (leftmost level t with S(t) = s)."""
        return self.invert_tail_power(s, 1.0)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check nonnegativity, monotonicity and unit mass.

        Returns an empty list iff the spectrum is a valid spectral density.
        Callable spectra are checked on a geometric mesh refining toward 1.
        """
        if self._violations is None:
            object.__setattr__(self, "_violations", tuple(self._check()))
        return list(self._violations)

    def _check(self) -> list[Violation]:
        u = 1.0 - FALLBACK_GAPS
        vals = np.asarray(self.density(u), dtype=float)
        return _violations_of(u, vals, "density", 1e-12, float(self.tail(0.0)))

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidSpectrumError(violations)

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no file representation")


@dataclass(frozen=True, eq=False)
class StepSpectrum(Spectrum):
    """Piecewise-constant spectrum: value ``values[k]`` on [b[k], b[k+1]).

    ``breakpoints`` has one more entry than ``values``, starts at 0 and ends
    at 1, strictly increasing.  Inputs whose integral is within 1e-10 of 1
    are rescaled to unit mass and the factor recorded in ``rescale_factor``;
    anything further off is left untouched for ``validate`` to flag.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    is_step = True

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1 or vals.size == 0:
            raise ValueError("need n+1 breakpoints for n values, n >= 1")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("step values must be finite")
        factor = 1.0
        integral = float(np.dot(vals, np.diff(bp)))
        if integral > 0 and abs(integral - 1.0) <= NORMALIZATION_ATOL and integral != 1.0:
            factor = 1.0 / integral
            vals = vals * factor
            log.debug("rescaled step spectrum by %.17g", factor)
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "rescale_factor", factor)
        # gap-space view, ordered from u = 1 downward: node i sits at gap
        # 1 - breakpoints[n - i]; cell i carries the density nearest to 1 first.
        gap_nodes = (1.0 - bp)[::-1].copy()
        gap_nodes[0] = 0.0
        gap_density = vals[::-1].copy()
        cell_mass = gap_density * np.diff(gap_nodes)
        gap_tail = np.concatenate([[0.0], np.cumsum(cell_mass)])
        for arr in (gap_nodes, gap_density, gap_tail):
            arr.setflags(write=False)
        object.__setattr__(self, "kink_gaps", gap_nodes)
        object.__setattr__(self, "_gap_density", gap_density)
        object.__setattr__(self, "_gap_tail", gap_tail)

    def __repr__(self) -> str:  # keep ndarray fields readable
        return (
            f"{type(self).__name__}(breakpoints={self.breakpoints.tolist()}, "
            f"values={self.values.tolist()})"
        )

    # -- evaluation ------------------------------------------------------

    def density(self, u):
        u_arr, scalar = _as_float_array(u)
        idx = np.clip(
            np.searchsorted(self.breakpoints, u_arr, side="right") - 1,
            0,
            self.values.size - 1,
        )
        return _maybe_scalar(self.values[idx], scalar)

    def density_from_gap(self, g):
        g_arr, scalar = _as_float_array(g)
        idx = self._gap_cell(g_arr)
        return _maybe_scalar(self._gap_density[idx], scalar)

    def _gap_cell(self, g_arr: np.ndarray) -> np.ndarray:
        # cell i covers gaps (nodes[i], nodes[i+1]]; g = 0 maps to the top cell
        return np.clip(
            np.searchsorted(self.kink_gaps, g_arr, side="left") - 1,
            0,
            self._gap_density.size - 1,
        )

    def tail_from_gap(self, g):
        g_arr, scalar = _as_float_array(g)
        idx = self._gap_cell(g_arr)
        out = self._gap_tail[idx] + self._gap_density[idx] * (g_arr - self.kink_gaps[idx])
        return _maybe_scalar(out, scalar)

    def lq_norm(self, q: float) -> float:
        if q < 1:
            raise ValueError("Lq norms need q >= 1")
        if math.isinf(q):
            return float(np.max(self.values))
        return _power_mean(self.values, np.diff(self.breakpoints), q)

    # -- tail asymptotics --------------------------------------------------

    @property
    def density_sup(self) -> float:  # type: ignore[override]
        return float(self.values[-1])

    @property
    def tail_order(self) -> float:  # type: ignore[override]
        return 1.0

    @property
    def tail_coeff(self) -> float:  # type: ignore[override]
        return float(self.values[-1])

    # -- power integrals ---------------------------------------------------

    def _power_nodes(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            dq = self._gap_density**q
        tails = np.concatenate([[0.0], np.cumsum(dq * np.diff(self.kink_gaps))])
        return dq, tails

    def tail_power_integral(self, g, q: float):
        g_arr, scalar = _as_float_array(g)
        dq, tails = self._power_nodes(q)
        idx = self._gap_cell(g_arr)
        out = tails[idx] + dq[idx] * (g_arr - self.kink_gaps[idx])
        return _maybe_scalar(out, scalar)

    def invert_tail_power(self, target: float, q: float) -> float:
        dq, tails = self._power_nodes(q)
        if not 0.0 <= target <= tails[-1]:
            raise ValueError(f"power-integral target {target:.6g} outside [0, {tails[-1]:.6g}]")
        # side='right' lands past every node equal to the target, so a flat
        # run of zero-density cells resolves to its far end: the leftmost t.
        i = int(np.searchsorted(tails, target, side="right") - 1)
        if i >= dq.size:
            return 1.0
        if dq[i] == 0.0:
            return float(self.kink_gaps[i])
        return float(self.kink_gaps[i] + (target - tails[i]) / dq[i])

    # -- validation (exact) -------------------------------------------------

    def _check(self) -> list[Violation]:
        integral = float(np.dot(self.values, np.diff(self.breakpoints)))
        return _violations_of(self.breakpoints, self.values, "value", 0.0, integral)

    def to_dict(self) -> dict:
        return {
            "kind": "step",
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": [float(v) for v in self.values],
        }


class AvarSpectrum(StepSpectrum):
    """Average-value-at-risk spectrum: 0 below ``level``, 1/(1-level) above."""

    def __init__(self, level: float):
        level = float(level)
        if not 0.0 <= level < 1.0:
            raise ValueError("AVaR level must lie in [0, 1)")
        if level == 0.0:
            super().__init__([0.0, 1.0], [1.0])
        else:
            super().__init__([0.0, level, 1.0], [0.0, 1.0 / (1.0 - level)])
        object.__setattr__(self, "level", level)

    def __repr__(self) -> str:
        return f"AvarSpectrum(level={self.level!r})"

    def to_dict(self) -> dict:
        return {"kind": "avar", "alpha": float(self.level)}


@dataclass(frozen=True, eq=False)
class PowerSqrtSpectrum(Spectrum):
    """sigma(u) = 1 / (2 sqrt(1-u)); unbounded, tail weight sqrt(1-a).

    Integrable to the power q exactly when q < 2, with
    ||sigma||_q = (1/2) * (2/(2-q))**(1/q).
    """

    density_sup = math.inf
    tail_order = 0.5
    tail_coeff = 1.0
    # sqrt(g) has no kinks; the scans are exact against its concave tail
    kink_gaps = np.empty(0)

    def density(self, u):
        u_arr, scalar = _as_float_array(u)
        with np.errstate(divide="ignore"):
            out = 0.5 / np.sqrt(1.0 - u_arr)
        return _maybe_scalar(out, scalar)

    def density_from_gap(self, g):
        g_arr, scalar = _as_float_array(g)
        with np.errstate(divide="ignore"):
            out = 0.5 / np.sqrt(g_arr)
        return _maybe_scalar(out, scalar)

    def tail_from_gap(self, g):
        g_arr, scalar = _as_float_array(g)
        return _maybe_scalar(np.sqrt(g_arr), scalar)

    def lq_norm(self, q: float) -> float:
        if q < 1:
            raise ValueError("Lq norms need q >= 1")
        if q >= 2:
            return math.inf
        return 0.5 * (2.0 / (2.0 - q)) ** (1.0 / q)

    def tail_power_integral(self, g, q: float):
        g_arr, scalar = _as_float_array(g)
        if q >= 2:
            out = np.where(g_arr > 0, math.inf, 0.0)
            return _maybe_scalar(out, scalar)
        expo = 1.0 - q / 2.0
        out = (2.0**-q) * g_arr**expo / expo
        return _maybe_scalar(out, scalar)

    def invert_tail_power(self, target: float, q: float) -> float:
        if q >= 2:
            raise ValueError("sigma**q is not integrable for q >= 2")
        if target < 0:
            raise ValueError("power-integral target must be nonnegative")
        expo = 1.0 - q / 2.0
        return float((target * expo * 2.0**q) ** (1.0 / expo))

    def invert_tail(self, s: float) -> float:
        if s < 0:
            raise ValueError("tail target must be nonnegative")
        return float(s * s)

    def to_dict(self) -> dict:
        return {"kind": "power_sqrt"}


@dataclass(frozen=True, eq=False)
class GeneralSpectrum(Spectrum):
    """Spectrum given by callables; Python-API only, no file form.

    ``q_exponent`` declares integrability: sigma**q has finite integral for
    q < q_exponent and is treated as infinite at or beyond it.  The tail
    asymptotics fields are optional.  The dual scans need none of them;
    without them ``comparability_constant`` scans ``FALLBACK_GAPS`` and
    flags its result ``limit_unverified``.
    """

    density_fn: Callable[[np.ndarray], np.ndarray]
    tail_fn: Callable[[np.ndarray], np.ndarray]
    q_exponent: float = math.inf
    gap_tail_fn: Callable[[np.ndarray], np.ndarray] | None = None
    density_sup: float | None = None
    tail_order: float | None = None
    tail_coeff: float | None = None
    name: str = "general"

    def density(self, u):
        u_arr, scalar = _as_float_array(u)
        return _maybe_scalar(np.asarray(self.density_fn(u_arr), dtype=float), scalar)

    def tail_from_gap(self, g):
        g_arr, scalar = _as_float_array(g)
        if self.gap_tail_fn is not None:
            out = np.asarray(self.gap_tail_fn(g_arr), dtype=float)
        else:
            out = np.asarray(self.tail_fn(1.0 - g_arr), dtype=float)
        return _maybe_scalar(out, scalar)

    def lq_norm(self, q: float) -> float:
        if q < 1:
            raise ValueError("Lq norms need q >= 1")
        if q >= self.q_exponent:
            return math.inf
        if math.isinf(q):
            if self.density_sup is not None:
                return float(self.density_sup)
            return float(np.max(self.density(1.0 - FALLBACK_GAPS)))
        power, _ = integrate.quad(
            lambda u: float(self.density(u)) ** q, 0.0, 1.0, epsrel=1e-9, limit=200
        )
        return float(power ** (1.0 / q))

    def tail_power_integral(self, g, q: float):
        if q == 1.0:
            # exactly the declared tail weight; quadrature would only add
            # noise (and cannot cope with densities singular at 1)
            return self.tail_from_gap(g)
        g_arr, scalar = _as_float_array(g)
        if q >= self.q_exponent:
            out = np.where(g_arr > 0, math.inf, 0.0)
            return _maybe_scalar(out, scalar)
        vals = []
        for gi in g_arr:
            vi, _ = integrate.quad(
                lambda gg: float(self.density_from_gap(gg)) ** q, 0.0, gi, epsrel=1e-9, limit=200
            )
            vals.append(vi)
        return _maybe_scalar(np.asarray(vals), scalar)

    def invert_tail_power(self, target: float, q: float) -> float:
        # bisection on log-gap: the plain-t formulation cannot represent
        # boundaries within one ulp of 1, the log-gap one can.
        if target < 0:
            raise ValueError("power-integral target must be nonnegative")
        total = float(self.tail_power_integral(1.0, q))
        if target > total:
            raise ValueError(f"power-integral target {target:.6g} exceeds total {total:.6g}")
        if target == total:
            return 1.0
        lo, hi = math.log(1e-300), 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.tail_power_integral(math.exp(mid), q)) < target:
                lo = mid
            else:
                hi = mid
        g = math.exp(hi)
        if abs(float(self.tail_power_integral(g, q)) - target) > 1e-10:
            raise ValueError("root finding failed to reach the 1e-10 residual target")
        return g

    def __repr__(self) -> str:
        return f"GeneralSpectrum(name={self.name!r}, q_exponent={self.q_exponent!r})"


# -- exact kink scans -----------------------------------------------------------


def scan_gaps(spectra: Sequence[Spectrum], *, dense: bool = False) -> np.ndarray:
    """Descending gaps in (0, 1] at which a tail-ratio scan is exact.

    The union of the gap 1, each spectrum's ``kink_gaps``, and
    ``FALLBACK_GAPS`` when ``dense`` is set.
    """
    parts = [np.ones(1), *(s.kink_gaps for s in spectra if s.kink_gaps is not None)]
    if dense:
        parts.append(FALLBACK_GAPS)
    gaps = np.concatenate(parts)
    return np.unique(gaps[(gaps > 0.0) & (gaps <= 1.0)])[::-1]


def step_approx(sigma: Spectrum, n_cells: int) -> tuple[StepSpectrum, float]:
    """Nondecreasing step under-approximation on a dyadic mesh toward 1.

    Each cell carries the infimum of sigma (its left value), after which the
    step is renormalized to unit mass; returns the step and that factor.
    Step input is returned unchanged with factor 1.
    """
    if n_cells < 1:
        raise ValueError("need at least one mesh cell")
    sigma.require_valid()
    if sigma.is_step:
        return sigma, 1.0  # type: ignore[return-value]
    if n_cells > 50:
        raise ValueError("dyadic mesh breakpoints collide beyond 50 cells")
    edges = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, n_cells), [1.0]])
    infs = np.asarray(sigma.density(edges[:-1]), dtype=float)
    integral = float(np.dot(infs, np.diff(edges)))
    if integral <= 0:
        raise ValueError("under-approximation has zero mass; refine the mesh")
    factor = 1.0 / integral
    return StepSpectrum(edges, infs * factor), factor


# -- file representation ------------------------------------------------------


def spectrum_from_dict(data: dict) -> Spectrum:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("spectrum document must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "avar":
        if "alpha" not in data:
            raise ValueError("avar spectrum needs an 'alpha' field")
        return AvarSpectrum(float(data["alpha"]))
    if kind == "power_sqrt":
        return PowerSqrtSpectrum()
    if kind == "step":
        if "breakpoints" not in data or "values" not in data:
            raise ValueError("step spectrum needs 'breakpoints' and 'values'")
        return StepSpectrum(data["breakpoints"], data["values"])
    raise ValueError(f"unknown spectrum kind {kind!r}")


def load_spectrum(path) -> Spectrum:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return spectrum_from_dict(data)
