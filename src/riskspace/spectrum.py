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

import functools
import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)

#: spectra are rescaled to unit mass when within this of 1, rejected otherwise
NORMALIZATION_ATOL = 1e-10

#: geometric gap mesh on which a GeneralSpectrum's closed forms are validated
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
    """First value not >= 0 (NaN included), first drop beyond ``drop_tol``,
    and a mass off 1."""
    out: list[Violation] = []
    neg = np.nonzero(~(vals >= 0))[0]
    if neg.size:
        i = int(neg[0])
        out.append(Violation("nonnegativity", float(at[i]), f"{what} {vals[i]:.6g} is not >= 0"))
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


def _scalar_or_array(method):
    """The array contract: ``method`` sees its first argument as a float
    array of at least one dimension, and returns a float for a scalar and
    otherwise an array of the argument's shape that shares no memory with it
    (an identity closed form returns its input, so that result is copied; a
    scalar result is broadcast)."""

    @functools.wraps(method)
    def wrapper(self, x, *args, **kwargs):
        arr = np.asarray(x, dtype=float)
        out = method(self, np.atleast_1d(arr), *args, **kwargs)
        if type(out) is not np.ndarray or out.dtype != np.float64:
            out = np.broadcast_to(out, arr.shape or (1,)).astype(float)
        if arr.ndim == 0:
            return float(out[0])
        return out.copy() if np.may_share_memory(out, arr) else out

    return wrapper


def _power_mean(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """(sum weights * values**p)**(1/p), rescaled by the maximum when the
    plain power sum overflows or falls below the smallest normal double."""
    with np.errstate(over="ignore"):
        power = float(np.dot(values**p, weights))
    top = float(np.max(values))
    if top > 0 and not sys.float_info.min <= power < math.inf:
        return top * float(np.dot((values / top) ** p, weights)) ** (1.0 / p)
    return float(power ** (1.0 / p))


def _keep(obj, **attrs) -> None:
    """Set attributes on a frozen object, making the arrays among them read-only."""
    for name, value in attrs.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """``out[k] = sum(x[k:])`` with a final 0, accumulated from the end."""
    out = np.empty(x.size + 1)
    out[-1] = 0.0
    np.cumsum(x[::-1], out=out[-2::-1])
    return out


def _check_levels(u: np.ndarray, what: str) -> None:
    if not ((u >= 0) & (u <= 1)).all():  # a positive condition, which NaN fails
        raise ValueError(f"{what} is defined for levels in [0, 1]")


def _check_gaps(g: np.ndarray) -> None:
    if not (g >= 0).all():  # a positive condition, which NaN fails
        raise ValueError("gap readers are defined for gaps >= 0")


def _check_targets(targets: np.ndarray, total: float) -> None:
    outside = targets[~((targets >= 0.0) & (targets <= total))]
    if outside.size:
        raise ValueError(f"power-integral target {outside[0]:.6g} outside [0, {total:.6g}]")


class _GapSteps:
    """A step function of the gap: ``values[k]`` on the cell ``(nodes[k+1], nodes[k]]``.

    ``nodes`` descend and end at 0.  Gap 0 lies in the last cell and gaps
    above ``nodes[0]`` in the first; NaN and negative gaps raise
    ``ValueError``.  Integrals run from gap 0 upward with their sums
    accumulated from there, so gaps far below one ulp of 1 keep their
    relative accuracy.  The methods take float arrays.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        self.nodes = nodes
        self.values = values

    def cell(self, g: np.ndarray) -> np.ndarray:
        """Index ``k`` of the cell ``(nodes[k+1], nodes[k]]`` holding each gap."""
        _check_gaps(g)
        n = self.values.size
        k = np.searchsorted(self.nodes[::-1], g, side="left")
        np.subtract(n, k, out=k)
        np.maximum(k, 0, out=k)
        return np.minimum(k, n - 1, out=k)

    def at(self, g: np.ndarray) -> np.ndarray:
        return self.values[self.cell(g)]

    @functools.cached_property
    def _unit_sums(self) -> np.ndarray:
        cells = self.nodes[:-1] - self.nodes[1:]
        cells *= self.values
        return _suffix_sums(cells)

    def _powered(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        """``values**q`` and the integrals of it from gap 0 up to each node."""
        if q == 1.0:
            return self.values, self._unit_sums
        with np.errstate(over="ignore"):
            vq = self.values**q
        return vq, _suffix_sums(vq * (self.nodes[:-1] - self.nodes[1:]))

    def integral(self, g: np.ndarray, q: float = 1.0) -> np.ndarray:
        """Integral of ``values**q`` over the gaps ``[0, g]``; no clipping."""
        vq, sums = self._powered(q)
        k = self.cell(g)
        out = self.nodes[1:][k]
        np.subtract(g, out, out=out)
        out *= vq[k]
        out += sums[1:][k]
        return out

    def invert(self, targets: np.ndarray, q: float = 1.0) -> np.ndarray:
        """Largest gap at which ``integral(g, q)`` reaches each target.

        ``side='right'`` lands past every partial sum equal to the target, so
        a flat run of zero cells resolves to its far end.  ``j = k + 1`` is
        the lower node of cell k; ``j = 0`` only at the total, giving nodes[0].
        """
        vq, sums = self._powered(q)
        _check_targets(targets, sums[0])
        j = self.values.size + 1 - np.searchsorted(sums[::-1], targets, side="right")
        lower, step = self.nodes[j], vq[j - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(step == 0.0, lower, lower + (targets - sums[j]) / step)


class Spectrum:
    """Common interface for spectral densities.

    Every instance is valid by construction, so no kernel checks its
    spectrum: the ``StepSpectrum`` and ``GeneralSpectrum`` constructors call
    ``require_valid`` once, which raises ``InvalidSpectrumError`` unless the
    density is nonnegative, nondecreasing and of unit mass, and
    ``PowerSqrtSpectrum`` is valid by definition.  Subclasses override
    ``_check`` only; the generic one reads the density on ``FALLBACK_GAPS``.

    A family declares its forward forms ``density_from_gap``,
    ``tail_from_gap``, ``tail_power_integral`` and ``density_sup``; from them
    derive ``density``, ``tail``, ``lq_norm`` and the bisection inverse
    ``invert_tail_power`` (``q = 1`` inverts ``S`` itself), which
    ``StepSpectrum`` overrides with its exact cell-wise forms.  Code that
    needs a step's exact structure tests ``isinstance(sigma, StepSpectrum)``.

    Array contract: ``density``, ``tail`` and every gap method
    (``density_from_gap``, ``tail_from_gap``, ``tail_power_integral`` and
    ``invert_tail_power``) take a scalar or an array and return a float or a
    float64 array of the same shape; the implementations state it with
    ``@_scalar_or_array``.  Levels outside ``[0, 1]`` and negative gaps
    raise ``ValueError``, NaN included; a gap above 1 is read.
    """

    # -- evaluation ------------------------------------------------------

    @_scalar_or_array
    def density(self, u):
        """sigma(u), read from the gap form at g = 1 - u."""
        _check_levels(u, "density")
        return self.density_from_gap(1.0 - u)

    def density_from_gap(self, g):
        """sigma evaluated at u = 1 - g, stable for tiny gaps."""
        raise NotImplementedError

    @_scalar_or_array
    def tail(self, alpha):
        """Tail weight S(alpha) = integral of sigma over [alpha, 1)."""
        _check_levels(alpha, "tail weight")
        return self.tail_from_gap(1.0 - alpha)

    def tail_from_gap(self, g):
        raise NotImplementedError

    #: sigma(1-), the essential sup of the density; math.inf, or None if undeclared
    density_sup: float | None = None

    def lq_norm(self, q: float) -> float:
        """||sigma||_q: ``density_sup`` at q = inf, else the total power
        integral to the power 1/q (inf where sigma**q is not integrable), with
        one Newton step, as the rounding of 1/q moves it by up to log(total)/q ulp."""
        if q < 1:
            raise ValueError("Lq norms need q >= 1")
        if math.isinf(q):
            if self.density_sup is None:
                raise ValueError("lq_norm(inf) needs a declared density_sup")
            return float(self.density_sup)
        total = float(self.tail_power_integral(1.0, q))
        root = total ** (1.0 / q)
        if 0.0 < total < math.inf:
            root += root * (total / root**q - 1.0) / q
        return root

    # -- power integrals for the extremal constructions -------------------

    def tail_power_integral(self, g, q: float):
        """Integral of sigma**q over [1-g, 1), as a function of the gap."""
        raise NotImplementedError

    @_scalar_or_array
    def invert_tail_power(self, target, q: float):
        """Largest gap g with tail_power_integral(g, q) == target.

        Equivalently the *leftmost* level t with the forward integral of
        sigma**q over [0, t] hitting its target, per the flat-spot tie rule.
        """
        # bisection on the bit patterns of the gaps, which order the
        # nonnegative doubles: the pattern range (lo, hi] starts at +0.0 and
        # ends at 1.0, is narrower than 2**62, and after 62 halvings hi is
        # the smallest gap whose integral reaches the target, subnormals
        # included; a zero target is reached everywhere, so its hi halves
        # down to +0.0.  The count is fixed, so no target depends on the
        # batch.  A nondecreasing sigma is flat only at its bottom (large
        # gaps), so only the total needs the largest gap, 1.
        total = float(self.tail_power_integral(1.0, q))
        if math.isinf(total):
            raise ValueError(f"sigma**{q:g} is not integrable")
        _check_targets(target, total)
        lo = np.zeros(target.shape, dtype=np.int64)
        hi = np.full(target.shape, np.float64(1.0).view(np.int64))
        for _ in range(62):
            mid = (lo + hi) >> 1
            reached = self.tail_power_integral(mid.view(np.float64), q) >= target
            lo = np.where(reached, lo, mid)
            hi = np.where(reached, mid, hi)
        g = np.where(target == total, 1.0, hi.view(np.float64))
        if np.any(abs(self.tail_power_integral(g, q) - target) > 1e-10):
            raise ValueError("root finding failed to reach the 1e-10 residual target: the "
                             "integral jumps, or the root lies below the smallest positive double")
        return g

    # -- validation --------------------------------------------------------

    def _check(self) -> list[Violation]:
        dens = self.density_from_gap(FALLBACK_GAPS)
        return _violations_of(1.0 - FALLBACK_GAPS, dens, "density", 1e-12, self.tail(0.0))

    def require_valid(self) -> None:
        """Raise ``InvalidSpectrumError`` listing every violated property."""
        violations = self._check()
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
    anything further off, like a negative or decreasing value, is rejected.
    The read-only ``kink_gaps`` lists the gaps ``1 - breakpoints`` in
    ascending order, the nodes of ``S(1 - g)``.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __init__(self, breakpoints, values):
        # copies: the spectrum freezes what it keeps, never its caller's arrays
        bp = np.array(breakpoints, dtype=float)
        vals = np.array(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1 or vals.size == 0:
            raise ValueError("need n+1 breakpoints for n values, n >= 1")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        widths = np.diff(bp)
        if not (widths > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(vals).all():
            raise ValueError("step values must be finite")
        factor = 1.0
        integral = float(np.dot(vals, widths))
        if integral > 0 and abs(integral - 1.0) <= NORMALIZATION_ATOL and integral != 1.0:
            factor = 1.0 / integral
            vals *= factor
            log.debug("rescaled step spectrum by %.17g", factor)
        kink_gaps = 1.0 - bp[::-1]
        # _steps is the density as a step function of the gap: cell k, the
        # gaps of [b[k], b[k+1]), is (1 - b[k+1], 1 - b[k]]
        _keep(self, breakpoints=bp, values=vals, rescale_factor=factor,
              _widths=widths,  # read by lq_norm
              _mass=integral * factor, kink_gaps=kink_gaps,
              _steps=_GapSteps(kink_gaps[::-1], vals))
        self.require_valid()

    # -- evaluation ------------------------------------------------------

    @_scalar_or_array
    def density(self, u):
        _check_levels(u, "density")
        idx = np.searchsorted(self.breakpoints, u, side="right") - 1
        return self.values[np.clip(idx, 0, self.values.size - 1)]

    @_scalar_or_array
    def density_from_gap(self, g):
        return self._steps.at(g)

    @_scalar_or_array
    def tail_from_gap(self, g):
        return self._steps.integral(g)

    def lq_norm(self, q: float) -> float:
        if q < 1 or math.isinf(q):  # the domain error, or density_sup
            return super().lq_norm(q)
        return _power_mean(self.values, self._widths, q)

    @property
    def density_sup(self) -> float:  # type: ignore[override]
        return float(self.values[-1])

    # -- power integrals ---------------------------------------------------

    @_scalar_or_array
    def tail_power_integral(self, g, q: float):
        return self._steps.integral(g, q)

    @_scalar_or_array
    def invert_tail_power(self, target, q: float):
        return self._steps.invert(target, q)

    # -- validation (exact) -------------------------------------------------

    def _check(self) -> list[Violation]:
        return _violations_of(self.breakpoints, self.values, "value", 0.0, self._mass)

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
        _keep(self, level=level)

    def __repr__(self) -> str:
        return f"AvarSpectrum(level={self.level!r})"

    def to_dict(self) -> dict:
        return {"kind": "avar", "alpha": float(self.level)}


@dataclass(frozen=True)
class PowerSqrtSpectrum(Spectrum):
    """sigma(u) = 1 / (2 sqrt(1-u)); unbounded, tail weight sqrt(1-a).

    Integrable to the power q exactly when q < 2, with
    ||sigma||_q = (1/2) * (2/(2-q))**(1/q).  All instances compare equal.
    """

    density_sup = math.inf

    @_scalar_or_array
    def density_from_gap(self, g):
        _check_gaps(g)
        root = np.sqrt(g)
        np.abs(root, out=root)  # sqrt(-0.0) is -0.0, whose reciprocal is -inf
        with np.errstate(divide="ignore"):
            return 0.5 / root

    @_scalar_or_array
    def tail_from_gap(self, g):
        _check_gaps(g)
        return np.sqrt(g)

    @_scalar_or_array
    def tail_power_integral(self, g, q: float):
        _check_gaps(g)
        if q >= 2:
            return np.where(g > 0, math.inf, 0.0)
        expo = 1.0 - q / 2.0
        return (2.0**-q) * g**expo / expo

    def to_dict(self) -> dict:
        return {"kind": "power_sqrt"}


@dataclass(frozen=True, eq=False)
class GeneralSpectrum(Spectrum):
    """Spectrum declared by closed forms in gap coordinates; Python-API only,
    no file form.

    ``gap_density_fn(g) = sigma(1 - g)`` and ``gap_tail_fn(g) = S(1 - g)``;
    ``Spectrum.density`` and ``Spectrum.tail`` derive the level forms.  (A
    level-form callable read at ``1 - g`` would lose all but a few digits at
    small gaps, and read sigma(1) once g falls below 2**-53.)  The optional
    ``tail_power_fn(g, q)`` is the integral of sigma**q over the top ``g``,
    ``inf`` where sigma**q is not integrable; ``tail_power_integral`` and
    ``lq_norm`` need it for every q other than 1.  The optional
    ``density_sup`` is sigma(1-): ``lq_norm(inf)`` returns it; the dual
    scans need none of it.  No quadrature is involved.  The
    constructor reads the density on ``FALLBACK_GAPS`` and rejects a
    spectrum found negative, decreasing or off unit mass there.
    """

    gap_density_fn: Callable[[np.ndarray], np.ndarray]
    gap_tail_fn: Callable[[np.ndarray], np.ndarray]
    tail_power_fn: Callable[[np.ndarray, float], np.ndarray] | None = None
    density_sup: float | None = None

    def __post_init__(self):
        self.require_valid()

    @_scalar_or_array
    def density_from_gap(self, g):
        _check_gaps(g)
        return self.gap_density_fn(g)

    @_scalar_or_array
    def tail_from_gap(self, g):
        _check_gaps(g)
        return self.gap_tail_fn(g)

    @_scalar_or_array
    def tail_power_integral(self, g, q: float):
        _check_gaps(g)
        if q == 1.0:
            return self.gap_tail_fn(g)
        if self.tail_power_fn is None:
            raise ValueError(f"sigma**{q:g} integrals need a declared tail_power_fn")
        return self.tail_power_fn(g, q)


# -- step approximation ---------------------------------------------------------


def step_approx(sigma: Spectrum, n_cells: int) -> tuple[StepSpectrum, float]:
    """Nondecreasing step under-approximation on a dyadic mesh toward 1.

    Each cell carries the infimum of sigma (its left value), after which the
    step is renormalized to unit mass; returns the step and that factor.
    Step input is returned unchanged with factor 1.
    """
    if n_cells < 1:
        raise ValueError("need at least one mesh cell")
    if isinstance(sigma, StepSpectrum):
        return sigma, 1.0
    if n_cells > 50:
        raise ValueError("dyadic mesh breakpoints collide beyond 50 cells")
    edges = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, n_cells), [1.0]])
    infs = sigma.density(edges[:-1])
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
