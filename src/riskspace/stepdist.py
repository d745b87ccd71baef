"""Step distribution models: finite quantile functions and paired samples.

``StepQuantile`` is the canonical form of a finitely supported random
variable: nondecreasing segment values with strictly positive segment
masses summing to one.  Masses are the primary data and tail sums are
precomputed, because the extremal constructions create segments whose
cumulative positions differ from 1.0 by far less than one ulp: positions
collapse in floating point, masses do not.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectrum import (Spectrum, StepSpectrum, _GapSteps, _keep, _power_mean, _scalar_or_array,
                       _suffix_sums)


class InputFormatError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, eq=False)
class StepQuantile:
    """Nondecreasing step quantile function on [0, 1).

    Direct construction expects canonical data (sorted values, positive
    masses); use :meth:`from_samples` or :meth:`from_segments` for raw input.
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        # copies: the object freezes what it keeps, never its caller's arrays
        self._own(np.array(self.values, dtype=float), np.array(self.masses, dtype=float))

    def _own(self, vals: np.ndarray, mass: np.ndarray) -> None:
        """Validate, normalise in place and freeze arrays this object owns."""
        if vals.ndim != 1 or mass.ndim != 1 or vals.size != mass.size or vals.size == 0:
            raise ValueError("values and masses must be equal-length, nonempty 1-d arrays")
        if not np.isfinite(vals).all():
            raise ValueError("quantile values must be finite")
        if not ((mass > 0) & (mass < np.inf)).all():
            raise ValueError("segment masses must be strictly positive and finite")
        if (vals[1:] < vals[:-1]).any():
            raise ValueError("quantile values must be nondecreasing")
        with np.errstate(over="ignore"):
            total = float(mass.sum())
        if math.isinf(total):  # finite masses, overflowing sum: largest to 1 first
            mass /= mass.max()
            total = float(mass.sum())
        if total != 1.0:
            mass /= total
            if mass.min() == 0.0:
                raise ValueError("a segment mass underflows to 0 when normalised")
        # suffix sums: tail_masses[k] is the mass strictly above segment k-1
        _keep(self, values=vals, masses=mass, tail_masses=_suffix_sums(mass))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_samples(cls, values, weights=None) -> "StepQuantile":
        """Sorted, tie-merged, weight-normalized quantile of a sample."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("need a nonempty 1-d sample")
        if weights is None:
            w = np.full(vals.size, 1.0 / vals.size)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != vals.shape:
                raise ValueError("weights must match the sample in length")
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValueError("weights must be strictly positive and finite")
        return cls.from_segments(vals, w)

    @classmethod
    def from_segments(cls, values, masses) -> "StepQuantile":
        """Canonicalize raw (value, mass) segments: sort, merge ties, drop zeros.
        Whatever order the sort leaves ties in, a tie run's masses are summed
        in input order and a run of signed zeros takes its first zero's sign."""
        vals = np.asarray(values, dtype=float)
        mass = np.asarray(masses, dtype=float)
        if vals.ndim != 1 or vals.shape != mass.shape:
            raise ValueError("values and masses must be equal-length 1-d arrays")
        keep = mass > 0
        if not keep.all():
            if not (mass >= 0).all():
                raise ValueError("segment masses must be nonnegative")
            vals, mass = vals[keep], mass[keep]
        del keep
        if vals.size == 0:
            raise ValueError("no segments with positive mass")
        order = np.argsort(vals)
        sorted_vals = vals[order]
        fresh = _run_starts(sorted_vals)
        if fresh is None:
            vals, mass = sorted_vals, mass[order]
            del order
        else:
            firsts = sorted_vals[fresh]
            # equal doubles share their bits, except 0.0 and -0.0
            lo = np.searchsorted(sorted_vals, 0.0, side="left")
            hi = np.searchsorted(sorted_vals, 0.0, side="right")
            if hi - lo > 1:
                firsts[np.searchsorted(firsts, 0.0)] = vals[order[lo:hi].min()]
            del sorted_vals
            # each entry's run index, summed in place (a cumsum of the bools
            # would cast a copy) and scattered back to input order for bincount
            run = fresh.astype(np.intp)
            del fresh
            np.cumsum(run, out=run)
            run -= 1
            at = np.empty_like(run)
            at[order] = run
            del run, order
            vals, mass = firsts, np.bincount(at, weights=mass)
        # both arrays are new here, so the object may keep them uncopied
        dist = object.__new__(cls)
        dist._own(vals, mass)
        return dist

    # -- derived views ----------------------------------------------------

    @property
    def n_segments(self) -> int:
        return int(self.values.size)

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.masses))

    # -- point evaluation --------------------------------------------------

    @cached_property
    def _steps(self) -> _GapSteps:
        """The quantile as a step function of the gap, built on first use."""
        return _GapSteps(self.tail_masses, self.values)

    def quantile(self, p):
        """Right-continuous quantile inf{y : P(Y <= y) > p}: the value whose
        cumulative interval [P(Y < y), P(Y <= y)) contains p.  Levels are
        placed on masses summed from the bottom, which resolve the lowest
        segments; the gap ``1 - p`` would round away any below an ulp of 1.

        Takes a level or an array of levels, all in [0, 1).
        """
        ps = np.asarray(p, dtype=float)
        if not np.all((ps >= 0.0) & (ps < 1.0)):
            raise ValueError("quantile levels lie in [0, 1)")
        idx = np.searchsorted(np.cumsum(self.masses), ps, side="right")
        out = self.values[np.minimum(idx, self.values.size - 1)]
        return float(out) if ps.ndim == 0 else out

    @_scalar_or_array
    def upper_integral(self, gaps):
        """Integral of the quantile over the top ``g`` of mass, per gap.

        ``G`` is linear between tail masses: with suffix sums
        ``C[k] = sum_{j >= k} v_j (T_j - T_{j+1})``, a gap in segment k's
        cell ``(T_{k+1}, T_k]`` has ``G(g) = C[k+1] + v_k (g - T_{k+1})``.
        The sums are accumulated from the top, so gaps far below one ulp
        of 1 keep their relative accuracy.  Gaps are clipped to
        ``[0, T_0]``.  One ``searchsorted`` places them: O((n + m) log n)
        time and O(n + m) memory for n segments and m gaps.
        """
        g = np.maximum(gaps, 0.0)
        return self._steps.integral(np.minimum(g, self.tail_masses[0], out=g))

    @_scalar_or_array
    def value_at_gap(self, gaps):
        """Quantile value carried at tail-mass position ``g`` from the top.

        Segment k owns gaps (T_{k+1}, T_k]; the gap coordinate keeps lookups
        meaningful where cumulative breakpoints collapse against 1.
        """
        return self._steps.at(gaps)

    # -- transforms --------------------------------------------------------

    @cached_property
    def _abs(self) -> "StepQuantile":
        """The law of ``|Y|``, canonicalised on first use."""
        return StepQuantile.from_segments(np.abs(self.values), self.masses)

    def abs(self) -> "StepQuantile":
        """The law of ``|Y|``; one object per law, built once."""
        return self._abs

    def shift(self, c: float) -> "StepQuantile":
        return self._mapped(np.add, c, "shift")

    def scale(self, factor: float) -> "StepQuantile":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if factor == 0:
            return StepQuantile(np.zeros(1), np.ones(1))
        return self._mapped(np.multiply, factor, "scale factor")

    def _mapped(self, op, c: float, what: str) -> "StepQuantile":
        """The law of ``op(Y, c)``, ties merged by ``from_segments``; ``OverflowError``
        when a finite ``c`` takes a value beyond the largest double."""
        with np.errstate(over="ignore", invalid="ignore"):
            vals = op(self.values, float(c))
        if math.isfinite(c) and not np.isfinite(vals).all():
            raise OverflowError(f"{what} {c:g} takes a quantile value beyond the largest double")
        return StepQuantile.from_segments(vals, self.masses)

    def clip_upper(self, level: float) -> "StepQuantile":
        return StepQuantile.from_segments(np.minimum(self.values, float(level)), self.masses)

    def lp_norm(self, p: float) -> float:
        if p < 1:
            raise ValueError("Lp norms need p >= 1")
        a = np.abs(self.values)
        if math.isinf(p):
            return float(a[-1] if a[-1] >= a[0] else a[0])
        return _power_mean(a, self.masses, p)


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Weighted joint rows (y_i, z_i, w_i) with positive weights summing to 1."""

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        # copies: the sample freezes what it keeps, never its caller's arrays
        y = np.array(self.y, dtype=float)
        z = np.array(self.z, dtype=float)
        w = np.array(self.w, dtype=float)
        if not (y.ndim == z.ndim == w.ndim == 1 and y.size == z.size == w.size and y.size > 0):
            raise ValueError("paired sample needs equal-length nonempty y, z, w")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be strictly positive and finite")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        _keep(self, y=y, z=z, w=w)

    def __repr__(self) -> str:
        return f"PairedSample(n={self.y.size})"

    def y_marginal(self) -> StepQuantile:
        return StepQuantile.from_segments(self.y, self.w)

    def z_marginal(self) -> StepQuantile:
        return StepQuantile.from_segments(self.z, self.w)


def _run_starts(x: np.ndarray) -> np.ndarray | None:
    """Mask of the entries of a sorted array that differ from their left
    neighbour (the first always does); None when every entry does."""
    fresh = np.empty(x.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(x[1:], x[:-1], out=fresh[1:])
    return None if fresh.all() else fresh


def _comonotone_rows(
    values: np.ndarray, masses: np.ndarray, sigma: Spectrum
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine an explicit segment arrangement against sigma's gap cells.

    The pieces are the segments, split at a step spectrum's gap nodes.
    Returns (value, z, width, upper gap) rows where z is the average density
    over the piece, making sum(w * value * z) the exact quantile integral.
    """
    tails = _suffix_sums(masses)  # descending, one boundary per segment edge
    nodes = sigma.kink_gaps if isinstance(sigma, StepSpectrum) else np.empty(0)
    grid = np.unique(np.concatenate([tails, nodes[nodes < tails[0]]]))[::-1]  # descending gaps
    widths = grid[:-1] - grid[1:]  # all > 0: distinct doubles never differ by 0
    # piece i spans gaps (grid[i+1], grid[i]]; segment k owns gaps
    # (tails[k+1], tails[k]], so match on the piece's upper gap
    seg_idx = _GapSteps(tails, values).cell(grid[:-1])
    svals = sigma.tail_from_gap(grid)
    sig_mass = svals[:-1] - svals[1:]
    return values[seg_idx], sig_mass / widths, widths, grid[:-1]


def comonotone_pair(dist: StepQuantile, sigma: Spectrum) -> PairedSample:
    """Couple Y with sigma(U) comonotonically on a common refinement.

    The z column carries the average density over each refined piece, so the
    weighted pairing equals the quantile integral of the risk functional.
    """
    y, z, w, _ = _comonotone_rows(dist.values, dist.masses, sigma)
    return PairedSample(y, z, w)


# -- sample files -------------------------------------------------------------


def _parse_row(row: list[str], lineno: int, expect: int | None) -> tuple[float, ...]:
    cells = [c.strip() for c in row]
    if len(cells) not in (1, 2):
        raise InputFormatError(f"expected 1 or 2 columns, got {len(cells)}", lineno)
    if expect is not None and len(cells) != expect:
        raise InputFormatError(
            f"inconsistent column count: expected {expect}, got {len(cells)}", lineno
        )
    try:
        parsed = tuple(float(c) for c in cells)
    except ValueError as exc:
        raise InputFormatError(f"non-numeric cell: {exc}", lineno) from None
    if any(not math.isfinite(v) for v in parsed):
        raise InputFormatError("sample cells must be finite numbers", lineno)
    return parsed


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read observations from CSV: ``value`` or ``value,weight`` per row.

    A first row with a cell that is not a number is a header and skipped.
    A byte-order mark and blank lines are ignored.  Weights, when present,
    must be strictly positive.  Errors name the line a record starts on; a
    quoted cell may span several lines.
    """
    rows: list[tuple[float, ...]] = []
    expect: int | None = None
    header_checked = False
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row or all(not c.strip() for c in row):
                    continue
                if not header_checked:
                    header_checked = True
                    try:
                        list(map(float, row))
                    except ValueError:
                        continue  # a cell that is not a number: a header
                parsed = _parse_row(row, lineno, expect)
                if expect is None:
                    expect = len(parsed)
                rows.append(parsed)
                if expect == 2 and parsed[1] <= 0:
                    raise InputFormatError(f"weight {parsed[1]:g} must be positive", lineno)
        except csv.Error as exc:
            raise InputFormatError(str(exc), reader.line_num) from None
    if not rows:
        raise InputFormatError("no observations found")
    values = np.array([r[0] for r in rows])
    weights = np.array([r[1] for r in rows]) if expect == 2 else None
    return values, weights
