"""Mixture representations: discrete Kusuoka measures and sets of spectra.

A step spectrum and a discrete measure on AVaR levels carry the same
information: the measure collects sigma's value at 0 as an atom at level 0
plus one atom of weight (1 - s) * jump at every jump point s, and the map
back accumulates w / (1 - a) per atom.  Both directions are exact on step
data, and the mixture identity sum w_i * AVaR_{a_i}(Y) = risk(Y) holds to
floating-point error.

A set of spectra, the sup-generator of ``sup_risk`` and ``set_norm``, is any
nonempty iterable of them: every spectrum is valid by construction, so a set
needs no type of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .risk import spectral_risk
from .spectrum import NORMALIZATION_ATOL, Spectrum, StepSpectrum, _keep
from .stepdist import StepQuantile

#: atoms a measure's repr lists before it summarises the rest
_REPR_ATOMS = 6


@dataclass(frozen=True, eq=False)
class KusuokaMeasure:
    """Discrete probability measure on AVaR levels in [0, 1].

    Levels strictly increasing, weights positive; totals within 1e-10 of 1
    are normalized to exactly 1.  An atom exactly at level 1 is legal here
    (it weights the essential supremum) but blocks conversion to a spectrum.
    """

    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copies: the measure freezes what it keeps, never its caller's arrays
        lv = np.array(self.levels, dtype=float)
        w = np.array(self.weights, dtype=float)
        if lv.ndim != 1 or w.ndim != 1 or lv.size != w.size or lv.size == 0:
            raise ValueError("levels and weights must be equal-length, nonempty 1-d arrays")
        # positive conditions, which a NaN fails
        if not ((lv >= 0) & (lv <= 1)).all():
            raise ValueError("levels must lie in [0, 1]")
        if not (np.diff(lv) > 0).all():
            raise ValueError("levels must be strictly increasing")
        if not ((w > 0) & (w < np.inf)).all():
            raise ValueError("weights must be strictly positive and finite")
        total = float(w.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"weights sum to {total:.12g}, not 1 within {NORMALIZATION_ATOL:g}")
        if total != 1.0:
            w /= total
        _keep(self, levels=lv, weights=w)

    def __repr__(self) -> str:
        head = zip(self.levels[:_REPR_ATOMS], self.weights[:_REPR_ATOMS])
        atoms = [f"({a:g}, {w:g})" for a, w in head]
        if self.levels.size > _REPR_ATOMS:  # a summary, as numpy prints a long array
            atoms.append(f"... {self.levels.size - _REPR_ATOMS} more")
        return f"KusuokaMeasure([{', '.join(atoms)}])"

    def atoms(self) -> list[tuple[float, float]]:
        return [(float(a), float(w)) for a, w in zip(self.levels, self.weights)]


def mu_from_sigma(sigma: Spectrum) -> KusuokaMeasure:
    """Mixing measure of a step spectrum: d(mu)(s) = (1 - s) d(sigma)(s).

    sigma's value at 0, read as a jump from 0, becomes an atom at level 0;
    each upward jump of size d at breakpoint s becomes an atom of weight
    (1 - s) * d.
    """
    if not isinstance(sigma, StepSpectrum):
        raise TypeError(
            "mixing measures are exact for step spectra only; apply step_approx first"
        )
    jumps = np.diff(sigma.values, prepend=0.0)
    up = jumps > 0
    levels = sigma.breakpoints[:-1][up]
    return KusuokaMeasure(levels, (1.0 - levels) * jumps[up])


def sigma_from_mu(mu: KusuokaMeasure) -> StepSpectrum:
    """Spectrum of a mixing measure: sigma(u) = sum of w/(1-a) over atoms a <= u.

    Requires no atom at level 1; the essential-supremum component has no
    density on [0, 1).
    """
    if mu.levels[-1] == 1.0:
        raise ValueError(
            f"measure has an atom at level 1 (weight {mu.weights[-1]:g}); a spectral "
            "density exists only when no mass sits at 1; drop or redistribute it first"
        )
    values = np.cumsum(mu.weights / (1.0 - mu.levels))
    if mu.levels[0] > 0.0:  # sigma is zero below the first atom
        values = np.concatenate([[0.0], values])
    return StepSpectrum(np.concatenate([[0.0], mu.levels[mu.levels > 0.0], [1.0]]), values)


def mixture_risk(mu: KusuokaMeasure, dist: StepQuantile) -> float:
    """Mixture evaluation: sum of w_i * AVaR at level a_i.

    One vectorised ``upper_integral`` call over the gaps 1 - a_i evaluates
    every AVaR below level 1; an atom at level 1 weights the essential
    supremum.
    """
    below = mu.levels < 1.0
    gaps = 1.0 - mu.levels[below]
    tails = dist.upper_integral(gaps) / gaps
    top = float(mu.weights[~below].sum()) * dist.max_value
    return float(np.dot(mu.weights[below], tails) + top)


def _spectrum_set(spectra: Iterable[Spectrum]) -> tuple[Spectrum, ...]:
    """The members of a spectrum set; ``ValueError`` when there are none."""
    members = tuple(spectra)
    if not members:
        raise ValueError("a spectrum set must be nonempty")
    return members


def sup_risk(spectra: Iterable[Spectrum], dist: StepQuantile) -> tuple[float, int]:
    """Supremum of member risks; returns (value, index of the first argmax)."""
    risks = [spectral_risk(sig, dist) for sig in _spectrum_set(spectra)]
    i = int(np.argmax(risks))
    return risks[i], i


def set_norm(spectra: Iterable[Spectrum], dist: StepQuantile) -> float:
    """Supremum of the member norms over the set: the set risk of |Y|."""
    return sup_risk(spectra, dist.abs())[0]


# -- file representation ------------------------------------------------------


def measure_from_dict(data: dict) -> KusuokaMeasure:
    if not isinstance(data, dict) or "atoms" not in data:
        raise ValueError("measure document must be an object with an 'atoms' field")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not all(
        isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms
    ):
        raise ValueError("'atoms' must be a list of [level, weight] pairs")
    levels = np.array([float(a[0]) for a in atoms])
    weights = np.array([float(a[1]) for a in atoms])
    return KusuokaMeasure(levels, weights)


def measure_to_dict(mu: KusuokaMeasure) -> dict:
    return {"atoms": [[a, w] for a, w in mu.atoms()]}


def load_measure(path) -> KusuokaMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return measure_from_dict(data)
