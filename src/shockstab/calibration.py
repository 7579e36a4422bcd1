"""Quasi-optimal selection of the logistic slopes from expert anchors.

Experts pin a handful of uplift values (for example 0, 0.5 and 1) for known
AUC/shift constellations; an exhaustive grid search then picks the slope
triple minimizing the confidence-weighted squared error against those
anchors. A coarse sensitivity sweep checks that grid conclusions (cell
signs, per-model best outlier level) survive slope perturbations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .config import check
from .errors import ConfigError, DomainError
from .stability import (
    DEFAULT_COEFFICIENTS,
    UpliftCoefficients,
    batch_uplift,
    stabilization_uplift,
)

#: Coarse sweep used both as the default calibration grid and for the
#: sensitivity report: one step down and one up from the default slopes.
DEFAULT_SWEEP = {
    "k1": (50.0, 100.0, 200.0),
    "k2": (500.0, 1000.0, 2000.0),
    "k3": (500.0, 1000.0, 2000.0),
}

#: Default compact bounds: ten times the default slope per coefficient.
DEFAULT_BOUNDS = {
    "k1": 10.0 * DEFAULT_COEFFICIENTS.k1,
    "k2": 10.0 * DEFAULT_COEFFICIENTS.k2,
    "k3": 10.0 * DEFAULT_COEFFICIENTS.k3,
}


_ANCHOR_BOUNDS = {
    "a_base": "in [0, 1]", "a_shock": "in [0, 1]", "b_base": "in [0, 1]", "b_shock": "in [0, 1]",
    "ds": "in [0, 1]", "target_su": "in [-1, 1]", "confidence": "> 0",
}


@dataclass(frozen=True)
class AnchorPoint:
    """One expert-labelled SU target for a concrete AUC/DS constellation."""

    a_base: float
    a_shock: float
    b_base: float
    b_shock: float
    ds: float
    target_su: float
    confidence: float = 1.0

    def __post_init__(self):
        for name, bound in _ANCHOR_BOUNDS.items():
            value = check(getattr(self, name), "a number", bound, what=name, error=DomainError)
            object.__setattr__(self, name, value)


@dataclass
class CalibrationResult:
    coeffs: UpliftCoefficients
    objective: float
    grid_trace: list = field(default_factory=list)  # (UpliftCoefficients, objective)

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coeffs.to_dict(),
            "objective": self.objective,
            "grid_trace": [
                {"coefficients": c.to_dict(), "objective": o}
                for c, o in self.grid_trace
            ],
        }


def _objective(coeffs: UpliftCoefficients, anchors) -> float:
    num = 0.0
    den = 0.0
    for a in anchors:
        su = stabilization_uplift(
            (a.a_base, a.a_shock), (a.b_base, a.b_shock), a.ds, coeffs
        ).su
        num += a.confidence * (su - a.target_su) ** 2
        den += a.confidence
    if not (math.isfinite(num) and math.isfinite(den)):
        raise DomainError(f"the anchors' confidence-weighted error overflows at {coeffs}")
    return num / den


def _slope_grid(grid: dict | None, bounded: bool) -> list:
    """The UpliftCoefficients of every combination of `grid`'s candidate
    lists (DEFAULT_SWEEP when None), smallest first. A candidate must be a
    number > 0, and with `bounded` at most its value in DEFAULT_BOUNDS."""
    grid = DEFAULT_SWEEP if grid is None else grid
    lists = []
    for name in ("k1", "k2", "k3"):
        bound = f"in (0, {DEFAULT_BOUNDS[name]}]" if bounded else "> 0"
        lists.append(sorted(float(check(v, "a number", bound, what=f"candidate {name}"))
                            for v in grid.get(name, ())))
        if not lists[-1]:
            raise ConfigError(f"empty candidate list for {name}")
    return list(itertools.starmap(UpliftCoefficients, itertools.product(*lists)))


def calibrate(anchors, grid: dict | None = None) -> CalibrationResult:
    """Exhaustive grid search for the slope triple matching the anchors.

    Ties break toward the smallest (k1, then k2, then k3). Every evaluated
    point lands in the result's grid_trace. Candidates must lie inside the
    per-coefficient bounds (0, K_i] of DEFAULT_BOUNDS. Confidences so large
    that the weighted error overflows raise DomainError.
    """
    anchors = list(anchors)
    if not anchors:
        raise ConfigError("calibrate needs at least one anchor point")
    trace = [(coeffs, _objective(coeffs, anchors)) for coeffs in _slope_grid(grid, True)]
    # min keeps the first of equal objectives: earlier (smaller) tuples win ties
    best, best_obj = min(trace, key=lambda entry: entry[1])
    return CalibrationResult(coeffs=best, objective=best_obj, grid_trace=trace)


@dataclass
class SweepReport:
    baseline: UpliftCoefficients
    entries: list = field(default_factory=list)
    all_preserved: bool = True

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "all_preserved": self.all_preserved,
            "entries": self.entries,
        }


def _sign(x: float, tol: float = 1e-12) -> int:
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def _argmax_levels(grid) -> dict:
    """Each model's level in its first cell of `grid.ranked()`; read in
    reverse, so that the first cell's level is the one written last."""
    return {model: lvl for lvl, model, _ in reversed(grid.ranked())}


def sensitivity_sweep(
    records,
    ds: float,
    sweep: dict | None = None,
    baseline: UpliftCoefficients = DEFAULT_COEFFICIENTS,
) -> SweepReport:
    """Recompute the SU grid for every slope combination in the sweep.

    For each combination the report states, per cell, whether the sign of
    the raw SU matches the baseline coefficients' sign, and per model
    whether the best outlier level is unchanged. Each slope must be a
    number > 0.
    """
    slopes = _slope_grid(sweep, False)
    records = list(records)
    base_grid = batch_uplift(records, ds, baseline)
    base_signs = {key: _sign(br.su) for key, br in base_grid.cells.items()}
    base_argmax = _argmax_levels(base_grid)

    report = SweepReport(baseline=baseline)
    for coeffs in slopes:
        grid = batch_uplift(records, ds, coeffs)
        cells = []
        signs_ok = True
        for (lvl, model), br in sorted(grid.cells.items()):
            preserved = _sign(br.su) == base_signs[(lvl, model)]
            signs_ok &= preserved
            cells.append(
                {
                    "level": lvl,
                    "model": model,
                    "su": br.su,
                    "sign_preserved": preserved,
                }
            )
        argmax = _argmax_levels(grid)
        argmax_entries = {
            model: {
                "baseline_level": base_argmax[model],
                "level": argmax[model],
                "preserved": argmax[model] == base_argmax[model],
            }
            for model in grid.models
        }
        argmax_ok = all(e["preserved"] for e in argmax_entries.values())
        report.entries.append(
            {
                "coefficients": coeffs.to_dict(),
                "cells": cells,
                "all_signs_preserved": signs_ok,
                "argmax_by_model": argmax_entries,
                "argmax_preserved": argmax_ok,
            }
        )
        report.all_preserved &= signs_ok and argmax_ok
    return report
