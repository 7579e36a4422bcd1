"""Stabilization score and stabilization uplift.

The stabilization score (SS) measures one model's AUC degradation between a
baseline and a shocked evaluation, normalized by the logarithm of the
distribution shift; after AUC flipping it lives in [0.5, 1]. The
stabilization uplift (SU) compares a stabilized model B against a baseline
model A through logistic stability/superiority weights and the two SS
values. All logistic evaluations saturate beyond +-700 in the exponent so
that steep slopes cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .config import Config, check, setting
from .errors import ConfigError, DomainError, DuplicateKeyError

DEFAULT_EPSILON = 1e-5
SATURATION_EXPONENT = 700.0


def check_auc(value, what: str = "auc") -> float:
    """`value` as a float in [0, 1], else DomainError naming it `what`."""
    return float(check(value, "a number", "in [0, 1]", what=what, error=DomainError))


def flip_auc(a: float) -> float:
    """Map an AUC below 0.5 to 1 - AUC; idempotent, result in [0.5, 1]."""
    a = check_auc(a)
    return a if a >= 0.5 else 1.0 - a


def _sigmoid(z: float) -> float:
    """1 - 1/(1 + exp(z)), clamped to {0, 1} beyond +-SATURATION_EXPONENT."""
    if z > SATURATION_EXPONENT:
        return 1.0
    if z < -SATURATION_EXPONENT:
        return 0.0
    if z >= 0.0:
        return 1.0 - 1.0 / (1.0 + math.exp(z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class StabilityRecord:
    auc_base: float
    auc_shock: float
    ds: float
    epsilon: float
    ss: float

    def to_dict(self) -> dict:
        return asdict(self)


def stabilization_score(
    auc_base: float,
    auc_shock: float,
    ds: float,
    epsilon: float = DEFAULT_EPSILON,
) -> StabilityRecord:
    """Stability of one model across the shock.

    ss = 1 - |flip(auc_base) - flip(auc_shock)| / (1 + ln(1 + ds + epsilon)).
    Flipping confines the degradation to [0, 0.5], hence ss in [0.5, 1].
    ds must be finite and >= 0, epsilon finite and > 0.
    """
    auc_base = check_auc(auc_base, "auc_base")
    auc_shock = check_auc(auc_shock, "auc_shock")
    ds = float(check(ds, "a number", ">= 0", what="ds", error=DomainError))
    epsilon = float(check(epsilon, "a number", "> 0", what="epsilon", error=DomainError))
    delta = abs(flip_auc(auc_base) - flip_auc(auc_shock))
    ss = 1.0 - delta / (1.0 + math.log1p(ds + epsilon))
    return StabilityRecord(auc_base, auc_shock, ds, epsilon, ss)


@dataclass(frozen=True)
class UpliftCoefficients(Config):
    """Logistic slopes: k1 stability, k2 shocked superiority, k3 combined."""

    k1: float = setting(100.0, "a number", "> 0")
    k2: float = setting(1000.0, "a number", "> 0")
    k3: float = setting(1000.0, "a number", "> 0")


DEFAULT_COEFFICIENTS = UpliftCoefficients()


@dataclass(frozen=True)
class UpliftBreakdown:
    """Every intermediate of the uplift computation, for auditability."""

    w_a: float
    w_b: float
    w: float
    w_sup: float
    w_a_adj: float
    w_b_adj: float
    ss_a: float
    ss_b: float
    su: float

    @property
    def su_display(self) -> float:
        """Reported value: negative uplift is shown as 0.0."""
        return max(self.su, 0.0)

    def to_dict(self) -> dict:
        return {**asdict(self), "su_display": self.su_display}


def stabilization_uplift(
    a: tuple[float, float],
    b: tuple[float, float],
    ds: float,
    coeffs: UpliftCoefficients = DEFAULT_COEFFICIENTS,
    epsilon: float = DEFAULT_EPSILON,
) -> UpliftBreakdown:
    """Net stability advantage of model B over model A under the shift `ds`.

    `a` and `b` are (auc_base, auc_shock) pairs. All four AUCs are flipped
    first; then
      w_i   = sigmoid(k1 * (shock_i - base_i))          per-model stability,
      w     = sigmoid(k2 * (shock_B - shock_A))         shocked superiority,
      w_sup = sigmoid(k3 * ((base_B - base_A) + (shock_B - shock_A))),
      su    = w * (w_B * w_sup * SS_B - w_A * (1 - w_sup) * SS_A).
    The returned breakdown carries every weight; su keeps its sign (display
    clamping is the caller's concern via `su_display`).
    """
    base_a = flip_auc(check_auc(a[0], "A auc_base"))
    shock_a = flip_auc(check_auc(a[1], "A auc_shock"))
    base_b = flip_auc(check_auc(b[0], "B auc_base"))
    shock_b = flip_auc(check_auc(b[1], "B auc_shock"))

    w_a = _sigmoid(coeffs.k1 * (shock_a - base_a))
    w_b = _sigmoid(coeffs.k1 * (shock_b - base_b))
    w = _sigmoid(coeffs.k2 * (shock_b - shock_a))
    w_sup = _sigmoid(coeffs.k3 * ((base_b - base_a) + (shock_b - shock_a)))
    w_b_adj = w_b * w_sup
    w_a_adj = w_a * (1.0 - w_sup)

    ss_a = stabilization_score(base_a, shock_a, ds, epsilon).ss
    ss_b = stabilization_score(base_b, shock_b, ds, epsilon).ss
    su = w * (w_b_adj * ss_b - w_a_adj * ss_a)
    return UpliftBreakdown(w_a, w_b, w, w_sup, w_a_adj, w_b_adj, ss_a, ss_b, su)


# ---------------------------------------------------------------------------
# Uplift grids (rows = outlier levels, columns = models)
# ---------------------------------------------------------------------------

WITHOUT_LEVEL = "without"


def normalize_level(level) -> str:
    """Canonical row label: 'without' or the numeric percentage as text.
    The percentage may be given as text ("5")."""
    text = isinstance(level, str)
    if text and level.strip().lower() == WITHOUT_LEVEL:
        return WITHOUT_LEVEL
    try:
        value = float(check(float(level) if text else level, "a number", ">= 0", what="level"))
    except (ConfigError, ValueError):
        raise ConfigError(f"invalid outlier level {level!r}") from None
    return str(int(value)) if value == int(value) else repr(value)


def level_sort_key(label: str):
    if label == WITHOUT_LEVEL:
        return (0, 0.0)
    return (1, float(label))


def rank_cells(cells) -> list[tuple]:
    """(level, model, SU) cells, best first: the higher SU, then the lower
    outlier level, then the smaller model name."""
    return sorted(cells, key=lambda c: (-c[2], level_sort_key(c[0]), c[1]))


@dataclass
class UpliftGrid:
    ds: float
    coeffs: UpliftCoefficients
    levels: list[str]
    models: list[str]
    cells: dict = field(default_factory=dict)  # (level, model) -> UpliftBreakdown

    def cell(self, level, model) -> UpliftBreakdown:
        return self.cells[(normalize_level(level), model)]

    def ranked(self) -> list[tuple]:
        """Every cell as (level, model, displayed SU), by `rank_cells`."""
        return rank_cells(
            (lvl, model, br.su_display) for (lvl, model), br in self.cells.items()
        )

    def top3(self) -> list[dict]:
        return [
            {"rank": i + 1, "level": lvl, "model": model, "su": su}
            for i, (lvl, model, su) in enumerate(self.ranked()[:3])
        ]

    def to_dict(self) -> dict:
        rows = []
        for lvl in self.levels:
            cells = {}
            for model in self.models:
                br = self.cells.get((lvl, model))
                cells[model] = None if br is None else br.to_dict()
            rows.append({"outliers_pct": lvl, "cells": cells})
        return {
            "ds": self.ds,
            "coefficients": self.coeffs.to_dict(),
            "models": list(self.models),
            "rows": rows,
            "top3": self.top3(),
        }


def batch_uplift(
    records, ds: float, coeffs: UpliftCoefficients = DEFAULT_COEFFICIENTS
) -> UpliftGrid:
    """Evaluate the uplift for a batch of (model, level, four AUCs) records.

    `records` holds tuples/lists (model_name, outlier_pct, auc_base_a,
    auc_shock_a, auc_base_b, auc_shock_b). Rows are outlier levels with
    'without' first, columns keep the models' first-appearance order. A
    model name that is not a non-empty string raises DomainError, and a
    repeated (model, level) pair DuplicateKeyError.
    """
    ds = float(check(ds, "a number", ">= 0", what="ds", error=DomainError))
    models: list[str] = []
    levels: list[str] = []
    cells: dict = {}
    for i, rec in enumerate(records):
        model, level, ba, sa, bb, sb = rec
        model = check(model, "a non-empty string", what=f"record {i} model", error=DomainError)
        label = normalize_level(level)
        key = (label, model)
        if key in cells:
            raise DuplicateKeyError((model, label))
        if model not in models:
            models.append(model)
        if label not in levels:
            levels.append(label)
        cells[key] = stabilization_uplift((ba, sa), (bb, sb), ds, coeffs)
    levels.sort(key=level_sort_key)
    return UpliftGrid(ds=ds, coeffs=coeffs, levels=levels, models=models, cells=cells)
