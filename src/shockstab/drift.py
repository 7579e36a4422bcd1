"""Per-column distribution distances and their mean, the distribution shift.

Categorical columns are compared with the total variation distance over the
union of observed categories, numerical columns with the exact two-sample
Kolmogorov-Smirnov statistic. The distribution shift (DS) is the plain
average of the per-column distances; a dataset pair counts as shocked when
DS reaches a domain-informed threshold tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check
from .errors import DomainError, EmptyColumnError
from .frame import Column, ColumnKind, TabularFrame

#: Default shock threshold. Observed no-shock splits sit at DS <= 0.005 and
#: shocked splits at DS >= 0.12, so 0.05 separates the two regimes.
DEFAULT_TAU = 0.05


@dataclass(frozen=True)
class ColumnShift:
    column_name: str
    kind: ColumnKind
    distance: float

    def to_dict(self) -> dict:
        return {
            "name": self.column_name,
            "kind": self.kind.value,
            "distance": self.distance,
        }


@dataclass(frozen=True)
class DriftReport:
    per_column: tuple[ColumnShift, ...]
    ds: float
    tau: float
    is_shock: bool

    def to_dict(self) -> dict:
        return {
            "per_column": [c.to_dict() for c in self.per_column],
            "ds": self.ds,
            "tau": self.tau,
            "is_shock": self.is_shock,
        }


def _drop_missing_numerical(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    return arr[~np.isnan(arr)]


def tv_distance(p, q, column: str | None = None) -> float:
    """Total variation distance between two empirical categorical samples.

    Computes (1/2) * sum_c |p_hat(c) - q_hat(c)| over the union of observed
    categories, keyed and ordered by their text, so 1 and "1" are one
    category, as they are to `detect_schema` and the model; categories
    absent from one sample get frequency zero. Missing cells (None, or code
    -1 of a categorical Column, which either sample may be) are dropped
    first.
    """
    p, q = (
        s if isinstance(s, Column) else Column(column, ColumnKind.CATEGORICAL, s)
        for s in (p, q)
    )
    (p_labels, p_counts), (q_labels, q_counts) = p.label_counts(), q.label_counts()
    p_size, q_size = int(p_counts.sum()), int(q_counts.sum())
    if p_size == 0 or q_size == 0:
        raise EmptyColumnError(column)
    labels = np.union1d(p_labels, q_labels)
    # exact integer counts, so the frequencies match adding 1.0 per cell
    shift = np.zeros(labels.size)
    shift[np.searchsorted(labels, p_labels)] += p_counts / p_size
    shift[np.searchsorted(labels, q_labels)] -= q_counts / q_size
    return float(0.5 * np.abs(shift).sum())


def ks_statistic(x, y, column: str | None = None) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    sup_t |F_x(t) - F_y(t)| over the empirical CDFs, evaluated at the pooled
    sample points (where the supremum is attained). NaN cells are dropped.
    """
    x = np.sort(_drop_missing_numerical(x))
    y = np.sort(_drop_missing_numerical(y))
    if x.size == 0 or y.size == 0:
        raise EmptyColumnError(column)
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.abs(fx - fy).max())


def distribution_shift(
    base: TabularFrame,
    shock: TabularFrame,
    tau: float = DEFAULT_TAU,
    excluded=(),
) -> DriftReport:
    """Mean per-column distance between two frames plus the shock verdict.

    Both frames must hold the same columns (minus `excluded`) with the same
    kinds. Categorical columns contribute a TV distance, numerical ones a KS
    statistic; ds is their arithmetic mean, 0.0 when no columns remain.
    `is_shock` is ds >= tau, for a finite tau >= 0.
    """
    tau = check(tau, "a number", ">= 0", what="tau", error=DomainError)
    excluded = set(excluded)
    base.require_same_columns(shock, excluded)
    shifts = []
    for name in sorted(set(base.column_names) - excluded):
        col = base.column(name)
        other = shock.column(name)
        if col.kind is ColumnKind.CATEGORICAL:
            d = tv_distance(col, other, column=name)
        else:
            d = ks_statistic(col.values, other.values, column=name)
        shifts.append(ColumnShift(name, col.kind, d))
    ds = float(np.mean([s.distance for s in shifts])) if shifts else 0.0
    return DriftReport(
        per_column=tuple(shifts), ds=ds, tau=tau, is_shock=bool(ds >= tau)
    )
