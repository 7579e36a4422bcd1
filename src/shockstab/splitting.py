"""Pre/post-shock partitioning and seeded Monte Carlo resampling.

Two split modes: out-of-time (OOT) fixes a temporal boundary at a shock
date, out-of-sample (OOS) holds out a random pseudo-shock fraction. The
pre-shock segment is re-shuffled into train/test per Monte Carlo run with a
child generator keyed by (seed, run_index), so adding runs never perturbs
earlier ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DateParseError,
    DegenerateSplitError,
    DomainError,
    EmptyInputError,
)
from .frame import TabularFrame

_SEED_MASK = (1 << 64) - 1

OOT = "oot"
OOS = "oos"


def child_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for (seed, keys...) via a splittable seed tree."""
    entropy = [int(seed) & _SEED_MASK] + [int(k) & _SEED_MASK for k in keys]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def parse_timestamp(value, row_index: int | None = None) -> datetime:
    """Parse ISO-8601 / YYYY-MM-DD text into a naive UTC datetime."""
    if isinstance(value, datetime):
        dt = value
    else:
        if value is None:
            raise DateParseError(row_index, value)
        text = str(value).strip().replace("Z", "+00:00")
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise DateParseError(row_index, value) from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train / test / shocked_test segments."""

    mode: str
    date_column: str | None = None
    shock_date: object = None
    shock_fraction: float | None = None
    train_fraction: float = 0.8
    mc_runs: int = 51
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (OOT, OOS):
            raise ConfigError(f"mode must be '{OOT}' or '{OOS}', got {self.mode!r}")
        if self.mode == OOT:
            if not self.date_column or self.shock_date is None:
                raise ConfigError("OOT mode requires date_column and shock_date")
            object.__setattr__(self, "shock_date", parse_timestamp(self.shock_date))
        else:
            f = self.shock_fraction
            if f is None or not (0.0 < f < 1.0):
                raise ConfigError(
                    f"OOS mode requires shock_fraction in (0, 1), got {f!r}"
                )
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction!r}"
            )
        if self.mc_runs < 1:
            raise ConfigError(f"mc_runs must be >= 1, got {self.mc_runs!r}")


@dataclass(frozen=True)
class ShockSplit:
    train: TabularFrame
    test: TabularFrame
    shocked_test: TabularFrame
    run_index: int


def oot_partition(frame: TabularFrame, spec: SplitSpec):
    """Row indices dated before and at-or-after `spec.shock_date`, in row order.

    Every row needs a parseable date; a missing one raises DateParseError.
    """
    col = frame.column(spec.date_column)
    pre, shocked = [], []
    for i in range(frame.row_count):
        value = frame.cell_text(col, i, missing_token="")
        if value == "":
            raise DateParseError(i, None)
        if parse_timestamp(value, i) >= spec.shock_date:
            shocked.append(i)  # boundary row belongs to the shocked regime
        else:
            pre.append(i)
    return pre, shocked


def split_once(frame: TabularFrame, spec: SplitSpec, run_index: int = 0) -> ShockSplit:
    """One deterministic split.

    OOT: rows dated >= shock_date form shocked_test (identical for every
    run); the remainder is shuffled by a (seed, run_index)-keyed generator
    and cut at train_fraction (train gets the floor). OOS: ceil(fraction * n)
    rows are held out as the pseudo-shock set, resampled per run, and the
    rest is cut the same way.
    """
    if frame.row_count == 0:
        raise EmptyInputError("cannot split an empty frame")
    rng = child_rng(spec.seed, run_index)
    if spec.mode == OOT:
        pre, shocked = oot_partition(frame, spec)
        if not pre:
            raise DegenerateSplitError("no rows before the shock date")
        if not shocked:
            raise DegenerateSplitError("no rows at or after the shock date")
        perm = rng.permutation(len(pre))
        pre = [pre[i] for i in perm]
    else:
        n = frame.row_count
        n_shock = math.ceil(spec.shock_fraction * n)
        if n_shock >= n:
            raise DegenerateSplitError(
                f"shock fraction {spec.shock_fraction} leaves no pre-shock rows"
            )
        perm = rng.permutation(n)
        shocked = sorted(int(i) for i in perm[:n_shock])
        pre = [int(i) for i in perm[n_shock:]]
    n_train = math.floor(spec.train_fraction * len(pre))
    train_idx, test_idx = pre[:n_train], pre[n_train:]
    return ShockSplit(
        train=frame.take(train_idx),
        test=frame.take(test_idx),
        shocked_test=frame.take(shocked),
        run_index=run_index,
    )


def monte_carlo(frame: TabularFrame, spec: SplitSpec) -> list[ShockSplit]:
    """All `spec.mc_runs` splits, run_index 0 .. mc_runs - 1."""
    return [split_once(frame, spec, r) for r in range(spec.mc_runs)]


class Aggregate(NamedTuple):
    median: float
    min: float
    max: float


def aggregate(metric_values) -> Aggregate:
    """Median (midpoint of the two central values for even lengths) and range."""
    values = [float(v) for v in metric_values]
    if not values:
        raise EmptyInputError("aggregate of an empty list")
    if not all(math.isfinite(v) for v in values):
        raise DomainError("aggregate requires finite values")
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        med = ordered[n // 2]
    else:
        med = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    return Aggregate(median=med, min=ordered[0], max=ordered[-1])
