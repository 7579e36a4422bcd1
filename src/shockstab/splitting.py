"""Pre/post-shock partitioning and seeded Monte Carlo resampling.

Two split modes: out-of-time (OOT) fixes a temporal boundary at a shock
date, out-of-sample (OOS) holds out a random pseudo-shock fraction. The
pre-shock segment is re-shuffled into train/test per Monte Carlo run with a
child generator keyed by (seed, run_index), so adding runs never perturbs
earlier ones.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .config import Config, check, setting
from .errors import (
    ConfigError,
    DateParseError,
    DegenerateSplitError,
    DomainError,
    EmptyInputError,
)
from .frame import Column, ColumnKind, TabularFrame

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
        try:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:  # an offset that moves the date past year 1 or 9999
            raise DateParseError(row_index, value) from None
    return dt


@dataclass(frozen=True)
class SplitSpec(Config):
    """How to carve a dataset into train / test / shocked_test segments."""

    mode: str = setting(kind="a string")
    date_column: str | None = setting(None, "a string", null=True)
    shock_date: object = setting(None, "a date", null=True)
    shock_fraction: float | None = setting(None, "a number", "in (0, 1)", null=True)
    train_fraction: float = setting(0.8, "a number", "in (0, 1)")
    mc_runs: int = setting(51, "an integer", ">= 1")
    seed: int = setting(0, "an integer")

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in (OOT, OOS):
            raise ConfigError(f"mode must be '{OOT}' or '{OOS}', got {self.mode!r}")
        if self.mode == OOT:
            if not self.date_column or self.shock_date is None:
                raise ConfigError("OOT mode requires date_column and shock_date")
            try:
                shock_date = parse_timestamp(self.shock_date)
            except DateParseError:
                raise ConfigError(
                    f"shock_date {self.shock_date!r} does not parse as a date"
                ) from None
            object.__setattr__(self, "shock_date", shock_date)
        else:
            if self.shock_fraction is None:
                raise ConfigError("OOS mode requires shock_fraction in (0, 1), got None")
            # an OOS split has no shock date, so none is kept or reported
            object.__setattr__(self, "shock_date", None)


@dataclass(frozen=True)
class ShockSplit:
    train: TabularFrame
    test: TabularFrame
    shocked_test: TabularFrame
    run_index: int


def _date_text(dates: Column) -> Column:
    """A date column as the text its dates parse from: a date such as
    20180322 loads as a number, which would read back as 20180322.0."""
    if dates.kind is ColumnKind.NUMERICAL:
        return Column(dates.name, ColumnKind.CATEGORICAL, np.array(dates.text(), dtype=object))
    return dates


# Partitions computed so far, per frame and (date column, shock date). A
# frame is split once per Monte Carlo run through split_once(frame, spec,
# run_index), and its dates do not change between runs, so they are parsed
# once per frame rather than once per run.
_PARTITIONS = weakref.WeakKeyDictionary()


def oot_partition(frame: TabularFrame, spec: SplitSpec):
    """Row indices dated before and at-or-after `spec.shock_date`, in row order.

    Returns two read-only np.intp arrays, computed once per frame, date
    column and shock date. Every row needs a parseable date; a missing one
    raises DateParseError.
    """
    if spec.date_column not in frame:
        raise ConfigError(f"date column {spec.date_column!r} is not in the data")
    key = (spec.date_column, spec.shock_date)
    known = _PARTITIONS.setdefault(frame, {})
    if key not in known:
        dates = _date_text(frame.column(spec.date_column))
        codes = dates.codes
        shocked = np.zeros(len(dates.categories), dtype=bool)
        # each category the rows hold is parsed once, at its first row and in
        # row order, so the first bad or missing date raises with its own row
        first_rows = np.sort(np.unique(codes, return_index=True)[1])
        for i, k in zip(first_rows.tolist(), codes[first_rows].tolist()):
            text = str(dates.categories[k]) if k >= 0 else ""
            if text == "":
                raise DateParseError(i, None)
            # the boundary row belongs to the shocked regime
            shocked[k] = parse_timestamp(text, i) >= spec.shock_date
        shocked = shocked[codes]
        parts = (np.flatnonzero(~shocked), np.flatnonzero(shocked))
        for part in parts:
            part.setflags(write=False)
        known[key] = parts
    return known[key]


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
        if not pre.size:
            raise DegenerateSplitError("no rows before the shock date")
        if not shocked.size:
            raise DegenerateSplitError("no rows at or after the shock date")
        pre = pre[rng.permutation(pre.size)]
    else:
        n = frame.row_count
        n_shock = math.ceil(spec.shock_fraction * n)
        if n_shock >= n:
            raise DegenerateSplitError(
                f"shock fraction {spec.shock_fraction} leaves no pre-shock rows"
            )
        perm = rng.permutation(n)
        shocked = np.sort(perm[:n_shock])
        pre = perm[n_shock:]
    n_train = math.floor(spec.train_fraction * pre.size)
    return ShockSplit(
        train=frame.take(pre[:n_train]),
        test=frame.take(pre[n_train:]),
        shocked_test=frame.take(shocked),
        run_index=run_index,
    )


def monte_carlo(frame: TabularFrame, spec: SplitSpec) -> list[ShockSplit]:
    """All `spec.mc_runs` splits, run_index 0 .. mc_runs - 1.

    In OOT mode the dates are parsed once, on the first run.
    """
    return [split_once(frame, spec, r) for r in range(spec.mc_runs)]


def text_columns(spec: SplitSpec) -> tuple[str, ...]:
    """The columns whose CSV text `model_splits` reads: an OOT date column,
    which can load as a number such as 20180322 and is parsed from its text."""
    return (spec.date_column,) if spec.mode == OOT else ()


def model_splits(frame: TabularFrame, spec: SplitSpec, label: str) -> list[ShockSplit]:
    """The Monte Carlo splits a model trains and is evaluated on.

    No column keeps its CSV text. An OOT date column is parsed from its text
    and is neither a feature nor a DS column, so it is dropped from every
    split unless it is the label.
    """
    dates = set(text_columns(spec))
    frame = TabularFrame(
        [(_date_text(c) if c.name in dates else c).without_text() for c in frame.columns]
    )
    drop = dates - {label}
    return [
        ShockSplit(*(f.drop_columns(drop) for f in (s.train, s.test, s.shocked_test)), s.run_index)
        for s in monte_carlo(frame, spec)
    ]


class Aggregate(NamedTuple):
    median: float
    min: float
    max: float


def aggregate(metric_values) -> Aggregate:
    """Median (midpoint of the two central values for even lengths) and range."""
    values = [float(check(v, "a number", what="aggregate value", error=DomainError))
              for v in metric_values]
    if not values:
        raise EmptyInputError("aggregate of an empty list")
    ordered = sorted(values)
    n = len(ordered)
    if n % 2 == 1:
        med = ordered[n // 2]
    else:
        med = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    return Aggregate(median=med, min=ordered[0], max=ordered[-1])
