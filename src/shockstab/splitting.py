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

    def check_label(self, label: str) -> None:
        """Raise ConfigError if an OOT split's date column is the 0/1 `label`."""
        if self.mode == OOT and self.date_column == label:
            raise ConfigError(f"date_column {label!r} is the label: an OOT split needs "
                              "its dates in a column apart from the 0/1 label")


@dataclass(frozen=True)
class ShockSplit:
    """One Monte Carlo run's parts: disjoint read-only np.intp arrays of row
    indices that cover the frame split; `frame.take(split.train)` is a part."""

    train: np.ndarray
    test: np.ndarray
    shocked_test: np.ndarray
    run_index: int


def _date_text(dates: Column) -> tuple[np.ndarray, list]:
    """Each row's code into the texts its dates parse from, and those texts;
    code -1 or text None marks a missing date. A categorical column's
    categories are that text. A numerical column's is written from its
    values: an integer in [0, 99999999] with eight digits (20180322.0 gives
    "20180322"), any other value as its repr, which parses as no date. Eight
    digits are the one numeric form that parses as ISO-8601, so a date
    parses to the same instant whichever kind its column loads as."""
    if dates.kind is ColumnKind.CATEGORICAL:
        return dates.codes, list(map(str, dates.categories))
    values, codes = np.unique(dates.values, return_inverse=True)
    return codes.reshape(-1), [
        None if math.isnan(v)
        else f"{int(v):08d}" if v.is_integer() and 0 <= v <= 99_999_999
        else repr(v)
        for v in values.tolist()
    ]


# Partitions computed so far, per frame and (date column, shock date): a
# frame is split once per Monte Carlo run, and its dates are parsed once.
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
        codes, texts = _date_text(frame.column(spec.date_column))
        shocked = np.zeros(len(texts), dtype=bool)
        # each text the rows hold is parsed once, at its first row and in row
        # order, so the first bad or missing date raises with its own row
        first_rows = np.sort(np.unique(codes, return_index=True)[1])
        for i, k in zip(first_rows.tolist(), codes[first_rows].tolist()):
            if k < 0 or not texts[k]:
                raise DateParseError(i, None)
            # the boundary row belongs to the shocked regime
            shocked[k] = parse_timestamp(texts[k], i) >= spec.shock_date
        shocked = shocked[codes]
        parts = (np.flatnonzero(~shocked), np.flatnonzero(shocked))
        for part in parts:
            part.setflags(write=False)
        known[key] = parts
    return known[key]


def split_once(frame: TabularFrame, spec: SplitSpec, run_index: int = 0) -> ShockSplit:
    """One deterministic split, as row indices into `frame`; no row is taken.

    OOT: rows dated >= shock_date form shocked_test (identical for every
    run); the remainder is shuffled by a (seed, run_index)-keyed generator
    and cut at train_fraction (train gets the floor). OOS: ceil(fraction * n)
    rows are held out as the pseudo-shock set, resampled per run, and the
    rest is cut the same way. A cut that leaves train empty raises
    DegenerateSplitError; test never is, as floor(f * n) < n for f < 1.
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
    if not n_train:
        raise DegenerateSplitError(f"train_fraction {spec.train_fraction} leaves no "
                                   f"training rows of the {pre.size} pre-shock rows")
    parts = (pre[:n_train], pre[n_train:], shocked)
    for part in parts:
        part.setflags(write=False)
    return ShockSplit(*parts, run_index=run_index)


def monte_carlo(frame: TabularFrame, spec: SplitSpec) -> list[ShockSplit]:
    """All `spec.mc_runs` splits, run_index 0 .. mc_runs - 1.

    In OOT mode the dates are parsed once, on the first run.
    """
    return [split_once(frame, spec, r) for r in range(spec.mc_runs)]


def model_splits(frame: TabularFrame, spec: SplitSpec) -> tuple:
    """The frame a model trains and is evaluated on, and its Monte Carlo splits.

    The model frame holds `frame`'s rows in their order, so each split's
    row indices point into both, and every column but an OOT date column,
    which `oot_partition` parses and which is neither a feature nor a DS
    column. It keeps no lines.
    """
    drop = spec.date_column if spec.mode == OOT else None
    columns = [c for c in frame.columns if c.name != drop]
    return TabularFrame(columns), monte_carlo(frame, spec)


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
