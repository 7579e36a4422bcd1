"""Typed columnar frames, CSV ingestion and column-kind detection.

A TabularFrame holds one numpy array per column: float64 with NaN as the
missing marker for numerical columns, object arrays of str with None for
categorical ones. Frames loaded from CSV additionally retain the original
cell text so that exporting reproduces every non-missing cell byte-equal.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .errors import (
    CsvFormatError,
    EmptyHeaderError,
    EmptyInputError,
    RaggedRowError,
    SchemaMismatchError,
    UndeterminableColumnError,
)

DEFAULT_MISSING_TOKENS = ("", "NA", "null")


class ColumnKind(enum.Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


def _parse_numeric(cell: str):
    """Return the finite float value of `cell`, or None if it is not numeric."""
    if "_" in cell:  # float() accepts "1_000"; CSV cells should not
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class Column:
    """One named column: typed values plus (optionally) the raw CSV text."""

    name: str
    kind: ColumnKind
    values: np.ndarray
    raw: tuple | None = None  # original cell strings, None marks missing

    def __post_init__(self):
        if self.kind is ColumnKind.NUMERICAL:
            if self.values.dtype != np.float64:
                object.__setattr__(self, "values", self.values.astype(np.float64))
            finite_or_nan = np.isfinite(self.values) | np.isnan(self.values)
            if not finite_or_nan.all():
                raise ValueError(f"column {self.name!r} contains non-finite values")
        else:
            if self.values.dtype != object:
                object.__setattr__(
                    self, "values", np.asarray(self.values, dtype=object)
                )
        self.values.setflags(write=False)
        if self.raw is not None and len(self.raw) != len(self.values):
            raise ValueError(f"column {self.name!r}: raw/value length mismatch")

    def __len__(self):
        return len(self.values)

    @property
    def missing_mask(self) -> np.ndarray:
        if self.kind is ColumnKind.NUMERICAL:
            return np.isnan(self.values)
        return np.array([v is None for v in self.values], dtype=bool)

    def non_missing(self) -> np.ndarray:
        """Values with missing cells dropped."""
        return self.values[~self.missing_mask]

    def text(self, missing_token: str = "") -> list:
        """Every cell as text, preferring the retained raw string."""
        if self.raw is not None:
            return [missing_token if r is None else r for r in self.raw]
        if self.kind is ColumnKind.NUMERICAL:
            return [
                missing_token if math.isnan(v) else repr(v)
                for v in self.values.tolist()
            ]
        return [missing_token if v is None else str(v) for v in self.values]

    def take(self, indices) -> "Column":
        indices = np.asarray(indices, dtype=np.intp)
        raw = None
        if self.raw is not None:
            raw = tuple(map(self.raw.__getitem__, indices.tolist()))
        return Column(self.name, self.kind, self.values[indices], raw)


class TabularFrame:
    """Immutable ordered collection of equally long, uniquely named columns."""

    def __init__(self, columns: list[Column]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate column name {dup!r}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        self.columns = tuple(columns)
        self.row_count = lengths.pop() if lengths else 0
        self._by_name = {c.name: c for c in self.columns}

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def __contains__(self, name):
        return name in self._by_name

    def kind_of(self, name: str) -> ColumnKind:
        return self.column(name).kind

    def take(self, indices) -> "TabularFrame":
        """Row subset in the given order; retains raw text where present."""
        indices = np.asarray(indices, dtype=np.intp)
        return TabularFrame([c.take(indices) for c in self.columns])

    def drop_columns(self, names) -> "TabularFrame":
        names = set(names)
        return TabularFrame([c for c in self.columns if c.name not in names])

    def same_schema(self, other: "TabularFrame") -> bool:
        return self.column_names == other.column_names and all(
            a.kind == b.kind for a, b in zip(self.columns, other.columns)
        )

    def to_csv(self, path, delimiter: str = ",", missing_token: str = "") -> None:
        """Write the frame as RFC-4180 CSV with a header row."""
        texts = [c.text(missing_token) for c in self.columns]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow(self.column_names)
            writer.writerows(zip(*texts))


def concat_frames(first: TabularFrame, second: TabularFrame) -> TabularFrame:
    """Stack two frames with identical schemas, first on top."""
    if not first.same_schema(second):
        for name in first.column_names:
            if name not in second:
                raise SchemaMismatchError(name, "missing from second frame")
            if second.kind_of(name) != first.kind_of(name):
                raise SchemaMismatchError(name, "kind conflict")
        for name in second.column_names:
            if name not in first:
                raise SchemaMismatchError(name, "missing from first frame")
    columns = []
    for a in first.columns:
        b = second.column(a.name)
        values = np.concatenate([a.values, b.values])
        raw = None
        if a.raw is not None and b.raw is not None:
            raw = a.raw + b.raw
        columns.append(Column(a.name, a.kind, values, raw))
    return TabularFrame(columns)


# ---------------------------------------------------------------------------
# Kind inference and CSV loading
# ---------------------------------------------------------------------------

def _infer_kind(cells, missing_tokens) -> tuple[ColumnKind, list]:
    """Decide a column's kind from raw cell strings.

    Returns (kind, parsed) where parsed holds floats/None for numerical and
    str/None for categorical. A column is numerical when every non-missing
    cell parses as a finite real; otherwise it is categorical.
    """
    parsed = []
    numeric_ok = True
    saw_value = False
    for cell in cells:
        if cell in missing_tokens:
            parsed.append(None)
            continue
        saw_value = True
        if numeric_ok:
            value = _parse_numeric(cell)
            if value is None:
                numeric_ok = False
        parsed.append(cell)
    if not saw_value:
        return ColumnKind.CATEGORICAL, parsed  # caller decides how to report
    if numeric_ok:
        return (
            ColumnKind.NUMERICAL,
            [None if c is None else float(c) for c in parsed],
        )
    return ColumnKind.CATEGORICAL, parsed


def load_csv(
    path,
    delimiter: str = ",",
    missing_tokens=DEFAULT_MISSING_TOKENS,
    categorical_override: int = 0,
    kind_overrides: dict[str, ColumnKind] | None = None,
) -> TabularFrame:
    """Load a delimited text file with a header row into a TabularFrame.

    Column kinds are inferred per `_infer_kind`; `categorical_override`, when
    positive, additionally routes numeric columns with at most that many
    distinct values to categorical. `kind_overrides` forces specific columns.
    Missing cells are any cell equal to one of `missing_tokens`.
    """
    missing_tokens = frozenset(missing_tokens)
    kind_overrides = kind_overrides or {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyHeaderError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if not header or all(h == "" for h in header):
            raise EmptyHeaderError(f"{path}: header row is empty")
        if len(set(header)) != len(header):
            dup = next(h for h in header if header.count(h) > 1)
            raise CsvFormatError(f"{path}: duplicate header column {dup!r}")
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise RaggedRowError(i, len(header), len(row))
            rows.append(row)

    columns = []
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        kind, parsed = _infer_kind(cells, missing_tokens)
        forced = kind_overrides.get(name)
        if forced is not None:
            kind = forced
            if kind is ColumnKind.CATEGORICAL:
                parsed = [None if c in missing_tokens else c for c in cells]
            else:
                parsed = []
                for i, c in enumerate(cells):
                    if c in missing_tokens:
                        parsed.append(None)
                        continue
                    value = _parse_numeric(c)
                    if value is None:
                        raise CsvFormatError(
                            f"column {name!r} forced numerical but row {i + 1} "
                            f"holds {c!r}"
                        )
                    parsed.append(value)
        elif (
            kind is ColumnKind.NUMERICAL
            and categorical_override > 0
            and len({v for v in parsed if v is not None}) <= categorical_override
        ):
            kind = ColumnKind.CATEGORICAL
            parsed = [None if c in missing_tokens else c for c in cells]

        raw = tuple(None if c in missing_tokens else c for c in cells)
        if kind is ColumnKind.NUMERICAL:
            values = np.array(
                [np.nan if v is None else v for v in parsed], dtype=np.float64
            )
        else:
            values = np.array(parsed, dtype=object)
        columns.append(Column(name, kind, values, raw))
    return TabularFrame(columns)


# ---------------------------------------------------------------------------
# Schema detection
# ---------------------------------------------------------------------------

@dataclass
class ColumnSummary:
    name: str
    kind: ColumnKind
    missing_count: int
    unique_count: int
    # numerical-only moments; None marks an undefined statistic
    mean: float | None = None
    std: float | None = None
    skewness: float | None = None
    kurtosis: float | None = None
    min: float | None = None
    q25: float | None = None
    median: float | None = None
    q75: float | None = None
    max: float | None = None
    iqr: float | None = None
    # categorical-only
    top: str | None = None
    top_frequency: int | None = None
    percent_top: float | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "kind": self.kind.value,
            "missing_count": self.missing_count,
            "unique_count": self.unique_count,
        }
        if self.kind is ColumnKind.NUMERICAL:
            d.update(
                mean=self.mean,
                std=self.std,
                skewness=self.skewness,
                kurtosis=self.kurtosis,
                min=self.min,
                q25=self.q25,
                median=self.median,
                q75=self.q75,
                max=self.max,
                iqr=self.iqr,
            )
        else:
            d.update(
                top=self.top,
                top_frequency=self.top_frequency,
                percent_top=self.percent_top,
            )
        return d


@dataclass
class SchemaReport:
    row_count: int
    columns: list[ColumnSummary] = field(default_factory=list)

    def column(self, name: str) -> ColumnSummary:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "columns": [c.to_dict() for c in self.columns],
        }


def _finite_or_none(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _numerical_summary(name, values, missing_count) -> ColumnSummary:
    values = np.sort(values)  # moments become exactly row-order invariant
    n = values.size
    q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    std = np.std(values, ddof=1) if n > 1 else 0.0
    if n >= 3 and std > 0:
        skew = _finite_or_none(sps.skew(values, bias=False))
    else:
        skew = None
    if n >= 4 and std > 0:
        kurt = _finite_or_none(sps.kurtosis(values, fisher=True, bias=False))
    else:
        kurt = None
    return ColumnSummary(
        name=name,
        kind=ColumnKind.NUMERICAL,
        missing_count=missing_count,
        unique_count=int(np.unique(values).size),
        mean=float(np.mean(values)),
        std=float(std),
        skewness=skew,
        kurtosis=kurt,
        min=float(np.min(values)),
        q25=float(q25),
        median=float(med),
        q75=float(q75),
        max=float(np.max(values)),
        iqr=float(q75 - q25),
    )


def _categorical_summary(name, values, missing_count) -> ColumnSummary:
    labels, counts = np.unique(np.asarray(values, dtype=str), return_counts=True)
    # ties on frequency resolve to the lexicographically smallest label
    order = np.lexsort((labels, -counts))
    top_i = order[0]
    total = int(counts.sum())
    return ColumnSummary(
        name=name,
        kind=ColumnKind.CATEGORICAL,
        missing_count=missing_count,
        unique_count=int(labels.size),
        top=str(labels[top_i]),
        top_frequency=int(counts[top_i]),
        percent_top=100.0 * counts[top_i] / total,
    )


def detect_schema(frame: TabularFrame, categorical_override: int = 0) -> SchemaReport:
    """Summarise every column: kind, missingness and distribution statistics.

    Numerical moments use the adjusted Fisher-Pearson estimators (excess
    kurtosis) and ignore missing cells; undefined moments (constant or
    too-short samples) are reported as None. With `categorical_override` > 0,
    numerical columns with at most that many distinct values are reported as
    categorical.
    """
    if frame.row_count == 0:
        raise EmptyInputError("cannot detect schema of an empty frame")
    report = SchemaReport(row_count=frame.row_count)
    for col in frame.columns:
        missing = int(col.missing_mask.sum())
        present = col.non_missing()
        if present.size == 0:
            raise UndeterminableColumnError(col.name)
        kind = col.kind
        if (
            kind is ColumnKind.NUMERICAL
            and categorical_override > 0
            and np.unique(present).size <= categorical_override
        ):
            kind = ColumnKind.CATEGORICAL
        if kind is ColumnKind.NUMERICAL:
            report.columns.append(_numerical_summary(col.name, present, missing))
        else:
            if col.kind is ColumnKind.NUMERICAL:
                # numeric values reported as categories under the override
                present = np.array([repr(float(v)) for v in present], dtype=object)
            report.columns.append(_categorical_summary(col.name, present, missing))
    return report
