"""Typed columnar frames, CSV ingestion and column-kind detection.

A TabularFrame holds one numpy array per column: float64 with NaN as the
missing marker for numerical columns, object arrays of str with None for
categorical ones. Frames loaded from CSV additionally retain the original
cell text so that exporting reproduces every non-missing cell byte-equal.
"""

from __future__ import annotations

import csv
import enum
import gc
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

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


def _parse_floats(cells) -> np.ndarray | None:
    """The float values of `cells`, or None unless every cell is numeric.

    A cell is numeric when float() reads it as a finite real and it holds
    no "_" (float() accepts "1_000"; CSV cells should not).
    """
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    if not np.isfinite(values).all() or "_" in "".join(cells):
        return None
    return values


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
        return np.fromiter(
            map(operator.is_, self.values, itertools.repeat(None)),
            dtype=bool,
            count=len(self.values),
        )

    def non_missing(self) -> np.ndarray:
        """Values with missing cells dropped."""
        return self.values[~self.missing_mask]

    def text(self, missing_token: str = "") -> tuple | list:
        """Every cell as text, preferring the retained raw string.

        A column whose raw text has no missing cell returns that tuple itself.
        """
        if self.raw is not None:
            if None not in self.raw:
                return self.raw
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
            raw = _gather(self.raw, indices.tolist())
        return Column(self.name, self.kind, self.values[indices], raw)


def _gather(items: tuple, positions: list) -> tuple:
    """tuple(items[i] for i in positions), gathered in one C-level call."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)(items)
    # itemgetter needs an index, and returns a bare item for just one
    return tuple(map(items.__getitem__, positions))


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

    def require_same_columns(self, other: "TabularFrame", excluded=()) -> None:
        """Raise SchemaMismatchError unless both frames hold the same column
        names, outside `excluded`, with the same kinds; order may differ."""
        for col in self.columns:
            if col.name in excluded:
                continue
            if col.name not in other:
                raise SchemaMismatchError(col.name, "missing from second frame")
            if other.kind_of(col.name) != col.kind:
                raise SchemaMismatchError(
                    col.name, f"kind {col.kind.value} vs {other.kind_of(col.name).value}"
                )
        for name in other.column_names:
            if name not in excluded and name not in self:
                raise SchemaMismatchError(name, "missing from first frame")

    def to_csv(self, path, delimiter: str = ",", missing_token: str = "") -> None:
        """Write the frame as RFC-4180 CSV with a header row.

        Quoting follows csv's QUOTE_MINIMAL and CRLF line ends. Rows go
        out in chunks of `_CSV_CHUNK_ROWS`; a chunk of two or more columns
        with no cell that csv would quote is joined and written directly,
        which gives the bytes csv.writer would write, at C speed.
        """
        texts = [c.text(missing_token) for c in self.columns]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow(self.column_names)
            for start in range(0, self.row_count, _CSV_CHUNK_ROWS):
                chunk = [t[start : start + _CSV_CHUNK_ROWS] for t in texts]
                if _writes_verbatim(chunk, delimiter):
                    fh.write("\r\n".join(map(delimiter.join, zip(*chunk))))
                    fh.write("\r\n")
                else:
                    writer.writerows(zip(*chunk))


# Rows per write in TabularFrame.to_csv: enough that the per-chunk overhead
# vanishes, few enough that a chunk's text adds nothing to the peak memory
# (8,192 rows raised a 50k-row split's peak RSS by about 2 MB).
_CSV_CHUNK_ROWS = 1024


def _writes_verbatim(texts, delimiter: str) -> bool:
    """Whether csv's QUOTE_MINIMAL writer leaves every cell of the columns
    `texts` as is, so that joining the rows gives its bytes.

    It quotes a cell holding the delimiter, the quote character or a line
    break, and the single empty cell of a one-column row.
    """
    if len(texts) < 2:
        return False
    cells = "".join(itertools.chain.from_iterable(texts))
    return not any(map(cells.__contains__, (delimiter, '"', "\r", "\n")))


def concat_frames(first: TabularFrame, second: TabularFrame) -> TabularFrame:
    """Stack two frames with the same columns, first on top, in the first
    frame's column order."""
    first.require_same_columns(second)
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

def load_csv(
    path,
    delimiter: str = ",",
    missing_tokens=DEFAULT_MISSING_TOKENS,
    categorical_override: int = 0,
    kind_overrides: dict[str, ColumnKind] | None = None,
) -> TabularFrame:
    """Load a delimited text file with a header row into a TabularFrame.

    A column is numerical when it has a non-missing cell and every
    non-missing cell is numeric (see `_parse_floats`); otherwise it is
    categorical. `categorical_override`, when positive, additionally routes
    numeric columns with at most that many distinct values to categorical.
    `kind_overrides` forces specific columns. Missing cells are any cell
    equal to one of `missing_tokens`.
    """
    missing_tokens = frozenset(missing_tokens)
    kind_overrides = kind_overrides or {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    try:
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
            # csv.reader's row lists are tracked containers, so each collection
            # while they pile up would walk them all again: pause the collector
            # while they are read and transposed
            gc_enabled = gc.isenabled()
            gc.disable()
            try:
                rows = list(reader)
                width = len(header)
                if any(map(width.__ne__, map(len, rows))):
                    i = next(i for i, row in enumerate(rows) if len(row) != width)
                    raise RaggedRowError(i + 1, width, len(rows[i]))
                by_column = list(zip(*rows)) or [()] * width
            finally:
                if gc_enabled:
                    gc.enable()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"cannot read {path}: not UTF-8 text ({exc.reason})"
        ) from None

    columns = []
    for name, cells in zip(header, by_column):
        missing = np.fromiter(
            map(missing_tokens.__contains__, cells), dtype=bool, count=len(cells)
        )
        text = np.array(cells, dtype=object)
        text[missing] = None
        present = text[~missing]
        kind = kind_overrides.get(name)
        numbers = None if kind is ColumnKind.CATEGORICAL else _parse_floats(present)
        if kind is ColumnKind.NUMERICAL and numbers is None:
            row = next(
                i for i, c in enumerate(text) if c is not None and _parse_floats((c,)) is None
            )
            raise CsvFormatError(
                f"column {name!r} forced numerical but row {row + 1} holds {cells[row]!r}"
            )
        if kind is None:
            numeric = numbers is not None and present.size > 0
            if numeric and categorical_override > 0:
                numeric = np.unique(numbers).size > categorical_override
            kind = ColumnKind.NUMERICAL if numeric else ColumnKind.CATEGORICAL
        if kind is ColumnKind.NUMERICAL:
            values = np.full(len(cells), np.nan)
            values[~missing] = numbers
        else:
            values = text
        columns.append(Column(name, kind, values, tuple(text.tolist())))
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
    # imported here, not with the module: only the schema profile needs it
    from scipy import stats as sps

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
