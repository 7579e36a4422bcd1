"""Typed columnar frames, CSV ingestion and column-kind detection.

A TabularFrame holds one typed array per column. A numerical column holds
float64 values, NaN marking a missing cell. A categorical column holds
int32 codes into one tuple of its distinct values, its categories, sorted
by str, with -1 marking a missing cell; `Column.values` decodes them into
an object array with None for missing cells. Missingness is always read
from these arrays: the NaN mask or code -1.

A categorical column's categories are its cell strings, so a column
loaded from CSV holds each such cell's text once. A numerical column keeps
a tuple of its cell strings only where `load_csv` is asked to: by default
every column keeps its text, so that exporting reproduces every
non-missing cell byte-equal, and with `text_columns` only the numerical
columns named there do. `shockstab split`, which exports, keeps all text;
the pipeline keeps only an OOT date column's (a date such as 20180322
loads as a number, and is parsed from its text), and `schema`, `ds` and
`synth` keep none. `Column.raw` gives the text back per cell, or None for
a column that keeps none.

`load_csv` reads a file in chunks of `_CSV_READ_ROWS` (8,192) rows and
classifies each chunk's cells before it reads the next, so a categorical
column's cell strings are dropped with their chunk and only its distinct
values stay. The pipeline drops the loaded frame once
`splitting.model_splits` has split it, and the splits keep no text, so the
frame is freed before any model trains. Files are read and written
comma-separated.
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

from .config import check
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


class Column:
    """One named column: typed values plus, for a loaded column, its CSV text.

    A numerical column holds float64 values, NaN marking a missing cell. A
    categorical column holds int32 `codes` into `categories`, its distinct
    values sorted by str, with -1 marking a missing cell; `values` decodes
    them into an object array with None for missing cells.

    `Column(name, kind, values, raw=None)` builds a column from an array of
    values, encoding a categorical one there, once. `raw` is the cells'
    text, None marking a missing cell. A categorical cell's text is str() of
    its category, so a `raw` given for a categorical column must equal that
    text, and only marks it as kept. Columns are not modified once built.
    """

    __slots__ = ("name", "kind", "codes", "categories", "_floats", "_raw")

    def __init__(self, name: str, kind: ColumnKind, values, raw: tuple | None = None):
        self.name = name
        self.kind = kind
        if kind is ColumnKind.NUMERICAL:
            values = np.asarray(values, dtype=np.float64)
            if not (np.isfinite(values) | np.isnan(values)).all():
                raise ValueError(f"column {name!r} contains non-finite values")
            values.setflags(write=False)
            if raw is not None and len(raw) != len(values):
                raise ValueError(f"column {name!r}: raw/value length mismatch")
            self.codes = self.categories = None
            self._floats, self._raw = values, raw
            return
        codes, self.categories = _encode(np.asarray(values, dtype=object).tolist())
        codes.setflags(write=False)
        self.codes, self._floats, self._raw = codes, None, raw is not None
        if raw is not None and tuple(raw) != self.raw:
            raise ValueError(f"column {name!r}: raw text differs from the values")

    @classmethod
    def from_codes(
        cls, name: str, codes, categories: tuple, keeps_text: bool = False
    ) -> "Column":
        """A categorical column of int32 `codes` into `categories`, which must
        be distinct and sorted by str; -1 marks a missing cell.

        With `keeps_text`, the categories are the cells' CSV text and `raw`
        gives it back.
        """
        codes = np.asarray(codes, dtype=np.int32)
        if codes.size and not (-1 <= codes.min() and codes.max() < len(categories)):
            raise ValueError(f"column {name!r}: a code lies outside its categories")
        codes.setflags(write=False)
        column = cls.__new__(cls)
        column.name, column.kind = name, ColumnKind.CATEGORICAL
        column.codes, column.categories = codes, tuple(categories)
        column._floats, column._raw = None, keeps_text
        return column

    def __len__(self):
        return len(self._floats if self.codes is None else self.codes)

    @property
    def values(self) -> np.ndarray:
        """float64 values, or for a categorical column each cell's category
        (None if missing) in a new object array."""
        if self.kind is ColumnKind.NUMERICAL:
            return self._floats
        table = np.fromiter(
            itertools.chain(self.categories, (None,)),
            dtype=object,
            count=len(self.categories) + 1,
        )
        values = table[self.codes]
        values.setflags(write=False)
        return values

    @property
    def raw(self) -> tuple | None:
        """The cells' CSV text, None marking a missing cell; None when the
        column keeps no text."""
        if self.kind is ColumnKind.NUMERICAL:
            return self._raw
        if not self._raw:
            return None
        return _gather((*map(str, self.categories), None), self.codes.tolist())

    @property
    def missing_mask(self) -> np.ndarray:
        if self.kind is ColumnKind.NUMERICAL:
            return np.isnan(self._floats)
        return self.codes < 0

    def non_missing(self) -> np.ndarray:
        """Values with missing cells dropped."""
        return self.values[~self.missing_mask]

    def counts(self) -> np.ndarray:
        """How many cells hold each category, in category order."""
        return np.bincount(self.codes + 1, minlength=len(self.categories) + 1)[1:]

    def recode(self, table, missing: int = -1) -> np.ndarray:
        """The codes mapped through `table`, one new code per category, with
        `missing` for a missing cell."""
        return np.append(np.asarray(table, dtype=np.int32), np.int32(missing))[self.codes]

    def label_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """np.unique(np.asarray(values, dtype=str), return_counts=True) over
        the cells present, with each category converted once, not each cell."""
        labels = np.array(list(map(str, self.categories)), dtype=str)
        labels, slots = np.unique(labels, return_inverse=True)
        totals = np.zeros(labels.size, dtype=np.int64)
        np.add.at(totals, slots, self.counts())
        held = totals > 0
        return labels[held], totals[held]

    def text(self) -> tuple | list:
        """Every cell as text: the retained raw string, the repr() of a
        number or the str() of a category, and "" for a missing cell, read
        from the NaN mask or code -1.

        A numerical column whose raw text has no missing cell returns that
        tuple itself.
        """
        if self.kind is ColumnKind.CATEGORICAL:
            table = (*map(str, self.categories), "")
            return _gather(table, self.codes.tolist())
        missing = np.flatnonzero(np.isnan(self._floats)).tolist()
        if self._raw is not None and not missing:
            return self._raw
        cells = list(self._raw or map(repr, self._floats.tolist()))
        for i in missing:
            cells[i] = ""
        return cells

    def take(self, indices) -> "Column":
        indices = np.asarray(indices, dtype=np.intp)
        if self.kind is ColumnKind.CATEGORICAL:
            return Column.from_codes(
                self.name, self.codes[indices], self.categories, self._raw
            )
        raw = None if self._raw is None else _gather(self._raw, indices.tolist())
        return Column(self.name, self.kind, self._floats[indices], raw)

    def without_text(self) -> "Column":
        """The same column, keeping no CSV text."""
        if self.kind is ColumnKind.CATEGORICAL:
            return Column.from_codes(self.name, self.codes, self.categories)
        return Column(self.name, self.kind, self._floats)


def _encode(cells: list) -> tuple[np.ndarray, tuple]:
    """int32 codes of `cells` into their distinct values sorted by str, and
    those values; None is a missing cell, code -1."""
    distinct = dict.fromkeys(cells)
    distinct.pop(None, None)
    categories = tuple(sorted(distinct, key=str))
    lookup = dict(zip(categories, range(len(categories))))
    lookup[None] = -1
    codes = np.fromiter(map(lookup.__getitem__, cells), dtype=np.int32, count=len(cells))
    return codes, categories


def union_codes(first: Column, second: Column) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The categories of two categorical columns merged and sorted by str,
    and each column's codes into them."""
    categories = tuple(sorted(dict.fromkeys(first.categories + second.categories), key=str))
    lookup = dict(zip(categories, range(len(categories))))
    first_codes, second_codes = (
        c.recode(list(map(lookup.__getitem__, c.categories))) for c in (first, second)
    )
    return categories, first_codes, second_codes


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

    def to_csv(self, path) -> None:
        """Write the frame as RFC-4180 CSV with a header row, a missing cell
        as an empty one.

        Quoting follows csv's QUOTE_MINIMAL and CRLF line ends. Rows go
        out in chunks of `_CSV_CHUNK_ROWS`; a chunk of two or more columns
        with no cell that csv would quote is joined and written directly,
        which gives the bytes csv.writer would write, at C speed.
        """
        texts = [c.text() for c in self.columns]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names)
            for start in range(0, self.row_count, _CSV_CHUNK_ROWS):
                chunk = [t[start : start + _CSV_CHUNK_ROWS] for t in texts]
                if _writes_verbatim(chunk):
                    fh.write("\r\n".join(map(",".join, zip(*chunk))))
                    fh.write("\r\n")
                else:
                    writer.writerows(zip(*chunk))


# Rows per write in TabularFrame.to_csv: enough that the per-chunk overhead
# vanishes, few enough that a chunk's text adds nothing to the peak memory
# (8,192 rows raised a 50k-row split's peak RSS by about 2 MB).
_CSV_CHUNK_ROWS = 1024

# Rows per read in load_csv: enough that the per-chunk overhead vanishes, few
# enough that a chunk's cells add little to the peak memory.
_CSV_READ_ROWS = 8192


def _writes_verbatim(texts) -> bool:
    """Whether csv's QUOTE_MINIMAL writer leaves every cell of the columns
    `texts` as is, so that joining the rows with commas gives its bytes.

    It quotes a cell holding a comma, the quote character or a line break,
    and the single empty cell of a one-column row.
    """
    if len(texts) < 2:
        return False
    cells = "".join(itertools.chain.from_iterable(texts))
    return not any(map(cells.__contains__, (",", '"', "\r", "\n")))


def concat_frames(first: TabularFrame, second: TabularFrame) -> TabularFrame:
    """Stack two frames with the same columns, first on top, in the first
    frame's column order."""
    first.require_same_columns(second)
    columns = []
    for a in first.columns:
        b = second.column(a.name)
        if a.kind is ColumnKind.CATEGORICAL:
            categories, a_codes, b_codes = union_codes(a, b)
            codes = np.concatenate([a_codes, b_codes])
            keeps_text = a._raw and b._raw
            columns.append(Column.from_codes(a.name, codes, categories, keeps_text))
            continue
        raw = None
        if a.raw is not None and b.raw is not None:
            raw = a.raw + b.raw
        columns.append(Column(a.name, a.kind, np.concatenate([a.values, b.values]), raw))
    return TabularFrame(columns)


# ---------------------------------------------------------------------------
# Kind inference and CSV loading
# ---------------------------------------------------------------------------

def load_csv(
    path,
    missing_tokens=DEFAULT_MISSING_TOKENS,
    categorical_override: int = 0,
    text_columns=None,
) -> TabularFrame:
    """Load a comma-separated file with a header row into a TabularFrame.

    A column is numerical when it has a non-missing cell and every
    non-missing cell is numeric (see `_parse_floats`); otherwise it is
    categorical. `categorical_override`, when positive, additionally routes
    numeric columns with at most that many distinct values to categorical;
    one that is not an integer >= 0 is a ConfigError. Missing cells are any
    cell equal to one of `missing_tokens`.

    `text_columns` names the numerical columns that keep their cell text;
    None, the default, keeps every column's, so that `to_csv` writes each
    non-missing cell back byte-equal. Any other numerical column keeps no
    text (its `raw` is None). A categorical column's categories are its
    text, so it keeps it either way.

    Rows are read in chunks of `_CSV_READ_ROWS`, and each chunk's cells are
    classified column by column before the next is read. Errors keep the
    precedence of a whole-file read: text that is not UTF-8 anywhere in the
    file wins, then the first ragged row or line that csv cannot parse (a
    field longer than csv's field limit, or a quote never closed), whichever
    comes first. csv reads in strict mode, so a quote left open is an error
    rather than a cell that swallows the rest of the file.
    """
    check(categorical_override, "an integer", ">= 0", what="categorical_override")
    missing_tokens = frozenset(missing_tokens)
    text_columns = None if text_columns is None else frozenset(text_columns)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh, strict=True)
            try:
                header = next(reader, None)
                if header is None:
                    raise EmptyHeaderError(f"{path}: file is empty")
                header = [h.strip() for h in header]
                if not header or all(h == "" for h in header):
                    raise EmptyHeaderError(f"{path}: header row is empty")
                if len(set(header)) != len(header):
                    dup = next(h for h in header if header.count(h) > 1)
                    raise CsvFormatError(f"{path}: duplicate header column {dup!r}")
                columns = [
                    _ColumnReader(
                        name, missing_tokens, text_columns is None or name in text_columns
                    )
                    for name in header
                ]
                error = _read_rows(reader, columns)
            except csv.Error as exc:
                error = CsvFormatError(f"{path}: line {reader.line_num}: {exc}")
            if error is not None:
                # the rest of the file is read only for its decoding errors
                while fh.read(1 << 20):
                    pass
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"cannot read {path}: not UTF-8 text ({exc.reason})"
        ) from None
    if error is not None:
        raise error
    return TabularFrame([c.column(categorical_override) for c in columns])


def _read_rows(reader, columns: list) -> RaggedRowError | None:
    """Read `reader` to its end in chunks, each column classifying its cells.

    Returns the first ragged row's error, or None; reading stops there. A
    line that csv cannot parse raises its csv.Error, unless a ragged row
    comes before it.
    """
    width, offset = len(columns), 0
    # csv.reader's row lists are tracked containers, so a collection would
    # walk a whole chunk of them, and the text kept so far: pause the
    # collector while the file is read
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        while True:
            chunk = []
            try:
                # extend keeps the rows read before a line csv cannot parse
                chunk.extend(itertools.islice(reader, _CSV_READ_ROWS))
            except csv.Error:
                if all(map(width.__eq__, map(len, chunk))):
                    raise
            if any(map(width.__ne__, map(len, chunk))):
                i = next(i for i, row in enumerate(chunk) if len(row) != width)
                return RaggedRowError(offset + i + 1, width, len(chunk[i]))
            if not chunk:
                return None
            for column, cells in zip(columns, zip(*chunk)):
                column.add(cells)
            offset += len(chunk)
            del chunk, cells  # before the next chunk is read
    finally:
        if gc_enabled:
            gc.enable()


class _ColumnReader:
    """One CSV column as load_csv reads it, a chunk of cells at a time.

    While every cell read is numeric or missing, the column keeps each
    chunk's floats, NaN marking a missing cell, and its cell text: with
    `keeps_text`, one string per cell, None marking a missing cell;
    without, one string per chunk, its present cells joined by NUL, which
    no numeric cell holds (float() refuses it). From the first chunk with
    another cell it keeps provisional int32 codes by first appearance
    instead, and one string per distinct cell.
    """

    __slots__ = ("name", "missing_tokens", "keeps_text", "floats", "text", "codes", "lookup")

    def __init__(self, name: str, missing_tokens: frozenset, keeps_text: bool):
        self.name, self.missing_tokens, self.keeps_text = name, missing_tokens, keeps_text
        self.floats, self.text = [], []
        self.codes = self.lookup = None

    def add(self, cells: tuple) -> None:
        """Classify one chunk of cells."""
        missing = np.fromiter(
            map(self.missing_tokens.__contains__, cells), dtype=bool, count=len(cells)
        )
        text = np.array(cells, dtype=object)
        text[missing] = None
        if self.codes is None:
            numbers = _parse_floats(text[~missing])
            if numbers is not None:
                values = np.full(len(cells), np.nan)
                values[~missing] = numbers
                self.floats.append(values)
                if self.keeps_text:
                    self.text += text.tolist()
                else:
                    self.text.append("\0".join(text[~missing].tolist()))
                return
            self._to_codes()
        self._encode(text.tolist())

    def _to_codes(self) -> None:
        """Switch to provisional codes, encoding the text kept so far."""
        floats, text = self.floats, self.text
        # column() concatenates the codes, which a file with no rows has none of
        self.codes, self.lookup = [np.empty(0, dtype=np.int32)], {None: -1}
        self.floats = self.text = None
        if self.keeps_text:
            self._encode(text)
            return
        # a chunk's NUL-joined text goes back to its present cells
        for values, joined in zip(floats, text):
            cells = np.full(values.size, None, dtype=object)
            present = ~np.isnan(values)
            if present.any():
                cells[present] = joined.split("\0")
            self._encode(cells.tolist())

    def _encode(self, cells: list) -> None:
        lookup = self.lookup
        new = [c for c in dict.fromkeys(cells) if c not in lookup]
        lookup.update(zip(new, itertools.count(len(lookup) - 1)))
        self.codes.append(
            np.fromiter(map(lookup.__getitem__, cells), dtype=np.int32, count=len(cells))
        )

    def column(self, categorical_override: int) -> Column:
        """The loaded column, its kind decided on all of its cells."""
        if self.codes is None:
            values = np.concatenate(self.floats) if self.floats else np.empty(0)
            present = values[~np.isnan(values)]
            numeric = present.size > 0
            if numeric and categorical_override > 0:
                numeric = np.unique(present).size > categorical_override
            if numeric:
                raw = tuple(self.text) if self.keeps_text else None
                return Column(self.name, ColumnKind.NUMERICAL, values, raw)
            self._to_codes()
        # the lookup lists None, then each cell by its provisional code; its
        # codes into the categories sorted by str remap every cell's code
        remap, categories = _encode(list(self.lookup))
        codes = remap[np.concatenate(self.codes) + 1]
        return Column.from_codes(self.name, codes, categories, keeps_text=True)


# ---------------------------------------------------------------------------
# Schema detection
# ---------------------------------------------------------------------------

# the statistics a ColumnSummary of each kind reports, in report order
_NUMERICAL_STATS = (
    "mean", "std", "skewness", "kurtosis", "min", "q25", "median", "q75", "max", "iqr"
)
_CATEGORICAL_STATS = ("top", "top_frequency", "percent_top")


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
        stats = _NUMERICAL_STATS if self.kind is ColumnKind.NUMERICAL else _CATEGORICAL_STATS
        return {
            "name": self.name,
            "kind": self.kind.value,
            "missing_count": self.missing_count,
            "unique_count": self.unique_count,
            **{name: getattr(self, name) for name in stats},
        }


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


def _categorical_summary(name, labels, counts, missing_count) -> ColumnSummary:
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
    check(categorical_override, "an integer", ">= 0", what="categorical_override")
    if frame.row_count == 0:
        raise EmptyInputError("cannot detect schema of an empty frame")
    report = SchemaReport(row_count=frame.row_count)
    for col in frame.columns:
        missing = int(col.missing_mask.sum())
        if missing == len(col):
            raise UndeterminableColumnError(col.name)
        if col.kind is ColumnKind.NUMERICAL:
            present = col.non_missing()
            as_categories = (
                categorical_override > 0
                and np.unique(present).size <= categorical_override
            )
            if not as_categories:
                report.columns.append(_numerical_summary(col.name, present, missing))
                continue
            # under the override, numbers are reported as categories, by repr
            col = Column(col.name, ColumnKind.CATEGORICAL, list(map(repr, present.tolist())))
        labels, counts = col.label_counts()
        report.columns.append(_categorical_summary(col.name, labels, counts, missing))
    return report
