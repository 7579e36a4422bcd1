"""Typed columnar frames, CSV ingestion and column-kind detection.

A TabularFrame holds one typed array per column. A numerical column holds
float64 values, NaN marking a missing cell. A categorical column holds
int32 codes into one tuple of its distinct values, its categories, sorted
by str, with -1 marking a missing cell; `Column.values` decodes them into
an object array with None for missing cells. Missingness is always read
from these arrays: the NaN mask or code -1.

A categorical column's categories are its cell strings. Each column's
kind comes from its cells and `categorical_override` alone: a date such as
20180322 loads as a number, and `splitting` writes its text back from the
value. A numerical column holds its floats and no text.

Whether a frame keeps CSV text is decided once, at load. By default it
keeps none: `Column.raw` is None and `lines` is None. With `lines=True`,
the export mode that only `shockstab split` asks for, the frame keeps each
row's CSV line exactly as `to_csv` writes it, and each categorical
column's `raw` gives its cells' text back. The lines are only loaded,
passed to `TabularFrame` by `load_csv` and `take`, and written back by
`to_csv`, so every non-missing input cell is exported byte-equal; nothing
reads a cell from them. Any other frame keeps none, and `to_csv` renders
its rows from its columns.

`load_csv` reads a file in chunks of `_CSV_READ_ROWS` (8,192) rows and
classifies each chunk's cells before it reads the next, so a categorical
column's cell strings are dropped with their chunk and only its distinct
values stay. It decides each column's kind once: a column found
categorical after it held a number keeps nothing, and is read again from
the file's start as text. Files are read and written comma-separated.
"""

from __future__ import annotations

import csv
import enum
import gc
import io
import itertools
import math
import operator
import shutil
import tempfile
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
    """One named column: typed values, and for a categorical column of an
    export load a mark that its categories are its cells' CSV text.

    A numerical column holds float64 values, NaN marking a missing cell,
    and no text. A categorical column holds int32 `codes` into
    `categories`, its distinct values sorted by str, with -1 marking a
    missing cell; `values` decodes them into an object array with None for
    missing cells.

    `Column(name, kind, values)` builds a column from an array of values,
    encoding a categorical one there, once. Columns are not modified once
    built.
    """

    __slots__ = ("name", "kind", "codes", "categories", "_floats", "_keeps_text")

    def __init__(self, name: str, kind: ColumnKind, values):
        self.name = name
        self.kind = kind
        self._keeps_text = False
        if kind is ColumnKind.NUMERICAL:
            values = np.asarray(values, dtype=np.float64)
            if not (np.isfinite(values) | np.isnan(values)).all():
                raise ValueError(f"column {name!r} contains non-finite values")
            values.setflags(write=False)
            self.codes = self.categories = None
            self._floats = values
            return
        codes, self.categories = _encode(np.asarray(values, dtype=object).tolist())
        codes.setflags(write=False)
        self.codes, self._floats = codes, None

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
        column._floats, column._keeps_text = None, keeps_text
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
        column keeps no text, as a numerical column never does."""
        if not self._keeps_text:
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
        """Every cell as text: the repr() of a number or the str() of a
        category, and "" for a missing cell, read from the NaN mask or
        code -1."""
        if self.kind is ColumnKind.CATEGORICAL:
            table = (*map(str, self.categories), "")
            return _gather(table, self.codes.tolist())
        cells = list(map(repr, self._floats.tolist()))
        for i in np.flatnonzero(np.isnan(self._floats)).tolist():
            cells[i] = ""
        return cells

    def take(self, indices) -> "Column":
        indices = np.asarray(indices, dtype=np.intp)
        if self.kind is ColumnKind.CATEGORICAL:
            return Column.from_codes(
                self.name, self.codes[indices], self.categories, self._keeps_text
            )
        return Column(self.name, self.kind, self._floats[indices])


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
    """Immutable ordered collection of equally long, uniquely named columns.

    `lines`, which only `load_csv` and `take` pass, are each row's CSV line
    as `to_csv` writes it, with no line end, one per row. A frame built
    without them keeps none, and `lines` is None.
    """

    def __init__(self, columns: list[Column], lines: tuple | None = None):
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
        if lines is not None and len(lines) != self.row_count:
            raise ValueError(f"{len(lines)} lines for {self.row_count} rows")
        self._lines = lines

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    @property
    def lines(self) -> tuple | None:
        """Each row's CSV line as `to_csv` writes it, or None."""
        return self._lines

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
        """Row subset in the given order; retains CSV text and lines where
        present."""
        indices = np.asarray(indices, dtype=np.intp)
        lines = None if self._lines is None else _gather(self._lines, indices.tolist())
        return TabularFrame([c.take(indices) for c in self.columns], lines)

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
        out in chunks of `_CSV_CHUNK_ROWS`. A frame with lines writes them
        as they are; any other renders each chunk's rows from its columns'
        `Column.text` with `_render_rows`.
        """
        texts = None if self._lines is not None else [c.text() for c in self.columns]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(self.column_names)
            for start in range(0, self.row_count, _CSV_CHUNK_ROWS):
                stop = start + _CSV_CHUNK_ROWS
                if texts is None:
                    lines = self._lines[start:stop]
                else:
                    lines = _render_rows([t[start:stop] for t in texts])
                fh.write("\r\n".join(lines))
                fh.write("\r\n")


# Rows per write in TabularFrame.to_csv: enough that the per-chunk overhead
# vanishes, few enough that a chunk's text adds nothing to the peak memory
# (8,192 rows raised a 50k-row split's peak RSS by about 2 MB).
_CSV_CHUNK_ROWS = 1024

# Rows per read in load_csv: enough that the per-chunk overhead vanishes, few
# enough that a chunk's cells add little to the peak memory.
_CSV_READ_ROWS = 8192


class _RowSink(list):
    """A file for csv.writer that keeps each row it writes as one string."""

    write = list.append


def _render_rows(texts) -> list:
    """Each row of the columns `texts`, sequences of cell strings, as csv's
    QUOTE_MINIMAL writer writes it, with no line end.

    The writer quotes a cell holding a comma, the quote character or a line
    break, and the single empty cell of a one-column row. When no cell of
    two or more columns needs it, joining the cells with commas gives its
    bytes at C speed; otherwise csv.writer renders the rows.
    """
    if len(texts) > 1 and not any(map(_needs_quotes, map("".join, texts))):
        return list(map(",".join, zip(*texts)))
    rows = _RowSink()
    csv.writer(rows).writerows(zip(*texts))
    return [row[:-2] for row in rows]  # each ends in csv's "\r\n"


def _needs_quotes(text: str) -> bool:
    return any(map(text.__contains__, (",", '"', "\r", "\n")))


def concat_frames(first: TabularFrame, second: TabularFrame) -> TabularFrame:
    """Stack two frames with the same columns, first on top, in the first
    frame's column order. The result keeps no CSV text and no lines."""
    first.require_same_columns(second)
    columns = []
    for a in first.columns:
        b = second.column(a.name)
        if a.kind is ColumnKind.CATEGORICAL:
            categories, *codes = union_codes(a, b)
            columns.append(Column.from_codes(a.name, np.concatenate(codes), categories))
            continue
        columns.append(Column(a.name, a.kind, np.concatenate([a.values, b.values])))
    return TabularFrame(columns)


# ---------------------------------------------------------------------------
# Kind inference and CSV loading
# ---------------------------------------------------------------------------

def load_csv(
    path,
    missing_tokens=DEFAULT_MISSING_TOKENS,
    categorical_override: int = 0,
    lines: bool = False,
) -> TabularFrame:
    """Load a comma-separated file with a header row into a TabularFrame.

    A column is numerical when it has a non-missing cell and every
    non-missing cell is numeric (see `_parse_floats`); otherwise it is
    categorical, its distinct cell strings its categories. Its cells and
    `categorical_override` alone decide its kind: when positive, the
    override routes numeric columns with at most that many distinct values
    to categorical; one that is not an integer >= 0 is a ConfigError.
    Missing cells are any cell equal to one of `missing_tokens`, a list of
    strings. The frame keeps no CSV text unless `lines` asks for it, as
    only an export does: then it keeps each row's CSV line as `to_csv`
    writes it (a missing cell empty, no line end), rendered chunk by chunk,
    and each categorical column's `raw` gives its cells' text. A UTF-8
    byte-order mark at the start of the file is skipped.

    Rows are read in chunks of `_CSV_READ_ROWS`, and each chunk's cells are
    classified column by column before the next is read. A column found
    categorical after it held a number, by a later cell or by the override,
    keeps nothing, and the file is read again with it loaded as categorical
    from its first cell; a file that cannot seek, such as a pipe, is first
    copied to an anonymous temporary file. Errors keep the precedence of a
    whole-file read: text that is not UTF-8 anywhere in the file wins, then
    the first ragged row or line that csv cannot parse (a field longer than
    csv's field limit, or a quote never closed), whichever comes first. csv
    reads in strict mode, so a quote left open is an error rather than a
    cell that swallows the rest of the file.
    """
    check(categorical_override, "an integer", ">= 0", what="categorical_override")
    missing_tokens = frozenset(check(missing_tokens, "a list of strings", what="missing_tokens"))
    categorical = set()
    try:
        raw = open(path, "rb")
        if not raw.seekable():  # a pipe: spooled, so that it can be read again
            with raw:
                spool = tempfile.TemporaryFile()
                shutil.copyfileobj(raw, spool)
            spool.seek(0)
            raw = spool
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
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
                while True:
                    rendered = [] if lines else None
                    readers = [_ColumnReader(n, missing_tokens, n in categorical) for n in header]
                    error = _read_rows(reader, readers, rendered)
                    if error is not None:
                        break
                    columns = [r.column(categorical_override, lines) for r in readers]
                    late = {r.name for r, c in zip(readers, columns) if c is None}
                    if not late:
                        break
                    categorical |= late
                    del readers, columns, rendered  # before the file is read again
                    fh.seek(0)
                    reader = csv.reader(fh, strict=True)
                    next(reader)
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
    return TabularFrame(columns, None if rendered is None else tuple(rendered))


def _read_rows(reader, columns: list, lines: list | None) -> RaggedRowError | None:
    """Read `reader` to its end in chunks, each column classifying its cells.

    With a `lines` list, each chunk's rows are rendered onto it as `to_csv`
    writes them, a missing cell empty. Returns the first ragged row's error,
    or None; reading stops there. A line that csv cannot parse raises its
    csv.Error, unless a ragged row comes before it.
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
            written = []
            for column, cells in zip(columns, zip(*chunk)):
                missing = column.add(cells)
                if lines is None:
                    continue
                if missing.any():
                    cells = np.array(cells, dtype=object)
                    cells[missing] = ""
                    cells = cells.tolist()
                written.append(cells)
            if lines is not None:
                lines += _render_rows(written)
            offset += len(chunk)
            del chunk, cells, written  # before the next chunk is read
    finally:
        if gc_enabled:
            gc.enable()


class _ColumnReader:
    """One CSV column as load_csv reads it, a chunk of cells at a time.

    While every cell read is numeric or missing, the column keeps each
    chunk's floats, NaN marking a missing cell, and no text. Built
    `categorical`, or from a cell that is not numeric after only missing
    ones, it keeps provisional int32 codes by first appearance instead, and
    one string per distinct cell. Meeting such a cell after a number, it is
    `late`: it keeps nothing more, and load_csv reads the file again with
    it built `categorical`.
    """

    __slots__ = ("name", "missing_tokens", "floats", "codes", "lookup", "late")

    def __init__(self, name: str, missing_tokens: frozenset, categorical: bool):
        self.name, self.missing_tokens = name, missing_tokens
        self.floats, self.late = [], False
        # column() concatenates the codes, which a file with no rows has none of
        self.codes, self.lookup = (
            ([np.empty(0, dtype=np.int32)], {None: -1}) if categorical else (None, None)
        )

    def add(self, cells: tuple) -> np.ndarray:
        """Classify one chunk of cells; returns which of them are missing."""
        missing = np.fromiter(
            map(self.missing_tokens.__contains__, cells), dtype=bool, count=len(cells)
        )
        if self.late:
            return missing
        text = np.array(cells, dtype=object)
        text[missing] = None
        if self.codes is None:
            numbers = _parse_floats(text[~missing])
            if numbers is not None:
                values = np.full(len(cells), np.nan)
                values[~missing] = numbers
                self.floats.append(values)
                return missing
            if not all(np.isnan(values).all() for values in self.floats):
                self.late, self.floats = True, None
                return missing
            # every cell read so far is missing: code -1
            self.codes = [np.full(sum(map(len, self.floats)), -1, dtype=np.int32)]
            self.lookup, self.floats = {None: -1}, None
        self._encode(text.tolist())
        return missing

    def _encode(self, cells: list) -> None:
        lookup = self.lookup
        new = [c for c in dict.fromkeys(cells) if c not in lookup]
        lookup.update(zip(new, itertools.count(len(lookup) - 1)))
        self.codes.append(
            np.fromiter(map(lookup.__getitem__, cells), dtype=np.int32, count=len(cells))
        )

    def column(self, categorical_override: int, keeps_text: bool) -> Column | None:
        """The loaded column, its kind decided on all of its cells; None for
        a late one, as `categorical_override` can also make it. A categorical
        one is marked as keeping its cells' text when `keeps_text`."""
        if self.late:
            return None
        if self.codes is None:
            values = np.concatenate(self.floats) if self.floats else np.empty(0)
            present = values[~np.isnan(values)]
            if present.size:
                if categorical_override and np.unique(present).size <= categorical_override:
                    return None
                return Column(self.name, ColumnKind.NUMERICAL, values)
            # no cell is present
            return Column.from_codes(self.name, np.full(values.size, -1), (), keeps_text)
        # the lookup lists None, then each cell by its provisional code; its
        # codes into the categories sorted by str remap every cell's code
        remap, categories = _encode(list(self.lookup))
        codes = remap[np.concatenate(self.codes) + 1]
        return Column.from_codes(self.name, codes, categories, keeps_text)


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
    """x as a float, or None where x is None or not finite."""
    return None if x is None or not math.isfinite(x) else float(x)


def _shape_moments(values, mean) -> tuple:
    """Bias-corrected skewness and excess kurtosis of sorted `values`, None
    below 3 and 4 values and where the spread is within the rounding of the
    mean. The arithmetic is scipy.stats' skew and kurtosis, step for step."""
    n = values.size
    d = values - mean
    m2 = np.mean(d * d)
    if n < 3 or not m2 > (np.finfo(float).eps * mean) ** 2:
        return None, None
    skew = ((n - 1.0) * n) ** 0.5 / (n - 2.0) * np.mean(d * d * d) / m2**1.5
    if n < 4:
        return skew, None
    m4 = np.mean((d * d) ** 2)
    excess = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0)
    return skew, excess + 3.0 - 3  # scipy adds 3, then takes it off


def _numerical_summary(name, values, missing_count) -> ColumnSummary:
    values = np.sort(values)  # moments become exactly row-order invariant
    n = values.size
    # finite values can have moments beyond float's range: those are None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
        mean = np.mean(values)
        std = np.std(values, ddof=1) if n > 1 else 0.0
        moments = (
            mean, std, *_shape_moments(values, mean),
            np.min(values), q25, med, q75, np.max(values), q75 - q25,
        )
    return ColumnSummary(
        name=name,
        kind=ColumnKind.NUMERICAL,
        missing_count=missing_count,
        unique_count=int(np.unique(values).size),
        **dict(zip(_NUMERICAL_STATS, map(_finite_or_none, moments))),
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


def detect_schema(frame: TabularFrame) -> SchemaReport:
    """Summarise every column: kind, missingness and distribution statistics.

    Numerical moments use the adjusted Fisher-Pearson estimators (excess
    kurtosis) and ignore missing cells; undefined moments (constant or
    too-short samples) and moments beyond float's range are None. Each
    column keeps the kind `load_csv` gave it, under its override.
    """
    if frame.row_count == 0:
        raise EmptyInputError("cannot detect schema of an empty frame")
    report = SchemaReport(row_count=frame.row_count)
    for col in frame.columns:
        missing = int(col.missing_mask.sum())
        if missing == len(col):
            raise UndeterminableColumnError(col.name)
        if col.kind is ColumnKind.NUMERICAL:
            report.columns.append(_numerical_summary(col.name, col.non_missing(), missing))
        else:
            report.columns.append(_categorical_summary(col.name, *col.label_counts(), missing))
    return report
