"""load_csv's kind inference, to_csv's writer and `shockstab split`'s
export against per-cell references."""

import contextlib
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab import frame as frame_module
from shockstab.cli import main
from shockstab.frame import Column, ColumnKind, TabularFrame, load_csv
from shockstab.splitting import SplitSpec, split_once


# The per-cell kind inference that load_csv replaced with whole-column
# array operations; load_csv must give the same kinds, values and text.

def _reference_parse_numeric(cell: str):
    """Return the finite float value of `cell`, or None if it is not numeric."""
    if "_" in cell:  # float() accepts "1_000"; CSV cells should not
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _reference_infer_kind(cells, missing_tokens):
    parsed = []
    numeric_ok = True
    saw_value = False
    for cell in cells:
        if cell in missing_tokens:
            parsed.append(None)
            continue
        saw_value = True
        if numeric_ok:
            value = _reference_parse_numeric(cell)
            if value is None:
                numeric_ok = False
        parsed.append(cell)
    if not saw_value:
        return ColumnKind.CATEGORICAL, parsed
    if numeric_ok:
        return (
            ColumnKind.NUMERICAL,
            [None if c is None else float(c) for c in parsed],
        )
    return ColumnKind.CATEGORICAL, parsed


def _reference_column(cells, missing_tokens, categorical_override):
    """(kind, values, raw) of one column as the per-cell loader built it."""
    kind, parsed = _reference_infer_kind(cells, missing_tokens)
    if (
        kind is ColumnKind.NUMERICAL
        and categorical_override > 0
        and len({v for v in parsed if v is not None}) <= categorical_override
    ):
        kind = ColumnKind.CATEGORICAL
        parsed = [None if c in missing_tokens else c for c in cells]
    raw = tuple(None if c in missing_tokens else c for c in cells)
    if kind is ColumnKind.NUMERICAL:
        values = np.array([np.nan if v is None else v for v in parsed], dtype=np.float64)
    else:
        values = np.array(parsed, dtype=object)
    return kind, values, raw


_EDGE_CELLS = ["1_000", "inf", "nan", " 1.5 ", "1e3", "", "NA", "null", "x", "-0.0"]
_numeric_cells = st.one_of(
    st.sampled_from(["", "NA", " 1.5 ", "1e3", "-0.0", "0", "1", "2"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_any_cells = st.one_of(
    st.sampled_from(_EDGE_CELLS),
    st.floats().map(repr),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.one_of(st.lists(_numeric_cells, max_size=12), st.lists(_any_cells, max_size=12)),
    categorical_override=st.integers(0, 3),
)
def test_load_csv_matches_per_cell_reference(tmp_path_factory, cells, categorical_override):
    path = tmp_path_factory.getbasetemp() / "reference_kinds.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "cell"])
        writer.writerows(enumerate(cells))
    kind, values, raw = _reference_column(cells, ("", "NA", "null"), categorical_override)
    col = load_csv(path, categorical_override=categorical_override).column("cell")
    assert col.kind is kind
    # a default load keeps no text
    assert col.raw is None
    # the export load keeps each cell's text in its lines, a missing one
    # empty; a categorical column's categories are its text, and a
    # numerical one keeps none
    exported = load_csv(path, categorical_override=categorical_override, lines=True)
    assert exported.kind_of("cell") is kind
    assert exported.column("cell").raw == (raw if kind is ColumnKind.CATEGORICAL else None)
    assert [row[1] for row in csv.reader(exported.lines)] == ["" if r is None else r for r in raw]
    # an override above the column's distinct count loads it as categorical,
    # its cells' text its categories, whatever they hold
    every = load_csv(path, categorical_override=len(cells) + 1, lines=True).column("cell")
    assert every.kind is ColumnKind.CATEGORICAL
    assert every.raw == raw
    assert every.categories == tuple(sorted({r for r in raw if r is not None}))
    assert col.values.dtype == values.dtype
    if kind is ColumnKind.NUMERICAL:
        assert col.values.tobytes() == values.tobytes()
    else:
        assert col.values.tolist() == values.tolist()
        assert all(type(a) is type(b) for a, b in zip(col.values, values))


# to_csv's body when every row went through csv.writer; to_csv must write
# the same bytes, whichever of its paths a chunk of rows takes.

def _reference_text(column):
    if column.raw is not None:
        return ["" if r is None else r for r in column.raw]
    if column.kind is ColumnKind.NUMERICAL:
        return ["" if math.isnan(v) else repr(v) for v in column.values.tolist()]
    return ["" if v is None else str(v) for v in column.values]


def _reference_to_csv(frame, path):
    texts = [_reference_text(c) for c in frame.columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(frame.column_names)
        writer.writerows(zip(*texts))


# half the cells hold only characters csv never quotes, so that whole
# chunks of rows take the joined path
_csv_text = st.one_of(
    st.text(st.sampled_from([" ", "a", "é", "1"]), max_size=4),
    st.text(st.sampled_from([",", ";", "\t", '"', "\r", "\n", " ", "a"]), max_size=4),
)


@st.composite
def _frames(draw):
    rows = draw(st.integers(0, 9))
    names = draw(st.lists(_csv_text, min_size=1, max_size=4, unique=True))
    columns = []
    for name in names:
        missing = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        if draw(st.booleans()):
            cells = [None if gone else draw(_csv_text) for gone in missing]
            # a loaded column's categories are its cells' text
            columns.append(_text_column(name, cells, keeps_text=draw(st.booleans())))
        else:
            floats = st.floats(allow_nan=False, allow_infinity=False)
            values = np.array([np.nan if gone else draw(floats) for gone in missing])
            columns.append(Column(name, ColumnKind.NUMERICAL, values))
    return TabularFrame(columns)


@settings(max_examples=300, deadline=None)
@given(
    frame=_frames(),
    chunk_rows=st.sampled_from([1, 2, 3, 8192]),
)
def test_to_csv_matches_csv_writer_reference(tmp_path_factory, frame, chunk_rows):
    base = tmp_path_factory.getbasetemp()
    _reference_to_csv(frame, base / "expected.csv")
    with mock.patch.object(frame_module, "_CSV_CHUNK_ROWS", chunk_rows):
        frame.to_csv(base / "got.csv")
    assert (base / "got.csv").read_bytes() == (base / "expected.csv").read_bytes()


def _text_column(name, cells, keeps_text=False):
    column = Column(name, ColumnKind.CATEGORICAL, np.array(cells, dtype=object))
    return Column.from_codes(name, column.codes, column.categories, keeps_text)


@pytest.mark.parametrize("keeps_text", [True, False], ids=["raw", "no-raw"])
def test_to_csv_quotes_a_lone_empty_cell(tmp_path, keeps_text):
    frame = TabularFrame([_text_column("a", ["", "x"], keeps_text)])
    frame.to_csv(tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_bytes() == b'a\r\n""\r\nx\r\n'
    two = TabularFrame([*frame.columns, _text_column("b", ["", "y"])])
    two.to_csv(tmp_path / "two.csv")
    assert (tmp_path / "two.csv").read_bytes() == b"a,b\r\n,\r\nx,y\r\n"


# `shockstab split` against a per-cell reference: each column of csv.reader's
# cells held as text, split by split_once, and each part's rows rendered
# from its columns by to_csv.

_export_cells = st.one_of(
    st.sampled_from(["", "NA", "null", "0", "-0.0", "1e3", " 2.5 ", "x", "a,b", 'say "hi"',
                     "two\nlines", "cr\r", "crlf\r\n"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "1", "."]), max_size=4),
)


@st.composite
def _export_files(draw):
    """(file text, split arguments): a CSV file of 3 to 7 rows, in OOT mode
    with an ISO or a numerical date column, or in OOS mode, possibly with
    one column only. Each run's train part holds a row: `split` refuses a
    cut that leaves it none."""
    rows = draw(st.integers(3, 7))
    mode = draw(st.sampled_from(["oot", "oos"]))
    width = draw(st.integers(0 if mode == "oot" else 1, 3))
    names = [f"c{i}" for i in range(width)]
    columns = [draw(st.lists(_export_cells, min_size=rows, max_size=rows)) for _ in names]
    args = ["--mode", mode]
    if mode == "oot":
        # at least two rows before the shock date and one at or after it
        days = draw(st.lists(st.integers(20, 24), min_size=rows, max_size=rows))
        days[0], days[1], days[-1] = 20, 21, 22
        pre = sum(d < 22 for d in days)
        iso = draw(st.booleans())
        dates = [f"2018-03-{d}" if iso else f"201803{d}" for d in days]
        names, columns = ["date", *names], [dates, *columns]
        args += ["--date-col", "date", "--shock-date", "2018-03-22"]
    else:
        pre = rows - math.ceil(0.3 * rows)
        args += ["--shock-fraction", "0.3"]
    fractions = [f for f in (0.2, 0.5, 0.8) if math.floor(f * pre)]
    args += ["--train-fraction", str(draw(st.sampled_from(fractions)))]
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    # before Python 3.13, csv.writer quotes a cell holding "\r" or "\n" only
    # when its line terminator holds that character: each row is written
    # ended by "\r\n", which quotes both, and then given the drawn end
    rows = _Rows()
    writer = csv.writer(rows, quoting=quoting)
    writer.writerow(names)
    writer.writerows(zip(*columns))
    return "".join(row[:-2] + end for row in rows), args


class _Rows(list):
    """A file for csv.writer that keeps each row it writes as one string."""

    write = list.append


@settings(max_examples=60, deadline=None)
@given(
    drawn=_export_files(),
    read_rows=st.sampled_from([1, 2, 3, 8192]),
    write_rows=st.sampled_from([1, 2, 8192]),
)
def test_split_export_equals_the_per_cell_reference(tmp_path_factory, drawn, read_rows, write_rows):
    text, args = drawn
    base = tmp_path_factory.mktemp("export")
    path = base / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    runs = 2
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", read_rows), \
            mock.patch.object(frame_module, "_CSV_CHUNK_ROWS", write_rows), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["split", str(path), *args, "--runs", str(runs), "--seed", "5",
                     "--out", str(base / "split")])
    assert code == 0
    parsed = dict(zip(args[::2], args[1::2]))
    spec = SplitSpec(
        mode=parsed["--mode"], date_column=parsed.get("--date-col"),
        shock_date=parsed.get("--shock-date"),
        shock_fraction=float(parsed["--shock-fraction"]) if "--shock-fraction" in parsed else None,
        train_fraction=float(parsed["--train-fraction"]), mc_runs=runs, seed=5,
    )
    with open(path, encoding="utf-8", newline="") as fh:
        header, *cells = csv.reader(fh)
    frame = TabularFrame([
        _text_column(name.strip(), [None if row[i] in ("", "NA", "null") else row[i]
                                    for row in cells], keeps_text=True)
        for i, name in enumerate(header)
    ])
    for run in range(runs):
        split = split_once(frame, spec, run)
        for name, part in (("train", frame.take(split.train)), ("test", frame.take(split.test)),
                           ("shock", frame.take(split.shocked_test))):
            part.to_csv(base / "expected.csv")
            got = (base / "split" / f"{name}_{run:03d}.csv").read_bytes()
            assert got == (base / "expected.csv").read_bytes()
