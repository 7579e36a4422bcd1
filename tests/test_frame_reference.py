"""load_csv's kind inference and to_csv's writer against per-cell references."""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab import frame as frame_module
from shockstab.frame import Column, ColumnKind, TabularFrame, load_csv


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
    assert col.raw == raw
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
        raw = tuple(None if gone else draw(_csv_text) for gone in missing)
        if draw(st.booleans()):
            values = np.array(raw, dtype=object)
            kind = ColumnKind.CATEGORICAL
        else:
            floats = st.floats(allow_nan=False, allow_infinity=False)
            values = np.array([np.nan if gone else draw(floats) for gone in missing])
            kind = ColumnKind.NUMERICAL
        columns.append(Column(name, kind, values, raw if draw(st.booleans()) else None))
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


def _text_column(name, cells, raw=None):
    return Column(name, ColumnKind.CATEGORICAL, np.array(cells, dtype=object), raw)


@pytest.mark.parametrize("raw", [("", "x"), None], ids=["raw", "no-raw"])
def test_to_csv_quotes_a_lone_empty_cell(tmp_path, raw):
    frame = TabularFrame([_text_column("a", ["", "x"], raw)])
    frame.to_csv(tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_bytes() == b'a\r\n""\r\nx\r\n'
    two = TabularFrame([*frame.columns, _text_column("b", ["", "y"])])
    two.to_csv(tmp_path / "two.csv")
    assert (tmp_path / "two.csv").read_bytes() == b"a,b\r\n,\r\nx,y\r\n"
