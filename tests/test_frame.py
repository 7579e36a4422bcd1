import csv
import gc
import io
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockstab.errors import (
    ConfigError,
    CsvFormatError,
    EmptyHeaderError,
    EmptyInputError,
    RaggedRowError,
    SchemaMismatchError,
    UndeterminableColumnError,
)
from shockstab import frame as frame_module
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import ColumnKind, TabularFrame, concat_frames, detect_schema, load_csv

from conftest import make_frame, num_col


def test_load_csv_infers_kinds(write_csv):
    path = write_csv("basic.csv", "age,sector\n31,finance\n45,trade\n52,agro\n")
    frame = load_csv(path)
    assert frame.row_count == 3
    assert frame.kind_of("age") is ColumnKind.NUMERICAL
    assert frame.kind_of("sector") is ColumnKind.CATEGORICAL
    assert frame.column("age").values.tolist() == [31.0, 45.0, 52.0]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_csv_restores_gc_state(write_csv, enabled):
    good = write_csv("good.csv", "a,b\n1,x\n2,y\n")
    ragged = write_csv("ragged_gc.csv", "a,b\n1,x\n2\n")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_csv(good).row_count == 2
        assert gc.isenabled() is enabled
        with pytest.raises(RaggedRowError):
            load_csv(ragged)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_load_csv_ragged_row_names_index(write_csv):
    path = write_csv("ragged.csv", "a,b,c,d\n1,2,3,4\n1,2,3,4,5\n")
    with pytest.raises(RaggedRowError) as err:
        load_csv(path)
    assert err.value.row_index == 2
    assert "5 cells" in str(err.value)


def test_load_csv_empty_header(write_csv):
    with pytest.raises(EmptyHeaderError):
        load_csv(write_csv("empty.csv", ""))
    with pytest.raises(EmptyHeaderError):
        load_csv(write_csv("blank.csv", ",,\n1,2,3\n"))


def test_load_csv_unreadable(tmp_path):
    with pytest.raises(CsvFormatError):
        load_csv(tmp_path / "missing.csv")


def test_binary_integer_column_defaults_numerical(write_csv):
    path = write_csv("gender.csv", "gender,x\n0,a\n1,b\n0,c\n1,d\n")
    frame = load_csv(path)
    assert frame.kind_of("gender") is ColumnKind.NUMERICAL

    # cardinality override reroutes the two-value column to categorical
    overridden = load_csv(path, categorical_override=2)
    assert overridden.kind_of("gender") is ColumnKind.CATEGORICAL


def test_missing_tokens(write_csv):
    path = write_csv("missing.csv", "x,y\n1,NA\nnull,b\n3,\n")
    frame = load_csv(path)
    assert frame.kind_of("x") is ColumnKind.NUMERICAL
    assert frame.column("x").missing_mask.tolist() == [False, True, False]
    assert frame.column("y").missing_mask.tolist() == [True, False, True]

    custom = load_csv(path, missing_tokens=("",))
    # "NA"/"null" are ordinary strings now, so both columns go categorical
    assert custom.kind_of("x") is ColumnKind.CATEGORICAL
    assert custom.column("y").missing_mask.tolist() == [False, False, True]


def test_round_trip_non_missing_cells_byte_equal(write_csv, tmp_path):
    text = "amt,label,when\n01.50,aa,2018-01-02\n2e3,b b,2018-01-03\n,c,2018-01-04\n"
    src = write_csv("rt.csv", text)
    frame = load_csv(src, lines=True)
    out = tmp_path / "out.csv"
    frame.to_csv(out)
    with open(src, newline="") as fh:
        original = list(csv.reader(fh))
    with open(out, newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == original[0]
    for row_src, row_out in zip(original[1:], written[1:]):
        for cell_src, cell_out in zip(row_src, row_out):
            if cell_src != "":  # only non-missing cells are pledged byte-equal
                assert cell_out == cell_src


def test_duplicate_column_names_rejected(write_csv):
    with pytest.raises(CsvFormatError):
        load_csv(write_csv("dup.csv", "a,a\n1,2\n"))


def test_detect_schema_kinds_and_counts():
    frame = make_frame(x=[1.0, 2.5, 3.5, 9.0], s=["A", "B", "A"] + ["B"])
    report = detect_schema(frame)
    x = report.column("x")
    assert x.kind is ColumnKind.NUMERICAL
    assert x.unique_count == 4
    s = report.column("s")
    assert s.kind is ColumnKind.CATEGORICAL
    assert s.unique_count == 2
    assert s.top_frequency == 2


def test_detect_schema_categorical_top_share():
    frame = make_frame(s=["A", "B", "A"])
    s = detect_schema(frame).column("s")
    assert s.top == "A"
    assert s.top_frequency == 2
    assert abs(s.percent_top - 200.0 / 3.0) < 1e-9


def test_detect_schema_constant_column():
    frame = make_frame(c=[7.0, 7.0, 7.0, 7.0])
    c = detect_schema(frame).column("c")
    assert c.std == 0.0
    assert c.skewness is None
    assert c.kurtosis is None


def test_detect_schema_all_missing_column():
    frame = make_frame(x=[1.0, 2.0], gone=[None, None])
    with pytest.raises(UndeterminableColumnError) as err:
        detect_schema(frame)
    assert err.value.column == "gone"


def test_detect_schema_empty_frame():
    with pytest.raises(EmptyInputError):
        detect_schema(TabularFrame([num_col("x", [])]))


def _two_pass_moments(x):
    """Brute-force adjusted Fisher-Pearson moments from their definitions."""
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in x) / (n - 1))
    g1 = m3 / m2 ** 1.5
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    g2 = m4 / m2 ** 2 - 3.0
    kurt = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    return mean, std, skew, kurt


def test_moments_match_two_pass_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(5, 200))
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4.0), n)
        report = detect_schema(make_frame(x=list(x)))
        col = report.column("x")
        mean, std, skew, kurt = _two_pass_moments(list(x))
        assert abs(col.mean - mean) <= 1e-9 * max(1.0, abs(mean))
        assert abs(col.std - std) <= 1e-9 * max(1.0, abs(std))
        assert abs(col.skewness - skew) <= 1e-9 * max(1.0, abs(skew))
        assert abs(col.kurtosis - kurt) <= 1e-9 * max(1.0, abs(kurt))


def test_quartiles_nondecreasing_and_missing_ignored():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = list(rng.normal(0, 3, int(rng.integers(4, 60))))
        values += [None] * int(rng.integers(0, 5))
        rng.shuffle(values)
        report = detect_schema(make_frame(x=values))
        c = report.column("x")
        assert c.missing_count == sum(v is None for v in values)
        assert c.min <= c.q25 <= c.median <= c.q75 <= c.max
        assert abs(c.iqr - (c.q75 - c.q25)) < 1e-12


def test_schema_is_row_order_invariant():
    rng = np.random.default_rng(3)
    x = list(rng.normal(0, 1, 40))
    s = [rng.choice(["u", "v", "w"]) for _ in range(40)]
    base = detect_schema(make_frame(x=x, s=s)).to_dict()
    for _ in range(5):
        perm = rng.permutation(40)
        shuffled = detect_schema(
            make_frame(x=[x[i] for i in perm], s=[s[i] for i in perm])
        ).to_dict()
        assert shuffled == base


def test_schema_report_json_layout():
    report = detect_schema(make_frame(x=[1.0, 2.0], s=["a", "b"]))
    d = report.to_dict()
    assert d["row_count"] == 2
    assert [c["name"] for c in d["columns"]] == ["x", "s"]
    assert list(d["columns"][0])[:4] == ["name", "kind", "missing_count", "unique_count"]


def test_quoted_cells_round_trip(write_csv, tmp_path):
    text = 'id,note\n1,"hello, world"\n2,"line\nbreak"\n3,plain\n'
    src = write_csv("quoted.csv", text)
    frame = load_csv(src)
    assert frame.row_count == 3
    assert frame.column("note").values[0] == "hello, world"
    assert frame.column("note").values[1] == "line\nbreak"
    out = tmp_path / "quoted_out.csv"
    frame.to_csv(out)
    again = load_csv(out)
    assert list(again.column("note").values) == list(frame.column("note").values)


def test_moments_match_pandas_conventions():
    pd = pytest.importorskip("pandas")
    rng = np.random.default_rng(23)
    x = rng.lognormal(1.0, 0.7, 150)
    col = detect_schema(make_frame(x=list(x))).column("x")
    s = pd.Series(x)
    assert col.mean == pytest.approx(s.mean(), rel=1e-12)
    assert col.std == pytest.approx(s.std(), rel=1e-12)  # ddof=1
    assert col.skewness == pytest.approx(s.skew(), rel=1e-9)
    assert col.kurtosis == pytest.approx(s.kurt(), rel=1e-9)  # adjusted excess
    q = s.quantile([0.25, 0.5, 0.75])  # linear interpolation
    assert col.q25 == pytest.approx(q[0.25], rel=1e-12)
    assert col.median == pytest.approx(q[0.5], rel=1e-12)
    assert col.q75 == pytest.approx(q[0.75], rel=1e-12)


def test_take_and_concat_preserve_raw(write_csv, tmp_path):
    path = write_csv("raw.csv", "a,b\n1.50,x\n2.25,y\n3.00,z\n")
    # a numerical column under the override loads as categorical, its
    # cells' text its categories; only the export load marks them as text
    kept = load_csv(path, categorical_override=3, lines=True)
    assert kept.column("a").categories == ("1.50", "2.25", "3.00")
    assert kept.take([2, 0]).column("a").raw == ("3.00", "1.50")
    assert load_csv(path, categorical_override=3).column("a").raw is None
    # a stacked frame keeps no text, as it keeps no lines
    assert concat_frames(kept.take([2]), kept.take([0])).column("a").raw is None
    # the export load keeps each row's line in its place; a stacked frame
    # keeps none, and renders its rows from its columns
    frame = load_csv(path, lines=True)
    sub = frame.take([2, 0])
    assert sub.column("a").raw is None
    assert sub.lines == ("3.00,z", "1.50,x")
    assert concat_frames(sub, frame.take([1])).lines is None
    out = tmp_path / "sub.csv"
    sub.to_csv(out)
    assert out.read_bytes() == b"a,b\r\n3.00,z\r\n1.50,x\r\n"


def test_frames_built_from_columns_keep_no_lines(write_csv, tmp_path):
    # only a load and its takes keep lines: a frame of some or all of a
    # loaded frame's columns renders its rows from them, a number as its repr
    path = write_csv("q.csv", 'a,b,c\n1.50,"x,y",NA\n2.0e1,z,7\n')
    frame = load_csv(path, lines=True)
    dropped = TabularFrame([frame.column(n) for n in ("a", "b")])
    reordered = TabularFrame([frame.column(n) for n in ("c", "a", "b")])
    assert dropped.lines is None and reordered.lines is None
    swapped = load_csv(write_csv("swapped.csv", "b,c,a\nw,8,3.25\n"), lines=True)
    assert concat_frames(frame, swapped).lines is None
    dropped.to_csv(tmp_path / "dropped.csv")
    assert (tmp_path / "dropped.csv").read_bytes() == b'a,b\r\n1.5,"x,y"\r\n20.0,z\r\n'


def test_take_accepts_list_range_and_array(write_csv):
    path = write_csv("t.csv", "a,b,c\n1.50,x,7\nNA,,8\n3.00,z,9\n4.5,w,\n")
    loaded = load_csv(path, lines=True)
    plain = make_frame(a=[1.5, None, 3.0, 4.5], b=["x", None, "z", "w"])
    for frame in (loaded, plain):
        takes = [
            frame.take([1, 2, 3]),
            frame.take(range(1, 4)),
            frame.take(np.array([1, 2, 3])),
        ]
        for other in takes[1:]:
            assert other.column_names == takes[0].column_names
            for x, y in zip(takes[0].columns, other.columns):
                assert x.kind is y.kind
                assert x.values.dtype == y.values.dtype
                assert repr(x.values.tolist()) == repr(y.values.tolist())
                assert x.raw == y.raw
            assert other.lines == takes[0].lines
    assert loaded.take(range(1, 4)).lines == (",,8", "3.00,z,9", "4.5,w,")
    assert loaded.take(range(1, 4)).column("a").raw is None
    assert loaded.take(np.array([], dtype=int)).row_count == 0
    assert all(c.raw is None for c in plain.take(range(2)).columns)
    assert plain.take(range(2)).lines is None
    # zero, one and repeated indices all gather the lines as a tuple
    assert loaded.take([]).lines == ()
    assert loaded.take([2]).lines == ("3.00,z,9",)
    assert loaded.take(np.array([3, 1, 3])).lines == ("4.5,w,", ",,8", "4.5,w,")
    # and so the text of the columns the override loads as categorical
    kept = load_csv(path, categorical_override=3, lines=True)
    assert kept.take(range(1, 4)).column("a").raw == (None, "3.00", "4.5")
    assert [c.raw for c in kept.take([]).columns] == [(), (), ()]
    assert [c.raw for c in kept.take([2]).columns] == [("3.00",), ("z",), ("9",)]
    assert [c.raw for c in kept.take(np.array([3, 1, 3])).columns] == [
        ("4.5", None, "4.5"),
        ("w", None, "w"),
        (None, "8", None),
    ]


def test_concat_frames_keeps_the_first_frames_column_order():
    first = make_frame(x=[1.0, 2.0], s=["a", "b"])
    out = concat_frames(first, make_frame(s=["c"], x=[3.0]))
    assert out.column_names == ["x", "s"]
    assert out.column("x").values.tolist() == [1.0, 2.0, 3.0]
    assert out.column("s").values.tolist() == ["a", "b", "c"]


@pytest.mark.parametrize(
    "first, second, column",
    [
        (make_frame(x=[1.0], s=["a"]), make_frame(x=[3.0]), "s"),
        (make_frame(x=[1.0]), make_frame(x=[3.0], s=["c"]), "s"),
        (make_frame(x=[1.0], s=["a"]), make_frame(s=["c"], x=["3"]), "x"),
    ],
    ids=["missing-from-second", "missing-from-first", "kind-conflict"],
)
def test_concat_frames_schema_mismatch(first, second, column):
    with pytest.raises(SchemaMismatchError) as err:
        concat_frames(first, second)
    assert err.value.column == column


def test_negative_categorical_override_is_config_error(write_csv):
    # as for PipelineConfig.categorical_override, -1 is not read as "off"
    path = write_csv("g.csv", "gender\n0\n1\n0\n")
    with pytest.raises(ConfigError, match="categorical_override must be an integer >= 0"):
        load_csv(path, categorical_override=-1)


@pytest.mark.parametrize("argument", ["missing_tokens"])
def test_load_csv_refuses_a_bare_string_for_a_list_of_strings(write_csv, argument):
    # a string would name each of its characters: "NA" the tokens N and A
    path = write_csv("s.csv", "date,x\n20180322,NA\n")
    with pytest.raises(ConfigError, match=f"^{argument} must be a list of strings"):
        load_csv(path, **{argument: "NA"})


def test_path_with_a_nul_byte_is_a_csv_error():
    with pytest.raises(CsvFormatError, match="embedded null byte"):
        load_csv("data\x00.csv")


# load_csv reads its rows in chunks of frame._CSV_READ_ROWS; every chunk size
# must give the same frame, or the same error, as one chunk holding them all.

def _loaded(path, chunk_rows, **kwargs):
    """load_csv's frame at `chunk_rows` rows per chunk, as comparable data,
    or its error's type, message and row index."""
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", chunk_rows):
        try:
            frame = load_csv(path, **kwargs)
        except CsvFormatError as exc:
            return type(exc), str(exc), getattr(exc, "row_index", None)
    return [
        (c.name, c.kind, c.raw, c.values.tobytes())
        if c.kind is ColumnKind.NUMERICAL
        else (c.name, c.kind, c.raw, c.codes.tobytes(), c.categories)
        for c in frame.columns
    ]


_number_cells = st.one_of(
    st.sampled_from(["0", "1", "-0.0", "1e3", " 2.5 ", "", "NA", "null"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_other_cells = st.one_of(
    st.sampled_from(["x", "b b", "1_000", "inf", "nan", "a,b", 'say "hi"', "two\nlines", "r\r\n"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=5),
)


@st.composite
def _csv_files(draw):
    """(file bytes, column names): columns of numbers that may turn to other
    text at a drawn row, the odd ragged row and the odd byte that is not
    UTF-8."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 10))
    columns = []
    for _ in names:
        turn = draw(st.integers(0, rows + 1))  # the row from which any text is drawn
        columns.append([draw(_number_cells if i < turn else _other_cells) for i in range(rows)])
    table = [list(row) for row in zip(*columns)] if rows else []
    for row in table:
        if draw(st.integers(0, 19)) == 0:
            del row[draw(st.integers(0, len(row) - 1)) :]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(names)
    writer.writerows(table)
    data = buffer.getvalue().encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, names


@settings(max_examples=300, deadline=None)
@given(
    drawn=_csv_files(),
    categorical_override=st.integers(0, 2),
)
def test_load_csv_gives_the_same_result_for_every_chunk_size(
    tmp_path_factory, drawn, categorical_override
):
    data, names = drawn
    path = tmp_path_factory.getbasetemp() / "chunks.csv"
    path.write_bytes(data)
    whole = _loaded(path, data.count(b"\n") + 1, categorical_override=categorical_override)
    for chunk_rows in (1, 2, 3):
        assert _loaded(path, chunk_rows, categorical_override=categorical_override) == whole


# a cell one character longer than csv reads
_LONG = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
@pytest.mark.parametrize(
    "text, error, message",
    [
        (f"a,b\n1,2\n3,y\nx,4\n5\n{_LONG},1\n\xff,6\n", CsvFormatError, "not UTF-8 text"),
        (f"a,b\n1,y\n3,4\nx,4\n5\n{_LONG},1\n", RaggedRowError,
         "row 4 has 1 cells, header has 2"),
        ("a,b\n1,2\n3\n4,5,6\n", RaggedRowError, "row 2 has 1 cells, header has 2"),
        (f"a,b\n1,2\n{_LONG},3\n4\n", CsvFormatError,
         "errors.csv: line 3: field larger than field limit"),
        # read leniently, the open cell would take the row 3,4 with no error
        ('a,b\n0,1\n1,"2\n3,4\n', CsvFormatError, "errors.csv: line 4: unexpected end of data"),
    ],
    ids=["undecodable-wins", "then-ragged", "first-bad-row", "then-unparsable-line",
         "quote-never-closed"],
)
def test_load_csv_error_precedence_holds_for_every_chunk_size(
    tmp_path, chunk_rows, text, error, message
):
    path = tmp_path / "errors.csv"
    path.write_bytes(text.encode("utf-8").replace(b"\xc3\xbf", b"\xff"))
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", chunk_rows):
        with pytest.raises(error) as err:
            load_csv(path)
    assert type(err.value) is error
    assert message in str(err.value)


def _traced_load(path, **kwargs) -> tuple[int, int]:
    """(bytes kept, peak bytes) of load_csv(path, **kwargs), by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        frame = load_csv(path, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.row_count == 20_000
    return kept - before, peak - before


@pytest.fixture(scope="module")
def fixture_20k(tmp_path_factory):
    """A 20k-row fixture CSV and its header names."""
    path = tmp_path_factory.mktemp("memory") / "fixture.csv"
    frame = make_shocked_fixture(rows=20_000)
    frame.to_csv(path)
    return path, frame.column_names


# an override above each column's distinct count loads every column as
# categorical, each keeping its cell text as its categories
_EVERY_COLUMN_TEXT = {"categorical_override": 20_000}


def test_load_csv_without_text_keeps_and_peaks_less(fixture_20k):
    path, _ = fixture_20k
    text_kept, text_peak = _traced_load(path, **_EVERY_COLUMN_TEXT)
    lines_kept, _ = _traced_load(path, lines=True)
    lean_kept, lean_peak = _traced_load(path)
    # measured: 0.96 MiB kept against 7.35 MiB, a peak of 5.93 MiB against 15.02
    assert lean_kept <= 0.2 * text_kept
    assert lean_peak < text_peak
    # the default load keeps no lines and no cell text: measured 0.96 MiB
    # kept against the export load's 3.85 MiB
    assert lean_kept <= lines_kept / 3
    lean = load_csv(path)
    assert lean.lines is None
    assert all(c.raw is None for c in lean.columns)


def test_load_csv_export_lines_keep_less_than_cell_text_and_peak_no_higher(fixture_20k):
    path, _ = fixture_20k
    text_kept, text_peak = _traced_load(path, **_EVERY_COLUMN_TEXT)
    lines_kept, lines_peak = _traced_load(path, lines=True)
    # measured: 3.85 MiB kept against 7.35 MiB, a peak of 8.05 MiB against 15.02
    assert lines_kept < text_kept
    assert lines_peak <= text_peak


_FULL_READ = 8192  # rows per chunk: more than any drawn file holds


@settings(max_examples=300, deadline=None)
@given(
    drawn=_csv_files(),
    categorical_override=st.integers(0, 2),
    lines=st.booleans(),
)
@example(
    # column a turns categorical at row 5, after several chunks of numbers
    drawn=(b"a,b\n1,2\nNA,3\n2.50,\n1e3,4\nx,5\n7,null\n", ["a", "b"]),
    categorical_override=0,
    lines=False,
)
@example(
    # b has at most 2 distinct values, so the override turns it categorical
    drawn=(b"a,b\n1,2\n2,2.0\n3,\n4,NA\n5,2\n", ["a", "b"]),
    categorical_override=2,
    lines=True,
)
@example(drawn=(b"a,b\n1,2\n3,\xff\n5,6\n", ["a", "b"]), categorical_override=1, lines=False)
def test_load_csv_keeps_numerical_text_only_for_text_columns(
    tmp_path_factory, drawn, categorical_override, lines
):
    # a column's kind comes from its cells and the override alone: a load
    # with lines holds the same columns as one without, apart from the text
    # that only it keeps, and only for a categorical column
    data, names = drawn
    path = tmp_path_factory.getbasetemp() / "text.csv"
    path.write_bytes(data)
    lean = _loaded(path, _FULL_READ, categorical_override=categorical_override)
    whole = _loaded(path, _FULL_READ, categorical_override=categorical_override, lines=lines)
    if isinstance(whole, list):
        assert all((c[2] is not None) == (lines and c[1] is ColumnKind.CATEGORICAL) for c in whole)
        assert [c[:2] + c[3:] for c in whole] == [c[:2] + c[3:] for c in lean]
    else:
        assert whole == lean
    for chunk_rows in (1, 2, 3):
        loaded = _loaded(path, chunk_rows, categorical_override=categorical_override, lines=lines)
        assert loaded == whole


@pytest.mark.parametrize("chunk_rows", [1, 2, 8192])
def test_a_column_without_text_turns_categorical_with_its_cell_text(
    write_csv, chunk_rows
):
    # the late cell "x" turns a into a categorical column; its earlier
    # numbers come back as their own text, and a missing token holding NUL
    # stays missing
    path = write_csv("late.csv", "a,b\n1.50,1\n\x00,2\n1e3,3\n-0,4\nx,5\n")
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", chunk_rows):
        frame = load_csv(path, missing_tokens=("", "\x00"))
    a, b = frame.columns
    assert a.kind is ColumnKind.CATEGORICAL
    assert a.values.tolist() == ["1.50", None, "1e3", "-0", "x"]
    assert a.raw is None
    assert b.kind is ColumnKind.NUMERICAL and b.raw is None


def _piped(tmp_path, data: bytes, load):
    """load(path) of a FIFO that a thread writes `data` into: a file that
    cannot seek."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        fifo.unlink()


@pytest.mark.parametrize("lines", [False, True], ids=["columns", "export"])
def test_a_pipe_loads_equal_to_its_file_when_a_column_turns_late(tmp_path, lines):
    # at 2 rows per chunk, a turns to text in its second chunk and g's two
    # numbers put it under the override: both are read again, from a spool
    data = b"a,g,x\n1,0,1.5\n2,1,2.5\nx,1.0,3.5\n4,0,NA\n"
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    kwargs = dict(categorical_override=2, lines=lines)
    piped = _piped(tmp_path, data, lambda p: _loaded(p, 2, **kwargs))
    assert piped == _loaded(path, 2, **kwargs)
    assert [column[1] for column in piped] == [
        ColumnKind.CATEGORICAL, ColumnKind.CATEGORICAL, ColumnKind.NUMERICAL
    ]
    assert piped[1][4] == ("0", "1", "1.0")
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", 2):
        lines = _piped(tmp_path, data, lambda p: load_csv(p, **kwargs).lines)
        assert lines == load_csv(path, **kwargs).lines


def test_a_numerical_load_peaks_under_three_times_what_it_keeps(fixture_20k):
    # a numerical column keeps its floats and no chunk text: measured 2.2x
    # at 1,024-row chunks (3.8x while each chunk's text was kept)
    path, _ = fixture_20k
    with mock.patch.object(frame_module, "_CSV_READ_ROWS", 1024):
        kept, peak = _traced_load(path)
    assert peak < 3 * kept
