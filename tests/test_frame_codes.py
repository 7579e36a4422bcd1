"""Categorical columns as int32 codes over one sorted category tuple.

Each consumer of the codes is held to the per-cell form it replaced: the
object values with None for missing cells, str() of each cell as its text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab.drift import tv_distance
from shockstab.frame import (
    Column,
    ColumnKind,
    TabularFrame,
    concat_frames,
    detect_schema,
    load_csv,
)
from shockstab.model import MISSING_CATEGORY, build_encoding
from shockstab.synthesis import fit

from conftest import cat_col, num_col

_cells = st.lists(
    st.one_of(st.none(), st.sampled_from(["b", "a", "1", "", "a b", "é"]), st.integers(0, 2)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(cells=_cells)
def test_column_of_object_cells_matches_its_cells(cells):
    col = cat_col("s", cells)
    assert col.codes.dtype == np.int32
    assert list(col.categories) == sorted(dict.fromkeys(c for c in cells if c is not None), key=str)
    assert col.values.tolist() == cells
    assert [type(v) for v in col.values] == [type(c) for c in cells]
    assert col.missing_mask.tolist() == [c is None for c in cells]
    assert list(col.text()) == ["" if c is None else str(c) for c in cells]
    assert col.raw is None
    present = np.asarray([c for c in cells if c is not None], dtype=str)
    labels, counts = np.unique(present, return_counts=True)
    got_labels, got_counts = col.label_counts()
    assert got_labels.tolist() == labels.tolist()
    assert got_counts.tolist() == counts.tolist()


def test_loaded_column_holds_its_text_once(write_csv):
    path = write_csv("t.csv", "s,x\nb,1\nNA,2\na,3\nb,4\n")
    col = load_csv(path, lines=True).column("s")
    assert col.categories == ("a", "b")
    assert col.codes.tolist() == [1, -1, 0, 1]
    assert col.raw == ("b", None, "a", "b")
    assert col.values.tolist() == ["b", None, "a", "b"]
    assert col.text() == ("b", "", "a", "b")
    taken = col.take([3, 1])
    assert taken.categories is col.categories
    assert taken.raw == ("b", None)
    # a default load holds the same column, and keeps no text
    lean = load_csv(path).column("s")
    assert lean.raw is None
    assert lean.categories == col.categories
    assert lean.codes.tolist() == col.codes.tolist()


def test_constructor_checks_raw_text_and_codes():
    # Column(name, kind, values) keeps no CSV text; only from_codes marks a
    # categorical column's categories as its cells' text
    assert cat_col("s", ["a", None]).raw is None
    kept = Column.from_codes("s", [1, -1, 0], ("1", "a"), keeps_text=True)
    assert kept.raw == ("a", None, "1")
    with pytest.raises(TypeError):
        Column("s", ColumnKind.CATEGORICAL, np.array(["a"], dtype=object), ("a",))
    with pytest.raises(ValueError, match="outside its categories"):
        Column.from_codes("s", [0, 2], ("a", "b"))
    with pytest.raises(ValueError, match="outside its categories"):
        Column.from_codes("s", [-2], ("a",))


def test_numerical_text_reads_missingness_from_the_nan_mask():
    col = Column("x", ColumnKind.NUMERICAL, np.array([1.5, np.nan, 3.0, -0.0, 1e300]))
    assert col.text() == ["1.5", "", "3.0", "-0.0", "1e+300"]
    assert col.raw is None
    assert col.take([1, 0]).text() == ["", "1.5"]
    assert num_col("x", [1.5, np.nan]).text() == ["1.5", ""]


def test_concat_remaps_codes_onto_the_union_of_categories(write_csv):
    path = write_csv("t.csv", "s,x\nb,1\nd,2\n,3\n")
    loaded = TabularFrame([load_csv(path, lines=True).column("s")])
    plain = TabularFrame([cat_col("s", ["c", "a", None, 1])])
    for first, second in ((loaded, plain), (plain, loaded), (loaded, loaded)):
        out = concat_frames(first, second).column("s")
        expected = first.column("s").values.tolist() + second.column("s").values.tolist()
        assert out.values.tolist() == expected
        assert list(out.categories) == sorted(set(out.categories), key=str)
        # a stacked frame keeps no text, as it keeps no lines
        assert out.raw is None


def test_consumers_use_only_the_categories_the_rows_hold():
    frame = TabularFrame([
        cat_col("s", ["a", "b", "c", "b", None]),
        num_col("label", [0.0, 1.0, 0.0, 1.0, 0.0]),
    ])
    taken = frame.take([1, 3, 0])  # holds a and b, lists c
    assert taken.column("s").categories == ("a", "b", "c")
    assert build_encoding(taken, "label").categorical["s"] == ("a", "b")
    assert build_encoding(frame, "label").categorical["s"] == ("a", "b", "c", MISSING_CATEGORY)
    labels, probs = fit(taken).frequencies["s"]
    assert labels.tolist() == ["a", "b"]
    assert probs.tolist() == [1 / 3, 2 / 3]
    assert detect_schema(taken).column("s").unique_count == 2


def _tv_reference(p, q):
    """tv_distance as it was computed per cell, from the object samples."""
    p = [v for v in p if v is not None]
    q = [v for v in q if v is not None]
    cats = sorted(set(p) | set(q), key=str)
    index = {c: i for i, c in enumerate(cats)}
    fp = np.bincount([index[v] for v in p], minlength=len(cats)) / len(p)
    fq = np.bincount([index[v] for v in q], minlength=len(cats)) / len(q)
    return float(0.5 * np.abs(fp - fq).sum())


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(st.sampled_from([None, *"abcdefghijk"]), min_size=1, max_size=40),
    q=st.lists(st.sampled_from([None, *"abcdefghijk"]), min_size=1, max_size=40),
)
def test_tv_distance_of_columns_matches_the_per_cell_reference(p, q):
    if all(v is None for v in p) or all(v is None for v in q):
        return
    expected = _tv_reference(p, q)
    assert tv_distance(p, q) == expected
    # columns taken from a wider frame list categories neither sample holds
    wide = cat_col("s", p + q + list("xyz"))
    p_col = wide.take(range(len(p)))
    q_col = wide.take(range(len(p), len(p) + len(q)))
    assert tv_distance(p_col, q_col, column="s") == expected
