import functools

import numpy as np
import pytest

from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import Column, ColumnKind, TabularFrame
from shockstab.model import train_baseline


def num_col(name, values):
    return Column(name, ColumnKind.NUMERICAL, np.asarray(values, dtype=np.float64))


def cat_col(name, values):
    return Column(name, ColumnKind.CATEGORICAL, np.asarray(values, dtype=object))


def make_frame(**columns):
    """Frame from keyword columns; lists of str become categorical."""
    cols = []
    for name, values in columns.items():
        if all(isinstance(v, str) or v is None for v in values):
            cols.append(cat_col(name, values))
        else:
            cols.append(
                num_col(name, [np.nan if v is None else v for v in values])
            )
    return TabularFrame(cols)


@pytest.fixture
def write_csv(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return _write


def with_compact_dates(frame):
    """`frame` with its ISO `date` column written as 20180322-style text,
    which load_csv reads back as a numerical column."""
    compact = [d.replace("-", "") for d in frame.column("date").values]
    dates = cat_col("date", compact)
    return TabularFrame([dates if c.name == "date" else c for c in frame.columns])


def undated_fixture(rows, **kwargs):
    """make_shocked_fixture's frame without its date column."""
    frame = make_shocked_fixture(rows=rows, **kwargs)
    return TabularFrame([c for c in frame.columns if c.name != "date"])


@functools.cache
def undated_fixture_model():
    """The 600-row undated fixture at seed 3 and the baseline trained on
    it, for tests that score repeats of its rows."""
    frame = undated_fixture(600, seed=3)
    return frame, train_baseline(frame, "is_bad")
