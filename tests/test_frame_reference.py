"""load_csv's whole-column kind inference against the per-cell reference."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab.errors import CsvFormatError
from shockstab.frame import ColumnKind, load_csv


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


def _reference_column(name, cells, missing_tokens, categorical_override, forced):
    """(kind, values, raw) of one column as the per-cell loader built it."""
    kind, parsed = _reference_infer_kind(cells, missing_tokens)
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
                value = _reference_parse_numeric(c)
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
    forced=st.sampled_from([None, ColumnKind.CATEGORICAL, ColumnKind.NUMERICAL]),
)
def test_load_csv_matches_per_cell_reference(
    tmp_path_factory, cells, categorical_override, forced
):
    path = tmp_path_factory.getbasetemp() / "reference_kinds.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "cell"])
        writer.writerows(enumerate(cells))
    missing_tokens = ("", "NA", "null")
    overrides = {} if forced is None else {"cell": forced}
    try:
        expected = _reference_column(
            "cell", cells, missing_tokens, categorical_override, forced
        )
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as err:
            load_csv(path, categorical_override=categorical_override, kind_overrides=overrides)
        assert str(err.value) == str(exc)
        return
    col = load_csv(
        path, categorical_override=categorical_override, kind_overrides=overrides
    ).column("cell")
    kind, values, raw = expected
    assert col.kind is kind
    assert col.raw == raw
    assert col.values.dtype == values.dtype
    if kind is ColumnKind.NUMERICAL:
        assert col.values.tobytes() == values.tobytes()
    else:
        assert col.values.tolist() == values.tolist()
        assert all(type(a) is type(b) for a, b in zip(col.values, values))
