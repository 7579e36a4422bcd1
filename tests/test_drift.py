from collections import Counter

import numpy as np
import pytest

from shockstab.drift import distribution_shift, ks_statistic, tv_distance
from shockstab.errors import EmptyColumnError, SchemaMismatchError
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import union_codes

from conftest import make_frame


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_identical_samples():
    assert tv_distance(["A", "B", "B"], ["A", "B", "B"]) == 0.0


def test_tv_disjoint_supports():
    assert tv_distance(["A", "A"], ["B", "B"]) == 1.0


def test_tv_half():
    assert tv_distance(["A", "B"], ["A", "A"]) == pytest.approx(0.5, abs=1e-15)


def test_tv_drops_missing_then_errors_when_empty():
    assert tv_distance(["A", None, "B"], ["A", "A"]) == pytest.approx(0.5)
    with pytest.raises(EmptyColumnError):
        tv_distance([None, None], ["A"])


def _tv_oracle(p, q):
    cp, cq = Counter(p), Counter(q)
    total = 0.0
    for c in set(cp) | set(cq):
        total += abs(cp[c] / len(p) - cq[c] / len(q))
    return 0.5 * total


def test_tv_matches_frequency_table_oracle():
    rng = np.random.default_rng(5)
    alphabet = list("abcdefg")
    for _ in range(200):
        p = [alphabet[i] for i in rng.integers(0, 7, int(rng.integers(1, 50)))]
        q = [alphabet[i] for i in rng.integers(0, 7, int(rng.integers(1, 50)))]
        assert tv_distance(p, q) == pytest.approx(_tv_oracle(p, q), abs=1e-12)


def test_tv_keys_categories_by_their_text():
    # detect_schema and the model read 1 and "1" as one category
    assert tv_distance([1, 2], ["1", "2"]) == 0.0
    assert tv_distance([1, "1", 2], ["1", "2", "2"]) == pytest.approx(1 / 3, abs=1e-15)


def _tv_by_category(p, q) -> float:
    """The TV keyed by category value, as it was before it keyed them by text."""
    categories, p_codes, q_codes = union_codes(p, q)
    p_counts, q_counts = (
        np.bincount(codes + 1, minlength=len(categories) + 1)[1:] for codes in (p_codes, q_codes)
    )
    observed = (p_counts + q_counts) > 0
    shift = p_counts[observed] / p_counts.sum() - q_counts[observed] / q_counts.sum()
    return float(0.5 * np.abs(shift).sum())


@pytest.mark.parametrize("seed", range(20))
def test_tv_of_text_columns_keeps_its_bits(seed):
    frame = make_shocked_fixture(rows=600, seed=seed)
    order = np.random.default_rng(seed).permutation(frame.row_count)
    # taken columns keep every category, held or not
    pairs = [(frame.take(order[:360]), frame.take(order[360:])),
             (frame.take(np.arange(480)), frame.take(np.arange(480, 600)))]
    for first, second in pairs:
        for name in ("date", "sector"):
            p, q = first.column(name), second.column(name)
            assert tv_distance(p, q) == _tv_by_category(p, q)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def test_ks_identical_samples():
    assert ks_statistic([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == 0.0


def test_ks_separated_supports():
    assert ks_statistic([0.0, 1.0], [5.0, 6.0, 7.0]) == 1.0


def test_ks_half():
    assert ks_statistic([1, 2, 3, 4], [3, 4, 5, 6]) == pytest.approx(0.5, abs=1e-15)


def test_ks_empty_error():
    with pytest.raises(EmptyColumnError):
        ks_statistic([], [1.0])
    with pytest.raises(EmptyColumnError):
        ks_statistic([np.nan, np.nan], [1.0])


def _ks_oracle(x, y):
    """Maximize |Fx - Fy| over a dense grid that includes all sample points."""
    x, y = np.sort(x), np.sort(y)
    lo = min(x[0], y[0]) - 1.0
    hi = max(x[-1], y[-1]) + 1.0
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 4001), x, y]))
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def test_ks_matches_dense_grid_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        nx = int(rng.integers(1, 51))
        ny = int(rng.integers(1, 51))
        x = rng.normal(0, 1, nx)
        y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), ny)
        if rng.random() < 0.3:  # force ties across samples
            y[: min(nx, ny)] = x[: min(nx, ny)]
        assert ks_statistic(x, y) == pytest.approx(_ks_oracle(x, y), abs=1e-12)


def test_symmetry_of_distances():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(0, 1, int(rng.integers(1, 30)))
        y = rng.normal(0.5, 2, int(rng.integers(1, 30)))
        assert ks_statistic(x, y) == ks_statistic(y, x)
        p = [str(i) for i in rng.integers(0, 4, int(rng.integers(1, 30)))]
        q = [str(i) for i in rng.integers(0, 5, int(rng.integers(1, 30)))]
        assert tv_distance(p, q) == tv_distance(q, p)


# ---------------------------------------------------------------------------
# distribution shift
# ---------------------------------------------------------------------------

def test_ds_zero_for_identical_frames():
    frame = make_frame(x=[1.0, 2.0, 3.0], s=["a", "b", "a"])
    report = distribution_shift(frame, frame, tau=0.05)
    assert report.ds == 0.0
    assert not report.is_shock


def test_ds_mean_of_known_distances():
    base = make_frame(s=["A", "B"], x=[0.0, 1.0])
    shock = make_frame(s=["A", "A"], x=[5.0, 6.0])
    report = distribution_shift(base, shock)
    by_name = {c.column_name: c.distance for c in report.per_column}
    assert by_name["s"] == pytest.approx(0.5)
    assert by_name["x"] == pytest.approx(1.0)
    assert report.ds == pytest.approx(0.75)
    assert report.is_shock


def test_ds_excluded_and_empty_column_set():
    base = make_frame(x=[0.0, 1.0], y=[5.0, 6.0])
    shock = make_frame(x=[9.0, 10.0], y=[5.0, 6.0])
    report = distribution_shift(base, shock, excluded={"x"})
    assert [c.column_name for c in report.per_column] == ["y"]
    empty = distribution_shift(base, shock, tau=0.0, excluded={"x", "y"})
    assert empty.ds == 0.0
    assert empty.is_shock  # ds >= tau holds at tau = 0


def test_ds_schema_mismatch():
    base = make_frame(x=[0.0, 1.0])
    with pytest.raises(SchemaMismatchError):
        distribution_shift(base, make_frame(y=[0.0, 1.0]))
    with pytest.raises(SchemaMismatchError):
        distribution_shift(base, make_frame(x=["a", "b"]))
    # extra column on the shock side is a mismatch too
    with pytest.raises(SchemaMismatchError):
        distribution_shift(base, make_frame(x=[0.0, 1.0], z=[1.0, 2.0]))


def test_ds_symmetry_and_bounds_random_frames():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n, m = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        base = make_frame(
            x=list(rng.normal(0, 1, n)),
            s=[str(v) for v in rng.integers(0, 3, n)],
        )
        shock = make_frame(
            x=list(rng.normal(rng.uniform(-2, 2), 1, m)),
            s=[str(v) for v in rng.integers(0, 4, m)],
        )
        fwd = distribution_shift(base, shock)
        rev = distribution_shift(shock, base)
        assert fwd.ds == rev.ds
        for shift in fwd.per_column:
            assert 0.0 <= shift.distance <= 1.0
        assert 0.0 <= fwd.ds <= 1.0


def test_ds_row_order_invariance():
    rng = np.random.default_rng(2)
    x = list(rng.normal(0, 1, 25))
    s = [str(v) for v in rng.integers(0, 3, 25)]
    base = make_frame(x=x, s=s)
    shock = make_frame(x=list(rng.normal(1, 1, 30)), s=[str(v) for v in rng.integers(0, 3, 30)])
    ref = distribution_shift(base, shock)
    perm = list(rng.permutation(25))
    base_shuffled = base.take(perm)
    again = distribution_shift(base_shuffled, shock)
    assert [c.distance for c in again.per_column] == [c.distance for c in ref.per_column]


def test_monotone_aggregation_identity():
    base = make_frame(a=[0.0, 1.0], b=[0.0, 1.0])
    shock = make_frame(a=[9.0, 10.0], b=[0.0, 1.0])
    two = distribution_shift(base, shock)
    base3 = make_frame(a=[0.0, 1.0], b=[0.0, 1.0], c=["x", "y"])
    shock3 = make_frame(a=[9.0, 10.0], b=[0.0, 1.0], c=["x", "x"])
    three = distribution_shift(base3, shock3)
    added = 0.5  # TV of {x,y} vs {x,x}
    expected = (2 * two.ds + added) / 3
    assert three.ds == pytest.approx(expected, abs=1e-12)
    assert min(two.ds, added) <= three.ds <= max(two.ds, added)


def test_report_json_full_precision():
    base = make_frame(x=[0.0, 1.0, 2.0])
    shock = make_frame(x=[0.5, 1.5, 2.5])
    d = distribution_shift(base, shock).to_dict()
    assert set(d) == {"per_column", "ds", "tau", "is_shock"}
    assert d["per_column"][0]["kind"] == "numerical"
    assert isinstance(d["ds"], float)
