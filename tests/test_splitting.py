import numpy as np
import pytest

from shockstab import splitting
from shockstab.errors import (
    ConfigError,
    DateParseError,
    DegenerateSplitError,
    DomainError,
    EmptyInputError,
)
from shockstab.splitting import (
    SplitSpec,
    aggregate,
    monte_carlo,
    parse_timestamp,
    split_once,
)

from conftest import make_frame


def _frame_with_dates(n_pre, n_post, extra=None):
    dates = [f"2018-01-{i % 28 + 1:02d}" for i in range(n_pre)]
    dates += [f"2018-04-{i % 28 + 1:02d}" for i in range(n_post)]
    cols = {"when": dates, "x": [float(i) for i in range(n_pre + n_post)]}
    if extra:
        cols.update(extra)
    return make_frame(**cols)


def _row_ids(frame, rows):
    return [float(v) for v in frame.take(rows).column("x").values]


def test_oos_rounding_example():
    frame = make_frame(x=[float(i) for i in range(10)])
    spec = SplitSpec(mode="oos", shock_fraction=0.2, train_fraction=0.8, seed=1)
    split = split_once(frame, spec, 0)
    assert split.shocked_test.size == 2  # ceil(0.2 * 10)
    assert split.train.size == 6  # floor(0.8 * 8)
    assert split.test.size == 2


def test_oot_boundary_inclusive_on_shock_side():
    frame = make_frame(
        when=["2018-03-20", "2018-03-21", "2018-03-22", "2018-03-23"], x=[-1.0, 0.0, 1.0, 2.0]
    )
    spec = SplitSpec(
        mode="oot", date_column="when", shock_date="2018-03-22",
        train_fraction=0.5, seed=0,
    )
    split = split_once(frame, spec, 0)
    assert sorted(_row_ids(frame, split.shocked_test)) == [1.0, 2.0]


def test_oot_degenerate_sides():
    frame = _frame_with_dates(5, 0)
    spec = SplitSpec(mode="oot", date_column="when", shock_date="2019-01-01")
    with pytest.raises(DegenerateSplitError):
        split_once(frame, spec, 0)
    spec_all_after = SplitSpec(mode="oot", date_column="when", shock_date="2017-01-01")
    with pytest.raises(DegenerateSplitError):
        split_once(frame, spec_all_after, 0)


def test_a_train_fraction_that_leaves_no_training_rows_is_degenerate():
    # floor(0.1 * 9) is 0 of the 9 pre-shock rows, in both modes
    oot = SplitSpec(mode="oot", date_column="when", shock_date="2018-04-01", train_fraction=0.1)
    oos = SplitSpec(mode="oos", shock_fraction=0.1, train_fraction=0.1)
    for frame, spec in ((_frame_with_dates(9, 3), oot), (_frame_with_dates(9, 1), oos)):
        with pytest.raises(DegenerateSplitError, match=r"^train_fraction 0\.1 leaves no "
                           r"training rows of the 9 pre-shock rows$"):
            split_once(frame, spec, 0)


def test_determinism_same_seed_and_run():
    frame = _frame_with_dates(40, 10)
    spec = SplitSpec(mode="oot", date_column="when", shock_date="2018-04-01", seed=9)
    a = split_once(frame, spec, 3)
    b = split_once(frame, spec, 3)
    assert _row_ids(frame, a.train) == _row_ids(frame, b.train)
    assert _row_ids(frame, a.test) == _row_ids(frame, b.test)
    assert _row_ids(frame, a.shocked_test) == _row_ids(frame, b.shocked_test)


def _assert_index_parts(s, row_count):
    """Each part of split `s` is a read-only np.intp array of row indices;
    the parts are disjoint and cover the frame's `row_count` rows."""
    parts = (s.train, s.test, s.shocked_test)
    for part in parts:
        assert isinstance(part, np.ndarray) and part.dtype == np.intp
        assert not part.flags.writeable
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(row_count))


def test_partition_property():
    frame = _frame_with_dates(37, 13)
    spec = SplitSpec(mode="oot", date_column="when", shock_date="2018-04-01", seed=2)
    for run in range(5):
        s = split_once(frame, spec, run)
        ids = _row_ids(frame, s.train) + _row_ids(frame, s.test) + _row_ids(frame, s.shocked_test)
        assert sorted(ids) == [float(i) for i in range(50)]
        _assert_index_parts(s, frame.row_count)

    oos = SplitSpec(mode="oos", shock_fraction=0.3, seed=2)
    plain = make_frame(x=[float(i) for i in range(50)])
    for run in range(5):
        s = split_once(plain, oos, run)
        ids = _row_ids(plain, s.train) + _row_ids(plain, s.test) + _row_ids(plain, s.shocked_test)
        assert sorted(ids) == [float(i) for i in range(50)]
        _assert_index_parts(s, plain.row_count)


def test_oot_shock_segment_identical_across_runs():
    frame = _frame_with_dates(80, 20)
    spec = SplitSpec(
        mode="oot", date_column="when", shock_date="2018-04-01", mc_runs=7, seed=5
    )
    splits = monte_carlo(frame, spec)
    ref = _row_ids(frame, splits[0].shocked_test)
    assert all(_row_ids(frame, s.shocked_test) == ref for s in splits)


def test_oos_shock_segment_resampled_per_run():
    frame = make_frame(x=[float(i) for i in range(100)])
    spec = SplitSpec(mode="oos", shock_fraction=0.2, mc_runs=6, seed=5)
    splits = monte_carlo(frame, spec)
    sets = {tuple(sorted(_row_ids(frame, s.shocked_test))) for s in splits}
    assert len(sets) > 1


def test_run_independence_of_shuffles():
    frame = make_frame(x=[float(i) for i in range(100)], when=["2018-01-01"] * 99 + ["2018-04-01"])
    spec = SplitSpec(
        mode="oot", date_column="when", shock_date="2018-03-22", mc_runs=51, seed=3
    )
    orders = [
        tuple(_row_ids(frame, s.train) + _row_ids(frame, s.test)) for s in monte_carlo(frame, spec)
    ]
    distinct = len(set(orders))
    assert distinct >= 50


def test_fraction_accuracy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        tf = float(rng.uniform(0.1, 0.9))
        frame = make_frame(x=[float(i) for i in range(n)])
        spec = SplitSpec(mode="oos", shock_fraction=0.2, train_fraction=tf, seed=1)
        s = split_once(frame, spec, 0)
        pre = s.train.size + s.test.size
        assert abs(s.train.size - round(tf * pre)) <= 1


def test_monte_carlo_counts_and_prefix_stability():
    frame = make_frame(x=[float(i) for i in range(30)])
    base = dict(mode="oos", shock_fraction=0.2, seed=11)
    assert len(monte_carlo(frame, SplitSpec(mc_runs=51, **base))) == 51
    one = monte_carlo(frame, SplitSpec(mc_runs=1, **base))[0]
    direct = split_once(frame, SplitSpec(mc_runs=1, **base), 0)
    assert _row_ids(frame, one.train) == _row_ids(frame, direct.train)
    # extending the run count never perturbs earlier runs
    five = monte_carlo(frame, SplitSpec(mc_runs=5, **base))
    ten = monte_carlo(frame, SplitSpec(mc_runs=10, **base))
    for a, b in zip(five, ten):
        assert _row_ids(frame, a.train) == _row_ids(frame, b.train)
        assert _row_ids(frame, a.shocked_test) == _row_ids(frame, b.shocked_test)


def test_unparseable_date_names_row():
    frame = make_frame(when=["2018-01-01", "not-a-date"], x=[0.0, 1.0])
    spec = SplitSpec(mode="oot", date_column="when", shock_date="2018-01-02")
    with pytest.raises(DateParseError) as err:
        split_once(frame, spec, 0)
    assert err.value.row_index == 1


@pytest.mark.parametrize(
    "dates, row, value",
    [
        (["2018-01-01", "bad", "2018-01-01", None, "bad", None], 1, "bad"),
        (["2018-01-01", None, "bad", None, "bad", "2018-05-01"], 1, None),
        (["2018-01-01", "2018-01-01", None, "bad", None, "bad"], 2, None),
    ],
    ids=["bad-first", "missing-first", "repeated-good-first"],
)
def test_repeated_bad_dates_name_the_first_row(dates, row, value):
    frame = make_frame(when=dates, x=[float(i) for i in range(len(dates))])
    spec = SplitSpec(mode="oot", date_column="when", shock_date="2018-03-01")
    with pytest.raises(DateParseError) as err:
        split_once(frame, spec, 0)
    assert (err.value.row_index, err.value.value) == (row, value)


def test_parse_timestamp_formats():
    assert parse_timestamp("2018-03-22").year == 2018
    assert parse_timestamp("2018-03-22T10:30:00").hour == 10
    assert parse_timestamp("2018-03-22T10:30:00Z").hour == 10
    with pytest.raises(DateParseError):
        parse_timestamp("22/03/2018")


def test_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(mode="weird")
    with pytest.raises(ConfigError):
        SplitSpec(mode="oot")  # missing date column / shock date
    with pytest.raises(ConfigError):
        SplitSpec(mode="oos", shock_fraction=1.5)
    with pytest.raises(ConfigError):
        SplitSpec(mode="oos", shock_fraction=0.2, train_fraction=1.0)
    with pytest.raises(ConfigError):
        SplitSpec(mode="oos", shock_fraction=0.2, mc_runs=0)


def test_aggregate_examples():
    assert aggregate([0.7]) == (0.7, 0.7, 0.7)
    assert aggregate([0.6, 0.8]) == pytest.approx((0.7, 0.6, 0.8))
    with pytest.raises(EmptyInputError):
        aggregate([])
    with pytest.raises(DomainError):
        aggregate([0.1, float("nan")])


def test_aggregate_median_matches_sorting_oracle():
    rng = np.random.default_rng(6)
    values = list(rng.normal(0, 1, 51))
    agg = aggregate(values)
    assert agg.median == sorted(values)[25]
    assert agg.min == min(values)
    assert agg.max == max(values)


def test_monte_carlo_parses_each_date_once(monkeypatch):
    frame = _frame_with_dates(30, 12)
    spec = SplitSpec(
        mode="oot", date_column="when", shock_date="2018-03-01", mc_runs=5, seed=4
    )
    calls = []
    real = splitting.parse_timestamp

    def counting(value, row_index=None):
        calls.append(row_index)
        return real(value, row_index)

    monkeypatch.setattr(splitting, "parse_timestamp", counting)
    splits = monte_carlo(frame, spec)
    assert len(splits) == 5
    # one parse per distinct date text (28 + 12 of the 42 rows), at its first row
    texts = frame.column("when").text()
    assert calls == [texts.index(t) for t in dict.fromkeys(texts)]
    assert len(calls) == 40
    # later calls on the same frame reuse the partition
    assert split_once(frame, spec, 7).shocked_test.size == 12
    assert len(calls) == 40
