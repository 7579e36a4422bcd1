import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockstab import cli
from shockstab.errors import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    SchemaMismatchError,
)
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import TabularFrame
from shockstab.model import (
    MISSING_CATEGORY,
    TrainConfig,
    auc,
    build_encoding,
    evaluate_pair,
    train_baseline,
    train_baselines,
)

from conftest import cat_col, make_frame, num_col, undated_fixture, undated_fixture_model


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def test_auc_perfect_ranking():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.5


def test_auc_enumerated_example():
    assert auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(DegenerateLabelsError):
        auc([0.1, 0.2], [0, 2])
    with pytest.raises(DomainError):
        auc([0.1], [0, 1])


def _auc_pair_counting(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        assert auc(scores, labels) == pytest.approx(
            _auc_pair_counting(scores, labels), abs=1e-12
        )


def test_auc_flip_consistency_exact():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(2, 100))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 3)
        assert auc(-scores, labels) == 1.0 - auc(scores, labels)


# ---------------------------------------------------------------------------
# baseline model
# ---------------------------------------------------------------------------

def _separable_frame(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    x1 = y * 2.0 + rng.normal(0, 0.2, n)
    x2 = -y + rng.normal(0, 0.2, n)
    s = ["hi" if v else "lo" for v in y]
    return make_frame(x1=list(x1), x2=list(x2), s=s, label=list(y))


def test_train_separable_reaches_high_auc():
    frame = _separable_frame()
    model = train_baseline(frame, "label")
    scores = model.predict_scores(frame)
    y = frame.column("label").values
    assert auc(scores, y) >= 0.99


def test_random_labels_auc_near_half():
    rng = np.random.default_rng(16)
    n = 5000
    train = make_frame(
        x=list(rng.normal(0, 1, n)),
        y=list(rng.normal(0, 1, n)),
        label=list(rng.integers(0, 2, n).astype(float)),
    )
    test = make_frame(
        x=list(rng.normal(0, 1, n)),
        y=list(rng.normal(0, 1, n)),
        label=list(rng.integers(0, 2, n).astype(float)),
    )
    model = train_baseline(train, "label")
    a = auc(model.predict_scores(test), test.column("label").values)
    assert abs(a - 0.5) <= 0.05


def test_training_is_deterministic():
    frame = _separable_frame(seed=3)
    m1 = train_baseline(frame, "label")
    m2 = train_baseline(frame, "label")
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def _reference_gd(x, y, config):
    """A verbatim copy of train_baseline's gradient-descent loop, run on
    `x` in column-major order, the layout of the design_matrix that
    train_baseline trains on.

    Reports are compared byte for byte, so a rewrite of the loop must give
    the same bits as this one.
    """
    x = np.asfortranarray(x)
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    lr = config.learning_rate
    for _ in range(config.epochs):
        z = np.clip(x @ w + b, -700, 700)
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        grad_w = x.T @ err / n + config.l2 * w
        grad_b = float(err.mean())
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


@pytest.mark.parametrize("rows", [300, 2240])
def test_train_baseline_bitwise_equals_reference_loop(rows):
    frame = undated_fixture(rows)
    config = TrainConfig()
    model = train_baseline(frame, "is_bad", config)
    x = model.encoding.design_matrix(frame)
    w, b = _reference_gd(x, frame.column("is_bad").values, config)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias.hex() == b.hex()



def _assert_reference_bits(frames, models, label, config):
    for frame, model in zip(frames, models, strict=True):
        x = model.encoding.design_matrix(frame)
        w, b = _reference_gd(x, frame.column(label).values, config)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.hex() == b.hex()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rows", [300, 2240])
def test_train_baselines_bitwise_equals_reference_loop(rows, k):
    frames = [
        undated_fixture(rows, seed=seed)
        for seed in range(k)
    ]
    config = TrainConfig()
    models = train_baselines(frames, "is_bad", config)
    # one loop: every design has the same shape
    assert len({m.encoding.design_matrix(f).shape for f, m in zip(frames, models)}) == 1
    _assert_reference_bits(frames, models, "is_bad", config)


def test_train_baselines_groups_designs_by_shape():
    shapes = [(300, 0), (240, 1), (300, 2), (240, 3), (300, 4)]
    frames = [
        undated_fixture(rows, seed=seed)
        for rows, seed in shapes
    ]
    # a constant column keeps a zero weight, whose sign must be +0
    constant = TabularFrame([*frames[0].columns, num_col("flat", [1.0] * 300)])
    frames.append(constant)
    config = TrainConfig(epochs=50)
    models = train_baselines(frames, "is_bad", config)
    assert [m.weights.size for m in models] == [9] * 5 + [10]
    flat = list(models[-1].encoding.numerical).index("flat")
    assert models[-1].weights[flat].hex() == "0x0.0p+0"
    _assert_reference_bits(frames, models, "is_bad", config)
    for frame, model in zip(frames, models):
        alone = train_baseline(frame, "is_bad", config)
        assert alone.weights.tobytes() == model.weights.tobytes()


def test_train_baselines_clips_like_the_reference_loop():
    frames = [_separable_frame(seed=s) for s in (11, 12)]
    config = TrainConfig(learning_rate=1e3)
    for frame in frames:
        # one epoch takes |z| past 700, so the second one clips
        x = build_encoding(frame, "label").design_matrix(frame)
        one_epoch = TrainConfig(learning_rate=1e3, epochs=1)
        w, b = _reference_gd(x, frame.column("label").values, one_epoch)
        assert np.abs(x @ w + b).max() > 710
    # exp overflows past 709.78: the clip keeps it from doing so
    with np.errstate(over="raise"):
        models = train_baselines(frames, "label", config)
    _assert_reference_bits(frames, models, "label", config)


def test_train_baselines_checks_every_frame_before_training():
    good = _separable_frame(seed=13)
    bad = make_frame(x=[0.0, 1.0, 2.0], label=[1.0, 1.0, 1.0])
    with pytest.raises(DegenerateLabelsError):
        train_baselines([good, bad], "label")
    assert train_baselines([], "label") == []

def test_one_hot_equals_per_row_reference():
    cases = [
        (["b", "a", None, "c", "a"], ["a", "unseen", None, "c", "b", "None"]),
        # a literal "None" category is not the missing bucket
        (["None", "a", None], [None, "None", "a", "b"]),
        (["None", "a"], [None, "None", "a"]),
        # cells that are not str encode as their text
        ([1, "1", 2.5, None, "x"], [1, "1", 2.5, "2.5", 3, None, "x"]),
    ]

    def frame(cells):
        return TabularFrame([
            cat_col("s", cells),
            num_col("label", [float(i % 2) for i in range(len(cells))]),
        ])

    for train_cells, test_cells in cases:
        train, test = frame(train_cells), frame(test_cells)
        enc = build_encoding(train, "label")
        cats = sorted({str(v) for v in train_cells if v is not None})
        if None in train_cells:
            cats.append(MISSING_CATEGORY)
        assert enc.categorical["s"] == tuple(cats)
        expected = np.zeros((test.row_count, len(cats)))
        for i, v in enumerate(test.column("s").values):
            key = MISSING_CATEGORY if v is None else str(v)
            if key in cats:
                expected[i, cats.index(key)] = 1.0
        assert enc.design_matrix(test).tobytes() == expected.tobytes()
        assert enc.design_matrix(test).flags.f_contiguous
        assert enc.design_matrix(test.take([])).shape == (0, len(cats))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.integers(0, 599), min_size=1, max_size=6, unique=True),
    picks=st.lists(st.integers(0, 5), min_size=2, max_size=300),
)
# three copies of row 38 got two scores from a row-major BLAS product
@example(rows=[38], picks=[0, 0, 0])
def test_equal_design_rows_get_one_score_at_any_position(rows, picks):
    frame, model = undated_fixture_model()
    test = frame.take([rows[p % len(rows)] for p in picks])
    _, group = np.unique(model.encoding.design_matrix(test), axis=0, return_inverse=True)
    bits = model.predict_scores(test).view(np.uint64)
    for g in np.unique(group):
        assert np.unique(bits[group == g]).size == 1


def test_single_class_training_error():
    frame = make_frame(x=[0.0, 1.0, 2.0], label=[1.0, 1.0, 1.0])
    with pytest.raises(DegenerateLabelsError):
        train_baseline(frame, "label")


def test_missing_values_imputed_and_no_leakage():
    rng = np.random.default_rng(17)
    n = 300
    y = rng.integers(0, 2, n).astype(float)
    x = list(y * 2 + rng.normal(0, 0.3, n))
    x[0] = None
    s = ["m" if v else "f" for v in y]
    s[1] = None
    train = make_frame(x=x, s=s, label=list(y))
    model = train_baseline(train, "label")
    before = copy.deepcopy(model.encoding)

    test = make_frame(
        x=[0.5, None, 1.5],
        s=["m", "unseen-category", None],
        label=[0.0, 1.0, 1.0],
    )
    model.predict_scores(test)
    assert model.encoding.numerical == before.numerical
    assert model.encoding.categorical == before.categorical

    # encoding statistics come from the training rows alone
    enc = build_encoding(train, "label")
    present = [v for v in x if v is not None]
    assert enc.numerical["x"][0] == pytest.approx(float(np.mean(present)))


def test_evaluate_pair_identical_frames():
    frame = _separable_frame(seed=5)
    model = train_baseline(frame, "label")
    pair = evaluate_pair(model, frame, frame, "label", 2)
    assert pair.auc_base == pair.auc_shock
    assert pair.run_index == 2


def test_evaluate_pair_empty_shock_errors():
    frame = _separable_frame(seed=6)
    empty = frame.take([])
    model = train_baseline(frame, "label")
    with pytest.raises(EmptyInputError):
        evaluate_pair(model, frame, empty, "label", 0)


def test_schema_mismatch_at_evaluation():
    frame = _separable_frame(seed=7)
    model = train_baseline(frame, "label")
    other = make_frame(x1=[0.0, 1.0], label=[0.0, 1.0])
    with pytest.raises(SchemaMismatchError):
        model.predict_scores(other)


def test_per_run_records(tmp_path):
    """A nested AUC table read per run gives one record per model, level and
    run, each carrying that run's four AUCs."""
    keys = ("auc_base_a", "auc_shock_a", "auc_base_b", "auc_shock_b")
    table = {
        "ds": 0.1,
        "models": [
            {
                "name": f"model{i}",
                "levels": [
                    {
                        "outliers_pct": lvl,
                        "runs": [
                            {key: 0.5 + (i + j + k) / 100 for key in keys}
                            for k in range(3)
                        ],
                    }
                    for j, lvl in enumerate(["without", 5])
                ],
            }
            for i in range(2)
        ],
    }
    path = tmp_path / "aucs.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    records, ds = cli._grid_records(str(path), None, per_run=True)
    assert ds == 0.1
    assert len(records) == 12
    assert records[0] == ("model0#run0", "without", 0.5, 0.5, 0.5, 0.5)
    assert records[-1] == ("model1#run2", "5", 0.54, 0.54, 0.54, 0.54)


def test_numerical_encoding_holds_the_mean_and_scale_once():
    x = [1.0, 2.0, None, 4.0, 5.0]
    frame = make_frame(x=x, c=[3.0] * 5, label=[0.0, 1.0, 0.0, 1.0, 1.0])
    enc = build_encoding(frame, "label")
    present = np.array([v for v in x if v is not None])
    mean, std = float(np.mean(present)), float(np.std(present))
    # a constant column keeps scale 1, so its standardized values are 0
    assert enc.numerical == {"x": (mean, std), "c": (3.0, 1.0)}
    values = frame.column("x").values
    filled = np.where(np.isnan(values), mean, values)
    design = enc.design_matrix(frame)
    assert np.array_equal(design[:, 0], (filled - mean) / std)
    assert np.array_equal(design[:, 1], np.zeros(5))


@pytest.mark.parametrize("learning_rate", [1e100, 1e300, 1.7e308])
def test_a_diverging_fit_raises_a_named_error_and_no_warning(learning_rate):
    frame = make_shocked_fixture(rows=300)
    config = TrainConfig(learning_rate=learning_rate, epochs=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="diverged") as err:
            train_baseline(frame, "is_bad", config)
        with pytest.raises(DomainError, match="diverged"):
            train_baselines([frame, frame], "is_bad", config)
    assert f"learning_rate {learning_rate!r}" in str(err.value)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_a_column_whose_spread_overflows_is_refused_by_name(scale):
    # np.std squares the deviations, which overflow past about 1e154
    frame = make_shocked_fixture(rows=300)
    rate = frame.column("rate").values
    signs = np.where(np.arange(rate.size) % 2 == 0, -1.0, 1.0)
    huge = TabularFrame(
        [num_col("rate", signs * scale) if c.name == "rate" else c for c in frame.columns]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            train_baseline(huge, "is_bad", TrainConfig(epochs=5))
    assert str(err.value) == (
        "column 'rate' spreads beyond float's range: "
        "its standard deviation cannot be computed"
    )


def test_a_large_learning_rate_that_converges_is_kept():
    model = train_baseline(
        make_shocked_fixture(rows=300), "is_bad", TrainConfig(learning_rate=1e3, epochs=20)
    )
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
