import copy
import json

import numpy as np
import pytest

from shockstab.errors import (
    DataError,
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    SchemaMismatchError,
)
from shockstab.fixtures import make_shocked_fixture
from shockstab.model import (
    MISSING_CATEGORY,
    TrainConfig,
    auc,
    build_encoding,
    evaluate_pair,
    import_auc_table,
    train_baseline,
)
from shockstab.splitting import ShockSplit

from conftest import make_frame


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
    """A verbatim copy of train_baseline's gradient-descent loop.

    Reports are compared byte for byte, so a rewrite of the loop must give
    the same bits as this one.
    """
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
    frame = make_shocked_fixture(rows=rows).drop_columns({"date"})
    config = TrainConfig()
    model = train_baseline(frame, "is_bad", config)
    x = model.encoding.design_matrix(frame)
    w, b = _reference_gd(x, frame.column("is_bad").values, config)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias.hex() == b.hex()


def test_one_hot_equals_per_row_reference():
    train = make_frame(s=["b", "a", None, "c", "a"], label=[0.0, 1.0, 0.0, 1.0, 1.0])
    enc = build_encoding(train, "label")
    test = make_frame(s=["a", "unseen", None, "c", "b", "None"], label=[0.0] * 6)
    cats = enc.categorical["s"]
    expected = np.zeros((test.row_count, len(cats)))
    for i, v in enumerate(test.column("s").values):
        key = MISSING_CATEGORY if v is None else str(v)
        if key in cats:
            expected[i, cats.index(key)] = 1.0
    assert enc.design_matrix(test).tobytes() == expected.tobytes()
    assert enc.design_matrix(test.take([])).shape == (0, len(cats))


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
    split = ShockSplit(train=frame, test=frame, shocked_test=frame, run_index=2)
    pair = evaluate_pair(model, split, "label")
    assert pair.auc_base == pair.auc_shock
    assert pair.run_index == 2


def test_evaluate_pair_empty_shock_errors():
    frame = _separable_frame(seed=6)
    empty = frame.take([])
    model = train_baseline(frame, "label")
    split = ShockSplit(train=frame, test=frame, shocked_test=empty, run_index=0)
    with pytest.raises(EmptyInputError):
        evaluate_pair(model, split, "label")


def test_schema_mismatch_at_evaluation():
    frame = _separable_frame(seed=7)
    model = train_baseline(frame, "label")
    other = make_frame(x1=[0.0, 1.0], label=[0.0, 1.0])
    with pytest.raises(SchemaMismatchError):
        model.predict_scores(other)


# ---------------------------------------------------------------------------
# AUC table import
# ---------------------------------------------------------------------------

def _nested_table(models=8, levels=8, runs=51, seed=0):
    rng = np.random.default_rng(seed)
    level_labels = ["without", 1, 3, 5, 7, 10, 50, 100][:levels]
    return {
        "ds": 0.1193,
        "models": [
            {
                "name": f"model{i}",
                "levels": [
                    {
                        "outliers_pct": lvl,
                        "runs": [
                            {
                                "auc_base_a": float(rng.uniform(0.5, 1)),
                                "auc_shock_a": float(rng.uniform(0.5, 1)),
                                "auc_base_b": float(rng.uniform(0.5, 1)),
                                "auc_shock_b": float(rng.uniform(0.5, 1)),
                            }
                            for _ in range(runs)
                        ],
                    }
                    for lvl in level_labels
                ],
            }
            for i in range(models)
        ],
    }


def test_import_auc_table_aggregates_to_64_cells(tmp_path):
    path = tmp_path / "aucs.json"
    path.write_text(json.dumps(_nested_table()), encoding="utf-8")
    table = import_auc_table(path)
    records = table.median_records()
    assert len(records) == 64
    assert table.ds == pytest.approx(0.1193)
    # medians match a direct numpy median over the runs
    raw = _nested_table()
    first = raw["models"][0]["levels"][0]["runs"]
    expected = float(np.median([r["auc_base_a"] for r in first]))
    assert records[0][2] == pytest.approx(expected)


def test_import_auc_table_range_error(tmp_path):
    payload = _nested_table(models=1, levels=1, runs=2)
    payload["models"][0]["levels"][0]["runs"][1]["auc_shock_b"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DomainError) as err:
        import_auc_table(path)
    assert "model0" in str(err.value)
    assert "run 1" in str(err.value)


def test_import_auc_table_empty_models(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ds": 0.1, "models": []}), encoding="utf-8")
    with pytest.raises(EmptyInputError):
        import_auc_table(path)


def test_import_auc_table_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        import_auc_table(path)


def test_per_run_records(tmp_path):
    path = tmp_path / "aucs.json"
    path.write_text(
        json.dumps(_nested_table(models=2, levels=2, runs=3)), encoding="utf-8"
    )
    table = import_auc_table(path)
    records = table.per_run_records()
    assert len(records) == 12
    assert records[0][0] == "model0#run0"
