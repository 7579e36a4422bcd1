"""Built-in baseline classifier, AUC computation and AUC-table import.

The classifier is a deliberately small regularized logistic model trained
by full-batch gradient descent: just enough to run the A-model/B-model
pipeline end to end. Externally produced AUC tables (from whatever model
zoo) are imported from JSON instead of re-training anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .errors import (
    DataError,
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    SchemaMismatchError,
)
from .frame import ColumnKind, TabularFrame
from .splitting import ShockSplit
from .stability import normalize_level

MISSING_CATEGORY = "__missing__"


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with half-credit for ties.

    (number of positive/negative pairs ranked correctly + 0.5 * ties) / (P*N),
    computed via tied ranks in O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DomainError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any():
        raise DomainError("scores contain NaN")
    unique = set(np.unique(labels).tolist())
    if not unique <= {0, 1, 0.0, 1.0}:
        raise DegenerateLabelsError(f"labels must be binary 0/1, got {sorted(unique)}")
    positive = np.asarray(labels, dtype=np.float64) == 1.0
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("both classes must be present")
    ranks = sps.rankdata(scores)  # average ranks for ties
    # exact integer arithmetic (ranks are halves), quantized to the 2^-53
    # lattice, which is symmetric about 1/2: auc(-s) == 1 - auc(s) exactly
    num2 = int(round(float(ranks[positive].sum()) * 2)) - n_pos * (n_pos + 1)
    den2 = 2 * n_pos * n_neg
    q, r = divmod(num2 << 53, den2)
    if 2 * r > den2 or (2 * r == den2 and q & 1):
        q += 1
    return q / float(1 << 53)


@dataclass(frozen=True)
class AucPair:
    auc_base: float
    auc_shock: float
    run_index: int = 0

    def to_dict(self) -> dict:
        return {
            "auc_base": self.auc_base,
            "auc_shock": self.auc_shock,
            "run_index": self.run_index,
        }


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 400
    l2: float = 1e-4
    seed: int = 0


@dataclass
class FeatureEncoding:
    """Train-only standardization and one-hot maps; no test leakage."""

    label: str
    numerical: dict  # name -> (impute mean, center, scale)
    categorical: dict  # name -> tuple of category labels (+ missing bucket)
    feature_names: tuple = ()

    def __post_init__(self):
        names = []
        for name in self.numerical:
            names.append(name)
        for name, cats in self.categorical.items():
            names.extend(f"{name}={c}" for c in cats)
        self.feature_names = tuple(names)

    def design_matrix(self, frame: TabularFrame) -> np.ndarray:
        blocks = []
        for name, (mean, center, scale) in self.numerical.items():
            if name not in frame:
                raise SchemaMismatchError(name, "missing at evaluation time")
            col = frame.column(name)
            if col.kind is not ColumnKind.NUMERICAL:
                raise SchemaMismatchError(name, "expected numerical")
            v = col.values.copy()
            v[np.isnan(v)] = mean
            blocks.append(((v - center) / scale)[:, None])
        for name, cats in self.categorical.items():
            if name not in frame:
                raise SchemaMismatchError(name, "missing at evaluation time")
            col = frame.column(name)
            if col.kind is not ColumnKind.CATEGORICAL:
                raise SchemaMismatchError(name, "expected categorical")
            index = {c: k for k, c in enumerate(cats)}
            # unseen categories map to -1 and encode as all-zero
            codes = np.array(
                [index.get(MISSING_CATEGORY if v is None else str(v), -1) for v in col.values],
                dtype=np.intp,
            )
            rows = np.flatnonzero(codes >= 0)
            block = np.zeros((frame.row_count, len(cats)))
            block[rows, codes[rows]] = 1.0
            blocks.append(block)
        if not blocks:
            return np.zeros((frame.row_count, 0))
        return np.hstack(blocks)


@dataclass
class BaselineModel:
    weights: np.ndarray
    bias: float
    encoding: FeatureEncoding

    def predict_scores(self, frame: TabularFrame) -> np.ndarray:
        z = self.encoding.design_matrix(frame) @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))


def _extract_labels(frame: TabularFrame, label: str) -> np.ndarray:
    if label not in frame:
        raise SchemaMismatchError(label, "label column missing")
    col = frame.column(label)
    if col.kind is not ColumnKind.NUMERICAL:
        raise DegenerateLabelsError(f"label column {label!r} must be numerical 0/1")
    y = col.values
    if np.isnan(y).any():
        raise DegenerateLabelsError(f"label column {label!r} has missing values")
    if not set(np.unique(y).tolist()) <= {0.0, 1.0}:
        raise DegenerateLabelsError(f"label column {label!r} must be binary 0/1")
    return y


def build_encoding(train: TabularFrame, label: str) -> FeatureEncoding:
    numerical = {}
    categorical = {}
    for col in train.columns:
        if col.name == label:
            continue
        if col.kind is ColumnKind.NUMERICAL:
            present = col.non_missing()
            mean = float(np.mean(present)) if present.size else 0.0
            std = float(np.std(present)) if present.size else 0.0
            numerical[col.name] = (mean, mean, std if std > 0 else 1.0)
        else:
            cats = sorted({str(v) for v in col.non_missing()})
            if col.missing_mask.any():
                cats.append(MISSING_CATEGORY)
            categorical[col.name] = tuple(cats)
    return FeatureEncoding(label=label, numerical=numerical, categorical=categorical)


def train_baseline(
    train: TabularFrame, label: str, config: TrainConfig = TrainConfig()
) -> BaselineModel:
    """Fit the regularized logistic baseline by full-batch gradient descent.

    The encoding (imputation means, standardization, one-hot categories) is
    derived from `train` only. Training is deterministic: zero-initialized
    weights, fixed epoch count.
    """
    y = _extract_labels(train, label)
    if y.size == 0:
        raise EmptyInputError("empty training frame")
    if not (0 < y.sum() < y.size):
        raise DegenerateLabelsError("training labels contain a single class")
    encoding = build_encoding(train, label)
    x = encoding.design_matrix(train)
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
    return BaselineModel(weights=w, bias=b, encoding=encoding)


def evaluate_pair(model: BaselineModel, split: ShockSplit, label: str) -> AucPair:
    """AUC on the pre-shock test set and on the shocked test set."""
    pairs = []
    for frame in (split.test, split.shocked_test):
        if frame.row_count == 0:
            raise EmptyInputError("evaluation frame is empty")
        y = _extract_labels(frame, label)
        if not (0 < y.sum() < y.size):
            raise DegenerateLabelsError("evaluation labels contain a single class")
        pairs.append(auc(model.predict_scores(frame), y))
    return AucPair(auc_base=pairs[0], auc_shock=pairs[1], run_index=split.run_index)


# ---------------------------------------------------------------------------
# External AUC tables
# ---------------------------------------------------------------------------

@dataclass
class ImportedAucTable:
    """Per-model, per-level AUC runs for models A and B, plus the dataset DS."""

    ds: float
    entries: list = field(default_factory=list)  # (model, level, [(ba,sa,bb,sb)...])

    def median_records(self) -> list:
        """One batch_uplift record per (model, level): medians over runs."""
        records = []
        for model, level, runs in self.entries:
            arr = np.asarray(runs, dtype=np.float64)
            med = np.median(arr, axis=0)
            records.append((model, level, *[float(v) for v in med]))
        return records

    def per_run_records(self) -> list:
        """One record per (model, level, run), level label suffixed by run."""
        records = []
        for model, level, runs in self.entries:
            for k, run in enumerate(runs):
                records.append((f"{model}#run{k}", level, *run))
        return records


def _check_auc_value(value, where: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{where}: AUC value {value!r} is not a number") from None
    if not (0.0 <= v <= 1.0) or math.isnan(v):
        raise DomainError(f"{where}: AUC {v!r} outside [0, 1]")
    return v


def import_auc_table(path) -> ImportedAucTable:
    """Load {"ds": ..., "models": [{"name", "levels": [{"outliers_pct",
    "runs": [{auc_base_a, auc_shock_a, auc_base_b, auc_shock_b}, ...]}]}]}.

    Every AUC is validated into [0, 1]; an empty model list raises
    EmptyInputError; malformed JSON raises DataError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(payload, dict) or "models" not in payload:
        raise DataError(f"{path}: expected an object with a 'models' list")
    models = payload["models"]
    if not models:
        raise EmptyInputError(f"{path}: empty model list")
    ds = float(payload.get("ds", 0.0))
    table = ImportedAucTable(ds=ds)
    for m in models:
        name = str(m.get("name", ""))
        if not name:
            raise DataError(f"{path}: model entry without a name")
        for lvl in m.get("levels", []):
            if "outliers_pct" not in lvl:
                raise DataError(f"{path}: {name}: level without outliers_pct")
            label = normalize_level(lvl["outliers_pct"])
            runs = []
            for k, run in enumerate(lvl.get("runs", [])):
                where = f"{name}/level {label}/run {k}"
                try:
                    runs.append(
                        (
                            _check_auc_value(run["auc_base_a"], where),
                            _check_auc_value(run["auc_shock_a"], where),
                            _check_auc_value(run["auc_base_b"], where),
                            _check_auc_value(run["auc_shock_b"], where),
                        )
                    )
                except KeyError as exc:
                    raise DataError(f"{path}: {where}: missing field {exc}") from None
            if not runs:
                raise DataError(f"{path}: {name}/level {label} has no runs")
            table.entries.append((name, label, runs))
    return table
