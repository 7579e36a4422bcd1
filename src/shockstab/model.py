"""Built-in baseline classifier and AUC computation.

The classifier is a deliberately small regularized logistic model trained
by full-batch gradient descent on a column-major copy of its design: just
enough to run the A-model/B-model pipeline end to end. Each model's weights
are bitwise the expression form `train_baseline` states, evaluated on that
column-major design. `train_baselines` trains several models in one loop
per group of equal-shape designs and still gives each the bits it gets
trained alone. Scoring reads the row-major design.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import Config, setting
from .errors import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    SchemaMismatchError,
)
from .frame import ColumnKind, TabularFrame

MISSING_CATEGORY = "__missing__"


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, each tie group given its mean rank.

    A group spanning sorted positions start .. end - 1 holds ranks
    start + 1 .. end, whose mean (start + 1 + end) / 2 is a half-integer,
    so every rank is exact in float64.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


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
    ranks = _average_ranks(scores)
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
        return asdict(self)


@dataclass(frozen=True)
class TrainConfig(Config):
    learning_rate: float = setting(0.5, "a number", "> 0")
    epochs: int = setting(400, "an integer", ">= 0")
    l2: float = setting(1e-4, "a number", ">= 0")
    seed: int = setting(0, "an integer")


@dataclass
class FeatureEncoding:
    """Train-only standardization and one-hot maps; no test leakage."""

    numerical: dict  # name -> (mean, scale): impute with the mean, then standardize
    categorical: dict  # name -> tuple of category labels (+ missing bucket)

    def design_matrix(self, frame: TabularFrame) -> np.ndarray:
        blocks = []
        for name, (mean, scale) in self.numerical.items():
            if name not in frame:
                raise SchemaMismatchError(name, "missing at evaluation time")
            col = frame.column(name)
            if col.kind is not ColumnKind.NUMERICAL:
                raise SchemaMismatchError(name, "expected numerical")
            v = col.values.copy()
            v[np.isnan(v)] = mean
            blocks.append(((v - mean) / scale)[:, None])
        for name, cats in self.categorical.items():
            if name not in frame:
                raise SchemaMismatchError(name, "missing at evaluation time")
            col = frame.column(name)
            if col.kind is not ColumnKind.CATEGORICAL:
                raise SchemaMismatchError(name, "expected categorical")
            index = {c: k for k, c in enumerate(cats)}
            # a category's slot is keyed on its text, so 1 and "1" share one;
            # unseen categories map to -1 and encode as all-zero
            codes = col.recode(
                [index.get(str(c), -1) for c in col.categories],
                missing=index.get(MISSING_CATEGORY, -1),
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


def extract_labels(frame: TabularFrame, label: str) -> np.ndarray:
    """The values of `frame`'s label column, which must be numerical 0/1.

    A missing column raises SchemaMismatchError; a categorical one, a
    missing value or a value other than 0 and 1 raises
    DegenerateLabelsError.
    """
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
    """The imputation means, scales and one-hot categories of `train`'s
    features. A numerical column whose mean or standard deviation is not
    finite (values past about 1e154 overflow its squares) raises
    DomainError, naming it."""
    numerical = {}
    categorical = {}
    for col in train.columns:
        if col.name == label:
            continue
        if col.kind is ColumnKind.NUMERICAL:
            numerical[col.name] = _scale(col)
        else:
            # the categories the rows hold: a taken column may list more
            held = col.counts() > 0
            cats = sorted({str(c) for c, h in zip(col.categories, held) if h})
            if col.missing_mask.any():
                cats.append(MISSING_CATEGORY)
            categorical[col.name] = tuple(cats)
    return FeatureEncoding(numerical=numerical, categorical=categorical)


def _scale(col) -> tuple[float, float]:
    """(mean, std) of a numerical column's present values, std 1.0 for a
    constant or empty column."""
    present = col.non_missing()
    if not present.size:
        return 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean, std = float(np.mean(present)), float(np.std(present))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DomainError(
            f"column {col.name!r} spreads beyond float's range: its "
            "standard deviation cannot be computed"
        )
    return mean, std if std > 0 else 1.0


def _design(train: TabularFrame, label: str) -> tuple:
    """(encoding, column-major design matrix, labels) of a training frame."""
    y = extract_labels(train, label)
    if y.size == 0:
        raise EmptyInputError("empty training frame")
    if not (0 < y.sum() < y.size):
        raise DegenerateLabelsError("training labels contain a single class")
    encoding = build_encoding(train, label)
    return encoding, np.asfortranarray(encoding.design_matrix(train)), y


def train_baseline(
    train: TabularFrame, label: str, config: TrainConfig = TrainConfig()
) -> BaselineModel:
    """Fit the regularized logistic baseline by full-batch gradient descent.

    The encoding (imputation means, standardization, one-hot categories) is
    derived from `train` only. Training is deterministic: zero-initialized
    weights, fixed epoch count. Each epoch computes
    err = 1 / (1 + exp(-clip(x @ w + b, -700, 700))) - y,
    grad_w = x.T @ err / n + l2 * w and grad_b = mean(err), with x the
    column-major (Fortran-order) design, whose two products read whole
    columns at about half the row-major cost. BLAS sums them in another
    order than on a row-major x, so the weights are those of this layout.

    This is `train_baselines([train], ...)[0]`. Its loop, which runs k
    models of one design shape together, gives bitwise the weights and
    bias of that expression form for each model:
    - The two gemvs and the bias update run once per model. The gemvs call
      np.dot, which makes the same BLAS call as np.matmul at less cost per
      call; the bias stays a Python float.
    - Every other pass is elementwise or per weight, so it runs once on the
      (k, n) or (k, d) stack and gives each row the bits it would alone.
    - The loop keeps the negated weights v = -w and bias c = -b, so
      x @ v + c is -(x @ w + b) and exp takes it with no negation pass.
      IEEE rounding is symmetric, so every nonzero value is the exact
      negation of its counterpart. Only the sign of a zero can differ, and
      no later value depends on it: exp(+-0) = 1, and a zero added to a
      nonzero term leaves it. The expression form never makes a -0 weight
      or bias (w - t is -0 only when w is), so 0.0 - v returns its bits.
    - |x_i @ v + c| <= max_i ||x_i||_1 * max|v| + |c|, and rounding adds
      far less than 1, so while that bound is below 699 the clip to +-700
      is the identity and is skipped. A NaN or inf bound takes the clip.
    """
    return train_baselines([train], label, config)[0]


def train_baselines(
    frames, label: str, config: TrainConfig = TrainConfig()
) -> list[BaselineModel]:
    """`train_baseline` of every frame, bit for bit, in one loop per shape.

    `frames` is any iterable, read once. Each frame's labels are checked
    and its design built as it is read, before any model trains, so a bad
    frame raises its error first, and a generator's frames need not be
    held together. Designs of equal shape share one gradient-descent loop;
    each other shape gets its own. A loop whose weights or bias end
    non-finite, as a too large learning_rate makes them, raises DomainError.
    """
    designs = [_design(frame, label) for frame in frames]
    groups = {}
    for i, (_, x, _) in enumerate(designs):
        groups.setdefault(x.shape, []).append(i)
    models = [None] * len(designs)
    for members in groups.values():
        encodings, xs, ys = zip(*(designs[i] for i in members))
        # a diverging loop overflows to inf and NaN; the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = _descend(xs, np.stack(ys), config)
        if not all(np.isfinite(w).all() and np.isfinite(b) for w, b in fitted):
            raise DomainError(
                "gradient descent diverged to non-finite weights at "
                f"learning_rate {config.learning_rate!r}"
            )
        for i, encoding, (w, b) in zip(members, encodings, fitted):
            models[i] = BaselineModel(weights=w, bias=b, encoding=encoding)
    return models


def _descend(xs, y: np.ndarray, config: TrainConfig) -> list:
    """(weights, bias) of each column-major (n, d) design in `xs`, its
    labels the rows of the (k, n) stack `y`; `train_baseline` states why
    the bits are those of the expression form on that layout."""
    k, n = y.shape
    d = xs[0].shape[1]
    lr = config.learning_rate
    l2 = config.l2
    x_norm = max(float(np.add.reduce(np.abs(x), axis=1).max()) for x in xs)
    v = np.zeros((k, d))
    c = [0.0] * k
    c_column = np.zeros((k, 1))
    u = np.empty((k, n))
    grad = np.empty((k, d))
    scratch = np.empty((k, d))
    forward = list(zip(xs, v, u))
    backward = list(zip(range(k), [x.T for x in xs], u, grad))
    for _ in range(config.epochs):
        for x, v_i, u_i in forward:
            np.dot(x, v_i, out=u_i)
        u += c_column
        np.absolute(v, out=scratch)
        v_max = np.maximum.reduce(scratch, axis=None, initial=0.0)
        if not x_norm * v_max + max(map(abs, c)) < 699.0:
            np.maximum(u, -700, out=u)  # np.clip(u, -700, 700)
            np.minimum(u, 700, out=u)
        np.exp(u, out=u)
        u += 1.0
        np.divide(1.0, u, out=u)
        u -= y
        for i, xt, u_i, g_i in backward:
            np.dot(xt, u_i, out=g_i)
            c[i] += lr * float(np.add.reduce(u_i) / n)  # b -= lr * err.mean()
            c_column[i, 0] = c[i]
        grad /= n
        np.multiply(v, l2, out=scratch)
        grad -= scratch
        grad *= lr
        v += grad
    return [(0.0 - v_i, 0.0 - c_i) for v_i, c_i in zip(v, c)]


def evaluate_pair(
    model: BaselineModel, test: TabularFrame, shocked: TabularFrame, label: str, run_index: int
) -> AucPair:
    """Run `run_index`'s AUC on the pre-shock test set and on the shocked test set."""
    pairs = []
    for frame in (test, shocked):
        if frame.row_count == 0:
            raise EmptyInputError("evaluation frame is empty")
        y = extract_labels(frame, label)
        if not (0 < y.sum() < y.size):
            raise DegenerateLabelsError("evaluation labels contain a single class")
        pairs.append(auc(model.predict_scores(frame), y))
    return AucPair(auc_base=pairs[0], auc_shock=pairs[1], run_index=run_index)

