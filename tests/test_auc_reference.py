"""auc's numpy tie ranks against the scipy.stats.rankdata reference, bit for bit."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from shockstab.frame import TabularFrame
from shockstab.model import auc, evaluate_pair

from conftest import num_col, undated_fixture_model


def _reference_auc(scores, labels) -> float:
    """auc as it was computed with scipy.stats.rankdata's average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels, dtype=np.float64) == 1.0
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    ranks = stats.rankdata(scores)
    num2 = int(round(float(ranks[positive].sum()) * 2)) - n_pos * (n_pos + 1)
    den2 = 2 * n_pos * n_neg
    q, r = divmod(num2 << 53, den2)
    if 2 * r > den2 or (2 * r == den2 and q & 1):
        q += 1
    return q / float(1 << 53)


# A few distinct values, so most scores tie with others; -0.0 and 0.0 tie too.
_SCORE = st.one_of(
    st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0, np.inf]),
    st.floats(-1e3, 1e3),
)
_SAMPLE = st.lists(st.tuples(_SCORE, st.sampled_from([0, 1])), min_size=2, max_size=300)


@settings(max_examples=300, deadline=None)
@given(_SAMPLE)
def test_auc_equals_rankdata_reference(sample):
    scores, labels = (np.array(v) for v in zip(*sample))
    assume(0 < labels.sum() < labels.size)
    assert auc(scores, labels) == _reference_auc(scores, labels)


@settings(max_examples=300, deadline=None)
@given(_SAMPLE)
def test_auc_negated_scores_give_one_minus_auc(sample):
    scores, labels = (np.array(v) for v in zip(*sample))
    assume(0 < labels.sum() < labels.size)
    assert auc(-scores, labels) == 1.0 - auc(scores, labels)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.integers(0, 599), min_size=1, max_size=5, unique=True),
    cells=st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.0, 1.0])),
                   min_size=2, max_size=200),
)
# copies of row 38 labelled 1, 1, 0: a row-major BLAS product scored the
# last copy lower, and auc read 1.0 where tie credit gives 0.5
@example(rows=[38], cells=[(0, 1.0), (0, 1.0), (0, 0.0)])
def test_evaluate_pair_gives_duplicated_rows_tie_credit(rows, cells):
    frame, model = undated_fixture_model()
    picks, labels = zip(*cells)
    assume(0 < sum(labels) < len(labels))
    taken = frame.take([rows[p % len(rows)] for p in picks])
    test = TabularFrame(
        [num_col("is_bad", labels) if c.name == "is_bad" else c for c in taken.columns]
    )
    pair = evaluate_pair(model, test, test.take(np.arange(len(picks))[::-1]), "is_bad", 0)
    # each distinct row scored once, alone, so its copies tie
    alone = {r: model.predict_scores(frame.take([r]))[0] for r in rows}
    reference = _reference_auc([alone[rows[p % len(rows)]] for p in picks], labels)
    assert pair.auc_base == pair.auc_shock == reference
