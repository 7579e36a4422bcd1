"""auc's numpy tie ranks against the scipy.stats.rankdata reference, bit for bit."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from shockstab.model import auc


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
