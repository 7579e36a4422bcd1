"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import os
import time
from collections import Counter

import numpy as np
import pytest

from shockstab.calibration import AnchorPoint, calibrate
from shockstab.drift import distribution_shift, ks_statistic, tv_distance
from shockstab.fixtures import make_shocked_fixture
from shockstab.model import auc
from shockstab.pipeline import PipelineConfig, run_pipeline
from shockstab.splitting import SplitSpec
from shockstab.stability import (
    UpliftCoefficients,
    stabilization_score,
    stabilization_uplift,
)
from shockstab.synthesis import OutlierSpec, fit, generate

from conftest import make_frame


def _report(n, text):
    print(f"PASS  criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. metric bounds
# ---------------------------------------------------------------------------

def test_criterion_1_metric_bounds():
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100_000):
        r = stabilization_score(rng.random(), rng.random(), rng.random())
        assert 0.5 <= r.ss <= 1.0
    for _ in range(10_000):
        br = stabilization_uplift(
            (rng.random(), rng.random()),
            (rng.random(), rng.random()),
            rng.random(),
        )
        assert np.isfinite(br.su)
        assert abs(br.su) <= br.w + 1e-15
    elapsed = time.time() - start
    assert elapsed < 10.0, f"bounds suite took {elapsed:.1f}s"
    _report(1, f"1e5 SS in [0.5,1], 1e4 SU finite with |SU|<=w ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. identity zero
# ---------------------------------------------------------------------------

def test_criterion_2_identity_zero():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        pair = (rng.random(), rng.random())
        assert abs(stabilization_uplift(pair, pair, rng.random()).su) <= 1e-15
    _report(2, "1e3 identical A/B pairs give SU = 0 within 1e-15")


# ---------------------------------------------------------------------------
# 3. monotonicity and concavity in ds
# ---------------------------------------------------------------------------

def test_criterion_3_monotone_concave():
    rng = np.random.default_rng(103)
    grid = np.linspace(0.0, 1.0, 1000)
    for _ in range(100):
        delta = rng.uniform(1e-4, 0.5)
        base = 0.5 + delta  # flip-space degradation of exactly delta
        ss = np.array([stabilization_score(base, 0.5, d).ss for d in grid])
        assert np.all(np.diff(ss) > 0.0)
        assert np.all(np.diff(ss, 2) <= 1e-12)
    _report(3, "SS strictly increasing and concave in ds for 100 random deltas")


# ---------------------------------------------------------------------------
# 4. distance oracles
# ---------------------------------------------------------------------------

def _ks_brute(x, y):
    x, y = np.sort(x), np.sort(y)
    lo, hi = min(x[0], y[0]) - 1.0, max(x[-1], y[-1]) + 1.0
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 4001), x, y]))
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def _tv_brute(p, q):
    cp, cq = Counter(p), Counter(q)
    return 0.5 * sum(
        abs(cp[c] / len(p) - cq[c] / len(q)) for c in set(cp) | set(cq)
    )


def test_criterion_4_distance_oracles():
    rng = np.random.default_rng(104)
    for _ in range(200):
        nx, ny = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        x = np.round(rng.normal(0, 2, nx), 1)  # rounding forces ties
        y = np.round(rng.normal(rng.uniform(-2, 2), 2, ny), 1)
        assert abs(ks_statistic(x, y) - _ks_brute(x, y)) <= 1e-12
        p = [str(v) for v in rng.integers(0, 6, nx)]
        q = [str(v) for v in rng.integers(0, 8, ny)]
        assert abs(tv_distance(p, q) - _tv_brute(p, q)) <= 1e-12
    _report(4, "200 small instances: KS and TV match brute-force oracles to 1e-12")


# ---------------------------------------------------------------------------
# 5. AUC oracle
# ---------------------------------------------------------------------------

def _auc_pairs(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        total += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return total / (pos.size * neg.size)


def test_criterion_5_auc_oracle():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)
        a = auc(scores, labels)
        assert abs(a - _auc_pairs(scores, labels)) <= 1e-12
        assert auc(-scores, labels) == 1.0 - a  # exact
    _report(5, "200 sets: AUC equals pair counting to 1e-12, flip exact")


# ---------------------------------------------------------------------------
# 6. derived values
# ---------------------------------------------------------------------------

def test_criterion_6_derived_values():
    assert abs(stabilization_score(0.9, 0.4, 0.0).ss - 0.7000) <= 5e-4
    assert abs(stabilization_score(0.8, 0.7, 0.2250).ss - 0.9169) <= 5e-4
    su = stabilization_uplift((0.75, 0.65), (0.75, 0.74), 0.1).su
    assert abs(su - 0.266) <= 5e-3
    _report(6, "SS(0.9,0.4,0)~0.7000, SS(0.8,0.7,0.2250)~0.9169, SU~0.266")


# ---------------------------------------------------------------------------
# 7. outlier synthesis
# ---------------------------------------------------------------------------

def test_criterion_7_outlier_synthesis():
    start = time.time()
    rng = np.random.default_rng(107)
    n = 600
    x = rng.normal(20.0, 4.0, n)
    y = 0.7 * x + rng.normal(0, 2.0, n)
    z = rng.normal(-5.0, 1.5, n)
    train = make_frame(x=list(x), y=list(y), z=list(z))
    gen = fit(train)

    for pct in (1, 3, 5, 7, 10, 50, 100):
        spec = OutlierSpec("normal", pct / 100.0, total_rows=1000, seed=pct)
        batch = generate(gen, spec)
        expected = round(pct / 100.0 * 1000)
        assert int(batch.outlier_mask.sum()) == expected
        tails = np.nonzero(batch.outlier_mask)[0]
        for i in tails:
            certified = False
            for name, (mean, std) in batch.marginals.items():
                if std > 0:
                    v = batch.frame.column(name).values[i]
                    if abs(v - mean) > spec.tail_sigma * std:
                        certified = True
                        break
            assert certified, f"tail row {i} at level {pct}% inside 3 sigma"

    big = generate(gen, OutlierSpec("normal", 0.0, total_rows=50_000, seed=1))
    xs = np.column_stack([big.frame.column(c).values for c in gen.numerical_names])
    n_big = 50_000
    for j, name in enumerate(gen.numerical_names):
        tol = 3.0 * gen.stds[j] / np.sqrt(n_big)
        assert abs(xs[:, j].mean() - gen.means[j]) <= tol
    sample_cov = np.cov(xs, rowvar=False)
    rel = np.linalg.norm(sample_cov - gen.covariance) / np.linalg.norm(gen.covariance)
    assert rel <= 0.05
    elapsed = time.time() - start
    assert elapsed < 60.0, f"synthesis suite took {elapsed:.1f}s"
    _report(
        7,
        f"exact counts at 7 levels, 100% tails >3 sigma, moments recovered "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. pipeline determinism + shock sensitivity
# ---------------------------------------------------------------------------

def test_criterion_8_pipeline(tmp_path):
    start = time.time()
    frame = make_shocked_fixture()
    csv_path = tmp_path / "shocked.csv"
    frame.to_csv(csv_path)

    drift = distribution_shift(
        *_pre_post(frame), excluded={"date", "is_bad"}
    )
    assert drift.ds >= 0.1

    def _config():
        return PipelineConfig(
            input_path=str(csv_path),
            label="is_bad",
            split=SplitSpec(
                mode="oot",
                date_column="date",
                shock_date="2018-03-22",
                mc_runs=51,
                seed=42,
            ),
            levels=["without", 5, 10],
            seed=42,
        )

    first = run_pipeline(_config())
    second = run_pipeline(_config())
    assert first.to_json(strip_timestamp=True).encode() == second.to_json(
        strip_timestamp=True
    ).encode()

    degradations = sum(
        1 for p in first.a_runs if p.auc_shock < p.auc_base
    )
    assert len(first.a_runs) == 51
    assert degradations >= 40
    elapsed = time.time() - start
    assert elapsed < 300.0, f"pipeline suite took {elapsed:.1f}s"
    _report(
        8,
        f"byte-identical seeded reports, DS={drift.ds:.3f}>=0.1, "
        f"A degrades in {degradations}/51 runs ({elapsed:.1f}s)",
    )


def _pre_post(frame):
    from shockstab.splitting import oot_partition

    spec = SplitSpec(mode="oot", date_column="date", shock_date="2018-03-22")
    pre_idx, post_idx = oot_partition(frame, spec)
    return frame.take(pre_idx), frame.take(post_idx)


# ---------------------------------------------------------------------------
# 9. calibration self-consistency
# ---------------------------------------------------------------------------

def test_criterion_9_calibration_self_consistency():
    target = UpliftCoefficients(100.0, 1000.0, 1000.0)
    rng = np.random.default_rng(109)
    anchors = []
    for _ in range(8):
        # small AUC deltas keep every sigmoid off saturation, so each slope
        # in the sweep grid produces a distinct SU and the search is sharp
        base_a = float(rng.uniform(0.6, 0.9))
        shock_a = base_a + float(rng.uniform(-0.008, 0.008))
        base_b = base_a + float(rng.uniform(-0.008, 0.008))
        shock_b = shock_a + float(rng.uniform(-0.008, 0.008))
        ds = float(rng.uniform(0.0, 0.5))
        a, b = (base_a, shock_a), (base_b, shock_b)
        anchors.append(
            AnchorPoint(
                a[0], a[1], b[0], b[1], ds,
                target_su=stabilization_uplift(a, b, ds, target).su,
            )
        )
    result = calibrate(anchors)  # default grid is the coarse sweep
    assert result.coeffs == target
    assert result.objective == 0.0
    _report(9, "targets at (100,1000,1000) recovered exactly, objective 0")


# ---------------------------------------------------------------------------
# 10. optional open-data check
# ---------------------------------------------------------------------------

def test_criterion_10_lending_club_optional():
    path = os.environ.get("SHOCKSTAB_LC_CSV")
    if not path:
        print("SKIP  criterion 10: optional (set SHOCKSTAB_LC_CSV to enable)")
        pytest.skip("Lending Club data not available")
    from shockstab.frame import load_csv
    from shockstab.splitting import oot_partition

    date_col = os.environ.get("SHOCKSTAB_LC_DATE_COL", "issue_d")
    label = os.environ.get("SHOCKSTAB_LC_LABEL", "loan_condition_int")
    frame = load_csv(path)
    spec = SplitSpec(mode="oot", date_column=date_col, shock_date="2018-03-22")
    pre_idx, post_idx = oot_partition(frame, spec)
    report = distribution_shift(
        frame.take(pre_idx), frame.take(post_idx), excluded={date_col, label}
    )
    assert abs(report.ds - 0.1193) <= 0.02
    _report(10, f"Lending Club DS={report.ds:.4f} within 0.1193 +- 0.02")
