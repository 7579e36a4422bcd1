import itertools

import numpy as np
import pytest

from shockstab.calibration import (
    AnchorPoint,
    DEFAULT_SWEEP,
    calibrate,
    sensitivity_sweep,
)
from shockstab.errors import ConfigError, DomainError
from shockstab.stability import UpliftCoefficients, stabilization_uplift


def _anchors_from(coeffs, seed=0, count=6):
    """Targets generated by evaluating SU at the given coefficients.

    AUC deltas stay small so no logistic saturates: every candidate slope
    yields a distinct SU and the grid search has a unique minimum.
    """
    rng = np.random.default_rng(seed)
    anchors = []
    for _ in range(count):
        base_a = float(rng.uniform(0.6, 0.9))
        a = (base_a, base_a + float(rng.uniform(-0.008, 0.008)))
        b = (
            base_a + float(rng.uniform(-0.008, 0.008)),
            a[1] + float(rng.uniform(-0.008, 0.008)),
        )
        ds = float(rng.uniform(0.0, 0.5))
        su = stabilization_uplift(a, b, ds, coeffs).su
        anchors.append(
            AnchorPoint(a[0], a[1], b[0], b[1], ds, target_su=su)
        )
    return anchors


def test_self_consistency_recovers_defaults():
    target = UpliftCoefficients(100.0, 1000.0, 1000.0)
    anchors = _anchors_from(target)
    result = calibrate(anchors)
    assert result.coeffs == target
    assert result.objective == 0.0
    assert len(result.grid_trace) == 27


def test_identity_anchor_ties_break_to_smallest():
    anchor = AnchorPoint(0.8, 0.7, 0.8, 0.7, ds=0.2, target_su=0.0)
    result = calibrate([anchor])
    assert result.objective == 0.0
    assert (result.coeffs.k1, result.coeffs.k2, result.coeffs.k3) == (50.0, 500.0, 500.0)
    assert all(obj == 0.0 for _, obj in result.grid_trace)


def test_default_grid_is_the_coarse_sweep():
    assert DEFAULT_SWEEP == {
        "k1": (50.0, 100.0, 200.0),
        "k2": (500.0, 1000.0, 2000.0),
        "k3": (500.0, 1000.0, 2000.0),
    }


def test_calibrate_validation():
    anchor = AnchorPoint(0.8, 0.7, 0.8, 0.75, ds=0.2, target_su=0.5)
    with pytest.raises(ConfigError):
        calibrate([])
    with pytest.raises(ConfigError):
        calibrate([anchor], grid={"k1": [], "k2": [1000], "k3": [1000]})
    with pytest.raises(ConfigError):
        calibrate([anchor], grid={"k1": [1e9], "k2": [1000], "k3": [1000]})
    with pytest.raises(DomainError):
        AnchorPoint(1.2, 0.7, 0.8, 0.7, ds=0.2, target_su=0.0)
    with pytest.raises(DomainError):
        AnchorPoint(0.8, 0.7, 0.8, 0.7, ds=0.2, target_su=2.0)
    with pytest.raises(DomainError):
        AnchorPoint(0.8, 0.7, 0.8, 0.7, ds=0.2, target_su=0.0, confidence=0.0)


_OVERFLOWS = "confidence-weighted error overflows"


@pytest.mark.parametrize(
    "confidences, targets, message",
    [((1e308, 1e308), (-1.0, 1.0), _OVERFLOWS),
     ((float("inf"),), (0.0,), "confidence must be a number > 0, got inf"),
     ((1.7e308, 9e307), (0.9, 0.7), _OVERFLOWS)],
    ids=["error-overflows", "infinite-confidence", "confidence-sum-overflows"],
)
def test_calibrate_overflowing_weighted_error_is_domain_error(confidences, targets, message):
    # an overflowing objective would leave no finite winner, or a winner
    # picked by an objective of inf/inf or x/inf; an infinite confidence is
    # refused as the anchor is built
    with pytest.raises(DomainError, match=message):
        calibrate([
            AnchorPoint(0.8, 0.7, 0.8, 0.7, ds=0.2, target_su=t, confidence=c)
            for c, t in zip(confidences, targets)
        ])


def test_winner_matches_brute_force():
    anchors = [
        AnchorPoint(0.80, 0.70, 0.82, 0.78, ds=0.22, target_su=0.5, confidence=2.0),
        AnchorPoint(0.75, 0.65, 0.75, 0.74, ds=0.10, target_su=0.3),
        AnchorPoint(0.90, 0.85, 0.88, 0.80, ds=0.05, target_su=0.0),
    ]
    result = calibrate(anchors)

    def brute_obj(coeffs):
        num = den = 0.0
        for a in anchors:
            su = stabilization_uplift(
                (a.a_base, a.a_shock), (a.b_base, a.b_shock), a.ds, coeffs
            ).su
            num += a.confidence * (su - a.target_su) ** 2
            den += a.confidence
        return num / den

    best = min(
        (
            (brute_obj(UpliftCoefficients(k1, k2, k3)), (k1, k2, k3))
            for k1, k2, k3 in itertools.product(
                (50.0, 100.0, 200.0), (500.0, 1000.0, 2000.0), (500.0, 1000.0, 2000.0)
            )
        ),
    )
    assert result.objective == pytest.approx(best[0], rel=1e-12)
    assert (result.coeffs.k1, result.coeffs.k2, result.coeffs.k3) == best[1]


def test_monotone_refinement():
    anchors = _anchors_from(UpliftCoefficients(120.0, 900.0, 1100.0), seed=4)
    small = calibrate(anchors, grid={"k1": [100], "k2": [1000], "k3": [1000]})
    bigger = calibrate(
        anchors, grid={"k1": [100, 120], "k2": [900, 1000], "k3": [1000, 1100]}
    )
    assert bigger.objective <= small.objective


def test_calibrate_deterministic():
    anchors = _anchors_from(UpliftCoefficients(), seed=9)
    a = calibrate(anchors)
    b = calibrate(anchors)
    assert a.coeffs == b.coeffs
    assert a.objective == b.objective
    assert a.grid_trace == b.grid_trace


# ---------------------------------------------------------------------------
# sensitivity sweep
# ---------------------------------------------------------------------------

def _grid_records(seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for model in ("m1", "m2"):
        for lvl in ("without", 5, 10):
            records.append(
                (
                    model,
                    lvl,
                    rng.uniform(0.6, 0.9),
                    rng.uniform(0.6, 0.9),
                    rng.uniform(0.6, 0.9),
                    rng.uniform(0.6, 0.9),
                )
            )
    return records


def test_sweep_single_point_trivially_preserved():
    records = _grid_records()
    report = sensitivity_sweep(
        records, ds=0.2, sweep={"k1": [100.0], "k2": [1000.0], "k3": [1000.0]}
    )
    assert len(report.entries) == 1
    assert report.all_preserved
    assert report.entries[0]["all_signs_preserved"]
    assert report.entries[0]["argmax_preserved"]


def test_sweep_empty_is_config_error():
    with pytest.raises(ConfigError):
        sensitivity_sweep(_grid_records(), ds=0.2, sweep={"k1": [], "k2": [1], "k3": [1]})


def test_sweep_dominant_cell_reported_across_27_points():
    # one cell dominates: B hugely better for m1@5, everything else identical
    records = [
        ("m1", "without", 0.8, 0.7, 0.8, 0.7),
        ("m1", 5, 0.8, 0.7, 0.95, 0.94),
        ("m1", 10, 0.8, 0.7, 0.8, 0.7),
    ]
    report = sensitivity_sweep(records, ds=0.2)
    assert len(report.entries) == 27
    for entry in report.entries:
        assert entry["argmax_by_model"]["m1"]["baseline_level"] == "5"
        assert entry["argmax_by_model"]["m1"]["preserved"]
    assert report.all_preserved
