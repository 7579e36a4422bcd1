import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab.calibration import sensitivity_sweep
from shockstab.errors import ConfigError, DomainError, DuplicateKeyError
from shockstab.pipeline import emit_digest
from shockstab.stability import (
    UpliftCoefficients,
    batch_uplift,
    check_auc,
    flip_auc,
    level_sort_key,
    stabilization_score,
    stabilization_uplift,
    _sigmoid,
)

# Frozen against a 50-digit evaluation of the score/uplift formulas.
SS_09_04_DS0 = 0.70000299995500070
SS_08_07_DS0225 = 0.91687095679111335
SU_WORKED = 0.26648605124576667


def test_flip_fixed_point_and_reflection():
    assert flip_auc(0.5) == 0.5
    assert flip_auc(0.2) == pytest.approx(0.8)
    assert flip_auc(1.0) == 1.0


def test_flip_idempotent_random():
    rng = np.random.default_rng(1)
    for a in rng.random(200):
        assert flip_auc(flip_auc(a)) == flip_auc(a)


def test_flip_domain_error():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(DomainError):
            flip_auc(bad)


def test_ss_zero_degradation_is_one():
    for ds in (0.0, 0.1, 0.9):
        assert stabilization_score(0.8, 0.8, ds).ss == 1.0


def test_ss_frozen_values():
    assert stabilization_score(0.9, 0.4, 0.0).ss == pytest.approx(
        SS_09_04_DS0, abs=5e-4
    )
    assert stabilization_score(0.8, 0.7, 0.2250).ss == pytest.approx(
        SS_08_07_DS0225, abs=5e-4
    )
    # and to full precision against the independent evaluation
    assert stabilization_score(0.9, 0.4, 0.0).ss == pytest.approx(
        SS_09_04_DS0, abs=1e-12
    )
    assert stabilization_score(0.8, 0.7, 0.2250).ss == pytest.approx(
        SS_08_07_DS0225, abs=1e-12
    )


def test_ss_domain_errors():
    with pytest.raises(DomainError):
        stabilization_score(0.8, 0.7, -0.1)
    with pytest.raises(DomainError):
        stabilization_score(1.2, 0.7, 0.1)
    with pytest.raises(DomainError):
        stabilization_score(0.8, 0.7, 0.1, epsilon=0.0)


def test_ss_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(5000):
        r = stabilization_score(rng.random(), rng.random(), rng.random())
        assert 0.5 <= r.ss <= 1.0


def test_ss_monotone_in_degradation():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ds = rng.random()
        base = rng.uniform(0.5, 1.0)
        d1, d2 = sorted(rng.uniform(0.0, base - 0.5, 2))
        ss_small = stabilization_score(base, base - d1, ds).ss
        ss_large = stabilization_score(base, base - d2, ds).ss
        assert ss_large <= ss_small


def test_ss_monotone_and_concave_in_ds():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 1.0, 1000)
    for _ in range(20):
        base = rng.uniform(0.5, 1.0)
        shock = rng.uniform(0.5, base)
        if base == shock:
            continue
        ss = np.array([stabilization_score(base, shock, d).ss for d in grid])
        assert np.all(np.diff(ss) > 0)
        assert np.all(np.diff(ss, 2) <= 1e-12)


def test_sigmoid_guards():
    assert _sigmoid(0.0) == 0.5
    assert _sigmoid(800.0) == 1.0
    assert _sigmoid(-800.0) == 0.0
    assert 0.0 < _sigmoid(-30.0) < 0.5 < _sigmoid(30.0) < 1.0


def test_su_identity_zero_exact():
    rng = np.random.default_rng(5)
    for _ in range(500):
        pair = (rng.random(), rng.random())
        br = stabilization_uplift(pair, pair, rng.random())
        assert br.su == 0.0
        assert br.w == 0.5
        assert br.w_sup == 0.5
        assert br.w_a == br.w_b


def test_su_worked_example():
    br = stabilization_uplift((0.75, 0.65), (0.75, 0.74), 0.1)
    assert br.w_a == pytest.approx(4.5397868702434395e-05, rel=1e-9)
    assert br.w_b == pytest.approx(0.26894142136999512, rel=1e-12)
    assert br.w == pytest.approx(1.0, abs=1e-15)
    assert br.w_sup == pytest.approx(1.0, abs=1e-15)
    assert br.ss_b == pytest.approx(0.99087024188494014, abs=1e-12)
    assert br.su == pytest.approx(SU_WORKED, abs=5e-3)
    assert br.su == pytest.approx(SU_WORKED, abs=1e-12)


def test_su_tiny_when_b_trails_on_shock():
    # shock_B - shock_A = -0.05 at k2 = 1000 bounds |su| by w ~ e^-50
    br = stabilization_uplift((0.80, 0.75), (0.80, 0.70), 0.1)
    assert abs(br.su) <= br.w
    assert br.w == pytest.approx(math.exp(-50), rel=1e-6)
    assert abs(br.su) < 1e-3


def test_su_positive_under_weak_dominance():
    rng = np.random.default_rng(6)
    for _ in range(500):
        base_a = rng.uniform(0.5, 0.95)
        shock_a = rng.uniform(0.5, 0.95)
        base_b = base_a + rng.uniform(0.0, 1.0 - base_a)
        shock_b = shock_a + rng.uniform(1e-6, 1.0 - shock_a)
        br = stabilization_uplift((base_a, shock_a), (base_b, shock_b), rng.random())
        assert br.su > 0.0


def test_su_bounded_by_w():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        br = stabilization_uplift(
            (rng.random(), rng.random()),
            (rng.random(), rng.random()),
            rng.random(),
        )
        assert math.isfinite(br.su)
        assert abs(br.su) <= br.w + 1e-15


def test_flip_invariance_of_ss_and_su():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = (rng.random(), rng.random())
        b = (rng.random(), rng.random())
        ds = rng.random()
        ref = stabilization_uplift(a, b, ds)
        for variant in (
            ((1 - a[0], a[1]), b),
            ((a[0], 1 - a[1]), b),
            (a, (1 - b[0], b[1])),
            (a, (b[0], 1 - b[1])),
        ):
            assert stabilization_uplift(variant[0], variant[1], ds).su == ref.su
        assert (
            stabilization_score(1 - a[0], a[1], ds).ss
            == stabilization_score(a[0], a[1], ds).ss
        )


def test_weight_ranges():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        br = stabilization_uplift(
            (rng.random(), rng.random()),
            (rng.random(), rng.random()),
            rng.random(),
        )
        for w in (br.w_a, br.w_b, br.w, br.w_sup, br.w_a_adj, br.w_b_adj):
            assert 0.0 <= w <= 1.0


def test_coefficients_validation():
    with pytest.raises(ConfigError):
        UpliftCoefficients(k1=0.0)
    with pytest.raises(ConfigError):
        UpliftCoefficients(k2=float("inf"))
    with pytest.raises(ConfigError):
        UpliftCoefficients(k3=-5.0)


def test_su_display_clamps_negative():
    br = stabilization_uplift((0.6, 0.9), (0.6, 0.61), 0.1)
    assert br.su < 0 or br.su == 0.0  # B trails badly on shock
    assert br.su_display >= 0.0
    d = br.to_dict()
    assert d["su"] == br.su
    assert d["su_display"] == br.su_display


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_batch_single_identical_record():
    grid = batch_uplift([("m", "without", 0.7, 0.6, 0.7, 0.6)], ds=0.1)
    assert grid.cell("without", "m").su == 0.0


def test_batch_duplicate_key():
    records = [
        ("m", 5, 0.7, 0.6, 0.7, 0.65),
        ("m", "5", 0.7, 0.6, 0.7, 0.66),
    ]
    with pytest.raises(DuplicateKeyError):
        batch_uplift(records, ds=0.1)


@pytest.mark.parametrize("name", [None, 7, "", [1]], ids=["none", "int", "empty", "list"])
def test_batch_refuses_a_model_name_that_is_not_text(name):
    records = [("m", 5, 0.8, 0.7, 0.81, 0.76), (name, 5, 0.8, 0.7, 0.81, 0.76)]
    with pytest.raises(DomainError, match=r"^record 1 model must be a non-empty string, got "):
        batch_uplift(records, 0.1)


def test_batch_grid_matches_cellwise_recompute():
    rng = np.random.default_rng(10)
    models = [f"model{i}" for i in range(8)]
    levels = ["without", 1, 3, 5, 7, 10, 50, 100]
    records = []
    for m in models:
        for lvl in levels:
            records.append(
                (m, lvl, rng.random(), rng.random(), rng.random(), rng.random())
            )
    grid = batch_uplift(records, ds=0.18)
    assert len(grid.cells) == 64
    for m, lvl, ba, sa, bb, sb in records:
        expected = stabilization_uplift((ba, sa), (bb, sb), 0.18)
        assert grid.cell(lvl, m).su == expected.su


def test_batch_level_ordering_and_top3():
    records = [
        ("m", 10, 0.7, 0.6, 0.7, 0.71),
        ("m", "without", 0.7, 0.6, 0.7, 0.6),
        ("n", 5, 0.7, 0.6, 0.9, 0.9),
        ("m", 5, 0.7, 0.6, 0.7, 0.6),
    ]
    grid = batch_uplift(records, ds=0.1)
    assert grid.levels == ["without", "5", "10"]
    assert grid.models == ["m", "n"]
    top = grid.top3()
    # m@10 (~0.72) beats n@5 (~0.5); the zero cells tie-break by level order
    assert (top[0]["model"], top[0]["level"]) == ("m", "10")
    assert (top[1]["model"], top[1]["level"]) == ("n", "5")
    assert (top[2]["model"], top[2]["level"]) == ("m", "without")
    assert [t["rank"] for t in top] == [1, 2, 3]
    d = grid.to_dict()
    assert [r["outliers_pct"] for r in d["rows"]] == ["without", "5", "10"]
    assert d["rows"][1]["cells"]["n"]["su"] > 0
    assert d["rows"][0]["cells"]["n"] is None  # absent cell stays explicit


# Property tests over the metric bounds: any finite AUCs in [0, 1], any
# finite DS >= 0 and epsilon > 0, and any positive logistic slopes.
_aucs = st.floats(0.0, 1.0)
_pairs = st.tuples(_aucs, _aucs)
_ds = st.floats(0.0, 1e6)
_epsilons = st.floats(5e-324, 1e6)
_coefficients = st.builds(
    UpliftCoefficients, *(st.floats(1e-6, 1e6) for _ in range(3))
)


@settings(max_examples=500, deadline=None)
@given(auc_base=_aucs, auc_shock=_aucs, ds=_ds, epsilon=_epsilons)
def test_ss_lies_in_half_to_one(auc_base, auc_shock, ds, epsilon):
    assert 0.5 <= stabilization_score(auc_base, auc_shock, ds, epsilon).ss <= 1.0


@settings(max_examples=500, deadline=None)
@given(a=_pairs, b=_pairs, ds=_ds, coeffs=_coefficients, epsilon=_epsilons)
def test_su_magnitude_is_bounded_by_w(a, b, ds, coeffs, epsilon):
    br = stabilization_uplift(a, b, ds, coeffs, epsilon)
    assert math.isfinite(br.su)
    assert abs(br.su) <= br.w


@settings(max_examples=500, deadline=None)
@given(pair=_pairs, ds=_ds, coeffs=_coefficients, epsilon=_epsilons)
def test_su_is_zero_for_identical_pairs(pair, ds, coeffs, epsilon):
    assert stabilization_uplift(pair, pair, ds, coeffs, epsilon).su == 0.0


def test_check_auc_refuses_non_numbers_and_values_outside():
    assert check_auc(0.25, "x") == 0.25
    assert check_auc(1, "x") == 1.0
    for value in ("high", None, [0.5], 10**400):
        with pytest.raises(DomainError,
                           match=r"^run 3 auc_base must be a number in \[0, 1\], got "):
            check_auc(value, "run 3 auc_base")
    for value in (-0.1, 1.2, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^auc must be a number in \[0, 1\], got "):
            check_auc(value)


# The orderings of uplift cells as the code before `rank_cells` wrote them:
# three copies, each with its own tie-break.
def _reference_top3(grid):
    ranked = sorted(
        grid.cells.items(),
        key=lambda kv: (-kv[1].su_display, grid.levels.index(kv[0][0]), kv[0][1]),
    )
    return [
        {"rank": i + 1, "level": lvl, "model": model, "su": br.su_display}
        for i, ((lvl, model), br) in enumerate(ranked[:3])
    ]


def _reference_argmax(grid):
    out = {}
    for model in grid.models:
        best_level, best_su = None, -math.inf
        for lvl in grid.levels:
            br = grid.cells.get((lvl, model))
            if br is not None and br.su_display > best_su:
                best_level, best_su = lvl, br.su_display
        out[model] = best_level
    return out


def _reference_digest_cell(grid):
    cells = [
        (model, lvl, grid.cells[(lvl, model)].su_display)
        for lvl in grid.levels
        for model in grid.models
        if (lvl, model) in grid.cells
    ]
    return min(cells, key=lambda c: (-c[2], level_sort_key(c[1]), c[0]))


# few AUC values, so that many cells share one SU, and identical A and B
# pairs give SU 0
_TIED_CELLS = st.dictionaries(
    st.tuples(
        st.sampled_from(["without", "0", "1", "5", "10", "12.5"]),
        st.sampled_from(["m", "a", "zeta", "b"]),
    ),
    st.tuples(*(st.sampled_from([0.3, 0.7, 0.8]) for _ in range(4))),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(cells=_TIED_CELLS)
def test_every_cell_ranking_equals_its_reference(cells):
    records = [(model, lvl, *aucs) for (lvl, model), aucs in cells.items()]
    grid = batch_uplift(records, ds=0.1)
    assert grid.top3() == _reference_top3(grid)

    model, lvl, su = _reference_digest_cell(grid)
    [row] = emit_digest(grid.to_dict())["rows"]
    assert (row["model"], row["outliers_pct"], row["su_max"]) == (model, lvl, su)

    sweep = {"k1": [100.0], "k2": [1.0, 1000.0], "k3": [1000.0]}
    for entry in sensitivity_sweep(records, 0.1, sweep).entries:
        coeffs = UpliftCoefficients(**entry["coefficients"])
        expected = _reference_argmax(batch_uplift(records, 0.1, coeffs))
        assert {m: e["level"] for m, e in entry["argmax_by_model"].items()} == expected


def test_check_auc_refuses_text_and_booleans_that_float_reads():
    for value in ("0.7", True, False):
        with pytest.raises(DomainError, match=r"^x must be a number in \[0, 1\], got "):
            check_auc(value, "x")
    assert check_auc(np.float64(0.25), "x") == 0.25
    assert check_auc(np.float32(0.5), "x") == 0.5
    assert flip_auc(np.float64(0.25)) == 0.75
