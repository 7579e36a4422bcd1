import json

import pytest

from shockstab import pipeline
from shockstab.errors import ConfigError
from shockstab.fixtures import make_shocked_fixture
from shockstab.pipeline import (
    PipelineConfig,
    emit_digest,
    emit_radial_data,
    level_seed,
    run_pipeline,
    write_report,
)
from shockstab.splitting import SplitSpec
from shockstab.stability import stabilization_uplift


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "shocked.csv"
    make_shocked_fixture().to_csv(path)
    return path


def _config(fixture_csv, runs=5, levels=("without", 5, 10), **overrides):
    base = dict(
        input_path=str(fixture_csv),
        label="is_bad",
        split=SplitSpec(
            mode="oot",
            date_column="date",
            shock_date="2018-03-22",
            mc_runs=runs,
            seed=11,
        ),
        levels=list(levels),
        seed=11,
        upsample_target=4000,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def small_report(fixture_csv):
    return run_pipeline(_config(fixture_csv))


def test_report_fields_populated(small_report):
    d = small_report.to_dict()
    assert d["drift"]["ds"] >= 0.1
    assert d["drift"]["is_shock"]
    assert len(d["a_model"]["runs"]) == 5
    assert len(d["levels"]) == 3
    for lvl in d["levels"]:
        assert lvl["status"] == "ok"
        assert len(lvl["b_model"]["runs"]) == 5
        assert lvl["uplift"] is not None
        assert lvl["b_model"]["auc_base"]["min"] <= lvl["b_model"]["auc_base"]["median"]
    assert d["a_model"]["stability"]["ss"] >= 0.5
    assert "config_hash" in d
    assert d["environment"]["seed"] == 11
    assert not d["partial"]


def test_duplicate_levels_config_error(fixture_csv):
    with pytest.raises(ConfigError):
        _config(fixture_csv, levels=("without", 5, "5"))
    with pytest.raises(ConfigError):
        _config(fixture_csv, levels=(150,))


def test_config_dict_round_trip(fixture_csv):
    config = _config(fixture_csv)
    again = PipelineConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert again.config_hash() == config.config_hash()

    oos = _config(
        fixture_csv,
        split=SplitSpec(mode="oos", shock_fraction=0.25, mc_runs=3, seed=2),
    )
    assert PipelineConfig.from_dict(oos.to_dict()).to_dict() == oos.to_dict()


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(
            {
                "input": "x.csv",
                "label": "y",
                "split": {"mode": "oos", "shock_fraction": 0.2},
                "levels": [5],
                "typo_field": 1,
            }
        )


def test_identity_configuration_gives_zero_uplift(fixture_csv):
    config = _config(fixture_csv, runs=3, real_fraction=1.0)
    report = run_pipeline(config)
    for lvl in report.levels:
        assert lvl.uplift.su == 0.0


def test_determinism_modulo_timestamp(fixture_csv):
    a = run_pipeline(_config(fixture_csv, runs=3))
    b = run_pipeline(_config(fixture_csv, runs=3))
    assert a.to_json(strip_timestamp=True) == b.to_json(strip_timestamp=True)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    make_shocked_fixture(rows=300).to_csv(path)
    return path


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        # every B cell fails: pins the order of the per-level failure records
        {"family": "no-such-family"},
        # every A cell fails: its failure is copied to every level
        {"split": SplitSpec(mode="oos", shock_fraction=0.995, mc_runs=4, seed=5)},
    ],
    ids=["ok", "levels-failed", "a-failed"],
)
def test_serial_and_parallel_reports_byte_identical(small_csv, overrides, monkeypatch):
    config = _config(small_csv, runs=4, **overrides)
    monkeypatch.setattr(pipeline, "_worker_count", lambda runs: 1)
    serial = run_pipeline(config)
    monkeypatch.setattr(pipeline, "_worker_count", lambda runs: 2)
    parallel = run_pipeline(config)
    assert serial.to_json(strip_timestamp=True) == parallel.to_json(strip_timestamp=True)
    if overrides:
        assert serial.partial
        for lvl in serial.levels:
            assert [f["run"] for f in lvl.failures] == [0, 1, 2, 3]
    else:
        assert not serial.partial


def test_worker_count_leaves_cores_to_blas(monkeypatch):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for var in pipeline._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # unpinned BLAS takes every core itself
    assert pipeline._worker_count(10) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pipeline._worker_count(10) == 4
    assert pipeline._worker_count(3) == 3
    # the largest pinned count counts; unparseable values are ignored
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "many")
    assert pipeline._worker_count(10) == 2
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    assert pipeline._worker_count(10) == 1


def test_audit_closure_su_recomputable(small_report):
    d = small_report.to_dict()
    a = d["a_model"]
    for lvl in d["levels"]:
        b = lvl["b_model"]
        again = stabilization_uplift(
            (a["auc_base"]["median"], a["auc_shock"]["median"]),
            (b["auc_base"]["median"], b["auc_shock"]["median"]),
            d["drift"]["ds"],
        )
        assert abs(again.su - lvl["uplift"]["su"]) <= 1e-12


def test_without_level_differs_from_zero_percent(fixture_csv):
    report = run_pipeline(_config(fixture_csv, runs=3, levels=("without", 0)))
    without, zero = report.levels
    assert level_seed(11, 0, "without") != level_seed(11, 0, "0")
    runs_w = [(p.auc_base, p.auc_shock) for p in without.b_runs]
    runs_0 = [(p.auc_base, p.auc_shock) for p in zero.b_runs]
    assert runs_w != runs_0  # distinct synthetic streams -> distinct models


def test_level_seed_stability():
    assert level_seed(7, 3, "5") == level_seed(7, 3, "5")
    assert level_seed(7, 3, "5") != level_seed(7, 4, "5")
    assert level_seed(7, 3, "5") != level_seed(8, 3, "5")


def test_oos_mode_runs(fixture_csv):
    config = _config(
        fixture_csv,
        runs=3,
        split=SplitSpec(mode="oos", shock_fraction=0.2, mc_runs=3, seed=5),
        exclude_from_ds=("date",),  # high-cardinality date noise is not drift
    )
    report = run_pipeline(config)
    assert report.drift.ds < 0.1  # random holdout, no real shift
    assert all(not lvl.failed for lvl in report.levels)


def test_failed_cells_are_reported_not_dropped(fixture_csv):
    # an absurd shock fraction leaves a single pre-shock row per run: the
    # A-model cannot train, every cell records its diagnostic
    config = _config(
        fixture_csv,
        runs=2,
        split=SplitSpec(mode="oos", shock_fraction=0.999, mc_runs=2, seed=5),
    )
    report = run_pipeline(config)
    assert report.partial
    d = report.to_dict()
    assert len(d["levels"]) == 3  # grid stays rectangular
    for lvl in d["levels"]:
        assert lvl["status"] == "failed"
        assert lvl["failures"]


def test_write_report_files(tmp_path, small_report):
    paths = write_report(small_report, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    auc_rows = (tmp_path / "out" / "auc_runs.csv").read_text().strip().splitlines()
    assert auc_rows[0].startswith("outliers_pct,run,")
    assert len(auc_rows) == 1 + 3 * 5
    uplift_rows = (tmp_path / "out" / "uplift.csv").read_text().strip().splitlines()
    assert len(uplift_rows) == 1 + 3
    assert set(paths) == {"report", "auc_runs", "uplift"}


# ---------------------------------------------------------------------------
# radial / digest emission
# ---------------------------------------------------------------------------

def test_radial_two_tuples_per_level(small_report):
    data = emit_radial_data(small_report)
    assert len(data["levels"]) == 3
    for lvl in data["levels"]:
        assert [s["model"] for s in lvl["series"]] == ["A", "B"]
        assert lvl["series"][0]["su"] is None
        assert lvl["series"][1]["su"] >= 0.0


def test_radial_tuples_match_report_cells(small_report):
    d = small_report.to_dict()
    data = emit_radial_data(small_report)
    for lvl_report, lvl_radial in zip(d["levels"], data["levels"]):
        b = lvl_radial["series"][1]
        assert b["auc_base"] == lvl_report["b_model"]["auc_base"]["median"]
        assert b["auc_shock"] == lvl_report["b_model"]["auc_shock"]["median"]
        assert b["su"] == lvl_report["uplift"]["su_display"]


def test_radial_nonzero_filter_and_warning(fixture_csv):
    report = run_pipeline(_config(fixture_csv, runs=3, real_fraction=1.0))
    data = emit_radial_data(report, nonzero=True)
    assert all(not lvl["series"] for lvl in data["levels"])
    assert len(data["warnings"]) == len(data["levels"])


def test_digest_single_report(small_report):
    digest = emit_digest(small_report)
    assert len(digest["rows"]) == 1
    row = digest["rows"][0]
    assert row["dataset"] == "shocked"
    assert row["model"] == "B"
    su_values = [l.uplift.su_display for l in small_report.levels]
    assert row["su_max"] == max(su_values)


def test_digest_tie_breaks_lower_level_then_model():
    grid = {
        "ds": 0.2,
        "rows": [
            {
                "outliers_pct": "10",
                "cells": {"zeta": {"su_display": 0.7}, "alpha": {"su_display": 0.4}},
            },
            {
                "outliers_pct": "5",
                "cells": {"zeta": {"su_display": 0.7}, "alpha": {"su_display": 0.7}},
            },
        ],
        "dataset": "tie",
    }
    digest = emit_digest([grid])
    row = digest["rows"][0]
    assert row["outliers_pct"] == "5"
    assert row["model"] == "alpha"
    assert row["su_max"] == 0.7
