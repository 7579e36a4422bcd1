import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy

from shockstab import pipeline, synthesis
from shockstab.drift import distribution_shift
from shockstab.errors import (
    ConfigError,
    DegenerateLabelsError,
    InsufficientDataError,
    SchemaMismatchError,
)
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import Column, ColumnKind, TabularFrame, load_csv
from shockstab.model import TrainConfig
from shockstab.pipeline import (
    PipelineConfig,
    emit_digest,
    emit_radial_data,
    level_seed,
    run_pipeline,
    write_report,
)
from shockstab.splitting import SplitSpec, model_splits, oot_partition
from shockstab.stability import stabilization_uplift

from conftest import with_compact_dates


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


def test_levels_string_is_config_error(fixture_csv):
    # "10" must not read as the levels "1" and "0"
    with pytest.raises(ConfigError, match="levels must be a list"):
        PipelineConfig(
            input_path=str(fixture_csv),
            label="is_bad",
            split=SplitSpec(mode="oos", shock_fraction=0.2),
            levels="10",
        )
    with pytest.raises(ConfigError, match="levels must be a list"):
        PipelineConfig.from_dict(
            {
                "input": "x.csv",
                "label": "y",
                "split": {"mode": "oos", "shock_fraction": 0.2},
                "levels": "10",
            }
        )


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


# OOS splits of the 300-row fixture whose A-model fails in every run (its
# one training row holds one class), and in runs 0 and 2 only (a
# single-class evaluation set)
A_FAILS = SplitSpec(mode="oos", shock_fraction=0.993, mc_runs=4, seed=5)
A_FAILS_0_2 = SplitSpec(mode="oos", shock_fraction=0.96, mc_runs=4, seed=1)


def _raises(exc):
    """A stand-in for a pipeline binding that raises `exc` on every call."""
    def fault(*args):
        raise exc
    return fault


GENERATE_FAULT = {"generate": InsufficientDataError("injected generate fault")}


def _generate_outliers_fault(generator, spec):
    # only the outlier levels meet it: the "without" level keeps its pairs
    if spec.outlier_fraction > 0:
        raise InsufficientDataError("injected outlier fault")
    return synthesis.generate(generator, spec)


def _training_fault(exc):
    # the A task's train_baseline and the B task's train_baselines both
    # raise `exc`: the B task must catch it as its A task does
    return {"train_baseline": exc, "train_baselines": exc}


@pytest.mark.parametrize(
    "overrides, faults, failures",
    [
        ({}, {}, ""),
        # every B cell fails: pins the order of the per-level failure records
        ({}, GENERATE_FAULT, "BBBB"),
        # every A cell fails: its failure is copied to every level
        ({"split": A_FAILS}, {}, "AAAA"),
        # A fails in some runs only: their records sit between the B runs
        ({"split": A_FAILS_0_2}, {}, "A-A-"),
        ({"split": A_FAILS_0_2}, GENERATE_FAULT, "ABAB"),
        # the errors training raised for a missing or categorical label
        # before the pipeline checked the label up front, now injected
        ({}, _training_fault(SchemaMismatchError("is_bad", "injected")), "AAAA"),
        ({}, _training_fault(DegenerateLabelsError("injected")), "AAAA"),
        # per level of ("without", 5, 10): a B outcome out of line with its
        # level would show at the wrong one
        ({}, {"generate": _generate_outliers_fault}, ("----", "BBBB", "BBBB")),
        ({"split": A_FAILS_0_2}, {"generate": _generate_outliers_fault},
         ("A-A-", "ABAB", "ABAB")),
        # no B task: every level reuses the A outcomes
        ({"real_fraction": 1.0}, {}, ""),
        ({"real_fraction": 1.0, "split": A_FAILS_0_2}, {}, "A-A-"),
    ],
    ids=["ok", "levels-failed", "a-failed", "a-failed-some", "a-and-b-failed",
         "missing-label", "categorical-label", "outlier-levels-failed",
         "a-and-outlier-levels-failed", "no-b-task", "no-b-task-a-failed-some"],
)
def test_serial_and_parallel_reports_byte_identical(
    small_csv, overrides, faults, failures, monkeypatch
):
    # failures: per run, "A" for an A-model failure copied to every level,
    # "B" for a failed B cell and "-" for a B pair; one string for every
    # level, or one per level. faults maps pipeline bindings to the error
    # each call of them raises, or to a stand-in function, a fault each cell
    # meets on its own; forked workers inherit the patches
    for name, fault in faults.items():
        monkeypatch.setattr(pipeline, name, fault if callable(fault) else _raises(fault))
    config = _config(small_csv, runs=4, **overrides)
    per_level = failures if isinstance(failures, tuple) else (failures,) * len(config.levels)
    b_tasks = 0 if config.real_fraction == 1.0 else 4
    reports = []
    for workers in (1, 2, 3):
        asked = []
        monkeypatch.setattr(
            pipeline, "_worker_count", lambda tasks, w=workers: asked.append(tasks) or w
        )
        reports.append(run_pipeline(config))
        assert asked == [4 + b_tasks]  # one A task per run, and a B task unless f is 1
    serial = reports[0].to_json(strip_timestamp=True)
    for parallel in reports[1:]:
        assert parallel.to_json(strip_timestamp=True) == serial
    report = reports[0]
    assert report.partial == any(per_level)
    if not b_tasks:
        assert all(lvl.b_runs == report.a_runs for lvl in report.levels)
    a_failed = [run for run, kind in enumerate(per_level[0]) if kind == "A"]
    assert [f["run"] for f in report.a_failures] == a_failed
    for lvl, kinds in zip(report.levels, per_level):
        kinds = kinds or "----"
        assert [f["run"] for f in lvl.failures] == [
            run for run, kind in enumerate(kinds) if kind != "-"
        ]
        assert "".join(
            "A" if f["error"].startswith("a-model failed: ") else "B"
            for f in lvl.failures
        ) == kinds.replace("-", "")
        assert [p.run_index for p in lvl.b_runs] == [
            run for run, kind in enumerate(kinds) if kind == "-"
        ]


def test_b_tasks_run_before_a_tasks(small_csv, monkeypatch):
    calls = []
    for name in ("_run_a", "_run_b"):
        real = getattr(pipeline, name)

        def record(frame, split, config, _real=real, _kind=name[-1]):
            calls.append(f"{_kind}{split.run_index}")
            return _real(frame, split, config)

        monkeypatch.setattr(pipeline, name, record)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    assert not run_pipeline(_config(small_csv, runs=3)).partial
    assert calls == ["b0", "b1", "b2", "a0", "a1", "a2"]
    # every level reuses the A pair, so there is no B task
    calls.clear()
    assert not run_pipeline(_config(small_csv, runs=3, real_fraction=1.0)).partial
    assert calls == ["a0", "a1", "a2"]


# SHA-256 of report.json (timestamp stripped), auc_runs.csv and uplift.csv
# for the seeded 300-row run below at each fixture seed, and the versions
# they were recorded with. Only a change labelled as a behaviour change may
# update them.
FROZEN_REPORT_DIGESTS = {
    20180322: "0e999a689e99727f878b9bdfe417c172d2e0cc09bed8e136e0d6b061d40819cf",
    7: "48cf169caf61344519d64cd7e09822bb4bc5e95ce3d359007c8c17537daa25ea",
    99: "63cdb1104f50eb89c9ed723f5390c38a3f40d63fd37b72ff3c1e7341a5563572",
}
FROZEN_REPORT_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


@pytest.mark.parametrize("fixture_seed", list(FROZEN_REPORT_DIGESTS))
def test_seeded_report_digest_frozen(tmp_path, monkeypatch, fixture_seed):
    versions = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if versions != FROZEN_REPORT_VERSIONS:
        pytest.skip(
            f"frozen report digest was recorded under {FROZEN_REPORT_VERSIONS}, "
            f"this is {versions}"
        )
    # the report embeds the input and output paths, and config_hash covers
    # them, so both are relative to a fixed working directory
    monkeypatch.chdir(tmp_path)
    make_shocked_fixture(rows=300, seed=fixture_seed).to_csv("shocked.csv")
    run_pipeline(_config("shocked.csv", runs=4, output_dir="out"))
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    del report["environment"]["timestamp"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode("utf-8"))
    for name in ("auc_runs.csv", "uplift.csv"):
        digest.update((tmp_path / "out" / name).read_bytes())
    assert digest.hexdigest() == FROZEN_REPORT_DIGESTS[fixture_seed]


def test_blas_thread_count_leaves_report_bytes_unchanged(tmp_path):
    # BLAS reads its thread count once, as it loads, so each count gets a
    # fresh interpreter; the pipeline's worker count follows it too
    code = (
        "from shockstab import pipeline\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "from shockstab.splitting import SplitSpec\n"
        "make_shocked_fixture(rows=300).to_csv('f.csv')\n"
        "print(pipeline.run_pipeline(pipeline.PipelineConfig(\n"
        "    input_path='f.csv', label='is_bad', levels=['without', 10],\n"
        "    split=SplitSpec(mode='oot', date_column='date', shock_date='2018-03-22',\n"
        "                    mc_runs=2),\n"
        ")).to_json(strip_timestamp=True))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in pipeline._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(pipeline.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    children = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", code], cwd=tmp_path / threads,
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    (one, err_one), (two, err_two) = (child.communicate(timeout=300) for child in children)
    assert [child.returncode for child in children] == [0, 0], err_one + err_two
    assert json.loads(one)["partial"] is False
    assert one == two


def test_the_loaded_frame_is_freed_before_any_task_runs(small_csv, monkeypatch):
    loaded, alive_at_tasks = [], []
    real_load_csv, real_map_runs = pipeline.load_csv, pipeline._map_runs

    def load(*args, **kwargs):
        frame = real_load_csv(*args, **kwargs)
        loaded.append(weakref.ref(frame))
        return frame

    def map_runs(frame, splits, config):
        alive_at_tasks.append(loaded[0]() is not None)
        return real_map_runs(frame, splits, config)

    monkeypatch.setattr(pipeline, "load_csv", load)
    monkeypatch.setattr(pipeline, "_map_runs", map_runs)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    report = run_pipeline(_config(small_csv, runs=2, levels=("without",)))
    assert not report.partial
    assert alive_at_tasks == [False]


def test_the_parent_takes_no_rows_per_run(small_csv, monkeypatch):
    # splits are row indices: before the tasks start, the parent takes only
    # DS's two frames, however many runs there are
    takes, at_tasks = [], []
    real_take = TabularFrame.take

    def take(frame, indices):
        takes.append(len(indices))
        return real_take(frame, indices)

    class Stop(Exception):
        pass

    def map_runs(*args):
        at_tasks.append(len(takes))
        raise Stop

    monkeypatch.setattr(TabularFrame, "take", take)
    monkeypatch.setattr(pipeline, "_map_runs", map_runs)
    for runs in (2, 5):
        takes.clear()
        with pytest.raises(Stop):
            run_pipeline(_config(small_csv, runs=runs))
    assert at_tasks[0] == at_tasks[1]


def test_pipeline_frames_carry_no_raw_text(small_csv, monkeypatch):
    seen = []

    def recording(name):
        real = getattr(pipeline, name)

        def record(frame, *args, **kwargs):
            seen.append((name, frame))
            return real(frame, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, record)

    real_take = TabularFrame.take

    def record_take(frame, indices):
        taken = real_take(frame, indices)
        seen.append(("take", taken))
        return taken

    monkeypatch.setattr(TabularFrame, "take", record_take)
    for name in ("distribution_shift", "fit", "train_baseline"):
        recording(name)
    real_train_baselines = pipeline.train_baselines

    def record_batch(frames, *args, **kwargs):
        frames = list(frames)
        seen.extend(("train_baselines", f) for f in frames)
        return real_train_baselines(frames, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_baselines", record_batch)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    report = run_pipeline(_config(small_csv, runs=2))
    assert not report.partial
    assert {name for name, _ in seen} == {
        "take", "distribution_shift", "fit", "train_baseline", "train_baselines"
    }
    for name, frame in seen:
        assert all(c.raw is None for c in frame.columns), name


def test_models_never_see_the_date_column(small_csv, monkeypatch):
    seen = []
    for name in ("fit", "train_baseline"):
        real = getattr(pipeline, name)

        def record(frame, *args, _name=name, _real=real, **kwargs):
            seen.append((_name, frame.column_names))
            return _real(frame, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, record)
    real_train_baselines = pipeline.train_baselines

    def record_batch(frames, *args, **kwargs):
        frames = list(frames)
        seen.extend(("train_baselines", f.column_names) for f in frames)
        return real_train_baselines(frames, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_baselines", record_batch)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    report = run_pipeline(_config(small_csv, runs=2))
    assert not report.partial
    assert {name for name, _ in seen} == {"fit", "train_baseline", "train_baselines"}
    for name, columns in seen:
        assert "date" not in columns, name
        assert "is_bad" in columns, name


def test_each_b_task_trains_its_levels_in_one_call(small_csv, monkeypatch):
    calls = []
    real_train_baselines = pipeline.train_baselines

    def record_batch(frames, *args, **kwargs):
        frames = list(frames)
        calls.append(len(frames))
        return real_train_baselines(frames, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_baselines", record_batch)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    report = run_pipeline(_config(small_csv, runs=2, levels=("without", 5, 10)))
    assert not report.partial
    assert calls == [3, 3]
    assert [len(level.b_runs) for level in report.levels] == [2, 2, 2]


def test_a_b_training_error_fails_every_level_not_failed_before(small_csv, monkeypatch):
    def failing(frames, *args, **kwargs):
        next(iter(frames))  # the first level is mixed, the others never are
        raise DegenerateLabelsError("no second class")

    monkeypatch.setattr(pipeline, "train_baselines", failing)
    config = _config(small_csv, runs=1)
    frame, splits = model_splits(load_csv(small_csv), config.split)
    split = splits[0]
    assert pipeline._run_b(frame, split, config) == [
        {"run": split.run_index, "error": "no second class"}
    ] * len(config.levels)


def test_ds_exclusions_may_name_the_oot_date_column_and_the_label(small_csv):
    # neither is a DS column, so naming them changes nothing; a name that is
    # no column at all is refused before any split
    def ds(names):
        config = _config(small_csv, runs=1, levels=["without"], real_fraction=1.0,
                         train=TrainConfig(epochs=5), exclude_from_ds=names)
        return run_pipeline(config).drift.ds

    assert ds(["date", "is_bad"]) == ds([])
    assert ds(["sector"]) != ds([])
    with pytest.raises(ConfigError, match="^exclude_from_ds column 'sectr' is not in the data$"):
        ds(["sectr"])


def test_numerical_dates_split_on_their_text(tmp_path):
    # 20180322 loads as the number 20180322.0; the OOT partition must still
    # parse the cell text, as when the dates are ISO strings
    frame = make_shocked_fixture(rows=300)
    compact = [d.replace("-", "") for d in frame.column("date").values]
    compact_dates = Column("date", ColumnKind.CATEGORICAL, np.array(compact, dtype=object))
    iso = tmp_path / "iso" / "shocked.csv"
    numeric = tmp_path / "numeric" / "shocked.csv"
    for path in (iso, numeric):
        path.parent.mkdir()
    frame.to_csv(iso)
    TabularFrame(
        [compact_dates if c.name == "date" else c for c in frame.columns]
    ).to_csv(numeric)
    assert load_csv(numeric).kind_of("date") is ColumnKind.NUMERICAL
    reports = []
    for path in (iso, numeric):
        config = _config(path, runs=2, split=SplitSpec(
            mode="oot", date_column="date", shock_date="20180322",
            mc_runs=2, seed=11,
        ))
        reports.append(run_pipeline(config).to_dict())
    for key in ("drift", "a_model", "levels"):
        assert reports[0][key] == reports[1][key]


@pytest.mark.parametrize("dates", ["iso", "numerical"])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_oot_ds_equals_the_partition_reference(tmp_path, monkeypatch, seed, dates):
    # the pipeline takes DS from run 0's segments; the reference compares the
    # partition's pre and post rows in row order, as the pipeline once did
    frame = make_shocked_fixture(rows=400, seed=seed, missing_rate=0.1)
    shock_date = "2018-03-22"
    if dates == "numerical":
        frame, shock_date = with_compact_dates(frame), "20180322"
    frame.to_csv(tmp_path / "f.csv")
    frame = load_csv(tmp_path / "f.csv")
    for name in ("volume", "sector"):
        assert frame.column(name).missing_mask.any()
    spec = SplitSpec(mode="oot", date_column="date", shock_date=shock_date, seed=seed, mc_runs=1)
    config = PipelineConfig(
        input_path=str(tmp_path / "f.csv"), label="is_bad", split=spec, levels=["without"],
        real_fraction=1.0, tau=0.2, train=TrainConfig(epochs=5),
    )
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    report = pipeline.run_pipeline(config)

    pre, post = oot_partition(frame, spec)
    reference = distribution_shift(frame.take(pre), frame.take(post), 0.2, {"is_bad", "date"})
    assert report.drift.to_dict() == reference.to_dict()


def test_worker_count_leaves_cores_to_blas(monkeypatch):
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for var in pipeline._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # unpinned BLAS takes every core itself
    assert pipeline._worker_count(10) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pipeline._worker_count(10) == 4
    # at most one worker per task
    assert pipeline._worker_count(3) == 3
    assert pipeline._worker_count(2) == 2
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
    # an absurd shock fraction leaves 2 of the 2,000 rows before the shock,
    # one training row and one test row per run: the A-model cannot train
    # on one class, and every cell records its diagnostic
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


def test_report_with_no_scored_level(small_csv, tmp_path, monkeypatch):
    # every B cell fails, so no level is scored: uplift.csv marks each level
    # failed, auc_runs.csv holds its header alone, and the digest is empty
    monkeypatch.setattr(pipeline, "generate", _raises(GENERATE_FAULT["generate"]))
    report = run_pipeline(_config(small_csv, runs=2, levels=("without", 5)))
    write_report(report, tmp_path)
    assert (tmp_path / "uplift.csv").read_text().splitlines() == [
        "outliers_pct,su,su_display,ss_a,ss_b,w_a,w_b,w,w_sup,status",
        "without,,,,,,,,,failed",
        "5,,,,,,,,,failed",
    ]
    assert (tmp_path / "auc_runs.csv").read_text().splitlines() == [
        "outliers_pct,run,auc_base_a,auc_shock_a,auc_base_b,auc_shock_b"
    ]
    digest = emit_digest(json.loads((tmp_path / "report.json").read_text()))
    assert digest == {"rows": [{"dataset": "small", "ds": report.drift.ds, "model": None,
                                "outliers_pct": None, "su_max": None}]}


def test_a_diverging_fit_fails_its_cells(small_csv):
    train = TrainConfig(learning_rate=1e100, epochs=20)
    report = run_pipeline(_config(small_csv, runs=1, levels=("without",), train=train))
    assert report.partial and not report.a_runs
    [failure] = report.a_failures
    assert "diverged" in failure["error"] and "learning_rate 1e+100" in failure["error"]
    assert report.levels[0].failures == [{"run": 0, "error": f"a-model failed: {failure['error']}"}]


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
