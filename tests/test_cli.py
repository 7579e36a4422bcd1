import argparse
import builtins
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shockstab
from shockstab import cli, pipeline
from shockstab.cli import main
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import Column, ColumnKind, TabularFrame, load_csv
from shockstab.model import TrainConfig, evaluate_pair, train_baseline
from shockstab.splitting import SplitSpec, model_splits
from shockstab.stability import normalize_level, stabilization_uplift

from conftest import with_compact_dates


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "shocked.csv"
    make_shocked_fixture().to_csv(path)
    return path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_schema_command(write_csv, capsys):
    path = write_csv("t.csv", "age,sector\n31,fin\n45,trade\n")
    code, out = _run(capsys, "schema", path)
    assert code == 0
    assert out["row_count"] == 2
    kinds = {c["name"]: c["kind"] for c in out["columns"]}
    assert kinds == {"age": "numerical", "sector": "categorical"}


def test_schema_categorical_override(write_csv, capsys):
    path = write_csv("g.csv", "gender\n0\n1\n0\n")
    code, out = _run(capsys, "schema", path, "--categorical-override", "2")
    assert out["columns"][0]["kind"] == "categorical"


def test_ds_command_and_json_out(write_csv, capsys, tmp_path):
    base = write_csv("base.csv", "x,s\n0,a\n1,b\n")
    shock = write_csv("shock.csv", "x,s\n5,a\n6,a\n")
    out_path = tmp_path / "ds.json"
    code, out = _run(capsys, "ds", base, shock, "--json", out_path)
    assert code == 0
    assert out["ds"] == pytest.approx(0.75)
    assert out["is_shock"]
    assert json.loads(out_path.read_text()) == out


def test_ds_exclude(write_csv, capsys):
    base = write_csv("b2.csv", "x,s\n0,a\n1,b\n")
    shock = write_csv("s2.csv", "x,s\n5,a\n6,a\n")
    code, out = _run(capsys, "ds", base, shock, "--exclude", "x")
    assert out["ds"] == pytest.approx(0.5)


def test_ss_command(capsys):
    code, out = _run(capsys, "ss", "--auc-base", "0.9", "--auc-shock", "0.4", "--ds", "0")
    assert code == 0
    assert out["ss"] == pytest.approx(0.70000299995500070, abs=1e-12)


def test_su_command(capsys):
    code, out = _run(
        capsys, "su", "--a", "0.75,0.65", "--b", "0.75,0.74", "--ds", "0.1"
    )
    assert code == 0
    assert out["su"] == pytest.approx(0.26648605124576667, abs=1e-12)
    assert out["su_display"] == out["su"]
    assert set(out) >= {"w_a", "w_b", "w", "w_sup", "ss_a", "ss_b"}


def test_su_grid_flat_list(tmp_path, capsys):
    records = [
        {
            "model": "m",
            "outliers_pct": "without",
            "auc_base_a": 0.75,
            "auc_shock_a": 0.65,
            "auc_base_b": 0.75,
            "auc_shock_b": 0.74,
        }
    ]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(records))
    code, out = _run(capsys, "su-grid", path, "--ds", "0.1")
    assert code == 0
    assert out["rows"][0]["cells"]["m"]["su"] == pytest.approx(0.2664860512, abs=1e-9)


def test_su_grid_per_run(tmp_path, capsys):
    table = {
        "ds": 0.1,
        "models": [
            {
                "name": "m",
                "levels": [
                    {
                        "outliers_pct": 5,
                        "runs": [
                            {"auc_base_a": 0.8, "auc_shock_a": 0.7,
                             "auc_base_b": 0.8, "auc_shock_b": 0.75},
                            {"auc_base_a": 0.81, "auc_shock_a": 0.72,
                             "auc_base_b": 0.82, "auc_shock_b": 0.74},
                        ],
                    }
                ],
            }
        ],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(table))
    code, out = _run(capsys, "su-grid", path)
    assert code == 0
    assert out["models"] == ["m"]
    code, out = _run(capsys, "su-grid", path, "--per-run")
    assert code == 0
    assert out["models"] == ["m#run0", "m#run1"]


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
@pytest.mark.parametrize("layout", ["flat", "nested"])
def test_record_missing_an_auc_is_data_error(tmp_path, capsys, command, layout):
    run = {"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81}
    if layout == "flat":
        payload, flags = [{"model": "m", "outliers_pct": 5, **run}], ("--ds", "0.1")
    else:
        payload, flags = _auc_table(runs=[run]), ()
    path = tmp_path / "records.json"
    path.write_text(json.dumps(payload))
    code = main([command, str(path), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "auc_shock_b" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
@pytest.mark.parametrize("level", ["abc", -1, True], ids=["str", "negative", "bool"])
def test_flat_record_with_a_bad_level_is_data_error(tmp_path, capsys, command, level):
    run = {"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81, "auc_shock_b": 0.76}
    good = {"model": "m", "outliers_pct": 5, **run}
    path = tmp_path / "records.json"
    path.write_text(json.dumps([good, {**good, "outliers_pct": level}]))
    code = main([command, str(path), "--ds", "0.1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: {path}: record 1: invalid outlier level {level!r}\n"


def test_version_flag_of_the_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "shockstab", "--version"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(shockstab.__file__).parents[1])},
    )
    assert result.returncode == 0
    assert result.stdout == shockstab.__version__ + "\n"
    assert result.stderr == ""


def test_su_grid_requires_ds_for_flat(tmp_path, capsys):
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps([]))
    code, _ = _run(capsys, "su-grid", path)
    assert code == 2


def test_split_command_writes_files(fixture_csv, tmp_path, capsys):
    out_dir = tmp_path / "splits"
    code, out = _run(
        capsys,
        "split", fixture_csv,
        "--mode", "oot", "--date-col", "date", "--shock-date", "2018-03-22",
        "--runs", "2", "--seed", "3", "--out", out_dir,
    )
    assert code == 0
    assert len(out["files"]) == 6
    assert (out_dir / "train_000.csv").exists()
    assert (out_dir / "shock_001.csv").exists()


def test_split_writes_each_run_before_the_next(fixture_csv, tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "splits"
    seen = []
    real = cli.split_once

    def record(frame, spec, run):
        seen.append((run, sorted(p.name for p in out_dir.glob("*.csv"))))
        return real(frame, spec, run)

    monkeypatch.setattr(cli, "split_once", record)
    code, out = _run(
        capsys,
        "split", fixture_csv,
        "--mode", "oot", "--date-col", "date", "--shock-date", "2018-03-22",
        "--runs", "3", "--seed", "3", "--out", out_dir,
    )
    assert code == 0
    assert len(out["files"]) == 9
    # when run k is split, exactly the files of runs 0 .. k-1 exist
    assert seen == [
        (run, sorted(f"{name}_{k:03d}.csv" for k in range(run)
                     for name in ("train", "test", "shock")))
        for run in range(3)
    ]


_NO_TRAINING_ROWS = "error: train_fraction 0.001 leaves no training rows of the 240 pre-shock rows\n"


def test_split_whose_train_fraction_leaves_no_training_rows_exits_3(tmp_path, capsys):
    # 240 of the 300 rows are dated before the shock: floor(0.001 * 240) is 0
    csv_path = tmp_path / "small.csv"
    make_shocked_fixture(rows=300).to_csv(csv_path)
    out_dir = tmp_path / "splits"
    code = main([
        "split", str(csv_path), "--mode", "oot", "--date-col", "date",
        "--shock-date", "2018-03-22", "--train-fraction", "0.001", "--runs", "2",
        "--out", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == _NO_TRAINING_ROWS
    assert captured.out == ""
    assert not out_dir.exists()


def test_pipeline_whose_train_fraction_leaves_no_training_rows_exits_3_before_training(
    tmp_path, capsys, monkeypatch
):
    calls = []
    for name in ("train_baseline", "train_baselines"):
        monkeypatch.setattr(pipeline, name, lambda *a, _name=name, **k: calls.append(_name))
    csv_path = tmp_path / "small.csv"
    make_shocked_fixture(rows=300).to_csv(csv_path)
    cfg = _write_json(tmp_path, {
        "input": str(csv_path), "label": "is_bad", "levels": ["without"],
        "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
                  "train_fraction": 0.001, "mc_runs": 2},
        "output_dir": str(tmp_path / "out"),
    }, name="config.json")
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == _NO_TRAINING_ROWS
    assert captured.out == ""
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_synth_command(fixture_csv, tmp_path, capsys):
    out_csv = tmp_path / "synth.csv"
    mask_json = tmp_path / "mask.json"
    code, out = _run(
        capsys,
        "synth", fixture_csv,
        "--rows", "200", "--outliers-pct", "10", "--family", "gumbel",
        "--seed", "5", "--nonneg", "volume,price",
        "--out", out_csv, "--mask-out", mask_json,
    )
    assert code == 0
    assert out["rows"] == 200
    assert out["outliers"] == 20
    mask = json.loads(mask_json.read_text())
    assert mask["family"] == "gumbel"
    assert len(mask["outlier_rows"]) == 20
    assert out_csv.exists()


def test_synth_tail_sigma_beyond_float_range_exits_3(fixture_csv, tmp_path, capsys):
    out_csv = tmp_path / "synth.csv"
    code = main(["synth", str(fixture_csv), "--rows", "50", "--outliers-pct", "50",
                 "--tail-sigma", "1e308", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: tail_sigma 1e+308 pushes tail values beyond float's range\n"
    assert captured.out == ""
    assert not out_csv.exists()


def test_calibrate_command(tmp_path, capsys):
    anchors = [
        {
            "a_base": 0.8, "a_shock": 0.7, "b_base": 0.8, "b_shock": 0.7,
            "ds": 0.2, "target_su": 0.0,
        }
    ]
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps(anchors))
    code, out = _run(capsys, "calibrate", path)
    assert code == 0
    assert out["objective"] == 0.0
    assert out["coefficients"] == {"k1": 50.0, "k2": 500.0, "k3": 500.0}

    code, out = _run(
        capsys, "calibrate", path, "--grid", "k1=100;k2=1000;k3=1000"
    )
    assert out["coefficients"] == {"k1": 100.0, "k2": 1000.0, "k3": 1000.0}


def test_sweep_command(tmp_path, capsys):
    records = [
        {
            "model": "m", "outliers_pct": 5,
            "auc_base_a": 0.8, "auc_shock_a": 0.7,
            "auc_base_b": 0.82, "auc_shock_b": 0.78,
        }
    ]
    path = tmp_path / "recs.json"
    path.write_text(json.dumps(records))
    code, out = _run(capsys, "sweep", path, "--ds", "0.2")
    assert code == 0
    assert len(out["entries"]) == 27
    assert out["all_preserved"] in (True, False)


def _readme() -> str:
    return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_a_only_config() -> dict:
    """The README's pipeline config that trains and evaluates the A-model
    alone: real_fraction 1.0 and the one level "without"."""
    blocks = re.findall(r"```json\n(.*?)```", _readme(), flags=re.S)
    configs = [json.loads(b) for b in blocks if '"real_fraction": 1.0' in b]
    assert len(configs) == 1
    return configs[0]


def test_train_eval_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["train-eval", "data.csv", "--label", "is_bad", "--mode", "oos"])
    assert exit_.value.code == 2
    assert "invalid choice: 'train-eval'" in capsys.readouterr().err


def test_readme_cli_block_names_every_subcommand():
    block = _readme().split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("shockstab ")}
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert named == set(subparsers.choices)


@pytest.mark.parametrize("dates", ["iso", "numerical"])
def test_train_eval_runs_equal_the_pipeline_a_model_runs(tmp_path, capsys, monkeypatch, dates):
    # the README's A-only pipeline config replaces the train-eval command;
    # the train-eval loop lives on here as the reference
    frame = make_shocked_fixture(rows=400, seed=9)
    shock_date = "2018-03-22"
    if dates == "numerical":
        frame, shock_date = with_compact_dates(frame), "20180322"
    path = tmp_path / "f.csv"
    frame.to_csv(path)
    config = _readme_a_only_config()
    config["input"] = str(path)
    config["split"].update(shock_date=shock_date, mc_runs=3, seed=4)
    config["train"] = {"epochs": 60}
    (tmp_path / "a_only.json").write_text(json.dumps(config))
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    code, out = _run(capsys, "pipeline", tmp_path / "a_only.json")
    assert code == 0
    spec = SplitSpec.from_dict(config["split"])
    frame, splits = model_splits(load_csv(path), spec)
    reference = [
        evaluate_pair(
            train_baseline(frame.take(split.train), "is_bad", TrainConfig(epochs=60)),
            frame.take(split.test), frame.take(split.shocked_test), "is_bad", split.run_index,
        )
        for split in splits
    ]
    assert out["a_model"]["runs"] == [p.to_dict() for p in reference]
    assert out["a_model"]["auc_shock"]["median"] < out["a_model"]["auc_base"]["median"]
    assert [level["outliers_pct"] for level in out["levels"]] == ["without"]


_REPORT = {
    "dataset": "d",
    "drift": {"ds": 0.2},
    "a_model": {"auc_base": {"median": 0.8}, "auc_shock": {"median": 0.7}},
    "levels": [
        {
            "outliers_pct": "5",
            "b_model": {"auc_base": {"median": 0.82}, "auc_shock": {"median": 0.78}},
            "uplift": {"su_display": 0.1},
        }
    ],
}
# an integer whose float() overflows: refused as a float beyond range is
_HUGE = "9" * 401
_ANCHOR = {
    "a_base": 0.8, "a_shock": 0.7, "b_base": 0.8, "b_shock": 0.7,
    "ds": 0.2, "target_su": 0.0,
}


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        (
            ["report", "digest", "FILE"],
            '{"dataset":"d","a_model":{"auc_base":null},"drift":{"ds":NaN},"levels":'
            '[{"outliers_pct":"5","uplift":{"su_display":0.1},"b_model":{"auc_base":null}}]}',
            2, "NaN is not a finite number",
        ),
        (
            ["report", "digest", "FILE"],
            '{"dataset":"d","a_model":{"auc_base":null},"drift":{"ds":0.1},"levels":'
            '[{"outliers_pct":"5","uplift":{"su_display":Infinity},"b_model":{"auc_base":null}}]}',
            2, "Infinity is not a finite number",
        ),
        (
            ["report", "radial", "FILE"],
            json.dumps(_REPORT).replace('{"median": 0.8}', '{"median": NaN}'),
            2, "NaN is not a finite number",
        ),
        (
            ["report", "radial", "FILE"],
            json.dumps(_REPORT).replace("0.82", "1e400"),
            2, "1e400 is not a finite number",
        ),
        (
            ["su-grid", "FILE", "--ds", "0.2"],
            '[{"model": "m", "outliers_pct": 5, "auc_base_a": NaN, "auc_shock_a": 0.7,'
            ' "auc_base_b": 0.82, "auc_shock_b": 0.78}]',
            2, "NaN is not a finite number",
        ),
        (
            ["su-grid", "FILE", "--ds", "0.2"],
            f'[{{"model": "m", "outliers_pct": 5, "auc_base_a": {_HUGE}, "auc_shock_a": 0.7,'
            ' "auc_base_b": 0.82, "auc_shock_b": 0.78}]',
            2, f"input.json: {_HUGE} is not a finite number",
        ),
        (
            ["su-grid", "FILE"],
            f'{{"ds": {_HUGE}, "models": [{{"name": "m", "levels": [{{"outliers_pct": 5, "runs":'
            ' [{"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81, "auc_shock_b": 0.76}]}]}]}',
            2, f"input.json: {_HUGE} is not a finite number",
        ),
        (
            ["calibrate", "FILE"],
            json.dumps([{**_ANCHOR, "confidence": float("inf")}]),
            2, "Infinity is not a finite number",
        ),
        (
            ["calibrate", "FILE"],
            json.dumps([
                {**_ANCHOR, "target_su": -1.0, "confidence": 1e308},
                {**_ANCHOR, "target_su": 1.0, "confidence": 1e308},
            ]),
            3, "the anchors' confidence-weighted error overflows",
        ),
    ],
    ids=["digest-nan-ds", "digest-infinite-su", "radial-nan-median", "radial-overflowing-median",
         "su-grid-nan-auc", "su-grid-overflowing-integer-auc", "su-grid-overflowing-integer-ds",
         "calibrate-infinite-confidence", "calibrate-overflowing-error"],
)
def test_non_finite_json_input_exits_with_one_error_line(
    tmp_path, capsys, argv, text, code, message
):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert main([str(path) if a == "FILE" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err


def test_schema_negative_categorical_override_is_config_error(write_csv, capsys):
    path = write_csv("g.csv", "gender\n0\n1\n0\n")
    assert main(["schema", str(path), "--categorical-override=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: categorical_override must be an integer >= 0, got -1\n"


def test_pipeline_command_and_report(fixture_csv, tmp_path, capsys):
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {
            "mode": "oot",
            "date_column": "date",
            "shock_date": "2018-03-22",
            "mc_runs": 3,
            "seed": 4,
        },
        "levels": ["without", 5],
        "seed": 4,
        "upsample_target": 4000,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out = _run(capsys, "pipeline", cfg_path)
    assert code == 0
    assert len(out["levels"]) == 2

    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(out))
    code, radial = _run(capsys, "report", "radial", report_path)
    assert code == 0
    assert len(radial["levels"]) == 2

    code, digest = _run(capsys, "report", "digest", report_path)
    assert code == 0
    assert digest["rows"][0]["model"] == "B"


def test_pipeline_override_flags(fixture_csv, tmp_path, capsys):
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {
            "mode": "oot",
            "date_column": "date",
            "shock_date": "2018-03-22",
            "mc_runs": 5,
            "seed": 4,
        },
        "levels": ["without"],
        "upsample_target": 4000,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out = _run(capsys, "pipeline", cfg_path, "--runs", "2", "--levels", "without,3")
    assert code == 0
    assert len(out["a_model"]["runs"]) == 2
    assert [l["outliers_pct"] for l in out["levels"]] == ["without", "3"]


def test_exit_codes(write_csv, tmp_path, capsys):
    # data error: unreadable file
    code, _ = _run(capsys, "schema", tmp_path / "nope.csv")
    assert code == 3
    # config error: bad pipeline config
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input": "x", "label": "y", "levels": [],
                               "split": {"mode": "oos", "shock_fraction": 0.2}}))
    code, _ = _run(capsys, "pipeline", cfg)
    assert code == 2
    # domain error: AUC outside [0, 1]
    code, _ = _run(capsys, "ss", "--auc-base", "1.4", "--auc-shock", "0.5", "--ds", "0")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["schema", "f.csv", "--json", "DIR"],
        ["synth", "f.csv", "--rows", "10", "--out", "DIR"],
        ["synth", "f.csv", "--rows", "10", "--out", "s.csv", "--mask-out", "DIR"],
        ["split", "f.csv", "--mode", "oos", "--shock-fraction", "0.2", "--out", "f.csv"],
        ["report", "digest", "grid.json", "--json", "DIR"],
    ],
    ids=["schema-json", "synth-out", "synth-mask-out", "split-out-is-a-file", "digest-json"],
)
def test_an_output_that_cannot_be_written_exits_3(tmp_path, capsys, argv):
    make_shocked_fixture(rows=200).to_csv(tmp_path / "f.csv")
    (tmp_path / "grid.json").write_text(json.dumps({"ds": 0.1, "rows": []}))
    (tmp_path / "DIR").mkdir()
    with contextlib.chdir(tmp_path):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "key, value",
    [("train", {"epochz": 3}), ("coefficients", {"k4": 1.0}), ("train", [400])],
    ids=["train-key", "coefficients-key", "train-not-object"],
)
def test_pipeline_bad_nested_config_is_config_error(fixture_csv, tmp_path, capsys, key, value):
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.2, "mc_runs": 2},
        "levels": ["without"],
        key: value,
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"bad {'train config' if key == 'train' else key}" in err


def test_split_bad_shock_date_is_config_error(fixture_csv, tmp_path, capsys):
    code = main([
        "split", str(fixture_csv), "--mode", "oot", "--date-col", "date",
        "--shock-date", "notadate", "--runs", "2", "--out", str(tmp_path / "s"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "shock_date 'notadate'" in err
    assert "row None" not in err
    # the config is checked before the input is read
    code = main([
        "split", str(tmp_path / "missing.csv"), "--mode", "oot", "--date-col", "date",
        "--shock-date", "notadate", "--out", str(tmp_path / "s"),
    ])
    assert code == 2


def test_pipeline_partial_exit_code(fixture_csv, tmp_path, capsys):
    # a 0.999 pseudo-shock fraction starves training: every cell fails
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.999, "mc_runs": 2, "seed": 1},
        "levels": ["without"],
        "seed": 1,
    }
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps(config))
    code, out = _run(capsys, "pipeline", cfg)
    assert code == 4
    assert out["partial"]


def test_report_radial_rejects_grid_json(tmp_path, capsys):
    grid = {"ds": 0.1, "rows": [], "models": []}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, _ = _run(capsys, "report", "radial", path)
    assert code == 2


def test_report_radial_takes_one_file_and_digest_many(tmp_path, capsys):
    # radial plots one report: a second file is refused, not dropped
    paths = [_write_json(tmp_path, _REPORT, name=f"r{i}.json") for i in range(2)]
    code = main(["report", "radial", *map(str, paths)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: report radial takes one report file, got 2\n"
    assert captured.out == ""
    code, radial = _run(capsys, "report", "radial", paths[0])
    assert code == 0
    assert radial["dataset"] == "d"
    code, digest = _run(capsys, "report", "digest", *paths)
    assert code == 0
    assert len(digest["rows"]) == 2


@pytest.mark.parametrize(
    "kind, report, message",
    [
        ("radial", {"a_model": 1, "levels": [{}]}, "report.a_model must be a JSON object"),
        (
            "digest",
            {"a_model": {}, "levels": [1], "drift": {"ds": 0.1}},
            "report.levels[0] must be a JSON object",
        ),
        (
            "radial",
            {"a_model": {"auc_base": None}, "levels": {"0": {}}},
            "report.levels must be a list",
        ),
        (
            "digest",
            {"a_model": {}, "levels": "5", "drift": {"ds": 0.1}},
            "report.levels must be a list",
        ),
    ],
    ids=["radial-int-a-model", "digest-int-level", "radial-levels-object", "digest-levels-text"],
)
def test_report_of_the_wrong_shape_is_data_error(tmp_path, capsys, kind, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["report", kind, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"levels": ["abc"]}, "invalid outlier level 'abc'"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"tail_sigma": "x"}, "tail_sigma must be a number > 0, got 'x'"),
        ({"split": {"date_column": "no_such_date"}}, "date column 'no_such_date'"),
    ],
    ids=["level", "seed", "tail-sigma", "date-column"],
)
def test_pipeline_bad_config_value_is_config_error(fixture_csv, tmp_path, capsys, override, message):
    split = {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22", "mc_runs": 2}
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "levels": ["without", 10],
        "output_dir": str(tmp_path / "out"),
        **override,
        "split": {**split, **override.get("split", {})},
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""  # stopped before any run
    assert not (tmp_path / "out").exists()


def test_split_missing_date_column_is_config_error(fixture_csv, tmp_path, capsys):
    out = tmp_path / "s"
    code = main([
        "split", str(fixture_csv), "--mode", "oot", "--date-col", "no_such_date",
        "--shock-date", "2018-03-22", "--runs", "2", "--out", str(out),
    ])
    assert code == 2
    assert "date column 'no_such_date'" in capsys.readouterr().err
    assert not out.exists()


def test_su_grid_non_numeric_ds_is_data_error(tmp_path, capsys):
    table = {
        "ds": "abc",
        "models": [{"name": "gbm", "levels": [{"outliers_pct": 5, "runs": [
            {"auc_base_a": 0.8, "auc_shock_a": 0.7,
             "auc_base_b": 0.81, "auc_shock_b": 0.76}]}]}],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code = main(["su-grid", str(path)])
    assert code == 3
    assert "ds must be a number >= 0, got 'abc'" in capsys.readouterr().err


def _set(config, path, value):
    """`config` with the key at dotted `path` set to `value`."""
    head, _, rest = path.partition(".")
    if rest:
        return {**config, head: _set(config[head], rest, value)}
    return {**config, head: value}


@pytest.mark.parametrize(
    "path, value, extra",
    [
        ("real_fraction", "x", ()),
        ("tau", "x", ()),
        ("epsilon", "x", ()),
        ("upsample_target", "x", ()),
        ("categorical_override", "x", ()),
        ("input", 5, ()),
        ("output_dir", 5, ()),
        ("nonneg_columns", 5, ()),
        ("exclude_from_ds", 5, ()),
        ("missing_tokens", 5, ()),
        ("train.epochs", "x", ()),
        ("train.epochs", 2.5, ()),
        ("split.mc_runs", 2.0, ()),
        (None, ["not", "an", "object"], ()),
        ("split", "x", ("--runs", "2")),
        ("epsilon", 0, ()),
        ("dataset_name", 5, ()),
        ("coefficients.k1", True, ()),
        ("real_fraction", True, ()),
        ("output_dir", "o\u0000ut", ()),
        ("family", "no-such-family", ()),
    ],
    ids=[
        "real-fraction-str", "tau-str", "epsilon-str", "upsample-target-str",
        "categorical-override-str", "input-int", "output-dir-int",
        "nonneg-columns-int", "exclude-from-ds-int", "missing-tokens-int",
        "epochs-str", "epochs-float", "mc-runs-float", "config-list",
        "split-str-with-runs", "epsilon-zero", "dataset-name-int",
        "k1-bool", "real-fraction-bool", "output-dir-nul", "family-unknown",
    ],
)
def test_pipeline_config_fault_stops_before_training(
    fixture_csv, tmp_path, capsys, monkeypatch, path, value, extra
):
    from shockstab import pipeline

    trained = []
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    monkeypatch.setattr(pipeline, "train_baseline", lambda *a: trained.append(a))
    monkeypatch.setattr(pipeline, "train_baselines", lambda *a: trained.append(a))
    out = tmp_path / "out"
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
                  "mc_runs": 2, "seed": 1},
        "levels": ["without", 5],
        "output_dir": str(out),
        "coefficients": {"k1": 100.0},
        "train": {"epochs": 5},
    }
    config = value if path is None else _set(config, path, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert trained == []


def test_pipeline_unwritable_output_dir_stops_before_training(
    fixture_csv, tmp_path, capsys, monkeypatch
):
    # a file where the output directory should be: no directory can be made
    # there, so the run must stop with a data error before the first model
    trained = []
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    monkeypatch.setattr(pipeline, "train_baseline", lambda *a: trained.append(a))
    monkeypatch.setattr(pipeline, "train_baselines", lambda *a: trained.append(a))
    out = fixture_csv / "out"
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.2, "mc_runs": 2},
        "levels": ["without", 5],
        "output_dir": str(out),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert trained == []


def test_pipeline_output_dir_that_cannot_be_written_stops_before_training(
    fixture_csv, tmp_path, capsys, monkeypatch
):
    # chmod denies root nothing, so the write probe's file creation is made
    # to raise as a read-only directory makes it raise for other users
    calls = []
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    for name in ("fit", "train_baseline", "train_baselines"):
        monkeypatch.setattr(pipeline, name, lambda *a, _name=name: calls.append(_name))
    out = tmp_path / "out"
    out.mkdir()

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(out))

    monkeypatch.setattr(pipeline.tempfile, "TemporaryFile", denied)
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.2, "mc_runs": 2},
        "levels": ["without", 5],
        "output_dir": str(out),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: cannot write {out}: [Errno 13] Permission denied: '{out}'\n"
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize(
    "label, report_file, message",
    [
        ("no_such_column", None, "schema mismatch on column 'no_such_column'"),
        ("sector", None, "label column 'sector' must be numerical 0/1"),
        ("is_bad", "report.json", "cannot write {out}/report.json: "),
        ("is_bad", "auc_runs.csv", "cannot write {out}/auc_runs.csv: "),
        ("is_bad", "uplift.csv", "cannot write {out}/uplift.csv: "),
    ],
    ids=["missing-label", "categorical-label", "report-json-is-a-directory",
         "auc-runs-csv-is-a-directory", "uplift-csv-is-a-directory"],
)
def test_pipeline_data_fault_exits_3_with_one_error_line(
    tmp_path, capsys, monkeypatch, label, report_file, message
):
    # a bad label, or a report file that exists and is not a regular file,
    # stops the run before any model trains
    calls = []
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    for name in ("fit", "train_baseline", "train_baselines"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    csv_path = tmp_path / "small.csv"
    make_shocked_fixture(rows=300).to_csv(csv_path)
    out = tmp_path / "out"
    if report_file:
        (out / report_file).mkdir(parents=True)
    config = {
        "input": str(csv_path),
        "label": label,
        "split": {"mode": "oos", "shock_fraction": 0.2, "mc_runs": 1},
        "levels": ["without", 5],
        "output_dir": str(out),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: " + message.format(out=out))
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert calls == []


def test_pipeline_override_flags_are_checked(fixture_csv, tmp_path, capsys):
    config = {
        "input": str(fixture_csv),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.2},
        "levels": ["without"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main(["pipeline", str(cfg), "--runs", "0"])
    assert code == 2
    assert "mc_runs must be an integer >= 1, got 0" in capsys.readouterr().err


def _auc_table(**level_overrides):
    run = {"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81, "auc_shock_b": 0.76}
    level = {"outliers_pct": 5, "runs": [run], **level_overrides}
    return {"ds": 0.1, "models": [{"name": "gbm", "levels": [level]}]}


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
def test_a_nested_table_with_no_ds_needs_the_ds_flag(tmp_path, capsys, command):
    # a table with no ds is not scored at DS 0.0: it needs --ds, as a flat
    # record list does
    table = _auc_table()
    for name in ("bare", "own"):
        (tmp_path / name).mkdir()
    bare = _write_json(tmp_path / "bare", {"models": table["models"]})
    code = main([command, str(bare)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {bare}: --ds is required with a table that has no 'ds'\n"
    assert captured.out == ""
    # --ds alone scores it as the table's own ds does
    code, flagged = _run(capsys, command, bare, "--ds", "0.1")
    assert code == 0
    code, own = _run(capsys, command, _write_json(tmp_path / "own", table))
    assert code == 0
    assert flagged == own


@pytest.mark.parametrize(
    "table, message",
    [
        ({"ds": 0.1, "models": [1]}, "models must be a list of objects, got [1]"),
        ({"ds": 0.1, "models": 5}, "models must be a list of objects, got 5"),
        ({"ds": 0.1, "models": [{"name": "gbm", "levels": [[5]]}]},
         "gbm: levels must be a list of objects"),
        (_auc_table(runs=[[0.8]]), "gbm/level 5: runs must be a list of objects"),
        (_auc_table(outliers_pct="abc"), "gbm: invalid outlier level 'abc'"),
        (_auc_table(outliers_pct=True), "gbm: invalid outlier level True"),
    ],
    ids=["model-int", "models-int", "level-list", "run-list", "level-str", "level-bool"],
)
def test_su_grid_malformed_table_is_data_error(tmp_path, capsys, table, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code = main(["su-grid", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert message in err
    assert "Traceback" not in err


_RUN_AUCS = ("auc_base_a", "auc_shock_a", "auc_base_b", "auc_shock_b")


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
                            {key: float(rng.uniform(0.5, 1)) for key in _RUN_AUCS}
                            for _ in range(runs)
                        ],
                    }
                    for lvl in level_labels
                ],
            }
            for i in range(models)
        ],
    }


def _write_json(tmp_path, payload, name="table.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_su_grid_nested_table_aggregates_to_64_cells(tmp_path, capsys):
    table = _nested_table()
    code, out = _run(capsys, "su-grid", _write_json(tmp_path, table))
    assert code == 0
    assert out["ds"] == 0.1193
    cells = [cell for row in out["rows"] for cell in row["cells"].values()]
    assert len(cells) == 64 and None not in cells
    # a cell is the uplift of each AUC's numpy median over the level's runs
    runs = table["models"][0]["levels"][0]["runs"]
    medians = [float(np.median([r[key] for r in runs])) for key in _RUN_AUCS]
    expected = stabilization_uplift(medians[:2], medians[2:], 0.1193).to_dict()
    assert out["rows"][0]["cells"]["model0"] == expected


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
@pytest.mark.parametrize("layout", ["flat", "nested"])
@pytest.mark.parametrize(
    "value, message",
    [(1.2, "must be a number in [0, 1], got 1.2"),
     ("high", "must be a number in [0, 1], got 'high'"),
     (None, "must be a number in [0, 1], got None")],
    ids=["out-of-range", "text", "null"],
)
def test_a_bad_auc_names_its_file_record_and_field(
    tmp_path, capsys, command, layout, value, message
):
    run = {"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81, "auc_shock_b": 0.76}
    bad = {**run, "auc_shock_b": value}
    if layout == "flat":
        payload = [{"model": "m", "outliers_pct": 5, **run},
                   {"model": "m", "outliers_pct": 10, **bad}]
        flags, where = ("--ds", "0.1"), "record 1"
    else:
        payload, flags, where = _auc_table(runs=[run, bad]), (), "gbm/level 5/run 1"
    path = _write_json(tmp_path, payload)
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}: {where} auc_shock_b {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
def test_nested_table_with_no_models_is_data_error(tmp_path, capsys, command):
    path = _write_json(tmp_path, {"ds": 0.1, "models": []})
    code = main([command, str(path)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {path}: empty model list\n"


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
def test_auc_table_that_is_not_json_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot load {path}: ") and err.count("\n") == 1


def _reference_records(table, per_run):
    """A nested table's records as the reader gave them before it moved into
    the CLI: numpy's median of each AUC over a level's runs, or with
    `per_run` one record per run."""
    records = []
    for m in table["models"]:
        for lvl in m["levels"]:
            label = normalize_level(lvl["outliers_pct"])
            runs = [tuple(float(run[key]) for key in _RUN_AUCS) for run in lvl["runs"]]
            if per_run:
                records += [(f"{m['name']}#run{k}", label, *run) for k, run in enumerate(runs)]
            else:
                medians = np.median(np.asarray(runs, dtype=np.float64), axis=0)
                records.append((m["name"], label, *[float(v) for v in medians]))
    return records


def _bits(records):
    return [(model, level, *map(float.hex, aucs)) for model, level, *aucs in records]


_DRAWN_AUCS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
_DRAWN_TABLES = st.fixed_dictionaries({
    "ds": st.floats(0.0, 1.0),
    "models": st.lists(
        st.fixed_dictionaries({
            "name": st.text(min_size=1, max_size=4),
            "levels": st.lists(
                st.fixed_dictionaries({
                    "outliers_pct": st.sampled_from(["without", 0, 1, 2.5, "5", 10.0]),
                    "runs": st.lists(
                        st.fixed_dictionaries({key: _DRAWN_AUCS for key in _RUN_AUCS}),
                        min_size=1, max_size=6,
                    ),
                }),
                min_size=1, max_size=3,
            ),
        }),
        min_size=1, max_size=3,
    ),
})


@settings(max_examples=200, deadline=None)
@given(
    table=_DRAWN_TABLES,
    per_run=st.booleans(),
    ds_flag=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_nested_records_are_bitwise_the_numpy_median_reference(
    tmp_path_factory, table, per_run, ds_flag
):
    path = _write_json(tmp_path_factory.getbasetemp(), table, "drawn_table.json")
    records, ds = cli._grid_records(str(path), ds_flag, per_run)
    assert _bits(records) == _bits(_reference_records(table, per_run))
    assert ds == (table["ds"] if ds_flag is None else ds_flag)


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
def test_nested_auc_table_is_read_once(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_auc_table()))
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    # pathlib opens through io.open, plain open() through builtins.open
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, out = _run(capsys, command, path)
    monkeypatch.undo()
    assert code == 0
    assert out
    assert len(opened) == 1


def _write_latin1(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes("date,x,is_bad\n2018-01-01,caf\xe9,0\n".encode("latin-1"))
    return path


_CSV_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ("schema", "{csv}"),
        ("ds", "{csv}", "{csv}"),
        ("split", "{csv}", "--mode", "oos", "--shock-fraction", "0.2", "--out", "{tmp}/s"),
        ("synth", "{csv}", "--rows", "5", "--out", "{tmp}/syn.csv"),
        ("pipeline", "{config}"),
    ],
    ids=["schema", "ds", "split", "synth", "pipeline"],
)


def _run_on_csv(tmp_path, capsys, argv, csv_path):
    """Exit code, stdout and stderr of `argv` with {csv} set to `csv_path`
    and {config} to a pipeline config that reads it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "input": str(csv_path),
        "label": "is_bad",
        "split": {"mode": "oos", "shock_fraction": 0.2},
        "levels": ["without"],
        "output_dir": str(tmp_path / "out"),
    }))
    fields = {"csv": csv_path, "config": config, "tmp": tmp_path}
    code = main([a.format(**fields) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@_CSV_COMMANDS
def test_csv_that_is_not_utf8_is_data_error(tmp_path, capsys, argv):
    csv_path = _write_latin1(tmp_path)
    code, out, err = _run_on_csv(tmp_path, capsys, argv, csv_path)
    assert code == 3
    assert err == (
        f"error: cannot read {csv_path}: not UTF-8 text (invalid continuation byte)\n"
    )
    assert out == ""


@_CSV_COMMANDS
def test_csv_with_a_field_beyond_the_limit_is_data_error(tmp_path, capsys, argv):
    # csv's field limit stays as it is: such a cell is a data error
    limit = csv.field_size_limit()
    csv_path = tmp_path / "long.csv"
    csv_path.write_text(f"date,x,is_bad\n2018-01-01,{'y' * (limit + 1)},0\n")
    code, out, err = _run_on_csv(tmp_path, capsys, argv, csv_path)
    assert code == 3
    assert err == f"error: {csv_path}: line 2: field larger than field limit ({limit})\n"
    assert out == ""


@_CSV_COMMANDS
def test_csv_with_a_quote_never_closed_is_data_error(tmp_path, capsys, argv):
    # a lenient csv reader would fold the last row into the open cell
    csv_path = tmp_path / "open.csv"
    csv_path.write_text('date,x,is_bad\n2018-01-01,"y,0\n2018-01-02,z,1\n')
    code, out, err = _run_on_csv(tmp_path, capsys, argv, csv_path)
    assert code == 3
    assert err == f"error: {csv_path}: line 3: unexpected end of data\n"
    assert out == ""


_BEYOND = "column 'price' spreads beyond float's range: its standard deviation cannot be computed"


@_CSV_COMMANDS
@pytest.mark.parametrize("big", [1e308, 1e155])
def test_finite_cells_whose_moments_overflow_keep_the_exit_contract(
    tmp_path, capsys, monkeypatch, argv, big
):
    # every cell is finite, but price's variance (and at 1e308 its mean)
    # lies beyond float's range
    frame = make_shocked_fixture(rows=400)
    price = frame.column("price").values.copy()
    price[::7] = big
    csv_path = tmp_path / "overflow.csv"
    TabularFrame(
        [Column("price", ColumnKind.NUMERICAL, price) if c.name == "price" else c
         for c in frame.columns]
    ).to_csv(csv_path)
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_on_csv(tmp_path, capsys, argv, csv_path)
    command = argv[0]
    if command == "synth":
        assert (code, out, err) == (3, "", f"error: {_BEYOND}\n")
        return
    assert "Traceback" not in err
    if command == "pipeline":
        assert code == 4
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert {f["error"] for f in report["a_model"]["failures"]} == {_BEYOND}
        return
    assert (code, err) == (0, "")
    if command == "schema":
        (summary,) = [c for c in json.loads(out)["columns"] if c["name"] == "price"]
        assert summary["std"] is None and summary["max"] == big
        assert (summary["mean"] is None) == (big == 1e308)


def test_schema_of_a_pipe_equals_the_schema_of_its_file(tmp_path):
    # a pipe cannot seek: load_csv spools it to read it again for g, whose
    # two numbers put it under the override, its categories its cell text
    path = tmp_path / "g.csv"
    path.write_text("g,x\n0,1.5\n1,2.5\n1.0,3.5\n0,NA\n", encoding="utf-8")
    argv = [sys.executable, "-m", "shockstab", "schema", "--categorical-override", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(shockstab.__file__).parents[1])}
    piped = subprocess.run(
        [*argv, "/dev/stdin"], input=path.read_bytes(), capture_output=True, timeout=120,
        env=env,
    )
    direct = subprocess.run([*argv, str(path)], capture_output=True, timeout=120, env=env)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == direct.stdout
    g = json.loads(piped.stdout)["columns"][0]
    assert (g["kind"], g["unique_count"]) == ("categorical", 3)


@pytest.fixture(scope="module")
def number_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("numbers")
    record = {
        "model": "m", "outliers_pct": 5,
        "auc_base_a": 0.8, "auc_shock_a": 0.7,
        "auc_base_b": 0.82, "auc_shock_b": 0.78,
    }
    anchor = {
        "a_base": 0.8, "a_shock": 0.7, "b_base": 0.8, "b_shock": 0.7,
        "ds": 0.2, "target_su": 0.0,
    }
    files = {
        "flat.json": json.dumps([record]),
        "empty.json": "[]",
        "anchors.json": json.dumps([anchor]),
        "base.csv": "x,s\n1,a\n2,b\n",
        "shock.csv": "x,s\n3,a\n1,c\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 0.0, -1.0]),
)


def _drawn_json(root, name, payload_strategy):
    """Paths of `name` in `root`, written with each drawn payload; NaN and
    ±Infinity go out as the JSON tokens json.dumps writes for them."""

    def write(payload):
        (root / name).write_text(json.dumps(payload), encoding="utf-8")
        return str(root / name)

    return payload_strategy.map(write)


def _drawn_fields(base):
    """`base` with each numeric field kept or replaced by a drawn number."""
    return st.fixed_dictionaries(
        {key: st.one_of(st.just(value), NUMBERS) for key, value in base.items()}
    )


def _drawn_report():
    cells = _drawn_fields(
        {"a_base": 0.8, "a_shock": 0.7, "b_base": 0.82, "b_shock": 0.78, "ds": 0.2, "su": 0.1}
    )
    return cells.map(
        lambda c: {
            "dataset": "d",
            "drift": {"ds": c["ds"]},
            "a_model": {"auc_base": {"median": c["a_base"]}, "auc_shock": {"median": c["a_shock"]}},
            "levels": [
                {
                    "outliers_pct": "5",
                    "b_model": {
                        "auc_base": {"median": c["b_base"]},
                        "auc_shock": {"median": c["b_shock"]},
                    },
                    "uplift": {"su_display": c["su"]},
                }
            ],
        }
    )


def _flag(name, value):
    # the = form keeps a negative number from reading as a flag
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _command(root):
    pair = st.one_of(
        st.text(max_size=12),
        st.builds(lambda x, y: f"{x!r},{y!r}", NUMBERS, NUMBERS),
    )
    grid = st.one_of(
        st.text(max_size=12),
        st.builds(lambda k, v: f"{k}={v!r}", st.sampled_from(["k1", "k2", "k3"]), NUMBERS),
        st.builds(lambda a, b, c: f"k1={a!r};k2={b!r};k3={c!r}", NUMBERS, NUMBERS, NUMBERS),
    )
    anchors = st.lists(_drawn_fields({**_ANCHOR, "confidence": 1.0}), min_size=1, max_size=2)
    return st.one_of(
        st.builds(
            lambda b, s, ds, eps: ["ss", _flag("auc-base", b), _flag("auc-shock", s),
                                   _flag("ds", ds), _flag("epsilon", eps)],
            NUMBERS, NUMBERS, NUMBERS, NUMBERS,
        ),
        st.builds(
            lambda a, b, ds, eps: ["su", _flag("a", a), _flag("b", b),
                                   _flag("ds", ds), _flag("epsilon", eps)],
            pair, pair, NUMBERS, NUMBERS,
        ),
        st.builds(
            lambda name, ds: ["su-grid", str(root / name), _flag("ds", ds)],
            st.sampled_from(["flat.json", "empty.json"]), NUMBERS,
        ),
        st.builds(
            lambda tau: ["ds", str(root / "base.csv"), str(root / "shock.csv"),
                         _flag("tau", tau)],
            NUMBERS,
        ),
        st.builds(
            lambda g: ["calibrate", str(root / "anchors.json"), _flag("grid", g)],
            grid,
        ),
        _drawn_json(root, "drawn_anchors.json", anchors).map(lambda path: ["calibrate", path]),
        st.builds(
            lambda kind, path, nonzero: ["report", kind, path] + (["--nonzero"] if nonzero else []),
            st.sampled_from(["digest", "radial"]),
            _drawn_json(root, "drawn_report.json", _drawn_report()),
            st.booleans(),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_with_a_documented_code(number_inputs, data):
    argv = data.draw(_command(number_inputs))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
    assert code in (0, 2, 3), argv


# A pipeline config with one key set to a drawn value must end in a
# documented exit code (0 ok, 2 config, 3 data, 4 partial), never a
# traceback. Integers stay small so that no drawn run count, epoch count or
# row target makes a run long, and a real_fraction f, which asks for
# (1 - f) / f synthetic rows per real row, is not drawn below 0.01 (the test
# after this one takes the shares no memory can hold). output_dir is drawn
# only from names with no "/" and no "..", so nothing is written outside the
# test's folder.
_PIPELINE_BASE = {
    "input": "tiny.csv",
    "label": "is_bad",
    "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
              "mc_runs": 1, "seed": 3},
    "levels": ["without", 10],
    "upsample_target": 0,
    "train": {"epochs": 20},
    "seed": 3,
}
_PIPELINE_PATHS = [
    (key, sub)
    for key, value in pipeline.PipelineConfig.from_dict(_PIPELINE_BASE).to_dict().items()
    if key != "output_dir"
    for sub in ([None] + list(value) if isinstance(value, dict) else [None])
]
_PIPELINE_SCALARS = st.one_of(
    st.integers(-2, 3),
    st.floats(),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.sampled_from(["without", "5", "oos", "oot", "2018-03-22", "date", "is_bad",
                     "sector", "price", "0.25", "", "tiny.csv"]),
)
_PIPELINE_VALUES = st.one_of(
    _PIPELINE_SCALARS,
    st.lists(_PIPELINE_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=8), _PIPELINE_SCALARS, max_size=2),
)
_OUTPUT_DIRS = st.one_of(
    st.text(max_size=8).filter(lambda name: "/" not in name and ".." not in name),
    st.sampled_from(["out", ".", "tiny.csv", "config.json"]),
)
_PIPELINE_DRAWS = st.sampled_from(_PIPELINE_PATHS + [("output_dir", None)]).flatmap(
    lambda path: st.tuples(
        st.just(path), _OUTPUT_DIRS if path[0] == "output_dir" else _PIPELINE_VALUES
    )
)


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline-property")
    make_shocked_fixture(rows=80, seed=5).to_csv(path / "tiny.csv")
    return path


def _pipeline_exit(directory, config) -> int:
    (directory / "config.json").write_text(json.dumps(config))
    sink = io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink), \
            mock.patch.object(pipeline, "_worker_count", lambda tasks: 1):
        return main(["pipeline", "config.json"])


def test_pipeline_property_base_config_runs(tiny_dir):
    assert _pipeline_exit(tiny_dir, _PIPELINE_BASE) == 0


@settings(max_examples=150, deadline=None)
@given(draw=_PIPELINE_DRAWS)
@example(draw=(("tail_sigma", None), 1e308))
def test_pipeline_config_with_a_drawn_value_exits_with_a_documented_code(tiny_dir, draw):
    (key, sub), value = draw
    assume(not (key == "real_fraction" and isinstance(value, float) and 0 < value < 0.01))
    config = dict(_PIPELINE_BASE)
    if sub is None:
        config[key] = value
    else:
        config[key] = {**config.get(key, {}), sub: value}
    with mock.patch.object(pipeline, "train_baseline", wraps=pipeline.train_baseline) as one, \
            mock.patch.object(pipeline, "train_baselines", wraps=pipeline.train_baselines) as many:
        code = _pipeline_exit(tiny_dir, config)
    assert code in (0, 2, 3, 4)
    if code == 2:  # a config error stops the run before any model trains
        assert one.call_count == many.call_count == 0


@pytest.mark.parametrize("real_fraction", [1.6331864357700506e-149, 1e-12, 5e-324])
def test_pipeline_real_fraction_beyond_memory_exits_3(tiny_dir, real_fraction):
    config = {**_PIPELINE_BASE, "real_fraction": real_fraction}
    (tiny_dir / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.chdir(tiny_dir), contextlib.redirect_stderr(err), \
            mock.patch.object(pipeline, "_worker_count", lambda tasks: 1):
        code = main(["pipeline", "config.json"])
    assert code == 3
    assert err.getvalue().startswith("error: not enough memory: ")
    assert err.getvalue().count("\n") == 1


def test_pipeline_tail_sigma_beyond_float_range_fails_its_outlier_level(tiny_dir, tmp_path):
    config = {**_PIPELINE_BASE, "tail_sigma": 1e308, "output_dir": str(tmp_path / "out")}
    assert _pipeline_exit(tiny_dir, config) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    without, ten = report["levels"]
    assert without["status"] == "ok"
    assert ten["failures"] == [
        {"run": 0, "error": "tail_sigma 1e+308 pushes tail values beyond float's range"}
    ]


def test_pipeline_tail_sigma_beyond_a_models_scale_fails_its_outlier_level(
    tmp_path, capsys, monkeypatch
):
    # tail values near 1e200 are finite, but their squares overflow the
    # standard deviation a model scales the column by
    make_shocked_fixture(rows=300).to_csv(tmp_path / "f.csv")
    config = {
        **_PIPELINE_BASE, "input": str(tmp_path / "f.csv"), "levels": ["without", 50],
        "tail_sigma": 1e200, "output_dir": str(tmp_path / "out"),
    }
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pipeline", str(_write_json(tmp_path, config))])
    captured = capsys.readouterr()
    assert code == 4
    assert all(line.startswith("error: ") for line in captured.err.splitlines())
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    without, fifty = report["levels"]
    assert without["status"] == "ok" and without["failures"] == []
    assert fifty["status"] == "failed"
    assert fifty["failures"] == [
        {"run": 0, "error": "tail_sigma 1e+200 pushes column 'rate' beyond the spread "
                            "a model can scale"}
    ]


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "empty record list"),
        ({"ds": 0.1, "models": [{"name": "gbm"}]}, "gbm has no levels"),
        ([{"model": "m", "outliers_pct": 5, "auc_base_a": "0.7", "auc_shock_a": 0.7,
           "auc_base_b": 0.81, "auc_shock_b": 0.76}],
         "record 0 auc_base_a must be a number in [0, 1], got '0.7'"),
        ([{"model": "m", "outliers_pct": 5, "auc_base_a": 0.8, "auc_shock_a": 0.7,
           "auc_base_b": True, "auc_shock_b": 0.76}],
         "record 0 auc_base_b must be a number in [0, 1], got True"),
        ({**_auc_table(), "ds": "0.3"}, "ds must be a number >= 0, got '0.3'"),
    ],
    ids=["flat-empty", "model-without-levels", "quoted-auc", "boolean-auc", "quoted-ds"],
)
def test_an_auc_file_with_no_record_or_a_number_as_text_is_data_error(
    tmp_path, capsys, command, payload, message
):
    # float() would read "0.7" and "0.3" as numbers and True as 1.0
    path = _write_json(tmp_path, payload)
    code = main([command, str(path), "--ds", "0.2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["su-grid", "sweep"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ([{"model": None}], "record 0 model must be a non-empty string, got None"),
        ([{"model": ""}], "record 0 model must be a non-empty string, got ''"),
        ([{"model": [1]}], "record 0 model must be a non-empty string, got [1]"),
        ([{"model": {"a": 1}}], "record 0 model must be a non-empty string, got {'a': 1}"),
        ({"ds": 0.1, "models": [{"name": 5}]}, "model 0 name must be a non-empty string, got 5"),
        ({"ds": 0.1, "models": [{"levels": []}]},
         "model 0 name must be a non-empty string, got None"),
        ({"ds": -0.1, "models": [{"name": "m"}]}, "ds must be a number >= 0, got -0.1"),
    ],
    ids=["flat-null", "flat-empty", "flat-list", "flat-object", "nested-int", "nested-missing",
         "nested-negative-ds"],
)
def test_a_model_name_that_is_not_text_is_data_error(tmp_path, capsys, command, payload, message):
    # str() would score these under "None", "[1]", "5"
    if isinstance(payload, list):
        payload = [{**r, "outliers_pct": 5, "auc_base_a": 0.8, "auc_shock_a": 0.7,
                    "auc_base_b": 0.81, "auc_shock_b": 0.76} for r in payload]
    path = _write_json(tmp_path, payload)
    code = main([command, str(path), "--ds", "0.2"] if isinstance(payload, list)
                else [command, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "value, message",
    [("0.8", "a_base must be a number in [0, 1], got '0.8'"),
     (True, "a_base must be a number in [0, 1], got True"),
     (1.2, "a_base must be a number in [0, 1], got 1.2")],
    ids=["text", "bool", "out-of-range"],
)
def test_an_anchor_value_that_is_not_a_number_in_range_exits_3(tmp_path, capsys, value, message):
    # text once exited 2 with a TypeError's message; a boolean was read as 1
    path = _write_json(tmp_path, [{**_ANCHOR, "a_base": value}], "anchors.json")
    code = main(["calibrate", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("schema", "{csv}"),
        ("ds", "{csv}", "{csv}"),
        ("synth", "{csv}", "--rows", "5", "--out", "{tmp}/syn.csv"),
        ("pipeline", "{oot}"),
        ("pipeline", "{oos}"),
        ("split", "{csv}", "--mode", "oos", "--shock-fraction", "0.2", "--runs", "1",
         "--out", "{tmp}/s"),
    ],
    ids=["schema", "ds", "synth", "pipeline-oot", "pipeline-oos", "split"],
)
def test_only_split_and_an_oot_date_keep_numerical_text(tmp_path, capsys, monkeypatch, argv):
    # the dates are numbers such as 20180322. Each column's kind comes from
    # its cells, so every command loads the date column as numerical, and
    # no loaded frame keeps a numerical column's text: the OOT split writes
    # each date's text from its value. split, which exports, keeps each
    # row's CSV line instead
    csv_path = tmp_path / "shocked.csv"
    with_compact_dates(make_shocked_fixture(rows=300)).to_csv(csv_path)
    configs = {}
    for mode, split in [
        ("oot", {"mode": "oot", "date_column": "date", "shock_date": "20180322"}),
        ("oos", {"mode": "oos", "shock_fraction": 0.2}),
    ]:
        configs[mode] = _write_json(tmp_path, {
            "input": str(csv_path), "label": "is_bad", "levels": ["without"],
            "split": {**split, "mc_runs": 2}, "output_dir": str(tmp_path / mode),
        }, name=f"{mode}.json")
    frames = []

    def recording_load_csv(*args, **kwargs):
        frames.append(load_csv(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(cli, "load_csv", recording_load_csv)
    monkeypatch.setattr(pipeline, "load_csv", recording_load_csv)
    fields = {"csv": csv_path, "tmp": tmp_path, **configs}
    assert main([a.format(**fields) for a in argv]) == 0
    capsys.readouterr()
    assert frames
    for frame in frames:
        assert frame.kind_of("rate") is ColumnKind.NUMERICAL
        categorical = {c.name for c in frame.columns if c.kind is ColumnKind.CATEGORICAL}
        assert frame.kind_of("date") is ColumnKind.NUMERICAL
        assert categorical == {"sector"}
        # only the split command's export load keeps text: its lines, and
        # its categorical column's cells
        exported = argv[0] == "split"
        assert all((c.raw is not None) == (exported and c.name in categorical)
                   for c in frame.columns)
        assert (frame.lines is not None) == exported


def test_pipeline_whose_label_is_its_oot_date_column_exits_2_before_reading(
    tmp_path, capsys, monkeypatch
):
    # is_bad holds 0 and 1, a label but not a date: the config that names it
    # as the OOT date column can never run, and stops before the CSV is read
    calls = []
    for name in ("load_csv", "model_splits", "fit", "train_baseline", "train_baselines"):
        monkeypatch.setattr(pipeline, name, lambda *a, _name=name: calls.append(_name))
    csv_path = tmp_path / "small.csv"
    make_shocked_fixture(rows=300).to_csv(csv_path)
    cfg = _write_json(tmp_path, {
        "input": str(csv_path), "label": "is_bad", "levels": ["without"],
        "split": {"mode": "oot", "date_column": "is_bad", "shock_date": "2018-03-22",
                  "mc_runs": 1},
    }, name="config.json")
    code = main(["pipeline", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: date_column 'is_bad' is the label: an OOT split needs its dates in a "
        "column apart from the 0/1 label\n"
    )
    assert captured.out == ""
    assert calls == []


def _dated_csv(path, form) -> dict:
    """Write a 300-row fixture whose ISO dates are written by `form` to
    `path`; returns each written date's ISO text."""
    frame = make_shocked_fixture(rows=300)
    iso = frame.column("date").values.tolist()
    written = [form(d) for d in iso]
    dates = Column("date", ColumnKind.CATEGORICAL, np.array(written, dtype=object))
    TabularFrame([dates if c.name == "date" else c for c in frame.columns]).to_csv(path)
    return dict(zip(written, iso))


_DATE_FORMS = {
    "iso": lambda d: d,
    "integer": lambda d: d.replace("-", ""),
    "float": lambda d: d.replace("-", "") + ".0",
    "signed": lambda d: "+" + d.replace("-", ""),
}


@pytest.mark.parametrize("form", ["integer", "float", "signed"])
def test_a_numerical_date_column_splits_and_scores_as_its_iso_twin(
    tmp_path, capsys, monkeypatch, form
):
    # 20180322, 20180322.0 and +20180322 each load as the number 20180322.0,
    # whose date text the OOT split writes from its value
    monkeypatch.setattr(pipeline, "_worker_count", lambda tasks: 1)
    outputs = {}
    for name in ("iso", form):
        base = tmp_path / name
        base.mkdir()
        iso_of = _dated_csv(base / "f.csv", _DATE_FORMS[name])
        code, _ = _run(capsys, "split", base / "f.csv", "--mode", "oot", "--date-col", "date",
                       "--shock-date", "2018-03-22", "--runs", "2", "--seed", "3",
                       "--out", base / "split")
        assert code == 0
        files = {}
        for path in sorted((base / "split").iterdir()):
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            # each date cell keeps its own text: compared as its ISO twin
            files[path.name] = [header] + [[iso_of[r[0]], *r[1:]] for r in rows]
        config = _write_json(base, {
            "input": str(base / "f.csv"), "label": "is_bad", "levels": ["without", 5],
            "split": {"mode": "oot", "date_column": "date", "shock_date": "20180322",
                      "mc_runs": 2, "seed": 3},
            "train": {"epochs": 20}, "upsample_target": 0,
        }, name="config.json")
        code, report = _run(capsys, "pipeline", config)
        assert code == 0
        outputs[name] = files, {k: report[k] for k in ("drift", "a_model", "levels")}
    assert len(outputs["iso"][0]) == 6
    assert outputs[form] == outputs["iso"]


@pytest.mark.parametrize("value, shown", [("2018.5", "2018.5"), ("123456789", "123456789.0")])
@pytest.mark.parametrize("command", ["split", "pipeline"])
def test_a_numerical_date_that_is_no_yyyymmdd_integer_exits_3_naming_its_row(
    tmp_path, capsys, command, value, shown
):
    path = tmp_path / "f.csv"
    _dated_csv(path, _DATE_FORMS["integer"])
    lines = path.read_bytes().split(b"\r\n")
    lines[8] = value.encode() + lines[8][len("20170322"):]  # the frame's row 7
    path.write_bytes(b"\r\n".join(lines))
    if command == "split":
        argv = ["split", str(path), "--mode", "oot", "--date-col", "date",
                "--shock-date", "2018-03-22", "--out", str(tmp_path / "split")]
    else:
        argv = ["pipeline", str(_write_json(tmp_path, {
            "input": str(path), "label": "is_bad", "levels": ["without"],
            "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22"},
        }, name="config.json"))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: row 7: cannot parse {shown!r} as a date\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "path, value, message, reads",
    [
        ("split.date_column", "is_bad", "date_column 'is_bad' is the label: an OOT split "
         "needs its dates in a column apart from the 0/1 label", False),
        ("categorical_override", 2, "categorical_override must be 0 or 1, got 2: at 2 or "
         "more it loads the 0/1 label 'is_bad' as categorical", False),
        ("nonneg_columns", ["nope"], "nonneg column 'nope' is not a numerical model column",
         True),
        ("nonneg_columns", ["date"], "nonneg column 'date' is not a numerical model column",
         True),
        ("nonneg_columns", ["price", "sector"],
         "nonneg column 'sector' is not a numerical model column", True),
        ("exclude_from_ds", ["sectr"], "exclude_from_ds column 'sectr' is not in the data",
         True),
        ("exclude_from_ds", ["date", "is_bad", "nope"],
         "exclude_from_ds column 'nope' is not in the data", True),
    ],
    ids=["date-is-label", "override-2", "nonneg-unknown", "nonneg-oot-date",
         "nonneg-categorical", "exclude-unknown", "exclude-after-date-and-label"],
)
def test_a_pipeline_that_can_never_run_exits_2_before_any_fit(
    fixture_csv, tmp_path, capsys, monkeypatch, path, value, message, reads
):
    # the two config faults stop before the CSV is read; a DS exclusion is
    # checked against the loaded columns, and a nonneg column against the
    # model frame, before any generator or model fits
    calls = []
    for name in ("fit", "train_baseline", "train_baselines"):
        monkeypatch.setattr(pipeline, name, lambda *a, _name=name: calls.append(_name))
    read = []
    monkeypatch.setattr(
        pipeline, "load_csv", lambda *a, **k: read.append(a) or load_csv(*a, **k)
    )
    config = {
        "input": str(fixture_csv), "label": "is_bad", "levels": ["without", 5],
        "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
                  "mc_runs": 2},
    }
    code = main(["pipeline", str(_write_json(tmp_path, _set(config, path, value)))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert calls == []
    assert bool(read) == reads


def test_a_utf8_byte_order_mark_is_not_read_into_the_first_column_name(tmp_path, capsys):
    # a CSV saved as "utf-8-sig" starts with a byte-order mark; the first
    # column is still "date", and split writes no mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    make_shocked_fixture(rows=300).to_csv(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_csv(marked).column_names == load_csv(plain).column_names
    assert load_csv(marked).column_names[0] == "date"
    for path in (plain, marked):
        code = main(["split", str(path), "--mode", "oot", "--date-col", "date",
                     "--shock-date", "2018-03-22", "--runs", "1",
                     "--out", str(tmp_path / path.stem)])
        assert code == 0
    for name in ("train_000.csv", "test_000.csv", "shock_000.csv"):
        exported = (tmp_path / "marked" / name).read_bytes()
        assert exported.startswith(b"date,")
        assert exported == (tmp_path / "plain" / name).read_bytes()
    cfg = _write_json(tmp_path, {
        "input": str(marked), "label": "is_bad", "levels": ["without"],
        "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
                  "mc_runs": 2},
    }, name="config.json")
    capsys.readouterr()
    assert main(["pipeline", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
