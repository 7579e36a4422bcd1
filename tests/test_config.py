"""The declared config fields: checks at construction, from_dict and to_dict;
and `check`, the one rule for what a number is, at every library argument
and file record that takes one."""

import json
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame
from shockstab import cli
from shockstab.calibration import AnchorPoint, calibrate, sensitivity_sweep
from shockstab.drift import distribution_shift
from shockstab.errors import ConfigError, DataError, DomainError
from shockstab.frame import detect_schema, load_csv
from shockstab.model import TrainConfig
from shockstab.pipeline import PipelineConfig, emit_digest
from shockstab.splitting import SplitSpec, aggregate
from shockstab.stability import (
    UpliftCoefficients,
    batch_uplift,
    check_auc,
    normalize_level,
    stabilization_score,
)
from shockstab.synthesis import SyntheticBatch, mix, upsample

VALID = {
    "schema_version": 1,
    "input": "data/shocked.csv",
    "dataset_name": None,
    "label": "is_bad",
    "split": {"mode": "oot", "date_column": "date", "shock_date": "2018-03-22",
              "shock_fraction": None, "train_fraction": 0.8, "mc_runs": 3, "seed": 4},
    "levels": ["without", 5, 10],
    "family": "normal",
    "tail_sigma": 3,
    "nonneg_columns": ["price"],
    "real_fraction": 0.5,
    "upsample_target": 4000,
    "coefficients": {"k1": 100.0, "k2": 1000, "k3": 1000.0},
    "epsilon": 1e-5,
    "tau": 0.05,
    "exclude_from_ds": [],
    "output_dir": None,
    "seed": 4,
    "train": {"learning_rate": 0.5, "epochs": 400, "l2": 1e-4, "seed": 0},
    "missing_tokens": ["", "NA"],
    "categorical_override": 0,
}

PATHS = [
    (key, sub)
    for key, value in VALID.items()
    for sub in ([None] + list(value) if isinstance(value, dict) else [None])
]

SCALARS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
    st.sampled_from(["without", "5", "oos", "oot", "2018-03-22", "0.25", "", 10**400,
                     "0001-01-01T00:00:00+01:00"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=8), SCALARS, max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(PATHS), value=VALUES)
def test_from_dict_returns_or_raises_config_error(path, value):
    key, sub = path
    payload = dict(VALID)
    if sub is None:
        payload[key] = value
    else:
        payload[key] = {**payload[key], sub: value}
    try:
        config = PipelineConfig.from_dict(payload)
    except ConfigError:
        return
    again = PipelineConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert again.config_hash() == config.config_hash()


def test_valid_config_keeps_its_values():
    config = PipelineConfig.from_dict(VALID)
    d = config.to_dict()
    # checks never convert: an int stays an int
    assert d["tail_sigma"] == 3 and isinstance(d["tail_sigma"], int)
    assert d["coefficients"]["k2"] == 1000 and isinstance(d["coefficients"]["k2"], int)
    assert d["levels"] == ["without", "5", "10"]
    assert d["split"]["shock_date"] == "2018-03-22T00:00:00"
    assert d["dataset_name"] == "shocked"
    assert config.nonneg_columns == ("price",)
    assert d["nonneg_columns"] == ["price"]
    assert list(d) == list(VALID)  # the key order reports have always had
    # the attribute name is accepted in place of the JSON key
    alias = {k: v for k, v in VALID.items() if k != "input"}
    assert PipelineConfig.from_dict({**alias, "input_path": VALID["input"]}).to_dict() == d


@pytest.mark.parametrize(
    "name, key", [("input_path", "input"), ("coeffs", "coefficients")]
)
def test_field_under_both_names_is_config_error(name, key):
    # neither value may silently win over the other
    with pytest.raises(ConfigError, match=f"config field '{key}' given twice"):
        PipelineConfig.from_dict({**VALID, name: VALID[key]})


def test_oos_split_reports_no_shock_date():
    spec = SplitSpec(mode="oos", shock_fraction=0.2, shock_date="2018-03-22")
    assert spec.shock_date is None
    assert spec.to_dict()["shock_date"] is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UpliftCoefficients(k1=True), "k1 must be a number > 0, got True"),
        (lambda: UpliftCoefficients(k3=float("nan")), "k3 must be a number > 0"),
        (lambda: UpliftCoefficients(k2=10**400), "k2 must be a number > 0"),
        (lambda: TrainConfig(epochs=2.5), "epochs must be an integer >= 0, got 2.5"),
        (lambda: TrainConfig(l2=-1.0), "l2 must be a number >= 0, got -1.0"),
        (lambda: TrainConfig(epochs=-2), "epochs must be an integer >= 0, got -2"),
        (lambda: TrainConfig(learning_rate=0.0), "learning_rate must be a number > 0, got 0.0"),
        (lambda: SplitSpec(mode="oos", shock_fraction=0.2, seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda: SplitSpec(mode="oot", date_column="date",
                           shock_date="0001-01-01T00:00:00+01:00"),
         "does not parse as a date"),
        (lambda: PipelineConfig(
            input_path="x.csv", label="y", levels=[5],
            split=SplitSpec(mode="oos", shock_fraction=0.2), real_fraction=True,
        ), "real_fraction must be a number in (0, 1], got True"),
        (lambda: PipelineConfig(
            input_path="x.csv", label="y", levels=[5],
            split=SplitSpec(mode="oos", shock_fraction=0.2), real_fraction=0,
        ), "real_fraction must be a number in (0, 1], got 0"),
        (lambda: SplitSpec(mode="oos", shock_fraction=0.0),
         "shock_fraction must be a number in (0, 1) or null, got 0.0"),
        (lambda: PipelineConfig(
            input_path="x.csv", label="y", levels=[10**400],
            split=SplitSpec(mode="oos", shock_fraction=0.2),
        ), "invalid outlier level"),
        (lambda: PipelineConfig(
            input_path="x.csv", label="y", levels=[5],
            split={"mode": "oos", "shock_fraction": 0.2},
        ), "split must be a SplitSpec"),
        (lambda: PipelineConfig(
            input_path="x.csv", label="y", levels=[5],
            split=SplitSpec(mode="oos", shock_fraction=0.2), family="cauchy",
        ), "family must be a string in {'normal', 'laplace', 'gumbel', 'weibull', 'levy'}, "
           "got 'cauchy'"),
    ],
    ids=["k1-bool", "k3-nan", "k2-beyond-float", "epochs-float", "l2-negative", "epochs-negative",
         "learning-rate-zero", "split-seed-float",
         "shock-date-overflow", "real-fraction-bool", "real-fraction-zero",
         "shock-fraction-zero", "level-overflow", "split-dict", "family-unknown"],
)
def test_keyword_construction_is_checked(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert message in str(err.value)


def test_numpy_scalars_given_as_keywords_are_written_as_plain_json():
    coeffs = UpliftCoefficients(k1=np.float32(50.0), k2=np.int64(500), k3=np.float64(2000.0))
    assert coeffs.to_dict() == {"k1": 50.0, "k2": 500, "k3": 2000.0}
    assert [type(v) for v in coeffs.to_dict().values()] == [float, int, float]
    train = TrainConfig(epochs=np.int32(7), seed=np.int64(3))
    assert json.dumps(train.to_dict()) == (
        '{"learning_rate": 0.5, "epochs": 7, "l2": 0.0001, "seed": 3}'
    )
    with pytest.raises(ConfigError, match="^epochs must be an integer >= 0, got np.float64"):
        TrainConfig(epochs=np.float64(7.0))


# Every library argument and file record that takes a number, called with
# `value` in its place. `low`..`high` is the range it accepts, `ints` the
# integers in it (None if there are none, or if it takes only integers).
_ANCHOR = dict(a_base=0.8, a_shock=0.7, b_base=0.8, b_shock=0.75, ds=0.2, target_su=0.5)
_ONE = {"k1": [100.0], "k2": [1000.0], "k3": [1000.0]}
_RECORDS = [("m", 5, 0.8, 0.7, 0.81, 0.76)]
_FRAME = make_frame(x=[0.1, 0.5, 0.9, 0.3, 0.7, 0.2], c=["a", "b", "a", "b", "a", "c"])
_BATCH = SyntheticBatch(_FRAME, np.zeros(6, dtype=bool), {})


def _anchor_objective(**fields):
    return calibrate([AnchorPoint(**{**_ANCHOR, **fields})], _ONE).to_dict()


def _grid_file(ds):
    table = {"ds": ds, "models": [{"name": "m", "levels": [{"outliers_pct": 5, "runs": [
        {"auc_base_a": 0.8, "auc_shock_a": 0.7, "auc_base_b": 0.81, "auc_shock_b": 0.76}]}]}]}
    with mock.patch.object(cli, "_load_json", lambda path: table):
        return cli._grid_records("table.json", None)


class Site(NamedTuple):
    call: object  # (value, csv path) -> a result that == compares
    error: type
    low: float
    high: float
    open_low: bool = False
    open_high: bool = False
    ints: tuple | None = None
    integer: bool = False


SITES = {
    "check_auc": Site(lambda v, _: check_auc(v), DomainError, 0, 1, ints=(0, 1)),
    "score-ds": Site(lambda v, _: stabilization_score(0.8, 0.7, v), DomainError, 0, 1e6,
                     ints=(0, 10**6)),
    "score-epsilon": Site(lambda v, _: stabilization_score(0.8, 0.7, 0.2, v), DomainError,
                          0, 1e4, open_low=True, ints=(1, 10**4)),
    "level": Site(lambda v, _: normalize_level(v), ConfigError, 0, 100, ints=(0, 100)),
    "grid-ds": Site(lambda v, _: batch_uplift(_RECORDS, v).to_dict(), DomainError, 0, 10,
                    ints=(0, 10)),
    "tau": Site(lambda v, _: distribution_shift(_FRAME, _FRAME, tau=v), DomainError, 0, 1,
                ints=(0, 1)),
    **{
        f"anchor-{name}": Site(lambda v, _, name=name: _anchor_objective(**{name: v}),
                               DomainError, 0, 1, ints=(0, 1))
        for name in ("a_base", "a_shock", "b_base", "b_shock", "ds")
    },
    "anchor-target_su": Site(lambda v, _: _anchor_objective(target_su=v), DomainError, -1, 1,
                             ints=(-1, 1)),
    "anchor-confidence": Site(lambda v, _: _anchor_objective(confidence=v), DomainError,
                              0, 1e6, open_low=True, ints=(1, 10**6)),
    "calibrate-candidate": Site(lambda v, _: calibrate([AnchorPoint(**_ANCHOR)],
                                                       {**_ONE, "k2": [v]}).to_dict(),
                                ConfigError, 0, 1e4, open_low=True, ints=(1, 10**4)),
    "sweep-slope": Site(lambda v, _: sensitivity_sweep(_RECORDS, 0.1, {**_ONE, "k3": [v]})
                        .to_dict(), ConfigError, 0, 1e6, open_low=True, ints=(1, 10**6)),
    "config-field": Site(lambda v, _: UpliftCoefficients(k1=v).to_dict(), ConfigError,
                         0, 1e6, open_low=True, ints=(1, 10**6)),
    "config-integer": Site(lambda v, _: TrainConfig(epochs=v).to_dict(), ConfigError, 0, 1000,
                           integer=True),
    "aggregate": Site(lambda v, _: aggregate([0.5, v]), DomainError, -1e6, 1e6,
                      ints=(-(10**6), 10**6)),
    "upsample": Site(lambda v, _: upsample(_FRAME, v, seed=1).column("x").values.tolist(),
                     ConfigError, 1, 40, integer=True),
    "mix": Site(lambda v, _: mix(_FRAME, _BATCH, v, seed=1).column("x").values.tolist(),
                ConfigError, 0.5, 1, open_high=True),
    "load_csv-override": Site(lambda v, path: [
        c.kind for c in load_csv(path, categorical_override=v).columns
    ], ConfigError, 0, 10, integer=True),
    "schema-override": Site(lambda v, _: detect_schema(_FRAME, v).to_dict(), ConfigError,
                            0, 10, integer=True),
    "su_display": Site(lambda v, _: emit_digest({"ds": 0.1, "rows": [
        {"outliers_pct": "5", "cells": {"m": {"su_display": v}}}
    ]}), DataError, -10, 10, ints=(-10, 10)),
    "grid-file-ds": Site(lambda v, _: _grid_file(v), DataError, 0, 1, ints=(0, 1)),
}

NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=6),
    st.none(),
    st.lists(st.floats(0, 1), min_size=1, max_size=2),
    st.sampled_from([
        "0.3", "1", " 5", "nan", "inf", np.True_, np.str_("0.3"), math.nan, math.inf, -math.inf,
        10**400, -(10**400), np.float32("nan"), np.float64("inf"), np.array(0.5),
    ]),
)


def _reads_as_level(value) -> bool:
    # a level may be given as text, as the --levels flag gives it
    try:
        number = float(value)
    except ValueError:
        return value.strip().lower() == "without"
    return math.isfinite(number) and number >= 0


@pytest.fixture(scope="module")
def site_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sites") / "f.csv"
    path.write_text("x,c\n1,a\n2,b\n1,a\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", list(SITES))
@settings(max_examples=60, deadline=None)
@given(value=NOT_NUMBERS)
def test_every_number_site_refuses_what_is_not_a_number_with_its_own_error(
    name, value, site_csv
):
    if name == "level" and isinstance(value, str) and _reads_as_level(value):
        return
    site = SITES[name]
    with pytest.raises(site.error) as err:
        site.call(value, site_csv)
    assert type(err.value) is site.error


def _in_range(site: Site):
    """The site's Python ints and floats in range, as given and as numpy scalars."""
    if site.integer:
        ints = st.integers(int(site.low), int(site.high))
        return st.one_of(ints, ints.map(np.int64), ints.map(np.int32))

    def floats(width):
        return st.floats(site.low, site.high, width=width,
                         exclude_min=site.open_low, exclude_max=site.open_high)

    found = [floats(64), floats(64).map(np.float64), floats(32).map(np.float32)]
    if site.ints:
        ints = st.integers(*site.ints)
        found += [ints, ints.map(np.int64)]
    return st.one_of(found)


@pytest.mark.parametrize("name", list(SITES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_number_site_reads_numpy_and_int_as_the_equal_python_number(
    name, data, site_csv
):
    site = SITES[name]
    value = data.draw(_in_range(site))
    plain = int(value) if site.integer else float(value)
    assert site.call(value, site_csv) == site.call(plain, site_csv)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: stabilization_score(0.8, 0.7, "0.3"), DomainError),
        (lambda: stabilization_score(0.8, 0.7, True), DomainError),
        (lambda: AnchorPoint(True, 0.7, 0.8, 0.7, ds=0.2, target_su=0.0), DomainError),
        (lambda: AnchorPoint(0.8, 0.7, 0.8, 0.7, ds=True, target_su=0.0), DomainError),
        (lambda: calibrate([AnchorPoint(**_ANCHOR)], {**_ONE, "k1": ["100"]}), ConfigError),
        (lambda: calibrate([AnchorPoint(**_ANCHOR)], {**_ONE, "k2": [True]}), ConfigError),
        (lambda: sensitivity_sweep(_RECORDS, 0.1, {**_ONE, "k3": ["100"]}), ConfigError),
        (lambda: distribution_shift(_FRAME, _FRAME, tau="x"), DomainError),
        (lambda: load_csv("no-such.csv", categorical_override="x"), ConfigError),
        (lambda: upsample(_FRAME, 2.5), ConfigError),
        (lambda: aggregate([0.5, "0.7"]), DomainError),
    ],
    ids=["score-text-ds", "score-bool-ds", "anchor-bool-auc", "anchor-bool-ds",
         "calibrate-text-k1", "calibrate-bool-k2", "sweep-text-k3", "tau-text",
         "override-text", "upsample-float", "aggregate-text"],
)
def test_inputs_float_once_read_are_refused_with_the_sites_error(call, error):
    with pytest.raises(error):
        call()
