"""The declared config fields: checks at construction, from_dict and to_dict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockstab.errors import ConfigError
from shockstab.model import TrainConfig
from shockstab.pipeline import PipelineConfig
from shockstab.splitting import SplitSpec
from shockstab.stability import UpliftCoefficients

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
