"""Stability metrics and shock-evaluation tooling for tabular classifiers.

Public surface: typed frames and schema detection, per-column distribution
distances and their mean (the distribution shift), the stabilization score
and uplift, seeded shock splitting, covariance-matched outlier synthesis,
slope calibration, a minimal model harness and the end-to-end pipeline.
"""

__version__ = "0.1.0"

from .calibration import (
    AnchorPoint,
    CalibrationResult,
    DEFAULT_SWEEP,
    calibrate,
    sensitivity_sweep,
)
from .drift import (
    ColumnShift,
    DEFAULT_TAU,
    DriftReport,
    distribution_shift,
    ks_statistic,
    tv_distance,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    ShockStabError,
)
from .fixtures import make_shocked_fixture
from .frame import (
    Column,
    ColumnKind,
    SchemaReport,
    TabularFrame,
    concat_frames,
    detect_schema,
    load_csv,
)
from .model import (
    AucPair,
    BaselineModel,
    TrainConfig,
    auc,
    evaluate_pair,
    train_baseline,
    train_baselines,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    emit_digest,
    emit_radial_data,
    run_pipeline,
    write_report,
)
from .splitting import (
    Aggregate,
    ShockSplit,
    SplitSpec,
    aggregate,
    child_rng,
    monte_carlo,
    oot_partition,
    split_once,
)
from .stability import (
    DEFAULT_COEFFICIENTS,
    StabilityRecord,
    UpliftBreakdown,
    UpliftCoefficients,
    UpliftGrid,
    batch_uplift,
    flip_auc,
    stabilization_score,
    stabilization_uplift,
)
from .synthesis import (
    FittedGenerator,
    OutlierSpec,
    SyntheticBatch,
    fit,
    generate,
    mix,
    postprocess,
    upsample,
)

__all__ = [
    "AnchorPoint",
    "AucPair",
    "Aggregate",
    "BaselineModel",
    "CalibrationResult",
    "Column",
    "ColumnKind",
    "ColumnShift",
    "ConfigError",
    "DataError",
    "DEFAULT_COEFFICIENTS",
    "DEFAULT_SWEEP",
    "DEFAULT_TAU",
    "DomainError",
    "DriftReport",
    "FittedGenerator",
    "OutlierSpec",
    "PipelineConfig",
    "PipelineReport",
    "SchemaReport",
    "ShockSplit",
    "ShockStabError",
    "SplitSpec",
    "StabilityRecord",
    "SyntheticBatch",
    "TabularFrame",
    "TrainConfig",
    "UpliftBreakdown",
    "UpliftCoefficients",
    "UpliftGrid",
    "aggregate",
    "auc",
    "batch_uplift",
    "calibrate",
    "child_rng",
    "concat_frames",
    "detect_schema",
    "distribution_shift",
    "emit_digest",
    "emit_radial_data",
    "evaluate_pair",
    "fit",
    "flip_auc",
    "generate",
    "ks_statistic",
    "load_csv",
    "make_shocked_fixture",
    "mix",
    "monte_carlo",
    "oot_partition",
    "postprocess",
    "run_pipeline",
    "sensitivity_sweep",
    "split_once",
    "stabilization_score",
    "stabilization_uplift",
    "train_baseline",
    "train_baselines",
    "tv_distance",
    "upsample",
    "write_report",
]
