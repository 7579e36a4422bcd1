"""End-to-end evaluation: split, train A, synthesize, mix, train B, score.

For every Monte Carlo run the baseline A-model trains on real pre-shock
data; for every outlier level a synthetic batch is generated from the
(optionally upsampled) training rows, mixed with the real rows and used to
train the B-model. AUC pairs are aggregated by median and range, the
distribution shift is computed once per dataset, and every level gets a
stabilization-uplift breakdown. Reports are deterministic under the
configured seed (the environment timestamp is the one excluded field).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .drift import DEFAULT_TAU, DriftReport, distribution_shift
from .errors import ConfigError, ShockStabError
from .frame import Column, TabularFrame, concat_frames, load_csv
from .model import TrainConfig, evaluate_pair, train_baseline
from .splitting import (
    Aggregate,
    OOT,
    ShockSplit,
    SplitSpec,
    aggregate,
    child_rng,
    monte_carlo,
    oot_partition,
)
from .stability import (
    DEFAULT_COEFFICIENTS,
    DEFAULT_EPSILON,
    StabilityRecord,
    UpliftBreakdown,
    UpliftCoefficients,
    WITHOUT_LEVEL,
    level_sort_key,
    normalize_level,
    stabilization_score,
    stabilization_uplift,
)
from .synthesis import OutlierSpec, SyntheticBatch, fit, generate, mix, postprocess, upsample

SCHEMA_VERSION = 1


def level_seed(base_seed: int, run_index: int, label: str) -> int:
    """Stable per-(run, level) seed; keyed on the level label itself so
    reordering or adding levels never changes another level's stream."""
    crc = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence(
        [int(base_seed) & ((1 << 64) - 1), int(run_index), crc]
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class PipelineConfig:
    input_path: str
    label: str
    split: SplitSpec
    levels: list
    family: str = "normal"
    tail_sigma: float = 3.0
    nonneg_columns: tuple = ()
    real_fraction: float = 0.5
    upsample_target: int = 10000
    coeffs: UpliftCoefficients = DEFAULT_COEFFICIENTS
    epsilon: float = DEFAULT_EPSILON
    tau: float = DEFAULT_TAU
    exclude_from_ds: tuple = ()
    output_dir: str | None = None
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    missing_tokens: tuple = ("", "NA", "null")
    categorical_override: int = 0
    dataset_name: str | None = None

    def __post_init__(self):
        labels = [normalize_level(v) for v in self.levels]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            raise ConfigError(f"duplicate outlier level {dup!r}")
        if not labels:
            raise ConfigError("at least one outlier level is required")
        for label in labels:
            if label != WITHOUT_LEVEL and float(label) > 100.0:
                raise ConfigError(f"outlier level {label}% exceeds 100%")
        self.levels = labels
        if not (0.0 < self.real_fraction <= 1.0):
            raise ConfigError(
                f"real_fraction must lie in (0, 1], got {self.real_fraction!r}"
            )
        self.nonneg_columns = tuple(self.nonneg_columns)
        self.exclude_from_ds = tuple(self.exclude_from_ds)
        if self.dataset_name is None:
            self.dataset_name = Path(self.input_path).stem

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version!r}")
        if "split" not in d or not isinstance(d["split"], dict):
            raise ConfigError("config needs a 'split' object")
        try:
            split = SplitSpec(**d.pop("split"))
        except TypeError as exc:
            raise ConfigError(f"bad split spec: {exc}") from None
        coeffs = UpliftCoefficients(**d.pop("coefficients", {}))
        train = TrainConfig(**d.pop("train", {}))
        known = {
            "input": "input_path",
            "input_path": "input_path",
            "label": "label",
            "levels": "levels",
            "family": "family",
            "tail_sigma": "tail_sigma",
            "nonneg_columns": "nonneg_columns",
            "real_fraction": "real_fraction",
            "upsample_target": "upsample_target",
            "epsilon": "epsilon",
            "tau": "tau",
            "exclude_from_ds": "exclude_from_ds",
            "output_dir": "output_dir",
            "seed": "seed",
            "missing_tokens": "missing_tokens",
            "categorical_override": "categorical_override",
            "dataset_name": "dataset_name",
        }
        kwargs = {}
        for key, value in d.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            kwargs[known[key]] = value
        return cls(split=split, coeffs=coeffs, train=train, **kwargs)

    def to_dict(self) -> dict:
        split = {
            "mode": self.split.mode,
            "date_column": self.split.date_column,
            "shock_date": (
                self.split.shock_date.isoformat()
                if self.split.mode == OOT
                else None
            ),
            "shock_fraction": self.split.shock_fraction,
            "train_fraction": self.split.train_fraction,
            "mc_runs": self.split.mc_runs,
            "seed": self.split.seed,
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "input": self.input_path,
            "dataset_name": self.dataset_name,
            "label": self.label,
            "split": split,
            "levels": list(self.levels),
            "family": self.family,
            "tail_sigma": self.tail_sigma,
            "nonneg_columns": list(self.nonneg_columns),
            "real_fraction": self.real_fraction,
            "upsample_target": self.upsample_target,
            "coefficients": self.coeffs.to_dict(),
            "epsilon": self.epsilon,
            "tau": self.tau,
            "exclude_from_ds": list(self.exclude_from_ds),
            "output_dir": self.output_dir,
            "seed": self.seed,
            "train": {
                "learning_rate": self.train.learning_rate,
                "epochs": self.train.epochs,
                "l2": self.train.l2,
                "seed": self.train.seed,
            },
            "missing_tokens": list(self.missing_tokens),
            "categorical_override": self.categorical_override,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _agg_dict(agg: Aggregate | None) -> dict | None:
    if agg is None:
        return None
    return {"median": agg.median, "min": agg.min, "max": agg.max}


@dataclass
class LevelResult:
    label: str
    b_runs: list = field(default_factory=list)  # AucPair
    failures: list = field(default_factory=list)  # {"run": int, "error": str}
    b_base: Aggregate | None = None
    b_shock: Aggregate | None = None
    stability: StabilityRecord | None = None
    uplift: UpliftBreakdown | None = None

    @property
    def failed(self) -> bool:
        return self.uplift is None

    def to_dict(self) -> dict:
        return {
            "outliers_pct": self.label,
            "status": "failed" if self.failed else "ok",
            "b_model": {
                "runs": [p.to_dict() for p in self.b_runs],
                "auc_base": _agg_dict(self.b_base),
                "auc_shock": _agg_dict(self.b_shock),
                "stability": None if self.stability is None else self.stability.to_dict(),
            },
            "uplift": None if self.uplift is None else self.uplift.to_dict(),
            "failures": list(self.failures),
        }


@dataclass
class PipelineReport:
    config: PipelineConfig
    environment: dict
    drift: DriftReport
    a_runs: list = field(default_factory=list)
    a_failures: list = field(default_factory=list)
    a_base: Aggregate | None = None
    a_shock: Aggregate | None = None
    a_stability: StabilityRecord | None = None
    levels: list = field(default_factory=list)  # LevelResult

    @property
    def partial(self) -> bool:
        return bool(self.a_failures) or any(l.failed or l.failures for l in self.levels)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": self.config.dataset_name,
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "environment": self.environment,
            "drift": self.drift.to_dict(),
            "a_model": {
                "runs": [p.to_dict() for p in self.a_runs],
                "auc_base": _agg_dict(self.a_base),
                "auc_shock": _agg_dict(self.a_shock),
                "stability": None
                if self.a_stability is None
                else self.a_stability.to_dict(),
                "failures": list(self.a_failures),
            },
            "levels": [l.to_dict() for l in self.levels],
            "partial": self.partial,
        }

    def to_json(self, strip_timestamp: bool = False) -> str:
        d = self.to_dict()
        if strip_timestamp:
            d["environment"] = {
                k: v for k, v in d["environment"].items() if k != "timestamp"
            }
        return json.dumps(d, indent=2, allow_nan=False)


def _environment_stamp(config: PipelineConfig) -> dict:
    return {
        "seed": config.seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "shockstab": __version__,
        "config_hash": config.config_hash(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _snap_labels(batch: SyntheticBatch, label: str, rng) -> SyntheticBatch:
    """Binarize the synthetic label column.

    The body sampler emits a continuous relaxation of the 0/1 label; snap it
    stochastically (P(y=1) = value clipped into [0,1]) so the linear
    feature/label correlation survives while training sees binary targets.
    """
    col = batch.frame.column(label)
    p = np.clip(col.values, 0.0, 1.0)
    snapped = (rng.random(len(p)) < p).astype(np.float64)
    columns = [
        Column(c.name, c.kind, snapped if c.name == label else c.values)
        for c in batch.frame.columns
    ]
    return SyntheticBatch(
        frame=TabularFrame(columns),
        outlier_mask=batch.outlier_mask,
        provenance=batch.provenance,
        marginals=batch.marginals,
        spec=batch.spec,
    )


def _drift_frames(frame, config, splits) -> tuple[TabularFrame, TabularFrame]:
    """Pre/post segments the dataset-level DS is computed on."""
    if config.split.mode == OOT:
        pre_idx, post_idx = oot_partition(frame, config.split)
        return frame.take(pre_idx), frame.take(post_idx)
    # OOS has no temporal boundary; use the run-0 pseudo-shock partition
    first = splits[0]
    return concat_frames(first.train, first.test), first.shocked_test


def _run_one(split: ShockSplit, feature_drop: set, config: PipelineConfig) -> tuple:
    """One Monte Carlo run: the A-model, then one B-model per outlier level.

    Returns (a_pair, a_failure, cells). Exactly one of a_pair and a_failure
    is None. Each cell is (level, pair, failure) with exactly one of pair and
    failure set; a level of None applies the cell to every level. Failures
    abort only the affected cell. Depends on nothing but its arguments, so
    runs may execute in any process and order.
    """
    run = split.run_index
    train_frame = split.train.drop_columns(feature_drop)
    eval_split = ShockSplit(
        train=train_frame,
        test=split.test.drop_columns(feature_drop),
        shocked_test=split.shocked_test.drop_columns(feature_drop),
        run_index=run,
    )
    try:
        a_model = train_baseline(train_frame, config.label, config.train)
        a_pair = evaluate_pair(a_model, eval_split, config.label)
    except ShockStabError as exc:
        failure = {"run": run, "error": f"a-model failed: {exc}"}
        return None, {"run": run, "error": str(exc)}, [(None, None, failure)]

    if config.real_fraction == 1.0:
        return a_pair, None, [(None, a_pair, None)]

    n_real = train_frame.row_count
    n_synth = int(
        round(n_real * (1.0 - config.real_fraction) / config.real_fraction)
    )
    try:
        source = upsample(
            train_frame, config.upsample_target, seed=level_seed(config.seed, run, "upsample")
        ) if config.upsample_target else train_frame
        generator = fit(source)
    except ShockStabError as exc:
        return a_pair, None, [(None, None, {"run": run, "error": f"fit failed: {exc}"})]

    cells = []
    for label in config.levels:
        seed = level_seed(config.seed, run, label)
        fraction = 0.0 if label == WITHOUT_LEVEL else float(label) / 100.0
        try:
            spec = OutlierSpec(
                family=config.family,
                outlier_fraction=fraction,
                total_rows=max(n_synth, 1),
                seed=seed,
                tail_sigma=config.tail_sigma,
                nonneg_columns=config.nonneg_columns,
            )
            batch = postprocess(generate(generator, spec), spec)
            batch = _snap_labels(batch, config.label, child_rng(seed, 1))
            mixed = mix(train_frame, batch, config.real_fraction, seed=seed)
            b_model = train_baseline(mixed, config.label, config.train)
            cells.append((label, evaluate_pair(b_model, eval_split, config.label), None))
        except ShockStabError as exc:
            cells.append((label, None, {"run": run, "error": str(exc)}))
    return a_pair, None, cells


# (splits, feature_drop, config) in a forked worker. It is set by the
# worker's initializer, whose arguments a fork hands over without pickling,
# so frames never travel through pickle and the parent's module state is
# untouched.
_WORKER_RUNS = None


def _init_worker(splits: list, feature_drop: set, config: PipelineConfig) -> None:
    global _WORKER_RUNS
    _WORKER_RUNS = (splits, feature_drop, config)


def _run_in_worker(index: int) -> tuple:
    splits, feature_drop, config = _WORKER_RUNS
    return _run_one(splits[index], feature_drop, config)


# Variables a BLAS library reads its thread count from at start-up.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count(runs: int) -> int:
    """Processes for `runs` runs: the CPU count over BLAS's thread count.

    A BLAS library starts one thread per CPU unless the environment says
    otherwise, so workers only help when it is pinned to fewer threads than
    there are CPUs; unpinned, every worker's BLAS threads would compete for
    the same cores. The largest thread count set in _BLAS_THREAD_VARS counts.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    values = (os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS)
    pinned = [int(v) for v in values if v.isdigit() and int(v) >= 1]
    blas_threads = max(pinned) if pinned else cpus
    return max(1, min(cpus // blas_threads, runs))


def _map_runs(splits: list, feature_drop: set, config: PipelineConfig) -> list:
    """`_run_one` over every split, results in run order.

    Runs go to `_worker_count` forked worker processes when that is more
    than one and the platform can fork; otherwise they run serially in this
    process. Workers keep the parent's BLAS settings, so both ways give the
    same bits.
    """
    workers = _worker_count(len(splits))
    if workers <= 1 or not hasattr(os, "fork"):
        return [_run_one(split, feature_drop, config) for split in splits]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(splits, feature_drop, config),
    ) as pool:
        return list(pool.map(_run_in_worker, range(len(splits))))


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute the full evaluation described by `config`.

    Per run: train/evaluate the A-model on real data; per (run, level):
    synthesize, mix and train/evaluate the B-model. Failures abort only the
    affected cell and are recorded in the report. With real_fraction == 1.0
    the B-model retrains on the unmixed real data (SU is identically 0).
    Runs may execute in parallel processes (see `_worker_count`); the
    report is byte-identical for every process count.
    """
    frame = load_csv(
        config.input_path,
        missing_tokens=config.missing_tokens,
        categorical_override=config.categorical_override,
    )
    return run_pipeline_on_frame(frame, config)


def run_pipeline_on_frame(frame: TabularFrame, config: PipelineConfig) -> PipelineReport:
    """Same as run_pipeline but on an already-loaded frame."""
    splits = monte_carlo(frame, config.split)

    # features never include the label or (in OOT mode) the raw date column
    drop = {config.label} if config.split.mode != OOT else {
        config.label,
        config.split.date_column,
    }
    feature_drop = drop - {config.label}

    ds_excluded = set(config.exclude_from_ds) | drop
    pre_frame, post_frame = _drift_frames(frame, config, splits)
    drift = distribution_shift(pre_frame, post_frame, config.tau, ds_excluded)

    report = PipelineReport(
        config=config,
        environment=_environment_stamp(config),
        drift=drift,
    )
    levels = {label: LevelResult(label=label) for label in config.levels}
    report.levels = [levels[label] for label in config.levels]

    for a_pair, a_failure, cells in _map_runs(splits, feature_drop, config):
        if a_failure is None:
            report.a_runs.append(a_pair)
        else:
            report.a_failures.append(a_failure)
        for label, pair, failure in cells:
            for result in report.levels if label is None else (levels[label],):
                if failure is None:
                    result.b_runs.append(pair)
                else:
                    result.failures.append(failure)

    if report.a_runs:
        report.a_base = aggregate([p.auc_base for p in report.a_runs])
        report.a_shock = aggregate([p.auc_shock for p in report.a_runs])
        report.a_stability = stabilization_score(
            report.a_base.median, report.a_shock.median, drift.ds, config.epsilon
        )
        for result in report.levels:
            if not result.b_runs:
                continue
            result.b_base = aggregate([p.auc_base for p in result.b_runs])
            result.b_shock = aggregate([p.auc_shock for p in result.b_runs])
            result.stability = stabilization_score(
                result.b_base.median, result.b_shock.median, drift.ds, config.epsilon
            )
            result.uplift = stabilization_uplift(
                (report.a_base.median, report.a_shock.median),
                (result.b_base.median, result.b_shock.median),
                drift.ds,
                config.coeffs,
                config.epsilon,
            )

    if config.output_dir:
        write_report(report, config.output_dir)
    return report


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def write_report(report: PipelineReport, out_dir) -> dict:
    """Write report.json plus flat CSVs; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"report": out / "report.json"}
    paths["report"].write_text(report.to_json(), encoding="utf-8")

    paths["auc_runs"] = out / "auc_runs.csv"
    with open(paths["auc_runs"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outliers_pct", "run", "auc_base_a", "auc_shock_a",
                         "auc_base_b", "auc_shock_b"])
        a_by_run = {p.run_index: p for p in report.a_runs}
        for result in report.levels:
            for p in result.b_runs:
                a = a_by_run.get(p.run_index)
                writer.writerow([
                    result.label, p.run_index,
                    "" if a is None else repr(a.auc_base),
                    "" if a is None else repr(a.auc_shock),
                    repr(p.auc_base), repr(p.auc_shock),
                ])

    paths["uplift"] = out / "uplift.csv"
    with open(paths["uplift"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outliers_pct", "su", "su_display", "ss_a", "ss_b",
                         "w_a", "w_b", "w", "w_sup", "status"])
        for result in report.levels:
            br = result.uplift
            if br is None:
                writer.writerow([result.label] + [""] * 8 + ["failed"])
            else:
                writer.writerow([
                    result.label, repr(br.su), repr(br.su_display),
                    repr(br.ss_a), repr(br.ss_b), repr(br.w_a), repr(br.w_b),
                    repr(br.w), repr(br.w_sup), "ok",
                ])
    return {k: str(v) for k, v in paths.items()}


def emit_radial_data(report, nonzero: bool = False) -> dict:
    """Plot-ready tuples per level: (model, AUC_base, AUC_shock, SU).

    Model "A" rows carry su = None (there is no A-vs-A uplift); with
    `nonzero`, entries whose SU is missing or zero are excluded and levels
    that empty out are flagged in `warnings`.
    """
    d = report.to_dict() if isinstance(report, PipelineReport) else report
    if "a_model" not in d or "levels" not in d:
        raise ConfigError("radial emission needs a pipeline report")
    a = d["a_model"]
    out = {"dataset": d.get("dataset"), "levels": [], "warnings": []}
    for lvl in d["levels"]:
        series = []
        if a["auc_base"] is not None:
            series.append(
                {
                    "model": "A",
                    "auc_base": a["auc_base"]["median"],
                    "auc_shock": a["auc_shock"]["median"],
                    "su": None,
                }
            )
        b = lvl["b_model"]
        if b["auc_base"] is not None and lvl["uplift"] is not None:
            series.append(
                {
                    "model": "B",
                    "auc_base": b["auc_base"]["median"],
                    "auc_shock": b["auc_shock"]["median"],
                    "su": lvl["uplift"]["su_display"],
                }
            )
        if nonzero:
            series = [s for s in series if s["su"]]
            if not series:
                out["warnings"].append(
                    f"level {lvl['outliers_pct']}: all SU values are zero"
                )
        out["levels"].append({"outliers_pct": lvl["outliers_pct"], "series": series})
    return out


def _digest_cells(obj) -> tuple[str, float, list]:
    """Normalize a pipeline report or an uplift grid into digest cells."""
    d = obj.to_dict() if isinstance(obj, PipelineReport) else obj
    if "levels" in d and "a_model" in d:  # pipeline report
        cells = [
            ("B", lvl["outliers_pct"], lvl["uplift"]["su_display"])
            for lvl in d["levels"]
            if lvl.get("uplift")
        ]
        return d.get("dataset", "dataset"), d["drift"]["ds"], cells
    if "rows" in d:  # uplift grid (su-grid output)
        cells = []
        for row in d["rows"]:
            for model, cell in row["cells"].items():
                if cell is not None:
                    cells.append((model, row["outliers_pct"], cell["su_display"]))
        return d.get("dataset", "dataset"), d["ds"], cells
    raise ConfigError("unrecognized report layout for digest")


def emit_digest(reports) -> dict:
    """Best (model, level) cell per dataset; ties prefer the lower outlier
    level, then the lexicographically smaller model name."""
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    rows = []
    for obj in reports:
        dataset, ds, cells = _digest_cells(obj)
        if not cells:
            rows.append(
                {"dataset": dataset, "ds": ds, "model": None,
                 "outliers_pct": None, "su_max": None}
            )
            continue
        best = min(
            cells, key=lambda c: (-c[2], level_sort_key(c[1]), c[0])
        )
        rows.append(
            {
                "dataset": dataset,
                "ds": ds,
                "model": best[0],
                "outliers_pct": best[1],
                "su_max": best[2],
            }
        )
    return {"rows": rows}
