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
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import Config, check, setting
from .drift import DEFAULT_TAU, DriftReport, distribution_shift
from .errors import ConfigError, DataError, ShockStabError
from .frame import DEFAULT_MISSING_TOKENS, Column, TabularFrame, concat_frames, load_csv
from .model import TrainConfig, evaluate_pair, extract_labels, train_baseline, train_baselines
from .splitting import (
    Aggregate,
    ShockSplit,
    SplitSpec,
    aggregate,
    child_rng,
    model_splits,
    text_columns,
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
    rank_cells,
    stabilization_score,
    stabilization_uplift,
)
from .synthesis import (
    FAMILIES,
    OutlierSpec,
    SyntheticBatch,
    fit,
    generate,
    mix,
    postprocess,
    upsample,
)

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
class PipelineConfig(Config):
    input_path: str = setting(kind="a string", key="input")
    # declared here for its place in to_dict; keyword-only, so the
    # positional order of the fields after it is unchanged
    dataset_name: str | None = setting(None, "a string", null=True, kw_only=True)
    label: str = setting(kind="a string")
    split: SplitSpec = setting(kind=SplitSpec)
    levels: list = setting(kind="a list of outlier levels")
    family: str = setting("normal", "a string", FAMILIES)
    tail_sigma: float = setting(3.0, "a number", "> 0")
    nonneg_columns: tuple = setting((), "a list of strings")
    real_fraction: float = setting(0.5, "a number", "in (0, 1]")
    upsample_target: int = setting(10000, "an integer", ">= 0")
    coeffs: UpliftCoefficients = setting(
        DEFAULT_COEFFICIENTS, UpliftCoefficients, key="coefficients"
    )
    epsilon: float = setting(DEFAULT_EPSILON, "a number", "> 0")
    tau: float = setting(DEFAULT_TAU, "a number", ">= 0")
    exclude_from_ds: tuple = setting((), "a list of strings")
    output_dir: str | None = setting(None, "a string", null=True)
    seed: int = setting(0, "an integer")
    train: TrainConfig = setting(TrainConfig(), TrainConfig)
    missing_tokens: tuple = setting(DEFAULT_MISSING_TOKENS, "a list of strings")
    categorical_override: int = setting(0, "an integer", ">= 0")

    def __post_init__(self):
        super().__post_init__()
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
        # no file system accepts a path with a NUL byte; caught here, it
        # stops the run before any training rather than at write_report
        if self.output_dir is not None and "\0" in self.output_dir:
            raise ConfigError(f"output_dir must not contain a NUL byte, got {self.output_dir!r}")
        if self.dataset_name is None:
            self.dataset_name = Path(self.input_path).stem

    @classmethod
    def from_dict(cls, d) -> "PipelineConfig":
        if isinstance(d, dict):
            d = dict(d)
            version = d.pop("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported config schema_version {version!r}")
        return super().from_dict(d)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **super().to_dict()}

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _score(runs: list, ds: float, epsilon: float) -> tuple:
    """(base, shock, stability) of one model's AucPair runs: each AUC's
    aggregate over the runs, and the SS of their two medians."""
    base = aggregate([p.auc_base for p in runs])
    shock = aggregate([p.auc_shock for p in runs])
    return base, shock, stabilization_score(base.median, shock.median, ds, epsilon)


def _model_dict(runs: list, base, shock, stability) -> dict:
    """One model's report block; an aggregate or score not computed is null."""
    return {
        "runs": [p.to_dict() for p in runs],
        "auc_base": None if base is None else base._asdict(),
        "auc_shock": None if shock is None else shock._asdict(),
        "stability": None if stability is None else stability.to_dict(),
    }


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
            "b_model": _model_dict(self.b_runs, self.b_base, self.b_shock, self.stability),
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
                **_model_dict(self.a_runs, self.a_base, self.a_shock, self.a_stability),
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
    The run's frame passed `extract_labels`, so the label is a numerical
    column of the batch.
    """
    p = np.clip(batch.frame.column(label).values, 0.0, 1.0)
    snapped = (rng.random(len(p)) < p).astype(np.float64)
    columns = [
        Column(c.name, c.kind, snapped) if c.name == label else c
        for c in batch.frame.columns
    ]
    return replace(batch, frame=TabularFrame(columns))


def _run_a(split: ShockSplit, config: PipelineConfig) -> tuple:
    """A task: train and evaluate one run's A-model on the real rows.

    Returns (pair, None), or (None, error) when the model cannot be trained
    or evaluated.
    """
    try:
        a_model = train_baseline(split.train, config.label, config.train)
        return evaluate_pair(a_model, split, config.label), None
    except ShockStabError as exc:
        return None, str(exc)


def _run_b(split: ShockSplit, config: PipelineConfig) -> list:
    """B task: one run's B-model at every outlier level.

    The generator is fitted once per run; each level then generates and
    mixes with the real rows, every mixed level trains in one
    `train_baselines` call, and each model is evaluated. Returns cells
    (level, pair, failure) with exactly one of pair and failure set; a
    level of None applies the cell to every level. A failure aborts only
    its cell, except that a training error fails every level not failed
    before: each mixed frame holds all the run's real rows and 0/1
    synthetic labels, so training can only fail when the run's A task
    fails on the same rows, and the report then drops the run's B cells.
    """
    run = split.run_index
    train_frame = split.train
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
        return [(None, None, {"run": run, "error": f"fit failed: {exc}"})]

    def failure(label, exc) -> tuple:
        return (label, None, {"run": run, "error": str(exc)})

    cells = {}
    trained = []  # the levels whose mixed rows went to training, in order

    def mixed_frames():
        # one level's rows at a time: train_baselines encodes each frame as
        # it reads it, so no mixed frame outlives its design
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
                frame = mix(train_frame, batch, config.real_fraction, seed=seed)
            except ShockStabError as exc:
                cells[label] = failure(label, exc)
                continue
            trained.append(label)
            yield frame

    try:
        models = train_baselines(mixed_frames(), config.label, config.train)
    except ShockStabError as exc:
        cells.update((label, failure(label, exc)) for label in config.levels if label not in cells)
        models = []
    for label, model in zip(trained, models):
        try:
            cells[label] = (label, evaluate_pair(model, split, config.label), None)
        except ShockStabError as exc:
            cells[label] = failure(label, exc)
    return [cells[label] for label in config.levels]


def _task_list(runs: int, config: PipelineConfig) -> list:
    """Every (function, run) task of a pipeline, in the order workers take them.

    B tasks come first: each trains a model for every level on real plus
    synthetic rows, several times the work of an A task, so queueing the
    short A tasks last lets them fill the workers' idle tail. With
    real_fraction == 1.0 every level reuses the A pair and no B task runs.
    """
    b_tasks = [] if config.real_fraction == 1.0 else [(_run_b, r) for r in range(runs)]
    return b_tasks + [(_run_a, r) for r in range(runs)]


# (splits, config) in a forked worker. It is set by the worker's
# initializer, whose arguments a fork hands over without pickling, so frames
# never travel through pickle and the parent's module state is untouched.
_WORKER_RUNS = None


def _init_worker(splits: list, config: PipelineConfig) -> None:
    global _WORKER_RUNS
    _WORKER_RUNS = (splits, config)


def _run_in_worker(task: tuple):
    fn, index = task
    splits, config = _WORKER_RUNS
    return fn(splits[index], config)


# Variables a BLAS library reads its thread count from at start-up.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count(tasks: int) -> int:
    """Processes for `tasks` tasks: the CPU count over BLAS's thread count.

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
    return max(1, min(cpus // blas_threads, tasks))


def _map_runs(splits: list, config: PipelineConfig) -> dict:
    """Every task's result, keyed by its (function, run index) task.

    The tasks of `_task_list` go to `_worker_count` forked worker processes
    when that is more than one and the platform can fork; otherwise they run
    serially in this process. Workers keep the parent's BLAS settings, so
    both ways give the same bits.
    """
    tasks = _task_list(len(splits), config)
    workers = _worker_count(len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        results = [fn(splits[index], config) for fn, index in tasks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if (
            config.family == "levy"
            and any(fn is _run_b for fn, _ in tasks)
            and any(label != WITHOUT_LEVEL and float(label) > 0 for label in config.levels)
        ):
            # Levy tail draws, alone of the families, load scipy.special.
            # Forked workers inherit the parent's modules, so one import here
            # spares every worker its own at its first tail draw.
            import scipy.special  # noqa: F401

        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(splits, config),
        ) as pool:
            results = list(pool.map(_run_in_worker, tasks))
    return dict(zip(tasks, results))


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute the full evaluation described by `config`.

    Per run: train/evaluate the A-model on real data; per (run, level):
    synthesize, mix and train/evaluate the B-model. Failures abort only the
    affected cell and are recorded in the report. With real_fraction == 1.0
    every level reuses the A-model's AUC pair (SU is identically 0).
    Each run's A-model and its B-models are separate tasks that may execute
    in parallel processes (see `_map_runs`); the report is byte-identical
    for every process count.
    """
    frame = load_csv(
        config.input_path,
        missing_tokens=config.missing_tokens,
        categorical_override=config.categorical_override,
        text_columns=text_columns(config.split),
    )
    # a label that is missing or not numerical 0/1 stops the run before any
    # split is made
    extract_labels(frame, config.label)
    splits = model_splits(frame, config.split, config.label)
    # the splits keep no CSV text, so the frame and the text it keeps (an
    # OOT date column's, read from its text) are freed before any model trains
    del frame

    # DS compares run 0's pre-shock rows with its shocked rows: in OOT mode
    # the partition's two segments, in OOS mode the run-0 pseudo-shock split
    first = splits[0]
    drift = distribution_shift(
        concat_frames(first.train, first.test),
        first.shocked_test,
        config.tau,
        {config.label, *config.exclude_from_ds},
    )

    report = PipelineReport(
        config=config,
        environment=_environment_stamp(config),
        drift=drift,
    )
    levels = {label: LevelResult(label=label) for label in config.levels}
    report.levels = [levels[label] for label in config.levels]

    if config.output_dir:
        # made before any training, so a path that cannot be a directory,
        # or a report file that cannot be a file, stops the run before the
        # first model rather than after the last
        _output_dir(config.output_dir)
    done = _map_runs(splits, config)
    for index, split in enumerate(splits):
        run = split.run_index
        a_pair, a_error = done[(_run_a, index)]
        if a_pair is None:
            # the A failure is recorded at every level; B cells are dropped
            report.a_failures.append({"run": run, "error": a_error})
            cells = [(None, None, {"run": run, "error": f"a-model failed: {a_error}"})]
        else:
            report.a_runs.append(a_pair)
            # without a B task every level reuses the A pair
            cells = done.get((_run_b, index), [(None, a_pair, None)])
        for label, pair, failure in cells:
            for result in report.levels if label is None else (levels[label],):
                if failure is None:
                    result.b_runs.append(pair)
                else:
                    result.failures.append(failure)

    if report.a_runs:
        report.a_base, report.a_shock, report.a_stability = _score(
            report.a_runs, drift.ds, config.epsilon
        )
        for result in report.levels:
            if not result.b_runs:
                continue
            result.b_base, result.b_shock, result.stability = _score(
                result.b_runs, drift.ds, config.epsilon
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

# The files write_report writes in its output directory, by key.
_REPORT_FILES = {"report": "report.json", "auc_runs": "auc_runs.csv", "uplift": "uplift.csv"}


def _output_dir(path) -> Path:
    """The directory `path`, made if it is missing.

    Raises DataError, as an unreadable input does, when it cannot be made,
    or when one of `_REPORT_FILES` exists in it and is not a regular file.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc
    for file in map(out.joinpath, _REPORT_FILES.values()):
        if file.exists() and not file.is_file():
            raise DataError(f"cannot write {file}: it exists and is not a regular file")
    return out


def write_report(report: PipelineReport, out_dir) -> dict:
    """Write report.json plus flat CSVs; returns the written paths.

    Raises DataError, as `_output_dir` does, when a file cannot be written.
    """
    out = _output_dir(out_dir)
    paths = {key: out / name for key, name in _REPORT_FILES.items()}
    try:
        paths["report"].write_text(report.to_json(), encoding="utf-8")

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
    except OSError as exc:
        raise DataError(f"cannot write {exc.filename or out}: {exc}") from exc
    return {k: str(v) for k, v in paths.items()}


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _field(obj, where: str, *keys):
    """obj[keys[0]][keys[1]]... of a report read from JSON, named `where`.

    Raises DataError at the first step that is not a JSON object holding
    the next key.
    """
    for key in keys:
        if key not in _json_object(obj, where):
            raise DataError(f"{where} has no {key!r} field")
        obj, where = obj[key], f"{where}.{key}"
    return obj


def _rows(obj, where: str, key: str) -> list:
    """The list obj[key], each of its items a JSON object."""
    items = _field(obj, where, key)
    if not isinstance(items, list):
        raise DataError(f"{where}.{key} must be a list, got {type(items).__name__}")
    return [_json_object(item, f"{where}.{key}[{i}]") for i, item in enumerate(items)]


def _digest_cell(model, row: dict, where: str, cell: dict) -> tuple:
    """(outlier level, model, SU) of one report or grid cell."""
    level = _field(row, where, "outliers_pct")
    su = _field(cell, where, "su_display")
    try:
        level_sort_key(level)
    except (TypeError, ValueError):
        raise DataError(f"{where}.outliers_pct is not an outlier level: {level!r}") from None
    return level, model, check(su, "a number", what=f"{where}: su_display", error=DataError)


def emit_radial_data(report, nonzero: bool = False) -> dict:
    """Plot-ready tuples per level: (model, AUC_base, AUC_shock, SU).

    Model "A" rows carry su = None (there is no A-vs-A uplift); with
    `nonzero`, entries whose SU is missing or zero are excluded and levels
    that empty out are flagged in `warnings`.
    """
    d = report.to_dict() if isinstance(report, PipelineReport) else report
    if not isinstance(d, dict) or "a_model" not in d or "levels" not in d:
        raise ConfigError("radial emission needs a pipeline report")
    a_base = _field(d, "report", "a_model", "auc_base")
    out = {"dataset": d.get("dataset"), "levels": [], "warnings": []}
    for i, lvl in enumerate(_rows(d, "report", "levels")):
        where = f"report.levels[{i}]"
        series = []
        if a_base is not None:
            series.append(
                {
                    "model": "A",
                    "auc_base": _field(a_base, "report.a_model.auc_base", "median"),
                    "auc_shock": _field(d, "report", "a_model", "auc_shock", "median"),
                    "su": None,
                }
            )
        b_base = _field(lvl, where, "b_model", "auc_base")
        uplift = _field(lvl, where, "uplift")
        if b_base is not None and uplift is not None:
            series.append(
                {
                    "model": "B",
                    "auc_base": _field(b_base, f"{where}.b_model.auc_base", "median"),
                    "auc_shock": _field(lvl, where, "b_model", "auc_shock", "median"),
                    "su": _field(uplift, f"{where}.uplift", "su_display"),
                }
            )
        level = _field(lvl, where, "outliers_pct")
        if nonzero:
            series = [s for s in series if s["su"]]
            if not series:
                out["warnings"].append(f"level {level}: all SU values are zero")
        out["levels"].append({"outliers_pct": level, "series": series})
    return out


def _digest_cells(obj) -> tuple[str, float, list]:
    """Normalize a pipeline report or an uplift grid into digest cells."""
    d = obj.to_dict() if isinstance(obj, PipelineReport) else obj
    if isinstance(d, dict) and "levels" in d and "a_model" in d:  # pipeline report
        cells = []
        for i, lvl in enumerate(_rows(d, "report", "levels")):
            where = f"report.levels[{i}]"
            if lvl.get("uplift"):
                uplift = _json_object(lvl["uplift"], f"{where}.uplift")
                cells.append(_digest_cell("B", lvl, where, uplift))
        return d.get("dataset", "dataset"), _field(d, "report", "drift", "ds"), cells
    if isinstance(d, dict) and "rows" in d:  # uplift grid (su-grid output)
        cells = []
        for i, row in enumerate(_rows(d, "grid", "rows")):
            where = f"grid.rows[{i}]"
            for model, cell in _json_object(_field(row, where, "cells"), f"{where}.cells").items():
                if cell is not None:
                    cell = _json_object(cell, f"{where}.cells.{model}")
                    cells.append(_digest_cell(model, row, where, cell))
        return d.get("dataset", "dataset"), _field(d, "grid", "ds"), cells
    raise ConfigError("unrecognized report layout for digest")


def emit_digest(reports) -> dict:
    """Best (model, level) cell per dataset: the first by `rank_cells`."""
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    rows = []
    for obj in reports:
        dataset, ds, cells = _digest_cells(obj)
        level, model, su = rank_cells(cells)[0] if cells else (None, None, None)
        rows.append(
            {"dataset": dataset, "ds": ds, "model": model, "outliers_pct": level, "su_max": su}
        )
    return {"rows": rows}
