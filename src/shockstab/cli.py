"""Command-line interface.

One subcommand per capability: schema inspection, distribution shift,
stabilization score/uplift, uplift grids, shock splitting, outlier
synthesis, slope calibration and sweeps, the full pipeline and report
re-emission. All commands print JSON. The A-model alone over the Monte
Carlo splits is a pipeline run with `real_fraction` 1.0 and the one level
"without".

Exit codes: 0 success, 2 configuration error, 3 data error (or an input
that needs more memory than there is, or an output that cannot be
written), 4 partial pipeline (some cells failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .calibration import AnchorPoint, calibrate, sensitivity_sweep
from .config import check
from .drift import DEFAULT_TAU, distribution_shift
from .errors import ConfigError, DataError, EmptyInputError, ShockStabError
from .frame import DEFAULT_MISSING_TOKENS, detect_schema, load_csv
from .pipeline import (
    PipelineConfig,
    emit_digest,
    emit_radial_data,
    run_pipeline,
)
from .splitting import SplitSpec, aggregate, split_once
from .stability import (
    DEFAULT_COEFFICIENTS,
    DEFAULT_EPSILON,
    UpliftCoefficients,
    batch_uplift,
    check_auc,
    normalize_level,
    stabilization_score,
    stabilization_uplift,
)
from .synthesis import FAMILIES, OutlierSpec, fit, generate, postprocess

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4


def _emit(payload: dict, path: str | None = None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    print(text)


def _finite_number(text: str) -> float:
    """A JSON number's value. NaN, Infinity and numbers beyond float's range
    are refused: no shockstab output holds them."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def _finite_int(text: str) -> int:
    """A JSON integer's value, refused as `_finite_number` refuses a number
    beyond float's range."""
    _finite_number(text)
    return int(text)


def _load_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(
            text,
            parse_float=_finite_number,
            parse_int=_finite_int,
            parse_constant=_finite_number,
        )
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ConfigError(f"cannot load {path}: {exc}") from exc


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _numbers(text: str, what: str) -> list[float]:
    """The comma-separated numbers of `text`; `what` names it in errors."""
    try:
        return [float(t) for t in _split_list(text)]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _auc_pair(text: str) -> tuple[float, float]:
    parts = _numbers(text, "BASE,SHOCK")
    if len(parts) != 2:
        raise ConfigError(f"expected BASE,SHOCK got {text!r}")
    return parts[0], parts[1]


def _coeffs(args) -> UpliftCoefficients:
    return UpliftCoefficients(k1=args.k1, k2=args.k2, k3=args.k3)


# the AUCs of a flat record or of one run of a nested table, in record order
_RUN_AUCS = ("auc_base_a", "auc_shock_a", "auc_base_b", "auc_shock_b")


def _objects(value, where: str) -> list:
    """`value` if it is a list of JSON objects, else DataError."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise DataError(f"{where} must be a list of objects, got {value!r}")
    return value


def _grid_records(path: str, ds_flag: float | None, per_run: bool = False):
    """The (model, level, four AUCs) records of a su-grid/sweep file, and its DS.

    The file is a flat record list, which needs `ds_flag`, or a nested
    table {"ds", "models": [{"name", "levels": [{"outliers_pct", "runs":
    [{four AUCs}, ...]}]}]}, whose DS `ds_flag` overrides; a table with no
    "ds" needs `ds_flag` too. A nested level gives one record of each AUC's
    `aggregate` median over its runs, or with `per_run` one record per run,
    named "<model>#run<k>". Each AUC, the DS and each model name go through
    `check`: a number in [0, 1], a number >= 0 and a non-empty string, or a
    data error naming the file, record and field. A file with no record (an
    empty list, a model with no levels, a level with no runs) is a data
    error too.
    """
    payload = _load_json(path)
    if isinstance(payload, list):
        if ds_flag is None:
            raise ConfigError("--ds is required with a flat record list")
        if not payload:
            raise EmptyInputError(f"{path}: empty record list")
        records = []
        for i, r in enumerate(payload):
            try:
                records.append(
                    (
                        check(r["model"], "a non-empty string", what=f"{path}: record {i} model",
                              error=DataError),
                        normalize_level(r["outliers_pct"]),
                        *[check_auc(r[key], f"{path}: record {i} {key}") for key in _RUN_AUCS],
                    )
                )
            except ConfigError as exc:  # not an outlier level
                raise DataError(f"{path}: record {i}: {exc}") from None
            except (KeyError, TypeError) as exc:
                raise DataError(f"{path}: record {i}: {exc!r}") from None
        return records, ds_flag
    if not isinstance(payload, dict) or "models" not in payload:
        raise DataError(f"{path}: expected an object with a 'models' list")
    if not payload["models"]:
        raise EmptyInputError(f"{path}: empty model list")
    if "ds" in payload:
        ds = check(payload["ds"], "a number", ">= 0", what=f"{path}: ds", error=DataError)
    elif ds_flag is None:
        raise ConfigError(f"{path}: --ds is required with a table that has no 'ds'")
    records = []
    for j, m in enumerate(_objects(payload["models"], f"{path}: models")):
        name = check(m.get("name"), "a non-empty string", what=f"{path}: model {j} name",
                     error=DataError)
        levels = _objects(m.get("levels", []), f"{path}: {name}: levels")
        if not levels:
            raise DataError(f"{path}: {name} has no levels")
        for lvl in levels:
            if "outliers_pct" not in lvl:
                raise DataError(f"{path}: {name}: level without outliers_pct")
            try:
                label = normalize_level(lvl["outliers_pct"])
            except ConfigError as exc:
                raise DataError(f"{path}: {name}: {exc}") from None
            runs = []
            level_runs = _objects(lvl.get("runs", []), f"{path}: {name}/level {label}: runs")
            for k, run in enumerate(level_runs):
                where = f"{path}: {name}/level {label}/run {k}"
                try:
                    runs.append([check_auc(run[key], f"{where} {key}") for key in _RUN_AUCS])
                except KeyError as exc:
                    raise DataError(f"{where}: missing field {exc}") from None
            if not runs:
                raise DataError(f"{path}: {name}/level {label} has no runs")
            if per_run:
                records += [(f"{name}#run{k}", label, *run) for k, run in enumerate(runs)]
            else:
                records.append((name, label, *[aggregate(a).median for a in zip(*runs)]))
    return records, float(ds) if ds_flag is None else ds_flag


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_schema(args) -> int:
    frame = load_csv(args.file, missing_tokens=tuple(args.missing_tokens),
                     categorical_override=args.categorical_override)
    _emit(detect_schema(frame).to_dict(), args.json)
    return EXIT_OK


def _cmd_ds(args) -> int:
    base = load_csv(args.base)
    shock = load_csv(args.shock)
    excluded = _split_list(args.exclude) if args.exclude else []
    report = distribution_shift(base, shock, tau=args.tau, excluded=excluded)
    _emit(report.to_dict(), args.json)
    return EXIT_OK


def _cmd_ss(args) -> int:
    record = stabilization_score(args.auc_base, args.auc_shock, args.ds, args.epsilon)
    _emit(record.to_dict())
    return EXIT_OK


def _cmd_su(args) -> int:
    breakdown = stabilization_uplift(
        _auc_pair(args.a), _auc_pair(args.b), args.ds, _coeffs(args), args.epsilon
    )
    _emit(breakdown.to_dict())
    return EXIT_OK


def _cmd_su_grid(args) -> int:
    records, ds = _grid_records(args.file, args.ds, per_run=args.per_run)
    grid = batch_uplift(records, ds, _coeffs(args))
    payload = grid.to_dict()
    payload["dataset"] = args.dataset or Path(args.file).stem
    _emit(payload, args.json)
    return EXIT_OK


def _write_split(frame, split, out: Path) -> list[str]:
    """Write one run's train, test and shock CSVs; returns their paths. Each
    part's rows are taken from `frame` just before it is written."""
    written = []
    for name, rows in ("train", split.train), ("test", split.test), ("shock", split.shocked_test):
        path = out / f"{name}_{split.run_index:03d}.csv"
        frame.take(rows).to_csv(path)
        written.append(str(path))
    return written


def _cmd_split(args) -> int:
    # a config error stops before the CSV is read
    spec = SplitSpec(
        mode=args.mode,
        date_column=args.date_col,
        shock_date=args.shock_date,
        shock_fraction=args.shock_fraction,
        train_fraction=args.train_fraction,
        mc_runs=args.runs,
        seed=args.seed,
    )
    frame = load_csv(args.file, lines=True)  # each row's line, which the exports write
    first = split_once(frame, spec, 0)  # a bad date or cut stops before any file
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # one run is held at a time: each is written before the next is split
    written = _write_split(frame, first, out)
    del first
    for run in range(1, spec.mc_runs):
        written += _write_split(frame, split_once(frame, spec, run), out)
    _emit(
        {
            "runs": spec.mc_runs,
            "mode": spec.mode,
            "rows": frame.row_count,
            "files": written,
        }
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    frame = load_csv(args.file)
    generator = fit(frame)
    spec = OutlierSpec(
        family=args.family,
        outlier_fraction=args.outliers_pct / 100.0,
        total_rows=args.rows,
        seed=args.seed,
        tail_sigma=args.tail_sigma,
        nonneg_columns=tuple(_split_list(args.nonneg)) if args.nonneg else (),
    )
    batch = postprocess(generate(generator, spec), spec)
    batch.frame.to_csv(args.out)
    mask = {
        "outlier_rows": [int(i) for i in batch.outlier_mask.nonzero()[0]],
        "family": spec.family,
        "fraction": spec.outlier_fraction,
    }
    if args.mask_out:
        Path(args.mask_out).write_text(
            json.dumps(mask, indent=2) + "\n", encoding="utf-8"
        )
    _emit(
        {
            "rows": batch.frame.row_count,
            "outliers": int(batch.outlier_mask.sum()),
            "out": args.out,
            "mask_out": args.mask_out,
        }
    )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    payload = _load_json(args.anchors)
    try:
        anchors = [AnchorPoint(**a) for a in payload]
    except TypeError as exc:
        raise ConfigError(f"bad anchor record: {exc}") from None
    grid = None
    if args.grid:
        grid = {}
        for part in args.grid:
            for clause in part.split(";"):
                if not clause.strip():
                    continue
                key, _, values = clause.partition("=")
                if key.strip() not in ("k1", "k2", "k3") or not values:
                    raise ConfigError(f"bad --grid clause {clause!r}")
                grid[key.strip()] = _numbers(values, f"--grid {key.strip()}")
    result = calibrate(anchors, grid=grid)
    _emit(result.to_dict(), args.json)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    records, ds = _grid_records(args.file, args.ds)
    report = sensitivity_sweep(records, ds, baseline=_coeffs(args))
    _emit(report.to_dict(), args.json)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    payload = _load_json(args.config)
    # the overrides join the payload, so from_dict checks them with the rest;
    # a payload or split that is not an object is left for it to reject
    if isinstance(payload, dict):
        overrides = {
            "seed": args.seed,
            "levels": None if args.levels is None else _split_list(args.levels),
            "output_dir": args.output_dir,
        }
        payload.update((k, v) for k, v in overrides.items() if v is not None)
        if args.runs is not None and isinstance(payload.get("split"), dict):
            payload["split"]["mc_runs"] = args.runs
    config = PipelineConfig.from_dict(payload)
    report = run_pipeline(config)
    print(report.to_json())
    return EXIT_PARTIAL if report.partial else EXIT_OK


def _cmd_report(args) -> int:
    if args.kind == "radial" and len(args.files) != 1:
        raise ConfigError(f"report radial takes one report file, got {len(args.files)}")
    payloads = [_load_json(p) for p in args.files]
    if args.kind == "radial":
        _emit(emit_radial_data(payloads[0], nonzero=args.nonzero), args.json)
    else:
        _emit(emit_digest(payloads), args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_coeff_flags(p):
    p.add_argument("--k1", type=float, default=DEFAULT_COEFFICIENTS.k1)
    p.add_argument("--k2", type=float, default=DEFAULT_COEFFICIENTS.k2)
    p.add_argument("--k3", type=float, default=DEFAULT_COEFFICIENTS.k3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockstab",
        description="Shock-stability metrics for tabular classifiers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schema", help="column kinds and summary statistics")
    p.add_argument("file")
    p.add_argument("--missing-tokens", nargs="*", default=list(DEFAULT_MISSING_TOKENS))
    p.add_argument("--categorical-override", type=int, default=0)
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=_cmd_schema)

    p = sub.add_parser("ds", help="distribution shift between two CSVs")
    p.add_argument("base")
    p.add_argument("shock")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--exclude", help="comma-separated columns to skip")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(func=_cmd_ds)

    p = sub.add_parser("ss", help="stabilization score")
    p.add_argument("--auc-base", dest="auc_base", type=float, required=True)
    p.add_argument("--auc-shock", dest="auc_shock", type=float, required=True)
    p.add_argument("--ds", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=_cmd_ss)

    p = sub.add_parser("su", help="stabilization uplift for one A/B pair")
    p.add_argument("--a", required=True, metavar="BASE,SHOCK")
    p.add_argument("--b", required=True, metavar="BASE,SHOCK")
    p.add_argument("--ds", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    _add_coeff_flags(p)
    p.set_defaults(func=_cmd_su)

    p = sub.add_parser("su-grid", help="uplift grid from an AUC file")
    p.add_argument("file")
    p.add_argument("--ds", type=float)
    p.add_argument("--dataset")
    p.add_argument("--per-run", dest="per_run", action="store_true",
                   help="one grid row per run instead of medians")
    p.add_argument("--json", help="also write the grid to this path")
    _add_coeff_flags(p)
    p.set_defaults(func=_cmd_su_grid)

    p = sub.add_parser("split", help="write train/test/shock CSVs per run")
    p.add_argument("file")
    p.add_argument("--mode", choices=("oot", "oos"), required=True)
    p.add_argument("--date-col", dest="date_col")
    p.add_argument("--shock-date", dest="shock_date")
    p.add_argument("--shock-fraction", dest="shock_fraction", type=float)
    # a dataclass field's default is its class attribute
    p.add_argument("--train-fraction", dest="train_fraction", type=float,
                   default=SplitSpec.train_fraction)
    p.add_argument("--runs", type=int, default=SplitSpec.mc_runs)
    p.add_argument("--seed", type=int, default=SplitSpec.seed)
    p.add_argument("--out", default="splits")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("synth", help="generate synthetic rows with outliers")
    p.add_argument("file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--outliers-pct", dest="outliers_pct", type=float, default=0.0)
    p.add_argument("--family", choices=FAMILIES, default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-sigma", dest="tail_sigma", type=float,
                   default=OutlierSpec.tail_sigma)
    p.add_argument("--nonneg", help="comma-separated nonnegative columns")
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", dest="mask_out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="grid-search logistic slopes")
    p.add_argument("anchors")
    p.add_argument("--grid", action="append", help="e.g. k1=50,100,200;k2=500,1000")
    p.add_argument("--json", help="also write the result to this path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sweep", help="slope sensitivity sweep over a grid file")
    p.add_argument("file")
    p.add_argument("--ds", type=float)
    p.add_argument("--json", help="also write the report to this path")
    _add_coeff_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pipeline", help="run the full evaluation pipeline")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--levels", help="comma-separated outlier levels")
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="re-emit radial or digest data")
    p.add_argument("kind", choices=("radial", "digest"))
    p.add_argument("files", nargs="+")
    p.add_argument("--nonzero", action="store_true")
    p.add_argument("--json", help="also write the output to this path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShockStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # every read maps its OSError to a ShockStabError, so this is an
        # output file or directory that cannot be written
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # the input asks for arrays larger than this machine can hold
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
