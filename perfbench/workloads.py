"""The benchmark's workloads: fixture inputs, one pass each, output digests.

Every pass runs with the workload's scratch directory as the working
directory and only relative paths, because the pipeline report embeds its
input and output paths (and a config hash over both).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from shockstab import cli, pipeline
from shockstab.fixtures import SHOCK_DATE, make_shocked_fixture
from shockstab.splitting import SplitSpec

DEFAULT_SEED = 20180322  # fixture seed; the library's own default
PIPELINE_SEED = 42  # PipelineConfig.seed and its SplitSpec.seed
SPLIT_SEED = 7  # `shockstab split --seed`
FIXTURE = "fixture.csv"
LABEL = "is_bad"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline": run_pipeline with output_dir; "split": the CLI
    rows: int
    runs: int  # Monte Carlo runs
    levels: tuple = ()  # outlier levels (pipeline only)

    @property
    def cells(self) -> int:
        """Operations per pass: pipeline cells, or written splits."""
        if self.kind == "split":
            return self.runs
        return self.runs * (1 + len(self.levels))

    @property
    def fits(self) -> int:
        return 0 if self.kind == "split" else self.cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload("c8_2k", "pipeline", 2000, 51, ("without", "5", "10")),
        Workload("large_100k", "pipeline", 100_000, 3, ("without", "10")),
        Workload("split_export_50k", "split", 50_000, 10),
    )
}


@dataclass
class PassResult:
    seconds: float
    digest: str
    failed: int  # operations that failed in this pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_fixture(rows: int, seed: int, path) -> str:
    """Write a workload's input CSV; returns its SHA-256."""
    make_shocked_fixture(rows=rows, seed=seed).to_csv(path)
    return sha256_file(path)


def _strip_timestamp(report_bytes: bytes) -> bytes:
    report = json.loads(report_bytes)
    del report["environment"]["timestamp"]
    return json.dumps(report, indent=2, allow_nan=False).encode("utf-8")


def tree_digest(directory, stdout: str = "") -> str:
    """SHA-256 over the files of `directory` (and captured stdout).

    `report.json` enters without its timestamp, the one field of a report
    that is not determined by the seed.
    """
    h = hashlib.sha256(stdout.encode("utf-8"))
    paths = sorted(Path(directory).iterdir()) if Path(directory).is_dir() else []
    for path in paths:
        if path.name == "report.json":
            data = hashlib.sha256(_strip_timestamp(path.read_bytes())).hexdigest()
        else:
            data = sha256_file(path)
        h.update(f"{path.name}\0{data}\n".encode("utf-8"))
    return h.hexdigest()


def _pipeline_pass(workload: Workload) -> PassResult:
    shutil.rmtree("out", ignore_errors=True)
    config = pipeline.PipelineConfig(
        input_path=FIXTURE,
        label=LABEL,
        split=SplitSpec(
            mode="oot",
            date_column="date",
            shock_date=SHOCK_DATE,
            mc_runs=workload.runs,
            seed=PIPELINE_SEED,
        ),
        levels=list(workload.levels),
        seed=PIPELINE_SEED,
        output_dir="out",
    )
    start = time.perf_counter()
    report = pipeline.run_pipeline(config)
    seconds = time.perf_counter() - start
    failed = len(report.a_failures) + sum(len(l.failures) for l in report.levels)
    return PassResult(seconds, tree_digest("out"), failed)


def _split_pass(workload: Workload) -> PassResult:
    shutil.rmtree("splits", ignore_errors=True)
    argv = [
        "split", FIXTURE, "--mode", "oot", "--date-col", "date",
        "--shock-date", SHOCK_DATE, "--runs", str(workload.runs),
        "--seed", str(SPLIT_SEED), "--out", "splits",
    ]
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    failed = 0 if code == 0 else workload.cells
    return PassResult(seconds, tree_digest("splits", stdout.getvalue()), failed)


def run_pass(workload: Workload) -> PassResult:
    """One timed pass in the current directory, which holds FIXTURE."""
    if workload.kind == "split":
        return _split_pass(workload)
    return _pipeline_pass(workload)


def clean_outputs() -> None:
    """Remove what passes wrote in the current directory."""
    for name in ("out", "splits"):
        shutil.rmtree(name, ignore_errors=True)
    Path(FIXTURE).unlink(missing_ok=True)
