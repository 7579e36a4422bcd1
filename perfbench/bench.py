"""Measure one workload: set-up, timed or traced passes, checks, report.

A run sets the workload up in fresh processes (the median of their wall
times is `setup_s`), then runs passes in this process until `--seconds` is
used, at least two timed passes or one untraced and one traced pass. Every
pass's output digest is checked against the golden digest of the default
seed, or, where there is none, against the other passes of the run; an
untimed canary pass at the default seed is checked against its golden
digest on every run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracing
from run import BLAS_THREADS, ROOT
from workloads import (
    DEFAULT_SEED,
    FIXTURE,
    WORKLOADS,
    Workload,
    clean_outputs,
    run_pass,
    write_fixture,
)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 2
CANARY_ROWS = 300
CANARY_RUNS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _openblas_version() -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: Workload) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_versions(),
        "openblas": _openblas_version(),
        "blas_threads": BLAS_THREADS,
        "rows": workload.rows,
        "mc_runs": workload.runs,
        "levels": list(workload.levels),
        "fits": workload.fits,
    }


def golden_digests(workload: Workload, seed: int) -> tuple[dict | None, str]:
    """The golden digests for this run, or None and why there are none."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    entry = next(
        (e for e in golden["workloads"].get(workload.name, [])
         if (e["rows"], e["runs"]) == (workload.rows, workload.runs)),
        None,
    )
    if seed != golden["seed"] or entry is None:
        return None, (
            f"no golden digest for {workload.name} at seed {seed}, {workload.rows} rows "
            f"and {workload.runs} runs: passes must agree with each other"
        )
    if golden["versions"] != _versions():
        return None, (
            f"golden digests were recorded under {golden['versions']}, this is "
            f"{_versions()}: passes must agree with each other instead"
        )
    return entry, f"golden digests apply to {workload.name} at {workload.rows} rows"


def check_canary(workload: Workload) -> tuple[bool, str]:
    """Run `workload` once at canary size and the default seed; compare to golden.

    The benchmark is usually run at seeds without golden digests; this
    untimed pass keeps every run sensitive to a change in the outputs.
    """
    canary = dataclasses.replace(workload, rows=CANARY_ROWS, runs=CANARY_RUNS)
    golden, note = golden_digests(canary, DEFAULT_SEED)
    if golden is None:
        return True, "canary skipped: " + note
    os.mkdir("canary")
    os.chdir("canary")
    try:
        fixture = write_fixture(canary.rows, DEFAULT_SEED, FIXTURE)
        output = run_pass(canary).digest
    finally:
        clean_outputs()
        os.chdir("..")
        os.rmdir("canary")
    if (fixture, output) != (golden["fixture"], golden["output"]):
        return False, f"canary digests {fixture}, {output} differ from golden"
    return True, f"canary matches its golden digests ({canary.rows} rows, {canary.runs} runs)"


def _setup_in_processes(workload: Workload, seed: int, probes: int):
    """Wall seconds of `probes` fresh set-up processes and their digests."""
    seconds, digests = [], set()
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "fixture.py"), str(workload.rows), str(seed), FIXTURE],
            capture_output=True, text=True, check=True,
        )
        seconds.append(time.perf_counter() - start)
        digests.add(done.stdout.strip())
    return seconds, digests


def _run_passes(workload: Workload, seconds: float, tracer: tracing.Tracer | None):
    """Passes within the budget: timed ones, or one untraced and then traced ones.

    Another pass starts only if one as long as the last would end within
    `seconds`. Returns the passes and the indices of the traced ones.
    """
    passes, traced_ids = [], []
    start = time.perf_counter()

    def another_fits() -> bool:
        return time.perf_counter() - start + passes[-1].seconds <= seconds

    if tracer is None:
        while len(passes) < MIN_TIMED_PASSES or another_fits():
            passes.append(run_pass(workload))
        return passes, traced_ids
    passes.append(run_pass(workload))  # untraced, for the overhead
    with tracer.installed():
        while not traced_ids or another_fits():
            tracer.pass_id = len(passes)
            traced_ids.append(tracer.pass_id)
            passes.append(run_pass(workload))
    return passes, traced_ids


def _layer_metrics(tracer, workload: Workload, passes: list, traced_ids: list):
    """Per-layer values, the metrics of uncalled layers, and count mismatches."""
    per_pass = []
    for pid in traced_ids:
        values = tracer.pass_metrics(pid)
        if workload.kind == "pipeline":
            values["pipeline.cells.attempted"] = workload.cells
            values["pipeline.cells.failed"] = passes[pid].failed
        per_pass.append(values)
    values, mismatches = tracing.summarize(per_pass)
    values["trace.overhead_s"] = (
        statistics.median(passes[pid].seconds for pid in traced_ids) - passes[0].seconds
    )
    return values, tracing.uncalled(per_pass[0]), mismatches


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            setup_probes: int = SETUP_PROBES) -> dict:
    """Run the benchmark for one workload in its own scratch directory."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden, golden_note = golden_digests(workload, seed)
    notes = [golden_note]
    tracer = tracing.Tracer() if traced else None
    cwd = os.getcwd()
    os.chdir(work)
    try:
        canary_ok, canary_note = check_canary(workload)
        notes.append(canary_note)
        if traced:
            setup, fixtures = [], {write_fixture(workload.rows, seed, FIXTURE)}
        else:
            setup, fixtures = _setup_in_processes(workload, seed, setup_probes)
        passes, traced_ids = _run_passes(workload, seconds, tracer)
        if tracer is not None:
            tracer.write_spans(work / "spans.jsonl")
    finally:
        clean_outputs()
        os.chdir(cwd)

    fixture = next(iter(fixtures)) if len(fixtures) == 1 else None
    if fixture is None:
        notes.append(f"set-up processes wrote different fixtures: {sorted(fixtures)}")
    elif golden and fixture != golden["fixture"]:
        notes.append(f"fixture digest {fixture} differs from golden {golden['fixture']}")
    fixture_ok = fixture is not None and (golden is None or fixture == golden["fixture"])

    expected = golden["output"] if golden else passes[0].digest
    mismatched = sum(p.digest != expected for p in passes)
    if mismatched:
        notes.append(
            f"output digest mismatch in {mismatched} of {len(passes)} passes "
            f"(expected {expected}, got {sorted({p.digest for p in passes})})"
        )
    attempted = workload.cells * len(passes)
    if canary_ok and fixture_ok:  # a pass whose output is wrong fails as a whole
        failed = sum(workload.cells if p.digest != expected else p.failed for p in passes)
    else:  # every pass ran on a wrong program or input
        failed = attempted
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(workload),
        "notes": notes,
        "fixture_sha256": fixture,
        "output_sha256": passes[0].digest,
        "passes": [p.seconds for p in passes],
        "correct": canary_ok and fixture_ok and not mismatched,
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        values, uncalled, mismatches = _layer_metrics(tracer, workload, passes, traced_ids)
        if mismatches:
            result["correct"] = False
            notes.append("layer counts differ between traced passes: " + "; ".join(mismatches))
        result["metrics"] = {
            name: {"value": values[name], "unit": tracing.metric_unit(name)}
            for name in tracing.metric_names()
        }
        result["uncalled"] = sorted(uncalled)
        return result

    run_s = statistics.median(p.seconds for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "rows_per_s": workload.rows * workload.runs / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["metrics"] = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    }
    result["details"] = {
        "setup_s": f"median of {len(setup)} set-up processes",
        "run_s": f"median of {len(passes)} passes",
        "rows_per_s": f"{workload.rows} rows x {workload.runs} runs / run_s",
    }
    result["setup_samples"] = setup
    return result


def _print_report(result: dict) -> None:
    env = result["environment"]
    print(
        f"perfbench {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{len(result['passes'])} passes"
    )
    print("environment " + json.dumps(env))
    for note in result["notes"]:
        print("note: " + note)
    print(f"fixture sha256 {result['fixture_sha256']}")
    print(f"output sha256 {result['output_sha256']}")
    uncalled = set(result.get("uncalled", ()))
    details = result.get("details", {})
    for name, metric in result["metrics"].items():
        shown = f"{metric['value']:.6g} {metric['unit']}"
        if name in uncalled:
            shown = f"null ({metric['unit']}; layer not called, reported as 0)"
        elif name in details:
            shown += f"  ({details[name]})"
        print(f"{name:42s} {shown}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':42s} {ratio:.6g} ({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="fixture seed (default: %(default)s, the golden one)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    (WORK / args.workload / "result.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    _print_report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1
