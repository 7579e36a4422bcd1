"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Drives every workload at canary size (300 rows, 2 Monte Carlo runs) through
the timed and the traced path, in this process, and checks that the outputs
match their golden digests, that the reported metric names and units are the
ones BENCHMARK.json declares, that no operation failed, and that the traced
call counts match the workload's shape.
Exits 0 when every check holds.
"""

import dataclasses
import json
import sys

from run import ROOT, bootstrap


def _declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def _check(result: dict, declared: dict, workload) -> list[str]:
    problems = []
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        problems.append(f"metrics {sorted(reported.items())} != {sorted(declared.items())}")
    if not result["notes"][0].startswith("golden digests apply"):
        problems.append(result["notes"][0])
    if not result["correct"]:
        problems.append(f"incorrect: {result['notes']}")
    if result["failed"]:
        problems.append(f"fail_ratio {result['failed']}/{result['attempted']}")
    if result["trace"]:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        expected = {
            "model.train_baseline.calls": workload.fits,
            "splitting.split_once.calls": workload.runs,
            "frame.to_csv.calls": 0 if workload.kind == "pipeline" else 3 * workload.runs,
            "pipeline.cells.attempted": workload.cells if workload.kind == "pipeline" else 0,
        }
        for name, count in expected.items():
            if value[name] != count:
                problems.append(f"{name} = {value[name]}, expected {count}")
    return problems


def main() -> int:
    bootstrap()
    import bench
    from workloads import DEFAULT_SEED, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {False: _declared(spec, "end_to_end"), True: _declared(spec, "per_layer")}
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        print("workload names differ from BENCHMARK.json")
        return 1
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
    predicted = {m for p in predictions["predictions"] for m in p["layer_metrics"]}
    if predicted != set(declared[True]):
        print(f"predictions.json and BENCHMARK.json per_layer differ: {sorted(predicted ^ set(declared[True]))}")
        return 1
    failures = 0
    for workload in WORKLOADS.values():
        toy = dataclasses.replace(workload, rows=bench.CANARY_ROWS, runs=bench.CANARY_RUNS)
        for traced in (False, True):
            result = bench.measure(toy, DEFAULT_SEED, 0.0, traced, setup_probes=1)
            problems = _check(result, declared[traced], toy)
            failures += bool(problems)
            status = "FAIL" if problems else "ok"
            print(f"{status} {toy.name} trace={int(traced)} passes={len(result['passes'])}")
            for problem in problems:
                print("   " + problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
