"""Benchmark of the shockstab pipeline, end to end and per layer.

    python3 perfbench/run.py --workload c8_2k --seed 20180322 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`, and scratch files go to `.perfbench-work/` at its root.
Workloads: c8_2k, large_100k and split_export_50k (see workloads.py).
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of traced passes.
Exits 1 when an output does not match its golden digest.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"


def bootstrap() -> None:
    """Pin BLAS to one thread and import shockstab from the checkout.

    Must run before numpy is first imported; the set-up processes the
    benchmark starts inherit the pin through the environment.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "shockstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no shockstab package under {SRC}; run it in a checkout")
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    bootstrap()
    from bench import main

    sys.exit(main())
