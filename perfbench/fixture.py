"""Set up a workload in a fresh process, as `run.py` times it.

    python3 perfbench/fixture.py ROWS SEED PATH

Imports shockstab from the checkout's `src/`, builds the shocked fixture
with ROWS rows under SEED and writes it to PATH as CSV, then prints the
file's SHA-256. The process's wall time, start to exit, is one sample of the
benchmark's `setup_s`.
"""

import sys

from run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from workloads import write_fixture

    rows, seed, path = sys.argv[1:]
    print(write_fixture(int(rows), int(seed), path))
