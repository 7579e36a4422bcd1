"""Every README walkthrough in demos/ runs to the end without a warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shockstab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # the demos' own temporary directories land under tmp_path too
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(shockstab.__file__).parents[1]),
        "TMPDIR": str(tmp_path),
    }
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
