"""Which commands load scipy.stats, each checked in a fresh interpreter.

scipy.stats takes most of a second to import, so `import shockstab` leaves
it out: only the schema profile and the tail draws use it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shockstab

_SRC = str(Path(shockstab.__file__).resolve().parents[1])


def _run(code: str, cwd) -> dict:
    """Run `code` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_stats(tmp_path):
    out = _run(
        "import json, sys\n"
        "import shockstab, shockstab.cli\n"
        "print(json.dumps({m: m in sys.modules for m in ('scipy.stats', 'scipy.special')}))\n",
        tmp_path,
    )
    assert out == {"scipy.stats": False, "scipy.special": False}


def test_split_command_loads_no_scipy_stats(tmp_path):
    out = _run(
        "import contextlib, io, json, sys\n"
        "from shockstab import cli\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "make_shocked_fixture(rows=300).to_csv('f.csv')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['split', 'f.csv', '--mode', 'oot', '--date-col', 'date',\n"
        "                     '--shock-date', '2018-03-22', '--runs', '2', '--out', 's'])\n"
        "print(json.dumps({'code': code, 'loaded': 'scipy.stats' in sys.modules}))\n",
        tmp_path,
    )
    assert out == {"code": 0, "loaded": False}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="pipeline workers need fork")
def test_pipeline_loads_scipy_stats_before_forking_workers(tmp_path):
    out = _run(
        "import concurrent.futures, json, sys\n"
        "from shockstab import pipeline\n"
        "from shockstab.fixtures import make_shocked_fixture\n"
        "from shockstab.splitting import SplitSpec\n"
        "loaded = []\n"
        "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        loaded.append('scipy.stats' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "pipeline._worker_count = lambda tasks: 2\n"
        "config = pipeline.PipelineConfig(\n"
        "    input_path='f.csv', label='is_bad', levels=[10],\n"
        "    split=SplitSpec(mode='oot', date_column='date', shock_date='2018-03-22', mc_runs=2),\n"
        ")\n"
        "before = 'scipy.stats' in sys.modules\n"
        "report = pipeline.run_pipeline_on_frame(make_shocked_fixture(rows=300), config)\n"
        "print(json.dumps({'before': before, 'at_pool_start': loaded,\n"
        "                  'partial': report.partial}))\n",
        tmp_path,
    )
    assert out == {"before": False, "at_pool_start": [True], "partial": False}
