"""The benchmark's per-layer tracer still finds every function it wraps.

`perfbench/tracing.py` patches `shockstab.<module>.<function>` (or a class
method) by name for `--trace 1` runs. A refactor that renames, moves or
drops one of them would only show up there; this test catches it in the
tier-1 suite instead, and so does a split that stops calling `split_once`
once per run or `to_csv` once per file, the counts `perfbench/selftest.py`
expects.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from shockstab.cli import main
from shockstab.fixtures import make_shocked_fixture
from shockstab.frame import Column, load_csv

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves_to_a_function(tracing):
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        module = importlib.import_module("shockstab." + layer.name.split(".", 1)[0])
        owner, _, attr = layer.attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        function = getattr(target, attr, None)
        assert inspect.isfunction(function), layer


def test_tracer_installs_and_restores_every_layer(tracing, write_csv):
    originals = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module("shockstab." + layer.name.split(".", 1)[0])
        owner, _, attr = layer.attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        originals[layer.name] = (target, attr, getattr(target, attr))
    tracer = tracing.Tracer()
    with tracer.installed():
        for target, attr, original in originals.values():
            assert getattr(target, attr) is not original
        load_csv(write_csv("t.csv", "a,b\n1,x\n2,y\n")).take([1])
    for target, attr, original in originals.values():
        assert getattr(target, attr) is original
    assert tracer.pass_metrics(0)["frame.take.calls"] == 1


def test_take_counts_read_each_columns_raw_text(tracing, write_csv):
    assert isinstance(inspect.getattr_static(Column, "raw"), property)
    path = write_csv("t.csv", "a,b\n1.5,x\nNA,\n3,z\n")
    # the export load keeps the numerical column's text in its lines, so
    # only the categorical column's cells count; under the override, a's
    # two numbers load as categorical text, and its cells count too; a
    # default load keeps no text, and none count
    for kwargs, raw_cells in [
        ({"lines": True}, 2),
        ({"categorical_override": 2, "lines": True}, 4),
        ({"categorical_override": 2}, 0),
    ]:
        frame = load_csv(path, **kwargs)
        taken = frame.take([2, 0])
        assert tracing._take_counts((frame, [2, 0]), {}, taken) == {
            "frame.take.rows": 2,
            "frame.take.raw_cells": raw_cells,
        }


def test_split_calls_split_once_per_run_and_to_csv_per_file(tracing, tmp_path, capsys):
    # perfbench/selftest.py expects these counts of the traced split workload
    make_shocked_fixture(rows=200).to_csv(tmp_path / "f.csv")
    tracer = tracing.Tracer()
    with tracer.installed():
        code = main([
            "split", str(tmp_path / "f.csv"), "--mode", "oot", "--date-col", "date",
            "--shock-date", "2018-03-22", "--runs", "3", "--out", str(tmp_path / "splits"),
        ])
    capsys.readouterr()
    assert code == 0
    counts = tracer.pass_metrics(0)
    assert counts["splitting.split_once.calls"] == 3
    assert counts["frame.to_csv.calls"] == 9
