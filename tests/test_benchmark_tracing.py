"""The benchmark's per-layer tracer still finds every function it wraps.

`perfbench/tracing.py` patches `shockstab.<module>.<function>` (or a class
method) by name for `--trace 1` runs. A refactor that renames, moves or
drops one of them would only show up there; this test catches it in the
tier-1 suite instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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
    frame = load_csv(write_csv("t.csv", "a,b\n1.5,x\nNA,\n3,z\n"))
    taken = frame.take([2, 0])
    assert tracing._take_counts((frame, [2, 0]), {}, taken) == {
        "frame.take.rows": 2,
        "frame.take.raw_cells": 4,
    }
    assert frame.column("b").without_text().raw is None
