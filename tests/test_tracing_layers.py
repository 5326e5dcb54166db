"""Each per-layer metric of the benchmark times functions of the package by
name; one that no longer exists makes its metric read null in a traced run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_per_layer_metric_finds_its_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    needed = {name for _, _, needs in tracing.PER_LAYER.values() for name in needs}
    assert sorted(needed & set(tracing.missing_functions())) == []
