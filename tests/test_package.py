import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import qbattery

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in qbattery.__all__ if not hasattr(qbattery, name)]
    assert missing == []
    assert len(set(qbattery.__all__)) == len(qbattery.__all__)


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("qbattery_bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_resolve():
    # `bench/run.py --trace 1` measures a layer only if the tracer wraps it: a
    # public function of a traced module, or one of the traced constructors.
    # A declared name without one stops the run with "no measurement".
    tracer = _bench_tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unresolved = []
    for entry in declared:
        layer = entry["name"].rpartition(".")[0]
        if layer == "trace":  # the tracer's own overhead, not a layer
            continue
        module_name, _, attr = layer.partition(".")
        if module_name not in tracer.MODULES:
            unresolved.append(entry["name"])
            continue
        module = importlib.import_module(f"qbattery.{module_name}")
        value = getattr(module, attr, None)
        public_function = (not attr.startswith("_") and inspect.isfunction(value)
                           and value.__module__ == module.__name__)
        if not (public_function or (module_name, attr) in tracer.CONSTRUCTORS):
            unresolved.append(entry["name"])
    assert unresolved == []
