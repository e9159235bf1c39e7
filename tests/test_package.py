import ast
import importlib
import importlib.util
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qbattery
from qbattery import (BatteryContext, DensityMatrix, EnsembleSpec, HermitianMatrix,
                      LindbladModel, ParameterError, ScenarioSpec, power_fd, thermal_state)

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in qbattery.__all__ if not hasattr(qbattery, name)]
    assert missing == []
    assert len(set(qbattery.__all__)) == len(qbattery.__all__)


def test_no_unused_imports():
    # a name a module imports must be read there, or re-exported through __all__
    unused = []
    for path in sorted((ROOT / "src" / "qbattery").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and [t.id for t in node.targets] == ["__all__"]), ())
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and name not in exported]
    assert unused == []


_H2 = HermitianMatrix(np.diag([0.0, 1.0]))
_MODEL = LindbladModel(_H2)
_MIXED = DensityMatrix.maximally_mixed(2)
_SCALARS = {
    "ScenarioSpec.beta": ("beta", lambda v: ScenarioSpec(model=_MODEL, beta=v, k0=0)),
    "ScenarioSpec.step": ("step", lambda v: ScenarioSpec(model=_MODEL, beta=1.0, k0=0, step=v)),
    "EnsembleSpec.beta": ("beta", lambda v: EnsembleSpec(seed=0, trials=1, beta=v)),
    "BatteryContext.beta": ("beta", lambda v: BatteryContext(v, _MODEL)),
    "thermal_state.beta": ("beta", lambda v: thermal_state(_H2, v)),
    "power_fd.step": ("step", lambda v: power_fd(_MIXED, _MIXED, v, BatteryContext(1.0, _MODEL))),
}


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, "1", True, None], ids=repr)
@pytest.mark.parametrize("where", sorted(_SCALARS))
def test_scalars_must_be_finite_and_positive(where, value):
    name, build = _SCALARS[where]
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be finite and positive, got {value!r}")):
        build(value)


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
