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
                      LindbladModel, ParameterError, ScenarioSpec, evaluate_instance, power_fd,
                      regularize, thermal_state)

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


_INTEGERS = {
    "ScenarioSpec.k0": ("k0", lambda v: ScenarioSpec(model=_MODEL, beta=1.0, k0=v)),
    "evaluate_instance.k0": ("k0", lambda v: evaluate_instance(_MODEL, v, 1.0, "x")),
    "EnsembleSpec.seed": ("seed", lambda v: EnsembleSpec(seed=v, trials=1)),
    "EnsembleSpec.trials": ("trials", lambda v: EnsembleSpec(seed=0, trials=v)),
    "EnsembleSpec.dim_min": ("dim_min", lambda v: EnsembleSpec(seed=0, trials=1, dim_min=v)),
    "EnsembleSpec.dim_max": ("dim_max", lambda v: EnsembleSpec(seed=0, trials=1, dim_max=v)),
}


@pytest.mark.parametrize("value", [1.7, 0.9, 1.0, np.float64(1.0), "1", True, np.bool_(True),
                                   None], ids=repr)
@pytest.mark.parametrize("where", sorted(_INTEGERS))
def test_integers_must_be_integers(where, value):
    name, build = _INTEGERS[where]
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be an integer, got {value!r}")):
        build(value)


def test_numpy_integers_are_integers():
    spec = ScenarioSpec(model=_MODEL, beta=1.0, k0=np.int64(1))
    ens = EnsembleSpec(seed=np.uint32(7), trials=np.int8(3), dim_min=np.int16(2),
                       dim_max=np.int64(4))
    assert type(spec.k0) is int and spec.k0 == 1
    assert [type(v) for v in (ens.seed, ens.trials, ens.dim_min, ens.dim_max)] == [int] * 4
    assert (ens.seed, ens.trials, ens.dim_min, ens.dim_max) == (7, 3, 2, 4)
    assert evaluate_instance(_MODEL, np.int32(1), 1.0, "x").k0 == 1


@pytest.mark.parametrize("build, message", [
    (lambda: ScenarioSpec(model=_MODEL, beta=1.0, k0=2), "k0 must lie in [0, 2), got 2"),
    (lambda: EnsembleSpec(seed=-1, trials=1), "seed must be >= 0, got -1"),
    (lambda: EnsembleSpec(seed=0, trials=0), "trials must be at least 1"),
    (lambda: EnsembleSpec(seed=0, trials=1, dim_min=1), "need 2 <= dim_min <= dim_max"),
])
def test_integers_out_of_range(build, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf, "0.5", True,
                                   None], ids=repr)
def test_epsilons_lie_strictly_inside_the_unit_interval(value):
    # one rule for an epsilon, whether a spec or regularize reads it
    with pytest.raises(ParameterError,
                       match=re.escape(f"epsilon_list[1] must lie strictly inside (0, 1), "
                                       f"got {value!r}")):
        ScenarioSpec(model=_MODEL, beta=1.0, k0=0, epsilon_list=(0.5, value))
    with pytest.raises(ParameterError,
                       match=re.escape(f"eps must lie strictly inside (0, 1), got {value!r}")):
        regularize(_MIXED, value)


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
