import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import numbers
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qbattery
from qbattery import (BatteryContext, DensityMatrix, EnsembleSpec, HermitianMatrix, JumpChannel,
                      LindbladModel, ParameterError, ScenarioSpec, ToleranceConfig,
                      evaluate_instance, power_fd, regularize, thermal_state)

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


def _names_a_number_type(node) -> bool:
    """int, float, np.integer, np.floating or a numbers class, alone or in a tuple."""
    if isinstance(node, ast.Tuple):
        return any(_names_a_number_type(element) for element in node.elts)
    if isinstance(node, ast.Name):
        return node.id in ("int", "float", *numbers.__all__)
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
        node.value.id == "numbers" or (node.value.id in ("np", "numpy")
                                       and node.attr in ("integer", "floating")))


def test_only_tolerances_decides_what_a_number_is():
    # every scalar check lives in tolerances.py; a type test for a number elsewhere
    # is a second rule for what a number is
    found = []
    for path in sorted((ROOT / "src" / "qbattery").glob("*.py")):
        if path.name == "tolerances.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and _names_a_number_type(node.args[1])]
    assert found == []


_H2 = HermitianMatrix(np.diag([0.0, 1.0]))
_MODEL = LindbladModel(_H2)
_MIXED = DensityMatrix.maximally_mixed(2)
_HUGE = 10 ** 400  # an int beyond float range: float() of it overflows


def _id(value) -> str:
    return "10**400" if value is _HUGE else repr(value)


_SCALARS = {  # where: (name, build); a build returns the value kept, where one is
    "ScenarioSpec.beta": ("beta", lambda v: ScenarioSpec(model=_MODEL, beta=v, k0=0).beta),
    "ScenarioSpec.step": ("step",
                          lambda v: ScenarioSpec(model=_MODEL, beta=1.0, k0=0, step=v).step),
    "EnsembleSpec.beta": ("beta", lambda v: EnsembleSpec(seed=0, trials=1, beta=v).beta),
    "BatteryContext.beta": ("beta", lambda v: BatteryContext(v, _MODEL).beta),
    "thermal_state.beta": ("beta", lambda v: thermal_state(_H2, v)),
    "power_fd.step": ("step", lambda v: power_fd(_MIXED, _MIXED, v, BatteryContext(1.0, _MODEL))),
}
_KEPT = ("ScenarioSpec.beta", "ScenarioSpec.step", "EnsembleSpec.beta", "BatteryContext.beta")
_BOUNDED = {  # where: (name, minimum, build returning the value kept)
    "JumpChannel.rate": ("channel rate", 0, lambda v: JumpChannel(v, np.eye(2)).rate),
    **{f"ToleranceConfig.{f.name}": (
        f"tolerance {f.name}", 1 if f.name == "claim_band" else 0,
        lambda v, name=f.name: getattr(ToleranceConfig(**{name: v}), name))
       for f in dataclasses.fields(ToleranceConfig) if f.type == "float"},
}


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, "1", True, None, _HUGE,
                                   np.bool_(True)], ids=_id)
@pytest.mark.parametrize("where", sorted(_SCALARS))
def test_scalars_must_be_finite_and_positive(where, value):
    name, build = _SCALARS[where]
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be finite and positive, got {value!r}")):
        build(value)


@pytest.mark.parametrize("value", [-1, -0.5, math.nan, math.inf, -math.inf, "1", True, None,
                                   _HUGE, -_HUGE, np.bool_(True)], ids=_id)
@pytest.mark.parametrize("where", sorted(_BOUNDED))
def test_bounded_scalars_must_be_finite_and_at_least_their_minimum(where, value):
    name, minimum, build = _BOUNDED[where]
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be finite and >= {minimum}, got {value!r}")):
        build(value)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(5), Fraction(1, 2)], ids=repr)
def test_real_numbers_are_kept_as_python_floats(value):
    results = {where: build(value) for where, (_, build) in _SCALARS.items()}
    kept = [results[where] for where in _KEPT]
    # a bounded check keeps minimum + value, a number of the same type as value
    kept += [build(minimum + value) - minimum for _, minimum, build in _BOUNDED.values()]
    assert [type(x) for x in kept] == [float] * len(kept)
    assert kept == [float(value)] * len(kept)


_INTEGERS = {
    "ScenarioSpec.k0": ("k0", lambda v: ScenarioSpec(model=_MODEL, beta=1.0, k0=v)),
    "evaluate_instance.k0": ("k0", lambda v: evaluate_instance(_MODEL, v, 1.0, "x")),
    "EnsembleSpec.seed": ("seed", lambda v: EnsembleSpec(seed=v, trials=1)),
    "EnsembleSpec.trials": ("trials", lambda v: EnsembleSpec(seed=0, trials=v)),
    "EnsembleSpec.dim_min": ("dim_min", lambda v: EnsembleSpec(seed=0, trials=1, dim_min=v)),
    "EnsembleSpec.dim_max": ("dim_max", lambda v: EnsembleSpec(seed=0, trials=1, dim_max=v)),
    "ToleranceConfig.jacobi_max_sweeps": ("tolerance jacobi_max_sweeps",
                                          lambda v: ToleranceConfig(jacobi_max_sweeps=v)),
    "DensityMatrix.maximally_mixed.dim": ("dim", lambda v: DensityMatrix.maximally_mixed(v)),
}


@pytest.mark.parametrize("value", [1.7, 0.9, 1.0, np.float64(1.0), "1", True, np.bool_(True),
                                   None, math.nan, Fraction(2, 1)], ids=repr)
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
    sweeps = ToleranceConfig(jacobi_max_sweeps=np.int64(5)).jacobi_max_sweeps
    assert type(sweeps) is int and sweeps == 5
    assert DensityMatrix.maximally_mixed(np.int64(5)).dim == 5


@pytest.mark.parametrize("build, message", [
    (lambda: ScenarioSpec(model=_MODEL, beta=1.0, k0=2), "k0 must lie in [0, 2), got 2"),
    (lambda: EnsembleSpec(seed=-1, trials=1), "seed must be >= 0, got -1"),
    (lambda: EnsembleSpec(seed=0, trials=0), "trials must be at least 1"),
    (lambda: EnsembleSpec(seed=0, trials=1, dim_min=1), "need 2 <= dim_min <= dim_max"),
    (lambda: ToleranceConfig(jacobi_max_sweeps=-1),
     "tolerance jacobi_max_sweeps must be finite and >= 0, got -1"),
    (lambda: DensityMatrix.maximally_mixed(0), "dimension must be positive"),
])
def test_integers_out_of_range(build, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf, "0.5", True,
                                   None, _HUGE, np.bool_(True), Fraction(1, 10 ** 400)], ids=_id)
def test_epsilons_lie_strictly_inside_the_unit_interval(value):
    # one rule for an epsilon, whether a spec or regularize reads it
    with pytest.raises(ParameterError,
                       match=re.escape(f"epsilon_list[1] must lie strictly inside (0, 1), "
                                       f"got {value!r}")):
        ScenarioSpec(model=_MODEL, beta=1.0, k0=0, epsilon_list=(0.5, value))
    with pytest.raises(ParameterError,
                       match=re.escape(f"eps must lie strictly inside (0, 1), got {value!r}")):
        regularize(_MIXED, value)


@pytest.mark.parametrize("value", [np.float32(0.5), Fraction(1, 2)], ids=repr)
def test_real_epsilons_are_kept_as_python_floats(value):
    spec = ScenarioSpec(model=_MODEL, beta=1.0, k0=0, epsilon_list=(value,))
    assert type(spec.epsilon_list[0]) is float and spec.epsilon_list == (0.5,)
    mixed = regularize(DensityMatrix.pure([1.0, 0.0]), value)
    assert np.array_equal(mixed.matrix, np.diag([0.75, 0.25]))


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
