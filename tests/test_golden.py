"""CLI artifacts against the golden files in tests/golden/.

Keys, key order, strings, integers, booleans, nulls and blank CSV cells must
match exactly.  Floats must agree to 1e-12 * max(1, |golden|), so a CPU whose
BLAS kernels round differently still passes.  The `run` cases cut the
scenario's horizon to 20 steps.

Regenerate one file, or all of them when no name is given, with

    PYTHONPATH=src python3 tests/test_golden.py [NAME ...]
"""

import json
import math
import sys
from pathlib import Path

import pytest

from qbattery.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ROOT / "scenarios"
RUN_STEPS = 20
REL_TOL = 1e-12

# golden file name -> (mode, scenario, seed)
CASES = {
    **{f"{mode}_{name}.json": (mode, name, 0)
       for name in ("qubit_sigma_x", "qubit_dark_state", "qutrit_ladder")
       for mode in ("audit", "sweep")},
    "check_ensemble_check_seed0.json": ("check", "ensemble_check", 0),
    **{f"run_{name}.csv": ("run", name, 0)
       for name in ("qubit_sigma_x", "qubit_dark_state", "qutrit_ladder",
                    "thermal_stationary")},
}


def produce(name: str, workdir: Path) -> Path:
    """Write the artifact of case `name` into `workdir` and return its path."""
    mode, scenario, seed = CASES[name]
    config = SCENARIOS / f"{scenario}.json"
    if mode == "run":
        data = json.loads(config.read_text())
        data["time"]["horizon"] = RUN_STEPS * data["time"]["step"]
        config = workdir / f"{scenario}_{RUN_STEPS}_steps.json"
        config.write_text(json.dumps(data))
    out = workdir / name
    code = main([mode, "--config", str(config), "--out", str(out), "--seed", str(seed)])
    assert code == 0, f"{mode} on {scenario} exited {code}"
    return out


class _Object(list):
    """A JSON object as its (key, value) pairs in file order."""


def _same_float(golden: float, actual: float) -> bool:
    if not (math.isfinite(golden) and math.isfinite(actual)):
        return repr(golden) == repr(actual)
    return abs(actual - golden) <= REL_TOL * max(1.0, abs(golden))


def _json_mismatch(golden, actual, path: str) -> str | None:
    if isinstance(golden, _Object):
        if not isinstance(actual, _Object):
            return f"{path}: expected an object, got {actual!r}"
        keys = [k for k, _ in golden]
        got = [k for k, _ in actual]
        if keys != got:
            return f"{path}: keys {got} differ from golden {keys}"
        for (key, g), (_, a) in zip(golden, actual):
            found = _json_mismatch(g, a, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list):
        if type(actual) is not list or len(actual) != len(golden):
            return f"{path}: expected a list of {len(golden)}, got {actual!r}"
        for i, (g, a) in enumerate(zip(golden, actual)):
            found = _json_mismatch(g, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(golden) is not type(actual):
        return f"{path}: expected {type(golden).__name__} {golden!r}, got {actual!r}"
    if isinstance(golden, float):
        same = _same_float(golden, actual)
    else:
        same = golden == actual
    return None if same else f"{path}: expected {golden!r}, got {actual!r}"


def _csv_mismatch(golden: str, actual: str) -> str | None:
    want, got = golden.splitlines(), actual.splitlines()
    if len(want) != len(got):
        return f"{len(got)} lines, golden has {len(want)}"
    if want[0] != got[0]:
        return f"header {got[0]!r} differs from golden {want[0]!r}"
    columns = want[0].split(",")
    for row, (w_line, g_line) in enumerate(zip(want[1:], got[1:]), start=1):
        w_cells, g_cells = w_line.split(","), g_line.split(",")
        if len(w_cells) != len(g_cells):
            return f"row {row}: {len(g_cells)} cells, golden has {len(w_cells)}"
        for column, w, g in zip(columns, w_cells, g_cells):
            if (w == "") != (g == "") or (w and not _same_float(float(w), float(g))):
                return f"row {row}, column {column}: expected {w!r}, got {g!r}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    actual = produce(name, tmp_path).read_text(encoding="utf-8")
    if name.endswith(".json"):
        found = _json_mismatch(json.loads(golden, object_pairs_hook=_Object),
                               json.loads(actual, object_pairs_hook=_Object), "$")
    else:
        found = _csv_mismatch(golden, actual)
    assert found is None, (
        f"{name}: {found}\n"
        f"if the change is intended, regenerate with: "
        f"PYTHONPATH=src python3 tests/test_golden.py {name}")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in sys.argv[1:] or sorted(CASES):
            (GOLDEN / name).write_bytes(produce(name, Path(scratch)).read_bytes())
            print(f"wrote {GOLDEN / name}")
