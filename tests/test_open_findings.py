"""The roadmap's open findings, each as a test of the intended behaviour.

Every test here fails today on its own assertion.  Each is a strict expected
failure that names its ROADMAP item: the change that mends a finding makes its
test pass, which strict=True turns into a suite failure until that change
removes the marker.  raises=AssertionError keeps a crash from passing as the
expected failure.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from qbattery.audit import (ScenarioSpec, _one_channel, bundled_witnesses, eigenstate_audit,
                            evaluate_instance)
from qbattery.cli import main
from qbattery.dynamics import JumpChannel, LindbladModel
from qbattery.linalg import HermitianMatrix
from qbattery.tolerances import DEFAULT_TOLERANCES

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def finding(item: int, what: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


def outcomes(model, k0, beta=1.0):
    return evaluate_instance(model, k0, beta, "instance").outcomes(DEFAULT_TOLERANCES)


@finding(13, "a coarse step gives wrong rows with exit 0")
def test_a_coarse_qutrit_ladder_run_exits_3(tmp_path):
    # every rate x8 at step 0.25: 17 rows whose power_analytic is off by up to 6.9x
    data = json.loads((SCENARIOS / "qutrit_ladder.json").read_text())
    for channel in data["channels"]:
        channel["rate"] *= 8
    data["time"] = {"t0": 0.0, "step": 0.25, "horizon": 4.0}
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(data))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run.csv")]) == 3


@finding(16, "the closed-form power charges from a bath at the battery's temperature")
def test_a_thermal_bath_audit_reports_no_charging(tmp_path):
    data = json.loads((SCENARIOS / "thermal_stationary.json").read_text())
    data["initial_state"] = {"kind": "eigenstate", "k0": 0}
    config, out = tmp_path / "thermal.json", tmp_path / "audit.json"
    config.write_text(json.dumps(data))
    assert main(["audit", "--config", str(config), "--out", str(out)]) == 0
    power = json.loads(out.read_text())["report"]["power"]
    assert not power > 0.0, f"P = {power!r}"


@finding(7, "the vanishing condition reads one basis of a degenerate level")
def test_a_joint_conjugation_keeps_c3(rng):
    h, l = np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 1.0, 0.0])
    v = oracles.random_unitary(rng, 3)
    turned = _one_channel(v @ h @ oracles.dag(v), v @ l @ oracles.dag(v))
    assert outcomes(turned, 0)["C3"] == outcomes(_one_channel(h, l), 0)["C3"]


@finding(12, "the zero cut does not scale with the unit of time")
def test_a_change_of_time_unit_keeps_every_witness_outcome():
    s = 2.0 ** -20  # (H, gamma, beta) -> (sH, s gamma, beta/s) is exact in floating point
    changed = {}
    for label, model, k0 in bundled_witnesses():
        scaled = LindbladModel(HermitianMatrix(s * model.hamiltonian.matrix),
                               tuple(JumpChannel(s * ch.rate, ch.operator)
                                     for ch in model.channels))
        before, after = outcomes(model, k0), outcomes(scaled, k0, 1.0 / s)
        changed.update({f"{label} {claim}": (before[claim], after[claim])
                        for claim in before if before[claim] != after[claim]})
    assert not changed


@finding(3, "the audit's closed form misses the pure-state limit of C2")
def test_a_lowering_channel_off_k0_is_not_consistent():
    # w_1 = w_0 zeroes the closed-form row Theta and L|0> = 0 the power, yet
    # towards the pure state the row-order Theta grows as ln^2(eps) while P
    # tends to 0: a C2 counterexample in the limit
    model = _one_channel(np.diag([0.0, 0.0, 1.0]), [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert eigenstate_audit(ScenarioSpec(model, 1.0, 0)).verdict != "CONSISTENT"
