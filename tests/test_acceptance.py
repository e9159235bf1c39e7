"""End-to-end acceptance checks.

Each test pins one headline guarantee at a fixed tolerance and prints a
single ACCEPTANCE line to the real stdout so the summary survives pytest's
capture.  Tolerances here are contractual; do not loosen them to make a
failing build pass.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from qbattery.audit import EnsembleSpec, ScenarioSpec, eigenstate_audit, epsilon_sweep, \
    evaluate_instance
from qbattery.dynamics import DensityMatrix, JumpChannel, LindbladModel, propagate, \
    thermal_state
from qbattery.free_energy import BatteryContext, compute_theta_report, \
    free_energy_operator, theta_eigenstate, theta_index_form
from qbattery.linalg import HermitianMatrix

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture
def record(capsys):
    # bypass capture so the summary lines land in the real test transcript
    def _record(n, ok, detail):
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _record


def random_model(rng, d, n_channels=1):
    h = HermitianMatrix(oracles.random_hermitian(rng, d))
    channels = tuple(JumpChannel(float(1.0 - rng.random()), oracles.random_ginibre(rng, d))
                     for _ in range(n_channels))
    return LindbladModel(h, channels)


def test_acceptance_1_theta_forms_agree_at_scale(record):
    # operator form tr(rho C C^dag) against the quadruple-sum index form,
    # 200 instances, relative error 1e-9, and the whole loop under 10 s
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        model = random_model(rng, d, n_channels=int(rng.integers(1, 3)))
        rho = DensityMatrix(oracles.random_density(rng, d))
        decomp = free_energy_operator(rho, BatteryContext(beta, model))
        report = compute_theta_report(decomp, rho, model)
        for entry in report.channels:
            rel = abs(entry.discrepancy) / max(1.0, entry.theta_operator)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    record(1, worst <= 1e-9 and elapsed <= 10.0,
           f"max rel diff {worst:.3e}, {elapsed:.2f} s for 200 instances")


def test_acceptance_2_index_form_collapses_on_projectors(record):
    # plugging an exact eigenprojector into the general index form must
    # reproduce the single-sum closed form to 1e-12
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        w = np.sort(rng.uniform(-3.0, 3.0, size=d))
        l_c = oracles.random_ginibre(rng, d)
        k0 = int(rng.integers(0, d))
        rho_c = np.zeros((d, d), dtype=complex)
        rho_c[k0, k0] = 1.0
        general = theta_index_form(w, rho_c, l_c)
        closed = theta_eigenstate(k0, w, l_c)
        worst = max(worst, abs(general - closed))
    record(2, worst <= 1e-12, f"max |general - closed| = {worst:.3e} over 100 draws")


def test_acceptance_3_power_trace_vs_index(record):
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        model = random_model(rng, d, n_channels=int(rng.integers(1, 4)))
        inst = evaluate_instance(model, int(rng.integers(0, d)), 1.0, "acc3")
        rel = abs(inst.power_trace - inst.power_index) / max(1.0, abs(inst.power_trace))
        worst = max(worst, rel)
    record(3, worst <= 1e-10, f"max rel diff {worst:.3e} over 100 models")


def test_acceptance_4_headline_qubit_instance(record):
    model = LindbladModel(HermitianMatrix(np.diag([0.0, 1.0])),
                          (JumpChannel(1.0, SIGMA_X),))
    start = time.perf_counter()
    report = eigenstate_audit(ScenarioSpec(model=model, beta=1.0, k0=0))
    elapsed = time.perf_counter() - start
    theta = report.theta_values[0]
    ok = (abs(theta - 1.0) <= 1e-12 and abs(report.power - 1.0) <= 1e-12
          and elapsed < 1.0)
    record(4, ok, f"Theta = {theta!r}, P = {report.power!r}, {elapsed * 1e3:.1f} ms")


def test_acceptance_5_regularized_power_converges(record):
    eps = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    model = LindbladModel(HermitianMatrix(np.diag([0.0, 1.0])),
                          (JumpChannel(1.0, SIGMA_PLUS),))
    report = epsilon_sweep(ScenarioSpec(model=model, beta=1.0, k0=0, epsilon_list=eps))
    gaps = [abs(row.energy_rate - 1.0) for row in report.rows]
    ok = all(gap <= 5.0 * row.epsilon for gap, row in zip(gaps, report.rows))
    record(5, ok, f"max |energy_rate - 1| / eps = {max(g / r.epsilon for g, r in zip(gaps, report.rows)):.3f}")


def test_acceptance_6_integrator_order_and_defects(record):
    model = LindbladModel(HermitianMatrix(np.diag([0.0, 1.0])),
                          (JumpChannel(1.0, SIGMA_MINUS),))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))

    grid = np.linspace(0.0, 5.0, 5001)
    states, trace_defects = zip(*propagate(model, rho0, grid))
    pops = np.array([s.matrix[1, 1].real for s in states])
    pop_err = float(np.max(np.abs(pops - np.exp(-grid))))
    defect = float(np.max(np.abs(trace_defects)))

    def end_error(step):
        n = round(5.0 / step)
        t = np.linspace(0.0, 5.0, n + 1)
        *_, (final, _) = propagate(model, rho0, t)
        return abs(final.matrix[1, 1].real - math.exp(-5.0))

    ratio = end_error(0.1) / end_error(0.05)
    ok = pop_err <= 1e-6 and defect <= 1e-8 and abs(ratio - 16.0) <= 3.0
    record(6, ok, f"pop err {pop_err:.2e}, trace defect {defect:.2e}, "
                  f"halving ratio {ratio:.2f}")


def test_acceptance_7_thermal_states_are_passive(record):
    # deltaF vanishes on a Gibbs state, so every channel fluctuation must too
    rng = np.random.default_rng(17)
    worst_df, worst_theta = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        model = random_model(rng, d, n_channels=int(rng.integers(1, 3)))
        rho = thermal_state(model.hamiltonian, 1.0)
        decomp = free_energy_operator(rho, BatteryContext(1.0, model))
        worst_df = max(worst_df, float(np.max(np.abs(decomp.delta_f.matrix))))
        report = compute_theta_report(decomp, rho, model)
        worst_theta = max(worst_theta, *(e.theta_operator for e in report.channels))
    record(7, worst_df <= 1e-9 and worst_theta <= 1e-9,
           f"max ||deltaF|| = {worst_df:.3e}, max Theta = {worst_theta:.3e}")


def test_acceptance_8_check_mode_is_reproducible(tmp_path, record):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qbattery", "check",
             "--config", str(SCENARIOS / "ensemble_check.json"),
             "--out", str(out), "--seed", "42"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]

    report = json.loads(blobs[0])["report"]
    c2 = next(c for c in report["claim_verdicts"] if c["claim_id"] == "C2")
    witness = c2.get("witness") or {}
    ok = (identical
          and c2["status"] in ("violated", "inconclusive")
          and witness.get("label") == "bundled:qubit_dark_state"
          and witness.get("theta_values") == [1.0]
          and abs(witness.get("power_trace", 1.0)) <= 1e-12)
    record(8, ok, f"byte-identical={identical}, C2 {c2['status']} "
                  f"witness {witness.get('label')}")
