import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qbattery.cli import main, parse_tol_overrides
from qbattery.config import config_to_dict, parse_config, serialize_config
from qbattery.errors import ConfigError
from qbattery.tolerances import ToleranceConfig

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL_RUN = {
    "dim": 2,
    "beta": 1.0,
    "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
    "channels": [{"rate": 1.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}],
    "initial_state": {"kind": "eigenstate", "k0": 0, "epsilon": 1e-6},
    "time": {"t0": 0.0, "step": 0.001, "horizon": 1.0},
}


def config_text(**overrides):
    data = dict(MINIMAL_RUN)
    data.update(overrides)
    for key in [k for k, v in data.items() if v is None]:
        del data[key]
    return json.dumps(data)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseConfig:
    def test_minimal_run_config(self):
        cfg = parse_config(config_text(), "run")
        assert cfg.dim == 2
        assert cfg.beta == 1.0
        assert cfg.model.channels[0].rate == 1.0
        assert cfg.k0 == 0
        assert cfg.time.grid()[-1] == pytest.approx(1.0)

    def test_complex_entries_as_pairs(self):
        h = [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]]  # sigma_y
        cfg = parse_config(config_text(hamiltonian=h), "run")
        assert cfg.model.hamiltonian.matrix[0, 1] == -1j

    def test_negative_rate_path(self):
        text = config_text(channels=[{"rate": -1.0, "matrix": [[0, 1], [1, 0]]}])
        with pytest.raises(ConfigError, match=r"channels\[0\].rate"):
            parse_config(text, "run")

    def test_k0_out_of_range_path(self):
        bad = dict(MINIMAL_RUN["initial_state"], k0=5)
        with pytest.raises(ConfigError, match=r"initial_state.k0"):
            parse_config(config_text(initial_state=bad), "run")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="k0"):
            parse_config(config_text(k0=0), "run")

    def test_unknown_nested_key(self):
        bad = dict(MINIMAL_RUN["initial_state"], flavor="up")
        with pytest.raises(ConfigError, match=r"initial_state.flavor"):
            parse_config(config_text(initial_state=bad), "run")

    def test_non_hermitian_hamiltonian_reports_defect(self):
        with pytest.raises(ConfigError, match="defect"):
            parse_config(config_text(hamiltonian=[[0.0, 1.0], [0.0, 0.0]]), "run")

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config(config_text(dim=True), "run")

    def test_epsilons_must_descend(self):
        with pytest.raises(ConfigError, match="epsilons"):
            parse_config(config_text(epsilons=[1e-4, 1e-2]), "sweep")

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match=r"epsilons\[0\]"):
            parse_config(config_text(epsilons=[1.0, 1e-2]), "sweep")

    def test_horizon_must_be_multiple_of_step(self):
        bad = {"t0": 0.0, "step": 0.3, "horizon": 1.0}
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(config_text(time=bad), "run")

    @pytest.mark.parametrize("mode,missing", [
        ("run", "time"),
        ("run", "initial_state"),
        ("sweep", "epsilons"),
    ])
    def test_mode_requiredness(self, mode, missing):
        overrides = {"epsilons": [1e-2, 1e-3], missing: None}
        with pytest.raises(ConfigError, match=missing):
            parse_config(config_text(**overrides), mode)

    def test_check_needs_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(json.dumps({"dim": 4}), "check")

    def test_audit_needs_an_eigenstate_start(self):
        text = config_text(initial_state={"kind": "thermal"})
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(text, "audit")

    def test_thermal_state_defaults_to_global_beta(self):
        cfg = parse_config(config_text(initial_state={"kind": "thermal"}), "run")
        assert cfg.initial_state.kind == "thermal"
        assert cfg.initial_state.beta is None

    def test_roundtrip_is_stable(self):
        cfg = parse_config(config_text(epsilons=[1e-2, 1e-3]), "run")
        text = serialize_config(cfg)
        assert text.endswith("\n")
        again = parse_config(text, "run")
        assert config_to_dict(again) == config_to_dict(cfg)
        assert serialize_config(again) == text

    def test_bundled_scenarios_parse(self):
        for name, mode in [("qubit_sigma_x", "run"), ("qubit_dark_state", "audit"),
                           ("qutrit_ladder", "sweep"), ("thermal_stationary", "run"),
                           ("ensemble_check", "check")]:
            text = (SCENARIOS / f"{name}.json").read_text()
            parse_config(text, mode)


class TestTolOverrides:
    def test_float_override(self):
        tol = parse_tol_overrides(["propagation_trace=1e-5"])
        assert tol.propagation_trace == 1e-5

    def test_int_field_stays_int(self):
        tol = parse_tol_overrides(["jacobi_max_sweeps=7"])
        assert tol.jacobi_max_sweeps == 7

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_tol_overrides(["no_such_knob=1"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_tol_overrides(["propagation_trace=abc"])


class TestRunCommand:
    def test_stationary_state_columns_are_constant(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["run", "--config", str(SCENARIOS / "thermal_stationary.json"),
                     "--out", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == ("t,energy,entropy,free_energy,power_analytic,power_fd,"
                            "theta_1,theta_2,trace_defect,min_eig")
        rows = read_csv(out)
        assert len(rows) == 1001
        assert {r["energy"] for r in rows} == {"0.2689414213699951"}
        assert all(float(r["power_analytic"]) == 0.0 for r in rows)
        assert all(float(r["theta_1"]) == 0.0 for r in rows)
        assert rows[0]["power_fd"] == "" and rows[-1]["power_fd"] == ""
        assert rows[1]["power_fd"] != ""

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["run", "--config", str(SCENARIOS / "thermal_stationary.json"),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_decay_matches_exponential(self, tmp_path):
        channel = [{"rate": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]
        start = {"kind": "eigenstate", "k0": 1, "epsilon": 1e-6}
        cfg = tmp_path / "decay.json"
        cfg.write_text(config_text(channels=channel, initial_state=start, epsilons=None))
        out = tmp_path / "decay.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        for i in (100, 500, 1000):
            t = float(rows[i]["t"])
            assert float(rows[i]["energy"]) == pytest.approx(math.exp(-t), abs=1e-4)
        assert all(abs(float(r["trace_defect"])) <= 1e-8 for r in rows)

    def test_zero_channel_run_has_no_theta_columns(self, tmp_path):
        cfg = tmp_path / "unitary.json"
        cfg.write_text(config_text(channels=None, epsilons=None))
        out = tmp_path / "unitary.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,energy,entropy,free_energy,power_analytic,power_fd,trace_defect,min_eig"
        rows = read_csv(out)
        assert all(abs(float(r["power_analytic"])) <= 1e-9 for r in rows)

    def test_pure_start_is_rejected_with_hint(self, tmp_path, capsys):
        start = {"kind": "eigenstate", "k0": 0}
        cfg = tmp_path / "pure.json"
        cfg.write_text(config_text(initial_state=start, epsilons=None))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "epsilon" in err

    def test_numeric_blowup_leaves_partial_csv(self, tmp_path, capsys):
        channel = [{"rate": 100.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]
        grid = {"t0": 0.0, "step": 1.0, "horizon": 5.0}
        cfg = tmp_path / "blowup.json"
        cfg.write_text(config_text(channels=channel, time=grid, epsilons=None))
        out = tmp_path / "partial.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure:")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,energy")
        assert len(lines) >= 2  # header plus the rows that stayed valid

    def test_positivity_breach_mid_trajectory(self, tmp_path, capsys):
        # RK4 is unstable at gamma h = 3.125; the state turns negative at step 5
        channel = [{"rate": 100.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]
        start = {"kind": "eigenstate", "k0": 0, "epsilon": 0.2}
        grid = {"t0": 0.0, "step": 0.03125, "horizon": 0.5}
        cfg = tmp_path / "breach.json"
        cfg.write_text(config_text(channels=channel, initial_state=start, time=grid,
                                   epsilons=None))
        out = tmp_path / "breach.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "step 5" in capsys.readouterr().err
        rows = read_csv(out)
        assert len(rows) == 5
        assert all(rows[i]["power_fd"] != "" for i in (1, 2, 3))
        assert rows[0]["power_fd"] == "" and rows[4]["power_fd"] == ""

    def matrix_start_run(self, tmp_path, matrix, *tol):
        cfg = tmp_path / "matrix_start.json"
        cfg.write_text(json.dumps({
            "dim": 3,
            "hamiltonian": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "initial_state": {"kind": "matrix", "matrix": matrix},
            "time": {"t0": 0.0, "step": 0.01, "horizon": 0.02}}))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        for pair in tol:
            argv.extend(["--tol", pair])
        return main(argv)

    def test_solver_failure_on_a_matrix_start_is_numeric(self, tmp_path, capsys):
        # a valid state whose eigensolve needs more than one Jacobi sweep
        rho = [[0.5, 0.1, 0.1], [0.1, 0.3, 0.1], [0.1, 0.1, 0.2]]
        code = self.matrix_start_run(tmp_path, rho, "jacobi_max_sweeps=1")
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure:")

    def test_invalid_matrix_start_names_its_path_once(self, tmp_path, capsys):
        rho = [[1.5, 0.0, 0.0], [0.0, -0.25, 0.0], [0.0, 0.0, -0.25]]
        assert self.matrix_start_run(tmp_path, rho) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("initial_state.matrix") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestReportCommands:
    def envelope(self, tmp_path, mode, scenario, seed=0):
        out = tmp_path / f"{mode}.json"
        code = main([mode, "--config", str(SCENARIOS / scenario), "--out", str(out),
                     "--seed", str(seed)])
        assert code == 0
        return json.loads(out.read_text()), out

    def test_audit_envelope(self, tmp_path):
        data, out = self.envelope(tmp_path, "audit", "qubit_sigma_x.json")
        assert set(data) == {"tool", "mode", "seed", "config", "report"}
        assert data["tool"] == {"name": "qbattery", "version": "0.1.0"}
        assert data["mode"] == "audit"
        assert data["config"]["dim"] == 2
        assert data["report"]["verdict"] == "HYPOTHESIS_REFUTED"
        assert data["report"]["theta_values"] == [1.0]
        assert out.read_text().endswith("\n")

    def test_audit_rerun_byte_identical(self, tmp_path):
        _, first = self.envelope(tmp_path, "audit", "qubit_dark_state.json")
        blob = first.read_bytes()
        _, second = self.envelope(tmp_path, "audit", "qubit_dark_state.json")
        assert second.read_bytes() == blob

    def test_sweep_envelope(self, tmp_path):
        data, _ = self.envelope(tmp_path, "sweep", "qubit_sigma_x.json")
        report = data["report"]
        assert len(report["rows"]) == 7
        assert report["rows"][0]["epsilon"] == 0.01

    def test_check_deterministic(self, tmp_path):
        cfg = tmp_path / "check.json"
        cfg.write_text(json.dumps({"dim": 4, "trials": 10, "include_bundled": True}))
        outs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            assert main(["check", "--config", str(cfg), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        claims = json.loads(outs[0])["report"]["claim_verdicts"]
        assert {c["claim_id"] for c in claims} == {
            "C1", "C2", "C3", "C1_transposed", "C2_transposed", "C3_transposed"}

    def test_tol_override_reaches_the_solver(self, tmp_path, capsys):
        h = [[0.0, 0.5], [0.5, 1.0]]  # needs at least one Jacobi sweep
        cfg = tmp_path / "offdiag.json"
        cfg.write_text(config_text(hamiltonian=h, channels=None, epsilons=None))
        code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "x.json"),
                     "--tol", "jacobi_max_sweeps=0"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure:")

    def test_bad_tol_name_exits_2(self, tmp_path, capsys):
        code = main(["audit", "--config", str(SCENARIOS / "qubit_sigma_x.json"),
                     "--out", str(tmp_path / "x.json"), "--tol", "bogus=1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    # every field, so a new tolerance cannot skip validation; config_hermiticity
    # is no longer a field and must be rejected as unknown
    @pytest.mark.parametrize("pair", [
        f"{f.name}={value}" for f in dataclasses.fields(ToleranceConfig)
        for value in ("-1", "nan")] + ["claim_band=0.5", "config_hermiticity=1e-9"])
    def test_invalid_tol_exits_2(self, tmp_path, capsys, pair):
        code = main(["audit", "--config", str(SCENARIOS / "qubit_sigma_x.json"),
                     "--out", str(tmp_path / "x.json"), "--tol", pair])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert pair.partition("=")[0] in err

    def test_hamiltonian_defect_follows_the_hermiticity_tolerance(self, tmp_path, capsys):
        # a defect of 1e-11 lies above the default hermiticity bound of 1e-12
        cfg = tmp_path / "defect.json"
        cfg.write_text(config_text(hamiltonian=[[0.0, 1e-11], [0.0, 1.0]]))
        argv = ["audit", "--config", str(cfg), "--out", str(tmp_path / "x.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("hamiltonian") == 1
        assert main(argv + ["--tol", "hermiticity=1e-9"]) == 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery", "audit",
         "--config", str(SCENARIOS / "qubit_sigma_x.json"), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["report"]["verdict"] == "HYPOTHESIS_REFUTED"
