import csv
import dataclasses
import gc
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qbattery import audit, cli, dynamics, free_energy, linalg
from qbattery.audit import (ClaimVerdict, EigenstateAuditReport, EpsilonRow,
                            EpsilonSweepReport, FalsifierReport, reevaluate_witness)
from qbattery.cli import main, parse_tol_overrides
from qbattery.config import (CHECK_DIM_MAX, CHECK_TRIALS_MAX, MODES, RUN_STEPS_MAX,
                             config_to_dict, parse_config)
from qbattery.errors import ConfigError, ConsistencyError, PropagationError
from qbattery.tolerances import DEFAULT_TOLERANCES, ToleranceConfig

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEFAULT_BLOCK_BYTES = dynamics._BLOCK_BYTES

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


def extreme_config(tmp_path, family, scale):
    """The Hamiltonian s [[1, .5+.2j], [.5-.2j, -.3]] with channel |0><1|, or the
    channel s |0><1| with s = 1, at eigenstate 0: a config every mode reads."""
    s_h, s_l = (scale, 1.0) if family == "hamiltonian" else (1.0, scale)
    h = [[s_h, [0.5 * s_h, 0.2 * s_h]], [[0.5 * s_h, -0.2 * s_h], -0.3 * s_h]]
    cfg = tmp_path / "extreme.json"
    cfg.write_text(config_text(
        hamiltonian=h, channels=[{"rate": 1.0, "matrix": [[0.0, s_l], [0.0, 0.0]]}],
        initial_state={"kind": "eigenstate", "k0": 0, "epsilon": 1e-3},
        time={"t0": 0.0, "step": 0.001, "horizon": 0.01}, epsilons=[1e-2, 1e-3]))
    return cfg


# qubit_sigma_x ladders whose RK4 probes breach, by probe step: with one
# sigma_x channel of rate 10, every rung at step 0.3, and from epsilon = 0.1 at 0.15
BREACH_LADDERS = {
    step: {"channels": [{"rate": 10.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}],
           "time": {"t0": 0.0, "step": step}, "epsilons": epsilons}
    for step, epsilons in ((0.3, [0.3, 0.1, 0.01]), (0.15, [0.9, 0.5, 0.3, 0.1, 0.01, 1e-4]))}


def block_bytes(dim, rows):
    """The block byte bound that gives `rows` rows per block at `dim` (None: the default)."""
    return DEFAULT_BLOCK_BYTES if rows is None else 16 * dim * dim * rows


# every kind of float64 a CSV cell can hold: signed zeros, subnormals, the
# largest finite values, infinities and nan, as Python floats and as np.float64
CSV_CELLS = st.builds(
    lambda x, as_numpy: np.float64(x) if as_numpy else x,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                     math.inf, -math.inf, math.nan]) | st.floats(width=64),
    st.booleans())


@st.composite
def csv_tables(draw):
    """A header of 1-12 columns and rows as wide, about half of them with a blank (None) cell."""
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=8))
    for row in rows:
        if draw(st.booleans()):
            row[draw(st.integers(0, width - 1))] = None
    return [f"c{j}" for j in range(width)], rows


def seeded_config(dim, seed):
    """A run config: a seeded Ginibre Hamiltonian and two seeded Ginibre channels
    of rate 0.5, from the thermal state."""
    rng = np.random.default_rng(seed)

    def ginibre():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def pairs(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]

    g = ginibre()
    return dict(json.loads(config_text(dim=dim, epsilons=None)),
                hamiltonian=pairs(0.5 * (g + g.conj().T)),
                channels=[{"rate": 0.5, "matrix": pairs(0.5 * ginibre())} for _ in range(2)],
                initial_state={"kind": "thermal"})


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one per matrix solved through hermitian_eig or
    hermitian_eig_chain, from any module: hermitian_eig solves through the chain,
    which solves the leading rows.n matrices of its stack."""
    calls = []
    original = linalg.hermitian_eig_chain

    def counted(rows, matrices, *args, **kwargs):
        calls.extend(m.shape[0] for m in matrices[:rows.n])
        return original(rows, matrices, *args, **kwargs)

    for module in (linalg, dynamics, free_energy, audit, cli):
        if getattr(module, "hermitian_eig_chain", None) is original:
            monkeypatch.setattr(module, "hermitian_eig_chain", counted)
    return calls


@pytest.fixture
def chained(monkeypatch):
    """The matrices hermitian_eig_chain solves, from any module, and the ones of
    them it sweeps (linalg._jacobi), as two lists of copies."""
    solved, swept = [], []
    original, jacobi = linalg.hermitian_eig_chain, linalg._jacobi

    def counted(rows, matrices, *args, **kwargs):
        solved.extend(np.array(matrices[:rows.n]))
        return original(rows, matrices, *args, **kwargs)

    for module in (linalg, dynamics, free_energy, audit, cli):
        if getattr(module, "hermitian_eig_chain", None) is original:
            monkeypatch.setattr(module, "hermitian_eig_chain", counted)
    monkeypatch.setattr(linalg, "_jacobi", lambda m, *args: swept.append(m.copy()) or jacobi(m, *args))
    return solved, swept


def above_target(m, tol=DEFAULT_TOLERANCES) -> bool:
    """Whether the off-diagonal Frobenius norm of m exceeds jacobi_offdiag * ||m||_F."""
    return np.linalg.norm(m - np.diag(np.diag(m))) > tol.jacobi_offdiag * np.linalg.norm(m)


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
        assert cfg.time.t0 + cfg.time.offsets()[-1] == pytest.approx(1.0)

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

    @pytest.mark.parametrize("h, path, message", [
        ([[True, 0.0], [0.0, 1.0]], "hamiltonian[0][0]",
         "matrix entry must be a number or [re, im] pair"),
        ([[0.0, "1"], ["1", 1.0]], "hamiltonian[0][1]",
         "matrix entry must be a number or [re, im] pair"),
        ([[0.0, 0.0], [0.0, None]], "hamiltonian[1][1]",
         "matrix entry must be a number or [re, im] pair"),
        ([[0.0, [1.0, 0.0, 0.0]], [1.0, 0.0]], "hamiltonian[0][1]",
         "matrix entry must be a number or [re, im] pair"),
        ([[0.0, 1.0], [[1.0, False], 0.0]], "hamiltonian[1][0]",
         "matrix entry must be a number or [re, im] pair"),
        ([[0.0, 1.0], [1.0]], "hamiltonian[1]", "matrix rows have unequal lengths"),
        ([[0.0, 1.0], []], "hamiltonian[1]", "matrix row must be a non-empty list"),
        ([[math.inf, 0.0], [0.0, 1.0]], "hamiltonian", "matrix has non-finite entries"),
    ])
    def test_matrix_entry_rejections(self, h, path, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(hamiltonian=h), "run")
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

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

    @pytest.mark.parametrize("mode", ["audit", "sweep"])
    def test_horizon_is_checked_only_for_run(self, mode):
        # sweep reads only the step of its RK4 probe; audit reads neither
        text = config_text(time={"step": 0.3, "horizon": 1.0}, epsilons=[1e-2])
        assert parse_config(text, mode).time.step == 0.3
        bare = parse_config(config_text(time={"step": 0.3}, epsilons=[1e-2]), mode)
        assert bare.time.horizon is None
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(time={"step": 0.3}), "run")
        assert str(exc.value) == "time.horizon: missing, needed by run mode"

    def test_check_needs_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(json.dumps({"dim": 4}), "check")

    @pytest.mark.parametrize("dim", [CHECK_DIM_MAX + 1, 10**30])
    def test_check_dim_is_bounded(self, dim):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"dim": dim, "trials": 1}), "check")
        assert exc.value.path == "dim"
        assert str(exc.value) == f"dim: check mode allows dim <= 64, got {dim}"

    def test_audit_needs_an_eigenstate_start(self):
        text = config_text(initial_state={"kind": "thermal"})
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(text, "audit")

    @pytest.mark.parametrize("start, k0", [
        (MINIMAL_RUN["initial_state"], 0), ({"kind": "thermal"}, None),
        ({"kind": "matrix", "matrix": [[0.75, 0.0], [0.0, 0.25]]}, None)],
        ids=["eigenstate", "thermal", "matrix"])
    def test_k0_belongs_to_an_eigenstate_start_alone(self, start, k0):
        assert parse_config(config_text(initial_state=start), "run").k0 == k0

    def test_thermal_state_defaults_to_global_beta(self):
        cfg = parse_config(config_text(initial_state={"kind": "thermal"}), "run")
        assert cfg.initial_state.kind == "thermal"
        assert cfg.initial_state.beta is None

    @pytest.mark.parametrize("start", [
        MINIMAL_RUN["initial_state"],
        {"kind": "matrix", "matrix": [[0.75, [0.1, 0.2]], [[0.1, -0.2], 0.25]]},
        {"kind": "thermal", "beta": 2.0},
    ], ids=lambda start: start["kind"])
    def test_roundtrip_is_stable(self, start):
        cfg = parse_config(config_text(initial_state=start, epsilons=[1e-2, 1e-3]), "run")
        text = json.dumps(config_to_dict(cfg))
        again = parse_config(text, "run")
        assert config_to_dict(again) == config_to_dict(cfg)
        assert json.dumps(config_to_dict(again)) == text

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

    def test_no_override_is_the_default_itself(self, monkeypatch):
        # nothing to apply, so no copy of the defaults is built and checked
        built = []
        check = ToleranceConfig.__post_init__
        monkeypatch.setattr(ToleranceConfig, "__post_init__",
                            lambda tol: built.append(tol) or check(tol))
        assert parse_tol_overrides([]) is DEFAULT_TOLERANCES
        assert built == []


DELETE = object()


@pytest.fixture
def config_errors(monkeypatch):
    """The ConfigErrors that main caught, in the order they were raised."""
    caught = []
    for name in ("parse_tol_overrides", "_read_config"):
        def recording(*args, _original=getattr(cli, name), **kwargs):
            try:
                return _original(*args, **kwargs)
            except ConfigError as exc:
                caught.append(exc)
                raise
        monkeypatch.setattr(cli, name, recording)
    return caught


class TestRejectionPaths:
    # MINIMAL_RUN with epsilons and trials, so every mode reads it, and one
    # place edited: the place () replaces the whole document
    @pytest.mark.parametrize("argv, place, value, path, message", [
        ("run", (), [], None, "top level must be a JSON object"),
        ("run", ("dim",), DELETE, "dim", "missing, needed by run mode"),
        ("run", ("dim",), 1, "dim", "must be >= 2, got 1"),
        ("run", ("beta",), "1", "beta", "expected a number, got '1'"),
        ("run", ("beta",), math.inf, "beta", "must be finite, got inf"),
        ("run", ("beta",), 0, "beta", "must be > 0.0, got 0"),
        ("run", ("hamiltonian",), DELETE, "hamiltonian", "channels without a hamiltonian"),
        ("run", ("hamiltonian",), "H", "hamiltonian", "matrix must be a non-empty list of rows"),
        ("run", ("hamiltonian",), [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "hamiltonian",
         "matrix must be square, got shape (2, 3)"),
        ("run", ("hamiltonian",), [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
         "hamiltonian", "matrix must be 2 x 2, got 3 x 3"),
        ("run", ("channels", 0), 1.0, "channels[0]", "channels[0] must be a JSON object"),
        ("run", ("channels", 0, "rate"), DELETE, "channels[0].rate",
         "missing, needed by a channel"),
        ("run", ("channels", 0, "matrix"), DELETE, "channels[0].matrix",
         "missing, needed by a channel"),
        ("run", ("initial_state",), 3, "initial_state", "initial_state must be a JSON object"),
        ("run", ("initial_state", "kind"), "pure", "initial_state.kind",
         "kind must be one of ('eigenstate', 'matrix', 'thermal'), got 'pure'"),
        ("run", ("initial_state", "k0"), DELETE, "initial_state.k0",
         "missing, needed by kind 'eigenstate'"),
        ("run", ("initial_state",), {"kind": "matrix"}, "initial_state.matrix",
         "missing, needed by kind 'matrix'"),
        ("run", ("time",), [], "time", "time must be a JSON object"),
        ("run", ("time", "step"), DELETE, "time.step", "missing, needed by run mode"),
        ("run", ("time", "horizon"), DELETE, "time.horizon", "missing, needed by run mode"),
        ("sweep", ("time", "step"), DELETE, "time.step", "missing, needed by a time grid"),
        ("run", ("time", "horizon"), 0.0005, "time.horizon", "horizon must be at least one step"),
        ("sweep", ("epsilons",), [], "epsilons", "epsilons must be a non-empty list"),
        ("check", ("include_bundled",), "yes", "include_bundled", "expected a boolean, got 'yes'"),
        ("run", ("time",), DELETE, "time", "missing, needed by run mode"),
        ("run", ("initial_state",), DELETE, "initial_state", "missing, needed by run mode"),
        ("audit", (), {"dim": 2}, "hamiltonian", "missing, needed by audit mode"),
        ("audit", ("initial_state",), DELETE, "initial_state", "missing, needed by audit mode"),
        ("sweep", ("initial_state",), {"kind": "thermal"}, "initial_state",
         "sweep mode needs an eigenstate initial_state with k0"),
        ("sweep", ("epsilons",), DELETE, "epsilons", "missing, needed by sweep mode"),
        ("check", ("trials",), DELETE, "trials", "missing, needed by check mode"),
        ("run --tol psd", ("beta",), 1.0, None, "--tol expects NAME=VALUE, got 'psd'"),
    ])
    def test_each_rejection_names_its_path(self, tmp_path, capsys, config_errors, argv, place,
                                           value, path, message):
        data = json.loads(config_text(epsilons=[1e-2], trials=1))
        if place:
            *parents, key = place
            target = data
            for step in parents:
                target = target[step]
            if value is DELETE:
                del target[key]
            else:
                target[key] = value
        else:
            data = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([*argv.split(), "--config", str(cfg), "--out", str(out)]) == 2
        [exc] = config_errors
        assert exc.path == path
        assert str(exc) == (message if path is None else f"{path}: {message}")
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert not out.exists()

    @pytest.mark.parametrize("channels", [5, None, True, {"rate": 1.0}], ids=repr)
    def test_channels_must_be_a_list(self, tmp_path, capsys, channels):
        # a number, null or a boolean used to escape as a bare TypeError
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(MINIMAL_RUN, channels=channels)))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: channels: must be a list of channels\n"

    def test_an_overflowing_modulus_is_named(self, tmp_path, capsys):
        # finite entries whose modulus |a + ia| overflows: the Hamiltonian is
        # rejected for that, not for non-finite entries it does not have
        a = 1.3e308
        cfg = tmp_path / "bad.json"
        cfg.write_text(config_text(hamiltonian=[[a, [a, a]], [[a, -a], 0.0]],
                                   initial_state={"kind": "eigenstate", "k0": 0}))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: hamiltonian: hermitian matrix: an entry's modulus is beyond the float range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step, horizon, got", [
        (1e-300, 1e300, "1e+300/1e-300"),  # horizon/step overflows to inf
        (1e-3, 1e9, "1000000000.0/0.001"),  # 10**12 steps, a grid of 7.28 TiB
        (1e-3, 10000.001, "10000.001/0.001"),  # one step more than RUN_STEPS_MAX
    ])
    def test_run_step_count_is_bounded(self, tmp_path, capsys, step, horizon, got):
        # rejected while parsing, before any grid is built
        cfg = tmp_path / "long.json"
        cfg.write_text(config_text(time={"step": step, "horizon": horizon}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: time.horizon: run mode allows at most {RUN_STEPS_MAX} steps, got {got}\n")
        assert not out.exists()

    @pytest.mark.parametrize("trials", [CHECK_TRIALS_MAX + 1, 10**9])
    def test_check_trial_count_is_bounded(self, tmp_path, capsys, monkeypatch, trials):
        # rejected while parsing, before any instance is drawn: check draws
        # every instance first, and 10**9 of them would exhaust memory
        monkeypatch.setattr(audit, "_random_instance", None)  # a draw would raise
        cfg = tmp_path / "many.json"
        cfg.write_text(json.dumps({"dim": 2, "trials": trials}))
        out = tmp_path / "check.json"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: trials: check mode allows trials <= {CHECK_TRIALS_MAX}, got {trials}\n")
        assert not out.exists()

    def test_check_trial_count_at_the_bound_parses(self):
        # the bundled ensemble holds 100 trials and the benchmark's 400
        cfg = parse_config(json.dumps({"dim": CHECK_DIM_MAX, "trials": CHECK_TRIALS_MAX}), "check")
        assert cfg.trials == CHECK_TRIALS_MAX >= 400
        assert parse_config((SCENARIOS / "ensemble_check.json").read_text(), "check").trials == 100

    @pytest.mark.parametrize("key, value, path", [
        ("dim", [0.0] * 200000, "dim"),  # echoed whole, a 1,000,038-byte line
        ("beta", "x" * 300000, "beta"),
        ("k" * 100000, 1, None),  # in the path and in the message, a 200,024-byte line
        ("beta", {c * 40: 0 for c in "abcde"}, "beta"),  # even reprlib's form is long
    ], ids=["list", "string", "unknown key", "object"])
    def test_a_long_value_is_echoed_in_a_short_line(self, tmp_path, capsys, config_errors,
                                                    key, value, path):
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"dim": 2, "trials": 1, key: value}))
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        [exc] = config_errors
        err = capsys.readouterr().err
        assert err == f"error: {exc}\n" and len(err.encode()) < 300
        if path is None:  # the key, cut as the message cuts it
            assert exc.path == str(exc).rpartition("unknown key ")[2]
            assert exc.path.startswith("'kkkk") and len(exc.path) < 100
        else:
            assert exc.path == path

    def test_run_step_count_at_the_bound_parses(self):
        # the grid itself is not built: it would hold 80 MB
        grid = parse_config(config_text(time={"step": 1e-3, "horizon": 1e4}), "run").time
        assert round(grid.horizon / grid.step) == RUN_STEPS_MAX

    def test_unknown_mode(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(), "walk")
        assert exc.value.path is None
        assert str(exc.value) == "mode must be one of ('run', 'audit', 'sweep', 'check'), got 'walk'"

    def test_witness_record_without_dim(self):
        record = {"label": "w", "hamiltonian": MINIMAL_RUN["hamiltonian"], "k0": 0, "beta": 1.0}
        with pytest.raises(ConfigError) as exc:
            reevaluate_witness(record)
        assert exc.value.path == "w.dim"
        assert str(exc.value) == "w.dim: missing, needed by a model"


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

    @given(csv_tables())
    @settings(max_examples=100)
    def test_one_format_rows_match_the_per_cell_writer(self, tmp_path_factory, table):
        # run_command writes a row with one "%.17g" format built from the
        # header, and a row holding None (a blank power_fd) cell by cell: every
        # line is _csv_cell's, and only the rows holding None call it
        header, rows = table
        out = tmp_path_factory.mktemp("writer") / "rows.csv"
        cfg = parse_config(config_text(), "run")
        cell, cells = cli._csv_cell, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_run_rows", lambda *args: iter([header, *rows]))
            mp.setattr(cli, "_csv_cell", lambda value: cells.append(value) or cell(value))
            assert cli.run_command(cfg, str(out), 0, DEFAULT_TOLERANCES) == 0
        assert out.read_bytes().decode().split("\n") == [
            ",".join(header), *(",".join(map(cell, row)) for row in rows), ""]
        assert cells == [value for row in rows if None in row for value in row]

    @pytest.mark.parametrize("t0", [0.0, 1e3, 1e6])
    def test_rows_do_not_depend_on_t0(self, tmp_path, t0):
        # run integrates on the offsets from t0 and writes t0 + offset in `t`
        data = json.loads((SCENARIOS / "qutrit_ladder.json").read_text())
        data["time"]["horizon"] = 100 * data["time"]["step"]
        outs = []
        for start in (0.0, t0):
            cfg, out = tmp_path / f"{start:g}.json", tmp_path / f"{start:g}.csv"
            cfg.write_text(json.dumps(dict(data, time=dict(data["time"], t0=start))))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(read_csv(out))
        assert len(outs[1]) == 101
        for at_zero, row in zip(*outs):
            assert {**row, "t": None} == {**at_zero, "t": None}
        times = parse_config(json.dumps(dict(data, time=dict(data["time"], t0=t0))), "run").time
        assert [row["t"] for row in outs[1]] == [f"{t:.17g}" for t in times.t0 + times.offsets()]

    # the times of these grids round at a spacing above 1e-12 of the step
    @pytest.mark.parametrize("t0, step, horizon", [(1e5, 1e-3, 1.0), (0.0, 1e-2, 1e4)])
    def test_grids_parse_config_accepts_are_uniform(self, tmp_path, t0, step, horizon):
        text = config_text(time={"t0": t0, "step": step, "horizon": horizon})
        cfg = parse_config(text, "run")
        grid = cfg.time.t0 + cfg.time.offsets()
        for times in (grid, cfg.time.offsets()):
            dynamics.propagate(cfg.model, dynamics.DensityMatrix(np.eye(2) / 2.0), times)
        if horizon / step <= 1000:
            path = tmp_path / "grid.json"
            path.write_text(text)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            assert float(read_csv(tmp_path / "out.csv")[-1]["t"]) == grid[-1]

    @pytest.mark.parametrize("name, setup", [
        ("qubit_sigma_x", 1), ("qubit_dark_state", 1), ("qutrit_ladder", 1),
        ("thermal_stationary", 1)])
    def test_two_solves_per_row(self, tmp_path, eig_calls, name, setup):
        # the state's and F's, each counted where it enters hermitian_eig_chain,
        # alone or in a block; a start also solves H (a regularized eigenstate
        # is built from H's eigenvector, not from a solved pure state), and
        # its own state is row 0's
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        data["time"]["horizon"] = 10 * data["time"]["step"]
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
        assert len(eig_calls) == setup + 2 * 11

    # rho stays diagonal in H's eigenbasis: no state and no F is swept
    def test_a_diagonal_run_sweeps_no_matrix(self, tmp_path, chained):
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(SCENARIOS / "qutrit_ladder.json"),
                     "--out", str(out)]) == 0
        solved, swept = chained
        assert len(read_csv(out)) == 1001 and len(solved) == 1 + 2 * 1001
        assert swept == [] and not any(map(above_target, solved))

    # a dense model: each state and each F is swept once, in order, but the
    # thermal start's F = H + ln(rho)/beta, a multiple of I up to rounding
    def test_a_dense_run_sweeps_each_rotating_matrix_once(self, tmp_path, chained):
        data = seeded_config(4, 4)
        data["time"]["horizon"] = 50 * data["time"]["step"]
        cfg = tmp_path / "dense.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
        solved, swept = chained
        rotating = [m for m in solved if above_target(m)]
        assert len(solved) == 1 + 2 * 51 and len(rotating) == len(solved) - 1
        (scalar,) = [m for m in solved if not above_target(m)]
        assert np.abs(scalar - scalar[0, 0] * np.eye(4)).max() < 1e-12
        assert len(swept) == len(rotating) and all(map(np.array_equal, swept, rotating))

    @pytest.mark.parametrize("mode", ["run", "sweep"])
    @pytest.mark.parametrize("tol", [[], ["--tol", "psd=1e-9"]])
    def test_no_tolerance_config_beyond_the_parsed_one(self, tmp_path, monkeypatch, mode, tol):
        # propagation reads its tolerances from the parsed config: no copy is
        # built per propagate call (one per sweep rung), and none without --tol
        built = []
        check = ToleranceConfig.__post_init__
        monkeypatch.setattr(ToleranceConfig, "__post_init__",
                            lambda config: built.append(config) or check(config))
        data = json.loads((SCENARIOS / "qubit_sigma_x.json").read_text())
        data["time"]["horizon"] = 10 * data["time"]["step"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), *tol]) == 0
        assert len(built) == (1 if tol else 0)

    def test_row_path_checks_each_array_once(self, tmp_path, monkeypatch):
        # a 70-step qubit_sigma_x run in blocks of 32, 32 and 7 rows: arrays
        # checked where they were built are not copied and re-checked, no row
        # becomes a DensityMatrix, and tr(rho H) is one stacked product a block
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block_bytes(2, 32))
        data = json.loads((SCENARIOS / "qubit_sigma_x.json").read_text())
        data["time"]["horizon"] = 70 * data["time"]["step"]
        cfg = parse_config(json.dumps(data), "run")
        copies, states, products = [], [], []

        def counted(a, name="matrix"):
            copies.append(name)
            return original_copy(a, name)

        original_copy = linalg.as_square_matrix
        for module in (linalg, dynamics, free_energy, cli):
            if getattr(module, "as_square_matrix", None) is original_copy:
                monkeypatch.setattr(module, "as_square_matrix", counted)
        set_state = dynamics.DensityMatrix._set
        monkeypatch.setattr(dynamics.DensityMatrix, "_set",
                            lambda state, columns, i: states.append(i) or set_state(state, columns, i))

        class Recorded(np.ndarray):
            """H's matrix: records the shape of each stack it multiplies from the right."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and isinstance(inputs[1], Recorded):
                    products.append(np.shape(inputs[0]))
                plain = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        cfg.model.hamiltonian.matrix = cfg.model.hamiltonian.matrix.view(Recorded)
        out = tmp_path / "row.csv"
        assert cli.run_command(cfg, str(out), 0, ToleranceConfig()) == 0
        assert len(out.read_text().splitlines()) == 72  # header and 71 rows
        assert copies == []
        assert len(states) == 1  # the regularized eigenstate, with no pure state before it
        assert [shape for shape in products if len(shape) == 3] == [
            (32, 2, 2), (32, 2, 2), (7, 2, 2)]

    @pytest.mark.parametrize("name, rows_per_block", [
        ("qubit_sigma_x", 32), ("qutrit_ladder", 14), ("seeded_d8", 2)])
    def test_block_columns_match_the_one_state_functions(self, tmp_path, monkeypatch, name,
                                                         rows_per_block):
        # 41 rows, two block boundaries at d = 3 and two rows a block at d = 8:
        # every cell of each row is the numpy-only reference (oracles) at the
        # row's state, to the 1e-11 of TestRunAgainstOracles, or the bits of
        # tr(rho H) or of the state's own fields
        data = seeded_config(8, 8) if name == "seeded_d8" else \
            json.loads((SCENARIOS / f"{name}.json").read_text())
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block_bytes(data["dim"], rows_per_block))
        data["time"]["horizon"] = 40 * data["time"]["step"]
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = parse_config(json.dumps(data), "run")
        h, beta = parsed.model.hamiltonian.matrix, parsed.beta
        channels = [(ch.rate, ch.operator) for ch in parsed.model.channels]
        offsets = parsed.time.offsets()
        states = list(dynamics.propagate(
            parsed.model, cli._initial_state(parsed, DEFAULT_TOLERANCES), offsets))
        means = [np.trace(oracles.free_energy_matrix(state.matrix, h, beta) @ state.matrix).real
                 for state, _ in states]
        step = offsets[1] - offsets[0]

        def close(got, want):
            return abs(float(got) - want) <= 1e-11 * max(1.0, abs(want))

        for i, row in enumerate(read_csv(out)):
            state, trace_defect = states[i]
            rho = state.matrix
            f = oracles.free_energy_matrix(rho, h, beta)
            assert row["energy"] == cli._csv_cell((rho @ h).trace().real)
            assert close(row["entropy"], oracles.entropy(rho))
            assert close(row["free_energy"], means[i])
            assert close(row["power_analytic"],
                         np.trace(oracles.generator(h, channels, rho) @ f).real)
            if i in (0, len(states) - 1):
                assert row["power_fd"] == ""
            else:
                assert close(row["power_fd"], (means[i + 1] - means[i - 1]) / (2.0 * step))
            for j, (_, l) in enumerate(channels):
                assert close(row[f"theta_{j + 1}"], oracles.theta(rho, h, beta, l))
            assert [row["trace_defect"], row["min_eig"]] == [
                cli._csv_cell(value) for value in (trace_defect, state.min_eigenvalue)]

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

    def blocked_run(self, tmp_path, monkeypatch, capsys, data, rows_per_block):
        """Exit code, stderr, CSV bytes and Jacobi sweep count of `run` on the
        config `data`, with blocks of `rows_per_block` rows and of as many RK4
        states (None: the default bound).  A solve fetches the round-robin
        schedule once per sweep, so the count shows each state's and each F's
        solve warm-started from the one before."""
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block_bytes(data["dim"], rows_per_block))
        sweeps, schedule = [], linalg._round_robin
        monkeypatch.setattr(linalg, "_round_robin", lambda d: sweeps.append(d) or schedule(d))
        cfg, out = tmp_path / "blocked.json", tmp_path / "blocked.csv"
        cfg.write_text(json.dumps(data))
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        return code, capsys.readouterr().err, out.read_bytes(), len(sweeps)

    @pytest.mark.parametrize("name", ["qubit_sigma_x", "qubit_dark_state", "qutrit_ladder",
                                      "thermal_stationary", "seeded_d4"])
    def test_block_size_leaves_the_csv_unchanged(self, tmp_path, monkeypatch, capsys, name):
        # 101 rows: several whole blocks and a partial one at every size
        data = seeded_config(4, 4) if name == "seeded_d4" else \
            json.loads((SCENARIOS / f"{name}.json").read_text())
        data["time"]["horizon"] = 100 * data["time"]["step"]
        runs = [self.blocked_run(tmp_path, monkeypatch, capsys, data, k) for k in (1, 2, None)]
        assert runs[0][:2] == (0, "")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert len(runs[0][2].splitlines()) == 102

    @pytest.mark.parametrize("name", ["qubit_sigma_x", "qubit_dark_state", "qutrit_ladder",
                                      "thermal_stationary", "qutrit_tilted", "seeded_d12"])
    def test_whole_runs_keep_their_bytes_across_block_sizes(self, tmp_path, monkeypatch,
                                                            capsys, name):
        # whole runs (1001 rows, qutrit_tilted's 501, and 61 at d = 12) cross
        # at least three edges of the default blocks, and write the same bytes,
        # exit code, stderr and sweeps there, at 32 rows a block and row by row
        data = seeded_config(12, 12) if name == "seeded_d12" else \
            json.loads((SCENARIOS / f"{name}.json").read_text())
        if name == "seeded_d12":
            data["time"]["horizon"] = 60 * data["time"]["step"]
        default_rows = dynamics._block_rows(data["dim"])
        runs = [self.blocked_run(tmp_path, monkeypatch, capsys, data, k) for k in (None, 32, 1)]
        assert runs[0][:2] == (0, "")
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert len(runs[0][2].splitlines()) - 1 > 3 * default_rows

    def breach_config(self, epsilon):
        # RK4 at gamma h = 3.125 multiplies the excited population by 1.645 a
        # step, from epsilon / 2: the ground population turns negative at step 5
        return json.loads(config_text(
            channels=[{"rate": 100.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
            initial_state={"kind": "eigenstate", "k0": 0, "epsilon": epsilon},
            time={"t0": 0.0, "step": 0.03125, "horizon": 0.5}, epsilons=None))

    @pytest.mark.parametrize("rows_per_block", [2, 3, None])
    def test_a_breach_inside_a_block_leaves_the_prefix(self, tmp_path, monkeypatch, capsys,
                                                        rows_per_block):
        data = self.breach_config(0.2)
        one = self.blocked_run(tmp_path, monkeypatch, capsys, data, 1)
        assert self.blocked_run(tmp_path, monkeypatch, capsys, data, rows_per_block) == one
        assert one[0] == 3 and one[1].startswith("numeric failure: step 5 (t = 0.15625):")
        rows = read_csv(tmp_path / "blocked.csv")
        assert len(rows) == 5
        assert [r["power_fd"] == "" for r in rows] == [True, False, False, False, True]

    def test_a_breach_names_the_time_the_csv_writes(self, tmp_path, monkeypatch, capsys):
        # a thermal qubit decaying at rate 8, step 0.4: RK4 is unstable and
        # breaches at step 3, whose t is t0 + 3 steps in the message as in the
        # CSV.  The only one-matrix solve is H's, in thermal_state: the
        # breaching state's spectrum is the failed check's, and its message is
        # the whole diagnosis.
        solved, original = [], linalg.hermitian_eig
        for module in (linalg, dynamics, free_energy, audit, cli):
            if getattr(module, "hermitian_eig", None) is original:
                monkeypatch.setattr(module, "hermitian_eig", lambda herm, **kwargs: (
                    solved.append(herm.matrix.copy()) or original(herm, **kwargs)))
        cfg, out = tmp_path / "breach.json", tmp_path / "breach.csv"
        for t0, t3 in ((0.0, "1.2"), (5.0, "6.2")):
            solved.clear()
            cfg.write_text(json.dumps({
                "dim": 2, "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
                "channels": [{"rate": 8.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
                "initial_state": {"kind": "thermal"},
                "time": {"t0": t0, "step": 0.4, "horizon": 4.0}}))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
            assert capsys.readouterr().err == (f"numeric failure: step 3 (t = {t3}): "
                                               "smallest eigenvalue -6.421e-01 below -1.000e-08\n")
            assert len(solved) == 1 and np.array_equal(solved[0], np.diag([0.0, 1.0]))
            assert [float(row["t"]) for row in read_csv(out)] == [t0, t0 + 0.4, t0 + 0.8]
            assert [line.partition(b",")[2] for line in out.read_bytes().splitlines()] == [
                b"energy,entropy,free_energy,power_analytic,power_fd,theta_1,trace_defect,min_eig",
                b"0.2689414213699951,0.58220310888821791,-0.31326168751822281,0,,0,0,"
                b"0.2689414213699951",
                b"0.49155320055198581,0.69300447692987754,-0.2014512763778917,"
                b"-3.7995473208804889,1.103958602815694,0.47466608568988716,0,0.49155320055198581",
                b"0.89842816975554973,0.32852297502121713,0.56990519473433254,"
                b"-22.855153907117199,,1.0270577958993241,0,0.10157183024445027"]

    @pytest.mark.parametrize("rows_per_block", [2, 3, None])
    def test_an_evaluation_failure_wins_over_a_later_breach(self, tmp_path, monkeypatch,
                                                            capsys, rows_per_block):
        # this epsilon leaves a ground population of 1e-13 at step 4: the state
        # passes propagation's -1e-8 floor but not ln(rho)'s rank threshold, and
        # step 5 breaches; row 4 fails first, as it did row by row
        # (the population is formed by cancellation, so its digits follow the
        # rounding of the RK4 path: the message's value is read from state 4)
        data = self.breach_config(0.2730003158137723)
        cfg = parse_config(json.dumps(data), "run")
        states = []
        with pytest.raises(PropagationError, match="step 5"):
            for state, _ in dynamics.propagate(cfg.model,
                                               cli._initial_state(cfg, ToleranceConfig()),
                                               cfg.time.t0 + cfg.time.offsets()):
                states.append(state)
        smallest = states[4].min_eigenvalue
        assert 0.0 < smallest < 1e-12
        one = self.blocked_run(tmp_path, monkeypatch, capsys, data, 1)
        assert self.blocked_run(tmp_path, monkeypatch, capsys, data, rows_per_block) == one
        assert one[:2] == (3, "numeric failure: step 4 (t = 0.125): state is rank deficient "
                              f"for ln(rho): smallest eigenvalue {smallest:.3e} <= threshold "
                              "1.000e-12\n")
        assert len(read_csv(tmp_path / "blocked.csv")) == 4

    def test_a_failing_row_names_its_step_and_time(self, tmp_path, capsys):
        # at mean_crosscheck = 0 the two forms of <F> differ in their last digit
        # at the first row: the row's ConsistencyError keeps its type (exit 3)
        # and gains a breach's "step i (t = ...): " prefix
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(SCENARIOS / "qutrit_tilted.json"), "--out", str(out),
                     "--tol", "mean_crosscheck=0"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: step 0 (t = 0): <F> disagrees between forms: "
            "trace 1.0351150911968148 vs energy-entropy 1.035115091196815\n")
        assert read_csv(out) == []
        # the library raises it chained to the row's own error
        cfg = parse_config((SCENARIOS / "qutrit_tilted.json").read_text(), "run")
        tol = ToleranceConfig(mean_crosscheck=0.0)
        stream = free_energy._run_rows(free_energy.BatteryContext(cfg.beta, cfg.model),
                                       cli._initial_state(cfg, tol), cfg.time.t0,
                                       cfg.time.offsets(), tol)
        with pytest.raises(ConsistencyError) as raised:
            list(stream)
        assert type(raised.value.__cause__) is ConsistencyError
        assert f"step 0 (t = 0): {raised.value.__cause__}" == str(raised.value)

    @pytest.mark.parametrize("case, taken", [
        ("long", 1), ("long", 31), ("long", 32), ("long", 33), ("long", 70), ("long", 71),
        ("breach", 4), ("breach", 5)])
    def test_a_consumer_that_stops_early_closes_the_stream(self, monkeypatch, case, taken):
        # a 70-step qubit_sigma_x run (blocks of 32, 32 and 7 rows) or the run
        # that breaches at step 5, left after `taken` rows: inside a block, at
        # its edge, at the last row and at the row held when the breach came.
        # Closing the stream, by hand or by collection, raises nothing and
        # reports nothing to sys.unraisablehook
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block_bytes(2, 32))
        if case == "long":
            data = json.loads((SCENARIOS / "qubit_sigma_x.json").read_text())
            data["time"]["horizon"] = 70 * data["time"]["step"]
        else:
            data = self.breach_config(0.2)
        cfg = parse_config(json.dumps(data), "run")
        ctx = free_energy.BatteryContext(cfg.beta, cfg.model)
        rho0 = cli._initial_state(cfg, DEFAULT_TOLERANCES)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        for by_hand in (True, False):
            stream = free_energy._run_rows(ctx, rho0, cfg.time.t0, cfg.time.offsets(),
                                           DEFAULT_TOLERANCES)
            assert next(stream)[0] == "t"  # the header
            assert len([row for _, row in zip(range(taken), stream)]) == taken
            if by_hand:
                stream.close()
            del stream
            gc.collect()
        assert unraisable == []

    def high_temperature_run(self, tmp_path, beta, *tol):
        cfg = tmp_path / "hot.json"
        cfg.write_text(config_text(beta=beta, time={"t0": 0.0, "step": 0.01, "horizon": 1.0}))
        out = tmp_path / "hot.csv"
        argv = ["run", "--config", str(cfg), "--out", str(out)]
        for pair in tol:
            argv.extend(["--tol", pair])
        return main(argv), out

    def test_high_temperature_run_completes(self, tmp_path):
        # F = H + 1e7 ln(rho): tr(rho deltaF) carries the rounding of entries
        # near 1e8, which the zero_mean bound scaled by max(1, ||F||_max) absorbs
        code, out = self.high_temperature_run(tmp_path, 1e-7)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 101
        power = [float(r["power_analytic"]) for r in rows]
        assert all(math.isfinite(p) for p in power)
        for i in range(1, 100):
            # the central difference misses by h^2 P''/6, a sixth of the second difference
            window = [abs(power[j + 1] - 2.0 * power[j] + power[j - 1])
                      for j in (i - 1, i, i + 1) if 1 <= j <= 99]
            bound = 0.25 * max(window) + 1e-8 * max(1.0, abs(power[i]))
            assert abs(float(rows[i]["power_fd"]) - power[i]) <= bound

    def test_zero_mean_guard_still_fires(self, tmp_path, capsys):
        code, out = self.high_temperature_run(tmp_path, 1e-7, "zero_mean=0")
        assert code == 3
        assert "tr(rho deltaF)" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1  # the header only

    @pytest.mark.parametrize("mode, code", [("run", 3), ("sweep", 0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rk4_overflow_is_named_without_numpy_warnings(self, tmp_path, capsys, mode, code):
        s = 1e100
        h = [[s, [0.5 * s, 0.2 * s]], [[0.5 * s, -0.2 * s], -0.3 * s]]
        cfg = tmp_path / "huge.json"
        cfg.write_text(config_text(
            hamiltonian=h, channels=[{"rate": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
            initial_state={"kind": "eigenstate", "k0": 0, "epsilon": 1e-3},
            epsilons=[1e-2, 1e-3]))
        out = tmp_path / "huge.out"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == code
        failure = "step 1 (t = 0.001): hermitian matrix: non-finite entries"
        if mode == "run":
            assert capsys.readouterr().err == f"numeric failure: {failure}\n"
        else:
            assert capsys.readouterr().err == ""
            rows = json.loads(out.read_text())["report"]["rows"]
            assert [row["step_error"] for row in rows] == [failure] * 2

    @pytest.mark.parametrize("mode", ["run", "sweep"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_beta_is_caught_by_the_finiteness_scan(self, tmp_path, capsys, mode):
        # ln(rho)/beta overflows; only HermitianMatrix(F) stands between it and the output
        cfg = tmp_path / "cold.json"
        cfg.write_text(config_text(beta=1e-310, epsilons=[1e-2, 1e-3]))
        out = tmp_path / "cold.out"
        code = main([mode, "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numeric failure: {'step 0 (t = 0)' if mode == 'run' else 'rung 0 (epsilon = 0.01)'}: "
            "F = H + ln(rho)/beta at beta = 1e-310: hermitian matrix: non-finite entries\n")
        if mode == "run":
            assert len(out.read_text().splitlines()) == 1  # the header only
        else:
            assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_theta_overflow_names_the_channel(self, tmp_path, capsys):
        # F ~ 1e200 is finite, but |[deltaF, L]|^2 ~ 1e400 is not
        cfg = tmp_path / "cold.json"
        cfg.write_text(config_text(beta=1e-200))
        out = tmp_path / "cold.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: step 0 (t = 0): Theta of channel 0, |[deltaF, L]|^2: "
            "hermitian matrix: non-finite entries\n")
        assert len(out.read_text().splitlines()) == 1  # the header only

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_overflow_f_reaches_the_theta_guard(self, tmp_path, capsys):
        # F ~ -1.4e308 is finite; symmetrizing it must not overflow on the way
        cfg = tmp_path / "cold.json"
        cfg.write_text(config_text(beta=1e-307))
        out = tmp_path / "cold.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: step 0 (t = 0): Theta of channel 0, |[deltaF, L]|^2: "
            "hermitian matrix: non-finite entries\n")

    @pytest.mark.parametrize("place, path", [
        (("hamiltonian", 0, 0), "hamiltonian[0][0]"),
        (("hamiltonian", 1, 0, 1), "hamiltonian[1][0][1]"),
        (("beta",), "beta"),
        (("time", "step"), "time.step"),
        (("channels", 0, "rate"), "channels[0].rate"),
    ])
    def test_integer_beyond_float_range(self, tmp_path, capsys, place, path):
        data = json.loads(config_text())
        data["hamiltonian"][1][0] = [0.0, 0.0]  # a pair, for the pair's imaginary part
        *parents, key = place
        target = data
        for step in parents:
            target = target[step]
        target[key] = 10 ** 400
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: integer is beyond float range\n"

    def test_the_first_bad_entry_in_reading_order_is_named(self, tmp_path, capsys):
        # an entry that is not a float is checked where it is read, so an
        # overflowing int is named before a string in a later row
        data = json.loads(config_text())
        data["hamiltonian"][0][0], data["hamiltonian"][1][1] = 10 ** 400, "x"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: hamiltonian[0][0]: integer is beyond float range\n"

    def test_integer_entries_parse_as_their_floats(self):
        as_floats = parse_config(config_text(hamiltonian=[[0.0, [0.5, -2.0]], [[0.5, 2.0], 1.0]]),
                                 "run")
        as_ints = parse_config(config_text(hamiltonian=[[0, [0.5, -2]], [[0.5, 2], 1]]), "run")
        np.testing.assert_array_equal(as_ints.model.hamiltonian.matrix,
                                      as_floats.model.hamiltonian.matrix)

    def test_integer_over_the_digit_limit_is_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(config_text(beta=None).replace("{", '{"beta": 1' + "0" * 5000 + ", ", 1))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON:")

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

    def test_a_config_that_is_not_utf8_cannot_be_read(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe" + config_text().encode())
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {str(cfg)!r}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_nesting_too_deep_to_parse_is_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200000)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("where", [
        "missing directory", "directory",
        # opens, then fails to write: ENOSPC
        pytest.param("full device", marks=pytest.mark.skipif(
            not Path("/dev/full").exists(), reason="needs a device that is always full"))])
    def test_an_unwritable_out_is_named(self, tmp_path, capsys, mode, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(epsilons=[1e-2], trials=1))
        out = {"missing directory": str(tmp_path / "absent" / "out"), "directory": str(tmp_path),
               "full device": "/dev/full"}[where]
        assert main([mode, "--config", str(cfg), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output {out!r}: [Errno ")
        assert err.count("\n") == 1


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

    def test_sweep_ignores_the_horizon(self, tmp_path):
        reports = []
        for name, grid in (("multiple", {"step": 0.25, "horizon": 1.0}),
                           ("fraction", {"step": 0.25, "horizon": 0.3}),
                           ("none", {"step": 0.25})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(config_text(time=grid, epsilons=[1e-2, 1e-3]))
            out = tmp_path / f"{name}.out.json"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            data = json.loads(out.read_text())
            assert data["config"]["time"] == dict(grid, t0=0.0)
            reports.append(data["report"])
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("name, overrides", [
        ("qubit_dark_state", {}), ("qubit_sigma_x", {}), ("qutrit_ladder", {}),
        # each rung's RK4 probe breaches with its own smallest eigenvalue
        ("qubit_sigma_x", BREACH_LADDERS[0.3]),
        ("qubit_sigma_x", {"epsilons": [1e-2, 1e-3, 1e-13, 1e-14]}),  # rung 2: rank deficient
        ("qubit_sigma_x", BREACH_LADDERS[0.15])])  # three probes pass, then three breach
    def test_sweep_blocks_keep_the_report(self, tmp_path, monkeypatch, capsys, name, overrides):
        # rungs are evaluated in blocks as `run` rows are: the report, or the
        # first failing rung's error, is the same at every block size
        data = dict(json.loads((SCENARIOS / f"{name}.json").read_text()), **overrides)
        cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.out.json"
        cfg.write_text(json.dumps(data))
        results = []
        for rungs_per_block in (1, 2, None):
            monkeypatch.setattr(dynamics, "_BLOCK_BYTES",
                                block_bytes(data["dim"], rungs_per_block))
            code = main(["sweep", "--config", str(cfg), "--out", str(out)])
            results.append((code, capsys.readouterr().err, out.exists() and out.read_bytes()))
            out.unlink(missing_ok=True)
        assert results[1] == results[0] and results[2] == results[0]
        if 1e-13 in data["epsilons"]:
            assert results[0][:2] == (3, "numeric failure: rung 2 (epsilon = 1e-13): state is rank "
                                         "deficient for ln(rho): smallest eigenvalue 5.000e-14 "
                                         "<= threshold 1.000e-12\n")
            return
        assert results[0][:2] == (0, "")
        step_errors = [row["step_error"] for row in json.loads(results[0][2])["report"]["rows"]]
        breached = [error is not None for error in step_errors]
        assert len(set(step_errors)) == sum(breached) + (not all(breached))
        step = overrides.get("time", {}).get("step")
        assert breached == {0.3: [True] * 3, 0.15: [False] * 3 + [True] * 3}.get(
            step, [False] * len(step_errors))

    @pytest.mark.parametrize("name, rungs", [
        ("qubit_dark_state", 5), ("qubit_sigma_x", 7), ("qutrit_ladder", 5)])
    def test_two_solves_per_rung(self, tmp_path, eig_calls, name, rungs):
        # H and the pure state, then per rung the regularized state and its RK4
        # probe; no rung reads F's eigensystem, so none solves it
        assert main(["sweep", "--config", str(SCENARIOS / f"{name}.json"),
                     "--out", str(tmp_path / "out.json")]) == 0
        assert len(eig_calls) == 2 + 2 * rungs

    @pytest.mark.parametrize("step, solves", [(0.3, 11), (0.15, 17)])
    def test_a_breaching_probe_costs_no_extra_solve(self, tmp_path, eig_calls, step, solves):
        # H, the pure state and each rung's state, then the probes: all of a
        # block's, then again those after each breach (3 + 2 + 1 at step 0.3,
        # 6 + 2 + 1 at 0.15).  A breach's step_error is only its message, so
        # no best-effort smallest eigenvalue is solved for it
        data = dict(json.loads((SCENARIOS / "qubit_sigma_x.json").read_text()),
                    **BREACH_LADDERS[step])
        cfg = tmp_path / "ladder.json"
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
        assert len(eig_calls) == solves

    @pytest.mark.parametrize("step", sorted(BREACH_LADDERS))
    def test_stacked_probes_match_one_propagate_per_rung(self, tmp_path, step):
        # the rungs' probes are one RK4 step of their stack; each rung's
        # step_error is what its own one-step propagate raises
        data = dict(json.loads((SCENARIOS / "qubit_sigma_x.json").read_text()),
                    **BREACH_LADDERS[step])
        cfg, out = tmp_path / "ladder.json", tmp_path / "ladder.out.json"
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = parse_config(json.dumps(data), "sweep")
        k0 = linalg.hermitian_eig(parsed.model.hamiltonian).eigenvectors[:, parsed.k0]
        expected = []
        for epsilon in parsed.epsilons:
            pure = dynamics.DensityMatrix.pure(k0).matrix
            rung = dynamics.DensityMatrix(dynamics._mixed(pure, epsilon))
            try:
                for _ in dynamics.propagate(parsed.model, rung, [0.0, step]):
                    pass
                expected.append(None)
            except PropagationError as exc:
                expected.append(str(exc))
        rows = json.loads(out.read_text())["report"]["rows"]
        assert [row["step_error"] for row in rows] == expected
        assert expected.count(None) == {0.3: 0, 0.15: 3}[step]

    @pytest.mark.parametrize("epsilons", [[1e-2, 1e-3], [1e-2, 1e-13]])
    def test_a_probe_failure_that_is_no_breach_aborts_the_sweep(self, tmp_path, capsys,
                                                                  epsilons):
        # the rungs are diagonal and solve at once, but the channel gives each
        # probe coherences that one Jacobi sweep cannot remove; rung 0's probe
        # fails before rung 1, rank deficient in the second ladder, is reached
        cfg, out = tmp_path / "probe.json", tmp_path / "probe.out.json"
        cfg.write_text(config_text(
            dim=3, hamiltonian=[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            channels=[{"rate": 1.0, "matrix": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}],
            initial_state={"kind": "eigenstate", "k0": 0}, epsilons=epsilons))
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main([*argv, "--tol", "jacobi_max_sweeps=1"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: rung 0 (epsilon = 0.01): Jacobi did not converge in 1 sweeps: "
            "off-diagonal norm 3.960e-13 above target 9.914e-14\n")
        assert not out.exists()
        assert main(argv) == (0 if epsilons[1] == 1e-3 else 3)

    def test_a_failing_rung_names_its_rung_and_epsilon(self, tmp_path, capsys):
        # at mean_crosscheck = 0 the two forms of <F> differ in their last digit
        # at rung 2 (rungs 0 and 1 pass): the rung's ConsistencyError keeps its
        # type (exit 3) and gains a "rung i (epsilon = ...): " prefix
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(SCENARIOS / "qubit_sigma_x.json"), "--out", str(out),
                     "--tol", "mean_crosscheck=0"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: rung 2 (epsilon = 0.0001): <F> disagrees between forms: "
            "trace -0.000495173127605967 vs energy-entropy -0.0004951731276059669\n")
        assert not out.exists()
        # the library raises it chained to the rung's own error
        cfg = parse_config((SCENARIOS / "qubit_sigma_x.json").read_text(), "sweep")
        spec = audit.ScenarioSpec(model=cfg.model, beta=cfg.beta, k0=cfg.k0,
                                  epsilon_list=cfg.epsilons, step=cfg.time.step)
        with pytest.raises(ConsistencyError) as raised:
            audit.epsilon_sweep(spec, tol=ToleranceConfig(mean_crosscheck=0.0))
        assert type(raised.value.__cause__) is ConsistencyError
        assert f"rung 2 (epsilon = 0.0001): {raised.value.__cause__}" == str(raised.value)

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

    def blocked_check(self, tmp_path, monkeypatch, capsys, cfg, seed, block):
        """Exit code, stderr and report bytes (None: no report) of `check` on
        `cfg` at `seed`, with claim stacks of `block` bytes a matrix row, and
        how many stacks were evaluated."""
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block)
        stacks, evaluate = [], audit._evaluate
        monkeypatch.setattr(audit, "_evaluate", lambda *args, **kwargs: (
            stacks.append(args[0].n) or evaluate(*args, **kwargs)))
        out = tmp_path / "check.out.json"
        out.unlink(missing_ok=True)
        code = main(["check", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        return (code, capsys.readouterr().err, out.read_bytes() if out.exists() else None), \
            len(stacks)

    # one instance a stack, the default rule, and every instance of a dimension
    # d <= 6 in one stack
    CLAIM_BLOCKS = (1, DEFAULT_BLOCK_BYTES, 16 * 6 * 6 * 1000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_check_keeps_its_bytes_across_claim_block_sizes(self, tmp_path, monkeypatch,
                                                            capsys, seed):
        cfg = SCENARIOS / "ensemble_check.json"
        runs = [self.blocked_check(tmp_path, monkeypatch, capsys, cfg, seed, block)
                for block in self.CLAIM_BLOCKS]
        assert runs[0][0][:2] == (0, "") and runs[0][0][2] is not None
        assert runs[1][0] == runs[0][0] and runs[2][0] == runs[0][0]
        assert runs[0][1] > runs[1][1] >= runs[2][1]

    def test_the_earliest_drawn_failure_wins_across_claim_blocks(self, tmp_path, monkeypatch,
                                                                 capsys):
        # failing instances at d = 2 (drawn first) and d = 6: at the default
        # rule each sits in its dimension's second stack (28 instances a stack
        # at d = 6, 256 at d = 2), and d = 6 is evaluated first
        def overflowing(d, k0, channel):  # Theta of `channel` at eigenstate k0 overflows
            ops = [np.zeros((d, d), dtype=complex) for _ in range(channel + 1)]
            ops[channel][k0, (k0 + 1) % d] = 1.0
            return dynamics.LindbladModel(linalg.HermitianMatrix(np.diag(np.arange(d) * 1e200)),
                                          tuple(dynamics.JumpChannel(1.0, op) for op in ops)), k0

        def agreeing(d):  # evaluates without a failure
            lowering = np.diag(np.ones(d - 1), 1).astype(complex)
            return dynamics.LindbladModel(linalg.HermitianMatrix(np.diag(np.arange(d) * 1.0)),
                                          (dynamics.JumpChannel(1.0, lowering),)), d - 1

        drawn = [agreeing(6)] * 30 + [agreeing(2)] * 256 + [overflowing(2, 0, 0),
                                                            overflowing(6, 3, 1), agreeing(3)]
        cfg = tmp_path / "scripted.json"
        cfg.write_text(json.dumps({"dim": 6, "trials": len(drawn), "include_bundled": False}))
        runs = []
        for block in self.CLAIM_BLOCKS:
            scripted = iter(drawn)
            monkeypatch.setattr(audit, "_random_instance", lambda rng, ens: next(scripted))
            runs.append(self.blocked_check(tmp_path, monkeypatch, capsys, cfg, 0, block))
        assert runs[0][0] == (3, "numeric failure: Theta of channel 0, eigenstate 0: "
                                 "closed form inf is not finite\n", None)
        assert runs[1][0] == runs[0][0] and runs[2][0] == runs[0][0]
        # the stacks of d = 6, 3 and 2, in that order, up to each failure
        assert [run[1] for run in runs] == [31 + 1 + 257, 2 + 1 + 2, 1 + 1 + 1]

    def test_check_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["check", "--config", str(SCENARIOS / "ensemble_check.json"),
                     "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, report_cls, nested, item_cls", [
        ("audit", EigenstateAuditReport, "claim_verdicts", ClaimVerdict),
        ("sweep", EpsilonSweepReport, "rows", EpsilonRow),
        ("check", FalsifierReport, "claim_verdicts", ClaimVerdict),
    ])
    def test_report_keys_are_the_dataclass_fields(self, tmp_path, mode, report_cls,
                                                  nested, item_cls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(epsilons=[1e-2, 1e-3], trials=3, dim=2))
        out = tmp_path / "out.json"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert list(report) == [f.name for f in dataclasses.fields(report_cls)]
        for item in report[nested]:
            assert list(item) == [f.name for f in dataclasses.fields(item_cls)]

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_audit_at_extreme_hamiltonian_scale(self, tmp_path, scale):
        # the Jacobi convergence norms must neither overflow (exit 3) nor
        # underflow (the unrotated diagonal passes for the spectrum)
        eigenvalues = []
        for s in (1.0, scale):
            h = [[s, [0.5 * s, 0.2 * s]], [[0.5 * s, -0.2 * s], -0.3 * s]]
            cfg = tmp_path / "scaled.json"
            cfg.write_text(config_text(hamiltonian=h, channels=[]))
            out = tmp_path / "scaled.out.json"
            assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
            eigenvalues.append(json.loads(out.read_text())["report"]["eigenvalues"])
        for unit, scaled in zip(*eigenvalues):
            assert abs(scaled - scale * unit) <= 1e-12 * abs(scale * unit)

    @pytest.mark.parametrize("dim, code", [(CHECK_DIM_MAX, 0), (CHECK_DIM_MAX + 1, 2),
                                           (10**30, 2)])
    def test_check_at_the_dim_limit(self, tmp_path, capsys, dim, code):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"dim": dim, "trials": 1, "include_bundled": False}))
        out = tmp_path / "wide.out.json"
        # seed 3 draws its one instance at d = 64
        assert main(["check", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == code
        if code == 0:
            assert json.loads(out.read_text())["report"]["dim_max"] == CHECK_DIM_MAX
        else:
            assert capsys.readouterr().err == (
                f"error: dim: check mode allows dim <= 64, got {dim}\n")
            assert not out.exists()

    @pytest.mark.parametrize("sweeps, line", [
        (1, "Jacobi did not converge in 1 sweeps: "
            "off-diagonal norm 1.374e+00 above target 3.319e-13"),
        (3, "Jacobi did not converge in 3 sweeps: "
            "off-diagonal norm 6.608e-03 above target 3.319e-13"),
    ])
    def test_check_solver_failure_names_the_first_instance(self, tmp_path, capsys,
                                                           sweeps, line):
        # the benchmark's check config: the stacked solve must fail where the
        # instance-by-instance solve did, with the same message
        cfg = tmp_path / "ensemble.json"
        cfg.write_text(json.dumps({"dim": 6, "beta": 1.0, "trials": 400,
                                   "include_bundled": True}))
        out = tmp_path / "check.json"
        assert main(["check", "--config", str(cfg), "--out", str(out),
                     "--tol", f"jacobi_max_sweeps={sweeps}"]) == 3
        assert capsys.readouterr().err == f"numeric failure: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale, channels, line", [
        (1e160, True, "Theta of channel 0, eigenstate 0: closed form inf is not finite"),
        (1e300, True, "Theta of channel 0, eigenstate 0: closed form inf is not finite"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_audit_non_finite_value_is_numeric(self, tmp_path, capsys, scale, channels,
                                               line):
        s = scale
        h = [[s, [0.5 * s, 0.2 * s]], [[0.5 * s, -0.2 * s], -0.3 * s]]
        cfg = tmp_path / "huge.json"
        lowering = [{"rate": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]  # |0><1|
        cfg.write_text(config_text(hamiltonian=h, channels=lowering if channels else []))
        out = tmp_path / "huge.out.json"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numeric failure: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale, channels", [
        (1.0, True), (1e50, True), (1e150, True), (1e300, False)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_rate_drops_the_hamiltonian_term(self, tmp_path, scale, channels):
        # tr(-i[H, P] H) is 0 identically; with it, the rate read 4.31e281 against
        # a power of 1.32e150 at s = 1e150, and nan at s = 1e300
        s = scale
        h = [[s, [0.5 * s, 0.2 * s]], [[0.5 * s, -0.2 * s], -0.3 * s]]
        cfg = tmp_path / "huge.json"
        lowering = [{"rate": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}]  # |0><1|
        cfg.write_text(config_text(hamiltonian=h, channels=lowering if channels else []))
        out = tmp_path / "huge.out.json"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        bound = ToleranceConfig().power_agreement * max(1.0, abs(report["power_trace"]))
        assert abs(report["energy_rate_numeric"] - report["power_trace"]) <= bound
        assert (report["power_trace"] != 0.0) == channels

    def test_non_finite_report_value_is_named_and_not_written(self, tmp_path, capsys,
                                                              monkeypatch):
        # JSON cannot hold nan: the writer names its path and writes nothing
        sweep = cli.epsilon_sweep

        def sweep_with_nan(spec, *, tol):
            report = sweep(spec, tol=tol)
            first = dataclasses.replace(report.rows[0], power_analytic=math.nan)
            return dataclasses.replace(report, rows=(first,) + report.rows[1:])

        monkeypatch.setattr(cli, "epsilon_sweep", sweep_with_nan)
        out = tmp_path / "nan.out.json"
        assert main(["sweep", "--config", str(SCENARIOS / "qubit_sigma_x.json"),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: report.rows[0].power_analytic = nan is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, scale, mode, code, line", [
        ("hamiltonian", 1e100, "run", 3,
         "numeric failure: step 1 (t = 0.001): hermitian matrix: non-finite entries"),
        ("hamiltonian", 1e100, "audit", 0, ""),
        ("hamiltonian", 1e100, "sweep", 0, ""),
        ("hamiltonian", 1e200, "run", 3, "numeric failure: step 0 (t = 0): Theta of channel 0, "
         "|[deltaF, L]|^2: hermitian matrix: non-finite entries"),
        ("hamiltonian", 1e200, "audit", 3, "numeric failure: Theta of channel 0, "
         "eigenstate 0: closed form inf is not finite"),
        ("hamiltonian", 1e200, "sweep", 0, ""),
        ("hamiltonian", 1e300, "run", 3, "numeric failure: step 0 (t = 0): Theta of channel 0, "
         "|[deltaF, L]|^2: hermitian matrix: non-finite entries"),
        ("hamiltonian", 1e300, "audit", 3, "numeric failure: Theta of channel 0, "
         "eigenstate 0: closed form inf is not finite"),
        ("hamiltonian", 1e300, "sweep", 0, ""),
        ("hamiltonian", 1.7e308, "run", 3,
         "numeric failure: eigendecomposition has non-finite entries"),
        ("hamiltonian", 1.7e308, "audit", 3,
         "numeric failure: eigendecomposition has non-finite entries"),
        ("hamiltonian", 1.7e308, "sweep", 3,
         "numeric failure: eigendecomposition has non-finite entries"),
        ("channel", 1e100, "run", 3,
         "numeric failure: step 1 (t = 0.001): hermitian matrix: non-finite entries"),
        ("channel", 1e100, "audit", 0, ""),
        ("channel", 1e100, "sweep", 0, ""),
        ("channel", 1e154, "run", 3, "numeric failure: step 0 (t = 0): Theta of channel 0, "
         "|[deltaF, L]|^2: hermitian matrix: non-finite entries"),
        ("channel", 1e154, "sweep", 3,
         "numeric failure: report.rows[0].power_analytic = -inf is not finite"),
        ("channel", 1e200, "run", 3,
         "numeric failure: step 0 (t = 0): hermitian matrix: non-finite entries"),
        ("channel", 1e200, "audit", 3, "numeric failure: Theta of channel 0, "
         "eigenstate 0: closed form nan is not finite"),
        ("channel", 1e200, "sweep", 3,
         "numeric failure: eigenstate power forms disagree: trace nan vs index nan"),
        ("channel", 1e300, "run", 3,
         "numeric failure: step 0 (t = 0): hermitian matrix: non-finite entries"),
        ("channel", 1e300, "audit", 3, "numeric failure: Theta of channel 0, "
         "eigenstate 0: closed form nan is not finite"),
        ("channel", 1e300, "sweep", 3,
         "numeric failure: eigenstate power forms disagree: trace nan vs index nan"),
        ("channel", 1.7e308, "run", 3,
         "numeric failure: step 0 (t = 0): hermitian matrix: non-finite entries"),
        ("channel", 1.7e308, "audit", 3, "numeric failure: Theta of channel 0, "
         "eigenstate 0: closed form nan is not finite"),
        ("channel", 1.7e308, "sweep", 3,
         "numeric failure: eigenstate power forms disagree: trace nan vs index nan"),
    ])
    def test_extreme_inputs_keep_their_exits(self, tmp_path, capsys, family, scale, mode,
                                             code, line):
        # pins each mode's exit code and final stderr line; every overflow is
        # named by a check, so numpy warns of none
        cfg = extreme_config(tmp_path, family, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        lines = capsys.readouterr().err.splitlines()
        assert (lines[-1] if lines else "") == line

    @pytest.mark.parametrize("family, scale, line", [
        ("hamiltonian", 1e160, "Theta of channel 0, eigenstate 0: closed form inf is not finite"),
        ("hamiltonian", 1e200, "Theta of channel 0, eigenstate 0: closed form inf is not finite"),
        ("hamiltonian", 1e300, "Theta of channel 0, eigenstate 0: closed form inf is not finite"),
        ("hamiltonian", 1.7e308, "eigendecomposition has non-finite entries"),
        ("channel", 1e160, "Theta of channel 0, eigenstate 0: closed form nan is not finite"),
        ("channel", 1e200, "Theta of channel 0, eigenstate 0: closed form nan is not finite"),
        ("channel", 1e300, "Theta of channel 0, eigenstate 0: closed form nan is not finite"),
        ("channel", 1.7e308, "Theta of channel 0, eigenstate 0: closed form nan is not finite"),
    ])
    def test_extreme_audits_raise_no_numpy_warnings(self, tmp_path, capsys, family, scale,
                                                    line):
        # the audit rows above, with every RuntimeWarning an error: the instance
        # evaluation checks its own overflows and names them
        cfg = extreme_config(tmp_path, family, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"numeric failure: {line}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_power_form_fails_the_agreement_check(self, tmp_path, capsys):
        # L = s |1><2| leaves |0> and its Thetas alone, but L^dag L overflows, so the
        # trace form is nan; it used to pass the check and stop the claim scale
        # s^2 with an uncaught OverflowError
        l = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.4e154], [0.0, 0.0, 0.0]]
        cfg = tmp_path / "nan_power.json"
        cfg.write_text(config_text(
            dim=3, hamiltonian=[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            channels=[{"rate": 1.0, "matrix": l}],
            initial_state={"kind": "eigenstate", "k0": 0, "epsilon": 1e-3}, epsilons=[1e-2]))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numeric failure: scenario: eigenstate power "
                                           "forms disagree: trace nan vs index 0.0\n")

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

    @pytest.mark.parametrize("pair", ["x" * 100000, "psd=" + "y" * 100000, "z" * 100000 + "=1"],
                             ids=["no separator", "value", "name"])
    def test_a_long_tol_is_echoed_in_a_short_line(self, tmp_path, capsys, pair):
        code = main(["audit", "--config", str(SCENARIOS / "qubit_sigma_x.json"),
                     "--out", str(tmp_path / "x.json"), "--tol", pair])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 500

    # an integer of 4000 digits: float() of it overflows, and the check that
    # rejects it names its field
    @pytest.mark.parametrize("flags, field", [
        (["--tol", "jacobi_max_sweeps=" + "9" * 4000], "tolerance jacobi_max_sweeps"),
        (["--seed", "-" + "9" * 4000], "seed")], ids=["tol", "seed"])
    def test_a_long_integer_is_echoed_in_a_short_line(self, tmp_path, capsys, flags, field):
        code = main(["check", "--config", str(SCENARIOS / "ensemble_check.json"),
                     "--out", str(tmp_path / "x.json"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    # every field, so a new tolerance cannot skip validation; config_hermiticity,
    # decomposition_residual and propagation_hermiticity are no longer fields and
    # must be rejected as unknown
    @pytest.mark.parametrize("pair", [
        f"{f.name}={value}" for f in dataclasses.fields(ToleranceConfig)
        for value in ("-1", "nan")] + ["claim_band=0.5", "config_hermiticity=1e-9",
                                       "decomposition_residual=1e-9",
                                       "propagation_hermiticity=1e-9"])
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

    def test_calls_in_one_process_see_only_their_own_overrides(self, tmp_path, monkeypatch):
        # main reuses one parser, so nothing of one call's --tol may reach the next
        seen = []
        monkeypatch.setattr(cli, "parse_tol_overrides",
                            lambda pairs: seen.append(list(pairs)) or parse_tol_overrides(pairs))
        cfg = tmp_path / "defect.json"
        cfg.write_text(config_text(hamiltonian=[[0.0, 1e-11], [0.0, 1.0]]))
        argv = ["audit", "--config", str(cfg), "--out", str(tmp_path / "x.json")]
        two = ["--tol", "hermiticity=1e-9", "--tol", "jacobi_max_sweeps=5"]
        assert [main(argv + two), main(argv), main(argv + two[:2]), main(argv)] == [0, 2, 0, 2]
        assert seen == [two[1::2], [], two[1:2], []]
        assert cli._parser() is cli._parser()


def test_module_entry_point(tmp_path):
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery", "audit",
         "--config", str(SCENARIOS / "qubit_sigma_x.json"), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["report"]["verdict"] == "HYPOTHESIS_REFUTED"
