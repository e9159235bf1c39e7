"""Command-line interface.

    qbattery run    --config cfg.json --out traj.csv   [--tol NAME=VALUE ...]
    qbattery audit  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery sweep  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery check  --config cfg.json --out report.json [--seed N] [--tol ...]

Exit codes: 0 success (audit and check exit 0 whatever the verdicts say),
2 configuration problem, 3 numeric failure.  `run` writes each CSV row as
soon as the next state arrives, so a numeric failure mid-trajectory leaves
the completed prefix on disk.  JSON reports carry no timestamps; identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .audit import EnsembleSpec, ScenarioSpec, claim_falsifier, eigenstate_audit, epsilon_sweep
from .config import RunConfig, config_to_dict, parse_config
from .dynamics import DensityMatrix, propagate, regularize, thermal_state, von_neumann_entropy
from .errors import ConfigError, ParameterError, PropagationError, QBatteryError, ValidationError
from .free_energy import (BatteryContext, compute_theta_report, free_energy_operator,
                          power_analytic, power_fd)
from .linalg import hermitian_eig
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Open quantum battery dynamics and free-energy fluctuation audits.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
            ("run", "propagate a trajectory and write per-step diagnostics as CSV"),
            ("audit", "closed-form eigenstate diagnostics and claim classification"),
            ("sweep", "regularized epsilon ladder for an eigenstate scenario"),
            ("check", "randomized claim falsification over a model ensemble")):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output path (CSV for run, JSON otherwise)")
        p.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override one tolerance, repeatable")
    return parser


def parse_tol_overrides(pairs) -> ToleranceConfig:
    fields = {f.name: f for f in dataclasses.fields(ToleranceConfig)}
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {pair!r}")
        if name not in fields:
            raise ConfigError(f"unknown tolerance {name!r}; known: {sorted(fields)}")
        caster = int if fields[name].type in ("int", int) else float
        try:
            overrides[name] = caster(value)
        except ValueError:
            raise ConfigError(f"--tol {name}: cannot parse {value!r}") from None
    return DEFAULT_TOLERANCES.replace(**overrides)


def _read_config(path: str, mode: str, tol: ToleranceConfig) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, mode, tol=tol)


def _initial_state(cfg: RunConfig, tol: ToleranceConfig) -> DensityMatrix:
    st = cfg.initial_state
    if st.kind == "thermal":
        beta = cfg.beta if st.beta is None else st.beta
        return thermal_state(cfg.model.hamiltonian, beta, tol=tol)
    if st.kind == "eigenstate":
        eig = hermitian_eig(cfg.model.hamiltonian, tol=tol)
        rho = DensityMatrix.pure(eig.eigenvectors[:, st.k0], tol=tol)
        if st.epsilon is not None:
            rho = regularize(rho, st.epsilon, tol=tol)
        return rho
    try:
        return DensityMatrix(st.matrix, tol=tol)
    except ValidationError as exc:
        raise ConfigError(f"not a valid density matrix: {exc}",
                          path="initial_state.matrix") from None


def _csv_cell(value: float | None) -> str:
    return "" if value is None else f"{float(value):.17g}"


def _with_neighbours(stream):
    """Yield (previous, item, next) over `stream`, None past either end.

    An item is yielded once its successor has arrived.  When the stream
    raises PropagationError, the last item that arrived is yielded with no
    successor before the error is re-raised.
    """
    previous = current = None
    try:
        for item in stream:
            if current is not None:
                yield previous, current, item
            previous, current = current, item
    except PropagationError:
        yield previous, current, None
        raise
    yield previous, current, None


def run_command(cfg: RunConfig, out_path: str, tol: ToleranceConfig) -> int:
    ctx = BatteryContext(cfg.beta, cfg.model)
    rho0 = _initial_state(cfg, tol)
    if rho0.min_eigenvalue <= ctx.rank_threshold:
        raise ConfigError(
            "initial state is rank deficient; the free-energy operator needs "
            "a full-rank state (add initial_state.epsilon or use audit mode)",
            path="initial_state")
    grid = cfg.time.grid()
    states = propagate(cfg.model, rho0, grid, tol=tol)
    step = float(grid[1] - grid[0]) if grid.size > 1 else None

    m = len(cfg.model.channels)
    columns = ["t", "energy", "entropy", "free_energy", "power_analytic", "power_fd"]
    columns.extend(f"theta_{j + 1}" for j in range(m))
    columns.extend(["trace_defect", "min_eig"])
    header = ",".join(columns)
    h_mat = cfg.model.hamiltonian.matrix
    basis = None   # the previous row's deltaF eigenbasis warm-starts the next
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, (before, (state, trace_defect), after) in enumerate(_with_neighbours(states)):
            energy = float(np.real(np.trace(state.matrix @ h_mat)))
            entropy = von_neumann_entropy(state)
            decomp = free_energy_operator(state, ctx, basis=basis, tol=tol)
            basis = decomp.basis
            p_an = power_analytic(state, ctx, decomp=decomp, tol=tol)
            p_fd = None
            if before is not None and after is not None:
                p_fd = power_fd(before[0], after[0], step, ctx)
            thetas = compute_theta_report(decomp, state, cfg.model, tol=tol)
            cells = [
                _csv_cell(grid[i]), _csv_cell(energy), _csv_cell(entropy),
                _csv_cell(decomp.mean), _csv_cell(p_an), _csv_cell(p_fd),
            ]
            cells.extend(_csv_cell(ch.theta_operator) for ch in thetas.channels)
            cells.append(_csv_cell(trace_defect))
            cells.append(_csv_cell(state.min_eigenvalue))
            fh.write(",".join(cells) + "\n")
    return EXIT_OK


def _write_report(out_path: str, mode: str, seed: int, cfg: RunConfig, report: dict) -> None:
    payload = {
        "tool": {"name": "qbattery", "version": __version__},
        "mode": mode,
        "seed": seed,
        "config": config_to_dict(cfg),
        "report": report,
    }
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def audit_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    spec = ScenarioSpec(model=cfg.model, beta=cfg.beta, k0=cfg.k0)
    report = eigenstate_audit(spec, tol=tol)
    _write_report(out_path, "audit", seed, cfg, report.to_dict())
    return EXIT_OK


def sweep_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    step = cfg.time.step if cfg.time is not None else 1e-3
    spec = ScenarioSpec(model=cfg.model, beta=cfg.beta, k0=cfg.k0,
                        epsilon_list=cfg.epsilons, step=step)
    report = epsilon_sweep(spec, tol=tol)
    _write_report(out_path, "sweep", seed, cfg, report.to_dict())
    return EXIT_OK


def check_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    ensemble = EnsembleSpec(seed=seed, trials=cfg.trials, dim_min=2, dim_max=cfg.dim,
                            beta=cfg.beta, include_bundled=cfg.include_bundled)
    report = claim_falsifier(ensemble, tol=tol)
    _write_report(out_path, "check", seed, cfg, report.to_dict())
    return EXIT_OK


_COMMANDS = {
    "audit": audit_command,
    "sweep": sweep_command,
    "check": check_command,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = parse_tol_overrides(args.tol)
        cfg = _read_config(args.config, args.mode, tol)
        if args.mode == "run":
            return run_command(cfg, args.out, tol)
        return _COMMANDS[args.mode](cfg, args.out, args.seed, tol)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QBatteryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
