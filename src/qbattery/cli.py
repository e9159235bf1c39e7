"""Command-line interface.

    qbattery run    --config cfg.json --out traj.csv   [--tol NAME=VALUE ...]
    qbattery audit  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery sweep  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery check  --config cfg.json --out report.json [--seed N] [--tol ...]

Exit codes: 0 success (audit and check exit 0 whatever the verdicts say),
2 configuration problem, 3 numeric failure.  `run` writes each CSV row as
soon as the next state arrives, so a numeric failure mid-trajectory leaves
the completed prefix on disk.  A JSON report holds the fields of its report
dataclass under their names, in declaration order.  Reports carry no
timestamps; identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import __version__
from .audit import EnsembleSpec, ScenarioSpec, claim_falsifier, eigenstate_audit, epsilon_sweep
from .config import RunConfig, config_to_dict, parse_config
from .dynamics import DensityMatrix, liouvillian, propagate, regularize, thermal_state
from .errors import ConfigError, ParameterError, PropagationError, QBatteryError, ValidationError
from .free_energy import (RANK_THRESHOLD, BatteryContext, compute_theta_report,
                          free_energy_operator, power_analytic, power_fd)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call: parsing leaves it unchanged."""
    return build_parser()


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
    if rho0.min_eigenvalue <= RANK_THRESHOLD:
        raise ConfigError(
            "initial state is rank deficient; the free-energy operator needs "
            "a full-rank state (add initial_state.epsilon or use audit mode)",
            path="initial_state")
    grid = cfg.time.grid()
    states = propagate(cfg.model, rho0, grid, tol=tol)
    step = float(grid[1] - grid[0]) if grid.size > 1 else None

    columns = ["t", "energy", "entropy", "free_energy", "power_analytic", "power_fd",
               *(f"theta_{j + 1}" for j in range(len(cfg.model.channels))),
               "trace_defect", "min_eig"]
    # The index-form Theta reads F's eigensystem, solved on F rather than deltaF
    # (see compute_theta_report).  F is diagonal in rho0's eigenbasis when
    # [rho0, H] = 0 (thermal starts); each later row starts from the previous
    # row's F eigenbasis.
    basis = rho0.spectrum.eigenvectors
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for i, (before, (state, trace_defect), after) in enumerate(_with_neighbours(states)):
            decomp = free_energy_operator(state, ctx, tol=tol)
            f_spectrum = hermitian_eig(decomp.f_op, basis=basis, tol=tol)
            basis = f_spectrum.eigenvectors
            p_an = power_analytic(liouvillian(cfg.model, state, tol=tol), decomp, tol=tol)
            p_fd = None if before is None or after is None else \
                power_fd(before[0], after[0], step, ctx)
            thetas = compute_theta_report(decomp, f_spectrum, state, cfg.model, tol=tol)
            row = [grid[i], state.energy(cfg.model.hamiltonian), state.entropy, decomp.mean,
                   p_an, p_fd, *(ch.theta_operator for ch in thetas.channels),
                   trace_defect, state.min_eigenvalue]
            fh.write(",".join(_csv_cell(value) for value in row) + "\n")
    return EXIT_OK


def _encode(value):
    """JSON-ready form of a report: a dataclass becomes {field: value} in
    field order, a tuple becomes a list, and anything else passes through."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _non_finite(value, path: str) -> str | None:
    """`path = value` of the first non-finite number in a JSON-ready value."""
    if value != value or value in (math.inf, -math.inf):  # nan alone is unequal to itself
        return f"{path} = {value!r}"
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")
        if found:
            return found
    return None


def _write_report(out_path: str, mode: str, seed: int, cfg: RunConfig, report) -> None:
    """Serialize before opening the file, so a non-finite value (which JSON
    cannot hold) leaves no partial report."""
    payload = {
        "tool": {"name": "qbattery", "version": __version__},
        "mode": mode,
        "seed": seed,
        "config": config_to_dict(cfg),
        "report": _encode(report),
    }
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        found = _non_finite(payload["report"], "report")
        raise ValidationError(f"{found} is not finite") from None
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def audit_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    spec = ScenarioSpec(model=cfg.model, beta=cfg.beta, k0=cfg.k0)
    _write_report(out_path, "audit", seed, cfg, eigenstate_audit(spec, tol=tol))
    return EXIT_OK


def sweep_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    probe = {} if cfg.time is None else {"step": cfg.time.step}
    spec = ScenarioSpec(model=cfg.model, beta=cfg.beta, k0=cfg.k0,
                        epsilon_list=cfg.epsilons, **probe)
    _write_report(out_path, "sweep", seed, cfg, epsilon_sweep(spec, tol=tol))
    return EXIT_OK


def check_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    ensemble = EnsembleSpec(seed=seed, trials=cfg.trials, dim_min=2, dim_max=cfg.dim,
                            beta=cfg.beta, include_bundled=cfg.include_bundled)
    _write_report(out_path, "check", seed, cfg, claim_falsifier(ensemble, tol=tol))
    return EXIT_OK


_COMMANDS = {
    "audit": audit_command,
    "sweep": sweep_command,
    "check": check_command,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
