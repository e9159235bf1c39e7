"""Command-line interface: parsing, the `run` CSV writer, the report encoder.

    qbattery run    --config cfg.json --out traj.csv   [--seed N] [--tol NAME=VALUE ...]
    qbattery audit  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery sweep  --config cfg.json --out report.json [--seed N] [--tol ...]
    qbattery check  --config cfg.json --out report.json [--seed N] [--tol ...]

Exit codes: 0 success (audit and check exit 0 whatever the verdicts say),
2 a bad or unreadable config or an unwritable --out, 3 numeric failure.
`run` ignores --seed, and writes the header and rows of free_energy's row
stream as they come: a numeric failure leaves every row before it on disk.

A JSON report holds the fields of its report dataclass under their names, in
declaration order.  Reports carry no timestamps; identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

from . import __version__
from .audit import EnsembleSpec, ScenarioSpec, claim_falsifier, eigenstate_audit, epsilon_sweep
from .config import RunConfig, config_to_dict, parse_config
from .dynamics import DensityMatrix, _projector, thermal_state
from .errors import ConfigError, ParameterError, QBatteryError, ValidationError, _shown
from .free_energy import RANK_THRESHOLD, BatteryContext, _run_rows
from .linalg import hermitian_eig
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call: parsing leaves it unchanged."""
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
    """DEFAULT_TOLERANCES with each NAME=VALUE pair applied; DEFAULT_TOLERANCES
    itself, not a checked copy of it, when there is none."""
    if not pairs:
        return DEFAULT_TOLERANCES
    fields = {f.name: f for f in dataclasses.fields(ToleranceConfig)}
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {_shown(pair)}")
        if name not in fields:
            raise ConfigError(f"unknown tolerance {_shown(name)}; known: {sorted(fields)}")
        caster = int if fields[name].type in ("int", int) else float
        try:
            overrides[name] = caster(value)
        except ValueError:
            raise ConfigError(f"--tol {name}: cannot parse {_shown(value)}") from None
    return DEFAULT_TOLERANCES.replace(**overrides)


def _read_config(path: str, mode: str, tol: ToleranceConfig) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, mode, tol=tol)


def _initial_state(cfg: RunConfig, tol: ToleranceConfig) -> DensityMatrix:
    st = cfg.initial_state
    if st.kind == "thermal":
        beta = cfg.beta if st.beta is None else st.beta
        return thermal_state(cfg.model.hamiltonian, beta, tol=tol)
    if st.kind == "eigenstate":  # one solve for H, one for the (regularized) projector
        eig = hermitian_eig(cfg.model.hamiltonian, tol=tol)
        return DensityMatrix(_projector(eig.eigenvectors[:, st.k0], st.epsilon), tol=tol)
    try:
        return DensityMatrix(st.matrix, tol=tol)
    except ValidationError as exc:
        raise ConfigError(f"not a valid density matrix: {exc}",
                          path="initial_state.matrix") from None


@contextlib.contextmanager
def _output(path: str):
    """`path` open for writing; an OSError while it is open, written or closed
    is a ConfigError, and what was written before it stays on disk."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from None


def _csv_cell(value: float | None) -> str:
    return "" if value is None else f"{float(value):.17g}"


def run_command(cfg: RunConfig, out_path: str, seed: int, tol: ToleranceConfig) -> int:
    ctx = BatteryContext(cfg.beta, cfg.model)
    rho0 = _initial_state(cfg, tol)
    if rho0.min_eigenvalue <= RANK_THRESHOLD:
        raise ConfigError(
            "initial state is rank deficient; the free-energy operator needs "
            "a full-rank state (add initial_state.epsilon or use audit mode)",
            path="initial_state")
    with _output(out_path) as fh:
        rows = _run_rows(ctx, rho0, cfg.time.t0, cfg.time.offsets(), tol)
        header = next(rows)
        fh.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * len(header)) + "\n"  # _csv_cell of each cell, in one format
        for row in rows:
            try:
                fh.write(line % tuple(row))
            except TypeError:  # a blank power_fd
                fh.write(",".join(map(_csv_cell, row)) + "\n")
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
    with _output(out_path) as fh:
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
    "run": run_command,
    "audit": audit_command,
    "sweep": sweep_command,
    "check": check_command,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = parse_tol_overrides(args.tol)
        cfg = _read_config(args.config, args.mode, tol)
        return _COMMANDS[args.mode](cfg, args.out, args.seed, tol)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QBatteryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
