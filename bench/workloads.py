"""Seeded inputs and call plans for the benchmark workloads.

The CLI only ever sees the JSON configs written here.  `configs` is pure: the
same workload and seed give byte-identical config texts, which is what makes
every count metric repeat exactly on a held-out seed.

* run_bundled: `run` on the three bundled run scenarios (d = 2, 3, 2; 1001
  rows each; two start 1e-6 from rank deficiency).  Per-row Python work
  dominates; the seed only permutes the scenario order.
* run_dense: `run` on one Ginibre model per seed at d = 32 (the target
  size), two jump channels of rate 0.5 scaled by 1/sqrt(d), thermal start at
  beta = 1, step 1e-3.  The eigensolver dominates; its sweep count varies by
  under 2 % between seeds.
* claims: a seeded `check` on a dim-6 ensemble, plus `audit` and `sweep` on
  three bundled eigenstate scenarios.  No trajectory is integrated.

Each config has a role.  "ops" configs give the throughput; "query" configs
give the latency of a short call: `audit` and `sweep` for claims, and for the
run workloads a one-step `run` (two rows) of each model, which carries the
per-call cost (parsing, model set-up, the initial state) that the full runs
spread over their rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

RUN_SCENARIOS = ("qubit_sigma_x", "qutrit_ladder", "thermal_stationary")
CLAIM_SCENARIOS = ("qubit_sigma_x", "qubit_dark_state", "qutrit_ladder")
DENSE_DIM = 32
DENSE_CHANNELS = 2
DENSE_RATE = 0.5
DENSE_STEPS = 4          # rows per dense call = DENSE_STEPS + 1
CHECK_DIM = 6
CHECK_TRIALS = 400
# Rounds of query calls after each ops call: enough to give each query tens
# to hundreds of samples per run, spread over it, without taking most of its
# time.
QUERY_REPEATS = {"run_bundled": 2, "run_dense": 2, "claims": 10}

WORKLOADS = ("run_bundled", "run_dense", "claims")


@dataclass(frozen=True)
class Config:
    """One generated config: a file stem, the CLI modes that read it, its
    text, and whether its calls count for throughput ("ops") or latency
    ("query")."""

    name: str
    modes: tuple[str, ...]
    text: str
    role: str = "ops"


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def dense_config(rng: np.random.Generator) -> dict:
    d = DENSE_DIM
    g = _ginibre(rng, d)
    h = 0.5 * (g + g.conj().T)
    channels = [{"rate": DENSE_RATE, "matrix": _pairs(_ginibre(rng, d) / math.sqrt(d))}
                for _ in range(DENSE_CHANNELS)]
    step = 1e-3
    return {
        "dim": d,
        "beta": 1.0,
        "hamiltonian": _pairs(h),
        "channels": channels,
        "initial_state": {"kind": "thermal"},
        "time": {"t0": 0.0, "step": step, "horizon": DENSE_STEPS * step},
    }


def configs(workload: str, seed: int) -> list[Config]:
    """The workload's configs for this seed, in the order the timed loop uses."""
    rng = np.random.default_rng(seed)
    if workload == "run_bundled":
        order = rng.permutation(len(RUN_SCENARIOS))
        full = [Config(RUN_SCENARIOS[i], ("run",),
                       (SCENARIOS / f"{RUN_SCENARIOS[i]}.json").read_text(encoding="utf-8"))
                for i in order]
        return full + [_one_step(cfg) for cfg in full]
    if workload == "run_dense":
        full = Config("dense", ("run",), json.dumps(dense_config(rng)))
        return [full, _one_step(full)]
    if workload == "claims":
        ensemble = {"dim": CHECK_DIM, "beta": 1.0, "trials": CHECK_TRIALS,
                    "include_bundled": True}
        out = [Config("ensemble", ("check",), json.dumps(ensemble))]
        out.extend(Config(name, ("audit", "sweep"),
                          (SCENARIOS / f"{name}.json").read_text(encoding="utf-8"), "query")
                   for name in CLAIM_SCENARIOS)
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def _one_step(cfg: Config) -> Config:
    """The same model run for one step only."""
    data = json.loads(cfg.text)
    data["time"]["horizon"] = data["time"]["step"]
    return Config(f"{cfg.name}.step", cfg.modes, json.dumps(data), "query")


def setup(workload: str, seed: int) -> int:
    """What a fresh process pays before the first call: import the package,
    then generate and parse the workload's configs.  Returns the parse count."""
    from qbattery.config import parse_config

    parsed = 0
    for cfg in configs(workload, seed):
        for mode in cfg.modes:
            parse_config(cfg.text, mode)
            parsed += 1
    return parsed
