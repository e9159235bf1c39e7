"""JSON configuration schema for the command-line tools.

Top-level keys:

    dim             int >= 2; for check mode this is the maximum ensemble
                    dimension (instances are drawn with 2 <= d <= dim), at
                    most CHECK_DIM_MAX = 64
    beta            inverse temperature, finite > 0, default 1.0
    hamiltonian     dim x dim complex matrix, row-major, entries are numbers
                    or [re, im] pairs; Hermitian to tol.hermiticity
    channels        list of {"rate": r >= 0, "matrix": dim x dim}; may be
                    empty or absent for unitary-only models
    initial_state   {"kind": "eigenstate", "k0": k, "epsilon": e?}
                    | {"kind": "matrix", "matrix": [[...]]}
                    | {"kind": "thermal", "beta": b?}
    time            {"t0": s?, "step": h > 0, "horizon": T?}; t0 defaults
                    to 0; run needs T >= h, an integral multiple of h of at
                    most RUN_STEPS_MAX = 10**7 steps, while sweep reads only
                    h and takes any T > 0 or none
    epsilons        strictly descending list in (0, 1) for sweep
    trials          positive int for check, at most CHECK_TRIALS_MAX = 10**4
    include_bundled bool for check, default true

Every mode needs dim; run also needs hamiltonian, initial_state and time
(with horizon); audit hamiltonian and an eigenstate initial_state; sweep
those and epsilons; check trials (_NEEDS).  A missing key is named at its
own path: `time.horizon: missing, needed by run mode`.

initial_state.epsilon regularizes the eigenstate projector, (1-e) P + e I/d,
so run mode can take the matrix logarithm; thermal's beta defaults to the
top-level beta.  Unknown keys anywhere are rejected with the offending JSON
path.  config_to_dict is canonical: fixed key order, complex entries always
as [re, im] pairs, so parse -> config_to_dict -> json.dumps -> parse is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import LindbladModel
from .errors import ConfigError, _shown
from .jsonio import (_as_int, _as_number, _require_keys, matrix_from_json, matrix_to_json,
                     model_from_json, model_to_json)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = ["InitialState", "TimeGrid", "RunConfig", "parse_config", "config_to_dict", "MODES",
           "CHECK_DIM_MAX", "CHECK_TRIALS_MAX", "RUN_STEPS_MAX"]

# the top-level keys each mode needs besides dim, checked after every present value parses
_NEEDS = {
    "run": ("hamiltonian", "initial_state", "time"),
    "audit": ("hamiltonian", "initial_state"),
    "sweep": ("hamiltonian", "initial_state", "epsilons"),
    "check": ("trials",),
}
MODES = tuple(_NEEDS)

# the largest ensemble dimension of check, a desk-scale bound: at d = 10**5 one
# instance would allocate tens of GiB, and past int64 the draw itself fails
CHECK_DIM_MAX = 64

# the most trials of check, which draws every instance before it evaluates
# any: a draw at d = 64 holds about 194 KiB, and draw dimensions are uniform
# on [2, dim], so at dim 64 a draw averages about 67 KiB and 10**4 trials hold
# about 0.65 GB
CHECK_TRIALS_MAX = 10**4

# the most steps of a run grid: run holds two arrays of its length, the
# offsets and t0 + offsets, 8 B a step each, so 10**7 steps hold 160 MB; at a
# few thousand rows/s they also take over an hour
RUN_STEPS_MAX = 10**7

# each initial_state kind: its keys, and the ones it needs
_STATE_KEYS = {
    "eigenstate": (("kind", "k0", "epsilon"), ("k0",)),
    "matrix": (("kind", "matrix"), ("matrix",)),
    "thermal": (("kind", "beta"), ()),
}
_STATE_KINDS = tuple(_STATE_KEYS)


@dataclass(frozen=True)
class InitialState:
    kind: str
    k0: int | None = None
    epsilon: float | None = None
    matrix: np.ndarray | None = None
    beta: float | None = None


@dataclass(frozen=True, kw_only=True)
class TimeGrid:  # fields in the order config_to_dict echoes them
    t0: float = 0.0
    step: float
    horizon: float | None

    def offsets(self) -> np.ndarray:
        """The grid's times less t0: `run` integrates on these, so no row but
        its `t` depends on t0."""
        n = round(self.horizon / self.step)
        return np.linspace(0.0, n * self.step, n + 1)


@dataclass(frozen=True)
class RunConfig:
    dim: int
    beta: float
    model: LindbladModel | None
    initial_state: InitialState | None
    time: TimeGrid | None
    epsilons: tuple[float, ...] | None
    trials: int | None
    include_bundled: bool

    @property
    def k0(self) -> int | None:
        if self.initial_state is not None and self.initial_state.kind == "eigenstate":
            return self.initial_state.k0
        return None


def _as_epsilon(value, path: str) -> float:
    e = _as_number(value, path)
    if not 0.0 < e < 1.0:
        raise ConfigError(f"must lie strictly inside (0, 1), got {_shown(value)}", path=path)
    return e


def _parse_initial_state(data, dim: int, path: str) -> InitialState:
    _require_keys(data, None, path)
    kind = data.get("kind")
    if kind not in _STATE_KINDS:
        raise ConfigError(f"kind must be one of {_STATE_KINDS}, got {_shown(kind)}",
                          path=f"{path}.kind")
    keys, needs = _STATE_KEYS[kind]
    _require_keys(data, keys, path, needs, f"kind {kind!r}")
    if kind == "eigenstate":
        k0 = _as_int(data["k0"], f"{path}.k0", minimum=0)
        if k0 >= dim:
            raise ConfigError(f"k0 must be < dim ({dim}), got {_shown(k0)}", path=f"{path}.k0")
        epsilon = _as_epsilon(data["epsilon"], f"{path}.epsilon") if "epsilon" in data else None
        return InitialState(kind=kind, k0=k0, epsilon=epsilon)
    if kind == "matrix":
        matrix = matrix_from_json(data["matrix"], f"{path}.matrix", dim)
        return InitialState(kind=kind, matrix=matrix)
    beta = _as_number(data["beta"], f"{path}.beta", exclusive_min=0.0) if "beta" in data else None
    return InitialState(kind=kind, beta=beta)


def _parse_time(data, path: str, mode: str) -> TimeGrid:
    """The grid of `run`; other modes read only the step, so the horizon is
    required and checked against it only for `run`."""
    run = mode == "run"
    _require_keys(data, ("t0", "step", "horizon"), path, ("step", "horizon") if run else ("step",),
                  "run mode" if run else "a time grid")
    t0 = _as_number(data.get("t0", 0.0), f"{path}.t0")
    step = _as_number(data["step"], f"{path}.step", exclusive_min=0.0)
    horizon = None
    if "horizon" in data:
        horizon = _as_number(data["horizon"], f"{path}.horizon", exclusive_min=0.0)
    if not run:
        return TimeGrid(t0=t0, step=step, horizon=horizon)
    if horizon < step:
        raise ConfigError("horizon must be at least one step", path=f"{path}.horizon")
    n = horizon / step
    if not n < RUN_STEPS_MAX + 0.5:  # also an n that overflowed to inf
        raise ConfigError(f"run mode allows at most {RUN_STEPS_MAX} steps, got {horizon}/{step}",
                          path=f"{path}.horizon")
    if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
        raise ConfigError(f"horizon must be an integral multiple of step, got {horizon}/{step}",
                          path=f"{path}.horizon")
    return TimeGrid(t0=t0, step=step, horizon=horizon)


def _parse_epsilons(data, path: str) -> tuple[float, ...]:
    if not isinstance(data, list) or not data:
        raise ConfigError("epsilons must be a non-empty list", path=path)
    values = [_as_epsilon(entry, f"{path}[{i}]") for i, entry in enumerate(data)]
    for i in range(1, len(values)):
        if values[i] >= values[i - 1]:
            raise ConfigError("epsilons must be strictly descending", path=f"{path}[{i}]")
    return tuple(values)


_TOP_KEYS = ("dim", "beta", "hamiltonian", "channels", "initial_state", "time",
             "epsilons", "trials", "include_bundled")


def parse_config(text: str, mode: str, *,
                 tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RunConfig:
    """Parse and validate a JSON config for `mode`, one of MODES; every
    rejection is a ConfigError naming its JSON path."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit, depth
        raise ConfigError(f"invalid JSON: {exc}") from None
    _require_keys(data, _TOP_KEYS, "", ("dim",), f"{mode} mode")
    dim = _as_int(data["dim"], "dim", minimum=2)
    beta = _as_number(data.get("beta", 1.0), "beta", exclusive_min=0.0)

    if "channels" in data and "hamiltonian" not in data:
        raise ConfigError("channels without a hamiltonian", path="hamiltonian")
    model = model_from_json(data, path="", tol=tol) if "hamiltonian" in data else None

    initial_state = None
    if "initial_state" in data:
        initial_state = _parse_initial_state(data["initial_state"], dim, "initial_state")

    time = _parse_time(data["time"], "time", mode) if "time" in data else None
    epsilons = _parse_epsilons(data["epsilons"], "epsilons") if "epsilons" in data else None
    trials = _as_int(data["trials"], "trials", minimum=1) if "trials" in data else None
    include_bundled = data.get("include_bundled", True)
    if not isinstance(include_bundled, bool):
        raise ConfigError(f"expected a boolean, got {_shown(include_bundled)}",
                          path="include_bundled")

    _require_keys(data, None, "", _NEEDS[mode], f"{mode} mode")
    if mode in ("audit", "sweep") and initial_state.kind != "eigenstate":
        raise ConfigError(f"{mode} mode needs an eigenstate initial_state with k0",
                          path="initial_state")
    if mode == "check" and dim > CHECK_DIM_MAX:
        raise ConfigError(f"check mode allows dim <= {CHECK_DIM_MAX}, got {_shown(dim)}",
                          path="dim")
    if mode == "check" and trials > CHECK_TRIALS_MAX:
        raise ConfigError(f"check mode allows trials <= {CHECK_TRIALS_MAX}, got {_shown(trials)}",
                          path="trials")

    return RunConfig(dim=dim, beta=beta, model=model, initial_state=initial_state, time=time,
                     epsilons=epsilons, trials=trials, include_bundled=include_bundled)


def _set_fields(section) -> dict:
    """A section's set fields in declaration order, matrices as [re, im] pairs."""
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if value is not None:
            out[f.name] = matrix_to_json(value) if isinstance(value, np.ndarray) else value
    return out


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical dict form: fixed key order, matrices as [re, im] pairs."""
    out: dict = {"dim": cfg.dim, "beta": cfg.beta}
    if cfg.model is not None:
        out.update(model_to_json(cfg.model))
    if cfg.initial_state is not None:
        out["initial_state"] = _set_fields(cfg.initial_state)
    if cfg.time is not None:
        out["time"] = _set_fields(cfg.time)
    if cfg.epsilons is not None:
        out["epsilons"] = list(cfg.epsilons)
    if cfg.trials is not None:
        out["trials"] = cfg.trials
    out["include_bundled"] = cfg.include_bundled
    return out
