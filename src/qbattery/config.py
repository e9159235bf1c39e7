"""JSON configuration schema for the command-line tools.

Top-level keys (mode decides which are required):

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
                    to 0; run needs T >= h, an integral multiple of h, while
                    sweep reads only h and takes any T > 0 or none
    epsilons        strictly descending list in (0, 1) for sweep
    trials          positive int for check
    include_bundled bool for check, default true

initial_state.epsilon regularizes the eigenstate projector, (1-e) P + e I/d,
so run mode can take the matrix logarithm; thermal's beta defaults to the
top-level beta.  Unknown keys anywhere are rejected with the offending JSON
path.  config_to_dict is canonical: fixed key order, complex entries always
as [re, im] pairs, so parse -> config_to_dict -> json.dumps -> parse is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel
from .errors import ConfigError
from .jsonio import (_as_int, _as_number, _require_keys, matrix_from_json, matrix_to_json,
                     model_from_json)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "InitialState",
    "TimeGrid",
    "RunConfig",
    "parse_config",
    "config_to_dict",
    "MODES",
    "CHECK_DIM_MAX",
]

MODES = ("run", "audit", "sweep", "check")

# the largest ensemble dimension of check, a desk-scale bound: at d = 10**5 one
# instance would allocate tens of GiB, and past int64 the draw itself fails
CHECK_DIM_MAX = 64

_STATE_KINDS = ("eigenstate", "matrix", "thermal")


@dataclass(frozen=True)
class InitialState:
    kind: str
    k0: int | None = None
    epsilon: float | None = None
    matrix: np.ndarray | None = None
    beta: float | None = None


@dataclass(frozen=True)
class TimeGrid:
    step: float
    horizon: float | None
    t0: float = 0.0

    def grid(self) -> np.ndarray:
        n = round(self.horizon / self.step)
        return self.t0 + np.linspace(0.0, n * self.step, n + 1)


@dataclass(frozen=True)
class RunConfig:
    mode: str
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
        raise ConfigError(f"must lie strictly inside (0, 1), got {value!r}", path=path)
    return e


def _parse_initial_state(data, dim: int, path: str) -> InitialState:
    if not isinstance(data, dict):
        raise ConfigError("initial_state must be an object", path=path)
    kind = data.get("kind")
    if kind not in _STATE_KINDS:
        raise ConfigError(f"kind must be one of {_STATE_KINDS}, got {kind!r}",
                          path=f"{path}.kind")
    if kind == "eigenstate":
        _require_keys(data, ("kind", "k0", "epsilon"), path)
        if "k0" not in data:
            raise ConfigError("eigenstate state needs k0", path=f"{path}.k0")
        k0 = _as_int(data["k0"], f"{path}.k0", minimum=0)
        if k0 >= dim:
            raise ConfigError(f"k0 must be < dim ({dim}), got {k0}", path=f"{path}.k0")
        epsilon = _as_epsilon(data["epsilon"], f"{path}.epsilon") if "epsilon" in data else None
        return InitialState(kind="eigenstate", k0=k0, epsilon=epsilon)
    if kind == "matrix":
        _require_keys(data, ("kind", "matrix"), path)
        if "matrix" not in data:
            raise ConfigError("matrix state needs a matrix", path=f"{path}.matrix")
        m = matrix_from_json(data["matrix"], f"{path}.matrix", dim=dim)
        return InitialState(kind="matrix", matrix=m)
    _require_keys(data, ("kind", "beta"), path)
    beta = _as_number(data["beta"], f"{path}.beta", exclusive_min=0.0) if "beta" in data else None
    return InitialState(kind="thermal", beta=beta)


def _parse_time(data, path: str, mode: str) -> TimeGrid:
    """The grid of `run`; other modes read only the step, so the horizon is
    required and checked against it only for `run`."""
    if not isinstance(data, dict):
        raise ConfigError("time must be an object", path=path)
    _require_keys(data, ("t0", "step", "horizon"), path)
    if mode == "run" and ("step" not in data or "horizon" not in data):
        raise ConfigError("time needs both step and horizon", path=path)
    if "step" not in data:
        raise ConfigError("time needs a step", path=path)
    t0 = _as_number(data.get("t0", 0.0), f"{path}.t0")
    step = _as_number(data["step"], f"{path}.step", exclusive_min=0.0)
    horizon = None
    if "horizon" in data:
        horizon = _as_number(data["horizon"], f"{path}.horizon", exclusive_min=0.0)
    if mode != "run":
        return TimeGrid(step=step, horizon=horizon, t0=t0)
    if horizon < step:
        raise ConfigError("horizon must be at least one step", path=f"{path}.horizon")
    n = horizon / step
    if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
        raise ConfigError(
            f"horizon must be an integral multiple of step, got {horizon}/{step}",
            path=f"{path}.horizon")
    return TimeGrid(step=step, horizon=horizon, t0=t0)


def _parse_epsilons(data, path: str) -> tuple[float, ...]:
    if not isinstance(data, list) or not data:
        raise ConfigError("epsilons must be a non-empty list", path=path)
    values = [_as_epsilon(entry, f"{path}[{i}]") for i, entry in enumerate(data)]
    for i in range(len(values) - 1):
        if values[i + 1] >= values[i]:
            raise ConfigError("epsilons must be strictly descending",
                              path=f"{path}[{i + 1}]")
    return tuple(values)


_TOP_KEYS = ("dim", "beta", "hamiltonian", "channels", "initial_state", "time",
             "epsilons", "trials", "include_bundled")


def parse_config(text: str, mode: str, *,
                 tol: ToleranceConfig = DEFAULT_TOLERANCES) -> RunConfig:
    """Parse and validate a JSON config for `mode`, one of MODES.

    Raises ConfigError with a JSON path for every rejection.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over int's digit limit
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    _require_keys(data, _TOP_KEYS, "")

    if "dim" not in data:
        raise ConfigError("dim is required", path="dim")
    dim = _as_int(data["dim"], "dim", minimum=2)
    beta = _as_number(data.get("beta", 1.0), "beta", exclusive_min=0.0)

    model = None
    if "hamiltonian" in data or "channels" in data:
        if "hamiltonian" not in data:
            raise ConfigError("channels without a hamiltonian", path="hamiltonian")
        model = model_from_json({"dim": dim,
                                 "hamiltonian": data["hamiltonian"],
                                 "channels": data.get("channels", [])},
                                path="", tol=tol)

    initial_state = None
    if "initial_state" in data:
        initial_state = _parse_initial_state(data["initial_state"], dim, "initial_state")

    time = _parse_time(data["time"], "time", mode) if "time" in data else None
    epsilons = _parse_epsilons(data["epsilons"], "epsilons") if "epsilons" in data else None
    trials = _as_int(data["trials"], "trials", minimum=1) if "trials" in data else None
    include_bundled = data.get("include_bundled", True)
    if not isinstance(include_bundled, bool):
        raise ConfigError(f"expected a boolean, got {include_bundled!r}",
                          path="include_bundled")

    if mode == "run":
        if model is None:
            raise ConfigError("run mode needs a hamiltonian", path="hamiltonian")
        if initial_state is None:
            raise ConfigError("run mode needs an initial_state", path="initial_state")
        if time is None:
            raise ConfigError("run mode needs a time grid", path="time")
    elif mode in ("audit", "sweep"):
        if model is None:
            raise ConfigError(f"{mode} mode needs a hamiltonian", path="hamiltonian")
        if initial_state is None or initial_state.kind != "eigenstate":
            raise ConfigError(
                f"{mode} mode needs an eigenstate initial_state with k0",
                path="initial_state")
        if mode == "sweep" and epsilons is None:
            raise ConfigError("sweep mode needs epsilons", path="epsilons")
    elif mode == "check":
        if trials is None:
            raise ConfigError("check mode needs trials", path="trials")
        if dim > CHECK_DIM_MAX:
            raise ConfigError(f"check mode allows dim <= {CHECK_DIM_MAX}, got {dim}",
                              path="dim")

    return RunConfig(mode=mode, dim=dim, beta=beta, model=model,
                     initial_state=initial_state, time=time,
                     epsilons=epsilons, trials=trials,
                     include_bundled=include_bundled)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical dict form: fixed key order, matrices as [re, im] pairs."""
    out: dict = {"dim": cfg.dim, "beta": cfg.beta}
    if cfg.model is not None:
        out["hamiltonian"] = matrix_to_json(cfg.model.hamiltonian.matrix)
        out["channels"] = [{"rate": ch.rate, "matrix": matrix_to_json(ch.operator)}
                           for ch in cfg.model.channels]
    if cfg.initial_state is not None:
        st: dict = {"kind": cfg.initial_state.kind}
        if cfg.initial_state.k0 is not None:
            st["k0"] = cfg.initial_state.k0
        if cfg.initial_state.epsilon is not None:
            st["epsilon"] = cfg.initial_state.epsilon
        if cfg.initial_state.matrix is not None:
            st["matrix"] = matrix_to_json(cfg.initial_state.matrix)
        if cfg.initial_state.beta is not None:
            st["beta"] = cfg.initial_state.beta
        out["initial_state"] = st
    if cfg.time is not None:
        out["time"] = {"t0": cfg.time.t0, "step": cfg.time.step}
        if cfg.time.horizon is not None:
            out["time"]["horizon"] = cfg.time.horizon
    if cfg.epsilons is not None:
        out["epsilons"] = list(cfg.epsilons)
    if cfg.trials is not None:
        out["trials"] = cfg.trials
    out["include_bundled"] = cfg.include_bundled
    return out
