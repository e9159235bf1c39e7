"""JSON encoding shared by the config parser and the audit reports.

Complex scalars are encoded as [re, im] pairs and matrices as row-major
nested lists of entries; parsing also accepts bare reals as shorthand for
[x, 0].  All floats round-trip exactly (json uses repr).
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import JumpChannel, LindbladModel
from .errors import ConfigError, ValidationError, _shown
from .linalg import HermitianMatrix
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig, _finite, _is_integer, _is_real

__all__ = ["matrix_to_json", "float_from_json", "entry_from_json", "matrix_from_json",
           "model_to_json", "model_from_json"]


def matrix_to_json(matrix) -> list:
    arr = np.asarray(matrix, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in arr.tolist()]


def float_from_json(value, path: str) -> float:
    """float(value) for a JSON number; an integer literal beyond float range
    is a ConfigError at `path`."""
    if not _is_integer(value):
        return float(value)
    if math.isnan(x := _finite(value)):  # an int is nan here only beyond float range
        raise ConfigError("integer is beyond float range", path=path)
    return x


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_keys(obj, allowed, path: str, required=(), needed_by: str = ""):
    """The one check of a JSON object at `path` ("" at the top level): no key
    outside `allowed` (None allows any), and every `required` key present."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'top level'} must be a JSON object", path=path or None)
    if allowed is not None:
        for key in obj:
            if key not in allowed:
                raise ConfigError(f"unknown key {_shown(key)}", path=_join(path, _shown(key, str)))
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing, needed by {needed_by}", path=_join(path, key))


def _as_number(value, path: str, *, minimum=None, exclusive_min=None) -> float:
    if not _is_real(value):
        raise ConfigError(f"expected a number, got {_shown(value)}", path=path)
    x = float_from_json(value, path)
    if not math.isfinite(x):
        raise ConfigError(f"must be finite, got {_shown(value)}", path=path)
    if minimum is not None and x < minimum:
        raise ConfigError(f"must be >= {minimum}, got {_shown(value)}", path=path)
    if exclusive_min is not None and x <= exclusive_min:
        raise ConfigError(f"must be > {exclusive_min}, got {_shown(value)}", path=path)
    return x


def _as_int(value, path: str, *, minimum=None) -> int:
    if not _is_integer(value):
        raise ConfigError(f"expected an integer, got {_shown(value)}", path=path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {_shown(value)}", path=path)
    return int(value)


def entry_from_json(value, path: str) -> complex:
    if _is_real(value):
        return complex(float_from_json(value, path), 0.0)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(x) for x in value):
        return complex(float_from_json(value[0], f"{path}[0]"),
                       float_from_json(value[1], f"{path}[1]"))
    raise ConfigError("matrix entry must be a number or [re, im] pair", path=path)


def _row_from_json(row: list, path: str) -> list:
    """The entries of one row: floats and [re, im] pairs of floats are taken
    as they are, and anything else, ints included, goes through
    entry_from_json, which names the path of an entry it rejects."""
    out = []
    for j, v in enumerate(row):
        kind = type(v)
        if kind is float:
            out.append(v)
        elif kind is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
            out.append(complex(v[0], v[1]))
        else:
            out.append(entry_from_json(v, f"{path}[{j}]"))
    return out


def matrix_from_json(value, path: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError("matrix must be a non-empty list of rows", path=path)
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError("matrix row must be a non-empty list", path=f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError("matrix rows have unequal lengths", path=f"{path}[{i}]")
        rows.append(_row_from_json(row, f"{path}[{i}]"))
    arr = np.array(rows, dtype=complex)
    if arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {arr.shape}", path=path)
    if arr.shape[0] != dim:
        raise ConfigError(f"matrix must be {dim} x {dim}, got {arr.shape[0]} x {arr.shape[0]}",
                          path=path)
    if not np.all(np.isfinite(arr)):
        raise ConfigError("matrix has non-finite entries", path=path)
    return arr


def model_to_json(model: LindbladModel) -> dict:
    return {
        "dim": model.dim,
        "hamiltonian": matrix_to_json(model.hamiltonian.matrix),
        "channels": [
            {"rate": float(ch.rate), "matrix": matrix_to_json(ch.operator)}
            for ch in model.channels
        ],
    }


def model_from_json(data: dict, path: str = "model", *,
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> LindbladModel:
    """Rebuild a model from the dim, hamiltonian and channels of `data`; H
    failing tol.hermiticity is a ConfigError at its path."""
    _require_keys(data, None, path, ("dim", "hamiltonian"), "a model")
    dim = _as_int(data["dim"], _join(path, "dim"))
    h_path = _join(path, "hamiltonian")
    try:
        ham = HermitianMatrix(matrix_from_json(data["hamiltonian"], h_path, dim), tol=tol)
    except ValidationError as exc:
        raise ConfigError(str(exc), path=h_path) from None
    listed = data.get("channels", [])
    if not isinstance(listed, list):
        raise ConfigError("must be a list of channels", path=_join(path, "channels"))
    channels = []
    for j, ch in enumerate(listed):
        ch_path = _join(path, f"channels[{j}]")
        _require_keys(ch, ("rate", "matrix"), ch_path, ("rate", "matrix"), "a channel")
        rate = _as_number(ch["rate"], f"{ch_path}.rate", minimum=0)
        channels.append(JumpChannel(rate, matrix_from_json(ch["matrix"], f"{ch_path}.matrix", dim)))
    return LindbladModel(ham, tuple(channels))
