"""JSON encoding shared by the config parser and the audit reports.

Complex scalars are encoded as [re, im] pairs and matrices as row-major
nested lists of entries; parsing also accepts bare reals as shorthand for
[x, 0].  All floats round-trip exactly (json uses repr).
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import JumpChannel, LindbladModel
from .errors import ConfigError, ValidationError
from .linalg import HermitianMatrix
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig, _is_integer, _is_real

__all__ = [
    "complex_to_pair",
    "matrix_to_json",
    "float_from_json",
    "entry_from_json",
    "matrix_from_json",
    "model_to_json",
    "model_from_json",
]


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(matrix) -> list:
    arr = np.asarray(matrix, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in arr]


def float_from_json(value, path: str) -> float:
    """float(value) for a JSON number; an integer literal beyond float range
    is a ConfigError at `path`."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError("integer is beyond float range", path=path) from None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_keys(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", path=_join(path, key))


def _as_number(value, path: str, *, minimum=None, exclusive_min=None) -> float:
    if not _is_real(value):
        raise ConfigError(f"expected a number, got {value!r}", path=path)
    x = float_from_json(value, path)
    if not math.isfinite(x):
        raise ConfigError(f"must be finite, got {value!r}", path=path)
    if minimum is not None and x < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", path=path)
    if exclusive_min is not None and x <= exclusive_min:
        raise ConfigError(f"must be > {exclusive_min}, got {value!r}", path=path)
    return x


def _as_int(value, path: str, *, minimum=None) -> int:
    if not _is_integer(value):
        raise ConfigError(f"expected an integer, got {value!r}", path=path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", path=path)
    return int(value)


def entry_from_json(value, path: str) -> complex:
    if _is_real(value):
        return complex(float_from_json(value, path), 0.0)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(x) for x in value):
        return complex(float_from_json(value[0], f"{path}[0]"),
                       float_from_json(value[1], f"{path}[1]"))
    raise ConfigError("matrix entry must be a number or [re, im] pair", path=path)


_PLAIN = (int, float)   # exact types: bool, a subclass of int, is not a number here


def _row_from_json(row: list, path: str) -> list:
    """The entries of one row: plain numbers and [re, im] pairs of them are
    taken as they are, and anything else goes through entry_from_json."""
    out = []
    for j, v in enumerate(row):
        kind = type(v)
        if kind in _PLAIN:
            out.append(v)
        elif kind is list and len(v) == 2 and type(v[0]) in _PLAIN and type(v[1]) in _PLAIN:
            out.append(complex(v[0], v[1]))
        else:
            out.append(entry_from_json(v, f"{path}[{j}]"))
    return out


def matrix_from_json(value, path: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError("matrix must be a non-empty list of rows", path=path)
    rows = []
    width = None
    try:
        for i, row in enumerate(value):
            if not isinstance(row, list) or not row:
                raise ConfigError("matrix row must be a non-empty list", path=f"{path}[{i}]")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError("matrix rows have unequal lengths", path=f"{path}[{i}]")
            rows.append(_row_from_json(row, f"{path}[{i}]"))
        arr = np.array(rows, dtype=complex)
    except OverflowError:
        # an integer beyond float range: entry_from_json names its path
        for i, row in enumerate(value):
            for j, v in enumerate(row):
                entry_from_json(v, f"{path}[{i}][{j}]")
        raise
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
    """Rebuild a model; H failing tol.hermiticity is a ConfigError at its path."""
    if "dim" not in data or "hamiltonian" not in data:
        raise ConfigError("model needs dim and hamiltonian", path=path)
    dim = _as_int(data["dim"], _join(path, "dim"))
    h_path = _join(path, "hamiltonian")
    try:
        ham = HermitianMatrix(matrix_from_json(data["hamiltonian"], h_path, dim), tol=tol)
    except ValidationError as exc:
        raise ConfigError(str(exc), path=h_path) from None
    channels = []
    for j, ch in enumerate(data.get("channels", ())):
        ch_path = _join(path, f"channels[{j}]")
        if not isinstance(ch, dict):
            raise ConfigError("channel must be an object", path=ch_path)
        _require_keys(ch, ("rate", "matrix"), ch_path)
        if "rate" not in ch or "matrix" not in ch:
            raise ConfigError("channel needs rate and matrix", path=ch_path)
        rate = _as_number(ch["rate"], f"{ch_path}.rate", minimum=0)
        channels.append(JumpChannel(rate, matrix_from_json(ch["matrix"], f"{ch_path}.matrix", dim)))
    return LindbladModel(ham, tuple(channels))
