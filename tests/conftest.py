import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

# pyproject's pythonpath puts src/ on this process's sys.path only; the
# `python -m qbattery` subprocesses some tests start need it in the environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

_FLOAT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64)


@st.composite
def complex_square_matrices(draw, min_dim=2, max_dim=5):
    d = draw(st.integers(min_dim, max_dim))
    flat = draw(st.lists(_FLOAT, min_size=2 * d * d, max_size=2 * d * d))
    re = np.array(flat[: d * d]).reshape(d, d)
    im = np.array(flat[d * d:]).reshape(d, d)
    return re + 1j * im


@st.composite
def hermitian_matrices(draw, min_dim=2, max_dim=5):
    a = draw(complex_square_matrices(min_dim, max_dim))
    return 0.5 * (a + np.conj(a.T))


@st.composite
def density_matrices(draw, min_dim=2, max_dim=5, floor=0.05):
    """Full-rank density matrices with smallest eigenvalue well above 1e-12."""
    a = draw(complex_square_matrices(min_dim, max_dim))
    d = a.shape[0]
    m = a @ np.conj(a.T) + floor * np.eye(d)
    return m / np.trace(m).real


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
