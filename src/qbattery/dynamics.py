"""Validated quantum states, the GKSL generator, and a fixed-step RK4 propagator.

The master equation used throughout is the diagonal GKSL form

    drho/dt = -i [H, rho] + sum_j gamma_j ( L_j rho L_j^dag - {L_j^dag L_j, rho}/2 )

with hbar = k_B = 1.  States are never renormalized during propagation.
`propagate` streams the trajectory one state at a time: each state is
checked against the propagation tolerances (trace, hermiticity, smallest
eigenvalue) before it is yielded, and a breach raises PropagationError.  The
trajectory prefix is whatever the consumer took before the raise; nothing
else keeps it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, ConsistencyError, ParameterError,
                     PropagationError, ValidationError)
from .linalg import (HermitianMatrix, Spectrum, as_square_matrix, dagger,
                     hermitian_eig, max_abs)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "DensityMatrix",
    "JumpChannel",
    "LindbladModel",
    "von_neumann_entropy",
    "dissipator",
    "liouvillian",
    "propagate",
    "regularize",
    "thermal_state",
]


class DensityMatrix:
    """Quantum state: Hermitian, unit trace, positive semidefinite.

    Construction validates all three invariants.  The eigendecomposition is
    computed once and cached; the positivity check, entropy, and matrix
    logarithm all reuse it.  `trace_tol`, `psd_tol` and `herm_tol` override
    the construction tolerances (the propagator passes its looser ones), and
    `basis` warm-starts the eigensolver from nearby eigenvectors.
    """

    __slots__ = ("hermitian", "matrix", "trace_defect", "_spectrum")

    def __init__(self, matrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                 trace_tol: float | None = None, psd_tol: float | None = None,
                 herm_tol: float | None = None, basis: np.ndarray | None = None):
        self.hermitian = HermitianMatrix(matrix, tol=tol, defect_tol=herm_tol)
        self.matrix = self.hermitian.matrix
        trace = complex(np.trace(self.matrix))
        self.trace_defect = abs(trace - 1.0)
        limit = tol.density_trace if trace_tol is None else trace_tol
        if self.trace_defect > limit:
            raise ValidationError(
                f"trace defect {self.trace_defect:.3e} exceeds tolerance {limit:.3e}")
        self._spectrum = hermitian_eig(self.hermitian, basis=basis, tol=tol)
        floor = tol.psd if psd_tol is None else psd_tol
        if self.min_eigenvalue < -floor:
            raise ValidationError(
                f"smallest eigenvalue {self.min_eigenvalue:.3e} below -{floor:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    @property
    def min_eigenvalue(self) -> float:
        return float(self._spectrum.eigenvalues[0])

    @property
    def hermiticity_defect(self) -> float:
        return self.hermitian.defect

    @classmethod
    def pure(cls, vector, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> "DensityMatrix":
        """Projector |v><v| onto the (normalized) vector v."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not np.all(np.isfinite(v)):
            raise ParameterError("pure state vector must be nonzero and finite")
        v = v / norm
        return cls(np.outer(v, np.conj(v)), tol=tol)

    @classmethod
    def maximally_mixed(cls, dim: int, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> "DensityMatrix":
        if dim < 1:
            raise ParameterError("dimension must be positive")
        return cls(np.eye(dim, dtype=complex) / dim, tol=tol)

    def __repr__(self):  # pragma: no cover
        return f"DensityMatrix(dim={self.dim}, trace_defect={self.trace_defect:.2e})"


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i ln lambda_i in nats, with 0 ln 0 = 0.

    Eigenvalues are clipped to [0, 1] first so states carrying allowed
    negativity defects still yield a finite nonnegative entropy.
    """
    lam = np.clip(rho.spectrum.eigenvalues, 0.0, 1.0)
    positive = lam[lam > 0.0]
    return float(-np.sum(positive * np.log(positive)))


@dataclass(frozen=True)
class JumpChannel:
    """Dissipative channel: rate gamma >= 0 (units 1/time) and jump operator L."""

    rate: float
    operator: np.ndarray

    def __post_init__(self):
        rate = self.rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
                or not math.isfinite(float(rate)) or float(rate) < 0.0:
            raise ParameterError(f"channel rate must be finite and >= 0, got {rate!r}")
        object.__setattr__(self, "rate", float(rate))
        op = as_square_matrix(self.operator, "jump operator")
        op.flags.writeable = False
        object.__setattr__(self, "operator", op)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class LindbladModel:
    """Battery Hamiltonian H plus dissipative channels (gamma_j, L_j)."""

    hamiltonian: HermitianMatrix
    channels: tuple[JumpChannel, ...] = ()

    def __post_init__(self):
        ham = self.hamiltonian
        if not isinstance(ham, HermitianMatrix):
            ham = HermitianMatrix(ham)
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "channels", tuple(self.channels))
        if ham.dim < 2:
            raise ValidationError("model dimension must be at least 2")
        for j, ch in enumerate(self.channels):
            if ch.dim != ham.dim:
                raise DimensionError(
                    f"channel {j} has dimension {ch.dim}, expected {ham.dim}")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def _dissipator_matrix(l: np.ndarray, rho: np.ndarray) -> np.ndarray:
    ldag = dagger(l)
    ldl = ldag @ l
    return l @ rho @ ldag - 0.5 * (ldl @ rho + rho @ ldl)


def _generator_terms(model: LindbladModel):
    """Precompute per-channel pieces so the RK4 stages stay cheap."""
    terms = []
    for ch in model.channels:
        if ch.rate != 0.0:
            ldag = dagger(ch.operator)
            terms.append((ch.rate, ch.operator, ldag, ldag @ ch.operator))
    return terms


def _generator_matrix(h: np.ndarray, terms, rho: np.ndarray) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for rate, l, ldag, ldl in terms:
        out = out + rate * (l @ rho @ ldag - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def _check_traceless(matrix: np.ndarray, what: str, tol: ToleranceConfig) -> None:
    defect = abs(complex(np.trace(matrix)))
    if defect > tol.generator_trace * max(1.0, max_abs(matrix)):
        raise ConsistencyError(f"{what} trace defect {defect:.3e}")


def dissipator(l, rho: DensityMatrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """D[rho] = L rho L^dag - {L^dag L, rho}/2, Hermitian and traceless."""
    l = as_square_matrix(l, "jump operator")
    if l.shape[0] != rho.dim:
        raise DimensionError(f"jump operator dimension {l.shape[0]} vs state {rho.dim}")
    out = HermitianMatrix(_dissipator_matrix(l, rho.matrix), tol=tol)
    _check_traceless(out.matrix, "dissipator", tol)
    return out


def liouvillian(model: LindbladModel, rho: DensityMatrix, *,
                tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """Full GKSL right-hand side: -i[H, rho] + sum_j gamma_j D_j[rho]."""
    if rho.dim != model.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {model.dim}")
    raw = _generator_matrix(model.hamiltonian.matrix, _generator_terms(model), rho.matrix)
    out = HermitianMatrix(raw, tol=tol)
    _check_traceless(out.matrix, "liouvillian", tol)
    return out


def _uniform_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise ParameterError("time grid must be a finite 1-d array")
    if grid.size >= 2:
        diffs = np.diff(grid)
        h = float(diffs[0])
        if h <= 0.0:
            raise ParameterError("time grid must be ascending")
        if np.any(np.abs(diffs - h) > 1e-12 * max(1.0, abs(h))):
            raise ParameterError("time grid steps must be uniform")
    return grid


def propagate(model: LindbladModel, rho0: DensityMatrix, t_grid, *,
              tol: ToleranceConfig = DEFAULT_TOLERANCES
              ) -> Iterator[tuple[DensityMatrix, float]]:
    """Classical fixed-step RK4 on the matrix master equation, as a stream.

    The state dimension and the grid (uniform and ascending; the default
    scenario step is 1e-3) are checked when `propagate` is called.  The
    returned iterator yields (state, trace defect) per grid point: first
    (rho0, rho0.trace_defect), then each RK4 state with its raw |tr y - 1|.
    Each step is revalidated with the propagation tolerances (trace defect <=
    propagation_trace, smallest eigenvalue >= -propagation_psd, hermiticity
    within propagation_hermiticity) before it is yielded; a breach raises
    PropagationError carrying the step index and the defects, after exactly
    `step_index` states have been yielded.  No renormalization is applied at
    any point.  The eigendecomposition behind each revalidation starts from
    the previous state's eigenvectors, which differ from the new ones by O(h).
    """
    if rho0.dim != model.dim:
        raise DimensionError(f"state dimension {rho0.dim} vs model {model.dim}")
    return _rk4_states(model, rho0, _uniform_grid(t_grid), tol)


def _rk4_states(model: LindbladModel, state: DensityMatrix, grid: np.ndarray,
                tol: ToleranceConfig) -> Iterator[tuple[DensityMatrix, float]]:
    yield state, state.trace_defect
    if grid.size == 1:
        return
    h = float(grid[1] - grid[0])
    ham = model.hamiltonian.matrix
    terms = _generator_terms(model)
    y = np.array(state.matrix, dtype=complex)

    for i in range(1, grid.size):
        k1 = _generator_matrix(ham, terms, y)
        k2 = _generator_matrix(ham, terms, y + 0.5 * h * k1)
        k3 = _generator_matrix(ham, terms, y + 0.5 * h * k2)
        k4 = _generator_matrix(ham, terms, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        raw_trace = abs(complex(np.trace(y)) - 1.0)
        try:
            state = DensityMatrix(y, tol=tol,
                                  trace_tol=tol.propagation_trace,
                                  psd_tol=tol.propagation_psd,
                                  herm_tol=tol.propagation_hermiticity,
                                  basis=state.spectrum.eigenvectors)
        except ValidationError as exc:
            raise PropagationError(
                f"step {i} (t = {grid[i]:g}): {exc}",
                step_index=i, trace_defect=raw_trace,
                min_eigenvalue=_best_effort_min_eig(y, tol)) from exc
        yield state, raw_trace


def _best_effort_min_eig(y: np.ndarray, tol: ToleranceConfig) -> float | None:
    try:
        herm = HermitianMatrix(y, tol=tol, defect_tol=math.inf)
        return float(hermitian_eig(herm, tol=tol).eigenvalues[0])
    except Exception:  # diagnostics only; never mask the propagation error
        return None


def regularize(rho: DensityMatrix, eps: float, *,
               tol: ToleranceConfig = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Convex mix with the maximally mixed state: (1 - eps) rho + eps I/d."""
    if not (isinstance(eps, (int, float)) and 0.0 < float(eps) < 1.0):
        raise ParameterError(f"eps must lie strictly inside (0, 1), got {eps!r}")
    eps = float(eps)
    mixed = (1.0 - eps) * rho.matrix + (eps / rho.dim) * np.eye(rho.dim)
    return DensityMatrix(mixed, tol=tol)


def thermal_state(hamiltonian, beta: float, *,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z through the spectral decomposition of H.

    The state is diagonal in the eigenbasis of H, so its own eigensolve starts
    there and has nothing left to rotate.
    """
    ham = hamiltonian if isinstance(hamiltonian, HermitianMatrix) \
        else HermitianMatrix(hamiltonian, tol=tol)
    if not (isinstance(beta, (int, float)) and math.isfinite(float(beta)) and float(beta) > 0.0):
        raise ParameterError(f"beta must be finite and positive, got {beta!r}")
    eig = hermitian_eig(ham, tol=tol)
    # shift by the ground energy to keep the exponentials bounded
    weights = np.exp(-float(beta) * (eig.eigenvalues - eig.eigenvalues[0]))
    weights = weights / weights.sum()
    matrix = (eig.eigenvectors * weights) @ dagger(eig.eigenvectors)
    return DensityMatrix(matrix, tol=tol, basis=eig.eigenvectors)
