"""Validated quantum states, the GKSL generator, and a fixed-step RK4 propagator.

The master equation used throughout is the diagonal GKSL form

    drho/dt = -i [H, rho] + sum_j gamma_j ( L_j rho L_j^dag - {L_j^dag L_j, rho}/2 )

with hbar = k_B = 1, evaluated as L(rho) = X + X^dag with

    X = K rho + 1/2 sum_j gamma_j L_j rho L_j^dag,   K = -iH - 1/2 sum_j gamma_j L_j^dag L_j

(the effective-Hamiltonian form; Breuer & Petruccione, The Theory of Open
Quantum Systems, OUP 2002).  K and the stacked channels are formed once per
model, so a generator costs three matrix products at any channel count, and
its result is exactly Hermitian: so is every RK4 state, whose hermiticity
defect is exactly 0.

States are never renormalized during propagation.  One RK4 step
(_rk4_step) serves a state and a stack of states.  _state_blocks runs it in
blocks of up to _block_rows(d) states, checks each block as one stack
(_checked_states, of which DensityMatrix is the one-state case: the
construction hermiticity bound, and the propagation bounds on the trace and
the smallest eigenvalue), solving its states as one warm chain, and yields
the checked stacks: `run`'s row stream (free_energy._run_rows) reads them as
they come, and `propagate` hands out one DensityMatrix per row.  A breach
raises PropagationError (_breach) once the states before it are yielded:
the trajectory prefix is what the consumer took, and nothing else keeps it.
The sweep's probes (_probe_breaches) take one step from each state of a stack
and keep each breach's message instead.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, ConsistencyError, ParameterError,
                     PropagationError, ValidationError)
from .linalg import (HermitianMatrix, Spectrum, _checked_square, _hermitian, _Rows,
                     as_square_matrix, dagger, hermitian_eig, hermitian_eig_chain, max_abs)
from .tolerances import (DEFAULT_TOLERANCES, ToleranceConfig, _finite_at_least,
                         _finite_positive, _integer, _open_unit)

__all__ = [
    "DensityMatrix",
    "JumpChannel",
    "LindbladModel",
    "von_neumann_entropy",
    "liouvillian",
    "propagate",
    "regularize",
    "thermal_state",
]


# Bytes of one stacked d x d complex matrix in a block of states (RK4 states,
# `run` rows, `sweep` rungs): a block holds max(1, _BLOCK_BYTES // (16 d^2))
# states, 32 at d = 2, 14 at d = 3 and 1 from d = 9.  A block's states and
# stacks add to the peak resident set: over one row at a time, a qutrit_ladder
# run grew VmHWM by about 20 KiB more at this bound and 56 KiB more at twice
# it, which was no faster.
_BLOCK_BYTES = 2048

_BREACH = "step {} (t = {:g}): {}"  # a breach's message: step index, time, failed check


def _block_rows(dim: int) -> int:
    """States in a block at dimension `dim`."""
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


class DensityMatrix:
    """Quantum state: Hermitian, unit trace, positive semidefinite.

    Construction validates all three invariants: the one-state case of
    _checked_states.  The eigendecomposition is computed once and cached; the
    positivity check, the `entropy` (computed once, here) and the matrix
    logarithm all reuse it.  The checks read tol.hermiticity, tol.density_trace
    and tol.psd, and `basis` warm-starts the eigensolver from nearby
    eigenvectors.
    """

    __slots__ = ("hermitian", "matrix", "trace_defect", "entropy", "_spectrum")

    def __init__(self, matrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                 basis: np.ndarray | None = None):
        m = _checked_square(matrix, "hermitian matrix")
        columns = _Rows.single(_checked_states, m[None], basis, tol, tol.density_trace, tol.psd)
        self._set(columns, 0)

    def _set(self, columns, i: int) -> None:
        sym, defect, trace_defect, values, vectors, entropy = columns
        self.hermitian = HermitianMatrix._trusted(sym[i], float(defect[i]))
        self.matrix, self.trace_defect = sym[i], float(trace_defect[i])
        self._spectrum, self.entropy = Spectrum(values[i], vectors[i]), float(entropy[i])

    @classmethod
    def _trusted(cls, columns, i: int) -> "DensityMatrix":
        """The state of row i of the stacks that _checked_states returned."""
        out = cls.__new__(cls)
        out._set(columns, i)
        return out

    def energy(self, hamiltonian: HermitianMatrix) -> float:
        """tr(rho H)."""
        return float((self.matrix @ hamiltonian.matrix).trace().real)

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
        """Projector |v><v| onto the (normalized) vector v.  v is divided by its
        largest magnitude before its norm is taken, whose square would
        otherwise overflow or underflow at extreme scales."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        largest = max_abs(v)
        if not 0.0 < largest < math.inf:  # nan fails it too
            raise ParameterError("pure state vector must be nonzero and finite")
        # each part divided as a real: complex division multiplies by 1/largest,
        # which overflows for a subnormal largest
        v = v.real / largest + (v.imag / largest) * 1j
        v = v / float(np.linalg.norm(v))
        return cls(np.outer(v, np.conj(v)), tol=tol)

    @classmethod
    def maximally_mixed(cls, dim: int, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> "DensityMatrix":
        dim = _integer(dim, "dim")
        if dim < 1:
            raise ParameterError("dimension must be positive")
        if 16 * dim * dim > sys.maxsize:  # numpy cannot size a complex dim x dim array
            raise ParameterError(f"dim must be at most {math.isqrt(sys.maxsize // 16)}, got {dim}")
        return cls(np.eye(dim, dtype=complex) / dim, tol=tol)

    def __repr__(self):  # pragma: no cover
        return f"DensityMatrix(dim={self.dim}, trace_defect={self.trace_defect:.2e})"


def _checked_states(rows: _Rows, m: np.ndarray, basis: np.ndarray | None, tol: ToleranceConfig,
                    trace: float, psd: float):
    """DensityMatrix's checks of each matrix of the stack m (k, d, d), in its
    order: finite entries and a hermiticity defect within tol.hermiticity *
    max(1, ||M||_max), |tr M - 1| <= `trace`, the eigendecomposition (one
    warm chain from `basis`), and a smallest eigenvalue >= -`psd`.  Returns,
    for the rows that passed, the fields of their states as stacks: the
    symmetrized matrices and their hermiticity defects, the trace defects, the
    eigenvalues and eigenvectors, and the entropies.  A failure cuts `rows`."""
    sym, defect = _hermitian(rows, m, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # only rows past the cut
        trace_defect = np.abs(sym.trace(axis1=1, axis2=2) - 1.0)
    rows.check(trace_defect > trace, lambda i: ValidationError(
        f"trace defect {trace_defect[i]:.3e} exceeds tolerance {trace:.3e}"))
    values, vectors = hermitian_eig_chain(rows, sym, basis, tol=tol)
    smallest = values[:, 0]
    rows.check(smallest < -psd, lambda i: ValidationError(
        f"smallest eigenvalue {smallest[i]:.3e} below -{psd:.3e}"))
    n = rows.n
    return sym[:n], defect[:n], trace_defect[:n], values[:n], vectors[:n], _entropies(values[:n])


def _entropies(values: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of each spectrum of the stack values (k, d)."""
    lam = np.minimum(np.maximum(values, 0.0), 1.0)
    return -(lam * np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i ln lambda_i in nats, with 0 ln 0 = 0, as the
    state computed it at construction.

    Eigenvalues are clipped to [0, 1] first so states carrying allowed
    negativity defects still yield a finite nonnegative entropy.
    """
    return rho.entropy


@dataclass(frozen=True)
class JumpChannel:
    """Dissipative channel: rate gamma >= 0 (units 1/time) and jump operator L."""

    rate: float
    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rate", _finite_at_least(self.rate, 0, "channel rate"))
        op = as_square_matrix(self.operator, "jump operator")
        op.flags.writeable = False
        object.__setattr__(self, "operator", op)

    @classmethod
    def _trusted(cls, rate: float, operator: np.ndarray) -> "JumpChannel":
        """A channel of a float rate >= 0 and a finite square complex array that
        the caller owns: the array is made read-only, not copied or scanned."""
        out = object.__new__(cls)
        operator.flags.writeable = False
        object.__setattr__(out, "rate", rate)
        object.__setattr__(out, "operator", operator)
        return out

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

    @classmethod
    def _trusted(cls, hamiltonian: HermitianMatrix,
                 channels: tuple[JumpChannel, ...]) -> "LindbladModel":
        """A model of channels that match the dimension (at least 2) of `hamiltonian`."""
        out = object.__new__(cls)
        object.__setattr__(out, "hamiltonian", hamiltonian)
        object.__setattr__(out, "channels", channels)
        return out

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @functools.cached_property
    def _generator(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """The pieces of _generator_matrix, formed on first use: K = -iH - 1/2
        sum_j gamma_j L_j^dag L_j and, when a channel has a nonzero rate, the
        stacks (gamma_j/2) L_j and L_j^dag of those channels (J, d, d)."""
        active = [ch for ch in self.channels if ch.rate != 0.0]
        k_op, jumps = -1j * self.hamiltonian.matrix, ()
        if active:
            scaled = np.empty((len(active),) + k_op.shape, dtype=complex)
            daggers = np.empty_like(scaled)
            with np.errstate(over="ignore", invalid="ignore"):  # the generator's scan names inf/nan
                for j, ch in enumerate(active):  # one channel at a time: no (J, d, d) temporaries
                    np.multiply(0.5 * ch.rate, ch.operator, out=scaled[j])
                    np.conjugate(ch.operator.T, out=daggers[j])
                    k_op -= daggers[j] @ scaled[j]
            jumps = (scaled, daggers)
        for arr in (k_op, *jumps):
            arr.flags.writeable = False
        return k_op, jumps or None


def _dissipator_matrix(l: np.ndarray, ldag: np.ndarray, ldl: np.ndarray,
                       rho: np.ndarray) -> np.ndarray:
    """D[rho] = L rho L^dag - {L^dag L, rho}/2 from L, L^dag and L^dag L, of stacks
    too: audit's trace-form power (the generator itself is _generator_matrix)."""
    return l @ rho @ ldag - 0.5 * (ldl @ rho + rho @ ldl)


def _generator_matrix(k_op: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """L(rho) = X + X^dag with X = K rho + 1/2 sum_j gamma_j L_j rho L_j^dag,
    of a state or a stack of states (k, d, d), from LindbladModel._generator:
    three matrix products at any channel count, the channels' as stacks.
    Exactly Hermitian: entry (j, i) is the conjugate of entry (i, j), in
    floating point too."""
    x = k_op @ rho
    if jumps is not None:
        scaled, daggers = jumps
        x += (scaled @ rho[..., None, :, :] @ daggers).sum(axis=-3)
    return x + dagger(x)


def liouvillian(model: LindbladModel, rho: DensityMatrix, *,
                tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """Full GKSL right-hand side: -i[H, rho] + sum_j gamma_j D_j[rho]; the
    one-state case of _liouvillians."""
    if rho.dim != model.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {model.dim}")
    out, defect = _Rows.single(_liouvillians, model, rho.matrix[None], tol)
    return HermitianMatrix._trusted(out[0], float(defect[0]))


def _liouvillians(rows: _Rows, model: LindbladModel, rho: np.ndarray, tol: ToleranceConfig):
    """liouvillian of each state of the stack rho (k, d, d), as _hermitian
    returns it: the generator's scan, then |tr L(rho)| <= generator_trace *
    max(1, ||L(rho)||_max).  A failure cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # _hermitian names inf/nan
        out, defect = _hermitian(rows, _generator_matrix(*model._generator, rho), tol)
        trace = np.abs(out.trace(axis1=1, axis2=2))
        bound = tol.generator_trace * np.maximum(1.0, np.abs(out).max(axis=(1, 2)))
        rows.check(trace > bound,
                   lambda i: ConsistencyError(f"liouvillian trace defect {trace[i]:.3e}"))
    return out, defect


def _uniform_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise ParameterError("time grid must be a finite 1-d array")
    if grid.size >= 2:
        diffs = np.diff(grid)
        h = float(diffs[0])
        if h <= 0.0:
            raise ParameterError("time grid must be ascending")
        # plus a few float spacings of the largest |t|, for the rounding of the times
        spacing = np.spacing(np.abs(grid).max())
        if np.any(np.abs(diffs - h) > 1e-12 * max(1.0, abs(h)) + 4.0 * spacing):
            raise ParameterError("time grid steps must be uniform")
    return grid


def propagate(model: LindbladModel, rho0: DensityMatrix, t_grid, *,
              tol: ToleranceConfig = DEFAULT_TOLERANCES
              ) -> Iterator[tuple[DensityMatrix, float]]:
    """Classical fixed-step RK4 on the matrix master equation, as a stream.

    The state dimension and the grid (uniform and ascending) are checked when
    `propagate` is called.  The returned iterator yields (state, trace defect)
    per grid point: (rho0, rho0.trace_defect), then each RK4 state, a
    DensityMatrix of its row of _state_blocks' stacks, with its |tr y - 1|.  A
    breach raises PropagationError carrying the step index and the defects,
    after exactly `step_index` states have been yielded.  States are never
    renormalized.
    """
    if rho0.dim != model.dim:
        raise DimensionError(f"state dimension {rho0.dim} vs model {model.dim}")
    return _states(rho0, _state_blocks(model, rho0, _uniform_grid(t_grid), tol))


def _states(rho0: DensityMatrix, blocks) -> Iterator[tuple[DensityMatrix, float]]:
    """propagate's pairs: rho0, then each state of `blocks` after the first
    block's first row, which is rho0's."""
    yield rho0, rho0.trace_defect
    for b, columns in enumerate(blocks):
        for i in range(b == 0, len(columns[0])):
            state = DensityMatrix._trusted(columns, i)
            yield state, state.trace_defect


def _state_blocks(model: LindbladModel, rho0: DensityMatrix, grid: np.ndarray,
                  tol: ToleranceConfig) -> Iterator[tuple[np.ndarray, ...]]:
    """The trajectory from rho0 on the uniform ascending `grid`, in blocks of
    _checked_states' column stacks: rho0's row and the first K - 1 RK4 states,
    then K states a block (K = _block_rows(d)).  A block's RK4 states are
    computed when the block is drawn and checked as one stack: hermiticity
    defect <= hermiticity * max(1, ||y||_max), which holds for every RK4 state,
    whose defect is exactly 0 (the generator is X + X^dag), trace defect <=
    propagation_trace and smallest eigenvalue >= -propagation_psd.  Their
    eigendecompositions run as one warm chain, each from the eigenvectors of
    the state before, which differ from the new ones by O(h).  A breach yields
    the states before it (maybe none), then raises _breach's PropagationError;
    any other failure raises as it is."""
    size, (k_op, jumps) = _block_rows(model.dim), model._generator
    h = float(grid[1] - grid[0]) if grid.size > 1 else 0.0
    spectrum, y = rho0.spectrum, rho0.matrix
    lead = (y[None], np.array([rho0.hermiticity_defect]), np.array([rho0.trace_defect]),
            spectrum.eigenvalues[None], spectrum.eigenvectors[None], np.array([rho0.entropy]))
    basis = spectrum.eigenvectors
    for start in range(0, grid.size, size):
        first = max(start, 1)  # the grid index of the block's first RK4 state
        block = np.empty((min(start + size, grid.size) - first,) + y.shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # _checked_states names inf/nan
            for j in range(len(block)):
                y = block[j] = _rk4_step(k_op, jumps, y, h)
        rows = _Rows(len(block))
        columns = _checked_states(rows, block, basis, tol, tol.propagation_trace,
                                  tol.propagation_psd)
        if start == 0:
            columns = tuple(map(np.concatenate, zip(lead, columns)))
        yield columns
        if isinstance(rows.error, ValidationError):
            i = first + rows.n
            raise _breach(i, grid[i], rows.error, block[rows.n], tol) from rows.error
        rows.raise_first()
        basis = columns[4][-1]


def _rk4_step(k_op: np.ndarray, jumps, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of length h, of a state or of each state of a
    stack y (k, d, d), with the generator of _generator_matrix."""
    k1 = _generator_matrix(k_op, jumps, y)
    k2 = _generator_matrix(k_op, jumps, y + 0.5 * h * k1)
    k3 = _generator_matrix(k_op, jumps, y + 0.5 * h * k2)
    k4 = _generator_matrix(k_op, jumps, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _probe_breaches(model: LindbladModel, rho: np.ndarray, bases: np.ndarray, h: float,
                    tol: ToleranceConfig) -> list[str | None]:
    """One RK4 step of length h from each state of the stack rho (k, d, d), of
    eigenvectors `bases`, checked at the propagation bounds: per state, None or
    the message a one-step propagate raises for its breach.  Any other failure
    raises, the first in stack order."""
    with np.errstate(over="ignore", invalid="ignore"):  # _checked_states names inf/nan
        probe = _rk4_step(*model._generator, rho, h)
    breaches, start, n = [None] * len(rho), 0, len(rho)
    # a breach cuts the check, so the probes after it are checked again (k(k + 1)/2
    # solves if all breach); checking each probe alone solves each once, but made
    # the bundled sweeps, where none breaches, 1.2-1.4x slower
    while start < n:
        checked = _Rows(n - start)
        _checked_states(checked, probe[start:], bases[start], tol, tol.propagation_trace,
                        tol.propagation_psd)
        if not isinstance(checked.error, ValidationError):
            checked.raise_first()
            break
        i = start + checked.n
        breaches[i] = _BREACH.format(1, h, checked.error)
        start = i + 1
    return breaches


def _breach(i: int, t: float, error: ValidationError, y: np.ndarray,
            tol: ToleranceConfig) -> PropagationError:
    """The PropagationError of the RK4 state y, at step i and time t, that
    failed a propagation check with `error`."""
    try:
        herm = HermitianMatrix(0.5 * (y + dagger(y)), tol=tol)  # exactly Hermitian
        smallest = float(hermitian_eig(herm, tol=tol).eigenvalues[0])
    except Exception:  # diagnostics only; never mask the propagation error
        smallest = None
    return PropagationError(_BREACH.format(i, t, error), step_index=i,
                            trace_defect=abs(complex(y.trace()) - 1.0), min_eigenvalue=smallest)


def regularize(rho: DensityMatrix, eps: float, *,
               tol: ToleranceConfig = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Convex mix with the maximally mixed state: (1 - eps) rho + eps I/d."""
    return DensityMatrix(_mixed(rho.matrix, _open_unit(eps, "eps")), tol=tol)


def _mixed(rho: np.ndarray, eps) -> np.ndarray:
    """(1 - eps) rho + eps I/d, of one eps or of a stack of them (k, 1, 1)."""
    d = rho.shape[-1]
    return (1.0 - eps) * rho + (eps / d) * np.eye(d)


def thermal_state(hamiltonian, beta: float, *,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z through the spectral decomposition of H.

    The state is diagonal in the eigenbasis of H, so its own eigensolve starts
    there and has nothing left to rotate.
    """
    ham = hamiltonian if isinstance(hamiltonian, HermitianMatrix) \
        else HermitianMatrix(hamiltonian, tol=tol)
    beta = _finite_positive(beta, "beta")
    eig = hermitian_eig(ham, tol=tol)
    # shift by the ground energy to keep the exponentials bounded
    weights = np.exp(-beta * (eig.eigenvalues - eig.eigenvalues[0]))
    weights = weights / weights.sum()
    matrix = (eig.eigenvectors * weights) @ dagger(eig.eigenvectors)
    return DensityMatrix(matrix, tol=tol, basis=eig.eigenvectors)
