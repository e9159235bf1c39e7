"""Dense complex matrix arithmetic and Hermitian spectral calculus.

Everything heavier in the package (states, GKSL generators, free-energy
diagnostics) sits on the primitives defined here: commutators,
|A|^2 = A A^dag, a Jacobi eigensolver for Hermitian matrices, and scalar
functions lifted to matrices through the spectral decomposition.

The eigensolver sweeps in Brent-Luk round-robin order (Brent & Luk, SIAM J.
Sci. Stat. Comput. 6(1), 1985): each round rotates d/2 disjoint pairs at
once, applied as one matrix product.  Jacobi is kept over LAPACK for its
accuracy on small eigenvalues (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
13(4), 1992), which ln(rho) needs, and because it keeps the resident memory
of a run flat; the tie and phase conventions do not depend on the ordering.
Along a trajectory the solver is warm-started from the eigenvectors of the
previous state, which leaves a nearly diagonal matrix that converges in a few
sweeps; exact ties then follow the order of that start basis.

Matrices are plain complex numpy arrays.  HermitianMatrix and Spectrum wrap
them where extra guarantees have to travel with the data: the symmetrization
defect recorded at construction, the ascending eigenvalue order, and the
phase convention that makes eigenvectors deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, ValidationError
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "dagger",
    "max_abs",
    "as_square_matrix",
    "commutator",
    "abs_sq",
    "HermitianMatrix",
    "Spectrum",
    "hermitian_eig",
    "matrix_function",
    "reconstruct",
]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a).T)


def max_abs(a) -> float:
    """Entrywise max norm ||A||_max = max_ij |a_ij|."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return a finite square complex array (d >= 1), copied."""
    arr = np.array(a, dtype=complex, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(
            f"{name}: expected a square d x d array with d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: non-finite entries")
    return arr


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _require_finite(a: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{context}: non-finite entries in result")
    return a


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    _require_same_dim(a, b)
    return _require_finite(a @ b - b @ a, "commutator")


class HermitianMatrix:
    """Hermitian matrix, symmetrized to (M + M^dag)/2 at construction.

    The pre-symmetrization defect ||M - M^dag||_max is kept on the instance.
    Inputs whose defect exceeds the hermiticity tolerance (scaled by
    max(1, ||M||_max)) are rejected; `defect_tol` substitutes an absolute
    bound when given.
    """

    __slots__ = ("matrix", "defect")

    def __init__(self, matrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                 defect_tol: float | None = None):
        m = as_square_matrix(matrix, "hermitian matrix")
        if defect_tol is None:
            defect_tol = tol.hermiticity * max(1.0, max_abs(m))
        defect = max_abs(m - dagger(m))
        if defect > defect_tol:
            raise ValidationError(
                f"hermiticity defect {defect:.3e} exceeds tolerance {defect_tol:.3e}")
        sym = 0.5 * (m + dagger(m))
        sym.flags.writeable = False
        self.matrix = sym
        self.defect = defect

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):  # pragma: no cover
        return f"HermitianMatrix(dim={self.dim}, defect={self.defect:.2e})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    `eigenvalues` ascend (exact ties keep the order of the start basis: the
    original diagonal order, or the columns of a warm-start basis) and the
    columns of the unitary `eigenvectors` are the matching eigenvectors, each
    phased so its largest-magnitude component is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=complex)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise DimensionError("spectrum shape mismatch")
        if lam.size > 1 and np.any(np.diff(lam) < 0):
            raise ValidationError("eigenvalues are not ascending")

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def reconstruct(spectrum: Spectrum) -> np.ndarray:
    """U diag(lambda) U^dag."""
    return (spectrum.eigenvectors * spectrum.eigenvalues) @ dagger(spectrum.eigenvectors)


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _plane_indices(p: np.ndarray, q: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of the entries (p, p), (p, q), (q, p), (q, q) of a d x d array."""
    return np.concatenate((p * (d + 1), p * d + q, q * d + p, q * (d + 1)))


@functools.lru_cache(maxsize=64)
def _round_robin(d: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Brent-Luk round-robin schedule: one Jacobi sweep as rounds of disjoint pairs.

    Indices 0..n-2 rotate around the fixed index n - 1, with n = d rounded up
    to even; for odd d that fixed index is a dummy whose pairs are dropped.
    Each of the n - 1 rounds is returned as index arrays (p, q) with p < q,
    plus their `_plane_indices`, and every pair p < q < d occurs in exactly
    one round.  At d = 2 and d = 3 the rounds hold one pair each, in the
    cyclic order (0, 1), (0, 2), (1, 2).
    """
    n = d + d % 2
    rounds = []
    for r in range(n - 2, -1, -1):
        pairs = [(r, n - 1)] + [((r + k) % (n - 1), (r - k) % (n - 1))
                                for k in range(1, n // 2)]
        pairs = sorted((min(x, y), max(x, y)) for x, y in pairs if max(x, y) < d)
        p = np.array([x for x, _ in pairs], dtype=np.intp)
        q = np.array([y for _, y in pairs], dtype=np.intp)
        arrays = (p, q, _plane_indices(p, q, d))
        for arr in arrays:
            arr.flags.writeable = False
        rounds.append(arrays)
    return tuple(rounds)


def hermitian_eig(m: HermitianMatrix, *, basis: np.ndarray | None = None,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Spectrum:
    """Eigendecomposition by Jacobi rotations in round-robin order.

    Each sweep visits every pair p < q once, in the rounds of `_round_robin`
    (d - 1 of them, d for odd d).  The pairs of a round are disjoint, so their
    complex plane rotations are computed together and applied as one unitary
    G: A <- G^dag A G and V <- V G, after which the annihilated entries are set
    to zero and the diagonal to its real part.  Pairs whose entry is exactly zero
    are skipped.  Sweeps run until the off-diagonal Frobenius norm falls below
    jacobi_offdiag * ||M||_F; convergence is quadratic, and exhausting the
    sweep budget raises ConvergenceError carrying the residual.

    `basis` warm-starts the sweeps from a unitary B close to the eigenvectors,
    such as those of a nearby matrix: unless M is already diagonal to the
    target, B is first pulled back onto the unitary group by one Newton-Schulz
    step B <- B (3I - B^dag B)/2, which keeps the round-off of a long chain of
    warm starts from accumulating, and the sweeps start from A = B^dag M B,
    V = B.  A nearly diagonal A then converges in a few sweeps.

    Output is deterministic: ascending eigenvalues with stable tie-breaking
    (exact ties keep the order of the diagonal the sweeps ended on, that is of
    the columns of the starting basis: the identity, or B) and eigenvectors
    phased so that their largest-magnitude component is real positive.
    Unitarity and reconstruction against M are verified before returning.
    """
    d = m.dim
    a = np.array(m.matrix, dtype=complex)
    eye = np.eye(d, dtype=complex)
    v = eye
    fro = float(np.linalg.norm(m.matrix))
    target = tol.jacobi_offdiag * fro

    off = _offdiag_norm(a)
    if basis is not None and off > target:
        v = basis @ (1.5 * eye - 0.5 * (dagger(basis) @ basis))
        a = dagger(v) @ m.matrix @ v
        a = 0.5 * (a + dagger(a))
        off = _offdiag_norm(a)

    sweeps = 0
    while off > target:
        if sweeps >= tol.jacobi_max_sweeps:
            raise ConvergenceError(
                f"Jacobi did not converge in {tol.jacobi_max_sweeps} sweeps: "
                f"off-diagonal norm {off:.3e} above target {target:.3e}",
                off_diagonal_norm=off)
        # a subnormal |a_pq| can overflow theta to inf, which gives t = 0
        with np.errstate(over="ignore"):
            for p, q, idx in _round_robin(d):
                apq = a[p, q]
                r = np.abs(apq)
                if not r.all():
                    live = r != 0.0
                    if not live.any():
                        continue
                    p, q, apq, r = p[live], q[live], apq[live], r[live]
                    idx = _plane_indices(p, q, d)
                phase = np.conj(apq) / r
                diag = a.real.diagonal()
                diff = diag[q] - diag[p]
                theta = diff / (2.0 * r)
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
                t[diff == 0.0] = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # G is the identity except for the 2 x 2 block of each live pair
                g = eye.copy()
                g.put(idx, np.concatenate((c, s, -s * phase, c * phase)))
                a = np.conj(g.T) @ a @ g
                a.put(idx[p.size:3 * p.size], 0.0)
                a.reshape(-1)[::d + 1].imag = 0.0
                v = v @ g
        sweeps += 1
        off = _offdiag_norm(a)

    values = np.real(np.diag(a)).astype(float)
    order = np.argsort(values, kind="stable")
    eigenvalues = values[order]
    vectors = v[:, order]

    # fix phases: largest-magnitude component real positive, lowest index wins ties
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(d)]
    vectors *= np.conj(pivots) / np.abs(pivots)

    unitarity = max_abs(dagger(vectors) @ vectors - eye)
    if unitarity > tol.unitarity:
        raise ValidationError(f"eigenvector unitarity defect {unitarity:.3e}")
    residual = max_abs((vectors * eigenvalues) @ dagger(vectors) - m.matrix)
    if residual > tol.reconstruction * max(1.0, max_abs(m.matrix)):
        raise ValidationError(f"eigendecomposition residual {residual:.3e}")

    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(eigenvalues, vectors)


def matrix_function(m: HermitianMatrix, f: Callable[[float], float], *,
                    spectrum: Spectrum | None = None,
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """Lift the real scalar function f to m through its eigendecomposition.

    f is evaluated on each eigenvalue; a raised ValueError / OverflowError /
    ZeroDivisionError or a non-finite result becomes DomainError reporting the
    offending eigenvalue.  Pass `spectrum` to reuse a cached decomposition.
    """
    eig = hermitian_eig(m, tol=tol) if spectrum is None else spectrum
    mapped = np.empty(eig.dim, dtype=float)
    for i, lam in enumerate(eig.eigenvalues):
        try:
            value = f(float(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"f({lam!r}) undefined: {exc}", eigenvalue=float(lam)) from exc
        if not math.isfinite(value):
            raise DomainError(f"f({lam!r}) = {value!r} is not finite", eigenvalue=float(lam))
        mapped[i] = value
    out = (eig.eigenvectors * mapped) @ dagger(eig.eigenvectors)
    return HermitianMatrix(out, tol=tol)


def abs_sq(a, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """|A|^2 = A A^dag, positive semidefinite by construction.

    No eigendecomposition is spent on proving it: a Gram product has no
    negative eigenvalue beyond rounding, and expectations built on it (Theta)
    check their own sign.
    """
    a = as_square_matrix(a, "a")
    return HermitianMatrix(a @ dagger(a), tol=tol)
