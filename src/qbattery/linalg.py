"""Dense complex matrix arithmetic and Hermitian spectral calculus.

Everything heavier in the package (states, GKSL generators, free-energy
diagnostics) sits on the primitives defined here: |A|^2 = A A^dag, a Jacobi
eigensolver for Hermitian matrices, and scalar functions lifted to matrices
through the spectral decomposition.

The eigensolver sweeps in Brent-Luk round-robin order (Brent & Luk, SIAM J.
Sci. Stat. Comput. 6(1), 1985): each round rotates d/2 disjoint pairs at
once, applied as one matrix product.  Jacobi is kept over LAPACK for its
accuracy on small eigenvalues (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
13(4), 1992), which ln(rho) needs, and because it keeps the resident memory
of a run flat; the tie and phase conventions do not depend on the ordering.
Along a trajectory the solver is warm-started from the eigenvectors of the
previous state, which leaves a nearly diagonal matrix that converges in a few
sweeps; exact ties then follow the order of that start basis.  Many cold solves
of one dimension run as one stack (hermitian_eigs), with the same spectra.

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

from .errors import (ConvergenceError, DimensionError, DomainError, QBatteryError,
                     ValidationError)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "dagger",
    "max_abs",
    "as_square_matrix",
    "abs_sq",
    "HermitianMatrix",
    "Spectrum",
    "hermitian_eig",
    "hermitian_eigs",
    "matrix_function",
    "reconstruct",
]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack too."""
    return np.conj(np.asarray(a).swapaxes(-1, -2))


def max_abs(a) -> float:
    """Entrywise max norm ||A||_max = max_ij |a_ij|."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


def _checked_square(a, name: str) -> np.ndarray:
    """`a` as a finite square complex array (d >= 1), not copied: for readers."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(
            f"{name}: expected a square d x d array with d >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: non-finite entries")
    return arr


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return a finite square complex array (d >= 1), copied."""
    return _checked_square(a, name).copy()


def _require_finite(a: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValidationError(f"{context}: non-finite entries in result")
    return a


class HermitianMatrix:
    """Hermitian matrix, symmetrized to M/2 + M^dag/2 at construction.

    The pre-symmetrization defect ||M - M^dag||_max is kept on the instance.
    Inputs whose defect exceeds the hermiticity tolerance (scaled by
    max(1, ||M||_max)) are rejected.  M is only read, never copied or kept.
    """

    __slots__ = ("matrix", "defect")

    def __init__(self, matrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES):
        m = _checked_square(matrix, "hermitian matrix")
        defect_tol = tol.hermiticity * max(1.0, float(np.abs(m).max()))
        defect = float(np.abs(m - m.T.conj()).max())
        if defect > defect_tol:
            raise ValidationError(
                f"hermiticity defect {defect:.3e} exceeds tolerance {defect_tol:.3e}")
        half = 0.5 * m  # halve before adding: M + M^dag overflows above ~9e307
        sym = half + half.T.conj()
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
    phased so its largest-magnitude component is real positive.  Its one
    constructor, the solver's _finish, sorts, phases and checks it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def reconstruct(spectrum: Spectrum) -> np.ndarray:
    """U diag(lambda) U^dag."""
    return (spectrum.eigenvectors * spectrum.eigenvalues) @ dagger(spectrum.eigenvectors)


def _scaled_norm(a: np.ndarray, scale):
    """Frobenius norms of the matrices a (..., d, d), each times its `scale`,
    reduced over the last two axes: a matrix gets the same bits alone as in a stack."""
    x = a * scale[..., None, None]
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def _offdiag_norm(a: np.ndarray, scale):
    """Off-diagonal Frobenius norms of the matrices a (..., d, d) times `scale`."""
    return _scaled_norm(a * _constants(a.shape[-1])[1], scale)


@functools.lru_cache(maxsize=64)
def _constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only complex identity, off-diagonal mask 1 - I and arange(d)."""
    out = (np.eye(d, dtype=complex), 1.0 - np.eye(d), np.arange(d))
    for arr in out:
        arr.flags.writeable = False
    return out


def _convergence_target(m: np.ndarray, tol: ToleranceConfig):
    """||M||_max, a power of two near its inverse (1 for M = 0), and the
    off-diagonal target jacobi_offdiag * ||M||_F, for each matrix in m (..., d, d).

    Norms are taken of the matrices times that power of two: their squares
    neither overflow nor underflow, and the scaling is exact, so comparisons
    between norms taken at the same scale are unchanged.
    """
    size = np.abs(m).max(axis=(-2, -1))
    scale = np.ldexp(1.0, -np.minimum(np.maximum(np.frexp(size)[1], -1023), 1023))
    return size, scale, tol.jacobi_offdiag * _scaled_norm(m, scale)


def _not_converged(off, target, scale, tol: ToleranceConfig) -> ConvergenceError:
    return ConvergenceError(
        f"Jacobi did not converge in {tol.jacobi_max_sweeps} sweeps: "
        f"off-diagonal norm {off / scale:.3e} above target {target / scale:.3e}",
        off_diagonal_norm=float(off / scale))


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


def _rotation_blocks(apq: np.ndarray, r: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Entries (c, s, -s e, c e) at (p, p), (p, q), (q, p), (q, q) of the
    rotations that annihilate the entries apq = a_pq, stacked on a new first
    axis; r = |apq| > 0, e = conj(apq) / r and diff = a_qq - a_pp.  Callers
    ignore overflow: a subnormal r can overflow theta to inf, which gives t = 0.
    """
    phase = np.conj(apq) / r
    theta = diff / (2.0 * r)
    t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
    t[diff == 0.0] = 1.0
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    return np.concatenate((c, s, -s * phase, c * phase)).reshape((4,) + c.shape)


def _finish(a: np.ndarray, v: np.ndarray, m: np.ndarray, size: float,
            tol: ToleranceConfig) -> Spectrum:
    """The sorted, phased and checked spectrum of M = m from the converged
    sweeps a = V^dag M V, v = V."""
    values = a.real.diagonal()
    order = np.argsort(values, kind="stable")
    eigenvalues = values[order]
    vectors = v[:, order]
    # rotations that overflow leave inf or nan on the diagonal; the sort puts
    # nan and inf last and -inf first, so the two ends show any of them
    if not (math.isfinite(eigenvalues[0]) and math.isfinite(eigenvalues[-1])):
        raise ValidationError("eigendecomposition has non-finite entries")

    # fix phases: largest-magnitude component real positive, lowest index wins ties
    pivots = vectors[np.abs(vectors).argmax(axis=0), _constants(m.shape[0])[2]]
    vectors *= np.conj(pivots) / np.abs(pivots)

    unitarity = max_abs(dagger(vectors) @ vectors - _constants(m.shape[0])[0])
    if unitarity > tol.unitarity:
        raise ValidationError(f"eigenvector unitarity defect {unitarity:.3e}")
    residual = max_abs((vectors * eigenvalues) @ dagger(vectors) - m)
    if residual > tol.reconstruction * max(1.0, size):
        raise ValidationError(f"eigendecomposition residual {residual:.3e}")

    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(eigenvalues, vectors)


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
    sweep budget raises ConvergenceError carrying the residual.  Both norms
    are taken of the matrices times a power of two near 1/||M||_max (see
    _convergence_target), so the test holds for any finite magnitude of M.

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
    a = m.matrix  # read only: the first rotation or warm start replaces it
    v = eye = _constants(d)[0]
    size, scale, target = _convergence_target(m.matrix, tol)

    off = _offdiag_norm(a, scale)
    if basis is not None and off > target:
        v = basis @ (1.5 * eye - 0.5 * (dagger(basis) @ basis))
        a = dagger(v) @ m.matrix @ v
        a = 0.5 * (a + dagger(a))
        off = _offdiag_norm(a, scale)

    sweeps = 0
    while off > target:
        if sweeps >= tol.jacobi_max_sweeps:
            raise _not_converged(off, target, scale, tol)
        with np.errstate(over="ignore", invalid="ignore"):  # _finish checks the result
            for p, q, idx in _round_robin(d):
                apq = a[p, q]
                r = np.abs(apq)
                if not r.all():
                    live = r != 0.0
                    if not live.any():
                        continue
                    p, q, apq, r = p[live], q[live], apq[live], r[live]
                    idx = _plane_indices(p, q, d)
                diag = a.real.diagonal()
                # G is the identity except for the 2 x 2 block of each live pair
                g = eye.copy()
                g.put(idx, _rotation_blocks(apq, r, diag[q] - diag[p]))
                a = np.conj(g.T) @ a @ g
                a.put(idx[p.size:3 * p.size], 0.0)
                a.reshape(-1)[::d + 1].imag = 0.0
                v = v @ g
        sweeps += 1
        off = _offdiag_norm(a, scale)

    return _finish(a, v, m.matrix, size, tol)


def _finish_stack(a: np.ndarray, v: np.ndarray, m: np.ndarray, size: np.ndarray,
                  tol: ToleranceConfig) -> list[Spectrum | ValidationError]:
    """_finish of each matrix of the stacks a, v, m (k, d, d), with the sizes
    ||M||_max: the same Spectrum bit for bit, or the ValidationError _finish
    raises for it, from the same guards in the same order.  The guards are
    taken of every matrix; those of a matrix that failed an earlier one are
    not read, and their overflow is ignored."""
    values = np.diagonal(a.real, axis1=-2, axis2=-1)
    order = np.argsort(values, axis=-1, kind="stable")
    eigenvalues = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(v, order[:, None, :], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        pivots = np.take_along_axis(vectors, np.abs(vectors).argmax(axis=-2)[:, None, :], axis=-2)
        vectors *= np.conj(pivots) / np.abs(pivots)
        finite = np.isfinite(eigenvalues).all(axis=-1).tolist()
        unitarity = np.abs(dagger(vectors) @ vectors - _constants(m.shape[-1])[0]
                           ).max(axis=(-2, -1)).tolist()
        residual = np.abs((vectors * eigenvalues[:, None, :]) @ dagger(vectors) - m
                          ).max(axis=(-2, -1)).tolist()
    bound = (tol.reconstruction * np.maximum(1.0, size)).tolist()
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    out = []
    for j, (ok, defect, res, cap) in enumerate(zip(finite, unitarity, residual, bound)):
        if not ok:
            out.append(ValidationError("eigendecomposition has non-finite entries"))
        elif defect > tol.unitarity:
            out.append(ValidationError(f"eigenvector unitarity defect {defect:.3e}"))
        elif res > cap:
            out.append(ValidationError(f"eigendecomposition residual {res:.3e}"))
        else:
            out.append(Spectrum(eigenvalues[j], vectors[j]))
    return out


def hermitian_eigs(matrices, *, tol: ToleranceConfig = DEFAULT_TOLERANCES
                   ) -> tuple[Spectrum | QBatteryError, ...]:
    """hermitian_eig, cold, of many matrices of one dimension, as one (n, d, d) stack.

    Each round rotates every unfinished matrix at once, with one stacked product;
    a dead pair (entry exactly zero) gets an identity block, a matrix with no
    live pair is left as it was, and the matrices that converge in a sweep
    leave the stack and are finished together (_finish_stack).  So each gets
    hermitian_eig's Spectrum bit for bit, or in its place the error
    hermitian_eig raises for it.  No matrices give no results."""
    if not matrices:
        return ()
    m = np.stack([h.matrix for h in matrices])
    n, d, _ = m.shape
    size, scale, target = _convergence_target(m, tol)
    a, v = m.copy(), np.broadcast_to(_constants(d)[0], m.shape).copy()
    ids, out, sweeps = np.arange(n), [None] * n, 0
    while True:
        off = _offdiag_norm(a, scale[ids])
        done = ~(off > target[ids])
        finished = ids[done]
        for i, result in zip(finished.tolist(),
                             _finish_stack(a[done], v[done], m[finished], size[finished], tol)):
            out[i] = result
        a, v, ids, off = a[~done], v[~done], ids[~done], off[~done]
        if not ids.size or sweeps >= tol.jacobi_max_sweeps:
            for i, off_i in zip(ids, off):
                out[i] = _not_converged(off_i, target[i], scale[i], tol)
            return tuple(out)
        with np.errstate(over="ignore", invalid="ignore"):  # _finish_stack checks the result
            for p, q, idx in _round_robin(d):
                apq = a[:, p, q]
                r = np.abs(apq)
                live = r != 0.0
                rotated = live.any(axis=1)[:, None, None]
                if not rotated.any():
                    continue
                blocks = np.zeros((4,) + r.shape, dtype=complex)
                blocks[0] = blocks[3] = 1.0
                diff = (a[:, q, q] - a[:, p, p]).real
                blocks[:, live] = _rotation_blocks(apq[live], r[live], diff[live])
                g = np.tile(_constants(d)[0].ravel(), (ids.size, 1))
                g[:, idx] = blocks.transpose(1, 0, 2).reshape(ids.size, -1)
                g = g.reshape(-1, d, d)
                np.copyto(v, v @ g, where=rotated)
                rotated_a = np.conj(g.swapaxes(1, 2)) @ a @ g
                flat = rotated_a.reshape(ids.size, -1)
                annihilated = idx[p.size:3 * p.size]
                flat[:, annihilated] = np.where(np.tile(live, 2), 0.0, flat[:, annihilated])
                flat[:, ::d + 1].imag = 0.0
                np.copyto(a, rotated_a, where=rotated)
                del g, rotated_a, flat  # before the next round allocates its own
        sweeps += 1


def matrix_function(spectrum: Spectrum, f: Callable[[float], float], *,
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """Lift the real scalar function f to a matrix through its eigendecomposition.

    f is evaluated on each eigenvalue of `spectrum`; a raised ValueError /
    OverflowError / ZeroDivisionError or a non-finite result becomes
    DomainError reporting the offending eigenvalue.
    """
    mapped = np.empty(spectrum.dim, dtype=float)
    for i, lam in enumerate(spectrum.eigenvalues):
        try:
            value = f(float(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"f({lam!r}) undefined: {exc}", eigenvalue=float(lam)) from exc
        if not math.isfinite(value):
            raise DomainError(f"f({lam!r}) = {value!r} is not finite", eigenvalue=float(lam))
        mapped[i] = value
    out = (spectrum.eigenvectors * mapped) @ dagger(spectrum.eigenvectors)
    return HermitianMatrix(out, tol=tol)


def abs_sq(a, *, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianMatrix:
    """|A|^2 = A A^dag, positive semidefinite by construction.

    No eigendecomposition is spent on proving it: a Gram product has no
    negative eigenvalue beyond rounding, and expectations built on it (Theta)
    check their own sign.
    """
    a = _checked_square(a, "a")
    return HermitianMatrix(a @ dagger(a), tol=tol)
