"""Dense complex matrix arithmetic and Hermitian spectral calculus.

Everything heavier in the package (states, GKSL generators, free-energy
diagnostics) sits on the primitives defined here: |A|^2 = A A^dag (abs_sq), a
Jacobi eigensolver for Hermitian matrices, and scalar functions lifted to the
matrices of a stack through their eigenvalues (matrix_function, for ln(rho)).

The eigensolver sweeps in Brent-Luk round-robin order (Brent & Luk, SIAM J.
Sci. Stat. Comput. 6(1), 1985): each round rotates d/2 disjoint pairs at
once, applied as one matrix product; the tie and phase conventions do not
depend on the ordering.  Jacobi is kept over LAPACK for the resident memory
of a call, which the benchmark bounds, and not for accuracy: against 40-digit
references on states with smallest eigenvalues down to 1e-12, LAPACK's eigh
followed by Rayleigh quotients is as accurate (ROADMAP, item 10).  In a
process that has already run a d x d matmul, a first np.linalg.eigh at
d = 32 raises the peak resident set by 1620 KiB, 1436 KiB of it OpenBLAS
code pages and 128 KiB libgfortran; a first eigvalsh adds 976 KiB and a
first cholesky 364 KiB (2-vCPU Xeon, numpy 2.4 with scipy-openblas 0.3.31).
Swapping the solver waits on a decision about that bound.
Along a trajectory the solver is warm-started from the eigenvectors of the
previous state, which leaves a nearly diagonal matrix that converges in a few
sweeps; exact ties then follow the order of that start basis.  A block of
such states is one warm chain (hermitian_eig_chain): the whole block is sorted
and phased as one stack from the identity, which finishes every matrix already
diagonal to its target, and the others are swept one by one, each from the
sorted, phased eigenvectors of the one before.  hermitian_eig is its
one-matrix case, and the one solver that wraps its result in a Spectrum: the
stacked solvers return read-only eigenvalue (k, d) and eigenvector (k, d, d)
stacks.  Many cold solves of one dimension run as one stack (hermitian_eigs),
with the same bits: each matrix is parked as it converges, and all are sorted,
phased and guarded in one pass.  Every solve ends in the one sort-and-phase
finish, _sorted_phased_rows, so the chained and stacked solvers differ only in
how they rotate.

Every stacked evaluation in the package reports its failure one way, through
a _Rows: each check cuts it at the first matrix (state, rung, instance) that
fails, so the cut ends at the earliest failing one and at its first failing
check, which is what a loop over the matrices would raise; only the results
before the cut are returned, and a one-matrix function such as hermitian_eig
or HermitianMatrix is the stack's case _Rows.single, raising that failure.

Matrices are plain complex numpy arrays.  HermitianMatrix and Spectrum wrap
them where extra guarantees have to travel with the data: symmetrization
once the hermiticity defect passed its check, the ascending eigenvalue order,
and the phase convention that makes eigenvectors deterministic.
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
    "abs_sq",
    "HermitianMatrix",
    "Spectrum",
    "hermitian_eig",
    "hermitian_eig_chain",
    "hermitian_eigs",
    "matrix_function",
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


class _Rows:
    """The leading rows [0, n) of a stacked evaluation that passed every check
    so far, and `error`, the first check that row n failed (None while all k
    pass).  Applying each row's checks in that row's own order, as cuts, leaves
    the earliest failing row and its first failing check: what evaluating the
    rows one by one would raise first.  Values of rows at or past the cut are
    computed but never read."""

    __slots__ = ("n", "error")

    def __init__(self, k: int):
        self.n, self.error = k, None

    def cut(self, i: int, error: Exception) -> None:
        """Row i < n failed with `error`."""
        self.n, self.error = i, error

    def check(self, bad: np.ndarray, error: Callable[[int], Exception]) -> None:
        """Cut at the first row i < n where `bad` holds; error(i) is its exception."""
        if self.n:
            i = int(bad[:self.n].argmax())  # the first true entry, if there is one
            if bad[i]:
                self.cut(i, error(i))

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error

    @classmethod
    def single(cls, core: Callable, *args, **kwargs):
        """core(rows, *args, **kwargs) on one-row stacks, raising that row's failure."""
        rows = cls(1)
        out = core(rows, *args, **kwargs)
        rows.raise_first()
        return out


def _finite(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack m (k, d, d) is finite."""
    return np.isfinite(m).all(axis=(1, 2))


def _hermitian(rows: _Rows, m: np.ndarray, tol: ToleranceConfig, context: str = ""):
    """HermitianMatrix's checks and symmetrization for each matrix of the stack
    m (k, d, d): the read-only symmetrized stack.  The defect ||M - M^dag||_max
    is bounded by tol.hermiticity times max(1, ||M||_max).  A failure, prefixed
    by `context`, cuts `rows`."""
    size = np.abs(m).max(axis=(1, 2))  # nan or inf where m is not finite
    rows.check(~np.isfinite(size), lambda i: ValidationError(
        f"{context}hermitian matrix: " + ("non-finite entries" if not np.isfinite(m[i]).all()
                                          else "an entry's modulus is beyond the float range")))
    bound = tol.hermiticity * np.maximum(1.0, size)
    with np.errstate(over="ignore", invalid="ignore"):  # only rows past the cut
        defect = np.abs(m - dagger(m)).max(axis=(1, 2))
        rows.check(defect > bound, lambda i: ValidationError(
            f"{context}hermiticity defect {defect[i]:.3e} exceeds tolerance {bound[i]:.3e}"))
        half = 0.5 * m  # halve before adding: M + M^dag overflows above ~9e307
        sym = half + dagger(half)
    sym.flags.writeable = False
    return sym


class HermitianMatrix:
    """Hermitian matrix, symmetrized to M/2 + M^dag/2 at construction.

    Inputs whose defect ||M - M^dag||_max exceeds the hermiticity tolerance
    (scaled by max(1, ||M||_max)) are rejected: the one-matrix case of
    _hermitian.  M is only read, never copied or kept.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, tol: ToleranceConfig = DEFAULT_TOLERANCES):
        m = _checked_square(matrix, "hermitian matrix")
        self.matrix = _Rows.single(_hermitian, m[None], tol)[0]

    @classmethod
    def _trusted(cls, sym: np.ndarray) -> "HermitianMatrix":
        """A HermitianMatrix of `sym`, already symmetrized and read-only: for
        arrays the caller has checked and symmetrized."""
        out = cls.__new__(cls)
        out.matrix = sym
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    `eigenvalues` ascend (exact ties keep the order of the start basis: the
    original diagonal order, or the columns of a warm-start basis) and the
    columns of the unitary `eigenvectors` are the matching eigenvectors, each
    phased so its largest-magnitude component is real positive.  It wraps a
    row of the solver's stacks once _guarded has checked them: in
    hermitian_eig, and for a state's spectrum in DensityMatrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_norm(a: np.ndarray, scale, full: bool = False):
    """Off-diagonal Frobenius norms of the matrices a (..., d, d), each times its
    `scale`, reduced over the last two axes: a matrix gets the same bits alone
    as in a stack.  With `full`, the full norms come first, as a pair."""
    x = a * scale[..., None, None]
    squares = (x.conj() * x).real
    off = np.sqrt(np.add.reduce(squares * _constants(a.shape[-1])[1], axis=(-2, -1)))
    return (np.sqrt(np.add.reduce(squares, axis=(-2, -1))), off) if full else off


@functools.lru_cache(maxsize=64)
def _constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only complex identity, off-diagonal mask 1 - I and arange(d)."""
    out = (np.eye(d, dtype=complex), 1.0 - np.eye(d), np.arange(d))
    for arr in out:
        arr.flags.writeable = False
    return out


def _convergence_target(m: np.ndarray, tol: ToleranceConfig):
    """||M||_max, a power of two near its inverse (1 for M = 0), the target
    jacobi_offdiag * ||M||_F and _offdiag_norm, for each matrix in m (..., d, d).

    Norms are taken of the matrices times that power of two: their squares
    neither overflow nor underflow, and the scaling is exact, so comparisons
    between norms taken at the same scale are unchanged.
    """
    size = np.abs(m).max(axis=(-2, -1))
    scale = np.ldexp(1.0, -np.minimum(np.maximum(np.frexp(size)[1], -1023), 1023))
    norm, off = _offdiag_norm(m, scale, full=True)
    return size, scale, tol.jacobi_offdiag * norm, off


def _not_converged(off, target, scale, tol: ToleranceConfig) -> ConvergenceError:
    return ConvergenceError(
        f"Jacobi did not converge in {tol.jacobi_max_sweeps} sweeps: "
        f"off-diagonal norm {off / scale:.3e} above target {target / scale:.3e}")


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


def _jacobi(m: np.ndarray, basis: np.ndarray | None, off, scale, target,
            tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The converged sweeps a = V^dag M V and v = V of one matrix m above its target (its
    off-diagonal norm `off`), from the start basis `basis` (None: the identity), with the
    norms at `scale`; exhausting the sweep budget raises ConvergenceError.  See hermitian_eig."""
    d = m.shape[0]
    a = m  # read only: the first rotation or warm start replaces it
    v = eye = _constants(d)[0]
    if basis is not None:
        v = basis @ (1.5 * eye - 0.5 * (dagger(basis) @ basis))
        a = dagger(v) @ m @ v
        a = 0.5 * (a + dagger(a))
        off = _offdiag_norm(a, scale)

    sweeps = 0
    while off > target:
        if sweeps >= tol.jacobi_max_sweeps:
            raise _not_converged(off, target, scale, tol)
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
    return a, v


def _sorted_phased_rows(values: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finish of every solve: for each row of the converged diagonals
    `values` (k, d) and eigenvectors v (k, d, d), or one v (1, d, d) for all k
    rows, the eigenvalues in ascending order (stable) and the matching columns
    of v, each phased so that its largest-magnitude component is real
    positive, the lowest index winning ties."""
    order = np.argsort(values, axis=-1, kind="stable")
    i, j = np.arange(len(values))[:, None], _constants(v.shape[-1])[2]
    vectors = v[np.arange(len(v))[:, None, None], j[:, None], order[:, None, :]]
    pivots = vectors[i, np.abs(vectors).argmax(axis=1), j]
    vectors *= (np.conj(pivots) / np.abs(pivots))[:, None, :]
    return values[i, order], vectors


def _guarded(rows: _Rows, eigenvalues: np.ndarray, vectors: np.ndarray, m: np.ndarray,
             size: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sorted and phased eigenvalues (k, d) and eigenvectors (k, d, d) of
    the matrices of the stack m (k, d, d), with the sizes ||M||_max, as
    read-only stacks of the rows before the cut, once they pass the guards, in
    this order: finite eigenvalues (rotations that overflow leave inf or nan on
    the diagonal), eigenvector unitarity, and the residual against M.  A
    failure cuts `rows`.  Callers ignore the overflow of rows past the cut."""
    rows.check(~np.isfinite(eigenvalues).all(axis=-1),
               lambda i: ValidationError("eigendecomposition has non-finite entries"))
    adjoint = dagger(vectors)
    unitarity = np.abs(adjoint @ vectors - _constants(m.shape[-1])[0]).max(axis=(-2, -1))
    rows.check(unitarity > tol.unitarity,
               lambda i: ValidationError(f"eigenvector unitarity defect {unitarity[i]:.3e}"))
    residual = np.abs((vectors * eigenvalues[:, None, :]) @ adjoint - m).max(axis=(-2, -1))
    rows.check(residual > tol.reconstruction * np.maximum(1.0, size),
               lambda i: ValidationError(f"eigendecomposition residual {residual[i]:.3e}"))
    eigenvalues, vectors = eigenvalues[:rows.n], vectors[:rows.n]
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return eigenvalues, vectors


def hermitian_eig(m: HermitianMatrix, *, basis: np.ndarray | None = None,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Spectrum:
    """Eigendecomposition by Jacobi rotations in round-robin order: the
    one-matrix case of hermitian_eig_chain, raising its failure, and the one
    solver that returns a Spectrum.

    Each sweep visits every pair p < q once, in the rounds of `_round_robin`
    (d - 1 of them, d for odd d).  The pairs of a round are disjoint, so their
    complex plane rotations are computed together and applied as one unitary
    G: A <- G^dag A G and V <- V G, after which the annihilated entries are set
    to zero and the diagonal to its real part.  Pairs whose entry is exactly zero
    are skipped.  Sweeps run until the off-diagonal Frobenius norm falls below
    jacobi_offdiag * ||M||_F; convergence is quadratic, and exhausting the
    sweep budget raises ConvergenceError naming the residual.  Both norms
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
    values, vectors = _Rows.single(hermitian_eig_chain, m.matrix[None], basis, tol=tol)
    return Spectrum(values[0], vectors[0])


def hermitian_eig_chain(rows: _Rows, matrices: np.ndarray, basis: np.ndarray | None, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES
                        ) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig of each of the leading rows.n matrices of the stack
    `matrices` (k, d, d), already Hermitian (a HermitianMatrix's `matrix`, or
    _hermitian's stack), in order: the first warm-started from `basis` (None:
    cold), each later one from the sorted, phased eigenvectors of the one
    before it.

    So each row is, bit for bit, the Spectrum a loop of hermitian_eig calls passing each
    result's eigenvectors on would return.  The convergence targets and off-diagonal norms
    are taken for the whole stack first, the guards as one stack last (_guarded).  A matrix
    at its target is not swept and keeps the identity, whatever its start, so the whole
    stack is first sorted and phased from the identity (_sorted_phased_rows), which
    finishes those rows.  Each other row then runs _jacobi, and its one-row stack is
    finished by _sorted_phased_rows in its place.  The first matrix that fails cuts
    `rows`, at its first failing check: convergence, then the guards in their order.
    Returns _guarded's stacks of the rows before it.
    """
    m, d = np.asarray(matrices)[:rows.n], matrices.shape[-1]
    size, scale, target, off = _convergence_target(m, tol)
    values, vectors = _sorted_phased_rows(m.real.diagonal(0, 1, 2), _constants(d)[0][None])
    with np.errstate(over="ignore", invalid="ignore"):  # _guarded checks the result
        for i in (off > target).nonzero()[0].tolist():
            start = vectors[i - 1] if i else basis
            try:
                a, v = _jacobi(m[i], start, off[i], scale[i], target[i], tol)
            except ConvergenceError as exc:
                rows.cut(i, exc)
                break
            values[i:i + 1], vectors[i:i + 1] = _sorted_phased_rows(a.real.diagonal()[None],
                                                                      v[None])
        n = rows.n
        return _guarded(rows, values[:n], vectors[:n], m[:n], size[:n], tol)


def hermitian_eigs(rows: _Rows, matrices: np.ndarray, *,
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig, cold, of each of the leading rows.n matrices of the
    stack `matrices` (k, d, d), already Hermitian, solved together.

    Each round rotates every unconverged matrix at once, with one stacked
    product; a dead pair (entry exactly zero) gets an identity block, and a
    matrix with no live pair is left as it was.  A matrix that converges in a
    sweep is parked and leaves the stack; after the sweeps every parked matrix
    is sorted, phased and guarded in one pass, with hermitian_eig's
    conventions applied row by row, so each row gets its Spectrum bit for bit.
    The first matrix still unconverged at the sweep budget cuts `rows`, and
    the guards may then only move the cut earlier: the cut ends at the earliest
    failing matrix, at its first failing check (convergence, then the guards).
    Returns _guarded's eigenvalue and eigenvector stacks of the rows before the cut."""
    m = np.asarray(matrices)[:rows.n]
    n, d = m.shape[0], m.shape[-1]
    size, scale, target, off = _convergence_target(m, tol)
    a, v = m.copy(), np.broadcast_to(_constants(d)[0], m.shape).copy()
    values, vectors = np.empty((n, d)), np.empty_like(v)
    ids, sweeps = np.arange(n), 0
    with np.errstate(over="ignore", invalid="ignore"):  # _guarded checks the result
        while True:
            done = ~(off > target[ids])
            values[ids[done]] = np.diagonal(a.real, axis1=1, axis2=2)[done]
            vectors[ids[done]] = v[done]
            a, v, ids, off = a[~done], v[~done], ids[~done], off[~done]
            if not ids.size or sweeps >= tol.jacobi_max_sweeps:
                break
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
            off = _offdiag_norm(a, scale[ids])
        if ids.size:
            rows.cut(int(ids[0]), _not_converged(off[0], target[ids[0]], scale[ids[0]], tol))
        values, vectors = _sorted_phased_rows(values[:rows.n], vectors[:rows.n])
        return _guarded(rows, values, vectors, m[:rows.n], size[:rows.n], tol)


def _lifted(f: Callable[[float], float], lam: float) -> float:
    """f(lam), finite, or DomainError naming lam."""
    try:
        value = f(lam)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"f({lam!r}) undefined: {exc}") from exc
    if not math.isfinite(value):
        raise DomainError(f"f({lam!r}) = {value!r} is not finite")
    return value


def matrix_function(rows: _Rows, values: np.ndarray, vectors: np.ndarray,
                    f: Callable[[float], float], tol: ToleranceConfig) -> np.ndarray:
    """The real scalar function f lifted to each matrix of a stack through its
    eigenvalues (k, d) and eigenvectors (k, d, d): V diag(f(lambda)) V^dag, as
    _hermitian returns it.  f is evaluated on each eigenvalue of the leading
    rows.n matrices, as a float; a DomainError of _lifted cuts `rows`."""
    mapped = np.zeros(values.shape)
    for i in range(rows.n):
        try:
            mapped[i] = [_lifted(f, lam) for lam in values[i].tolist()]
        except DomainError as exc:
            rows.cut(i, exc)
            break
    return _hermitian(rows, (vectors * mapped[:, None, :]) @ dagger(vectors), tol)


def abs_sq(rows: _Rows, a: np.ndarray, tol: ToleranceConfig, context: str = "") -> np.ndarray:
    """|A|^2 = A A^dag of each matrix of the stack a (k, d, d), as _hermitian
    returns it, a failure prefixed by `context`: positive semidefinite by
    construction, so no eigensolve proves it (Theta checks its own sign)."""
    return _hermitian(rows, a @ dagger(a), tol, context)
