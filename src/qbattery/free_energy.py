"""Free-energy-operator diagnostics for an open quantum battery.

Core objects, with hbar = k_B = 1:

    F      = H + (1/beta) ln(rho)            free energy operator (full-rank rho)
    <F>    = tr(F rho) = tr(rho H) - S/beta   mean free energy
    deltaF = F - <F> I                        zero-mean fluctuation
    P      = d<F>/dt = tr(rho_dot F)          charging power (generator is trace free)

and the per-channel commutator fluctuation

    Theta_j = < |[deltaF, L_j]|^2 >,  |A|^2 = A A^dag,

evaluated two ways, cross-checked: as an operator expectation and as an
explicit index sum in the deltaF eigenbasis.

These are evaluated for a stack of states at once.  `run`'s rows come from
one stream, _run_rows, which takes propagation's blocks through
_evaluate_rows (_decompose, F's eigensolves as one warm chain, _liouvillians,
_powers, _thetas), each check cutting the block at its first failing row
(linalg._Rows); the sweep's rungs come from a second stream beside it,
_rung_rows (_liouvillians, _decompose, _powers, dynamics._probe_breaches);
<F> = tr(rho H) - S/beta is formed in _mean_free_energies alone.
free_energy_operator, mean_free_energy, power_analytic, theta_operator_form,
theta_index_form and compute_theta_report are their one-state cases and give
the same bits.

The closed forms that apply when the state is an eigenstate of the
Hamiltonian, and the structural vanishing condition they are tested against,
are read for a stack of instances by audit (audit.evaluate_instance is its
one-instance case).

Index conventions: for a basis {|i>}, A^{ik} = <i|A|k> = components[i, k];
w is the spectrum of deltaF, and the index sums are invariant under a common
shift of w.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import (DensityMatrix, LindbladModel, _block_rows, _checked_states,
                       _liouvillians, _mixed, _probe_breaches, _state_blocks)
from .errors import ConsistencyError, DimensionError, RankDeficientError, ValidationError
from .linalg import (HermitianMatrix, Spectrum, _checked_square, _constants, _finite, _hermitian,
                     _Rows, dagger, hermitian_eig_chain)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig, _finite_positive

__all__ = [
    "BatteryContext",
    "FreeEnergyDecomposition",
    "ChannelTheta",
    "ThetaReport",
    "VanishingConditionReport",
    "free_energy_operator",
    "mean_free_energy",
    "power_analytic",
    "power_fd",
    "theta_operator_form",
    "theta_index_form",
    "compute_theta_report",
    "vanishing_condition",
]


# ln(rho) needs a full-rank state: a state eigenvalue at or below this is rank deficient
RANK_THRESHOLD = 1e-12

@dataclass(frozen=True)
class BatteryContext:
    """Inverse temperature and model."""

    beta: float
    model: LindbladModel

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite_positive(self.beta, "beta"))

    @property
    def dim(self) -> int:
        return self.model.dim


@dataclass(frozen=True)
class FreeEnergyDecomposition:
    """F, deltaF = F - <F> I, the mean <F>, and the ln(rho) that F was built
    from.  tr(rho deltaF) = 0 for the state the decomposition was built from;
    this is checked at construction.  F is not eigendecomposed here: only the
    index-form Theta reads its eigensystem (see compute_theta_report)."""

    f_op: HermitianMatrix
    delta_f: HermitianMatrix
    mean: float
    log_rho: HermitianMatrix

    @property
    def dim(self) -> int:
        return self.f_op.dim


def free_energy_operator(rho: DensityMatrix, ctx: BatteryContext, *,
                         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> FreeEnergyDecomposition:
    """F = H + (1/beta) ln(rho) for a full-rank state: the one-state case of
    _decompose.

    ln(rho) is lifted from rho.spectrum and kept on the decomposition.  The
    mean is computed as tr(F rho) and cross-checked against
    mean_free_energy before deltaF is formed; |tr(rho deltaF)| must stay
    within zero_mean * max(1, ||F||_max).  A state eigenvalue at or below
    RANK_THRESHOLD raises RankDeficientError naming it.
    """
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    spectrum = rho.spectrum
    log_rho, f_op, delta, mean = _Rows.single(
        _decompose, rho.matrix[None], spectrum.eigenvalues[None], spectrum.eigenvectors[None],
        np.array([mean_free_energy(rho, ctx)]), ctx, tol)
    return FreeEnergyDecomposition(_first(f_op), _first(delta), float(mean[0]), _first(log_rho))


def _first(stacked) -> HermitianMatrix:
    """The first matrix of a stack as _hermitian returns it."""
    sym, defect = stacked
    return HermitianMatrix._trusted(sym[0], float(defect[0]))


def _decompose(rows: _Rows, rho: np.ndarray, values: np.ndarray, vectors: np.ndarray,
               from_entropy: np.ndarray, ctx: BatteryContext, tol: ToleranceConfig):
    """free_energy_operator of each state of the stack rho (k, d, d), from the
    stacks of its eigenvalues (k, d) and eigenvectors (k, d, d) and of its
    mean_free_energy tr(rho H) - S/beta (k,): ln(rho), F and deltaF as
    _hermitian returns them, and <F> (k,).  A failure cuts `rows`."""
    hamiltonian, beta = ctx.model.hamiltonian, ctx.beta
    smallest = values[:, 0]
    rows.check(smallest <= RANK_THRESHOLD, lambda i: RankDeficientError(
        f"state is rank deficient for ln(rho): smallest eigenvalue "
        f"{smallest[i]:.3e} <= threshold {RANK_THRESHOLD:.3e}",
        smallest_eigenvalue=float(smallest[i])))
    logs = np.zeros(values.shape)
    for i in range(rows.n):  # every eigenvalue is above the threshold
        logs[i] = [math.log(lam) for lam in values[i].tolist()]
    log_rho = _hermitian(rows, (vectors * logs[:, None, :]) @ dagger(vectors), tol)
    # ln(rho)/beta overflows for a small enough beta: F's scan names it, and
    # deltaF's a non-finite <F>; the rest belongs to rows past the cut
    with np.errstate(over="ignore", invalid="ignore"):
        f_op = _hermitian(rows, hamiltonian.matrix + log_rho[0] / beta, tol,
                          f"F = H + ln(rho)/beta at beta = {beta!r}: ")
        mean = (f_op[0] @ rho).trace(axis1=1, axis2=2).real
        rows.check(np.abs(mean - from_entropy) > tol.mean_crosscheck * np.fmax(1.0, np.abs(mean)),
                   lambda i: ConsistencyError(
                       f"<F> disagrees between forms: trace {float(mean[i])!r} "
                       f"vs energy-entropy {float(from_entropy[i])!r}"))
        delta = _hermitian(rows, f_op[0] - mean[:, None, None] * _constants(rho.shape[-1])[0],
                           tol)
        zero_mean = np.abs((rho @ delta[0]).trace(axis1=1, axis2=2))
        bound = tol.zero_mean * np.maximum(1.0, np.abs(f_op[0]).max(axis=(1, 2)))
        rows.check(zero_mean > bound, lambda i: ValidationError(
            f"tr(rho deltaF) = {zero_mean[i]:.3e} is not zero"))
    return log_rho, f_op, delta, mean


def mean_free_energy(rho: DensityMatrix, ctx: BatteryContext) -> float:
    """<F> = tr(rho H) - S(rho)/beta of any valid state: _mean_free_energies of one."""
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    return float(_mean_free_energies(rho.matrix[None], np.array([rho.entropy]), ctx)[1][0])


def _mean_free_energies(rho: np.ndarray, entropy: np.ndarray, ctx: BatteryContext):
    """tr(rho H) and <F> = tr(rho H) - S/beta (k,) of the states rho (k, d, d)
    of entropies `entropy`; a non-finite <F> is named by F's scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = (rho @ ctx.model.hamiltonian.matrix).trace(axis1=1, axis2=2).real
        return energy, energy - entropy / ctx.beta


def power_analytic(rate: HermitianMatrix, decomp: FreeEnergyDecomposition, *,
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Charging power P = d<F>/dt realized as tr(L(rho) F); the one-state case
    of _powers.

    `rate` is the GKSL right-hand side L(rho) (see liouvillian) at the state
    `decomp` was built from.  Exact because tr L(rho) = 0.
    """
    if rate.dim != decomp.dim:
        raise DimensionError(f"rate dimension {rate.dim} vs decomposition {decomp.dim}")
    return float(_Rows.single(_powers, rate.matrix[None], decomp.f_op.matrix[None], tol)[0])


def _powers(rows: _Rows, rate: np.ndarray, f_op: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """power_analytic of each pair (L(rho), F) of the stacks rate and f_op:
    tr(L(rho) F), real to theta_imag * max(1, |P|).  A failure cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers' scans name inf/nan
        value = (rate @ f_op).trace(axis1=1, axis2=2)
        residual = np.abs(value.imag) > tol.theta_imag * np.fmax(1.0, np.abs(value))
    rows.check(residual, lambda i: ConsistencyError(
        f"power has imaginary residual {value[i].imag:.3e}"))
    return value.real


def power_fd(before: DensityMatrix, after: DensityMatrix, step: float,
             ctx: BatteryContext) -> float:
    """Central difference of <F> between the trajectory states one `step`
    before and one `step` after a point; second order in the step."""
    step = _finite_positive(step, "step")
    return (mean_free_energy(after, ctx) - mean_free_energy(before, ctx)) / (2.0 * step)


def theta_operator_form(decomp: FreeEnergyDecomposition, rho: DensityMatrix, l, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Theta = tr(rho |[deltaF, L]|^2); real and nonnegative up to tolerance.
    The one-state case of _operator_thetas."""
    l = _checked_square(l, "jump operator")
    if l.shape[0] != decomp.dim or rho.dim != decomp.dim:
        raise DimensionError("operator, state, and decomposition dimensions differ")
    return float(_Rows.single(_operator_thetas, decomp.delta_f.matrix[None], rho.matrix[None],
                              l, tol)[0])


def _operator_thetas(rows: _Rows, delta: np.ndarray, rho: np.ndarray, l: np.ndarray,
                     tol: ToleranceConfig, context: str = "") -> np.ndarray:
    """theta_operator_form of each pair (deltaF, rho) of the stacks delta and
    rho, for one jump operator l: the commutator C and |C|^2 = C C^dag are
    scanned (their failures prefixed by `context`), then tr(rho |C|^2) must be
    real to theta_imag and not below -theta_psd_slack, both times
    max(1, |Theta|).  A failure cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # both products are scanned
        c = delta @ l - l @ delta
        rows.check(~_finite(c), lambda i: ValidationError(
            f"{context}commutator: non-finite entries in result"))
        squared, _ = _hermitian(rows, c @ dagger(c), tol, context)
        value = (rho @ squared).trace(axis1=1, axis2=2)
        scale = np.fmax(1.0, np.abs(value))
        residual = np.abs(value.imag) > tol.theta_imag * scale
        negative = value.real < -tol.theta_psd_slack * scale
    rows.check(residual, lambda i: ConsistencyError(
        f"Theta has imaginary residual {value[i].imag:.3e}"))
    rows.check(negative, lambda i: ConsistencyError(
        f"Theta = {value[i].real:.3e} is negative beyond the PSD slack"))
    return value.real


def theta_index_form(w, rho_components, l_components, *,
                     tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Explicit index sum for Theta in the deltaF eigenbasis:

        sum_{i,k,l} rho_{lk} L^{ki} conj(L^{li})
                    (w_i^2 - w_i w_l - w_k w_i + w_l w_k)

    The weight factors as (w_i - w_l)(w_i - w_k), so the sum is invariant
    under a common shift of w and vanishes when w is constant.  With
    W^{ki} = L^{ki} (w_i - w_k) it is sum_{l,i} conj(W^{li}) (rho W)^{li},
    which is how it is evaluated.  The one-state case of _index_thetas.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    rho_c = _checked_square(rho_components, "rho components")
    l_c = _checked_square(l_components, "operator components")
    d = w.size
    if rho_c.shape != (d, d) or l_c.shape != (d, d):
        raise DimensionError("component arrays must match the length of w")
    return float(_Rows.single(_index_thetas, w[None], rho_c[None], l_c[None], tol)[0])


def _index_thetas(rows: _Rows, w: np.ndarray, rho_c: np.ndarray, l_c: np.ndarray,
                  tol: ToleranceConfig) -> np.ndarray:
    """theta_index_form of each triple (w, rho components, L components) of the
    stacks (k, d), (k, d, d) and (k, d, d): the components are scanned, then
    the sum must be real to theta_imag * max(1, |Theta|).  A failure cuts `rows`."""
    rows.check(~_finite(rho_c), lambda i: ValidationError("rho components: non-finite entries"))
    rows.check(~_finite(l_c),
               lambda i: ValidationError("operator components: non-finite entries"))
    with np.errstate(over="ignore", invalid="ignore"):  # only rows past the cut
        weighted = l_c * (w[:, None, :] - w[:, :, None])
        total = (weighted.conj() * (rho_c @ weighted)).sum(axis=(1, 2))
        residual = np.abs(total.imag) > tol.theta_imag * np.fmax(1.0, np.abs(total))
    rows.check(residual, lambda i: ConsistencyError(
        f"index-form Theta has imaginary residual {total[i].imag:.3e}"))
    return total.real


@dataclass(frozen=True)
class ChannelTheta:
    """Theta for one channel in both forms; discrepancy = index - operator."""

    theta_operator: float
    theta_index: float
    discrepancy: float


@dataclass(frozen=True)
class ThetaReport:
    channels: tuple[ChannelTheta, ...]


def compute_theta_report(decomp: FreeEnergyDecomposition, f_spectrum: Spectrum,
                         rho: DensityMatrix, model: LindbladModel, *,
                         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ThetaReport:
    """Theta per channel, operator form against index form: the one-state case
    of _thetas.

    The index form reads deltaF's eigensystem from `f_spectrum`, the
    eigendecomposition of decomp.f_op, as w = lambda(F) - <F>: deltaF shares
    F's eigenvectors.  The solve runs on F, not on deltaF: deltaF carries F's
    absolute rounding, about eps * ||F||, so its convergence target belongs on
    F's scale, and where F is nearly a multiple of I (a thermal state) deltaF
    is that rounding alone, on which Jacobi would spend full sweeps.  The two
    evaluations must agree within theta_discrepancy * max(1, Theta); a larger
    gap, from a wrong spectrum too, raises ConsistencyError.
    """
    if f_spectrum.eigenvalues.size != decomp.dim:
        raise DimensionError(f"spectrum dimension {f_spectrum.eigenvalues.size} "
                             f"vs decomposition {decomp.dim}")
    forms = _Rows.single(_thetas, decomp.delta_f.matrix[None], rho.matrix[None],
                         (f_spectrum.eigenvalues - decomp.mean)[None],
                         f_spectrum.eigenvectors[None], model, tol)
    return ThetaReport(tuple(ChannelTheta(float(t_op[0]), float(t_ix[0]),
                                          float(t_ix[0] - t_op[0])) for t_op, t_ix in forms))


def _thetas(rows: _Rows, delta: np.ndarray, rho: np.ndarray, w: np.ndarray, u: np.ndarray,
            model: LindbladModel, tol: ToleranceConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """compute_theta_report of each state of a stack, from the stacks deltaF,
    rho and deltaF's spectra (w, u): per channel of `model`, the operator form,
    then the index form from the components U^dag rho U and U^dag L U (rho, L
    and U were checked when built), then their agreement.  Returns (operator,
    index) forms per channel, each (k,).  A failure cuts `rows`."""
    u_dag, forms = dagger(u), []
    # each product is scanned where it is read, or belongs to rows past the cut
    with np.errstate(over="ignore", invalid="ignore"):
        rho_c = u_dag @ rho @ u
        for j, ch in enumerate(model.channels):
            t_op = _operator_thetas(rows, delta, rho, ch.operator, tol,
                                    f"Theta of channel {j}, |[deltaF, L]|^2: ")
            t_ix = _index_thetas(rows, w, rho_c, u_dag @ ch.operator @ u, tol)
            rows.check(np.abs(t_ix - t_op) > tol.theta_discrepancy * np.fmax(1.0, t_op),
                       lambda i: ConsistencyError(
                           f"channel {j}: Theta forms disagree: operator {float(t_op[i])!r} "
                           f"vs index {float(t_ix[i])!r}"))
            forms.append((t_op, t_ix))
    return forms


def _evaluate_rows(rho: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                   from_entropy: np.ndarray, ctx: BatteryContext, basis: np.ndarray,
                   tol: ToleranceConfig):
    """The values of `run` rows for a block of states, stacked as _decompose
    takes them: _decompose, then F's eigensolves as one warm chain, each from
    the F eigenbasis of the state before (`basis` for the first), then L(rho),
    the power and both Theta forms (_liouvillians, _powers, _thetas).  Every
    value has the bits of the one-state functions.

    Returns the _Rows (rows.n rows passed; rows.error is the first failing
    check of the earliest failing row), <F>, P and the operator-form Theta_j
    of each passed row as lists, and the F eigenbasis of its last row.
    """
    rows = _Rows(len(rho))
    _, (f_op, _), delta, mean = _decompose(rows, rho, values, vectors, from_entropy, ctx, tol)
    w, u = hermitian_eig_chain(rows, f_op, basis, tol=tol)
    if len(u):
        basis = u[-1]
    n = rows.n
    if not n:
        return rows, [], [], [], basis
    power = _powers(rows, _liouvillians(rows, ctx.model, rho[:n], tol)[0], f_op[:n], tol)
    del f_op  # the peak resident set grows with the stacks alive at once
    forms = _thetas(rows, delta[0][:n], rho[:n], w[:n] - mean[:n, None], u[:n], ctx.model, tol)
    columns = [t_op.tolist() for t_op, _ in forms]
    thetas = [[column[i] for column in columns] for i in range(rows.n)]
    return rows, mean[:rows.n].tolist(), power[:rows.n].tolist(), thetas, basis


def _run_rows(ctx: BatteryContext, rho0: DensityMatrix, offsets: np.ndarray,
              tol: ToleranceConfig) -> Iterator[list]:
    """`run`'s rows (the values after `t`) from the full-rank rho0 on the
    uniform ascending `offsets`: propagation's checked blocks through
    _evaluate_rows, F's warm chain started in rho0's eigenbasis (F's own when
    [rho0, H] = 0).  A row is held, pending, until the next state's <F>
    arrives: its power_fd is the central difference of the <F> around it,
    blank for the first row and a row no state follows.  A failing row or a
    breach ends the stream: the rows before it come out, then the failure."""
    step = float(offsets[1] - offsets[0]) if offsets.size > 1 else None
    basis, before, previous, pending, error = rho0.spectrum.eigenvectors, None, None, None, None
    try:
        for rho, _, defect, w, u, entropy in _state_blocks(ctx.model, rho0, offsets, tol):
            energy, mean = _mean_free_energies(rho, entropy, ctx)
            rows, means, powers, thetas, basis = _evaluate_rows(rho, w, u, mean, ctx, basis, tol)
            for i, after in enumerate(mean.tolist()[:rows.n + 1]):  # a failing row's <F> too
                if pending is not None:
                    if before is not None:
                        pending[4] = (after - before) / (2.0 * step)
                    yield pending
                pending = None if i == rows.n else [energy[i], entropy[i], means[i], powers[i],
                                                    None, *thetas[i], defect[i], w[i, 0]]
                before, previous = previous, after
            rows.raise_first()
    except Exception as exc:  # not GeneratorExit, raised at a yield above on close
        error = exc
    if pending is not None:
        yield pending
    if error is not None:
        raise error


def _rung_rows(ctx: BatteryContext, rho0: DensityMatrix, epsilons, step: float,
               tol: ToleranceConfig) -> Iterator[tuple]:
    """The sweep's rungs (epsilon, P, energy rate, entropy rate, step error)
    from the pure rho0, in blocks of _block_rows(d): a block's
    rho_eps = (1 - eps) rho0 + eps I/d checked as one stack (one warm chain
    from rho0's eigenvectors, which they all share), then D(rho_eps) (the
    generator without H), the decomposition, tr(D H), -tr(D ln rho_eps) and
    P = tr(D F) as stacks, then the RK4 probes (dynamics._probe_breaches).
    The first failure that is not a probe's breach raises, in rung order."""
    h = ctx.model.hamiltonian.matrix
    # tr(-i[H, rho_eps] X) is 0 for X = H, F and ln rho_eps, but its rounding is not
    dissipative = LindbladModel(HermitianMatrix(np.zeros_like(h)), ctx.model.channels)
    size = _block_rows(rho0.dim)
    for at in range(0, len(epsilons), size):
        block = epsilons[at:at + size]
        rows = _Rows(len(block))
        rho, _, _, values, vectors, entropies = _checked_states(
            rows, _mixed(rho0.matrix, np.array(block)[:, None, None]),
            rho0.spectrum.eigenvectors, tol, tol.density_trace, tol.psd)
        rate, _ = _liouvillians(rows, dissipative, rho, tol)
        _, mean = _mean_free_energies(rho, entropies, ctx)
        with np.errstate(over="ignore", invalid="ignore"):  # the report names inf/nan
            energy = (rate @ h).trace(axis1=1, axis2=2).real
            log_rho, f_op, _, _ = _decompose(rows, rho, values, vectors, mean, ctx, tol)
            entropy = -(rate @ log_rho[0]).trace(axis1=1, axis2=2).real
        power, n = _powers(rows, rate, f_op[0], tol), rows.n
        step_errors = _probe_breaches(ctx.model, rho[:n], vectors, step, tol)
        rows.raise_first()
        yield from zip(block, power.tolist(), energy.tolist(), entropy.tolist(), step_errors)


@dataclass(frozen=True)
class VanishingConditionReport:
    """Structural condition claimed equivalent to "all Theta_j vanish": H = w_k0
    |k0><k0|, or every L_j acts as a scalar on each eigenvector of H with nonzero
    eigenvalue.  One entry per instance of a stack (`per_channel_trivial`: per
    pair).  It carries no Theta: callers test the equivalence with their own."""

    holds: np.ndarray
    projector_hamiltonian: np.ndarray
    trivial_action: np.ndarray
    per_channel_trivial: np.ndarray


def vanishing_condition(h, w, k0, projectors, components, owner, operator_max, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> VanishingConditionReport:
    """The structural vanishing condition of n instances of one dimension.

    Instance i is eigenstate k0[i] of h[i] = U diag(w[i]) U^dag, with
    projectors[i] = U|k0><k0|U^dag; pair p, a channel of instance owner[p], has
    components[p] = U^dag L_p U and operator_max[p] = ||L_p||_max.  "Acts
    trivially" is read as scalar action: L|v> must lie in span{|v>} within
    predicate_zero for every eigenvector |v> = U|i> whose eigenvalue is nonzero
    at that tolerance.  Off its diagonal, column i of U^dag L U is
    U^dag (L|v> - <v|L|v> |v>), so the residual is that column's norm.  With
    degenerate nonzero eigenvalues the reading depends on the basis the solver
    picked: evidence about one deterministic basis, not a basis-free proof.
    """
    n, d = w.shape
    scale = tol.predicate_zero * np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
    pivot = projectors * w[np.arange(n), k0][:, None, None]
    projector_hamiltonian = np.abs(h - pivot).max(axis=(1, 2)) <= scale
    nonzero = np.abs(w) > scale[:, None]
    residual = np.linalg.norm(components * _constants(d)[1], axis=-2)
    cut = tol.predicate_zero * np.maximum(1.0, operator_max)
    per_channel = ~((residual > cut[:, None]) & nonzero[owner]).any(axis=-1)
    trivial_action = np.bincount(owner[~per_channel], minlength=n) == 0
    return VanishingConditionReport(projector_hamiltonian | trivial_action,
                                    projector_hamiltonian, trivial_action, per_channel)
