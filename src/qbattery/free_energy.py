"""Free-energy-operator diagnostics for an open quantum battery.

Core objects, with hbar = k_B = 1:

    F      = H + (1/beta) ln(rho)            free energy operator (full-rank rho)
    <F>    = tr(F rho) = tr(rho H) - S/beta   mean free energy
    deltaF = F - <F> I                        zero-mean fluctuation
    P      = d<F>/dt = tr(rho_dot F)          charging power (generator is trace free)

and the per-channel commutator fluctuation

    Theta_j = < |[deltaF, L_j]|^2 >,  |A|^2 = A A^dag,

evaluated two ways, cross-checked: as an operator expectation and as an
explicit index sum in the deltaF eigenbasis.  The closed forms that apply
when the state is an eigenstate of the Hamiltonian, and the structural
vanishing condition they are tested against, are read for a stack of
instances by audit (audit.evaluate_instance is its one-instance case).

Index conventions: for a basis {|i>}, A^{ik} = <i|A|k> = components[i, k];
w is the spectrum of deltaF, and the index sums are invariant under a common
shift of w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, LindbladModel
from .errors import (ConsistencyError, DimensionError, ParameterError,
                     RankDeficientError, ValidationError)
from .linalg import (HermitianMatrix, Spectrum, _checked_square, _constants, _require_finite,
                     abs_sq, dagger, matrix_function, max_abs)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

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


@dataclass(frozen=True)
class BatteryContext:
    """Inverse temperature, model, and the full-rank threshold for ln(rho)."""

    beta: float
    model: LindbladModel
    rank_threshold: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.beta, (int, float)) and math.isfinite(float(self.beta))
                and float(self.beta) > 0.0):
            raise ParameterError(f"beta must be finite and positive, got {self.beta!r}")
        object.__setattr__(self, "beta", float(self.beta))
        if not (self.rank_threshold > 0.0 and math.isfinite(self.rank_threshold)):
            raise ParameterError("rank_threshold must be finite and positive")

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
    """F = H + (1/beta) ln(rho) for a full-rank state.

    ln(rho) is lifted from rho.spectrum and kept on the decomposition.  The
    mean is computed as tr(F rho) and cross-checked against
    mean_free_energy before deltaF is formed; |tr(rho deltaF)| must stay
    within zero_mean * max(1, ||F||_max).  A state eigenvalue at or below
    ctx.rank_threshold raises RankDeficientError naming it.
    """
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    smallest = float(rho.spectrum.eigenvalues[0])
    if smallest <= ctx.rank_threshold:
        raise RankDeficientError(
            f"state is rank deficient for ln(rho): smallest eigenvalue "
            f"{smallest:.3e} <= threshold {ctx.rank_threshold:.3e}",
            smallest_eigenvalue=smallest)
    log_rho = matrix_function(rho.spectrum, math.log, tol=tol)
    # ln(rho)/beta overflows for a small enough beta; HermitianMatrix scans it
    with np.errstate(over="ignore", invalid="ignore"):
        f_matrix = ctx.model.hamiltonian.matrix + log_rho.matrix / ctx.beta
    try:
        f_op = HermitianMatrix(f_matrix, tol=tol)
    except ValidationError as exc:
        raise ValidationError(f"F = H + ln(rho)/beta at beta = {ctx.beta!r}: {exc}") from exc
    mean = float((f_op.matrix @ rho.matrix).trace().real)
    # mean_free_energy's arithmetic, on the tr(rho H) the state keeps
    mean_from_entropy = rho.energy(ctx.model.hamiltonian) - rho.entropy / ctx.beta
    if abs(mean - mean_from_entropy) > tol.mean_crosscheck * max(1.0, abs(mean)):
        raise ConsistencyError(
            f"<F> disagrees between forms: trace {mean!r} "
            f"vs energy-entropy {mean_from_entropy!r}")
    delta = HermitianMatrix(f_op.matrix - mean * _constants(f_op.dim)[0], tol=tol)
    zero_mean = abs(complex((rho.matrix @ delta.matrix).trace()))
    if zero_mean > tol.zero_mean * max(1.0, max_abs(f_op.matrix)):
        raise ValidationError(f"tr(rho deltaF) = {zero_mean:.3e} is not zero")
    return FreeEnergyDecomposition(f_op, delta, mean, log_rho)


def mean_free_energy(rho: DensityMatrix, ctx: BatteryContext) -> float:
    """<F> = tr(rho H) - S(rho)/beta; defined for any valid state (0 ln 0 = 0)."""
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    return rho.energy(ctx.model.hamiltonian) - rho.entropy / ctx.beta


def power_analytic(rate: HermitianMatrix, decomp: FreeEnergyDecomposition, *,
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Charging power P = d<F>/dt realized as tr(L(rho) F).

    `rate` is the GKSL right-hand side L(rho) (see liouvillian) at the state
    `decomp` was built from.  Exact because tr L(rho) = 0.
    """
    if rate.dim != decomp.dim:
        raise DimensionError(f"rate dimension {rate.dim} vs decomposition {decomp.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # callers' scans name inf/nan
        value = complex((rate.matrix @ decomp.f_op.matrix).trace())
    if abs(value.imag) > tol.theta_imag * max(1.0, abs(value)):
        raise ConsistencyError(f"power has imaginary residual {value.imag:.3e}")
    return float(value.real)


def power_fd(before: DensityMatrix, after: DensityMatrix, step: float,
             ctx: BatteryContext) -> float:
    """Central difference of <F> between the trajectory states one `step`
    before and one `step` after a point; second order in the step."""
    if not (math.isfinite(step) and step > 0.0):
        raise ParameterError(f"step must be finite and positive, got {step!r}")
    return (mean_free_energy(after, ctx) - mean_free_energy(before, ctx)) / (2.0 * step)


def theta_operator_form(decomp: FreeEnergyDecomposition, rho: DensityMatrix, l, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Theta = tr(rho |[deltaF, L]|^2); real and nonnegative up to tolerance."""
    l = _checked_square(l, "jump operator")
    if l.shape[0] != decomp.dim or rho.dim != decomp.dim:
        raise DimensionError("operator, state, and decomposition dimensions differ")
    with np.errstate(over="ignore", invalid="ignore"):  # both products are scanned
        c = _require_finite(decomp.delta_f.matrix @ l - l @ decomp.delta_f.matrix, "commutator")
        squared = abs_sq(c, tol=tol)
    value = complex((rho.matrix @ squared.matrix).trace())
    scale = max(1.0, abs(value))
    if abs(value.imag) > tol.theta_imag * scale:
        raise ConsistencyError(f"Theta has imaginary residual {value.imag:.3e}")
    if value.real < -tol.theta_psd_slack * scale:
        raise ConsistencyError(f"Theta = {value.real:.3e} is negative beyond the PSD slack")
    return float(value.real)


def theta_index_form(w, rho_components, l_components, *,
                     tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Explicit index sum for Theta in the deltaF eigenbasis:

        sum_{i,k,l} rho_{lk} L^{ki} conj(L^{li})
                    (w_i^2 - w_i w_l - w_k w_i + w_l w_k)

    The weight factors as (w_i - w_l)(w_i - w_k), so the sum is invariant
    under a common shift of w and vanishes when w is constant.  With
    W^{ki} = L^{ki} (w_i - w_k) it is sum_{l,i} conj(W^{li}) (rho W)^{li},
    which is how it is evaluated.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    rho_c = _checked_square(rho_components, "rho components")
    l_c = _checked_square(l_components, "operator components")
    d = w.size
    if rho_c.shape != (d, d) or l_c.shape != (d, d):
        raise DimensionError("component arrays must match the length of w")
    weighted = l_c * (w[None, :] - w[:, None])
    total = complex((weighted.conj() * (rho_c @ weighted)).sum())
    if abs(total.imag) > tol.theta_imag * max(1.0, abs(total)):
        raise ConsistencyError(f"index-form Theta has imaginary residual {total.imag:.3e}")
    return float(total.real)


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
    """Theta per channel, operator form against index form.

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
    w, u = f_spectrum.eigenvalues - decomp.mean, f_spectrum.eigenvectors
    u_dag = dagger(u)  # rho, L and U were checked when built
    rho_c = u_dag @ rho.matrix @ u
    entries = []
    for j, ch in enumerate(model.channels):
        l_c = u_dag @ ch.operator @ u
        try:
            t_op = theta_operator_form(decomp, rho, ch.operator, tol=tol)
        except ValidationError as exc:
            raise ValidationError(f"Theta of channel {j}, |[deltaF, L]|^2: {exc}") from exc
        t_ix = theta_index_form(w, rho_c, l_c, tol=tol)
        disc = t_ix - t_op
        if abs(disc) > tol.theta_discrepancy * max(1.0, t_op):
            raise ConsistencyError(
                f"channel {j}: Theta forms disagree: operator {t_op!r} vs index {t_ix!r}")
        entries.append(ChannelTheta(t_op, t_ix, disc))
    return ThetaReport(tuple(entries))


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
