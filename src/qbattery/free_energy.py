"""Free-energy-operator diagnostics for an open quantum battery.

Core objects, with hbar = k_B = 1:

    F      = H + (1/beta) ln(rho)            free energy operator (full-rank rho)
    <F>    = tr(F rho) = tr(rho H) - S/beta   mean free energy
    deltaF = F - <F> I                        zero-mean fluctuation
    P      = d<F>/dt = tr(rho_dot F)          charging power (generator is trace free)

and the per-channel commutator fluctuation

    Theta_j = < |[deltaF, L_j]|^2 >,  |A|^2 = A A^dag,

evaluated three ways: as an operator expectation, as an explicit index sum in
the deltaF eigenbasis, and in the closed form that applies when the state is
an eigenstate of the Hamiltonian.  The eigenstate charging power likewise has
a trace form and an index form; the pair is always cross-checked.

Index conventions: for a basis {|i>}, A^{ik} = <i|A|k> = components[i, k].
In the eigenstate closed forms, w is the spectrum of H (F coincides with H at
that instant); everywhere else w is the spectrum of deltaF.  All the sums are
invariant under a common shift of w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (DensityMatrix, LindbladModel, _dissipator_matrix,
                       liouvillian, von_neumann_entropy)
from .errors import (ConsistencyError, DimensionError, ParameterError,
                     RankDeficientError, ValidationError)
from .linalg import (HermitianMatrix, Spectrum, abs_sq, as_square_matrix,
                     commutator, dagger, hermitian_eig, matrix_function, max_abs)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__all__ = [
    "BatteryContext",
    "FreeEnergyDecomposition",
    "ChannelTheta",
    "ThetaReport",
    "VanishingConditionReport",
    "free_energy_operator",
    "eigenstate_decomposition",
    "mean_free_energy",
    "power_analytic",
    "power_fd",
    "components_in_basis",
    "theta_operator_form",
    "theta_index_form",
    "theta_eigenstate",
    "compute_theta_report",
    "power_eigenstate",
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
    """F, deltaF = F - <F> I, the mean <F>, and the deltaF eigensystem.

    `w` holds the ascending eigenvalues of deltaF and the columns of `basis`
    the matching eigenvectors.  tr(rho deltaF) = 0 for the state the
    decomposition was built from; this is checked at construction.
    """

    f_op: HermitianMatrix
    delta_f: HermitianMatrix
    mean: float
    w: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.f_op.dim


def _build_decomposition(f_op: HermitianMatrix, mean: float, rho: DensityMatrix,
                         tol: ToleranceConfig, basis: np.ndarray | None = None
                         ) -> FreeEnergyDecomposition:
    delta = HermitianMatrix(f_op.matrix - mean * np.eye(f_op.dim), tol=tol)
    zero_mean = abs(complex(np.trace(rho.matrix @ delta.matrix)))
    if zero_mean > tol.zero_mean:
        raise ValidationError(f"tr(rho deltaF) = {zero_mean:.3e} is not zero")
    eig = hermitian_eig(delta, basis=basis, tol=tol)
    residual = max_abs((eig.eigenvectors * eig.eigenvalues) @ dagger(eig.eigenvectors)
                       - delta.matrix)
    if residual > tol.decomposition_residual:
        raise ValidationError(f"deltaF eigenbasis residual {residual:.3e}")
    return FreeEnergyDecomposition(f_op, delta, float(mean), eig.eigenvalues,
                                   eig.eigenvectors)


def free_energy_operator(rho: DensityMatrix, ctx: BatteryContext, *,
                         basis: np.ndarray | None = None,
                         log_rho: HermitianMatrix | None = None,
                         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> FreeEnergyDecomposition:
    """F = H + (1/beta) ln(rho) for a full-rank state.

    The mean is computed both as tr(F rho) and as tr(rho H) - S(rho)/beta and
    cross-checked before deltaF is formed.  A state eigenvalue at or below
    ctx.rank_threshold raises RankDeficientError naming it.  `basis`
    warm-starts the deltaF eigensolver, e.g. from the deltaF eigenvectors of
    the previous trajectory row; pass `log_rho` to reuse ln(rho) already
    lifted from rho.spectrum.
    """
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    smallest = float(rho.spectrum.eigenvalues[0])
    if smallest <= ctx.rank_threshold:
        raise RankDeficientError(
            f"state is rank deficient for ln(rho): smallest eigenvalue "
            f"{smallest:.3e} <= threshold {ctx.rank_threshold:.3e}",
            smallest_eigenvalue=smallest)
    if log_rho is None:
        log_rho = matrix_function(rho.hermitian, math.log, spectrum=rho.spectrum, tol=tol)
    f_op = HermitianMatrix(
        ctx.model.hamiltonian.matrix + log_rho.matrix / ctx.beta, tol=tol)
    mean_from_trace = float(np.real(np.trace(f_op.matrix @ rho.matrix)))
    mean_from_entropy = float(np.real(np.trace(rho.matrix @ ctx.model.hamiltonian.matrix))) \
        - von_neumann_entropy(rho) / ctx.beta
    if abs(mean_from_trace - mean_from_entropy) > tol.mean_crosscheck * max(1.0, abs(mean_from_trace)):
        raise ConsistencyError(
            f"<F> disagrees between forms: trace {mean_from_trace!r} "
            f"vs energy-entropy {mean_from_entropy!r}")
    return _build_decomposition(f_op, mean_from_trace, rho, tol, basis)


def _eigen_index(k0: int, dim: int) -> int:
    """k0 as an index into an ascending spectrum of length `dim`."""
    if not 0 <= int(k0) < dim:
        raise ParameterError(f"k0 must lie in [0, {dim}), got {k0!r}")
    return int(k0)


def eigenstate_decomposition(ctx: BatteryContext, k0: int, *,
                             tol: ToleranceConfig = DEFAULT_TOLERANCES
                             ) -> tuple[FreeEnergyDecomposition, DensityMatrix]:
    """Decomposition at the instant the battery occupies Hamiltonian eigenstate k0.

    At that instant F coincides with H, so <F> = w_k0 and deltaF = H - w_k0 I.
    Returns the decomposition together with the projector state |k0><k0|.
    k0 indexes the ascending spectrum of H.
    """
    eig = hermitian_eig(ctx.model.hamiltonian, tol=tol)
    k0 = _eigen_index(k0, ctx.dim)
    mean = float(eig.eigenvalues[k0])
    rho = DensityMatrix.pure(eig.eigenvectors[:, k0], tol=tol)
    decomp = _build_decomposition(ctx.model.hamiltonian, mean, rho, tol)
    return decomp, rho


def mean_free_energy(rho: DensityMatrix, ctx: BatteryContext) -> float:
    """<F> = tr(rho H) - S(rho)/beta; defined for any valid state (0 ln 0 = 0)."""
    if rho.dim != ctx.dim:
        raise DimensionError(f"state dimension {rho.dim} vs model {ctx.dim}")
    energy = float(np.real(np.trace(rho.matrix @ ctx.model.hamiltonian.matrix)))
    return energy - von_neumann_entropy(rho) / ctx.beta


def power_analytic(rho: DensityMatrix, ctx: BatteryContext, *,
                   decomp: FreeEnergyDecomposition | None = None,
                   tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Charging power P = d<F>/dt realized as tr(rho_dot F).

    Exact for the GKSL generator because tr(rho_dot) = 0; requires a
    full-rank state so that F exists.
    """
    if decomp is None:
        decomp = free_energy_operator(rho, ctx, tol=tol)
    rate = liouvillian(ctx.model, rho, tol=tol)
    value = complex(np.trace(rate.matrix @ decomp.f_op.matrix))
    if abs(value.imag) > tol.theta_imag * max(1.0, abs(value)):
        raise ConsistencyError(f"power has imaginary residual {value.imag:.3e}")
    return float(value.real)


def power_fd(before: DensityMatrix, after: DensityMatrix, step: float,
             ctx: BatteryContext) -> float:
    """Central difference of <F> between the trajectory states one `step`
    before and one `step` after a point; second order in the step."""
    if not (math.isfinite(step) and step > 0.0):
        raise ParameterError(f"step must be finite and positive, got {step!r}")
    forward = mean_free_energy(after, ctx)
    backward = mean_free_energy(before, ctx)
    return (forward - backward) / (2.0 * step)


def components_in_basis(matrix, basis) -> np.ndarray:
    """Matrix elements A^{ik} = <i|A|k> in the given orthonormal column basis."""
    a = as_square_matrix(matrix, "matrix")
    u = as_square_matrix(basis, "basis")
    if a.shape != u.shape:
        raise DimensionError(f"matrix {a.shape} vs basis {u.shape}")
    return dagger(u) @ a @ u


def theta_operator_form(decomp: FreeEnergyDecomposition, rho: DensityMatrix, l, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Theta = tr(rho |[deltaF, L]|^2); real and nonnegative up to tolerance."""
    l = as_square_matrix(l, "jump operator")
    if l.shape[0] != decomp.dim or rho.dim != decomp.dim:
        raise DimensionError("operator, state, and decomposition dimensions differ")
    c = commutator(decomp.delta_f.matrix, l)
    squared = abs_sq(c, tol=tol)
    value = complex(np.trace(rho.matrix @ squared.matrix))
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
    rho_c = as_square_matrix(rho_components, "rho components")
    l_c = as_square_matrix(l_components, "operator components")
    d = w.size
    if rho_c.shape != (d, d) or l_c.shape != (d, d):
        raise DimensionError("component arrays must match the length of w")
    weighted = l_c * (w[None, :] - w[:, None])
    total = complex(np.sum(np.conj(weighted) * (rho_c @ weighted)))
    if abs(total.imag) > tol.theta_imag * max(1.0, abs(total)):
        raise ConsistencyError(f"index-form Theta has imaginary residual {total.imag:.3e}")
    return float(total.real)


def theta_eigenstate(k0: int, w, l_components) -> float:
    """Closed form for rho = |k0><k0|: sum_i |L^{k0 i}|^2 (w_i - w_k0)^2.

    Here w is the spectrum of H (F coincides with H in the eigenstate
    scenario) and L^{k0 i} runs along row k0 of the operator components.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    l_c = as_square_matrix(l_components, "operator components")
    if l_c.shape != (w.size, w.size):
        raise DimensionError("component array must match the length of w")
    k0 = _eigen_index(k0, w.size)
    row = l_c[k0, :]
    return float(np.sum(np.abs(row) ** 2 * (w - w[k0]) ** 2))


@dataclass(frozen=True)
class ChannelTheta:
    """Theta for one channel in both forms; discrepancy = index - operator."""

    theta_operator: float
    theta_index: float
    discrepancy: float


@dataclass(frozen=True)
class ThetaReport:
    channels: tuple[ChannelTheta, ...]


def compute_theta_report(decomp: FreeEnergyDecomposition, rho: DensityMatrix,
                         model: LindbladModel, *,
                         tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ThetaReport:
    """Theta per channel, operator form against index form.

    The two evaluations must agree within theta_discrepancy * max(1, Theta);
    a larger gap raises ConsistencyError instead of being reported.
    """
    rho_c = components_in_basis(rho.matrix, decomp.basis)
    entries = []
    for j, ch in enumerate(model.channels):
        l_c = components_in_basis(ch.operator, decomp.basis)
        t_op = theta_operator_form(decomp, rho, ch.operator, tol=tol)
        t_ix = theta_index_form(decomp.w, rho_c, l_c, tol=tol)
        disc = t_ix - t_op
        if abs(disc) > tol.theta_discrepancy * max(1.0, t_op):
            raise ConsistencyError(
                f"channel {j}: Theta forms disagree: operator {t_op!r} vs index {t_ix!r}")
        entries.append(ChannelTheta(t_op, t_ix, disc))
    return ThetaReport(tuple(entries))


def _eigenstate_power_forms(k0: int, ctx: BatteryContext, *,
                            spectrum: Spectrum | None = None, label: str | None = None,
                            tol: ToleranceConfig = DEFAULT_TOLERANCES
                            ) -> tuple[float, float, Spectrum, tuple[np.ndarray, ...]]:
    """Both eigenstate power forms, the H spectrum they were built from, and
    each channel's components in that eigenbasis.

    The two forms must agree within power_agreement * max(1, |trace form|);
    otherwise ConsistencyError names both values, prefixed by `label` when
    given.  Pass `spectrum` to reuse a cached decomposition of H.
    """
    eig = hermitian_eig(ctx.model.hamiltonian, tol=tol) if spectrum is None else spectrum
    k0 = _eigen_index(k0, ctx.dim)
    vec = eig.eigenvectors[:, k0]
    projector = np.outer(vec, np.conj(vec))
    h = ctx.model.hamiltonian.matrix
    w = eig.eigenvalues
    trace_form = 0.0
    index_form = 0.0
    components = []
    for ch in ctx.model.channels:
        d_mat = _dissipator_matrix(ch.operator, projector)
        trace_form += ch.rate * float(np.real(np.trace(d_mat @ h)))
        l_c = components_in_basis(ch.operator, eig.eigenvectors)
        components.append(l_c)
        col = l_c[:, k0]
        index_form += ch.rate * float(np.sum(np.abs(col) ** 2 * (w - w[k0])))
    if abs(trace_form - index_form) > tol.power_agreement * max(1.0, abs(trace_form)):
        prefix = "" if label is None else f"{label}: "
        raise ConsistencyError(
            f"{prefix}eigenstate power forms disagree: "
            f"trace {trace_form!r} vs index {index_form!r}")
    return trace_form, index_form, eig, tuple(components)


def power_eigenstate(k0: int, ctx: BatteryContext, *,
                     tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Charging power when the battery occupies Hamiltonian eigenstate k0.

    Evaluated as sum_j gamma_j tr(D_j[|k0><k0|] H) and as the index sum
    sum_j gamma_j sum_i |L_j^{i k0}|^2 (w_i - w_k0); note the index order
    differs from theta_eigenstate (column k0 of L rather than row k0).  The
    two evaluations must agree within tolerance; the trace form is returned.
    """
    trace_form, _, _, _ = _eigenstate_power_forms(k0, ctx, tol=tol)
    return trace_form


@dataclass(frozen=True)
class VanishingConditionReport:
    """Structural condition claimed equivalent to "all Theta_j vanish".

    The condition: H = w_k0 |k0><k0|, or every L_j acts as a scalar on each
    eigenvector of H with nonzero eigenvalue.  The report carries no Theta:
    callers test the claimed equivalence against Thetas they compute
    themselves (see audit.evaluate_instance).
    """

    holds: bool
    projector_hamiltonian: bool
    trivial_action: bool
    per_channel_trivial: tuple[bool, ...]
    k0: int


def vanishing_condition(ctx: BatteryContext, k0: int, *,
                        spectrum: Spectrum | None = None,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> VanishingConditionReport:
    """Evaluate the structural vanishing condition at eigenstate k0.

    "Acts trivially" is read as scalar action: L|v> must lie in span{|v>}
    (within predicate_zero) for every eigenvector |v> of H whose eigenvalue
    is nonzero at the same tolerance.  With degenerate nonzero eigenvalues
    this reading depends on the eigenbasis the solver picked; the report is
    therefore evidence about one deterministic basis, not a basis-free proof.
    Pass `spectrum` to reuse a cached decomposition of H.
    """
    eig = hermitian_eig(ctx.model.hamiltonian, tol=tol) if spectrum is None else spectrum
    k0 = _eigen_index(k0, ctx.dim)
    h = ctx.model.hamiltonian.matrix
    w = eig.eigenvalues
    u = eig.eigenvectors
    scale = max(1.0, max_abs(h))

    pivot = np.outer(u[:, k0], np.conj(u[:, k0])) * w[k0]
    projector_hamiltonian = max_abs(h - pivot) <= tol.predicate_zero * scale

    nonzero = [i for i in range(ctx.dim) if abs(w[i]) > tol.predicate_zero * scale]
    per_channel = []
    for ch in ctx.model.channels:
        op_scale = max(1.0, max_abs(ch.operator))
        trivial = True
        for i in nonzero:
            v = u[:, i]
            image = ch.operator @ v
            overlap = complex(np.vdot(v, image))
            residual = float(np.linalg.norm(image - overlap * v))
            if residual > tol.predicate_zero * op_scale:
                trivial = False
                break
        per_channel.append(trivial)
    trivial_action = all(per_channel) if per_channel else True

    return VanishingConditionReport(
        holds=bool(projector_hamiltonian or trivial_action),
        projector_hamiltonian=bool(projector_hamiltonian),
        trivial_action=bool(trivial_action),
        per_channel_trivial=tuple(bool(x) for x in per_channel),
        k0=k0)
