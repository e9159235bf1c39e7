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

Each is evaluated for a stack of states, cutting a linalg._Rows at the first
row failing a check.  `run`'s rows come from one stream, _run_rows, which
takes propagation's blocks through _evaluate_rows (free_energy_operator, F's
warm eigensolve chain, dynamics.liouvillian, power_analytic and
compute_theta_report, which holds theta_operator_form against
theta_index_form); the sweep's rungs come from _rung_rows beside it.  S and
<F> = tr(rho H) - S/beta are formed in mean_free_energy alone.

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

from .dynamics import (_BREACH, DensityMatrix, LindbladModel, _block_rows, _checked_states,
                       _mixed, _probe_breaches, _state_blocks, liouvillian, von_neumann_entropy)
from .errors import ConsistencyError, RankDeficientError, ValidationError
from .linalg import (HermitianMatrix, _constants, _finite, _hermitian, _Rows, abs_sq, dagger,
                     hermitian_eig_chain, matrix_function)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig, _finite_positive

__all__ = [
    "BatteryContext",
    "free_energy_operator",
    "mean_free_energy",
    "power_analytic",
    "theta_operator_form",
    "theta_index_form",
    "compute_theta_report",
    "vanishing_condition",
]


# ln(rho) needs a full-rank state: a state eigenvalue at or below this is rank deficient
RANK_THRESHOLD = 1e-12

_RUNG = "rung {} (epsilon = {:g}): {}"  # a failing rung's message: index, epsilon, failed check


@dataclass(frozen=True)
class BatteryContext:
    """Inverse temperature and model."""

    beta: float
    model: LindbladModel

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite_positive(self.beta, "beta"))


def free_energy_operator(rows: _Rows, rho: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                         from_entropy: np.ndarray, ctx: BatteryContext, tol: ToleranceConfig):
    """F = H + (1/beta) ln(rho) of each state of the stack rho (k, d, d), from
    the stacks of its eigenvalues (k, d) and eigenvectors (k, d, d) and of its
    mean_free_energy tr(rho H) - S/beta (k,): the stacks ln(rho), F and deltaF
    as _hermitian returns them, and <F> (k,).  A state eigenvalue at or below
    RANK_THRESHOLD is rank deficient; ln(rho) is lifted through matrix_function
    with math.log on eigenvalues that check has passed.  <F> = tr(F rho) must
    agree with `from_entropy` within mean_crosscheck before deltaF is formed,
    and |tr(rho deltaF)| stay within zero_mean * max(1, ||F||_max).  A failure
    cuts `rows`."""
    hamiltonian, beta = ctx.model.hamiltonian, ctx.beta
    smallest = values[:, 0]
    rows.check(smallest <= RANK_THRESHOLD, lambda i: RankDeficientError(
        f"state is rank deficient for ln(rho): smallest eigenvalue "
        f"{smallest[i]:.3e} <= threshold {RANK_THRESHOLD:.3e}"))
    log_rho = matrix_function(rows, values, vectors, math.log, tol)
    # ln(rho)/beta overflows for a small enough beta: F's scan names it, and
    # deltaF's a non-finite <F>; the rest belongs to rows past the cut
    with np.errstate(over="ignore", invalid="ignore"):
        f_op = _hermitian(rows, hamiltonian.matrix + log_rho / beta, tol,
                          f"F = H + ln(rho)/beta at beta = {beta!r}: ")
        mean = (f_op @ rho).trace(axis1=1, axis2=2).real
        rows.check(np.abs(mean - from_entropy) > tol.mean_crosscheck * np.fmax(1.0, np.abs(mean)),
                   lambda i: ConsistencyError(
                       f"<F> disagrees between forms: trace {float(mean[i])!r} "
                       f"vs energy-entropy {float(from_entropy[i])!r}"))
        delta = _hermitian(rows, f_op - mean[:, None, None] * _constants(rho.shape[-1])[0], tol)
        zero_mean = np.abs((rho @ delta).trace(axis1=1, axis2=2))
        bound = tol.zero_mean * np.maximum(1.0, np.abs(f_op).max(axis=(1, 2)))
        rows.check(zero_mean > bound, lambda i: ValidationError(
            f"tr(rho deltaF) = {zero_mean[i]:.3e} is not zero"))
    return log_rho, f_op, delta, mean


def mean_free_energy(rho: np.ndarray, values: np.ndarray, ctx: BatteryContext):
    """tr(rho H), S (dynamics.von_neumann_entropy) and <F> = tr(rho H) - S/beta
    (k,) of the states rho (k, d, d) of eigenvalues `values` (k, d); a
    non-finite <F> is named by F's scan."""
    entropy = von_neumann_entropy(values)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = (rho @ ctx.model.hamiltonian.matrix).trace(axis1=1, axis2=2).real
        return energy, entropy, energy - entropy / ctx.beta


def power_analytic(rows: _Rows, rate: np.ndarray, f_op: np.ndarray,
                   tol: ToleranceConfig) -> np.ndarray:
    """Charging power P = d<F>/dt of each pair (L(rho), F) of the stacks rate
    and f_op, realized as tr(L(rho) F): exact because tr L(rho) = 0.  `rate` is
    the GKSL right-hand side (dynamics.liouvillian) at the state F was built
    from.  P must be real to theta_imag * max(1, |P|); a failure cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers' scans name inf/nan
        return _real(rows, (rate @ f_op).trace(axis1=1, axis2=2), tol, "power")


def _real(rows: _Rows, value: np.ndarray, tol: ToleranceConfig, name: str) -> np.ndarray:
    """The real parts of the complex stack `value` (k,), each real to
    theta_imag * max(1, |value|): the one imaginary-residual check of the
    powers and both Theta forms.  A residual, named by `name`, cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # only rows past the cut
        residual = np.abs(value.imag) > tol.theta_imag * np.fmax(1.0, np.abs(value))
    rows.check(residual, lambda i: ConsistencyError(
        f"{name} has imaginary residual {value[i].imag:.3e}"))
    return value.real


def theta_operator_form(rows: _Rows, delta: np.ndarray, rho: np.ndarray, l: np.ndarray,
                        tol: ToleranceConfig, context: str = "") -> np.ndarray:
    """Theta = tr(rho |[deltaF, L]|^2) of each pair (deltaF, rho) of the stacks
    delta and rho, for one jump operator l: the commutator C and |C|^2 = C C^dag
    (abs_sq) are scanned (their failures prefixed by `context`), then
    tr(rho |C|^2) must be real to theta_imag and not below -theta_psd_slack,
    both times max(1, |Theta|).  A failure cuts `rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # both products are scanned
        c = delta @ l - l @ delta
        rows.check(~_finite(c), lambda i: ValidationError(
            f"{context}commutator: non-finite entries in result"))
        squared = abs_sq(rows, c, tol, context)
        value = (rho @ squared).trace(axis1=1, axis2=2)
        theta = _real(rows, value, tol, "Theta")
        negative = theta < -tol.theta_psd_slack * np.fmax(1.0, np.abs(value))
    rows.check(negative, lambda i: ConsistencyError(
        f"Theta = {theta[i]:.3e} is negative beyond the PSD slack"))
    return theta


def theta_index_form(rows: _Rows, w: np.ndarray, rho_c: np.ndarray, l_c: np.ndarray,
                     tol: ToleranceConfig) -> np.ndarray:
    """Explicit index sum for Theta in the deltaF eigenbasis, of each triple
    (w, rho components, L components) of the stacks (k, d), (k, d, d), (k, d, d):

        sum_{i,k,l} rho_{lk} L^{ki} conj(L^{li})
                    (w_i^2 - w_i w_l - w_k w_i + w_l w_k)

    The weight factors as (w_i - w_l)(w_i - w_k), so the sum is invariant
    under a common shift of w and vanishes when w is constant.  With
    W^{ki} = L^{ki} (w_i - w_k) it is sum_{l,i} conj(W^{li}) (rho W)^{li},
    which is how it is evaluated.  The components are scanned, then the sum
    must be real to theta_imag * max(1, |Theta|).  A failure cuts `rows`.
    """
    rows.check(~_finite(rho_c), lambda i: ValidationError("rho components: non-finite entries"))
    rows.check(~_finite(l_c),
               lambda i: ValidationError("operator components: non-finite entries"))
    with np.errstate(over="ignore", invalid="ignore"):  # only rows past the cut
        weighted = l_c * (w[:, None, :] - w[:, :, None])
        total = (weighted.conj() * (rho_c @ weighted)).sum(axis=(1, 2))
    return _real(rows, total, tol, "index-form Theta")


def compute_theta_report(rows: _Rows, delta: np.ndarray, rho: np.ndarray, w: np.ndarray,
                         u: np.ndarray, model: LindbladModel,
                         tol: ToleranceConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Theta per channel of `model` in both forms, of each state of a stack,
    from the stacks deltaF, rho and deltaF's spectra (w, u): the operator form,
    then the index form from the components U^dag rho U and U^dag L U (rho, L
    and U were checked when built), which must agree within theta_discrepancy
    * max(1, Theta).  Returns (operator, index) forms per channel, each (k,).
    A failure cuts `rows`.

    w is lambda(F) - <F> from F's own solve: deltaF shares F's eigenvectors,
    but its absolute rounding, about eps * ||F||, is all there is of a thermal
    state's deltaF, which a solve of its own would sweep in full.  A spectrum
    other than F's shows as a disagreement."""
    u_dag, forms = dagger(u), []
    # each product is scanned where it is read, or belongs to rows past the cut
    with np.errstate(over="ignore", invalid="ignore"):
        rho_c = u_dag @ rho @ u
        for j, ch in enumerate(model.channels):
            t_op = theta_operator_form(rows, delta, rho, ch.operator, tol,
                                       f"Theta of channel {j}, |[deltaF, L]|^2: ")
            t_ix = theta_index_form(rows, w, rho_c, u_dag @ ch.operator @ u, tol)
            rows.check(np.abs(t_ix - t_op) > tol.theta_discrepancy * np.fmax(1.0, t_op),
                       lambda i: ConsistencyError(
                           f"channel {j}: Theta forms disagree: operator {float(t_op[i])!r} "
                           f"vs index {float(t_ix[i])!r}"))
            forms.append((t_op, t_ix))
    return forms


def _evaluate_rows(rho: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                   from_entropy: np.ndarray, ctx: BatteryContext, basis: np.ndarray,
                   tol: ToleranceConfig):
    """The values of `run` rows for a block of states, stacked as
    free_energy_operator takes them: free_energy_operator, then F's eigensolves
    as one warm chain, each from the F eigenbasis of the state before (`basis`
    for the first), then L(rho), the power and both Theta forms (liouvillian,
    power_analytic, compute_theta_report).

    Returns the _Rows (rows.n rows passed; rows.error is the first failing
    check of the earliest failing row), <F>, P and the operator-form Theta_j
    of each passed row as lists, and the F eigenbasis of its last row.
    """
    rows = _Rows(len(rho))
    _, f_op, delta, mean = free_energy_operator(rows, rho, values, vectors, from_entropy, ctx, tol)
    w, u = hermitian_eig_chain(rows, f_op, basis, tol=tol)
    if len(u):
        basis = u[-1]
    n = rows.n
    if not n:
        return rows, [], [], [], basis
    power = power_analytic(rows, liouvillian(rows, ctx.model, rho[:n], tol), f_op[:n], tol)
    del f_op  # the peak resident set grows with the stacks alive at once
    forms = compute_theta_report(rows, delta[:n], rho[:n], w[:n] - mean[:n, None], u[:n],
                                 ctx.model, tol)
    columns = [t_op.tolist() for t_op, _ in forms]
    thetas = [[column[i] for column in columns] for i in range(rows.n)]
    return rows, mean[:rows.n].tolist(), power[:rows.n].tolist(), thetas, basis


def _run_rows(ctx: BatteryContext, rho0: DensityMatrix, t0: float, offsets: np.ndarray,
              tol: ToleranceConfig) -> Iterator[list]:
    """`run`'s table from the full-rank rho0 on the uniform ascending `offsets`
    from t0: the header, then rows that start with t = t0 + offset, the time a
    breach names too.  Propagation's blocks, on the offsets' step (no other
    cell depends on t0), go through _evaluate_rows, F's warm chain started in
    rho0's eigenbasis (F's own when [rho0, H] = 0).  A row is held until the
    next state's <F> arrives: its power_fd is the central difference of the
    <F> around it, blank for the first row and a row no state follows.  A
    failing row or a breach is raised after the rows before it come out, a
    failing row's error as its own type, named by step and t as a breach is."""
    header = ["t", "energy", "entropy", "free_energy", "power_analytic", "power_fd",
              *(f"theta_{j + 1}" for j in range(len(ctx.model.channels))),
              "trace_defect", "min_eig"]
    yield header
    fd = header.index("power_fd")
    step = float(offsets[1] - offsets[0]) if offsets.size > 1 else 0.0
    times = t0 + offsets
    t, basis, start = iter(times), rho0.spectrum.eigenvectors, 0
    before = previous = pending = error = None
    try:
        for rho, defect, w, u in _state_blocks(ctx.model, rho0, times, step, tol):
            energy, entropy, mean = mean_free_energy(rho, w, ctx)
            rows, means, powers, thetas, basis = _evaluate_rows(rho, w, u, mean, ctx, basis, tol)
            for i, after in enumerate(mean.tolist()[:rows.n + 1]):  # a failing row's <F> too
                if pending is not None:
                    if before is not None:
                        pending[fd] = (after - before) / (2.0 * step)
                    yield pending
                pending = None if i == rows.n else [next(t), energy[i], entropy[i], means[i],
                                                    powers[i], None, *thetas[i], defect[i], w[i, 0]]
                before, previous = previous, after
            if rows.error is not None:
                i = start + rows.n
                raise type(rows.error)(_BREACH.format(i, times[i], rows.error)) from rows.error
            start += len(rho)  # the step of the next block's first row
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
    The first failure that is not a probe's breach raises, in rung order, as
    its own type, its message prefixed by _RUNG."""
    h = ctx.model.hamiltonian.matrix
    # tr(-i[H, rho_eps] X) is 0 for X = H, F and ln rho_eps, but its rounding is not
    dissipative = LindbladModel(HermitianMatrix(np.zeros_like(h)), ctx.model.channels)
    size = _block_rows(rho0.dim)
    for at in range(0, len(epsilons), size):
        block = epsilons[at:at + size]
        rows = _Rows(len(block))
        rho, _, values, vectors = _checked_states(
            rows, _mixed(rho0.matrix, np.array(block)[:, None, None]),
            rho0.spectrum.eigenvectors, tol, tol.density_trace, tol.psd)
        rate = liouvillian(rows, dissipative, rho, tol)
        _, _, mean = mean_free_energy(rho, values, ctx)
        with np.errstate(over="ignore", invalid="ignore"):  # the report names inf/nan
            energy = (rate @ h).trace(axis1=1, axis2=2).real
            log_rho, f_op, _, _ = free_energy_operator(rows, rho, values, vectors, mean, ctx, tol)
            entropy = -(rate @ log_rho).trace(axis1=1, axis2=2).real
        power = power_analytic(rows, rate, f_op, tol)
        step_errors = _probe_breaches(rows, ctx.model, rho, vectors, step, tol)
        if rows.error is not None:
            i = at + rows.n
            raise type(rows.error)(_RUNG.format(i, epsilons[i], rows.error)) from rows.error
        yield from zip(block, power.tolist(), energy.tolist(), entropy.tolist(), step_errors)


def vanishing_condition(h, w, k0, projectors, components, owner, operator_max, *,
                        tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """`holds` (n,), the structural vanishing condition of n instances of one
    dimension, claimed equivalent to "all Theta_j vanish": H = w_k0 |k0><k0|,
    or every L_j acts trivially on each eigenvector of H with nonzero
    eigenvalue.  It reads no Theta: callers test the equivalence with their own.

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
    return projector_hamiltonian | trivial_action
