"""Numerical audits of verbal claims about eigenstate charging.

Three instruments:

* eigenstate_audit: for a battery prepared in Hamiltonian eigenstate k0,
  compute every Theta_j in closed form (both index orders) and the charging
  power in trace and index form, then classify the scenario
  (HYPOTHESIS_REFUTED / CONSISTENT / MIXED / INCONCLUSIVE).

* epsilon_sweep: regularize the eigenstate projector with a descending
  epsilon ladder and record, per epsilon, the analytic free-energy power,
  the energy rate, and the entropy rate, plus a least-squares fit
  entropy_rate ~ a + b ln(eps).  The fitted slope is a finding, not an
  assertion: nothing here presumes the entropy rate converges.

* claim_falsifier: randomized search plus a fixed bundled witness list for
  three claims, each evaluated in both index orders of Theta:
      C1: (all Theta_j = 0) implies P = 0
      C2: P = 0 implies (all Theta_j = 0)
      C3: (all Theta_j = 0) iff the structural vanishing condition holds
  Counterexamples are recorded with a full model serialization and can be
  re-evaluated from the record alone.

Zero means |value| <= claim_zero * scale with
scale = max(1, ||H||_max, max_j gamma_j ||L_j||_max^2); values inside the
straddle band (claim_zero * scale, claim_band * claim_zero * scale) make the
trial inconclusive rather than forcing a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, JumpChannel, LindbladModel, _dissipator_matrix
from .errors import ConsistencyError, ParameterError, ScenarioError, ValidationError
from .free_energy import BatteryContext, _rung_rows, vanishing_condition
from .jsonio import model_from_json, model_to_json
from .linalg import HermitianMatrix, _Rows, dagger, hermitian_eig, hermitian_eigs, max_abs
from .tolerances import (DEFAULT_TOLERANCES, ToleranceConfig, _finite_positive, _integer,
                         _open_unit)

__all__ = [
    "ScenarioSpec",
    "EigenstateAuditReport",
    "EpsilonRow",
    "EpsilonSweepReport",
    "EnsembleSpec",
    "ClaimVerdict",
    "FalsifierReport",
    "ClaimInstance",
    "eigenstate_audit",
    "epsilon_sweep",
    "claim_falsifier",
    "bundled_witnesses",
    "evaluate_instance",
    "reevaluate_witness",
]

ZERO = "zero"
NONZERO = "nonzero"
STRADDLE = "straddle"

CLAIM_IDS = ("C1", "C2", "C3", "C1_transposed", "C2_transposed", "C3_transposed")

VERDICT_REFUTED = "HYPOTHESIS_REFUTED"
VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_MIXED = "MIXED"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

_BLOCK = 16  # instances per evaluation stack in claim_falsifier: bounds its temporaries


def _eigen_index(k0: int, dim: int) -> int:
    """k0 as an index into an ascending spectrum of length `dim`."""
    k0 = _integer(k0, "k0")
    if not 0 <= k0 < dim:
        raise ParameterError(f"k0 must lie in [0, {dim}), got {k0!r}")
    return k0


@dataclass(frozen=True)
class ScenarioSpec:
    """One audited scenario: model, inverse temperature, eigenstate index,
    regularization ladder, and the step of the sweep's RK4 probe."""

    model: LindbladModel
    beta: float
    k0: int
    epsilon_list: tuple[float, ...] = ()
    step: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite_positive(self.beta, "beta"))
        object.__setattr__(self, "k0", _eigen_index(self.k0, self.model.dim))
        eps = tuple(_open_unit(e, f"epsilon_list[{i}]") for i, e in enumerate(self.epsilon_list))
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ParameterError("epsilon_list must be strictly descending")
        object.__setattr__(self, "epsilon_list", eps)
        object.__setattr__(self, "step", _finite_positive(self.step, "step"))


def _classify(value: float, scale: float, tol: ToleranceConfig) -> str:
    cut = tol.claim_zero * scale
    magnitude = abs(value)
    if magnitude <= cut:
        return ZERO
    if magnitude >= tol.claim_band * cut:
        return NONZERO
    return STRADDLE


def _all_zero_status(classes) -> str:
    """Status of the conjunction "all values are zero"."""
    if any(c == NONZERO for c in classes):
        return NONZERO  # the conjunction is definitely false
    if all(c == ZERO for c in classes):
        return ZERO
    return STRADDLE


def _implication_outcome(premise: str, conclusion: str) -> str:
    if premise == NONZERO:
        return "vacuous"
    if premise == STRADDLE or conclusion == STRADDLE:
        return "inconclusive"
    return "supporting" if conclusion == ZERO else "counterexample"


def _biconditional_outcome(condition: bool, all_zero: str) -> str:
    if all_zero == STRADDLE:
        return "inconclusive"
    return "supporting" if condition == (all_zero == ZERO) else "counterexample"


@dataclass(frozen=True)
class ClaimInstance:
    """Everything the claims need from one (model, k0) instance."""

    label: str
    model: LindbladModel
    k0: int
    beta: float
    scale: float
    theta_values: tuple[float, ...]        # row order: |L^{k0 i}|^2 weights
    theta_transposed: tuple[float, ...]    # column order: |L^{i k0}|^2 weights
    power_trace: float
    power_index: float
    condition_holds: bool

    def classes(self, tol: ToleranceConfig) -> tuple[str, str, str]:
        """Class of "all row Thetas vanish", of "all column Thetas vanish",
        and of the power: each ZERO, NONZERO or STRADDLE."""
        row_all = _all_zero_status([_classify(t, self.scale, tol) for t in self.theta_values])
        col_all = _all_zero_status([_classify(t, self.scale, tol) for t in self.theta_transposed])
        return row_all, col_all, _classify(self.power_trace, self.scale, tol)

    def outcomes(self, tol: ToleranceConfig, classes: tuple[str, str, str] | None = None
                 ) -> dict[str, str]:
        """Each claim's outcome, from this instance's classes(tol); a caller that
        has them already passes them as `classes`."""
        row_all, col_all, p_cls = classes or self.classes(tol)
        return {
            "C1": _implication_outcome(row_all, p_cls),
            "C2": _implication_outcome(p_cls, row_all),
            "C3": _biconditional_outcome(self.condition_holds, row_all),
            "C1_transposed": _implication_outcome(col_all, p_cls),
            "C2_transposed": _implication_outcome(p_cls, col_all),
            "C3_transposed": _biconditional_outcome(self.condition_holds, col_all),
        }

    def to_record(self) -> dict:
        return {"label": self.label, "beta": self.beta, "k0": self.k0,
                **model_to_json(self.model), "scale": self.scale,
                "theta_values": list(self.theta_values),
                "theta_transposed": list(self.theta_transposed),
                "power_trace": self.power_trace, "power_index": self.power_index,
                "condition_holds": self.condition_holds}


def _evaluate(rows: _Rows, drawn, w: np.ndarray, u: np.ndarray, beta: float,
              tol: ToleranceConfig, *, check_thetas: bool = True) -> list[ClaimInstance]:
    """evaluate_instance for the leading rows.n instances (label, model, k0) of
    one dimension, from the eigenvalue (k, d) and eigenvector (k, d, d) stacks
    of their Hamiltonians H = U diag(w) U^dag, as one stack of (instance,
    channel) pairs.  One stacked product forms every U^dag L_j U, from which
    the index-form power, Theta in both orders and the vanishing condition are
    read; the trace-form power tr(D_j[|k0><k0|] H), the independent
    cross-check, stays in the original basis.  Sums run over the last axis and
    channels are added in Python, as for one instance, so every value is bit
    for bit that of a loop over instances.

    The instances are checked in order, each for the first of a power-form gap
    beyond power_agreement * max(1, |trace form|), a Theta that overflowed
    (unless `check_thetas` is false) and a non-finite power.  The first
    failure cuts `rows`; the instances before the cut are returned.
    """
    n = rows.n
    if not n:
        return []
    models, k0 = [entry[1] for entry in drawn[:n]], np.array([entry[2] for entry in drawn[:n]])
    d = models[0].dim
    counts = [len(model.channels) for model in models]
    owner, pair = np.repeat(np.arange(n), counts), np.arange(sum(counts))
    rates = np.array([ch.rate for model in models for ch in model.channels])
    ops = np.array([ch.operator for model in models for ch in model.channels],
                   dtype=complex).reshape(-1, d, d)
    h, w, u = np.array([model.hamiltonian.matrix for model in models]), w[:n], u[:n]
    vec, k0_p, u_p, w_p = u[np.arange(n), :, k0], k0[owner], u[owner], w[owner]
    projectors = vec[:, :, None] * np.conj(vec)[:, None, :]  # |k0><k0| of each instance
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        components = dagger(u_p) @ ops @ u_p  # L and U were checked
        h_max, operator_max = (np.abs(x).max(axis=(1, 2)) for x in (h, ops))
        ops_dag = dagger(ops)
        dissipated = _dissipator_matrix(ops, ops_dag, ops_dag @ ops, projectors[owner])
        traces = rates * (dissipated @ h[owner]).trace(axis1=1, axis2=2).real
        shift = w_p - w_p[pair, k0_p][:, None]
        row, col = (np.abs(c) ** 2 for c in (components[pair, k0_p], components[pair, :, k0_p]))
        indices, shift = rates * (col * shift).sum(axis=-1), shift ** 2
        t_rows, t_cols = ((x * shift).sum(axis=-1).tolist() for x in (row, col))
        holds = vanishing_condition(h, w, k0, projectors, components, owner, operator_max,
                                    tol=tol).holds.tolist()
    traces, indices, rates = traces.tolist(), indices.tolist(), rates.tolist()
    operator_max, stop, out = operator_max.tolist(), 0, []
    for j, h_max_j in enumerate(h_max.tolist()):
        (label, model, k0_j), (start, stop) = drawn[j], (stop, stop + counts[j])
        trace_form = index_form = 0.0
        for p in range(start, stop):
            trace_form += traces[p]
            index_form += indices[p]
        gap, bound = abs(trace_form - index_form), tol.power_agreement * max(1.0, abs(trace_form))
        overflowed = next(((p - start, t) for p in range(start, stop)
                           for t in (t_rows[p], t_cols[p]) if not math.isfinite(t)),
                          None) if check_thetas else None
        if gap > bound or (overflowed is None and not (gap <= bound and math.isfinite(gap))):
            rows.cut(j, ConsistencyError(
                f"{'' if label is None else label + ': '}eigenstate power forms disagree: "
                f"trace {trace_form!r} vs index {index_form!r}"))
            break
        if overflowed is not None:
            rows.cut(j, ValidationError(f"Theta of channel {overflowed[0]}, eigenstate {k0_j}: "
                                        f"closed form {overflowed[1]!r} is not finite"))
            break
        channel_scale = max((rate * l_max ** 2 for rate, l_max in
                             zip(rates[start:stop], operator_max[start:stop])), default=0.0)
        out.append(ClaimInstance(
            label=label, model=model, k0=k0_j, beta=beta, scale=max(1.0, h_max_j, channel_scale),
            theta_values=tuple(t_rows[start:stop]), theta_transposed=tuple(t_cols[start:stop]),
            power_trace=trace_form, power_index=index_form, condition_holds=holds[j]))
    return out


def evaluate_instance(model: LindbladModel, k0: int, beta: float, label: str, *,
                      tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ClaimInstance:
    """Closed-form Theta (both index orders), power (both forms), and the
    vanishing condition for one instance: the one-instance case of _evaluate,
    from H = U diag(w) U^dag.

    At rho = |k0><k0|, F coincides with H, and Theta_j reduces to sum_i
    |L_j^{k0 i}|^2 (w_i - w_k0)^2 along row k0 (the row order) or column k0
    (the column order).  A sum that overflows raises ValidationError; power
    forms that disagree or are not finite raise ConsistencyError.
    """
    return _eigen_instance(model, k0, _finite_positive(beta, "beta"), label, tol)[1]


def _eigen_instance(model: LindbladModel, k0: int, beta: float, label: str | None,
                    tol: ToleranceConfig, *, check_thetas: bool = True):
    """H's spectrum and the ClaimInstance of its eigenstate k0 (_evaluate), from
    one solve: the one eigenstate-instance path of the audit entry points."""
    spectrum = hermitian_eig(model.hamiltonian, tol=tol)
    return spectrum, _Rows.single(_evaluate, [(label, model, _eigen_index(k0, model.dim))],
                                  spectrum.eigenvalues[None], spectrum.eigenvectors[None], beta,
                                  tol, check_thetas=check_thetas)[0]


@dataclass(frozen=True)
class EigenstateAuditReport:
    """Closed-form diagnostics for one eigenstate scenario."""

    k0: int
    eigenvalues: tuple[float, ...]
    theta_values: tuple[float, ...]
    theta_transposed: tuple[float, ...]
    power_trace: float
    power_index: float
    power: float
    energy_rate_numeric: float  # tr(L(P) H), which is power_trace: tr(-i[H, P] H) = 0
    scale: float
    verdict: str
    condition_holds: bool
    claim_verdicts: tuple["ClaimVerdict", ...]


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of one claim: confirmed, violated, or inconclusive, with the
    first counterexample (if any) and the tally over all instances."""

    claim_id: str
    status: str
    witness: dict | None
    counts: dict


def _claim_rows(evaluated) -> tuple[ClaimVerdict, ...]:
    """One verdict per claim over (instance, outcomes) pairs."""
    rows = []
    for claim_id in CLAIM_IDS:
        counts = {"instances": 0, "supporting": 0, "vacuous": 0,
                  "counterexamples": 0, "inconclusive": 0}
        witness = None
        for inst, outcomes in evaluated:
            outcome = outcomes[claim_id]
            counts["instances"] += 1
            counts["counterexamples" if outcome == "counterexample" else outcome] += 1
            if outcome == "counterexample" and witness is None:
                witness = inst.to_record()
        status = ("violated" if counts["counterexamples"] else
                  "inconclusive" if counts["inconclusive"] else "confirmed")
        rows.append(ClaimVerdict(claim_id, status, witness, counts))
    return tuple(rows)


def eigenstate_audit(spec: ScenarioSpec, *,
                     tol: ToleranceConfig = DEFAULT_TOLERANCES) -> EigenstateAuditReport:
    """Audit one eigenstate charging scenario.

    Verifies |k0> really is an eigenvector of H (to eigenvector_residual),
    computes Theta in both index orders and the power in both forms, then
    classifies the scenario:
    HYPOTHESIS_REFUTED when some Theta_j and |P| are both cleanly nonzero,
    CONSISTENT when all values are cleanly zero, MIXED when the two sides
    disagree about vanishing, INCONCLUSIVE inside the straddle band.
    """
    h = spec.model.hamiltonian.matrix
    spectrum, instance = _eigen_instance(spec.model, spec.k0, spec.beta, "scenario", tol)
    vec = spectrum.eigenvectors[:, spec.k0]
    residual = max_abs(h @ vec - spectrum.eigenvalues[spec.k0] * vec)
    if residual > tol.eigenvector_residual * max(1.0, max_abs(h)):
        raise ScenarioError(
            f"index {spec.k0} is not an eigenvector of H: residual {residual:.3e}")

    classes = instance.classes(tol)  # one classification for the verdict and the claims
    row_all, _, p_cls = classes
    if row_all == NONZERO and p_cls == NONZERO:
        verdict = VERDICT_REFUTED
    elif row_all == ZERO and p_cls == ZERO:
        verdict = VERDICT_CONSISTENT
    elif STRADDLE in (row_all, p_cls):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_MIXED

    return EigenstateAuditReport(
        k0=spec.k0,
        eigenvalues=tuple(float(x) for x in spectrum.eigenvalues),
        theta_values=instance.theta_values,
        theta_transposed=instance.theta_transposed,
        power_trace=instance.power_trace,
        power_index=instance.power_index,
        power=instance.power_trace,
        energy_rate_numeric=instance.power_trace,
        scale=instance.scale,
        verdict=verdict,
        condition_holds=instance.condition_holds,
        claim_verdicts=_claim_rows([(instance, instance.outcomes(tol, classes))]))


@dataclass(frozen=True)
class EpsilonRow:
    """One rung of the regularization ladder, all rates evaluated at t0."""

    epsilon: float
    power_analytic: float
    energy_rate: float
    entropy_rate: float
    step_error: str | None


@dataclass(frozen=True)
class EpsilonSweepReport:
    """Regularized rates per epsilon plus the entropy-rate log fit.

    `power_reference` is the closed-form eigenstate power the energy rate
    should approach first order in epsilon.  fit_slope is the b in
    entropy_rate ~ a + b ln(eps); whether it tends to zero is reported, not
    assumed.
    """

    k0: int
    power_reference: float
    rows: tuple[EpsilonRow, ...]
    fit_intercept: float | None
    fit_slope: float | None


def epsilon_sweep(spec: ScenarioSpec, *,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> EpsilonSweepReport:
    """Probe the eigenstate scenario through regularized states.

    For each epsilon (descending): rho_eps = (1 - eps)|k0><k0| + eps I/d,
    P_num = tr(D(rho_eps) F), energy_rate = tr(D(rho_eps) H),
    entropy_rate = -tr(D(rho_eps) ln rho_eps), all from one D(rho_eps), the
    generator without its Hamiltonian term (whose contribution to each is 0),
    and the ln rho_eps that F was built from.  One RK4 step per rung is a
    differentiability probe whose breach is recorded on the row instead of
    aborting the sweep.  The rungs come from free_energy._rung_rows, with the
    first failure of evaluating them one at a time.
    """
    if not spec.epsilon_list:
        raise ParameterError("epsilon_sweep needs a non-empty epsilon_list")
    ctx = BatteryContext(spec.beta, spec.model)
    spectrum, reference = _eigen_instance(spec.model, spec.k0, ctx.beta, None, tol,
                                          check_thetas=False)
    rho0 = DensityMatrix.pure(spectrum.eigenvectors[:, spec.k0], tol=tol)
    rows = [EpsilonRow(*r) for r in _rung_rows(ctx, rho0, spec.epsilon_list, spec.step, tol)]
    fit = (None, None)
    if len(rows) >= 2:
        slope, intercept = np.polyfit(np.log([r.epsilon for r in rows]),
                                      np.array([r.entropy_rate for r in rows]), 1)
        fit = (float(intercept), float(slope))
    return EpsilonSweepReport(
        k0=spec.k0, power_reference=reference.power_trace, rows=tuple(rows),
        fit_intercept=fit[0], fit_slope=fit[1])


@dataclass(frozen=True)
class EnsembleSpec:
    """Random-model ensemble for the claim falsifier."""

    seed: int
    trials: int
    dim_min: int = 2
    dim_max: int = 6
    beta: float = 1.0
    include_bundled: bool = True

    def __post_init__(self):
        for name in ("seed", "trials", "dim_min", "dim_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")
        if not 2 <= self.dim_min <= self.dim_max:
            raise ParameterError("need 2 <= dim_min <= dim_max")
        object.__setattr__(self, "beta", _finite_positive(self.beta, "beta"))


@dataclass(frozen=True)
class FalsifierReport:
    """Claim verdicts over bundled witnesses plus the random ensemble."""

    seed: int
    trials: int
    dim_min: int
    dim_max: int
    include_bundled: bool
    claim_verdicts: tuple[ClaimVerdict, ...]
    counterexamples: tuple[dict, ...]


def _one_channel(hamiltonian, channel_matrix, rate=1.0) -> LindbladModel:
    return LindbladModel(HermitianMatrix(np.array(hamiltonian, dtype=complex)),
                         (JumpChannel(rate, np.array(channel_matrix, dtype=complex)),))


def bundled_witnesses() -> tuple[tuple[str, LindbladModel, int], ...]:
    """Fixed witness scenarios the falsifier always evaluates first.

    They pin down the behavior on the edge cases randomized draws almost
    never hit: exactly vanishing Thetas, exactly vanishing power, and a
    Hamiltonian that is exactly a scaled eigenprojector.
    """
    h2 = [[0.0, 0.0], [0.0, 1.0]]
    sigma_x = [[0.0, 1.0], [1.0, 0.0]]
    sigma_minus = [[0.0, 1.0], [0.0, 0.0]]   # |0><1|
    sigma_plus = [[0.0, 0.0], [1.0, 0.0]]    # |1><0|
    h3 = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
    # |0><1| + |2><1|: both summands move probability out of level 1 with
    # opposite energy steps, so the power cancels while the squared weights add
    cancel = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    return (
        ("qubit_sigma_x", _one_channel(h2, sigma_x), 0),
        ("qubit_dark_state", _one_channel(h2, sigma_minus), 0),
        ("qubit_pump", _one_channel(h2, sigma_plus), 0),
        ("qubit_projector_hamiltonian", _one_channel(h2, sigma_plus), 1),
        ("qutrit_power_cancellation", _one_channel(h3, cancel), 1),
    )


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)


def _random_instance(rng: np.random.Generator, ens: EnsembleSpec):
    d = int(rng.integers(ens.dim_min, ens.dim_max + 1))
    g = _ginibre(rng, d)
    # 0.5 (G + G^dag) is exactly Hermitian, so symmetrizing it again gives the same bits
    h = 0.5 * (g + dagger(g))
    h.flags.writeable = False
    n_channels = int(rng.integers(1, 4))
    channels = tuple(
        JumpChannel._trusted(float(1.0 - rng.random()), _ginibre(rng, d))  # rate in (0, 1]
        for _ in range(n_channels))
    k0 = int(rng.integers(0, d))
    return LindbladModel._trusted(HermitianMatrix._trusted(h, 0.0), channels), k0


def claim_falsifier(ensemble: EnsembleSpec, *,
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> FalsifierReport:
    """Randomized falsification of claims C1, C2, C3 in both index orders.

    Deterministic for a given seed: bundled witnesses first (fixed order),
    then `trials` random instances drawn from a seeded generator.  Every
    counterexample is serialized in full so it can be re-evaluated from the
    report alone.

    All draws come first (none depends on an evaluation).  Then, one dimension
    at a time and largest first, the Hamiltonians are solved as one stack and
    evaluated in blocks, which keeps the peak resident set low; each
    dimension's first failure, the solver's included, cuts its _Rows.  The cut
    with the smallest draw index is raised: the same instance and message as
    with single solves.
    """
    rng = np.random.default_rng(ensemble.seed)
    drawn = [(f"bundled:{name}", model, k0) for name, model, k0 in bundled_witnesses()
             if ensemble.include_bundled]
    drawn += [(f"trial:{trial}", *_random_instance(rng, ensemble))
              for trial in range(ensemble.trials)]
    instances, by_dim, cuts = [None] * len(drawn), {}, []
    for i, (_, model, _) in enumerate(drawn):
        by_dim.setdefault(model.dim, []).append(i)
    for _, members in sorted(by_dim.items(), reverse=True):
        rows = _Rows(len(members))
        w, u = hermitian_eigs(rows, np.array([drawn[i][1].hamiltonian.matrix for i in members]),
                              tol=tol)
        for at in range(0, rows.n, _BLOCK):
            block = _Rows(min(_BLOCK, rows.n - at))
            results = _evaluate(block, [drawn[i] for i in members[at:at + block.n]], w[at:], u[at:],
                                ensemble.beta, tol)
            for i, instance in zip(members[at:], results):
                instances[i] = instance
            if block.error is not None:
                rows.cut(at + block.n, block.error)
                break
        if rows.error is not None:
            cuts.append((members[rows.n], rows.error))
    if cuts:
        raise min(cuts, key=lambda cut: cut[0])[1]

    evaluated = [(inst, inst.outcomes(tol)) for inst in instances]
    counterexamples = []
    for inst, outcomes in evaluated:
        violated = sorted(cid for cid, out in outcomes.items() if out == "counterexample")
        if violated:
            counterexamples.append(dict(inst.to_record(), violates=violated))
    return FalsifierReport(
        seed=ensemble.seed, trials=ensemble.trials,
        dim_min=ensemble.dim_min, dim_max=ensemble.dim_max,
        include_bundled=ensemble.include_bundled,
        claim_verdicts=_claim_rows(evaluated), counterexamples=tuple(counterexamples))


def reevaluate_witness(record: dict, *,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ClaimInstance:
    """Rebuild the model from a serialized counterexample and recompute it.

    The recomputed Theta, power, and condition must land within 1e-12 of the
    recorded values for the record to count as reproducible; callers assert
    that, this function just recomputes.
    """
    model = model_from_json(record, path=record.get("label", "witness"), tol=tol)
    return evaluate_instance(model, record["k0"], record["beta"], record.get("label", "witness"),
                             tol=tol)
