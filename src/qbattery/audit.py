"""Numerical audits of verbal claims about eigenstate charging.

Three instruments:

* eigenstate_audit: for a battery prepared in Hamiltonian eigenstate k0,
  compute every Theta_j in closed form (both index orders), the charging
  power in trace and index form, and the numeric energy rate, then classify
  the scenario (HYPOTHESIS_REFUTED / CONSISTENT / MIXED / INCONCLUSIVE).

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

from .dynamics import (DensityMatrix, JumpChannel, LindbladModel,
                       _generator_matrix, _generator_terms, liouvillian,
                       propagate, regularize)
from .errors import ParameterError, PropagationError, ScenarioError
from .free_energy import (BatteryContext, _eigen_index, _eigenstate_power_forms,
                          free_energy_operator, power_analytic, theta_eigenstate,
                          vanishing_condition)
from .jsonio import model_from_json, model_to_json
from .linalg import (HermitianMatrix, Spectrum, dagger, hermitian_eig, matrix_function,
                     max_abs)
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

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
        if not (isinstance(self.beta, (int, float)) and math.isfinite(float(self.beta))
                and float(self.beta) > 0.0):
            raise ParameterError(f"beta must be finite and positive, got {self.beta!r}")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "k0", _eigen_index(self.k0, self.model.dim))
        eps = tuple(float(e) for e in self.epsilon_list)
        for e in eps:
            if not 0.0 < e < 1.0:
                raise ParameterError(f"epsilon {e!r} must lie strictly inside (0, 1)")
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ParameterError("epsilon_list must be strictly descending")
        object.__setattr__(self, "epsilon_list", eps)
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ParameterError("step must be finite and positive")


def _claim_scale(model: LindbladModel) -> float:
    channel_scale = max((ch.rate * max_abs(ch.operator) ** 2 for ch in model.channels),
                        default=0.0)
    return max(1.0, max_abs(model.hamiltonian.matrix), channel_scale)


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

    def outcomes(self, tol: ToleranceConfig) -> dict[str, str]:
        row_all, col_all, p_cls = self.classes(tol)
        return {
            "C1": _implication_outcome(row_all, p_cls),
            "C2": _implication_outcome(p_cls, row_all),
            "C3": _biconditional_outcome(self.condition_holds, row_all),
            "C1_transposed": _implication_outcome(col_all, p_cls),
            "C2_transposed": _implication_outcome(p_cls, col_all),
            "C3_transposed": _biconditional_outcome(self.condition_holds, col_all),
        }

    def to_record(self) -> dict:
        record = {"label": self.label, "beta": self.beta, "k0": self.k0}
        record.update(model_to_json(self.model))
        record.update({
            "scale": self.scale,
            "theta_values": list(self.theta_values),
            "theta_transposed": list(self.theta_transposed),
            "power_trace": self.power_trace,
            "power_index": self.power_index,
            "condition_holds": self.condition_holds,
        })
        return record


def evaluate_instance(model: LindbladModel, k0: int, beta: float, label: str, *,
                      spectrum: Spectrum | None = None,
                      tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ClaimInstance:
    """Closed-form Theta (both index orders), power (both forms), and the
    vanishing condition for one instance.  Pass `spectrum` to reuse a cached
    decomposition of H."""
    ctx = BatteryContext(beta, model)
    trace_form, index_form, eig, components = _eigenstate_power_forms(
        k0, ctx, spectrum=spectrum, label=label, tol=tol)
    w = eig.eigenvalues
    condition = vanishing_condition(ctx, k0, spectrum=eig, tol=tol)
    return ClaimInstance(
        label=label, model=model, k0=int(k0), beta=float(beta),
        scale=_claim_scale(model),
        theta_values=tuple(theta_eigenstate(k0, w, l_c) for l_c in components),
        theta_transposed=tuple(theta_eigenstate(k0, w, l_c.T) for l_c in components),
        power_trace=trace_form, power_index=index_form,
        condition_holds=condition.holds)


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
    energy_rate_numeric: float
    scale: float
    verdict: str
    condition_holds: bool
    claims: tuple["ClaimVerdict", ...]

    def to_dict(self) -> dict:
        return {
            "k0": self.k0,
            "eigenvalues": list(self.eigenvalues),
            "theta_values": list(self.theta_values),
            "theta_transposed": list(self.theta_transposed),
            "power_trace": self.power_trace,
            "power_index": self.power_index,
            "power": self.power,
            "energy_rate_numeric": self.energy_rate_numeric,
            "scale": self.scale,
            "verdict": self.verdict,
            "condition_holds": self.condition_holds,
            "claim_verdicts": [c.to_dict() for c in self.claims],
        }


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of one claim: confirmed, violated, or inconclusive, with the
    first counterexample (if any) and the tally over all instances."""

    claim_id: str
    status: str
    witness: dict | None
    counts: dict

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "witness": self.witness,
            "counts": dict(self.counts),
        }


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
            key = outcome if outcome in ("supporting", "vacuous", "inconclusive") \
                else "counterexamples"
            counts[key] += 1
            if outcome == "counterexample" and witness is None:
                witness = inst.to_record()
        if counts["counterexamples"] > 0:
            status = "violated"
        elif counts["inconclusive"] > 0:
            status = "inconclusive"
        else:
            status = "confirmed"
        rows.append(ClaimVerdict(claim_id, status, witness, counts))
    return tuple(rows)


def eigenstate_audit(spec: ScenarioSpec, *,
                     tol: ToleranceConfig = DEFAULT_TOLERANCES) -> EigenstateAuditReport:
    """Audit one eigenstate charging scenario.

    Verifies |k0> really is an eigenvector of H (to eigenvector_residual),
    computes Theta in both index orders, the power in both forms, and the
    numeric energy rate tr(L(rho) H), then classifies the scenario:
    HYPOTHESIS_REFUTED when some Theta_j and |P| are both cleanly nonzero,
    CONSISTENT when all values are cleanly zero, MIXED when the two sides
    disagree about vanishing, INCONCLUSIVE inside the straddle band.
    """
    h = spec.model.hamiltonian.matrix
    spectrum = hermitian_eig(spec.model.hamiltonian, tol=tol)
    vec = spectrum.eigenvectors[:, spec.k0]
    residual = max_abs(h @ vec - spectrum.eigenvalues[spec.k0] * vec)
    if residual > tol.eigenvector_residual * max(1.0, max_abs(h)):
        raise ScenarioError(
            f"index {spec.k0} is not an eigenvector of H: residual {residual:.3e}")

    instance = evaluate_instance(spec.model, spec.k0, spec.beta, "scenario",
                                 spectrum=spectrum, tol=tol)

    projector = np.outer(vec, np.conj(vec))
    rate = _generator_matrix(h, _generator_terms(spec.model), projector)
    energy_rate = float(np.real(np.trace(rate @ h)))

    row_all, _, p_cls = instance.classes(tol)
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
        energy_rate_numeric=energy_rate,
        scale=instance.scale,
        verdict=verdict,
        condition_holds=instance.condition_holds,
        claims=_claim_rows([(instance, instance.outcomes(tol))]))


@dataclass(frozen=True)
class EpsilonRow:
    """One rung of the regularization ladder, all rates evaluated at t0."""

    epsilon: float
    power_analytic: float
    energy_rate: float
    entropy_rate: float
    step_error: str | None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "power_analytic": self.power_analytic,
            "energy_rate": self.energy_rate,
            "entropy_rate": self.entropy_rate,
            "step_error": self.step_error,
        }


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

    def to_dict(self) -> dict:
        return {
            "k0": self.k0,
            "power_reference": self.power_reference,
            "rows": [r.to_dict() for r in self.rows],
            "fit_intercept": self.fit_intercept,
            "fit_slope": self.fit_slope,
        }


def epsilon_sweep(spec: ScenarioSpec, *,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> EpsilonSweepReport:
    """Probe the eigenstate scenario through regularized states.

    For each epsilon (descending): rho_eps = (1 - eps)|k0><k0| + eps I/d,
    P_num = power_analytic(rho_eps), energy_rate = tr(L(rho_eps) H),
    entropy_rate = -tr(L(rho_eps) ln rho_eps).  One RK4 step is attempted per
    rung as a differentiability probe; its failure is recorded on the row
    instead of aborting the sweep.
    """
    if not spec.epsilon_list:
        raise ParameterError("epsilon_sweep needs a non-empty epsilon_list")
    ctx = BatteryContext(spec.beta, spec.model)
    trace_form, _, spectrum, _ = _eigenstate_power_forms(spec.k0, ctx, tol=tol)
    rho0 = DensityMatrix.pure(spectrum.eigenvectors[:, spec.k0], tol=tol)
    h = spec.model.hamiltonian.matrix

    rows = []
    for eps in spec.epsilon_list:
        rho_eps = regularize(rho0, eps, tol=tol)
        rate = liouvillian(spec.model, rho_eps, tol=tol)
        energy_rate = float(np.real(np.trace(rate.matrix @ h)))
        log_rho = matrix_function(rho_eps.hermitian, math.log,
                                  spectrum=rho_eps.spectrum, tol=tol)
        entropy_rate = -float(np.real(np.trace(rate.matrix @ log_rho.matrix)))
        decomp = free_energy_operator(rho_eps, ctx, log_rho=log_rho, tol=tol)
        p_num = power_analytic(rho_eps, ctx, decomp=decomp, tol=tol)
        step_error = None
        try:
            for _ in propagate(spec.model, rho_eps, [0.0, spec.step], tol=tol):
                pass  # the RK4 step only runs when its state is drawn
        except PropagationError as exc:
            step_error = str(exc)
        rows.append(EpsilonRow(float(eps), p_num, energy_rate, entropy_rate, step_error))

    if len(rows) >= 2:
        x = np.log([r.epsilon for r in rows])
        y = np.array([r.entropy_rate for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        fit = (float(intercept), float(slope))
    else:
        fit = (None, None)
    return EpsilonSweepReport(
        k0=spec.k0, power_reference=trace_form, rows=tuple(rows),
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
        if int(self.trials) < 1:
            raise ParameterError("trials must be at least 1")
        if not 2 <= int(self.dim_min) <= int(self.dim_max):
            raise ParameterError("need 2 <= dim_min <= dim_max")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "dim_min", int(self.dim_min))
        object.__setattr__(self, "dim_max", int(self.dim_max))
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class FalsifierReport:
    """Claim verdicts over bundled witnesses plus the random ensemble."""

    seed: int
    trials: int
    dim_min: int
    dim_max: int
    include_bundled: bool
    claims: tuple[ClaimVerdict, ...]
    counterexamples: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dim_min": self.dim_min,
            "dim_max": self.dim_max,
            "include_bundled": self.include_bundled,
            "claim_verdicts": [c.to_dict() for c in self.claims],
            "counterexamples": list(self.counterexamples),
        }


def _qubit(hamiltonian, channel_matrix, rate=1.0) -> LindbladModel:
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
        ("qubit_sigma_x", _qubit(h2, sigma_x), 0),
        ("qubit_dark_state", _qubit(h2, sigma_minus), 0),
        ("qubit_pump", _qubit(h2, sigma_plus), 0),
        ("qubit_projector_hamiltonian", _qubit(h2, sigma_plus), 1),
        ("qutrit_power_cancellation",
         LindbladModel(HermitianMatrix(np.array(h3, dtype=complex)),
                       (JumpChannel(1.0, np.array(cancel, dtype=complex)),)), 1),
    )


def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)


def _random_instance(rng: np.random.Generator, ens: EnsembleSpec):
    d = int(rng.integers(ens.dim_min, ens.dim_max + 1))
    g = _ginibre(rng, d)
    ham = HermitianMatrix(0.5 * (g + dagger(g)))
    n_channels = int(rng.integers(1, 4))
    channels = tuple(
        JumpChannel(float(1.0 - rng.random()), _ginibre(rng, d))  # rate in (0, 1]
        for _ in range(n_channels))
    k0 = int(rng.integers(0, d))
    return LindbladModel(ham, channels), k0


def claim_falsifier(ensemble: EnsembleSpec, *,
                    tol: ToleranceConfig = DEFAULT_TOLERANCES) -> FalsifierReport:
    """Randomized falsification of claims C1, C2, C3 in both index orders.

    Deterministic for a given seed: bundled witnesses first (fixed order),
    then `trials` random instances drawn from a seeded generator.  Every
    counterexample is serialized in full so it can be re-evaluated from the
    report alone.
    """
    rng = np.random.default_rng(ensemble.seed)
    instances = []
    if ensemble.include_bundled:
        for name, model, k0 in bundled_witnesses():
            instances.append(evaluate_instance(model, k0, ensemble.beta,
                                               f"bundled:{name}", tol=tol))
    for trial in range(ensemble.trials):
        model, k0 = _random_instance(rng, ensemble)
        instances.append(evaluate_instance(model, k0, ensemble.beta,
                                           f"trial:{trial}", tol=tol))

    evaluated = [(inst, inst.outcomes(tol)) for inst in instances]
    counterexamples = []
    for inst, outcomes in evaluated:
        violated = sorted(cid for cid, out in outcomes.items() if out == "counterexample")
        if violated:
            record = inst.to_record()
            record["violates"] = violated
            counterexamples.append(record)
    return FalsifierReport(
        seed=ensemble.seed, trials=ensemble.trials,
        dim_min=ensemble.dim_min, dim_max=ensemble.dim_max,
        include_bundled=ensemble.include_bundled,
        claims=_claim_rows(evaluated), counterexamples=tuple(counterexamples))


def reevaluate_witness(record: dict, *,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ClaimInstance:
    """Rebuild the model from a serialized counterexample and recompute it.

    The recomputed Theta, power, and condition must land within 1e-12 of the
    recorded values for the record to count as reproducible; callers assert
    that, this function just recomputes.
    """
    model = model_from_json(record, path=record.get("label", "witness"), tol=tol)
    return evaluate_instance(model, int(record["k0"]), float(record["beta"]),
                             record.get("label", "witness"), tol=tol)
