import json
import math

import numpy as np
import pytest

import oracles
from qbattery import audit
from qbattery.audit import (EnsembleSpec, FalsifierReport, ScenarioSpec, bundled_witnesses,
                            claim_falsifier, eigenstate_audit, epsilon_sweep,
                            evaluate_instance, reevaluate_witness)
from qbattery.cli import _encode
from qbattery.dynamics import DensityMatrix, JumpChannel, LindbladModel, _mixed
from qbattery.errors import (ConsistencyError, ConvergenceError, ParameterError, QBatteryError,
                             ScenarioError, ValidationError)
from qbattery.linalg import HermitianMatrix, _Rows, hermitian_eig, max_abs
from qbattery.tolerances import DEFAULT_TOLERANCES

H2 = HermitianMatrix(np.diag([0.0, 1.0]))
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


def qubit_model(channel, rate=1.0):
    return LindbladModel(H2, (JumpChannel(rate, channel),))


class TestScenarioSpec:
    def test_beta_must_be_positive(self):
        with pytest.raises(ParameterError):
            ScenarioSpec(model=qubit_model(SIGMA_X), beta=0.0, k0=0)

    def test_k0_range(self):
        with pytest.raises(ParameterError):
            ScenarioSpec(model=qubit_model(SIGMA_X), beta=1.0, k0=2)

    def test_epsilons_must_descend(self):
        with pytest.raises(ParameterError):
            ScenarioSpec(model=qubit_model(SIGMA_X), beta=1.0, k0=0,
                         epsilon_list=(1e-3, 1e-2))

    def test_epsilons_must_be_in_unit_interval(self):
        with pytest.raises(ParameterError):
            ScenarioSpec(model=qubit_model(SIGMA_X), beta=1.0, k0=0,
                         epsilon_list=(1.5,))


class TestEigenstateAudit:
    def test_sigma_x_headline(self):
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(SIGMA_X), beta=1.0, k0=0))
        assert report.verdict == "HYPOTHESIS_REFUTED"
        assert report.theta_values == (1.0,)
        assert report.power == pytest.approx(1.0, abs=1e-12)
        assert abs(report.power_trace - report.power_index) <= 1e-10
        assert report.energy_rate_numeric == pytest.approx(1.0, abs=1e-12)
        assert report.eigenvalues == (0.0, 1.0)
        assert {c.claim_id for c in report.claim_verdicts} == {
            "C1", "C2", "C3", "C1_transposed", "C2_transposed", "C3_transposed"}

    def test_one_classification_per_audit(self, monkeypatch):
        # the verdict and the claim rows read the same classes
        calls = []
        classes = audit.ClaimInstance.classes
        monkeypatch.setattr(audit.ClaimInstance, "classes",
                            lambda instance, tol: calls.append(tol) or classes(instance, tol))
        for channel in (SIGMA_X, SIGMA_MINUS, SIGMA_PLUS):
            calls.clear()
            eigenstate_audit(ScenarioSpec(model=qubit_model(channel), beta=1.0, k0=0))
            assert len(calls) == 1

    def test_dark_state_splits_the_two_index_orders(self):
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(SIGMA_MINUS), beta=1.0, k0=0))
        assert report.verdict == "MIXED"
        assert report.theta_values == (1.0,)
        assert report.theta_transposed == (0.0,)
        assert report.power == pytest.approx(0.0, abs=1e-14)
        assert not report.condition_holds
        by_id = {c.claim_id: c for c in report.claim_verdicts}
        assert by_id["C2"].status == "violated"
        assert by_id["C3_transposed"].status == "violated"
        assert by_id["C1"].status == "confirmed"

    def test_pump_is_mixed_the_other_way(self):
        # row-order Theta vanishes while the power is 1
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(SIGMA_PLUS), beta=1.0, k0=0))
        assert report.verdict == "MIXED"
        assert report.theta_values == (0.0,)
        assert report.power == pytest.approx(1.0, abs=1e-12)
        assert {c.claim_id: c.status for c in report.claim_verdicts}["C1"] == "violated"

    def test_diagonal_channels_consistent(self):
        model = LindbladModel(H2, (JumpChannel(1.0, np.diag([1.0, 2.0])),
                                   JumpChannel(0.5, np.diag([0.0, 3.0]))))
        report = eigenstate_audit(ScenarioSpec(model=model, beta=1.0, k0=0))
        assert report.verdict == "CONSISTENT"
        assert report.theta_values == (0.0, 0.0)
        assert report.power == 0.0

    def test_straddle_band_is_inconclusive(self):
        a = math.sqrt(3e-10)  # Theta = P = 3e-10, inside (1e-10, 1e-9)
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(a * SIGMA_X), beta=1.0, k0=0))
        assert report.verdict == "INCONCLUSIVE"
        statuses = {c.claim_id: c.status for c in report.claim_verdicts}
        assert statuses["C1"] == "inconclusive"

    def test_eigenvector_check_is_active(self):
        h = HermitianMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        model = LindbladModel(h, (JumpChannel(1.0, SIGMA_X),))
        tol = DEFAULT_TOLERANCES.replace(eigenvector_residual=0.0)
        with pytest.raises(ScenarioError):
            eigenstate_audit(ScenarioSpec(model=model, beta=1.0, k0=0), tol=tol)

    def test_audit_instance_and_sweep_reference_agree(self, rng):
        # the three single-instance readers share one evaluation: equal bits
        for _ in range(12):
            d, n = int(rng.integers(3, 7)), int(rng.integers(1, 4))
            model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, d)), tuple(
                JumpChannel(float(rng.uniform(0.1, 2.0)), oracles.random_ginibre(rng, d))
                for _ in range(n)))
            k0 = int(rng.integers(0, d))
            spec = ScenarioSpec(model=model, beta=0.7, k0=k0, epsilon_list=(1e-2,))
            report = eigenstate_audit(spec)
            record = evaluate_instance(model, k0, 0.7, "x").to_record()
            fields = ("theta_values", "theta_transposed", "power_trace", "power_index",
                      "scale", "condition_holds")
            got = {f: getattr(report, f) for f in fields}
            assert json.dumps(got) == json.dumps({f: record[f] for f in fields})
            assert repr(report.power) == repr(record["power_trace"])
            assert repr(epsilon_sweep(spec).power_reference) == repr(record["power_trace"])


class TestEpsilonSweep:
    EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

    def sweep(self, channel=SIGMA_PLUS):
        spec = ScenarioSpec(model=qubit_model(channel), beta=1.0, k0=0,
                            epsilon_list=self.EPS)
        return epsilon_sweep(spec)

    def test_energy_rate_closed_form(self):
        # pumping out of the regularized ground state: rate is 1 - eps/2
        report = self.sweep()
        assert report.power_reference == pytest.approx(1.0, abs=1e-12)
        for row in report.rows:
            assert row.energy_rate == pytest.approx(1.0 - row.epsilon / 2.0, abs=1e-9)
            assert row.step_error is None

    def test_energy_rate_converges_monotonically(self):
        report = self.sweep()
        gaps = [abs(r.energy_rate - report.power_reference) for r in report.rows]
        assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))

    def test_entropy_rate_diverges_logarithmically(self):
        report = self.sweep()
        assert report.fit_slope == pytest.approx(-1.0, abs=0.05)
        rates = [r.entropy_rate for r in report.rows]
        assert all(rates[i + 1] > rates[i] for i in range(len(rates) - 1))

    def test_unitary_only_entropy_rate_is_flat_zero(self):
        spec = ScenarioSpec(model=LindbladModel(H2), beta=1.0, k0=0,
                            epsilon_list=(1e-2, 1e-3, 1e-4))
        report = epsilon_sweep(spec)
        for row in report.rows:
            assert abs(row.entropy_rate) <= 1e-9
        assert abs(report.fit_slope) <= 1e-9

    def test_unstable_step_probe_fails_on_every_rung(self):
        # RK4 is unstable at gamma h = 100: the probe step must actually run
        # and record the negativity it produces on every rung
        spec = ScenarioSpec(model=qubit_model(SIGMA_MINUS, rate=100.0), beta=1.0, k0=1,
                            epsilon_list=(1e-1, 1e-2, 1e-3), step=1.0)
        report = epsilon_sweep(spec)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.step_error is not None
            assert "smallest eigenvalue" in row.step_error

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rates_scale_with_the_hamiltonian(self):
        # tr(-i[H, rho_eps] X) is 0 for X = H, F, ln rho_eps; with its rounding kept,
        # P read nan at s = 1e200 and the entropy rate 9.76e81 at s = 1e100
        h = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]])
        rows = {}
        for s in (1.0, 1e100, 1e200, 1e300):
            spec = ScenarioSpec(model=LindbladModel(HermitianMatrix(s * h),
                                                    (JumpChannel(1.0, SIGMA_MINUS),)),
                                beta=1.0, k0=0, epsilon_list=(1e-2, 1e-3))
            rows[s] = epsilon_sweep(spec).rows
        for s, scaled in rows.items():
            for unit, row in zip(rows[1.0], scaled):
                assert row.energy_rate / s == pytest.approx(unit.energy_rate, rel=1e-9)
                assert row.entropy_rate == pytest.approx(unit.entropy_rate, rel=1e-9)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_stacked_rungs_match_one_state_at_a_time(self, rng, d):
        # non-diagonal H: the rungs are one warm chain from rho0's eigenvectors;
        # each rung's rates against the numpy-only references from the same rho_eps
        h = oracles.random_hermitian(rng, d)
        channels = [(0.5, oracles.random_ginibre(rng, d)) for _ in range(2)]
        model = LindbladModel(HermitianMatrix(h), tuple(JumpChannel(*ch) for ch in channels))
        spec = ScenarioSpec(model=model, beta=0.7, k0=1, epsilon_list=self.EPS)
        report = epsilon_sweep(spec)
        rho0 = DensityMatrix.pure(hermitian_eig(model.hamiltonian).eigenvectors[:, 1])
        assert len(report.rows) == len(self.EPS)
        for row in report.rows:
            rho = _mixed(rho0.matrix, row.epsilon)
            rate = oracles.generator(np.zeros((d, d)), channels, rho)
            f = oracles.free_energy_matrix(rho, h, spec.beta)
            assert row.energy_rate == pytest.approx((rate @ h).trace().real, rel=1e-12)
            assert row.power_analytic == pytest.approx((rate @ f).trace().real, rel=1e-8)
            assert row.entropy_rate == pytest.approx(
                -(rate @ oracles.log_psd(rho)).trace().real, rel=1e-8)

    def test_empty_list_rejected(self):
        spec = ScenarioSpec(model=qubit_model(SIGMA_PLUS), beta=1.0, k0=0)
        with pytest.raises(ParameterError):
            epsilon_sweep(spec)


class TestClaimFalsifier:
    def run(self, **kwargs):
        defaults = dict(seed=42, trials=50, dim_max=5)
        defaults.update(kwargs)
        return claim_falsifier(EnsembleSpec(**defaults))

    def test_bundled_witnesses_pin_all_six_verdicts(self):
        report = self.run()
        statuses = {c.claim_id: c.status for c in report.claim_verdicts}
        assert statuses == {
            "C1": "violated",
            "C2": "violated",
            "C3": "violated",
            "C1_transposed": "confirmed",
            "C2_transposed": "violated",
            "C3_transposed": "violated",
        }
        witnesses = {c.claim_id: (c.witness or {}).get("label")
                     for c in report.claim_verdicts}
        assert witnesses["C1"] == "bundled:qubit_pump"
        assert witnesses["C2"] == "bundled:qubit_dark_state"
        assert witnesses["C2_transposed"] == "bundled:qutrit_power_cancellation"

    def test_deterministic_given_seed(self):
        assert self.run() == self.run()

    def test_seed_changes_the_ensemble(self):
        a = self.run(include_bundled=False)
        b = self.run(include_bundled=False, seed=43)
        assert a != b

    def test_counterexamples_reproduce_on_reload(self):
        report = self.run()
        assert report.counterexamples
        for record in report.counterexamples:
            inst = reevaluate_witness(record)
            assert abs(inst.power_trace - record["power_trace"]) <= 1e-12
            for got, want in zip(inst.theta_values, record["theta_values"]):
                assert abs(got - want) <= 1e-12
            for got, want in zip(inst.theta_transposed, record["theta_transposed"]):
                assert abs(got - want) <= 1e-12
            assert inst.condition_holds == record["condition_holds"]

    def test_counts_add_up(self):
        report = self.run(trials=30)
        for claim in report.claim_verdicts:
            counts = claim.counts
            assert counts["instances"] == 35  # 30 trials + 5 bundled
            assert (counts["supporting"] + counts["vacuous"]
                    + counts["counterexamples"] + counts["inconclusive"]) == 35

    def test_bundle_can_be_disabled(self):
        report = self.run(trials=10, include_bundled=False)
        assert report.claim_verdicts[0].counts["instances"] == 10

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(seed=1, trials=0)

    def test_diagonal_ensemble_supports_first_claim(self, rng):
        # diagonal channels keep both Theta and P at exactly zero
        for _ in range(20):
            d = int(rng.integers(2, 6))
            h = HermitianMatrix(np.diag(rng.uniform(-2.0, 2.0, size=d)))
            channels = tuple(
                JumpChannel(float(1.0 - rng.random()),
                            np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex))
                for _ in range(int(rng.integers(1, 3))))
            inst = evaluate_instance(LindbladModel(h, channels), int(rng.integers(0, d)),
                                     1.0, "diag")
            assert inst.outcomes(DEFAULT_TOLERANCES)["C1"] == "supporting"

    @staticmethod
    def solved_one_by_one(ens: EnsembleSpec, tol) -> FalsifierReport:
        """The falsifier as a loop of single solves: each instance drawn, then
        evaluated with its own hermitian_eig inside evaluate_instance."""
        rng = np.random.default_rng(ens.seed)
        instances = [evaluate_instance(model, k0, ens.beta, f"bundled:{name}", tol=tol)
                     for name, model, k0 in bundled_witnesses()]
        for trial in range(ens.trials):
            model, k0 = audit._random_instance(rng, ens)
            instances.append(evaluate_instance(model, k0, ens.beta, f"trial:{trial}", tol=tol))
        evaluated = [(inst, inst.outcomes(tol)) for inst in instances]
        counterexamples = []
        for inst, outcomes in evaluated:
            violated = sorted(c for c, out in outcomes.items() if out == "counterexample")
            if violated:
                counterexamples.append(dict(inst.to_record(), violates=violated))
        return FalsifierReport(ens.seed, ens.trials, ens.dim_min, ens.dim_max, True,
                               audit._claim_rows(evaluated), tuple(counterexamples))

    @pytest.mark.parametrize("seed, dim_max", [(0, 6), (3, 6), (11, 9), (12, 2)])
    def test_stacked_solves_give_the_single_solve_report(self, seed, dim_max):
        # with claim_zero = 1e6 every value counts as zero, so nearly every
        # instance refutes C3 and its full record, Thetas and powers, lands
        # in the report in draw order
        tol = DEFAULT_TOLERANCES.replace(claim_zero=1e6)
        ens = EnsembleSpec(seed=seed, trials=60, dim_max=dim_max)
        got = _encode(claim_falsifier(ens, tol=tol))
        want = _encode(self.solved_one_by_one(ens, tol))
        assert len(got["counterexamples"]) == len(want["counterexamples"]) > 40
        # record by record, as JSON text: equal down to the sign of a zero
        for got_record, want_record in zip(got.pop("counterexamples"),
                                           want.pop("counterexamples")):
            assert json.dumps(got_record) == json.dumps(want_record)
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("sweeps", [1, 3, 4])
    def test_a_solver_failure_stops_at_the_same_instance(self, sweeps):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=sweeps)
        ens = EnsembleSpec(seed=5, trials=200, dim_max=6)
        with pytest.raises(ConvergenceError) as want:
            self.solved_one_by_one(ens, tol)
        with pytest.raises(ConvergenceError) as got:
            claim_falsifier(ens, tol=tol)
        assert str(got.value) == str(want.value)

    # each dimension's stack cuts at its own first failure, the solver's guards
    # or the evaluation's; the one drawn first is raised, whichever dimension
    # was solved first
    @pytest.mark.parametrize("guard", [{"power_agreement": 0.0}, {"unitarity": 1e-300},
                                       {"reconstruction": 1e-18}])
    def test_an_evaluation_failure_stops_at_the_same_instance(self, guard):
        tol = DEFAULT_TOLERANCES.replace(**guard)
        ens = EnsembleSpec(seed=5, trials=200, dim_max=6)
        with pytest.raises(QBatteryError) as want:
            self.solved_one_by_one(ens, tol)
        with pytest.raises(QBatteryError) as got:
            claim_falsifier(ens, tol=tol)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_bundled_list_shape(self):
        names = [name for name, _, _ in bundled_witnesses()]
        assert names == ["qubit_sigma_x", "qubit_dark_state", "qubit_pump",
                         "qubit_projector_hamiltonian", "qutrit_power_cancellation"]


def loop_instance(model, k0, beta, label, tol):
    """The per-instance evaluation the stacked one replaced, kept as an oracle:
    one channel at a time, each U^dag L_j U and D_j[|k0><k0|] formed on its own."""
    eig = hermitian_eig(model.hamiltonian, tol=tol)
    h, w, u = model.hamiltonian.matrix, eig.eigenvalues, eig.eigenvectors
    components = [np.conj(u.T) @ ch.operator @ u for ch in model.channels]
    projector = np.outer(u[:, k0], np.conj(u[:, k0]))
    trace_form = index_form = 0.0
    for ch, l_c in zip(model.channels, components):
        l, ldag = ch.operator, np.conj(ch.operator.T)
        d_mat = l @ projector @ ldag - 0.5 * (ldag @ l @ projector + projector @ (ldag @ l))
        trace_form += ch.rate * float(np.real(np.trace(d_mat @ h)))
        index_form += ch.rate * float(np.sum(np.abs(l_c[:, k0]) ** 2 * (w - w[k0])))
    if abs(trace_form - index_form) > tol.power_agreement * max(1.0, abs(trace_form)):
        raise ConsistencyError(f"{label}: eigenstate power forms disagree: "
                               f"trace {trace_form!r} vs index {index_form!r}")
    # the vanishing condition, one channel at a time over the nonzero levels
    scale = max(1.0, max_abs(h))
    pivot = projector * w[k0]
    nonzero = np.abs(w) > tol.predicate_zero * scale
    off_diagonal = 1.0 - np.eye(model.dim)
    per_channel = [not np.any(np.linalg.norm((l_c * off_diagonal)[:, nonzero], axis=0)
                              > tol.predicate_zero * max(1.0, max_abs(ch.operator)))
                   for ch, l_c in zip(model.channels, components)]
    holds = bool(max_abs(h - pivot) <= tol.predicate_zero * scale or all(per_channel))
    thetas = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, l_c in enumerate(components):
            for line in (l_c[k0, :], l_c[:, k0]):
                thetas.append(float(np.sum(np.abs(line) ** 2 * (w - w[k0]) ** 2)))
                if not math.isfinite(thetas[-1]):
                    raise ValidationError(f"Theta of channel {j}, eigenstate {k0}: "
                                          f"closed form {thetas[-1]!r} is not finite")
    channel_scale = max((ch.rate * max_abs(ch.operator) ** 2 for ch in model.channels),
                        default=0.0)
    return audit.ClaimInstance(
        label=label, model=model, k0=k0, beta=float(beta),
        scale=max(1.0, max_abs(h), channel_scale),
        theta_values=tuple(thetas[0::2]), theta_transposed=tuple(thetas[1::2]),
        power_trace=trace_form, power_index=index_form, condition_holds=holds)


def drawn_ensemble(ens):
    """(label, model, k0) in the falsifier's draw order."""
    rng = np.random.default_rng(ens.seed)
    drawn = [(f"bundled:{name}", model, k0) for name, model, k0 in bundled_witnesses()]
    return drawn + [(f"trial:{t}", *audit._random_instance(rng, ens)) for t in range(ens.trials)]


def record_text(inst):
    """An instance's report record as JSON text: equal down to the sign of a zero."""
    return json.dumps(_encode(inst.to_record()))


class TestStackedEvaluation:
    TOL = DEFAULT_TOLERANCES.replace(claim_zero=1e6)  # every value counts as zero

    def assert_stacks_match_the_loop(self, entries):
        """Each dimension of (label, model, k0) entries as one stack, against the loop."""
        for d in sorted({model.dim for _, model, _ in entries}):
            group = [entry for entry in entries if entry[1].dim == d]
            spectra = [hermitian_eig(model.hamiltonian) for _, model, _ in group]
            w = np.array([spectrum.eigenvalues for spectrum in spectra])
            u = np.array([spectrum.eigenvectors for spectrum in spectra])
            rows = _Rows(len(group))
            stacked = audit._evaluate(rows, group, w, u, 1.0, self.TOL)
            assert rows.error is None and len(stacked) == len(group)
            for got, (label, model, k0) in zip(stacked, group):
                want = record_text(loop_instance(model, k0, 1.0, label, self.TOL))
                assert record_text(got) == want
                assert record_text(evaluate_instance(model, k0, 1.0, label, tol=self.TOL)) == want

    @pytest.mark.parametrize("seed, dim_max", [(0, 2), (3, 6), (11, 9)])
    def test_every_instance_matches_the_loop(self, seed, dim_max):
        self.assert_stacks_match_the_loop(
            drawn_ensemble(EnsembleSpec(seed=seed, trials=120, dim_max=dim_max)))

    @pytest.mark.parametrize("seed, dim_max", [(0, 2), (3, 6), (11, 9)])
    def test_the_report_matches_the_loop(self, seed, dim_max):
        ens = EnsembleSpec(seed=seed, trials=120, dim_max=dim_max)
        want = [loop_instance(model, k0, ens.beta, label, self.TOL)
                for label, model, k0 in drawn_ensemble(ens)]
        want = [dict(_encode(inst.to_record()), violates=violated) for inst in want
                if (violated := sorted(c for c, out in inst.outcomes(self.TOL).items()
                                       if out == "counterexample"))]
        got = _encode(claim_falsifier(ens, tol=self.TOL))["counterexamples"]
        assert len(got) == len(want) > 100
        for got_record, want_record in zip(got, want):
            assert json.dumps(got_record) == json.dumps(want_record)

    def test_edge_instances_match_the_loop(self, rng):
        # zero-rate and zero-channel models, k0 at both ends of the spectrum,
        # many channels, and the bundled witnesses, evaluated as one stack per dimension
        cases = list(bundled_witnesses())
        for d in (2, 3, 5, 8):
            h = HermitianMatrix(oracles.random_hermitian(rng, d))
            for k0 in (0, d - 1):
                n_channels = 1 if d == 2 else 9
                ginibre = [oracles.random_ginibre(rng, d) for _ in range(n_channels)]
                rates = [0.0] + [float(1.0 - rng.random()) for _ in ginibre[1:]]
                cases.append(("random", LindbladModel(h, tuple(map(JumpChannel, rates, ginibre))),
                              k0))
                cases.append(("zero_rate", LindbladModel(h, (JumpChannel(0.0, ginibre[0]),)), k0))
                cases.append(("no_channels", LindbladModel(h, ()), k0))
        self.assert_stacks_match_the_loop(cases)


def overflowing(d, k0, channel):
    """A model of dimension d whose Theta of `channel` at eigenstate k0 overflows."""
    h = np.diag(np.arange(d, dtype=float) * 1e200)
    ops = [np.zeros((d, d), dtype=complex) for _ in range(channel + 1)]
    ops[channel][k0, (k0 + 1) % d] = 1.0
    return LindbladModel(HermitianMatrix(h), tuple(JumpChannel(1.0, op) for op in ops)), k0


def disagreeing(rng, d):
    """A random model of dimension d whose two power forms differ in the last bits."""
    while True:
        model, k0 = audit._random_instance(rng, EnsembleSpec(seed=0, trials=1, dim_min=d,
                                                             dim_max=d))
        inst = evaluate_instance(model, k0, 1.0, "x")
        if inst.power_trace != inst.power_index:
            return model, k0


def agreeing(d):
    """A model of dimension d whose power forms agree exactly and whose Thetas are finite."""
    h = HermitianMatrix(np.diag(np.arange(d, dtype=float)))
    lowering = np.diag(np.ones(d - 1), 1).astype(complex)
    return LindbladModel(h, (JumpChannel(1.0, lowering),)), d - 1


class TestFailureOrder:
    """Two failing instances, of dimension 2 and 6: the dimension-6 stack is
    solved and evaluated first, yet the failure raised is the earlier drawn."""

    def falsify(self, monkeypatch, instances, tol):
        scripted = iter(instances)
        monkeypatch.setattr(audit, "_random_instance", lambda rng, ens: next(scripted))
        ens = EnsembleSpec(seed=0, trials=len(instances), dim_max=6, include_bundled=False)
        with pytest.raises(QBatteryError) as failure:
            claim_falsifier(ens, tol=tol)
        return str(failure.value)

    @staticmethod
    def message(instance, label, tol):
        with pytest.raises(QBatteryError) as failure:
            evaluate_instance(*instance, 1.0, label, tol=tol)
        return str(failure.value)

    @pytest.mark.parametrize("kind", ["theta_overflow", "power_disagreement"])
    def test_the_earliest_drawn_failure_is_raised(self, monkeypatch, kind):
        if kind == "theta_overflow":
            tol = DEFAULT_TOLERANCES
            small, large = overflowing(2, 0, 0), overflowing(6, 3, 1)
        else:
            tol = DEFAULT_TOLERANCES.replace(power_agreement=0.0)
            rng = np.random.default_rng(1)
            small, large = disagreeing(rng, 2), disagreeing(rng, 6)
        fine = [agreeing(d) for d in (3, 4, 5, 6, 2)]
        assert self.message(small, "trial:2", tol) != self.message(large, "trial:2", tol)
        drawn = fine[:2] + [small] + fine[2:3] + [large] + fine[3:]
        assert self.falsify(monkeypatch, drawn, tol) == self.message(small, "trial:2", tol)
        drawn = fine[:2] + [large] + fine[2:3] + [small] + fine[3:]
        assert self.falsify(monkeypatch, drawn, tol) == self.message(large, "trial:2", tol)


class TestOutcomeRules:
    def test_implication_truth_table(self):
        classes = (audit.ZERO, audit.NONZERO, audit.STRADDLE)
        assert {(p, c) for p in classes for c in classes} == set(oracles.IMPLICATION_OUTCOMES)
        for (premise, conclusion), want in oracles.IMPLICATION_OUTCOMES.items():
            assert audit._implication_outcome(premise, conclusion) == want, (premise, conclusion)

    def test_biconditional_truth_table(self):
        classes = (audit.ZERO, audit.NONZERO, audit.STRADDLE)
        assert {(h, c) for h in (True, False) for c in classes} == set(oracles.BICONDITIONAL_OUTCOMES)
        for (holds, all_zero), want in oracles.BICONDITIONAL_OUTCOMES.items():
            assert audit._biconditional_outcome(holds, all_zero) == want, (holds, all_zero)

    # a value exactly on each cut, and one float below and above it: the zero
    # cut claim_zero * scale is inclusive, and so is the band claim_band * cut
    @pytest.mark.parametrize("scale", [1.0, 3.0, 2.5e7])
    def test_classify_on_and_beside_each_cut(self, scale):
        tol = DEFAULT_TOLERANCES
        cut = tol.claim_zero * scale
        band = tol.claim_band * cut
        for sign in (1.0, -1.0):
            def classes(x):
                return [audit._classify(sign * float(y), scale, tol)
                        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
            assert classes(cut) == [audit.ZERO, audit.ZERO, audit.STRADDLE]
            assert classes(band) == [audit.STRADDLE, audit.NONZERO, audit.NONZERO]
