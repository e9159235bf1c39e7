import math

import numpy as np
import pytest

import oracles
from qbattery.audit import (EnsembleSpec, ScenarioSpec, bundled_witnesses, claim_falsifier,
                            eigenstate_audit, epsilon_sweep, evaluate_instance,
                            reevaluate_witness)
from qbattery.dynamics import JumpChannel, LindbladModel
from qbattery.errors import ParameterError, ScenarioError
from qbattery.linalg import HermitianMatrix, hermitian_eig
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
        assert {c.claim_id for c in report.claims} == {
            "C1", "C2", "C3", "C1_transposed", "C2_transposed", "C3_transposed"}

    def test_dark_state_splits_the_two_index_orders(self):
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(SIGMA_MINUS), beta=1.0, k0=0))
        assert report.verdict == "MIXED"
        assert report.theta_values == (1.0,)
        assert report.theta_transposed == (0.0,)
        assert report.power == pytest.approx(0.0, abs=1e-14)
        assert not report.condition_holds
        by_id = {c.claim_id: c for c in report.claims}
        assert by_id["C2"].status == "violated"
        assert by_id["C3_transposed"].status == "violated"
        assert by_id["C1"].status == "confirmed"

    def test_pump_is_mixed_the_other_way(self):
        # row-order Theta vanishes while the power is 1
        report = eigenstate_audit(ScenarioSpec(model=qubit_model(SIGMA_PLUS), beta=1.0, k0=0))
        assert report.verdict == "MIXED"
        assert report.theta_values == (0.0,)
        assert report.power == pytest.approx(1.0, abs=1e-12)
        assert {c.claim_id: c.status for c in report.claims}["C1"] == "violated"

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
        statuses = {c.claim_id: c.status for c in report.claims}
        assert statuses["C1"] == "inconclusive"

    def test_eigenvector_check_is_active(self):
        h = HermitianMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        model = LindbladModel(h, (JumpChannel(1.0, SIGMA_X),))
        tol = DEFAULT_TOLERANCES.replace(eigenvector_residual=0.0)
        with pytest.raises(ScenarioError):
            eigenstate_audit(ScenarioSpec(model=model, beta=1.0, k0=0), tol=tol)

    def test_cached_spectrum_gives_the_same_instance(self, rng):
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 4)),
                              (JumpChannel(0.5, oracles.random_ginibre(rng, 4)),))
        cached = evaluate_instance(model, 1, 1.0, "x", spectrum=hermitian_eig(model.hamiltonian))
        assert cached.to_record() == evaluate_instance(model, 1, 1.0, "x").to_record()


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
        statuses = {c.claim_id: c.status for c in report.claims}
        assert statuses == {
            "C1": "violated",
            "C2": "violated",
            "C3": "violated",
            "C1_transposed": "confirmed",
            "C2_transposed": "violated",
            "C3_transposed": "violated",
        }
        witnesses = {c.claim_id: (c.witness or {}).get("label") for c in report.claims}
        assert witnesses["C1"] == "bundled:qubit_pump"
        assert witnesses["C2"] == "bundled:qubit_dark_state"
        assert witnesses["C2_transposed"] == "bundled:qutrit_power_cancellation"

    def test_deterministic_given_seed(self):
        assert self.run().to_dict() == self.run().to_dict()

    def test_seed_changes_the_ensemble(self):
        a = self.run(include_bundled=False)
        b = self.run(include_bundled=False, seed=43)
        assert a.to_dict() != b.to_dict()

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
        for claim in report.claims:
            counts = claim.counts
            assert counts["instances"] == 35  # 30 trials + 5 bundled
            assert (counts["supporting"] + counts["vacuous"]
                    + counts["counterexamples"] + counts["inconclusive"]) == 35

    def test_bundle_can_be_disabled(self):
        report = self.run(trials=10, include_bundled=False)
        assert report.claims[0].counts["instances"] == 10

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

    def test_bundled_list_shape(self):
        names = [name for name, _, _ in bundled_witnesses()]
        assert names == ["qubit_sigma_x", "qubit_dark_state", "qubit_pump",
                         "qubit_projector_hamiltonian", "qutrit_power_cancellation"]
