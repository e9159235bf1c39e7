import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import density_matrices
from qbattery.audit import evaluate_instance
from qbattery.dynamics import (DensityMatrix, JumpChannel, LindbladModel, propagate,
                               regularize, thermal_state)
from qbattery.errors import ParameterError, RankDeficientError
from qbattery.free_energy import (BatteryContext, compute_theta_report,
                                  eigenstate_decomposition, free_energy_operator,
                                  components_in_basis, mean_free_energy, power_analytic,
                                  power_eigenstate, power_fd, theta_eigenstate,
                                  theta_index_form, theta_operator_form,
                                  vanishing_condition)
from qbattery.linalg import HermitianMatrix, hermitian_eig, matrix_function, max_abs

H2 = HermitianMatrix(np.diag([0.0, 1.0]))
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
GROUND = DensityMatrix(np.diag([1.0, 0.0]))

LN2 = math.log(2.0)


def qubit_ctx(channel=None, rate=1.0, beta=1.0):
    channels = () if channel is None else (JumpChannel(rate, channel),)
    return BatteryContext(beta, LindbladModel(H2, channels))


class TestFreeEnergyOperator:
    def test_maximally_mixed_qubit(self):
        ctx = qubit_ctx()
        decomp = free_energy_operator(DensityMatrix.maximally_mixed(2), ctx)
        want = np.diag([-LN2, 1.0 - LN2])
        assert max_abs(decomp.f_op.matrix - want) <= 1e-14
        assert decomp.mean == pytest.approx(0.5 - LN2, abs=1e-14)

    def test_thermal_state_has_zero_fluctuation(self):
        ctx = qubit_ctx()
        decomp = free_energy_operator(thermal_state(H2, 1.0), ctx)
        assert max_abs(decomp.delta_f.matrix) <= 1e-10
        assert decomp.mean == pytest.approx(-math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_pure_state_rejected(self):
        with pytest.raises(RankDeficientError) as exc:
            free_energy_operator(GROUND, qubit_ctx())
        assert exc.value.smallest_eigenvalue <= 1e-12

    @given(density_matrices(2, 5))
    @settings(max_examples=30)
    def test_decomposition_invariants(self, rho_m):
        d = rho_m.shape[0]
        rng = np.random.default_rng(3)
        ctx = BatteryContext(0.7, LindbladModel(
            HermitianMatrix(oracles.random_hermitian(rng, d))))
        rho = DensityMatrix(rho_m)
        decomp = free_energy_operator(rho, ctx)
        eye = np.eye(d)
        assert max_abs(decomp.delta_f.matrix - (decomp.f_op.matrix - decomp.mean * eye)) <= 1e-10
        assert abs(np.trace(rho.matrix @ decomp.delta_f.matrix)) <= 1e-9
        assert max_abs(decomp.basis @ np.diag(decomp.w) @ oracles.dag(decomp.basis)
                       - decomp.delta_f.matrix) <= 1e-9

    def test_matches_numpy_pipeline(self, rng):
        rho_m = oracles.random_density(rng, 4)
        h_m = oracles.random_hermitian(rng, 4)
        beta = 2.5
        ctx = BatteryContext(beta, LindbladModel(HermitianMatrix(h_m)))
        decomp = free_energy_operator(DensityMatrix(rho_m), ctx)
        want = oracles.free_energy_matrix(rho_m, h_m, beta)
        assert max_abs(decomp.f_op.matrix - want) <= 1e-9

    def test_reused_log_rho_gives_the_same_decomposition(self, rng):
        rho = DensityMatrix(oracles.random_density(rng, 4))
        ctx = BatteryContext(0.8, LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 4))))
        log_rho = matrix_function(rho.hermitian, math.log, spectrum=rho.spectrum)
        a = free_energy_operator(rho, ctx, log_rho=log_rho)
        b = free_energy_operator(rho, ctx)
        assert np.array_equal(a.f_op.matrix, b.f_op.matrix)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.basis, b.basis)

    def test_warm_start_from_a_nearby_state(self, rng):
        # the deltaF basis of one trajectory row warm-starts the next row's
        d = 6
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, d)),
                              (JumpChannel(0.5, oracles.random_ginibre(rng, d)),))
        ctx = BatteryContext(1.0, model)
        states = [s for s, _ in propagate(model, DensityMatrix(oracles.random_density(rng, d)),
                                          np.linspace(0.0, 2e-3, 3))]
        previous = free_energy_operator(states[1], ctx)
        warm = free_energy_operator(states[2], ctx, basis=previous.basis)
        cold = free_energy_operator(states[2], ctx)
        assert max_abs(warm.w - cold.w) <= 1e-12 * max(1.0, max_abs(cold.w))
        assert max_abs((warm.basis * warm.w) @ oracles.dag(warm.basis)
                       - warm.delta_f.matrix) <= 1e-12


class TestMeanFreeEnergy:
    def test_eigenstate_gives_bare_energy(self):
        ctx = qubit_ctx()
        decomp, rho = eigenstate_decomposition(ctx, 1)
        assert decomp.mean == 1.0
        assert mean_free_energy(rho, ctx) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_literal(self):
        got = mean_free_energy(DensityMatrix.maximally_mixed(2), qubit_ctx())
        assert got == pytest.approx(0.5 - LN2, abs=1e-14)

    def test_thermal_literal(self):
        got = mean_free_energy(thermal_state(H2, 1.0), qubit_ctx())
        assert got == pytest.approx(-math.log(1.0 + math.exp(-1.0)), abs=1e-14)

    def test_agrees_with_trace_form(self, rng):
        ctx = BatteryContext(1.3, LindbladModel(
            HermitianMatrix(oracles.random_hermitian(rng, 4))))
        rho = DensityMatrix(oracles.random_density(rng, 4))
        decomp = free_energy_operator(rho, ctx)
        assert mean_free_energy(rho, ctx) == pytest.approx(decomp.mean, abs=1e-9)


class TestPower:
    def test_unitary_only_commuting_state(self):
        ctx = qubit_ctx()
        rho = thermal_state(H2, 1.0)
        assert abs(power_analytic(rho, ctx)) <= 1e-10

    def test_unitary_only_any_state(self, rng):
        h = HermitianMatrix(oracles.random_hermitian(rng, 3))
        ctx = BatteryContext(1.0, LindbladModel(h))
        rho = DensityMatrix(oracles.random_density(rng, 3))
        assert abs(power_analytic(rho, ctx)) <= 1e-9

    def test_pure_state_rejected(self):
        with pytest.raises(RankDeficientError):
            power_analytic(GROUND, qubit_ctx(SIGMA_PLUS))

    def test_matches_finite_difference_inside_trajectory(self):
        ctx = qubit_ctx(SIGMA_PLUS)
        rho0 = regularize(GROUND, 1e-3)
        grid = np.linspace(0.0, 1.0, 1001)
        states = [s for s, _ in propagate(ctx.model, rho0, grid)]
        i = 500
        p_an = power_analytic(states[i], ctx)
        p_fd = power_fd(states[i - 1], states[i + 1], grid[1] - grid[0], ctx)
        assert abs(p_an - p_fd) <= 1e-5

    def test_fd_error_quarters_when_step_halves(self):
        ctx = qubit_ctx(SIGMA_PLUS)
        rho0 = regularize(GROUND, 1e-3)
        errors = []
        for n in (251, 501):  # h = 2e-3 then 1e-3 over [0, 0.5]
            grid = np.linspace(0.0, 0.5, n)
            states = [s for s, _ in propagate(ctx.model, rho0, grid)]
            i = (n - 1) // 2  # t = 0.25
            p_fd = power_fd(states[i - 1], states[i + 1], grid[1] - grid[0], ctx)
            errors.append(abs(p_fd - power_analytic(states[i], ctx)))
        ratio = errors[0] / errors[1]
        assert 3.0 < ratio < 5.0

    def test_fd_constant_trajectory(self):
        model = LindbladModel(HermitianMatrix(np.zeros((2, 2))))
        ctx = BatteryContext(1.0, model)
        rho0 = DensityMatrix(np.diag([0.25, 0.75]))
        grid = np.linspace(0.0, 0.1, 11)
        states = [s for s, _ in propagate(model, rho0, grid)]
        assert power_fd(states[4], states[6], grid[1] - grid[0], ctx) == 0.0

    def test_fd_unitary_precession(self):
        h = HermitianMatrix(np.diag([0.0, 1.0]))
        ctx = BatteryContext(1.0, LindbladModel(h))
        plus = DensityMatrix.pure([1.0, 1.0])
        rho0 = regularize(plus, 0.1)
        grid = np.linspace(0.0, 1.0, 1001)
        states = [s for s, _ in propagate(ctx.model, rho0, grid)]
        assert abs(power_fd(states[499], states[501], grid[1] - grid[0], ctx)) <= 1e-8

    def test_fd_step_validation(self):
        ctx = BatteryContext(1.0, LindbladModel(H2))
        rho = DensityMatrix.maximally_mixed(2)
        for bad in (0.0, -0.01, math.inf, math.nan):
            with pytest.raises(ParameterError):
                power_fd(rho, rho, bad, ctx)


class TestThetaOperatorForm:
    def test_thermal_state_zero(self, rng):
        ctx = qubit_ctx()
        rho = thermal_state(H2, 1.0)
        decomp = free_energy_operator(rho, ctx)
        l = oracles.random_ginibre(rng, 2)
        assert theta_operator_form(decomp, rho, l) <= 1e-12

    def test_diagonal_operator_commutes(self):
        ctx = qubit_ctx()
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        decomp = free_energy_operator(rho, ctx)
        assert theta_operator_form(decomp, rho, np.diag([2.0, 1.0 + 3.0j])) == 0.0

    def test_eigenstate_qubit_literal(self):
        # deltaF = diag(0,1) - 0*I at k0 = 0; [deltaF, sigma_minus] has unit weight
        decomp, rho = eigenstate_decomposition(qubit_ctx(), 0)
        assert theta_operator_form(decomp, rho, SIGMA_MINUS) == pytest.approx(1.0, abs=1e-14)


class TestThetaIndexForm:
    def test_constant_spectrum_vanishes(self, rng):
        rho_c = oracles.random_density(rng, 4)
        l_c = oracles.random_ginibre(rng, 4)
        assert theta_index_form(np.full(4, 2.5), rho_c, l_c) == 0.0

    def test_shift_invariance(self, rng):
        w = rng.uniform(-2.0, 2.0, size=4)
        rho_c = oracles.random_density(rng, 4)
        l_c = oracles.random_ginibre(rng, 4)
        base = theta_index_form(w, rho_c, l_c)
        for c in (-3.0, 0.7, 11.0):
            assert theta_index_form(w + c, rho_c, l_c) == pytest.approx(base, abs=1e-10)

    def test_against_einsum_oracle(self, rng):
        for d in (5, 32):
            w = rng.uniform(-2.0, 2.0, size=d)
            rho_c = oracles.random_density(rng, d)
            l_c = oracles.random_ginibre(rng, d)
            want = oracles.theta_index_einsum(w, rho_c, l_c)
            assert theta_index_form(w, rho_c, l_c) == pytest.approx(want, abs=1e-11)

    def test_matches_operator_form_d5(self, rng):
        h_m = oracles.random_hermitian(rng, 5)
        ctx = BatteryContext(1.0, LindbladModel(HermitianMatrix(h_m)))
        rho = DensityMatrix(oracles.random_density(rng, 5))
        l = oracles.random_ginibre(rng, 5)
        decomp = free_energy_operator(rho, ctx)
        t_op = theta_operator_form(decomp, rho, l)
        rho_c = components_in_basis(rho.matrix, decomp.basis)
        l_c = components_in_basis(l, decomp.basis)
        t_ix = theta_index_form(decomp.w, rho_c, l_c)
        assert abs(t_ix - t_op) <= 1e-9 * abs(t_op)

    def test_full_pipeline_against_numpy(self, rng):
        # same quantity straight from the definition, numpy end to end
        h_m = oracles.random_hermitian(rng, 4)
        rho_m = oracles.random_density(rng, 4)
        l = oracles.random_ginibre(rng, 4)
        beta = 0.8
        ctx = BatteryContext(beta, LindbladModel(HermitianMatrix(h_m)))
        rho = DensityMatrix(rho_m)
        decomp = free_energy_operator(rho, ctx)
        got = theta_operator_form(decomp, rho, l)
        want = oracles.theta(rho_m, h_m, beta, l)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestThetaEigenstate:
    def test_sigma_x_unit(self):
        l_c = SIGMA_X
        assert theta_eigenstate(0, [0.0, 1.0], l_c) == 1.0

    def test_raising_operator_zero_row(self):
        assert theta_eigenstate(0, [0.0, 1.0], SIGMA_PLUS) == 0.0

    def test_diagonal_operator(self):
        assert theta_eigenstate(1, [0.0, 1.0], np.diag([3.0, 4.0])) == 0.0

    def test_reduces_from_index_form(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 7))
            w = rng.uniform(-2.0, 2.0, size=d)
            l_c = oracles.random_ginibre(rng, d)
            k0 = int(rng.integers(0, d))
            proj = np.zeros((d, d), dtype=complex)
            proj[k0, k0] = 1.0
            got = theta_eigenstate(k0, w, l_c)
            want = theta_index_form(w, proj, l_c)
            assert abs(got - want) <= 1e-12

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            theta_eigenstate(5, [0.0, 1.0], SIGMA_X)


class TestThetaReport:
    def test_discrepancy_invariant(self, rng):
        d = 4
        model = LindbladModel(
            HermitianMatrix(oracles.random_hermitian(rng, d)),
            (JumpChannel(0.8, oracles.random_ginibre(rng, d)),
             JumpChannel(0.3, oracles.random_ginibre(rng, d))))
        ctx = BatteryContext(1.0, model)
        rho = DensityMatrix(oracles.random_density(rng, d))
        decomp = free_energy_operator(rho, ctx)
        report = compute_theta_report(decomp, rho, model)
        assert len(report.channels) == 2
        for entry in report.channels:
            assert entry.theta_operator >= -1e-10
            assert abs(entry.discrepancy) <= 1e-9 * max(1.0, entry.theta_operator)


class TestPowerEigenstate:
    def test_sigma_x_refutation_value(self):
        assert power_eigenstate(0, qubit_ctx(SIGMA_X)) == pytest.approx(1.0, abs=1e-14)

    def test_dark_state_zero(self):
        assert power_eigenstate(0, qubit_ctx(SIGMA_MINUS)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_channels_zero(self):
        assert power_eigenstate(0, qubit_ctx(np.diag([1.0, 2.0]))) == pytest.approx(0.0, abs=1e-14)

    def test_forms_agree_on_random_models(self, rng):
        # the trace/index agreement is asserted inside; exercise many draws
        for _ in range(25):
            d = int(rng.integers(2, 7))
            model = LindbladModel(
                HermitianMatrix(oracles.random_hermitian(rng, d)),
                (JumpChannel(float(1.0 - rng.random()), oracles.random_ginibre(rng, d)),))
            k0 = int(rng.integers(0, d))
            value = power_eigenstate(k0, BatteryContext(1.0, model))
            assert math.isfinite(value)


class TestVanishingCondition:
    def test_zero_hamiltonian_trivially_true(self, rng):
        model = LindbladModel(HermitianMatrix(np.zeros((2, 2))),
                              (JumpChannel(1.0, oracles.random_ginibre(rng, 2)),))
        report = vanishing_condition(BatteryContext(1.0, model), 0)
        assert report.holds and report.trivial_action

    def test_sigma_x_false_with_nonzero_theta(self):
        ctx = qubit_ctx(SIGMA_X)
        report = vanishing_condition(ctx, 0)
        assert not report.holds
        theta = evaluate_instance(ctx.model, 0, ctx.beta, "sigma_x").theta_values[0]
        assert theta == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_channel_true_with_zero_theta(self):
        ctx = qubit_ctx(np.diag([2.0, 5.0]))
        report = vanishing_condition(ctx, 0)
        assert report.holds and report.trivial_action
        assert evaluate_instance(ctx.model, 0, ctx.beta, "diagonal").theta_values[0] == 0.0

    def test_cached_spectrum_gives_the_same_report(self, rng):
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 4)),
                              (JumpChannel(0.5, oracles.random_ginibre(rng, 4)),))
        ctx = BatteryContext(1.0, model)
        spectrum = hermitian_eig(model.hamiltonian)
        assert vanishing_condition(ctx, 2, spectrum=spectrum) == vanishing_condition(ctx, 2)

    def test_projector_hamiltonian_holds_despite_nonzero_theta(self):
        # H = 1 * |1><1| exactly, yet the raising channel has unit fluctuation:
        # the instance on which the claimed equivalence breaks
        ctx = qubit_ctx(SIGMA_PLUS)
        report = vanishing_condition(ctx, 1)
        assert report.holds and report.projector_hamiltonian
        theta = evaluate_instance(ctx.model, 1, ctx.beta, "projector").theta_values[0]
        assert theta == pytest.approx(1.0, abs=1e-14)
