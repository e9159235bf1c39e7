import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import density_matrices
from one_row import (compute_theta_report, free_energy_operator, liouvillian, matrix_function,
                     mean_free_energy, power_analytic, theta_index_form, theta_operator_form)
from qbattery.audit import bundled_witnesses, evaluate_instance
from qbattery.config import parse_config
from qbattery.dynamics import (DensityMatrix, JumpChannel, LindbladModel, _mixed, propagate,
                               thermal_state)
from qbattery.errors import (ConfigError, ConsistencyError, ConvergenceError, DimensionError,
                             ParameterError, QBatteryError, RankDeficientError, ValidationError)
from qbattery.free_energy import BatteryContext, _evaluate_rows, _run_rows, vanishing_condition
from qbattery import linalg
from qbattery.linalg import HermitianMatrix, dagger, hermitian_eig, max_abs
from qbattery.tolerances import DEFAULT_TOLERANCES, ToleranceConfig

H2 = HermitianMatrix(np.diag([0.0, 1.0]))
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
GROUND = DensityMatrix(np.diag([1.0, 0.0]))
MIXED = DensityMatrix(np.eye(2) / 2.0)

LN2 = math.log(2.0)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def qubit_ctx(channel=None, rate=1.0, beta=1.0):
    channels = () if channel is None else (JumpChannel(rate, channel),)
    return BatteryContext(beta, LindbladModel(H2, channels))


def run_powers(ctx, rho0, grid):
    """(analytic, central-difference) power of each `run` row from rho0 on `grid`."""
    header, *rows = _run_rows(ctx, rho0, 0.0, np.asarray(grid), DEFAULT_TOLERANCES)
    analytic, fd = header.index("power_analytic"), header.index("power_fd")
    return [(row[analytic], row[fd]) for row in rows]


def power_at(rho, ctx):
    """tr(L(rho) F) through the two stacks every caller builds."""
    return power_analytic(liouvillian(ctx.model, rho), free_energy_operator(rho, ctx).f_op)


def condition_at(model, k0):
    """vanishing_condition of one instance, on the stacks evaluate_instance builds."""
    eig = hermitian_eig(model.hamiltonian)
    u, owner = eig.eigenvectors, np.zeros(len(model.channels), dtype=int)
    ops = np.array([ch.operator for ch in model.channels]).reshape(-1, model.dim, model.dim)
    holds = vanishing_condition(
        model.hamiltonian.matrix[None], eig.eigenvalues[None], np.array([k0]),
        np.outer(u[:, k0], np.conj(u[:, k0]))[None], dagger(u) @ ops @ u, owner,
        np.array([max_abs(op) for op in ops]))
    return bool(holds[0])


def closed_form_theta(k0, w, l_c):
    """Row-order eigenstate Theta of one channel with components l_c over the
    spectrum w: evaluate_instance on H = diag(w), L = l_c.  For ascending w the
    solver returns w and U = I exactly, so U^dag L U is l_c itself."""
    model = LindbladModel(HermitianMatrix(np.diag(np.asarray(w, dtype=float))),
                          (JumpChannel(1.0, l_c),))
    return evaluate_instance(model, k0, 1.0, "closed form").theta_values[0]


def eigenstate_power(k0, ctx):
    """Trace-form eigenstate power; evaluate_instance checks it against the index form."""
    return evaluate_instance(ctx.model, k0, ctx.beta, "eigenstate").power_trace


class TestFreeEnergyOperator:
    def test_maximally_mixed_qubit(self):
        ctx = qubit_ctx()
        decomp = free_energy_operator(MIXED, ctx)
        want = np.diag([-LN2, 1.0 - LN2])
        assert max_abs(decomp.f_op - want) <= 1e-14
        assert decomp.mean == pytest.approx(0.5 - LN2, abs=1e-14)

    def test_thermal_state_has_zero_fluctuation(self):
        ctx = qubit_ctx()
        decomp = free_energy_operator(thermal_state(H2, 1.0), ctx)
        assert max_abs(decomp.delta_f) <= 1e-10
        assert decomp.mean == pytest.approx(-math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_pure_state_rejected(self):
        with pytest.raises(RankDeficientError) as exc:
            free_energy_operator(GROUND, qubit_ctx())
        smallest = re.search(r"smallest eigenvalue (\S+) <= threshold", str(exc.value)).group(1)
        assert float(smallest) <= 1e-12

    @given(density_matrices(2, 6))
    @settings(max_examples=30)
    def test_decomposition_invariants(self, rho_m):
        d = rho_m.shape[0]
        rng = np.random.default_rng(3)
        ctx = BatteryContext(0.7, LindbladModel(
            HermitianMatrix(oracles.random_hermitian(rng, d))))
        rho = DensityMatrix(rho_m)
        decomp = free_energy_operator(rho, ctx)
        eye = np.eye(d)
        assert max_abs(decomp.delta_f - (decomp.f_op - decomp.mean * eye)) <= 1e-10
        assert abs(np.trace(rho.matrix @ decomp.delta_f)) <= 1e-9
        # deltaF's eigensystem as compute_theta_report reads it from F's
        eig = hermitian_eig(HermitianMatrix(decomp.f_op))
        w, basis = eig.eigenvalues - decomp.mean, eig.eigenvectors
        assert max_abs(basis @ np.diag(w) @ oracles.dag(basis) - decomp.delta_f) <= 1e-9
        want = np.linalg.eigvalsh(decomp.delta_f)
        assert max_abs(w - want) <= 1e-12 * max(1.0, max_abs(decomp.f_op))

    def test_matches_numpy_pipeline(self, rng):
        rho_m = oracles.random_density(rng, 4)
        h_m = oracles.random_hermitian(rng, 4)
        beta = 2.5
        ctx = BatteryContext(beta, LindbladModel(HermitianMatrix(h_m)))
        decomp = free_energy_operator(DensityMatrix(rho_m), ctx)
        want = oracles.free_energy_matrix(rho_m, h_m, beta)
        assert max_abs(decomp.f_op - want) <= 1e-9

    def test_keeps_the_log_rho_it_lifts(self, rng):
        rho = DensityMatrix(oracles.random_density(rng, 4))
        h = HermitianMatrix(oracles.random_hermitian(rng, 4))
        decomp = free_energy_operator(rho, BatteryContext(0.8, LindbladModel(h)))
        log_rho = matrix_function(rho.spectrum, math.log)
        assert np.array_equal(decomp.log_rho, log_rho)
        assert max_abs(decomp.log_rho - oracles.log_psd(rho.matrix)) <= 1e-10
        want = HermitianMatrix(h.matrix + log_rho / 0.8).matrix
        assert np.array_equal(decomp.f_op, want)

    def test_warm_start_from_a_nearby_state(self, rng):
        # the F basis of one trajectory row warm-starts the next row's
        d = 6
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, d)),
                              (JumpChannel(0.5, oracles.random_ginibre(rng, d)),))
        ctx = BatteryContext(1.0, model)
        states = [s for s, _ in propagate(model, DensityMatrix(oracles.random_density(rng, d)),
                                          np.linspace(0.0, 2e-3, 3))]
        previous = hermitian_eig(HermitianMatrix(free_energy_operator(states[1], ctx).f_op))
        decomp = free_energy_operator(states[2], ctx)
        warm = hermitian_eig(HermitianMatrix(decomp.f_op), basis=previous.eigenvectors)
        cold = hermitian_eig(HermitianMatrix(decomp.f_op))
        warm_w, cold_w = (eig.eigenvalues - decomp.mean for eig in (warm, cold))
        assert max_abs(warm_w - cold_w) <= 1e-12 * max(1.0, max_abs(cold_w))
        assert max_abs((warm.eigenvectors * warm_w) @ oracles.dag(warm.eigenvectors)
                       - decomp.delta_f) <= 1e-12


def thermal_ginibre(seed, d):
    """A d-level Ginibre model with two channels and its thermal state at
    beta = 1, built like the benchmark's dense run."""
    rng = np.random.default_rng(seed)
    h = HermitianMatrix(oracles.random_hermitian(rng, d))
    channels = tuple(JumpChannel(0.5, oracles.random_ginibre(rng, d) / math.sqrt(d))
                     for _ in range(2))
    return LindbladModel(h, channels), thermal_state(h, 1.0)


def trajectory_rows(model, rho0, rows):
    """(state, decomposition, F's spectrum) for the first `rows` rows of a run
    from rho0, warm-started the way `qbattery run` does it."""
    ctx = BatteryContext(1.0, model)
    basis = rho0.spectrum.eigenvectors
    for state, _ in propagate(model, rho0, np.linspace(0.0, (rows - 1) * 1e-3, rows)):
        decomp = free_energy_operator(state, ctx)
        f_spectrum = hermitian_eig(HermitianMatrix(decomp.f_op), basis=basis)
        basis = f_spectrum.eigenvectors
        yield state, decomp, f_spectrum


@pytest.fixture
def sweeps(monkeypatch):
    """A list that grows by one per Jacobi sweep: hermitian_eig fetches the
    round-robin schedule once per sweep."""
    seen = []
    schedule = linalg._round_robin

    def counted(d):
        seen.append(d)
        return schedule(d)

    monkeypatch.setattr(linalg, "_round_robin", counted)
    return seen


class TestOneStateChecks:
    """Checks of one state's operands and values: the stacked cores take
    operands of one dimension, built from one model and its states."""

    def test_operands_of_another_dimension_are_rejected(self):
        # a state meets a model from outside the library only in propagate
        ctx, qutrit = qubit_ctx(SIGMA_X), DensityMatrix(np.eye(3) / 3.0)
        with pytest.raises(DimensionError) as exc:
            propagate(ctx.model, qutrit, [0.0, 0.1])
        assert str(exc.value) == "state dimension 3 vs model 2"

    # deltaF = diag(0.0069, -5.9) here: a thermal state's deltaF would be rounding alone
    UNEVEN = DensityMatrix(np.diag([0.999, 0.001]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_commutator_that_overflows_is_named(self):
        # [deltaF, L]'s off-diagonal entries are (0.0069 + 5.9) * 1e308
        decomp = free_energy_operator(self.UNEVEN, qubit_ctx())
        with pytest.raises(ValidationError) as exc:
            theta_operator_form(decomp.delta_f, self.UNEVEN, 1e308 * SIGMA_X)
        assert str(exc.value) == "commutator: non-finite entries in result"

    def test_a_theta_negative_beyond_the_psd_slack_is_named(self):
        # |[deltaF, sigma_minus]|^2 = (deltaF_00 - deltaF_11)^2 |0><0|, read in a
        # state whose ground population is -5e-11, within the states' psd slack
        decomp = free_energy_operator(self.UNEVEN, qubit_ctx())
        rho = DensityMatrix(np.diag([-5e-11, 1.0 + 5e-11]))
        gap = decomp.delta_f[0, 0].real - decomp.delta_f[1, 1].real
        with pytest.raises(ConsistencyError) as exc:
            theta_operator_form(decomp.delta_f, rho, SIGMA_MINUS)
        assert str(exc.value) == \
            f"Theta = {gap ** 2 * -5e-11:.3e} is negative beyond the PSD slack"


class TestFreeEnergyEigensystem:
    """deltaF's spectrum is F's, shifted by <F>, with F's eigenvectors."""

    @pytest.mark.parametrize("d", [8, 32])
    def test_thermal_start_needs_no_sweep_from_the_state_basis(self, sweeps, d):
        # F = H + ln(rho)/beta is a multiple of I plus rounding, diagonal in rho's basis
        model, rho0 = thermal_ginibre(0, d)
        decomp = free_energy_operator(rho0, BatteryContext(1.0, model))
        before = len(sweeps)
        hermitian_eig(HermitianMatrix(decomp.f_op), basis=rho0.spectrum.eigenvectors)
        assert len(sweeps) == before

    @pytest.mark.parametrize("seed", [0, 7])
    def test_along_a_thermal_trajectory(self, seed):
        model, rho0 = thermal_ginibre(seed, 32)
        for state, decomp, f_spectrum in trajectory_rows(model, rho0, 21):
            want = np.linalg.eigvalsh(decomp.delta_f)
            w = f_spectrum.eigenvalues - decomp.mean
            assert max_abs(w - want) <= 1e-12 * max(1.0, max_abs(decomp.f_op))
            for t_op, t_ix in compute_theta_report(decomp, f_spectrum, state, model):
                bound = DEFAULT_TOLERANCES.theta_discrepancy * max(1.0, t_op)
                assert abs(t_ix - t_op) <= bound


class TestMeanFreeEnergy:
    def test_eigenstate_gives_bare_energy(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]))
        assert mean_free_energy(rho, qubit_ctx()) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_literal(self):
        got = mean_free_energy(MIXED, qubit_ctx())
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
        assert abs(power_at(rho, ctx)) <= 1e-10

    def test_unitary_only_any_state(self, rng):
        h = HermitianMatrix(oracles.random_hermitian(rng, 3))
        ctx = BatteryContext(1.0, LindbladModel(h))
        rho = DensityMatrix(oracles.random_density(rng, 3))
        assert abs(power_at(rho, ctx)) <= 1e-9

    def test_pure_state_rejected(self):
        with pytest.raises(RankDeficientError):
            power_at(GROUND, qubit_ctx(SIGMA_PLUS))

    def test_matches_finite_difference_inside_trajectory(self):
        ctx = qubit_ctx(SIGMA_PLUS)
        rho0 = DensityMatrix(_mixed(GROUND.matrix, 1e-3))
        p_an, p_fd = run_powers(ctx, rho0, np.linspace(0.0, 1.0, 1001))[500]
        assert abs(p_an - p_fd) <= 1e-5

    def test_fd_error_quarters_when_step_halves(self):
        ctx = qubit_ctx(SIGMA_PLUS)
        rho0 = DensityMatrix(_mixed(GROUND.matrix, 1e-3))
        errors = []
        for n in (251, 501):  # h = 2e-3 then 1e-3 over [0, 0.5]
            p_an, p_fd = run_powers(ctx, rho0, np.linspace(0.0, 0.5, n))[(n - 1) // 2]  # t = 0.25
            errors.append(abs(p_fd - p_an))
        ratio = errors[0] / errors[1]
        assert 3.0 < ratio < 5.0

    def test_fd_constant_trajectory(self):
        model = LindbladModel(HermitianMatrix(np.zeros((2, 2))))
        ctx = BatteryContext(1.0, model)
        rho0 = DensityMatrix(np.diag([0.25, 0.75]))
        assert run_powers(ctx, rho0, np.linspace(0.0, 0.1, 11))[5][1] == 0.0

    def test_fd_unitary_precession(self):
        h = HermitianMatrix(np.diag([0.0, 1.0]))
        ctx = BatteryContext(1.0, LindbladModel(h))
        plus = DensityMatrix.pure([1.0, 1.0])
        rho0 = DensityMatrix(_mixed(plus.matrix, 0.1))
        assert abs(run_powers(ctx, rho0, np.linspace(0.0, 1.0, 1001))[500][1]) <= 1e-8

    def test_fd_step_validation(self):
        # the central difference of `run` divides by the config's time step
        data = json.loads((SCENARIOS / "qubit_dark_state.json").read_text())
        for bad, message in ((0.0, "must be > 0.0"), (-0.01, "must be > 0.0"),
                             (math.inf, "must be finite"), (math.nan, "must be finite")):
            data["time"]["step"] = bad
            with pytest.raises(ConfigError, match=re.escape(f"time.step: {message}")):
                parse_config(json.dumps(data), "run")


class TestThetaOperatorForm:
    def test_thermal_state_zero(self, rng):
        ctx = qubit_ctx()
        rho = thermal_state(H2, 1.0)
        decomp = free_energy_operator(rho, ctx)
        l = oracles.random_ginibre(rng, 2)
        assert theta_operator_form(decomp.delta_f, rho, l) <= 1e-12

    def test_diagonal_operator_commutes(self):
        ctx = qubit_ctx()
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        decomp = free_energy_operator(rho, ctx)
        assert theta_operator_form(decomp.delta_f, rho, np.diag([2.0, 1.0 + 3.0j])) == 0.0

    def test_eigenstate_qubit_literal(self):
        # deltaF = diag(0,1) - 0*I at k0 = 0; [deltaF, sigma_minus] has unit weight.
        # ln(rho) does not exist at a pure state: the closed forms take F = H
        # there, and so does this hand-built deltaF
        assert theta_operator_form(H2.matrix, GROUND, SIGMA_MINUS) == pytest.approx(1.0, abs=1e-14)


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
        t_op = theta_operator_form(decomp.delta_f, rho, l)
        eig = hermitian_eig(HermitianMatrix(decomp.f_op))
        u, u_dag = eig.eigenvectors, dagger(eig.eigenvectors)
        rho_c = u_dag @ rho.matrix @ u
        l_c = u_dag @ l @ u
        t_ix = theta_index_form(eig.eigenvalues - decomp.mean, rho_c, l_c)
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
        got = theta_operator_form(decomp.delta_f, rho, l)
        want = oracles.theta(rho_m, h_m, beta, l)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestImaginaryResidual:
    """The one imaginary-residual check, through each one-row core it guards."""

    @pytest.fixture
    def complex_model(self, rng):
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 3)),
                              (JumpChannel(1.0, oracles.random_ginibre(rng, 3)),))
        rho = DensityMatrix(oracles.random_density(rng, 3))
        return model, rho, free_energy_operator(rho, BatteryContext(1.0, model))

    def test_power_rounding_breaches_a_zero_tolerance(self, complex_model):
        model, rho, decomp = complex_model
        rate = liouvillian(model, rho)
        power_analytic(rate, decomp.f_op)  # its residual is rounding: within the default
        with pytest.raises(ConsistencyError, match="^power has imaginary residual"):
            power_analytic(rate, decomp.f_op, tol=ToleranceConfig(theta_imag=0.0))

    def test_operator_theta_rounding_breaches_a_zero_tolerance(self, complex_model):
        model, rho, decomp = complex_model
        l = model.channels[0].operator
        theta_operator_form(decomp.delta_f, rho, l)
        with pytest.raises(ConsistencyError, match="^Theta has imaginary residual"):
            theta_operator_form(decomp.delta_f, rho, l, tol=ToleranceConfig(theta_imag=0.0))

    def test_index_theta_of_non_hermitian_components(self, rng):
        w = rng.uniform(-2.0, 2.0, size=3)
        with pytest.raises(ConsistencyError, match="^index-form Theta has imaginary residual"):
            theta_index_form(w, oracles.random_ginibre(rng, 3), oracles.random_ginibre(rng, 3))


class TestThetaEigenstate:
    def test_sigma_x_unit(self):
        l_c = SIGMA_X
        assert closed_form_theta(0, [0.0, 1.0], l_c) == 1.0

    def test_raising_operator_zero_row(self):
        assert closed_form_theta(0, [0.0, 1.0], SIGMA_PLUS) == 0.0

    def test_diagonal_operator(self):
        assert closed_form_theta(1, [0.0, 1.0], np.diag([3.0, 4.0])) == 0.0

    def test_reduces_from_index_form(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 7))
            w = rng.uniform(-2.0, 2.0, size=d)
            l_c = oracles.random_ginibre(rng, d)
            k0 = int(rng.integers(0, d))
            proj = np.zeros((d, d), dtype=complex)
            proj[k0, k0] = 1.0
            # the solver sorts w: permute the components with it, and find k0 there
            order = np.argsort(w, kind="stable")
            got = closed_form_theta(int(np.flatnonzero(order == k0)[0]), w[order],
                                    l_c[np.ix_(order, order)])
            want = theta_index_form(w, proj, l_c)
            assert abs(got - want) <= 1e-12

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            closed_form_theta(5, [0.0, 1.0], SIGMA_X)


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
        report = compute_theta_report(decomp, hermitian_eig(HermitianMatrix(decomp.f_op)), rho,
                                      model)
        assert len(report) == 2
        for t_op, t_ix in report:
            assert t_op >= -1e-10
            assert abs(t_ix - t_op) <= 1e-9 * max(1.0, t_op)

    def test_the_spectrum_of_h_is_caught(self, rng):
        # the index form trusts the spectrum it is handed; the operator form
        # does not read it, so a spectrum other than F's shows as a discrepancy
        d = 4
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, d)),
                              (JumpChannel(0.8, oracles.random_ginibre(rng, d)),))
        rho = DensityMatrix(oracles.random_density(rng, d))
        decomp = free_energy_operator(rho, BatteryContext(1.0, model))
        with pytest.raises(ConsistencyError, match="channel 0: Theta forms disagree"):
            compute_theta_report(decomp, hermitian_eig(model.hamiltonian), rho, model)

    def test_a_spectrum_of_another_dimension_is_rejected(self):
        # F's spectrum and the channels have the dimension of the model they
        # come from: a channel of another dimension is rejected when it is built
        with pytest.raises(DimensionError, match="^channel 1 has dimension 3, expected 2$"):
            LindbladModel(H2, (JumpChannel(1.0, SIGMA_MINUS), JumpChannel(1.0, np.eye(3))))


def rows_one_by_one(states, ctx, basis, tol):
    """Rows evaluated one state at a time, each core on one-row stacks: <F>, P
    and the operator-form Thetas per row up to the first failure, and that
    failure (None if every row passed)."""
    out = []
    for state in states:
        try:
            decomp = free_energy_operator(state, ctx, tol=tol)
            f_spectrum = hermitian_eig(HermitianMatrix(decomp.f_op), basis=basis, tol=tol)
            basis = f_spectrum.eigenvectors
            power = power_analytic(liouvillian(ctx.model, state, tol=tol), decomp.f_op, tol=tol)
            report = compute_theta_report(decomp, f_spectrum, state, ctx.model, tol=tol)
        except QBatteryError as exc:
            return out, exc
        out.append((decomp.mean, power, [t_op for t_op, _ in report]))
    return out, None


class TestStackedRows:
    """_evaluate_rows, the stacked evaluation of a block of `run` rows, gives
    the bits of its cores on one-row stacks, and their first failure in row
    order."""

    def assert_like_one_by_one(self, states, ctx, basis=None, tol=DEFAULT_TOLERANCES):
        basis = np.eye(ctx.model.dim, dtype=complex) if basis is None else basis
        want, error = rows_one_by_one(states, ctx, basis, tol)
        stacks = [np.array([state.matrix for state in states]),
                  np.array([state.spectrum.eigenvalues for state in states]),
                  np.array([state.spectrum.eigenvectors for state in states]),
                  np.array([mean_free_energy(state, ctx) for state in states])]
        rows, means, powers, thetas, _ = _evaluate_rows(*stacks, ctx, basis, tol)
        assert list(zip(means, powers, thetas)) == want
        assert rows.n == len(want)
        assert (type(rows.error), str(rows.error)) == (type(error), str(error))
        return rows.error

    @pytest.mark.parametrize("d, seed", [(2, 0), (4, 1), (9, 2)])
    def test_a_trajectory_keeps_its_bits(self, d, seed):
        model, rho0 = thermal_ginibre(seed, d)
        grid = np.linspace(0.0, 0.015, 16)
        states = [state for state, _ in propagate(model, rho0, grid)]
        ctx = BatteryContext(1.0, model)
        assert self.assert_like_one_by_one(states, ctx, rho0.spectrum.eigenvectors) is None

    def test_a_rank_deficient_row_cuts_the_block(self, rng):
        # two rows fail the same check: the first of them is named
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 3)),
                              (JumpChannel(0.8, oracles.random_ginibre(rng, 3)),))
        full = [DensityMatrix(oracles.random_density(rng, 3)) for _ in range(3)]
        deficient = [DensityMatrix(np.diag([0.6, 0.4 - x, x])) for x in (1e-13, 0.0)]
        error = self.assert_like_one_by_one(
            full[:2] + [deficient[0], full[2], deficient[1]], BatteryContext(1.0, model))
        assert isinstance(error, RankDeficientError) and "1.000e-13" in str(error)

    @pytest.mark.parametrize("override, late", [
        ({"theta_discrepancy": 0.0}, ConsistencyError),  # the last check of a row
        ({"jacobi_max_sweeps": 0}, ConvergenceError),    # F's solve, between the stacks
    ])
    @pytest.mark.parametrize("deficient_first", [False, True])
    def test_the_earliest_failing_row_wins(self, rng, override, late, deficient_first):
        # a full-rank row fails late in its own evaluation, a rank-deficient row
        # at its first check: the block raises the failure of whichever comes
        # first, as evaluating row by row did
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, 3)),
                              (JumpChannel(0.8, oracles.random_ginibre(rng, 3)),))
        states = [DensityMatrix(oracles.random_density(rng, 3)),
                  DensityMatrix(np.diag([0.6, 0.4, 0.0]))]
        tol = ToleranceConfig(**override)
        error = self.assert_like_one_by_one(states[::-1] if deficient_first else states,
                                            BatteryContext(1.0, model), tol=tol)
        assert isinstance(error, RankDeficientError if deficient_first else late)


class TestPowerEigenstate:
    def test_sigma_x_refutation_value(self):
        assert eigenstate_power(0, qubit_ctx(SIGMA_X)) == pytest.approx(1.0, abs=1e-14)

    def test_dark_state_zero(self):
        assert eigenstate_power(0, qubit_ctx(SIGMA_MINUS)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_channels_zero(self):
        assert eigenstate_power(0, qubit_ctx(np.diag([1.0, 2.0]))) == pytest.approx(0.0, abs=1e-14)

    def test_forms_agree_on_random_models(self, rng):
        # the trace/index agreement is asserted inside; exercise many draws
        for _ in range(25):
            d = int(rng.integers(2, 7))
            model = LindbladModel(
                HermitianMatrix(oracles.random_hermitian(rng, d)),
                (JumpChannel(float(1.0 - rng.random()), oracles.random_ginibre(rng, d)),))
            k0 = int(rng.integers(0, d))
            value = eigenstate_power(k0, BatteryContext(1.0, model))
            assert math.isfinite(value)


class TestVanishingCondition:
    def test_zero_hamiltonian_trivially_true(self, rng):
        model = LindbladModel(HermitianMatrix(np.zeros((2, 2))),
                              (JumpChannel(1.0, oracles.random_ginibre(rng, 2)),))
        assert condition_at(model, 0)

    def test_sigma_x_false_with_nonzero_theta(self):
        ctx = qubit_ctx(SIGMA_X)
        assert not condition_at(ctx.model, 0)
        theta = evaluate_instance(ctx.model, 0, ctx.beta, "sigma_x").theta_values[0]
        assert theta == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_channel_true_with_zero_theta(self):
        # H = diag(0, 1) is no multiple of |0><0|: the trivial action alone holds
        ctx = qubit_ctx(np.diag([2.0, 5.0]))
        assert condition_at(ctx.model, 0)
        assert evaluate_instance(ctx.model, 0, ctx.beta, "diagonal").theta_values[0] == 0.0

    @staticmethod
    def eigenvector_loop(model, k0, tol=DEFAULT_TOLERANCES):
        """The condition read one eigenvector at a time, each image L|v> formed
        in the original basis: (projector_hamiltonian, per_channel_trivial)."""
        eig = hermitian_eig(model.hamiltonian)
        h, w, u = model.hamiltonian.matrix, eig.eigenvalues, eig.eigenvectors
        scale = max(1.0, max_abs(h))
        pivot = np.outer(u[:, k0], np.conj(u[:, k0])) * w[k0]
        per_channel = []
        for ch in model.channels:
            trivial = True
            for i in range(model.dim):
                if abs(w[i]) <= tol.predicate_zero * scale:
                    continue
                v = u[:, i]
                image = ch.operator @ v
                residual = float(np.linalg.norm(image - complex(np.vdot(v, image)) * v))
                if residual > tol.predicate_zero * max(1.0, max_abs(ch.operator)):
                    trivial = False
                    break
            per_channel.append(trivial)
        return max_abs(h - pivot) <= tol.predicate_zero * scale, tuple(per_channel)

    def test_matches_the_eigenvector_loop(self, rng):
        def model(h, *operators):
            return LindbladModel(HermitianMatrix(h), tuple(JumpChannel(0.7, l) for l in operators))

        d = 4
        h = oracles.random_hermitian(rng, d)
        f_of_h = h @ h - 0.5 * h + np.eye(d)  # commutes with H up to rounding
        g = oracles.random_ginibre(rng, d)
        v = np.linalg.qr(oracles.random_ginibre(rng, 3))[0]
        h3, l3 = np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 1.0, 0.0])
        psi = np.linalg.qr(oracles.random_ginibre(rng, d))[0][:, 0]
        cases = [(model(h, f_of_h), k0) for k0 in range(d)]
        # within (1e-12) and beyond (1e-8) the predicate_zero cut of 1e-10
        cases += [(model(h, f_of_h + 1e-12 * g, f_of_h + 1e-8 * g), 1)]
        cases += [(model(h3, l3), 0), (model(v @ h3 @ dagger(v), v @ l3 @ dagger(v)), 0)]
        cases += [(model(2.0 * np.outer(psi, psi.conj()), g), d - 1)]
        cases += [(m, k0) for _, m, k0 in bundled_witnesses()]
        for _ in range(20):
            n = int(rng.integers(2, 6))
            cases.append((model(oracles.random_hermitian(rng, n),
                                *(oracles.random_ginibre(rng, n)
                                  for _ in range(int(rng.integers(1, 3))))),
                          int(rng.integers(0, n))))
        deciders = set()
        for m, k0 in cases:
            projector, per_channel = self.eigenvector_loop(m, k0)
            assert condition_at(m, k0) == (projector or all(per_channel))
            # each channel alone: where H is no projector, its own triviality decides
            for ch, trivial in zip(m.channels, per_channel):
                alone = LindbladModel(m.hamiltonian, (ch,))
                assert condition_at(alone, k0) == (projector or trivial)
                deciders.add((projector, trivial))
        # the projector decides with a non-trivial channel; triviality both ways without it
        assert {(True, False), (False, True), (False, False)} <= deciders

    def test_projector_hamiltonian_holds_despite_nonzero_theta(self):
        # H = 1 * |1><1| exactly, yet the raising channel has unit fluctuation:
        # the instance on which the claimed equivalence breaks
        ctx = qubit_ctx(SIGMA_PLUS)
        assert condition_at(ctx.model, 1)
        theta = evaluate_instance(ctx.model, 1, ctx.beta, "projector").theta_values[0]
        assert theta == pytest.approx(1.0, abs=1e-14)
        # sigma_x moves |1>, so at k0 = 1 the projector alone holds (at k0 = 0
        # nothing does: test_sigma_x_false_with_nonzero_theta)
        ctx = qubit_ctx(SIGMA_X)
        assert condition_at(ctx.model, 1)
        theta = evaluate_instance(ctx.model, 1, ctx.beta, "projector").theta_values[0]
        assert theta == pytest.approx(1.0, abs=1e-14)

    @staticmethod
    def on_cuts(h, w, components, k0=1):
        """vanishing_condition of one qubit instance with one channel (||L||_max
        = 1) from raw stacks, with |k0><k0| as its projector."""
        projector = np.diag([1.0 - k0, float(k0)]).astype(complex)
        return vanishing_condition(np.asarray(h, dtype=complex)[None], np.array([w], dtype=float),
                                   np.array([k0]), projector[None],
                                   np.asarray(components, dtype=complex)[None],
                                   np.array([0]), np.array([1.0]))

    @staticmethod
    def beside(x):
        return np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)

    # each cut is predicate_zero * max(1, .) = 1e-10 here: a defect, eigenvalue
    # or residual exactly on it counts as zero, one float above it does not.
    # Each instance is built so that the one quantity on its cut decides `holds`
    def test_projector_hamiltonian_on_and_beside_its_cut(self):
        # column 1 is far from scalar on |1>, of eigenvalue 1: the action is not trivial
        cut = DEFAULT_TOLERANCES.predicate_zero * 1.0
        got = [bool(self.on_cuts(np.diag([x, 1.0]), [x, 1.0], [[0.0, 1.0], [0.0, 0.0]])[0])
               for x in self.beside(cut)]
        assert got == [True, True, False]

    def test_a_zero_eigenvalue_on_and_beside_its_cut(self):
        # H = diag(x, 1) is no multiple of |0><0|, and column 0 is far from
        # scalar, so the condition holds only if its eigenvalue x counts as zero
        cut = DEFAULT_TOLERANCES.predicate_zero * 1.0
        got = [bool(self.on_cuts(np.diag([x, 1.0]), [x, 1.0], [[0.0, 0.0], [1.0, 0.0]],
                                 k0=0)[0])
               for x in self.beside(cut)]
        assert got == [True, True, False]

    def test_a_residual_on_and_beside_its_cut(self):
        # H = I is no multiple of |1><1|, and both eigenvalues are nonzero
        cut = DEFAULT_TOLERANCES.predicate_zero * 1.0
        got = []
        for x in self.beside(cut):
            assert np.linalg.norm([0.0, x]) == x  # the residual is x itself
            got.append(bool(self.on_cuts(np.eye(2), [1.0, 1.0], [[0.0, 0.0], [x, 0.0]])[0]))
        assert got == [True, True, False]
