import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import complex_square_matrices, density_matrices, hermitian_matrices
from qbattery import cli
from qbattery.cli import main
from qbattery.config import parse_config
from qbattery.dynamics import (DensityMatrix, JumpChannel, LindbladModel, _generator_matrix,
                               _probe_breaches, liouvillian, propagate, regularize,
                               thermal_state, von_neumann_entropy)
from qbattery.errors import (ConvergenceError, DimensionError, ParameterError, PropagationError,
                             ValidationError)
from qbattery.linalg import HermitianMatrix, hermitian_eig, max_abs
from qbattery.tolerances import DEFAULT_TOLERANCES

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
H2 = HermitianMatrix(np.diag([0.0, 1.0]))
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
EXCITED = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def decay_model(rate=1.0):
    return LindbladModel(H2, (JumpChannel(rate, SIGMA_MINUS),))


def dissipation(l, rho):
    """D[rho] = L rho L^dag - {L^dag L, rho}/2: the liouvillian of one unit-rate
    channel with H = 0."""
    d = np.shape(l)[0]
    return liouvillian(LindbladModel(HermitianMatrix(np.zeros((d, d))), (JumpChannel(1.0, l),)),
                       rho)


class TestDensityMatrix:
    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([3.0, 4.0])
        assert rho.matrix[0, 0].real == pytest.approx(9.0 / 25.0, abs=1e-15)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-15

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320])
    def test_pure_at_extreme_vector_scales(self, scale):
        # the norm's square would overflow (1e200) or underflow (1e-200, and the
        # subnormal 1e-320): dividing by the largest magnitude first keeps the bits
        want = DensityMatrix.pure([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = DensityMatrix.pure([scale, scale])
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.spectrum.eigenvectors.tobytes() == want.spectrum.eigenvectors.tobytes()

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [], [1.0, math.inf], [math.nan, 1.0]])
    def test_pure_rejects_zero_and_non_finite_vectors(self, vector):
        with pytest.raises(ParameterError, match="nonzero and finite"):
            DensityMatrix.pure(vector)

    def test_trace_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_positivity_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_spectrum_cached_and_ascending(self, rng):
        rho = DensityMatrix(oracles.random_density(rng, 5))
        assert np.all(np.diff(rho.spectrum.eigenvalues) >= 0.0)
        assert rho.min_eigenvalue > 0.0


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(DensityMatrix(GROUND)) == 0.0

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(2), abs=1e-15)

    def test_three_quarters_split(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-15)

    @given(density_matrices(2, 5))
    @settings(max_examples=40)
    def test_bounds(self, m):
        rho = DensityMatrix(m)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= math.log(rho.dim) + 1e-12

    def test_unitary_invariance(self, rng):
        rho_m = oracles.random_density(rng, 4)
        u = hermitian_eig(HermitianMatrix(oracles.random_hermitian(rng, 4))).eigenvectors
        rotated = DensityMatrix(u @ rho_m @ oracles.dag(u))
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(DensityMatrix(rho_m)), abs=1e-10)


class TestDissipator:
    def test_decay_from_excited(self):
        got = dissipation(SIGMA_MINUS, DensityMatrix(EXCITED))
        assert max_abs(got.matrix - np.diag([1.0, -1.0])) <= 1e-15

    def test_dark_state(self):
        got = dissipation(SIGMA_MINUS, DensityMatrix(GROUND))
        assert max_abs(got.matrix) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dissipation(np.eye(3), DensityMatrix(GROUND))

    @given(complex_square_matrices(2, 5), density_matrices(2, 5))
    @settings(max_examples=40)
    def test_traceless_hermitian(self, l, rho_m):
        if l.shape != rho_m.shape:
            return
        got = dissipation(l, DensityMatrix(rho_m))
        assert abs(np.trace(got.matrix)) <= 1e-12 * max(1.0, max_abs(got.matrix))
        assert max_abs(got.matrix - oracles.dag(got.matrix)) == 0.0

    def test_seeded_sweep_matches_oracle(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            l = oracles.random_ginibre(rng, d)
            rho_m = oracles.random_density(rng, d)
            got = dissipation(l, DensityMatrix(rho_m)).matrix
            want = oracles.generator(np.zeros((d, d)), [(1.0, l)], rho_m)
            assert max_abs(got - want) <= 1e-12 * max(1.0, max_abs(want))


class TestLiouvillian:
    def test_unitary_only_commuting_state_is_stationary(self, rng):
        h = HermitianMatrix(oracles.random_hermitian(rng, 3))
        model = LindbladModel(h)
        rho = thermal_state(h, 1.0)
        assert max_abs(liouvillian(model, rho).matrix) <= 1e-14

    def test_qubit_decay_generator(self):
        got = liouvillian(decay_model(), DensityMatrix(EXCITED))
        assert max_abs(got.matrix - np.diag([1.0, -1.0])) <= 1e-15

    def test_matches_numpy_oracle(self, rng):
        d = 4
        h_m = oracles.random_hermitian(rng, d)
        channels = [(0.7, oracles.random_ginibre(rng, d)),
                    (0.2, oracles.random_ginibre(rng, d))]
        model = LindbladModel(HermitianMatrix(h_m),
                              tuple(JumpChannel(r, l) for r, l in channels))
        rho_m = oracles.random_density(rng, d)
        got = liouvillian(model, DensityMatrix(rho_m)).matrix
        want = oracles.generator(h_m, channels, rho_m)
        assert max_abs(got - want) <= 1e-12 * max(1.0, max_abs(want))

    @given(density_matrices(2, 4))
    @settings(max_examples=30)
    def test_traceless(self, rho_m):
        d = rho_m.shape[0]
        rng = np.random.default_rng(7)
        model = LindbladModel(HermitianMatrix(oracles.random_hermitian(rng, d)),
                              (JumpChannel(0.5, oracles.random_ginibre(rng, d)),))
        got = liouvillian(model, DensityMatrix(rho_m))
        assert abs(np.trace(got.matrix)) <= 1e-12 * max(1.0, max_abs(got.matrix))


@st.composite
def generator_cases(draw):
    """A Hermitian matrix and a model of its dimension: a Hermitian H and zero
    to three channels, each of rate 0, 0.3 or 2.5 and a Ginibre operator."""
    rho = draw(hermitian_matrices(2, 5))
    d = rho.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rates = draw(st.lists(st.sampled_from([0.0, 0.3, 2.5]), max_size=3))
    channels = [(rate, oracles.random_ginibre(rng, d)) for rate in rates]
    return rho, oracles.random_hermitian(rng, d), channels


class TestGenerator:
    @given(generator_cases())
    @settings(max_examples=60)
    def test_matches_the_oracle_and_is_exactly_hermitian(self, case):
        # an entry of L rho L^dag is a sum of d^2 products, each at most
        # ||L||_max^2 ||rho||_max, computed as two dot products of length d: its
        # rounding is at most about 2 d^3 eps ||L||^2 ||rho||, and so for the other
        # terms of both forms.  The bound allows 16 d^3 eps times that scale;
        # 3000 seeded draws reached 0.37 d^3 eps times it.
        rho, h, channels = case
        d = rho.shape[0]
        model = LindbladModel(HermitianMatrix(h), tuple(JumpChannel(r, l) for r, l in channels))
        got = _generator_matrix(*model._generator, rho)
        want = oracles.generator(h, channels, rho)
        scale = (max_abs(h) + sum(r * max_abs(l) ** 2 for r, l in channels)) * max_abs(rho)
        assert max_abs(got - want) <= 16 * d ** 3 * np.finfo(float).eps * scale
        assert np.array_equal(got, oracles.dag(got))
        stack = _generator_matrix(*model._generator, np.array([rho, 0.5 * rho]))
        assert stack[0].tobytes() == got.tobytes()

    @pytest.mark.parametrize("name", ["qubit_sigma_x", "qubit_dark_state", "qutrit_ladder",
                                      "thermal_stationary", "seeded_d4"])
    def test_every_rk4_state_is_exactly_hermitian(self, rng, name):
        if name == "seeded_d4":
            d = 4
            model = LindbladModel(
                HermitianMatrix(oracles.random_hermitian(rng, d)),
                tuple(JumpChannel(0.5, 0.5 * oracles.random_ginibre(rng, d)) for _ in range(2)))
            rho0 = DensityMatrix(oracles.random_density(rng, d))
            grid = np.linspace(0.0, 0.1, 101)
        else:
            cfg = parse_config((SCENARIOS / f"{name}.json").read_text(), "run")
            model, rho0 = cfg.model, cli._initial_state(cfg, DEFAULT_TOLERANCES)
            grid = cfg.time.grid()[:101]
        pairs = list(propagate(model, rho0, grid))
        assert len(pairs) == grid.size
        for state, trace_defect in pairs[1:]:
            assert state.hermiticity_defect == 0.0
            assert np.array_equal(state.matrix, oracles.dag(state.matrix))
            assert trace_defect == state.trace_defect == abs(complex(state.matrix.trace()) - 1.0)


class TestModelValidation:
    def test_negative_rate(self):
        with pytest.raises(ParameterError):
            JumpChannel(-1.0, SIGMA_MINUS)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(HermitianMatrix(np.eye(1)))

    def test_channel_dim_mismatch(self):
        with pytest.raises(DimensionError):
            LindbladModel(H2, (JumpChannel(1.0, np.eye(3, dtype=complex)),))


class TestPropagate:
    def test_zero_generator_constant(self):
        model = LindbladModel(HermitianMatrix(np.zeros((2, 2))))
        rho0 = DensityMatrix(np.diag([0.25, 0.75]))
        states = [s for s, _ in propagate(model, rho0, np.linspace(0.0, 1.0, 11))]
        assert len(states) == 11
        for state in states:
            assert max_abs(state.matrix - rho0.matrix) == 0.0

    def test_exponential_decay(self):
        grid = np.linspace(0.0, 1.0, 1001)
        states, trace_defects = zip(*propagate(decay_model(), DensityMatrix(EXCITED), grid))
        for i in (0, 100, 500, 1000):
            want = math.exp(-grid[i])
            assert states[i].matrix[1, 1].real == pytest.approx(want, abs=1e-6)
        assert max(trace_defects) <= 1e-8
        assert max(s.hermiticity_defect for s in states) <= 1e-10

    def test_grid_offset_allowed(self):
        grid = 2.0 + np.linspace(0.0, 0.1, 11)
        states = [s for s, _ in propagate(decay_model(), DensityMatrix(EXCITED), grid)]
        assert grid[0] == 2.0 and len(states) == grid.size
        assert states[-1].matrix[1, 1].real == pytest.approx(math.exp(-0.1), abs=1e-8)

    def test_unitary_only_entropy_constant(self, rng):
        h = HermitianMatrix(np.array([[0.0, 0.5], [0.5, 1.0]]))
        model = LindbladModel(h)
        rho0 = regularize(DensityMatrix(GROUND), 0.2)
        states = [s for s, _ in propagate(model, rho0, np.linspace(0.0, 0.5, 501))]
        s0 = von_neumann_entropy(states[0])
        drift = max(abs(von_neumann_entropy(s) - s0) for s in states[::50])
        assert drift <= 1e-8

    def test_blowup_reports_step_and_partial(self):
        grid = np.linspace(0.0, 5.0, 6)
        yielded = []
        with pytest.raises(PropagationError) as exc:
            yielded.extend(propagate(decay_model(rate=100.0), DensityMatrix(EXCITED), grid))
        err = exc.value
        assert err.step_index >= 1
        assert len(yielded) == err.step_index
        assert err.min_eigenvalue < -1e-8 or err.trace_defect > 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stages_are_named_without_warnings(self):
        # ||H|| = 1e100 overflows the RK4 stages of the first step
        h = HermitianMatrix(1e100 * np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]]))
        model = LindbladModel(h, (JumpChannel(1.0, SIGMA_MINUS),))
        with pytest.raises(PropagationError, match="non-finite entries") as exc:
            list(propagate(model, DensityMatrix(np.diag([0.9, 0.1])), [0.0, 1e-3]))
        assert exc.value.step_index == 1

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ParameterError):
            propagate(decay_model(), DensityMatrix(EXCITED), [0.0, 0.1, 0.3])

    def test_stream_starts_with_the_initial_state(self):
        rho0 = DensityMatrix(EXCITED)
        stream = propagate(decay_model(), rho0, [0.0])
        assert next(stream) == (rho0, rho0.trace_defect)
        assert next(stream, None) is None

    def test_descending_grid_rejected(self):
        with pytest.raises(ParameterError):
            propagate(decay_model(), DensityMatrix(EXCITED), [0.0, -0.1, -0.2])


def _probe_stack(model, epsilons):
    """The regularized ground states of `model` at `epsilons`: the states and
    their eigenvector stacks."""
    k0 = hermitian_eig(model.hamiltonian).eigenvectors[:, 0]
    rungs = [regularize(DensityMatrix.pure(k0), eps) for eps in epsilons]
    return rungs, np.array([r.matrix for r in rungs]), np.array([r.spectrum.eigenvectors
                                                                for r in rungs])


class TestProbeBreaches:
    def test_a_probe_after_a_breach_is_checked_again(self):
        # the step-0.15 ladder of sigma_x at rate 10 breaches at eps = 1e-4 and
        # 0.01, not at 0.9: the middle probe passes after the first breach
        model, step = LindbladModel(H2, (JumpChannel(10.0, np.array([[0, 1], [1, 0]])),)), 0.15
        rungs, rho, bases = _probe_stack(model, [1e-4, 0.9, 0.01])
        expected = []
        for rung in rungs:
            try:
                list(propagate(model, rung, [0.0, step]))
                expected.append(None)
            except PropagationError as exc:
                expected.append(str(exc))
        assert [e is None for e in expected] == [False, True, False]
        assert _probe_breaches(model, rho, bases, step, DEFAULT_TOLERANCES) == expected

    def test_a_failure_that_is_no_breach_raises(self):
        # one Jacobi sweep cannot remove the coherences the channel gives each probe
        h = HermitianMatrix(np.diag([0.0, 1.0, 2.0]))
        model = LindbladModel(h, (JumpChannel(1.0, np.ones((3, 3)) - np.eye(3)),))
        _, rho, bases = _probe_stack(model, [1e-2, 1e-3])
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps"):
            _probe_breaches(model, rho, bases, 1e-3, tol)
        assert _probe_breaches(model, rho, bases, 1e-3, DEFAULT_TOLERANCES) == [None, None]


def _pairs(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


class TestRunAgainstOracles:
    def test_every_row_of_a_dense_run(self, rng, tmp_path):
        # every eigendecomposition after the first row is warm-started from
        # the row before; each row must still match the numpy-only references
        d, beta, step, steps = 8, 1.0, 1e-3, 40
        h = oracles.random_hermitian(rng, d)
        channels = [(0.5, oracles.random_ginibre(rng, d) / math.sqrt(d)) for _ in range(2)]
        rho = oracles.random_density(rng, d)
        cfg = tmp_path / "dense.json"
        cfg.write_text(json.dumps({
            "dim": d, "beta": beta, "hamiltonian": _pairs(h),
            "channels": [{"rate": r, "matrix": _pairs(l)} for r, l in channels],
            "initial_state": {"kind": "matrix", "matrix": _pairs(rho)},
            "time": {"t0": 0.0, "step": step, "horizon": steps * step},
        }))
        out = tmp_path / "dense.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == steps + 1

        def close(got, want):
            return abs(float(got) - want) <= 1e-11 * max(1.0, abs(want))

        for i, row in enumerate(rows):
            if i:
                k1 = oracles.generator(h, channels, rho)
                k2 = oracles.generator(h, channels, rho + 0.5 * step * k1)
                k3 = oracles.generator(h, channels, rho + 0.5 * step * k2)
                k4 = oracles.generator(h, channels, rho + step * k3)
                rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            f = oracles.free_energy_matrix(rho, h, beta)
            assert close(row["energy"], float(np.trace(rho @ h).real))
            assert close(row["entropy"], oracles.entropy(rho))
            assert close(row["free_energy"], float(np.trace(f @ rho).real))
            assert close(row["power_analytic"],
                         float(np.trace(oracles.generator(h, channels, rho) @ f).real))
            for j, (_, l) in enumerate(channels):
                assert close(row[f"theta_{j + 1}"], oracles.theta(rho, h, beta, l))
            assert close(row["min_eig"], float(np.linalg.eigvalsh(rho)[0]))


class TestRegularize:
    def test_half_mix(self):
        got = regularize(DensityMatrix(GROUND), 0.5)
        assert max_abs(got.matrix - np.diag([0.75, 0.25])) <= 1e-15

    def test_maximally_mixed_fixed_point(self):
        mm = DensityMatrix.maximally_mixed(3)
        got = regularize(mm, 0.3)
        assert max_abs(got.matrix - mm.matrix) <= 1e-15

    def test_linearity_of_distance(self, rng):
        rho = DensityMatrix(oracles.random_density(rng, 3))
        eps = 0.125
        got = regularize(rho, eps)
        want = eps * max_abs(np.eye(3) / 3.0 - rho.matrix)
        assert max_abs(got.matrix - rho.matrix) == pytest.approx(want, abs=1e-15)

    def test_full_rank_floor(self):
        got = regularize(DensityMatrix(GROUND), 1e-4)
        assert got.min_eigenvalue >= 1e-4 / 2.0 - 1e-15

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_range_validation(self, eps):
        with pytest.raises(ParameterError):
            regularize(DensityMatrix(GROUND), eps)


class TestThermalState:
    def test_qubit_occupations(self):
        rho = thermal_state(H2, 1.0)
        z = 1.0 + math.exp(-1.0)
        assert rho.matrix[0, 0].real == pytest.approx(1.0 / z, abs=1e-15)
        assert rho.matrix[1, 1].real == pytest.approx(math.exp(-1.0) / z, abs=1e-15)

    def test_detailed_balance_stationarity(self):
        # gamma_up / gamma_down = e^{-beta} keeps the Gibbs state fixed
        model = LindbladModel(H2, (
            JumpChannel(1.0, SIGMA_MINUS),
            JumpChannel(math.exp(-1.0), oracles.dag(SIGMA_MINUS)),
        ))
        rho = thermal_state(H2, 1.0)
        assert max_abs(liouvillian(model, rho).matrix) <= 1e-12

    def test_always_full_rank(self, rng):
        h = HermitianMatrix(oracles.random_hermitian(rng, 6, scale=4.0))
        rho = thermal_state(h, 1.0)
        assert rho.min_eigenvalue > 1e-12

    def test_beta_validation(self):
        with pytest.raises(ParameterError):
            thermal_state(H2, -1.0)
