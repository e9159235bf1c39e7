import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import complex_square_matrices, hermitian_matrices
from qbattery.errors import ConvergenceError, DimensionError, DomainError, ValidationError
from qbattery.linalg import (HermitianMatrix, _round_robin, abs_sq, as_square_matrix,
                             commutator, hermitian_eig, matrix_function, max_abs,
                             reconstruct)
from qbattery.tolerances import DEFAULT_TOLERANCES

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
H2 = np.diag([0.0, 1.0]).astype(complex)


class TestCommutator:
    def test_number_operator_raises(self):
        # [diag(0,1), |1><0|] = |1><0|, worked out entrywise
        assert np.array_equal(commutator(H2, SIGMA_PLUS), SIGMA_PLUS)

    def test_self_commutation_is_zero(self, rng):
        a = oracles.random_ginibre(rng, 4)
        assert max_abs(commutator(a, a)) == 0.0

    def test_diagonal_weight_identity(self, rng):
        # [diag(w), L] entry (i, k) is (w_i - w_k) L_ik
        w = rng.uniform(-2.0, 2.0, size=4)
        l = oracles.random_ginibre(rng, 4)
        got = commutator(np.diag(w).astype(complex), l)
        for i in range(4):
            for k in range(4):
                assert got[i, k] == pytest.approx((w[i] - w[k]) * l[i, k], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(2), np.eye(3))

    @given(complex_square_matrices(2, 4), complex_square_matrices(2, 4))
    def test_antisymmetry(self, a, b):
        if a.shape != b.shape:
            return
        assert max_abs(commutator(a, b) + commutator(b, a)) <= 1e-12


class TestAbsSq:
    def test_raising_operator_projects_on_excited(self):
        got = abs_sq(SIGMA_PLUS)
        assert np.array_equal(got.matrix, np.diag([0.0, 1.0]).astype(complex))

    def test_zero(self):
        assert max_abs(abs_sq(np.zeros((3, 3))).matrix) == 0.0

    def test_against_loop_oracle(self, rng):
        a = oracles.random_ginibre(rng, 3)
        got = abs_sq(a).matrix
        want = oracles.abs_sq_loops(a)
        assert max_abs(got - want) <= 1e-12

    @given(complex_square_matrices(2, 5))
    def test_psd_within_slack(self, a):
        h = abs_sq(a)
        floor = -1e-10 * max(1.0, max_abs(h.matrix))
        assert np.linalg.eigvalsh(h.matrix).min() >= floor


class TestHermitianMatrix:
    def test_symmetrizes_and_records_defect(self):
        m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]], dtype=complex)
        h = HermitianMatrix(m)
        assert max_abs(h.matrix - oracles.dag(h.matrix)) == 0.0
        assert 0.0 < h.defect < 1e-13

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_defect_tolerance_scales_with_magnitude(self):
        # 1e-10 absolute asymmetry is fine on a matrix of norm ~1e3
        m = np.array([[1e3, 1e3 + 1e-10j], [1e3, 1e3]], dtype=complex)
        h = HermitianMatrix(m)
        assert h.defect <= 1e-9

    def test_stored_array_is_frozen(self):
        h = HermitianMatrix(H2)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            as_square_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestHermitianEig:
    def test_diagonal_gets_sorted_with_permutation_vectors(self):
        spec = hermitian_eig(HermitianMatrix(np.diag([5.0, 2.0])))
        assert np.array_equal(spec.eigenvalues, np.array([2.0, 5.0]))
        assert np.array_equal(spec.eigenvectors,
                              np.array([[0, 1], [1, 0]], dtype=complex))

    def test_identity_keeps_original_order(self):
        spec = hermitian_eig(HermitianMatrix(np.eye(3)))
        assert np.array_equal(spec.eigenvectors, np.eye(3, dtype=complex))

    def test_sigma_x_by_hand(self):
        spec = hermitian_eig(HermitianMatrix(SIGMA_X))
        assert spec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)
        r = 1.0 / math.sqrt(2.0)
        assert max_abs(spec.eigenvectors[:, 0] - np.array([r, -r])) <= 1e-14
        assert max_abs(spec.eigenvectors[:, 1] - np.array([r, r])) <= 1e-14

    def test_sigma_y_phase_convention(self):
        # first component of each eigenvector is made real positive
        spec = hermitian_eig(HermitianMatrix(SIGMA_Y))
        r = 1.0 / math.sqrt(2.0)
        assert max_abs(spec.eigenvectors[:, 0] - np.array([r, -1j * r])) <= 1e-14
        assert max_abs(spec.eigenvectors[:, 1] - np.array([r, 1j * r])) <= 1e-14

    def test_reconstruction_unitarity_8x8(self, rng):
        m = oracles.random_hermitian(rng, 8, scale=3.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        scale = max(1.0, max_abs(h.matrix))
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(8)) <= 1e-10

    def test_matches_numpy_up_to_dim_12(self, rng):
        # d = 16, 24 and 32 ride along: the sizes where rounds hold many pairs
        for d in [*range(2, 13), 16, 24, 32]:
            m = oracles.random_hermitian(rng, d, scale=10.0 / 3.0)
            spec = hermitian_eig(HermitianMatrix(m))
            want = np.linalg.eigvalsh(m)
            scale = max(1.0, max_abs(m))
            assert max_abs(spec.eigenvalues - want) <= 1e-10 * scale

    def test_deterministic(self, rng):
        m = oracles.random_hermitian(rng, 6)
        a = hermitian_eig(HermitianMatrix(m))
        b = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_block_diagonal_with_exact_zero_pairs(self, rng):
        # blocks {0, 3}, {1, 4, 5} and {2}: most pairs have a_pq == 0 exactly,
        # so rounds mix skipped and live pairs and some rounds skip entirely
        blocks = ([0, 3], [1, 4, 5], [2])
        m = np.zeros((6, 6), dtype=complex)
        for idx in blocks:
            m[np.ix_(idx, idx)] = oracles.random_hermitian(rng, len(idx), scale=2.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert max_abs(spec.eigenvalues - np.linalg.eigvalsh(m)) <= 1e-12
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(6)) <= 1e-12
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-12
        # rotations never leave a block: every eigenvector lives on one block
        for j in range(6):
            support = {int(i) for i in np.flatnonzero(u[:, j])}
            assert any(support <= set(idx) for idx in blocks)
        again = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)
        assert np.array_equal(again.eigenvectors, spec.eigenvectors)

    def test_degenerate_non_diagonal(self, rng):
        u0 = oracles.random_unitary(rng, 4)
        m = (u0 * np.array([1.0, 1.0, 2.0, 2.0])) @ oracles.dag(u0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert max_abs(spec.eigenvalues - np.array([1.0, 1.0, 2.0, 2.0])) <= 1e-12
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(4)) <= 1e-12
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-12
        # the basis inside each eigenspace is the solver's choice; the
        # eigenspace itself is not
        for cols in ([0, 1], [2, 3]):
            want = u0[:, cols] @ oracles.dag(u0[:, cols])
            assert max_abs(u[:, cols] @ oracles.dag(u[:, cols]) - want) <= 1e-12
        for j in range(4):
            pivot = u[np.argmax(np.abs(u[:, j])), j]
            assert abs(pivot.imag) <= 1e-15 and pivot.real > 0.0
        again = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)
        assert np.array_equal(again.eigenvectors, spec.eigenvectors)

    def test_convergence_budget_exhaustion(self):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=0)
        with pytest.raises(ConvergenceError) as exc:
            hermitian_eig(HermitianMatrix(SIGMA_X), tol=tol)
        assert exc.value.off_diagonal_norm > 0.0

    @given(hermitian_matrices(2, 5))
    @settings(max_examples=40)
    def test_spectrum_invariants_random(self, m):
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        d = h.dim
        u = spec.eigenvectors
        scale = max(1.0, max_abs(h.matrix))
        assert max_abs(oracles.dag(u) @ u - np.eye(d)) <= 1e-10
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale


def rotation(rng, d, angle):
    """exp(i angle K) for a random Hermitian K with entries of order one."""
    w, u = np.linalg.eigh(oracles.random_hermitian(rng, d))
    return (u * np.exp(1j * angle * w)) @ oracles.dag(u)


class TestWarmStart:
    def test_perturbed_basis_matches_cold_up_to_dim_12(self, rng):
        for d in [*range(2, 13), 32]:
            m = oracles.random_hermitian(rng, d, scale=10.0 / 3.0)
            h = HermitianMatrix(m)
            cold = hermitian_eig(h)
            warm = hermitian_eig(h, basis=cold.eigenvectors @ rotation(rng, d, 1e-3))
            want = np.linalg.eigvalsh(m)
            scale = max(1.0, max_abs(m))
            for spec in (cold, warm):
                assert max_abs(spec.eigenvalues - want) <= 1e-10 * scale
                assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale
                u = spec.eigenvectors
                assert max_abs(oracles.dag(u) @ u - np.eye(d)) <= 1e-10
            assert max_abs(warm.eigenvalues - cold.eigenvalues) <= 1e-10 * scale

    def test_far_basis_still_converges(self, rng):
        m = oracles.random_hermitian(rng, 8, scale=2.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h, basis=oracles.random_unitary(rng, 8))
        scale = max(1.0, max_abs(m))
        assert max_abs(spec.eigenvalues - np.linalg.eigvalsh(m)) <= 1e-10 * scale
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale

    def test_diagonal_input_ignores_the_basis(self, rng):
        h = HermitianMatrix(np.diag([0.5, -1.0, 0.5, 2.0, 0.0]))
        cold = hermitian_eig(h)
        warm = hermitian_eig(h, basis=oracles.random_unitary(rng, 5))
        assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
        assert np.array_equal(warm.eigenvectors, cold.eigenvectors)

    def test_ties_follow_the_start_basis(self):
        # a Hadamard basis is unitary in floating point, so B^dag M B is
        # exactly diag(1, 1, 2, 2) and both pairs tie exactly
        had = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                              [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex)
        h = HermitianMatrix((had * np.array([1.0, 1.0, 2.0, 2.0])) @ had.T)
        for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
            spec = hermitian_eig(h, basis=had[:, order])
            assert np.array_equal(spec.eigenvalues, np.array([1.0, 1.0, 2.0, 2.0]))
            # columns come back in the start order, phased to a positive first entry
            assert np.array_equal(spec.eigenvectors, had[:, order] * had[0, order] * 2.0)

    def test_long_chain_of_warm_starts_stays_unitary(self, rng):
        # each call starts from the eigenvectors of the previous one, as along
        # a trajectory; without re-projecting the start basis onto the unitary
        # group, the round-off of every call would accumulate in it
        d = 8
        lam = np.linspace(0.05, 0.2, d)
        u0 = oracles.random_unitary(rng, d)
        w, k = np.linalg.eigh(oracles.random_hermitian(rng, d))
        basis = None
        worst = 0.0
        for step in range(2000):
            u = (k * np.exp(1e-3j * step * w)) @ oracles.dag(k) @ u0
            spec = hermitian_eig(HermitianMatrix((u * lam) @ oracles.dag(u)), basis=basis)
            basis = spec.eigenvectors
            worst = max(worst, max_abs(oracles.dag(basis) @ basis - np.eye(d)))
        assert worst <= 1e-13


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_every_pair_exactly_once_per_sweep(self, d):
        rounds = _round_robin(d)
        assert len(rounds) == d - 1 + d % 2
        seen = []
        for p, q, idx in rounds:
            assert np.all(p < q) and np.all(q < d)
            touched = np.concatenate((p, q))
            assert np.unique(touched).size == touched.size   # disjoint pairs
            assert p.size == d // 2   # odd d: the dummy's pair is dropped
            rows, cols = np.unravel_index(idx, (d, d))
            assert np.array_equal(rows, np.concatenate((p, p, q, q)))
            assert np.array_equal(cols, np.concatenate((p, q, p, q)))
            seen.extend(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]

    def test_small_dims_keep_the_cyclic_order(self):
        for d, want in ((2, [(0, 1)]), (3, [(0, 1), (0, 2), (1, 2)])):
            got = [(int(p[0]), int(q[0])) for p, q, _ in _round_robin(d)]
            assert got == want

    def test_schedule_is_computed_once_per_dim(self):
        assert _round_robin(7) is _round_robin(7)


class TestAccuracyNearRankThreshold:
    """Eigenvalues of ill-conditioned density matrices against 50 digits."""

    @staticmethod
    def check(lam_min, warm):
        mp = pytest.importorskip("mpmath")
        d = 8
        eps = np.finfo(float).eps
        rng = np.random.default_rng(int(round(-math.log10(lam_min))))
        for _ in range(3):
            tail = np.exp(rng.uniform(math.log(1e-3), 0.0, size=d - 1))
            lam = np.concatenate(([lam_min], tail))
            lam = lam / lam.sum()
            u = oracles.random_unitary(rng, d)
            h = HermitianMatrix((u * lam) @ oracles.dag(u))
            # warm: start from the eigenvectors of a state one small step away
            basis = u @ rotation(rng, d, 1e-3) if warm else None
            with mp.workdps(50):
                exact = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in h.matrix])
                ref = sorted(mp.eighe(exact, eigvals_only=True))
                norm2 = float(ref[-1])
                got = hermitian_eig(h, basis=basis).eigenvalues
                errors = [float(abs(mp.mpf(float(g)) - r)) for g, r in zip(got, ref)]
            assert max(errors) <= 8 * d * eps * norm2

    @pytest.mark.parametrize("lam_min", [1e-12, 1e-9, 1e-6, 1e-2])
    def test_within_backward_stable_bound(self, lam_min):
        self.check(lam_min, warm=False)

    @pytest.mark.parametrize("lam_min", [1e-12, 1e-9, 1e-6, 1e-2])
    def test_warm_start_within_backward_stable_bound(self, lam_min):
        self.check(lam_min, warm=True)


class TestMatrixFunction:
    def test_identity_function(self, rng):
        m = oracles.random_hermitian(rng, 4)
        h = HermitianMatrix(m)
        got = matrix_function(h, lambda x: x)
        assert max_abs(got.matrix - h.matrix) <= 1e-10 * max(1.0, max_abs(m))

    def test_scalar_log(self):
        h = HermitianMatrix(np.diag([0.5, 0.5]))
        got = matrix_function(h, math.log)
        assert max_abs(got.matrix - np.diag([-math.log(2)] * 2)) <= 1e-14

    def test_exp_log_roundtrip(self, rng):
        rho = oracles.random_density(rng, 4)
        h = HermitianMatrix(rho)
        back = matrix_function(matrix_function(h, math.log), math.exp)
        assert max_abs(back.matrix - h.matrix) <= 1e-9

    def test_log_of_singular_matrix(self):
        with pytest.raises(DomainError) as exc:
            matrix_function(HermitianMatrix(np.diag([0.0, 1.0])), math.log)
        assert abs(exc.value.eigenvalue) <= 1e-12

    @given(hermitian_matrices(2, 4), st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=40)
    def test_shift_consistency(self, m, c):
        h = HermitianMatrix(m)
        got = matrix_function(h, lambda x: x + c)
        want = h.matrix + c * np.eye(h.dim)
        assert max_abs(got.matrix - want) <= 1e-10 * max(1.0, max_abs(want))
